#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/deviation_placer.h"
#include "core/penalty.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "solver/cost_oracle.h"
#include "solver/instance_delta.h"
#include "solver/jms_greedy.h"
#include "solver/local_search.h"
#include "solver/reopt.h"
#include "solver_reference.h"
#include "stats/rng.h"
#include "stats/spatial.h"

/// Regression tests for the CostOracle/SpatialIndex refactor: every solver
/// threaded through the shared query layer must return BIT-IDENTICAL open
/// sets, assignments and costs to the frozen pre-refactor implementations
/// in solver::reference, for any thread count.

namespace esharing::solver {
namespace {

using geo::Point;

FlInstance random_colocated(stats::Rng& rng, std::size_t n, double f) {
  std::vector<FlClient> clients;
  std::vector<double> costs;
  for (Point p : stats::uniform_points(rng, {{0, 0}, {3000, 3000}}, n)) {
    clients.push_back({p, rng.uniform(0.5, 4.0)});
    costs.push_back(f * rng.uniform(0.5, 1.5));
  }
  return colocated_instance(std::move(clients), std::move(costs));
}

FlInstance random_general(stats::Rng& rng, std::size_t nc, std::size_t nf) {
  FlInstance inst;
  for (Point p : stats::uniform_points(rng, {{0, 0}, {3000, 3000}}, nc)) {
    inst.clients.push_back({p, rng.uniform(0.5, 4.0)});
  }
  for (Point p : stats::uniform_points(rng, {{0, 0}, {3000, 3000}}, nf)) {
    inst.facilities.push_back({p, rng.uniform(500.0, 8000.0)});
  }
  return inst;
}

void expect_identical(const FlSolution& got, const FlSolution& want) {
  EXPECT_EQ(got.open, want.open);
  EXPECT_EQ(got.assignment, want.assignment);
  // Exact double equality, not a tolerance: the refactor's contract.
  EXPECT_EQ(got.connection_cost, want.connection_cost);
  EXPECT_EQ(got.opening_cost, want.opening_cost);
}

TEST(SolverRegression, JmsGreedyMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    stats::Rng rng(seed);
    const auto colocated = random_colocated(rng, 60, 4000.0);
    expect_identical(jms_greedy(colocated), reference::jms_greedy(colocated));
    const auto general = random_general(rng, 50, 25);
    expect_identical(jms_greedy(general), reference::jms_greedy(general));
  }
}

TEST(SolverRegression, JmsGreedyOracleOverloadMatchesInstanceOverload) {
  stats::Rng rng(77);
  const auto inst = random_general(rng, 45, 20);
  const CostOracle oracle(inst);
  expect_identical(jms_greedy(oracle), jms_greedy(inst));
}

TEST(SolverRegression, JmsGreedyIsThreadCountInvariant) {
  stats::Rng rng(101);
  const auto inst = random_general(rng, 70, 40);
  const auto sequential = jms_greedy(inst, JmsOptions{1});
  for (std::size_t threads : {2u, 3u, 8u, 64u}) {
    expect_identical(jms_greedy(inst, JmsOptions{threads}), sequential);
  }
}

/// The hourly re-plan's shape: `n` colocated sites where every tenth site
/// duplicates its predecessor's location, so a client's nearest and
/// second-nearest open connection costs tie exactly when both are open.
FlInstance colocated_with_duplicates(stats::Rng& rng, std::size_t n,
                                     double f) {
  const std::vector<Point> points =
      stats::uniform_points(rng, {{0, 0}, {3000, 3000}}, n);
  std::vector<FlClient> clients;
  std::vector<double> costs;
  for (std::size_t j = 0; j < n; ++j) {
    clients.push_back({j % 10 == 9 ? points[j - 1] : points[j],
                       rng.uniform(0.5, 4.0)});
    costs.push_back(f * rng.uniform(0.5, 1.5));
  }
  return colocated_instance(std::move(clients), std::move(costs));
}

/// Sites shaped like the serving daemon's bootstrap plan: `trips` trip ends
/// drawn around 60 weighted hotspots in a 10 km city (15% uniform
/// background), binned into 100 m cells; every cell with at least
/// `min_trips` ends becomes a site at its centroid weighted by its count,
/// all priced at 10000.
FlInstance clustered_city(std::uint64_t seed, std::size_t trips,
                          double min_trips) {
  constexpr double kArea = 10000.0;
  constexpr std::size_t kCells = 100;
  stats::Rng rng(seed);
  std::vector<Point> hotspots;
  std::vector<double> hotspot_weight;
  for (int h = 0; h < 60; ++h) {
    hotspots.push_back({rng.uniform(0.0, kArea), rng.uniform(0.0, kArea)});
    hotspot_weight.push_back(rng.uniform(1.0, 4.0));
  }
  const double cell_m = kArea / static_cast<double>(kCells);
  std::vector<double> arrivals(kCells * kCells, 0.0);
  for (std::size_t t = 0; t < trips; ++t) {
    Point p{rng.uniform(0.0, kArea), rng.uniform(0.0, kArea)};
    if (!rng.bernoulli(0.15)) {
      const Point c = hotspots[rng.weighted_index(hotspot_weight)];
      p = {std::clamp(c.x + rng.normal(0.0, 200.0), 0.0, kArea),
           std::clamp(c.y + rng.normal(0.0, 200.0), 0.0, kArea)};
    }
    const auto col =
        std::min(static_cast<std::size_t>(p.x / cell_m), kCells - 1);
    const auto row =
        std::min(static_cast<std::size_t>(p.y / cell_m), kCells - 1);
    arrivals[row * kCells + col] += 1.0;
  }
  std::vector<FlClient> clients;
  std::vector<double> costs;
  for (std::size_t cell = 0; cell < arrivals.size(); ++cell) {
    if (arrivals[cell] < min_trips) continue;
    clients.push_back({{(static_cast<double>(cell % kCells) + 0.5) * cell_m,
                        (static_cast<double>(cell / kCells) + 0.5) * cell_m},
                       arrivals[cell]});
    costs.push_back(10000.0);
  }
  return colocated_instance(std::move(clients), std::move(costs));
}

/// A square lattice with unit weights and one opening cost everywhere. With
/// an integer spacing, axis-aligned costs are exact integers, so star
/// ratios tie exactly across facilities and, when the opening cost is a
/// multiple of the spacing, within a walk (the next client's cost equals
/// the best ratio). A spacing of 0.7 (not a binary fraction) turns those
/// ties into rounding near-ties, where a walk that stopped at the first
/// cost >= the best ratio would miss a longer prefix rounding below it.
FlInstance lattice(std::size_t side, double spacing, double opening_cost) {
  std::vector<FlClient> clients;
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      clients.push_back({{static_cast<double>(c) * spacing,
                          static_cast<double>(r) * spacing},
                         1.0});
    }
  }
  return colocated_instance(std::move(clients),
                            std::vector<double>(side * side, opening_cost));
}

/// The star cache against the frozen full-rescan greedy on dense-tie
/// instances, at pool widths 1, 2, 4 and the process-wide width.
void expect_jms_matches_reference(const FlInstance& inst) {
  const FlSolution want = reference::jms_greedy(inst);
  const CostOracle oracle(inst);
  for (std::size_t width : {1u, 2u, 4u, 0u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    expect_identical(jms_greedy(oracle, JmsOptions{width}), want);
  }
}

/// Cheap openings (1000, 2000) open many stars whose switched clients
/// change other facilities' gains; 15000 is the hourly re-plan's price.
TEST(SolverRegression, JmsGreedyMatchesReferenceOnDuplicateSites) {
  for (double opening_cost : {1000.0, 2000.0, 15000.0}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("opening cost " + std::to_string(opening_cost) + " seed " +
                   std::to_string(seed));
      stats::Rng rng(seed * 31);
      expect_jms_matches_reference(
          colocated_with_duplicates(rng, 200, opening_cost));
    }
  }
}

TEST(SolverRegression, JmsGreedyMatchesReferenceOnTiedLattice) {
  for (double opening_cost : {100.0, 200.0, 400.0, 1000.0}) {
    SCOPED_TRACE("opening cost " + std::to_string(opening_cost));
    expect_jms_matches_reference(lattice(14, 100.0, opening_cost));
  }
  SCOPED_TRACE("spacing 0.7");
  expect_jms_matches_reference(lattice(6, 0.7, 0.7));
}

TEST(SolverRegression, JmsGreedyMatchesReferenceOnBootstrapShapedCity) {
  const FlInstance inst = clustered_city(20200707, 12000, 6.0);
  ASSERT_GT(inst.facilities.size(), 500u);
  ASSERT_LT(inst.facilities.size(), 700u);
  expect_jms_matches_reference(inst);
}

/// Host-independent work gate for the star cache: on a ~1,200-site
/// clustered city the solve evaluates every star once and then, per
/// iteration, at most 15% of them again (a full rescan is 100%).
TEST(JmsGreedy, StarCacheReevaluatesFewStarsOnAClusteredCity) {
  const FlInstance inst = clustered_city(20200707, 30000, 8.0);
  const auto nf = static_cast<double>(inst.facilities.size());
  ASSERT_GT(nf, 1100.0);
  ASSERT_LT(nf, 1300.0);
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& iterations = reg.counter("solver.jms_greedy.iterations");
  obs::Counter& stars = reg.counter("solver.jms_greedy.stars_evaluated");
  obs::set_enabled(true);
  const std::uint64_t iterations0 = iterations.value();
  const std::uint64_t stars0 = stars.value();
  (void)jms_greedy(inst);
  const auto solve_iterations =
      static_cast<double>(iterations.value() - iterations0);
  const auto evaluated = static_cast<double>(stars.value() - stars0);
  obs::set_enabled(false);
  ASSERT_GT(solve_iterations, 1.0);
  EXPECT_GE(evaluated, nf);
  EXPECT_LE(evaluated, nf + 0.15 * solve_iterations * nf)
      << "iterations " << solve_iterations << ", stars evaluated "
      << evaluated;
}

TEST(SolverRegression, LocalSearchMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    stats::Rng rng(seed * 13);
    const auto inst = random_general(rng, 40, 18);
    const auto initial = assign_to_open(inst, {0});
    for (bool swaps : {true, false}) {
      LocalSearchOptions opts;
      opts.allow_swaps = swaps;
      expect_identical(local_search(inst, initial, opts),
                       reference::local_search(inst, initial, opts));
    }
  }
  // 200 colocated sites with duplicated locations, priced like the hourly
  // re-plan's. Starts: one open site (its close move empties the set and
  // must cost infinity) and five open duplicate pairs (exact
  // nearest/second-nearest ties from the start). The reference rescans
  // every open row per move, so swaps run on one start only.
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    stats::Rng rng(seed * 29);
    const auto inst = colocated_with_duplicates(rng, 200, 15000.0);
    const std::vector<std::vector<std::size_t>> starts{
        {0}, {8, 9, 48, 49, 88, 89, 128, 129, 168, 169}};
    for (const auto& start : starts) {
      const auto initial = assign_to_open(inst, start);
      for (bool swaps : {true, false}) {
        if (swaps && (seed != 1 || start.size() != 1)) continue;
        SCOPED_TRACE("seed " + std::to_string(seed) + " open " +
                     std::to_string(start.size()) + " swaps " +
                     std::to_string(swaps));
        LocalSearchOptions opts;
        opts.allow_swaps = swaps;
        expect_identical(local_search(inst, initial, opts),
                         reference::local_search(inst, initial, opts));
      }
    }
  }
}

/// A 10-epoch drift through a warm ReoptimizationSession at the hourly
/// re-plan's shape, replayed with the frozen reference local search: each
/// epoch's plan must equal the reference polish of the carried open set on
/// the post-delta instance.
TEST(SolverRegression, ReoptDriftSequenceMatchesReferenceReplay) {
  stats::Rng rng(211);
  const auto price = [](Point) { return 15000.0; };
  ReoptimizationSession session(random_colocated(rng, 200, 15000.0), {},
                                price);
  for (int epoch = 0; epoch < 10; ++epoch) {
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    std::vector<FlClient> target = session.instance().clients;
    for (std::size_t j = static_cast<std::size_t>(epoch) % 3;
         j < target.size(); j += 3) {
      target[j].weight = rng.uniform(0.5, 4.0);
    }
    target.erase(target.begin() + 5 * epoch, target.begin() + 5 * epoch + 2);
    for (Point p : stats::uniform_points(rng, {{0, 0}, {3000, 3000}}, 2)) {
      target.push_back({p, rng.uniform(0.5, 4.0)});
    }

    FlInstance replay = session.instance();
    const InstanceDelta delta = diff_colocated(replay, target, price);
    const std::vector<std::size_t> carried =
        remap_open_set(session.solution().open, delta);
    apply_delta(replay, delta);
    ASSERT_FALSE(carried.empty());

    const FlSolution& got = session.reoptimize_to(target);
    EXPECT_FALSE(session.last_stats().cold);
    LocalSearchOptions opts;
    opts.allow_swaps = false;  // the warm polish runs opens and closes
    expect_identical(got, reference::local_search(
                              replay, assign_to_open(replay, carried), opts));
  }
}

TEST(SolverRegression, LocalSearchIsThreadCountInvariant) {
  stats::Rng rng(55);
  const auto inst = random_general(rng, 60, 24);
  const auto initial = assign_to_open(inst, {3, 11});
  LocalSearchOptions opts;
  const auto sequential = local_search(inst, initial, opts);
  for (std::size_t threads : {2u, 5u, 16u}) {
    opts.num_threads = threads;
    expect_identical(local_search(inst, initial, opts), sequential);
  }
}

/// The obs layer's contract: metrics are strictly observational, so the
/// solvers return bit-identical solutions with instrumentation on or off.
TEST(SolverRegression, SolversAreMetricsInvariant) {
  stats::Rng rng(303);
  const auto inst = random_general(rng, 50, 24);
  const auto initial = assign_to_open(inst, {0});
  const LocalSearchOptions opts;

  obs::set_enabled(false);
  const auto jms_off = jms_greedy(inst);
  const auto ls_off = local_search(inst, initial, opts);

  obs::set_enabled(true);
  const auto jms_on = jms_greedy(inst);
  const auto ls_on = local_search(inst, initial, opts);
  obs::set_enabled(false);

  expect_identical(jms_on, jms_off);
  expect_identical(ls_on, ls_off);
}

}  // namespace
}  // namespace esharing::solver

namespace esharing::core {
namespace {

using geo::Point;

/// A literal Algorithm 2 mirror using linear scans everywhere the placer
/// uses SpatialIndex queries, with its own Rng consuming the same draws.
/// Adaptive penalty switching is disabled in both so neither consults the
/// KS machinery; everything else (scale doubling, weights, removals) runs.
struct LinearScanPlacerMirror {
  struct St {
    Point location;
    bool active;
  };
  std::vector<St> stations;
  std::vector<Point> landmarks;
  std::function<double(Point)> opening_cost_fn;
  double reference_f{0.0};
  double scale{0.0};
  double beta{1.0};
  std::size_t k{0};
  std::size_t opens_since_double{0};
  PenaltyFunction penalty{PenaltyFunction::none()};
  stats::Rng rng;
  double connection_cost{0.0};

  LinearScanPlacerMirror(const std::vector<Point>& parkings,
                         std::function<double(Point)> cost_fn,
                         const DeviationPlacerConfig& config, std::uint64_t seed)
      : landmarks(parkings), opening_cost_fn(std::move(cost_fn)),
        beta(config.beta), k(parkings.size()), rng(seed) {
    penalty = PenaltyFunction::of(config.initial_penalty, config.tolerance);
    double min_d = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < parkings.size(); ++i) {
      for (std::size_t j = i + 1; j < parkings.size(); ++j) {
        min_d = std::min(min_d, geo::distance(parkings[i], parkings[j]));
      }
    }
    const double w_star = min_d / 2.0;
    for (Point p : parkings) reference_f += opening_cost_fn(p);
    reference_f /= static_cast<double>(parkings.size());
    scale = std::max({config.initial_scale_multiplier * w_star /
                          static_cast<double>(k),
                      reference_f, std::numeric_limits<double>::min()});
    for (Point p : parkings) stations.push_back({p, true});
  }

  std::size_t nearest_active(Point p) const {
    std::size_t best = stations.size();
    double best_d2 = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < stations.size(); ++i) {
      if (!stations[i].active) continue;
      const double d2 = geo::distance2(stations[i].location, p);
      if (d2 < best_d2) {
        best_d2 = d2;
        best = i;
      }
    }
    return best;
  }

  double deviation(Point p) const {
    std::size_t best = 0;
    double best_d2 = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < landmarks.size(); ++i) {
      const double d2 = geo::distance2(landmarks[i], p);
      if (d2 < best_d2) {
        best_d2 = d2;
        best = i;
      }
    }
    return geo::distance(landmarks[best], p);
  }

  solver::OnlineDecision process(Point dest, double weight) {
    solver::OnlineDecision decision;
    const std::size_t nearest = nearest_active(dest);
    const double c = weight * geo::distance(stations[nearest].location, dest);
    const double f = opening_cost_fn(dest) / reference_f * scale;
    const double prob = std::min(penalty(deviation(dest)) * c / f, 1.0);
    if (rng.bernoulli(prob)) {
      stations.push_back({dest, true});
      decision.opened = true;
      decision.facility = stations.size() - 1;
      if (static_cast<double>(++opens_since_double) >=
          beta * static_cast<double>(k)) {
        opens_since_double = 0;
        scale *= 2.0;
      }
    } else {
      decision.facility = nearest;
      decision.connection_cost = c;
      connection_cost += c;
    }
    return decision;
  }
};

TEST(SolverRegression, DeviationPlacerMatchesLinearScanMirror) {
  const std::uint64_t seed = 2020;
  stats::Rng setup(seed);
  const auto parkings =
      stats::uniform_points(setup, {{0, 0}, {2000, 2000}}, 15);
  const auto opening_cost = [](Point p) {
    return 5000.0 + 0.1 * p.x + 0.05 * p.y;
  };
  DeviationPlacerConfig config;
  config.adaptive_type = false;  // keep both sides off the KS machinery
  config.ks_period = 0;
  DeviationPenaltyPlacer placer(parkings, parkings, opening_cost, config, seed);
  LinearScanPlacerMirror mirror(parkings, opening_cost, config, seed);

  // A wider box than the landmarks so deviations sweep the penalty's
  // tolerance band; every 80th request removes a station (footnote 2).
  stats::Rng stream(seed ^ 0x9e3779b9ULL);
  const auto dests =
      stats::uniform_points(stream, {{-500, -500}, {2500, 2500}}, 600);
  for (std::size_t t = 0; t < dests.size(); ++t) {
    const double weight = stream.uniform(0.5, 2.0);
    const auto got = placer.process(dests[t], weight);
    const auto want = mirror.process(dests[t], weight);
    ASSERT_EQ(got.opened, want.opened) << "t=" << t;
    ASSERT_EQ(got.facility, want.facility) << "t=" << t;
    ASSERT_EQ(got.connection_cost, want.connection_cost) << "t=" << t;
    if (t % 80 == 79 && placer.num_active() > 1) {
      const std::size_t victim = got.facility;
      placer.remove_station(victim);
      mirror.stations[victim].active = false;
    }
  }

  ASSERT_EQ(placer.stations().size(), mirror.stations.size());
  for (std::size_t i = 0; i < mirror.stations.size(); ++i) {
    EXPECT_EQ(placer.stations()[i].location, mirror.stations[i].location);
    EXPECT_EQ(placer.stations()[i].active, mirror.stations[i].active);
  }
  EXPECT_EQ(placer.total_connection_cost(), mirror.connection_cost);
  EXPECT_EQ(placer.cost_scale(), mirror.scale);
}

/// Same contract for the online placer: identical seeded runs with the obs
/// layer on vs off make identical decisions (the Rng draw sequence and all
/// outputs are untouched by instrumentation).
TEST(SolverRegression, DeviationPlacerIsMetricsInvariant) {
  const std::uint64_t seed = 4040;
  stats::Rng setup(seed);
  const auto parkings =
      stats::uniform_points(setup, {{0, 0}, {2000, 2000}}, 12);
  const auto opening_cost = [](Point p) {
    return 6000.0 + 0.05 * p.x + 0.1 * p.y;
  };
  const DeviationPlacerConfig config;  // adaptive KS machinery stays on
  stats::Rng stream(seed + 1);
  const auto dests =
      stats::uniform_points(stream, {{-400, -400}, {2400, 2400}}, 400);

  const auto run = [&](bool metrics_on) {
    obs::set_enabled(metrics_on);
    DeviationPenaltyPlacer placer(parkings, parkings, opening_cost, config,
                                  seed);
    std::vector<solver::OnlineDecision> decisions;
    decisions.reserve(dests.size());
    for (Point p : dests) decisions.push_back(placer.process(p));
    obs::set_enabled(false);
    return std::make_pair(std::move(decisions),
                          placer.total_connection_cost());
  };

  const auto [off, off_cost] = run(false);
  const auto [on, on_cost] = run(true);
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t t = 0; t < off.size(); ++t) {
    EXPECT_EQ(on[t].opened, off[t].opened) << "t=" << t;
    EXPECT_EQ(on[t].facility, off[t].facility) << "t=" << t;
    EXPECT_EQ(on[t].connection_cost, off[t].connection_cost) << "t=" << t;
  }
  EXPECT_EQ(on_cost, off_cost);
}

}  // namespace
}  // namespace esharing::core
