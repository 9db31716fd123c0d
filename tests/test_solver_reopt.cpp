#include "solver/reopt.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"
#include "obs/registry.h"
#include "solver/cost_oracle.h"
#include "solver/instance_delta.h"
#include "solver/jms_greedy.h"
#include "stats/rng.h"
#include "stats/spatial.h"

namespace esharing::solver {
namespace {

using geo::Point;

/// Counter reads need the obs layer on (it is off by default in tests).
struct ScopedObsEnabled {
  ScopedObsEnabled() { obs::set_enabled(true); }
  ~ScopedObsEnabled() { obs::set_enabled(false); }
};

FlInstance random_instance(stats::Rng& rng, std::size_t nc, std::size_t nf) {
  FlInstance inst;
  for (Point p : stats::uniform_points(rng, {{0, 0}, {2000, 2000}}, nc)) {
    inst.clients.push_back({p, rng.uniform(0.5, 3.0)});
  }
  for (Point p : stats::uniform_points(rng, {{0, 0}, {2000, 2000}}, nf)) {
    inst.facilities.push_back({p, rng.uniform(100.0, 5000.0)});
  }
  return inst;
}

FlInstance random_colocated(stats::Rng& rng, std::size_t n,
                            double opening_cost = 2000.0) {
  std::vector<FlClient> clients;
  std::vector<double> costs;
  for (Point p : stats::uniform_points(rng, {{0, 0}, {2000, 2000}}, n)) {
    clients.push_back({p, rng.uniform(0.5, 3.0)});
    costs.push_back(opening_cost);
  }
  return colocated_instance(std::move(clients), std::move(costs));
}

/// A drift touching every delta channel against `inst`.
InstanceDelta mixed_delta(const FlInstance& inst, stats::Rng& rng) {
  InstanceDelta delta;
  delta.weight_updates.push_back({0, 4.5});
  delta.weight_updates.push_back({inst.clients.size() / 2, 0.25});
  delta.remove_clients.push_back(1);
  delta.remove_clients.push_back(inst.clients.size() - 1);
  for (Point p : stats::uniform_points(rng, {{0, 0}, {2000, 2000}}, 3)) {
    delta.add_clients.push_back({p, rng.uniform(0.5, 3.0)});
  }
  delta.remove_facilities.push_back(2);
  for (Point p : stats::uniform_points(rng, {{0, 0}, {2000, 2000}}, 2)) {
    delta.add_facilities.push_back({p, rng.uniform(100.0, 5000.0)});
  }
  return delta;
}

void expect_bit_identical(const FlSolution& a, const FlSolution& b) {
  EXPECT_EQ(a.open, b.open);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.connection_cost, b.connection_cost);
  EXPECT_EQ(a.opening_cost, b.opening_cost);
}

// ---------------------------------------------------------------------------
// InstanceDelta: validation, application, remapping, diffing.
// ---------------------------------------------------------------------------

TEST(ReoptDelta, ValidateRejectsBadDeltas) {
  stats::Rng rng(3);
  const auto inst = random_instance(rng, 10, 6);

  InstanceDelta d;
  d.remove_clients = {10};  // out of range
  EXPECT_THROW(d.validate(inst), std::invalid_argument);
  d = {};
  d.remove_clients = {3, 3};  // duplicate removal
  EXPECT_THROW(d.validate(inst), std::invalid_argument);
  d = {};
  d.weight_updates = {{10, 1.0}};  // names a missing client
  EXPECT_THROW(d.validate(inst), std::invalid_argument);
  d = {};
  d.weight_updates = {{2, 1.0}, {2, 2.0}};  // ambiguous double update
  EXPECT_THROW(d.validate(inst), std::invalid_argument);
  d = {};
  d.weight_updates = {{2, 1.0}};
  d.remove_clients = {2};  // re-weighted AND removed
  EXPECT_THROW(d.validate(inst), std::invalid_argument);
  d = {};
  d.weight_updates = {{2, -1.0}};  // negative weight
  EXPECT_THROW(d.validate(inst), std::invalid_argument);
  d = {};
  for (std::size_t j = 0; j < inst.clients.size(); ++j) {
    d.remove_clients.push_back(j);  // would leave zero clients
  }
  EXPECT_THROW(d.validate(inst), std::invalid_argument);
  d = {};
  for (std::size_t i = 0; i < inst.facilities.size(); ++i) {
    d.remove_facilities.push_back(i);  // would leave zero facilities
  }
  EXPECT_THROW(d.validate(inst), std::invalid_argument);
}

TEST(ReoptDelta, ApplyFollowsCanonicalOrder) {
  stats::Rng rng(5);
  auto inst = random_instance(rng, 8, 4);
  const auto before = inst;

  InstanceDelta delta;
  delta.weight_updates = {{7, 9.0}};  // pre-delta index of the last client
  delta.remove_clients = {0, 3};
  delta.add_clients = {{{50, 50}, 1.5}};
  delta.remove_facilities = {1};
  delta.add_facilities = {{{60, 60}, 700.0}};
  apply_delta(inst, delta);

  ASSERT_EQ(inst.clients.size(), 8u - 2u + 1u);
  ASSERT_EQ(inst.facilities.size(), 4u - 1u + 1u);
  // Weight updates name PRE-delta indices: the old client 7 survives the
  // removal of 0 and 3 and lands at post-delta index 5.
  EXPECT_EQ(inst.clients[5].weight, 9.0);
  EXPECT_EQ(inst.clients[5].location.x, before.clients[7].location.x);
  // Removals shift the survivors down, appends land at the end.
  EXPECT_EQ(inst.clients[0].location.x, before.clients[1].location.x);
  EXPECT_EQ(inst.clients.back().weight, 1.5);
  EXPECT_EQ(inst.facilities[0].location.x, before.facilities[0].location.x);
  EXPECT_EQ(inst.facilities[1].location.x, before.facilities[2].location.x);
  EXPECT_EQ(inst.facilities.back().opening_cost, 700.0);
}

TEST(ReoptDelta, RemapFacilityAndOpenSet) {
  InstanceDelta delta;
  delta.remove_facilities = {1, 4};
  EXPECT_EQ(remap_facility(0, delta), 0u);
  EXPECT_EQ(remap_facility(1, delta), kRemovedIndex);
  EXPECT_EQ(remap_facility(2, delta), 1u);
  EXPECT_EQ(remap_facility(3, delta), 2u);
  EXPECT_EQ(remap_facility(4, delta), kRemovedIndex);
  EXPECT_EQ(remap_facility(5, delta), 3u);
  EXPECT_EQ(remap_open_set({0, 1, 3, 4, 5}, delta),
            (std::vector<std::size_t>{0, 2, 3}));
  // A delta that removes every open facility yields an empty carry-over.
  EXPECT_TRUE(remap_open_set({1, 4}, delta).empty());
}

TEST(ReoptDelta, DiffColocatedCoversAllThreeChannels) {
  stats::Rng rng(7);
  const auto inst = random_colocated(rng, 6);
  const auto price = [](Point) { return 1234.0; };

  // Target: client 0 re-weighted, client 2 gone, one new centroid; the rest
  // carried verbatim.
  std::vector<FlClient> target;
  for (std::size_t j = 0; j < inst.clients.size(); ++j) {
    if (j == 2) continue;
    FlClient c = inst.clients[j];
    if (j == 0) c.weight += 1.0;
    target.push_back(c);
  }
  target.push_back({{999.0, 111.0}, 2.0});

  const InstanceDelta delta = diff_colocated(inst, target, price);
  ASSERT_EQ(delta.weight_updates.size(), 1u);
  EXPECT_EQ(delta.weight_updates[0].client, 0u);
  EXPECT_EQ(delta.remove_clients, (std::vector<std::size_t>{2}));
  EXPECT_EQ(delta.remove_facilities, (std::vector<std::size_t>{2}));
  ASSERT_EQ(delta.add_clients.size(), 1u);
  EXPECT_EQ(delta.add_clients[0].location.x, 999.0);
  ASSERT_EQ(delta.add_facilities.size(), 1u);
  EXPECT_EQ(delta.add_facilities[0].opening_cost, 1234.0);

  // Applying the diff reproduces the target demand exactly (and keeps the
  // instance colocated).
  auto patched = inst;
  apply_delta(patched, delta);
  ASSERT_EQ(patched.clients.size(), target.size());
  ASSERT_EQ(patched.facilities.size(), target.size());
  // Identical target -> empty diff, the zero-delta fast path's trigger.
  EXPECT_TRUE(diff_colocated(patched,
                             [&] {
                               std::vector<FlClient> t = patched.clients;
                               return t;
                             }(),
                             price)
                  .empty());
}

TEST(ReoptDelta, DiffColocatedCoalescesDuplicateTargetsAndRejectsBadInput) {
  stats::Rng rng(11);
  const auto inst = random_colocated(rng, 4);
  const auto price = [](Point) { return 10.0; };

  // The same new centroid twice: weights sum into one append.
  std::vector<FlClient> target = inst.clients;
  target.push_back({{5.0, 5.0}, 1.0});
  target.push_back({{5.0, 5.0}, 2.5});
  const auto delta = diff_colocated(inst, target, price);
  ASSERT_EQ(delta.add_clients.size(), 1u);
  EXPECT_EQ(delta.add_clients[0].weight, 3.5);

  EXPECT_THROW(diff_colocated(inst, target, nullptr), std::invalid_argument);
  const auto non_colocated = [&] {
    stats::Rng r2(13);
    return random_instance(r2, 4, 3);
  }();
  EXPECT_THROW(diff_colocated(non_colocated, target, price),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// CostOracle::apply_delta: bit-identity with a fresh oracle, reuse counters,
// revision, and the size-disagreement guard.
// ---------------------------------------------------------------------------

TEST(ReoptOracle, PatchedRowsMatchFreshOracleBitIdentically) {
  stats::Rng rng(17);
  auto inst = random_instance(rng, 40, 18);
  CostOracle oracle(inst);
  oracle.ensure_all_rows();  // materialize everything pre-delta
  for (std::size_t i = 0; i < inst.facilities.size(); ++i) {
    (void)oracle.sorted_row(i);
  }

  const InstanceDelta delta = mixed_delta(inst, rng);
  apply_delta(inst, delta);
  oracle.apply_delta(delta);
  EXPECT_EQ(oracle.revision(), 1u);
  ASSERT_EQ(oracle.num_facilities(), inst.facilities.size());
  ASSERT_EQ(oracle.num_clients(), inst.clients.size());

  const CostOracle fresh(inst);
  for (std::size_t i = 0; i < inst.facilities.size(); ++i) {
    // Bit-identical, not approximately equal: patched entries recompute the
    // exact fresh-oracle kernel expression.
    EXPECT_EQ(oracle.row(i), fresh.row(i)) << "row " << i;
    EXPECT_EQ(oracle.sorted_row(i), fresh.sorted_row(i)) << "sorted " << i;
  }
}

TEST(ReoptOracle, FacilityOnlyDeltaCarriesSortedRowsVerbatim) {
  stats::Rng rng(19);
  auto inst = random_instance(rng, 30, 10);
  CostOracle oracle(inst);
  oracle.ensure_all_rows();
  for (std::size_t i = 0; i < inst.facilities.size(); ++i) {
    (void)oracle.sorted_row(i);
  }

  const ScopedObsEnabled on;
  auto& reg = obs::Registry::global();
  const auto reused0 = reg.counter("solver.cost_oracle.rows_reused").value();
  const auto inval0 = reg.counter("solver.cost_oracle.rows_invalidated").value();
  const auto sort0 = reg.counter("solver.cost_oracle.sorted_invalidated").value();

  InstanceDelta delta;  // clients untouched: pure facility churn
  delta.remove_facilities = {0, 7};
  delta.add_facilities = {{{123.0, 456.0}, 900.0}};
  apply_delta(inst, delta);
  oracle.apply_delta(delta);

  // 8 surviving ready rows carried, 2 dropped with their sorted orderings;
  // no client changed, so no sorted row of a survivor was invalidated.
  EXPECT_EQ(reg.counter("solver.cost_oracle.rows_reused").value() - reused0, 8u);
  EXPECT_EQ(reg.counter("solver.cost_oracle.rows_invalidated").value() - inval0,
            2u);
  EXPECT_EQ(reg.counter("solver.cost_oracle.sorted_invalidated").value() - sort0,
            2u);

  const CostOracle fresh(inst);
  for (std::size_t i = 0; i < inst.facilities.size(); ++i) {
    EXPECT_EQ(oracle.row(i), fresh.row(i));
    EXPECT_EQ(oracle.sorted_row(i), fresh.sorted_row(i));
  }
}

TEST(ReoptOracle, ClientChangeInvalidatesSurvivingSortedRows) {
  stats::Rng rng(23);
  auto inst = random_instance(rng, 20, 6);
  CostOracle oracle(inst);
  oracle.ensure_all_rows();
  for (std::size_t i = 0; i < inst.facilities.size(); ++i) {
    (void)oracle.sorted_row(i);
  }

  const ScopedObsEnabled on;
  auto& reg = obs::Registry::global();
  const auto sort0 = reg.counter("solver.cost_oracle.sorted_invalidated").value();

  InstanceDelta delta;
  delta.weight_updates = {{3, 99.0}};
  apply_delta(inst, delta);
  oracle.apply_delta(delta);

  // Every ready sorted ordering is dropped when any client changes (rows
  // themselves are patched and carried).
  EXPECT_EQ(reg.counter("solver.cost_oracle.sorted_invalidated").value() - sort0,
            6u);
  const CostOracle fresh(inst);
  for (std::size_t i = 0; i < inst.facilities.size(); ++i) {
    EXPECT_EQ(oracle.sorted_row(i), fresh.sorted_row(i));
  }
}

TEST(ReoptOracle, LazyRowsStayLazyAcrossDeltas) {
  stats::Rng rng(29);
  auto inst = random_instance(rng, 25, 8);
  CostOracle oracle(inst);
  (void)oracle.row(2);  // only one row materialized

  InstanceDelta delta = mixed_delta(inst, rng);
  apply_delta(inst, delta);
  oracle.apply_delta(delta);

  const CostOracle fresh(inst);
  for (std::size_t i = 0; i < inst.facilities.size(); ++i) {
    EXPECT_EQ(oracle.row(i), fresh.row(i));
  }
}

TEST(ReoptOracle, ApplyDeltaRejectsUnsyncedInstance) {
  stats::Rng rng(31);
  auto inst = random_instance(rng, 12, 5);
  CostOracle oracle(inst);
  InstanceDelta delta;
  delta.remove_clients = {0};
  // The delta was NOT applied to the instance: post-delta sizes disagree.
  EXPECT_THROW(oracle.apply_delta(delta), std::logic_error);
  EXPECT_EQ(oracle.revision(), 0u);
}

// ---------------------------------------------------------------------------
// recost / assign_to_open error paths.
// ---------------------------------------------------------------------------

TEST(ReoptErrorPaths, AssignToOpenRejectsEmptyAndOutOfRangeOpenSets) {
  stats::Rng rng(59);
  const auto inst = random_instance(rng, 10, 4);
  const CostOracle oracle(inst);
  EXPECT_THROW((void)assign_to_open(inst, {}), std::invalid_argument);
  EXPECT_THROW((void)assign_to_open(oracle, {}), std::invalid_argument);
  EXPECT_THROW((void)assign_to_open(inst, {4}), std::invalid_argument);
  EXPECT_THROW((void)assign_to_open(oracle, {0, 17}), std::invalid_argument);
}

TEST(ReoptErrorPaths, RecostRejectsInconsistentSolutions) {
  stats::Rng rng(61);
  const auto inst = random_instance(rng, 10, 4);
  const auto good = assign_to_open(inst, {0, 2});

  FlSolution wrong_size = good;
  wrong_size.assignment.pop_back();
  EXPECT_THROW((void)recost(inst, wrong_size), std::invalid_argument);

  FlSolution closed = good;
  closed.assignment[0] = 1;  // facility 1 is not open
  EXPECT_THROW((void)recost(inst, closed), std::invalid_argument);

  FlSolution ghost = good;
  ghost.open.push_back(99);  // beyond the instance
  ghost.assignment[0] = 99;
  EXPECT_THROW((void)recost(inst, ghost), std::invalid_argument);

  // And the happy path round-trips the costs exactly.
  const auto again = recost(inst, good);
  EXPECT_EQ(again.connection_cost, good.connection_cost);
  EXPECT_EQ(again.opening_cost, good.opening_cost);
}

// ---------------------------------------------------------------------------
// ReoptimizationSession contracts.
// ---------------------------------------------------------------------------

TEST(ReoptSession, ConstructionColdSolveMatchesJmsBitIdentically) {
  stats::Rng rng(67);
  auto inst = random_colocated(rng, 30);
  const auto direct = jms_greedy(CostOracle(inst), {});
  const ReoptimizationSession session(inst);
  expect_bit_identical(session.solution(), direct);
  EXPECT_EQ(session.revision(), 0u);
  EXPECT_TRUE(session.last_stats().cold);
}

TEST(ReoptSession, ZeroDeltaReturnsCachedSolutionUntouched) {
  stats::Rng rng(71);
  ReoptimizationSession session(random_colocated(rng, 30));
  const FlSolution before = session.solution();
  const FlSolution& again = session.reoptimize(InstanceDelta{});
  // Same object, not merely equal: the zero-delta path does no work.
  EXPECT_EQ(&again, &session.solution());
  expect_bit_identical(again, before);
  EXPECT_EQ(session.revision(), 0u);
  EXPECT_TRUE(session.last_stats().zero_delta);
  EXPECT_EQ(session.last_stats().final_cost, before.total_cost());
}

TEST(ReoptSession, ReoptimizeToIdenticalSnapshotIsZeroDelta) {
  stats::Rng rng(73);
  const auto price = [](Point) { return 2000.0; };
  ReoptimizationSession session(random_colocated(rng, 30), {}, price);
  const FlSolution before = session.solution();
  const std::vector<FlClient> same = session.instance().clients;
  const FlSolution& again = session.reoptimize_to(same);
  EXPECT_EQ(&again, &session.solution());
  expect_bit_identical(again, before);
  EXPECT_TRUE(session.last_stats().zero_delta);
}

TEST(ReoptSession, WarmResolveIsNeverCostlierThanCarriedPlan) {
  stats::Rng rng(79);
  const auto price = [](Point) { return 2000.0; };
  ReoptimizationSession session(random_colocated(rng, 60), {}, price);
  // A sequence of drifting snapshots: re-weights, churned cells.
  for (int epoch = 0; epoch < 4; ++epoch) {
    std::vector<FlClient> target = session.instance().clients;
    for (std::size_t j = 0; j < target.size(); j += 3) {
      target[j].weight = rng.uniform(0.5, 4.0);
    }
    target.erase(target.begin() + static_cast<std::ptrdiff_t>(epoch));
    for (Point p :
         stats::uniform_points(rng, {{0, 0}, {2000, 2000}}, 2)) {
      target.push_back({p, rng.uniform(0.5, 3.0)});
    }
    const FlSolution& sol = session.reoptimize_to(target);
    const ReoptStats& stats = session.last_stats();
    EXPECT_FALSE(stats.zero_delta);
    // The contract of the issue: warm re-solve never costlier than the
    // carried "keep yesterday's plan" baseline.
    EXPECT_LE(stats.final_cost, stats.baseline_cost) << "epoch " << epoch;
    EXPECT_EQ(stats.final_cost, sol.total_cost());
    EXPECT_EQ(session.revision(), static_cast<std::uint64_t>(epoch + 1));
    // The re-solve stays in sync with a from-scratch recost of itself.
    const auto audited = recost(session.instance(), sol);
    EXPECT_EQ(audited.total_cost(), sol.total_cost());
  }
}

TEST(ReoptSession, RemovingEveryOpenFacilityFallsBackToColdSolve) {
  stats::Rng rng(83);
  ReoptimizationSession session(random_colocated(rng, 20));
  InstanceDelta delta;
  // Remove exactly the open facilities (and their colocated clients would
  // remain — only the candidate sites disappear).
  delta.remove_facilities = session.solution().open;
  const FlSolution& sol = session.reoptimize(delta);
  EXPECT_TRUE(session.last_stats().cold);
  ASSERT_EQ(sol.assignment.size(), session.instance().clients.size());
  for (std::size_t f : sol.open) {
    EXPECT_LT(f, session.instance().facilities.size());
  }
}

TEST(ReoptSession, ReoptimizeToRequiresOpeningCostFn) {
  stats::Rng rng(89);
  ReoptimizationSession session(random_colocated(rng, 10));
  EXPECT_THROW((void)session.reoptimize_to(session.instance().clients),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// Determinism across thread widths (suite name matches the CI thread-matrix
// and TSan leg regexes).
// ---------------------------------------------------------------------------

TEST(ReoptThreads, ResolveSequenceBitIdenticalAtEveryWidth) {
  const auto run_epochs = [](std::size_t num_threads) {
    stats::Rng rng(101);
    ReoptOptions opt;
    opt.num_threads = num_threads;
    const auto price = [](Point) { return 2000.0; };
    auto session = std::make_unique<ReoptimizationSession>(
        [&] {
          stats::Rng city(103);
          return random_colocated(city, 50);
        }(),
        opt, price);
    std::vector<FlSolution> history;
    history.push_back(session->solution());
    for (int epoch = 0; epoch < 3; ++epoch) {
      std::vector<FlClient> target = session->instance().clients;
      for (std::size_t j = 0; j < target.size(); j += 2) {
        target[j].weight = rng.uniform(0.5, 4.0);
      }
      for (Point p : stats::uniform_points(rng, {{0, 0}, {2000, 2000}}, 2)) {
        target.push_back({p, 1.0});
      }
      history.push_back(session->reoptimize_to(target));
    }
    return history;
  };

  const auto sequential = run_epochs(1);
  for (const std::size_t width : {std::size_t{2}, std::size_t{4}}) {
    const auto parallel = run_epochs(width);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (std::size_t e = 0; e < sequential.size(); ++e) {
      SCOPED_TRACE("width " + std::to_string(width) + " epoch " +
                   std::to_string(e));
      expect_bit_identical(parallel[e], sequential[e]);
    }
  }
}

TEST(ReoptThreads, OracleDeltaThenParallelEnsureMatchesLazy) {
  stats::Rng rng(107);
  auto inst = random_instance(rng, 60, 24);
  CostOracle parallel_oracle(inst);
  CostOracle lazy_oracle(inst);
  parallel_oracle.ensure_all_rows(4);

  InstanceDelta delta = mixed_delta(inst, rng);
  apply_delta(inst, delta);
  parallel_oracle.apply_delta(delta);
  lazy_oracle.apply_delta(delta);

  parallel_oracle.ensure_all_rows(4);
  for (std::size_t i = 0; i < inst.facilities.size(); ++i) {
    EXPECT_EQ(parallel_oracle.row(i), lazy_oracle.row(i));
  }
}

}  // namespace
}  // namespace esharing::solver
