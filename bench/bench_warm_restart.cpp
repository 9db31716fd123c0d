/// Warm-vs-cold re-optimization over a simulated week of hourly demand
/// deltas (the tentpole experiment of the incremental re-optimization
/// engine, solver/reopt.h). A synthetic city of ~200 colocated candidate
/// sites drifts every epoch — diurnal arrival-rate modulation, multiplicative
/// noise, and cell churn (sites whose demand drops below a floor vanish,
/// sites above it reappear) — and each epoch is solved twice on the same
/// post-delta demand:
///
///   warm: ReoptimizationSession::reoptimize_to(target) — diff against the
///         previous instance, patch only changed oracle rows, carry the
///         previous open set and polish (never costlier than the carry);
///   cold: colocated instance rebuilt from scratch + jms_greedy, the exact
///         path plan_offline would take without the session.
///
/// The table on stdout reports per-day cost drift (warm - cold) / cold and
/// open counts, which are deterministic, so two runs print the same bytes;
/// the per-day wall-time totals and the week's speedup go to stderr after
/// the run. The bench FAILS (exit 1) if the mean per-epoch
/// drift exceeds 2% (individual epochs get a loose 5% tail guard: the
/// add/drop polish deterministically lags the cold solve by ~2.5% in a
/// few epochs per week, see EXPERIMENTS.md), if the week-long warm path is
/// not at least 3x faster than the cold path (measured ~26x on a 4-core
/// VM; both sides run single-threaded on the same host, so the ratio is
/// stable), if a warm re-solve ever ends costlier than its carried
/// baseline, or if a repeated identical snapshot is not a zero-delta cache
/// hit.

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/util.h"
#include "geo/point.h"
#include "solver/facility_location.h"
#include "solver/jms_greedy.h"
#include "solver/reopt.h"
#include "stats/rng.h"
#include "stats/spatial.h"

using namespace esharing;
using geo::Point;

namespace {

constexpr std::size_t kSites = 200;      // candidate cells in the city
constexpr int kDays = 7;                 // one simulated week ...
constexpr int kEpochs = kDays * 24;      // ... of hourly re-anchor epochs
constexpr double kOpeningCost = 9000.0;  // flat space-occupation cost f_i
constexpr double kDemandFloor = 2.0;     // below this a cell leaves the window
constexpr double kMeanDriftPct = 2.0;   // hard mean-drift quality contract
constexpr double kTailDriftPct = 5.0;   // loose guard on the worst epoch
constexpr double kMinSpeedup = 3.0;     // week-long warm/cold wall-time ratio

struct City {
  std::vector<Point> sites;
  std::vector<double> base_weight;  // site's mean expected arrivals
  std::vector<double> phase;        // diurnal phase offset per site
  std::vector<double> weight;       // current expected arrivals per site
};

City make_city(std::uint64_t seed) {
  stats::Rng rng(seed);
  City city;
  city.sites = stats::uniform_points(rng, {{0, 0}, {4000, 4000}}, kSites);
  for (std::size_t i = 0; i < kSites; ++i) {
    city.base_weight.push_back(rng.uniform(3.0, 30.0));
    city.phase.push_back(rng.uniform(0.0, 2.0 * 3.14159265358979));
    city.weight.push_back(city.base_weight[i]);
  }
  return city;
}

/// Advance the demand window by one hour and return the new snapshot.
/// Hourly drift is a DELTA, not a re-roll: ~10% of the cells re-sample
/// their arrival rate against a site-phased diurnal curve (morning and
/// evening cells drift in opposition), the rest keep last hour's value —
/// that is what makes the delta-aware oracle's row reuse meaningful. Cells
/// whose demand falls under the floor drop out of the snapshot entirely,
/// exercising the client/facility remove-and-append channels of
/// diff_colocated when they churn back in.
std::vector<solver::FlClient> demand_at(City& city, int epoch,
                                        stats::Rng& rng) {
  const double hour = static_cast<double>(epoch % 24);
  const std::size_t drifting = kSites / 10;  // ~10% of cells drift per hour
  for (std::size_t n = 0; n < drifting; ++n) {
    const std::size_t i = rng.index(city.sites.size());
    const double diurnal =
        0.8 + 0.4 * std::sin(2.0 * 3.14159265358979 * hour / 24.0 +
                             city.phase[i]);
    const double noise = std::exp(rng.normal(0.0, 0.12));
    city.weight[i] = city.base_weight[i] * diurnal * noise;
  }
  std::vector<solver::FlClient> target;
  for (std::size_t i = 0; i < city.sites.size(); ++i) {
    if (city.weight[i] >= kDemandFloor) {
      target.push_back({city.sites[i], city.weight[i]});
    }
  }
  return target;
}

solver::FlInstance colocated_from(const std::vector<solver::FlClient>& target) {
  std::vector<solver::FlClient> clients = target;
  std::vector<double> costs(clients.size(), kOpeningCost);
  return solver::colocated_instance(std::move(clients), std::move(costs));
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  bench::MetricsSession metrics("bench_warm_restart");
  bench::print_title(
      "Warm restart: hourly re-anchoring over one simulated week (" +
      std::to_string(kSites) + " sites, " + std::to_string(kEpochs) +
      " epochs)");

  City city = make_city(20260808);
  stats::Rng demand_rng(7);

  const auto opening_cost = [](Point) { return kOpeningCost; };
  auto initial = demand_at(city, 0, demand_rng);
  solver::ReoptimizationSession session(colocated_from(initial),
                                        solver::ReoptOptions{}, opening_cost);

  std::cout << bench::cell("day", 4) << bench::cell("drift% avg", 11)
            << bench::cell("drift% max", 11) << bench::cell("open", 6) << '\n';
  bench::print_rule(32);
  // Wall-clock numbers differ run to run; they go to stderr at the end.
  std::ostringstream timings;
  timings << bench::cell("day", 4) << bench::cell("warm ms", 10)
          << bench::cell("cold ms", 10) << bench::cell("speedup", 9) << '\n';

  double warm_total_s = 0.0;
  double cold_total_s = 0.0;
  double worst_drift_pct = 0.0;
  double drift_sum_pct = 0.0;
  bool never_costlier_ok = true;
  double day_warm_s = 0.0;
  double day_cold_s = 0.0;
  double day_drift_sum = 0.0;
  double day_drift_max = 0.0;

  for (int epoch = 1; epoch <= kEpochs; ++epoch) {
    const auto target = demand_at(city, epoch, demand_rng);

    const auto w0 = std::chrono::steady_clock::now();
    const solver::FlSolution& warm = session.reoptimize_to(target);
    const double warm_s = seconds_since(w0);

    const auto c0 = std::chrono::steady_clock::now();
    const solver::FlSolution cold = solver::jms_greedy(colocated_from(target));
    const double cold_s = seconds_since(c0);

    const double drift_pct =
        (warm.total_cost() - cold.total_cost()) / cold.total_cost() * 100.0;
    const auto& stats = session.last_stats();
    if (!stats.zero_delta && !stats.cold &&
        stats.final_cost > stats.baseline_cost) {
      never_costlier_ok = false;
    }

    warm_total_s += warm_s;
    cold_total_s += cold_s;
    drift_sum_pct += drift_pct;
    worst_drift_pct = std::max(worst_drift_pct, drift_pct);
    day_warm_s += warm_s;
    day_cold_s += cold_s;
    day_drift_sum += drift_pct;
    day_drift_max = std::max(day_drift_max, drift_pct);

    if (epoch % 24 == 0) {
      std::cout << bench::cell(std::to_string(epoch / 24), 4)
                << bench::cell(day_drift_sum / 24.0, 11, 2)
                << bench::cell(day_drift_max, 11, 2)
                << bench::cell(static_cast<double>(warm.num_open()), 6, 0)
                << '\n';
      timings << bench::cell(std::to_string(epoch / 24), 4)
              << bench::cell(day_warm_s * 1e3, 10, 1)
              << bench::cell(day_cold_s * 1e3, 10, 1)
              << bench::cell(day_cold_s / day_warm_s, 9, 1) << '\n';
      day_warm_s = day_cold_s = day_drift_sum = day_drift_max = 0.0;
    }
  }

  // A repeated identical snapshot must be a zero-delta cache hit.
  const auto replay = demand_at(city, kEpochs, demand_rng);
  (void)session.reoptimize_to(replay);
  const std::uint64_t rev = session.revision();
  (void)session.reoptimize_to(replay);
  const bool zero_delta_ok =
      session.last_stats().zero_delta && session.revision() == rev;

  bench::print_rule(32);
  const double speedup = cold_total_s / warm_total_s;
  const double mean_drift_pct = drift_sum_pct / kEpochs;
  std::cerr << timings.str() << "totals: warm "
            << bench::fmt(warm_total_s * 1e3, 1) << " ms, cold "
            << bench::fmt(cold_total_s * 1e3, 1) << " ms, speedup "
            << bench::fmt(speedup, 2) << "x (contract >= "
            << bench::fmt(kMinSpeedup, 1) << "x)\n";
  std::cout << "drift vs cold: mean " << bench::fmt(mean_drift_pct, 3)
            << "% (contract <= " << bench::fmt(kMeanDriftPct, 1) << "%), max "
            << bench::fmt(worst_drift_pct, 3) << "% (guard <= "
            << bench::fmt(kTailDriftPct, 1) << "%)\n"
            << "never-costlier-than-carry: "
            << (never_costlier_ok ? "held" : "VIOLATED")
            << ", zero-delta replay: " << (zero_delta_ok ? "hit" : "MISS")
            << ", final revision " << session.revision() << '\n';

  bool ok = never_costlier_ok && zero_delta_ok;
  if (mean_drift_pct > kMeanDriftPct) {
    std::cout << "FAIL: mean per-epoch drift exceeded "
              << bench::fmt(kMeanDriftPct, 1) << "%\n";
    ok = false;
  }
  if (worst_drift_pct > kTailDriftPct) {
    std::cout << "FAIL: worst epoch drifted more than "
              << bench::fmt(kTailDriftPct, 1) << "%\n";
    ok = false;
  }
  if (speedup < kMinSpeedup) {
    std::cout << "FAIL: warm path fell under " << bench::fmt(kMinSpeedup, 1)
              << "x the cold path\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
