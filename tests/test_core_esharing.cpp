#include "core/esharing.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "stats/rng.h"
#include "stats/spatial.h"

namespace esharing::core {
namespace {

using data::DemandSite;
using geo::Point;

std::vector<DemandSite> two_cluster_sites() {
  // Two demand clusters far apart; each cell carries arrivals.
  std::vector<DemandSite> sites;
  std::size_t cell = 0;
  for (double dx : {0.0, 100.0, 200.0}) {
    sites.push_back({{dx + 100.0, 100.0}, 10.0, cell++});
    sites.push_back({{dx + 2400.0, 2500.0}, 8.0, cell++});
  }
  return sites;
}

ESharingConfig default_config() {
  ESharingConfig cfg;
  cfg.placer.ks_period = 0;
  cfg.placer.adaptive_type = false;
  return cfg;
}

std::function<double(Point)> constant_f(double f) {
  return [f](Point) { return f; };
}

TEST(ESharing, LifecycleGuards) {
  ESharing sys(default_config(), 1);
  EXPECT_THROW((void)sys.parking_locations(), std::logic_error);
  EXPECT_THROW((void)sys.offline_solution(), std::logic_error);
  EXPECT_THROW(sys.start_online({}), std::logic_error);
  EXPECT_THROW((void)sys.handle_request({0, 0}), std::logic_error);
  EXPECT_THROW((void)sys.placer(), std::logic_error);
}

TEST(ESharing, PlanOfflineValidatesInput) {
  ESharing sys(default_config(), 2);
  EXPECT_THROW((void)sys.plan_offline({}, constant_f(1.0)),
               std::invalid_argument);
  EXPECT_THROW((void)sys.plan_offline(two_cluster_sites(), nullptr),
               std::invalid_argument);
}

TEST(ESharing, OfflinePlanOpensOneStationPerCluster) {
  ESharing sys(default_config(), 3);
  const auto& sol = sys.plan_offline(two_cluster_sites(), constant_f(2000.0));
  EXPECT_EQ(sol.num_open(), 2u);
  const auto locs = sys.parking_locations();
  // One parking near each cluster.
  bool near_a = false, near_b = false;
  for (Point p : locs) {
    near_a |= geo::distance(p, {200, 100}) < 300.0;
    near_b |= geo::distance(p, {2500, 2500}) < 300.0;
  }
  EXPECT_TRUE(near_a);
  EXPECT_TRUE(near_b);
}

TEST(ESharing, OnlinePhaseServesRequests) {
  ESharing sys(default_config(), 4);
  (void)sys.plan_offline(two_cluster_sites(), constant_f(2000.0));
  stats::Rng rng(5);
  sys.start_online(stats::uniform_points(rng, {{0, 0}, {3000, 3000}}, 100));
  ASSERT_TRUE(sys.online_started());
  const auto d = sys.handle_request({210, 110});
  EXPECT_FALSE(d.opened);  // right next to an offline landmark
  EXPECT_GE(sys.placer().requests_seen(), 1u);
}

TEST(ESharing, ReanchorRequiresPlanAndSites) {
  ESharing sys(default_config(), 40);
  EXPECT_THROW((void)sys.reanchor(two_cluster_sites()), std::logic_error);
  EXPECT_THROW((void)sys.reopt_session(), std::logic_error);
  (void)sys.plan_offline(two_cluster_sites(), constant_f(2000.0));
  EXPECT_THROW((void)sys.reanchor({}), std::invalid_argument);
}

TEST(ESharing, ReanchorWithIdenticalDemandIsZeroDelta) {
  ESharing sys(default_config(), 41);
  const auto sites = two_cluster_sites();
  const auto before = sys.plan_offline(sites, constant_f(2000.0));
  const auto& again = sys.reanchor(sites);
  EXPECT_EQ(again.open, before.open);
  EXPECT_EQ(again.connection_cost, before.connection_cost);
  EXPECT_TRUE(sys.reopt_session().last_stats().zero_delta);
  EXPECT_EQ(sys.reopt_session().revision(), 0u);
}

TEST(ESharing, ReanchorFollowsDemandDriftAndReanchorsPlacer) {
  ESharing sys(default_config(), 42);
  auto sites = two_cluster_sites();
  (void)sys.plan_offline(sites, constant_f(2000.0));
  stats::Rng rng(43);
  sys.start_online(stats::uniform_points(rng, {{0, 0}, {3000, 3000}}, 50));

  // Demand drifts: the second cluster doubles, a third cluster appears.
  for (auto& s : sites) {
    if (s.location.x > 2000.0) s.arrivals *= 2.0;
  }
  std::size_t cell = 100;
  for (double dx : {0.0, 100.0}) {
    sites.push_back({{dx + 900.0, 2900.0}, 12.0, cell++});
  }
  const auto& sol = sys.reanchor(sites);
  const auto& stats = sys.reopt_session().last_stats();
  EXPECT_FALSE(stats.zero_delta);
  EXPECT_LE(stats.final_cost, stats.baseline_cost);
  EXPECT_EQ(stats.final_cost, sol.total_cost());
  EXPECT_EQ(sys.reopt_session().revision(), 1u);
  // The online placer was re-anchored onto the new plan.
  EXPECT_EQ(sys.placer().reanchors(), 1u);
  EXPECT_GE(sys.placer().num_active(), sol.num_open());
}

TEST(ESharing, ReplanInvalidatesOnlinePhase) {
  ESharing sys(default_config(), 6);
  (void)sys.plan_offline(two_cluster_sites(), constant_f(2000.0));
  sys.start_online({});
  (void)sys.plan_offline(two_cluster_sites(), constant_f(2000.0));
  EXPECT_FALSE(sys.online_started());
  EXPECT_THROW((void)sys.handle_request({0, 0}), std::logic_error);
}

TEST(ESharing, IncentiveSessionGroupsLowBikesByStation) {
  ESharing sys(default_config(), 7);
  (void)sys.plan_offline(two_cluster_sites(), constant_f(2000.0));
  sys.start_online({});
  const auto parkings = sys.parking_locations();
  ASSERT_EQ(parkings.size(), 2u);

  energy::BikeFleet fleet(6, energy::EnergyConfig{}, 8);
  for (std::size_t b = 0; b < fleet.size(); ++b) fleet.set_soc(b, 0.9);
  fleet.set_soc(1, 0.1);
  fleet.set_soc(4, 0.05);
  const std::vector<std::size_t> bike_station{0, 0, 0, 1, 1, 1};
  const auto session = sys.make_incentive_session(fleet, bike_station);
  ASSERT_EQ(session.stations().size(), 2u);
  EXPECT_EQ(session.stations()[0].low_bikes, (std::vector<std::size_t>{1}));
  EXPECT_EQ(session.stations()[1].low_bikes, (std::vector<std::size_t>{4}));
}

TEST(ESharing, IncentiveSessionValidatesBikeStation) {
  ESharing sys(default_config(), 9);
  (void)sys.plan_offline(two_cluster_sites(), constant_f(2000.0));
  energy::BikeFleet fleet(3, energy::EnergyConfig{}, 10);
  EXPECT_THROW((void)sys.make_incentive_session(fleet, {0, 0}),
               std::invalid_argument);
  EXPECT_THROW((void)sys.make_incentive_session(fleet, {0, 0, 99}),
               std::invalid_argument);
}

TEST(ESharing, ChargeRunsOperatorRound) {
  ESharingConfig cfg = default_config();
  cfg.charging_operator.work_seconds = 1e9;
  ESharing sys(cfg, 11);
  (void)sys.plan_offline(two_cluster_sites(), constant_f(2000.0));
  energy::BikeFleet fleet(4, energy::EnergyConfig{}, 12);
  for (std::size_t b = 0; b < fleet.size(); ++b) fleet.set_soc(b, 0.05);
  const auto session = sys.make_incentive_session(fleet, {0, 0, 1, 1});
  const auto round = sys.charge(session);
  EXPECT_EQ(round.bikes_total, 4u);
  EXPECT_EQ(round.bikes_charged, 4u);
  EXPECT_EQ(round.stations_visited, 2u);
}

TEST(ESharing, OnlineOpeningExtendsParkingList) {
  ESharingConfig cfg = default_config();
  cfg.placer.tolerance = 1e9;  // no deviation penalty
  ESharing sys(cfg, 13);
  (void)sys.plan_offline(two_cluster_sites(), constant_f(1.0));  // tiny f
  sys.start_online({});
  stats::Rng rng(14);
  const std::size_t before = sys.parking_locations().size();
  for (int i = 0; i < 2000; ++i) {
    (void)sys.handle_request(
        {rng.uniform(0.0, 3000.0), rng.uniform(0.0, 3000.0)});
  }
  EXPECT_GT(sys.parking_locations().size(), before);
}

// ---------------------------------------------------------------------------
// Determinism across pool widths (suite name matches the CI thread-matrix
// and TSan leg regexes).
// ---------------------------------------------------------------------------

/// Everything a plan/reanchor/restore sequence leaves behind, with costs as
/// their bit patterns so equality means byte equality.
struct PoolRun {
  std::vector<std::vector<std::size_t>> open;
  std::vector<std::vector<std::size_t>> assignment;
  std::vector<std::uint64_t> cost_bits;
  std::string checkpoint;        ///< save_reopt after the third reanchor
  std::string final_checkpoint;  ///< the restored system after one more
  double jms_threads{0.0};       ///< solver.jms_greedy.num_threads
};

/// `sites` drifted one epoch: a third of the demand re-weighted, the last
/// five sites gone and eight new ones.
void drift(std::vector<DemandSite>& sites, stats::Rng& rng,
           std::size_t& next_cell) {
  for (std::size_t i = 0; i < sites.size(); i += 3) {
    sites[i].arrivals *= rng.uniform(0.5, 2.0);
  }
  sites.resize(sites.size() - 5);
  for (Point p : stats::uniform_points(rng, {{0, 0}, {3000, 3000}}, 8)) {
    sites.push_back({p, rng.uniform(0.5, 20.0), next_cell++});
  }
}

/// RAII width override so a failing check cannot leak a wide pool into
/// later tests.
struct ScopedThreads {
  std::size_t original;
  explicit ScopedThreads(std::size_t width) : original(exec::global_threads()) {
    exec::set_global_threads(width);
  }
  ~ScopedThreads() { exec::set_global_threads(original); }
};

/// Gauge reads need the obs layer on (it is off by default in tests).
struct ScopedObsEnabled {
  ScopedObsEnabled() { obs::set_enabled(true); }
  ~ScopedObsEnabled() { obs::set_enabled(false); }
};

PoolRun plan_reanchor_restore(std::size_t width) {
  const ScopedThreads threads(width);
  const auto opening = [](Point p) { return 1500.0 + 0.5 * p.x; };
  stats::Rng rng(71);
  std::vector<DemandSite> sites;
  std::size_t next_cell = 0;
  for (Point p : stats::uniform_points(rng, {{0, 0}, {3000, 3000}}, 300)) {
    sites.push_back({p, rng.uniform(0.5, 20.0), next_cell++});
  }
  const std::vector<DemandSite> bootstrap = sites;

  PoolRun run;
  const auto record = [&run](const solver::FlSolution& sol) {
    run.open.push_back(sol.open);
    run.assignment.push_back(sol.assignment);
    run.cost_bits.push_back(std::bit_cast<std::uint64_t>(sol.connection_cost));
    run.cost_bits.push_back(std::bit_cast<std::uint64_t>(sol.opening_cost));
  };
  ESharing sys(default_config(), 72);
  {
    const ScopedObsEnabled obs_on;
    record(sys.plan_offline(sites, opening));
    run.jms_threads =
        obs::Registry::global().gauge("solver.jms_greedy.num_threads").value();
  }
  for (int epoch = 0; epoch < 3; ++epoch) {
    drift(sites, rng, next_cell);
    record(sys.reanchor(sites));
  }
  std::ostringstream saved;
  sys.save_reopt(saved);
  run.checkpoint = saved.str();

  ESharing restored(default_config(), 72);
  (void)restored.plan_offline(bootstrap, opening);
  std::istringstream blob(run.checkpoint);
  restored.restore_reopt(blob);
  drift(sites, rng, next_cell);
  record(restored.reanchor(sites));
  std::ostringstream final_saved;
  restored.save_reopt(final_saved);
  run.final_checkpoint = final_saved.str();
  return run;
}

TEST(ReoptThreads, ESharingPlanReanchorRestoreBitIdenticalAtEveryPoolWidth) {
  const PoolRun sequential = plan_reanchor_restore(1);
  for (const std::size_t width : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("pool width " + std::to_string(width));
    const PoolRun pooled = plan_reanchor_restore(width);
    // The bootstrap JMS ran on the whole pool, not on the caller alone.
    EXPECT_EQ(pooled.jms_threads, static_cast<double>(width));
    EXPECT_EQ(pooled.open, sequential.open);
    EXPECT_EQ(pooled.assignment, sequential.assignment);
    EXPECT_EQ(pooled.cost_bits, sequential.cost_bits);
    EXPECT_EQ(pooled.checkpoint, sequential.checkpoint);
    EXPECT_EQ(pooled.final_checkpoint, sequential.final_checkpoint);
  }
  EXPECT_EQ(sequential.jms_threads, 1.0);
}

}  // namespace
}  // namespace esharing::core
