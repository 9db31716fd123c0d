#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/esharing.h"
#include "stats/rng.h"
#include "stats/spatial.h"
#include "stream/pipeline.h"

namespace esharing::stream {
namespace {

using data::DemandSite;
using geo::Point;

std::vector<DemandSite> two_cluster_sites() {
  std::vector<DemandSite> sites;
  std::size_t cell = 0;
  for (double dx : {0.0, 100.0, 200.0}) {
    sites.push_back({{dx + 100.0, 100.0}, 10.0, cell++});
    sites.push_back({{dx + 2400.0, 2500.0}, 8.0, cell++});
  }
  return sites;
}

core::ESharingConfig system_config() {
  core::ESharingConfig cfg;
  cfg.placer.ks_period = 0;
  cfg.placer.adaptive_type = false;
  return cfg;
}

/// A planned, online system plus the KS sample it was started with.
struct OnlineSystem {
  core::ESharing system;
  std::vector<Point> sample;

  explicit OnlineSystem(std::uint64_t seed) : system(system_config(), seed) {
    (void)system.plan_offline(two_cluster_sites(),
                              [](Point) { return 2000.0; });
    stats::Rng rng(seed);
    sample = stats::uniform_points(rng, {{0, 0}, {3000, 3000}}, 120);
    system.start_online(sample);
  }
};

std::vector<Event> request_log(std::uint64_t seed, int n) {
  stats::Rng rng(seed);
  const auto points = stats::uniform_points(rng, {{0, 0}, {3000, 3000}}, n);
  std::vector<Event> log;
  log.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    Event e;
    e.kind = EventKind::kTripEnd;
    e.time = static_cast<data::Seconds>(i * 30);
    e.where = points[i];
    log.push_back(e);
  }
  return log;
}

/// Batch reference: the same requests fed straight into handle_request.
std::vector<solver::OnlineDecision> batch_decisions(
    core::ESharing& system, const std::vector<Event>& log) {
  std::vector<solver::OnlineDecision> decisions;
  for (const Event& e : log) {
    decisions.push_back(system.handle_request(e.where, e.weight));
  }
  return decisions;
}

void expect_same_decisions(const std::vector<solver::OnlineDecision>& a,
                           const std::vector<solver::OnlineDecision>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].opened, b[i].opened) << "decision " << i;
    EXPECT_EQ(a[i].facility, b[i].facility) << "decision " << i;
    EXPECT_DOUBLE_EQ(a[i].connection_cost, b[i].connection_cost)
        << "decision " << i;
  }
}

void expect_same_stations(const std::vector<Point>& a,
                          const std::vector<Point>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].x, b[i].x) << "station " << i;
    EXPECT_DOUBLE_EQ(a[i].y, b[i].y) << "station " << i;
  }
}

TEST(StreamPipeline, DriverRequiresOnlineSystem) {
  core::ESharing offline_only(system_config(), 1);
  (void)offline_only.plan_offline(two_cluster_sites(),
                                  [](Point) { return 2000.0; });
  const EventBus bus(EventBusConfig{});
  EXPECT_THROW(OnlinePlacerDriver(offline_only, bus, {}, PlacerDriverConfig{}),
               std::logic_error);
}

TEST(StreamPipeline, DriverConfigValidation) {
  PlacerDriverConfig cfg;
  cfg.regime_min_samples = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.regime_check_period = 0;  // disabled check: min samples may be 0
  EXPECT_NO_THROW(cfg.validate());
  cfg.reanchor_period = 64;
  cfg.reanchor_min_cells = 0;  // a re-anchor needs at least one cell
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.reanchor_min_cells = 2;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(StreamPipeline, ReanchorCadenceIsShardCountInvariant) {
  const auto log = request_log(55, 400);

  const auto run_with_shards = [&](std::size_t shards) {
    OnlineSystem sys(19);
    PipelineConfig cfg;
    cfg.bus.shard_count = shards;
    cfg.bus.queue_capacity = 64;
    cfg.bus.max_batch = 32;
    cfg.placer.reanchor_period = 100;  // re-anchor every 100 trip ends
    Pipeline pipeline(sys.system, sys.sample, cfg);
    const auto result = pipeline.replay(log);
    struct Out {
      std::uint64_t reanchors;
      std::uint64_t placer_reanchors;
      std::uint64_t revision;
      std::vector<Point> stations;
      std::vector<solver::OnlineDecision> decisions;
    };
    return Out{pipeline.placer_driver().reanchors(),
               sys.system.placer().reanchors(),
               sys.system.reopt_session().revision(),
               sys.system.placer().active_locations(), result.decisions};
  };

  const auto one = run_with_shards(1);
  EXPECT_EQ(one.reanchors, 4u);  // 400 trip ends / period 100
  EXPECT_EQ(one.placer_reanchors, one.reanchors);
  // The re-anchored plan and every post-re-anchor decision are identical
  // at any shard count: the cadence counts globally consumed trip ends and
  // the snapshot is taken at the global max clock.
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    const auto many = run_with_shards(shards);
    EXPECT_EQ(many.reanchors, one.reanchors) << shards << " shards";
    EXPECT_EQ(many.revision, one.revision) << shards << " shards";
    expect_same_stations(one.stations, many.stations);
    expect_same_decisions(one.decisions, many.decisions);
  }
}

TEST(StreamPipeline, StreamedDecisionsMatchBatchSingleShard) {
  OnlineSystem batch(7);
  OnlineSystem streamed(7);
  const auto log = request_log(99, 300);

  const auto expected = batch_decisions(batch.system, log);

  PipelineConfig cfg;
  cfg.bus.shard_count = 1;
  cfg.bus.queue_capacity = 64;
  cfg.bus.max_batch = 32;
  Pipeline pipeline(streamed.system, streamed.sample, cfg);
  const auto result = pipeline.replay(log);

  EXPECT_EQ(result.published, log.size());
  EXPECT_EQ(result.consumed, log.size());
  expect_same_decisions(expected, result.decisions);
  expect_same_stations(batch.system.placer().active_locations(),
                       streamed.system.placer().active_locations());
  EXPECT_EQ(batch.system.placer().requests_seen(),
            streamed.system.placer().requests_seen());
}

TEST(StreamPipeline, FourShardsMatchBatchAndSingleShard) {
  OnlineSystem batch(11);
  OnlineSystem one_shard(11);
  OnlineSystem four_shard(11);
  const auto log = request_log(123, 400);

  const auto expected = batch_decisions(batch.system, log);

  PipelineConfig cfg1;
  cfg1.bus.shard_count = 1;
  Pipeline pipeline1(one_shard.system, one_shard.sample, cfg1);
  const auto r1 = pipeline1.replay(log);

  PipelineConfig cfg4;
  cfg4.bus.shard_count = 4;
  Pipeline pipeline4(four_shard.system, four_shard.sample, cfg4);
  const auto r4 = pipeline4.replay(log);

  expect_same_decisions(expected, r1.decisions);
  expect_same_decisions(r1.decisions, r4.decisions);
  expect_same_stations(one_shard.system.placer().active_locations(),
                       four_shard.system.placer().active_locations());
  expect_same_stations(batch.system.placer().active_locations(),
                       four_shard.system.placer().active_locations());

  // The merged stream views are also shard-count invariant.
  const auto m1 = pipeline1.placer_driver().merged_snapshot();
  const auto m4 = pipeline4.placer_driver().merged_snapshot();
  ASSERT_EQ(m1.window.size(), m4.window.size());
  for (std::size_t i = 0; i < m1.window.size(); ++i) {
    EXPECT_EQ(m1.window[i].seq, m4.window[i].seq);
  }
}

TEST(StreamPipeline, RegimeChecksRunFromShardWindows) {
  OnlineSystem sys(13);
  const auto log = request_log(5, 256);

  PipelineConfig cfg;
  cfg.bus.shard_count = 2;
  cfg.placer.regime_check_period = 16;
  cfg.placer.regime_min_samples = 8;
  Pipeline pipeline(sys.system, sys.sample, cfg);
  (void)pipeline.replay(log);
  const auto& driver = pipeline.placer_driver();

  std::uint64_t checks = 0;
  for (std::size_t s = 0; s < driver.shard_count(); ++s) {
    const auto& regime = driver.shard_regime(s);
    checks += regime.checks;
    EXPECT_GT(regime.checks, 0u) << "shard " << s;
    EXPECT_GE(regime.similarity, 0.0);
    EXPECT_LE(regime.similarity, 100.0);
  }
  EXPECT_GT(checks, 0u);
  EXPECT_EQ(driver.events_consumed(), log.size());
}

TEST(StreamPipeline, IncentiveDriverMatchesDirectSession) {
  // Parkings on a line, watchlisted bikes near them, trips picking up at
  // the stations: the driver must reproduce a hand-built Algorithm 3
  // session offer for offer.
  std::vector<Point> parkings;
  for (int i = 0; i < 6; ++i) parkings.push_back({i * 400.0, 0.0});
  std::vector<WatchEntry> watchlist;
  for (int b = 0; b < 8; ++b) {
    watchlist.push_back({b, {b % 6 * 400.0 + 10.0, 5.0}, 0.1, 0});
  }

  core::IncentiveConfig icfg;
  icfg.alpha = 0.5;
  IncentiveDriver driver(icfg);
  driver.open_session(parkings, watchlist);
  ASSERT_TRUE(driver.session_open());

  // Hand-built twin: identical stations and piles.
  std::vector<core::EnergyStation> stations;
  for (Point p : parkings) stations.push_back({p, {}});
  const geo::SpatialIndex index(parkings);
  for (const auto& w : watchlist) {
    stations[index.nearest(w.where)].low_bikes.push_back(
        static_cast<std::size_t>(w.bike_id));
  }
  core::IncentiveMechanism twin(stations, icfg);

  const auto can_ride = [](std::size_t, double) { return true; };
  stats::Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    Event e;
    e.kind = EventKind::kTripEnd;
    e.origin = {rng.uniform(0.0, 2000.0), rng.uniform(-20.0, 20.0)};
    e.user_max_walk_m = rng.uniform(100.0, 600.0);
    e.user_min_reward = rng.uniform(0.0, 1.0);
    const Point assigned = parkings[static_cast<std::size_t>(i) % parkings.size()];

    const core::Offer got = driver.handle_trip(e, assigned, can_ride);
    const core::UserBehavior user{e.user_max_walk_m, e.user_min_reward};
    const core::Offer want = twin.handle_pickup(index.nearest(e.origin),
                                                assigned, user, can_ride);
    EXPECT_EQ(got.made, want.made) << "trip " << i;
    EXPECT_EQ(got.accepted, want.accepted) << "trip " << i;
    EXPECT_DOUBLE_EQ(got.incentive, want.incentive) << "trip " << i;
    EXPECT_EQ(got.bike, want.bike) << "trip " << i;
  }
  EXPECT_DOUBLE_EQ(driver.total_incentives_paid(),
                   twin.total_incentives_paid());
  EXPECT_EQ(driver.offers_made(), twin.offers_made());
  EXPECT_EQ(driver.relocations(), twin.relocations());
  EXPECT_GT(driver.offers_made(), 0u);  // the scenario exercises offers

  // Re-opening folds the closed session's totals into the running counts.
  const double paid_before = driver.total_incentives_paid();
  driver.open_session(parkings, watchlist);
  EXPECT_DOUBLE_EQ(driver.total_incentives_paid(), paid_before);
}

TEST(StreamPipeline, IncentiveDriverGuards) {
  IncentiveDriver driver{core::IncentiveConfig{}};
  EXPECT_FALSE(driver.session_open());
  EXPECT_THROW((void)driver.session(), std::logic_error);
  EXPECT_THROW(driver.open_session({}, {}), std::invalid_argument);
  // Without a session a trip is a no-op, not an error.
  Event e;
  const auto offer =
      driver.handle_trip(e, {0, 0}, [](std::size_t, double) { return true; });
  EXPECT_FALSE(offer.made);
}

TEST(StreamPipeline, WatchlistFeedsIncentiveSessions) {
  OnlineSystem sys(17);
  PipelineConfig cfg;
  cfg.bus.shard_count = 2;
  Pipeline pipeline(sys.system, sys.sample, cfg);

  // Telemetry: four low bikes, one healthy.
  for (int b = 0; b < 5; ++b) {
    Event e;
    e.kind = EventKind::kBatteryLevel;
    e.time = b;
    e.where = {b * 700.0, b * 300.0};
    e.bike_id = b;
    e.soc = b == 4 ? 0.9 : 0.1;
    pipeline.publish(e);
  }
  EXPECT_EQ(pipeline.pump(), 5u);

  const auto watchlist = pipeline.placer_driver().watchlist();
  ASSERT_EQ(watchlist.size(), 4u);
  IncentiveDriver& incentives = pipeline.incentive_driver();
  incentives.open_session(sys.system.parking_locations(), watchlist);
  std::size_t piled = 0;
  for (const auto& s : incentives.session().stations()) {
    piled += s.low_bikes.size();
  }
  EXPECT_EQ(piled, 4u);  // every watchlisted bike lands in some pile
}

}  // namespace
}  // namespace esharing::stream
