#include "stream/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/esharing.h"
#include "data/wire.h"
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

EventBusConfig bus_config(std::size_t shards) {
  EventBusConfig cfg;
  cfg.shard_count = shards;
  cfg.queue_capacity = 128;
  cfg.max_batch = 64;
  return cfg;
}

PlacerDriverConfig driver_config() {
  PlacerDriverConfig cfg;
  cfg.regime_check_period = 32;
  cfg.regime_min_samples = 8;
  return cfg;
}

PipelineConfig pipeline_config(std::size_t shards,
                               const PlacerDriverConfig& dcfg) {
  PipelineConfig cfg;
  cfg.bus = bus_config(shards);
  cfg.placer = dcfg;
  return cfg;
}

/// One complete streaming deployment: a planned, online system and the
/// stream::Pipeline serving it — built identically for a given seed so
/// runs are comparable.
struct Deployment {
  core::ESharing system;
  Pipeline pipeline;

  explicit Deployment(std::uint64_t seed, std::size_t shards = 4,
                      const PlacerDriverConfig& dcfg = driver_config())
      : system(system_config(), seed),
        pipeline(start(system, seed), make_sample(seed),
                 pipeline_config(shards, dcfg)) {}

  EventBus& bus() { return pipeline.bus(); }
  OnlinePlacerDriver& placer_driver() { return pipeline.placer_driver(); }
  IncentiveDriver& incentive_driver() { return pipeline.incentive_driver(); }

  static std::vector<Point> make_sample(std::uint64_t seed) {
    stats::Rng rng(seed);
    return stats::uniform_points(rng, {{0, 0}, {3000, 3000}}, 120);
  }

  static core::ESharing& start(core::ESharing& system, std::uint64_t seed) {
    (void)system.plan_offline(two_cluster_sites(),
                              [](Point) { return 2000.0; });
    stats::Rng rng(seed);
    system.start_online(
        stats::uniform_points(rng, {{0, 0}, {3000, 3000}}, 120));
    return system;
  }
};

/// Trip-end requests with battery telemetry sprinkled in so the watchlist
/// (and therefore the incentive blob) is non-trivial.
std::vector<Event> mixed_log(std::uint64_t seed, int n) {
  stats::Rng rng(seed);
  const auto points = stats::uniform_points(rng, {{0, 0}, {3000, 3000}}, n);
  std::vector<Event> log;
  for (std::size_t i = 0; i < points.size(); ++i) {
    Event e;
    e.kind = EventKind::kTripEnd;
    e.time = static_cast<data::Seconds>(i * 20);
    e.where = points[i];
    log.push_back(e);
    if (i % 10 == 3) {
      Event b;
      b.kind = EventKind::kBatteryLevel;
      b.time = e.time + 1;
      b.where = points[i];
      b.bike_id = static_cast<std::int64_t>(i / 10);
      b.soc = 0.1;
      log.push_back(b);
    }
  }
  return log;
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

TEST(StreamCheckpoint, HalfwayRestoreContinuesBitIdentically) {
  const auto log = mixed_log(42, 300);
  const std::vector<Event> first(log.begin(), log.begin() + 150);
  const std::vector<Event> second(log.begin() + 150, log.end());

  // Deployment A runs uninterrupted; checkpoint taken at the halfway mark.
  Deployment a(9);
  (void)a.pipeline.replay(first);
  a.incentive_driver().open_session(a.system.parking_locations(),
                                    a.placer_driver().watchlist());
  std::ostringstream blob;
  a.pipeline.save_checkpoint(blob);
  const auto tail_a = a.pipeline.replay(second);

  // Deployment B is a fresh process restored from the blob.
  Deployment b(9);
  std::istringstream in(blob.str());
  const CheckpointInfo info = b.pipeline.restore_checkpoint(in);
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(info.shard_count, 4u);
  EXPECT_EQ(info.events_consumed, first.size());
  EXPECT_EQ(info.last_seq, first.size() - 1);
  EXPECT_TRUE(b.incentive_driver().session_open());
  const auto tail_b = b.pipeline.replay(second);

  // The resumed run reproduces the uninterrupted one decision for decision.
  expect_same_decisions(tail_a.decisions, tail_b.decisions);
  const auto stations_a = a.system.placer().active_locations();
  const auto stations_b = b.system.placer().active_locations();
  ASSERT_EQ(stations_a.size(), stations_b.size());
  for (std::size_t i = 0; i < stations_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(stations_a[i].x, stations_b[i].x);
    EXPECT_DOUBLE_EQ(stations_a[i].y, stations_b[i].y);
  }
  EXPECT_EQ(a.system.placer().requests_seen(),
            b.system.placer().requests_seen());
  EXPECT_EQ(a.placer_driver().events_consumed(),
            b.placer_driver().events_consumed());
  EXPECT_EQ(a.placer_driver().last_seq(), b.placer_driver().last_seq());

  // Shard states match exactly — including the window publish seqs, which
  // only line up because the restored bus resumed the seq counter.
  for (std::size_t s = 0; s < a.placer_driver().shard_count(); ++s) {
    EXPECT_TRUE(a.placer_driver().shard_state(s).equals(
        b.placer_driver().shard_state(s)))
        << "shard " << s;
    EXPECT_DOUBLE_EQ(a.placer_driver().shard_regime(s).similarity,
                     b.placer_driver().shard_regime(s).similarity);
    EXPECT_EQ(a.placer_driver().shard_regime(s).checks,
              b.placer_driver().shard_regime(s).checks);
  }

  // Incentive sessions stay in lock-step through identical pickups.
  const auto can_ride = [](std::size_t, double) { return true; };
  stats::Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    Event e;
    e.kind = EventKind::kTripEnd;
    e.origin = {rng.uniform(0.0, 3000.0), rng.uniform(0.0, 3000.0)};
    e.user_max_walk_m = rng.uniform(100.0, 600.0);
    e.user_min_reward = rng.uniform(0.0, 1.0);
    const Point assigned = stations_a[static_cast<std::size_t>(i) %
                                      stations_a.size()];
    const core::Offer oa = a.incentive_driver().handle_trip(e, assigned, can_ride);
    const core::Offer ob = b.incentive_driver().handle_trip(e, assigned, can_ride);
    EXPECT_EQ(oa.made, ob.made) << "trip " << i;
    EXPECT_EQ(oa.accepted, ob.accepted) << "trip " << i;
    EXPECT_DOUBLE_EQ(oa.incentive, ob.incentive) << "trip " << i;
  }
  EXPECT_DOUBLE_EQ(a.incentive_driver().total_incentives_paid(),
                   b.incentive_driver().total_incentives_paid());
  EXPECT_EQ(a.incentive_driver().offers_made(), b.incentive_driver().offers_made());
  EXPECT_EQ(a.incentive_driver().relocations(), b.incentive_driver().relocations());

  // Identical state checkpoints to identical bytes.
  std::ostringstream blob_a, blob_b;
  a.pipeline.save_checkpoint(blob_a);
  b.pipeline.save_checkpoint(blob_b);
  EXPECT_EQ(blob_a.str(), blob_b.str());
}

TEST(StreamCheckpoint, HeaderBytesAreFrozen) {
  // The fixed 49-byte header, spelled out byte by byte so any change to
  // the fingerprint layout (including the retired policy byte, always 0)
  // fails here rather than only at a restore in the field.
  Deployment p(3);
  (void)p.pipeline.replay(mixed_log(8, 100));  // 110 events → next_seq 110
  std::ostringstream os;
  p.pipeline.save_checkpoint(os);
  const std::string blob = os.str();
  const unsigned char expected[49] = {
      // magic "ESTRCCP1" as a little-endian u64
      0x31, 0x50, 0x43, 0x43, 0x52, 0x54, 0x53, 0x45,
      // version 2
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // shard_count 4
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // route_cell_m 100.0 (IEEE-754 0x4059000000000000)
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x59, 0x40,
      // policy byte
      0x00,
      // queue_capacity 128
      0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // next_seq 110
      0x6e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
  ASSERT_GT(blob.size(), sizeof(expected));
  for (std::size_t i = 0; i < sizeof(expected); ++i) {
    EXPECT_EQ(static_cast<unsigned char>(blob[i]), expected[i])
        << "header byte " << i;
  }
}

TEST(StreamCheckpoint, RestoreRejectsForeignRoutingCell) {
  // A checkpoint whose header says it was routed on 250 m cells must not
  // restore into a bus that routes on the 100 m grid.
  Deployment p(3);
  (void)p.pipeline.replay(mixed_log(8, 100));
  std::ostringstream os;
  p.pipeline.save_checkpoint(os);
  std::string blob = os.str();
  {  // Unpatched, the blob restores.
    Deployment q(3);
    std::istringstream is(blob);
    EXPECT_NO_THROW((void)q.pipeline.restore_checkpoint(is));
  }
  // route_cell_m is the f64 at bytes 24..31: 100.0 -> 250.0
  // (IEEE-754 0x406f400000000000).
  ASSERT_EQ(static_cast<unsigned char>(blob[30]), 0x59);
  blob[29] = static_cast<char>(0x40);
  blob[30] = static_cast<char>(0x6f);
  Deployment q(3);
  std::istringstream is(blob);
  try {
    (void)q.pipeline.restore_checkpoint(is);
    ADD_FAILURE() << "a 250 m routing cell restored into a 100 m bus";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("routes on"), std::string::npos)
        << e.what();
  }
}

TEST(StreamCheckpoint, SaveRequiresDrainedQueues) {
  Deployment p(3);
  Event e;
  e.kind = EventKind::kTripEnd;
  e.where = {10, 10};
  p.pipeline.publish(e);
  std::ostringstream blob;
  EXPECT_THROW(p.pipeline.save_checkpoint(blob), std::logic_error);
  // Draining and consuming clears the objection.
  (void)p.pipeline.pump();
  EXPECT_NO_THROW(p.pipeline.save_checkpoint(blob));
}

TEST(StreamCheckpoint, RestoreRejectsForeignOrCorruptBlobs) {
  Deployment p(3);

  {  // Not a checkpoint at all.
    std::istringstream junk("definitely not a checkpoint blob");
    EXPECT_THROW((void)p.pipeline.restore_checkpoint(junk),
                 std::runtime_error);
  }
  {  // Right magic, unsupported version.
    std::ostringstream os;
    data::wire::write_u64(os, 0x4553545243435031ULL);
    data::wire::write_u64(os, 999);
    std::istringstream is(os.str());
    EXPECT_THROW((void)p.pipeline.restore_checkpoint(is), std::runtime_error);
  }
  {  // Truncated mid-body.
    std::ostringstream os;
    p.pipeline.save_checkpoint(os);
    const std::string full = os.str();
    std::istringstream is(full.substr(0, full.size() / 2));
    EXPECT_THROW((void)p.pipeline.restore_checkpoint(is), std::runtime_error);
  }
}

TEST(StreamCheckpoint, RestoreRejectsMismatchedBusFingerprint) {
  Deployment four(3, 4);
  std::ostringstream blob;
  save_checkpoint(blob, four.bus(), four.placer_driver(),
                  four.incentive_driver());

  {  // Different shard count: shard ownership would not line up.
    Deployment two(3, 2);
    std::istringstream is(blob.str());
    EXPECT_THROW(
        (void)restore_checkpoint(is, two.bus(), two.system,
                                 two.placer_driver(), two.incentive_driver()),
        std::runtime_error);
  }
  {  // Wiring error: `system` is not the driver's system.
    Deployment other(3, 4);
    core::ESharing stranger(system_config(), 3);
    Deployment::start(stranger, 3);
    std::istringstream is(blob.str());
    EXPECT_THROW(
        (void)restore_checkpoint(is, other.bus(), stranger,
                                 other.placer_driver(),
                                 other.incentive_driver()),
        std::logic_error);
  }
}

TEST(StreamCheckpoint, FileWrappersRoundTrip) {
  const std::string path = testing::TempDir() + "esharing_stream_ckpt.bin";
  const auto log = mixed_log(8, 100);

  Deployment a(21);
  (void)a.pipeline.replay(log);
  a.pipeline.save_checkpoint_file(path);

  Deployment b(21);
  const CheckpointInfo info = b.pipeline.restore_checkpoint_file(path);
  EXPECT_EQ(info.events_consumed, log.size());
  for (std::size_t s = 0; s < a.placer_driver().shard_count(); ++s) {
    EXPECT_TRUE(a.placer_driver().shard_state(s).equals(
        b.placer_driver().shard_state(s)));
  }
  std::remove(path.c_str());

  Deployment c(21);
  EXPECT_THROW(
      (void)c.pipeline.restore_checkpoint_file("/nonexistent/dir/ckpt.bin"),
      std::runtime_error);
}

TEST(StreamCheckpoint, SaveIsCrashAtomicAndTruncatedFilesAreRejected) {
  const std::string path = testing::TempDir() + "esharing_atomic_ckpt.bin";
  const auto log = mixed_log(8, 100);

  Deployment a(29);
  (void)a.pipeline.replay(log);
  a.pipeline.save_checkpoint_file(path);
  // The tmp staging file must be gone after a successful save (renamed
  // onto the target), never left beside it.
  {
    std::ifstream tmp(path + ".tmp", std::ios::binary);
    EXPECT_FALSE(tmp.good());
  }

  // Simulate a crash mid-write of a NON-atomic saver: truncate the file to
  // half. Restore must reject it cleanly instead of half-applying state.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 16u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  Deployment b(29);
  EXPECT_THROW((void)b.pipeline.restore_checkpoint_file(path),
               std::runtime_error);

  // An intact byte-stream written back restores fine — the rejection above
  // was about truncation, not the file wrapper.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  Deployment c(29);
  const CheckpointInfo info = c.pipeline.restore_checkpoint_file(path);
  EXPECT_EQ(info.events_consumed, log.size());
  std::remove(path.c_str());
}

// --- StreamForecastRefresh --------------------------------------------------

/// Re-anchoring with the batched demand forecaster enabled: each re-anchor
/// fits ml::batch::BatchRnn over the driver's per-cell hourly accumulator
/// and anchors on predicted next-hour demand (raw counts until enough
/// completed hours exist).
PlacerDriverConfig forecast_driver_config() {
  PlacerDriverConfig cfg = driver_config();
  cfg.reanchor_period = 48;
  cfg.forecast_history_hours = 10;
  cfg.forecast_rnn.kind = ml::batch::RnnKind::kGru;
  cfg.forecast_rnn.hidden = 4;
  cfg.forecast_rnn.lookback = 3;
  cfg.forecast_rnn.epochs = 4;
  return cfg;
}

/// Trip ends spread over many hours so the accumulator crosses the
/// lookback + 2 completed-hour threshold mid-log.
std::vector<Event> hourly_log(std::uint64_t seed, int n) {
  stats::Rng rng(seed);
  const auto points = stats::uniform_points(rng, {{0, 0}, {3000, 3000}}, n);
  std::vector<Event> log;
  log.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    Event e;
    e.kind = EventKind::kTripEnd;
    e.time = static_cast<data::Seconds>(i * 240);  // 15 trip ends per hour
    e.where = points[i];
    log.push_back(e);
  }
  return log;
}

TEST(StreamForecastRefresh, ConfigValidatesForecastKnobs) {
  PlacerDriverConfig cfg = forecast_driver_config();
  cfg.forecast_history_hours = 3;  // < lookback + 2
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = forecast_driver_config();
  cfg.forecast_rnn.hidden = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_NO_THROW(forecast_driver_config().validate());
}

TEST(StreamForecastRefresh, FiresOnceEnoughHoursAccumulate) {
  const auto log = hourly_log(17, 400);
  Deployment p(17, 4, forecast_driver_config());
  (void)p.pipeline.replay(log);
  EXPECT_GT(p.placer_driver().reanchors(), 0u);
  EXPECT_GT(p.placer_driver().forecast_refreshes(), 0u);
  EXPECT_LE(p.placer_driver().forecast_refreshes(),
            p.placer_driver().reanchors());
}

TEST(StreamForecastRefresh, ShardCountInvariant) {
  const auto log = hourly_log(21, 400);
  Deployment one(21, 1, forecast_driver_config());
  Deployment four(21, 4, forecast_driver_config());
  const auto da = one.pipeline.replay(log).decisions;
  const auto db = four.pipeline.replay(log).decisions;
  expect_same_decisions(da, db);
  EXPECT_EQ(one.placer_driver().reanchors(), four.placer_driver().reanchors());
  EXPECT_EQ(one.placer_driver().forecast_refreshes(),
            four.placer_driver().forecast_refreshes());
  EXPECT_GT(one.placer_driver().forecast_refreshes(), 0u);
}

TEST(StreamForecastRefresh, CheckpointRoundTripContinuesBitIdentically) {
  const auto log = hourly_log(33, 400);
  const std::vector<Event> first(log.begin(), log.begin() + 200);
  const std::vector<Event> second(log.begin() + 200, log.end());

  // Uninterrupted reference run.
  Deployment ref(33, 4, forecast_driver_config());
  const auto ref_decisions = ref.pipeline.replay(log).decisions;

  // Run to the halfway point, checkpoint, restore into a fresh deployment,
  // and continue — the forecast accumulator must ride along.
  Deployment a(33, 4, forecast_driver_config());
  auto decisions = a.pipeline.replay(first).decisions;
  std::stringstream blob;
  a.pipeline.save_checkpoint(blob);

  Deployment b(33, 4, forecast_driver_config());
  b.pipeline.restore_checkpoint(blob);
  EXPECT_EQ(b.placer_driver().forecast_refreshes(),
            a.placer_driver().forecast_refreshes());
  const auto rest = b.pipeline.replay(second).decisions;
  decisions.insert(decisions.end(), rest.begin(), rest.end());
  expect_same_decisions(decisions, ref_decisions);
  EXPECT_EQ(b.placer_driver().forecast_refreshes(),
            ref.placer_driver().forecast_refreshes());
  EXPECT_GT(ref.placer_driver().forecast_refreshes(), 0u);
}

}  // namespace
}  // namespace esharing::stream
