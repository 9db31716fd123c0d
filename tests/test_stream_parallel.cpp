/// Parallel sharded ingestion (stream::Pipeline on the exec pool):
///
///   * StreamBatchPublish — EventBus::publish_batch semantics: one seq
///     range, per-shard FIFO, and exact equivalence with per-event
///     publish.
///   * StreamParallelMatrix — the determinism tentpole: placer decisions
///     and checkpoint bytes across (shards 1/4/8 × pool widths 1/2/8),
///     with regime checks and re-anchoring enabled.
///   * StreamPipelineFacade — the unified config/facade: validation
///     propagation, merged seq order out of pump_into, checkpoint
///     round-trips, merge-stall accounting.
///   * StreamLaneHammer — TSan target: concurrent batch publishers against
///     parallel lane drains on a small, blocking bus.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/esharing.h"
#include "exec/thread_pool.h"
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

/// Trip-end requests with sparse battery telemetry woven in.
std::vector<Event> mixed_log(std::uint64_t seed, int n) {
  stats::Rng rng(seed);
  const auto points =
      stats::uniform_points(rng, {{0, 0}, {3000, 3000}},
                            static_cast<std::size_t>(n));
  std::vector<Event> log;
  log.reserve(points.size() + points.size() / 9);
  for (std::size_t i = 0; i < points.size(); ++i) {
    Event e;
    e.kind = EventKind::kTripEnd;
    e.time = static_cast<data::Seconds>(i * 30);
    e.where = points[i];
    log.push_back(e);
    if (i % 9 == 4) {
      Event b;
      b.kind = EventKind::kBatteryLevel;
      b.time = e.time + 1;
      b.where = e.where;
      b.bike_id = static_cast<std::int64_t>(i % 40);
      b.soc = 0.05 + 0.01 * static_cast<double>(i % 11);
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

void expect_same_stations(const std::vector<Point>& a,
                          const std::vector<Point>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].x, b[i].x) << "station " << i;
    EXPECT_DOUBLE_EQ(a[i].y, b[i].y) << "station " << i;
  }
}

/// RAII width override so a failing assertion cannot leak a wide pool
/// into later tests.
struct ScopedThreads {
  std::size_t original;
  explicit ScopedThreads(std::size_t width) : original(exec::global_threads()) {
    exec::set_global_threads(width);
  }
  ~ScopedThreads() { exec::set_global_threads(original); }
};

// --- StreamBatchPublish -----------------------------------------------------

TEST(StreamBatchPublish, MatchesPerEventPublishExactly) {
  const auto log = mixed_log(3, 120);
  EventBusConfig cfg;
  cfg.shard_count = 4;
  cfg.queue_capacity = 256;
  cfg.max_batch = 64;
  EventBus one_by_one(cfg);
  EventBus batched(cfg);

  for (const Event& e : log) one_by_one.publish(e);
  EXPECT_EQ(batched.publish_batch(log), log.size());

  // Per shard, both buses hold the same FIFO sequence.
  std::vector<Event> a;
  std::vector<Event> b;
  for (std::size_t s = 0; s < cfg.shard_count; ++s) {
    while (one_by_one.drain(s, a) > 0) {
    }
    while (batched.drain(s, b) > 0) {
    }
    ASSERT_EQ(a.size(), b.size()) << "shard " << s;
  }
  ASSERT_EQ(a.size(), log.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seq, b[i].seq) << "event " << i;
    EXPECT_DOUBLE_EQ(a[i].where.x, b[i].where.x) << "event " << i;
    EXPECT_DOUBLE_EQ(a[i].where.y, b[i].where.y) << "event " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << "event " << i;
  }
  EXPECT_EQ(one_by_one.stats().published, batched.stats().published);
  EXPECT_EQ(batched.next_seq(), log.size());
}

TEST(StreamBatchPublish, StampsOneContiguousRangeInSpanOrder) {
  const auto log = mixed_log(9, 80);
  EventBusConfig cfg;
  cfg.shard_count = 8;
  EventBus bus(cfg);
  EXPECT_EQ(bus.publish_batch(log), log.size());

  // Per shard: FIFO in ascending seq; merged: exactly 0..n-1.
  std::vector<Event> merged;
  for (std::size_t s = 0; s < bus.shard_count(); ++s) {
    std::vector<Event> shard_events;
    while (bus.drain(s, shard_events) > 0) {
    }
    for (std::size_t i = 1; i < shard_events.size(); ++i) {
      EXPECT_LT(shard_events[i - 1].seq, shard_events[i].seq)
          << "shard " << s << " event " << i;
    }
    merged.insert(merged.end(), shard_events.begin(), shard_events.end());
  }
  ASSERT_EQ(merged.size(), log.size());
  std::sort(merged.begin(), merged.end(), BySeq{});
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].seq, i);
  }
}

TEST(StreamBatchPublish, EmptyBatchIsANoOp) {
  EventBus bus(EventBusConfig{});
  EXPECT_EQ(bus.publish_batch({}), 0u);
  EXPECT_EQ(bus.next_seq(), 0u);
  EXPECT_EQ(bus.stats().published, 0u);
}

// --- StreamParallelMatrix ---------------------------------------------------

struct MatrixRun {
  std::vector<solver::OnlineDecision> decisions;
  std::vector<Point> stations;
  std::string checkpoint;
  std::uint64_t reanchors{0};
  std::uint64_t regime_checks{0};
};

MatrixRun run_matrix(std::size_t shards, std::size_t width,
                     const std::vector<Event>& log) {
  const ScopedThreads threads(width);
  OnlineSystem sys(31);
  PipelineConfig cfg;
  cfg.bus.shard_count = shards;
  cfg.bus.queue_capacity = 64;  // forces many mid-stream pump rounds
  cfg.bus.max_batch = 32;
  cfg.placer.regime_check_period = 16;
  cfg.placer.regime_min_samples = 8;
  cfg.placer.reanchor_period = 100;
  cfg.lanes = 0;  // lanes follow the pool width under test
  Pipeline pipeline(sys.system, sys.sample, cfg);

  const auto result = pipeline.replay(log);
  MatrixRun out;
  out.decisions = result.decisions;
  out.stations = sys.system.placer().active_locations();
  std::ostringstream blob;
  pipeline.save_checkpoint(blob);
  out.checkpoint = blob.str();
  out.reanchors = pipeline.placer_driver().reanchors();
  for (std::size_t s = 0; s < pipeline.placer_driver().shard_count(); ++s) {
    out.regime_checks += pipeline.placer_driver().shard_regime(s).checks;
  }
  return out;
}

TEST(StreamParallelMatrix, DecisionsBitIdenticalAtEveryShardAndThreadCount) {
  const auto log = mixed_log(77, 400);
  const auto baseline = run_matrix(1, 1, log);
  EXPECT_GT(baseline.reanchors, 0u);    // the cadence actually fired
  EXPECT_GT(baseline.regime_checks, 0u);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                   std::size_t{8}}) {
    // Checkpoint bytes depend on the shard layout (per-shard states), so
    // byte-identity is asserted across thread widths within a shard count;
    // decisions and stations are identical across the whole matrix.
    std::string reference_checkpoint;
    for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
      const auto run = run_matrix(shards, width, log);
      expect_same_decisions(baseline.decisions, run.decisions);
      expect_same_stations(baseline.stations, run.stations);
      EXPECT_EQ(run.reanchors, baseline.reanchors)
          << shards << " shards, " << width << " threads";
      if (reference_checkpoint.empty()) {
        reference_checkpoint = run.checkpoint;
      } else {
        EXPECT_TRUE(run.checkpoint == reference_checkpoint)
            << "checkpoint bytes diverged at " << shards << " shards, "
            << width << " threads";
      }
    }
  }
}

TEST(StreamParallelMatrix, ConsumeBatchMatchesPerEventConsume) {
  const auto log = mixed_log(13, 250);
  OnlineSystem a(41);
  OnlineSystem b(41);
  EventBusConfig bus_cfg;
  bus_cfg.shard_count = 4;
  const EventBus bus(bus_cfg);
  PlacerDriverConfig cfg;
  cfg.regime_check_period = 16;
  cfg.regime_min_samples = 8;
  cfg.reanchor_period = 75;
  OnlinePlacerDriver per_event(a.system, bus, a.sample, cfg);
  OnlinePlacerDriver batched(b.system, bus, b.sample, cfg);

  // The seq order a bus stamps on one publish_batch of the log.
  std::vector<Event> stamped = log;
  for (std::size_t i = 0; i < stamped.size(); ++i) stamped[i].seq = i;

  std::vector<solver::OnlineDecision> one_by_one;
  for (const Event& e : stamped) {
    per_event.consume_batch(std::span<const Event>(&e, 1), /*lanes=*/1,
                            &one_by_one);
  }
  std::vector<solver::OnlineDecision> in_batches;
  // Uneven batch boundaries, including mid-reanchor-window cuts.
  const std::size_t cuts[] = {37, 118, 119, 240, stamped.size()};
  std::size_t from = 0;
  for (const std::size_t to : cuts) {
    batched.consume_batch(
        std::span<const Event>(stamped).subspan(from, to - from),
        /*lanes=*/2, &in_batches);
    from = to;
  }

  expect_same_decisions(one_by_one, in_batches);
  expect_same_stations(a.system.placer().active_locations(),
                       b.system.placer().active_locations());
  EXPECT_EQ(per_event.reanchors(), batched.reanchors());
  EXPECT_EQ(per_event.events_consumed(), batched.events_consumed());
  for (std::size_t s = 0; s < per_event.shard_count(); ++s) {
    EXPECT_EQ(per_event.shard_regime(s).checks, batched.shard_regime(s).checks)
        << "shard " << s;
    EXPECT_DOUBLE_EQ(per_event.shard_regime(s).similarity,
                     batched.shard_regime(s).similarity)
        << "shard " << s;
  }
}

// --- StreamPipelineFacade ---------------------------------------------------

TEST(StreamPipelineFacade, ValidatesEveryNestedConfig) {
  OnlineSystem sys(3);
  PipelineConfig bad_bus;
  bad_bus.bus.shard_count = 0;
  EXPECT_THROW(Pipeline(sys.system, sys.sample, bad_bus),
               std::invalid_argument);

  PipelineConfig bad_placer;
  bad_placer.placer.regime_min_samples = 0;
  EXPECT_THROW(Pipeline(sys.system, sys.sample, bad_placer),
               std::invalid_argument);

  EXPECT_NO_THROW(PipelineConfig{}.validate());
}

TEST(StreamPipelineFacade, PumpIntoDeliversMergedSeqOrder) {
  OnlineSystem sys(3);
  PipelineConfig cfg;
  cfg.bus.shard_count = 2;
  Pipeline pipeline(sys.system, sys.sample, cfg);

  // pump_into hands the merged batch to the caller, not the drivers.
  const auto log = mixed_log(21, 90);
  EXPECT_EQ(pipeline.publish_batch(log), log.size());
  std::vector<std::uint64_t> seqs;
  EXPECT_EQ(pipeline.pump_into([&](const Event& e) { seqs.push_back(e.seq); }),
            log.size());
  ASSERT_EQ(seqs.size(), log.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i);
  const auto stats = pipeline.stats();
  EXPECT_EQ(stats.merged_events, log.size());
  EXPECT_EQ(stats.lane_events, log.size());
  EXPECT_EQ(stats.merge_stalls, 0u);
  EXPECT_GT(stats.pump_rounds, 0u);
  EXPECT_GT(stats.lane_occupancy, 0.0);
  EXPECT_EQ(pipeline.placer_driver().events_consumed(), 0u);
}

TEST(StreamPipelineFacade, MergeStallsCountSeqGaps) {
  OnlineSystem sys(3);
  PipelineConfig cfg;
  cfg.bus.shard_count = 1;
  cfg.bus.queue_capacity = 8;
  cfg.bus.max_batch = 8;
  Pipeline pipeline(sys.system, sys.sample, cfg);
  const auto log = mixed_log(8, 20);

  EXPECT_EQ(pipeline.publish_batch(std::span<const Event>(log).subspan(0, 8)),
            8u);
  EXPECT_EQ(pipeline.pump_into([](const Event&) {}), 8u);
  EXPECT_EQ(pipeline.stats().merge_stalls, 0u);

  // Skip 12 seqs the merge will never see: the next event starts past the
  // gap — one stall.
  pipeline.bus().resume_seq(pipeline.bus().next_seq() + 12);
  EXPECT_EQ(pipeline.publish_batch(std::span<const Event>(log).subspan(0, 2)),
            2u);
  EXPECT_EQ(pipeline.pump_into([](const Event&) {}), 2u);
  EXPECT_EQ(pipeline.stats().merge_stalls, 1u);
}

TEST(StreamPipelineFacade, CheckpointRoundTripContinuesBitIdentically) {
  const auto log = mixed_log(5, 300);
  const std::size_t cut = 150;
  const std::vector<Event> prefix(log.begin(), log.begin() + cut);
  const std::vector<Event> suffix(log.begin() + cut, log.end());

  PipelineConfig cfg;
  cfg.bus.shard_count = 4;
  cfg.bus.queue_capacity = 64;
  cfg.bus.max_batch = 32;
  cfg.placer.regime_check_period = 16;
  cfg.placer.regime_min_samples = 8;
  cfg.placer.reanchor_period = 100;
  cfg.lanes = 2;

  OnlineSystem sys_a(29);
  Pipeline a(sys_a.system, sys_a.sample, cfg);
  (void)a.replay(prefix);
  std::stringstream blob;
  a.save_checkpoint(blob);

  OnlineSystem sys_b(29);
  Pipeline b(sys_b.system, sys_b.sample, cfg);
  const auto info = b.restore_checkpoint(blob);
  EXPECT_EQ(info.events_consumed, prefix.size());
  EXPECT_EQ(info.shard_count, 4u);

  const auto rest_a = a.replay(suffix);
  const auto rest_b = b.replay(suffix);
  expect_same_decisions(rest_a.decisions, rest_b.decisions);

  std::ostringstream final_a;
  std::ostringstream final_b;
  a.save_checkpoint(final_a);
  b.save_checkpoint(final_b);
  const std::string bytes_a = final_a.str();
  const std::string bytes_b = final_b.str();
  std::size_t diverge = 0;
  while (diverge < bytes_a.size() && diverge < bytes_b.size() &&
         bytes_a[diverge] == bytes_b[diverge]) {
    ++diverge;
  }
  EXPECT_TRUE(bytes_a == bytes_b)
      << "post-restore checkpoints diverged at byte " << diverge << " of "
      << bytes_a.size() << " / " << bytes_b.size();
}

// --- StreamLaneHammer -------------------------------------------------------

TEST(StreamLaneHammer, ConcurrentBatchPublishersAgainstParallelDrains) {
  // TSan target: 4 producer threads batch-publish onto a tiny bus
  // (so they block on backpressure) while the consumer runs parallel lane
  // drains. Conservation is exact: nothing lost, nothing duplicated.
  const ScopedThreads threads(4);
  OnlineSystem sys(3);
  PipelineConfig cfg;
  cfg.bus.shard_count = 4;
  cfg.bus.queue_capacity = 32;
  cfg.bus.max_batch = 16;
  cfg.lanes = 0;
  Pipeline pipeline(sys.system, sys.sample, cfg);

  constexpr std::size_t kPublishers = 4;
  constexpr std::size_t kPerPublisher = 600;
  constexpr std::size_t kChunk = 25;
  std::vector<std::thread> publishers;
  publishers.reserve(kPublishers);
  for (std::size_t t = 0; t < kPublishers; ++t) {
    publishers.emplace_back([&pipeline, t] {
      stats::Rng rng(100 + t);
      std::vector<Event> chunk;
      chunk.reserve(kChunk);
      for (std::size_t i = 0; i < kPerPublisher; i += kChunk) {
        chunk.clear();
        for (std::size_t j = 0; j < kChunk; ++j) {
          Event e;
          e.kind = EventKind::kTripEnd;
          e.time = static_cast<data::Seconds>(i + j);
          e.where = {rng.uniform(0.0, 3000.0), rng.uniform(0.0, 3000.0)};
          chunk.push_back(e);
        }
        pipeline.publish_batch(chunk);  // a full ring waits for the pump
      }
    });
  }

  constexpr std::size_t kExpected = kPublishers * kPerPublisher;
  std::atomic<std::size_t> seen{0};
  std::size_t consumed = 0;
  while (consumed < kExpected) {
    consumed += pipeline.pump_into(
        [&seen](const Event&) { seen.fetch_add(1, std::memory_order_relaxed); });
  }
  for (auto& publisher : publishers) publisher.join();
  consumed += pipeline.pump_into(
      [&seen](const Event&) { seen.fetch_add(1, std::memory_order_relaxed); });

  EXPECT_EQ(consumed, kExpected);
  EXPECT_EQ(seen.load(), kExpected);
  EXPECT_EQ(pipeline.bus().pending_total(), 0u);
  const auto stats = pipeline.stats();
  EXPECT_EQ(stats.bus.published, kExpected);
  EXPECT_EQ(stats.merged_events, kExpected);
}

}  // namespace
}  // namespace esharing::stream
