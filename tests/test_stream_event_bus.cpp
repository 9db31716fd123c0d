#include "stream/event_bus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace esharing::stream {
namespace {

using geo::Point;

Event trip_end(double x, double y, data::Seconds t = 0) {
  Event e;
  e.kind = EventKind::kTripEnd;
  e.time = t;
  e.where = {x, y};
  return e;
}

template <typename Config>
void expect_rejects(const Config& config, const std::string& field) {
  try {
    config.validate();
    FAIL() << "expected " << field << " to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << "message does not name the field: " << e.what();
  }
}

TEST(StreamEventBus, ConfigValidation) {
  EXPECT_NO_THROW(EventBusConfig{}.validate());

  EventBusConfig c;
  c.shard_count = 0;
  expect_rejects(c, "shard_count");

  c = {};
  c.queue_capacity = 0;
  expect_rejects(c, "queue_capacity");

  c = {};
  c.max_batch = 0;
  expect_rejects(c, "max_batch");

  c = {};
  c.queue_capacity = 8;
  c.max_batch = 9;
  expect_rejects(c, "max_batch");
}

TEST(StreamEventBus, SeqStampsFollowPublishOrder) {
  EventBusConfig cfg;
  cfg.shard_count = 1;
  EventBus bus(cfg);
  for (int i = 0; i < 5; ++i) bus.publish(trip_end(i * 10.0, 0));
  std::vector<Event> out;
  EXPECT_EQ(bus.drain(0, out), 5u);
  ASSERT_EQ(out.size(), 5u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].seq, i);
    EXPECT_DOUBLE_EQ(out[i].where.x, static_cast<double>(i) * 10.0);
  }
  EXPECT_EQ(bus.next_seq(), 5u);
}

TEST(StreamEventBus, RoutingIsCellLocalAndDeterministic) {
  EventBusConfig cfg;
  cfg.shard_count = 4;
  EventBus bus(cfg);
  // Points in the same 100 m cell always land in the same shard.
  EXPECT_EQ(bus.shard_of({10.0, 10.0}), bus.shard_of({90.0, 90.0}));
  EXPECT_EQ(bus.shard_of({250.0, 130.0}), bus.shard_of({299.0, 199.0}));
  // And an identical bus routes identically.
  EventBus twin(cfg);
  for (double x = 0.0; x < 2000.0; x += 87.0) {
    EXPECT_EQ(bus.shard_of({x, 2.0 * x}), twin.shard_of({x, 2.0 * x}));
  }
}

TEST(StreamEventBus, PerShardDrainsMergeToPublishOrder) {
  EventBusConfig cfg;
  cfg.shard_count = 4;
  EventBus bus(cfg);
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    // Scatter across cells so several shards receive events.
    bus.publish(trip_end(137.0 * i, 211.0 * (n - i)));
  }
  // Each shard drains in FIFO (ascending seq) order; merging the shards by
  // seq restores publish order.
  std::vector<Event> out;
  for (std::size_t s = 0; s < bus.shard_count(); ++s) {
    const std::size_t before = out.size();
    while (bus.drain(s, out) > 0) {
    }
    EXPECT_TRUE(std::is_sorted(out.begin() + static_cast<std::ptrdiff_t>(before),
                               out.end(), BySeq{}))
        << "shard " << s;
  }
  ASSERT_EQ(out.size(), static_cast<std::size_t>(n));
  std::sort(out.begin(), out.end(), BySeq{});
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].seq,
              static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(bus.pending_total(), 0u);
}

TEST(StreamEventBus, DrainHonorsBatchCap) {
  EventBusConfig cfg;
  cfg.shard_count = 1;
  cfg.queue_capacity = 8;
  cfg.max_batch = 3;
  EventBus bus(cfg);
  for (int i = 0; i < 7; ++i) bus.publish(trip_end(0, 0));
  std::vector<Event> out;
  EXPECT_EQ(bus.drain(0, out), 3u);
  EXPECT_EQ(bus.drain(0, out), 3u);
  EXPECT_EQ(bus.drain(0, out), 1u);
  EXPECT_EQ(bus.drain(0, out), 0u);
  EXPECT_EQ(out.size(), 7u);
}

TEST(StreamEventBus, GuardsBadShardIndices) {
  EventBus bus(EventBusConfig{});
  std::vector<Event> out;
  EXPECT_THROW((void)bus.drain(1, out), std::out_of_range);
  EXPECT_THROW((void)bus.pending(1), std::out_of_range);
}

TEST(StreamEventBus, ResumeSeqOnlyMovesForward) {
  EventBus bus(EventBusConfig{});
  bus.resume_seq(40);
  EXPECT_EQ(bus.next_seq(), 40u);
  bus.resume_seq(10);  // never rewinds
  EXPECT_EQ(bus.next_seq(), 40u);
  bus.publish(trip_end(0, 0));
  std::vector<Event> out;
  (void)bus.drain(0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 40u);
}

TEST(StreamEventBus, ConcurrentPublishersDeliverEveryEventExactlyOnce) {
  EventBusConfig cfg;
  cfg.shard_count = 4;
  cfg.queue_capacity = 64;
  cfg.max_batch = 32;
  EventBus bus(cfg);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  constexpr int kTotal = kProducers * kPerProducer;

  std::vector<Event> out;
  std::thread consumer([&] {
    while (out.size() < static_cast<std::size_t>(kTotal)) {
      std::size_t drained = 0;
      for (std::size_t s = 0; s < bus.shard_count(); ++s) {
        drained += bus.drain(s, out);
      }
      if (drained == 0) std::this_thread::yield();
    }
  });
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&bus, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        // Spread publishes over many cells so every shard sees traffic.
        bus.publish(trip_end(61.0 * (p * kPerProducer + i), 13.0 * i));
      }
    });
  }
  for (auto& t : producers) t.join();
  consumer.join();

  ASSERT_EQ(out.size(), static_cast<std::size_t>(kTotal));
  std::set<std::uint64_t> seqs;
  for (const Event& e : out) seqs.insert(e.seq);
  EXPECT_EQ(seqs.size(), static_cast<std::size_t>(kTotal));  // no duplicates
  EXPECT_EQ(*seqs.rbegin(), static_cast<std::uint64_t>(kTotal - 1));
  const auto st = bus.stats();
  EXPECT_EQ(st.published, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(st.drained, static_cast<std::uint64_t>(kTotal));
}

TEST(StreamEventBus, BlockedPublisherResumesAfterDrain) {
  EventBusConfig cfg;
  cfg.shard_count = 1;
  cfg.queue_capacity = 2;
  cfg.max_batch = 2;
  EventBus bus(cfg);

  constexpr int kTotal = 10;
  std::thread producer([&] {
    for (int i = 0; i < kTotal; ++i) bus.publish(trip_end(0, 0));
  });
  // Drain only once the producer is parked on the full ring: a consumer
  // that keeps up would otherwise never let the ring fill. The deadline
  // keeps a publisher that never blocks from hanging the test; the
  // assertion below then reports it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (bus.stats().blocked_publishes == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  std::vector<Event> out;
  while (out.size() < static_cast<std::size_t>(kTotal)) {
    if (bus.drain(0, out) == 0) std::this_thread::yield();
  }
  producer.join();
  EXPECT_EQ(out.size(), static_cast<std::size_t>(kTotal));
  // The tiny ring forces at least one wait with ten publishes vs capacity 2.
  EXPECT_GE(bus.stats().blocked_publishes, 1u);
}

}  // namespace
}  // namespace esharing::stream
