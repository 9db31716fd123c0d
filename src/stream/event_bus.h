#pragma once

/// \file event_bus.h
/// Sharded, bounded ingestion queues: the front door of `esharing::stream`.
///
/// Events are routed to a shard by the grid cell of their location (the
/// paper's 100x100 m demand grid is the natural partition key: everything
/// downstream — demand windows, arrival rates, the watchlist — is keyed by
/// cell, so one cell's state always lives in exactly one shard). Each shard
/// owns one bounded MPSC ring: any number of publishers, one consumer
/// draining in batches. A full ring blocks the publisher until the
/// consumer frees space, so the bus is lossless: Algorithm 2 decides every
/// request it is handed, and none is ever shed.
///
/// Every publish is stamped with a bus-wide monotonic sequence number.
/// Per-shard FIFO plus the seq stamp lets a consumer merge any number of
/// shards back into the exact publish order (Pipeline's merge stage, see
/// pipeline.h), which is the mechanism behind the multi-shard ==
/// single-shard determinism guarantee.
/// Publishes, blocks and drains are observable through `obs` counters
/// (`stream.event_bus.*`).
///
/// The bus also carries the consumer's wake-up: an activity counter that
/// every publish bumps when it finishes (and before it blocks on a full
/// ring), and that anyone else can bump with poke(). A consumer reads
/// activity() before a drain round and, when the round comes back empty,
/// blocks in wait_activity(seen) until the counter moves — so an idle
/// consumer sleeps instead of polling, and no publish can slip in between
/// the round and the wait unnoticed.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/sync.h"
#include "core/thread_annotations.h"
#include "geo/grid.h"
#include "stream/event.h"

namespace esharing::stream {

struct EventBusConfig {
  std::size_t shard_count{1};      ///< >= 1; shards own disjoint cell sets
  std::size_t queue_capacity{4096};///< per-shard ring capacity (events)
  std::size_t max_batch{256};      ///< drain batch cap; <= queue_capacity

  /// Fail fast with an actionable message (PR 2 validate() convention).
  /// \throws std::invalid_argument on the first violated constraint.
  void validate() const;
};

/// Counters snapshot for tests and status lines (the authoritative values
/// also land in the obs registry when enabled).
struct BusStats {
  std::uint64_t published{0};
  std::uint64_t blocked_publishes{0};  ///< publishes that had to wait
  std::uint64_t drained{0};
};

class EventBus {
 public:
  /// \throws std::invalid_argument on invalid config.
  explicit EventBus(EventBusConfig config);

  [[nodiscard]] const EventBusConfig& config() const { return config_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Deterministic shard of a location: Fibonacci-mixed hash of its
  /// routing-cell coordinates modulo the shard count. Pure function of
  /// (point, config) — identical across runs and machines.
  [[nodiscard]] std::size_t shard_of(geo::Point p) const;

  /// Publish one event; assigns `e.seq` (bus-wide monotonic) and routes by
  /// `e.where`, waiting for ring space when its shard is full. Thin wrapper
  /// over publish_batch on a one-event span.
  void publish(Event e);

  /// Publish a batch: one seq-range reservation stamps the whole span in
  /// order, events are grouped by destination shard (relative order
  /// preserved), and each touched shard's ring is filled under a single
  /// lock acquisition instead of one per event. For a single publisher the
  /// delivered stream is indistinguishable from the equivalent sequence of
  /// per-event publishes; concurrent batches each own a contiguous seq
  /// range. A full ring waits for space per event, releasing the lock
  /// while waiting. Returns the number of events published, which is
  /// always events.size() (the protocol's publish ack carries it).
  std::size_t publish_batch(std::span<const Event> events);

  /// Drain up to min(max_batch, pending) events from one shard, appending
  /// to `out` in FIFO order. Returns the number drained. Thread-safe, but
  /// intended for one consumer per shard.
  /// \throws std::out_of_range on a bad shard index.
  std::size_t drain(std::size_t shard, std::vector<Event>& out);

  /// The seq the next publish will be stamped with.
  [[nodiscard]] std::uint64_t next_seq() const {
    return next_seq_.load(std::memory_order_relaxed);
  }

  /// Fast-forward the seq counter (to max(current, next)). Used by
  /// checkpoint restore so a fresh bus continues the stamp sequence of the
  /// checkpointed one — window entries carry seqs, so bit-identical resume
  /// needs the counter to resume too. Not thread-safe against concurrent
  /// publishes; call before the pipeline restarts.
  void resume_seq(std::uint64_t next);

  /// The activity counter: bumped by every finished publish, by every
  /// publish about to block on a full ring, and by poke().
  [[nodiscard]] std::uint32_t activity() const {
    return activity_.load(std::memory_order_acquire);
  }

  /// Bump the activity counter and wake wait_activity() callers: how a
  /// thread other than a publisher (a stop request, a checkpoint request)
  /// gets an idle consumer to look again.
  void poke();

  /// Block until activity() differs from `seen` (returns at once if it
  /// already does). Read `seen` before the drain round whose emptiness
  /// sends the consumer to sleep.
  void wait_activity(std::uint32_t seen) const;

  /// Events currently queued in one shard.
  [[nodiscard]] std::size_t pending(std::size_t shard) const;
  /// Events currently queued across all shards.
  [[nodiscard]] std::size_t pending_total() const;

  [[nodiscard]] BusStats stats() const;

 private:
  struct Shard {
    explicit Shard(std::size_t capacity) : ring(capacity) {}

    mutable es::Mutex mu;
    es::CondVar space;  ///< producers wait here on a full ring
    std::vector<Event> ring ES_GUARDED_BY(mu);
    std::size_t head ES_GUARDED_BY(mu){0};  ///< oldest undrained slot
    std::size_t count ES_GUARDED_BY(mu){0};
    std::uint64_t blocked ES_GUARDED_BY(mu){0};
    std::uint64_t drained ES_GUARDED_BY(mu){0};
  };

  /// Append `events[0..n)` (seqs already stamped) to shard `s`'s ring
  /// under one lock acquisition, waiting for space per event. Returns the
  /// number of events that had to wait.
  std::uint64_t fill(std::size_t s, const Event* events, std::size_t n);

  EventBusConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint32_t> activity_{0};
};

}  // namespace esharing::stream
