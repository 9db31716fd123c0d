#pragma once

/// \file event_bus.h
/// Sharded, bounded ingestion queues: the front door of `esharing::stream`.
///
/// Events are routed to a shard by the grid cell of their location (the
/// paper's 100x100 m demand grid is the natural partition key: everything
/// downstream — demand windows, arrival rates, the watchlist — is keyed by
/// cell, so one cell's state always lives in exactly one shard). Each shard
/// owns one bounded MPSC ring: any number of publishers, one consumer
/// draining in batches. A full ring applies the configured backpressure
/// policy:
///
///   * kBlock      — publish waits for the consumer (lossless, the default);
///   * kDropOldest — overwrite the oldest undrained event (freshness over
///                   completeness, for telemetry like battery levels);
///   * kReject     — publish fails fast and returns false (load shedding).
///
/// Every publish is stamped with a bus-wide monotonic sequence number.
/// Per-shard FIFO plus the seq stamp lets a consumer merge any number of
/// shards back into the exact publish order (Pipeline's merge stage, see
/// pipeline.h), which is the mechanism behind the multi-shard ==
/// single-shard determinism guarantee.
/// Drops/rejections/blocks are observable through `obs` counters
/// (`stream.event_bus.*`).

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

enum class BackpressurePolicy : std::uint8_t {
  kBlock = 0,
  kDropOldest = 1,
  kReject = 2
};

[[nodiscard]] const char* backpressure_policy_name(BackpressurePolicy p);

struct EventBusConfig {
  std::size_t shard_count{1};      ///< >= 1; shards own disjoint cell sets
  std::size_t queue_capacity{4096};///< per-shard ring capacity (events)
  std::size_t max_batch{256};      ///< drain batch cap; <= queue_capacity
  BackpressurePolicy policy{BackpressurePolicy::kBlock};
  double route_cell_m{100.0};      ///< routing cell edge (paper grid: 100 m)

  /// Fail fast with an actionable message (PR 2 validate() convention).
  /// \throws std::invalid_argument on the first violated constraint.
  void validate() const;
};

/// Counters snapshot for tests and status lines (the authoritative values
/// also land in the obs registry when enabled).
struct BusStats {
  std::uint64_t published{0};
  std::uint64_t dropped_oldest{0};
  std::uint64_t rejected{0};
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
  /// `e.where`. Returns false only under kReject on a full ring (the event
  /// is discarded and no seq is consumed from the caller's perspective of
  /// delivered events — rejected publishes still advance the stamp so
  /// accepted order stays consistent across shards). Thin wrapper over
  /// publish_batch on a one-event span.
  bool publish(Event e);

  /// Publish a batch: one seq-range reservation stamps the whole span in
  /// order, events are grouped by destination shard (relative order
  /// preserved), and each touched shard's ring is filled under a single
  /// lock acquisition instead of one per event. For a single publisher the
  /// delivered stream is indistinguishable from the equivalent sequence of
  /// per-event publishes; concurrent batches each own a contiguous seq
  /// range. Backpressure matches publish(): kBlock waits for ring space
  /// per event (releasing the lock while waiting), kDropOldest evicts, and
  /// kReject sheds the remainder of a full shard's sub-batch — under a
  /// held lock no drain can interleave, so per-event publishes would have
  /// rejected those events too. Returns the number of accepted events.
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

  /// Events currently queued in one shard.
  [[nodiscard]] std::size_t pending(std::size_t shard) const;
  /// Events currently queued across all shards.
  [[nodiscard]] std::size_t pending_total() const;

  [[nodiscard]] BusStats stats() const;

 private:
  struct Shard {
    explicit Shard(std::size_t capacity) : ring(capacity) {}

    mutable es::Mutex mu;
    es::CondVar space;  ///< producers wait here under kBlock
    std::vector<Event> ring ES_GUARDED_BY(mu);
    std::size_t head ES_GUARDED_BY(mu){0};  ///< oldest undrained slot
    std::size_t count ES_GUARDED_BY(mu){0};
    std::uint64_t dropped ES_GUARDED_BY(mu){0};
    std::uint64_t rejected ES_GUARDED_BY(mu){0};
    std::uint64_t blocked ES_GUARDED_BY(mu){0};
    std::uint64_t drained ES_GUARDED_BY(mu){0};
  };

  EventBusConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint64_t> published_{0};
};

}  // namespace esharing::stream
