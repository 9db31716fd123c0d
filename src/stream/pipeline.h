#pragma once

/// \file pipeline.h
/// The unified front door of `esharing::stream`: one validated config, one
/// facade object, instead of hand-wiring EventBus + OnlinePlacerDriver +
/// IncentiveDriver + checkpoint plumbing at every call site.
///
/// A Pipeline owns the sharded bus and the two tier drivers. Its pump
/// cycle is the only way events leave the bus:
///
///   1. Lane stage — every shard is drained on the exec pool, up to
///      `lanes` shards concurrently (`lanes = 0` uses the pool width).
///      Lanes are exec-pool chunks, not dedicated threads: the pool's
///      chunk shapes depend only on (shard_count, grain), never on timing.
///      A round with at most one non-empty shard drains inline instead.
///   2. Merge stage — per-shard FIFO batches are merged by the bus-wide
///      seq stamp back into exact publish order. Seq gaps (events still in
///      flight from concurrent publishers) are counted as merge stalls,
///      never waited on.
///   3. Consume stage — the merged batch goes to
///      OnlinePlacerDriver::consume_batch, which fans the shard-local
///      window/regime work back out across the same lanes (inline when the
///      batch touches one shard) and then runs tier-one decisions
///      sequentially in seq order.
///
/// Determinism: stages 1–3 are bit-identical to a single-shard,
/// single-threaded replay at every (shard count, lane count, thread count)
/// combination — the merge restores publish order, and the only parallel
/// work is shard-local (see drivers.h) or chunk-deterministic (see
/// exec/thread_pool.h). Replaying any log through a one-shard pipeline is
/// the reference execution that multi-shard runs are regression-tested
/// against. DESIGN.md "Parallel ingestion" carries the full argument.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "solver/meyerson.h"
#include "stream/checkpoint.h"
#include "stream/drivers.h"
#include "stream/event_bus.h"

namespace esharing::stream {

/// Everything a streaming deployment needs, validated as one object
/// (the ESharingConfig::validate() convention).
struct PipelineConfig {
  EventBusConfig bus;
  PlacerDriverConfig placer;
  // analyze-ok: knob-reach a second copy of ESharingConfig::incentive until ROADMAP item 4 merges them
  core::IncentiveConfig incentive;
  /// Lane width of the parallel shard stages: 0 = exec pool width,
  /// 1 = sequential (the single-threaded reference execution), n = up to
  /// n concurrent lanes. Any value is bit-identical to any other.
  std::size_t lanes{0};

  /// Validate every nested config plus the facade knobs.
  /// \throws std::invalid_argument on the first violated constraint.
  void validate() const;
};

/// Outcome of a replay: the tier-one decision trace, one entry per
/// trip-end event, in seq order.
struct ReplayResult {
  std::size_t published{0};
  std::size_t consumed{0};
  std::vector<solver::OnlineDecision> decisions;
};

/// Counters snapshot of the pump cycle (authoritative copies land in the
/// obs registry under `stream.pipeline.*` when enabled).
struct PipelineStats {
  BusStats bus;
  std::uint64_t pump_rounds{0};    ///< drain/merge rounds executed
  std::uint64_t lane_batches{0};   ///< non-empty per-shard drain batches
  std::uint64_t lane_events{0};    ///< events drained by the lane stage
  std::uint64_t merged_events{0};  ///< events delivered in seq order
  std::uint64_t merge_stalls{0};   ///< seq gaps seen by the merge stage
  double lane_occupancy{0.0};  ///< busy shards / shards, last non-empty round
};

class Pipeline {
 public:
  /// The facade owns both tier drivers against `system`.
  /// \param historical_sample KS reference H(x, y), partitioned per shard
  ///        by the bus router (see OnlinePlacerDriver).
  /// \throws std::invalid_argument on invalid config,
  ///         std::logic_error if the system is not online.
  Pipeline(core::ESharing& system, std::vector<geo::Point> historical_sample,
           PipelineConfig config);

  [[nodiscard]] const PipelineConfig& config() const { return config_; }
  [[nodiscard]] EventBus& bus() { return bus_; }
  [[nodiscard]] const EventBus& bus() const { return bus_; }

  [[nodiscard]] OnlinePlacerDriver& placer_driver() { return placer_; }
  [[nodiscard]] const OnlinePlacerDriver& placer_driver() const {
    return placer_;
  }
  [[nodiscard]] IncentiveDriver& incentive_driver() { return incentive_; }
  [[nodiscard]] const IncentiveDriver& incentive_driver() const {
    return incentive_;
  }

  /// Publish into the bus (see EventBus::publish/publish_batch).
  void publish(Event e) { bus_.publish(e); }
  std::size_t publish_batch(std::span<const Event> events) {
    return bus_.publish_batch(events);
  }

  using Consumer = std::function<void(const Event&)>;

  /// Repeat the lane/merge/consume cycle until a round drains nothing.
  /// Trip-end decisions are appended to `decisions_out` when non-null.
  /// Returns the number of events consumed.
  std::size_t pump(std::vector<solver::OnlineDecision>* decisions_out = nullptr);

  /// Same lane/merge cycle, but each merged event goes to `consumer`
  /// (called sequentially, in seq order) instead of the drivers — for
  /// callers that time or feed the consume stage themselves.
  std::size_t pump_into(const Consumer& consumer);

  using DecisionCallback =
      std::function<void(const Event&, const solver::OnlineDecision&)>;

  /// One lane/merge/consume round that hands back (event, decision)
  /// pairs: the same drain/merge/consume_batch calls as one round of
  /// pump(), but the trip-end events of the merged batch are zipped with
  /// the decisions they produced (consume_batch appends exactly one
  /// decision per trip-end, in seq order) and `on_decision` is invoked for
  /// each pair sequentially. This is the serving daemon's decide path: the
  /// event carries the caller's `ref` token, so responses can be routed
  /// back to the requesting connection, and one call is one round, so the
  /// caller can act between rounds (flush replies, checkpoint, sleep).
  /// Returns the events consumed by the round (0 = the bus was empty).
  std::size_t pump_decisions(const DecisionCallback& on_decision);

  /// Publish `events` in order, in batches of at most the bus queue
  /// capacity, and pump after each batch — so the bus is always
  /// drained before any shard can fill, even if a whole batch routes to
  /// one shard. The decision trace depends only on the log, never on the
  /// shard count, the queue capacity or the lane count.
  ReplayResult replay(const std::vector<Event>& events);

  [[nodiscard]] PipelineStats stats() const;

  /// Checkpoint passthrough (see checkpoint.h for the format and the
  /// queues-drained contract).
  void save_checkpoint(std::ostream& os) const;
  CheckpointInfo restore_checkpoint(std::istream& is);
  void save_checkpoint_file(const std::string& path) const;
  CheckpointInfo restore_checkpoint_file(const std::string& path);

 private:
  /// One lane+merge round: drain every shard (parallel lanes), merge by
  /// seq into merged_. Returns the number of events merged.
  std::size_t drain_round();

  PipelineConfig config_;
  EventBus bus_;
  core::ESharing* system_;
  OnlinePlacerDriver placer_;
  IncentiveDriver incentive_;

  /// Pump-cycle scratch, kept across rounds so a steady-state round
  /// allocates nothing; the pump is single-consumer by contract, so these
  /// are not locked (lanes write disjoint per-shard buffers).
  std::vector<std::vector<Event>> lane_buffers_;
  std::vector<Event> merged_;
  std::vector<std::size_t> merge_cursor_;
  std::vector<solver::OnlineDecision> decisions_;
  std::uint64_t next_expected_seq_{0};

  std::uint64_t pump_rounds_{0};
  std::uint64_t lane_batches_{0};
  std::uint64_t lane_events_{0};
  std::uint64_t merged_events_{0};
  std::uint64_t merge_stalls_{0};
  double lane_occupancy_{0.0};
};

}  // namespace esharing::stream
