#include "stream/pipeline.h"

#include <algorithm>
#include <limits>

#include "exec/thread_pool.h"
#include "obs/registry.h"

namespace esharing::stream {

namespace {

struct PipelineObsMetrics {
  obs::Counter& pump_rounds;
  obs::Counter& lane_batches;
  obs::Counter& lane_events;
  obs::Counter& merged_events;
  obs::Counter& merge_stalls;
  obs::Gauge& lane_occupancy;

  static PipelineObsMetrics& get() {
    static PipelineObsMetrics m{
        obs::Registry::global().counter("stream.pipeline.pump_rounds"),
        obs::Registry::global().counter("stream.pipeline.lane_batches"),
        obs::Registry::global().counter("stream.pipeline.lane_events"),
        obs::Registry::global().counter("stream.pipeline.merged_events"),
        obs::Registry::global().counter("stream.pipeline.merge_stalls"),
        obs::Registry::global().gauge("stream.pipeline.lane_occupancy"),
    };
    return m;
  }
};

PipelineConfig validated(PipelineConfig config) {
  config.validate();
  return config;
}

}  // namespace

void PipelineConfig::validate() const {
  bus.validate();
  placer.validate();
  // lanes: every value is legal (0 = pool width, 1 = inline) and all are
  // bit-identical.
}

Pipeline::Pipeline(core::ESharing& system,
                   std::vector<geo::Point> historical_sample,
                   PipelineConfig config)
    : config_(validated(std::move(config))),
      bus_(config_.bus),
      system_(&system),
      placer_(system, bus_, std::move(historical_sample), config_.placer),
      incentive_(config_.incentive),
      lane_buffers_(bus_.shard_count()) {}

std::size_t Pipeline::drain_round() {
  merged_.clear();
  const std::size_t num_shards = bus_.shard_count();

  // Lane stage: drain every shard completely; one shard per chunk, so up
  // to `lanes` shards drain concurrently and no two lanes ever touch the
  // same buffer. Bit-identical at every width — each buffer's content is
  // a pure function of its shard's ring.
  const auto drain_shards = [&](std::size_t first, std::size_t last,
                                std::size_t) {
    for (std::size_t s = first; s < last; ++s) {
      auto& buf = lane_buffers_[s];
      buf.clear();
      while (bus_.drain(s, buf) > 0) {
      }
      // Concurrent publishers reserve seq ranges before locking the
      // shard, so a ring can interleave ranges; restore per-shard seq
      // order for the merge. Single-publisher rounds are already
      // sorted and pay one linear is_sorted scan.
      if (!std::is_sorted(buf.begin(), buf.end(), BySeq{})) {
        std::sort(buf.begin(), buf.end(), BySeq{});
      }
    }
  };
  // A round with at most one busy shard has nothing to run in parallel:
  // drain inline rather than wake the pool. The buffers come out the same
  // either way (a shard that fills after the count is simply drained
  // inline too).
  std::size_t busy_before = 0;
  for (std::size_t s = 0; s < num_shards && busy_before < 2; ++s) {
    if (bus_.pending(s) > 0) ++busy_before;
  }
  if (busy_before < 2) {
    drain_shards(0, num_shards, 0);
  } else {
    exec::parallel_for(num_shards, /*grain=*/1, drain_shards, config_.lanes);
  }

  std::size_t total = 0;
  std::size_t busy = 0;
  std::uint64_t batches = 0;
  const std::size_t max_batch = config_.bus.max_batch;
  for (const auto& buf : lane_buffers_) {
    total += buf.size();
    if (!buf.empty()) {
      ++busy;
      batches += (buf.size() + max_batch - 1) / max_batch;
    }
  }

  // Merge stage: k-way min-seq scan over the shard cursors (shard counts
  // are small; the scan beats a heap and keeps ties impossible — seqs are
  // unique by construction).
  merged_.reserve(total);
  std::vector<std::size_t>& cursor = merge_cursor_;
  cursor.assign(num_shards, 0);
  std::uint64_t stalls = 0;
  for (std::size_t k = 0; k < total; ++k) {
    std::size_t best = num_shards;
    std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (cursor[s] < lane_buffers_[s].size() &&
          lane_buffers_[s][cursor[s]].seq < best_seq) {
        best = s;
        best_seq = lane_buffers_[s][cursor[s]].seq;
      }
    }
    merged_.push_back(lane_buffers_[best][cursor[best]++]);
    // A gap means the merge could not hand over the next publish-order
    // event (still in flight from a concurrent publisher). The merge
    // never waits — it counts and moves on.
    if (best_seq != next_expected_seq_) ++stalls;
    next_expected_seq_ = best_seq + 1;
  }

  ++pump_rounds_;
  lane_batches_ += batches;
  lane_events_ += total;
  merged_events_ += total;
  merge_stalls_ += stalls;
  // Occupancy of the last *non-empty* round — every pump terminates on an
  // empty round, which would otherwise pin the gauge at zero.
  if (total > 0) {
    lane_occupancy_ =
        static_cast<double>(busy) / static_cast<double>(num_shards);
  }
  if (obs::enabled()) {
    auto& m = PipelineObsMetrics::get();
    m.pump_rounds.add();
    if (batches > 0) m.lane_batches.add(batches);
    if (total > 0) {
      m.lane_events.add(total);
      m.merged_events.add(total);
      m.lane_occupancy.set(lane_occupancy_);
    }
    if (stalls > 0) m.merge_stalls.add(stalls);
  }
  return total;
}

std::size_t Pipeline::pump(std::vector<solver::OnlineDecision>* decisions_out) {
  std::size_t consumed = 0;
  while (drain_round() > 0) {
    placer_.consume_batch(merged_, config_.lanes, decisions_out);
    consumed += merged_.size();
  }
  return consumed;
}

std::size_t Pipeline::pump_decisions(const DecisionCallback& on_decision) {
  const std::size_t n = drain_round();
  if (n == 0) return 0;
  decisions_.clear();
  placer_.consume_batch(merged_, config_.lanes, &decisions_);
  std::size_t next = 0;
  for (const Event& e : merged_) {
    if (e.kind != EventKind::kTripEnd) continue;
    on_decision(e, decisions_[next++]);
  }
  return n;
}

std::size_t Pipeline::pump_into(const Consumer& consumer) {
  std::size_t consumed = 0;
  while (drain_round() > 0) {
    for (const Event& e : merged_) consumer(e);
    consumed += merged_.size();
  }
  return consumed;
}

ReplayResult Pipeline::replay(const std::vector<Event>& events) {
  const std::size_t capacity = config_.bus.queue_capacity;
  ReplayResult result;
  std::size_t i = 0;
  while (i < events.size()) {
    const std::size_t n = std::min(capacity, events.size() - i);
    result.published +=
        publish_batch(std::span<const Event>(events).subspan(i, n));
    result.consumed += pump(&result.decisions);
    i += n;
  }
  result.consumed += pump(&result.decisions);
  return result;
}

PipelineStats Pipeline::stats() const {
  PipelineStats st;
  st.bus = bus_.stats();
  st.pump_rounds = pump_rounds_;
  st.lane_batches = lane_batches_;
  st.lane_events = lane_events_;
  st.merged_events = merged_events_;
  st.merge_stalls = merge_stalls_;
  st.lane_occupancy = lane_occupancy_;
  return st;
}

void Pipeline::save_checkpoint(std::ostream& os) const {
  stream::save_checkpoint(os, bus_, placer_, incentive_);
}

CheckpointInfo Pipeline::restore_checkpoint(std::istream& is) {
  const CheckpointInfo info =
      stream::restore_checkpoint(is, bus_, *system_, placer_, incentive_);
  // The bus seq counter fast-forwarded past the consumed prefix; resync
  // the stall detector so the first post-restore batch is not a gap.
  next_expected_seq_ = bus_.next_seq();
  return info;
}

void Pipeline::save_checkpoint_file(const std::string& path) const {
  stream::save_checkpoint_file(path, bus_, placer_, incentive_);
}

CheckpointInfo Pipeline::restore_checkpoint_file(const std::string& path) {
  const CheckpointInfo info = stream::restore_checkpoint_file(
      path, bus_, *system_, placer_, incentive_);
  next_expected_seq_ = bus_.next_seq();
  return info;
}

}  // namespace esharing::stream
