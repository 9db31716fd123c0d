#include "stream/event_bus.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/registry.h"

namespace esharing::stream {

namespace {

struct BusObsMetrics {
  obs::Counter& published;
  obs::Counter& blocked;
  obs::Counter& drained_events;
  obs::Counter& drained_batches;

  static BusObsMetrics& get() {
    static BusObsMetrics m{
        obs::Registry::global().counter("stream.event_bus.published"),
        obs::Registry::global().counter("stream.event_bus.blocked_publishes"),
        obs::Registry::global().counter("stream.event_bus.drained_events"),
        obs::Registry::global().counter("stream.event_bus.drained_batches"),
    };
    return m;
  }
};

}  // namespace

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kTripStart: return "trip_start";
    case EventKind::kTripEnd: return "trip_end";
    case EventKind::kBatteryLevel: return "battery_level";
  }
  return "unknown";
}

void EventBusConfig::validate() const {
  const auto fail = [](const std::string& field, double got,
                       const std::string& why) {
    throw std::invalid_argument("EventBusConfig: " + field + " = " +
                                std::to_string(got) + " is invalid: " + why);
  };
  if (shard_count < 1) {
    fail("shard_count", static_cast<double>(shard_count),
         "the bus needs at least one shard to route events to");
  }
  if (queue_capacity < 1) {
    fail("queue_capacity", static_cast<double>(queue_capacity),
         "a shard ring must hold at least one event");
  }
  if (max_batch < 1) {
    fail("max_batch", static_cast<double>(max_batch),
         "a drain batch must make progress on at least one event");
  }
  if (max_batch > queue_capacity) {
    fail("max_batch", static_cast<double>(max_batch),
         "a drain batch cannot exceed queue_capacity = " +
             std::to_string(queue_capacity) +
             " (the ring never holds that many events)");
  }
}

EventBus::EventBus(EventBusConfig config) : config_(config) {
  config_.validate();
  shards_.reserve(config_.shard_count);
  for (std::size_t s = 0; s < config_.shard_count; ++s) {
    shards_.push_back(std::make_unique<Shard>(config_.queue_capacity));
  }
}

std::size_t EventBus::shard_of(geo::Point p) const {
  // Same Fibonacci cell-coordinate mixing the spatial index uses; the
  // floor() keeps negative coordinates consistent across platforms.
  const auto cx =
      static_cast<std::int64_t>(std::floor(p.x / kCellM));
  const auto cy =
      static_cast<std::int64_t>(std::floor(p.y / kCellM));
  std::uint64_t h = static_cast<std::uint64_t>(cx) * 0x9E3779B97F4A7C15ULL;
  h ^= static_cast<std::uint64_t>(cy) + 0x9E3779B97F4A7C15ULL + (h << 6) +
       (h >> 2);
  return static_cast<std::size_t>(h % shards_.size());
}

void EventBus::publish(Event e) {
  (void)publish_batch(std::span<const Event>(&e, 1));
}

std::size_t EventBus::publish_batch(std::span<const Event> events) {
  const std::size_t n = events.size();
  if (n == 0) return 0;
  const std::uint64_t base =
      next_seq_.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
  const std::size_t num_shards = shards_.size();
  std::uint64_t blocked_n = 0;
  if (n == 1) {
    // The daemon publishes one event per call: no staging needed.
    Event e = events.front();
    e.seq = base;
    blocked_n = fill(num_shards == 1 ? 0 : shard_of(e.where), &e, 1);
  } else {
    // Counting scatter: stamp seqs in span order and lay each shard's
    // sub-batch out contiguously (relative order preserved) so the lock
    // is taken once per touched shard, not once per event.
    std::vector<std::size_t> dest(n);
    std::vector<std::size_t> offset(num_shards + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      dest[i] = num_shards == 1 ? 0 : shard_of(events[i].where);
      ++offset[dest[i] + 1];
    }
    for (std::size_t s = 0; s < num_shards; ++s) offset[s + 1] += offset[s];
    std::vector<Event> staged(n);
    std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      Event e = events[i];
      e.seq = base + static_cast<std::uint64_t>(i);
      staged[cursor[dest[i]]++] = e;
    }
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (offset[s] == offset[s + 1]) continue;
      blocked_n += fill(s, staged.data() + offset[s], offset[s + 1] - offset[s]);
    }
  }

  published_.fetch_add(static_cast<std::uint64_t>(n),
                       std::memory_order_relaxed);
  poke();
  if (obs::enabled()) {
    auto& m = BusObsMetrics::get();
    m.published.add(static_cast<std::uint64_t>(n));
    if (blocked_n > 0) m.blocked.add(blocked_n);
  }
  return n;
}

std::uint64_t EventBus::fill(std::size_t s, const Event* events,
                             std::size_t n) {
  Shard& shard = *shards_[s];
  std::uint64_t blocked_n = 0;
  es::UniqueLock lock(shard.mu);
  for (std::size_t i = 0; i < n; ++i) {
    if (shard.count == config_.queue_capacity) {
      ++shard.blocked;
      ++blocked_n;
      // The consumer may be asleep after an empty round that ran before
      // this ring filled, and only its drain frees space: wake it first.
      poke();
      // Explicit recheck loop (not the predicate overload): the guarded
      // reads stay in this annotated scope where the analysis can see
      // the capability is held across the wait.
      while (shard.count == config_.queue_capacity) {
        shard.space.wait(lock);
      }
    }
    shard.ring[(shard.head + shard.count) % config_.queue_capacity] =
        events[i];
    ++shard.count;
  }
  return blocked_n;
}

void EventBus::poke() {
  activity_.fetch_add(1, std::memory_order_release);
  activity_.notify_all();
}

void EventBus::wait_activity(std::uint32_t seen) const {
  activity_.wait(seen, std::memory_order_acquire);
}

void EventBus::resume_seq(std::uint64_t next) {
  std::uint64_t current = next_seq_.load(std::memory_order_relaxed);
  while (current < next &&
         !next_seq_.compare_exchange_weak(current, next,
                                          std::memory_order_relaxed)) {
  }
}

std::size_t EventBus::drain(std::size_t shard_index, std::vector<Event>& out) {
  if (shard_index >= shards_.size()) {
    throw std::out_of_range("EventBus::drain: shard " +
                            std::to_string(shard_index) + " of " +
                            std::to_string(shards_.size()));
  }
  Shard& shard = *shards_[shard_index];
  std::size_t n = 0;
  {
    const es::LockGuard lock(shard.mu);
    n = std::min(shard.count, config_.max_batch);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(shard.ring[(shard.head + i) % config_.queue_capacity]);
    }
    shard.head = (shard.head + n) % config_.queue_capacity;
    shard.count -= n;
    shard.drained += n;
  }
  if (n > 0) {
    shard.space.notify_all();
    if (obs::enabled()) {
      BusObsMetrics::get().drained_events.add(n);
      BusObsMetrics::get().drained_batches.add();
    }
  }
  return n;
}

std::size_t EventBus::pending(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::out_of_range("EventBus::pending: shard " +
                            std::to_string(shard) + " of " +
                            std::to_string(shards_.size()));
  }
  const es::LockGuard lock(shards_[shard]->mu);
  return shards_[shard]->count;
}

std::size_t EventBus::pending_total() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) total += pending(s);
  return total;
}

BusStats EventBus::stats() const {
  BusStats st;
  st.published = published_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    const es::LockGuard lock(shard->mu);
    st.blocked_publishes += shard->blocked;
    st.drained += shard->drained;
  }
  return st;
}

}  // namespace esharing::stream
