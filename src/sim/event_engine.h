#pragma once

/// \file event_engine.h
/// A small discrete-event simulation core: a time-ordered event queue with
/// deterministic FIFO tie-breaking. The micro-simulation (microsim.h)
/// schedules trip starts, ride completions and operator shifts on it; it
/// is generic enough for any future agent type.

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "data/trip.h"

namespace esharing::sim {

/// Simulation timestamps reuse the dataset's Seconds epoch.
using data::Seconds;

class EventEngine {
 public:
  using Handler = std::function<void()>;

  /// Schedule `handler` at absolute time `when`.
  /// \throws std::invalid_argument if `when` is before the current time.
  void schedule(Seconds when, Handler handler);

  /// Schedule relative to the current time (delay >= 0).
  void schedule_in(Seconds delay, Handler handler);

  /// Run events in time order until the queue empties or `until` is
  /// passed (events scheduled at exactly `until` still run). Returns the
  /// number of events executed.
  std::size_t run(Seconds until = std::numeric_limits<Seconds>::max());

  /// Execute at most one event; returns false if the queue is empty.
  bool step();

  [[nodiscard]] Seconds now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::size_t executed() const { return executed_; }

 private:
  struct Entry {
    Seconds when;
    std::uint64_t sequence;  ///< FIFO tie-break for simultaneous events
    Handler handler;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  Seconds now_{0};
  std::uint64_t next_sequence_{0};
  std::size_t executed_{0};
};

}  // namespace esharing::sim
