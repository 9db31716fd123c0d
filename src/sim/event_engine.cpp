#include "sim/event_engine.h"

#include <stdexcept>
#include <utility>

#include "obs/registry.h"

namespace esharing::sim {

namespace {

struct EngineMetrics {
  obs::Counter& events_executed;
  obs::Counter& runs;

  static EngineMetrics& get() {
    static EngineMetrics m{
        obs::Registry::global().counter("sim.event_engine.events_executed"),
        obs::Registry::global().counter("sim.event_engine.runs"),
    };
    return m;
  }
};

}  // namespace

void EventEngine::schedule(Seconds when, Handler handler) {
  if (when < now_) {
    throw std::invalid_argument("EventEngine::schedule: event in the past");
  }
  if (!handler) {
    throw std::invalid_argument("EventEngine::schedule: null handler");
  }
  queue_.push({when, next_sequence_++, std::move(handler)});
}

void EventEngine::schedule_in(Seconds delay, Handler handler) {
  if (delay < 0) {
    throw std::invalid_argument("EventEngine::schedule_in: negative delay");
  }
  schedule(now_ + delay, std::move(handler));
}

bool EventEngine::step() {
  if (queue_.empty()) return false;
  // Copy out before popping: the handler may schedule more events.
  Entry entry = queue_.top();
  queue_.pop();
  now_ = entry.when;
  ++executed_;
  entry.handler();
  return true;
}

std::size_t EventEngine::run(Seconds until) {
  std::size_t count = 0;
  while (!queue_.empty() && queue_.top().when <= until) {
    if (!step()) break;
    ++count;
  }
  if (now_ < until && until != std::numeric_limits<Seconds>::max()) {
    now_ = until;  // time advances to the horizon even without events
  }
  if (obs::enabled()) {
    EngineMetrics::get().runs.add();
    EngineMetrics::get().events_executed.add(count);
  }
  return count;
}

}  // namespace esharing::sim
