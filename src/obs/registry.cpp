#include "obs/registry.h"

#include <stdexcept>
#include <utility>

namespace esharing::obs {

Registry& Registry::global() {
  // Never destroyed. Exec pool workers are joined during static
  // destruction, and each flushes its thread_local CounterShards into
  // these counters as it exits; a registry constructed after the pool
  // would already be gone by then.
  static Registry* const instance = new Registry;
  return *instance;
}

void Registry::check_kind(std::string_view name, Kind kind) {
  if (name.empty()) {
    throw std::invalid_argument("Registry: empty metric name");
  }
  const auto it = kinds_.find(name);
  if (it == kinds_.end()) {
    kinds_.emplace(std::string(name), kind);
  } else if (it->second != kind) {
    throw std::invalid_argument("Registry: metric '" + std::string(name) +
                                "' already registered as a different kind");
  }
}

Counter& Registry::counter(std::string_view name) {
  const es::LockGuard lock(mu_);
  check_kind(name, Kind::kCounter);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const es::LockGuard lock(mu_);
  check_kind(name, Kind::kGauge);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> upper_bounds) {
  const es::LockGuard lock(mu_);
  check_kind(name, Kind::kHistogram);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (upper_bounds.empty()) upper_bounds = default_time_buckets();
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(upper_bounds)))
             .first;
  }
  return *it->second;
}

void Registry::emit(std::string_view event,
                    std::initializer_list<EventField> fields) {
  if (!enabled()) return;
  std::shared_ptr<EventSink> sink;
  {
    const es::LockGuard lock(mu_);
    sink = sink_;
  }
  if (!sink) return;
  std::string line = "{\"seq\":";
  line += std::to_string(event_seq_.fetch_add(1, std::memory_order_relaxed));
  line += ",\"event\":\"";
  line += json_escape(std::string(event));
  line += '"';
  for (const EventField& f : fields) {
    line += ",\"";
    line += json_escape(std::string(f.key));
    line += "\":";
    if (f.is_num) {
      line += json_number(f.num);
    } else {
      line += '"';
      line += json_escape(std::string(f.str));
      line += '"';
    }
  }
  line += '}';
  sink->write(line);
}

void Registry::set_event_sink(std::shared_ptr<EventSink> sink) {
  const es::LockGuard lock(mu_);
  sink_ = std::move(sink);
}

std::shared_ptr<EventSink> Registry::event_sink() const {
  const es::LockGuard lock(mu_);
  return sink_;
}

Snapshot Registry::snapshot() const {
  const es::LockGuard lock(mu_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back(
        {name, h->upper_bounds(), h->bucket_counts(), h->count(), h->sum()});
  }
  return snap;
}

void Registry::reset() {
  const es::LockGuard lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  event_seq_.store(0, std::memory_order_relaxed);
}

}  // namespace esharing::obs
