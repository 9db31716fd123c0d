#pragma once

/// \file registry.h
/// The metric registry: a process-wide (or test-local) table of named
/// counters, gauges and histograms plus an optional JSONL event sink.
///
/// Usage contract for instrumented code: resolve metric handles ONCE (a
/// function-local static struct of references is the idiom used across
/// this repo), gate every update on obs::enabled(), and never let a metric
/// influence control flow. Registration takes a mutex; updates through the
/// returned references are lock-free.
///
/// Metric naming convention (DESIGN.md "Observability"): dotted
/// `<module>.<component>.<metric>` in snake_case, e.g.
/// `geo.spatial_index.nearest_queries`. Timers end in `_seconds`, monetary
/// gauges in `_paid`/`_cost`. Names are part of the public surface — the
/// golden-snapshot test freezes them.

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/sync.h"
#include "core/thread_annotations.h"
#include "obs/event_sink.h"
#include "obs/metrics.h"

namespace esharing::obs {

/// One field of a structured event: `{"key": value}` with a numeric or
/// string value.
struct EventField {
  EventField(std::string_view k, double v) : key(k), num(v), is_num(true) {}
  EventField(std::string_view k, int v)
      : key(k), num(static_cast<double>(v)), is_num(true) {}
  EventField(std::string_view k, std::size_t v)
      : key(k), num(static_cast<double>(v)), is_num(true) {}
  EventField(std::string_view k, std::string_view v) : key(k), str(v) {}
  EventField(std::string_view k, const char* v) : key(k), str(v) {}

  std::string_view key;
  double num{0.0};
  std::string_view str;
  bool is_num{false};
};

/// Point-in-time copy of every registered metric, sorted by name. The JSON
/// and CSV shapes derived from it (export.h) are the machine-readable
/// artifact benches drop next to their output.
struct Snapshot {
  struct CounterSample {
    std::string name;
    std::uint64_t value{0};
  };
  struct GaugeSample {
    std::string name;
    double value{0.0};
  };
  struct HistogramSample {
    std::string name;
    std::vector<double> upper_bounds;
    std::vector<std::uint64_t> buckets;  ///< last entry = overflow bucket
    std::uint64_t count{0};
    double sum{0.0};
  };

  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every instrumentation site records into.
  /// It lives until the process ends, so a metric reference stays valid in
  /// thread_local and static destructors too; a sink set on it is never
  /// destroyed, so clear it (`set_event_sink(nullptr)`) to close a file.
  static Registry& global();

  /// Find-or-create by name. References stay valid for the registry's
  /// lifetime (metrics are never deleted, only reset).
  /// \throws std::invalid_argument if `name` is empty or already registered
  ///         as a different metric kind.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `upper_bounds` applies on first registration only (later calls return
  /// the existing histogram); empty selects default_time_buckets().
  Histogram& histogram(std::string_view name,
                       std::vector<double> upper_bounds = {});

  /// Emit one structured JSONL event (no-op unless enabled() and a sink is
  /// installed). Lines look like
  ///   {"seq":3,"event":"placer.penalty_switch","similarity":72.5,"to":"type_iii"}
  void emit(std::string_view event,
            std::initializer_list<EventField> fields = {});

  void set_event_sink(std::shared_ptr<EventSink> sink);
  [[nodiscard]] std::shared_ptr<EventSink> event_sink() const;

  [[nodiscard]] Snapshot snapshot() const;
  /// Zero every metric and the event sequence; registrations are kept.
  void reset();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  void check_kind(std::string_view name, Kind kind) ES_REQUIRES(mu_);

  mutable es::Mutex mu_;
  std::map<std::string, Kind, std::less<>> kinds_ ES_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      ES_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      ES_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      ES_GUARDED_BY(mu_);
  std::shared_ptr<EventSink> sink_ ES_GUARDED_BY(mu_);
  /// Atomic rather than guarded: emit() stamps it outside the lock.
  std::atomic<std::uint64_t> event_seq_{0};
};

}  // namespace esharing::obs
