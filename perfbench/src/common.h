#pragma once

/// \file common.h
/// Shared types of the benchmark binary: run options, the result a workload
/// fills in, and small timing helpers. Every workload writes its
/// human-readable lines to stdout as it goes; main() prints the one-line
/// JSON result last.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Writable directory inside the checkout for checkpoints, flight logs
  /// and trace files; emptied by the workload that uses it.
  std::string scratch_dir;
  /// Exec pool width every workload runs with (at most nproc).
  std::size_t pool_width{1};
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

struct Result {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  /// The metrics of the final JSON line (end-to-end or per-layer).
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record an output check; a failed check makes the run incorrect and is
  /// reported on stderr.
  void check(bool ok, const std::string& what);
};

/// Print one named metric line ("name value unit") to stdout. Workloads use
/// it for every end-to-end metric the issue-level names describe, whether or
/// not the metric is also part of the JSON result.
void report(const std::string& name, double value, const std::string& unit);

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}
[[nodiscard]] inline std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// `name` inside the run's scratch directory.
[[nodiscard]] std::string scratch_path(const Options& opt,
                                       const std::string& name);

/// Median of a sample (copies; empty input gives 0).
[[nodiscard]] double median(std::vector<double> v);

}  // namespace perfbench
