#pragma once

/// \file trace.h
/// In-memory span recorder for the traced run. The benchmark wraps each
/// call into a layer's public function in a Span; spans carry name, start,
/// end, parent and a request id, stay in memory, and are written out as
/// JSONL when the run ends. A layer's self time is its span's duration
/// minus the time its child spans cover.
///
/// A null Tracer* disables recording, so the same instrumented loop runs
/// untraced for the overhead comparison. Single-threaded by design: the
/// traced loops call the layers from one thread.

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  struct Span {
    const char* name{""};
    std::int64_t start_ns{0};
    std::int64_t end_ns{0};
    std::uint32_t parent{kNoParent};
    std::uint64_t request{0};
  };

  /// Open a span nested under the innermost open one; returns its id.
  std::uint32_t open(const char* name, std::uint64_t request);
  void close(std::uint32_t id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time in nanoseconds of every span called `name` (its duration
  /// minus the durations of its direct children).
  [[nodiscard]] std::vector<double> self_ns(const std::string& name) const;
  /// Total duration in nanoseconds of every span called `name`.
  [[nodiscard]] std::vector<double> total_ns(const std::string& name) const;

  /// Write the spans as JSONL ({"name","start_ns","end_ns","parent",
  /// "request","self_ns"}) to `path`, replacing it. Returns false when it
  /// cannot write.
  bool write_jsonl(const std::string& path) const;

 private:
  /// Per span, the total duration of its direct children.
  [[nodiscard]] std::vector<double> child_ns() const;

  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span; a no-op when `tracer` is null.
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->open(name, request) : 0) {}
  ~SpanGuard() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench
