#include "trace.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

std::int64_t now_ns() { return to_ns(Clock::now()); }

}  // namespace

std::uint32_t Tracer::open(const char* name, std::uint64_t request) {
  const auto id = static_cast<std::uint32_t>(spans_.size());
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? kNoParent : stack_.back();
  s.request = request;
  spans_.push_back(s);
  stack_.push_back(id);
  spans_.back().start_ns = now_ns();
  return id;
}

void Tracer::close(std::uint32_t id) {
  spans_[id].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<double> Tracer::total_ns(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

std::vector<double> Tracer::child_ns() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent != kNoParent) {
      child[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return child;
}

std::vector<double> Tracer::self_ns(const std::string& name) const {
  const std::vector<double> child = child_ns();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      out.push_back(
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) -
          child[i]);
    }
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::vector<double> child = child_ns();
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const long long parent =
        s.parent == kNoParent ? -1 : static_cast<long long>(s.parent);
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                  "\"parent\":%lld,\"request\":%llu,\"self_ns\":%.0f}\n",
                  s.name, static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns), parent,
                  static_cast<unsigned long long>(s.request),
                  static_cast<double>(s.end_ns - s.start_ns) - child[i]);
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
