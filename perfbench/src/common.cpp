#include "common.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

void report(const std::string& name, double value, const std::string& unit) {
  std::printf("%-40s %14.6g %s\n", name.c_str(), value, unit.c_str());
}

std::string scratch_path(const Options& opt, const std::string& name) {
  return (std::filesystem::path(opt.scratch_dir) / name).string();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

}  // namespace perfbench
