/// perfbench: the repository benchmark binary.
///
///   perfbench --workload <decide_openloop|metro_replay|hourly_replan>
///             --seed N --seconds S --trace 0|1 --scratch DIR
///
/// With --trace 0 the named workload runs with tracing and `obs` off and
/// the JSON result carries its end-to-end metrics; with --trace 1 the
/// traced sections of all three workloads run (the named one for the full
/// measuring time, the other two for a short stretch) so every per-layer
/// metric is reported. Human-readable lines go to stdout first; the last
/// line is the JSON result. Exit code 0 only when every output check held.

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>

#include "common.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Result;

constexpr double kOtherSectionS = 3.0;

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::string(v) == "1";
    } else if (flag == "--scratch") {
      opt.scratch_dir = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "perfbench: flag without a value\n");
    return false;
  }
  const bool known = opt.workload == "decide_openloop" ||
                     opt.workload == "metro_replay" ||
                     opt.workload == "hourly_replan";
  if (!known || !(opt.seconds > 0.0) || opt.scratch_dir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <decide_openloop|metro_replay|"
                 "hourly_replan> --seed N --seconds S --trace 0|1 "
                 "--scratch DIR\n");
    return false;
  }
  return true;
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Aggregate CPU jiffies from /proc/stat: {steal, total}. Zeros when the
/// file is unreadable (not Linux).
std::pair<double, double> cpu_steal_jiffies() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  double v[8] = {};
  const int got = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                              &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (got != 8) return {0.0, 0.0};
  double total = 0.0;
  for (const double x : v) total += x;
  return {v[7], total};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_json(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return 2;
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::filesystem::create_directories(opt.scratch_dir);
  opt.pool_width = nproc();
  esharing::exec::set_global_threads(opt.pool_width);
  esharing::obs::set_enabled(false);

  std::printf("# host: nproc %zu, compiler %s, build %s, exec pool width %zu\n",
              nproc(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              opt.pool_width);
  std::printf("# workload %s, seed %llu, %.1f s, trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);

  const auto steal0 = cpu_steal_jiffies();
  Result result;
  try {
    if (!opt.trace) {
      if (opt.workload == "decide_openloop") {
        perfbench::run_decide_openloop(opt, result);
      } else if (opt.workload == "metro_replay") {
        perfbench::run_metro_replay(opt, result);
      } else {
        perfbench::run_hourly_replan(opt, result);
      }
      perfbench::report("peak_rss_mb", peak_rss_mb(), "MB");
      result.add("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
      const auto budget = [&](const char* name) {
        return opt.workload == name ? opt.seconds
                                    : std::min(opt.seconds, kOtherSectionS);
      };
      perfbench::trace_decide_openloop(opt, budget("decide_openloop"), result);
      perfbench::trace_metro_replay(opt, budget("metro_replay"), result);
      perfbench::trace_hourly_replan(opt, budget("hourly_replan"), result);
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: fatal: %s\n", ex.what());
    return 1;
  }
  // CPU time the hypervisor gave to other guests while this run wanted it:
  // on a shared host it explains runs that read slower across the board.
  const auto steal1 = cpu_steal_jiffies();
  const double total = steal1.second - steal0.second;
  std::printf("# host cpu steal during the run: %.2f%% of all cpu time\n",
              total > 0.0 ? 100.0 * (steal1.first - steal0.first) / total
                          : 0.0);
  for (auto& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.check(false, "metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }
  if (opt.trace) {
    for (const auto& m : result.metrics) {
      perfbench::report(m.name, m.value, m.unit);
    }
  }
  std::fflush(stdout);
  print_json(result);
  return result.correct ? 0 : 1;
}
