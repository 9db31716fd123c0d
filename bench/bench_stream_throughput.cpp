/// \file bench_stream_throughput.cpp
/// Shard-scaling of the esharing::stream serving pipeline: one synthetic
/// trip-event log is replayed through a stream::Pipeline at increasing
/// shard counts and the end-to-end event rate is measured.
///
/// A recurring cost of the serving path is the 2-D KS regime check
/// (Algorithm 2 step 9): the Fasano–Franceschini sweep is
/// O((n+m) log(n+m)) in the window size n and reference size m. Sharding
/// routes each grid cell to exactly one shard, so both the shard window
/// and the shard's slice of the historical reference hold ~1/S of the
/// points, and the checked coverage stays identical (the stratified
/// analogue of the paper's Table IV per-region blocks). Checks run every
/// 512 trip ends per shard, so their count is about the same at every
/// shard count and each gets ~S times cheaper. The speedup below is
/// therefore algorithmic, not parallelism: the replay runs with
/// lanes = 1 (bench_stream_metro covers the parallel lanes).

#include <chrono>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench/util.h"
#include "core/esharing.h"
#include "data/binning.h"
#include "stats/rng.h"
#include "stats/spatial.h"
#include "stream/pipeline.h"

namespace {

using esharing::geo::Point;
namespace stream = esharing::stream;

constexpr int kEvents = 3000;
constexpr std::size_t kHistorySample = 1500;
constexpr double kAreaM = 6000.0;

std::vector<esharing::data::DemandSite> demand_sites(esharing::stats::Rng& rng) {
  std::vector<esharing::data::DemandSite> sites;
  for (std::size_t i = 0; i < 40; ++i) {
    sites.push_back({{rng.uniform(0.0, kAreaM), rng.uniform(0.0, kAreaM)},
                     rng.uniform(2.0, 12.0),
                     i});
  }
  return sites;
}

std::vector<stream::Event> event_log(esharing::stats::Rng& rng) {
  std::vector<stream::Event> log;
  log.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    stream::Event e;
    e.kind = stream::EventKind::kTripEnd;
    e.time = static_cast<esharing::data::Seconds>(i) * 30;
    e.where = {rng.uniform(0.0, kAreaM), rng.uniform(0.0, kAreaM)};
    log.push_back(e);
    if (i % 25 == 7) {
      stream::Event b;
      b.kind = stream::EventKind::kBatteryLevel;
      b.time = e.time + 1;
      b.where = e.where;
      b.bike_id = i % 200;
      b.soc = rng.uniform(0.05, 0.95);
      log.push_back(b);
    }
  }
  return log;
}

struct RunResult {
  double elapsed_ms{0.0};
  double events_per_s{0.0};
  std::uint64_t regime_checks{0};
  std::size_t stations{0};
};

RunResult run_shards(std::size_t shards, const std::vector<stream::Event>& log,
                     const std::vector<Point>& history) {
  esharing::core::ESharingConfig cfg;
  cfg.placer.ks_period = 0;  // the stream-side check replaces the full rescan
  cfg.placer.adaptive_type = false;
  esharing::core::ESharing system(cfg, 17);
  esharing::stats::Rng rng(17);
  auto sites = demand_sites(rng);
  (void)system.plan_offline(sites, [](Point) { return 4000.0; });
  system.start_online(history);

  stream::PipelineConfig pipe_cfg;
  pipe_cfg.bus.shard_count = shards;
  pipe_cfg.bus.queue_capacity = 512;
  pipe_cfg.bus.max_batch = 128;
  pipe_cfg.placer.state.window_length = 200000;  // window spans the whole log
  pipe_cfg.placer.regime_check_period = 128;
  pipe_cfg.placer.regime_min_samples = 16;
  pipe_cfg.lanes = 1;  // single-threaded: the scaling here is algorithmic
  stream::Pipeline pipeline(system, history, pipe_cfg);

  const auto t0 = std::chrono::steady_clock::now();
  const auto result = pipeline.replay(log);
  const auto t1 = std::chrono::steady_clock::now();

  RunResult out;
  out.elapsed_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.events_per_s = static_cast<double>(result.consumed) /
                     (out.elapsed_ms / 1000.0);
  const auto& driver = pipeline.placer_driver();
  for (std::size_t s = 0; s < driver.shard_count(); ++s) {
    out.regime_checks += driver.shard_regime(s).checks;
  }
  out.stations = system.placer().active_locations().size();
  return out;
}

void sweep(const std::string& title, const std::vector<stream::Event>& log,
           const std::vector<Point>& history) {
  using esharing::bench::cell;
  using esharing::bench::fmt;
  esharing::bench::print_title(title);
  std::cout << cell("shards", 8) << cell("elapsed ms", 12)
            << cell("events/s", 12) << cell("speedup", 10)
            << cell("KS checks", 11) << cell("stations", 10) << '\n';
  esharing::bench::print_rule(63);
  double base_rate = 0.0;
  for (std::size_t shards : {1, 2, 4, 8}) {
    const RunResult r = run_shards(shards, log, history);
    if (shards == 1) base_rate = r.events_per_s;
    std::cout << cell(static_cast<double>(shards), 8, 0)
              << cell(r.elapsed_ms, 12, 1)
              << cell(r.events_per_s, 12, 0)
              << cell(fmt(r.events_per_s / base_rate, 2) + "x", 10)
              << cell(static_cast<double>(r.regime_checks), 11, 0)
              << cell(static_cast<double>(r.stations), 10, 0) << '\n';
  }
  std::cout << '\n';
}

}  // namespace

int main() {
  esharing::bench::MetricsSession metrics("bench_stream_throughput");

  esharing::stats::Rng rng(99);
  const auto log = event_log(rng);
  const auto history = esharing::stats::uniform_points(
      rng, {{0.0, 0.0}, {kAreaM, kAreaM}}, kHistorySample);

  sweep("esharing::stream shard scaling — " + std::to_string(log.size()) +
            " events",
        log, history);

  std::cout << "Each grid cell lives in exactly one shard, so shard "
               "windows and reference\nslices hold ~1/S of the points: the "
               "O((n+m) log(n+m)) Fasano-Franceschini sweep\ngets ~S "
               "times cheaper per check while total coverage is "
               "unchanged.\n";
  return 0;
}
