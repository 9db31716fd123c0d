/// Micro-benchmarks (google-benchmark) of the computational kernels: the
/// JMS offline solver (the paper's O(N^3) Algorithm 1), the two KS-test
/// variants (Peacock O(n^3)-family vs Fasano-Franceschini O(n^2)), the
/// online placers' per-request latency, TSP routing and one LSTM training
/// sample. These establish that the online path is micro-second scale per
/// request, i.e. deployable on a live request stream.

#include <benchmark/benchmark.h>

#include "bench/util.h"
#include "core/deviation_placer.h"
#include "geo/spatial_index.h"
#include "ml/batch.h"
#include "solver/jms_greedy.h"
#include "solver/meyerson.h"
#include "solver_reference.h"
#include "solver/tsp.h"
#include "stats/ks2d.h"
#include "stats/rng.h"
#include "stats/spatial.h"

using namespace esharing;
using geo::Point;

namespace {

std::vector<Point> points(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  return stats::uniform_points(rng, {{0, 0}, {3000, 3000}}, n);
}

solver::FlInstance colocated(std::size_t n, std::uint64_t seed) {
  std::vector<solver::FlClient> clients;
  std::vector<double> costs;
  for (Point p : points(n, seed)) {
    clients.push_back({p, 1.0});
    costs.push_back(10000.0);
  }
  return solver::colocated_instance(std::move(clients), std::move(costs));
}

void BM_JmsGreedy(benchmark::State& state) {
  const auto inst = colocated(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver::jms_greedy(inst));
  }
}
BENCHMARK(BM_JmsGreedy)->Arg(50)->Arg(100)->Arg(200);
// Paper-scale rows (845 and 2,400 candidate sites), in milliseconds.
BENCHMARK(BM_JmsGreedy)->Arg(845)->Arg(2400)->Unit(benchmark::kMillisecond);

/// The frozen pre-oracle JMS (per-iteration cost recompute + full re-sort)
/// against the oracle-backed production solver above — same instances, so
/// the ratio is the refactor's speedup.
void BM_JmsGreedyReference(benchmark::State& state) {
  const auto inst = colocated(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver::reference::jms_greedy(inst));
  }
}
BENCHMARK(BM_JmsGreedyReference)->Arg(50)->Arg(100)->Arg(200);

/// Nearest-neighbor queries: the old linear scan (geo::nearest_index) vs
/// the grid-bucket SpatialIndex, over identical point sets and queries.
void BM_NearestLinear(benchmark::State& state) {
  const auto pts = points(static_cast<std::size_t>(state.range(0)), 21);
  const auto queries = points(1024, 22);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::nearest_index(pts, queries[i++ % queries.size()]));
  }
}
BENCHMARK(BM_NearestLinear)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_NearestIndexed(benchmark::State& state) {
  const auto pts = points(static_cast<std::size_t>(state.range(0)), 21);
  const auto queries = points(1024, 22);
  const geo::SpatialIndex index(pts);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.nearest(queries[i++ % queries.size()]));
  }
}
BENCHMARK(BM_NearestIndexed)->Arg(1000)->Arg(10000)->Arg(100000);

/// One-off cost of building the index (amortized over the queries above).
void BM_SpatialIndexBuild(benchmark::State& state) {
  const auto pts = points(static_cast<std::size_t>(state.range(0)), 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::SpatialIndex(pts));
  }
}
BENCHMARK(BM_SpatialIndexBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PeacockKs(benchmark::State& state) {
  const auto a = points(static_cast<std::size_t>(state.range(0)), 2);
  const auto b = points(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::peacock_statistic(a, b));
  }
}
BENCHMARK(BM_PeacockKs)->Arg(50)->Arg(100)->Arg(200);

void BM_FasanoFranceschiniKs(benchmark::State& state) {
  const auto a = points(static_cast<std::size_t>(state.range(0)), 2);
  const auto b = points(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::fasano_franceschini_statistic(a, b));
  }
}
BENCHMARK(BM_FasanoFranceschiniKs)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

void BM_MeyersonPerRequest(benchmark::State& state) {
  const auto pts = points(100000, 4);
  solver::MeyersonPlacer placer(10000.0, 5);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(placer.process(pts[i++ % pts.size()]));
  }
}
BENCHMARK(BM_MeyersonPerRequest);

void BM_DeviationPlacerPerRequest(benchmark::State& state) {
  const auto landmarks = points(20, 6);
  const auto history = points(300, 7);
  core::DeviationPlacerConfig cfg;
  cfg.ks_period = 200;
  core::DeviationPenaltyPlacer placer(landmarks, history,
                                      [](Point) { return 10000.0; }, cfg, 8);
  const auto pts = points(100000, 9);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(placer.process(pts[i++ % pts.size()]));
  }
}
BENCHMARK(BM_DeviationPlacerPerRequest);

void BM_TspHeuristic(benchmark::State& state) {
  const auto sites = points(static_cast<std::size_t>(state.range(0)), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver::tsp_two_opt(sites, solver::tsp_nearest_neighbor(sites)));
  }
}
BENCHMARK(BM_TspHeuristic)->Arg(20)->Arg(50);

/// One training sample: forward + BPTT of a single window through the
/// batched engine (a batch of one).
void BM_LstmTrainingSample(benchmark::State& state) {
  ml::batch::BatchRnnConfig cfg;
  cfg.layers = 2;
  cfg.hidden = 24;
  cfg.lookback = 12;
  const ml::batch::BatchRnn lstm(cfg);
  stats::Rng rng(11);
  std::vector<ml::Window> windows(1);
  for (std::size_t i = 0; i < cfg.lookback; ++i) {
    windows[0].input.push_back(rng.uniform(-1, 1));
  }
  windows[0].target = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lstm.pooled_gradient(windows));
  }
}
BENCHMARK(BM_LstmTrainingSample);

}  // namespace

// Hand-rolled BENCHMARK_MAIN so the run is wrapped in a MetricsSession:
// kernels execute with the obs layer enabled (ESHARING_METRICS=0 reverts to
// the disabled baseline for overhead A/B runs) and the session drops
// bench_micro_perf.metrics.json on exit.
int main(int argc, char** argv) {
  const esharing::bench::MetricsSession metrics("bench_micro_perf");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
