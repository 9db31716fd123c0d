#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"
#include "geo/spatial_index.h"
#include "ml/batch.h"
#include "obs/event_sink.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/scoped_timer.h"
#include "solver/jms_greedy.h"
#include "stats/rng.h"
#include "stats/spatial.h"

namespace esharing::obs {
namespace {

/// Restores the global enabled flag on scope exit so tests cannot leak an
/// enabled obs layer into each other.
struct EnabledGuard {
  explicit EnabledGuard(bool on) { set_enabled(on); }
  ~EnabledGuard() { set_enabled(false); }
};

TEST(ObsMetrics, CounterAddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, GaugeSetsAndAdds) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  g.add(1.5);
  EXPECT_EQ(g.value(), 4.0);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(ObsMetrics, HistogramBucketsObservations) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(1.0);   // bucket 0 (le is inclusive)
  h.observe(5.0);   // bucket 1
  h.observe(1e6);   // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 1e6);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST(ObsMetrics, HistogramRejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  // No finite buckets is legal: everything lands in the overflow bucket.
  Histogram overflow_only({});
  overflow_only.observe(3.0);
  EXPECT_EQ(overflow_only.bucket_counts(), (std::vector<std::uint64_t>{1}));
}

TEST(ObsMetrics, QuantileInterpolatesInsideTheRankBucket) {
  Histogram h({1.0, 2.0, 3.0, 4.0});
  // 25 observations per finite bucket, 100 total, uniform by construction.
  for (int i = 0; i < 25; ++i) {
    h.observe(0.5);
    h.observe(1.5);
    h.observe(2.5);
    h.observe(3.5);
  }
  // rank 50 exhausts bucket 1 exactly: interpolation hits its upper edge.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 2.0);
  // rank 99 lands 24/25ths into bucket 3 ([3, 4]).
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 3.0 + 24.0 / 25.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
  // q = 0 selects rank 1, still inside the first bucket, never below 0.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0 / 25.0);
  EXPECT_THROW((void)h.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)h.quantile(1.1), std::invalid_argument);
}

TEST(ObsMetrics, QuantileEdgeCases) {
  // Empty histogram: every quantile is 0.
  Histogram empty({1.0, 2.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.999), 0.0);

  // Single finite bucket: interpolates from a lower edge of 0.
  Histogram single({10.0});
  for (int i = 0; i < 100; ++i) single.observe(5.0);
  EXPECT_DOUBLE_EQ(single.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(single.quantile(1.0), 10.0);

  // Observations beyond the largest bound live in the overflow bucket,
  // which has no finite upper edge: the estimate clamps to the largest
  // finite bound rather than inventing a value.
  Histogram overflow({1.0});
  for (int i = 0; i < 10; ++i) overflow.observe(50.0);
  EXPECT_DOUBLE_EQ(overflow.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(overflow.quantile(0.999), 1.0);

  // No finite buckets at all: 0 is the only honest answer.
  Histogram unbounded({});
  unbounded.observe(3.0);
  EXPECT_DOUBLE_EQ(unbounded.quantile(0.5), 0.0);
}

TEST(ObsMetrics, QuantileUnderConcurrentRecording) {
  Histogram h(default_latency_buckets());
  constexpr std::size_t kN = 20000;
  // Deterministic observation set, recorded from parallel exec-pool chunks;
  // bucket counts are atomic so the final tallies are exact.
  exec::parallel_for(kN, 256, [&](std::size_t begin, std::size_t end,
                                  std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      h.observe(1e-6 + 1e-4 * static_cast<double>(i % 100));
    }
  });
  EXPECT_EQ(h.count(), kN);
  const double p50 = h.quantile(0.50);
  const double p99 = h.quantile(0.99);
  const double p999 = h.quantile(0.999);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
  // Every observation is < 10.1 ms, so no estimate may leave that range.
  EXPECT_LE(p999, 2e-2);
}

TEST(ObsMetrics, CounterShardBatchesAndFlushes) {
  Counter c;
  {
    CounterShard shard(c, /*batch=*/4);
    shard.add();
    shard.add();
    EXPECT_EQ(c.value(), 0u);  // below the batch threshold: still local
    EXPECT_EQ(shard.pending(), 2u);
    shard.add(2);  // reaches the threshold
    EXPECT_EQ(c.value(), 4u);
    EXPECT_EQ(shard.pending(), 0u);
    shard.add(100);  // >= batch flushes immediately
    EXPECT_EQ(c.value(), 104u);
    shard.add();  // left pending...
  }
  EXPECT_EQ(c.value(), 105u);  // ...and flushed by the destructor
}

TEST(ObsRegistry, FindOrCreateReturnsSameMetric) {
  Registry reg;
  Counter& a = reg.counter("x.y.z");
  Counter& b = reg.counter("x.y.z");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(ObsRegistry, RejectsKindCollisionsAndEmptyNames) {
  Registry reg;
  reg.counter("dual.use");
  EXPECT_THROW(reg.gauge("dual.use"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("dual.use"), std::invalid_argument);
  EXPECT_THROW(reg.counter(""), std::invalid_argument);
}

TEST(ObsRegistry, HistogramBoundsApplyOnFirstRegistrationOnly) {
  Registry reg;
  Histogram& h = reg.histogram("h", {1.0, 2.0});
  Histogram& again = reg.histogram("h", {9.0});
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(h.upper_bounds(), (std::vector<double>{1.0, 2.0}));
  // Empty bounds select the default time buckets.
  EXPECT_EQ(reg.histogram("t").upper_bounds(), default_time_buckets());
}

TEST(ObsRegistry, ResetZeroesEverythingButKeepsRegistrations) {
  Registry reg;
  reg.counter("c").add(7);
  reg.gauge("g").set(1.0);
  reg.histogram("h", {1.0}).observe(0.5);
  reg.reset();
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 0u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 0.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 0u);
}

TEST(ObsExport, GoldenJsonShape) {
  // This string is the frozen machine-readable contract of the snapshot
  // artifact; bench tooling and CI parse it. Change it deliberately.
  Registry reg;
  reg.counter("a.count").add(3);
  reg.gauge("b.level").set(2.5);
  reg.histogram("c.seconds", {0.1, 1.0}).observe(0.05);
  EXPECT_EQ(to_json(reg.snapshot()),
            "{\"counters\":{\"a.count\":3},"
            "\"gauges\":{\"b.level\":2.5},"
            "\"histograms\":{\"c.seconds\":{\"upper_bounds\":[0.1,1],"
            "\"buckets\":[1,0,0],\"count\":1,\"sum\":0.05}}}");
}

TEST(ObsExport, GoldenCsvShape) {
  Registry reg;
  reg.counter("a.count").add(3);
  reg.histogram("c.seconds", {0.5}).observe(2.0);
  EXPECT_EQ(to_csv(reg.snapshot()),
            "kind,name,value\n"
            "counter,a.count,3\n"
            "histogram,c.seconds.count,1\n"
            "histogram,c.seconds.sum,2\n"
            "histogram,c.seconds.le_0.5,0\n"
            "histogram,c.seconds.overflow,1\n");
}

TEST(ObsExport, JsonSortsMetricsByName) {
  Registry reg;
  reg.counter("z.last");
  reg.counter("a.first");
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.first");
  EXPECT_EQ(snap.counters[1].name, "z.last");
}

TEST(ObsEvents, EmitWritesGoldenJsonlLines) {
  const EnabledGuard on(true);
  Registry reg;
  auto sink = std::make_shared<MemoryEventSink>();
  reg.set_event_sink(sink);
  reg.emit("placer.penalty_switch",
           {{"similarity", 72.5}, {"to", "type_iii"}});
  reg.emit("sim.charging_round", {{"bikes", std::size_t{12}}});
  const auto lines = sink->lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            "{\"seq\":0,\"event\":\"placer.penalty_switch\","
            "\"similarity\":72.5,\"to\":\"type_iii\"}");
  EXPECT_EQ(lines[1], "{\"seq\":1,\"event\":\"sim.charging_round\",\"bikes\":12}");
}

TEST(ObsEvents, EmitIsNoOpWhenDisabledOrSinkless) {
  Registry reg;
  auto sink = std::make_shared<MemoryEventSink>();
  reg.set_event_sink(sink);
  reg.emit("quiet", {});  // disabled -> dropped
  {
    const EnabledGuard on(true);
    Registry no_sink;
    no_sink.emit("also.quiet", {});  // no sink -> dropped, no crash
    reg.emit("loud", {});
  }
  ASSERT_EQ(sink->lines().size(), 1u);
  EXPECT_EQ(sink->lines()[0], "{\"seq\":0,\"event\":\"loud\"}");
}

TEST(ObsEvents, JsonEscapingAndNumberFormats) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(json_number(3.0), "3");
  EXPECT_EQ(json_number(0.25), "0.25");
  EXPECT_EQ(json_number(-17.0), "-17");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
}

TEST(ObsScopedTimer, ObservesOnlyWhenEnabled) {
  Histogram h({1e9});  // everything lands in the first bucket
  {
    const ScopedTimer t(h);  // disabled -> null handle
  }
  EXPECT_EQ(h.count(), 0u);
  {
    const EnabledGuard on(true);
    const ScopedTimer t(h);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.0);
}

TEST(ObsGating, DisabledIsDefaultAndTogglable) {
  EXPECT_FALSE(enabled());
  {
    const EnabledGuard on(true);
    EXPECT_TRUE(enabled());
  }
  EXPECT_FALSE(enabled());
}

/// Freezes the instrumented metric names: these strings are the public
/// surface of the obs layer (DESIGN.md naming convention) and dashboards /
/// snapshot consumers depend on them. Renaming one is a breaking change —
/// update this test deliberately when doing so.
TEST(ObsGolden, InstrumentedHotPathsUseTheFrozenMetricNames) {
  const EnabledGuard on(true);
  Registry& reg = Registry::global();

  stats::Rng rng(71);
  const auto pts = stats::uniform_points(rng, {{0, 0}, {2000, 2000}}, 64);
  const geo::SpatialIndex index(pts);
  // The per-query counters are thread-locally batched (CounterShard), so
  // drive enough queries to force at least one flush of each shard.
  const auto queries = stats::uniform_points(rng, {{0, 0}, {2000, 2000}}, 8192);
  for (const geo::Point q : queries) (void)index.nearest(q);
  (void)index.within_radius({500, 500}, 300.0);

  std::vector<solver::FlClient> clients;
  std::vector<double> costs;
  for (const geo::Point p : pts) {
    clients.push_back({p, 1.0});
    costs.push_back(8000.0);
  }
  const auto inst =
      solver::colocated_instance(std::move(clients), std::move(costs));
  (void)solver::jms_greedy(inst);

  // One tiny batched fit + refresh drives every ml.forecast.* metric.
  ml::batch::BatchRnnConfig bcfg;
  bcfg.hidden = 4;
  bcfg.lookback = 3;
  bcfg.epochs = 2;
  ml::batch::BatchRnn brnn(bcfg);
  const ml::Series series{3, 4, 5, 6, 5, 4, 3, 4, 5, 6};
  brnn.fit({series});
  (void)brnn.forecast({series}, 2);

  for (const char* name : {
           "geo.spatial_index.nearest_queries",
           "geo.spatial_index.nearest_cells_scanned",
           "geo.spatial_index.radius_queries",
           "geo.spatial_index.rebuilds",
           "solver.cost_oracle.row_materializations",
           "solver.jms_greedy.solves",
           "solver.jms_greedy.iterations",
           "solver.jms_greedy.stars_evaluated",
           "ml.forecast.fits",
           "ml.forecast.batch_refreshes",
           "ml.forecast.steps",
           "ml.forecast.cells",
       }) {
    EXPECT_GT(reg.counter(name).value(), 0u) << "metric not bumped: " << name;
  }
  EXPECT_GT(reg.histogram("solver.jms_greedy.solve_seconds").count(), 0u);
  EXPECT_GT(reg.histogram("ml.forecast.fit_seconds").count(), 0u);
  EXPECT_GT(reg.histogram("ml.forecast.batch_refresh_seconds").count(), 0u);
  EXPECT_GT(reg.gauge("solver.jms_greedy.num_threads").value(), 0.0);
}

TEST(ObsConcurrency, ParallelUpdatesAndRegistrationsAreConsistent) {
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, t] {
      // Every thread registers the shared metrics itself (find-or-create
      // under contention) plus one private counter, then hammers updates.
      Counter& shared = reg.counter("conc.shared");
      Gauge& gauge = reg.gauge("conc.gauge");
      Histogram& hist = reg.histogram("conc.hist", {0.5});
      Counter& own = reg.counter("conc.thread." + std::to_string(t));
      for (int i = 0; i < kIters; ++i) {
        shared.add();
        own.add();
        gauge.add(1.0);
        hist.observe(i % 2 == 0 ? 0.25 : 0.75);
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(reg.counter("conc.shared").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(reg.gauge("conc.gauge").value(),
                   static_cast<double>(kThreads) * kIters);
  Histogram& hist = reg.histogram("conc.hist");
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads) * kIters);
  const auto buckets = hist.bucket_counts();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0], static_cast<std::uint64_t>(kThreads) * kIters / 2);
  EXPECT_EQ(buckets[1], static_cast<std::uint64_t>(kThreads) * kIters / 2);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.counter("conc.thread." + std::to_string(t)).value(),
              static_cast<std::uint64_t>(kIters));
  }
}

TEST(ObsConcurrency, ConcurrentEmitProducesUniqueSequenceNumbers) {
  const EnabledGuard on(true);
  Registry reg;
  auto sink = std::make_shared<MemoryEventSink>();
  reg.set_event_sink(sink);
  constexpr int kThreads = 4;
  constexpr int kEvents = 500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      for (int i = 0; i < kEvents; ++i) reg.emit("tick", {});
    });
  }
  for (auto& w : workers) w.join();
  const auto lines = sink->lines();
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kThreads) * kEvents);
  std::vector<bool> seen(lines.size(), false);
  for (const std::string& line : lines) {
    const auto start = line.find(":") + 1;
    const auto end = line.find(",");
    const auto seq = std::stoul(line.substr(start, end - start));
    ASSERT_LT(seq, seen.size());
    EXPECT_FALSE(seen[seq]);
    seen[seq] = true;
  }
}

}  // namespace
}  // namespace esharing::obs
