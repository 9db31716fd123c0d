/// metro_replay: a long clustered metro log of trip ends and battery
/// telemetry replayed through a serving-mode stream::Pipeline at 8 shards,
/// once with lanes = pool width and once with lanes = 1 (the
/// single-threaded baseline), alternating until the measuring time is up.
/// Each pass replays the log in fixed segments of one pump cadence, so the
/// per-segment time gives a batch latency distribution; events/s is the
/// pass total. No socket: the stream, stats (sharded KS) and exec layers
/// do the work in large batches.

#include <algorithm>
#include <cstdio>
#include <span>
#include <vector>

#include "inputs.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "quantiles.h"
#include "stats/ks2d.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace stream = esharing::stream;
using esharing::core::ESharing;
using esharing::geo::Point;
using esharing::solver::OnlineDecision;

constexpr std::size_t kTrips = 120000;
constexpr std::size_t kShards = 8;
constexpr std::size_t kSegment = 4096;  // = the bus queue capacity
constexpr std::size_t kHistory = 2000;

struct Metro {
  City city;
  std::vector<stream::Event> log;
  std::vector<Point> history;
};

Metro make_metro(std::uint64_t seed) {
  Metro m;
  m.city = make_city(kLayoutSeed ^ 0x3e7ULL, 20000.0, 200, 300.0, 0.3);
  m.log = metro_log(m.city, seed ^ 0x106ULL, kTrips);
  m.history = draw_points(m.city, kLayoutSeed ^ 0x415ULL, kHistory);
  return m;
}

stream::PipelineConfig metro_config(std::size_t lanes) {
  stream::PipelineConfig cfg;
  cfg.bus.shard_count = kShards;
  cfg.bus.queue_capacity = kSegment;
  cfg.bus.max_batch = 256;
  cfg.placer.state.window_length = 1800;  // 30 min sliding demand window
  cfg.placer.regime_check_period = 512;
  cfg.placer.regime_min_samples = 32;
  cfg.lanes = lanes;
  return cfg;
}

/// The serving system a pass replays into: offline plan on the hotspots,
/// online tier started, the stream-side sharded KS check in charge.
void bootstrap_metro(ESharing& system, const Metro& m) {
  esharing::stats::Rng rng(kLayoutSeed ^ 0x51eULL);
  std::vector<esharing::data::DemandSite> sites;
  for (std::size_t i = 0; i < m.city.hotspots.size(); ++i) {
    sites.push_back({m.city.hotspots[i], rng.uniform(2.0, 15.0), i});
  }
  (void)system.plan_offline(sites, [](Point) { return 15000.0; });
  system.start_online(m.history);
}

esharing::core::ESharingConfig metro_system_config() {
  esharing::core::ESharingConfig cfg;
  cfg.placer.ks_period = 0;  // the stream-side sharded check replaces it
  cfg.placer.adaptive_type = false;
  return cfg;
}

struct Pass {
  double setup_s{0.0};
  double total_ms{0.0};
  std::vector<double> segment_ms;
  std::uint64_t digest{0};
  std::size_t consumed{0};
};

Pass replay_pass(const Metro& m, std::uint64_t seed, std::size_t lanes) {
  Pass p;
  const auto s0 = Clock::now();
  ESharing system(metro_system_config(), seed);
  bootstrap_metro(system, m);
  stream::Pipeline pipeline(system, m.history, metro_config(lanes));
  p.setup_s = ms_since(s0) / 1e3;

  std::vector<OnlineDecision> decisions;
  decisions.reserve(m.log.size());
  for (std::size_t i = 0; i < m.log.size(); i += kSegment) {
    const std::size_t n = std::min(kSegment, m.log.size() - i);
    const std::vector<stream::Event> segment(
        m.log.begin() + static_cast<std::ptrdiff_t>(i),
        m.log.begin() + static_cast<std::ptrdiff_t>(i + n));
    const auto t0 = Clock::now();
    auto res = pipeline.replay(segment);
    const double ms = ms_since(t0);
    p.segment_ms.push_back(ms);
    p.total_ms += ms;
    p.consumed += res.consumed;
    decisions.insert(decisions.end(), res.decisions.begin(),
                     res.decisions.end());
  }
  p.digest = decision_digest(decisions);
  return p;
}

}  // namespace

void run_metro_replay(const Options& opt, Result& result) {
  const Metro m = make_metro(opt.seed);
  std::printf("# metro_replay: %zu events, %zu shards, segments of %zu, "
              "lanes pool (%zu) vs 1\n",
              m.log.size(), kShards, kSegment, opt.pool_width);

  std::vector<double> pool_rates;
  std::vector<double> serial_rates;
  std::vector<double> pool_segments;
  std::vector<double> setups;
  std::uint64_t digest = 0;
  bool digests_agree = true;
  std::uint64_t events = 0;
  const auto start = Clock::now();
  // At least the 100 pool segments a p90 with ten samples beyond it needs.
  while (pool_segments.size() < 100 || ms_since(start) < opt.seconds * 1e3) {
    for (const std::size_t lanes : {std::size_t{0}, std::size_t{1}}) {
      const Pass p = replay_pass(m, opt.seed, lanes);
      if (digest == 0) digest = p.digest;
      digests_agree = digests_agree && p.digest == digest;
      setups.push_back(p.setup_s);
      const double rate =
          static_cast<double>(p.consumed) / (p.total_ms / 1e3);
      events += p.consumed;
      result.check(p.consumed == m.log.size(),
                   "metro_replay: a pass consumed fewer events than the log");
      if (lanes == 0) {
        pool_rates.push_back(rate);
        pool_segments.insert(pool_segments.end(), p.segment_ms.begin(),
                             p.segment_ms.end());
      } else {
        serial_rates.push_back(rate);
      }
    }
  }
  result.check(digests_agree,
               "metro_replay: decision digest differs between lanes = pool "
               "and lanes = 1 (or between passes)");
  std::sort(pool_segments.begin(), pool_segments.end());
  const auto p50 = rank_quantile(pool_segments, 0.5);
  const auto tail = tail_quantile(pool_segments, 0.9);
  result.check(tail.has_value() && tail->q == 0.9,
               "metro_replay: too few segments for a p90");
  result.attempted = events;
  result.failed = 0;

  std::printf("# %zu pool passes, %zu serial passes, %zu pool segments; "
              "digest %016llx\n",
              pool_rates.size(), serial_rates.size(), pool_segments.size(),
              static_cast<unsigned long long>(digest));
  report("replay_events_per_s", median(pool_rates), "1/s");
  report("replay_serial_events_per_s", median(serial_rates), "1/s");
  report("replay_segment_p50_ms", p50.value, "ms");
  report("replay_segment_p90_ms", tail ? tail->value : 0.0, "ms");
  report("setup_s", median(setups), "s");

  result.add("p50_ms", p50.value, "ms");
  result.add("tail_ms", tail ? tail->value : 0.0, "ms");
  result.add("throughput_per_s", median(pool_rates), "1/s");
  result.add("setup_s", median(setups), "s");
}

// --- traced section ----------------------------------------------------------

namespace {

struct TracedPass {
  double total_ms{0.0};
  std::uint64_t digest{0};
  std::size_t pump_calls{0};
  stream::PipelineStats stats;
  std::uint64_t regime_checks{0};
};

/// One pool-lanes pass through the public calls Pipeline::replay makes,
/// with the pump split open: publish_batch, pump_into (drain + merge) and
/// consume_batch each get their own span.
TracedPass traced_pass(const Metro& m, std::uint64_t seed, std::size_t events,
                       Tracer* tracer) {
  ESharing system(metro_system_config(), seed);
  bootstrap_metro(system, m);
  const stream::PipelineConfig cfg = metro_config(0);
  stream::Pipeline pipeline(system, m.history, cfg);
  TracedPass out;
  std::vector<OnlineDecision> decisions;
  std::vector<stream::Event> merged;
  const std::span<const stream::Event> log(m.log.data(), events);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < log.size(); i += kSegment) {
    const auto req = static_cast<std::uint64_t>(i / kSegment);
    const SpanGuard segment(tracer, "stream.segment", req);
    const auto chunk = log.subspan(i, std::min(kSegment, log.size() - i));
    {
      const SpanGuard span(tracer, "stream.bus.publish_batch", req);
      pipeline.publish_batch(chunk);
    }
    merged.clear();
    {
      const SpanGuard span(tracer, "stream.pipeline.pump_into", req);
      pipeline.pump_into([&](const stream::Event& e) { merged.push_back(e); });
      ++out.pump_calls;
    }
    {
      const SpanGuard span(tracer, "stream.driver.consume_batch", req);
      pipeline.placer_driver().consume_batch(merged, cfg.lanes, &decisions);
    }
  }
  out.total_ms = ms_since(t0);
  out.digest = decision_digest(decisions);
  out.stats = pipeline.stats();
  const auto& driver = pipeline.placer_driver();
  for (std::size_t s = 0; s < driver.shard_count(); ++s) {
    out.regime_checks += driver.shard_regime(s).checks;
  }
  return out;
}

double per_event_ns(const std::vector<double>& span_ns, double events) {
  double total = 0.0;
  for (double v : span_ns) total += v;
  return events > 0.0 ? total / events : 0.0;
}

}  // namespace

void trace_metro_replay(const Options& opt, double budget_s, Result& result) {
  namespace obs = esharing::obs;
  const Metro m = make_metro(opt.seed);
  // Size the traced prefix from one probe pass so the section fits its
  // budget: two passes (plain, traced) share it.
  const Pass probe = replay_pass(m, opt.seed, 0);
  const double events_per_ms =
      static_cast<double>(probe.consumed) / std::max(probe.total_ms, 1e-3);
  const std::size_t events = std::clamp<std::size_t>(
      static_cast<std::size_t>(events_per_ms * budget_s * 1e3 / 3.0),
      kSegment * 8, m.log.size());
  std::printf("# traced metro_replay: %zu of %zu events, %zu shards\n",
              events, m.log.size(), kShards);

  const TracedPass plain = traced_pass(m, opt.seed, events, nullptr);
  obs::Registry::global().reset();
  obs::set_enabled(true);
  Tracer tracer;
  const TracedPass traced = traced_pass(m, opt.seed, events, &tracer);
  obs::set_enabled(false);
  result.check(plain.digest == traced.digest,
               "traced metro_replay: tracing changed decisions");
  if (events == m.log.size()) {
    result.check(traced.digest == probe.digest,
                 "traced metro_replay: split pump differs from replay()");
  }
  result.check(
      tracer.write_jsonl(scratch_path(opt, "trace_metro_replay.jsonl")),
      "traced metro_replay: could not write the span file");
  result.attempted += events;

  const double n = static_cast<double>(events);
  const auto& st = traced.stats;
  // Every pump_into call ends on one empty round.
  const double nonempty_rounds = static_cast<double>(st.pump_rounds) -
                                 static_cast<double>(traced.pump_calls);
  const double nearest =
      static_cast<double>(obs_counter("geo.spatial_index.nearest_queries"));
  const double scanned = static_cast<double>(
      obs_counter("geo.spatial_index.nearest_cells_scanned"));

  std::vector<double> ks_ms;
  {
    // The driver's shard-local check: a 30-min window of ~1800 trip ends
    // and the 2000-point reference, each split over 8 shards, exact path off.
    const auto window =
        draw_points(m.city, opt.seed ^ 0x77ULL, 1800 / kShards);
    const auto history =
        draw_points(m.city, opt.seed ^ 0x88ULL, kHistory / kShards);
    for (int i = 0; i < 20; ++i) {
      const auto t0 = Clock::now();
      const auto res = esharing::stats::ks2d_test(window, history, 0);
      ks_ms.push_back(ms_since(t0));
      result.check(res.d >= 0.0 && res.d <= 1.0, "ks2d statistic in [0, 1]");
    }
  }

  result.add("stream.bus.publish_ns.replay",
             per_event_ns(tracer.self_ns("stream.bus.publish_batch"), n), "ns");
  result.add("stream.pipeline.drain_merge_ns",
             per_event_ns(tracer.self_ns("stream.pipeline.pump_into"), n),
             "ns");
  result.add("stream.pipeline.events_per_round.replay",
             nonempty_rounds > 0.0
                 ? static_cast<double>(st.merged_events) / nonempty_rounds
                 : 0.0,
             "count");
  result.add("stream.driver.consume_ns",
             per_event_ns(tracer.self_ns("stream.driver.consume_batch"), n),
             "ns");
  result.add("stream.driver.regime_checks",
             static_cast<double>(traced.regime_checks), "count");
  result.add("stream.pipeline.lane_occupancy", st.lane_occupancy, "fraction");
  result.add("stream.pipeline.merge_stalls",
             static_cast<double>(st.merge_stalls), "count");
  result.add("stream.bus.blocked_publishes",
             static_cast<double>(st.bus.blocked_publishes), "count");
  result.add("stats.ks2d_driver_ms", median(ks_ms), "ms");
  result.add("geo.spatial_index.cells_per_query.replay",
             nearest > 0.0 ? scanned / nearest : 0.0, "count");
  result.add("exec.pool.parallel_fors_per_event.replay",
             static_cast<double>(obs_counter("exec.pool.parallel_fors")) / n,
             "count");
  result.add("exec.pool.steals.replay",
             static_cast<double>(obs_counter("exec.pool.steals")), "count");
  result.add("trace_overhead_frac.metro_replay",
             plain.total_ms > 0.0 ? traced.total_ms / plain.total_ms - 1.0
                                  : 0.0,
             "fraction");
}

}  // namespace perfbench
