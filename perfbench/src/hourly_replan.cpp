/// hourly_replan: a simulated week of hourly epochs on a 100x100-cell
/// diurnal city. The batched forecaster (ml::batch::BatchRnn) is fit once
/// per week in set-up. Each epoch appends the hour's arrivals to every
/// cell's history, forecasts every cell one hour ahead, keeps the busiest
/// cells as demand sites and calls core::ESharing::reanchor — the only
/// workload where the ml and solver layers do the work. The week is
/// repeated on a fresh system until the measuring time is up, and every
/// repetition must produce the same plan digest.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <optional>
#include <vector>

#include "inputs.h"
#include "ml/batch.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "quantiles.h"
#include "solver/instance_delta.h"
#include "solver/reopt.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using esharing::core::ESharing;
using esharing::geo::Point;
using esharing::ml::Series;
namespace batch = esharing::ml::batch;
namespace solver = esharing::solver;

constexpr std::size_t kSide = 100;              // 100x100 cells ...
constexpr std::size_t kCells = kSide * kSide;
constexpr double kCellM = 100.0;                // ... of 100 m
constexpr std::size_t kWarmupHours = 48;        // history before the week
constexpr std::size_t kEpochs = 7 * 24;         // one simulated week
constexpr std::size_t kHistoryHours = 24;       // forecast input per cell
constexpr std::size_t kSites = 200;             // busiest cells re-planned
constexpr std::size_t kFitCells = 128;
constexpr std::size_t kExtraSetups = 3;  // set-ups timed beside the weeks'
constexpr double kOpeningCost = 15000.0;
constexpr double kPi = 3.14159265358979323846;

/// Hourly arrivals of every cell, hour-major: arrivals[h * kCells + c].
struct DiurnalCity {
  std::vector<float> arrivals;
  std::vector<std::size_t> fit_cells;  ///< busiest cells by base rate
};

DiurnalCity make_diurnal_city(std::uint64_t seed) {
  esharing::stats::Rng layout_rng(kLayoutSeed ^ 0xd1ULL);
  esharing::stats::Rng rng(seed ^ 0xd1ULL);
  const City hot =
      make_city(kLayoutSeed ^ 0xc17ULL, kSide * kCellM, 60, 600.0, 0.0);
  std::vector<double> base(kCells, 0.05);
  std::vector<double> phase(kCells, 0.0);
  for (std::size_t c = 0; c < kCells; ++c) {
    const Point p{(static_cast<double>(c % kSide) + 0.5) * kCellM,
                  (static_cast<double>(c / kSide) + 0.5) * kCellM};
    for (std::size_t h = 0; h < hot.hotspots.size(); ++h) {
      const double dx = p.x - hot.hotspots[h].x;
      const double dy = p.y - hot.hotspots[h].y;
      const double two_var = 2.0 * hot.sigma_m * hot.sigma_m;
      base[c] += 5.0 * hot.hotspot_weight[h] *
                 std::exp(-(dx * dx + dy * dy) / two_var);
    }
    // Morning-commute and evening-commute cells peak half a day apart.
    phase[c] = layout_rng.bernoulli(0.5) ? 0.0 : kPi;
  }
  DiurnalCity city;
  const std::size_t hours = kWarmupHours + kEpochs;
  city.arrivals.resize(hours * kCells);
  for (std::size_t h = 0; h < hours; ++h) {
    const double angle = 2.0 * kPi * static_cast<double>(h % 24) / 24.0;
    for (std::size_t c = 0; c < kCells; ++c) {
      const double rate = base[c] * (1.0 + 0.6 * std::sin(angle + phase[c]));
      city.arrivals[h * kCells + c] = static_cast<float>(rng.poisson(rate));
    }
  }
  std::vector<std::size_t> order(kCells);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return base[a] > base[b];
                   });
  city.fit_cells.assign(order.begin(),
                        order.begin() + static_cast<std::ptrdiff_t>(kFitCells));
  return city;
}

Point cell_centre(std::size_t c) {
  return {(static_cast<double>(c % kSide) + 0.5) * kCellM,
          (static_cast<double>(c / kSide) + 0.5) * kCellM};
}

batch::BatchRnnConfig rnn_config() {
  batch::BatchRnnConfig cfg;
  cfg.kind = batch::RnnKind::kLstm;
  cfg.layers = 1;
  cfg.hidden = 12;
  cfg.lookback = 12;
  cfg.epochs = 15;
  cfg.seed = 1;
  return cfg;
}

batch::BatchRnn fit_model(const DiurnalCity& city) {
  std::vector<Series> series;
  for (const std::size_t c : city.fit_cells) {
    Series s(kWarmupHours);
    for (std::size_t h = 0; h < kWarmupHours; ++h) {
      s[h] = city.arrivals[h * kCells + c];
    }
    series.push_back(std::move(s));
  }
  batch::BatchRnn model(rnn_config());
  model.fit(series);
  return model;
}

/// The `kSites` busiest cells of the forecast (ties to the lower cell).
std::vector<esharing::data::DemandSite> busiest_sites(
    const std::vector<Series>& forecast) {
  std::vector<std::size_t> order(kCells);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto busier = [&](std::size_t a, std::size_t b) {
    return forecast[a][0] != forecast[b][0] ? forecast[a][0] > forecast[b][0]
                                            : a < b;
  };
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(kSites),
                    order.end(), busier);
  std::vector<esharing::data::DemandSite> sites;
  sites.reserve(kSites);
  for (std::size_t i = 0; i < kSites; ++i) {
    const std::size_t c = order[i];
    sites.push_back({cell_centre(c), std::max(forecast[c][0], 0.05), c});
  }
  return sites;
}

/// One week's replanning state: the system, the per-cell histories and
/// the forecaster.
struct Week {
  ESharing system{esharing::core::ESharingConfig{}, 1};
  std::vector<Series> histories;
  std::optional<batch::BatchRnn> model;
  double setup_s{0.0};
  double fit_s{0.0};
};

void start_week(Week& w, const DiurnalCity& city) {
  const auto s0 = Clock::now();
  w.model.emplace(fit_model(city));
  w.fit_s = ms_since(s0) / 1e3;
  w.histories.assign(kCells, Series(kHistoryHours));
  for (std::size_t c = 0; c < kCells; ++c) {
    for (std::size_t i = 0; i < kHistoryHours; ++i) {
      const std::size_t h = kWarmupHours - kHistoryHours + i;
      w.histories[c][i] = city.arrivals[h * kCells + c];
    }
  }
  const auto initial = busiest_sites(w.model->forecast(w.histories, 1));
  (void)w.system.plan_offline(initial, [](Point) { return kOpeningCost; });
  w.setup_s = ms_since(s0) / 1e3;
}

struct EpochOut {
  double ms{0.0};
  double cost{0.0};
  bool costlier_than_carry{false};
  std::vector<esharing::data::DemandSite> sites;
};

/// One hourly epoch: append the hour, forecast every cell, select, re-plan.
EpochOut run_epoch(Week& w, const DiurnalCity& city, std::size_t epoch,
                   Tracer* tracer) {
  EpochOut out;
  const auto req = static_cast<std::uint64_t>(epoch);
  const auto t0 = Clock::now();
  const SpanGuard span(tracer, "replan.epoch", req);
  {
    const SpanGuard s(tracer, "replan.append", req);
    const std::size_t h = kWarmupHours + epoch;
    for (std::size_t c = 0; c < kCells; ++c) {
      Series& s = w.histories[c];
      std::rotate(s.begin(), s.begin() + 1, s.end());
      s.back() = city.arrivals[h * kCells + c];
    }
  }
  std::vector<Series> forecast;
  {
    const SpanGuard s(tracer, "ml.batch.forecast", req);
    forecast = w.model->forecast(w.histories, 1);
  }
  {
    const SpanGuard s(tracer, "replan.select", req);
    out.sites = busiest_sites(forecast);
  }
  {
    const SpanGuard s(tracer, "core.reanchor", req);
    out.cost = w.system.reanchor(out.sites).total_cost();
  }
  out.ms = ms_since(t0);
  const auto& st = w.system.reopt_session().last_stats();
  out.costlier_than_carry = !st.zero_delta && !st.cold &&
                            st.final_cost > st.baseline_cost + 1e-9;
  return out;
}

std::uint64_t plan_digest(std::uint64_t h, const solver::FlSolution& plan) {
  for (const std::size_t f : plan.open) {
    const std::uint64_t v = f;
    h = fnv_mix(h, &v, sizeof(v));
  }
  const double cost = plan.total_cost();
  return fnv_mix(h, &cost, sizeof(cost));
}

}  // namespace

void run_hourly_replan(const Options& opt, Result& result) {
  const DiurnalCity city = make_diurnal_city(opt.seed);
  std::printf("# hourly_replan: %zu cells, %zu-epoch weeks, %zu sites per "
              "epoch, BatchRnn %s fit on %zu cells\n",
              kCells, kEpochs, kSites,
              batch::BatchRnn(rnn_config()).name().c_str(), kFitCells);

  std::vector<double> epoch_ms;
  std::vector<double> setups;
  for (std::size_t i = 0; i < kExtraSetups; ++i) {
    Week w;
    start_week(w, city);
    setups.push_back(w.setup_s);
  }
  std::vector<double> week_costs;
  std::uint64_t digest = 0;
  bool digests_agree = true;
  bool never_costlier = true;
  std::size_t weeks = 0;
  double busy_ms = 0.0;
  // Whole weeks only: another week starts while it is expected to end
  // within the measuring time; two weeks at least, for the digest check.
  const auto start = Clock::now();
  while (weeks < 2 ||
         ms_since(start) * static_cast<double>(weeks + 1) /
                 static_cast<double>(weeks) <=
             opt.seconds * 1e3) {
    Week w;
    start_week(w, city);
    setups.push_back(w.setup_s);
    std::uint64_t h = 1469598103934665603ULL;
    double cost_sum = 0.0;
    for (std::size_t e = 0; e < kEpochs; ++e) {
      const EpochOut out = run_epoch(w, city, e, nullptr);
      epoch_ms.push_back(out.ms);
      busy_ms += out.ms;
      cost_sum += out.cost;
      never_costlier = never_costlier && !out.costlier_than_carry;
      h = plan_digest(h, w.system.offline_solution());
    }
    week_costs.push_back(cost_sum / static_cast<double>(kEpochs));
    if (weeks == 0) digest = h;
    digests_agree = digests_agree && h == digest;
    ++weeks;
  }
  result.check(digests_agree,
               "hourly_replan: plan digest differs between repeated weeks");
  result.check(never_costlier,
               "hourly_replan: an epoch ended costlier than its carried plan");
  std::sort(epoch_ms.begin(), epoch_ms.end());
  const auto p50 = rank_quantile(epoch_ms, 0.5);
  const auto p90 = tail_quantile(epoch_ms, 0.9);
  result.check(p90.has_value() && p90->q == 0.9,
               "hourly_replan: too few epochs for a p90");
  result.attempted = epoch_ms.size();
  result.failed = 0;

  std::printf("# %zu weeks, %zu epochs; plan digest %016llx\n", weeks,
              epoch_ms.size(), static_cast<unsigned long long>(digest));
  report("replan_p50_ms", p50.value, "ms");
  report("replan_p90_ms", p90 ? p90->value : 0.0, "ms");
  report("replan_plan_cost", week_costs.front(), "cost");
  report("setup_s", median(setups), "s");

  result.add("p50_ms", p50.value, "ms");
  result.add("tail_ms", p90 ? p90->value : 0.0, "ms");
  result.add("throughput_per_s",
             static_cast<double>(epoch_ms.size()) / (busy_ms / 1e3), "1/s");
  result.add("setup_s", median(setups), "s");
}

// --- traced section ----------------------------------------------------------

namespace {

struct TracedWeek {
  double total_ms{0.0};
  std::size_t epochs{0};
  double fit_s{0.0};
  std::vector<double> diff_ms;
  std::vector<double> resolve_ms;
  std::size_t cold{0};
  std::uint64_t rows_reused{0};
  std::uint64_t rows_invalidated{0};
  std::uint64_t moves{0};
  bool shadow_matches{true};
};

/// `epochs` epochs of a fresh week, plus a shadow ReoptimizationSession
/// that re-solves each epoch's sites through diff_colocated + reoptimize so
/// the solver's two steps can be timed apart from ESharing::reanchor.
TracedWeek traced_week(const DiurnalCity& city, std::size_t epochs,
                       Tracer* tracer) {
  const auto opening = [](Point) { return kOpeningCost; };
  TracedWeek out;
  Week w;
  start_week(w, city);
  out.fit_s = w.fit_s;
  const auto& session = w.system.reopt_session();
  auto shadow = solver::ReoptimizationSession::from_state(
      session.instance(), session.solution(), solver::ReoptOptions{}, opening);
  const auto t0 = Clock::now();
  for (std::size_t e = 0; e < epochs; ++e) {
    const EpochOut epoch = run_epoch(w, city, e, tracer);
    std::vector<solver::FlClient> target;
    for (const auto& s : epoch.sites) {
      target.push_back({s.location, s.arrivals});
    }
    const bool counting = esharing::obs::enabled();
    const std::uint64_t reused0 =
        counting ? obs_counter("solver.cost_oracle.rows_reused") : 0;
    const std::uint64_t invalid0 =
        counting ? obs_counter("solver.cost_oracle.rows_invalidated") : 0;
    const std::uint64_t moves0 =
        counting ? obs_counter("solver.local_search.moves_evaluated") : 0;
    const auto d0 = Clock::now();
    solver::InstanceDelta delta;
    {
      const SpanGuard s(tracer, "solver.reopt.diff", e);
      delta = solver::diff_colocated(shadow->instance(), target, opening);
    }
    const auto d1 = Clock::now();
    {
      const SpanGuard s(tracer, "solver.reopt.resolve", e);
      (void)shadow->reoptimize(delta);
    }
    out.diff_ms.push_back(ms_between(d0, d1));
    out.resolve_ms.push_back(ms_since(d1));
    if (counting) {
      out.rows_reused +=
          obs_counter("solver.cost_oracle.rows_reused") - reused0;
      out.rows_invalidated +=
          obs_counter("solver.cost_oracle.rows_invalidated") - invalid0;
      out.moves += obs_counter("solver.local_search.moves_evaluated") - moves0;
    }
    out.cold += shadow->last_stats().cold ? 1 : 0;
    out.shadow_matches = out.shadow_matches &&
                         shadow->solution().total_cost() == epoch.cost;
  }
  out.total_ms = ms_since(t0);
  out.epochs = epochs;
  return out;
}

}  // namespace

void trace_hourly_replan(const Options& opt, double budget_s, Result& result) {
  namespace obs = esharing::obs;
  const DiurnalCity city = make_diurnal_city(opt.seed);
  // Size the traced stretch from a probe day; a plain and a traced stretch
  // share the budget.
  const auto p0 = Clock::now();
  (void)traced_week(city, 24, nullptr);
  const double probe_ms = ms_since(p0);
  const std::size_t epochs = std::clamp<std::size_t>(
      static_cast<std::size_t>(24.0 * budget_s * 1e3 / (2.5 * probe_ms)), 24,
      kEpochs);
  std::printf("# traced hourly_replan: %zu epochs\n", epochs);

  const TracedWeek plain = traced_week(city, epochs, nullptr);
  obs::Registry::global().reset();
  obs::set_enabled(true);
  Tracer tracer;
  const TracedWeek traced = traced_week(city, epochs, &tracer);
  obs::set_enabled(false);
  result.check(traced.shadow_matches && plain.shadow_matches,
               "traced hourly_replan: shadow session diverged from reanchor");
  result.check(
      tracer.write_jsonl(scratch_path(opt, "trace_hourly_replan.jsonl")),
      "traced hourly_replan: could not write the span file");
  result.attempted += traced.epochs;

  const auto p50_ms = [&](const char* name) {
    auto v = tracer.self_ns(name);
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : rank_quantile(v, 0.5).value * 1e-6;
  };
  const double forecast_ms = p50_ms("ml.batch.forecast");
  const double reused = static_cast<double>(traced.rows_reused);
  const double invalidated = static_cast<double>(traced.rows_invalidated);
  const double n = static_cast<double>(traced.epochs);
  result.add("core.reanchor_ms", p50_ms("core.reanchor"), "ms");
  result.add("solver.reopt.diff_ms", median(traced.diff_ms), "ms");
  result.add("solver.reopt.resolve_ms", median(traced.resolve_ms), "ms");
  result.add("solver.cost_oracle.reuse_ratio",
             reused + invalidated > 0.0 ? reused / (reused + invalidated) : 0.0,
             "fraction");
  result.add("solver.cost_oracle.rows_reused", reused, "count");
  result.add("solver.cost_oracle.rows_invalidated", invalidated, "count");
  result.add("solver.reopt.cold_frac", static_cast<double>(traced.cold) / n,
             "fraction");
  result.add("solver.local_search.moves_per_epoch",
             static_cast<double>(traced.moves) / n, "count");
  result.add("ml.batch.forecast_ms", forecast_ms, "ms");
  // One horizon-1 forecast steps every cell through `lookback` timesteps.
  const double cell_steps = static_cast<double>(kCells) *
                            static_cast<double>(rnn_config().lookback);
  result.add("ml.batch.cell_steps_per_s",
             forecast_ms > 0.0 ? cell_steps / (forecast_ms / 1e3) : 0.0,
             "1/s");
  result.add("ml.batch.fit_s", plain.fit_s, "s");
  result.add("replan.append_ms", p50_ms("replan.append"), "ms");
  result.add("replan.select_ms", p50_ms("replan.select"), "ms");
  result.add("trace_overhead_frac.hourly_replan",
             plain.total_ms > 0.0 ? traced.total_ms / plain.total_ms - 1.0
                                  : 0.0,
             "fraction");
}

}  // namespace perfbench
