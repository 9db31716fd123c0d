/// Batched forecasting runtime bench — the tentpole number behind the
/// ml/batch engine: refresh every modeled cell of a 100x100-cell city's
/// hourly forecast in one fused batched pass and compare against running
/// the same model one cell at a time (BatchRnn::forecast_one, the batch=1
/// path the "lstm"/"gru" forecasters use). The sweep covers cells x hidden
/// x kernel widths; every cell of the table re-checks the determinism
/// contract (forecast_one bit-equals its batch row, widths bit-agree).
/// A third gate holds the pool to paying for itself: at the largest city
/// (hidden 16) the auto-width refresh may take at most 1.1x the width-1
/// time — the slack covers single-core runners, where auto is width 1.
/// All three gates drive the exit code, so CI's bench-smoke run fails
/// loudly when the runtime loses its speedup, its pool scaling or its
/// equivalence guarantees.
///
/// The per-cell baseline times forecast_one on a deterministic subsample
/// of cells and extrapolates linearly to the full city (documented in the
/// output); per-cell inference is embarrassingly parallel with zero shared
/// state, so linear extrapolation is generous to the baseline — the
/// measured speedup is a floor.
///
/// Stdout carries only what is deterministic (the sweep's shape, the
/// equivalence checks and each gate's verdict), so two runs print the same
/// bytes; every wall-clock number goes to stderr after the sweep.
///
/// Reduced sizes for CI: ESHARING_FORECAST_BENCH_CELLS caps the largest
/// city swept (default 10000 = the paper's 100x100 grid);
/// ESHARING_FORECAST_BENCH_REPS sets best-of reps (default 3).

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/util.h"
#include "ml/batch.h"

using namespace esharing;
using ml::Series;

namespace {

constexpr std::size_t kLookback = 12;
constexpr std::size_t kHistoryHours = 48;   // per-cell forecast history
constexpr std::size_t kFitCells = 64;       // pooled series behind one fit
constexpr std::size_t kFitHours = 120;
constexpr std::size_t kBaselineSample = 256;  // per-cell timing subsample

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

/// Diurnal hourly demand with a per-cell phase, amplitude and level —
/// the same family the MlBatch tests fit.
Series cell_series(std::size_t cell, std::size_t hours) {
  Series s(hours);
  const double phase = static_cast<double>(cell) * 1.7;
  const double amp = 4.0 + static_cast<double>(cell % 5);
  const double offset = 10.0 + 3.0 * static_cast<double>(cell % 7);
  for (std::size_t t = 0; t < hours; ++t) {
    s[t] = offset +
           amp * std::sin(2.0 * 3.141592653589793 *
                              static_cast<double>(t % 24) / 24.0 +
                          phase);
  }
  return s;
}

std::vector<Series> city(std::size_t cells, std::size_t hours) {
  std::vector<Series> out;
  out.reserve(cells);
  for (std::size_t c = 0; c < cells; ++c) out.push_back(cell_series(c, hours));
  return out;
}

/// Best-of-`reps` wall time of `fn` in milliseconds.
template <typename Fn>
double time_ms(Fn&& fn, std::size_t reps) {
  double best = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

bool same_forecasts(const std::vector<Series>& a, const std::vector<Series>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace

int main() {
  const bench::MetricsSession metrics("bench_forecast_batch");
  const std::size_t max_cells = env_size("ESHARING_FORECAST_BENCH_CELLS", 10000);
  const std::size_t reps = env_size("ESHARING_FORECAST_BENCH_REPS", 3);

  bench::print_title(
      "batched forecasting runtime: fused multi-cell refresh vs per-cell");
  std::cout << "hourly refresh (horizon 1) over every cell; per-cell column is\n"
            << "forecast_one (one cell at a time) timed on " << kBaselineSample
            << " cells and\n"
            << "extrapolated linearly (generous to the baseline).\n\n";

  std::vector<std::size_t> cell_sweep;
  if (max_cells > 10) cell_sweep.push_back(max_cells / 10);
  cell_sweep.push_back(max_cells);

  bool all_identical = true;
  bool speedup_ok = false;
  bool pool_ok = false;
  double headline_batch = 0.0;
  double headline_serial = 0.0;
  double headline_percell = 0.0;
  std::ostringstream timings;  // wall-clock rows, printed to stderr last

  for (const int hidden : {8, 16}) {
    // One shared-weight fit per hidden size; forecasts reuse it across the
    // cell sweep (histories need not be the fit series).
    ml::batch::BatchRnnConfig cfg;
    cfg.kind = ml::batch::RnnKind::kLstm;
    cfg.layers = 1;
    cfg.hidden = hidden;
    cfg.lookback = kLookback;
    cfg.epochs = 12;
    cfg.seed = 1;
    ml::batch::BatchRnn model(cfg);
    model.fit(city(kFitCells, kFitHours));

    std::cout << "hidden " << hidden << " (shared fit over " << kFitCells
              << " cells, " << model.param_count() << " params)\n";
    std::cout << bench::cell("cells", 8) << bench::cell("width", 7)
              << bench::cell("identical", 11) << '\n';
    bench::print_rule(26);
    timings << "hidden " << hidden << '\n'
            << bench::cell("cells", 8) << bench::cell("width", 7)
            << bench::cell("batch ms", 11) << bench::cell("percell ms", 12)
            << bench::cell("speedup", 9) << '\n';

    for (const std::size_t cells : cell_sweep) {
      const auto histories = city(cells, kHistoryHours);

      // Per-cell baseline on a subsample, extrapolated: the same model, one
      // cell at a time. Fit cost is excluded from both sides — the table
      // times the hourly refresh only.
      const std::size_t sample =
          cells < kBaselineSample ? cells : kBaselineSample;
      double baseline_sink = 0.0;
      const double sample_ms = time_ms(
          [&] {
            for (std::size_t c = 0; c < sample; ++c) {
              baseline_sink += model.forecast_one(histories[c], 1).front();
            }
          },
          reps);
      // Finite-sum sanity doubles as a sink so the loop cannot be elided.
      all_identical = all_identical && std::isfinite(baseline_sink);
      const double percell_ms =
          sample_ms * static_cast<double>(cells) / static_cast<double>(sample);

      // Width sweep: 0 = auto lanes. All widths must agree bitwise.
      const auto ref = model.forecast(histories, 1, /*width=*/1);
      bool widths_identical = true;
      for (const std::size_t width :
           {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{0}}) {
        std::vector<Series> out;
        const double batch_ms =
            time_ms([&] { out = model.forecast(histories, 1, width); }, reps);
        widths_identical = widths_identical && same_forecasts(out, ref);

        // forecast_one must bit-equal its batch row (spot-check the head).
        bool one_identical = true;
        for (std::size_t c = 0; c < (cells < 8 ? cells : 8); ++c) {
          one_identical =
              one_identical && model.forecast_one(histories[c], 1) == out[c];
        }
        const bool identical = widths_identical && one_identical;
        all_identical = all_identical && identical;

        if (hidden == 16 && cells == max_cells && width == 1) {
          headline_serial = batch_ms;
        }
        if (hidden == 16 && cells == max_cells && width == 0) {
          headline_batch = batch_ms;
          headline_percell = percell_ms;
          speedup_ok = percell_ms >= 10.0 * batch_ms;
          pool_ok = batch_ms <= 1.1 * headline_serial;
        }
        const std::string row =
            bench::cell(std::to_string(cells), 8) +
            bench::cell(width == 0 ? "auto" : std::to_string(width), 7);
        std::cout << row << bench::cell(identical ? "yes" : "NO", 11) << '\n';
        timings << row << bench::cell(batch_ms, 11, 3)
                << bench::cell(percell_ms, 12, 2)
                << bench::cell(percell_ms / batch_ms, 9, 1) << '\n';
      }
    }
    bench::print_rule(26);
  }

  std::cerr << timings.str() << "headline (" << max_cells
            << " cells, hidden 16, auto width): "
            << bench::fmt(headline_batch, 3) << " ms batched vs "
            << bench::fmt(headline_percell, 2) << " ms per-cell ("
            << bench::fmt(headline_percell / headline_batch, 1) << "x)\n"
            << "pool gate: " << bench::fmt(headline_batch, 3)
            << " ms auto vs " << bench::fmt(headline_serial, 3)
            << " ms width 1\n";
  std::cout << '\n' << (all_identical
                    ? "equivalence: forecast_one and all widths bit-matched\n"
                    : "equivalence: MISMATCH (determinism contract violated)\n");
  std::cout << (speedup_ok ? "speedup gate (>= 10x): passed\n"
                           : "speedup gate (>= 10x): FAILED\n");
  std::cout << (pool_ok ? "pool gate (auto <= 1.1x width 1): passed\n"
                        : "pool gate (auto <= 1.1x width 1): FAILED\n");
  return (all_identical && speedup_ok && pool_ok) ? 0 : 1;
}
