/// Fig. 8 reproduction: actual vs LSTM-predicted hourly requests for a
/// weekday and a weekend day. The best Table II configuration (2 layers,
/// lookback 12) is trained separately on the weekday and the weekend
/// series (the paper validates via the KS test that the two day types have
/// different distributions and treats them separately).

#include <algorithm>
#include <iostream>

#include "bench/prediction_data.h"
#include "bench/util.h"
#include "ml/factory.h"
#include "stats/summary.h"

using namespace esharing;

namespace {

void run_day_type(const char* label, const ml::Series& series,
                  std::uint64_t seed) {
  const auto [train, test_full] = ml::split(series, 0.8);
  // Show the first 24 test hours (one day).
  ml::Series test(test_full.begin(),
                  test_full.begin() + std::min<std::ptrdiff_t>(
                                          24, static_cast<std::ptrdiff_t>(
                                                  test_full.size())));

  ml::ForecasterSpec spec;
  spec.layers = 2;
  spec.hidden = 24;
  spec.lookback = 12;
  spec.seed = seed;
  const auto lstm = ml::make_forecaster("lstm", spec);
  lstm->fit(train);
  const auto preds = ml::rolling_predictions(*lstm, train, test);

  std::cout << '\n' << label << " (one test day, hourly):\n";
  std::cout << bench::cell("hour", 6) << bench::cell("actual", 10)
            << bench::cell("predicted", 10) << "  bar (actual #, predicted o)\n";
  bench::print_rule();
  const double peak = *std::max_element(test.begin(), test.end());
  for (std::size_t h = 0; h < test.size(); ++h) {
    std::string bar(52, ' ');
    const auto apos = static_cast<std::size_t>(
        std::clamp(test[h] / std::max(peak, 1.0), 0.0, 1.0) * 50.0);
    const auto ppos = static_cast<std::size_t>(
        std::clamp(preds[h] / std::max(peak, 1.0), 0.0, 1.0) * 50.0);
    bar[apos] = '#';
    if (bar[ppos] == ' ') bar[ppos] = 'o';
    std::cout << bench::cell(static_cast<double>(h), 6, 0)
              << bench::cell(test[h], 10, 0) << bench::cell(preds[h], 10, 1)
              << "  " << bar << '\n';
  }
  std::cout << label << " one-day RMSE: " << bench::fmt(stats::rmse(preds, test), 1)
            << '\n';
}

}  // namespace

int main() {
  const bench::MetricsSession metrics("bench_fig08_actual_vs_predicted");
  bench::print_title(
      "Fig. 8 -- actual requests vs LSTM prediction (2-layer, back=12)");
  const auto series = bench::make_demand_series(28, 2017);
  run_day_type("(a) weekday", series.weekday, 8101);
  run_day_type("(b) weekend", series.weekend, 8102);
  std::cout << "\nThe prediction tracks the diurnal pattern on both day\n"
               "types, with the weekday double rush-hour peaks and the\n"
               "weekend midday hump (paper Fig. 8).\n";
  return 0;
}
