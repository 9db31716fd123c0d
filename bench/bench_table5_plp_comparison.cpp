/// Table V reproduction: mean number of parkings and cost breakdown (km)
/// across regions for Offline* / Meyerson / Online k-means / E-sharing
/// (actual) / E-sharing (predicted).
///
/// Paper's Table V shape: offline 16 parkings* is the lower bound;
/// E-sharing opens ~25 (23% fewer than Meyerson's ~33, 44% fewer than
/// k-means' ~45); E-sharing total cost is ~25% below Meyerson and ~74%
/// below online k-means, within 20-25% of the offline bound; predictions
/// cost only a few percent extra; average walking distance stays around a
/// 2-minute walk.

#include <array>
#include <iostream>

#include "bench/plp_compare.h"
#include "bench/util.h"
#include "stats/summary.h"

using namespace esharing;

int main() {
  const bench::MetricsSession metrics("bench_table5_plp_comparison");
  bench::print_title("Table V -- comparison of #parking and costs (km)");
  const auto scenarios = bench::make_scenarios(8, 1013);
  std::cout << "regions: " << scenarios.size() << " (values are means)\n\n";

  constexpr std::size_t kMethods = 5;
  std::array<stats::Accumulator, kMethods> parkings, walking, space, total;
  std::array<std::string, kMethods> names;
  double live_requests_total = 0.0;

  for (std::size_t r = 0; r < scenarios.size(); ++r) {
    const auto& s = scenarios[r];
    const std::uint64_t seed = 5000 + r;
    const std::array<bench::MethodResult, kMethods> results{
        bench::run_offline_oracle(s), bench::run_meyerson(s, seed),
        bench::run_online_kmeans(s, seed),
        bench::run_esharing(s, /*predicted=*/false, seed),
        bench::run_esharing(s, /*predicted=*/true, seed)};
    for (std::size_t m = 0; m < kMethods; ++m) {
      names[m] = results[m].method;
      parkings[m].add(results[m].parkings);
      walking[m].add(results[m].walking_km);
      space[m].add(results[m].space_km);
      total[m].add(results[m].total_km());
    }
    live_requests_total += static_cast<double>(s.live_requests.size());
  }

  std::cout << bench::cell("method", 24) << bench::cell("#parking", 10)
            << bench::cell("walking", 10) << bench::cell("space", 10)
            << bench::cell("total", 10) << '\n';
  bench::print_rule(64);
  for (std::size_t m = 0; m < kMethods; ++m) {
    std::cout << bench::cell(names[m] + (m == 0 ? "*" : ""), 24)
              << bench::cell(parkings[m].mean(), 10, 1)
              << bench::cell(walking[m].mean(), 10, 1)
              << bench::cell(space[m].mean(), 10, 1)
              << bench::cell(total[m].mean(), 10, 1) << '\n';
  }
  bench::print_rule(64);

  const double vs_meyerson =
      100.0 * (total[1].mean() - total[3].mean()) / total[1].mean();
  const double vs_kmeans =
      100.0 * (total[2].mean() - total[3].mean()) / total[2].mean();
  const double vs_offline =
      100.0 * (total[3].mean() - total[0].mean()) / total[0].mean();
  const double vs_offline_pred =
      100.0 * (total[4].mean() - total[0].mean()) / total[0].mean();
  const double pred_penalty =
      100.0 * (total[4].mean() - total[3].mean()) / total[3].mean();
  const double avg_walk_m = 1000.0 * walking[3].mean() *
                            static_cast<double>(scenarios.size()) /
                            std::max(live_requests_total, 1.0);

  std::cout << "E-sharing vs Meyerson total:        -"
            << bench::fmt(vs_meyerson, 1) << "%   (paper: -25%)\n"
            << "E-sharing vs online k-means total:  -"
            << bench::fmt(vs_kmeans, 1) << "%   (paper: -74%)\n"
            << "E-sharing (actual) over offline*:   +"
            << bench::fmt(vs_offline, 1) << "%   (paper: within 20%)\n"
            << "E-sharing (predicted) over offline*: +"
            << bench::fmt(vs_offline_pred, 1) << "%  (paper: within 25%)\n"
            << "prediction error cost penalty:      +"
            << bench::fmt(pred_penalty, 1) << "%   (paper: ~6%)\n"
            << "mean walk per E-sharing request:    "
            << bench::fmt(avg_walk_m, 0) << " m  (paper: ~180 m)\n";

  return 0;
}
