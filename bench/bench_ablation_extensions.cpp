/// Extension experiments beyond the paper's evaluation:
///  (a) the polynomial penalty (the paper's stated future work: "design
///      the penalty function as high-order polynomials to approximate an
///      incoming distribution") against Types I-III on the Table III
///      workloads;
///  (b) GRU vs LSTM vs the statistical baselines on hourly demand — the
///      framework "can be integrated with any prediction engine";
///  (c) placement quality vs location-privacy budget: the offline plan is
///      computed on planar-Laplace-obfuscated destinations (Section II's
///      differential-privacy option) and evaluated on the true demand.

#include <array>
#include <iostream>

#include "bench/prediction_data.h"
#include "bench/util.h"
#include "core/deviation_placer.h"
#include "geo/spatial_index.h"
#include "ml/factory.h"
#include "ml/moving_average.h"
#include "ml/seasonal_naive.h"
#include "privacy/privacy.h"
#include "solver/jms_greedy.h"
#include "stats/rng.h"
#include "stats/spatial.h"

using namespace esharing;
using geo::Point;



int main() {
  const bench::MetricsSession metrics("bench_ablation_extensions");
  bench::print_title("Extensions -- polynomial penalty, GRU engine, privacy");

  // --- (a) polynomial penalty --------------------------------------------
  // A quadratic bump g(c) = clamp(a0 + a1 (c/L) + a2 (c/L)^2) can be fitted
  // to tolerate a mid-range band — the regime where Type III wins Table
  // III. We compare the shapes pointwise and report band coverage.
  std::cout << "\n(a) polynomial penalty vs built-ins (L = 200 m)\n";
  const double L = 200.0;
  const auto poly = core::PenaltyFunction::polynomial(L, {1.0, 0.4, -0.55});
  const auto g1 = core::PenaltyFunction::type1(L);
  const auto g2 = core::PenaltyFunction::type2(L);
  const auto g3 = core::PenaltyFunction::type3(L);
  std::cout << bench::cell("c [m]", 8) << bench::cell("TypeI", 9)
            << bench::cell("TypeII", 9) << bench::cell("TypeIII", 9)
            << bench::cell("poly", 9) << '\n';
  bench::print_rule(44);
  for (double c = 0.0; c <= 500.0 + 1e-9; c += 100.0) {
    std::cout << bench::cell(c, 8, 0) << bench::cell(g1(c), 9, 3)
              << bench::cell(g2(c), 9, 3) << bench::cell(g3(c), 9, 3)
              << bench::cell(poly(c), 9, 3) << '\n';
  }
  std::cout << "The fitted quadratic keeps g high through the mid-range band"
            << "\n(~1-1.5 L) where Type II is already 0 and Type III decays,"
            << "\nthen cuts off — the shape the paper's future work asks for.\n";

  // --- (b) GRU vs LSTM ------------------------------------------------------
  std::cout << "\n(b) alternative prediction engines (hourly weekday demand)\n";
  const auto series = bench::make_demand_series(28, 2017);
  const auto [train, test] = ml::split(series.weekday, 0.75);
  std::cout << bench::cell("model", 40) << bench::cell("RMSE", 10) << '\n';
  bench::print_rule(50);
  for (const char* name : {"lstm", "gru"}) {
    ml::ForecasterSpec spec;
    spec.layers = 2;
    spec.hidden = 24;
    spec.lookback = 12;
    spec.seed = 42;
    const auto model = ml::make_forecaster(name, spec);
    model->fit(train);
    std::cout << bench::cell(model->name(), 40)
              << bench::cell(ml::evaluate_rmse(*model, train, test), 10, 1)
              << '\n';
  }
  {
    ml::SeasonalNaiveForecaster sn(24);
    sn.fit(train);
    std::cout << bench::cell(sn.name(), 40)
              << bench::cell(ml::evaluate_rmse(sn, train, test), 10, 1)
              << '\n';
  }
  {
    ml::MovingAverageForecaster ma(1);
    ma.fit(train);
    std::cout << bench::cell(ma.name(), 40)
              << bench::cell(ml::evaluate_rmse(ma, train, test), 10, 1)
              << '\n';
  }

  // --- (c) privacy vs planning quality ---------------------------------------
  std::cout << "\n(c) offline plan computed on obfuscated demand, evaluated "
               "on true demand\n";
  std::cout << bench::cell("epsilon", 10) << bench::cell("E[noise] m", 12)
            << bench::cell("cost vs exact", 14) << '\n';
  bench::print_rule(36);
  stats::Rng rng(11);
  const auto true_pts = stats::uniform_points(rng, {{0, 0}, {3000, 3000}}, 250);
  const double f = 10000.0;
  auto plan_cost_on_true = [&](const std::vector<Point>& observed) {
    std::vector<solver::FlClient> clients;
    std::vector<double> costs;
    for (Point p : observed) {
      clients.push_back({p, 1.0});
      costs.push_back(f);
    }
    const auto plan =
        solver::jms_greedy(solver::colocated_instance(clients, costs));
    std::vector<Point> open;
    for (std::size_t i : plan.open) open.push_back(observed[i]);
    const geo::SpatialIndex open_index(open);
    double walking = 0.0;
    for (Point p : true_pts) {
      walking += geo::distance(open[open_index.nearest(p)], p);
    }
    return walking + static_cast<double>(open.size()) * f;
  };
  const double exact_cost = plan_cost_on_true(true_pts);
  for (double eps : {0.1, 0.02, 0.01, 0.005, 0.002}) {
    privacy::PlanarLaplace mech(eps);
    stats::Rng noise_rng(12);
    std::vector<Point> observed;
    observed.reserve(true_pts.size());
    for (Point p : true_pts) observed.push_back(mech.obfuscate(p, noise_rng));
    const double cost = plan_cost_on_true(observed);
    const double pct = 100.0 * (cost - exact_cost) / exact_cost;
    std::cout << bench::cell(eps, 10, 3)
              << bench::cell(mech.expected_displacement(), 12, 0)
              << bench::cell(std::string(pct >= 0 ? "+" : "") + bench::fmt(pct, 1) + "%",
                             14)
              << '\n';
  }
  std::cout << "\nModerate geo-indistinguishability (noise well under the\n"
               "inter-station spacing) costs little placement quality; the\n"
               "degradation grows once the noise reaches station spacing.\n";
  return 0;
}
