/// Demand forecasting: the prediction engine in isolation.
///
/// Trains the from-scratch LSTM next to the MA and ARIMA baselines on the
/// synthetic city's hourly weekday demand and prints a 24-hour forecast
/// next to the actual values — the data behind Table II / Fig. 8.
///
/// Build & run:  ./build/examples/demand_forecast

#include <iomanip>
#include <iostream>

#include <memory>
#include <vector>

#include "data/binning.h"
#include "data/synthetic_city.h"
#include "ml/factory.h"

using namespace esharing;

int main() {
  // Hourly city-wide demand over four weeks, weekdays only.
  data::CityConfig ccfg;
  ccfg.num_days = 28;
  data::SyntheticCity city(ccfg, 44);
  const auto trips = city.generate_trips();
  const auto matrix = data::bin_trips(city.grid(), city.projection(), trips,
                                      static_cast<std::size_t>(ccfg.num_days) * 24);
  const auto hourly = matrix.total_per_hour();
  ml::Series weekdays;
  for (int day = 0; day < ccfg.num_days; ++day) {
    if (data::is_weekend(day * data::kSecondsPerDay)) continue;
    for (int h = 0; h < 24; ++h) {
      weekdays.push_back(hourly[static_cast<std::size_t>(day * 24 + h)]);
    }
  }
  const auto [train, test] = ml::split(weekdays, 0.8);
  std::cout << "weekday demand series: " << weekdays.size() << " hours\n";

  // Every model comes out of the same factory; the spec fields a model
  // does not understand are ignored.
  ml::ForecasterSpec spec;
  spec.layers = 2;
  spec.hidden = 24;
  spec.lookback = 12;
  spec.seed = 44;
  spec.ma_window = 3;
  spec.arima_p = 8;
  spec.arima_d = 0;
  std::vector<std::unique_ptr<ml::Forecaster>> models;
  for (const char* name : {"lstm", "ma", "arima"}) {
    models.push_back(ml::make_forecaster(name, spec));
    models.back()->fit(train);
  }
  const ml::Forecaster& lstm = *models.front();

  std::cout << "\nrolling one-step RMSE over the test weeks:\n";
  for (const auto& model : models) {
    std::cout << "  " << std::left << std::setw(40) << model->name()
              << std::right << std::fixed << std::setprecision(1)
              << ml::evaluate_rmse(*model, train, test) << '\n';
  }

  std::cout << "\nnext 24 hours (LSTM vs actual):\n"
            << std::setw(6) << "hour" << std::setw(10) << "actual"
            << std::setw(12) << "forecast" << '\n';
  ml::Series day(test.begin(), test.begin() + 24);
  const auto preds = ml::rolling_predictions(lstm, train, day);
  for (std::size_t h = 0; h < day.size(); ++h) {
    std::cout << std::setw(6) << h << std::setw(10) << std::setprecision(0)
              << day[h] << std::setw(12) << std::setprecision(1) << preds[h]
              << '\n';
  }
  return 0;
}
