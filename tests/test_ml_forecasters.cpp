#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "ml/arima.h"
#include "ml/forecaster.h"
#include "ml/moving_average.h"
#include "ml/seasonal_naive.h"
#include "stats/rng.h"

namespace esharing::ml {
namespace {

Series sine_series(std::size_t n, double period, double amp = 10.0,
                   double offset = 20.0) {
  Series s;
  s.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    s.push_back(offset +
                amp * std::sin(2.0 * std::numbers::pi * static_cast<double>(t) / period));
  }
  return s;
}

TEST(MovingAverage, ValidatesWindow) {
  EXPECT_THROW(MovingAverageForecaster(0), std::invalid_argument);
}

TEST(MovingAverage, PredictsMeanOfWindow) {
  MovingAverageForecaster ma(3);
  ma.fit({1.0});
  const Series h{1, 2, 3, 4, 5, 6};
  EXPECT_DOUBLE_EQ(ma.forecast(h, 1)[0], 5.0);  // mean of {4,5,6}
}

TEST(MovingAverage, ShortHistoryUsesWhatExists) {
  MovingAverageForecaster ma(10);
  ma.fit({1.0});
  EXPECT_DOUBLE_EQ(ma.forecast({2.0, 4.0}, 1)[0], 3.0);
}

TEST(MovingAverage, MultiHorizonIsRecursive) {
  MovingAverageForecaster ma(2);
  ma.fit({1.0});
  const auto f = ma.forecast({2.0, 4.0}, 3);
  EXPECT_DOUBLE_EQ(f[0], 3.0);            // mean(2,4)
  EXPECT_DOUBLE_EQ(f[1], 3.5);            // mean(4,3)
  EXPECT_DOUBLE_EQ(f[2], 3.25);           // mean(3,3.5)
}

TEST(MovingAverage, ConstantSeriesIsExact) {
  MovingAverageForecaster ma(4);
  const Series train(50, 7.0), test(10, 7.0);
  ma.fit(train);
  EXPECT_DOUBLE_EQ(evaluate_rmse(ma, train, test), 0.0);
}

TEST(MovingAverage, EmptyHistoryThrows) {
  MovingAverageForecaster ma(2);
  ma.fit({1.0});
  EXPECT_THROW((void)ma.forecast({}, 1), std::invalid_argument);
}

TEST(Arima, ValidatesParameters) {
  EXPECT_THROW(ArimaForecaster(0, 0), std::invalid_argument);
  EXPECT_THROW(ArimaForecaster(2, -1), std::invalid_argument);
}

TEST(Arima, MustFitBeforeForecast) {
  ArimaForecaster ar(2, 0);
  EXPECT_THROW((void)ar.forecast({1, 2, 3}, 1), std::logic_error);
}

TEST(Arima, RecoversAr1Coefficient) {
  // x_t = 5 + 0.8 x_{t-1} + noise
  stats::Rng rng(1);
  Series s{10.0};
  for (int t = 1; t < 600; ++t) {
    s.push_back(5.0 + 0.8 * s.back() + rng.normal(0.0, 0.3));
  }
  ArimaForecaster ar(1, 0);
  ar.fit(s);
  EXPECT_NEAR(ar.coefficients()[0], 0.8, 0.05);
  EXPECT_NEAR(ar.intercept(), 5.0, 1.5);
}

TEST(Arima, D1HandlesLinearTrendExactly) {
  // Linear trend: first difference is constant; AR on it forecasts the
  // trend continuation.
  Series s;
  for (int t = 0; t < 60; ++t) s.push_back(3.0 * t + 10.0);
  ArimaForecaster ar(2, 1);
  ar.fit(s);
  const auto f = ar.forecast(s, 3);
  EXPECT_NEAR(f[0], 3.0 * 60 + 10.0, 0.5);
  EXPECT_NEAR(f[2], 3.0 * 62 + 10.0, 1.0);
}

TEST(Arima, BeatsNaiveOnAutocorrelatedSeries) {
  stats::Rng rng(2);
  Series s{0.0};
  for (int t = 1; t < 500; ++t) {
    s.push_back(0.9 * s.back() + rng.normal(0.0, 1.0));
  }
  const auto [train, test] = split(s, 0.8);
  ArimaForecaster ar(2, 0);
  ar.fit(train);
  const double ar_rmse = evaluate_rmse(ar, train, test);
  // "Naive mean" forecaster: MA over a huge window collapses to the mean.
  MovingAverageForecaster mean_model(10000);
  mean_model.fit(train);
  const double mean_rmse = evaluate_rmse(mean_model, train, test);
  EXPECT_LT(ar_rmse, mean_rmse);
}

TEST(Arima, ForecastHistoryTooShortThrows) {
  ArimaForecaster ar(4, 1);
  Series s;
  for (int t = 0; t < 60; ++t) s.push_back(static_cast<double>(t % 7));
  ar.fit(s);
  EXPECT_THROW((void)ar.forecast({1.0, 2.0}, 1), std::invalid_argument);
}

TEST(Arima, FitSeriesTooShortThrows) {
  ArimaForecaster ar(5, 2);
  EXPECT_THROW(ar.fit({1, 2, 3, 4, 5, 6}), std::invalid_argument);
}

TEST(RollingEvaluation, UsesActualHistoryEachStep) {
  // A window-1 MA predicts exactly the previous actual value; rolling
  // predictions must therefore equal the test shifted by one.
  MovingAverageForecaster ma(1);
  const Series train{1, 2, 3};
  const Series test{10, 20, 30};
  ma.fit(train);
  const auto preds = rolling_predictions(ma, train, test);
  ASSERT_EQ(preds.size(), 3u);
  EXPECT_DOUBLE_EQ(preds[0], 3.0);
  EXPECT_DOUBLE_EQ(preds[1], 10.0);
  EXPECT_DOUBLE_EQ(preds[2], 20.0);
}

TEST(RollingEvaluation, EmptyTestThrows) {
  MovingAverageForecaster ma(1);
  ma.fit({1.0});
  EXPECT_THROW((void)rolling_predictions(ma, {1.0}, {}), std::invalid_argument);
}

TEST(ForecasterNames, AreDescriptive) {
  EXPECT_EQ(MovingAverageForecaster(3).name(), "MA(wz=3)");
  EXPECT_EQ(ArimaForecaster(4, 1).name(), "ARIMA(p=4,d=1)");
}

TEST(HorizonEvaluation, HorizonOneMatchesOneStepRmse) {
  const Series s = sine_series(300, 24.0);
  const auto [train, test] = split(s, 0.8);
  ArimaForecaster ar(6, 0);
  ar.fit(train);
  EXPECT_NEAR(evaluate_rmse_at_horizon(ar, train, test, 1),
              evaluate_rmse(ar, train, test), 1e-9);
}

TEST(HorizonEvaluation, ErrorGrowsWithLead) {
  // Noisy AR process: longer leads must be harder (the paper evaluates
  // "the next 1 to 6 hours").
  stats::Rng rng(9);
  Series s{0.0};
  for (int t = 1; t < 600; ++t) {
    s.push_back(0.85 * s.back() + rng.normal(0.0, 1.0));
  }
  const auto [train, test] = split(s, 0.8);
  ArimaForecaster ar(4, 0);
  ar.fit(train);
  const double h1 = evaluate_rmse_at_horizon(ar, train, test, 1);
  const double h6 = evaluate_rmse_at_horizon(ar, train, test, 6);
  EXPECT_GT(h6, h1);
}

TEST(HorizonEvaluation, Validates) {
  MovingAverageForecaster ma(2);
  ma.fit({1.0});
  EXPECT_THROW((void)evaluate_rmse_at_horizon(ma, {1, 2}, {3, 4}, 0),
               std::invalid_argument);
  EXPECT_THROW((void)evaluate_rmse_at_horizon(ma, {1, 2}, {3}, 2),
               std::invalid_argument);
}

TEST(Arima, PeriodicSeriesForecastableWithEnoughLags) {
  const Series s = sine_series(400, 24.0);
  const auto [train, test] = split(s, 0.8);
  ArimaForecaster ar(8, 0);
  ar.fit(train);
  // One-step RMSE far below the signal amplitude.
  EXPECT_LT(evaluate_rmse(ar, train, test), 1.0);
}

TEST(SeasonalNaive, RepeatsLastSeason) {
  SeasonalNaiveForecaster sn(3);
  sn.fit({1.0});
  const auto f = sn.forecast({10, 20, 30, 40, 50, 60}, 4);
  EXPECT_DOUBLE_EQ(f[0], 40.0);
  EXPECT_DOUBLE_EQ(f[1], 50.0);
  EXPECT_DOUBLE_EQ(f[2], 60.0);
  EXPECT_DOUBLE_EQ(f[3], 40.0);  // recursion wraps into its own forecasts
}

TEST(SeasonalNaive, PerfectOnExactlyPeriodicSeries) {
  const Series s = sine_series(96, 24.0);
  const auto [train, test] = split(s, 0.75);
  SeasonalNaiveForecaster sn(24);
  sn.fit(train);
  EXPECT_NEAR(evaluate_rmse(sn, train, test), 0.0, 1e-9);
}

TEST(SeasonalNaive, Validates) {
  EXPECT_THROW(SeasonalNaiveForecaster(0), std::invalid_argument);
  SeasonalNaiveForecaster sn(24);
  sn.fit({1.0});
  EXPECT_THROW((void)sn.forecast({1, 2, 3}, 1), std::invalid_argument);
  EXPECT_THROW(sn.fit({}), std::invalid_argument);
  EXPECT_EQ(sn.name(), "SeasonalNaive(period=24)");
}

}  // namespace
}  // namespace esharing::ml
