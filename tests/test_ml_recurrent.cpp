/// The "lstm" / "gru" forecasters (make_forecaster over a one-cell
/// BatchRnn), one suite parameterized over both names:
///
///   * spec validation (including a non-positive learning rate), lifecycle
///     and input-length guards;
///   * learning: a sine series is forecast better than by a moving average;
///   * determinism, multi-horizon length and the scaler round trip.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>
#include <ostream>
#include <stdexcept>

#include "ml/factory.h"
#include "ml/moving_average.h"

namespace esharing::ml {
namespace {

Series sine_series(std::size_t n, double period, double amp = 10.0,
                   double offset = 20.0) {
  Series s;
  s.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    s.push_back(offset + amp * std::sin(2.0 * std::numbers::pi *
                                        static_cast<double>(t) / period));
  }
  return s;
}

ForecasterSpec tiny_spec() {
  ForecasterSpec spec;
  spec.layers = 1;
  spec.hidden = 6;
  spec.lookback = 4;
  spec.epochs = 5;
  spec.seed = 3;
  return spec;
}

// The factory name of the engine under test. Printed bare (no quotes) so
// the discovered test names read ".../lstm" and ".../gru".
struct RnnKind {
  const char* name;
};

void PrintTo(const RnnKind& kind, std::ostream* os) { *os << kind.name; }

class MlBatchForecaster : public ::testing::TestWithParam<RnnKind> {
 protected:
  [[nodiscard]] std::unique_ptr<Forecaster> make(
      const ForecasterSpec& spec = tiny_spec()) const {
    return make_forecaster(GetParam().name, spec);
  }
};

TEST_P(MlBatchForecaster, ValidatesSpec) {
  const auto expect_rejects = [&](auto mutate) {
    ForecasterSpec bad = tiny_spec();
    mutate(bad);
    EXPECT_THROW((void)make(bad), std::invalid_argument);
  };
  expect_rejects([](ForecasterSpec& s) { s.layers = 0; });
  expect_rejects([](ForecasterSpec& s) { s.hidden = 0; });
  expect_rejects([](ForecasterSpec& s) { s.lookback = 0; });
  expect_rejects([](ForecasterSpec& s) { s.epochs = 0; });
  expect_rejects([](ForecasterSpec& s) { s.learning_rate = 0.0; });
  expect_rejects([](ForecasterSpec& s) { s.learning_rate = -1e-3; });
}

TEST_P(MlBatchForecaster, LifecycleGuards) {
  const auto model = make();
  EXPECT_THROW((void)model->forecast({1, 2, 3, 4, 5}, 1), std::logic_error);
}

TEST_P(MlBatchForecaster, RejectsTooShortSeriesAndHistory) {
  const auto model = make();
  EXPECT_THROW(model->fit({1, 2, 3}), std::invalid_argument);
  model->fit(sine_series(40, 8.0));
  EXPECT_THROW((void)model->forecast({1, 2}, 1), std::invalid_argument);
}

TEST_P(MlBatchForecaster, LearnsSineBetterThanMovingAverage) {
  const Series s = sine_series(260, 24.0);
  const auto [train, test] = split(s, 0.8);

  ForecasterSpec spec;
  spec.layers = 1;
  spec.hidden = 16;
  spec.lookback = 12;
  spec.seed = 7;
  const auto model = make(spec);
  model->fit(train);
  const double rnn_rmse = evaluate_rmse(*model, train, test);

  MovingAverageForecaster ma(3);
  ma.fit(train);
  EXPECT_LT(rnn_rmse, evaluate_rmse(ma, train, test));
  EXPECT_LT(rnn_rmse, 2.0);  // amplitude is 10; good fits land well below
}

TEST_P(MlBatchForecaster, DeterministicForSameSeed) {
  const Series train = sine_series(80, 12.0);
  const auto a = make();
  const auto b = make();
  a->fit(train);
  b->fit(train);
  EXPECT_EQ(a->forecast(train, 3), b->forecast(train, 3));
}

TEST_P(MlBatchForecaster, MultiHorizonForecastHasRequestedLength) {
  const auto model = make();
  const Series train = sine_series(60, 12.0);
  model->fit(train);
  EXPECT_EQ(model->forecast(train, 6).size(), 6u);
}

TEST_P(MlBatchForecaster, ForecastStaysOnSeriesScale) {
  // Forecasts of a series centered at 20 must come back near 20, proving
  // the scaler round trip works.
  ForecasterSpec spec = tiny_spec();
  spec.epochs = 10;
  const auto model = make(spec);
  const Series train = sine_series(120, 24.0, 2.0, 20.0);
  model->fit(train);
  const double f = model->forecast(train, 1)[0];
  EXPECT_GT(f, 10.0);
  EXPECT_LT(f, 30.0);
}

INSTANTIATE_TEST_SUITE_P(Kinds, MlBatchForecaster,
                         ::testing::Values(RnnKind{"lstm"}, RnnKind{"gru"}));

}  // namespace
}  // namespace esharing::ml
