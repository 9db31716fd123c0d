#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "ml/factory.h"
#include "ml/batch.h"
#include "ml/moving_average.h"

namespace esharing::ml {
namespace {

Series synthetic_series(std::size_t n) {
  Series s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    s.push_back(50.0 + 30.0 * std::sin(t * 2.0 * 3.14159265358979 / 24.0) +
                5.0 * std::sin(t * 0.7));
  }
  return s;
}

TEST(MlFactory, KnownNamesAreSortedAndConstructible) {
  const auto names = forecaster_names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const auto& name : names) {
    SCOPED_TRACE("model: " + name);
    const auto model = make_forecaster(name);
    ASSERT_NE(model, nullptr);
    EXPECT_FALSE(model->name().empty());
  }
}

TEST(MlFactory, EveryModelFitsAndForecasts) {
  const Series series = synthetic_series(240);
  const auto [train, test] = split(series, 0.8);
  ForecasterSpec spec;
  spec.epochs = 3;  // keep the NN models fast; this is a smoke test
  spec.lookback = 6;
  spec.hidden = 8;
  for (const auto& name : forecaster_names()) {
    SCOPED_TRACE("model: " + name);
    const auto model = make_forecaster(name, spec);
    model->fit(train);
    const double rmse = evaluate_rmse(*model, train, test);
    EXPECT_TRUE(std::isfinite(rmse));
    EXPECT_GE(rmse, 0.0);
  }
}

TEST(MlFactory, UnknownNameThrowsWithKnownNamesListed) {
  try {
    (void)make_forecaster("prophet");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("prophet"), std::string::npos);
    EXPECT_NE(what.find("lstm"), std::string::npos);
    EXPECT_NE(what.find("seasonal_naive"), std::string::npos);
  }
}

TEST(MlFactory, FactoryLstmMatchesDirectConstruction) {
  const Series series = synthetic_series(200);
  const auto [train, test] = split(series, 0.8);

  ForecasterSpec spec;
  spec.layers = 1;
  spec.hidden = 8;
  spec.lookback = 6;
  spec.epochs = 4;
  spec.learning_rate = 5e-3;
  spec.seed = 7;
  const auto from_factory = make_forecaster("lstm", spec);

  batch::BatchRnnConfig config;
  config.kind = batch::RnnKind::kLstm;
  config.layers = 1;
  config.hidden = 8;
  config.lookback = 6;
  config.epochs = 4;
  config.learning_rate = 5e-3;
  config.seed = 7;
  batch::BatchRnn direct(config);

  from_factory->fit(train);
  direct.fit({train});
  EXPECT_EQ(from_factory->name(), direct.name());
  // Same config + same seed -> bit-identical training, so the rolling
  // predictions agree exactly with the one-cell batch path.
  const Series a = rolling_predictions(*from_factory, train, test);
  Series history = train;
  for (std::size_t i = 0; i < test.size(); ++i) {
    EXPECT_EQ(a[i], direct.forecast_one(history, 1)[0]) << "step " << i;
    history.push_back(test[i]);
  }
}

TEST(MlFactory, SpecFieldsReachTheModel) {
  ForecasterSpec spec;
  spec.ma_window = 5;
  const auto ma = make_forecaster("ma", spec);
  const Series series = synthetic_series(60);
  ma->fit(series);
  // Same window -> identical one-step forecast.
  MovingAverageForecaster fitted(5);
  fitted.fit(series);
  EXPECT_EQ(ma->forecast(series, 1), fitted.forecast(series, 1));
  EXPECT_EQ(ma->name(), fitted.name());
}

}  // namespace
}  // namespace esharing::ml
