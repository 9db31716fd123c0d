#include "ml/factory.h"

#include <stdexcept>

#include "ml/arima.h"
#include "ml/batch.h"
#include "ml/moving_average.h"
#include "ml/seasonal_naive.h"

namespace esharing::ml {

namespace {

/// "lstm" / "gru": a one-cell BatchRnn behind the Forecaster interface —
/// the training series is a batch of one, and every forecast runs the
/// batch=1 reference path (forecast_one).
class RecurrentForecaster final : public Forecaster {
 public:
  RecurrentForecaster(batch::RnnKind kind, const ForecasterSpec& spec)
      : model_(config(kind, spec)) {}

  void fit(const Series& train) override { model_.fit({train}); }

  [[nodiscard]] Series forecast(const Series& history,
                                std::size_t horizon) const override {
    return model_.forecast_one(history, horizon);
  }

  [[nodiscard]] std::string name() const override { return model_.name(); }

 private:
  static batch::BatchRnnConfig config(batch::RnnKind kind,
                                      const ForecasterSpec& spec) {
    batch::BatchRnnConfig c;
    c.kind = kind;
    c.layers = spec.layers;
    c.hidden = spec.hidden;
    c.lookback = spec.lookback;
    c.epochs = spec.epochs;
    c.learning_rate = spec.learning_rate;
    c.seed = spec.seed;
    return c;
  }

  batch::BatchRnn model_;
};

}  // namespace

std::unique_ptr<Forecaster> make_forecaster(std::string_view name,
                                            const ForecasterSpec& spec) {
  if (name == "ma") {
    return std::make_unique<MovingAverageForecaster>(spec.ma_window);
  }
  if (name == "arima") {
    return std::make_unique<ArimaForecaster>(spec.arima_p, spec.arima_d);
  }
  if (name == "lstm") {
    return std::make_unique<RecurrentForecaster>(batch::RnnKind::kLstm, spec);
  }
  if (name == "gru") {
    return std::make_unique<RecurrentForecaster>(batch::RnnKind::kGru, spec);
  }
  if (name == "seasonal_naive") {
    return std::make_unique<SeasonalNaiveForecaster>(spec.period);
  }
  std::string known;
  for (const std::string& n : forecaster_names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw std::invalid_argument("make_forecaster: unknown model '" +
                              std::string(name) + "'; known: " + known);
}

std::vector<std::string> forecaster_names() {
  return {"arima", "gru", "lstm", "ma", "seasonal_naive"};
}

}  // namespace esharing::ml
