#include "core/demand_forecast.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "exec/thread_pool.h"
#include "ml/arima.h"
#include "ml/batch.h"
#include "ml/moving_average.h"
#include "ml/seasonal_naive.h"

namespace esharing::core {

namespace {

/// Both recurrent engines share the paper's lookback of 12 hours.
constexpr std::size_t kRnnLookback = 12;

bool is_rnn(ForecastEngine e) {
  return e == ForecastEngine::kLstm || e == ForecastEngine::kGru;
}

/// A per-cell model for the statistical engines (the recurrent ones share
/// one batched model instead).
std::unique_ptr<ml::Forecaster> make_engine(ForecastEngine engine) {
  switch (engine) {
    case ForecastEngine::kSeasonalNaive:
      return std::make_unique<ml::SeasonalNaiveForecaster>(24);
    case ForecastEngine::kMovingAverage:
      return std::make_unique<ml::MovingAverageForecaster>(24);
    case ForecastEngine::kArima:
      return std::make_unique<ml::ArimaForecaster>(8, 0);
    case ForecastEngine::kLstm:
    case ForecastEngine::kGru:
      break;
  }
  throw std::invalid_argument("forecast_grid_demand: no per-cell engine");
}

/// Non-negative horizon sum — negative hourly predictions are clamped
/// before aggregation, same as the paper's arrival counts.
double horizon_sum(const ml::Series& forecast) {
  double predicted = 0.0;
  for (double v : forecast) predicted += std::max(0.0, v);
  return predicted;
}

}  // namespace

void GridForecastConfig::validate() const {
  if (horizon_hours == 0) {
    throw std::invalid_argument(
        "GridForecastConfig: horizon_hours = 0 is invalid: the placement "
        "input needs at least one predicted hour");
  }
  if (is_rnn(engine)) {
    if (rnn_hidden <= 0) {
      throw std::invalid_argument(
          "GridForecastConfig: rnn_hidden = " + std::to_string(rnn_hidden) +
          " is invalid: the recurrent engines need at least one hidden unit");
    }
    if (rnn_batch_epochs <= 0) {
      throw std::invalid_argument(
          "GridForecastConfig: rnn_batch_epochs = " +
          std::to_string(rnn_batch_epochs) +
          " is invalid: the shared fit needs at least one full-batch Adam "
          "step");
    }
  }
}

const char* forecast_engine_name(ForecastEngine e) {
  switch (e) {
    case ForecastEngine::kSeasonalNaive: return "seasonal-naive";
    case ForecastEngine::kMovingAverage: return "moving-average";
    case ForecastEngine::kArima: return "arima";
    case ForecastEngine::kLstm: return "lstm";
    case ForecastEngine::kGru: return "gru";
  }
  return "???";
}

std::vector<data::DemandSite> GridForecast::sites(const geo::Grid& grid) const {
  if (predicted_arrivals.size() != grid.cell_count()) {
    throw std::invalid_argument("GridForecast::sites: grid size mismatch");
  }
  std::vector<data::DemandSite> out;
  for (std::size_t c = 0; c < predicted_arrivals.size(); ++c) {
    if (predicted_arrivals[c] > 0.0) {
      out.push_back({grid.centroid_of(grid.cell_at(c)), predicted_arrivals[c], c});
    }
  }
  return out;
}

GridForecast forecast_grid_demand(const data::DemandMatrix& history,
                                  const geo::Grid& grid,
                                  const GridForecastConfig& config) {
  config.validate();
  if (history.n_cells() != grid.cell_count()) {
    throw std::invalid_argument(
        "forecast_grid_demand: matrix/grid cell count mismatch");
  }
  if (history.n_hours() < 48) {
    throw std::invalid_argument(
        "forecast_grid_demand: need at least two days of history");
  }

  GridForecast result;
  result.predicted_arrivals.assign(history.n_cells(), 0.0);

  // Busy cells get a model; collect them in rank order (top_cells may
  // exceed the number of cells with any arrivals).
  const auto top = history.top_cells(config.top_cells);
  const auto horizon = static_cast<double>(config.horizon_hours);
  std::vector<std::size_t> busy_cell;
  std::vector<ml::Series> busy_series;
  std::vector<double> busy_rate;
  for (std::size_t rank = 0; rank < top.size(); ++rank) {
    const std::size_t cell = top[rank];
    auto series = history.cell_series(cell);
    double cell_total = 0.0;
    for (double v : series) cell_total += v;
    if (cell_total <= 0.0) continue;
    busy_cell.push_back(cell);
    busy_rate.push_back(cell_total / static_cast<double>(series.size()));
    busy_series.push_back(std::move(series));
  }

  std::vector<double> busy_predicted(busy_cell.size(), 0.0);
  if (!busy_cell.empty() && is_rnn(config.engine)) {
    // Shared-weight recurrent model: one fit over the pooled cells, then
    // all horizons advance in fused multi-cell passes.
    ml::batch::BatchRnnConfig bc;
    bc.kind = config.engine == ForecastEngine::kLstm
                  ? ml::batch::RnnKind::kLstm
                  : ml::batch::RnnKind::kGru;
    bc.layers = 1;
    bc.hidden = config.rnn_hidden;
    bc.lookback = kRnnLookback;
    bc.epochs = config.rnn_batch_epochs;
    bc.seed = config.seed;
    ml::batch::BatchRnn model(bc);
    model.fit(busy_series);
    const auto forecasts = model.forecast(busy_series, config.horizon_hours);
    for (std::size_t i = 0; i < busy_cell.size(); ++i) {
      busy_predicted[i] = horizon_sum(forecasts[i]);
    }
  } else {
    // One statistical model per busy cell; the fits are independent, so
    // they fan out over the exec pool (per-index writes — the results are
    // identical at every pool width).
    exec::parallel_for(
        busy_cell.size(), /*grain=*/1,
        [&](std::size_t b, std::size_t e, std::size_t) {
          for (std::size_t i = b; i < e; ++i) {
            auto engine = make_engine(config.engine);
            engine->fit(busy_series[i]);
            busy_predicted[i] = horizon_sum(
                engine->forecast(busy_series[i], config.horizon_hours));
          }
        });
  }

  // Sequential rank-order fold of the modeled aggregates (deterministic
  // trend regardless of which lane fit which cell).
  double modeled_history_rate = 0.0;  // arrivals/hour over history
  double modeled_predicted = 0.0;     // arrivals over the horizon
  std::vector<bool> modeled(history.n_cells(), false);
  for (std::size_t i = 0; i < busy_cell.size(); ++i) {
    result.predicted_arrivals[busy_cell[i]] = busy_predicted[i];
    modeled[busy_cell[i]] = true;
    ++result.modeled_cells;
    modeled_history_rate += busy_rate[i];
    modeled_predicted += busy_predicted[i];
  }

  // Tail cells: historical hourly mean scaled by the busy cells' predicted
  // trend (predicted volume / history-rate-equivalent volume). Disjoint
  // per-cell writes; `modeled` is read-only from here on.
  const double expected_modeled = modeled_history_rate * horizon;
  const double trend =
      expected_modeled > 0.0 ? modeled_predicted / expected_modeled : 1.0;
  exec::parallel_for(
      history.n_cells(), /*grain=*/64,
      [&](std::size_t b, std::size_t e, std::size_t) {
        for (std::size_t cell = b; cell < e; ++cell) {
          if (modeled[cell]) continue;
          const auto series = history.cell_series(cell);
          double total = 0.0;
          for (double v : series) total += v;
          result.predicted_arrivals[cell] =
              total / static_cast<double>(series.size()) * horizon * trend;
        }
      });
  return result;
}

}  // namespace esharing::core
