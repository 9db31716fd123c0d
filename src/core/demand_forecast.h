#pragma once

/// \file demand_forecast.h
/// Per-grid demand forecasting: the bridge between the prediction engine
/// (Table II's models) and the offline PLP input. The paper forecasts "for
/// each grid ... the future k steps" and feeds the predictions into the
/// placement algorithm; this module models only the busy cells (the
/// candidate space is "reduced to filter out those less popular
/// locations") — one statistical model per cell, or one shared recurrent
/// model over all of them — predicts the next horizon of hourly arrivals,
/// and emits the predicted DemandSite set plan_offline() consumes. Quiet
/// cells fall back to their historical mean scaled by the busy cells'
/// predicted volume trend.

// analyze-ok: reachability no shipped binary calls the per-grid forecast
// yet; ROADMAP item 8 decides between it and the stream driver's forecast
// refresh for the daemon's re-plan loop.

#include <cstddef>
#include <vector>

#include "data/binning.h"
#include "geo/grid.h"
#include "ml/forecaster.h"

namespace esharing::core {

enum class ForecastEngine { kSeasonalNaive, kMovingAverage, kArima, kLstm, kGru };

[[nodiscard]] const char* forecast_engine_name(ForecastEngine e);

// analyze-ok: knob-reach waits on ROADMAP item 8, like this header's reachability waiver
struct GridForecastConfig {
  ForecastEngine engine{ForecastEngine::kSeasonalNaive};
  std::size_t top_cells{50};   ///< fit a model only for the busiest cells
  std::size_t horizon_hours{24};
  /// kLstm/kGru: the modeled cells share one batched recurrent model
  /// (ml/batch.h) — one fit over the pooled cells, one fused forward per
  /// horizon step across all of them, per-cell scalers kept.
  int rnn_hidden{12};
  /// Full-batch Adam steps of that shared fit.
  int rnn_batch_epochs{40};
  std::uint64_t seed{1};

  /// \throws std::invalid_argument on the first violated constraint
  ///         (forecast_grid_demand calls this first).
  void validate() const;
};

struct GridForecast {
  /// Predicted arrivals per grid cell summed over the horizon.
  std::vector<double> predicted_arrivals;
  std::size_t modeled_cells{0};  ///< cells that got their own forecaster

  /// Demand sites (cells with positive predicted arrivals) for
  /// ESharing::plan_offline().
  [[nodiscard]] std::vector<data::DemandSite> sites(const geo::Grid& grid) const;
};

/// Forecast the next `config.horizon_hours` of arrivals per cell from the
/// historical (cells x hours) matrix.
/// \throws std::invalid_argument if the matrix is too short for the chosen
///         engine or grid/matrix sizes mismatch.
[[nodiscard]] GridForecast forecast_grid_demand(const data::DemandMatrix& history,
                                                const geo::Grid& grid,
                                                const GridForecastConfig& config);

}  // namespace esharing::core
