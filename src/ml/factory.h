#pragma once

/// \file factory.h
/// Unified forecaster entry point: `make_forecaster(name, spec)` builds any
/// of the prediction-engine models by name, so benches and examples that
/// compare forecaster families (Table II) iterate over names instead of
/// hard-coding one constructor per model.
///
/// Names: "ma", "arima", "lstm", "gru", "seasonal_naive". "lstm" and "gru"
/// are one-cell runs of the batched recurrent engine (ml/batch.h).

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ml/forecaster.h"

namespace esharing::ml {

/// Superset of the per-model hyperparameters; each model reads only the
/// fields it understands. The recurrent fields map 1:1 onto
/// batch::BatchRnnConfig; `epochs` and `learning_rate` default to its
/// values (full-batch Adam steps).
struct ForecasterSpec {
  std::uint64_t seed{1};       ///< "lstm", "gru"
  std::size_t ma_window{3};    ///< "ma": the paper's wz parameter
  int arima_p{3};              ///< "arima" AR order
  int arima_d{1};              ///< "arima" differencing order
  int layers{2};               ///< "lstm", "gru"
  int hidden{32};              ///< "lstm", "gru"
  std::size_t lookback{12};    ///< "lstm", "gru": the paper's back parameter
  int epochs{60};              ///< "lstm", "gru"
  double learning_rate{2e-2};  ///< "lstm", "gru"
  std::size_t period{24};      ///< "seasonal_naive" season length in hours
};

/// \throws std::invalid_argument for unknown names (the message lists the
///         known ones) and for model-specific spec errors.
[[nodiscard]] std::unique_ptr<Forecaster> make_forecaster(
    std::string_view name, const ForecasterSpec& spec = {});

/// The names make_forecaster accepts, in sorted order.
[[nodiscard]] std::vector<std::string> forecaster_names();

}  // namespace esharing::ml
