#pragma once

/// \file batch.h
/// Batched multi-cell LSTM/GRU runtime — the repo's only recurrent
/// forecasting engine. It trains ONE shared-weight recurrence over the
/// pooled standardized windows of every cell and advances all cells
/// together: hidden/cell state lives in SoA planes `[hidden × n_cells]`
/// (cell dimension contiguous), and each timestep is one big GEMM per gate
/// block across the whole batch through the hand-vectorized plane kernels
/// of linalg_batch.h. Per-cell z-score scalers are retained, so the shared
/// weights learn the common diurnal shape while each cell keeps its own
/// level. A single series is a batch of one: make_forecaster("lstm"|"gru")
/// wraps a one-cell BatchRnn behind the Forecaster interface.
///
/// Determinism: fitting and forecasting are bit-identical at every exec
/// pool width and for every batch size — a cell forecast does not depend
/// on which other cells share the batch (see linalg_batch.h for the
/// kernel-level contract; forecast_one is the batch=1 reference the
/// equivalence tests compare against). All arithmetic is fp32.

#include <cstdint>
#include <string>
#include <vector>

#include "ml/series.h"

namespace esharing::ml::batch {

/// Which recurrence the batch engine runs (gate blocks [i|f|g|o] for the
/// LSTM, [z|r|n] for the GRU).
enum class RnnKind { kLstm, kGru };

struct BatchRnnConfig {
  RnnKind kind{RnnKind::kLstm};
  int layers{1};
  int hidden{12};
  std::size_t lookback{12};  ///< the paper's "back" parameter, in hours
  /// Full-batch Adam steps (one gradient over all pooled windows per
  /// epoch, clipped to global norm 5).
  int epochs{60};
  double learning_rate{2e-2};
  std::uint64_t seed{1};

  /// \throws std::invalid_argument on the first violated constraint.
  void validate() const;
};

class BatchRnn {
 public:
  /// \throws std::invalid_argument on invalid config.
  explicit BatchRnn(BatchRnnConfig config);

  /// Fit the shared weights: per-cell z-score scalers, pooled sliding
  /// windows (past 8,000 of them, a deterministic even-stride subsample,
  /// which bounds the fit's memory), then
  /// `epochs` full-batch Adam steps of batched BPTT. Each epoch is two pool
  /// dispatches: one over window tiles (forward and backward recurrence),
  /// one folding the weight gradients across output elements.
  /// \throws std::invalid_argument if `cells` is empty or any series has
  ///         fewer than lookback + 2 points.
  void fit(const std::vector<Series>& cells);

  /// Batched recursive forecast: out[cell] holds `horizon` hourly values.
  /// Each cell's scaler is refit on its provided history (histories need
  /// not be the fit series); every horizon step advances all cells in one
  /// fused pass. `width` 0 = auto lanes.
  /// \throws std::logic_error before fit(), std::invalid_argument if any
  ///         history is shorter than lookback.
  [[nodiscard]] std::vector<Series> forecast(
      const std::vector<Series>& histories, std::size_t horizon,
      std::size_t width = 0) const;

  /// Single-cell reference path: a batch of one through the same kernels.
  /// The equivalence contract tests pin: bit-identical to the cell's row
  /// of any forecast() batch containing the same history.
  [[nodiscard]] Series forecast_one(const Series& history,
                                    std::size_t horizon) const;

  [[nodiscard]] bool fitted() const { return fitted_; }
  [[nodiscard]] const BatchRnnConfig& config() const { return config_; }
  /// Mean full-batch training loss per epoch (filled by fit()).
  [[nodiscard]] const std::vector<double>& loss_history() const {
    return loss_history_;
  }
  [[nodiscard]] std::string name() const;
  [[nodiscard]] std::size_t param_count() const;

  // --- low-level access for tests (gradient checking) -------------------
  /// Mean half-squared-error over already-standardized windows under the
  /// current parameters.
  [[nodiscard]] double pooled_loss(const std::vector<Window>& windows) const;
  /// Analytic gradient of pooled_loss via batched BPTT (double-precision
  /// accumulation; finite-difference-checked in tests/test_ml_batch.cpp).
  [[nodiscard]] std::vector<double> pooled_gradient(
      const std::vector<Window>& windows) const;
  [[nodiscard]] std::vector<float>& parameters() { return params_; }
  [[nodiscard]] const std::vector<float>& parameters() const { return params_; }

 private:
  struct Scratch;     // inference planes (one per tile on the tiled path)
  struct FitPlanes;   // full-batch planes the weight-gradient fold reads

  void init_params(std::uint64_t seed);
  [[nodiscard]] std::size_t gates() const;
  [[nodiscard]] std::size_t input_size(int layer) const;
  [[nodiscard]] std::size_t wx_off(int layer) const;
  [[nodiscard]] std::size_t wh_off(int layer) const;
  [[nodiscard]] std::size_t b_off(int layer) const;
  [[nodiscard]] std::size_t wy_off() const;
  [[nodiscard]] std::size_t by_off() const;

  /// One fused inference pass over a `[lookback × batch]` standardized
  /// window plane: recurrence from zero state through all layers and
  /// timesteps, output head into y[batch].
  void run_batch_forward(const float* win, std::size_t batch,
                         std::size_t width, float* y, Scratch& scratch) const;
  /// One full-batch gradient over a `[lookback × batch]` window plane:
  /// every window tile runs its forward and backward recurrence on the
  /// pool, then the weight gradients are folded and added into `grad`.
  /// Leaves the outputs in planes.y.
  void run_fit_pass(const float* win, std::size_t batch,
                    const double* targets, FitPlanes& planes,
                    std::vector<double>& grad) const;
  /// Forward with BPTT caches, output head, loss gradient and backward
  /// recurrence for the windows [start, start + tile) of the batch.
  void run_fit_tile(const float* win, std::size_t batch, std::size_t start,
                    std::size_t tile, const double* targets,
                    FitPlanes& planes) const;
  /// Fold the weight and bias gradients from the planes of one pass.
  void fold_gradients(std::size_t batch, const FitPlanes& planes,
                      std::vector<double>& grad) const;

  BatchRnnConfig config_;
  std::vector<float> params_;
  bool fitted_{false};
  std::vector<double> loss_history_;
};

}  // namespace esharing::ml::batch
