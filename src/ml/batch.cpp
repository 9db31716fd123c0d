#include "ml/batch.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "exec/thread_pool.h"
#include "ml/linalg.h"
#include "ml/linalg_batch.h"
#include "obs/registry.h"
#include "obs/scoped_timer.h"
#include "stats/rng.h"

namespace esharing::ml::batch {

namespace {

/// ml.forecast.* metric handles, resolved once (registry.h idiom).
struct ForecastObs {
  obs::Counter& fits;
  obs::Counter& batch_refreshes;
  obs::Counter& steps;
  obs::Counter& cells;
  obs::Histogram& fit_seconds;
  obs::Histogram& batch_refresh_seconds;

  static ForecastObs& get() {
    static ForecastObs m{
        obs::Registry::global().counter("ml.forecast.fits"),
        obs::Registry::global().counter("ml.forecast.batch_refreshes"),
        obs::Registry::global().counter("ml.forecast.steps"),
        obs::Registry::global().counter("ml.forecast.cells"),
        obs::Registry::global().histogram("ml.forecast.fit_seconds"),
        obs::Registry::global().histogram("ml.forecast.batch_refresh_seconds"),
    };
    return m;
  }
};

/// Gate activations route through the rational plane_tanhf/plane_sigmoidf
/// of linalg_batch.h: pure fp32 arithmetic the compiler vectorizes across
/// the contiguous batch dimension (a libm call here serializes the whole
/// pointwise pass and dominates the refresh).
float sigmoidf(float x) { return plane_sigmoidf(x); }
float tanhf_(float x) { return plane_tanhf(x); }

/// Lane pick for the pointwise gate updates: the rational activations make
/// one element an order costlier than a MAC, hence the weighting against
/// the shared cutoff. Elementwise updates are per-element independent, so the
/// result is identical at every width either way.
std::size_t pointwise_width(std::size_t h, std::size_t b, std::size_t width) {
  if (width != 0) return width;
  return h * b * 16 < kSerialFlops ? 1 : 0;
}

/// Fused LSTM gate update over `[h × batch]` planes: consumes the gate
/// pre-activation plane z ([4h × batch], blocks [i|f|g|o]) and updates the
/// cell/hidden planes in place.
void lstm_pointwise(const float* z, std::size_t h, std::size_t b,
                    std::size_t width, float* cplane, float* hplane) {
  exec::parallel_for(
      h, /*grain=*/1,
      [&](std::size_t ub, std::size_t ue, std::size_t) {
        for (std::size_t u = ub; u < ue; ++u) {
          const float* zi = z + u * b;
          const float* zf = z + (h + u) * b;
          const float* zg = z + (2 * h + u) * b;
          const float* zo = z + (3 * h + u) * b;
          float* cu = cplane + u * b;
          float* hu = hplane + u * b;
          for (std::size_t k = 0; k < b; ++k) {
            const float iv = sigmoidf(zi[k]);
            const float fv = sigmoidf(zf[k]);
            const float gv = tanhf_(zg[k]);
            const float ov = sigmoidf(zo[k]);
            const float cn = fv * cu[k] + iv * gv;
            const float tc = tanhf_(cn);
            cu[k] = cn;
            hu[k] = ov * tc;
          }
        }
      },
      pointwise_width(h, b, width));
}

/// Fused GRU gate update: consumes the pre-activation plane a ([3h × batch],
/// blocks [z|r|n], with the z/r blocks already holding Wh·h_prev) and the
/// pre-reset candidate product q ([h × batch]); updates the hidden plane in
/// place.
void gru_pointwise(const float* a, const float* q, std::size_t h,
                   std::size_t b, std::size_t width, float* hplane) {
  exec::parallel_for(
      h, /*grain=*/1,
      [&](std::size_t ub, std::size_t ue, std::size_t) {
        for (std::size_t u = ub; u < ue; ++u) {
          const float* az = a + u * b;
          const float* ar = a + (h + u) * b;
          const float* an = a + (2 * h + u) * b;
          const float* qu = q + u * b;
          float* hu = hplane + u * b;
          for (std::size_t k = 0; k < b; ++k) {
            const float zv = sigmoidf(az[k]);
            const float rv = sigmoidf(ar[k]);
            const float nv = tanhf_(an[k] + rv * qu[k]);
            hu[k] = (1.0f - zv) * nv + zv * hu[k];
          }
        }
      },
      pointwise_width(h, b, width));
}

// --- fit-tile pointwise passes ------------------------------------------------
//
// The fit runs each window tile on one lane, so these passes are serial.
// Each evaluates a per-element step over a plane row in kPlaneLanes blocks
// (blocked_pointwise): a block's results go into local arrays first and
// are then stored plane by plane, which lets the compiler vectorize the
// block without runtime alias checks between the many output planes (a
// plain loop over them does not vectorize). The tail runs the same step,
// so an element's bits never depend on its position.

/// Cache planes one LSTM timestep records for BPTT, in storage order:
/// gates i, f, g, o, the cell, its tanh and the output.
constexpr std::size_t kLi = 0, kLf = 1, kLg = 2, kLo = 3, kLc = 4,
                      kLtanhC = 5, kLh = 6, kLstmPlanes = 7;
/// Cache planes one GRU timestep records, in storage order: gates z, r,
/// the candidate n, the pre-reset product q and the output.
constexpr std::size_t kGz = 0, kGr = 1, kGn = 2, kGq = 3, kGh = 4,
                      kGruPlanes = 5;

/// out[p][k] = step(k)[p] for k in [0, b), in kPlaneLanes blocks.
template <std::size_t kOut, typename Step>
void blocked_pointwise(std::size_t b, const std::array<float*, kOut>& out,
                       const Step& step) {
  std::size_t k = 0;
  for (; k + kPlaneLanes <= b; k += kPlaneLanes) {
    float v[kOut][kPlaneLanes];
    for (std::size_t l = 0; l < kPlaneLanes; ++l) {
      const std::array<float, kOut> r = step(k + l);
      for (std::size_t p = 0; p < kOut; ++p) v[p][l] = r[p];
    }
    for (std::size_t p = 0; p < kOut; ++p) {
      std::copy_n(v[p], kPlaneLanes, out[p] + k);
    }
  }
  for (; k < b; ++k) {
    const std::array<float, kOut> r = step(k);
    for (std::size_t p = 0; p < kOut; ++p) out[p][k] = r[p];
  }
}

/// Row u of each of the kPlanes `[h × b]` cache planes of one step.
template <std::size_t kPlanes, typename T>
std::array<T*, kPlanes> cache_rows(T* cache, std::size_t h, std::size_t b,
                                   std::size_t u) {
  std::array<T*, kPlanes> rows{};
  for (std::size_t p = 0; p < kPlanes; ++p) rows[p] = cache + (p * h + u) * b;
  return rows;
}

/// lstm_pointwise on one lane, recording the step's cache planes
/// (`cache` = kLstmPlanes planes of [h × b]); the previous cell plane is
/// c_prev (zeros at t = 0).
void lstm_pointwise_cached(const float* z, const float* c_prev,
                           std::size_t h, std::size_t b, float* cache) {
  for (std::size_t u = 0; u < h; ++u) {
    const float* zi = z + u * b;
    const float* zf = z + (h + u) * b;
    const float* zg = z + (2 * h + u) * b;
    const float* zo = z + (3 * h + u) * b;
    const float* cp = c_prev + u * b;
    blocked_pointwise(b, cache_rows<kLstmPlanes>(cache, h, b, u),
                      [&](std::size_t k) {
      std::array<float, kLstmPlanes> s{};
      s[kLi] = sigmoidf(zi[k]);
      s[kLf] = sigmoidf(zf[k]);
      s[kLg] = tanhf_(zg[k]);
      s[kLo] = sigmoidf(zo[k]);
      s[kLc] = s[kLf] * cp[k] + s[kLi] * s[kLg];
      s[kLtanhC] = tanhf_(s[kLc]);
      s[kLh] = s[kLo] * s[kLtanhC];
      return s;
    });
  }
}

/// gru_pointwise on one lane, recording the step's cache planes
/// (`cache` = kGruPlanes planes of [h × b]); the previous hidden plane is
/// h_prev (zeros at t = 0).
void gru_pointwise_cached(const float* a, const float* q, const float* h_prev,
                          std::size_t h, std::size_t b, float* cache) {
  for (std::size_t u = 0; u < h; ++u) {
    const float* az = a + u * b;
    const float* ar = a + (h + u) * b;
    const float* an = a + (2 * h + u) * b;
    const float* qu = q + u * b;
    const float* hp = h_prev + u * b;
    blocked_pointwise(b, cache_rows<kGruPlanes>(cache, h, b, u),
                      [&](std::size_t k) {
      std::array<float, kGruPlanes> s{};
      s[kGz] = sigmoidf(az[k]);
      s[kGr] = sigmoidf(ar[k]);
      s[kGn] = tanhf_(an[k] + s[kGr] * qu[k]);
      s[kGq] = qu[k];
      s[kGh] = (1.0f - s[kGz]) * s[kGn] + s[kGz] * hp[k];
      return s;
    });
  }
}

/// LSTM BPTT pointwise for one step of a tile: dh = dh_next + inject,
/// the gate pre-activation gradients into dz ([4h × b], blocks
/// [i|f|g|o]) and the cell gradient carried to the previous step into
/// dc_next, in place. `step` holds the step's cache planes, c_prev the
/// previous cell plane (zeros at t = 0).
void lstm_backward_pointwise(const float* step, const float* c_prev,
                             const float* dh_next, const float* inject,
                             std::size_t h, std::size_t b, float* dz,
                             float* dc_next) {
  const std::size_t hb = h * b;
  for (std::size_t u = 0; u < h; ++u) {
    const std::size_t row = u * b;
    const auto s = cache_rows<kLstmPlanes>(step, h, b, u);
    const std::array<float*, 5> out{dz + row, dz + hb + row,
                                    dz + 2 * hb + row, dz + 3 * hb + row,
                                    dc_next + row};
    blocked_pointwise(b, out, [&](std::size_t k) {
      const float iv = s[kLi][k], fv = s[kLf][k], gv = s[kLg][k];
      const float ov = s[kLo][k], tc = s[kLtanhC][k];
      const float dh = dh_next[row + k] + inject[row + k];
      const float d_o = dh * tc;
      const float dc = dc_next[row + k] + dh * ov * (1.0f - tc * tc);
      const float d_i = dc * gv;
      const float d_g = dc * iv;
      const float d_f = dc * c_prev[row + k];
      return std::array<float, 5>{
          d_i * iv * (1.0f - iv), d_f * fv * (1.0f - fv),
          d_g * (1.0f - gv * gv), d_o * ov * (1.0f - ov), dc * fv};
    });
  }
}

/// GRU BPTT pointwise for one step of a tile: dh = dh_next + inject, gate
/// gradients into dz ([4h × b]: blocks [z|r|n] then the candidate-product
/// gradient dq) and the direct term of dh_prev (the Wh products are added
/// after). h_prev is the previous hidden plane (zeros at t = 0).
void gru_backward_pointwise(const float* step, const float* h_prev,
                            const float* dh_next, const float* inject,
                            std::size_t h, std::size_t b, float* dz,
                            float* dh_prev) {
  const std::size_t hb = h * b;
  for (std::size_t u = 0; u < h; ++u) {
    const std::size_t row = u * b;
    const auto s = cache_rows<kGruPlanes>(step, h, b, u);
    const std::array<float*, 5> out{dz + row, dz + hb + row,
                                    dz + 2 * hb + row, dz + 3 * hb + row,
                                    dh_prev + row};
    blocked_pointwise(b, out, [&](std::size_t k) {
      const float zv = s[kGz][k], rv = s[kGr][k];
      const float nv = s[kGn][k], qv = s[kGq][k];
      const float dh = dh_next[row + k] + inject[row + k];
      const float d_z = dh * (h_prev[row + k] - nv);
      const float d_n = dh * (1.0f - zv);
      const float dan = d_n * (1.0f - nv * nv);
      const float d_r = dan * qv;
      return std::array<float, 5>{d_z * zv * (1.0f - zv),
                                  d_r * rv * (1.0f - rv), dan, dan * rv,
                                  dh * zv};
    });
  }
}

/// Output head: y[c] = by + Wy·h_top[.][c], terms added in ascending unit
/// order per cell.
void output_head(const float* wy, float by, const float* htop, std::size_t h,
                 std::size_t b, float* y) {
  for (std::size_t k = 0; k < b; ++k) y[k] = by;
  for (std::size_t u = 0; u < h; ++u) {
    const float wu = wy[u];
    const float* hu = htop + u * b;
    for (std::size_t k = 0; k < b; ++k) y[k] += wu * hu[k];
  }
}

}  // namespace

// --- config / layout --------------------------------------------------------

void BatchRnnConfig::validate() const {
  if (layers <= 0) {
    throw std::invalid_argument(
        "BatchRnnConfig: layers = " + std::to_string(layers) +
        " is invalid: the batch engine needs at least one recurrent layer");
  }
  if (hidden <= 0) {
    throw std::invalid_argument(
        "BatchRnnConfig: hidden = " + std::to_string(hidden) +
        " is invalid: each layer needs at least one hidden unit");
  }
  if (lookback == 0) {
    throw std::invalid_argument(
        "BatchRnnConfig: lookback = 0 is invalid: forecasts condition on at "
        "least one trailing observation");
  }
  if (epochs <= 0) {
    throw std::invalid_argument(
        "BatchRnnConfig: epochs = " + std::to_string(epochs) +
        " is invalid: fitting needs at least one full-batch Adam step");
  }
  if (!(learning_rate > 0.0)) {
    throw std::invalid_argument(
        "BatchRnnConfig: learning_rate = " + std::to_string(learning_rate) +
        " is invalid: the Adam step size must be positive");
  }
}

struct BatchRnn::Scratch {
  std::vector<float> z;                ///< [gates*h × batch] pre-activations
  std::vector<float> q;                ///< [h × batch] GRU candidate product
  std::vector<std::vector<float>> h;   ///< per layer [h × batch]
  std::vector<std::vector<float>> c;   ///< per layer [h × batch] (LSTM)
  std::vector<float> tile_win;         ///< [lookback × tile] window copy
};

/// Cells per inference tile (see run_batch_forward): sized so one tile's
/// pre-activation, hidden and cell planes fit comfortably in a typical L2
/// at the hidden sizes the forecasting configs use. A pure blocking
/// constant — results are bit-identical at every value.
constexpr std::size_t kForwardTile = 512;

/// Windows per fit tile (see run_fit_pass): a tile's BPTT cache planes for
/// every (layer, timestep) — 7 × 12 × 12 × 128 floats, 516 KB, for the
/// hourly re-plan's one-layer LSTM — stay L2-resident from the forward
/// recurrence through the backward one. A pure blocking constant, like
/// kForwardTile.
constexpr std::size_t kFitTile = 128;

/// Cap on pooled training windows; above it fit() takes a deterministic
/// even-stride subsample.
constexpr std::size_t kMaxFitWindows = 8000;

/// Global-norm clip applied to every full-batch gradient before its Adam
/// step.
constexpr double kGradClip = 5.0;

/// The full-batch planes one fit pass leaves for the weight-gradient fold.
/// Per (layer, timestep), in [layer * lookback + t] order: the layer output
/// h ([hidden × batch], batch contiguous, widened to double for the fold
/// kernel) and the gradient rows dz ([batch × 4·hidden], one contiguous row
/// per window: the LSTM's [i|f|g|o] pre-activation gradients, or the GRU's
/// [z|r|n] and the candidate-product gradient dq). Plus the window plane
/// in double (layer 0's input), the outputs y and the loss gradient dy.
/// Nothing else lives past a tile.
struct BatchRnn::FitPlanes {
  std::vector<double> h, x0;
  std::vector<float> dz, y, dy;
};

BatchRnn::BatchRnn(BatchRnnConfig config) : config_(config) {
  config_.validate();
  init_params(config_.seed);
}

std::size_t BatchRnn::gates() const {
  return config_.kind == RnnKind::kLstm ? 4 : 3;
}

std::size_t BatchRnn::input_size(int layer) const {
  return layer == 0 ? 1 : static_cast<std::size_t>(config_.hidden);
}

std::size_t BatchRnn::wx_off(int layer) const {
  const auto h = static_cast<std::size_t>(config_.hidden);
  const std::size_t g = gates();
  std::size_t off = 0;
  for (int l = 0; l < layer; ++l) {
    off += g * h * input_size(l) + g * h * h + g * h;
  }
  return off;
}

std::size_t BatchRnn::wh_off(int layer) const {
  const auto h = static_cast<std::size_t>(config_.hidden);
  return wx_off(layer) + gates() * h * input_size(layer);
}

std::size_t BatchRnn::b_off(int layer) const {
  const auto h = static_cast<std::size_t>(config_.hidden);
  return wh_off(layer) + gates() * h * h;
}

std::size_t BatchRnn::wy_off() const {
  const auto h = static_cast<std::size_t>(config_.hidden);
  return b_off(config_.layers - 1) + gates() * h;
}

std::size_t BatchRnn::by_off() const {
  return wy_off() + static_cast<std::size_t>(config_.hidden);
}

std::size_t BatchRnn::param_count() const { return by_off() + 1; }

void BatchRnn::init_params(std::uint64_t seed) {
  params_.assign(param_count(), 0.0f);
  stats::Rng rng(seed);
  const auto h = static_cast<std::size_t>(config_.hidden);
  const std::size_t g = gates();
  for (int l = 0; l < config_.layers; ++l) {
    const std::size_t in = input_size(l);
    const double sx = 1.0 / std::sqrt(static_cast<double>(in));
    const double sh = 1.0 / std::sqrt(static_cast<double>(h));
    for (std::size_t k = 0; k < g * h * in; ++k) {
      params_[wx_off(l) + k] = static_cast<float>(rng.uniform(-sx, sx));
    }
    for (std::size_t k = 0; k < g * h * h; ++k) {
      params_[wh_off(l) + k] = static_cast<float>(rng.uniform(-sh, sh));
    }
    // Stabilizing bias init: LSTM forget block (+h) at +1, GRU update
    // block (first) at +1.
    const std::size_t bias_block = config_.kind == RnnKind::kLstm ? h : 0;
    for (std::size_t k = 0; k < h; ++k) {
      params_[b_off(l) + bias_block + k] = 1.0f;
    }
  }
  const double sy = 1.0 / std::sqrt(static_cast<double>(h));
  for (std::size_t k = 0; k < h; ++k) {
    params_[wy_off() + k] = static_cast<float>(rng.uniform(-sy, sy));
  }
}

std::string BatchRnn::name() const {
  return std::string(config_.kind == RnnKind::kLstm ? "BatchLSTM" : "BatchGRU") +
         "(layers=" + std::to_string(config_.layers) +
         ",hidden=" + std::to_string(config_.hidden) +
         ",back=" + std::to_string(config_.lookback) + ")";
}

// --- fused forward ----------------------------------------------------------

void BatchRnn::run_batch_forward(const float* win, std::size_t batch,
                                 std::size_t width, float* y,
                                 Scratch& s) const {
  const auto h = static_cast<std::size_t>(config_.hidden);
  const std::size_t g = gates();
  const std::size_t t_len = config_.lookback;
  const auto layers = static_cast<std::size_t>(config_.layers);
  const bool lstm = config_.kind == RnnKind::kLstm;

  // Cache-blocked inference: cells are independent across the whole
  // recurrence, so large batches run in kForwardTile-cell tiles — a tile's
  // z/h/c planes stay L2-resident across all timesteps instead of streaming
  // through DRAM once per step. Whole tiles are the parallel unit: each
  // chunk runs its tile's full recurrence in its own Scratch with the
  // kernels at width 1, so a refresh is one parallel region instead of one
  // per (tile, timestep, gate block). Per-element arithmetic is identical
  // whatever the tile boundaries and kernel widths (each cell's chain never
  // reads another cell), so this preserves the bit-identity contract. The
  // fit tiles the same way with its BPTT caches (run_fit_pass).
  if (batch > kForwardTile) {
    exec::parallel_for(
        batch, /*grain=*/kForwardTile,
        [&](std::size_t start, std::size_t end, std::size_t) {
          const std::size_t tile = end - start;
          Scratch ts;
          ts.tile_win.resize(t_len * tile);
          for (std::size_t t = 0; t < t_len; ++t) {
            const float* row = win + t * batch + start;
            std::copy(row, row + tile, ts.tile_win.data() + t * tile);
          }
          run_batch_forward(ts.tile_win.data(), tile, /*width=*/1, y + start,
                            ts);
        },
        width);
    return;
  }

  s.z.resize(g * h * batch);
  if (!lstm) s.q.resize(h * batch);
  s.h.resize(layers);
  if (lstm) s.c.resize(layers);
  for (std::size_t l = 0; l < layers; ++l) {
    s.h[l].assign(h * batch, 0.0f);
    if (lstm) s.c[l].assign(h * batch, 0.0f);
  }

  for (std::size_t t = 0; t < t_len; ++t) {
    const float* x = win + t * batch;
    std::size_t in = 1;
    for (std::size_t l = 0; l < layers; ++l) {
      const float* wx = params_.data() + wx_off(static_cast<int>(l));
      const float* wh = params_.data() + wh_off(static_cast<int>(l));
      const float* b = params_.data() + b_off(static_cast<int>(l));
      float* hp = s.h[l].data();
      if (lstm) {
        batch_matmul_bias(wx, 4 * h, in, x, batch, b, s.z.data(), width);
        batch_matmul_acc(wh, 4 * h, h, hp, batch, s.z.data(), width);
        lstm_pointwise(s.z.data(), h, batch, width, s.c[l].data(), hp);
      } else {
        batch_matmul_bias(wx, 3 * h, in, x, batch, b, s.z.data(), width);
        batch_matmul_acc(wh, 2 * h, h, hp, batch, s.z.data(), width);
        batch_matmul_bias(wh + 2 * h * h, h, h, hp, batch, nullptr,
                          s.q.data(), width);
        gru_pointwise(s.z.data(), s.q.data(), h, batch, width, hp);
      }
      x = hp;
      in = h;
    }
  }
  output_head(params_.data() + wy_off(), params_[by_off()],
              s.h[layers - 1].data(), h, batch, y);
}

// --- batched BPTT -----------------------------------------------------------
//
// Reduction-order contract: every gradient element is the sum, over
// timesteps t from last to first, of ONE double add chain per t that starts
// at 0.0 and runs over the windows in ascending order (products of two
// floats are exact in double); layers are folded top-down after the head.
// Tiling the recurrence never touches a chain: tiles only produce the
// per-window planes (FitPlanes), and fold_gradients runs each chain whole
// over the full batch, vectorized across output elements. The fitted bits
// are therefore those of the untiled full-batch BPTT at every tile size
// and pool width (pinned by the MlBatchGolden digests).

void BatchRnn::run_fit_pass(const float* win, std::size_t batch,
                            const double* targets, FitPlanes& planes,
                            std::vector<double>& grad) const {
  const auto h = static_cast<std::size_t>(config_.hidden);
  const std::size_t steps =
      static_cast<std::size_t>(config_.layers) * config_.lookback;
  planes.h.resize(steps * h * batch);
  planes.x0.assign(win, win + config_.lookback * batch);
  planes.dz.resize(steps * batch * 4 * h);
  planes.y.resize(batch);
  planes.dy.resize(batch);
  exec::parallel_for(
      batch, /*grain=*/kFitTile,
      [&](std::size_t start, std::size_t end, std::size_t) {
        run_fit_tile(win, batch, start, end - start, targets, planes);
      });
  if (obs::enabled()) ForecastObs::get().steps.add(steps);
  fold_gradients(batch, planes, grad);
}

void BatchRnn::run_fit_tile(const float* win, std::size_t batch,
                            std::size_t start, std::size_t tile,
                            const double* targets, FitPlanes& planes) const {
  const auto h = static_cast<std::size_t>(config_.hidden);
  const std::size_t g = gates();
  const std::size_t t_len = config_.lookback;
  const auto layers = static_cast<std::size_t>(config_.layers);
  const bool lstm = config_.kind == RnnKind::kLstm;
  const std::size_t hb = h * tile;
  const std::size_t n_planes = lstm ? kLstmPlanes : kGruPlanes;

  // Step caches of the tile: [layer][t][plane][h × tile]. They double as
  // the recurrent state: step t reads the cell and hidden planes of t - 1.
  std::vector<float> cache(layers * t_len * n_planes * hb);
  const auto step_cache = [&](std::size_t l, std::size_t t) {
    return cache.data() + (l * t_len + t) * n_planes * hb;
  };
  const std::size_t h_index = lstm ? kLh : kGh;
  const std::vector<float> zeros(hb, 0.0f);
  const auto prev_plane = [&](std::size_t l, std::size_t t, std::size_t p) {
    return t > 0 ? step_cache(l, t - 1) + p * hb : zeros.data();
  };

  // Forward, recording every step; the kernels run at width 1 (the tile is
  // the parallel unit).
  std::vector<float> z(4 * hb), q(lstm ? 0 : hb);
  for (std::size_t t = 0; t < t_len; ++t) {
    for (std::size_t l = 0; l < layers; ++l) {
      const float* wx = params_.data() + wx_off(static_cast<int>(l));
      const float* wh = params_.data() + wh_off(static_cast<int>(l));
      const float* b = params_.data() + b_off(static_cast<int>(l));
      // Layer 0 reads its one input row from the window plane.
      const float* x = l == 0 ? win + t * batch + start
                              : step_cache(l - 1, t) + h_index * hb;
      const std::size_t in = input_size(static_cast<int>(l));
      const float* h_prev = prev_plane(l, t, h_index);
      float* st = step_cache(l, t);
      if (lstm) {
        batch_matmul_bias(wx, 4 * h, in, x, tile, b, z.data(), 1);
        batch_matmul_acc(wh, 4 * h, h, h_prev, tile, z.data(), 1);
        lstm_pointwise_cached(z.data(), prev_plane(l, t, kLc), h, tile, st);
      } else {
        batch_matmul_bias(wx, 3 * h, in, x, tile, b, z.data(), 1);
        batch_matmul_acc(wh, 2 * h, h, h_prev, tile, z.data(), 1);
        batch_matmul_bias(wh + 2 * h * h, h, h, h_prev, tile, nullptr,
                          q.data(), 1);
        gru_pointwise_cached(z.data(), q.data(), h_prev, h, tile, st);
      }
      const float* h_out = st + h_index * hb;
      double* out = planes.h.data() + (l * t_len + t) * h * batch + start;
      for (std::size_t u = 0; u < h; ++u) {
        std::copy_n(h_out + u * tile, tile, out + u * batch);
      }
    }
  }
  float* y = planes.y.data() + start;
  float* dy = planes.dy.data() + start;
  const float* wy = params_.data() + wy_off();
  output_head(wy, params_[by_off()],
              step_cache(layers - 1, t_len - 1) + h_index * hb, h, tile, y);
  for (std::size_t k = 0; k < tile; ++k) {
    dy[k] = static_cast<float>(
        (static_cast<double>(y[k]) - targets[start + k]) /
        static_cast<double>(batch));
  }

  // Backward. dh injected into the layer being processed, [t][h × tile]:
  // the top layer gets dy through the head at the final step only, each
  // lower layer the Wxᵀ·dz of the layer above.
  std::vector<float> inject(t_len * hb, 0.0f);
  for (std::size_t u = 0; u < h; ++u) {
    float* top = inject.data() + (t_len - 1) * hb + u * tile;
    for (std::size_t k = 0; k < tile; ++k) top[k] = wy[u] * dy[k];
  }
  std::vector<float> below(layers > 1 ? t_len * hb : 0);
  std::vector<float> dh_prev(hb), dh_next(hb), dc_next(hb);
  std::vector<float>& dz = z;  // [4h × tile], the forward is done with it
  const std::size_t ld = 4 * h;
  for (std::size_t li = layers; li-- > 0;) {
    const int l = static_cast<int>(li);
    const std::size_t in = input_size(l);
    const float* wx = params_.data() + wx_off(l);
    const float* wh = params_.data() + wh_off(l);
    if (li > 0) std::fill(below.begin(), below.end(), 0.0f);
    std::fill(dh_next.begin(), dh_next.end(), 0.0f);
    if (lstm) std::fill(dc_next.begin(), dc_next.end(), 0.0f);

    for (std::size_t t = t_len; t-- > 0;) {
      const float* st = step_cache(li, t);
      const float* inj = inject.data() + t * hb;
      if (lstm) {
        lstm_backward_pointwise(st, prev_plane(li, t, kLc), dh_next.data(),
                                inj, h, tile, dz.data(), dc_next.data());
        std::fill(dh_prev.begin(), dh_prev.end(), 0.0f);
        batch_matmul_transpose_acc(wh, 4 * h, h, dz.data(), tile,
                                   dh_prev.data(), 1);
      } else {
        gru_backward_pointwise(st, prev_plane(li, t, kGh), dh_next.data(),
                               inj, h, tile, dz.data(), dh_prev.data());
        batch_matmul_transpose_acc(wh, 2 * h, h, dz.data(), tile,
                                   dh_prev.data(), 1);
        batch_matmul_transpose_acc(wh + 2 * h * h, h, h, dz.data() + 3 * hb,
                                   tile, dh_prev.data(), 1);
      }
      if (li > 0) {
        batch_matmul_transpose_acc(wx, g * h, in, dz.data(), tile,
                                   below.data() + t * hb, 1);
      }
      // Window-major gradient rows for the fold.
      float* rows = planes.dz.data() + (li * t_len + t) * batch * ld +
                    start * ld;
      for (std::size_t k = 0; k < tile; ++k) {
        for (std::size_t r = 0; r < ld; ++r) {
          rows[k * ld + r] = dz[r * tile + k];
        }
      }
      std::swap(dh_next, dh_prev);
    }
    if (li > 0) std::swap(inject, below);
  }
}

void BatchRnn::fold_gradients(std::size_t batch, const FitPlanes& planes,
                              std::vector<double>& grad) const {
  const auto h = static_cast<std::size_t>(config_.hidden);
  const std::size_t g = gates();
  const std::size_t t_len = config_.lookback;
  const auto layers = static_cast<std::size_t>(config_.layers);
  const bool lstm = config_.kind == RnnKind::kLstm;
  const std::size_t steps = layers * t_len;
  const std::size_t ld = 4 * h;

  // One partial block per (layer, t) — the t-th chain of every element of
  // that layer, laid out like the layer's [wx | wh | b] gradient — and one
  // for the head [wy | by]. The chains are independent, so (layer, t)
  // blocks are the parallel unit; each block's chains are vectorized
  // across output elements by the fold kernels.
  std::size_t block = 0;
  for (int l = 0; l < config_.layers; ++l) {
    block = std::max(block, b_off(l) + g * h - wx_off(l));
  }
  std::vector<double> partial(steps * block + h + 1);
  const float* dy = planes.dy.data();
  const auto h_plane = [&](std::size_t l, std::size_t t) {
    return planes.h.data() + (l * t_len + t) * h * batch;
  };
  const std::size_t flops = steps * batch * ld * (h + 2);
  exec::parallel_for(
      steps + 1, /*grain=*/1,
      [&](std::size_t tb, std::size_t te, std::size_t) {
        for (std::size_t task = tb; task < te; ++task) {
          if (task == steps) {
            double* head = partial.data() + steps * block;
            batch_fold_outer(dy, 1, 1, h_plane(layers - 1, t_len - 1), h,
                             batch, head);
            batch_fold_rowsum(dy, 1, 1, batch, head + h);
            continue;
          }
          const std::size_t li = task / t_len;
          const std::size_t t = task % t_len;
          const int l = static_cast<int>(li);
          const float* rows = planes.dz.data() + task * batch * ld;
          const double* x =
              li == 0 ? planes.x0.data() + t * batch : h_plane(li - 1, t);
          double* out = partial.data() + task * block;
          batch_fold_outer(rows, ld, g * h, x, input_size(l), batch, out);
          batch_fold_rowsum(rows, ld, g * h, batch,
                            out + (b_off(l) - wx_off(l)));
          if (t == 0) continue;
          const double* h_prev = h_plane(li, t - 1);
          double* out_wh = out + (wh_off(l) - wx_off(l));
          if (lstm) {
            batch_fold_outer(rows, ld, 4 * h, h_prev, h, batch, out_wh);
          } else {
            batch_fold_outer(rows, ld, 2 * h, h_prev, h, batch, out_wh);
            batch_fold_outer(rows + 3 * h, ld, h, h_prev, h, batch,
                             out_wh + 2 * h * h);
          }
        }
      },
      flops < kSerialFlops ? 1 : 0);

  // Add the chains in the untiled order: the head, then per layer (top
  // down) t from last to first; wh has no t = 0 term.
  const double* head = partial.data() + steps * block;
  for (std::size_t u = 0; u <= h; ++u) grad[wy_off() + u] += head[u];
  for (std::size_t li = layers; li-- > 0;) {
    const int l = static_cast<int>(li);
    const std::size_t base = wx_off(l);
    const std::size_t wh_begin = wh_off(l) - base;
    const std::size_t wh_end = b_off(l) - base;
    const std::size_t end = wh_end + g * h;
    for (std::size_t t = t_len; t-- > 0;) {
      const double* part = partial.data() + (li * t_len + t) * block;
      for (std::size_t e = 0; e < end; ++e) {
        if (t == 0 && e >= wh_begin && e < wh_end) continue;
        grad[base + e] += part[e];
      }
    }
  }
}

// --- test hooks -------------------------------------------------------------

namespace {

/// Pack standardized windows into a `[lookback × n]` time-major plane.
std::vector<float> window_plane(const std::vector<Window>& windows,
                                std::size_t lookback) {
  const std::size_t n = windows.size();
  std::vector<float> plane(lookback * n);
  for (std::size_t j = 0; j < n; ++j) {
    if (windows[j].input.size() != lookback) {
      throw std::invalid_argument(
          "BatchRnn: window " + std::to_string(j) + " has " +
          std::to_string(windows[j].input.size()) + " inputs, lookback is " +
          std::to_string(lookback));
    }
    for (std::size_t t = 0; t < lookback; ++t) {
      plane[t * n + j] = static_cast<float>(windows[j].input[t]);
    }
  }
  return plane;
}

}  // namespace

double BatchRnn::pooled_loss(const std::vector<Window>& windows) const {
  if (windows.empty()) {
    throw std::invalid_argument("BatchRnn::pooled_loss: no windows");
  }
  const std::size_t n = windows.size();
  const std::vector<float> plane = window_plane(windows, config_.lookback);
  std::vector<float> y(n);
  Scratch s;
  run_batch_forward(plane.data(), n, 0, y.data(), s);
  double loss = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double e = static_cast<double>(y[j]) - windows[j].target;
    loss += 0.5 * e * e;
  }
  return loss / static_cast<double>(n);
}

std::vector<double> BatchRnn::pooled_gradient(
    const std::vector<Window>& windows) const {
  if (windows.empty()) {
    throw std::invalid_argument("BatchRnn::pooled_gradient: no windows");
  }
  const std::size_t n = windows.size();
  const std::vector<float> plane = window_plane(windows, config_.lookback);
  std::vector<double> targets(n);
  for (std::size_t j = 0; j < n; ++j) targets[j] = windows[j].target;
  FitPlanes planes;
  std::vector<double> grad(param_count(), 0.0);
  run_fit_pass(plane.data(), n, targets.data(), planes, grad);
  return grad;
}

// --- fit --------------------------------------------------------------------

void BatchRnn::fit(const std::vector<Series>& cells) {
  if (cells.empty()) {
    throw std::invalid_argument("BatchRnn::fit: no cell series");
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (cells[c].size() < config_.lookback + 2) {
      throw std::invalid_argument(
          "BatchRnn::fit: cell " + std::to_string(c) + " series has " +
          std::to_string(cells[c].size()) + " points, need at least " +
          std::to_string(config_.lookback + 2));
    }
  }
  obs::ScopedTimer timer(ForecastObs::get().fit_seconds);
  if (obs::enabled()) ForecastObs::get().fits.add();

  // Pool per-cell-standardized windows; the shared weights see every cell
  // as the same zero-mean unit-variance shape.
  std::vector<Window> pooled;
  for (const Series& series : cells) {
    Scaler scaler;
    scaler.fit(series);
    const Series z = scaler.transform(series);
    std::vector<Window> windows = sliding_windows(z, config_.lookback);
    pooled.insert(pooled.end(), std::make_move_iterator(windows.begin()),
                  std::make_move_iterator(windows.end()));
  }
  if (pooled.size() > kMaxFitWindows) {
    // Deterministic even-stride subsample (cell/time order preserved).
    const std::size_t stride =
        (pooled.size() + kMaxFitWindows - 1) / kMaxFitWindows;
    std::vector<Window> kept;
    kept.reserve(pooled.size() / stride + 1);
    for (std::size_t j = 0; j < pooled.size(); j += stride) {
      kept.push_back(std::move(pooled[j]));
    }
    pooled = std::move(kept);
  }

  const std::size_t n = pooled.size();
  const std::vector<float> plane = window_plane(pooled, config_.lookback);
  std::vector<double> targets(n);
  for (std::size_t j = 0; j < n; ++j) targets[j] = pooled[j].target;

  init_params(config_.seed);
  loss_history_.clear();

  std::vector<double> m(param_count(), 0.0), v(param_count(), 0.0);
  const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  double beta1_t = 1.0, beta2_t = 1.0;

  FitPlanes planes;
  std::vector<double> grad(param_count());
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    std::fill(grad.begin(), grad.end(), 0.0);
    run_fit_pass(plane.data(), n, targets.data(), planes, grad);
    double loss = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double e = static_cast<double>(planes.y[j]) - targets[j];
      loss += 0.5 * e * e;
    }
    loss_history_.push_back(loss / static_cast<double>(n));

    double norm2 = 0.0;
    for (double gk : grad) norm2 += gk * gk;
    const double norm = std::sqrt(norm2);
    if (norm > kGradClip) {
      const double scale = kGradClip / norm;
      for (double& gk : grad) gk *= scale;
    }

    beta1_t *= beta1;
    beta2_t *= beta2;
    for (std::size_t k = 0; k < params_.size(); ++k) {
      m[k] = beta1 * m[k] + (1.0 - beta1) * grad[k];
      v[k] = beta2 * v[k] + (1.0 - beta2) * grad[k] * grad[k];
      const double mhat = m[k] / (1.0 - beta1_t);
      const double vhat = v[k] / (1.0 - beta2_t);
      params_[k] = static_cast<float>(
          static_cast<double>(params_[k]) -
          config_.learning_rate * mhat / (std::sqrt(vhat) + eps));
    }
  }
  fitted_ = true;
}

// --- forecast ---------------------------------------------------------------

std::vector<Series> BatchRnn::forecast(const std::vector<Series>& histories,
                                       std::size_t horizon,
                                       std::size_t width) const {
  if (!fitted_) {
    throw std::logic_error("BatchRnn::forecast: not fitted");
  }
  if (histories.empty()) return {};
  const std::size_t n = histories.size();
  const std::size_t t_len = config_.lookback;
  for (std::size_t c = 0; c < n; ++c) {
    if (histories[c].size() < t_len) {
      throw std::invalid_argument(
          "BatchRnn::forecast: cell " + std::to_string(c) + " history has " +
          std::to_string(histories[c].size()) + " points, lookback is " +
          std::to_string(t_len));
    }
  }
  obs::ScopedTimer timer(ForecastObs::get().batch_refresh_seconds);
  if (obs::enabled()) {
    ForecastObs::get().batch_refreshes.add();
    ForecastObs::get().cells.add(n);
    ForecastObs::get().steps.add(
        horizon * t_len * static_cast<std::size_t>(config_.layers));
  }

  // Per-cell scalers on the provided histories; the batch plane holds the
  // standardized trailing window of every cell.
  std::vector<Scaler> scalers(n);
  std::vector<float> win(t_len * n);
  for (std::size_t c = 0; c < n; ++c) {
    scalers[c].fit(histories[c]);
    const std::size_t base = histories[c].size() - t_len;
    for (std::size_t t = 0; t < t_len; ++t) {
      win[t * n + c] = static_cast<float>(
          scalers[c].transform_one(histories[c][base + t]));
    }
  }

  std::vector<Series> out(n);
  for (auto& series : out) series.reserve(horizon);
  Scratch s;
  std::vector<float> y(n);
  for (std::size_t hstep = 0; hstep < horizon; ++hstep) {
    run_batch_forward(win.data(), n, width, y.data(), s);
    for (std::size_t c = 0; c < n; ++c) {
      out[c].push_back(scalers[c].inverse_one(static_cast<double>(y[c])));
    }
    if (hstep + 1 < horizon) {
      // Slide the window: drop the oldest row, append the (standardized)
      // prediction.
      for (std::size_t t = 0; t + 1 < t_len; ++t) {
        std::copy(win.begin() + static_cast<std::ptrdiff_t>((t + 1) * n),
                  win.begin() + static_cast<std::ptrdiff_t>((t + 2) * n),
                  win.begin() + static_cast<std::ptrdiff_t>(t * n));
      }
      std::copy(y.begin(), y.end(),
                win.begin() + static_cast<std::ptrdiff_t>((t_len - 1) * n));
    }
  }
  return out;
}

Series BatchRnn::forecast_one(const Series& history,
                              std::size_t horizon) const {
  std::vector<Series> out = forecast({history}, horizon, /*width=*/1);
  return std::move(out.front());
}

}  // namespace esharing::ml::batch
