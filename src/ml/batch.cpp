#include "ml/batch.h"

#include <algorithm>
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
/// pre-activation plane z ([4h × batch], blocks [i|f|g|o]), updates the
/// cell/hidden planes in place, and optionally records activations into
/// the BPTT cache planes (all-or-none: pass ci == nullptr to skip).
void lstm_pointwise(const float* z, std::size_t h, std::size_t b,
                    std::size_t width, float* cplane, float* hplane, float* ci,
                    float* cf, float* cg, float* co, float* cc, float* ctc,
                    float* ch) {
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
          if (ci == nullptr) {
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
          } else {
            for (std::size_t k = 0; k < b; ++k) {
              const std::size_t at = u * b + k;
              const float iv = sigmoidf(zi[k]);
              const float fv = sigmoidf(zf[k]);
              const float gv = tanhf_(zg[k]);
              const float ov = sigmoidf(zo[k]);
              const float cn = fv * cu[k] + iv * gv;
              const float tc = tanhf_(cn);
              cu[k] = cn;
              hu[k] = ov * tc;
              ci[at] = iv;
              cf[at] = fv;
              cg[at] = gv;
              co[at] = ov;
              cc[at] = cn;
              ctc[at] = tc;
              ch[at] = hu[k];
            }
          }
        }
      },
      pointwise_width(h, b, width));
}

/// Fused GRU gate update: consumes the pre-activation plane a ([3h × batch],
/// blocks [z|r|n], with the z/r blocks already holding Wh·h_prev) and the
/// pre-reset candidate product q ([h × batch]); updates the hidden plane in
/// place. Optional cache planes as in lstm_pointwise.
void gru_pointwise(const float* a, const float* q, std::size_t h,
                   std::size_t b, std::size_t width, float* hplane, float* cz,
                   float* cr, float* cn, float* cq, float* ch) {
  exec::parallel_for(
      h, /*grain=*/1,
      [&](std::size_t ub, std::size_t ue, std::size_t) {
        for (std::size_t u = ub; u < ue; ++u) {
          const float* az = a + u * b;
          const float* ar = a + (h + u) * b;
          const float* an = a + (2 * h + u) * b;
          const float* qu = q + u * b;
          float* hu = hplane + u * b;
          if (cz == nullptr) {
            for (std::size_t k = 0; k < b; ++k) {
              const float zv = sigmoidf(az[k]);
              const float rv = sigmoidf(ar[k]);
              const float nv = tanhf_(an[k] + rv * qu[k]);
              hu[k] = (1.0f - zv) * nv + zv * hu[k];
            }
          } else {
            for (std::size_t k = 0; k < b; ++k) {
              const std::size_t at = u * b + k;
              const float zv = sigmoidf(az[k]);
              const float rv = sigmoidf(ar[k]);
              const float nv = tanhf_(an[k] + rv * qu[k]);
              const float hv = (1.0f - zv) * nv + zv * hu[k];
              hu[k] = hv;
              cz[at] = zv;
              cr[at] = rv;
              cn[at] = nv;
              cq[at] = qu[k];
              ch[at] = hv;
            }
          }
        }
      },
      pointwise_width(h, b, width));
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
  if (max_fit_windows == 0) {
    throw std::invalid_argument(
        "BatchRnnConfig: max_fit_windows = 0 is invalid: the pooled-window "
        "cap must admit at least one training window");
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

struct BatchRnn::FitCaches {
  struct Step {
    std::vector<float> i, f, g, o, c, tanh_c;  // LSTM gates and cell
    std::vector<float> z, r, n, q;             // GRU gates
    std::vector<float> h;                      // layer output (both kinds)
  };
  std::size_t t_len{0};
  std::vector<Step> steps;  ///< [layer * t_len + t]

  Step& at(std::size_t l, std::size_t t) { return steps[l * t_len + t]; }
  [[nodiscard]] const Step& at(std::size_t l, std::size_t t) const {
    return steps[l * t_len + t];
  }
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
                                 std::size_t width, float* y, Scratch& s,
                                 FitCaches* caches) const {
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
  // fit path (caches != nullptr) stays untiled: BPTT wants full-batch
  // activation planes, and its kernels keep the per-op fan-out.
  if (caches == nullptr && batch > kForwardTile) {
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
                            ts, nullptr);
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
  if (caches != nullptr) {
    caches->t_len = t_len;
    caches->steps.resize(layers * t_len);
    for (auto& st : caches->steps) {
      st.h.resize(h * batch);
      if (lstm) {
        st.i.resize(h * batch);
        st.f.resize(h * batch);
        st.g.resize(h * batch);
        st.o.resize(h * batch);
        st.c.resize(h * batch);
        st.tanh_c.resize(h * batch);
      } else {
        st.z.resize(h * batch);
        st.r.resize(h * batch);
        st.n.resize(h * batch);
        st.q.resize(h * batch);
      }
    }
  }

  for (std::size_t t = 0; t < t_len; ++t) {
    const float* x = win + t * batch;
    std::size_t in = 1;
    for (std::size_t l = 0; l < layers; ++l) {
      const float* wx = params_.data() + wx_off(static_cast<int>(l));
      const float* wh = params_.data() + wh_off(static_cast<int>(l));
      const float* b = params_.data() + b_off(static_cast<int>(l));
      float* hp = s.h[l].data();
      FitCaches::Step* st =
          caches != nullptr ? &caches->at(l, t) : nullptr;
      if (lstm) {
        batch_matmul_bias(wx, 4 * h, in, x, batch, b, s.z.data(), width);
        batch_matmul_acc(wh, 4 * h, h, hp, batch, s.z.data(), width);
        lstm_pointwise(s.z.data(), h, batch, width, s.c[l].data(), hp,
                       st != nullptr ? st->i.data() : nullptr,
                       st != nullptr ? st->f.data() : nullptr,
                       st != nullptr ? st->g.data() : nullptr,
                       st != nullptr ? st->o.data() : nullptr,
                       st != nullptr ? st->c.data() : nullptr,
                       st != nullptr ? st->tanh_c.data() : nullptr,
                       st != nullptr ? st->h.data() : nullptr);
      } else {
        batch_matmul_bias(wx, 3 * h, in, x, batch, b, s.z.data(), width);
        batch_matmul_acc(wh, 2 * h, h, hp, batch, s.z.data(), width);
        batch_matmul_bias(wh + 2 * h * h, h, h, hp, batch, nullptr,
                          s.q.data(), width);
        gru_pointwise(s.z.data(), s.q.data(), h, batch, width, hp,
                      st != nullptr ? st->z.data() : nullptr,
                      st != nullptr ? st->r.data() : nullptr,
                      st != nullptr ? st->n.data() : nullptr,
                      st != nullptr ? st->q.data() : nullptr,
                      st != nullptr ? st->h.data() : nullptr);
      }
      x = hp;
      in = h;
    }
  }
  if (obs::enabled()) ForecastObs::get().steps.add(t_len * layers);
  output_head(params_.data() + wy_off(), params_[by_off()],
              s.h[layers - 1].data(), h, batch, y);
}

// --- batched BPTT -----------------------------------------------------------

void BatchRnn::run_batch_backward(const float* win, std::size_t batch,
                                  const float* dy, const FitCaches& caches,
                                  std::vector<double>& grad) const {
  const auto h = static_cast<std::size_t>(config_.hidden);
  const std::size_t t_len = config_.lookback;
  const auto layers = static_cast<std::size_t>(config_.layers);
  const bool lstm = config_.kind == RnnKind::kLstm;

  // Output head.
  const float* htop = caches.at(layers - 1, t_len - 1).h.data();
  batch_outer_acc(htop, h, dy, 1, batch, grad.data() + wy_off());
  batch_rowsum_acc(dy, 1, batch, grad.data() + by_off());

  // dh injected into the layer being processed: [t] planes of [h × batch].
  // Top layer: dy through the head at the final step only.
  std::vector<std::vector<float>> inject(t_len);
  for (auto& plane : inject) plane.assign(h * batch, 0.0f);
  {
    std::vector<float>& top = inject[t_len - 1];
    const float* wy = params_.data() + wy_off();
    for (std::size_t u = 0; u < h; ++u) {
      for (std::size_t k = 0; k < batch; ++k) {
        top[u * batch + k] = wy[u] * dy[k];
      }
    }
  }

  std::vector<float> dh(h * batch), dh_prev(h * batch), dh_next(h * batch);
  std::vector<float> dc_next(h * batch);
  std::vector<float> dz(gates() * h * batch);
  std::vector<float> dq(lstm ? 0 : h * batch);

  for (std::size_t li = layers; li-- > 0;) {
    const int l = static_cast<int>(li);
    const std::size_t in = input_size(l);
    const float* wx = params_.data() + wx_off(l);
    const float* wh = params_.data() + wh_off(l);
    double* gwx = grad.data() + wx_off(l);
    double* gwh = grad.data() + wh_off(l);
    double* gb = grad.data() + b_off(l);

    std::vector<std::vector<float>> below;
    if (li > 0) {
      below.resize(t_len);
      for (auto& plane : below) plane.assign(in * batch, 0.0f);
    }
    std::fill(dh_next.begin(), dh_next.end(), 0.0f);
    if (lstm) std::fill(dc_next.begin(), dc_next.end(), 0.0f);

    for (std::size_t t = t_len; t-- > 0;) {
      const FitCaches::Step& st = caches.at(li, t);
      const float* x = li == 0 ? win + t * batch : caches.at(li - 1, t).h.data();
      const float* h_prev = t > 0 ? caches.at(li, t - 1).h.data() : nullptr;
      const std::vector<float>& inj = inject[t];
      for (std::size_t e = 0; e < h * batch; ++e) dh[e] = dh_next[e] + inj[e];

      if (lstm) {
        const float* c_prev = t > 0 ? caches.at(li, t - 1).c.data() : nullptr;
        for (std::size_t u = 0; u < h; ++u) {
          for (std::size_t k = 0; k < batch; ++k) {
            const std::size_t at = u * batch + k;
            const float iv = st.i[at], fv = st.f[at], gv = st.g[at];
            const float ov = st.o[at], tc = st.tanh_c[at];
            const float d_o = dh[at] * tc;
            const float dc =
                dc_next[at] + dh[at] * ov * (1.0f - tc * tc);
            const float d_i = dc * gv;
            const float d_g = dc * iv;
            const float d_f = dc * (c_prev != nullptr ? c_prev[at] : 0.0f);
            dz[u * batch + k] = d_i * iv * (1.0f - iv);
            dz[(h + u) * batch + k] = d_f * fv * (1.0f - fv);
            dz[(2 * h + u) * batch + k] = d_g * (1.0f - gv * gv);
            dz[(3 * h + u) * batch + k] = d_o * ov * (1.0f - ov);
            dc_next[at] = dc * fv;
          }
        }
        batch_outer_acc(dz.data(), 4 * h, x, in, batch, gwx);
        batch_rowsum_acc(dz.data(), 4 * h, batch, gb);
        if (h_prev != nullptr) {
          batch_outer_acc(dz.data(), 4 * h, h_prev, h, batch, gwh);
        }
        std::fill(dh_prev.begin(), dh_prev.end(), 0.0f);
        batch_matmul_transpose_acc(wh, 4 * h, h, dz.data(), batch,
                                   dh_prev.data());
        if (li > 0) {
          batch_matmul_transpose_acc(wx, 4 * h, in, dz.data(), batch,
                                     below[t].data());
        }
      } else {
        for (std::size_t u = 0; u < h; ++u) {
          for (std::size_t k = 0; k < batch; ++k) {
            const std::size_t at = u * batch + k;
            const float hp = h_prev != nullptr ? h_prev[at] : 0.0f;
            const float zv = st.z[at], rv = st.r[at], nv = st.n[at];
            const float qv = st.q[at];
            const float d_z = dh[at] * (hp - nv);
            const float d_n = dh[at] * (1.0f - zv);
            const float dan = d_n * (1.0f - nv * nv);
            const float d_r = dan * qv;
            dz[u * batch + k] = d_z * zv * (1.0f - zv);
            dz[(h + u) * batch + k] = d_r * rv * (1.0f - rv);
            dz[(2 * h + u) * batch + k] = dan;
            dq[at] = dan * rv;
            dh_prev[at] = dh[at] * zv;
          }
        }
        batch_outer_acc(dz.data(), 3 * h, x, in, batch, gwx);
        batch_rowsum_acc(dz.data(), 3 * h, batch, gb);
        if (h_prev != nullptr) {
          batch_outer_acc(dz.data(), 2 * h, h_prev, h, batch, gwh);
          batch_outer_acc(dq.data(), h, h_prev, h, batch, gwh + 2 * h * h);
        }
        batch_matmul_transpose_acc(wh, 2 * h, h, dz.data(), batch,
                                   dh_prev.data());
        batch_matmul_transpose_acc(wh + 2 * h * h, h, h, dq.data(), batch,
                                   dh_prev.data());
        if (li > 0) {
          batch_matmul_transpose_acc(wx, 3 * h, in, dz.data(), batch,
                                     below[t].data());
        }
      }
      std::swap(dh_next, dh_prev);
    }
    if (li > 0) inject = std::move(below);
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
  run_batch_forward(plane.data(), n, 0, y.data(), s, nullptr);
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
  std::vector<float> y(n);
  Scratch s;
  FitCaches caches;
  run_batch_forward(plane.data(), n, 0, y.data(), s, &caches);
  std::vector<float> dy(n);
  for (std::size_t j = 0; j < n; ++j) {
    dy[j] = static_cast<float>(
        (static_cast<double>(y[j]) - windows[j].target) /
        static_cast<double>(n));
  }
  std::vector<double> grad(param_count(), 0.0);
  run_batch_backward(plane.data(), n, dy.data(), caches, grad);
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
  if (pooled.size() > config_.max_fit_windows) {
    // Deterministic even-stride subsample (cell/time order preserved).
    const std::size_t stride =
        (pooled.size() + config_.max_fit_windows - 1) / config_.max_fit_windows;
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

  Scratch s;
  FitCaches caches;
  std::vector<float> y(n), dy(n);
  std::vector<double> grad(param_count());
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    run_batch_forward(plane.data(), n, 0, y.data(), s, &caches);
    double loss = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double e = static_cast<double>(y[j]) - targets[j];
      loss += 0.5 * e * e;
      dy[j] = static_cast<float>(e / static_cast<double>(n));
    }
    loss_history_.push_back(loss / static_cast<double>(n));

    std::fill(grad.begin(), grad.end(), 0.0);
    run_batch_backward(plane.data(), n, dy.data(), caches, grad);

    if (config_.grad_clip > 0.0) {
      double norm2 = 0.0;
      for (double gk : grad) norm2 += gk * gk;
      const double norm = std::sqrt(norm2);
      if (norm > config_.grad_clip) {
        const double scale = config_.grad_clip / norm;
        for (double& gk : grad) gk *= scale;
      }
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
    run_batch_forward(win.data(), n, width, y.data(), s, nullptr);
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
