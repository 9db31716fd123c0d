/// Batched forecasting runtime (ml/batch.h):
///
///   * MlBatchConfig — fail-fast validate() on every field.
///   * MlBatchGradientCheck — batched BPTT vs central finite differences
///     over (kind × depth), through pooled_loss/pooled_gradient.
///   * MlBatchEquivalence — the determinism tentpole: forecast_one
///     (batch = 1) bit-equals any batch row, batches are invariant to
///     batch composition, and fit + forecast are bit-identical at every
///     exec pool width, including batches that span several inference
///     tiles.
///   * MlBatchGolden — fitted-parameter and pooled_gradient bit digests
///     pinned across kinds, depths, batch sizes and pool widths, so the
///     fit path can be restructured without moving a single bit.
///   * MlBatchWorkGate — a fit of the hourly re-plan shape dispatches at
///     most four pool regions per epoch, at every pool width, and a
///     refresh counts its recurrent steps once, however many tiles it runs.
///   * MlBatchLearning — the shared-weight model actually learns the
///     common diurnal shape across cells.

#include "ml/batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "stats/rng.h"

namespace esharing::ml::batch {
namespace {

/// Diurnal-style cell series: shared period, per-cell phase and level.
Series cell_series(std::size_t n, double period, double phase, double amp,
                   double offset) {
  Series s;
  s.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    s.push_back(offset +
                amp * std::sin(2.0 * std::numbers::pi *
                                   (static_cast<double>(t) + phase) / period));
  }
  return s;
}

std::vector<Series> city_fixture(std::size_t cells, std::size_t n) {
  std::vector<Series> out;
  out.reserve(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    const double phase = static_cast<double>(c) * 1.7;
    const double amp = 4.0 + static_cast<double>(c % 5);
    const double offset = 10.0 + 3.0 * static_cast<double>(c % 7);
    out.push_back(cell_series(n, 24.0, phase, amp, offset));
  }
  return out;
}

BatchRnnConfig tiny_config(RnnKind kind = RnnKind::kLstm) {
  BatchRnnConfig cfg;
  cfg.kind = kind;
  cfg.layers = 1;
  cfg.hidden = 6;
  cfg.lookback = 4;
  cfg.epochs = 8;
  cfg.seed = 3;
  return cfg;
}

/// RAII width override so a failing assertion cannot leak a wide pool
/// into later tests.
struct ScopedThreads {
  std::size_t original;
  explicit ScopedThreads(std::size_t width) : original(exec::global_threads()) {
    exec::set_global_threads(width);
  }
  ~ScopedThreads() { exec::set_global_threads(original); }
};

// --- MlBatchConfig ----------------------------------------------------------

TEST(MlBatchConfig, ValidateRejectsEveryBadField) {
  const auto expect_rejects = [](auto mutate) {
    BatchRnnConfig bad = tiny_config();
    mutate(bad);
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    EXPECT_THROW(BatchRnn{bad}, std::invalid_argument);
  };
  expect_rejects([](BatchRnnConfig& c) { c.layers = 0; });
  expect_rejects([](BatchRnnConfig& c) { c.hidden = -1; });
  expect_rejects([](BatchRnnConfig& c) { c.lookback = 0; });
  expect_rejects([](BatchRnnConfig& c) { c.epochs = 0; });
  expect_rejects([](BatchRnnConfig& c) { c.learning_rate = 0.0; });
  EXPECT_NO_THROW(tiny_config().validate());
}

TEST(MlBatchConfig, ValidationErrorsNameTheField) {
  BatchRnnConfig bad = tiny_config();
  bad.hidden = 0;
  try {
    bad.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("hidden"), std::string::npos);
  }
}

TEST(MlBatchConfig, LifecycleGuards) {
  BatchRnn model(tiny_config());
  EXPECT_FALSE(model.fitted());
  EXPECT_THROW((void)model.forecast({{1, 2, 3, 4}}, 1), std::logic_error);
  EXPECT_THROW(model.fit({}), std::invalid_argument);
  EXPECT_THROW(model.fit({{1.0, 2.0}}), std::invalid_argument);
  model.fit(city_fixture(3, 60));
  EXPECT_TRUE(model.fitted());
  EXPECT_THROW((void)model.forecast({{1.0, 2.0}}, 1), std::invalid_argument);
  EXPECT_TRUE(model.forecast({}, 4).empty());
}

TEST(MlBatchConfig, ParameterCountMatchesScalarLayout) {
  BatchRnnConfig cfg = tiny_config();
  cfg.layers = 2;
  cfg.hidden = 5;
  const std::size_t h = 5;
  // Per layer G*h*in + G*h*h + G*h, then h + 1 for the output head.
  cfg.kind = RnnKind::kLstm;
  EXPECT_EQ(BatchRnn(cfg).param_count(),
            (4 * h * 1 + 4 * h * h + 4 * h) + (4 * h * h + 4 * h * h + 4 * h) +
                h + 1);
  cfg.kind = RnnKind::kGru;
  EXPECT_EQ(BatchRnn(cfg).param_count(),
            (3 * h * 1 + 3 * h * h + 3 * h) + (3 * h * h + 3 * h * h + 3 * h) +
                h + 1);
}

TEST(MlBatchConfig, NameEncodesArchitecture) {
  BatchRnnConfig cfg = tiny_config();
  cfg.layers = 2;
  cfg.hidden = 12;
  cfg.lookback = 12;
  EXPECT_EQ(BatchRnn(cfg).name(), "BatchLSTM(layers=2,hidden=12,back=12)");
  cfg.kind = RnnKind::kGru;
  EXPECT_EQ(BatchRnn(cfg).name(), "BatchGRU(layers=2,hidden=12,back=12)");
}

// --- MlBatchGradientCheck ---------------------------------------------------

/// Batched analytic BPTT vs central finite differences. Parameters are
/// fp32, so the probe step and tolerances are coarse, but the
/// double-accumulated gradient must still track the numeric one to a few
/// percent. Depths run to 3, the deepest Table II stack.
class MlBatchGradientCheck
    : public ::testing::TestWithParam<std::pair<RnnKind, int>> {};

TEST_P(MlBatchGradientCheck, AnalyticMatchesNumeric) {
  const auto [kind, layers] = GetParam();
  BatchRnnConfig cfg;
  cfg.kind = kind;
  cfg.layers = layers;
  cfg.hidden = 4;
  cfg.lookback = 5;
  cfg.seed = 11 + static_cast<std::uint64_t>(layers);
  BatchRnn model(cfg);

  stats::Rng rng(99);
  std::vector<Window> windows(6);
  for (Window& w : windows) {
    for (std::size_t i = 0; i < cfg.lookback; ++i) {
      w.input.push_back(rng.uniform(-1.0, 1.0));
    }
    w.target = rng.uniform(-1.0, 1.0);
  }

  const std::vector<double> analytic = model.pooled_gradient(windows);
  std::vector<float>& params = model.parameters();
  ASSERT_EQ(analytic.size(), params.size());

  const float eps = 5e-3f;
  for (std::size_t k = 0; k < params.size(); k += 5) {
    const float saved = params[k];
    params[k] = saved + eps;
    const double up = model.pooled_loss(windows);
    params[k] = saved - eps;
    const double down = model.pooled_loss(windows);
    params[k] = saved;
    const double numeric = (up - down) / (2.0 * static_cast<double>(eps));
    const double tol = 3e-3 + 0.03 * std::abs(analytic[k]);
    EXPECT_NEAR(analytic[k], numeric, tol) << "parameter index " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndDepths, MlBatchGradientCheck,
    ::testing::Values(std::pair{RnnKind::kLstm, 1}, std::pair{RnnKind::kLstm, 2},
                      std::pair{RnnKind::kLstm, 3}, std::pair{RnnKind::kGru, 1},
                      std::pair{RnnKind::kGru, 2}, std::pair{RnnKind::kGru, 3}));

// --- MlBatchEquivalence -----------------------------------------------------

class MlBatchEquivalence : public ::testing::TestWithParam<RnnKind> {};

TEST_P(MlBatchEquivalence, ForecastOneBitEqualsBatchRows) {
  BatchRnnConfig cfg = tiny_config(GetParam());
  cfg.hidden = 10;
  cfg.lookback = 8;
  const auto cells = city_fixture(7, 80);
  BatchRnn model(cfg);
  model.fit(cells);

  const auto batched = model.forecast(cells, 6);
  ASSERT_EQ(batched.size(), cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Series solo = model.forecast_one(cells[c], 6);
    ASSERT_EQ(batched[c].size(), 6u);
    for (std::size_t t = 0; t < 6; ++t) {
      // Bitwise: a cell's forecast must not depend on its batch.
      EXPECT_EQ(batched[c][t], solo[t]) << "cell " << c << " step " << t;
    }
  }
}

TEST_P(MlBatchEquivalence, BatchCompositionDoesNotChangeRows) {
  BatchRnnConfig cfg = tiny_config(GetParam());
  const auto cells = city_fixture(6, 60);
  BatchRnn model(cfg);
  model.fit(cells);

  const auto all = model.forecast(cells, 3);
  const std::vector<Series> subset{cells[4], cells[1]};
  const auto pair = model.forecast(subset, 3);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(pair[0][t], all[4][t]);
    EXPECT_EQ(pair[1][t], all[1][t]);
  }
}

TEST_P(MlBatchEquivalence, FitAndForecastBitIdenticalAcrossPoolWidths) {
  BatchRnnConfig cfg = tiny_config(GetParam());
  cfg.hidden = 12;  // push the gate GEMMs over the serial cutoff
  cfg.lookback = 8;
  cfg.epochs = 4;
  const auto cells = city_fixture(9, 72);

  std::vector<float> base_params;
  std::vector<Series> base_forecast;
  std::vector<std::size_t> widths{1, 2, 4, exec::global_threads()};
  for (const std::size_t width : widths) {
    ScopedThreads scoped(width);
    BatchRnn model(cfg);
    model.fit(cells);
    const auto fc = model.forecast(cells, 4);
    if (base_params.empty()) {
      base_params = model.parameters();
      base_forecast = fc;
      continue;
    }
    ASSERT_EQ(model.parameters().size(), base_params.size());
    for (std::size_t k = 0; k < base_params.size(); ++k) {
      ASSERT_EQ(model.parameters()[k], base_params[k])
          << "width " << width << " parameter " << k;
    }
    for (std::size_t c = 0; c < cells.size(); ++c) {
      for (std::size_t t = 0; t < 4; ++t) {
        ASSERT_EQ(fc[c][t], base_forecast[c][t])
            << "width " << width << " cell " << c << " step " << t;
      }
    }
  }
}

TEST_P(MlBatchEquivalence, ExplicitKernelWidthsAgree) {
  BatchRnnConfig cfg = tiny_config(GetParam());
  const auto cells = city_fixture(5, 60);
  BatchRnn model(cfg);
  model.fit(cells);
  const auto base = model.forecast(cells, 3, /*width=*/1);
  for (const std::size_t width : {std::size_t{2}, std::size_t{3}}) {
    const auto other = model.forecast(cells, 3, width);
    for (std::size_t c = 0; c < cells.size(); ++c) {
      for (std::size_t t = 0; t < 3; ++t) {
        EXPECT_EQ(other[c][t], base[c][t]);
      }
    }
  }
}

TEST_P(MlBatchEquivalence, TiledForecastBitIdentical) {
  // Batches past one inference tile (kForwardTile = 512 cells in batch.cpp)
  // run tile by tile on the pool; sizes straddle the tile edge so the last
  // tile is partial, and horizon 3 slides the window across tiles.
  constexpr std::size_t kTile = 512;
  constexpr std::size_t kHorizon = 3;
  BatchRnnConfig cfg = tiny_config(GetParam());
  cfg.hidden = 12;
  cfg.lookback = 8;
  cfg.epochs = 4;
  BatchRnn model(cfg);
  model.fit(city_fixture(9, 72));
  const auto all = city_fixture(1100, 40);
  const std::size_t default_width = exec::global_threads();

  for (const std::size_t n : {std::size_t{511}, std::size_t{512},
                              std::size_t{513}, std::size_t{1100}}) {
    const std::vector<Series> cells(
        all.begin(), all.begin() + static_cast<std::ptrdiff_t>(n));
    const auto expect_rows = [&](const std::vector<Series>& fc,
                                 const std::vector<Series>& base,
                                 const std::string& what) {
      ASSERT_EQ(fc.size(), n) << what;
      for (std::size_t c = 0; c < n; ++c) {
        ASSERT_EQ(fc[c].size(), kHorizon) << what;
        for (std::size_t t = 0; t < kHorizon; ++t) {
          ASSERT_EQ(fc[c][t], base[c][t])
              << what << " cells " << n << " cell " << c << " step " << t;
        }
      }
    };

    std::vector<Series> base;
    {
      ScopedThreads scoped(1);
      base = model.forecast(cells, kHorizon);
    }
    for (const std::size_t pool :
         {std::size_t{2}, std::size_t{4}, default_width}) {
      ScopedThreads scoped(pool);
      expect_rows(model.forecast(cells, kHorizon), base,
                  "pool " + std::to_string(pool));
    }
    for (const std::size_t width :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
      expect_rows(model.forecast(cells, kHorizon, width), base,
                  "width " + std::to_string(width));
    }
    for (std::size_t start = 0; start < n; start += kTile) {
      for (const std::size_t c : {start, std::min(n, start + kTile) - 1}) {
        const Series solo = model.forecast_one(cells[c], kHorizon);
        for (std::size_t t = 0; t < kHorizon; ++t) {
          EXPECT_EQ(solo[t], base[c][t])
              << "cells " << n << " cell " << c << " step " << t;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, MlBatchEquivalence,
                         ::testing::Values(RnnKind::kLstm, RnnKind::kGru));

// --- MlBatchGolden ----------------------------------------------------------

/// FNV-1a over the object bytes of a value sequence: a bit-exact digest of
/// parameters, gradients or losses.
template <typename T>
std::uint64_t bit_digest(const std::vector<T>& values,
                         std::uint64_t h = 1469598103934665603ULL) {
  for (const T& v : values) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The golden architectures: the hourly-replan shape (one LSTM layer of 12
/// units over 12 hours) and its GRU twin, plus two-layer stacks at an odd
/// hidden size whose gate rows are not a multiple of any vector width.
BatchRnnConfig golden_config(RnnKind kind, int layers) {
  BatchRnnConfig cfg;
  cfg.kind = kind;
  cfg.layers = layers;
  cfg.hidden = layers == 1 ? 12 : 5;
  cfg.lookback = layers == 1 ? 12 : 6;
  cfg.epochs = 2;
  cfg.seed = 5 + static_cast<std::uint64_t>(layers);
  return cfg;
}

/// Batch sizes straddling the plane-kernel lane block (kPlaneLanes = 8),
/// every power-of-two window tile from 64 to 512, the hourly-replan fit
/// batch (128 cells x 36 windows), and 224 cells x 36 windows, whose
/// 8,064 pooled windows the fit strides down to 4,032 under its
/// 8,000-window cap.
const std::vector<std::size_t>& golden_batches() {
  static const std::vector<std::size_t> sizes{
      1, 7, 9, 63, 65, 127, 129, 255, 257, 511, 513, 4608, 8064};
  return sizes;
}

struct GoldenCase {
  RnnKind kind;
  int layers;
  std::size_t batch;
  const char* gradient;  ///< pooled_gradient digest
  const char* fit;       ///< fitted parameters + loss history digest
};

/// Digests captured from the untiled full-batch BPTT (per-kernel fan-out,
/// row-parallel outer products); the 8,064-window rows from the tiled fit.
/// Any rewrite of the fit path must reproduce every bit.
const std::vector<GoldenCase>& golden_cases() {
  static const std::vector<GoldenCase> cases{
      // clang-format off
      {RnnKind::kLstm, 1, 1, "01266f88780c67ee", ""},
      {RnnKind::kLstm, 1, 7, "3650288a23b73c4a", "73850183cbf36d55"},
      {RnnKind::kLstm, 1, 9, "bad5af34add4ccbe", "f1ceea837e8a3fb9"},
      {RnnKind::kLstm, 1, 63, "006d444335194582", "7536c196a43251f5"},
      {RnnKind::kLstm, 1, 65, "d64959314a8678fb", "c2efbdd195d5cf5c"},
      {RnnKind::kLstm, 1, 127, "26f6dbd46405ab23", "73125ecc61f96ca8"},
      {RnnKind::kLstm, 1, 129, "6ffad78424b577cb", "3ebcd22a23ece3b4"},
      {RnnKind::kLstm, 1, 255, "bb4b329b41316642", "66a5ce9d40319a90"},
      {RnnKind::kLstm, 1, 257, "626015c93ce2cde6", "b7c97597f4a56407"},
      {RnnKind::kLstm, 1, 511, "f5a79d3053d089da", "f5c7685c7a423fba"},
      {RnnKind::kLstm, 1, 513, "bf53a6ea8085860f", "35ff700816002448"},
      {RnnKind::kLstm, 1, 4608, "c0759b4c17eda080", "89a3305582ed8fda"},
      {RnnKind::kLstm, 1, 8064, "56673f2a957dad39", "d5df4d6b16052d3c"},
      {RnnKind::kLstm, 2, 1, "bdcbbe5695fce43a", ""},
      {RnnKind::kLstm, 2, 7, "85d0161e61645311", "2fd648601947e5a4"},
      {RnnKind::kLstm, 2, 9, "21f38920dce93d92", "f7663d99bf052b1a"},
      {RnnKind::kLstm, 2, 63, "8911ff4d5fd335b9", "0d31cfe6e4b68f97"},
      {RnnKind::kLstm, 2, 65, "f02774b63b328ac4", "5892851459fac3a1"},
      {RnnKind::kLstm, 2, 127, "0542aeaeb09f323c", "0e86cdf0e2103c5f"},
      {RnnKind::kLstm, 2, 129, "7296e151b918935e", "45ae759fc8682a56"},
      {RnnKind::kLstm, 2, 255, "c95f37fbb70a78ec", "b5db02e73062c345"},
      {RnnKind::kLstm, 2, 257, "2ba5625dd288e5b6", "4b0bd1ec5ffcbb3f"},
      {RnnKind::kLstm, 2, 511, "7aad1d820af6b915", "fe0b22f096fcbfea"},
      {RnnKind::kLstm, 2, 513, "b7f2ce8e895a20d5", "0886a03e9ce1549b"},
      {RnnKind::kLstm, 2, 4608, "2c1539ec2ea3f6f7", "c9756c9724dad104"},
      {RnnKind::kLstm, 2, 8064, "8e1804919277d618", "46496e383bf2ea23"},
      {RnnKind::kGru, 1, 1, "84ee1677a16bdbf5", ""},
      {RnnKind::kGru, 1, 7, "4d3c82d17eef754e", "7960defcd4d89abb"},
      {RnnKind::kGru, 1, 9, "3696b13df0bae03d", "fa7c117185a0c970"},
      {RnnKind::kGru, 1, 63, "7e22b9c24720897a", "32d1df2007dbf5e8"},
      {RnnKind::kGru, 1, 65, "a9a2e95a1ffb8cc4", "86316a094f042e8e"},
      {RnnKind::kGru, 1, 127, "2260db0a0d0ad523", "41a1e614f2d9efd1"},
      {RnnKind::kGru, 1, 129, "fead8d42d6312ce5", "6b175f68baee9bfe"},
      {RnnKind::kGru, 1, 255, "e44abe23acd67c19", "2ce1914dbf138859"},
      {RnnKind::kGru, 1, 257, "7ec9a5ef58b31935", "7b5150f5540a5a9f"},
      {RnnKind::kGru, 1, 511, "1530779b6e200480", "31907e2d28162111"},
      {RnnKind::kGru, 1, 513, "c1dbdc523026566f", "b2ed2fffe3da3d05"},
      {RnnKind::kGru, 1, 4608, "f480eb01783b131c", "5796d89ecc40e5a3"},
      {RnnKind::kGru, 1, 8064, "d6b0d7dda17d0f69", "703ce1c25da5dcb8"},
      {RnnKind::kGru, 2, 1, "d08cf2978a351b29", ""},
      {RnnKind::kGru, 2, 7, "c8cf834f1322c317", "2d6febb3b5706f46"},
      {RnnKind::kGru, 2, 9, "9f1e893e8d19862e", "dfd0dec2c8b3a703"},
      {RnnKind::kGru, 2, 63, "b63cb1a77ed1b965", "b620954131bd3cf7"},
      {RnnKind::kGru, 2, 65, "e493bea153d5409a", "c2f58703ea043a02"},
      {RnnKind::kGru, 2, 127, "a6a3b4c531edc664", "c5f62769e84a4fe7"},
      {RnnKind::kGru, 2, 129, "a7322d0da7a8e49b", "8332d98c44d96c08"},
      {RnnKind::kGru, 2, 255, "b32cafb476b25a3f", "3a194e461bf94594"},
      {RnnKind::kGru, 2, 257, "7f5377ff57a31e07", "a9fd44476553537d"},
      {RnnKind::kGru, 2, 511, "8fcff1b52897bd59", "13e7282b57c5d2d3"},
      {RnnKind::kGru, 2, 513, "4ddbc6b11ec745cb", "679f08157fc25537"},
      {RnnKind::kGru, 2, 4608, "9aaee8fc4fd209d8", "c7b7689281cdf031"},
      {RnnKind::kGru, 2, 8064, "663a485f5a99de15", "4256beafe77e9c1f"},
      // clang-format on
  };
  return cases;
}

std::string golden_label(RnnKind kind, int layers, std::size_t batch,
                         std::size_t width) {
  return std::string(kind == RnnKind::kLstm ? "lstm" : "gru") + " layers " +
         std::to_string(layers) + " batch " + std::to_string(batch) +
         " pool " + std::to_string(width);
}

/// Standardized-looking random windows for pooled_gradient.
std::vector<Window> golden_windows(std::size_t n, std::size_t lookback) {
  stats::Rng rng(0x601d + n);
  std::vector<Window> windows(n);
  for (Window& w : windows) {
    for (std::size_t i = 0; i < lookback; ++i) {
      w.input.push_back(rng.uniform(-2.0, 2.0));
    }
    w.target = rng.uniform(-2.0, 2.0);
  }
  return windows;
}

/// Cell series whose pooled training set holds exactly `n` windows: 36
/// windows per cell (two days of hourly history at lookback 12) when n is a
/// multiple of 36, else one cell.
std::vector<Series> golden_cells(std::size_t n, std::size_t lookback) {
  if (n % 36 == 0) return city_fixture(n / 36, lookback + 36);
  return city_fixture(1, lookback + n);
}

TEST(MlBatchGolden, PooledGradientAndFitBitsMatchAtEveryPoolWidth) {
  for (const RnnKind kind : {RnnKind::kLstm, RnnKind::kGru}) {
    for (const int layers : {1, 2}) {
      for (const std::size_t n : golden_batches()) {
        std::string grad_hex, fit_hex;
        for (const std::size_t width :
             {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
          ScopedThreads scoped(width);
          BatchRnnConfig cfg = golden_config(kind, layers);
          BatchRnn probe(cfg);
          const std::string g =
              hex(bit_digest(probe.pooled_gradient(
                  golden_windows(n, cfg.lookback))));
          // A fit needs two windows per cell, so batch 1 pins the gradient
          // only (its golden fit digest is empty).
          std::string f;
          if (n > 1) {
            BatchRnn model(cfg);
            model.fit(golden_cells(n, cfg.lookback));
            f = hex(bit_digest(model.loss_history(),
                               bit_digest(model.parameters())));
          }
          if (width == 1) {
            grad_hex = g;
            fit_hex = f;
          }
          const std::string label = golden_label(kind, layers, n, width);
          EXPECT_EQ(g, grad_hex) << label << ": gradient differs from pool 1";
          EXPECT_EQ(f, fit_hex) << label << ": fit differs from pool 1";
          const auto expected = std::find_if(
              golden_cases().begin(), golden_cases().end(),
              [&](const GoldenCase& c) {
                return c.kind == kind && c.layers == layers && c.batch == n;
              });
          if (expected == golden_cases().end()) {
            ADD_FAILURE() << label << ": no golden row {RnnKind::"
                          << (kind == RnnKind::kLstm ? "kLstm" : "kGru")
                          << ", " << layers << ", " << n << ", \"" << g
                          << "\", \"" << f << "\"},";
            continue;
          }
          EXPECT_EQ(g, expected->gradient) << label << ": gradient bits";
          EXPECT_EQ(f, expected->fit) << label << ": fitted parameter bits";
        }
      }
    }
  }
}

// --- MlBatchWorkGate --------------------------------------------------------

/// Host-independent work gate for the tiled fit: each epoch runs the
/// forward and backward recurrence as one pool region over window tiles
/// and the weight-gradient fold as one more, so a fit of the hourly
/// re-plan's shape (128 cells × 48 h, one LSTM layer of 12 units over 12
/// hours, 15 epochs, 4,608 windows) stays within 4 regions per epoch. The
/// per-kernel fan-out it replaced dispatched 85 per epoch.
TEST(MlBatchWorkGate, FitDispatchesAtMostFourPoolRegionsPerEpoch) {
  BatchRnnConfig cfg;
  cfg.kind = RnnKind::kLstm;
  cfg.layers = 1;
  cfg.hidden = 12;
  cfg.lookback = 12;
  cfg.epochs = 15;
  cfg.seed = 1;
  const auto cells = city_fixture(128, 48);
  obs::Counter& regions =
      obs::Registry::global().counter("exec.pool.parallel_fors");
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    ScopedThreads scoped(width);
    BatchRnn model(cfg);
    const bool was_enabled = obs::enabled();
    obs::set_enabled(true);
    const std::uint64_t before = regions.value();
    model.fit(cells);
    const std::uint64_t dispatched = regions.value() - before;
    obs::set_enabled(was_enabled);
    EXPECT_LE(dispatched, 4u * static_cast<std::uint64_t>(cfg.epochs))
        << "pool " << width;
    EXPECT_GE(dispatched, static_cast<std::uint64_t>(cfg.epochs))
        << "pool " << width << ": the counter did not see the fit";
  }
}

/// `ml.forecast.steps` counts recurrent steps per refresh: one horizon-1
/// forecast adds lookback × layers whatever the cell count, including
/// batches that run as several inference tiles (kForwardTile = 512).
TEST(MlBatchWorkGate, ForecastStepsCountOncePerRefresh) {
  BatchRnnConfig cfg = tiny_config();
  cfg.layers = 2;
  BatchRnn model(cfg);
  model.fit(city_fixture(3, 40));
  obs::Counter& steps = obs::Registry::global().counter("ml.forecast.steps");
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  for (const std::size_t cells :
       {std::size_t{511}, std::size_t{513}, std::size_t{1100}}) {
    const auto histories = city_fixture(cells, cfg.lookback + 2);
    const std::uint64_t before = steps.value();
    (void)model.forecast(histories, 1);
    EXPECT_EQ(steps.value() - before, cfg.lookback * 2) << cells << " cells";
  }
  obs::set_enabled(was_enabled);
}

// --- MlBatchLearning --------------------------------------------------------

TEST(MlBatchLearning, TrainingLossDecreases) {
  BatchRnnConfig cfg = tiny_config();
  cfg.hidden = 12;
  cfg.lookback = 8;
  cfg.epochs = 25;
  BatchRnn model(cfg);
  model.fit(city_fixture(5, 120));
  const auto& losses = model.loss_history();
  ASSERT_EQ(losses.size(), 25u);
  EXPECT_LT(losses.back(), 0.5 * losses.front());
}

TEST(MlBatchLearning, SharedWeightsTrackEachCellsLevel) {
  // Cells share the diurnal shape but differ in phase and level; the
  // shared-weight forecast must come back near each cell's own next value.
  BatchRnnConfig cfg = tiny_config();
  cfg.hidden = 16;
  cfg.lookback = 12;
  cfg.epochs = 50;
  const auto cells = city_fixture(6, 200);
  std::vector<Series> train(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    train[c] = Series(cells[c].begin(), cells[c].end() - 1);
  }
  BatchRnn model(cfg);
  model.fit(train);
  const auto fc = model.forecast(train, 1);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    EXPECT_NEAR(fc[c][0], cells[c].back(), 2.5) << "cell " << c;
  }
}

TEST(MlBatchLearning, FitSubsamplesPastWindowCapDeterministically) {
  BatchRnnConfig cfg = tiny_config();
  // 224 cells x 36 windows: 8,064 pooled windows, past the 8,000 cap.
  const auto cells = city_fixture(224, cfg.lookback + 36);
  BatchRnn a(cfg), b(cfg);
  a.fit(cells);
  b.fit(cells);
  ASSERT_EQ(a.parameters().size(), b.parameters().size());
  for (std::size_t k = 0; k < a.parameters().size(); ++k) {
    ASSERT_EQ(a.parameters()[k], b.parameters()[k]);
  }
}

}  // namespace
}  // namespace esharing::ml::batch
