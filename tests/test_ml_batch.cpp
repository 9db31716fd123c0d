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
///   * MlBatchLearning — the shared-weight model actually learns the
///     common diurnal shape across cells.

#include "ml/batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
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
  expect_rejects([](BatchRnnConfig& c) { c.max_fit_windows = 0; });
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
  cfg.max_fit_windows = 32;  // far fewer than the pooled window count
  const auto cells = city_fixture(4, 80);
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
