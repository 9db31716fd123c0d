#include "core/demand_forecast.h"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "data/synthetic_city.h"

namespace esharing::core {
namespace {

class GridForecastFixture : public ::testing::Test {
 protected:
  GridForecastFixture()
      : city_(make_config(), 81),
        grid_(city_.grid()),
        matrix_(data::bin_trips(grid_, city_.projection(),
                                city_.generate_trips(),
                                static_cast<std::size_t>(make_config().num_days) * 24)) {}

  static data::CityConfig make_config() {
    data::CityConfig cfg;
    cfg.num_days = 7;
    cfg.trips_per_weekday = 700;
    cfg.trips_per_weekend_day = 550;
    cfg.num_bikes = 120;
    return cfg;
  }

  data::SyntheticCity city_;
  geo::Grid grid_;
  data::DemandMatrix matrix_;
};

TEST_F(GridForecastFixture, SeasonalNaivePredictsPlausibleVolume) {
  GridForecastConfig cfg;
  cfg.engine = ForecastEngine::kSeasonalNaive;
  cfg.horizon_hours = 24;
  const auto fc = forecast_grid_demand(matrix_, grid_, cfg);
  ASSERT_EQ(fc.predicted_arrivals.size(), grid_.cell_count());
  const double predicted =
      std::accumulate(fc.predicted_arrivals.begin(),
                      fc.predicted_arrivals.end(), 0.0);
  // One day of demand: between half and double the mean historical day.
  const auto hourly = matrix_.total_per_hour();
  const double daily_mean =
      std::accumulate(hourly.begin(), hourly.end(), 0.0) / 7.0;
  EXPECT_GT(predicted, 0.5 * daily_mean);
  EXPECT_LT(predicted, 2.0 * daily_mean);
  EXPECT_GT(fc.modeled_cells, 0u);
  EXPECT_LE(fc.modeled_cells, cfg.top_cells);
}

TEST_F(GridForecastFixture, NoNegativePredictions) {
  for (ForecastEngine engine :
       {ForecastEngine::kSeasonalNaive, ForecastEngine::kMovingAverage,
        ForecastEngine::kArima}) {
    GridForecastConfig cfg;
    cfg.engine = engine;
    cfg.top_cells = 20;
    const auto fc = forecast_grid_demand(matrix_, grid_, cfg);
    for (double v : fc.predicted_arrivals) EXPECT_GE(v, 0.0);
  }
}

TEST_F(GridForecastFixture, BusyCellsStayBusyInTheForecast) {
  GridForecastConfig cfg;
  cfg.engine = ForecastEngine::kSeasonalNaive;
  const auto fc = forecast_grid_demand(matrix_, grid_, cfg);
  const auto top = matrix_.top_cells(5);
  const double mean_pred =
      std::accumulate(fc.predicted_arrivals.begin(),
                      fc.predicted_arrivals.end(), 0.0) /
      static_cast<double>(fc.predicted_arrivals.size());
  for (std::size_t cell : top) {
    EXPECT_GT(fc.predicted_arrivals[cell], 3.0 * mean_pred);
  }
}

TEST_F(GridForecastFixture, SitesMatchPositiveCells) {
  GridForecastConfig cfg;
  const auto fc = forecast_grid_demand(matrix_, grid_, cfg);
  const auto sites = fc.sites(grid_);
  std::size_t positive = 0;
  for (double v : fc.predicted_arrivals) positive += v > 0.0 ? 1 : 0;
  EXPECT_EQ(sites.size(), positive);
  for (const auto& s : sites) {
    EXPECT_DOUBLE_EQ(s.arrivals, fc.predicted_arrivals[s.cell]);
    EXPECT_EQ(grid_.centroid_of(grid_.cell_at(s.cell)), s.location);
  }
}

TEST_F(GridForecastFixture, RnnEnginesRunOnTopCells) {
  GridForecastConfig cfg;
  cfg.engine = ForecastEngine::kLstm;
  cfg.top_cells = 3;
  cfg.rnn_batch_epochs = 3;  // keep the shared fit cheap
  const auto fc = forecast_grid_demand(matrix_, grid_, cfg);
  EXPECT_GT(fc.modeled_cells, 0u);
  EXPECT_LE(fc.modeled_cells, 3u);
  for (double v : fc.predicted_arrivals) EXPECT_GE(v, 0.0);
}

TEST_F(GridForecastFixture, BatchedRnnPathMatchesShapeOfPerCellPath) {
  GridForecastConfig cfg;
  cfg.engine = ForecastEngine::kGru;
  cfg.top_cells = 6;
  cfg.rnn_batch_epochs = 10;
  const auto fc = forecast_grid_demand(matrix_, grid_, cfg);
  ASSERT_EQ(fc.predicted_arrivals.size(), grid_.cell_count());
  EXPECT_GT(fc.modeled_cells, 0u);
  EXPECT_LE(fc.modeled_cells, 6u);
  for (double v : fc.predicted_arrivals) EXPECT_GE(v, 0.0);
  const double predicted =
      std::accumulate(fc.predicted_arrivals.begin(),
                      fc.predicted_arrivals.end(), 0.0);
  EXPECT_GT(predicted, 0.0);
}

TEST_F(GridForecastFixture, RnnPathDeterministicAcrossRuns) {
  GridForecastConfig cfg;
  cfg.engine = ForecastEngine::kLstm;
  cfg.top_cells = 3;
  cfg.rnn_batch_epochs = 2;
  const auto a = forecast_grid_demand(matrix_, grid_, cfg);
  const auto b = forecast_grid_demand(matrix_, grid_, cfg);
  ASSERT_EQ(a.predicted_arrivals.size(), b.predicted_arrivals.size());
  for (std::size_t c = 0; c < a.predicted_arrivals.size(); ++c) {
    EXPECT_DOUBLE_EQ(a.predicted_arrivals[c], b.predicted_arrivals[c]);
  }
}

TEST_F(GridForecastFixture, Validates) {
  GridForecastConfig cfg;
  cfg.horizon_hours = 0;
  EXPECT_THROW((void)forecast_grid_demand(matrix_, grid_, cfg),
               std::invalid_argument);
  const data::DemandMatrix wrong(grid_.cell_count() + 1, 72);
  EXPECT_THROW((void)forecast_grid_demand(wrong, grid_, {}),
               std::invalid_argument);
  const data::DemandMatrix short_history(grid_.cell_count(), 24);
  EXPECT_THROW((void)forecast_grid_demand(short_history, grid_, {}),
               std::invalid_argument);
}

TEST(ForecastEngineName, AllNamed) {
  EXPECT_STREQ(forecast_engine_name(ForecastEngine::kLstm), "lstm");
  EXPECT_STREQ(forecast_engine_name(ForecastEngine::kGru), "gru");
  EXPECT_STREQ(forecast_engine_name(ForecastEngine::kSeasonalNaive),
               "seasonal-naive");
}

}  // namespace
}  // namespace esharing::core
