#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace esharing::sim {
namespace {

data::CityConfig small_city() {
  data::CityConfig cfg;
  cfg.num_days = 2;
  cfg.trips_per_weekday = 250;
  cfg.trips_per_weekend_day = 200;
  cfg.num_bikes = 60;
  cfg.num_users = 150;
  return cfg;
}

SimConfig fast_sim() {
  SimConfig cfg;
  cfg.esharing.placer.ks_period = 0;  // keep tests fast: no periodic KS
  cfg.esharing.charging_operator.work_seconds = 8.0 * 3600.0;
  return cfg;
}

class SimulationFixture : public ::testing::Test {
 protected:
  SimulationFixture()
      : city_(small_city(), 31),
        history_(city_.generate_trips()),
        live_(city_.generate_trips()) {}

  data::SyntheticCity city_;
  std::vector<data::TripRecord> history_;
  std::vector<data::TripRecord> live_;
};

TEST_F(SimulationFixture, RunRequiresBootstrap) {
  Simulation sim(city_, fast_sim(), 1);
  EXPECT_THROW((void)sim.run(live_), std::logic_error);
}

TEST_F(SimulationFixture, BootstrapRejectsEmptyHistory) {
  Simulation sim(city_, fast_sim(), 2);
  EXPECT_THROW(sim.bootstrap({}), std::invalid_argument);
}

TEST_F(SimulationFixture, BootstrapPlansOfflineParkings) {
  Simulation sim(city_, fast_sim(), 3);
  sim.bootstrap(history_);
  EXPECT_GE(sim.system().offline_solution().num_open(), 2u);
  EXPECT_TRUE(sim.system().online_started());
}

TEST_F(SimulationFixture, RunProcessesEveryTrip) {
  Simulation sim(city_, fast_sim(), 4);
  sim.bootstrap(history_);
  const auto metrics = sim.run(live_);
  EXPECT_EQ(metrics.trips, live_.size());
  EXPECT_GT(metrics.walking_cost_m, 0.0);
  EXPECT_GT(metrics.stations_final, 0u);
}

TEST_F(SimulationFixture, AverageWalkIsPlausible) {
  // Table V scale: "average walking distance (about 180 m of 2-min walk)".
  // Our synthetic city should land in the same order of magnitude.
  Simulation sim(city_, fast_sim(), 5);
  sim.bootstrap(history_);
  const auto metrics = sim.run(live_);
  EXPECT_GT(metrics.avg_walk_m(), 10.0);
  EXPECT_LT(metrics.avg_walk_m(), 1000.0);
}

TEST_F(SimulationFixture, ChargingRoundsHappenPerPeriod) {
  SimConfig cfg = fast_sim();
  cfg.charging_period = data::kSecondsPerDay;
  Simulation sim(city_, cfg, 6);
  sim.bootstrap(history_);
  const auto metrics = sim.run(live_);  // two more days of trips
  // At least the end-of-run flush, plus the in-run daily rounds.
  EXPECT_GE(metrics.charging_rounds.size(), 2u);
}

TEST_F(SimulationFixture, IncentivesAggregateAndPay) {
  SimConfig cfg = fast_sim();
  cfg.esharing.incentive.alpha = 1.0;
  cfg.esharing.incentive.mileage_slack_m = 400.0;
  cfg.user_min_reward_lo = 0.0;
  cfg.user_min_reward_hi = 0.1;  // users accept almost any reward
  cfg.user_max_walk_lo_m = 400.0;
  cfg.user_max_walk_hi_m = 800.0;
  Simulation sim(city_, cfg, 7);
  sim.bootstrap(history_);
  const auto metrics = sim.run(live_);
  EXPECT_GT(metrics.offers_made, 0u);
  EXPECT_GT(metrics.relocations, 0u);
  EXPECT_GT(metrics.incentives_paid, 0.0);
}

TEST_F(SimulationFixture, AlphaZeroPaysNothing) {
  SimConfig cfg = fast_sim();
  cfg.esharing.incentive.alpha = 0.0;
  Simulation sim(city_, cfg, 8);
  sim.bootstrap(history_);
  const auto metrics = sim.run(live_);
  EXPECT_EQ(metrics.relocations, 0u);
  EXPECT_DOUBLE_EQ(metrics.incentives_paid, 0.0);
}

TEST_F(SimulationFixture, DeterministicPerSeed) {
  // Plain replay, then the strongest determinism stressor: the placer's
  // KS regime check (sliding window + RNG-backed regime state) with
  // adaptive penalty types.
  SimConfig stressed = fast_sim();
  stressed.esharing.placer.ks_period = 64;
  stressed.esharing.placer.adaptive_type = true;
  for (const SimConfig& cfg : {fast_sim(), stressed}) {
    Simulation a(city_, cfg, 9);
    Simulation b(city_, cfg, 9);
    a.bootstrap(history_);
    b.bootstrap(history_);
    const auto ma = a.run(live_);
    const auto mb = b.run(live_);
    EXPECT_EQ(ma.trips, mb.trips);
    EXPECT_DOUBLE_EQ(ma.walking_cost_m, mb.walking_cost_m);
    EXPECT_EQ(ma.stations_final, mb.stations_final);
    EXPECT_EQ(ma.stations_online_opened, mb.stations_online_opened);
    EXPECT_EQ(ma.stations_removed, mb.stations_removed);
    EXPECT_DOUBLE_EQ(ma.incentives_paid, mb.incentives_paid);
    EXPECT_EQ(ma.offers_made, mb.offers_made);
    EXPECT_EQ(ma.relocations, mb.relocations);
    ASSERT_EQ(ma.charging_rounds.size(), mb.charging_rounds.size());
    for (std::size_t i = 0; i < ma.charging_rounds.size(); ++i) {
      EXPECT_DOUBLE_EQ(ma.charging_rounds[i].total_cost(),
                       mb.charging_rounds[i].total_cost());
    }
    const auto sa = a.system().placer().active_locations();
    const auto sb = b.system().placer().active_locations();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_DOUBLE_EQ(sa[i].x, sb[i].x) << "station " << i;
      EXPECT_DOUBLE_EQ(sa[i].y, sb[i].y) << "station " << i;
    }
    EXPECT_DOUBLE_EQ(a.system().placer().total_connection_cost(),
                     b.system().placer().total_connection_cost());
    EXPECT_EQ(a.system().reopt_session().revision(),
              b.system().reopt_session().revision());
  }
}

TEST_F(SimulationFixture, RepeatedRunsAdvanceTime) {
  // run() composes: a second call continues the clock.
  Simulation sim(city_, fast_sim(), 7);
  sim.bootstrap(history_);
  const SimMetrics first = sim.run(live_);
  const auto more = city_.generate_trips();
  const SimMetrics second = sim.run(more);
  EXPECT_EQ(first.trips, live_.size());
  EXPECT_EQ(second.trips, more.size());
  EXPECT_GE(second.charging_rounds.size(), 1u);
}

TEST_F(SimulationFixture, MetricsHelpersConsistent) {
  Simulation sim(city_, fast_sim(), 10);
  sim.bootstrap(history_);
  const auto m = sim.run(live_);
  double charging = m.incentives_paid;
  double moving = 0.0;
  for (const auto& r : m.charging_rounds) {
    charging += r.total_cost(0.0);
    moving += r.moving_distance_m;
  }
  EXPECT_DOUBLE_EQ(m.total_charging_cost(), charging);
  EXPECT_DOUBLE_EQ(m.total_moving_distance_m(), moving);
  EXPECT_GE(m.mean_pct_charged(), 0.0);
  EXPECT_LE(m.mean_pct_charged(), 100.0);
}

TEST_F(SimulationFixture, EmptiedStationsAreRemovedAndReestablished) {
  // Footnote 2: few bikes over many stations means pickups repeatedly
  // empty stations; removal must fire, yet the system keeps serving and
  // may re-establish parkings online.
  Simulation sim(city_, fast_sim(), 11);
  sim.bootstrap(history_);
  const auto metrics = sim.run(live_);
  EXPECT_GT(metrics.stations_removed, 0u);
  EXPECT_GE(metrics.stations_final, 1u);
  EXPECT_EQ(metrics.trips, live_.size());
}

TEST(SimMetrics, EmptyMetricsEdgeCases) {
  const SimMetrics m;
  EXPECT_DOUBLE_EQ(m.avg_walk_m(), 0.0);
  EXPECT_DOUBLE_EQ(m.total_charging_cost(), 0.0);
  EXPECT_DOUBLE_EQ(m.mean_pct_charged(), 100.0);
}

}  // namespace
}  // namespace esharing::sim
