#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/demand_forecast.h"
#include "core/esharing.h"
#include "sim/simulation.h"

namespace esharing {
namespace {

/// Asserts that validate() throws std::invalid_argument and that the
/// message names the offending field — the "actionable message" contract.
template <typename Config>
void expect_rejects(const Config& config, const std::string& field) {
  try {
    config.validate();
    FAIL() << "expected " << field << " to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << "message does not name the field: " << e.what();
  }
}

TEST(ESharingConfigValidate, DefaultConfigIsValid) {
  const core::ESharingConfig config;
  EXPECT_NO_THROW(config.validate());
}

TEST(ESharingConfigValidate, RejectsBadPlacerFields) {
  core::ESharingConfig c;
  c.placer.beta = 0.5;
  expect_rejects(c, "placer.beta");

  c = {};
  c.placer.tolerance = 0.0;
  expect_rejects(c, "placer.tolerance");

  c = {};
  c.placer.w_star_override = -1.0;
  expect_rejects(c, "placer.w_star_override");

  c = {};
  c.placer.initial_scale_override = -2.0;
  expect_rejects(c, "placer.initial_scale_override");

  c = {};
  c.placer.initial_scale_override = 0.0;
  c.placer.initial_scale_multiplier = 0.0;
  expect_rejects(c, "placer.initial_scale_multiplier");
}

TEST(ESharingConfigValidate, ScaleMultiplierIgnoredWhenOverrideGiven) {
  core::ESharingConfig c;
  c.placer.initial_scale_override = 500.0;
  c.placer.initial_scale_multiplier = 0.0;  // unused with an override
  EXPECT_NO_THROW(c.validate());
}

TEST(ESharingConfigValidate, RejectsBadIncentiveFields) {
  core::ESharingConfig c;
  c.incentive.alpha = 1.5;
  expect_rejects(c, "incentive.alpha");

  c = {};
  c.incentive.alpha = -0.1;
  expect_rejects(c, "incentive.alpha");

  c = {};
  c.incentive.mileage_slack_m = -1.0;
  expect_rejects(c, "incentive.mileage_slack_m");

  c = {};
  c.incentive.max_sequence_position = 0;
  expect_rejects(c, "incentive.max_sequence_position");

  c = {};
  c.incentive.costs.service_cost_q = -1.0;
  expect_rejects(c, "incentive.costs.service_cost_q");

  c = {};
  c.incentive.costs.delay_cost_d = -1.0;
  expect_rejects(c, "incentive.costs.delay_cost_d");

  c = {};
  c.incentive.costs.energy_cost_b = -1.0;
  expect_rejects(c, "incentive.costs.energy_cost_b");
}

TEST(ESharingConfigValidate, RejectsBadOperatorFields) {
  core::ESharingConfig c;
  c.charging_operator.speed_mps = 0.0;
  expect_rejects(c, "charging_operator.speed_mps");

  c = {};
  c.charging_operator.stop_overhead_s = -1.0;
  expect_rejects(c, "charging_operator.stop_overhead_s");

  c = {};
  c.charging_operator.charge_time_s = -5.0;
  expect_rejects(c, "charging_operator.charge_time_s");

  c = {};
  c.charging_operator.work_seconds = 0.0;
  expect_rejects(c, "charging_operator.work_seconds");
}

TEST(ESharingConfigValidate, ConstructorFailsFast) {
  core::ESharingConfig c;
  c.placer.beta = 0.0;
  EXPECT_THROW(core::ESharing(c, /*seed=*/1), std::invalid_argument);
}

TEST(SimConfigValidate, DefaultConfigIsValid) {
  const sim::SimConfig config;
  EXPECT_NO_THROW(config.validate());
}

TEST(SimConfigValidate, RejectsBadEnergyFields) {
  sim::SimConfig c;
  c.energy.consumption_per_km = 0.0;
  expect_rejects(c, "energy.consumption_per_km");

  c = {};
  c.energy.low_threshold = 0.0;
  expect_rejects(c, "energy.low_threshold");

  c = {};
  c.energy.low_threshold = 1.5;
  expect_rejects(c, "energy.low_threshold");

  c = {};
  c.energy.low_tail_fraction = 1.2;
  expect_rejects(c, "energy.low_tail_fraction");

  c = {};
  c.energy.min_soc = 1.0;
  expect_rejects(c, "energy.min_soc");
}

TEST(SimConfigValidate, RejectsBadSimulationFields) {
  sim::SimConfig c;
  c.mean_opening_cost = 0.0;
  expect_rejects(c, "mean_opening_cost");

  c = {};
  c.charging_period = 0;
  expect_rejects(c, "charging_period");

  c = {};
  c.user_max_walk_lo_m = -10.0;
  expect_rejects(c, "user_max_walk_lo_m");

  c = {};
  c.user_max_walk_hi_m = 0.0;
  c.user_max_walk_lo_m = 100.0;
  expect_rejects(c, "user_max_walk_hi_m");

  c = {};
  c.user_min_reward_lo = 5.0;
  c.user_min_reward_hi = 1.0;
  expect_rejects(c, "user_min_reward_hi");
}

TEST(SimConfigValidate, NestedESharingConfigIsChecked) {
  sim::SimConfig c;
  c.esharing.incentive.alpha = 2.0;
  expect_rejects(c, "incentive.alpha");
}

TEST(GridForecastConfigValidate, DefaultConfigIsValid) {
  const core::GridForecastConfig config;
  EXPECT_NO_THROW(config.validate());
}

TEST(GridForecastConfigValidate, RejectsBadFields) {
  core::GridForecastConfig c;
  c.horizon_hours = 0;
  expect_rejects(c, "horizon_hours");

  c = {};
  c.engine = core::ForecastEngine::kLstm;
  c.rnn_hidden = 0;
  expect_rejects(c, "rnn_hidden");

  c = {};
  c.engine = core::ForecastEngine::kGru;
  c.rnn_batch_epochs = -1;
  expect_rejects(c, "rnn_batch_epochs");

  c = {};
  c.engine = core::ForecastEngine::kLstm;
  c.rnn_batch_epochs = 0;
  expect_rejects(c, "rnn_batch_epochs");

  // The rnn knobs are only constrained when a recurrent engine is chosen.
  c = {};
  c.engine = core::ForecastEngine::kSeasonalNaive;
  c.rnn_hidden = 0;
  EXPECT_NO_THROW(c.validate());
}

}  // namespace
}  // namespace esharing
