#pragma once

/// \file simulation.h
/// End-to-end discrete-event simulation of an E-Sharing deployment: a trip
/// stream (from the synthetic city) drives the tier-one placer (drop-offs
/// request parkings, new stations open online), bikes move and drain their
/// batteries, pickups trigger tier-two incentive offers, and a charging
/// operator runs periodic rounds over the stations that still hold
/// low-battery bikes. This is the integration layer the examples and the
/// Fig. 11/12 + Table VI benches run on.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/esharing.h"
#include "data/synthetic_city.h"
#include "data/trip.h"
#include "energy/battery.h"
#include "geo/point.h"
#include "geo/spatial_index.h"
#include "stats/rng.h"

namespace esharing::sim {

struct SimConfig {
  core::ESharingConfig esharing;
  energy::EnergyConfig energy;  // analyze-ok: knob-reach synthetic-data fixture
  // analyze-ok: knob-reach synthetic-data fixture: the simulated opening-cost field
  double mean_opening_cost{10000.0};  ///< f_i mean, meters-equivalent (paper: 10 km)
  data::Seconds charging_period{data::kSecondsPerDay};  ///< one round per period
  /// User-behaviour sampling ranges (Eq. 13 thresholds): the synthetic
  /// user model.
  double user_max_walk_lo_m{100.0};  // analyze-ok: knob-reach synthetic user model
  double user_max_walk_hi_m{500.0};  // analyze-ok: knob-reach synthetic user model
  double user_min_reward_lo{0.0};    // analyze-ok: knob-reach synthetic user model
  double user_min_reward_hi{1.2};

  /// Fail fast on inconsistent parameters (including the nested
  /// ESharingConfig). Called by the Simulation constructor.
  /// \throws std::invalid_argument on the first violated constraint.
  void validate() const;
};

struct SimMetrics {
  std::size_t trips{0};
  double walking_cost_m{0.0};  ///< total user dissatisfaction incurred
  std::size_t stations_final{0};
  std::size_t stations_online_opened{0};
  std::size_t stations_removed{0};  ///< footnote-2 removals (emptied)
  double incentives_paid{0.0};
  std::size_t offers_made{0};
  std::size_t relocations{0};
  std::vector<core::ChargingRoundResult> charging_rounds;

  [[nodiscard]] double avg_walk_m() const {
    return trips == 0 ? 0.0 : walking_cost_m / static_cast<double>(trips);
  }
  [[nodiscard]] double total_charging_cost() const;
  [[nodiscard]] double total_moving_distance_m() const;
  /// Mean percentage of low bikes charged per round.
  [[nodiscard]] double mean_pct_charged() const;
};

class Simulation {
 public:
  /// The city is only used for its projection/geometry (const access).
  Simulation(const data::SyntheticCity& city, SimConfig config,
             std::uint64_t seed);

  /// Bootstrap tier one from historical trips: aggregate demand sites, run
  /// the offline plan and start the online placer with a KS reference
  /// sample. Also initializes bike positions at their first-seen start
  /// locations (falling back to offline parkings).
  /// \throws std::invalid_argument on an empty history.
  void bootstrap(const std::vector<data::TripRecord>& history);

  /// Replay a live trip stream. Can be called repeatedly; time advances
  /// monotonically with the trips.
  /// \throws std::logic_error if bootstrap was not called.
  SimMetrics run(const std::vector<data::TripRecord>& live);

  [[nodiscard]] const core::ESharing& system() const { return system_; }
  [[nodiscard]] const energy::BikeFleet& fleet() const { return fleet_; }
  [[nodiscard]] const SimConfig& config() const { return config_; }

 private:
  void open_incentive_session();
  void close_charging_period(SimMetrics& metrics);
  /// The per-trip logic of run(): charging-period rollover, tier-one
  /// request, footnote-2 removal, tier-two offer, bike movement and metric
  /// accrual.
  void process_trip(const data::TripRecord& trip, SimMetrics& metrics);
  /// Index of the nearest active placer station to `p`.
  [[nodiscard]] std::size_t nearest_active_station(geo::Point p) const;

  const data::SyntheticCity& city_;
  SimConfig config_;
  stats::Rng rng_;
  core::ESharing system_;
  energy::BikeFleet fleet_;
  std::vector<geo::Point> bike_pos_;
  /// Bikes parked per placer-station index (parallel to placer stations()).
  std::vector<int> station_bikes_;
  std::size_t stations_removed_{0};
  std::vector<core::EnergyStation> session_station_snapshot_;
  /// Bucketed index over the session's station snapshot locations (fixed
  /// for the lifetime of one incentive session).
  geo::SpatialIndex session_index_;
  std::optional<core::IncentiveMechanism> session_;
  data::Seconds next_round_at_{0};
  bool bootstrapped_{false};
};

}  // namespace esharing::sim
