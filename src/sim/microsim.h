#pragma once

/// \file microsim.h
/// Agent-level micro-simulation on the discrete-event engine. Where
/// sim::Simulation replays trips instantaneously, the micro-simulation
/// models what the paper's business argument actually hinges on —
/// *customer loss*: a rider only becomes a trip if an available,
/// sufficiently-charged bike stands within walking distance when the
/// request fires; bikes are unavailable while ridden; the nightly charging
/// shift restores drained bikes. The resulting service rate quantifies how
/// placement, fleet size and charging policy translate into served demand
/// ("if no station is available nearby ... she may choose not to buy the
/// service").

#include <cstdint>
#include <optional>
#include <vector>

#include "core/esharing.h"
#include "data/synthetic_city.h"
#include "energy/battery.h"
#include "sim/event_engine.h"
#include "stats/rng.h"

namespace esharing::sim {

struct MicroSimConfig {
  core::ESharingConfig esharing;
  energy::EnergyConfig energy;  // analyze-ok: knob-reach synthetic-data fixture
  // analyze-ok: knob-reach synthetic-data fixture: the simulated opening-cost field
  double mean_opening_cost{10000.0};
  double walk_radius_m{400.0};   ///< how far a rider walks to reach a bike
  std::size_t n_operators{1};
};

struct MicroSimMetrics {
  std::size_t demand{0};             ///< trip requests fired
  std::size_t served{0};             ///< rides that actually happened
  std::size_t lost_no_bike{0};       ///< no parked bike within walk radius
  std::size_t lost_low_battery{0};   ///< reachable bikes too drained
  double walk_to_bike_m{0.0};        ///< access walking (demand side)
  double walk_from_parking_m{0.0};   ///< egress walking (dissatisfaction)
  std::vector<core::ChargingRoundResult> rounds;

  [[nodiscard]] double service_rate() const {
    return demand == 0 ? 1.0
                       : static_cast<double>(served) /
                             static_cast<double>(demand);
  }
  [[nodiscard]] double mean_egress_walk_m() const {
    return served == 0 ? 0.0
                       : walk_from_parking_m / static_cast<double>(served);
  }
};

class MicroSimulation {
 public:
  MicroSimulation(const data::SyntheticCity& city, MicroSimConfig config,
                  std::uint64_t seed);

  /// Plan parkings from historical trips and park the fleet.
  /// \throws std::invalid_argument on an empty history.
  void bootstrap(const std::vector<data::TripRecord>& history);

  /// Simulate the live trip stream at agent level. Returns the metrics of
  /// this run. \throws std::logic_error if bootstrap was not called.
  MicroSimMetrics run(const std::vector<data::TripRecord>& live);

  [[nodiscard]] const core::ESharing& system() const { return system_; }
  [[nodiscard]] const energy::BikeFleet& fleet() const { return fleet_; }

 private:
  struct BikeState {
    geo::Point position;
    bool in_ride{false};
  };

  void handle_request(geo::Point origin, geo::Point destination,
                      MicroSimMetrics& metrics);
  void charging_shift(MicroSimMetrics& metrics);
  /// Best available bike for a trip of `trip_m` meters starting near
  /// `from`, or nullopt.
  [[nodiscard]] std::optional<std::size_t> find_bike(geo::Point from,
                                                     double trip_m) const;

  const data::SyntheticCity& city_;
  MicroSimConfig config_;
  stats::Rng rng_;
  core::ESharing system_;
  energy::BikeFleet fleet_;
  std::vector<BikeState> bikes_;
  EventEngine engine_;
  bool bootstrapped_{false};
};

}  // namespace esharing::sim
