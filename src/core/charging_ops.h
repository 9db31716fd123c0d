#pragma once

/// \file charging_ops.h
/// The maintenance operator's charging round (Section V-E). The operator
/// forms a TSP route through all stations that hold low-battery bikes and
/// "conduct[s] charging in a paralleled manner at each location" within a
/// fixed shift; stations beyond the shift stay uncharged, which is how the
/// paper measures the percentage of E-bikes charged (Fig. 12(b)).

#include <cstddef>
#include <vector>

#include "core/incentive.h"
#include "energy/charging_cost.h"
#include "geo/point.h"

namespace esharing::core {

// analyze-ok: knob-reach synthetic-data fixture: the simulated charging operator
struct OperatorConfig {
  double speed_mps{5.0};          ///< service vehicle speed
  double stop_overhead_s{600.0};  ///< per-stop setup (parking, unloading)
  double charge_time_s{1800.0};   ///< parallel charge/swap duration per stop
  double work_seconds{4.0 * 3600.0};  ///< shift length
  geo::Point depot{0.0, 0.0};
};

struct ChargingRoundResult {
  std::size_t stations_total{0};    ///< stations that needed service
  std::size_t stations_visited{0};  ///< actually served within the shift
  std::size_t bikes_total{0};       ///< low-battery bikes across all stations
  std::size_t bikes_charged{0};
  double service_cost{0.0};   ///< sum of q over visited stations
  double delay_cost{0.0};     ///< sum of t*d over visited positions
  double energy_cost{0.0};    ///< b per bike charged
  double moving_distance_m{0.0};
  std::vector<std::size_t> route;  ///< visited station indices, in order

  [[nodiscard]] double pct_charged() const {
    return bikes_total == 0
               ? 100.0
               : 100.0 * static_cast<double>(bikes_charged) /
                     static_cast<double>(bikes_total);
  }
  /// Total maintenance cost including the incentives already paid.
  [[nodiscard]] double total_cost(double incentives_paid = 0.0) const {
    return service_cost + delay_cost + energy_cost + incentives_paid;
  }
};

/// Run one charging round over the stations (only those with low bikes are
/// routed). Charged bikes are NOT mutated here — callers holding a
/// BikeFleet can recharge the bikes listed at the visited stations.
/// \throws std::invalid_argument for non-positive speed or shift.
[[nodiscard]] ChargingRoundResult run_charging_round(
    const std::vector<EnergyStation>& stations,
    const energy::ChargingCostParams& costs, const OperatorConfig& op);

/// A fleet of operators working in parallel (the paper's remark that the
/// provider can "schedule the operators more frequently during rush hours
/// to the low-energy demand sites"). Demand sites are split into
/// `n_operators` angular sectors around the depot (a classic sweep
/// partition); each operator runs its own shift-limited TSP round, and the
/// per-operator results are merged. Delay positions restart per operator,
/// so the quadratic delay term shrinks roughly by 1/n_operators^2.
/// \throws std::invalid_argument if n_operators == 0 or the operator
///         config is invalid.
[[nodiscard]] ChargingRoundResult run_charging_round_multi(
    const std::vector<EnergyStation>& stations,
    const energy::ChargingCostParams& costs, const OperatorConfig& op,
    std::size_t n_operators);

}  // namespace esharing::core
