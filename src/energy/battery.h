#pragma once

/// \file battery.h
/// Battery model for the E-bike fleet. The paper crawled live energy status
/// from the XQBike app and observed that "though a majority of the E-bikes
/// have sufficient residual energy, the distribution features a tail of
/// low-battery bikes" (Fig. 2(d)). This model reproduces that shape: state
/// of charge (SoC) starts from a high-mass/low-tail mixture and drains
/// linearly with ridden distance; bikes under the operator threshold (20%)
/// are the charging workload of tier two.

#include <cstdint>
#include <vector>

#include "stats/rng.h"

namespace esharing::energy {

// analyze-ok: knob-reach synthetic-data fixture: the simulated battery model
struct EnergyConfig {
  double consumption_per_km{0.02};  ///< SoC drained per km (2% -> 50 km range)
  double low_threshold{0.2};        ///< operator refills below this (paper: 20%)
  double low_tail_fraction{0.25};   ///< share of fleet starting in the low tail
  double min_soc{0.02};             ///< bikes never report fully dead
};

/// Per-bike state of charge, indexed by 0-based bike index.
class BikeFleet {
 public:
  /// \throws std::invalid_argument for empty fleets or bad config.
  BikeFleet(std::size_t n_bikes, EnergyConfig config, std::uint64_t seed);

  [[nodiscard]] std::size_t size() const { return soc_.size(); }
  [[nodiscard]] const EnergyConfig& config() const { return config_; }

  /// \throws std::out_of_range for bad indices.
  [[nodiscard]] double soc(std::size_t bike) const;
  void set_soc(std::size_t bike, double soc);

  /// Drain the battery for a ride of `distance_m` meters (clamped at
  /// min_soc). Returns the SoC after the ride.
  double ride(std::size_t bike, double distance_m);

  /// Whether a ride of `distance_m` is feasible without dropping below the
  /// minimum SoC — used by the incentive mechanism, which must "ensure the
  /// mileage between i and k does not deplete the residual battery".
  [[nodiscard]] bool can_ride(std::size_t bike, double distance_m) const;

  /// Recharge to full (operators "replace or charge the batteries").
  void recharge(std::size_t bike);

  [[nodiscard]] bool is_low(std::size_t bike) const;
  [[nodiscard]] std::vector<std::size_t> low_battery_bikes() const;
  /// Fraction of the fleet below the threshold.
  [[nodiscard]] double low_fraction() const;

 private:
  EnergyConfig config_;
  std::vector<double> soc_;
};

}  // namespace esharing::energy
