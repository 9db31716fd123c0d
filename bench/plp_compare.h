#pragma once

/// \file plp_compare.h
/// Shared harness for the tier-one evaluation (Fig. 10, Table V): solve the
/// same live request stream with the near-optimal offline algorithm,
/// Meyerson, online k-means, and E-sharing guided either by perfect
/// knowledge of the live demand ("actual") or by an LSTM forecast
/// ("predicted"), and report the paper's cost breakdown.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "data/synthetic_city.h"
#include "geo/point.h"
#include "solver/facility_location.h"

namespace esharing::bench {

/// One PLP evaluation region: a window of the city with a historical week
/// (for guidance/prediction) and a live week (the stream to serve).
struct PlpScenario {
  std::vector<solver::FlClient> history_sites;  ///< per-cell aggregated history
  std::vector<solver::FlClient> live_sites;     ///< per-cell aggregated live
  std::vector<geo::Point> history_sample;       ///< raw historical destinations
  std::vector<geo::Point> live_requests;        ///< raw live stream, in order
  std::vector<double> history_hourly;           ///< region demand per hour (history)
  std::function<double(geo::Point)> opening_cost;
  double mean_opening_cost{10000.0};
};

/// Cost breakdown in km (the paper's Table V units).
struct MethodResult {
  std::string method;
  double parkings{0.0};
  double walking_km{0.0};
  double space_km{0.0};
  [[nodiscard]] double total_km() const { return walking_km + space_km; }
};

/// Build `n_regions` scenarios by windowing a two-week synthetic city.
[[nodiscard]] std::vector<PlpScenario> make_scenarios(std::size_t n_regions,
                                                      std::uint64_t seed);

[[nodiscard]] MethodResult run_offline_oracle(const PlpScenario& s);
[[nodiscard]] MethodResult run_meyerson(const PlpScenario& s, std::uint64_t seed);
[[nodiscard]] MethodResult run_online_kmeans(const PlpScenario& s,
                                             std::uint64_t seed);
/// E-sharing: offline guide from the live demand itself (predicted = false,
/// "perfect knowledge") or from history rescaled by an LSTM volume forecast
/// (predicted = true).
[[nodiscard]] MethodResult run_esharing(const PlpScenario& s, bool predicted,
                                        std::uint64_t seed);

}  // namespace esharing::bench
