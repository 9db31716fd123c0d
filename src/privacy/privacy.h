#pragma once

/// \file privacy.h
/// Privacy features the paper's system model calls for: "additional
/// security features can be introduced such as hashing/anonymizing the
/// user information or obfuscation with location-wise differential
/// privacy [20]". This module provides
///
///  * keyed pseudonymization of user/bike identifiers (stable within a
///    salt, unlinkable across salts);
///  * geo-indistinguishability via the planar Laplace mechanism
///    (Andres et al.): a location is perturbed by a radius drawn from
///    Gamma(2, 1/epsilon) — sampled exactly through the Lambert W_{-1}
///    branch — in a uniformly random direction, giving epsilon
///    differential privacy per meter of distinguishability;
///  * a k-anonymity audit over origin/destination cell pairs;
///  * trip-stream anonymization combining all of the above.

#include <cstdint>
#include <vector>

#include "data/trip.h"
#include "geo/grid.h"
#include "geo/latlon.h"
#include "geo/point.h"
#include "stats/rng.h"

namespace esharing::privacy {

/// Stable keyed pseudonym of an identifier: the same (id, salt) always
/// yields the same pseudonym; different salts are unlinkable.
[[nodiscard]] std::uint64_t pseudonymize(std::uint64_t id, std::uint64_t salt);

/// Lambert W function, branch -1, for x in [-1/e, 0).
/// \throws std::invalid_argument outside the domain.
[[nodiscard]] double lambert_w_minus1(double x);

/// Planar Laplace (geo-indistinguishability) mechanism.
class PlanarLaplace {
 public:
  /// \param epsilon privacy parameter per meter (> 0); typical values for
  ///        city-scale data are 0.005-0.05 (i.e. strong protection within
  ///        tens to hundreds of meters).
  /// \throws std::invalid_argument if epsilon <= 0.
  explicit PlanarLaplace(double epsilon);

  /// Perturb a planar location.
  [[nodiscard]] geo::Point obfuscate(geo::Point p, stats::Rng& rng) const;

  /// Expected displacement 2/epsilon (mean of Gamma(2, 1/epsilon)).
  [[nodiscard]] double expected_displacement() const { return 2.0 / epsilon_; }
  [[nodiscard]] double epsilon() const { return epsilon_; }

 private:
  double epsilon_;
};

/// Smallest group size when trips are grouped by (start cell, end cell) on
/// `grid` — the k of k-anonymity for the published stream. Returns 0 for
/// an empty stream.
[[nodiscard]] std::size_t min_od_group_size(
    const geo::Grid& grid, const geo::LocalProjection& proj,
    const std::vector<data::TripRecord>& trips);

struct AnonymizeConfig {
  double epsilon{0.01};  ///< planar-Laplace parameter; <= 0 disables
};

/// Anonymize a trip stream: user and bike ids are pseudonymized under a
/// fixed salt, start/end locations pass through the planar Laplace
/// mechanism (clamped to valid coordinates) and are re-geohashed at
/// precision 7 (~150 m cells). Order ids and timestamps are kept —
/// the downstream demand pipeline needs them.
[[nodiscard]] std::vector<data::TripRecord> anonymize_trips(
    const std::vector<data::TripRecord>& trips,
    const geo::LocalProjection& proj, const AnonymizeConfig& config,
    stats::Rng& rng);

}  // namespace esharing::privacy
