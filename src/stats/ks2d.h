#pragma once

/// \file ks2d.h
/// Two-dimensional two-sample Kolmogorov–Smirnov testing.
///
/// E-Sharing periodically compares the current stream of trip destinations
/// against the historical distribution the offline solution was computed
/// from (Algorithm 2, step 9). The paper adopts Peacock's 2-D KS test
/// [Peacock 1983]: the statistic is
///
///     D = sup_{x,y} |H(x,y) - G(x,y)|
///
/// where the supremum ranges over all four quadrant orientations
/// (x<X, y<Y), (x<X, y>Y), (x>X, y<Y), (x>X, y>Y) at every candidate origin.
/// Peacock's exact formulation evaluates origins at all pairings of sample
/// x- and y-coordinates (O(n^2) origins, O(n^3) total — the complexity the
/// paper quotes); the Fasano–Franceschini variant restricts origins to the
/// sample points themselves (O(n^2) total) and is the standard practical
/// approximation.

#include <vector>

#include "geo/point.h"

namespace esharing::stats {

/// Result of a two-sample 2-D KS comparison.
struct Ks2dResult {
  double d{0.0};            ///< the KS statistic in [0, 1]
  double p_value{1.0};      ///< approximate significance (Numerical-Recipes style)
  double similarity{100.0}; ///< the paper's similarity measure 100*(1-D) %
};

/// Peacock's exact statistic: origins at all (x_i, y_j) pairings of the
/// combined sample. O((n+m)^3). Prefer for n+m up to a few thousand.
/// \throws std::invalid_argument if either sample is empty.
[[nodiscard]] double peacock_statistic(const std::vector<geo::Point>& a,
                                       const std::vector<geo::Point>& b);

/// Fasano–Franceschini statistic: origins at the data points only, averaged
/// over the two samples. O(n*m + n^2 + m^2). Close to Peacock's D in
/// practice (tested against it in tests/test_stats_ks2d.cpp).
/// \throws std::invalid_argument if either sample is empty.
[[nodiscard]] double fasano_franceschini_statistic(
    const std::vector<geo::Point>& a, const std::vector<geo::Point>& b);

/// Full test: statistic (Peacock when n+m <= peacock_limit, otherwise
/// Fasano–Franceschini), the paper's similarity percentage, and an
/// approximate p-value following Press et al. (correlation-corrected 1-D
/// KS tail with effective sample size n*m/(n+m)).
/// \throws std::invalid_argument if either sample is empty.
[[nodiscard]] Ks2dResult ks2d_test(const std::vector<geo::Point>& a,
                                   const std::vector<geo::Point>& b,
                                   std::size_t peacock_limit = 400);

/// The paper's similarity measure for Table IV: 100*(1 - D) percent.
[[nodiscard]] constexpr double ks_similarity_percent(double d) {
  return 100.0 * (1.0 - d);
}

/// Tail probability Q_KS(lambda) of the KS distribution,
/// Q = 2 * sum_{j>=1} (-1)^{j-1} exp(-2 j^2 lambda^2).
[[nodiscard]] double ks_tail_probability(double lambda);

}  // namespace esharing::stats
