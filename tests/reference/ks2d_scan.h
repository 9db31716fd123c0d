#pragma once

/// \file ks2d_scan.h
/// The Fasano–Franceschini statistic by direct scan: for every origin,
/// count each sample's quadrants point by point, O(n*m + n^2 + m^2). Test
/// oracle for the sweep in stats/ks2d.cpp, which must reproduce its D and
/// p-value bit for bit. Test-only: it lives in the esharing_solver_reference
/// library beside the frozen solvers.

#include <vector>

#include "geo/point.h"
#include "stats/ks2d.h"

namespace esharing::stats::reference {

/// Fasano–Franceschini D by per-origin quadrant scans.
/// \throws std::invalid_argument if either sample is empty.
[[nodiscard]] double fasano_franceschini_scan(const std::vector<geo::Point>& a,
                                              const std::vector<geo::Point>& b);

/// ks2d_test's Fasano–Franceschini path on the scan: D, the Press et al.
/// p-value from stats::pearson on split coordinates, and the similarity.
/// \throws std::invalid_argument if either sample is empty.
[[nodiscard]] Ks2dResult ks2d_test_scan(const std::vector<geo::Point>& a,
                                        const std::vector<geo::Point>& b);

}  // namespace esharing::stats::reference
