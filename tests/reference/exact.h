#pragma once

/// \file exact.h
/// Exact facility-location solver by branch-and-bound over the open set.
/// Exponential in the number of candidate facilities — usable up to ~20
/// candidates — and intended as a test oracle: unit/property tests verify
/// that jms_greedy() stays within its 1.61 approximation factor of this
/// optimum on random small instances. Test-only: it lives in the
/// esharing_solver_reference library beside the frozen solvers.

#include <cstddef>

#include "solver/facility_location.h"

namespace esharing::solver::reference {

/// Optimal solution via branch-and-bound.
/// \param max_facilities safety cap; instances with more candidates throw.
/// \throws std::invalid_argument on invalid instances or too many candidates.
[[nodiscard]] FlSolution exact_facility_location(const FlInstance& instance,
                                                 std::size_t max_facilities = 22);

}  // namespace esharing::solver::reference
