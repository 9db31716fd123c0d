#pragma once

/// \file local_search.h
/// Local-search improvement for facility location: starting from any
/// feasible open set, repeatedly apply the best improving move among
/// open(i), close(i) and swap(i, i') until none improves by more than
/// 1e-9, or for at most 1,000 moves (local_search.cpp). The classic
/// analysis bounds local optima at 3x the true optimum (Arya et al.); in
/// this library the pass is mainly used to polish solutions from the
/// greedy/primal-dual algorithms and as another cross-check in tests.
///
/// Connection costs come from a CostOracle (rows materialized once, not
/// per scan). Moves are scored from each client's nearest and
/// second-nearest open facility, recomputed after every accepted move: a
/// move costs O(facilities + clients) instead of O(open * clients), and
/// because min is exact and the sums keep their ascending order, every
/// move cost is bit-identical to rescanning the open rows (pinned against
/// solver::reference::local_search). Candidate-move evaluation can be
/// partitioned across threads:
/// every move's cost is computed independently, then the winning move is
/// selected by a sequential scan in the canonical move order (opens,
/// closes, swaps), so results are bit-identical for every num_threads.

#include <cstddef>

#include "solver/cost_oracle.h"
#include "solver/facility_location.h"

namespace esharing::solver {

struct LocalSearchOptions {
  bool allow_swaps{true};  ///< include swap moves (costlier scan)
  /// Lanes on the exec pool for candidate-move evaluation: 0 = the
  /// process-wide pool width (ESHARING_THREADS), 1 = fully sequential on
  /// the caller. Outputs are identical for any value.
  std::size_t num_threads{1};
};

/// Improve `initial` by local search. The returned solution's total cost
/// is never worse than the input's.
/// \throws std::invalid_argument on invalid instances or an empty/invalid
///         initial open set.
[[nodiscard]] FlSolution local_search(const FlInstance& instance,
                                      const FlSolution& initial,
                                      const LocalSearchOptions& options = {});

/// Run against an existing oracle (shared with other solver passes).
[[nodiscard]] FlSolution local_search(const CostOracle& oracle,
                                      const FlSolution& initial,
                                      const LocalSearchOptions& options = {});

/// Convenience: greedy-style start (cheapest single facility) + local
/// search from scratch.
[[nodiscard]] FlSolution local_search_from_scratch(
    const FlInstance& instance, const LocalSearchOptions& options = {});

}  // namespace esharing::solver
