#pragma once

/// \file registry.h
/// Unified solver entry point: one `solve(name, instance, options)` call
/// mapping a solver name to the corresponding offline PLP algorithm. Benches
/// and tools that compare solver families (Table V, plp_compare) iterate
/// over names instead of hard-coding one call site per algorithm. The set
/// of names is fixed: the six built-ins below, dispatched from one table.
///
/// Built-in names:
///   "jms"          Jain-Mahdian-... greedy (the paper's Algorithm 1)
///   "jv"           Jain-Vazirani primal-dual
///   "local_search" cheapest-single-facility start + open/close/swap moves
///   "k_median"     fixed station budget (requires options.k >= 1)
///   "meyerson"     the online baseline streamed over clients in index
///                  order with uniform f = mean facility opening cost,
///                  then mapped back onto the instance's candidate sites
///   "exact"        branch-and-bound optimum (small instances only)
///
/// Every built-in returns a valid FlSolution on the given instance, and
/// routing through solve() is bit-identical to calling the underlying
/// solver directly with the same options.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "solver/facility_location.h"

namespace esharing::solver {

/// Superset of the per-solver knobs. Which solver consumes which field is
/// part of the contract: validate(name) rejects an option set with a
/// non-default value for a field the named built-in ignores (formerly a
/// silent no-op), and solve() validates before dispatching.
struct SolveOptions {
  /// Lanes on the exec pool ("jms", "local_search"): 0 = the process-wide
  /// pool width (ESHARING_THREADS), 1 = sequential. Outputs are identical
  /// for any value.
  std::size_t num_threads{1};
  /// Station budget, "k_median" only (that solver throws when left 0).
  std::size_t k{0};
  /// Randomized solvers ("k_median" seeding, "meyerson" coin flips).
  std::uint64_t seed{0};
  /// "local_search" controls.
  std::size_t max_iterations{1000};
  bool allow_swaps{true};
  double min_improvement{1e-9};
  /// "exact" safety cap on candidate facilities.
  std::size_t exact_max_facilities{22};
  /// Previous epoch's solution on the SAME instance ("jms",
  /// "local_search"): jms seeds its greedy from the prior open set
  /// (jms_greedy_warm), local_search resumes from the prior solution
  /// instead of the from-scratch start. Borrowed — must outlive the solve
  /// call; nullptr = cold solve.
  const FlSolution* warm_start{nullptr};

  /// Check this option set against the named built-in solver: rejects a
  /// non-default value for a field that solver ignores (e.g. `k` for
  /// "jms"), a missing `k` for "k_median", `max_iterations = 0` for
  /// "local_search" (it could never improve), and `warm_start` for solvers
  /// with no warm path. Unknown names pass here; solve() rejects them.
  /// \throws std::invalid_argument naming the solver and the offending
  ///         field.
  void validate(std::string_view name) const;
};

/// Run the named built-in solver.
/// \throws std::invalid_argument for unknown names (the message lists the
///         built-ins) and for solver-specific option errors.
[[nodiscard]] FlSolution solve(std::string_view name,
                               const FlInstance& instance,
                               const SolveOptions& options = {});
/// The built-in names in sorted order.
[[nodiscard]] std::vector<std::string> solver_names();

}  // namespace esharing::solver
