#pragma once

/// \file solver_reference.h
/// Frozen pre-oracle implementations of the offline solvers, kept verbatim
/// from before the CostOracle/SpatialIndex refactor. They recompute every
/// c_ij through FlInstance::connection_cost with brute-force linear scans
/// and per-iteration sorts — exactly the code the production solvers
/// replaced — and serve two purposes:
///
///   * regression oracles: tests assert the refactored solvers return
///     bit-identical open sets, assignments and costs on seeded instances;
///   * bench baselines: bench_micro_perf times oracle vs. reference JMS.
///
/// Do not "improve" these: their value is being the old behavior. They
/// live under tests/ as the esharing_solver_reference library, which only
/// the test binary and bench_micro_perf link.

#include "solver/facility_location.h"
#include "solver/local_search.h"

namespace esharing::solver::reference {

/// Pre-refactor JMS greedy (per-iteration cost recompute + full sort, and
/// the original double assign_to_open tail).
[[nodiscard]] FlSolution jms_greedy(const FlInstance& instance);

/// Pre-refactor local search (eager dense cost matrix, sequential scan).
[[nodiscard]] FlSolution local_search(const FlInstance& instance,
                                      const FlSolution& initial,
                                      const LocalSearchOptions& options = {});

}  // namespace esharing::solver::reference
