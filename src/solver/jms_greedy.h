#pragma once

/// \file jms_greedy.h
/// The paper's offline placement algorithm (Algorithm 1): the 1.61-factor
/// greedy of Jain, Mahdian, Markakis, Saberi and Vazirani [JACM 2003],
/// applied to the PLP instance. In each iteration the algorithm picks the
/// "star" (facility i, set B of unconnected clients) with minimum average
/// cost
///
///   ( f_i + sum_{j in B} c_ij - sum_{j already connected} (c_{i'j} - c_ij)+ )
///     / |B|
///
/// where already-connected clients may switch to i whenever that lowers
/// their connection cost (the switching gain offsets i's price, and an
/// already-open facility has f_i = 0 for subsequent stars). Iterations stop
/// once every client is connected.
///
/// Costs come from a CostOracle: each facility's cost row and (cost,
/// client) ordering are materialized once instead of being recomputed and
/// re-sorted every iteration.
///
/// Star cache. The solve keeps each facility's best star between
/// iterations and, after an opening, evaluates again only the facilities
/// whose star that opening could have changed. A facility other than the
/// one just opened keeps its star when
///   (a) no term of its switching gain changed: it is no cheaper than each
///       switched client's old cost and each newly connected client's new
///       cost;
///   (b) every newly connected client sorts strictly after the client its
///       last walk stopped at, in (cost, client) order;
///   (c) that walk did stop early. A walk stops at the first unconnected
///       client whose cost is at least r + (2k+1) D, where r is the best
///       ratio so far, k the number of clients walked and D a proven bound
///       on the rounding error of any of the facility's candidate ratios.
///       No longer prefix can then win, ties and rounding included.
/// A re-evaluated star uses the same sums in the same order as a full
/// rescan, so every ratio is the same double and the plans are
/// bit-identical to the frozen full-rescan greedy (solver::reference, a
/// test-only library under tests/). The derivation of D and of the stop
/// rule is at evaluate_star (jms_greedy.cpp). The obs counter
/// solver.jms_greedy.stars_evaluated counts star evaluations; a full
/// rescan evaluates every facility in every iteration.
///
/// The per-facility scan can be partitioned across threads; the winning
/// star is reduced by the lexicographic (ratio, facility, prefix-size)
/// minimum, which equals the sequential first-strict-minimum scan, so
/// results are bit-identical for every num_threads value.

#include <cstddef>

#include "solver/cost_oracle.h"
#include "solver/facility_location.h"

namespace esharing::solver {

struct JmsOptions {
  /// Lanes on the exec pool for the per-facility star scan: 0 = the
  /// process-wide pool width (ESHARING_THREADS), 1 = fully sequential on
  /// the caller, n = n lanes. Outputs are identical for any value.
  std::size_t num_threads{1};
};

/// Solve an instance with the JMS greedy.
/// \throws std::invalid_argument on invalid instances.
[[nodiscard]] FlSolution jms_greedy(const FlInstance& instance,
                                    const JmsOptions& options);
[[nodiscard]] FlSolution jms_greedy(const FlInstance& instance);

/// Run against an existing oracle (shared with other solver passes). It
/// first calls oracle.reserve_rows(), so no other thread may build rows of
/// the same oracle while it runs.
[[nodiscard]] FlSolution jms_greedy(const CostOracle& oracle,
                                    const JmsOptions& options = {});

}  // namespace esharing::solver
