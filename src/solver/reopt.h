#pragma once

/// \file reopt.h
/// The incremental re-optimization engine: one `ReoptimizationSession`
/// owns {versioned FlInstance, delta-aware CostOracle, last FlSolution}
/// and turns "demand drifted since the last plan" into a warm re-solve
/// instead of a cold one. Epoch-over-epoch drift arrives either as an
/// explicit `InstanceDelta` (reoptimize) or as a full demand snapshot that
/// the session diffs against its colocated instance itself
/// (reoptimize_to, via diff_colocated) — which is how the online drivers
/// re-anchor landmarks on a cadence from stream::StreamState snapshots.
///
/// Correctness contracts (regression-tested):
///  - Zero-delta re-solve: returns the cached solution bit-identically,
///    touching neither the instance, the oracle, nor a single cost row.
///  - Never costlier than the starting point: a warm re-solve first
///    carries the previous open set across the delta (remap_open_set +
///    assign_to_open = the baseline "keep yesterday's plan" solution) and
///    only ever improves on it (local_search's never-worse guarantee).
///    The polish runs opens and closes only: the warm start is yesterday's
///    (already good) plan, and the swap scan is the one move family whose
///    cost rivals a cold solve.
///  - Bit-determinism: every ingredient (delta application, oracle
///    patching, JMS, local search) is bit-identical at every thread
///    width, so re-anchored plans are too.
///
/// The session is deliberately non-movable: the CostOracle member holds a
/// pointer to the FlInstance member. Hold it behind std::unique_ptr when
/// it must change hands (core::ESharing does).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "geo/point.h"
#include "solver/cost_oracle.h"
#include "solver/facility_location.h"
#include "solver/instance_delta.h"

namespace esharing::solver {

struct ReoptOptions {
  /// Lanes on the exec pool for the solves: 0 = process-wide pool width
  /// (ESHARING_THREADS), 1 = sequential. Outputs identical for any value.
  std::size_t num_threads{1};
};

/// What the last reoptimize() call did — for bench/driver reporting.
struct ReoptStats {
  bool zero_delta{false};   ///< delta was empty; cached solution returned
  bool cold{false};         ///< carried open set died; full cold solve ran
  double baseline_cost{0.0};  ///< carried-plan cost before improvement
  double final_cost{0.0};     ///< cost of the returned solution
};

/// See the file comment. Construction performs the initial cold solve
/// (JMS), so solution() is valid immediately and bit-identical to
/// jms_greedy on the same instance.
class ReoptimizationSession {
 public:
  /// `opening_cost` prices newly appearing candidate sites in
  /// reoptimize_to; pass nullptr when only explicit-delta reoptimize is
  /// used (reoptimize_to then throws std::logic_error).
  /// \throws std::invalid_argument on an invalid instance.
  explicit ReoptimizationSession(
      FlInstance instance, ReoptOptions options = {},
      std::function<double(geo::Point)> opening_cost = nullptr);

  ReoptimizationSession(const ReoptimizationSession&) = delete;
  ReoptimizationSession& operator=(const ReoptimizationSession&) = delete;

  /// Rebuild a session from externally persisted state: the instance and
  /// last solution of a previous session (see instance()/solution() — that
  /// pair fully determines every future re-solve, so a restored session
  /// continues bit-identically to the original no matter how many deltas
  /// the original had absorbed). Skips the construction cold solve; oracle
  /// caches rebuild lazily and the revision counter restarts at 0.
  /// \throws std::invalid_argument on an invalid instance or a solution
  ///         inconsistent with it.
  [[nodiscard]] static std::unique_ptr<ReoptimizationSession> from_state(
      FlInstance instance, FlSolution last, ReoptOptions options = {},
      std::function<double(geo::Point)> opening_cost = nullptr);

  [[nodiscard]] const FlInstance& instance() const { return instance_; }
  [[nodiscard]] const CostOracle& oracle() const { return oracle_; }
  [[nodiscard]] const FlSolution& solution() const { return last_; }
  /// Instance revision = number of non-empty deltas absorbed.
  [[nodiscard]] std::uint64_t revision() const { return oracle_.revision(); }
  [[nodiscard]] const ReoptStats& last_stats() const { return stats_; }

  /// Apply `delta` to the instance + oracle and warm re-solve. An empty
  /// delta returns the cached solution bit-identically without touching
  /// anything.
  /// \throws std::invalid_argument via InstanceDelta::validate.
  const FlSolution& reoptimize(const InstanceDelta& delta);

  /// Diff the (colocated) instance against a new demand snapshot and
  /// reoptimize with the resulting delta. `target` clients are matched by
  /// exact location (see diff_colocated).
  /// \throws std::logic_error when constructed without an opening-cost fn;
  ///         std::invalid_argument if the instance is not colocated.
  const FlSolution& reoptimize_to(const std::vector<FlClient>& target);

 private:
  struct FromStateTag {};
  ReoptimizationSession(FromStateTag, FlInstance instance, FlSolution last,
                        ReoptOptions options,
                        std::function<double(geo::Point)> opening_cost);

  ReoptOptions options_;
  std::function<double(geo::Point)> opening_cost_;
  FlInstance instance_;
  CostOracle oracle_;  ///< points at instance_ — the session is immovable
  FlSolution last_;
  ReoptStats stats_;
};

}  // namespace esharing::solver
