#pragma once

/// \file cost_oracle.h
/// Lazily materialized client x facility cost matrix shared by every
/// offline PLP solver. Each solver used to re-derive c_ij = a_j * d_ij via
/// FlInstance::connection_cost on every access (and JMS re-sorted all
/// clients per facility per iteration); the oracle computes each facility
/// row at most once and caches the per-facility client ordering sorted by
/// (cost, client index).
///
/// Exactness contract: `row(i)[j]` is the very expression
/// `instance.connection_cost(i, j)` evaluated once — the same double. The
/// row kernel reads client coordinates/weights from contiguous
/// structure-of-arrays planes packed at construction (not through the
/// per-client Point structs), but computes the identical
/// `a_j * hypot(fx - cx, fy - cy)` expression, so solvers threaded through
/// the oracle stay bit-identical to their pre-oracle versions
/// (regression-tested, including SoA-vs-scalar).
///
/// Concurrency contract: each row slot carries an atomic state
/// (empty -> building -> ready). The first thread to CAS empty->building
/// materializes the row and release-publishes ready; concurrent callers of
/// the SAME row spin-yield until it is ready. Any mix of threads may
/// therefore call row()/sorted_row()/cost() on any facilities concurrently
/// — the old "no two threads touch the same not-yet-materialized row"
/// restriction is gone (TSan-covered).
///
/// Delta contract (incremental re-optimization): apply_delta(delta)
/// re-synchronizes the oracle after the SAME delta was applied to the
/// underlying instance (apply_delta(FlInstance&, delta) from
/// instance_delta.h — the ReoptimizationSession drives both in order).
/// Materialized state is carried across the delta instead of being thrown
/// away: rows of removed facilities are dropped, surviving ready rows are
/// patched in place (changed-weight entries recomputed with the exact
/// kernel expression, removed entries erased, appended clients computed
/// fresh) and untouched rows plus — when no client changed — their sorted
/// orderings are reused verbatim. Every surviving ready row is therefore
/// bit-identical to the row a fresh oracle on the post-delta instance
/// would materialize (regression-tested). `rows_reused` / `rows_invalidated`
/// / `sorted_invalidated` count carried, dropped and re-sort-forced caches
/// per delta (obs counters solver.cost_oracle.*). apply_delta requires
/// exclusive access: it is NOT safe concurrently with any reader — it is
/// the epoch boundary between solves, not a hot-path operation.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "solver/facility_location.h"

namespace esharing::solver {

struct InstanceDelta;

class CostOracle {
 public:
  /// The instance must outlive the oracle (no copy is taken).
  explicit CostOracle(const FlInstance& instance);

  CostOracle(const CostOracle&) = delete;
  CostOracle& operator=(const CostOracle&) = delete;

  [[nodiscard]] const FlInstance& instance() const { return *instance_; }
  [[nodiscard]] std::size_t num_facilities() const { return rows_.size(); }
  [[nodiscard]] std::size_t num_clients() const {
    return instance_->clients.size();
  }

  /// c_ij, materializing facility i's row on first access.
  [[nodiscard]] double cost(std::size_t facility, std::size_t client) const {
    return row(facility)[client];
  }

  /// Facility i's full cost row, one entry per client.
  [[nodiscard]] const std::vector<double>& row(std::size_t facility) const;

  /// All clients ordered by (c_ij, client index) ascending — the exact
  /// order std::sort produces on pairs, so prefix walks over a filtered
  /// subsequence match sorting that subset directly.
  [[nodiscard]] const std::vector<std::pair<double, std::size_t>>& sorted_row(
      std::size_t facility) const;

  /// Materialize rows [begin, end) in parallel on the exec pool,
  /// facility-partitioned (`width` lanes, 0 = pool width). Values are
  /// bit-identical to lazy materialization at any width.
  void ensure_rows(std::size_t begin, std::size_t end,
                   std::size_t width = 0) const;

  /// ensure_rows over every facility.
  void ensure_all_rows(std::size_t width = 0) const;

  /// Allocate the storage of every row and sorted row not built yet, on
  /// the calling thread, in the order a sequential scan builds them (row
  /// i, then its sorted row). Pool workers that build them afterwards
  /// only fill that storage, so the rows stay in the caller's malloc
  /// arena instead of spreading over the workers' arenas, and the heap
  /// does not depend on which worker built which row. Unlike row(), it
  /// must not run while another thread builds a row of this oracle.
  void reserve_rows() const;

  /// Re-synchronize with the underlying instance after `delta` was applied
  /// to it (see the delta contract in the file comment). Requires
  /// exclusive access; bumps revision().
  /// \throws std::logic_error if the oracle and the instance disagree on
  ///         the post-delta sizes (the delta was not applied, or a
  ///         different one was).
  void apply_delta(const InstanceDelta& delta);

  /// Number of apply_delta calls absorbed so far.
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

 private:
  /// Row-slot lifecycle for the atomic publication protocol.
  enum : std::uint8_t { kEmpty = 0, kBuilding = 1, kReady = 2 };

  /// Compute facility i's row into rows_[i] from the SoA planes and
  /// release-publish its state. Caller must have won the empty->building
  /// CAS on state.
  void materialize_row(std::size_t facility,
                       std::atomic<std::uint8_t>& state) const;

  const FlInstance* instance_;
  /// Structure-of-arrays client planes (immutable after construction):
  /// contiguous x/y/weight so the row kernel is a tight streaming loop
  /// instead of striding through FlClient structs.
  std::vector<double> client_x_;
  std::vector<double> client_y_;
  std::vector<double> client_w_;
  mutable std::vector<std::vector<double>> rows_;
  mutable std::unique_ptr<std::atomic<std::uint8_t>[]> row_state_;
  mutable std::vector<std::vector<std::pair<double, std::size_t>>> sorted_rows_;
  mutable std::unique_ptr<std::atomic<std::uint8_t>[]> sorted_state_;
  std::uint64_t revision_{0};
};

/// Oracle-backed twin of assign_to_open(instance, open): identical result,
/// but connection costs come from cached rows.
/// \throws std::invalid_argument if `open` is empty or indices are invalid.
[[nodiscard]] FlSolution assign_to_open(const CostOracle& oracle,
                                        const std::vector<std::size_t>& open);

}  // namespace esharing::solver
