#pragma once

/// \file drivers.h
/// Incremental consumers that keep the two tiers served from the event
/// stream:
///
///   * OnlinePlacerDriver — feeds every drained trip-end request to the
///     DeviationPenaltyPlacer (Algorithm 2) exactly as the batch replay
///     would, and runs the periodic 2-D KS regime check on the per-shard
///     sliding windows of StreamState instead of re-scanning full history.
///     The reference sample is partitioned once at construction with the
///     same cell router, so shard-local current-vs-historical comparisons
///     are statistically like-for-like (the stratified analogue of Table
///     IV's per-region blocks), and each shard's slice is prepared once as
///     a stats::Ks2dReference: a check sorts only the shard's window and
///     sweeps it in O((n+m) log(n+m)), reusing the shard's scratch, so it
///     allocates nothing in steady state.
///
///   * IncentiveDriver — tier two off the watchlist: builds incentive
///     sessions (Algorithm 3) from the merged low-battery watchlist and
///     routes pickup interactions of drained trip events into the session,
///     paying Eq. 13 offers within the Eq. 12 budget.
///
/// Both drivers are deterministic: their outputs depend only on the seq
/// order of consumed events, never on shard count or drain timing.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/esharing.h"
#include "core/incentive.h"
#include "geo/spatial_index.h"
#include "ml/batch.h"
#include "stats/ks2d.h"
#include "stream/event.h"
#include "stream/event_bus.h"
#include "stream/stream_state.h"

namespace esharing::stream {

struct PlacerDriverConfig {
  StreamStateConfig state;
  /// Run the shard-local KS regime check every this many trip-end events
  /// ingested by a shard (0 disables the stream-side check; the placer's
  /// internal Algorithm 2 switching is never affected either way).
  std::size_t regime_check_period{512};
  /// Skip the check until the shard window has this many points.
  std::size_t regime_min_samples{16};
  /// Re-anchor the offline landmarks every this many trip-end events
  /// consumed across all shards (0 disables). Each re-anchor takes the
  /// merged demand snapshot (shard-count invariant) and drives
  /// ESharing::reanchor — a warm re-solve through the incremental
  /// re-optimization engine. Because events are consumed in seq order and
  /// the snapshot is taken at the global max clock, re-anchor points and
  /// outputs are identical at every shard count.
  // analyze-ok: knob-reach only tests set it until ROADMAP item 8 wires it into esharing-serve
  std::size_t reanchor_period{0};
  /// Skip a scheduled re-anchor while the merged snapshot has fewer
  /// demand cells than this (too few cells make a degenerate instance).
  // analyze-ok: knob-reach only tests set it until ROADMAP item 8 wires it into esharing-serve
  std::size_t reanchor_min_cells{2};
  /// Hours of per-cell hourly arrival history the driver accumulates for
  /// batch forecast refreshes (0 = off, the default). When enabled, each
  /// re-anchor fits the batched runtime (ml/batch.h) over every snapshot
  /// cell's hourly series and anchors on the predicted next-hour demand
  /// instead of the raw window counts — falling back to raw counts until
  /// enough completed hours have accumulated. Accumulation happens in the
  /// sequential decision stage, so it is shard-count and lane invariant.
  // analyze-ok: knob-reach only tests set it until ROADMAP item 8 wires it into esharing-serve
  std::size_t forecast_history_hours{0};
  /// Batched forecaster settings used when forecast_history_hours > 0.
  // analyze-ok: knob-reach only tests set it until ROADMAP item 8 wires it into esharing-serve
  ml::batch::BatchRnnConfig forecast_rnn;

  /// \throws std::invalid_argument on the first violated constraint.
  void validate() const;
};

/// Regime signal of one shard: the stream-window KS similarity against the
/// shard's slice of the historical sample.
struct ShardRegime {
  double similarity{100.0};  ///< paper similarity 100*(1-D) %
  std::uint64_t checks{0};
  std::uint64_t trip_ends{0};
};

class OnlinePlacerDriver {
 public:
  /// \param system must be online (start_online called); decisions mutate
  ///        its placer exactly as direct handle_request calls would.
  /// \param historical_sample the KS reference H(x, y); partitioned across
  ///        shards with `bus`'s router so shard-local tests compare
  ///        like-for-like regions.
  /// \throws std::invalid_argument on invalid config,
  ///         std::logic_error if the system is not online.
  OnlinePlacerDriver(core::ESharing& system, const EventBus& bus,
                     std::vector<geo::Point> historical_sample,
                     PlacerDriverConfig config);

  /// Consume a merged batch (events must arrive in ascending seq order, as
  /// Pipeline's merge stage delivers them). Trip ends drive the placer;
  /// battery telemetry updates the shard watchlist. The shard-local stage
  /// (window ingestion, watchlist, per-shard KS regime checks) fans out
  /// across the exec pool with up to `lanes` lanes (0 = pool width,
  /// 1 = inline); the tier-one decision stage then runs sequentially in
  /// seq order. The split is legal because the shard stage touches only
  /// that shard's state and depends only on that shard's FIFO
  /// subsequence — so the result is bit-identical to consuming the same
  /// events as one-event spans, at every lane count, shard count and batch
  /// cut. When re-anchoring is enabled the batch is cut at each trigger
  /// trip-end, so the merged snapshot a re-anchor reads never includes
  /// events past its trigger.
  /// Trip-end decisions are appended to `decisions_out` when non-null.
  /// \returns the number of events consumed (always events.size()).
  std::size_t consume_batch(
      std::span<const Event> events, std::size_t lanes = 1,
      std::vector<solver::OnlineDecision>* decisions_out = nullptr);

  [[nodiscard]] const core::ESharing& system() const { return *system_; }
  [[nodiscard]] const StreamState& shard_state(std::size_t shard) const;
  [[nodiscard]] const ShardRegime& shard_regime(std::size_t shard) const;
  [[nodiscard]] std::size_t shard_count() const { return states_.size(); }
  [[nodiscard]] std::uint64_t events_consumed() const { return consumed_; }
  [[nodiscard]] std::uint64_t last_seq() const { return last_seq_; }
  /// Landmark re-anchors executed so far (reanchor_period cadence).
  [[nodiscard]] std::uint64_t reanchors() const { return reanchors_; }
  /// Re-anchors that used batched demand forecasts (vs raw window counts).
  [[nodiscard]] std::uint64_t forecast_refreshes() const {
    return forecast_refreshes_;
  }
  [[nodiscard]] bool any_consumed() const { return consumed_ > 0; }
  /// Merged deterministic view across all shards.
  [[nodiscard]] StateSnapshot merged_snapshot() const;
  /// Merged low-battery watchlist (sorted by bike id).
  [[nodiscard]] std::vector<WatchEntry> watchlist() const;

  // Checkpoint hooks used by the pipeline container (checkpoint.h).
  void save(std::ostream& os) const;
  void restore_from(std::istream& is);

 private:
  /// Shard-local half of consume_batch(): fold one shard's FIFO subsequence into
  /// its StreamState and regime counters, firing cadenced KS checks. Safe
  /// to run concurrently for distinct shards — it reads and writes only
  /// states_[shard] / regimes_[shard] / shard_ks_[shard].
  void ingest_shard(std::size_t shard, const Event* events, std::size_t n);
  /// Global half: seq-order counters, the tier-one decision, and the
  /// re-anchor cadence. Must run sequentially in merged seq order, after
  /// the event's shard ingest.
  std::optional<solver::OnlineDecision> decide(const Event& e);
  void run_regime_check(std::size_t shard);
  void run_reanchor();

  core::ESharing* system_;
  const EventBus* bus_;  ///< router reference for shard-of mapping
  PlacerDriverConfig config_;
  std::vector<StreamState> states_;
  std::vector<ShardRegime> regimes_;
  /// One shard's regime-check state: its slice of the historical sample
  /// and the buffers each check reuses.
  struct ShardKs {
    stats::Ks2dReference reference;
    stats::Ks2dScratch scratch;
    std::vector<geo::Point> window;
  };
  std::vector<ShardKs> shard_ks_;
  /// consume_batch scratch (one FIFO bucket per shard), kept across calls
  /// so a steady-state batch allocates nothing.
  std::vector<std::vector<Event>> per_shard_;
  std::uint64_t consumed_{0};
  std::uint64_t last_seq_{0};
  std::uint64_t trip_ends_total_{0};
  std::uint64_t reanchors_{0};
  std::uint64_t forecast_refreshes_{0};
  /// Per-cell hourly trip-end weights for the batch forecast refresh,
  /// keyed by (cx, cy) at the stream cell size, then by hour bucket.
  /// Written only in decide() (sequential seq order), pruned to the
  /// trailing forecast_history_hours.
  std::map<std::pair<std::int64_t, std::int64_t>, std::map<std::int64_t, double>>
      forecast_hours_;
};

class IncentiveDriver {
 public:
  explicit IncentiveDriver(core::IncentiveConfig config);

  /// Open a session over `parkings` with its low-bike piles built from the
  /// merged watchlist (Algorithm 3's aggregation set, fed by telemetry
  /// instead of a fleet scan): each watchlisted bike joins the pile of its
  /// nearest parking. Replaces any running session.
  /// \throws std::invalid_argument on empty parkings.
  void open_session(const std::vector<geo::Point>& parkings,
                    const std::vector<WatchEntry>& watchlist);

  /// Route one drained trip event's pickup into the running session: the
  /// pickup station is the nearest session station to `e.origin`, the
  /// destination parking is `assigned` (tier one's decision for this
  /// rider). No-op without a session. Thresholds come from the event
  /// (Eq. 13), battery feasibility from `can_ride`.
  core::Offer handle_trip(const Event& e, geo::Point assigned,
                          const core::IncentiveMechanism::CanRideFn& can_ride);

  [[nodiscard]] bool session_open() const { return session_.has_value(); }
  [[nodiscard]] const core::IncentiveMechanism& session() const;
  [[nodiscard]] core::IncentiveMechanism& session();
  [[nodiscard]] double total_incentives_paid() const { return paid_total_; }
  [[nodiscard]] std::uint64_t offers_made() const { return offers_total_; }
  [[nodiscard]] std::uint64_t relocations() const { return relocations_total_; }

  // Checkpoint hooks (see checkpoint.h).
  void save(std::ostream& os) const;
  void restore_from(std::istream& is);

 private:
  void fold_session_totals();

  core::IncentiveConfig config_;
  std::optional<core::IncentiveMechanism> session_;
  geo::SpatialIndex session_index_;
  /// Totals across closed sessions (the open session adds its own live
  /// counters on top; see the observers above).
  double paid_closed_{0.0};
  std::uint64_t offers_closed_{0};
  std::uint64_t relocations_closed_{0};
  double paid_total_{0.0};
  std::uint64_t offers_total_{0};
  std::uint64_t relocations_total_{0};
};

}  // namespace esharing::stream
