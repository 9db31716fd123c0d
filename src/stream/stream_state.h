#pragma once

/// \file stream_state.h
/// Per-shard incremental state kept continuously fresh by the ingestion
/// pipeline. Each EventBus shard owns one StreamState; because events are
/// routed by grid cell, a cell's state lives in exactly one shard and no
/// cross-shard synchronization is ever needed on the hot path.
///
/// Three views are maintained per shard:
///   * a time-based sliding window of recent trip destinations with
///     per-grid-cell demand counts (the stream replacement for the
///     full-history G-sample rescans of the batch path — the 2-D KS regime
///     check of Algorithm 2 runs directly on these window points);
///   * exponentially decayed per-cell arrival-rate estimates
///     (events/second with a 30-minute half-life), the live analogue of
///     the offline per-grid expected arrivals w_i;
///   * a low-battery watchlist fed by battery telemetry — the stream-side
///     trigger set of the tier-two incentive mechanism (a bike enters when
///     its reported SoC drops below 0.2 and leaves on recharge).
///
/// Demand is counted per cell of the paper's 100 m grid (kCellM).
///
/// All updates are O(1) amortized; snapshots are deterministic (sorted by
/// cell / bike id) so merged multi-shard views are byte-stable regardless
/// of shard count.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <unordered_map>
#include <vector>

#include "data/binning.h"
#include "data/trip.h"
#include "geo/point.h"
#include "stream/event.h"

namespace esharing::stream {

struct StreamStateConfig {
  data::Seconds window_length{data::kSecondsPerHour};  ///< sliding window span

  /// \throws std::invalid_argument on the first violated constraint.
  void validate() const;
};

/// One entry of the low-battery watchlist.
struct WatchEntry {
  std::int64_t bike_id{0};
  geo::Point where{0.0, 0.0};
  double soc{0.0};
  data::Seconds reported_at{0};
};

/// Deterministic point-in-time copy of one shard's (or a merged) state.
struct StateSnapshot {
  struct CellCount {
    std::int64_t cx{0};
    std::int64_t cy{0};
    std::uint64_t count{0};   ///< events currently inside the window
    double rate_per_s{0.0};   ///< decayed arrival-rate estimate

    [[nodiscard]] geo::Point centroid() const {
      return {(static_cast<double>(cx) + 0.5) * kCellM,
              (static_cast<double>(cy) + 0.5) * kCellM};
    }
  };
  struct WindowPoint {
    std::uint64_t seq{0};     ///< publish order; merge key across shards
    geo::Point where{0.0, 0.0};
  };

  data::Seconds now{0};                 ///< latest event time observed
  std::vector<CellCount> cells;         ///< sorted by (cx, cy)
  std::vector<WindowPoint> window;      ///< window destinations, seq order
  std::vector<WatchEntry> watchlist;    ///< sorted by bike id

  [[nodiscard]] std::uint64_t window_size() const { return window.size(); }
  /// Window destinations as bare points (KS-test input), in seq order.
  [[nodiscard]] std::vector<geo::Point> window_points() const;
  /// One demand site per cell — its centroid, weighted by its window count
  /// (`cell` left 0), in cell order. The raw-count instance a landmark
  /// re-anchor re-solves.
  [[nodiscard]] std::vector<data::DemandSite> demand_sites() const;
};

class StreamState {
 public:
  /// \throws std::invalid_argument on invalid config.
  explicit StreamState(StreamStateConfig config);

  /// Fold one event into the shard state. Trip ends update the demand
  /// window and rates; battery telemetry maintains the watchlist; trip
  /// starts only advance the clock (pickups are the incentive driver's
  /// concern, not a demand signal for placement).
  void ingest(const Event& e);

  [[nodiscard]] const StreamStateConfig& config() const { return config_; }
  /// Latest event time observed by this shard.
  [[nodiscard]] data::Seconds now() const { return now_; }
  [[nodiscard]] std::size_t window_size() const {
    return window_.size() - window_head_;
  }
  [[nodiscard]] std::size_t watchlist_size() const { return watch_.size(); }
  [[nodiscard]] std::uint64_t events_ingested() const { return ingested_; }

  /// Destinations currently inside the sliding window, in arrival (seq)
  /// order — the sample G the stream-side KS regime check runs on —
  /// written over `out`, reusing its capacity.
  void window_points(std::vector<geo::Point>& out) const;

  /// Decayed arrival-rate estimate (events/s) of the cell containing `p`,
  /// evaluated at time `at`.
  [[nodiscard]] double arrival_rate(geo::Point p, data::Seconds at) const;

  /// Deterministic snapshot of this shard, evaluated at the shard's own
  /// clock. Equivalent to snapshot(now()).
  [[nodiscard]] StateSnapshot snapshot() const;

  /// Snapshot evaluated at `as_of` (clamped to at least the shard clock):
  /// window entries and cell counts reflect the sliding window as of that
  /// time and rates decay to it. Shards evict lazily — only when they
  /// ingest — so their raw state can lag a global clock; snapshotting every
  /// shard at the same `as_of` is what makes merged views shard-count
  /// invariant.
  [[nodiscard]] StateSnapshot snapshot(data::Seconds as_of) const;

  /// Deterministic merge of per-shard snapshots: cells concatenate (shards
  /// own disjoint cells), window points re-merge by seq, watchlists
  /// concatenate and re-sort by bike id.
  [[nodiscard]] static StateSnapshot merge(
      const std::vector<StateSnapshot>& shards);

  // --- checkpoint support (see checkpoint.h for the container format) ----
  void save(std::ostream& os) const;
  [[nodiscard]] static StreamState restore(std::istream& is,
                                           StreamStateConfig config);
  /// Structural equality; used by checkpoint round-trip verification.
  [[nodiscard]] bool equals(const StreamState& other) const;

 private:
  struct CellKey {
    std::int64_t cx{0};
    std::int64_t cy{0};
    friend bool operator==(CellKey a, CellKey b) {
      return a.cx == b.cx && a.cy == b.cy;
    }
  };
  /// Deterministic key order for snapshots and checkpoints (sorted_view).
  static bool cell_key_less(CellKey a, CellKey b) {
    return a.cx != b.cx ? a.cx < b.cx : a.cy < b.cy;
  }
  struct CellKeyHash {
    std::size_t operator()(CellKey k) const {
      std::uint64_t h = static_cast<std::uint64_t>(k.cx) * 0x9E3779B97F4A7C15ULL;
      h ^= static_cast<std::uint64_t>(k.cy) + 0x9E3779B97F4A7C15ULL +
           (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };
  struct CellState {
    std::uint64_t in_window{0};
    double rate{0.0};                ///< decayed events/s
    data::Seconds rate_updated{0};   ///< decay reference time
  };
  struct WindowEntry {
    data::Seconds time{0};
    std::uint64_t seq{0};
    geo::Point where{0.0, 0.0};
    CellKey cell{};
  };

  [[nodiscard]] CellKey cell_of(geo::Point p) const;
  /// The live window entries, oldest first.
  [[nodiscard]] std::span<const WindowEntry> live_window() const {
    return std::span<const WindowEntry>(window_).subspan(window_head_);
  }
  void push_window(const WindowEntry& w);
  void evict(data::Seconds now);
  void advance_clock(data::Seconds t);

  StreamStateConfig config_;
  data::Seconds now_{0};
  bool saw_event_{false};
  std::uint64_t ingested_{0};
  /// The sliding window as a FIFO over a vector: entries before
  /// window_head_ are evicted, and push_window reuses their slots once
  /// they make up half the buffer, so a window of steady size allocates
  /// nothing.
  std::vector<WindowEntry> window_;
  std::size_t window_head_{0};
  std::unordered_map<CellKey, CellState, CellKeyHash> cells_;
  std::unordered_map<std::int64_t, WatchEntry> watch_;
};

}  // namespace esharing::stream
