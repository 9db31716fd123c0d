#pragma once

/// \file event.h
/// The event vocabulary of the `esharing::stream` ingestion pipeline. The
/// paper's online tier (Algorithm 2) and incentive tier (Eq. 12-13) both
/// consume a *live* trip stream; this type is the wire format that stream
/// carries: trip lifecycle events (a pickup at an origin, a drop-off
/// request at a destination) and battery telemetry (the residual-energy
/// reports the paper crawls from the XQBike app). Everything downstream —
/// shard routing, sliding windows, the low-battery watchlist, the placer
/// and incentive drivers — is driven purely by these records.

#include <cstdint>
#include <vector>

#include "data/trip.h"
#include "geo/point.h"

namespace esharing::stream {

/// Edge of the paper's 100 m x 100 m grid cell, in meters. The bus routes
/// events to shards by these cells and StreamState counts demand per cell.
inline constexpr double kCellM = 100.0;

enum class EventKind : std::uint8_t {
  kTripStart = 0,   ///< pickup at `where` (tier-two trigger)
  kTripEnd = 1,     ///< drop-off request with destination `where` (tier one)
  kBatteryLevel = 2 ///< telemetry: bike `bike_id` reports `soc` at `where`
};

[[nodiscard]] const char* event_kind_name(EventKind k);

/// One ingested event. `seq` is assigned by the EventBus at publish time
/// and defines the global arrival order; the deterministic replay/merge
/// machinery restores it after sharding, which is what makes a multi-shard
/// run byte-identical to a single-shard one for a single publisher.
struct Event {
  EventKind kind{EventKind::kTripEnd};
  data::Seconds time{0};
  std::uint64_t seq{0};
  geo::Point where{0.0, 0.0};
  /// Pickup origin of a trip-end request. The paper's online loop decides
  /// tier one (where to park, from the destination) and tier two (the
  /// incentive offer at the pickup) for the same rider in one interaction,
  /// so the request event carries both endpoints and is processed
  /// atomically — the property the batch-equivalence tests rely on.
  geo::Point origin{0.0, 0.0};
  std::int64_t bike_id{0};
  double weight{1.0};  ///< arrival weight of a trip-end request
  double soc{1.0};     ///< state of charge carried by battery telemetry
  /// Eq. 13 private thresholds sampled for the rider behind a trip start;
  /// carried on the event so replay does not depend on consumer-side RNG.
  double user_max_walk_m{0.0};
  double user_min_reward{0.0};
  /// Publisher-side cross reference (e.g. index into a replayed trip log).
  std::int64_t ref{0};
};

/// Ascending-seq ordering used by the deterministic shard merge.
struct BySeq {
  bool operator()(const Event& a, const Event& b) const {
    return a.seq < b.seq;
  }
};

}  // namespace esharing::stream
