#pragma once

/// \file checkpoint.h
/// Versioned binary checkpoints of the streaming pipeline.
///
/// A checkpoint captures the *queues-drained* state of the serving path:
/// the online placer (stations, penalty state, KS window, RNG), the
/// per-shard StreamStates (windows, rates, watchlist), the regime-check
/// counters, and the incentive driver (closed totals plus the open session
/// with its frozen offers and piles). The bus itself is deliberately not
/// serialized — the format's contract is that every published event has
/// been drained and consumed first, so the checkpoint is a pure function of
/// the consumed event prefix. Restoring and then feeding the remaining
/// suffix therefore reproduces the uninterrupted run bit for bit (the
/// property tests/test_stream_checkpoint.cpp locks in).
///
/// Layout (little-endian, see data/wire.h):
///   magic "ESTRCCP1" | version | bus fingerprint (shard_count,
///   routing cell edge (always 100.0 m), a retired policy byte written as
///   0, queue_capacity) |
///   next seq | placer blob | reopt-session
///   blob (warm re-anchor state) | placer-driver blob (regimes + per-shard
///   states) | incentive-driver blob.
/// Restore validates magic, version, shard count and routing cell against
/// the live bus and throws std::runtime_error with an actionable message on
/// any mismatch.

#include <cstdint>
#include <iosfwd>
#include <string>

#include "stream/drivers.h"
#include "stream/event_bus.h"

namespace esharing::stream {

/// Header facts of a restored checkpoint.
struct CheckpointInfo {
  std::uint64_t version{0};
  std::uint64_t shard_count{0};
  std::uint64_t events_consumed{0};
  std::uint64_t last_seq{0};
};

/// Write a checkpoint of the drained pipeline.
/// \throws std::logic_error if the bus still has pending events (drain and
///         consume first — the format only represents consumed state) or if
///         `placer_driver` does not serve `bus`'s shard layout.
void save_checkpoint(std::ostream& os, const EventBus& bus,
                     const OnlinePlacerDriver& placer_driver,
                     const IncentiveDriver& incentive_driver);

/// Restore a checkpoint into live pipeline components. `system` must be the
/// ESharing instance `placer_driver` serves (its placer is replaced via
/// restore_placer), and `bus` must have the same shard count and routing
/// cell as the checkpointed bus; its seq counter is fast-forwarded so
/// subsequent publishes continue the checkpointed stamp sequence.
/// \throws std::runtime_error on corrupt input or fingerprint mismatch,
///         std::logic_error on component wiring errors.
CheckpointInfo restore_checkpoint(std::istream& is, EventBus& bus,
                                  core::ESharing& system,
                                  OnlinePlacerDriver& placer_driver,
                                  IncentiveDriver& incentive_driver);

/// Convenience file wrappers. \throws std::runtime_error when the path
/// cannot be opened, plus everything the stream variants throw.
void save_checkpoint_file(const std::string& path, const EventBus& bus,
                          const OnlinePlacerDriver& placer_driver,
                          const IncentiveDriver& incentive_driver);
CheckpointInfo restore_checkpoint_file(const std::string& path, EventBus& bus,
                                       core::ESharing& system,
                                       OnlinePlacerDriver& placer_driver,
                                       IncentiveDriver& incentive_driver);

}  // namespace esharing::stream
