#pragma once

/// \file protocol.h
/// The wire protocol of the `esharing-serve` daemon: length-prefixed binary
/// frames over a byte stream (TCP in production, a pipe in the unit tests).
///
/// Frame layout (little-endian, data/wire.h conventions):
///
///   u32 length | u8 type | payload (length - 1 bytes)
///
/// Every request receives exactly one response on the same connection. The
/// publish path (kPublishEvents) is acknowledged immediately by the reader
/// thread; the decide path (kDecide) is answered by the pump loop once the
/// event has travelled through the serving pipeline in seq order, so on a
/// connection that interleaves the two, responses can arrive out of request
/// order — clients correlate decisions by the echoed `ref` token. All
/// payload (de)serialization is pure and stream-free so the protocol is
/// testable without sockets; frame I/O over file descriptors lives in
/// read_frame/write_frame.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "solver/meyerson.h"
#include "stream/event.h"

namespace esharing::serve {

/// Wire-protocol revision. Any change to the frame layout, the MsgType
/// values, or a payload's field order must bump this constant and refresh
/// tools/lint/frozen_formats.txt in the same diff (enforced by the
/// format-freeze pass of tools/analyze/analyze.py).
inline constexpr std::uint32_t kProtocolVersion = 2;

/// Hard cap on a frame payload; a length prefix beyond this is treated as
/// protocol corruption, not an allocation request.
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

enum class MsgType : std::uint8_t {
  // Requests.
  kPing = 1,
  kPublishEvents = 2,   ///< fire-and-forget ingestion batch -> kPublishAck
  kDecide = 3,          ///< one trip-end request -> kDecision (seq order)
  kScrapeMetrics = 4,   ///< obs registry snapshot -> kMetricsJson
  kStatus = 5,          ///< lifecycle + counters -> kStatusReply
  kReloadTunables = 6,  ///< hot config reload -> kOk
  kCheckpointNow = 7,   ///< force a checkpoint -> kOk or kError
  kShutdown = 8,        ///< graceful drain-then-checkpoint stop -> kOk
  // Responses.
  kOk = 64,
  kPublishAck = 65,
  kDecision = 66,
  kMetricsJson = 67,
  kStatusReply = 68,
  kError = 69,
};

[[nodiscard]] const char* msg_type_name(MsgType t);

/// Daemon lifecycle states (DESIGN.md "Serving daemon" state machine).
enum class DaemonState : std::uint8_t {
  kStarting = 0,  ///< constructed; sockets not yet accepting
  kServing = 1,   ///< accept loop + pump loop live
  kDraining = 2,  ///< no new work accepted; draining queues
  kStopped = 3,   ///< drained, final checkpoint written, threads joined
};

[[nodiscard]] const char* daemon_state_name(DaemonState s);

/// The hot-reloadable subset of the daemon's configuration. Reloads arrive
/// over the protocol (kReloadTunables) and replace the running tunables
/// whole. Every value of every field is legal.
struct ServeTunables {
  /// Checkpoint after this many consumed events (0 = only at shutdown).
  std::uint64_t checkpoint_every_events{0};
};

/// Tier-one answer sent back on the decide path. `ref` echoes the value the
/// client put on its request event, untouched by the daemon's internal
/// routing tokens.
struct DecisionReply {
  std::int64_t ref{0};
  bool opened{false};
  std::uint64_t facility{0};
  double connection_cost{0.0};
};

/// Point-in-time daemon facts (kStatusReply).
struct ServeStatus {
  DaemonState state{DaemonState::kStarting};
  std::uint64_t events_consumed{0};
  std::uint64_t decisions{0};
  std::uint64_t checkpoints{0};
  std::uint64_t reloads{0};
  std::uint64_t connections_accepted{0};
  std::uint64_t next_seq{0};
};

/// One decoded frame payload: `type` plus the fields of that message kind.
struct Message {
  MsgType type{MsgType::kPing};
  std::vector<stream::Event> events;  ///< kPublishEvents / kDecide (size 1)
  std::uint64_t accepted{0};          ///< kPublishAck
  DecisionReply decision;             ///< kDecision
  std::string text;                   ///< kMetricsJson / kError
  ServeTunables tunables;             ///< kReloadTunables
  ServeStatus status;                 ///< kStatusReply
};

// --- payload builders (the returned string starts with the type byte) -----
[[nodiscard]] std::string encode_ping();
[[nodiscard]] std::string encode_publish_events(
    std::span<const stream::Event> events);
[[nodiscard]] std::string encode_decide(const stream::Event& event);
[[nodiscard]] std::string encode_scrape_metrics();
[[nodiscard]] std::string encode_status();
[[nodiscard]] std::string encode_reload_tunables(const ServeTunables& t);
[[nodiscard]] std::string encode_checkpoint_now();
[[nodiscard]] std::string encode_shutdown();
[[nodiscard]] std::string encode_ok();
[[nodiscard]] std::string encode_publish_ack(std::uint64_t accepted);
[[nodiscard]] std::string encode_decision(const DecisionReply& d);
[[nodiscard]] std::string encode_metrics_json(const std::string& json);
[[nodiscard]] std::string encode_status_reply(const ServeStatus& s);
[[nodiscard]] std::string encode_error(const std::string& what);

/// Decode one frame payload (type byte + body).
/// \throws std::runtime_error on an unknown type, truncated body, or
///         trailing garbage — corrupt frames never half-decode.
[[nodiscard]] Message decode_message(const std::string& payload);

// --- frame I/O over file descriptors --------------------------------------

/// Append `payload` to `out` as one frame (u32 length prefix + bytes), so
/// several frames can go out in one write_all.
/// \throws std::invalid_argument when payload exceeds kMaxFrameBytes.
void append_frame(std::string& out, const std::string& payload);

/// Write all `n` bytes, looping over partial writes. Returns false when the
/// peer is gone (EPIPE/ECONNRESET);
/// \throws std::runtime_error on other I/O errors.
bool write_all(int fd, const char* data, std::size_t n);

/// Write `payload` as one frame (u32 length prefix + bytes), looping over
/// partial writes. Returns false when the peer is gone (EPIPE/ECONNRESET);
/// \throws std::invalid_argument when payload exceeds kMaxFrameBytes,
///         std::runtime_error on other I/O errors.
bool write_frame(int fd, const std::string& payload);

/// Read one frame into `payload`. Returns false on clean EOF at a frame
/// boundary. \throws std::runtime_error on a torn frame, an implausible
///         length prefix, or other I/O errors.
bool read_frame(int fd, std::string& payload);

}  // namespace esharing::serve
