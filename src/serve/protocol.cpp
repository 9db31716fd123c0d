#include "serve/protocol.h"

#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include "data/wire.h"

namespace esharing::serve {

namespace {

namespace wire = data::wire;

void write_event(std::ostream& os, const stream::Event& e) {
  wire::write_u8(os, static_cast<std::uint8_t>(e.kind));
  wire::write_i64(os, e.time);
  wire::write_u64(os, e.seq);
  wire::write_f64(os, e.where.x);
  wire::write_f64(os, e.where.y);
  wire::write_f64(os, e.origin.x);
  wire::write_f64(os, e.origin.y);
  wire::write_i64(os, e.bike_id);
  wire::write_f64(os, e.weight);
  wire::write_f64(os, e.soc);
  wire::write_f64(os, e.user_max_walk_m);
  wire::write_f64(os, e.user_min_reward);
  wire::write_i64(os, e.ref);
}

[[nodiscard]] stream::Event read_event(std::istream& is) {
  stream::Event e;
  const std::uint8_t kind = wire::read_u8(is);
  if (kind > static_cast<std::uint8_t>(stream::EventKind::kBatteryLevel)) {
    throw std::runtime_error("serve protocol: unknown event kind " +
                             std::to_string(kind));
  }
  e.kind = static_cast<stream::EventKind>(kind);
  e.time = wire::read_i64(is);
  e.seq = wire::read_u64(is);
  e.where.x = wire::read_f64(is);
  e.where.y = wire::read_f64(is);
  e.origin.x = wire::read_f64(is);
  e.origin.y = wire::read_f64(is);
  e.bike_id = wire::read_i64(is);
  e.weight = wire::read_f64(is);
  e.soc = wire::read_f64(is);
  e.user_max_walk_m = wire::read_f64(is);
  e.user_min_reward = wire::read_f64(is);
  e.ref = wire::read_i64(is);
  return e;
}

[[nodiscard]] std::string with_type(MsgType type, const std::string& body) {
  std::string out;
  out.reserve(1 + body.size());
  out.push_back(static_cast<char>(type));
  out += body;
  return out;
}

[[nodiscard]] std::string type_only(MsgType type) {
  return std::string(1, static_cast<char>(type));
}

}  // namespace

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kPing: return "ping";
    case MsgType::kPublishEvents: return "publish_events";
    case MsgType::kDecide: return "decide";
    case MsgType::kScrapeMetrics: return "scrape_metrics";
    case MsgType::kStatus: return "status";
    case MsgType::kReloadTunables: return "reload_tunables";
    case MsgType::kCheckpointNow: return "checkpoint_now";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kOk: return "ok";
    case MsgType::kPublishAck: return "publish_ack";
    case MsgType::kDecision: return "decision";
    case MsgType::kMetricsJson: return "metrics_json";
    case MsgType::kStatusReply: return "status_reply";
    case MsgType::kError: return "error";
  }
  return "unknown";
}

const char* daemon_state_name(DaemonState s) {
  switch (s) {
    case DaemonState::kStarting: return "starting";
    case DaemonState::kServing: return "serving";
    case DaemonState::kDraining: return "draining";
    case DaemonState::kStopped: return "stopped";
  }
  return "unknown";
}

std::string encode_ping() { return type_only(MsgType::kPing); }
std::string encode_scrape_metrics() { return type_only(MsgType::kScrapeMetrics); }
std::string encode_status() { return type_only(MsgType::kStatus); }
std::string encode_checkpoint_now() { return type_only(MsgType::kCheckpointNow); }
std::string encode_shutdown() { return type_only(MsgType::kShutdown); }
std::string encode_ok() { return type_only(MsgType::kOk); }

std::string encode_publish_events(std::span<const stream::Event> events) {
  std::ostringstream os;
  wire::write_u64(os, events.size());
  for (const stream::Event& e : events) write_event(os, e);
  return with_type(MsgType::kPublishEvents, os.str());
}

std::string encode_decide(const stream::Event& event) {
  std::ostringstream os;
  write_event(os, event);
  return with_type(MsgType::kDecide, os.str());
}

std::string encode_reload_tunables(const ServeTunables& t) {
  std::ostringstream os;
  wire::write_u64(os, t.checkpoint_every_events);
  return with_type(MsgType::kReloadTunables, os.str());
}

std::string encode_publish_ack(std::uint64_t accepted) {
  std::ostringstream os;
  wire::write_u64(os, accepted);
  return with_type(MsgType::kPublishAck, os.str());
}

std::string encode_decision(const DecisionReply& d) {
  std::ostringstream os;
  wire::write_i64(os, d.ref);
  wire::write_u8(os, d.opened ? 1 : 0);
  wire::write_u64(os, d.facility);
  wire::write_f64(os, d.connection_cost);
  return with_type(MsgType::kDecision, os.str());
}

std::string encode_metrics_json(const std::string& json) {
  std::ostringstream os;
  wire::write_string(os, json);
  return with_type(MsgType::kMetricsJson, os.str());
}

std::string encode_status_reply(const ServeStatus& s) {
  std::ostringstream os;
  wire::write_u8(os, static_cast<std::uint8_t>(s.state));
  wire::write_u64(os, s.events_consumed);
  wire::write_u64(os, s.decisions);
  wire::write_u64(os, s.checkpoints);
  wire::write_u64(os, s.reloads);
  wire::write_u64(os, s.connections_accepted);
  wire::write_u64(os, s.next_seq);
  return with_type(MsgType::kStatusReply, os.str());
}

std::string encode_error(const std::string& what) {
  std::ostringstream os;
  wire::write_string(os, what);
  return with_type(MsgType::kError, os.str());
}

Message decode_message(const std::string& payload) {
  if (payload.empty()) {
    throw std::runtime_error("serve protocol: empty frame payload");
  }
  Message m;
  const auto raw_type = static_cast<std::uint8_t>(payload[0]);
  std::istringstream is(payload.substr(1));
  switch (raw_type) {
    case static_cast<std::uint8_t>(MsgType::kPing):
    case static_cast<std::uint8_t>(MsgType::kScrapeMetrics):
    case static_cast<std::uint8_t>(MsgType::kStatus):
    case static_cast<std::uint8_t>(MsgType::kCheckpointNow):
    case static_cast<std::uint8_t>(MsgType::kShutdown):
    case static_cast<std::uint8_t>(MsgType::kOk):
      m.type = static_cast<MsgType>(raw_type);
      break;
    case static_cast<std::uint8_t>(MsgType::kPublishEvents): {
      m.type = MsgType::kPublishEvents;
      const std::uint64_t n =
          wire::read_count(is, kMaxFrameBytes / sizeof(stream::Event));
      m.events.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) m.events.push_back(read_event(is));
      break;
    }
    case static_cast<std::uint8_t>(MsgType::kDecide):
      m.type = MsgType::kDecide;
      m.events.push_back(read_event(is));
      break;
    case static_cast<std::uint8_t>(MsgType::kReloadTunables):
      m.type = MsgType::kReloadTunables;
      m.tunables.checkpoint_every_events = wire::read_u64(is);
      break;
    case static_cast<std::uint8_t>(MsgType::kPublishAck):
      m.type = MsgType::kPublishAck;
      m.accepted = wire::read_u64(is);
      break;
    case static_cast<std::uint8_t>(MsgType::kDecision):
      m.type = MsgType::kDecision;
      m.decision.ref = wire::read_i64(is);
      m.decision.opened = wire::read_u8(is) != 0;
      m.decision.facility = wire::read_u64(is);
      m.decision.connection_cost = wire::read_f64(is);
      break;
    case static_cast<std::uint8_t>(MsgType::kMetricsJson):
      m.type = MsgType::kMetricsJson;
      m.text = wire::read_string(is);
      break;
    case static_cast<std::uint8_t>(MsgType::kStatusReply): {
      m.type = MsgType::kStatusReply;
      const std::uint8_t state = wire::read_u8(is);
      if (state > static_cast<std::uint8_t>(DaemonState::kStopped)) {
        throw std::runtime_error("serve protocol: unknown daemon state " +
                                 std::to_string(state));
      }
      m.status.state = static_cast<DaemonState>(state);
      m.status.events_consumed = wire::read_u64(is);
      m.status.decisions = wire::read_u64(is);
      m.status.checkpoints = wire::read_u64(is);
      m.status.reloads = wire::read_u64(is);
      m.status.connections_accepted = wire::read_u64(is);
      m.status.next_seq = wire::read_u64(is);
      break;
    }
    case static_cast<std::uint8_t>(MsgType::kError):
      m.type = MsgType::kError;
      m.text = wire::read_string(is);
      break;
    default:
      throw std::runtime_error("serve protocol: unknown message type " +
                               std::to_string(raw_type));
  }
  // A payload longer than its message is as corrupt as a truncated one.
  if (is.peek() != std::istringstream::traits_type::eof()) {
    throw std::runtime_error(
        std::string("serve protocol: trailing bytes after ") +
        msg_type_name(m.type) + " payload");
  }
  return m;
}

namespace {

/// True when errno after a failed send/recv means "peer is gone" rather
/// than "the call itself is broken".
[[nodiscard]] bool peer_gone(int err) {
  return err == EPIPE || err == ECONNRESET || err == EBADF ||
         err == ENOTCONN || err == ESHUTDOWN;
}

/// 0 = clean EOF before any byte, 1 = all read; throws on a torn read.
int read_all(int fd, char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    ssize_t r = ::read(fd, data + off, n - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (!peer_gone(errno)) {
        throw std::runtime_error(std::string("serve protocol: read failed: ") +
                                 std::strerror(errno));
      }
      r = 0;  // a vanished peer reads as EOF
    }
    if (r == 0) {
      if (off == 0) return 0;
      throw std::runtime_error(
          "serve protocol: connection closed mid-frame (" +
          std::to_string(off) + " of " + std::to_string(n) + " bytes)");
    }
    off += static_cast<std::size_t>(r);
  }
  return 1;
}

}  // namespace

void append_frame(std::string& out, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw std::invalid_argument("serve protocol: frame of " +
                                std::to_string(payload.size()) +
                                " bytes exceeds kMaxFrameBytes");
  }
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((len >> (8 * i)) & 0xffU));
  }
  out += payload;
}

bool write_all(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (peer_gone(errno)) return false;
      throw std::runtime_error(std::string("serve protocol: write failed: ") +
                               std::strerror(errno));
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

bool write_frame(int fd, const std::string& payload) {
  // One assembled buffer per frame: a single write keeps frames contiguous
  // even when several daemon threads answer on the same connection (each
  // holds the connection's write mutex around this call).
  std::string buf;
  buf.reserve(4 + payload.size());
  append_frame(buf, payload);
  return write_all(fd, buf.data(), buf.size());
}

bool read_frame(int fd, std::string& payload) {
  char prefix[4];
  if (read_all(fd, prefix, 4) == 0) return false;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[i]))
           << (8 * i);
  }
  if (len == 0 || len > kMaxFrameBytes) {
    throw std::runtime_error("serve protocol: implausible frame length " +
                             std::to_string(len));
  }
  payload.assign(len, '\0');
  if (read_all(fd, payload.data(), len) == 0) {
    throw std::runtime_error("serve protocol: connection closed before frame "
                             "body");
  }
  return true;
}

}  // namespace esharing::serve
