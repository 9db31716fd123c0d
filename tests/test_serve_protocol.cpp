#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "stream/event.h"

namespace esharing::serve {
namespace {

stream::Event sample_event(std::int64_t i) {
  stream::Event e;
  e.kind = i % 3 == 2 ? stream::EventKind::kBatteryLevel
                      : stream::EventKind::kTripEnd;
  e.time = 100 + i;
  e.seq = static_cast<std::uint64_t>(41 + i);
  e.where = {10.5 + static_cast<double>(i), -3.25};
  e.origin = {-7.0, 2.5 * static_cast<double>(i)};
  e.bike_id = 9000 + i;
  e.weight = 1.5;
  e.soc = 0.25;
  e.user_max_walk_m = 400.0;
  e.user_min_reward = 0.05;
  e.ref = 1000 + i;
  return e;
}

void expect_event_eq(const stream::Event& a, const stream::Event& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_DOUBLE_EQ(a.where.x, b.where.x);
  EXPECT_DOUBLE_EQ(a.where.y, b.where.y);
  EXPECT_DOUBLE_EQ(a.origin.x, b.origin.x);
  EXPECT_DOUBLE_EQ(a.origin.y, b.origin.y);
  EXPECT_EQ(a.bike_id, b.bike_id);
  EXPECT_DOUBLE_EQ(a.weight, b.weight);
  EXPECT_DOUBLE_EQ(a.soc, b.soc);
  EXPECT_DOUBLE_EQ(a.user_max_walk_m, b.user_max_walk_m);
  EXPECT_DOUBLE_EQ(a.user_min_reward, b.user_min_reward);
  EXPECT_EQ(a.ref, b.ref);
}

TEST(ServeProtocol, RequestPayloadsRoundTrip) {
  {
    const Message m = decode_message(encode_ping());
    EXPECT_EQ(m.type, MsgType::kPing);
  }
  {
    std::vector<stream::Event> events;
    for (std::int64_t i = 0; i < 5; ++i) events.push_back(sample_event(i));
    const Message m = decode_message(encode_publish_events(events));
    EXPECT_EQ(m.type, MsgType::kPublishEvents);
    ASSERT_EQ(m.events.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      expect_event_eq(m.events[i], events[i]);
    }
  }
  {
    const Message m = decode_message(encode_decide(sample_event(7)));
    EXPECT_EQ(m.type, MsgType::kDecide);
    ASSERT_EQ(m.events.size(), 1u);
    expect_event_eq(m.events.front(), sample_event(7));
  }
  {
    ServeTunables t;
    t.checkpoint_every_events = 512;
    const Message m = decode_message(encode_reload_tunables(t));
    EXPECT_EQ(m.type, MsgType::kReloadTunables);
    EXPECT_EQ(m.tunables.checkpoint_every_events, 512u);
  }
  EXPECT_EQ(decode_message(encode_scrape_metrics()).type,
            MsgType::kScrapeMetrics);
  EXPECT_EQ(decode_message(encode_status()).type, MsgType::kStatus);
  EXPECT_EQ(decode_message(encode_checkpoint_now()).type,
            MsgType::kCheckpointNow);
  EXPECT_EQ(decode_message(encode_shutdown()).type, MsgType::kShutdown);
}

TEST(ServeProtocol, ResponsePayloadsRoundTrip) {
  EXPECT_EQ(decode_message(encode_ok()).type, MsgType::kOk);
  {
    const Message m = decode_message(encode_publish_ack(1234));
    EXPECT_EQ(m.type, MsgType::kPublishAck);
    EXPECT_EQ(m.accepted, 1234u);
  }
  {
    DecisionReply d;
    d.ref = -17;
    d.opened = true;
    d.facility = 42;
    d.connection_cost = 123.625;
    const Message m = decode_message(encode_decision(d));
    EXPECT_EQ(m.type, MsgType::kDecision);
    EXPECT_EQ(m.decision.ref, -17);
    EXPECT_TRUE(m.decision.opened);
    EXPECT_EQ(m.decision.facility, 42u);
    EXPECT_DOUBLE_EQ(m.decision.connection_cost, 123.625);
  }
  {
    const Message m =
        decode_message(encode_metrics_json("{\"counters\":{}}"));
    EXPECT_EQ(m.type, MsgType::kMetricsJson);
    EXPECT_EQ(m.text, "{\"counters\":{}}");
  }
  {
    ServeStatus s;
    s.state = DaemonState::kDraining;
    s.events_consumed = 7;
    s.decisions = 5;
    s.checkpoints = 2;
    s.reloads = 1;
    s.connections_accepted = 3;
    s.next_seq = 8;
    const Message m = decode_message(encode_status_reply(s));
    EXPECT_EQ(m.type, MsgType::kStatusReply);
    EXPECT_EQ(m.status.state, DaemonState::kDraining);
    EXPECT_EQ(m.status.events_consumed, 7u);
    EXPECT_EQ(m.status.decisions, 5u);
    EXPECT_EQ(m.status.checkpoints, 2u);
    EXPECT_EQ(m.status.reloads, 1u);
    EXPECT_EQ(m.status.connections_accepted, 3u);
    EXPECT_EQ(m.status.next_seq, 8u);
  }
  {
    const Message m = decode_message(encode_error("boom"));
    EXPECT_EQ(m.type, MsgType::kError);
    EXPECT_EQ(m.text, "boom");
  }
}

TEST(ServeProtocol, CorruptPayloadsNeverHalfDecode) {
  // Unknown type byte.
  EXPECT_THROW((void)decode_message(std::string(1, '\x7f')),
               std::runtime_error);
  // Empty payload has no type byte at all.
  EXPECT_THROW((void)decode_message(std::string()), std::runtime_error);
  // Truncated body: chop bytes off a valid decision payload.
  const std::string good = encode_decision(DecisionReply{1, true, 2, 3.0});
  EXPECT_THROW((void)decode_message(good.substr(0, good.size() - 3)),
               std::runtime_error);
  // Trailing garbage after a complete body.
  EXPECT_THROW((void)decode_message(good + "x"), std::runtime_error);
}

TEST(ServeProtocol, FrameIoRoundTripsOverAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload = encode_publish_ack(99);
  ASSERT_TRUE(write_frame(fds[1], payload));
  std::string back;
  ASSERT_TRUE(read_frame(fds[0], back));
  EXPECT_EQ(back, payload);

  // Clean EOF at a frame boundary reads false, not a throw.
  ::close(fds[1]);
  EXPECT_FALSE(read_frame(fds[0], back));
  ::close(fds[0]);
}

TEST(ServeProtocol, TornAndOversizedFramesThrow) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // A length prefix promising 4 bytes followed by EOF after 1: torn frame.
  const unsigned char torn[5] = {4, 0, 0, 0, 1};
  ASSERT_EQ(::write(fds[1], torn, sizeof(torn)), 5);
  ::close(fds[1]);
  std::string back;
  EXPECT_THROW((void)read_frame(fds[0], back), std::runtime_error);
  ::close(fds[0]);

  ASSERT_EQ(::pipe(fds), 0);
  // An implausible length prefix is protocol corruption, not an alloc.
  const unsigned char huge[4] = {0xff, 0xff, 0xff, 0x7f};
  ASSERT_EQ(::write(fds[1], huge, sizeof(huge)), 4);
  ::close(fds[1]);
  EXPECT_THROW((void)read_frame(fds[0], back), std::runtime_error);
  ::close(fds[0]);

  // Oversized writes are rejected before touching the descriptor.
  EXPECT_THROW(
      (void)write_frame(-1, std::string(kMaxFrameBytes + 1, 'x')),
      std::invalid_argument);
}

}  // namespace
}  // namespace esharing::serve
