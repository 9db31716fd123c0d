#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace esharing::serve {

ServeClient ServeClient::connect(std::uint16_t port) {
  ::signal(SIGPIPE, SIG_IGN);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("ServeClient: socket: ") +
                             std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("ServeClient: connect 127.0.0.1:" +
                             std::to_string(port) + ": " +
                             std::strerror(err));
  }
  // Requests are small frames: send each at once, not when Nagle sees the
  // ACK of the previous one.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return ServeClient(fd);
}

ServeClient::~ServeClient() {
  if (fd_ != -1) ::close(fd_);
}

ServeClient::ServeClient(ServeClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

void ServeClient::send(const std::string& payload) {
  const es::LockGuard lock(send_mu_);
  // analyze-ok: blocking-under-lock send_mu_ exists to keep senders from interleaving partial frames; the write IS the critical section
  if (!write_frame(fd_, payload)) {
    throw std::runtime_error("ServeClient: daemon closed the connection");
  }
}

Message ServeClient::recv() {
  std::string payload;
  {
    const es::LockGuard lock(recv_mu_);
    // analyze-ok: blocking-under-lock recv_mu_ keeps receivers from tearing a frame apart; the read IS the critical section
    if (!read_frame(fd_, payload)) {
      throw std::runtime_error(
          "ServeClient: connection closed while awaiting a response");
    }
  }
  return decode_message(payload);
}

Message ServeClient::request(const std::string& payload) {
  send(payload);
  return recv();
}

Message ServeClient::expect(const std::string& payload, MsgType want) {
  Message reply = request(payload);
  if (reply.type == MsgType::kError) {
    throw std::runtime_error("ServeClient: daemon error: " + reply.text);
  }
  if (reply.type != want) {
    throw std::runtime_error(std::string("ServeClient: expected ") +
                             msg_type_name(want) + " but got " +
                             msg_type_name(reply.type));
  }
  return reply;
}

void ServeClient::ping() { expect(encode_ping(), MsgType::kOk); }

std::uint64_t ServeClient::publish(std::span<const stream::Event> events) {
  return expect(encode_publish_events(events), MsgType::kPublishAck).accepted;
}

DecisionReply ServeClient::decide(const stream::Event& event) {
  return expect(encode_decide(event), MsgType::kDecision).decision;
}

std::string ServeClient::scrape_metrics() {
  return expect(encode_scrape_metrics(), MsgType::kMetricsJson).text;
}

ServeStatus ServeClient::status() {
  return expect(encode_status(), MsgType::kStatusReply).status;
}

void ServeClient::reload_tunables(const ServeTunables& tunables) {
  expect(encode_reload_tunables(tunables), MsgType::kOk);
}

void ServeClient::checkpoint_now() {
  expect(encode_checkpoint_now(), MsgType::kOk);
}

void ServeClient::shutdown() { expect(encode_shutdown(), MsgType::kOk); }

}  // namespace esharing::serve
