#include "serve/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/registry.h"

namespace esharing::serve {

namespace {

/// Pending-connection queue length passed to listen(2).
constexpr int kListenBacklog = 64;

/// Metric handles resolved once (registry convention; names frozen in
/// tools/lint/frozen_metric_names.txt).
struct ServeMetricsRefs {
  obs::Counter& connections;
  obs::Counter& requests;
  obs::Counter& published_events;
  obs::Counter& decisions;
  obs::Counter& checkpoints;
  obs::Counter& config_reloads;
  obs::Gauge& state;
  obs::Histogram& decide_latency;
};

ServeMetricsRefs& metrics() {
  static ServeMetricsRefs m{
      obs::Registry::global().counter("serve.daemon.connections"),
      obs::Registry::global().counter("serve.daemon.requests"),
      obs::Registry::global().counter("serve.daemon.published_events"),
      obs::Registry::global().counter("serve.daemon.decisions"),
      obs::Registry::global().counter("serve.daemon.checkpoints"),
      obs::Registry::global().counter("serve.daemon.config_reloads"),
      obs::Registry::global().gauge("serve.daemon.state"),
      obs::Registry::global().histogram("serve.decide.latency_seconds",
                                        obs::default_latency_buckets()),
  };
  return m;
}

ServeConfig validated(ServeConfig config) {
  config.validate();
  return config;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("ServeDaemon: " + what + ": " +
                           std::strerror(errno));
}

}  // namespace

void ServeConfig::validate() const { pipeline.validate(); }

// --- Connection ------------------------------------------------------------

ServeDaemon::Connection::~Connection() { ::close(fd); }

bool ServeDaemon::Connection::send(const std::string& payload) {
  const es::LockGuard lock(write_mu);
  if (broken) return false;
  try {
    // analyze-ok: blocking-under-lock write_mu serializes whole frames onto one socket; a slow client stalls only its own connection
    if (!write_frame(fd, payload)) broken = true;
  } catch (const std::exception&) {
    broken = true;
  }
  return !broken;
}

bool ServeDaemon::Connection::flush_round() {
  const es::LockGuard lock(write_mu);
  try {
    // analyze-ok: blocking-under-lock write_mu serializes whole frames onto one socket; a slow client stalls only its own connection
    if (!broken && !write_all(fd, round_out.data(), round_out.size())) {
      broken = true;
    }
  } catch (const std::exception&) {
    broken = true;
  }
  round_out.clear();
  return !broken;
}

void ServeDaemon::Connection::shutdown_read() { ::shutdown(fd, SHUT_RD); }

// --- lifecycle -------------------------------------------------------------

ServeDaemon::ServeDaemon(core::ESharing& system,
                         std::vector<geo::Point> historical_sample,
                         ServeConfig config)
    : config_(validated(std::move(config))),
      system_(&system),
      pipeline_(system, std::move(historical_sample), config_.pipeline),
      tunables_(config_.tunables) {}

ServeDaemon::~ServeDaemon() {
  request_stop();
  wait();
  if (listen_fd_ != -1) ::close(listen_fd_);
}

void ServeDaemon::start() {
  if (started_) throw std::logic_error("ServeDaemon: already started");
  started_ = true;

  // A peer vanishing mid-reply must surface as EPIPE on the write, not kill
  // the process.
  ::signal(SIGPIPE, SIG_IGN);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw_errno("bind 127.0.0.1:" + std::to_string(config_.port));
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) throw_errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  if (!config_.checkpoint_path.empty()) {
    const std::ifstream probe(config_.checkpoint_path, std::ios::binary);
    if (probe.good()) {
      restored_ = pipeline_.restore_checkpoint_file(config_.checkpoint_path);
      events_consumed_.store(restored_->events_consumed,
                             std::memory_order_relaxed);
    }
  }
  if (!config_.flight_recorder_path.empty()) {
    recorder_.emplace(config_.flight_recorder_path);
  }

  set_state(DaemonState::kServing);
  // lint-ok: raw-thread socket I/O threads must not occupy exec-pool lanes
  accept_thread_ = std::thread(&ServeDaemon::accept_loop, this);
  pump_thread_ = std::thread(&ServeDaemon::pump_loop, this);  // lint-ok: raw-thread resident consumer
}

void ServeDaemon::request_stop() {
  bool expected = false;
  if (!stop_requested_.compare_exchange_strong(expected, true)) return;
  if (!started_) {
    set_state(DaemonState::kStopped);
    return;
  }
  set_state(DaemonState::kDraining);
  // Pop the accept loop out of poll/accept and every reader out of
  // read_frame; half-close keeps the write sides alive so in-flight decide
  // responses still go out during the drain.
  ::shutdown(listen_fd_, SHUT_RDWR);
  {
    const es::LockGuard lock(conn_mu_);
    for (const auto& conn : conns_) conn->shutdown_read();
  }
  pipeline_.bus().poke();  // the pump may be asleep on an empty bus
}

void ServeDaemon::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  for (;;) {
    // lint-ok: raw-thread joining the daemon's own reader threads
    std::vector<std::thread> grab;
    {
      const es::LockGuard lock(conn_mu_);
      grab.swap(reader_threads_);
    }
    if (grab.empty()) break;
    for (auto& t : grab) t.join();
  }
  if (pump_thread_.joinable()) pump_thread_.join();
}

void ServeDaemon::set_state(DaemonState s) {
  state_.store(s, std::memory_order_release);
  if (obs::enabled()) {
    metrics().state.set(static_cast<double>(static_cast<std::uint8_t>(s)));
  }
}

ServeTunables ServeDaemon::tunables() const {
  const es::LockGuard lock(tunables_mu_);
  return tunables_;
}

ServeStatus ServeDaemon::status() const {
  ServeStatus s;
  s.state = state();
  {
    // A decide is answered inside the pump, before the pump counts its
    // round: wait out a pump in progress, so every answered decide is
    // already counted in events_consumed.
    const es::LockGuard lock(pump_mu_);
    s.events_consumed = events_consumed_.load(std::memory_order_relaxed);
    s.decisions = decisions_.load(std::memory_order_relaxed);
  }
  {
    const es::LockGuard lock(ckpt_mu_);
    s.checkpoints = checkpoints_done_;
  }
  s.reloads = reloads_.load(std::memory_order_relaxed);
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.next_seq = pipeline_.bus().next_seq();
  return s;
}

// --- accept + reader threads ----------------------------------------------

void ServeDaemon::accept_loop() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout or EINTR: recheck the stop flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;  // raced with shutdown or transient accept error
    // Replies are small frames written once per pump round: send each at
    // once instead of letting Nagle hold it for the client's next ACK.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) metrics().connections.add(1);
    auto conn = std::make_shared<Connection>(fd);
    // Count the reader before its thread exists so the pump's drain
    // condition can never observe a spawned-but-uncounted reader.
    active_readers_.fetch_add(1, std::memory_order_acq_rel);
    const es::LockGuard lock(conn_mu_);
    conns_.push_back(conn);
    reader_threads_.emplace_back(&ServeDaemon::reader_loop, this,
                                 std::move(conn));
  }
  accept_done_.store(true, std::memory_order_release);
  pipeline_.bus().poke();
}

void ServeDaemon::reader_loop(std::shared_ptr<Connection> conn) {
  std::string payload;
  try {
    while (read_frame(conn->fd, payload)) {
      handle_message(conn, decode_message(payload));
    }
  } catch (const std::exception& ex) {
    // Framing is untrustworthy after a protocol error: answer once, then
    // drop the connection.
    conn->send(encode_error(std::string("protocol error: ") + ex.what()));
  }
  {
    const es::LockGuard lock(conn_mu_);
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i] == conn) {
        conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  }
  active_readers_.fetch_sub(1, std::memory_order_acq_rel);
  pipeline_.bus().poke();  // the last reader out may complete the drain
}

void ServeDaemon::handle_message(const std::shared_ptr<Connection>& conn,
                                 Message msg) {
  if (obs::enabled()) metrics().requests.add(1);
  const DaemonState st = state();
  switch (msg.type) {
    case MsgType::kPing:
      conn->send(encode_ok());
      return;
    case MsgType::kPublishEvents: {
      if (st != DaemonState::kServing) {
        conn->send(encode_error("not serving (state " +
                                std::string(daemon_state_name(st)) + ")"));
        return;
      }
      // Ingested events never carry routing tokens; ref is reserved for the
      // decide path (and checkpoint-consistent seq is stamped by the bus).
      for (auto& e : msg.events) {
        e.ref = 0;
        e.seq = 0;
      }
      publish_gate_enter();
      const std::size_t accepted = pipeline_.publish_batch(msg.events);
      publish_gate_exit();
      if (obs::enabled() && accepted > 0) {
        metrics().published_events.add(accepted);
      }
      conn->send(encode_publish_ack(accepted));
      return;
    }
    case MsgType::kDecide: {
      if (st != DaemonState::kServing) {
        conn->send(encode_error("not serving (state " +
                                std::string(daemon_state_name(st)) + ")"));
        return;
      }
      if (msg.events.size() != 1 ||
          msg.events.front().kind != stream::EventKind::kTripEnd) {
        conn->send(encode_error("decide requires exactly one trip-end event"));
        return;
      }
      handle_decide(conn, msg.events.front());
      return;
    }
    case MsgType::kScrapeMetrics:
      conn->send(encode_metrics_json(
          obs::to_json(obs::Registry::global().snapshot())));
      return;
    case MsgType::kStatus:
      conn->send(encode_status_reply(status()));
      return;
    case MsgType::kReloadTunables: {
      {
        const es::LockGuard lock(tunables_mu_);
        tunables_ = msg.tunables;
      }
      reloads_.fetch_add(1, std::memory_order_relaxed);
      if (obs::enabled()) metrics().config_reloads.add(1);
      conn->send(encode_ok());
      return;
    }
    case MsgType::kCheckpointNow: {
      if (config_.checkpoint_path.empty()) {
        conn->send(encode_error("no checkpoint_path configured"));
        return;
      }
      if (st != DaemonState::kServing) {
        conn->send(encode_error("not serving (state " +
                                std::string(daemon_state_name(st)) + ")"));
        return;
      }
      std::uint64_t before_ok = 0;
      std::uint64_t before_fail = 0;
      {
        const es::LockGuard lock(ckpt_mu_);
        before_ok = checkpoints_done_;
        before_fail = checkpoint_failures_;
      }
      checkpoint_requested_.store(true, std::memory_order_release);
      pipeline_.bus().poke();
      bool ok = false;
      {
        es::UniqueLock lock(ckpt_mu_);
        while (checkpoints_done_ == before_ok &&
               checkpoint_failures_ == before_fail &&
               state() != DaemonState::kStopped) {
          ckpt_cv_.wait(lock);
        }
        ok = checkpoints_done_ > before_ok;
      }
      conn->send(ok ? encode_ok() : encode_error("checkpoint failed"));
      return;
    }
    case MsgType::kShutdown:
      conn->send(encode_ok());
      request_stop();
      return;
    default:
      conn->send(encode_error(std::string("unexpected message type: ") +
                              msg_type_name(msg.type)));
      return;
  }
}

void ServeDaemon::handle_decide(const std::shared_ptr<Connection>& conn,
                                stream::Event event) {
  const std::int64_t token =
      next_token_.fetch_add(1, std::memory_order_relaxed);
  {
    const es::LockGuard lock(pending_mu_);
    pending_.emplace(token, PendingDecide{conn, event.ref,
                                          std::chrono::steady_clock::now()});
  }
  event.ref = token;
  event.seq = 0;
  publish_gate_enter();
  pipeline_.publish(event);
  publish_gate_exit();
}

// --- pump thread -----------------------------------------------------------

void ServeDaemon::publish_gate_enter() {
  es::UniqueLock lock(gate_mu_);
  while (gate_paused_) gate_cv_.wait(lock);
  ++in_flight_publishes_;
}

void ServeDaemon::publish_gate_exit() {
  bool paused = false;
  {
    const es::LockGuard lock(gate_mu_);
    --in_flight_publishes_;
    paused = gate_paused_;
  }
  // A checkpoint waiting out in-flight publishes sleeps on the bus. One
  // that pauses the gate after this decrement reads the new count itself.
  if (paused) pipeline_.bus().poke();
}

void ServeDaemon::on_decision(const stream::Event& e,
                              const solver::OnlineDecision& d) {
  decisions_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) metrics().decisions.add(1);
  if (recorder_) recorder_->record(e, d);
  if (e.ref <= 0) return;  // ingested event, nobody waiting
  PendingDecide pending;
  {
    const es::LockGuard lock(pending_mu_);
    const auto it = pending_.find(e.ref);
    if (it == pending_.end()) return;
    pending = std::move(it->second);
    pending_.erase(it);
  }
  if (obs::enabled()) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - pending.received;
    metrics().decide_latency.observe(elapsed.count());
  }
  DecisionReply reply;
  reply.ref = pending.client_ref;
  reply.opened = d.opened;
  reply.facility = static_cast<std::uint64_t>(d.facility);
  reply.connection_cost = d.connection_cost;
  // Queue the reply; pump_counted writes each connection's replies of the
  // round in one go once the round is done.
  Connection& conn = *pending.conn;
  if (conn.round_out.empty()) round_conns_.push_back(std::move(pending.conn));
  append_frame(conn.round_out, encode_decision(reply));
}

std::size_t ServeDaemon::pump_counted() {
  std::size_t n = 0;
  {
    const es::LockGuard lock(pump_mu_);
    n = pipeline_.pump_decisions(
        [this](const stream::Event& e, const solver::OnlineDecision& d) {
          on_decision(e, d);
        });
    if (n > 0) {
      events_consumed_.fetch_add(n, std::memory_order_relaxed);
      consumed_since_checkpoint_.fetch_add(n, std::memory_order_relaxed);
    }
  }
  // Replies go out after the round is counted, so a status request sent
  // after a reply arrives always sees that reply's event consumed.
  for (const auto& conn : round_conns_) conn->flush_round();
  round_conns_.clear();
  return n;
}

bool ServeDaemon::do_checkpoint() {
  // Quiesce publishers, then pump the queues dry: save_checkpoint's
  // queues-drained contract (checkpoint.h) demands an empty bus.
  {
    const es::LockGuard lock(gate_mu_);
    gate_paused_ = true;
  }
  // Keep pumping while in-flight publishes finish: a publish blocked on a
  // full ring only returns once this thread drains it. The paused gate
  // admits no new publish, so the in-flight count only falls. Between
  // empty rounds, sleep on the bus: publish_gate_exit pokes it.
  for (;;) {
    const std::uint32_t seen = pipeline_.bus().activity();
    {
      const es::LockGuard lock(gate_mu_);
      if (in_flight_publishes_ == 0) break;
    }
    if (pump_counted() == 0) pipeline_.bus().wait_activity(seen);
  }
  while (pump_counted() > 0) {
    // until the queues are dry
  }
  bool ok = true;
  try {
    pipeline_.save_checkpoint_file(config_.checkpoint_path);
  } catch (const std::exception& ex) {
    ok = false;
    std::fprintf(stderr, "esharing-serve: checkpoint failed: %s\n", ex.what());
  }
  {
    const es::LockGuard lock(gate_mu_);
    gate_paused_ = false;
  }
  gate_cv_.notify_all();
  {
    const es::LockGuard lock(ckpt_mu_);
    if (ok) {
      ++checkpoints_done_;
    } else {
      ++checkpoint_failures_;
    }
  }
  ckpt_cv_.notify_all();
  if (ok) {
    consumed_since_checkpoint_.store(0, std::memory_order_relaxed);
    if (obs::enabled()) metrics().checkpoints.add(1);
  }
  return ok;
}

void ServeDaemon::pump_loop() {
  for (;;) {
    // Read the activity counter before the round: anything published, or
    // any stop/checkpoint request made, after this read wakes the wait
    // below even if the round missed it.
    const std::uint32_t seen = pipeline_.bus().activity();
    const std::size_t n = pump_counted();
    const ServeTunables t = tunables();
    const bool has_path = !config_.checkpoint_path.empty();
    if (checkpoint_requested_.exchange(false, std::memory_order_acq_rel)) {
      if (has_path) do_checkpoint();
    } else if (has_path && t.checkpoint_every_events > 0 &&
               consumed_since_checkpoint_.load(std::memory_order_relaxed) >=
                   t.checkpoint_every_events) {
      do_checkpoint();
    }
    if (n > 0) continue;
    const bool drained =
        stop_requested_.load(std::memory_order_acquire) &&
        accept_done_.load(std::memory_order_acquire) &&
        active_readers_.load(std::memory_order_acquire) == 0;
    if (drained) {
      // One confirming pump: everything published before the last reader
      // exited must be consumed before the final checkpoint.
      if (pump_counted() == 0) break;
      continue;
    }
    pipeline_.bus().wait_activity(seen);
  }
  // The bus is lossless and the confirming pump found it dry, so every
  // published decide has been answered. The sweep stays as a guard: any
  // straggler still pending gets an error so no client hangs forever.
  std::map<std::int64_t, PendingDecide> leftovers;
  {
    const es::LockGuard lock(pending_mu_);
    leftovers.swap(pending_);
  }
  for (const auto& [token, pending] : leftovers) {
    (void)token;
    pending.conn->send(
        encode_error("daemon stopped before the decision was made"));
  }
  if (!config_.checkpoint_path.empty()) do_checkpoint();
  set_state(DaemonState::kStopped);
  ckpt_cv_.notify_all();  // release kCheckpointNow waiters observing kStopped
}

}  // namespace esharing::serve
