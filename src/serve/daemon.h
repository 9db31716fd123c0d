#pragma once

/// \file daemon.h
/// The long-lived serving process of the online tier: a ServeDaemon owns a
/// serving-mode stream::Pipeline and exposes it over the length-prefixed
/// socket protocol (protocol.h). This is ROADMAP item "serving daemon" —
/// the resident process that turns the batch reproduction into a system
/// live trip streams can hit.
///
/// Thread model (all locks are es::Mutex with ES_GUARDED_BY; the only raw
/// threads outside src/exec/, waived because blocking socket I/O must not
/// occupy exec-pool compute lanes):
///
///   * accept thread — poll+accept on the listening socket; one reader
///     thread per connection.
///   * reader threads — decode frames; publishes go to
///     EventBus::publish_batch under the checkpoint quiescence gate and are
///     acked immediately; decide requests register a pending token, ride
///     the same bus, and are answered later by the pump thread.
///   * pump thread — the single pipeline consumer: drains/merges/consumes
///     in seq order via Pipeline::pump_decisions, routes decide responses
///     back by token, feeds the flight recorder, and takes the periodic
///     crash-atomic checkpoints.
///
/// Lifecycle state machine:
///
///   kStarting --start()--> kServing --request_stop()--> kDraining
///     kDraining --(readers exited, queues pumped dry, final checkpoint)-->
///   kStopped
///
/// Crash-recovery guarantee: checkpoints are taken at queues-drained points
/// through the existing ESTRCCP1 v2 format, saved crash-atomically
/// (tmp+rename), so restore + replay of the post-checkpoint suffix is
/// bit-identical to an uninterrupted run — the PR 7 contract, now held by a
/// process that can actually crash.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

// Blocking socket reads/writes park OS threads; running them on the exec
// pool would starve compute lanes, so the daemon owns its I/O threads.
#include <chrono>
#include <thread>  // lint-ok: raw-thread daemon I/O threads block on sockets, not compute; see file comment

#include "core/esharing.h"
#include "core/sync.h"
#include "core/thread_annotations.h"
#include "serve/flight_recorder.h"
#include "serve/protocol.h"
#include "stream/pipeline.h"

namespace esharing::serve {

struct ServeConfig {
  /// TCP port to listen on (loopback only); 0 picks an ephemeral port —
  /// read it back with ServeDaemon::port().
  std::uint16_t port{0};
  /// Checkpoint file; empty disables checkpointing entirely (the daemon
  /// then refuses kCheckpointNow and skips the shutdown checkpoint). When
  /// the file exists at start(), the daemon restores from it.
  std::string checkpoint_path;
  /// JSONL decision log; empty disables the flight recorder.
  std::string flight_recorder_path;
  stream::PipelineConfig pipeline;
  ServeTunables tunables;

  /// \throws std::invalid_argument on the first violated constraint.
  void validate() const;
};

class ServeDaemon {
 public:
  /// Serving-mode construction, mirroring stream::Pipeline: `system` must
  /// be online, `historical_sample` is the KS reference.
  /// \throws std::invalid_argument on invalid config,
  ///         std::logic_error if the system is not online.
  ServeDaemon(core::ESharing& system,
              std::vector<geo::Point> historical_sample, ServeConfig config);

  /// Stops and joins if still running.
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Bind, restore the checkpoint if one exists, and spawn the accept and
  /// pump threads. \throws std::runtime_error on socket errors or a
  /// corrupt checkpoint, std::logic_error if already started.
  void start();

  /// The bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Begin graceful shutdown: stop accepting, half-close readers, let the
  /// pump drain everything published, take the final checkpoint. Safe to
  /// call from any thread (including a reader handling kShutdown) and more
  /// than once. Does not block — pair with wait().
  void request_stop();

  /// Join all daemon threads. Returns once state() == kStopped.
  void wait();

  [[nodiscard]] DaemonState state() const {
    return state_.load(std::memory_order_acquire);
  }
  [[nodiscard]] ServeStatus status() const;
  /// Info of the checkpoint restored at start(), if any.
  [[nodiscard]] const std::optional<stream::CheckpointInfo>& restored() const {
    return restored_;
  }
  [[nodiscard]] const stream::Pipeline& pipeline() const { return pipeline_; }

 private:
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    ~Connection();
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    /// Frame a payload onto the socket; returns false once the peer is
    /// gone. Serialized by `write_mu` so reader-thread acks and pump-thread
    /// decisions never interleave mid-frame.
    bool send(const std::string& payload);
    /// Write the frames queued in `round_out` with one write, then clear
    /// it. Pump thread only; returns false once the peer is gone.
    bool flush_round();
    /// Half-close the read side to pop the reader out of read_frame.
    void shutdown_read();

    const int fd;
    es::Mutex write_mu;
    bool broken ES_GUARDED_BY(write_mu){false};
    /// Decision frames of the current pump round, not yet written. Touched
    /// by the pump thread only.
    std::string round_out;
  };

  struct PendingDecide {
    std::shared_ptr<Connection> conn;
    std::int64_t client_ref{0};
    std::chrono::steady_clock::time_point received{};
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Connection> conn);
  void pump_loop();
  /// Dispatch one decoded request; every branch sends exactly one response
  /// (the decide branch defers it to the pump thread).
  void handle_message(const std::shared_ptr<Connection>& conn, Message msg);
  void handle_decide(const std::shared_ptr<Connection>& conn,
                     stream::Event event);
  /// Pause publishers, pump the queues dry, save crash-atomically, resume.
  /// Runs on the pump thread only. Returns false when saving failed.
  bool do_checkpoint();
  /// One Pipeline::pump_decisions round under pump_mu_, with the consumed
  /// events counted before the lock is released; then each connection
  /// answered in the round gets its replies in one write. Pump thread
  /// only. Returns the events consumed (0 = the bus was empty).
  std::size_t pump_counted();
  void on_decision(const stream::Event& e, const solver::OnlineDecision& d);
  void set_state(DaemonState s);
  [[nodiscard]] ServeTunables tunables() const;

  // Publisher-side quiescence gate around bus publishes: checkpoints need
  // the queues-drained invariant, so the pump pauses the gate, waits out
  // in-flight publishes, drains, saves, resumes.
  void publish_gate_enter();
  void publish_gate_exit();

  ServeConfig config_;
  core::ESharing* system_;
  stream::Pipeline pipeline_;
  std::optional<FlightRecorder> recorder_;
  std::optional<stream::CheckpointInfo> restored_;

  mutable es::Mutex tunables_mu_;
  ServeTunables tunables_ ES_GUARDED_BY(tunables_mu_);

  int listen_fd_{-1};
  std::uint16_t port_{0};
  bool started_{false};
  std::atomic<DaemonState> state_{DaemonState::kStarting};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> accept_done_{false};

  es::Mutex conn_mu_;
  std::vector<std::shared_ptr<Connection>> conns_ ES_GUARDED_BY(conn_mu_);
  // lint-ok: raw-thread reader threads block in read_frame; see file comment
  std::vector<std::thread> reader_threads_ ES_GUARDED_BY(conn_mu_);
  std::atomic<std::size_t> active_readers_{0};

  es::Mutex pending_mu_;
  std::map<std::int64_t, PendingDecide> pending_ ES_GUARDED_BY(pending_mu_);
  std::atomic<std::int64_t> next_token_{1};

  es::Mutex gate_mu_;
  es::CondVar gate_cv_;
  bool gate_paused_ ES_GUARDED_BY(gate_mu_){false};
  std::size_t in_flight_publishes_ ES_GUARDED_BY(gate_mu_){0};

  mutable es::Mutex ckpt_mu_;
  es::CondVar ckpt_cv_;
  std::uint64_t checkpoints_done_ ES_GUARDED_BY(ckpt_mu_){0};
  std::uint64_t checkpoint_failures_ ES_GUARDED_BY(ckpt_mu_){0};
  std::atomic<bool> checkpoint_requested_{false};

  std::thread accept_thread_;  // lint-ok: raw-thread blocks in poll/accept
  std::thread pump_thread_;    // lint-ok: raw-thread resident consumer loop

  // Held across one pump and its count update; status() takes it so a
  // decide answered inside a pump is never reported as unconsumed.
  mutable es::Mutex pump_mu_;
  std::atomic<std::uint64_t> events_consumed_{0};
  std::atomic<std::uint64_t> decisions_{0};
  std::atomic<std::uint64_t> reloads_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> consumed_since_checkpoint_{0};
  /// Connections with replies queued in the current round (pump thread
  /// only; kept across rounds so its capacity is reused).
  std::vector<std::shared_ptr<Connection>> round_conns_;
};

}  // namespace esharing::serve
