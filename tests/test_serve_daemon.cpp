#include "serve/daemon.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/esharing.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/workload.h"

namespace esharing::serve {
namespace {

/// One daemon with its own deterministically bootstrapped system. Every
/// instance built from the same seed has bit-identical tier-one state —
/// the restart tests rely on exactly that.
struct TestDaemon {
  explicit TestDaemon(std::uint64_t seed, ServeConfig cfg = {})
      : system(core::ESharingConfig{}, seed) {
    const auto ks = bootstrap_system(system, seed, 600, 3000.0);
    daemon.emplace(system, ks, cfg);
    daemon->start();
  }

  ServeClient connect() { return ServeClient::connect(daemon->port()); }

  void stop() {
    daemon->request_stop();
    daemon->wait();
  }

  core::ESharing system;
  std::optional<ServeDaemon> daemon;
};

std::vector<stream::Event> trip_ends(std::uint64_t seed, std::size_t count) {
  WorkloadConfig cfg;
  cfg.seed = seed;
  cfg.count = count;
  cfg.area_m = 3000.0;
  cfg.telemetry_every = 0;
  return make_workload(cfg);
}

void wait_for_consumed(ServeClient& client, std::uint64_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (client.status().events_consumed < want) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "daemon never consumed " << want << " events";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Flight-log line minus the per-process fields: idx (restarts with each
/// log file) and ref (internal routing tokens) — what tools/flightq calls
/// the canonical trace.
std::string canonical(std::string line) {
  const auto idx_end = line.find(',');
  if (line.rfind("{\"idx\":", 0) == 0 && idx_end != std::string::npos) {
    line = "{" + line.substr(idx_end + 1);
  }
  const auto ref_pos = line.find(",\"ref\":");
  if (ref_pos != std::string::npos) {
    const auto close = line.find('}', ref_pos);
    if (close != std::string::npos) {
      line = line.substr(0, ref_pos) + line.substr(close);
    }
  }
  return line;
}

std::vector<std::string> canonical_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(canonical(line));
  }
  return lines;
}

void copy_file(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  out << in.rdbuf();
}

/// Restores the obs flag on scope exit (scrape assertions need live
/// metrics; the registration itself is gated on obs::enabled()).
struct ObsEnabledGuard {
  ObsEnabledGuard() { obs::set_enabled(true); }
  ~ObsEnabledGuard() { obs::set_enabled(false); }
};

TEST(ServeDaemon, ControlPlaneRoundTrip) {
  const ObsEnabledGuard obs_guard;
  TestDaemon td(31);
  ServeClient client = td.connect();
  client.ping();

  ServeStatus status = client.status();
  EXPECT_EQ(status.state, DaemonState::kServing);
  EXPECT_EQ(status.events_consumed, 0u);

  // Fire-and-forget ingestion: mixed trip ends + telemetry.
  WorkloadConfig wl;
  wl.seed = 32;
  wl.count = 50;
  wl.area_m = 3000.0;
  wl.telemetry_every = 5;
  const auto events = make_workload(wl);
  EXPECT_EQ(client.publish(events), events.size());
  wait_for_consumed(client, events.size());

  // The scrape endpoint returns the live registry as JSON.
  const std::string json = client.scrape_metrics();
  EXPECT_NE(json.find("\"serve.daemon.requests\""), std::string::npos);
  EXPECT_NE(json.find("\"serve.daemon.published_events\""),
            std::string::npos);

  // Hot reload: the new tunables apply and are counted.
  ServeTunables t;
  t.checkpoint_every_events = 100;
  client.reload_tunables(t);
  EXPECT_EQ(client.status().reloads, 1u);

  // No checkpoint path configured: kCheckpointNow must refuse.
  EXPECT_THROW(client.checkpoint_now(), std::runtime_error);

  client.shutdown();
  td.daemon->wait();
  EXPECT_EQ(td.daemon->state(), DaemonState::kStopped);
}

TEST(ServeDaemon, DecidePathEchoesRefsAndCountsDecisions) {
  TestDaemon td(33);
  ServeClient client = td.connect();
  const auto events = trip_ends(34, 40);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const DecisionReply d = client.decide(events[i]);
    EXPECT_EQ(d.ref, events[i].ref);
    EXPECT_GE(d.connection_cost, 0.0);
  }
  const ServeStatus status = client.status();
  EXPECT_EQ(status.decisions, events.size());
  EXPECT_EQ(status.events_consumed, events.size());
  client.shutdown();
  td.daemon->wait();
}

TEST(ServeDaemon, ShutdownTakesAFinalCheckpointAndRestartRestores) {
  const std::string dir = testing::TempDir();
  const std::string ckpt = dir + "serve_restart_ckpt.bin";
  std::remove(ckpt.c_str());
  const auto events = trip_ends(36, 30);

  ServeConfig cfg;
  cfg.checkpoint_path = ckpt;
  {
    TestDaemon td(35, cfg);
    EXPECT_FALSE(td.daemon->restored().has_value());
    ServeClient client = td.connect();
    for (const auto& e : events) (void)client.decide(e);
    client.shutdown();
    td.daemon->wait();
  }
  {
    TestDaemon td(35, cfg);
    ASSERT_TRUE(td.daemon->restored().has_value());
    EXPECT_EQ(td.daemon->restored()->events_consumed, events.size());
    ServeClient client = td.connect();
    const ServeStatus status = client.status();
    EXPECT_EQ(status.next_seq, events.size());
    client.shutdown();
    td.daemon->wait();
  }
  std::remove(ckpt.c_str());
}

TEST(ServeDaemon, RestartFromMidStreamCheckpointIsBitIdentical) {
  const std::string dir = testing::TempDir();
  const std::string ckpt_live = dir + "serve_bi_live.bin";
  const std::string ckpt_crash = dir + "serve_bi_crash.bin";
  const std::string log_full = dir + "serve_bi_full.jsonl";
  const std::string log_resumed = dir + "serve_bi_resumed.jsonl";
  for (const auto& p : {ckpt_live, ckpt_crash, log_full, log_resumed}) {
    std::remove(p.c_str());
  }

  const std::size_t kTotal = 90;
  const std::size_t kCut = 45;  // "crash" point: last surviving checkpoint
  const auto events = trip_ends(38, kTotal);

  // Uninterrupted run: all events through one daemon, checkpoint taken at
  // the cut so a later process can resume from exactly that state.
  {
    ServeConfig cfg;
    cfg.checkpoint_path = ckpt_live;
    cfg.flight_recorder_path = log_full;
    TestDaemon td(37, cfg);
    ServeClient client = td.connect();
    for (std::size_t i = 0; i < kCut; ++i) (void)client.decide(events[i]);
    client.checkpoint_now();
    copy_file(ckpt_live, ckpt_crash);  // what a crash at the cut leaves
    for (std::size_t i = kCut; i < kTotal; ++i) {
      (void)client.decide(events[i]);
    }
    client.shutdown();
    td.daemon->wait();
  }

  // Restarted process: fresh OS process stand-in (same bootstrap seed),
  // restores the mid-stream checkpoint, replays the suffix.
  {
    ServeConfig cfg;
    cfg.checkpoint_path = ckpt_crash;
    cfg.flight_recorder_path = log_resumed;
    TestDaemon td(37, cfg);
    ASSERT_TRUE(td.daemon->restored().has_value());
    EXPECT_EQ(td.daemon->restored()->events_consumed, kCut);
    ServeClient client = td.connect();
    EXPECT_EQ(client.status().next_seq, kCut);
    for (std::size_t i = kCut; i < kTotal; ++i) {
      (void)client.decide(events[i]);
    }
    client.shutdown();
    td.daemon->wait();
  }

  // restore + replay of the suffix must be bit-identical to the
  // uninterrupted run — the checkpoint contract, held across processes.
  const auto full = canonical_lines(log_full);
  const auto resumed = canonical_lines(log_resumed);
  ASSERT_EQ(full.size(), kTotal);
  ASSERT_EQ(resumed.size(), kTotal - kCut);
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_EQ(resumed[i], full[kCut + i]) << "diverged at suffix line " << i;
  }

  for (const auto& p : {ckpt_live, ckpt_crash, log_full, log_resumed}) {
    std::remove(p.c_str());
  }
}

TEST(ServeDaemon, FlightRecorderWritesOneLinePerDecision) {
  const std::string log = testing::TempDir() + "serve_fl_lines.jsonl";
  std::remove(log.c_str());
  ServeConfig cfg;
  cfg.flight_recorder_path = log;
  TestDaemon td(39, cfg);
  ServeClient client = td.connect();
  const auto events = trip_ends(40, 25);
  for (const auto& e : events) (void)client.decide(e);
  client.shutdown();
  td.daemon->wait();

  std::ifstream in(log);
  ASSERT_TRUE(in.good());
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_NE(line.find("\"event\":\"serve.decision\""), std::string::npos);
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, events.size());
  std::remove(log.c_str());
}

TEST(ServeDaemon, GracefulShutdownDrainsPublishedEvents) {
  TestDaemon td(41);
  ServeClient client = td.connect();
  const auto events = trip_ends(42, 200);
  EXPECT_EQ(client.publish(events), events.size());
  // Stop immediately after publishing: the drain must consume everything
  // already accepted onto the bus before the daemon stops.
  client.shutdown();
  td.daemon->wait();
  EXPECT_EQ(td.daemon->state(), DaemonState::kStopped);
  EXPECT_EQ(td.daemon->status().events_consumed, events.size());
}

/// Runs `body` on its own thread and aborts the process (failing the test
/// instead of hanging ctest) if it has not returned within `limit`.
void with_watchdog(std::chrono::seconds limit, const char* what,
                   const std::function<void()>& body) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread worker([&] {
    body();
    const std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, limit, [&] { return done; })) {
      std::fprintf(stderr, "watchdog: %s did not finish within %llds\n", what,
                   static_cast<long long>(limit.count()));
      std::abort();
    }
  }
  worker.join();
}

TEST(ServeDaemon, CheckpointDrainsAPublisherBlockedOnAFullRing) {
  // One shard with an 8-event ring, a checkpoint due after every consumed
  // event, and one publish far larger than the ring: the publish blocks
  // on the full ring while holding an in-flight count, and the checkpoint
  // that waits out in-flight publishes must keep draining that ring.
  const std::string ckpt = testing::TempDir() + "serve_blocked_publish.bin";
  std::remove(ckpt.c_str());
  ServeConfig cfg;
  cfg.checkpoint_path = ckpt;
  cfg.pipeline.bus.shard_count = 1;
  cfg.pipeline.bus.queue_capacity = 8;
  cfg.pipeline.bus.max_batch = 8;
  cfg.tunables.checkpoint_every_events = 1;
  const auto events = trip_ends(44, 2000);

  with_watchdog(std::chrono::seconds(60), "checkpoint vs blocked publish",
                [&] {
    TestDaemon td(43, cfg);
    ServeClient client = td.connect();
    EXPECT_EQ(client.publish(events), events.size());
    wait_for_consumed(client, events.size());
    // The checkpoint that drained the blocked publish saves once the
    // publish has returned; wait for it before the shutdown checkpoint.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (client.status().checkpoints == 0) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "no checkpoint completed while serving";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    client.shutdown();
    td.daemon->wait();
    EXPECT_EQ(td.daemon->status().events_consumed, events.size());
  });
  std::ifstream written(ckpt, std::ios::binary);
  EXPECT_TRUE(written.good()) << "no checkpoint at " << ckpt;
  std::remove(ckpt.c_str());
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

TEST(ServeDaemon, IdleDaemonSleeps) {
  // A started daemon with nothing to do must block, not poll: its pump
  // sleeps on the bus until a publish, a stop or a checkpoint request.
  ServeConfig cfg;
  cfg.pipeline.bus.shard_count = 2;
  TestDaemon td(45, cfg);
  {
    ServeClient client = td.connect();
    client.ping();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const double cpu0 = process_cpu_ms();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double idle_ms = process_cpu_ms() - cpu0;
  EXPECT_LT(idle_ms, 10.0) << "an idle daemon burned " << idle_ms
                           << " ms of CPU in 1 s";
  td.stop();
}

TEST(ServeDaemon, ConfigValidationRejectsBadKnobs) {
  ServeConfig bad;
  bad.pipeline.bus.shard_count = 0;
  core::ESharing system(core::ESharingConfig{}, 43);
  const auto ks = bootstrap_system(system, 43, 600, 3000.0);
  EXPECT_THROW(ServeDaemon(system, ks, bad), std::invalid_argument);
}

}  // namespace
}  // namespace esharing::serve
