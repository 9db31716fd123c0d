/// Heap allocations of the one-event decide path.
///
/// The serving daemon publishes one event per call and answers it in a
/// one-event pump round. This test counts every global operator new in the
/// process while N such rounds run (Pipeline::publish + pump_decisions),
/// and while the same N trip ends go straight to ESharing::handle_request
/// on an identically bootstrapped system. The round may not allocate more
/// than Algorithm 2 does on its own: the bus, the lane and merge stages,
/// the consume stage with its cadenced per-shard KS regime checks, and the
/// decision hand-back allocate nothing of their own in steady state. Its
/// own executable, because replacing the global operator new would count
/// every other test's allocations too.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/esharing.h"
#include "exec/thread_pool.h"
#include "serve/workload.h"
#include "stream/pipeline.h"

namespace {

/// Allocations made by this thread. Per thread, because pool workers
/// allocate on their own schedule; a one-event round runs inline on the
/// calling thread, and a fan-out's closures are allocated there too.
thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++t_allocations;
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace esharing::stream {
namespace {

constexpr std::uint64_t kSeed = 47;
constexpr double kAreaM = 3000.0;
/// Steady state: the warm-up has visited every 100 m demand cell of the
/// area (so the per-cell maps have stopped growing) and has run the
/// one-hour sliding window through several full turns (so its buffer has
/// stopped growing). Requests arrive 2 s apart.
constexpr std::size_t kWarmup = 12000;
constexpr std::size_t kMeasured = 4000;

std::vector<Event> decide_requests() {
  serve::WorkloadConfig cfg;
  cfg.seed = kSeed + 1;
  cfg.count = kWarmup + kMeasured;
  cfg.area_m = kAreaM;
  return serve::make_workload(cfg);
}

/// Allocations made by ESharing::handle_request alone over the measured
/// requests, after the same warm-up.
std::uint64_t handle_request_allocations(const std::vector<Event>& requests) {
  core::ESharing system(core::ESharingConfig{}, kSeed);
  (void)serve::bootstrap_system(system, kSeed, 600, kAreaM);
  for (std::size_t i = 0; i < kWarmup; ++i) {
    (void)system.handle_request(requests[i].where, requests[i].weight);
  }
  const std::uint64_t before = t_allocations;
  for (std::size_t i = kWarmup; i < requests.size(); ++i) {
    (void)system.handle_request(requests[i].where, requests[i].weight);
  }
  return t_allocations - before;
}

/// Regime checks run so far, summed over the pipeline's shards.
std::uint64_t regime_checks(const Pipeline& pipeline) {
  const OnlinePlacerDriver& driver = pipeline.placer_driver();
  std::uint64_t checks = 0;
  for (std::size_t s = 0; s < driver.shard_count(); ++s) {
    checks += driver.shard_regime(s).checks;
  }
  return checks;
}

/// Allocations made by one-event publish + pump_decisions rounds over the
/// measured requests, after the same warm-up. Also checks that every round
/// answers its one request, and that the stream-side KS regime check (at
/// its default cadence) ran during the measured rounds.
std::uint64_t pipeline_allocations(const std::vector<Event>& requests,
                                   std::size_t lanes) {
  core::ESharing system(core::ESharingConfig{}, kSeed);
  auto reference = serve::bootstrap_system(system, kSeed, 600, kAreaM);
  PipelineConfig cfg;
  cfg.bus.shard_count = 2;
  cfg.lanes = lanes;
  Pipeline pipeline(system, std::move(reference), cfg);
  std::size_t answered = 0;
  const Pipeline::DecisionCallback on_decision =
      [&answered](const Event&, const solver::OnlineDecision&) {
        ++answered;
      };
  const auto round = [&](const Event& e) {
    pipeline.publish(e);
    EXPECT_EQ(pipeline.pump_decisions(on_decision), 1u);
  };
  for (std::size_t i = 0; i < kWarmup; ++i) round(requests[i]);
  const std::uint64_t checks_before = regime_checks(pipeline);
  const std::uint64_t before = t_allocations;
  for (std::size_t i = kWarmup; i < requests.size(); ++i) round(requests[i]);
  const std::uint64_t made = t_allocations - before;
  EXPECT_EQ(answered, requests.size());
  EXPECT_GT(regime_checks(pipeline), checks_before)
      << "no KS regime check ran during the measured rounds";
  return made;
}

void expect_no_allocations_of_its_own(std::size_t lanes) {
  const auto requests = decide_requests();
  const std::uint64_t alone = handle_request_allocations(requests);
  const std::uint64_t piped = pipeline_allocations(requests, lanes);
  EXPECT_LE(piped, alone) << kMeasured << " one-event rounds at lanes "
                          << lanes << " made " << piped
                          << " allocations; handle_request alone made "
                          << alone;
}

TEST(StreamAlloc, OneEventRoundAllocatesNothingOfItsOwnAtOneLane) {
  expect_no_allocations_of_its_own(1);
}

TEST(StreamAlloc, OneEventRoundAllocatesNothingOfItsOwnAtFourLanes) {
  expect_no_allocations_of_its_own(4);
}

TEST(StreamAlloc, HandleRequestAllocationsRepeatAtPoolWidthFour) {
  // Algorithm 2's KS check runs on the calling thread, so identically
  // seeded systems allocate identically whatever the pool's steal timing.
  exec::set_global_threads(4);
  const auto requests = decide_requests();
  const std::uint64_t first = handle_request_allocations(requests);
  const std::uint64_t second = handle_request_allocations(requests);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace esharing::stream
