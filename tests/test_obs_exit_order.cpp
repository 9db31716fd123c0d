// Exit-order regression for the global obs registry. Exec pool workers
// are joined while static objects are destroyed, and each worker flushes
// its thread_local CounterShards into the registry's counters as it exits.
// This program builds the pool before the registry, so a registry that
// was destroyed like an ordinary function-local static would be gone
// before the workers flush. It must exit cleanly; under ASan (the
// ESHARING_SANITIZE build) the old order reported a heap-use-after-free.
// Its own executable, because the order of static construction in the
// shared test binary depends on which tests ran first.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <thread>

#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/registry.h"

int main() {
  namespace exec = esharing::exec;
  namespace obs = esharing::obs;
  exec::set_global_threads(4);
  (void)exec::global_pool();  // the pool's static first, the registry second
  obs::set_enabled(true);

  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> worker_ran{false};
  for (int attempt = 0; attempt < 50 && !worker_ran.load(); ++attempt) {
    exec::parallel_for(
        16, 1,
        [&](std::size_t begin, std::size_t end, std::size_t) {
          thread_local obs::CounterShard shard(
              obs::Registry::global().counter("test.exit_order.chunks"));
          shard.add(end - begin);  // below the batch: flushed at thread exit
          if (std::this_thread::get_id() != caller) worker_ran.store(true);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        },
        0);
  }
  if (!worker_ran.load()) {
    std::fprintf(stderr, "no chunk ran on a pool worker\n");
    return 1;
  }
  return 0;
}
