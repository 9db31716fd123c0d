#pragma once

/// \file thread_pool.h
/// The shared execution runtime: one persistent, process-wide work-stealing
/// thread pool behind every parallel region in the repo. Before this layer
/// each threaded solver call spawned and joined fresh std::threads
/// (solver/parallel.h), paying thread start-up latency on every inner-loop
/// iteration; the pool starts its workers once (lazily, on first use) and
/// reuses them for the lifetime of the process. Raw std::thread is banned
/// outside src/exec/ (tools/lint rule `raw-thread`) so this file is the
/// single place threads are born.
///
/// Determinism contract (DESIGN.md "Execution runtime"): work is split into
/// contiguous chunks whose boundaries depend ONLY on (n, grain) — never on
/// the pool width, the number of runners, or which worker executes which
/// chunk. parallel_for writes are per-index/per-chunk, and parallel_reduce
/// combines per-chunk results in ascending chunk order on the calling
/// thread. Together these make every result bit-identical for every thread
/// count, which is what lets JmsOptions::num_threads promise "outputs are
/// identical for any value" on top of a dynamic scheduler.
///
/// Scheduling: each worker owns a deque guarded by its own es::Mutex;
/// submitted tasks are distributed round-robin, owners pop from the front,
/// idle workers steal from the back of a sibling's deque. Inside a
/// parallel region the chunks themselves are claimed from a shared atomic
/// cursor (self-scheduling), so load imbalance between chunks never idles
/// a lane. The calling thread always participates as lane 0.
///
/// Nesting: a parallel_for/parallel_reduce issued from inside a pool task
/// runs entirely inline on that worker (documented serialization rule) —
/// fan-out from a fan-out cannot deadlock the pool.
///
/// Width resolution: the global pool is sized from ESHARING_THREADS (env)
/// when set to a positive integer, else std::thread::hardware_concurrency.
/// set_global_threads(n) replaces the pool programmatically; live callers
/// finish on the old pool (shared ownership), new calls land on the new
/// one.

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>  // lint-ok: raw-thread src/exec owns all thread spawning
#include <vector>

#include "core/sync.h"
#include "core/thread_annotations.h"

namespace esharing::exec {

class ThreadPool {
 public:
  /// Start `num_threads` persistent workers (at least one). Prefer the
  /// process-wide pool (global()/parallel_for below) outside tests.
  explicit ThreadPool(std::size_t num_threads);

  /// Drains every queued task (runs it), then joins the workers. Safe to
  /// destroy with fire-and-forget submissions still outstanding.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (the pool's width).
  [[nodiscard]] std::size_t size() const { return queues_.size(); }

  /// Fire-and-forget task. Round-robined onto a worker deque; idle workers
  /// steal it if its owner is busy. Exceptions escaping `task` terminate
  /// (wrap them yourself) — parallel_for/parallel_reduce DO capture and
  /// rethrow, use those for fallible work.
  void submit(std::function<void()> task);

  /// Invoke fn(begin, end, chunk) over contiguous chunks covering [0, n).
  /// Chunk boundaries are ceil-division by `grain` (>= 1) and depend only
  /// on (n, grain): chunk c covers [c*grain, min(n, (c+1)*grain)). Chunks
  /// are claimed dynamically by up to `width` lanes (0 = pool width; the
  /// caller is always one lane), so fn must only write per-index or
  /// per-chunk state. Runs inline when n fits one chunk, width <= 1, or
  /// the caller is already a pool worker. The first exception thrown by fn
  /// is rethrown on the caller after all lanes finish.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t,
                                             std::size_t)>& fn,
                    std::size_t width = 0);

  /// Deterministic chunked reduction: map(begin, end) produces one T per
  /// chunk (chunking exactly as parallel_for), and the caller folds
  /// combine(acc, chunk_result) in ASCENDING CHUNK ORDER starting from
  /// `init`. The fold order is fixed by chunk index — never by completion
  /// order — so the result is bit-identical for every width, including
  /// non-associative floating-point combines.
  template <typename T, typename Map, typename Combine>
  T parallel_reduce(std::size_t n, std::size_t grain, T init, const Map& map,
                    const Combine& combine, std::size_t width = 0) {
    if (n == 0) return init;
    const std::size_t g = grain == 0 ? 1 : grain;
    const std::size_t nchunks = (n + g - 1) / g;
    std::vector<T> results(nchunks);
    parallel_for(
        n, g,
        [&](std::size_t b, std::size_t e, std::size_t c) {
          results[c] = map(b, e);
        },
        width);
    T acc = std::move(init);
    for (std::size_t c = 0; c < nchunks; ++c) {
      acc = combine(std::move(acc), std::move(results[c]));
    }
    return acc;
  }

  /// True on a thread currently executing a task of any ThreadPool (used
  /// to serialize nested parallel regions).
  [[nodiscard]] static bool on_pool_thread();

 private:
  struct Queue {
    es::Mutex mu;
    std::deque<std::function<void()>> tasks ES_GUARDED_BY(mu);
  };

  /// Pop from own front / steal from sibling backs. Returns an empty
  /// function when every deque is empty.
  std::function<void()> take_task(std::size_t self);
  void worker_loop(std::size_t self);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;  // lint-ok: raw-thread pool-owned workers
  mutable es::Mutex sleep_mu_;
  es::CondVar wake_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> queued_{0};  ///< tasks pushed, not yet taken
  std::atomic<std::uint64_t> rr_{0};    ///< round-robin submission cursor
};

/// The lazily-started process-wide pool. Width: ESHARING_THREADS when set
/// to a positive integer, else hardware concurrency (min 1).
[[nodiscard]] std::shared_ptr<ThreadPool> global_pool();

/// Replace the global pool with one of `n` workers (n >= 1). In-flight
/// regions finish on the pool they started on; subsequent calls use the
/// new width. Mainly for benches and width-sweep tests.
void set_global_threads(std::size_t n);

/// The width the global pool has (or would lazily start with).
[[nodiscard]] std::size_t global_threads();

/// Resolve an effective lane count: 0 means "global pool width".
[[nodiscard]] std::size_t resolve_width(std::size_t requested);

/// ESHARING_THREADS parsing, exposed for unit tests: positive integers
/// win; empty/garbage/non-positive values fall back to `fallback`.
[[nodiscard]] std::size_t width_from_env_value(const char* value,
                                               std::size_t fallback);

/// parallel_for on the global pool. See ThreadPool::parallel_for.
void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t,
                                           std::size_t)>& fn,
                  std::size_t width = 0);

/// parallel_reduce on the global pool. See ThreadPool::parallel_reduce.
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t n, std::size_t grain, T init, const Map& map,
                  const Combine& combine, std::size_t width = 0) {
  return global_pool()->parallel_reduce(n, grain, std::move(init), map,
                                        combine, width);
}

}  // namespace esharing::exec
