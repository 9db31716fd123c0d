#include "exec/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <latch>
#include <stdexcept>
#include <utility>

#include "obs/registry.h"
#include "obs/scoped_timer.h"

namespace esharing::exec {

namespace {

struct PoolMetrics {
  obs::Gauge& threads;
  obs::Gauge& queue_depth;
  obs::Counter& tasks;
  obs::Counter& steals;
  obs::Counter& parallel_fors;
  obs::Counter& chunks;
  obs::Histogram& parallel_for_seconds;

  static PoolMetrics& get() {
    static PoolMetrics m{
        obs::Registry::global().gauge("exec.pool.threads"),
        obs::Registry::global().gauge("exec.pool.queue_depth"),
        obs::Registry::global().counter("exec.pool.tasks"),
        obs::Registry::global().counter("exec.pool.steals"),
        obs::Registry::global().counter("exec.pool.parallel_fors"),
        obs::Registry::global().counter("exec.pool.chunks"),
        obs::Registry::global().histogram("exec.parallel_for.seconds"),
    };
    return m;
  }
};

/// Set while a thread is executing pool tasks; nested parallel regions on
/// such a thread run inline instead of fanning out again.
thread_local bool tl_on_pool_thread = false;

}  // namespace

bool ThreadPool::on_pool_thread() { return tl_on_pool_thread; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t w = std::max<std::size_t>(num_threads, 1);
  // Resolve the metric handles before spawning anything: this pins the obs
  // registry's construction (and therefore destruction) order relative to
  // the pool, so worker-exit instrumentation can never outlive it.
  PoolMetrics& metrics = PoolMetrics::get();
  if (obs::enabled()) metrics.threads.set(static_cast<double>(w));
  queues_.reserve(w);
  for (std::size_t i = 0; i < w; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(w);
  for (std::size_t i = 0; i < w; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  {
    // Empty critical section pairs with the check-then-wait in
    // worker_loop: a worker between its predicate check and the wait()
    // cannot miss the stop signal.
    const es::LockGuard lock(sleep_mu_);
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (!task) throw std::invalid_argument("ThreadPool::submit: empty task");
  const std::size_t slot =
      static_cast<std::size_t>(rr_.fetch_add(1, std::memory_order_relaxed)) %
      queues_.size();
  {
    const es::LockGuard lock(queues_[slot]->mu);
    queues_[slot]->tasks.push_back(std::move(task));
  }
  const std::size_t depth = queued_.fetch_add(1, std::memory_order_release) + 1;
  if (obs::enabled()) {
    PoolMetrics::get().queue_depth.set(static_cast<double>(depth));
  }
  {
    const es::LockGuard lock(sleep_mu_);
  }
  wake_.notify_one();
}

std::function<void()> ThreadPool::take_task(std::size_t self) {
  {
    Queue& own = *queues_[self];
    const es::LockGuard lock(own.mu);
    if (!own.tasks.empty()) {
      std::function<void()> task = std::move(own.tasks.front());
      own.tasks.pop_front();
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      return task;
    }
  }
  // Steal from the BACK of a sibling's deque (the owner pops the front):
  // oldest submissions migrate to idle workers first.
  for (std::size_t hop = 1; hop < queues_.size(); ++hop) {
    Queue& victim = *queues_[(self + hop) % queues_.size()];
    const es::LockGuard lock(victim.mu);
    if (!victim.tasks.empty()) {
      std::function<void()> task = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      if (obs::enabled()) PoolMetrics::get().steals.add();
      return task;
    }
  }
  return {};
}

void ThreadPool::worker_loop(std::size_t self) {
  tl_on_pool_thread = true;
  while (true) {
    if (std::function<void()> task = take_task(self)) {
      if (obs::enabled()) PoolMetrics::get().tasks.add();
      task();
      continue;
    }
    es::UniqueLock lock(sleep_mu_);
    while (!stop_.load(std::memory_order_acquire) &&
           queued_.load(std::memory_order_acquire) == 0) {
      wake_.wait(lock);
    }
    if (stop_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;  // drained: every pushed task was taken and run
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn,
    std::size_t width) {
  if (n == 0) return;
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t nchunks = (n + g - 1) / g;
  const obs::ScopedTimer timer(PoolMetrics::get().parallel_for_seconds);
  if (obs::enabled()) {
    PoolMetrics::get().parallel_fors.add();
    PoolMetrics::get().chunks.add(nchunks);
  }
  std::size_t lanes = width == 0 ? size() : width;
  lanes = std::min(std::max<std::size_t>(lanes, 1), nchunks);

  if (lanes <= 1 || tl_on_pool_thread) {
    // Sequential (or nested-on-a-worker) path: same chunk boundaries, same
    // per-chunk invocations, ascending order.
    for (std::size_t c = 0; c < nchunks; ++c) {
      const std::size_t b = c * g;
      fn(b, std::min(n, b + g), c);
    }
    return;
  }

  // The region's shared state lives on this frame: the caller returns only
  // after every runner has counted down `done`, and a runner touches
  // nothing after that (its closure holds only the pointer).
  struct State {
    explicit State(std::size_t runners)
        : done(static_cast<std::ptrdiff_t>(runners)) {}

    std::size_t n{0};
    std::size_t g{1};
    std::size_t nchunks{0};
    const std::function<void(std::size_t, std::size_t, std::size_t)>* fn{
        nullptr};
    std::atomic<std::size_t> cursor{0};
    std::latch done;  ///< one count per runner task
    es::Mutex mu;
    std::exception_ptr error ES_GUARDED_BY(mu);

    void run_lane() {
      while (true) {
        const std::size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
        if (c >= nchunks) break;
        const std::size_t b = c * g;
        try {
          (*fn)(b, std::min(n, b + g), c);
        } catch (...) {
          const es::LockGuard lock(mu);
          if (!error) error = std::current_exception();
        }
      }
    }
  };

  // lanes - 1 runners on the pool; the caller is lane 0 and claims chunks
  // from the same cursor, so it always contributes instead of just waiting.
  const std::size_t runners = lanes - 1;
  State state(runners);
  state.n = n;
  state.g = g;
  state.nchunks = nchunks;
  state.fn = &fn;
  for (std::size_t r = 0; r < runners; ++r) {
    submit([s = &state] {
      s->run_lane();
      s->done.count_down();
    });
  }
  state.run_lane();
  state.done.wait();
  const es::LockGuard lock(state.mu);
  if (state.error) std::rethrow_exception(state.error);
}

std::size_t width_from_env_value(const char* value, std::size_t fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  // Digits only: strtoul would happily wrap "-2" into a huge width.
  for (const char* p = value; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return fallback;
  }
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(value, &end, 10);
  if (end == value || *end != '\0' || parsed == 0) return fallback;
  return static_cast<std::size_t>(parsed);
}

namespace {

struct GlobalHolder {
  es::Mutex mu;
  std::shared_ptr<ThreadPool> pool ES_GUARDED_BY(mu);
  std::size_t width ES_GUARDED_BY(mu){0};  ///< 0 = not resolved yet
};

GlobalHolder& holder() {
  static GlobalHolder h;
  return h;
}

std::size_t default_width() {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return width_from_env_value(std::getenv("ESHARING_THREADS"), hw);
}

}  // namespace

std::shared_ptr<ThreadPool> global_pool() {
  GlobalHolder& h = holder();
  const es::LockGuard lock(h.mu);
  if (!h.pool) {
    if (h.width == 0) h.width = default_width();
    h.pool = std::make_shared<ThreadPool>(h.width);
  }
  return h.pool;
}

void set_global_threads(std::size_t n) {
  if (n == 0) {
    throw std::invalid_argument("set_global_threads: width must be >= 1");
  }
  GlobalHolder& h = holder();
  std::shared_ptr<ThreadPool> old;
  {
    const es::LockGuard lock(h.mu);
    old = std::move(h.pool);
    h.width = n;
    h.pool = std::make_shared<ThreadPool>(n);
  }
  // `old` drains and joins here (or when its last in-flight user lets go).
}

std::size_t global_threads() {
  GlobalHolder& h = holder();
  const es::LockGuard lock(h.mu);
  if (h.width == 0) h.width = default_width();
  return h.width;
}

std::size_t resolve_width(std::size_t requested) {
  return requested == 0 ? global_threads() : requested;
}

void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t,
                                           std::size_t)>& fn,
                  std::size_t width) {
  if (n == 0) return;
  global_pool()->parallel_for(n, grain, fn, width);
}

}  // namespace esharing::exec
