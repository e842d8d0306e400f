#include "mcore/thread_pool.hpp"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <string>
#include <utility>

namespace esthera::mcore {

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers <= 1) return;  // inline execution
  threads_.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::execute_share(std::size_t worker_index) {
  Job& job = job_;
  for (;;) {
    const std::size_t start = job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (start >= job.n) return;
    const std::size_t stop = std::min(start + job.chunk, job.n);
    for (std::size_t i = start; i < stop; ++i) {
      if (job.failed.load(std::memory_order_relaxed)) return;
      try {
        (*job.fn)(i, worker_index);
      } catch (...) {
        if (!job.failed.exchange(true, std::memory_order_relaxed)) {
          job.error = std::current_exception();
        }
      }
    }
  }
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      cv_start_.wait(lock, [&] { return stop_ || (open_ && epoch_ != seen_epoch); });
      if (stop_) return;
      seen_epoch = epoch_;
      ++active_;
    }
    {
      // Mirror the dispatcher's profiling scope (if any) onto this pool
      // thread for the duration of its share, so hardware/task-clock
      // deltas from worker threads accrue into the same stage accumulator.
      profile::ShareScope profile_share(job_.share);
      execute_share(worker_index);
    }
    // Leaving under the mutex is what lets the dispatcher reuse the slot:
    // it returns only once every joined worker is out.
    std::lock_guard lock(mutex_);
    if (--active_ == 0) cv_done_.notify_all();
  }
}

void ThreadPool::run(std::size_t n,
                     const std::function<void(std::size_t, std::size_t)>& fn,
                     std::size_t chunk) {
  if (n == 0) return;
  if (chunk == 0) chunk = 1;
  jobs_executed_.fetch_add(1, std::memory_order_relaxed);
  indices_executed_.fetch_add(n, std::memory_order_relaxed);
  std::uint64_t depth = max_queue_depth_.load(std::memory_order_relaxed);
  while (n > depth && !max_queue_depth_.compare_exchange_weak(
                          depth, n, std::memory_order_relaxed)) {
  }
  bool dispatched = false;
  if (!threads_.empty()) {
    std::lock_guard lock(mutex_);
    if (!busy_) {
      busy_ = dispatched = open_ = true;
      job_.fn = &fn;
      job_.n = n;
      job_.chunk = chunk;
      job_.share = profile::current_share();
      job_.next.store(0, std::memory_order_relaxed);
      job_.failed.store(false, std::memory_order_relaxed);
      ++epoch_;
    }
  }
  if (!dispatched) {
    // Inline pool, or the slot belongs to another dispatcher.
    for (std::size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  cv_start_.notify_all();
  // The calling thread participates as worker 0; pool threads are 1..N-1.
  execute_share(0);
  std::exception_ptr error;
  {
    std::unique_lock lock(mutex_);
    // Every index is claimed once the caller's share ends: close the slot
    // to late wakers, then wait out the workers still finishing theirs.
    open_ = false;
    cv_done_.wait(lock, [&] { return active_ == 0; });
    error = std::exchange(job_.error, nullptr);
    busy_ = false;
  }
  if (error) std::rethrow_exception(error);
}

namespace {
std::atomic<std::size_t> g_worker_override{0};  // 0 = no override
}  // namespace

void ThreadPool::set_default_worker_count(std::size_t workers) {
  if (workers > static_cast<std::size_t>(kMaxWorkers)) {
    workers = static_cast<std::size_t>(kMaxWorkers);
  }
  g_worker_override.store(workers, std::memory_order_relaxed);
}

std::size_t ThreadPool::default_worker_count() {
  if (const std::size_t forced = g_worker_override.load(std::memory_order_relaxed);
      forced != 0) {
    return forced;
  }
  if (const char* env = std::getenv("ESTHERA_WORKERS")) {
    // Accept only a fully numeric positive value; anything else ("", "abc",
    // "12abc", "0x4", "-3", "0", or an absurdly large number) falls back to
    // hardware_concurrency instead of spawning a garbage-sized pool.
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    // strtol itself skips leading whitespace; require a digit up front so
    // the accepted grammar really is digits-only.
    const bool parsed = env[0] >= '0' && env[0] <= '9' && end != env &&
                        end != nullptr && *end == '\0' && errno == 0;
    if (parsed && v > 0 && v <= kMaxWorkers) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace esthera::mcore
