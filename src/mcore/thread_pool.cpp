#include "mcore/thread_pool.hpp"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <string>

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

void ThreadPool::execute_share(Job& job, std::size_t worker_index) {
  for (;;) {
    const std::size_t start = job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (start >= job.n) break;
    const std::size_t stop = std::min(start + job.chunk, job.n);
    for (std::size_t i = start; i < stop; ++i) {
      if (job.failed.load(std::memory_order_relaxed)) break;
      try {
        (*job.fn)(i, worker_index);
      } catch (...) {
        if (!job.failed.exchange(true, std::memory_order_relaxed)) {
          job.error = std::current_exception();
        }
      }
    }
    if (job.done.fetch_add(stop - start, std::memory_order_acq_rel) + (stop - start) ==
        job.n) {
      // Synchronize with the waiter before notifying: without taking the
      // mutex here, the caller can evaluate its wait predicate (done < n),
      // lose the CPU before sleeping, miss this notify, and block forever
      // on a job that is already complete.
      { std::lock_guard lock(mutex_); }
      cv_done_.notify_all();
    }
  }
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock lock(mutex_);
      cv_start_.wait(lock, [&] { return stop_ || (job_ != nullptr && epoch_ != seen_epoch); });
      if (stop_) return;
      seen_epoch = epoch_;
      job = job_;
    }
    // Mirror the dispatcher's profiling scope (if any) onto this pool
    // thread for the duration of its share, so hardware/task-clock deltas
    // from worker threads accrue into the same stage accumulator.
    profile::ShareScope profile_share(job->share);
    execute_share(*job, worker_index);
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
  if (threads_.empty()) {
    for (std::size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  job->chunk = chunk;
  job->share = profile::current_share();
  {
    std::lock_guard lock(mutex_);
    job_ = job;
    ++epoch_;
  }
  cv_start_.notify_all();
  // The calling thread participates as worker 0; pool threads are 1..N-1.
  execute_share(*job, 0);
  {
    std::unique_lock lock(mutex_);
    cv_done_.wait(lock, [&] { return job->done.load(std::memory_order_acquire) == n; });
    job_.reset();
  }
  if (job->error) std::rethrow_exception(job->error);
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
