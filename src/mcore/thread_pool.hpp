// Host-side worker pool used to distribute device work groups (sub-filters)
// over CPU cores, mirroring how a GPU runtime distributes work groups over
// streaming multiprocessors / compute units.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "profile/profile.hpp"

namespace esthera::mcore {

/// A fixed-size pool of worker threads executing bulk-parallel index ranges.
///
/// The pool is oriented at data-parallel dispatch rather than task queues:
/// `run(n, fn)` invokes `fn(i, worker)` for every i in [0, n) exactly once,
/// dynamically load-balanced over the workers with an atomic chunk counter.
/// `worker` is the index of the executing worker in [0, worker_count());
/// see worker_count() for when it may serve as a scratch-slot key.
///
/// A worker count of 0 or 1 executes inline on the calling thread, which
/// keeps single-core runs free of synchronization overhead. A dispatch
/// allocates nothing: the pool reuses one job slot. A run() that finds the
/// slot taken -- a second thread dispatching concurrently, or a nested
/// run() from inside `fn` -- executes its indices inline on the calling
/// thread instead of waiting.
class ThreadPool {
 public:
  /// Creates a pool with `workers` threads (0 and 1 both mean "inline").
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of logical workers, including the calling thread, which
  /// participates in every run() as worker 0. Pool threads are workers
  /// 1..worker_count()-1. Within one dispatch the indices passed to `fn`
  /// are unique per thread, but not across dispatches: a run() that
  /// executes inline -- a second thread dispatching concurrently, or a
  /// nested run() from inside `fn` -- reports worker 0 for all its indices
  /// while the dispatch that owns the slot also has a worker 0. A worker
  /// index is therefore a safe scratch-slot key only when no other run()
  /// can be in flight on the pool; otherwise borrow scratch from a
  /// mutex-guarded free list (core::WorkspacePool does).
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return threads_.size() + 1;
  }

  /// Runs `fn(index, worker)` for each index in [0, n). Blocks until all
  /// indices completed. `chunk` indices are claimed at a time; larger chunks
  /// lower scheduling overhead, smaller chunks balance irregular work.
  ///
  /// If `fn` throws, on any thread, the first exception is captured and
  /// `fn` is not called for the indices not yet started, including the rest
  /// of the throwing index's chunk. run() rethrows that exception on the
  /// caller only once every worker has left the job, so no thread still
  /// touches `fn` afterwards and the pool stays usable.
  void run(std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
           std::size_t chunk = 1);

  /// The fixed chunk of a launch over `n` independent work groups:
  /// max(1, n / (8 * worker_count())). Each claim hands a worker a run of
  /// neighbouring groups, so the packed per-group arrays are written by one
  /// worker except at chunk edges (paper Sec. VI: a work group's memory is
  /// touched by one SM), while about eight chunks per worker still balance
  /// the tail. Device launches and the PRNG fill use it; irregular work
  /// (serve batches) keeps chunk 1.
  [[nodiscard]] std::size_t group_chunk(std::size_t n) const noexcept {
    return std::max<std::size_t>(1, n / (8 * worker_count()));
  }

  /// Dispatch statistics for telemetry: how many bulk jobs ran, the total
  /// index count they covered, and the queue-depth high-water mark (the
  /// largest single job's index count -- the pool runs one job at a time,
  /// so this is the deepest the group queue ever was at dispatch).
  struct Stats {
    std::uint64_t jobs_executed = 0;
    std::uint64_t indices_executed = 0;
    std::uint64_t max_queue_depth = 0;
  };

  /// Snapshot of the lifetime dispatch statistics (relaxed reads; exact
  /// between run() calls).
  [[nodiscard]] Stats stats() const noexcept {
    return {jobs_executed_.load(std::memory_order_relaxed),
            indices_executed_.load(std::memory_order_relaxed),
            max_queue_depth_.load(std::memory_order_relaxed)};
  }

  /// Upper bound accepted from ESTHERA_WORKERS; larger requests (or any
  /// malformed value) fall back to hardware_concurrency().
  static constexpr long kMaxWorkers = 1024;

  /// Convenience: pick a worker count, in precedence order: the
  /// set_default_worker_count() process-wide override, the ESTHERA_WORKERS
  /// environment variable (only a fully numeric value in [1, kMaxWorkers]
  /// is honoured), then std::thread::hardware_concurrency().
  static std::size_t default_worker_count();

  /// Process-wide override for default_worker_count(), taking precedence
  /// over ESTHERA_WORKERS -- this is what the bench harness's --workers
  /// flag sets. Accepts [1, kMaxWorkers]; 0 clears the override.
  static void set_default_worker_count(std::size_t workers);

 private:
  // The one reusable job slot. The dispatcher writes the fields under
  // mutex_ while no worker is inside the slot (active_ == 0 and the slot
  // closed); workers read them only after joining under mutex_.
  struct Job {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t chunk = 1;
    // The dispatching thread's active profiling scope, captured at run();
    // pool threads mirror it so their cycles land in the same stage
    // accumulator as the host side. The host thread itself (worker 0 /
    // inline) is already covered by its own active Scope.
    profile::ThreadShare share;
    std::atomic<std::size_t> next{0};
    // Set by the first throwing index; later indices are skipped. `error`
    // is written only by the thread that set `failed`; the dispatcher reads
    // it under mutex_ once every joined worker has left.
    std::atomic<bool> failed{false};
    std::exception_ptr error;
  };

  void worker_loop(std::size_t worker_index);
  void execute_share(std::size_t worker_index);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  Job job_;
  bool busy_ = false;         // a dispatcher owns job_; guarded by mutex_
  bool open_ = false;         // workers may join job_; guarded by mutex_
  std::size_t active_ = 0;    // workers inside job_; guarded by mutex_
  std::uint64_t epoch_ = 0;   // bumped per job; guarded by mutex_
  bool stop_ = false;         // guarded by mutex_
  std::atomic<std::uint64_t> jobs_executed_{0};
  std::atomic<std::uint64_t> indices_executed_{0};
  std::atomic<std::uint64_t> max_queue_depth_{0};
};

/// Invokes `fn(i)` for every i in [begin, end) using `pool`.
template <typename Fn>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end, Fn&& fn,
                  std::size_t chunk = 1) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  pool.run(
      n, [&](std::size_t i, std::size_t /*worker*/) { fn(begin + i); }, chunk);
}

}  // namespace esthera::mcore
