// The many-core "device" the filters run on. On the paper's platforms this
// is a CUDA/OpenCL GPU (or the OpenCL CPU runtime); here it is an emulator:
// a kernel is launched over `num_groups` work groups, each group executes
// its body to completion (work-group-internal algorithms run their GPU
// lock-step schedules, see sortnet/), and groups are distributed over the
// host worker pool exactly as a GPU runtime distributes work groups over
// SMs/CUs. Kernel boundaries are global barriers, as on the real device.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "mcore/thread_pool.hpp"

namespace esthera::device {

/// Emulated compute device.
class Device {
 public:
  /// `workers`: number of host threads emulating SMs/CUs (0 = auto).
  explicit Device(std::size_t workers = 0)
      : pool_(workers == 0 ? mcore::ThreadPool::default_worker_count() : workers) {}

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return pool_.worker_count();
  }

  [[nodiscard]] mcore::ThreadPool& pool() noexcept { return pool_; }

  /// Launches `kernel(group_id)` for every group in [0, num_groups).
  /// Returns after all groups completed (kernel-boundary barrier). Workers
  /// claim contiguous runs of pool().group_chunk(num_groups) groups, so a
  /// group's slice of a packed per-group array, and the cache lines at its
  /// edges, are written by one worker, as a GPU work group's memory is
  /// touched by one SM. Group kernels are independent, so the schedule
  /// changes no result bit.
  template <typename Kernel>
  void launch(std::size_t num_groups, Kernel&& kernel) {
    launches_.fetch_add(1, std::memory_order_relaxed);
    groups_launched_.fetch_add(num_groups, std::memory_order_relaxed);
    pool_.run(
        num_groups, [&](std::size_t g, std::size_t /*worker*/) { kernel(g); },
        pool_.group_chunk(num_groups));
  }

  /// Lifetime kernel-launch count (telemetry; relaxed, exact only between
  /// launches). Several filters may share one device.
  [[nodiscard]] std::uint64_t launch_count() const noexcept {
    return launches_.load(std::memory_order_relaxed);
  }

  /// Lifetime sum of launched work groups across all launches.
  [[nodiscard]] std::uint64_t groups_launched() const noexcept {
    return groups_launched_.load(std::memory_order_relaxed);
  }

 private:
  mcore::ThreadPool pool_;
  std::atomic<std::uint64_t> launches_{0};
  std::atomic<std::uint64_t> groups_launched_{0};
};

}  // namespace esthera::device
