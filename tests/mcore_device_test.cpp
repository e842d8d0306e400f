// Host-runtime tests: the thread pool's exactly-once index guarantee under
// varying worker counts and chunk sizes (the fixed group chunk included),
// its reusable job slot, and the device emulator's launch semantics
// (kernel-boundary barriers, group coverage).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "device/device.hpp"
#include "device/platform.hpp"
#include "mcore/thread_pool.hpp"

namespace {

using namespace esthera;

class PoolParamTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(PoolParamTest, EveryIndexExactlyOnce) {
  const auto [workers, chunk] = GetParam();
  mcore::ThreadPool pool(workers);
  const std::size_t n = 10007;  // prime, not a multiple of any chunk
  std::vector<std::atomic<int>> hits(n);
  pool.run(
      n, [&](std::size_t i, std::size_t) { hits[i].fetch_add(1); }, chunk);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkersAndChunks, PoolParamTest,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 2, 4, 7),
                       ::testing::Values<std::size_t>(1, 3, 64, 100000)));

TEST(ThreadPool, WorkerIndicesWithinRange) {
  mcore::ThreadPool pool(4);
  std::atomic<bool> ok{true};
  pool.run(5000, [&](std::size_t, std::size_t worker) {
    if (worker >= pool.worker_count()) ok = false;
  });
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(pool.worker_count(), 4u);
}

TEST(ThreadPool, InlineModeHasOneWorker) {
  mcore::ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 1u);
  std::size_t count = 0;
  pool.run(10, [&](std::size_t, std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    ++count;  // safe: inline execution is sequential
  });
  EXPECT_EQ(count, 10u);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  mcore::ThreadPool pool(2);
  bool touched = false;
  pool.run(0, [&](std::size_t, std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, BackToBackJobsDoNotInterfere) {
  mcore::ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    const std::size_t n = 100 + static_cast<std::size_t>(round);
    pool.run(n, [&](std::size_t i, std::size_t) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
  }
}

TEST(ThreadPool, ParallelForHelper) {
  mcore::ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(100);
  mcore::parallel_for(pool, 10, 90, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 10 && i < 90) ? 1 : 0);
  }
}

TEST(ThreadPool, DefaultWorkerCountHonorsEnv) {
  setenv("ESTHERA_WORKERS", "3", 1);
  EXPECT_EQ(mcore::ThreadPool::default_worker_count(), 3u);
  unsetenv("ESTHERA_WORKERS");
  EXPECT_GE(mcore::ThreadPool::default_worker_count(), 1u);
}

TEST(ThreadPool, DefaultWorkerCountRejectsGarbageEnv) {
  const std::size_t fallback = [] {
    unsetenv("ESTHERA_WORKERS");
    return mcore::ThreadPool::default_worker_count();
  }();
  // Malformed, non-positive, partially numeric, or absurd values must all
  // fall back to the hardware default instead of being honoured.
  for (const char* bad :
       {"", "abc", "0", "-3", "12abc", "0x4", "3.5", " 4", "99999999999999999999"}) {
    setenv("ESTHERA_WORKERS", bad, 1);
    EXPECT_EQ(mcore::ThreadPool::default_worker_count(), fallback)
        << "ESTHERA_WORKERS=\"" << bad << '"';
  }
  // The cap itself is still accepted; one past it is not.
  setenv("ESTHERA_WORKERS", "1024", 1);
  EXPECT_EQ(mcore::ThreadPool::default_worker_count(), 1024u);
  setenv("ESTHERA_WORKERS", "1025", 1);
  EXPECT_EQ(mcore::ThreadPool::default_worker_count(), fallback);
  unsetenv("ESTHERA_WORKERS");
}

TEST(ThreadPool, SetDefaultWorkerCountOverridesEnv) {
  setenv("ESTHERA_WORKERS", "3", 1);
  mcore::ThreadPool::set_default_worker_count(2);
  EXPECT_EQ(mcore::ThreadPool::default_worker_count(), 2u);
  // Requests above the cap clamp instead of spawning a garbage-sized pool.
  mcore::ThreadPool::set_default_worker_count(
      static_cast<std::size_t>(mcore::ThreadPool::kMaxWorkers) + 7);
  EXPECT_EQ(mcore::ThreadPool::default_worker_count(),
            static_cast<std::size_t>(mcore::ThreadPool::kMaxWorkers));
  // Clearing the override restores the environment-variable path.
  mcore::ThreadPool::set_default_worker_count(0);
  EXPECT_EQ(mcore::ThreadPool::default_worker_count(), 3u);
  unsetenv("ESTHERA_WORKERS");
}

TEST(ThreadPool, RepeatedSmallRunsDoNotLoseCompletionSignal) {
  // Regression hammer for the lost-wakeup race on cv_done_: a worker that
  // finished the last index used to notify without holding the mutex, so
  // the caller could miss the signal and block forever. Many short jobs
  // with more workers than work maximize the window. Run under TSan to
  // check the synchronization, and under the ~wall-clock ctest timeout to
  // catch a deadlock regression.
  mcore::ThreadPool pool(8);
  std::atomic<int> total{0};
  for (int round = 0; round < 2000; ++round) {
    pool.run(3, [&](std::size_t, std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 6000);
}

TEST(ThreadPool, ConcurrentPoolsDoNotInterfere) {
  // Two pools hammered from two threads: all state must be per-pool.
  const auto hammer = [](mcore::ThreadPool& pool, std::atomic<long>& sum) {
    for (int round = 0; round < 500; ++round) {
      pool.run(16, [&](std::size_t i, std::size_t) {
        sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
      });
    }
  };
  mcore::ThreadPool a(4), b(4);
  std::atomic<long> sa{0}, sb{0};
  std::thread ta([&] { hammer(a, sa); });
  std::thread tb([&] { hammer(b, sb); });
  ta.join();
  tb.join();
  EXPECT_EQ(sa.load(), 500L * 120L);
  EXPECT_EQ(sb.load(), 500L * 120L);
}

TEST(ThreadPool, ThrowingIndexRethrowsOnCallerAndPoolStaysUsable) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    mcore::ThreadPool pool(workers);
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    std::atomic<int> calls{0};
    // The fn object dies when this scope ends: after run() returns no
    // thread may still call it.
    {
      const std::function<void(std::size_t, std::size_t)> fn =
          [&](std::size_t i, std::size_t) {
            calls.fetch_add(1, std::memory_order_relaxed);
            hits[i].fetch_add(1, std::memory_order_relaxed);
            if (i == 37) throw std::runtime_error("index 37");
          };
      try {
        pool.run(n, fn);
        ADD_FAILURE() << "run() did not rethrow";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "index 37");
      }
    }
    const int after_run = calls.load();
    EXPECT_EQ(hits[37].load(), 1);
    EXPECT_LE(after_run, static_cast<int>(n));
    for (std::size_t i = 0; i < n; ++i) EXPECT_LE(hits[i].load(), 1) << i;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(calls.load(), after_run) << "fn called after run() returned";

    // Every index throwing: the caller's own throw and the workers' are
    // all captured; exactly one comes back.
    EXPECT_THROW(pool.run(64, [](std::size_t, std::size_t) {
      throw std::logic_error("every index");
    }),
                 std::logic_error);

    // Still usable: the next job runs every index exactly once.
    std::vector<std::atomic<int>> again(n);
    pool.run(n, [&](std::size_t i, std::size_t) { again[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(again[i].load(), 1) << i;
  }
}

TEST(ThreadPool, GroupChunkRule) {
  // max(1, n / (8 * workers)): about eight contiguous chunks per worker.
  EXPECT_EQ(mcore::ThreadPool(4).group_chunk(1024), 32u);
  EXPECT_EQ(mcore::ThreadPool(4).group_chunk(128), 4u);
  EXPECT_EQ(mcore::ThreadPool(4).group_chunk(16), 1u);
  EXPECT_EQ(mcore::ThreadPool(4).group_chunk(0), 1u);
  EXPECT_EQ(mcore::ThreadPool(1).group_chunk(1024), 128u);
}

class ThreadPoolGroupChunk
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(ThreadPoolGroupChunk, RunAndLaunchCoverEveryIndexOnce) {
  const auto [n, workers] = GetParam();
  mcore::ThreadPool pool(workers);
  std::vector<std::atomic<int>> hits(n);
  std::atomic<std::size_t> calls{0};
  pool.run(
      n,
      [&](std::size_t i, std::size_t) {
        calls.fetch_add(1, std::memory_order_relaxed);
        hits[i].fetch_add(1, std::memory_order_relaxed);
      },
      pool.group_chunk(n));
  EXPECT_EQ(calls.load(), n);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << "index " << i;

  device::Device dev(workers);
  std::vector<std::atomic<int>> groups(n);
  dev.launch(n, [&](std::size_t g) { groups[g].fetch_add(1, std::memory_order_relaxed); });
  for (std::size_t g = 0; g < n; ++g) ASSERT_EQ(groups[g].load(), 1) << "group " << g;
  EXPECT_EQ(dev.groups_launched(), n);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndWorkers, ThreadPoolGroupChunk,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 5, 31, 32, 33, 1024),
                       ::testing::Values<std::size_t>(1, 2, 3, 4, 8)));

TEST(ThreadPool, ThrowMidChunkRethrowsAndPoolStaysUsable) {
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    mcore::ThreadPool pool(workers);
    const std::size_t n = 1024;
    const std::size_t chunk = pool.group_chunk(n);
    ASSERT_GT(chunk, 2u);
    // The thrower sits in the middle of the second chunk.
    const std::size_t bad = chunk + chunk / 2;
    std::vector<std::atomic<int>> hits(n);
    try {
      pool.run(
          n,
          [&](std::size_t i, std::size_t) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
            if (i == bad) throw std::runtime_error("mid-chunk");
          },
          chunk);
      ADD_FAILURE() << "run() did not rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "mid-chunk");
    }
    EXPECT_EQ(hits[bad].load(), 1);
    for (std::size_t i = 0; i < n; ++i) ASSERT_LE(hits[i].load(), 1) << i;
    // One thread runs a chunk in order and stops at the throw: the rest of
    // the thrower's chunk never starts.
    for (std::size_t i = bad + 1; i < 2 * chunk; ++i) EXPECT_EQ(hits[i].load(), 0) << i;

    std::vector<std::atomic<int>> again(n);
    pool.run(
        n, [&](std::size_t i, std::size_t) { again[i].fetch_add(1); }, chunk);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(again[i].load(), 1) << i;
  }
}

TEST(ThreadPool, BackToBackRunsOnReusedJobSlotStayIsolated) {
  // Every run() reuses the pool's one job slot. A worker still inside job k
  // when job k+1 is set up would write into a vector that is already gone
  // (plain ints, so TSan and ASan both see it) or run the wrong `fn`.
  mcore::ThreadPool pool(4);
  for (int round = 0; round < 2000; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(round % 13);
    const std::size_t chunk = 1 + static_cast<std::size_t>(round % 3);
    std::vector<int> slots(n, -1);
    {
      const std::function<void(std::size_t, std::size_t)> fn =
          [&slots, round](std::size_t i, std::size_t) { slots[i] = round; };
      pool.run(n, fn, chunk);
    }
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(slots[i], round) << "round " << round;
  }
}

TEST(ThreadPool, ConcurrentDispatchersEachCompleteTheirJob) {
  // Two threads dispatching on one pool: whichever finds the job slot taken
  // runs its indices inline, so both still see every index exactly once.
  mcore::ThreadPool pool(4);
  const auto hammer = [&pool](std::atomic<long>& sum) {
    for (int round = 0; round < 300; ++round) {
      pool.run(
          64,
          [&](std::size_t i, std::size_t worker) {
            EXPECT_LT(worker, pool.worker_count());
            sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
          },
          pool.group_chunk(64));
    }
  };
  std::atomic<long> sa{0}, sb{0};
  std::thread ta([&] { hammer(sa); });
  std::thread tb([&] { hammer(sb); });
  ta.join();
  tb.join();
  EXPECT_EQ(sa.load(), 300L * 2016L);
  EXPECT_EQ(sb.load(), 300L * 2016L);
}

TEST(ThreadPool, NestedRunExecutesInline) {
  mcore::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(16 * 8);
  pool.run(16, [&](std::size_t outer, std::size_t) {
    pool.run(8, [&](std::size_t inner, std::size_t) {
      hits[outer * 8 + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, InlineRunsReportWorkerZero) {
  // A worker index is unique only within one dispatch: a run() that finds
  // the job slot taken executes inline and reports worker 0 for every
  // index, while the dispatch that owns the slot has a worker 0 of its own.
  mcore::ThreadPool pool(4);
  std::vector<std::size_t> nested(16 * 4, 99);
  pool.run(16, [&](std::size_t outer, std::size_t) {
    pool.run(4, [&](std::size_t inner, std::size_t worker) {
      nested[outer * 4 + inner] = worker;
    });
  });
  for (std::size_t i = 0; i < nested.size(); ++i) EXPECT_EQ(nested[i], 0u) << i;

  // Concurrent: the owner's index 0 holds the slot until the second
  // dispatcher's run() has returned.
  std::promise<void> owner_inside;
  std::promise<void> other_done;
  std::shared_future<void> other_done_f = other_done.get_future().share();
  std::thread owner([&] {
    pool.run(4, [&](std::size_t i, std::size_t) {
      if (i != 0) return;
      owner_inside.set_value();
      other_done_f.wait();
    });
  });
  owner_inside.get_future().wait();
  std::vector<std::size_t> other(32, 99);
  pool.run(32, [&](std::size_t i, std::size_t worker) { other[i] = worker; });
  other_done.set_value();
  owner.join();
  for (std::size_t i = 0; i < other.size(); ++i) EXPECT_EQ(other[i], 0u) << i;
}

TEST(Device, LaunchCoversAllGroups) {
  device::Device dev(2);
  std::vector<std::atomic<int>> hits(64);
  dev.launch(64, [&](std::size_t g) { hits[g].fetch_add(1); });
  for (std::size_t g = 0; g < 64; ++g) EXPECT_EQ(hits[g].load(), 1);
}

TEST(Device, LaunchIsABarrier) {
  device::Device dev(4);
  std::vector<int> data(128, 0);
  dev.launch(128, [&](std::size_t g) { data[g] = 1; });
  // After launch returns, every group's write is visible.
  EXPECT_EQ(std::accumulate(data.begin(), data.end(), 0), 128);
  dev.launch(128, [&](std::size_t g) { data[g] += 1; });
  EXPECT_EQ(std::accumulate(data.begin(), data.end(), 0), 256);
}

TEST(Device, WorkerCountReported) {
  device::Device dev(3);
  EXPECT_EQ(dev.worker_count(), 3u);
}

TEST(Platform, PresetsAreWellFormed) {
  const auto presets = device::platform_presets();
  ASSERT_GE(presets.size(), 4u);
  for (const auto& p : presets) {
    EXPECT_FALSE(p.name.empty());
    EXPECT_GT(p.max_group_size, 0u);
    EXPECT_LE(p.default_group_size, p.max_group_size);
  }
}

TEST(Platform, LookupByName) {
  const auto& p = device::platform_by_name("seq-reference");
  EXPECT_EQ(p.workers, 1u);
  EXPECT_THROW((void)device::platform_by_name("emu-quantum"), std::invalid_argument);
}

TEST(Platform, HostDescriptionNonEmpty) {
  EXPECT_FALSE(device::host_description().empty());
}

}  // namespace
