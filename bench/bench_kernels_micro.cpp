// Google-benchmark microbenchmarks of the individual device kernels the
// filter is assembled from: PRNG fills, bitonic sort, prefix sum, RWS and
// Vose resampling, and the robot-arm model routines. Complements the
// figure-level harnesses with per-kernel numbers.
#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "mcore/thread_pool.hpp"
#include "models/robot_arm.hpp"
#include "profile/profile.hpp"
#include "prng/mtgp_stream.hpp"
#include "prng/philox.hpp"
#include "resample/metropolis.hpp"
#include "resample/rejection.hpp"
#include "resample/rws.hpp"
#include "resample/vose.hpp"
#include "sortnet/bitonic.hpp"
#include "sortnet/scan.hpp"

namespace {

using namespace esthera;

std::vector<float> random_floats(std::size_t n, float lo, float hi) {
  std::mt19937 gen(7);
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(gen);
  return v;
}

/// One shared profiler (honouring ESTHERA_PROFILE) for hardware-counter
/// annotation of representative kernels. Sampled once around the whole
/// timed loop, not per iteration -- the perf read syscall would otherwise
/// dwarf the small kernels.
profile::Profiler& shared_profiler() {
  static profile::Profiler prof;
  return prof;
}

/// Call after SetItemsProcessed: attaches ipc / cyc_per_item /
/// miss_per_item counters to the benchmark when hardware counters are
/// live; silently skips them otherwise (perf denied, ESTHERA_PROFILE=off).
void annotate_hw_counters(benchmark::State& state,
                          const profile::Sample& begin) {
  const profile::Sample end = shared_profiler().sample();
  if (!begin.hardware || !end.hardware) return;
  const auto delta = [](std::uint64_t b, std::uint64_t e) {
    return e > b ? static_cast<double>(e - b) : 0.0;
  };
  const double cycles = delta(begin.cycles, end.cycles);
  const double instructions = delta(begin.instructions, end.instructions);
  const double misses = delta(begin.cache_misses, end.cache_misses);
  const double items = static_cast<double>(state.items_processed());
  if (cycles > 0.0) state.counters["ipc"] = instructions / cycles;
  if (items > 0.0) {
    state.counters["cyc_per_item"] = cycles / items;
    state.counters["miss_per_item"] = misses / items;
  }
}

void BM_BitonicSort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = random_floats(n, -1.0f, 1.0f);
  std::vector<float> keys(n);
  const profile::Sample prof_begin = shared_profiler().sample();
  for (auto _ : state) {
    keys = input;
    sortnet::bitonic_sort(std::span<float>(keys));
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  annotate_hw_counters(state, prof_begin);
}
BENCHMARK(BM_BitonicSort)->Arg(64)->Arg(512)->Arg(4096);

void BM_BitonicSortByKey(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = random_floats(n, -1.0f, 1.0f);
  std::vector<float> keys(n);
  std::vector<std::uint32_t> idx(n);
  for (auto _ : state) {
    keys = input;
    for (std::size_t i = 0; i < n; ++i) idx[i] = static_cast<std::uint32_t>(i);
    sortnet::bitonic_sort_by_key(std::span<float>(keys), std::span<std::uint32_t>(idx));
    benchmark::DoNotOptimize(idx.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BitonicSortByKey)->Arg(64)->Arg(512);

void BM_BlellochScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = random_floats(n, 0.0f, 1.0f);
  std::vector<float> data(n);
  const profile::Sample prof_begin = shared_profiler().sample();
  for (auto _ : state) {
    data = input;
    benchmark::DoNotOptimize(sortnet::blelloch_exclusive_scan(std::span<float>(data)));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  annotate_hw_counters(state, prof_begin);
}
BENCHMARK(BM_BlellochScan)->Arg(512)->Arg(4096)->Arg(65536);

void BM_RwsResample(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto w = random_floats(n, 0.01f, 1.0f);
  const auto uniforms = random_floats(n, 0.0f, 0.999f);
  std::vector<float> cumsum(n);
  std::vector<std::uint32_t> out(n);
  for (auto _ : state) {
    resample::rws_resample<float>(w, uniforms, out, cumsum);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RwsResample)->Arg(512)->Arg(4096)->Arg(65536);

void BM_MetropolisResample(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto w = random_floats(n, 0.01f, 1.0f);
  std::vector<std::uint32_t> out(n);
  const std::size_t steps = resample::metropolis_default_steps(n);
  std::uint64_t round = 0;
  const profile::Sample prof_begin = shared_profiler().sample();
  for (auto _ : state) {
    prng::PhiloxStream chain(7, round++);
    resample::metropolis_resample<float>(w, steps, chain, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  annotate_hw_counters(state, prof_begin);
}
BENCHMARK(BM_MetropolisResample)->Arg(512)->Arg(4096)->Arg(65536);

void BM_RejectionResample(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto w = random_floats(n, 0.01f, 1.0f);
  std::vector<std::uint32_t> out(n);
  std::uint64_t round = 0;
  for (auto _ : state) {
    prng::PhiloxStream chain(7, round++);
    resample::rejection_resample<float>(w, 1.0f, chain, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RejectionResample)->Arg(512)->Arg(4096)->Arg(65536);

void BM_VoseBuildClassic(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto w = random_floats(n, 0.01f, 1.0f);
  resample::AliasTable<float> table;
  for (auto _ : state) {
    resample::vose_build<float>(w, table);
    benchmark::DoNotOptimize(table.prob.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_VoseBuildClassic)->Arg(512)->Arg(4096)->Arg(65536);

void BM_VoseBuildInplace(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto w = random_floats(n, 0.01f, 1.0f);
  std::vector<float> prob(n), scaled(n);
  std::vector<std::uint32_t> alias(n), slots(n);
  for (auto _ : state) {
    resample::vose_build_inplace<float>(w, prob, alias, scaled, slots);
    benchmark::DoNotOptimize(prob.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_VoseBuildInplace)->Arg(512)->Arg(4096)->Arg(65536);

void BM_VoseSample(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto w = random_floats(n, 0.01f, 1.0f);
  const auto uniforms = random_floats(2 * n, 0.0f, 0.999f);
  resample::AliasTable<float> table;
  resample::vose_build<float>(w, table);
  std::vector<std::uint32_t> out(n);
  const profile::Sample prof_begin = shared_profiler().sample();
  for (auto _ : state) {
    resample::vose_sample<float>(table, uniforms, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  annotate_hw_counters(state, prof_begin);
}
BENCHMARK(BM_VoseSample)->Arg(512)->Arg(4096)->Arg(65536);

template <prng::Generator G>
void BM_StreamFill(benchmark::State& state) {
  const auto groups = static_cast<std::size_t>(state.range(0));
  mcore::ThreadPool pool(1);
  prng::MtgpStream stream(groups, 42, G);
  prng::RandomBuffer<float> buf;
  buf.resize(groups, 512 * 9, 2 * 512 + 1);
  const profile::Sample prof_begin = shared_profiler().sample();
  for (auto _ : state) {
    stream.fill(pool, buf);
    benchmark::DoNotOptimize(buf.normals.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(buf.normals.size() +
                                                    buf.uniforms.size()));
  annotate_hw_counters(state, prof_begin);
}
BENCHMARK(BM_StreamFill<prng::Generator::kMtgp>)->Arg(8)->Arg(64);
BENCHMARK(BM_StreamFill<prng::Generator::kPhilox>)->Arg(8)->Arg(64);

void BM_ArmTransition(benchmark::State& state) {
  const auto joints = static_cast<std::size_t>(state.range(0));
  models::RobotArmParams<float> params;
  params.n_joints = joints;
  const models::RobotArmModel<float> model(params);
  std::vector<float> x(model.state_dim(), 0.1f), next(model.state_dim());
  const std::vector<float> noise(model.noise_dim(), 0.1f);
  const std::vector<float> u(model.control_dim(), 0.05f);
  std::size_t step = 0;
  for (auto _ : state) {
    model.sample_transition(x, next, u, noise, step++);
    benchmark::DoNotOptimize(next.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ArmTransition)->Arg(5)->Arg(28)->Arg(124);

void BM_ArmLikelihood(benchmark::State& state) {
  const auto joints = static_cast<std::size_t>(state.range(0));
  models::RobotArmParams<float> params;
  params.n_joints = joints;
  const models::RobotArmModel<float> model(params);
  std::vector<float> x(model.state_dim(), 0.1f);
  std::vector<float> z(model.measurement_dim());
  model.measure(x, z);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.log_likelihood(x, z));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ArmLikelihood)->Arg(5)->Arg(28)->Arg(124);

}  // namespace

BENCHMARK_MAIN();
