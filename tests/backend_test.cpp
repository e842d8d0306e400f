// Device-backend equivalence: the SIMD lane-batched backend must be
// bit-identical to the scalar reference - same sorted orders, scan
// results, weights, normal draws, filter estimates and deterministic
// work.* counters - at every worker count, because both run the identical
// lock-step schedule and every batched op is restricted to bit-exact
// transforms. The SIMT harness (one real thread per lane) triangulates:
// scalar, SIMD and true lane-parallel execution all agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/centralized_pf.hpp"
#include "core/distributed_pf.hpp"
#include "device/backend.hpp"
#include "device/simt.hpp"
#include "mcore/thread_pool.hpp"
#include "models/robot_arm.hpp"
#include "prng/distributions.hpp"
#include "prng/mt19937.hpp"
#include "prng/mtgp_stream.hpp"
#include "sim/ground_truth.hpp"
#include "sortnet/bitonic.hpp"
#include "sortnet/scan.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace esthera;

/// Pins the process backend default for one test: clears the override and
/// hides any ESTHERA_BACKEND the surrounding environment set (the CI matrix
/// exports it), restoring both afterwards so the rest of the binary still
/// runs under the environment it was launched with.
class BackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (const char* env = std::getenv("ESTHERA_BACKEND")) {
      saved_env_ = env;
      had_env_ = true;
    }
    ::unsetenv("ESTHERA_BACKEND");
    device::set_default_backend(device::Backend::kAuto);
  }
  void TearDown() override {
    device::set_default_backend(device::Backend::kAuto);
    if (had_env_) {
      ::setenv("ESTHERA_BACKEND", saved_env_.c_str(), 1);
    } else {
      ::unsetenv("ESTHERA_BACKEND");
    }
  }

 private:
  std::string saved_env_;
  bool had_env_ = false;
};

TEST_F(BackendTest, ParseAndToStringRoundTrip) {
  EXPECT_EQ(device::parse_backend("auto"), device::Backend::kAuto);
  EXPECT_EQ(device::parse_backend("scalar"), device::Backend::kScalar);
  EXPECT_EQ(device::parse_backend("simd"), device::Backend::kSimd);
  for (const auto b : {device::Backend::kAuto, device::Backend::kScalar,
                       device::Backend::kSimd}) {
    EXPECT_EQ(device::parse_backend(device::to_string(b)), b);
  }
  EXPECT_THROW((void)device::parse_backend("SIMD"), std::invalid_argument);
  EXPECT_THROW((void)device::parse_backend(""), std::invalid_argument);
  EXPECT_THROW((void)device::parse_backend("avx2"), std::invalid_argument);
}

TEST_F(BackendTest, DefaultResolutionPrecedence) {
  // No override, no env: the scalar reference.
  EXPECT_EQ(device::default_backend(), device::Backend::kScalar);
  EXPECT_EQ(device::resolve_backend(device::Backend::kAuto),
            device::Backend::kScalar);
  // A valid environment value is honoured ...
  ::setenv("ESTHERA_BACKEND", "simd", 1);
  EXPECT_EQ(device::default_backend(), device::Backend::kSimd);
  // ... garbage and "auto" are ignored, not trusted.
  ::setenv("ESTHERA_BACKEND", "SIMD", 1);
  EXPECT_EQ(device::default_backend(), device::Backend::kScalar);
  ::setenv("ESTHERA_BACKEND", "auto", 1);
  EXPECT_EQ(device::default_backend(), device::Backend::kScalar);
  // The process override beats the environment; kAuto clears it.
  ::setenv("ESTHERA_BACKEND", "scalar", 1);
  device::set_default_backend(device::Backend::kSimd);
  EXPECT_EQ(device::default_backend(), device::Backend::kSimd);
  device::set_default_backend(device::Backend::kAuto);
  EXPECT_EQ(device::default_backend(), device::Backend::kScalar);
  // Concrete backends resolve to themselves regardless of the default.
  device::set_default_backend(device::Backend::kSimd);
  EXPECT_EQ(device::resolve_backend(device::Backend::kScalar),
            device::Backend::kScalar);
}

TEST_F(BackendTest, SummaryReportsResolvedBackend) {
  core::FilterConfig cfg;
  cfg.backend = device::Backend::kSimd;
  EXPECT_NE(cfg.summary().find("backend=simd"), std::string::npos);
  cfg.backend = device::Backend::kAuto;
  EXPECT_NE(cfg.summary().find("backend=scalar"), std::string::npos);
}

// --- Kernel-level bit-identity: scalar vs SIMD vs SIMT ----------------------

std::vector<float> pseudo_floats(std::size_t n, std::uint32_t seed) {
  prng::Mt19937 gen(seed);
  std::vector<float> v(n);
  // Include exact duplicates so tie-handling differences would show.
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(gen() % 97) * 0.125f;
  }
  return v;
}

/// The local-sort device program on real lane threads: descending
/// (key, index) bitonic sort, one barrier per compare-exchange round.
void simt_sort_pairs_desc(std::vector<float>& keys,
                          std::vector<std::uint32_t>& idx) {
  const std::size_t n = keys.size();
  device::run_simt_group(n, [&](device::LaneContext& ctx) {
    const std::size_t i = ctx.lane_id();
    for (std::size_t k = 2; k <= n; k <<= 1) {
      for (std::size_t j = k >> 1; j > 0; j >>= 1) {
        const std::size_t l = i ^ j;
        if (l > i) {
          const bool ascending = (i & k) == 0;
          if ((keys[l] > keys[i]) == ascending) {
            std::swap(keys[i], keys[l]);
            std::swap(idx[i], idx[l]);
          }
        }
        ctx.barrier();
      }
    }
  });
}

TEST_F(BackendTest, SortPairsBitIdenticalAcrossBackendsAndSimt) {
  const auto& scalar = device::lane_ops<float>(device::Backend::kScalar);
  const auto& simd = device::lane_ops<float>(device::Backend::kSimd);
  for (const std::size_t n : {2u, 8u, 64u, 512u}) {
    const auto input = pseudo_floats(n, 11 + static_cast<std::uint32_t>(n));
    std::vector<std::uint32_t> iota(n);
    for (std::size_t i = 0; i < n; ++i) iota[i] = static_cast<std::uint32_t>(i);

    auto k_scalar = input;
    auto k_simd = input;
    auto k_simt = input;
    auto i_scalar = iota;
    auto i_simd = iota;
    auto i_simt = iota;
    sortnet::NetCounters nc_scalar, nc_simd;
    scalar.sort_pairs_desc(k_scalar, i_scalar, &nc_scalar);
    simd.sort_pairs_desc(k_simd, i_simd, &nc_simd);
    simt_sort_pairs_desc(k_simt, i_simt);

    EXPECT_EQ(k_scalar, k_simd) << "n=" << n;
    EXPECT_EQ(i_scalar, i_simd) << "n=" << n;
    EXPECT_EQ(k_scalar, k_simt) << "n=" << n;
    EXPECT_EQ(i_scalar, i_simt) << "n=" << n;
    EXPECT_EQ(nc_scalar.lockstep_phases, nc_simd.lockstep_phases) << "n=" << n;
    EXPECT_EQ(nc_scalar.compare_exchanges, nc_simd.compare_exchanges)
        << "n=" << n;
  }
}

TEST_F(BackendTest, ScanBitIdenticalAcrossBackends) {
  const auto& scalar = device::lane_ops<float>(device::Backend::kScalar);
  const auto& simd = device::lane_ops<float>(device::Backend::kSimd);
  for (const std::size_t n : {2u, 16u, 512u, 4096u}) {
    const auto input = pseudo_floats(n, 23 + static_cast<std::uint32_t>(n));
    auto d_scalar = input;
    auto d_simd = input;
    sortnet::NetCounters nc_scalar, nc_simd;
    const float t_scalar = scalar.exclusive_scan(d_scalar, &nc_scalar);
    const float t_simd = simd.exclusive_scan(d_simd, &nc_simd);
    EXPECT_EQ(d_scalar, d_simd) << "n=" << n;
    EXPECT_EQ(t_scalar, t_simd) << "n=" << n;
    EXPECT_EQ(nc_scalar.scan_sweeps, nc_simd.scan_sweeps) << "n=" << n;
  }
}

TEST_F(BackendTest, WeighBitIdenticalAcrossBackends) {
  const auto& scalar = device::lane_ops<float>(device::Backend::kScalar);
  const auto& simd = device::lane_ops<float>(device::Backend::kSimd);
  for (const std::size_t n : {1u, 7u, 512u}) {
    std::vector<float> lw = pseudo_floats(n, 31);
    std::vector<float> ll = pseudo_floats(n, 37);
    for (auto& v : lw) v = -v;  // log-weights are non-positive in practice
    for (auto& v : ll) v = -v;
    std::vector<float> out_scalar(n), out_simd(n);
    scalar.weigh(lw, ll, out_scalar);
    simd.weigh(lw, ll, out_simd);
    EXPECT_EQ(out_scalar, out_simd) << "n=" << n;
  }
}

TEST_F(BackendTest, NormalFillMatchesNormalSourceSequence) {
  // The fills must reproduce the NormalSource draw sequence bit-for-bit
  // under the pinned pairing (radius = second draw of each pair), for even
  // sizes and for odd sizes where the tail pair's z1 is consumed but
  // discarded - both from a separate draw buffer and in place over the
  // draws, as MtgpStream::fill runs them.
  const auto& scalar = device::lane_ops<double>(device::Backend::kScalar);
  const auto& simd = device::lane_ops<double>(device::Backend::kSimd);
  for (const std::size_t n : {6u, 7u, 64u, 65u}) {
    const std::size_t pairs = (n + 1) / 2;
    prng::Mt19937 gen(91);
    std::vector<double> draws(2 * pairs);
    for (auto& d : draws) d = prng::uniform01<double>(gen);

    prng::Mt19937 ref_gen(91);
    prng::NormalSource<double, prng::Mt19937> ref(ref_gen);
    std::vector<double> expected(n);
    for (auto& v : expected) v = ref();

    std::vector<double> out_scalar(n), out_simd(n);
    scalar.normal_fill(draws, out_scalar);
    simd.normal_fill(draws, out_simd);
    EXPECT_EQ(out_scalar, expected) << "n=" << n;
    EXPECT_EQ(out_simd, expected) << "n=" << n;

    for (const auto* ops : {&scalar, &simd}) {
      auto inplace = draws;
      ops->normal_fill(inplace, std::span<double>(inplace).first(n));
      EXPECT_TRUE(std::equal(expected.begin(), expected.end(), inplace.begin()))
          << "in place, n=" << n;
    }
  }
}

TEST_F(BackendTest, StreamFillBitIdenticalAcrossBackends) {
  // Both generator cores, even and odd normals-per-group (the odd tail
  // consumes a full Box-Muller pair and discards z1).
  for (const auto gen : {prng::Generator::kMtgp, prng::Generator::kPhilox}) {
    for (const std::size_t npg : {8u, 9u}) {
      mcore::ThreadPool pool(2);
      prng::MtgpStream a(4, 77, gen);
      prng::MtgpStream b(4, 77, gen);
      prng::RandomBuffer<float> buf_a, buf_b;
      buf_a.resize(4, npg, 5);
      buf_b.resize(4, npg, 5);
      for (int round = 0; round < 3; ++round) {
        a.fill(pool, buf_a, device::Backend::kScalar);
        b.fill(pool, buf_b, device::Backend::kSimd);
        EXPECT_EQ(buf_a.normals, buf_b.normals)
            << "gen=" << static_cast<int>(gen) << " npg=" << npg
            << " round=" << round;
        EXPECT_EQ(buf_a.uniforms, buf_b.uniforms)
            << "gen=" << static_cast<int>(gen) << " npg=" << npg
            << " round=" << round;
      }
    }
  }
}

// --- Filter-level bit-identity across backends and worker counts ------------

const char* const kWorkCounters[] = {
    "work.barriers",    "work.lockstep_phases", "work.compare_exchanges",
    "work.scan_sweeps", "work.rng_draws",       "work.metropolis_steps"};

struct FilterRun {
  std::vector<float> estimates;  // concatenated per-step estimates
  std::vector<float> state;      // final particle states
  std::vector<float> log_weights;
  std::vector<std::uint64_t> counters;
};

FilterRun run_distributed(core::FilterConfig cfg, int steps) {
  telemetry::Telemetry tel;
  cfg.telemetry = &tel;
  sim::RobotArmScenario scenario;
  scenario.reset(2);
  core::DistributedParticleFilter<models::RobotArmModel<float>> pf(
      scenario.make_model<float>(), cfg);
  std::vector<float> z, u;
  FilterRun r;
  for (int k = 0; k < steps; ++k) {
    const auto step = scenario.advance();
    z.assign(step.z.begin(), step.z.end());
    u.assign(step.u.begin(), step.u.end());
    pf.step(z, u);
    r.estimates.insert(r.estimates.end(), pf.estimate().begin(),
                       pf.estimate().end());
  }
  const auto snapshot = pf.export_state();
  r.state = snapshot.state;
  r.log_weights = snapshot.log_weights;
  for (const char* name : kWorkCounters) {
    r.counters.push_back(tel.registry.counter(name).value());
  }
  return r;
}

TEST_F(BackendTest, DistributedFilterGridBitIdentical) {
  // The acceptance grid: workers x backend x resampler, everything compared
  // bit-for-bit against the scalar single-worker reference - estimates,
  // final particle states, log-weights, and the deterministic work.*
  // counters (which must not depend on how lanes were batched).
  for (const auto algo :
       {core::ResampleAlgorithm::kRws, core::ResampleAlgorithm::kMetropolis}) {
    core::FilterConfig base;
    base.particles_per_filter = 32;
    base.num_filters = 16;
    base.seed = 9;
    base.resample = algo;
    base.workers = 1;
    base.backend = device::Backend::kScalar;
    const FilterRun ref = run_distributed(base, 3);

    for (const std::size_t workers : {1u, 2u, 8u}) {
      for (const auto backend :
           {device::Backend::kScalar, device::Backend::kSimd}) {
        core::FilterConfig cfg = base;
        cfg.workers = workers;
        cfg.backend = backend;
        const FilterRun run = run_distributed(cfg, 3);
        const std::string where = std::string("resample=") +
                                  core::to_string(algo) + " workers=" +
                                  std::to_string(workers) + " backend=" +
                                  device::to_string(backend);
        EXPECT_EQ(run.estimates, ref.estimates) << where;
        EXPECT_EQ(run.state, ref.state) << where;
        EXPECT_EQ(run.log_weights, ref.log_weights) << where;
        EXPECT_EQ(run.counters, ref.counters) << where;
      }
    }
  }
}

TEST_F(BackendTest, EnvironmentSelectionIsBitIdenticalToo) {
  // kAuto + ESTHERA_BACKEND=simd must take the same path as an explicit
  // config - this is the route the CI matrix exercises.
  core::FilterConfig cfg;
  cfg.particles_per_filter = 32;
  cfg.num_filters = 8;
  cfg.seed = 9;
  cfg.backend = device::Backend::kScalar;
  const FilterRun ref = run_distributed(cfg, 2);
  ::setenv("ESTHERA_BACKEND", "simd", 1);
  cfg.backend = device::Backend::kAuto;
  const FilterRun run = run_distributed(cfg, 2);
  EXPECT_EQ(run.estimates, ref.estimates);
  EXPECT_EQ(run.state, ref.state);
  EXPECT_EQ(run.counters, ref.counters);
}

TEST_F(BackendTest, CentralizedFilterBitIdenticalAcrossBackends) {
  const auto run = [](device::Backend backend) {
    sim::RobotArmScenario scenario;
    scenario.reset(4);
    core::CentralizedOptions opts;
    opts.seed = 17;
    opts.backend = backend;
    core::CentralizedParticleFilter<models::RobotArmModel<double>> pf(
        scenario.make_model<double>(), 256, opts);
    std::vector<double> out;
    for (int k = 0; k < 5; ++k) {
      const auto step = scenario.advance();
      pf.step(step.z, step.u);
      out.insert(out.end(), pf.estimate().begin(), pf.estimate().end());
    }
    return out;
  };
  EXPECT_EQ(run(device::Backend::kScalar), run(device::Backend::kSimd));
}

}  // namespace
