// Tests for the extension modules: the SIMT lane-level fidelity harness,
// the auxiliary particle filter, KLD-adaptive sampling, Gordon roughening,
// the bearings-only model, and the diagnostics toolbox.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numbers>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/adaptive_pf.hpp"
#include "core/auxiliary_pf.hpp"
#include "core/centralized_pf.hpp"
#include "core/distributed_pf.hpp"
#include "device/simt.hpp"
#include "estimation/diagnostics.hpp"
#include "estimation/metrics.hpp"
#include "models/bearings_only.hpp"
#include "models/growth.hpp"
#include "models/robot_arm.hpp"
#include "models/stochastic_volatility.hpp"
#include "models/vehicle.hpp"
#include "sim/ground_truth.hpp"
#include "sortnet/bitonic.hpp"
#include "sortnet/scan.hpp"

namespace {

using namespace esthera;

// --- SIMT harness vs lock-step emulation -----------------------------------

TEST(Simt, LanesRunExactlyOnce) {
  std::vector<std::atomic<int>> hits(16);
  device::run_simt_group(16, [&](device::LaneContext& ctx) {
    hits[ctx.lane_id()].fetch_add(1);
    EXPECT_EQ(ctx.lane_count(), 16u);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Simt, BarrierSynchronizesPhases) {
  // Phase 1 writes, barrier, phase 2 reads every other lane's write: the
  // barrier must make all phase-1 writes visible.
  constexpr std::size_t kLanes = 8;
  std::vector<int> data(kLanes, 0);
  std::atomic<bool> ok{true};
  device::run_simt_group(kLanes, [&](device::LaneContext& ctx) {
    data[ctx.lane_id()] = static_cast<int>(ctx.lane_id()) + 1;
    ctx.barrier();
    int sum = 0;
    for (const int v : data) sum += v;
    if (sum != (kLanes * (kLanes + 1)) / 2) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(Simt, ThrowingLaneDoesNotDeadlock) {
  // Regression: a lane that throws between barriers used to leave the
  // group blocked forever on the next arrive_and_wait (the dead lane never
  // arrived). The catch path must arrive_and_drop() so surviving lanes run
  // to completion and the first exception propagates.
  constexpr std::size_t kLanes = 8;
  std::atomic<int> completed{0};
  EXPECT_THROW(
      device::run_simt_group(kLanes,
                             [&](device::LaneContext& ctx) {
                               ctx.barrier();
                               if (ctx.lane_id() == 0) {
                                 throw std::runtime_error("lane 0 died");
                               }
                               ctx.barrier();  // survivors keep phasing
                               ctx.barrier();
                               completed.fetch_add(1);
                             }),
      std::runtime_error);
  EXPECT_EQ(completed.load(), static_cast<int>(kLanes) - 1);
}

/// Bitonic sort written as a true SIMT kernel: one lane per element, one
/// barrier per compare-exchange round - the exact device program.
void simt_bitonic_sort(std::vector<float>& keys) {
  const std::size_t n = keys.size();
  device::run_simt_group(n, [&](device::LaneContext& ctx) {
    const std::size_t i = ctx.lane_id();
    for (std::size_t k = 2; k <= n; k <<= 1) {
      for (std::size_t j = k >> 1; j > 0; j >>= 1) {
        const std::size_t l = i ^ j;
        if (l > i) {
          const bool ascending = (i & k) == 0;
          if ((keys[l] < keys[i]) == ascending) std::swap(keys[i], keys[l]);
        }
        ctx.barrier();
      }
    }
  });
}

/// The filter's local-sort program on real lane threads: descending
/// (key, index) bitonic sort, one barrier per compare-exchange round.
/// Tallies its rounds and its live compare-exchange lanes the way
/// sortnet::NetCounters does.
sortnet::NetCounters simt_sort_pairs_desc(std::vector<float>& keys,
                                          std::vector<std::uint32_t>& idx) {
  const std::size_t n = keys.size();
  std::atomic<std::uint64_t> phases{0};
  std::atomic<std::uint64_t> exchanges{0};
  device::run_simt_group(n, [&](device::LaneContext& ctx) {
    const std::size_t i = ctx.lane_id();
    for (std::size_t k = 2; k <= n; k <<= 1) {
      for (std::size_t j = k >> 1; j > 0; j >>= 1) {
        if (i == 0) phases.fetch_add(1);
        const std::size_t l = i ^ j;
        if (l > i) {
          exchanges.fetch_add(1);
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
  sortnet::NetCounters nc;
  nc.lockstep_phases = phases.load();
  nc.compare_exchanges = exchanges.load();
  return nc;
}

TEST(Simt, BitonicKernelMatchesLockStepEmulation) {
  std::mt19937 gen(5);
  for (const std::size_t n : {2u, 8u, 32u, 64u}) {
    std::vector<float> input(n);
    for (auto& v : input) v = static_cast<float>(gen() % 1000) * 0.1f;
    auto simt = input;
    auto emulated = input;
    simt_bitonic_sort(simt);
    sortnet::bitonic_sort(std::span<float>(emulated));
    EXPECT_EQ(simt, emulated) << "n=" << n;
  }
  // The filter's (key, index) sort, descending, with exact duplicate keys
  // so that a tie handled differently would move an index.
  for (const std::size_t n : {2u, 8u, 64u, 512u}) {
    std::vector<float> input(n);
    for (auto& v : input) v = static_cast<float>(gen() % 97) * 0.125f;
    std::vector<std::uint32_t> iota(n);
    std::iota(iota.begin(), iota.end(), 0u);
    auto simt_keys = input;
    auto simt_idx = iota;
    auto keys = input;
    auto idx = iota;
    const sortnet::NetCounters simt_nc = simt_sort_pairs_desc(simt_keys, simt_idx);
    sortnet::NetCounters nc;
    sortnet::bitonic_sort_by_key<float, std::uint32_t>(keys, idx, std::greater<float>(),
                                                       &nc);
    EXPECT_EQ(simt_keys, keys) << "n=" << n;
    EXPECT_EQ(simt_idx, idx) << "n=" << n;
    EXPECT_EQ(simt_nc.lockstep_phases, nc.lockstep_phases) << "n=" << n;
    EXPECT_EQ(simt_nc.compare_exchanges, nc.compare_exchanges) << "n=" << n;
  }
}

/// Blelloch scan as a true SIMT kernel (one lane per element).
void simt_blelloch_scan(std::vector<double>& data) {
  const std::size_t n = data.size();
  device::run_simt_group(n, [&](device::LaneContext& ctx) {
    const std::size_t i = ctx.lane_id();
    for (std::size_t d = 1; d < n; d <<= 1) {
      const std::size_t stride = 2 * d;
      if ((i + 1) % stride == 0) data[i] += data[i - d];
      ctx.barrier();
    }
    if (i == n - 1) data[i] = 0.0;
    ctx.barrier();
    for (std::size_t d = n >> 1; d >= 1; d >>= 1) {
      const std::size_t stride = 2 * d;
      if ((i + 1) % stride == 0) {
        const double t = data[i - d];
        data[i - d] = data[i];
        data[i] += t;
      }
      ctx.barrier();
    }
  });
}

TEST(Simt, ScanKernelMatchesLockStepEmulation) {
  std::mt19937 gen(7);
  for (const std::size_t n : {2u, 4u, 16u, 64u}) {
    std::vector<double> input(n);
    for (auto& v : input) v = static_cast<double>(gen() % 100);
    auto simt = input;
    auto emulated = input;
    simt_blelloch_scan(simt);
    sortnet::blelloch_exclusive_scan(std::span<double>(emulated));
    EXPECT_EQ(simt, emulated) << "n=" << n;
  }
}

// --- Auxiliary particle filter ----------------------------------------------

TEST(AuxiliaryPf, TracksGrowthModel) {
  const models::GrowthModel<double> model;
  sim::ModelSimulator<models::GrowthModel<double>> sim(model, 17);
  core::AuxiliaryParticleFilter<models::GrowthModel<double>> apf(model, 2000, 7);
  estimation::ErrorAccumulator err;
  for (int k = 0; k < 100; ++k) {
    const auto step = sim.advance();
    apf.step(step.z);
    err.add_scalar(apf.estimate()[0] - step.truth[0]);
  }
  EXPECT_LT(err.rmse(), 6.0);
}

TEST(AuxiliaryPf, BeatsBootstrapOnPeakedLikelihood) {
  // APF's look-ahead pays off on unimodal posteriors with sharp
  // likelihoods, where the bootstrap proposal wastes most particles. On
  // multimodal posteriors (growth model) the look-ahead at the transition
  // mean misleads - a known APF limitation, so the comparison uses the
  // unimodal vehicle model at small measurement noise and a tight particle
  // budget.
  models::VehicleParams<double> p;
  p.meas_sigma_range = 0.03;
  p.meas_sigma_bearing = 0.005;
  const models::VehicleModel<double> model(p);
  estimation::ErrorAccumulator apf_err, sir_err;
  const std::vector<double> u = {0.02, 0.05};
  for (std::uint64_t r = 0; r < 8; ++r) {
    sim::ModelSimulator<models::VehicleModel<double>> sim(model, 200 + r);
    core::AuxiliaryParticleFilter<models::VehicleModel<double>> apf(model, 100,
                                                                    7 + r);
    core::CentralizedOptions opts;
    opts.estimator = core::EstimatorKind::kWeightedMean;
    opts.seed = 7 + r;
    core::CentralizedParticleFilter<models::VehicleModel<double>> sir(model, 100,
                                                                      opts);
    for (int k = 0; k < 60; ++k) {
      const auto step = sim.advance(u);
      apf.step(step.z, u);
      sir.step(step.z, u);
      if (k >= 10) {
        apf_err.add_step(std::vector<double>{apf.estimate()[0] - step.truth[0],
                                             apf.estimate()[1] - step.truth[1]});
        sir_err.add_step(std::vector<double>{sir.estimate()[0] - step.truth[0],
                                             sir.estimate()[1] - step.truth[1]});
      }
    }
  }
  EXPECT_LT(apf_err.rmse(), sir_err.rmse());
}

TEST(AuxiliaryPf, EssReported) {
  const models::GrowthModel<double> model;
  sim::ModelSimulator<models::GrowthModel<double>> sim(model, 3);
  core::AuxiliaryParticleFilter<models::GrowthModel<double>> apf(model, 500, 5);
  const auto step = sim.advance();
  apf.step(step.z);
  EXPECT_GT(apf.ess(), 1.0);
  EXPECT_LE(apf.ess(), 500.0);
}

// --- KLD-adaptive particle filter --------------------------------------------

TEST(KldAdaptive, RequiredSamplesFormula) {
  core::KldOptions opts;
  opts.epsilon = 0.05;
  opts.z_quantile = 2.326;
  // Monotone in the bin count, and 1 bin means the minimum.
  EXPECT_EQ(core::kld_required_samples(1, opts), opts.min_particles);
  const auto n10 = core::kld_required_samples(10, opts);
  const auto n100 = core::kld_required_samples(100, opts);
  EXPECT_LT(n10, n100);
  // Spot value: k=2 gives (1/(2 eps)) (1 - 2/9 + sqrt(2/9) z)^3.
  const double a = 2.0 / 9.0;
  const double expected = 1.0 / 0.1 * std::pow(1.0 - a + std::sqrt(a) * 2.326, 3);
  EXPECT_EQ(core::kld_required_samples(2, opts),
            static_cast<std::size_t>(std::ceil(expected)));
}

TEST(KldAdaptive, TracksGrowthModel) {
  const models::GrowthModel<double> model;
  sim::ModelSimulator<models::GrowthModel<double>> sim(model, 17);
  core::KldOptions opts;
  opts.bin_size = 1.0;
  core::KldAdaptiveParticleFilter<models::GrowthModel<double>> pf(model, opts);
  estimation::ErrorAccumulator err;
  for (int k = 0; k < 100; ++k) {
    const auto step = sim.advance();
    pf.step(step.z);
    err.add_scalar(pf.estimate()[0] - step.truth[0]);
    ASSERT_GE(pf.particle_count(), opts.min_particles);
    ASSERT_LE(pf.particle_count(), opts.max_particles);
  }
  EXPECT_LT(err.rmse(), 7.0);
}

TEST(KldAdaptive, SpendsMoreParticlesOnSpreadPosteriors) {
  // The stochastic-volatility posterior is unimodal and narrow; the growth
  // posterior is wide and bimodal. KLD sampling must allocate more
  // particles to the wide one at the same bin size.
  core::KldOptions opts;
  opts.bin_size = 0.5;
  opts.min_particles = 32;

  const models::GrowthModel<double> wide;
  sim::ModelSimulator<models::GrowthModel<double>> wide_sim(wide, 3);
  core::KldAdaptiveParticleFilter<models::GrowthModel<double>> wide_pf(wide, opts);

  const models::StochasticVolatilityModel<double> narrow;
  sim::ModelSimulator<models::StochasticVolatilityModel<double>> narrow_sim(narrow, 3);
  core::KldAdaptiveParticleFilter<models::StochasticVolatilityModel<double>>
      narrow_pf(narrow, opts);

  double wide_particles = 0.0, narrow_particles = 0.0;
  for (int k = 0; k < 40; ++k) {
    wide_pf.step(wide_sim.advance().z);
    narrow_pf.step(narrow_sim.advance().z);
    wide_particles += static_cast<double>(wide_pf.particle_count());
    narrow_particles += static_cast<double>(narrow_pf.particle_count());
  }
  EXPECT_GT(wide_particles, 2.0 * narrow_particles);
}

// --- Roughening ----------------------------------------------------------------

TEST(Roughening, RestoresDiversityUnderAllToAll) {
  // All-to-All collapses diversity (Fig 6a); roughening must push the
  // number of distinct particle values back up.
  sim::RobotArmScenario scenario;
  const auto unique_positions = [&](double k) {
    scenario.reset(9);
    core::FilterConfig cfg;
    cfg.particles_per_filter = 16;
    cfg.num_filters = 16;
    cfg.scheme = topology::ExchangeScheme::kAllToAll;
    cfg.exchange_particles = 2;
    cfg.roughening_k = k;
    cfg.seed = 5;
    core::DistributedParticleFilter<models::RobotArmModel<float>> pf(
        scenario.make_model<float>(), cfg);
    std::vector<float> z, u;
    for (int s = 0; s < 25; ++s) {
      const auto step = scenario.advance();
      z.assign(step.z.begin(), step.z.end());
      u.assign(step.u.begin(), step.u.end());
      pf.step(z, u);
    }
    // Count distinct object-x values across the local estimates.
    std::vector<float> xs;
    for (std::size_t g = 0; g < cfg.num_filters; ++g) {
      xs.push_back(pf.local_estimate(g)[5]);
    }
    std::sort(xs.begin(), xs.end());
    return std::unique(xs.begin(), xs.end()) - xs.begin();
  };
  EXPECT_GE(unique_positions(0.2), unique_positions(0.0));
}

TEST(Roughening, ZeroKeepsBehaviourIdentical) {
  sim::RobotArmScenario scenario;
  const auto run = [&](double k) {
    scenario.reset(5);
    core::FilterConfig cfg;
    cfg.particles_per_filter = 16;
    cfg.num_filters = 8;
    cfg.roughening_k = k;
    core::DistributedParticleFilter<models::RobotArmModel<float>> pf(
        scenario.make_model<float>(), cfg);
    std::vector<float> z, u;
    std::vector<float> out;
    for (int s = 0; s < 10; ++s) {
      const auto step = scenario.advance();
      z.assign(step.z.begin(), step.z.end());
      u.assign(step.u.begin(), step.u.end());
      pf.step(z, u);
      out.insert(out.end(), pf.estimate().begin(), pf.estimate().end());
    }
    return out;
  };
  EXPECT_EQ(run(0.0), run(0.0));  // determinism sanity with the option wired
}

TEST(Roughening, ConvergenceNotDestroyed) {
  sim::RobotArmScenario scenario;
  scenario.reset(21);
  core::FilterConfig cfg;
  cfg.particles_per_filter = 32;
  cfg.num_filters = 32;
  cfg.roughening_k = 0.1;
  core::DistributedParticleFilter<models::RobotArmModel<float>> pf(
      scenario.make_model<float>(), cfg);
  std::vector<float> z, u;
  estimation::ErrorAccumulator err;
  for (int k = 0; k < 80; ++k) {
    const auto step = scenario.advance();
    z.assign(step.z.begin(), step.z.end());
    u.assign(step.u.begin(), step.u.end());
    pf.step(z, u);
    if (k >= 60) {
      const double ex = static_cast<double>(pf.estimate()[5]) - step.truth[5];
      const double ey = static_cast<double>(pf.estimate()[6]) - step.truth[6];
      err.add_scalar(std::sqrt(ex * ex + ey * ey));
    }
  }
  EXPECT_LT(err.mae(), 0.4);
}

// --- Bearings-only model -------------------------------------------------------

TEST(BearingsOnly, GeometryAndWrap) {
  const models::BearingsOnlyModel<double> m;
  const std::vector<double> x = {10.0, 10.0, 0.0, 0.0};
  const std::vector<double> origin = {0.0, 0.0};
  EXPECT_NEAR(m.bearing(x, origin), std::numbers::pi / 4.0, 1e-12);
  const std::vector<double> obs = {10.0, 0.0};
  EXPECT_NEAR(m.bearing(x, obs), std::numbers::pi / 2.0, 1e-12);
  EXPECT_NEAR(models::BearingsOnlyModel<double>::wrap(3.0 * std::numbers::pi),
              std::numbers::pi, 1e-12);
}

TEST(BearingsOnly, LikelihoodUsesObserver) {
  models::BearingsOnlyModel<double> m;
  const std::vector<double> x = {10.0, 10.0, 0.0, 0.0};
  m.set_observer(0.0, 0.0);
  const std::vector<double> z = {std::numbers::pi / 4.0};
  const double at_origin = m.log_likelihood(x, z);
  EXPECT_NEAR(at_origin, 0.0, 1e-12);
  m.set_observer(10.0, 0.0);  // same z is now wrong
  EXPECT_LT(m.log_likelihood(x, z), at_origin - 10.0);
}

TEST(BearingsOnly, FilterLocalizesAfterObserverManeuver) {
  // Stationary or constant-velocity observers cannot resolve range; an
  // observer orbiting the search area triangulates it from all sides.
  models::BearingsOnlyParams<double> p;
  p.init_mean = {10.0, 10.0, 0.0, 0.0};
  p.init_std = {4.0, 4.0, 0.1, 0.1};
  const models::BearingsOnlyModel<double> model(p);
  prng::Mt19937 rng(3);
  prng::NormalSource<double, prng::Mt19937> normal(rng);
  std::vector<double> truth = {10.0, 10.0, -0.05, -0.02};
  core::CentralizedOptions opts;
  opts.estimator = core::EstimatorKind::kWeightedMean;
  opts.resample = core::ResampleAlgorithm::kSystematic;
  core::CentralizedParticleFilter<models::BearingsOnlyModel<double>> pf(model, 4000,
                                                                        opts);
  estimation::ErrorAccumulator tail_err;
  const int steps = 150;
  for (int k = 0; k < steps; ++k) {
    // Own-ship orbit around the search area.
    const double ox = 8.0 + 10.0 * std::cos(0.1 * k);
    const double oy = 8.0 + 10.0 * std::sin(0.1 * k);
    // Truth propagation (constant velocity + tiny noise).
    std::vector<double> next(4);
    const std::vector<double> noise = {normal(), normal()};
    model.sample_transition(truth, next, {}, noise, k);
    truth = next;
    // Measurement from the current observer position.
    pf.model_mutable().set_observer(ox, oy);
    models::BearingsOnlyModel<double> meas_model = model;
    meas_model.set_observer(ox, oy);
    std::vector<double> z(1);
    const std::vector<double> mnoise = {normal()};
    meas_model.sample_measurement(truth, z, mnoise);
    pf.step(z);
    if (k >= steps - 30) {
      tail_err.add_step(std::vector<double>{pf.estimate()[0] - truth[0],
                                            pf.estimate()[1] - truth[1]});
    }
  }
  // Initial position uncertainty is sigma=4 per axis; the filter must end
  // far tighter than the prior.
  EXPECT_LT(tail_err.rmse(), 2.0);
}

// --- Resample-move (MCMC rejuvenation) -----------------------------------------

TEST(ResampleMove, AcceptanceRateIsSane) {
  const models::GrowthModel<double> model;
  sim::ModelSimulator<models::GrowthModel<double>> sim(model, 5);
  core::CentralizedOptions opts;
  opts.move_steps = 2;
  core::CentralizedParticleFilter<models::GrowthModel<double>> pf(model, 300, opts);
  for (int k = 0; k < 20; ++k) {
    const auto step = sim.advance();
    pf.step(step.z);
  }
  EXPECT_GT(pf.move_acceptance_rate(), 0.05);
  EXPECT_LT(pf.move_acceptance_rate(), 1.0);
}

TEST(ResampleMove, IncreasesParticleDiversity) {
  // After resampling many children share a parent state; the MH move gives
  // accepted children fresh draws, so the number of distinct values grows.
  const models::GrowthModel<double> model;
  const auto distinct_values = [&](std::size_t moves) {
    sim::ModelSimulator<models::GrowthModel<double>> sim(model, 8);
    core::CentralizedOptions opts;
    opts.seed = 4;
    opts.move_steps = moves;
    core::CentralizedParticleFilter<models::GrowthModel<double>> pf(model, 512, opts);
    for (int k = 0; k < 10; ++k) {
      const auto step = sim.advance();
      pf.step(step.z);
    }
    std::vector<double> xs(pf.particle_count());
    for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = pf.particles().state(i)[0];
    std::sort(xs.begin(), xs.end());
    return static_cast<std::size_t>(std::unique(xs.begin(), xs.end()) - xs.begin());
  };
  EXPECT_GT(distinct_values(2), distinct_values(0));
}

TEST(ResampleMove, TrackingNotDegraded) {
  const models::GrowthModel<double> model;
  estimation::ErrorAccumulator plain_err, move_err;
  for (std::uint64_t r = 0; r < 4; ++r) {
    sim::ModelSimulator<models::GrowthModel<double>> sim(model, 60 + r);
    core::CentralizedOptions plain_opts;
    plain_opts.estimator = core::EstimatorKind::kWeightedMean;
    plain_opts.seed = 9 + r;
    core::CentralizedOptions move_opts = plain_opts;
    move_opts.move_steps = 1;
    core::CentralizedParticleFilter<models::GrowthModel<double>> plain(model, 500,
                                                                       plain_opts);
    core::CentralizedParticleFilter<models::GrowthModel<double>> moved(model, 500,
                                                                       move_opts);
    for (int k = 0; k < 60; ++k) {
      const auto step = sim.advance();
      plain.step(step.z);
      moved.step(step.z);
      plain_err.add_scalar(plain.estimate()[0] - step.truth[0]);
      move_err.add_scalar(moved.estimate()[0] - step.truth[0]);
    }
  }
  EXPECT_LT(move_err.rmse(), plain_err.rmse() * 1.2);
}

// --- Diagnostics -----------------------------------------------------------------

TEST(Diagnostics, WeightEntropyExtremes) {
  const std::vector<double> uniform(16, 0.5);
  EXPECT_NEAR(estimation::weight_entropy<double>(uniform), std::log(16.0), 1e-12);
  std::vector<double> degenerate(16, 0.0);
  degenerate[3] = 2.0;
  EXPECT_NEAR(estimation::weight_entropy<double>(degenerate), 0.0, 1e-12);
  EXPECT_EQ(estimation::weight_entropy<double>(std::vector<double>(4, 0.0)), 0.0);
}

TEST(Diagnostics, UniqueParentFraction) {
  const std::vector<std::uint32_t> all_same(8, 3);
  EXPECT_NEAR(estimation::unique_parent_fraction(all_same), 1.0 / 8.0, 1e-12);
  std::vector<std::uint32_t> all_distinct(8);
  std::iota(all_distinct.begin(), all_distinct.end(), 0u);
  EXPECT_NEAR(estimation::unique_parent_fraction(all_distinct), 1.0, 1e-12);
  EXPECT_EQ(estimation::unique_parent_fraction({}), 0.0);
}

TEST(Diagnostics, MarkingUniqueParentCountMatchesSetBased) {
  std::mt19937 gen(17);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t m = 1 + gen() % 96;
    std::vector<std::uint32_t> parents(m);
    const std::uint32_t spread = 1 + gen() % static_cast<std::uint32_t>(m);
    for (auto& p : parents) {
      // Mostly in-range collapsed ancestries; some trials plant corrupt
      // indices at and beyond m, repeated and distinct.
      p = gen() % spread;
      if (trial % 3 == 0 && gen() % 4 == 0) {
        const std::uint32_t corrupt[] = {static_cast<std::uint32_t>(m),
                                         static_cast<std::uint32_t>(m + 5),
                                         0xffffffffu, 1u << 31};
        p = corrupt[gen() % 4];
      }
    }
    // Guard cells around the scratch catch any out-of-bounds write.
    std::vector<std::uint32_t> scratch(m + 2, 0xdeadbeefu);
    const double marked = estimation::unique_parent_fraction(
        parents, std::span<std::uint32_t>(scratch).subspan(1, m));
    EXPECT_EQ(marked, estimation::unique_parent_fraction(parents))
        << "trial " << trial;
    EXPECT_EQ(scratch.front(), 0xdeadbeefu);
    EXPECT_EQ(scratch.back(), 0xdeadbeefu);
  }
  std::vector<std::uint32_t> scratch(4);
  EXPECT_EQ(estimation::unique_parent_fraction({}, scratch), 0.0);
}

TEST(Diagnostics, ConvergenceDetectorLatches) {
  estimation::ConvergenceDetector det(0.1, 3);
  EXPECT_FALSE(det.update(0.5));
  EXPECT_FALSE(det.update(0.05));
  EXPECT_FALSE(det.update(0.05));
  EXPECT_TRUE(det.update(0.05));  // third sub-threshold step in a row
  EXPECT_EQ(det.convergence_step(), 1u);
  EXPECT_TRUE(det.update(9.0));  // latched
  det.reset();
  EXPECT_FALSE(det.converged());
}

TEST(Diagnostics, ConvergenceDetectorResetsStreak) {
  estimation::ConvergenceDetector det(0.1, 2);
  det.update(0.05);
  det.update(0.5);  // breaks the streak
  det.update(0.05);
  EXPECT_FALSE(det.converged());
  det.update(0.05);
  EXPECT_TRUE(det.converged());
  EXPECT_EQ(det.convergence_step(), 2u);
}

}  // namespace
