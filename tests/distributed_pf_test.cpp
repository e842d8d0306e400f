// Distributed particle-filter tests: worker-count invariance (the emulated
// device must give bit-identical results no matter how groups are
// scheduled), convergence on the robot-arm scenario, configuration
// validation, and coverage of every exchange scheme / resampler /
// estimator / generator combination.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/distributed_pf.hpp"
#include "estimation/metrics.hpp"
#include "models/growth.hpp"
#include "models/robot_arm.hpp"
#include "sim/ground_truth.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace esthera;

using ArmModelF = models::RobotArmModel<float>;
using ArmFilterF = core::DistributedParticleFilter<ArmModelF>;
using ArmModelD = models::RobotArmModel<double>;
using ArmFilterD = core::DistributedParticleFilter<ArmModelD>;

/// Runs `steps` rounds of the robot-arm scenario through a filter and
/// returns the mean object-position error over the last `tail` steps.
template <typename Filter>
double run_arm(Filter& pf, sim::RobotArmScenario& scenario, int steps, int tail) {
  using T = typename Filter::T;
  const std::size_t j = scenario.config().arm.n_joints;
  std::vector<T> z, u;
  estimation::ErrorAccumulator err;
  for (int k = 0; k < steps; ++k) {
    const auto step = scenario.advance();
    z.assign(step.z.begin(), step.z.end());
    u.assign(step.u.begin(), step.u.end());
    pf.step(z, u);
    if (k >= steps - tail) {
      const double ex = static_cast<double>(pf.estimate()[j + 0]) - step.truth[j + 0];
      const double ey = static_cast<double>(pf.estimate()[j + 1]) - step.truth[j + 1];
      err.add_scalar(std::sqrt(ex * ex + ey * ey));
    }
  }
  return err.mae();
}

core::FilterConfig small_config() {
  core::FilterConfig cfg;
  cfg.particles_per_filter = 32;
  cfg.num_filters = 32;
  cfg.scheme = topology::ExchangeScheme::kRing;
  cfg.exchange_particles = 1;
  cfg.workers = 2;
  cfg.seed = 99;
  return cfg;
}

TEST(DistributedPf, ConfigValidation) {
  core::FilterConfig cfg = small_config();
  cfg.particles_per_filter = 48;  // not a power of two
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = small_config();
  cfg.particles_per_filter = 4;
  cfg.exchange_particles = 2;  // ring degree 2 x t 2 = 4 >= m
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = small_config();
  cfg.num_filters = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  EXPECT_NO_THROW(small_config().validate());
}

TEST(DistributedPf, ValidationDependsOnTopologyDegree) {
  // Inflow is degree x t. With m=8 and t=2 a ring (degree 2, inflow 4)
  // is fine while a 2D torus (degree 4, inflow 8 >= m) must be rejected.
  core::FilterConfig cfg = small_config();
  cfg.particles_per_filter = 8;
  cfg.exchange_particles = 2;
  cfg.scheme = topology::ExchangeScheme::kRing;
  EXPECT_NO_THROW(cfg.validate());
  cfg.scheme = topology::ExchangeScheme::kTorus2D;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // All-to-All pools globally: inflow is t alone, so t=2 stays legal.
  cfg.scheme = topology::ExchangeScheme::kAllToAll;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(DistributedPf, ExchangeAtMaximumLegalVolume) {
  // N=2 ring: each filter has one neighbour, so inflow = t. t = m-1 = 7 is
  // the largest legal exchange; every slot but one is overwritten each
  // round. The filter must run and stay finite right at the boundary.
  core::FilterConfig cfg = small_config();
  cfg.particles_per_filter = 8;
  cfg.num_filters = 2;
  cfg.exchange_particles = 7;
  ASSERT_NO_THROW(cfg.validate());
  sim::RobotArmScenario scenario;
  scenario.reset(11);
  ArmFilterF pf(scenario.make_model<float>(), cfg);
  std::vector<float> z, u;
  for (int k = 0; k < 10; ++k) {
    const auto step = scenario.advance();
    z.assign(step.z.begin(), step.z.end());
    u.assign(step.u.begin(), step.u.end());
    pf.step(z, u);
    for (const float v : pf.estimate()) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(DistributedPf, InjectedParticleEntersNextRound) {
  // inject() replaces group g's last slot; a subsequent step() must still
  // satisfy every kernel invariant and produce a finite estimate, and a
  // dominant injected particle must be able to win the global estimate.
  sim::RobotArmScenario scenario;
  scenario.reset(13);
  core::FilterConfig cfg = small_config();
  cfg.check_invariants = true;
  ArmFilterF pf(scenario.make_model<float>(), cfg);
  std::vector<float> z, u;
  const auto first = scenario.advance();
  z.assign(first.z.begin(), first.z.end());
  u.assign(first.u.begin(), first.u.end());
  pf.step(z, u);
  // Inject a copy of the current estimate with a huge log-weight head
  // start into group 5.
  const std::vector<float> state(pf.estimate().begin(), pf.estimate().end());
  pf.inject(state, 50.0f, 5);
  const auto second = scenario.advance();
  z.assign(second.z.begin(), second.z.end());
  u.assign(second.u.begin(), second.u.end());
  EXPECT_NO_THROW(pf.step(z, u));
  for (const float v : pf.estimate()) EXPECT_TRUE(std::isfinite(v));
}

// Scheduling must not change results: everything a step writes -
// estimates, final particle states, log-weights and the deterministic
// work.* counters - is bit-identical to a 1-worker run at any worker
// count, for a scan-based and a collective-free resampler.
TEST(DistributedPf, WorkerCountInvariance) {
  struct Run {
    std::vector<float> estimates;  // concatenated per-step estimates
    std::vector<float> state;
    std::vector<float> log_weights;
    std::vector<std::uint64_t> counters;
  };
  const auto run = [](core::FilterConfig cfg) {
    telemetry::Telemetry tel;
    cfg.telemetry = &tel;
    sim::RobotArmScenario scenario;
    scenario.reset(5);
    ArmFilterF pf(scenario.make_model<float>(), cfg);
    std::vector<float> z, u;
    Run r;
    for (int k = 0; k < 15; ++k) {
      const auto step = scenario.advance();
      z.assign(step.z.begin(), step.z.end());
      u.assign(step.u.begin(), step.u.end());
      pf.step(z, u);
      r.estimates.insert(r.estimates.end(), pf.estimate().begin(), pf.estimate().end());
    }
    const auto snapshot = pf.export_state();
    r.state = snapshot.state;
    r.log_weights = snapshot.log_weights;
    for (const char* name : {"work.barriers", "work.lockstep_phases",
                             "work.compare_exchanges", "work.scan_sweeps",
                             "work.rng_draws", "work.metropolis_steps"}) {
      r.counters.push_back(tel.registry.counter(name).value());
    }
    return r;
  };
  for (const auto algo :
       {core::ResampleAlgorithm::kRws, core::ResampleAlgorithm::kMetropolis}) {
    core::FilterConfig base = small_config();
    base.resample = algo;
    base.workers = 1;
    const Run ref = run(base);
    for (const std::size_t workers : {2u, 4u, 8u}) {
      core::FilterConfig cfg = base;
      cfg.workers = workers;
      const Run r = run(cfg);
      const std::string where =
          std::string("resample=") + core::to_string(algo) + " workers=" +
          std::to_string(workers);
      EXPECT_EQ(r.estimates, ref.estimates) << where;
      EXPECT_EQ(r.state, ref.state) << where;
      EXPECT_EQ(r.log_weights, ref.log_weights) << where;
      EXPECT_EQ(r.counters, ref.counters) << where;
    }
  }
}

TEST(DistributedPf, ConvergesOnRobotArm) {
  sim::RobotArmScenario scenario;
  scenario.reset(21);
  ArmFilterF pf(scenario.make_model<float>(), small_config());
  const double tail_err = run_arm(pf, scenario, 80, 20);
  // Initial object offset is ~0.42 m; a converged filter tracks to within
  // a few centimetres.
  EXPECT_LT(tail_err, 0.3);
}

TEST(DistributedPf, TinyFilterFailsToConverge) {
  // The Fig 8 contrast: 2 x 2 particles cannot track.
  sim::RobotArmScenario scenario;
  scenario.reset(21);
  core::FilterConfig cfg = small_config();
  cfg.particles_per_filter = 2;
  cfg.num_filters = 2;
  cfg.exchange_particles = 0;
  cfg.scheme = topology::ExchangeScheme::kNone;
  ArmFilterF pf(scenario.make_model<float>(), cfg);
  const double tail_err = run_arm(pf, scenario, 80, 20);
  sim::RobotArmScenario scenario2;
  scenario2.reset(21);
  ArmFilterF big(scenario2.make_model<float>(), small_config());
  const double big_err = run_arm(big, scenario2, 80, 20);
  EXPECT_GT(tail_err, big_err * 2.0);
}

class SchemeTest : public ::testing::TestWithParam<topology::ExchangeScheme> {};

TEST_P(SchemeTest, RunsAndStaysFinite) {
  sim::RobotArmScenario scenario;
  scenario.reset(8);
  core::FilterConfig cfg = small_config();
  cfg.scheme = GetParam();
  ArmFilterF pf(scenario.make_model<float>(), cfg);
  std::vector<float> z, u;
  for (int k = 0; k < 20; ++k) {
    const auto step = scenario.advance();
    z.assign(step.z.begin(), step.z.end());
    u.assign(step.u.begin(), step.u.end());
    pf.step(z, u);
  }
  for (const float v : pf.estimate()) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeTest,
                         ::testing::Values(topology::ExchangeScheme::kNone,
                                           topology::ExchangeScheme::kAllToAll,
                                           topology::ExchangeScheme::kRing,
                                           topology::ExchangeScheme::kTorus2D));

class DeviceResamplerTest
    : public ::testing::TestWithParam<core::ResampleAlgorithm> {};

TEST_P(DeviceResamplerTest, ConvergesOnRobotArm) {
  sim::RobotArmScenario scenario;
  scenario.reset(33);
  core::FilterConfig cfg = small_config();
  cfg.resample = GetParam();
  ArmFilterF pf(scenario.make_model<float>(), cfg);
  EXPECT_LT(run_arm(pf, scenario, 80, 20), 0.35) << core::to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Algorithms, DeviceResamplerTest,
                         ::testing::Values(core::ResampleAlgorithm::kRws,
                                           core::ResampleAlgorithm::kVose,
                                           core::ResampleAlgorithm::kSystematic,
                                           core::ResampleAlgorithm::kStratified));

TEST(DistributedPf, PhiloxGeneratorConverges) {
  sim::RobotArmScenario scenario;
  scenario.reset(13);
  core::FilterConfig cfg = small_config();
  cfg.generator = prng::Generator::kPhilox;
  ArmFilterF pf(scenario.make_model<float>(), cfg);
  EXPECT_LT(run_arm(pf, scenario, 80, 20), 0.35);
}

TEST(DistributedPf, WeightedMeanEstimatorConverges) {
  sim::RobotArmScenario scenario;
  scenario.reset(13);
  core::FilterConfig cfg = small_config();
  cfg.estimator = core::EstimatorKind::kWeightedMean;
  ArmFilterF pf(scenario.make_model<float>(), cfg);
  EXPECT_LT(run_arm(pf, scenario, 80, 20), 0.35);
}

TEST(DistributedPf, DoublePrecisionConverges) {
  sim::RobotArmScenario scenario;
  scenario.reset(13);
  ArmFilterD pf(scenario.make_model<double>(), small_config());
  EXPECT_LT(run_arm(pf, scenario, 80, 20), 0.35);
}

TEST(DistributedPf, FloatAndDoubleAgreeOnAccuracy) {
  // Sec. VI: single precision "does not improve our estimation accuracy by
  // a meaningful amount" vs double. Compare tail errors.
  sim::RobotArmScenario s1, s2;
  s1.reset(55);
  s2.reset(55);
  ArmFilterF pf_f(s1.make_model<float>(), small_config());
  ArmFilterD pf_d(s2.make_model<double>(), small_config());
  const double ef = run_arm(pf_f, s1, 80, 20);
  const double ed = run_arm(pf_d, s2, 80, 20);
  EXPECT_LT(ef, 2.5 * ed + 0.1);
  EXPECT_LT(ed, 2.5 * ef + 0.1);
}

TEST(DistributedPf, EssThresholdPolicyRuns) {
  sim::RobotArmScenario scenario;
  scenario.reset(13);
  core::FilterConfig cfg = small_config();
  cfg.policy = resample::ResamplePolicy::ess_threshold(0.5);
  ArmFilterF pf(scenario.make_model<float>(), cfg);
  EXPECT_LT(run_arm(pf, scenario, 80, 20), 0.45);
}

TEST(DistributedPf, RandomFrequencyPolicyRuns) {
  sim::RobotArmScenario scenario;
  scenario.reset(13);
  core::FilterConfig cfg = small_config();
  cfg.policy = resample::ResamplePolicy::random_frequency(0.5);
  ArmFilterF pf(scenario.make_model<float>(), cfg);
  EXPECT_LT(run_arm(pf, scenario, 80, 20), 0.45);
}

TEST(DistributedPf, MeanEssIsReported) {
  sim::RobotArmScenario scenario;
  scenario.reset(3);
  ArmFilterF pf(scenario.make_model<float>(), small_config());
  std::vector<float> z, u;
  const auto step = scenario.advance();
  z.assign(step.z.begin(), step.z.end());
  u.assign(step.u.begin(), step.u.end());
  pf.step(z, u);
  EXPECT_GT(pf.mean_ess(), 0.0);
  EXPECT_LE(pf.mean_ess(), static_cast<double>(pf.config().particles_per_filter));
}

TEST(DistributedPf, LocalEstimatesAccessible) {
  sim::RobotArmScenario scenario;
  scenario.reset(3);
  ArmFilterF pf(scenario.make_model<float>(), small_config());
  std::vector<float> z, u;
  const auto step = scenario.advance();
  z.assign(step.z.begin(), step.z.end());
  u.assign(step.u.begin(), step.u.end());
  pf.step(z, u);
  for (std::size_t g = 0; g < pf.config().num_filters; ++g) {
    EXPECT_EQ(pf.local_estimate(g).size(), scenario.model().state_dim());
  }
}

TEST(DistributedPf, SharedDeviceAcrossFilters) {
  auto dev = std::make_shared<device::Device>(2);
  sim::RobotArmScenario scenario;
  scenario.reset(3);
  core::FilterConfig cfg = small_config();
  ArmFilterF a(scenario.make_model<float>(), cfg, dev);
  ArmFilterF b(scenario.make_model<float>(), cfg, dev);
  std::vector<float> z, u;
  const auto step = scenario.advance();
  z.assign(step.z.begin(), step.z.end());
  u.assign(step.u.begin(), step.u.end());
  a.step(z, u);
  b.step(z, u);
  // Same config, same seed, same device: identical estimates.
  EXPECT_EQ(std::vector<float>(a.estimate().begin(), a.estimate().end()),
            std::vector<float>(b.estimate().begin(), b.estimate().end()));
}

TEST(DistributedPf, SharedDeviceStress) {
  // Many interleaved rounds of several filters over one device: exercises
  // the pool's job hand-off path hard (a TSan target for the cv_done_
  // synchronization) and checks the filters stay independent.
  auto dev = std::make_shared<device::Device>(4);
  sim::RobotArmScenario scenario;
  scenario.reset(29);
  core::FilterConfig cfg = small_config();
  cfg.particles_per_filter = 16;
  cfg.num_filters = 8;
  std::vector<ArmFilterF> filters;
  filters.reserve(3);
  for (int i = 0; i < 3; ++i) {
    filters.emplace_back(scenario.make_model<float>(), cfg, dev);
  }
  std::vector<float> z, u;
  for (int k = 0; k < 20; ++k) {
    const auto step = scenario.advance();
    z.assign(step.z.begin(), step.z.end());
    u.assign(step.u.begin(), step.u.end());
    for (auto& pf : filters) pf.step(z, u);
  }
  // Same config, same seed, same shared device: all three agree bit-exactly.
  const std::vector<float> e0(filters[0].estimate().begin(),
                              filters[0].estimate().end());
  for (std::size_t i = 1; i < filters.size(); ++i) {
    EXPECT_EQ(e0, std::vector<float>(filters[i].estimate().begin(),
                                     filters[i].estimate().end()));
  }
}

// The particle stores, the PRNG buffer and the per-particle kernel scratch
// are sized without being written, and each is first written by the kernel
// that owns it. A checked filter poisons them (NaN, 0xFFFFFFFF), so a kernel
// that read an element before any kernel wrote it would split the checked
// and unchecked trajectories or trip a check. Rejection is left out until
// its fixed trial cap scales with the group (the rejection item in
// ROADMAP.md): its checked path can fail the distribution check on its own.
using FirstTouchCase =
    std::tuple<core::ResampleAlgorithm, prng::Generator, double, std::size_t>;

class DistributedPfFirstTouch : public ::testing::TestWithParam<FirstTouchCase> {};

TEST_P(DistributedPfFirstTouch, CheckedMatchesUnchecked) {
  const auto [resample, generator, roughening, workers] = GetParam();
  const auto run = [&](bool checked) {
    sim::RobotArmScenario scenario;
    scenario.reset(7);
    core::FilterConfig cfg = small_config();
    cfg.particles_per_filter = 64;
    cfg.num_filters = 16;
    cfg.resample = resample;
    cfg.generator = generator;
    cfg.roughening_k = roughening;
    cfg.workers = workers;
    cfg.check_invariants = checked;
    ArmFilterF pf(scenario.make_model<float>(), cfg);
    std::vector<float> z, u, trajectory;
    for (int k = 0; k < 6; ++k) {
      const auto step = scenario.advance();
      z.assign(step.z.begin(), step.z.end());
      u.assign(step.u.begin(), step.u.end());
      pf.step(z, u);
      trajectory.insert(trajectory.end(), pf.estimate().begin(), pf.estimate().end());
    }
    const auto state = pf.export_state();
    trajectory.insert(trajectory.end(), state.state.begin(), state.state.end());
    trajectory.insert(trajectory.end(), state.log_weights.begin(),
                      state.log_weights.end());
    return trajectory;
  };
  const std::vector<float> checked = run(true);
  const std::vector<float> unchecked = run(false);
  ASSERT_EQ(checked.size(), unchecked.size());
  for (std::size_t i = 0; i < checked.size(); ++i) {
    // Bitwise: a NaN that leaked from a poisoned slot compares unequal.
    ASSERT_EQ(std::bit_cast<std::uint32_t>(checked[i]),
              std::bit_cast<std::uint32_t>(unchecked[i]))
        << "element " << i;
  }
}

std::string first_touch_name(const ::testing::TestParamInfo<FirstTouchCase>& info) {
  const auto& [resample, generator, roughening, workers] = info.param;
  return std::string(core::to_string(resample)) +
         (generator == prng::Generator::kMtgp ? "_mtgp" : "_philox") +
         (roughening > 0.0 ? "_roughened" : "") + "_w" + std::to_string(workers);
}

INSTANTIATE_TEST_SUITE_P(
    AllResamplers, DistributedPfFirstTouch,
    ::testing::Combine(::testing::Values(core::ResampleAlgorithm::kRws,
                                         core::ResampleAlgorithm::kVose,
                                         core::ResampleAlgorithm::kSystematic,
                                         core::ResampleAlgorithm::kStratified,
                                         core::ResampleAlgorithm::kMetropolis),
                       ::testing::Values(prng::Generator::kMtgp, prng::Generator::kPhilox),
                       ::testing::Values(0.0, 0.2),
                       ::testing::Values<std::size_t>(1, 4)),
    first_touch_name);

TEST(DistributedPf, StageTimersCoverAllKernels) {
  sim::RobotArmScenario scenario;
  scenario.reset(3);
  ArmFilterF pf(scenario.make_model<float>(), small_config());
  std::vector<float> z, u;
  for (int k = 0; k < 5; ++k) {
    const auto step = scenario.advance();
    z.assign(step.z.begin(), step.z.end());
    u.assign(step.u.begin(), step.u.end());
    pf.step(z, u);
  }
  EXPECT_GT(pf.timers().seconds(core::Stage::kRand), 0.0);
  EXPECT_GT(pf.timers().seconds(core::Stage::kSampling), 0.0);
  EXPECT_GT(pf.timers().seconds(core::Stage::kLocalSort), 0.0);
  EXPECT_GT(pf.timers().seconds(core::Stage::kGlobalEstimate), 0.0);
  EXPECT_GT(pf.timers().seconds(core::Stage::kExchange), 0.0);
  EXPECT_GT(pf.timers().seconds(core::Stage::kResampling), 0.0);
}

TEST(DistributedPf, NoExchangeSkipsExchangeStage) {
  sim::RobotArmScenario scenario;
  scenario.reset(3);
  core::FilterConfig cfg = small_config();
  cfg.scheme = topology::ExchangeScheme::kNone;
  ArmFilterF pf(scenario.make_model<float>(), cfg);
  std::vector<float> z, u;
  const auto step = scenario.advance();
  z.assign(step.z.begin(), step.z.end());
  u.assign(step.u.begin(), step.u.end());
  pf.step(z, u);
  EXPECT_EQ(pf.timers().seconds(core::Stage::kExchange), 0.0);
}

}  // namespace
