// Centralized (reference) particle-filter tests: exactness against the
// Kalman filter on linear-Gaussian systems, tracking on the nonlinear
// growth benchmark, degeneracy/ESS behaviour, and resampler equivalence.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/centralized_pf.hpp"
#include "estimation/kalman.hpp"
#include "estimation/metrics.hpp"
#include "models/growth.hpp"
#include "models/linear_gauss.hpp"
#include "sim/ground_truth.hpp"

namespace {

using namespace esthera;

using LgModel = models::LinearGaussModel<double>;
using LgFilter = core::CentralizedParticleFilter<LgModel>;
using GrowthFilter = core::CentralizedParticleFilter<models::GrowthModel<double>>;

estimation::Matrix diag2(double a, double b) {
  estimation::Matrix m(2, 2);
  m(0, 0) = a;
  m(1, 1) = b;
  return m;
}

TEST(CentralizedPf, MatchesKalmanOnLinearGaussian) {
  const auto p = models::LinearGaussParams<double>::constant_velocity(0.1, 0.05, 0.2);
  const LgModel model(p);
  sim::ModelSimulator<LgModel> sim(model, 31);

  core::CentralizedOptions opts;
  opts.estimator = core::EstimatorKind::kWeightedMean;
  opts.seed = 7;
  LgFilter pf(model, 4000, opts);

  estimation::Matrix a(2, 2), c(1, 2), q = diag2(0.05 * 0.05, 0.05 * 0.05);
  a(0, 0) = 1; a(0, 1) = 0.1; a(1, 1) = 1;
  c(0, 0) = 1;
  estimation::Matrix r(1, 1);
  r(0, 0) = 0.2 * 0.2;
  estimation::KalmanFilter kf(a, estimation::Matrix(0, 0), c, q, r, {0.0, 0.0},
                              diag2(1.0, 1.0));

  estimation::ErrorAccumulator pf_err, kf_err;
  double disagreement = 0.0;
  int steps = 0;
  for (int k = 0; k < 150; ++k) {
    const auto step = sim.advance();
    pf.step(step.z);
    kf.predict();
    kf.update(step.z);
    if (k >= 20) {
      pf_err.add_scalar(pf.estimate()[0] - step.truth[0]);
      kf_err.add_scalar(kf.state()[0] - step.truth[0]);
      disagreement += std::abs(pf.estimate()[0] - kf.state()[0]);
      ++steps;
    }
  }
  // The PF posterior mean approximates the exact KF mean closely.
  EXPECT_LT(disagreement / steps, 0.05);
  EXPECT_LT(pf_err.rmse(), kf_err.rmse() * 1.3);
}

TEST(CentralizedPf, TracksGrowthModel) {
  const models::GrowthModel<double> model;
  sim::ModelSimulator<models::GrowthModel<double>> sim(model, 17);
  core::CentralizedOptions opts;
  opts.estimator = core::EstimatorKind::kWeightedMean;
  GrowthFilter pf(model, 2000, opts);
  estimation::ErrorAccumulator err;
  for (int k = 0; k < 100; ++k) {
    const auto step = sim.advance();
    pf.step(step.z);
    err.add_scalar(pf.estimate()[0] - step.truth[0]);
  }
  // The bimodal growth model admits RMSE of a few units with resampling;
  // without a working filter the error diverges to tens.
  EXPECT_LT(err.rmse(), 6.0);
}

TEST(CentralizedPf, MoreParticlesDoNotHurt) {
  const models::GrowthModel<double> model;
  const auto run = [&](std::size_t n) {
    sim::ModelSimulator<models::GrowthModel<double>> sim(model, 23);
    core::CentralizedOptions opts;
    opts.estimator = core::EstimatorKind::kWeightedMean;
    opts.seed = 5;
    GrowthFilter pf(model, n, opts);
    estimation::ErrorAccumulator err;
    for (int k = 0; k < 120; ++k) {
      const auto step = sim.advance();
      pf.step(step.z);
      err.add_scalar(pf.estimate()[0] - step.truth[0]);
    }
    return err.rmse();
  };
  EXPECT_LT(run(2000), run(8) * 1.2);  // tiny filters are clearly worse
}

TEST(CentralizedPf, EssCollapsesWithoutResampling) {
  const models::GrowthModel<double> model;
  sim::ModelSimulator<models::GrowthModel<double>> sim(model, 3);
  core::CentralizedOptions opts;
  // Threshold 0 never triggers: pure SIS filter.
  opts.policy = resample::ResamplePolicy::ess_threshold(0.0);
  GrowthFilter pf(model, 512, opts);
  for (int k = 0; k < 30; ++k) {
    const auto step = sim.advance();
    pf.step(step.z);
  }
  // Degeneracy (paper Sec. II-B1): nearly all weight on a few particles.
  EXPECT_LT(pf.ess(), 16.0);
}

TEST(CentralizedPf, ResamplingKeepsEssHealthy) {
  // Individual steps can still dip (the growth likelihood is occasionally
  // very sharp), but with per-round resampling the population recovers:
  // the *mean* ESS stays high, unlike the SIS run above where it collapses
  // permanently.
  const models::GrowthModel<double> model;
  sim::ModelSimulator<models::GrowthModel<double>> sim(model, 3);
  GrowthFilter pf(model, 512, {});  // always resample (default)
  double sum_ess = 0.0;
  int n = 0;
  for (int k = 0; k < 30; ++k) {
    const auto step = sim.advance();
    pf.step(step.z);
    if (k >= 5) {
      sum_ess += pf.ess();
      ++n;
    }
  }
  EXPECT_GT(sum_ess / n, 64.0);
}

class ResamplerEquivalenceTest
    : public ::testing::TestWithParam<core::ResampleAlgorithm> {};

TEST_P(ResamplerEquivalenceTest, AllResamplersTrack) {
  const models::GrowthModel<double> model;
  sim::ModelSimulator<models::GrowthModel<double>> sim(model, 29);
  core::CentralizedOptions opts;
  opts.resample = GetParam();
  opts.estimator = core::EstimatorKind::kWeightedMean;
  GrowthFilter pf(model, 1500, opts);
  estimation::ErrorAccumulator err;
  for (int k = 0; k < 80; ++k) {
    const auto step = sim.advance();
    pf.step(step.z);
    err.add_scalar(pf.estimate()[0] - step.truth[0]);
  }
  EXPECT_LT(err.rmse(), 6.5) << core::to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ResamplerEquivalenceTest,
                         ::testing::Values(core::ResampleAlgorithm::kRws,
                                           core::ResampleAlgorithm::kVose,
                                           core::ResampleAlgorithm::kSystematic,
                                           core::ResampleAlgorithm::kStratified));

TEST(CentralizedPf, MaxWeightEstimatorSelectsAParticle) {
  const models::GrowthModel<double> model;
  sim::ModelSimulator<models::GrowthModel<double>> sim(model, 13);
  core::CentralizedOptions opts;
  opts.estimator = core::EstimatorKind::kMaxWeight;
  GrowthFilter pf(model, 256, opts);
  const auto step = sim.advance();
  pf.step(step.z);
  // The estimate must be one of the current particles.
  bool found = false;
  for (std::size_t i = 0; i < pf.particle_count(); ++i) {
    if (pf.particles().state(i)[0] == pf.estimate()[0]) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CentralizedPf, DeterministicPerSeed) {
  const models::GrowthModel<double> model;
  const auto run = [&](std::uint64_t seed) {
    sim::ModelSimulator<models::GrowthModel<double>> sim(model, 41);
    core::CentralizedOptions opts;
    opts.seed = seed;
    GrowthFilter pf(model, 300, opts);
    std::vector<double> estimates;
    for (int k = 0; k < 20; ++k) {
      const auto step = sim.advance();
      pf.step(step.z);
      estimates.push_back(pf.estimate()[0]);
    }
    return estimates;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(CentralizedPf, CheckedMatchesUncheckedWithUnwrittenStores) {
  // The particle stores start unwritten; a checked filter poisons them with
  // NaN, so any read before initialize()/sampling wrote a slot would split
  // the two filters' estimates.
  const models::GrowthModel<double> model;
  for (const auto r :
       {core::ResampleAlgorithm::kRws, core::ResampleAlgorithm::kVose,
        core::ResampleAlgorithm::kSystematic, core::ResampleAlgorithm::kStratified,
        core::ResampleAlgorithm::kMetropolis}) {
    SCOPED_TRACE(core::to_string(r));
    const auto run = [&](bool checked) {
      sim::ModelSimulator<models::GrowthModel<double>> sim(model, 17);
      core::CentralizedOptions opts;
      opts.resample = r;
      opts.estimator = core::EstimatorKind::kWeightedMean;
      opts.check_invariants = checked;
      GrowthFilter pf(model, 256, opts);
      std::vector<double> estimates;
      for (int k = 0; k < 10; ++k) {
        pf.step(sim.advance().z);
        estimates.push_back(pf.estimate()[0]);
      }
      return estimates;
    };
    EXPECT_EQ(run(true), run(false));
  }
}

TEST(CentralizedPf, StageTimersAccumulate) {
  const models::GrowthModel<double> model;
  sim::ModelSimulator<models::GrowthModel<double>> sim(model, 1);
  GrowthFilter pf(model, 512, {});
  for (int k = 0; k < 10; ++k) {
    const auto step = sim.advance();
    pf.step(step.z);
  }
  EXPECT_GT(pf.timers().seconds(core::Stage::kSampling), 0.0);
  EXPECT_GT(pf.timers().seconds(core::Stage::kResampling), 0.0);
  EXPECT_NEAR(pf.timers().fraction(core::Stage::kSampling) +
                  pf.timers().fraction(core::Stage::kGlobalEstimate) +
                  pf.timers().fraction(core::Stage::kResampling),
              1.0, 1e-9);
}

}  // namespace
