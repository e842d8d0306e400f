// Steady-state allocation pin: once a filter has run its first round, a
// step() must not touch the heap. Every kernel of the round (PRNG fill,
// sampling + weighting, local sort, global estimate, exchange, resampling
// with its diagnostics) works in buffers sized at construction, and a pool
// dispatch reuses one job slot, so the pin holds at 4 workers as at 1. The
// GDPF/CDPF/RPA baselines are pinned the same way. This binary replaces the
// global operator new to count allocations, so it is kept apart from the
// other test binaries.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "core/baseline_filters.hpp"
#include "core/distributed_pf.hpp"
#include "models/robot_arm.hpp"
#include "sim/ground_truth.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// GCC flags free() inside a replacement operator delete as mismatched with
// operator new once the two are inlined into one caller; here both sides
// are the malloc/free pair defined below.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace esthera;

struct Case {
  core::ResampleAlgorithm resample;
  prng::Generator generator;
  const char* row;  ///< "scalar" or "simd"; see all_cases()
  double roughening;
  std::size_t workers = 1;
};

/// Heap allocations made by steps 2..6 of `pf`, after a warm-up step.
template <typename Filter>
std::size_t steady_state_allocations(sim::RobotArmScenario& scenario, Filter& pf) {
  std::vector<std::vector<float>> zs, us;
  for (int k = 0; k < 6; ++k) {
    const auto step = scenario.advance();
    zs.emplace_back(step.z.begin(), step.z.end());
    us.emplace_back(step.u.begin(), step.u.end());
  }
  pf.step(zs[0], us[0]);  // warm-up round
  const std::size_t before = g_allocations.load();
  for (std::size_t k = 1; k < zs.size(); ++k) pf.step(zs[k], us[k]);
  return g_allocations.load() - before;
}

class SteadyStateAllocation : public ::testing::TestWithParam<Case> {};

TEST_P(SteadyStateAllocation, StepAllocatesNothingAfterWarmUp) {
  const Case c = GetParam();
  sim::RobotArmScenario scenario;
  scenario.reset(3);
  core::FilterConfig cfg;
  cfg.particles_per_filter = 64;
  cfg.num_filters = 16;
  cfg.resample = c.resample;
  cfg.generator = c.generator;
  cfg.roughening_k = c.roughening;
  cfg.workers = c.workers;
  cfg.check_invariants = false;  // the checker's reports may allocate
  core::DistributedParticleFilter<models::RobotArmModel<float>> pf(
      scenario.make_model<float>(), cfg);
  EXPECT_EQ(steady_state_allocations(scenario, pf), 0u);
}

struct BaselineCase {
  core::BaselineKind kind;
  std::size_t workers;
};

void PrintTo(const BaselineCase& c, std::ostream* os) {
  *os << core::to_string(c.kind) << " at " << c.workers << " workers";
}

class BaselineSteadyStateAllocation : public ::testing::TestWithParam<BaselineCase> {};

TEST_P(BaselineSteadyStateAllocation, StepAllocatesNothingAfterWarmUp) {
  const BaselineCase c = GetParam();
  sim::RobotArmScenario scenario;
  scenario.reset(3);
  core::BaselineDistributedFilter<models::RobotArmModel<float>> pf(
      scenario.make_model<float>(), 64, 16, {.kind = c.kind, .workers = c.workers});
  EXPECT_EQ(steady_state_allocations(scenario, pf), 0u);
}

/// Every resampler x generator pair runs as a `_scalar` and a `_simd` row.
/// The suffixes name the two lane-kernel rows this pin was written for.
/// Those rows have since been merged into one kernel set, so both now run
/// the same kernels; the pair is kept so that every case keeps its name.
std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const auto r :
       {core::ResampleAlgorithm::kRws, core::ResampleAlgorithm::kVose,
        core::ResampleAlgorithm::kSystematic, core::ResampleAlgorithm::kStratified,
        core::ResampleAlgorithm::kMetropolis, core::ResampleAlgorithm::kRejection}) {
    for (const auto g : {prng::Generator::kMtgp, prng::Generator::kPhilox}) {
      for (const char* row : {"scalar", "simd"}) cases.push_back({r, g, row, 0.0});
    }
  }
  cases.push_back({core::ResampleAlgorithm::kRws, prng::Generator::kMtgp, "scalar", 0.2});
  cases.push_back({core::ResampleAlgorithm::kVose, prng::Generator::kPhilox, "simd", 0.2});
  return cases;
}

/// The same rows on a 4-worker device: every launch then goes through the
/// pool's job slot instead of running inline.
std::vector<Case> four_worker_cases() {
  std::vector<Case> cases = all_cases();
  for (Case& c : cases) c.workers = 4;
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  return "resample" + std::to_string(static_cast<int>(c.resample)) +
         (c.generator == prng::Generator::kMtgp ? "_mtgp_" : "_philox_") + c.row +
         (c.roughening > 0.0 ? "_roughened" : "");
}

INSTANTIATE_TEST_SUITE_P(AllKernels, SteadyStateAllocation,
                         ::testing::ValuesIn(all_cases()), case_name);
INSTANTIATE_TEST_SUITE_P(FourWorkers, SteadyStateAllocation,
                         ::testing::ValuesIn(four_worker_cases()), case_name);

std::vector<BaselineCase> baseline_cases() {
  std::vector<BaselineCase> cases;
  for (const auto k :
       {core::BaselineKind::kGdpf, core::BaselineKind::kCdpf, core::BaselineKind::kRpa}) {
    for (const std::size_t w : {std::size_t{1}, std::size_t{4}}) cases.push_back({k, w});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, BaselineSteadyStateAllocation, ::testing::ValuesIn(baseline_cases()),
    [](const ::testing::TestParamInfo<BaselineCase>& info) {
      return std::string(core::to_string(info.param.kind)) + "_w" +
             std::to_string(info.param.workers);
    });

}  // namespace
