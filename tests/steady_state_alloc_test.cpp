// Steady-state allocation pin: once a filter has run its first round, a
// step() must not touch the heap. Every kernel of the round (PRNG fill,
// sampling + weighting, local sort, global estimate, exchange, resampling
// with its diagnostics) works in buffers sized at construction. This binary
// replaces the global operator new to count allocations, so it is kept apart
// from the other test binaries.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

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
  device::Backend backend;
  double roughening;
};

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
  cfg.backend = c.backend;
  cfg.roughening_k = c.roughening;
  cfg.workers = 1;
  cfg.check_invariants = false;  // the checker's reports may allocate
  core::DistributedParticleFilter<models::RobotArmModel<float>> pf(
      scenario.make_model<float>(), cfg);
  std::vector<std::vector<float>> zs, us;
  for (int k = 0; k < 6; ++k) {
    const auto step = scenario.advance();
    zs.emplace_back(step.z.begin(), step.z.end());
    us.emplace_back(step.u.begin(), step.u.end());
  }
  pf.step(zs[0], us[0]);  // warm-up round
  const std::size_t before = g_allocations.load();
  for (std::size_t k = 1; k < zs.size(); ++k) pf.step(zs[k], us[k]);
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const auto r :
       {core::ResampleAlgorithm::kRws, core::ResampleAlgorithm::kVose,
        core::ResampleAlgorithm::kSystematic, core::ResampleAlgorithm::kStratified,
        core::ResampleAlgorithm::kMetropolis, core::ResampleAlgorithm::kRejection}) {
    for (const auto g : {prng::Generator::kMtgp, prng::Generator::kPhilox}) {
      for (const auto b : {device::Backend::kScalar, device::Backend::kSimd}) {
        cases.push_back({r, g, b, 0.0});
      }
    }
  }
  cases.push_back({core::ResampleAlgorithm::kRws, prng::Generator::kMtgp,
                   device::Backend::kScalar, 0.2});
  cases.push_back({core::ResampleAlgorithm::kVose, prng::Generator::kPhilox,
                   device::Backend::kSimd, 0.2});
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  return "resample" + std::to_string(static_cast<int>(c.resample)) +
         (c.generator == prng::Generator::kMtgp ? "_mtgp_" : "_philox_") +
         device::to_string(c.backend) + (c.roughening > 0.0 ? "_roughened" : "");
}

INSTANTIATE_TEST_SUITE_P(AllKernels, SteadyStateAllocation,
                         ::testing::ValuesIn(all_cases()), case_name);

}  // namespace
