// Steady-state allocation pin: once a filter has run its first round, a
// step() must not touch the heap. Every kernel of the round (PRNG fill,
// sampling + weighting, local sort, global estimate, exchange, resampling
// with its diagnostics) works in buffers sized at construction, and a pool
// dispatch reuses one job slot, so the pin holds at 4 workers as at 1. The
// GDPF/CDPF/RPA baselines are pinned the same way.
//
// The same counters bound a serve session's footprint: a SessionManager
// session holds only its filter's persistent state, about its checkpoint
// blob, because every step borrows its round scratch from the manager's
// workspace pool. This binary replaces the global operator new to count
// allocations and live bytes, so it is kept apart from the other test
// binaries.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "core/baseline_filters.hpp"
#include "core/distributed_pf.hpp"
#include "models/robot_arm.hpp"
#include "serve/session_manager.hpp"
#include "sim/ground_truth.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
/// Bytes requested and not yet freed; each block's size sits in a header.
std::atomic<std::size_t> g_live_bytes{0};
constexpr std::size_t kHeader = alignof(std::max_align_t);
}  // namespace

// GCC flags free() inside a replacement operator delete as mismatched with
// operator new once the two are inlined into one caller; here both sides
// are the malloc/free pair defined below.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* raw = std::malloc(n + kHeader)) {
    *static_cast<std::size_t*>(raw) = n;
    g_live_bytes.fetch_add(n, std::memory_order_relaxed);
    return static_cast<char*>(raw) + kHeader;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  char* raw = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(*reinterpret_cast<std::size_t*>(raw),
                         std::memory_order_relaxed);
  std::free(raw);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
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

using ArmModel = models::RobotArmModel<float>;
using Manager = serve::SessionManager<ArmModel>;

struct SessionShape {
  std::size_t m;
  std::size_t n;
};

void PrintTo(const SessionShape& s, std::ostream* os) {
  *os << "m=" << s.m << ", N=" << s.n;
}

/// Opens `sessions` sessions of `shape` in `mgr` and steps each `steps`
/// times through run_batch(); returns their ids.
std::vector<Manager::SessionId> open_and_step(Manager& mgr, const SessionShape& shape,
                                              std::size_t sessions, std::size_t steps) {
  sim::RobotArmScenario scenario;
  scenario.reset(7);
  std::vector<std::vector<float>> zs, us;
  for (std::size_t k = 0; k < steps; ++k) {
    const auto step = scenario.advance();
    zs.emplace_back(step.z.begin(), step.z.end());
    us.emplace_back(step.u.begin(), step.u.end());
  }
  std::vector<Manager::SessionId> ids;
  for (std::size_t s = 0; s < sessions; ++s) {
    core::FilterConfig cfg;
    cfg.particles_per_filter = shape.m;
    cfg.num_filters = shape.n;
    cfg.seed = 300 + s;
    cfg.check_invariants = false;  // a checker is per-filter debug state
    const auto opened = mgr.open_session(scenario.make_model<float>(), cfg);
    EXPECT_TRUE(opened.ok());
    ids.push_back(opened.id);
  }
  for (std::size_t k = 0; k < steps; ++k) {
    for (const auto id : ids) EXPECT_TRUE(mgr.submit(id, zs[k], us[k]).ok());
    while (mgr.run_batch().dispatched > 0) {
    }
  }
  return ids;
}

class SessionFootprint : public ::testing::TestWithParam<SessionShape> {};

TEST_P(SessionFootprint, ResidentSessionCostsAboutItsCheckpoint) {
  // Everything the manager holds for its sessions, the pooled workspaces
  // included, divided by the session count.
  constexpr std::size_t kSessions = 64;
  serve::ServeConfig scfg;
  scfg.workers = 2;
  Manager mgr(scfg);
  const std::size_t before = g_live_bytes.load();
  const auto ids = open_and_step(mgr, GetParam(), kSessions, 3);
  const std::size_t per_session = (g_live_bytes.load() - before) / kSessions;
  const auto blob = mgr.checkpoint(ids.front());
  ASSERT_TRUE(blob.has_value());
  EXPECT_LE(static_cast<double>(per_session), 1.25 * static_cast<double>(blob->size()))
      << per_session << " B per session, checkpoint " << blob->size() << " B";
}

INSTANTIATE_TEST_SUITE_P(ServeShapes, SessionFootprint,
                         ::testing::Values(SessionShape{32, 8}, SessionShape{64, 16}),
                         [](const ::testing::TestParamInfo<SessionShape>& info) {
                           return "m" + std::to_string(info.param.m) + "_n" +
                                  std::to_string(info.param.n);
                         });

TEST(SessionFootprint, OneDispatcherNeedsAtMostOneWorkspacePerWorker) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    serve::ServeConfig scfg;
    scfg.workers = workers;
    scfg.max_batch = 16;
    Manager mgr(scfg);
    (void)open_and_step(mgr, {32, 8}, 48, 2);  // warm-up
    EXPECT_LE(mgr.workspace_count(), mgr.worker_count());
    // Further batches from this one thread reuse the pooled workspaces.
    (void)open_and_step(mgr, {32, 8}, 16, 6);
    EXPECT_LE(mgr.workspace_count(), mgr.worker_count()) << workers << " workers";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, BaselineSteadyStateAllocation, ::testing::ValuesIn(baseline_cases()),
    [](const ::testing::TestParamInfo<BaselineCase>& info) {
      return std::string(core::to_string(info.param.kind)) + "_w" +
             std::to_string(info.param.workers);
    });

}  // namespace
