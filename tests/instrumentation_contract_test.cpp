// The filters' instrumentation contract: what an attached Telemetry holds
// after K steps. Pins, for the distributed filter (1 and 4 workers, Ring
// exchange, whose stage is two launches) and the centralized filter, with
// ESTHERA_PROFILE=sw:
//
//   * the exact counter, gauge and histogram names in the registry;
//   * the stage.* histogram counts and timers().launches() per stage;
//   * every span of a traced round with its parent;
//   * the profile accumulator names;
//   * the work.* counter values, for every resampler.
//
// These are the observable outputs of the per-stage instrumentation, so a
// refactor of how the filters wire it up must leave every one unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/centralized_pf.hpp"
#include "core/distributed_pf.hpp"
#include "models/robot_arm.hpp"
#include "sim/ground_truth.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace esthera;

constexpr int kSteps = 4;
constexpr std::uint64_t kTraceSeed = 0x5eed;

/// Scoped ESTHERA_PROFILE override, restored on destruction.
class ProfileEnv {
 public:
  explicit ProfileEnv(const char* value) {
    const char* prev = std::getenv("ESTHERA_PROFILE");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    ::setenv("ESTHERA_PROFILE", value, 1);
  }
  ~ProfileEnv() {
    if (had_prev_) {
      ::setenv("ESTHERA_PROFILE", prev_.c_str(), 1);
    } else {
      ::unsetenv("ESTHERA_PROFILE");
    }
  }
  ProfileEnv(const ProfileEnv&) = delete;
  ProfileEnv& operator=(const ProfileEnv&) = delete;

 private:
  bool had_prev_ = false;
  std::string prev_;
};

using Names = std::set<std::string>;
/// One round's spans in record order: (name, parent name), where the
/// parent of the round span is the request root "<request>".
using Round = std::vector<std::pair<std::string, std::string>>;

const char* const kWork[] = {
    "work.barriers",     "work.lockstep_phases",   "work.compare_exchanges",
    "work.scan_sweeps",  "work.rng_draws",         "work.metropolis_steps",
    "work.rejection_trials"};

Names as_set(const std::vector<std::string>& v) { return {v.begin(), v.end()}; }

/// Steps `pf` kSteps times, each round under its own minted request
/// context so every span carries a parent link.
template <typename Filter>
void run_traced(Filter& pf) {
  sim::RobotArmScenario scenario;
  scenario.reset(3);
  std::vector<float> z, u;
  for (int k = 0; k < kSteps; ++k) {
    const auto step = scenario.advance();
    z.assign(step.z.begin(), step.z.end());
    u.assign(step.u.begin(), step.u.end());
    const auto ctx = telemetry::TraceContext::mint(kTraceSeed, k);
    pf.step(z, u, &ctx);
  }
}

/// Spans of round k, resolved to (name, parent name) pairs.
Round round_spans(const telemetry::Telemetry& tel, int k) {
  const auto root = telemetry::TraceContext::mint(kTraceSeed, k);
  const auto spans = tel.trace.spans();
  std::map<std::uint64_t, std::string> by_id;
  for (const auto& s : spans) {
    if (s.trace_id == root.trace_id) by_id[s.span_id] = s.name;
  }
  Round out;
  for (const auto& s : spans) {
    if (s.trace_id != root.trace_id) continue;
    std::string parent = "?";
    if (s.parent_span_id == root.span_id) {
      parent = "<request>";
    } else if (const auto it = by_id.find(s.parent_span_id); it != by_id.end()) {
      parent = it->second;
    }
    out.emplace_back(s.name, parent);
  }
  return out;
}

std::map<std::string, std::uint64_t> work_values(const telemetry::Telemetry& tel) {
  std::map<std::string, std::uint64_t> out;
  for (const char* name : kWork) {
    if (const auto* c = tel.registry.find_counter(name)) out[name] = c->value();
  }
  return out;
}

// ------------------------------------------------------------- distributed

core::FilterConfig dist_config(std::size_t workers) {
  core::FilterConfig cfg;
  cfg.particles_per_filter = 16;
  cfg.num_filters = 8;
  cfg.scheme = topology::ExchangeScheme::kRing;
  cfg.exchange_particles = 1;
  cfg.workers = workers;
  cfg.seed = 21;
  return cfg;
}

const Names kDistCounters = {
    "exchange.particles",     "resample.degenerate_groups",
    "resample.skipped_groups", "steps",
    "work.barriers",          "work.compare_exchanges",
    "work.lockstep_phases",   "work.metropolis_steps",
    "work.rejection_trials",  "work.rng_draws",
    "work.scan_sweeps"};

Names dist_gauges() {
  Names g = {"device.launches",       "filter.num_filters",
             "filter.particles_per_filter", "pool.indices_executed",
             "pool.jobs_executed",    "pool.max_queue_depth",
             "profile.mode",          "profile.unavailable",
             "rng.normals_budget",    "rng.normals_high_water",
             "rng.uniforms_budget",   "rng.uniforms_high_water"};
  for (const char* stage : {"rand", "sampling", "local_sort", "global_estimate",
                            "exchange", "resampling"}) {
    for (const char* m : {"ipc", "cycles_per_particle",
                          "cache_misses_per_particle", "cpu_ns_per_particle"}) {
      g.insert(std::string("profile.stage.") + stage + "." + m);
    }
  }
  return g;
}

const Names kDistStages = {"stage.rand",       "stage.sampling",
                           "stage.local_sort", "stage.global_estimate",
                           "stage.exchange",   "stage.resampling"};

const Round kDistRound = {{"prng", "step"},
                          {"sampling+weighting", "step"},
                          {"local sort", "step"},
                          {"global estimate", "step"},
                          {"exchange", "step"},
                          {"exchange", "step"},
                          {"resampling", "step"},
                          {"step", "<request>"}};

/// work.* after kSteps of dist_config() with RWS: identical at any worker
/// count (per-group tallies are summed commutatively).
const std::map<std::string, std::uint64_t> kDistRwsWork = {
    {"work.barriers", 28},        {"work.compare_exchanges", 2560},
    {"work.lockstep_phases", 576}, {"work.metropolis_steps", 0},
    {"work.rejection_trials", 0}, {"work.rng_draws", 5664},
    {"work.scan_sweeps", 256}};

void check_distributed(std::size_t workers) {
  SCOPED_TRACE("workers=" + std::to_string(workers));
  ProfileEnv env("sw");
  telemetry::Telemetry tel;
  core::FilterConfig cfg = dist_config(workers);
  cfg.telemetry = &tel;
  sim::RobotArmScenario scenario;
  scenario.reset(3);
  core::DistributedParticleFilter<models::RobotArmModel<float>> pf(
      scenario.make_model<float>(), cfg);
  run_traced(pf);

  EXPECT_EQ(as_set(tel.registry.counter_names()), kDistCounters);
  EXPECT_EQ(as_set(tel.registry.gauge_names()), dist_gauges());
  EXPECT_EQ(as_set(tel.registry.histogram_names()), kDistStages);
  EXPECT_EQ(as_set(tel.profile.accumulator_names()), kDistStages);
  for (std::size_t s = 0; s < core::kStageCount; ++s) {
    const auto stage = static_cast<core::Stage>(s);
    const std::string name = std::string("stage.") + core::StageTimers::key(stage);
    EXPECT_EQ(pf.timers().launches(stage), std::size_t{kSteps}) << name;
    EXPECT_EQ(tel.registry.find_histogram(name)->count(), std::uint64_t{kSteps})
        << name;
    // One host scope per stage per step; pool threads that joined a
    // launch add their own shares, so only the inline pool is exact.
    const std::uint64_t samples = tel.profile.find(name)->sums().samples;
    if (workers == 1) {
      EXPECT_EQ(samples, std::uint64_t{kSteps}) << name;
    } else {
      EXPECT_GE(samples, std::uint64_t{kSteps}) << name;
    }
  }
  for (int k = 0; k < kSteps; ++k) {
    EXPECT_EQ(round_spans(tel, k), kDistRound) << "round " << k;
  }
  EXPECT_EQ(tel.trace.span_count(), std::size_t{kSteps} * kDistRound.size());
  EXPECT_EQ(tel.registry.counter("steps").value(), std::uint64_t{kSteps});
  EXPECT_EQ(work_values(tel), kDistRwsWork);
  // The derived profile gauges are refreshed: task clock is always live.
  EXPECT_GT(tel.registry.gauge("profile.stage.sampling.cpu_ns_per_particle").value(),
            0.0);
}

TEST(InstrumentationContract, DistributedOneWorker) { check_distributed(1); }

TEST(InstrumentationContract, DistributedFourWorkers) { check_distributed(4); }

// ------------------------------------------------------------- centralized

core::CentralizedOptions central_options() {
  core::CentralizedOptions opts;
  opts.resample = core::ResampleAlgorithm::kRws;
  opts.seed = 33;
  return opts;
}

// resample.degenerate and resample.skipped are resolved at construction,
// so they read 0 in a run where no round was degenerate or skipped.
const Names kCentralCounters = {"resample.degenerate",   "resample.skipped",
                                "steps",                 "work.metropolis_steps",
                                "work.rejection_trials", "work.rng_draws",
                                "work.scan_sweeps"};

Names central_gauges() {
  Names g = {"filter.particles", "profile.mode", "profile.unavailable"};
  for (const char* stage : {"sampling", "global_estimate", "resampling"}) {
    for (const char* m : {"ipc", "cycles_per_particle",
                          "cache_misses_per_particle", "cpu_ns_per_particle"}) {
      g.insert(std::string("profile.stage.") + stage + "." + m);
    }
  }
  return g;
}

const Names kCentralStages = {"stage.global_estimate", "stage.resampling",
                              "stage.sampling"};

const Round kCentralRound = {{"sampling+weighting", "step"},
                             {"global estimate", "step"},
                             {"resampling", "step"},
                             {"step", "<request>"}};

const std::map<std::string, std::uint64_t> kCentralRwsWork = {
    {"work.metropolis_steps", 0}, {"work.rejection_trials", 0},
    {"work.rng_draws", 5124},     {"work.scan_sweeps", 56}};

TEST(InstrumentationContract, Centralized) {
  ProfileEnv env("sw");
  telemetry::Telemetry tel;
  core::CentralizedOptions opts = central_options();
  opts.telemetry = &tel;
  sim::RobotArmScenario scenario;
  scenario.reset(3);
  core::CentralizedParticleFilter<models::RobotArmModel<float>> pf(
      scenario.make_model<float>(), 128, opts);
  run_traced(pf);

  EXPECT_EQ(as_set(tel.registry.counter_names()), kCentralCounters);
  EXPECT_EQ(as_set(tel.registry.gauge_names()), central_gauges());
  EXPECT_EQ(as_set(tel.registry.histogram_names()), kCentralStages);
  EXPECT_EQ(as_set(tel.profile.accumulator_names()), kCentralStages);
  for (std::size_t s = 0; s < core::kStageCount; ++s) {
    const auto stage = static_cast<core::Stage>(s);
    const std::string name = std::string("stage.") + core::StageTimers::key(stage);
    const std::size_t expected = kCentralStages.count(name) ? kSteps : 0;
    EXPECT_EQ(pf.timers().launches(stage), expected) << name;
    if (expected == 0) continue;
    EXPECT_EQ(tel.registry.find_histogram(name)->count(), std::uint64_t{kSteps})
        << name;
    EXPECT_EQ(tel.profile.find(name)->sums().samples, std::uint64_t{kSteps})
        << name;
  }
  for (int k = 0; k < kSteps; ++k) {
    EXPECT_EQ(round_spans(tel, k), kCentralRound) << "round " << k;
  }
  EXPECT_EQ(tel.trace.span_count(), std::size_t{kSteps} * kCentralRound.size());
  EXPECT_EQ(tel.registry.counter("steps").value(), std::uint64_t{kSteps});
  EXPECT_EQ(tel.registry.counter("resample.degenerate").value(), 0u);
  EXPECT_EQ(tel.registry.counter("resample.skipped").value(), 0u);
  EXPECT_EQ(work_values(tel), kCentralRwsWork);
  EXPECT_GT(tel.registry.gauge("profile.stage.sampling.cpu_ns_per_particle").value(),
            0.0);
}

// ------------------------------------------------ work.* for every resampler

const core::ResampleAlgorithm kAlgorithms[] = {
    core::ResampleAlgorithm::kRws,        core::ResampleAlgorithm::kVose,
    core::ResampleAlgorithm::kSystematic, core::ResampleAlgorithm::kStratified,
    core::ResampleAlgorithm::kMetropolis, core::ResampleAlgorithm::kRejection};

TEST(InstrumentationContract, WorkTalliesForEveryResampler) {
  // Rows: {barriers, lockstep, compare-exchanges, scan sweeps, rng draws,
  // metropolis steps, rejection trials}; the centralized filter registers
  // only the last four.
  const std::vector<std::vector<std::uint64_t>> dist_expected = {
      {28, 576, 2560, 256, 5664, 0, 0},       // RWS
      {28, 320, 2560, 0, 5664, 0, 0},         // Vose
      {28, 576, 2560, 256, 5664, 0, 0},       // systematic
      {28, 576, 2560, 256, 5664, 0, 0},       // stratified
      {28, 832, 2560, 0, 22048, 8192, 0},     // Metropolis
      {28, 1266, 2560, 0, 15022, 0, 4935}};   // rejection
  const std::vector<std::vector<std::uint64_t>> central_expected = {
      {56, 5124, 0, 0},        // RWS
      {0, 5636, 0, 0},         // Vose
      {56, 4616, 0, 0},        // systematic
      {56, 5124, 0, 0},        // stratified
      {0, 20996, 8192, 0},     // Metropolis
      {0, 32508, 0, 14204}};   // rejection
  for (std::size_t a = 0; a < std::size(kAlgorithms); ++a) {
    SCOPED_TRACE("resampler " + std::to_string(a));
    {
      telemetry::Telemetry tel;
      core::FilterConfig cfg = dist_config(1);
      cfg.resample = kAlgorithms[a];
      cfg.telemetry = &tel;
      sim::RobotArmScenario scenario;
      scenario.reset(3);
      core::DistributedParticleFilter<models::RobotArmModel<float>> pf(
          scenario.make_model<float>(), cfg);
      run_traced(pf);
      std::vector<std::uint64_t> got;
      for (const char* name : kWork) got.push_back(tel.registry.counter(name).value());
      EXPECT_EQ(got, dist_expected[a]) << "distributed";
    }
    {
      telemetry::Telemetry tel;
      core::CentralizedOptions opts = central_options();
      opts.resample = kAlgorithms[a];
      opts.telemetry = &tel;
      // The checker never changes a counter. On the rejection row it would
      // abort: with one group of 128 the weight skew nears the fixed trial
      // cap of 128, a known resampler bias its chi-square bound catches.
      opts.check_invariants = false;
      sim::RobotArmScenario scenario;
      scenario.reset(3);
      core::CentralizedParticleFilter<models::RobotArmModel<float>> pf(
          scenario.make_model<float>(), 128, opts);
      run_traced(pf);
      std::vector<std::uint64_t> got;
      for (const char* name : kWork) {
        if (const auto* c = tel.registry.find_counter(name)) got.push_back(c->value());
      }
      EXPECT_EQ(got, central_expected[a]) << "centralized";
    }
  }
}

}  // namespace
