// Performance ledger: one pinned-seed workload per process, timed
// from outside through the public calls into each layer -- step(),
// timers(), submit(), run_batch(), pump(), migrate(), encode/decode_checkpoint
// and SpillStore::put/take. A traced run additionally attaches the existing
// Telemetry (spans, stage.*, profile task clock, work.*) for the per-layer
// split. Nothing inside src/ is instrumented for the ledger.
//
//   bench_ledger --workload filter_cpu|filter_wide|serve_many|cluster_zipf
//                [--seed S] [--seconds T] [--traced] [--smoke]
//                [--json PATH] [--trace PATH]
//
// Without --traced the process reports the end-to-end metrics; with it, the
// per-layer metrics (the first 3/4 of --seconds untraced, the last 1/4
// traced). Every run checks its outputs against a direct replay. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. Exit status 0 only when every
// check passed. ledger/README.md is the metric catalogue.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "serve/checkpoint.hpp"
#include "serve/cluster.hpp"
#include "serve/session_manager.hpp"
#include "serve/spill_store.hpp"

namespace {

using namespace esthera;
using Clock = std::chrono::steady_clock;
using Model = models::RobotArmModel<float>;
using Filter = core::DistributedParticleFilter<Model>;
using Manager = serve::SessionManager<Model>;
using Cluster = serve::ServeCluster<Model>;

// ---------------------------------------------------------------------------
// Metric catalogue. BENCHMARK.json declares the same names; ledger/run.py
// refuses a run whose metrics differ from it.

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
};

constexpr MetricDef kCatalogue[] = {
    {"throughput", "ops/s", true},
    {"latency_p50_ms", "ms", true},
    {"latency_p99_ms", "ms", true},
    {"cpu_us_per_op", "us", true},
    {"rss_mb", "MiB", true},
    {"setup_s", "s", true},
    {"core.stage.rand.ns_per_particle", "ns", false},
    {"core.stage.sampling.ns_per_particle", "ns", false},
    {"core.stage.local_sort.ns_per_particle", "ns", false},
    {"core.stage.global_estimate.ns_per_particle", "ns", false},
    {"core.stage.exchange.ns_per_particle", "ns", false},
    {"core.stage.resampling.ns_per_particle", "ns", false},
    {"core.residual_frac", "ratio", false},
    {"profile.stage.rand.cpu_ns_per_particle", "ns", false},
    {"profile.stage.sampling.cpu_ns_per_particle", "ns", false},
    {"profile.stage.local_sort.cpu_ns_per_particle", "ns", false},
    {"profile.stage.global_estimate.cpu_ns_per_particle", "ns", false},
    {"profile.stage.exchange.cpu_ns_per_particle", "ns", false},
    {"profile.stage.resampling.cpu_ns_per_particle", "ns", false},
    {"mcore.parallel_efficiency", "ratio", false},
    {"mcore.jobs_per_op", "count", false},
    {"mcore.indices_per_job", "count", false},
    {"work.barriers_per_step", "count", false},
    {"work.lockstep_phases_per_step", "count", false},
    {"work.compare_exchanges_per_step", "count", false},
    {"work.scan_sweeps_per_step", "count", false},
    {"work.rng_draws_per_step", "count", false},
    {"serve.submit_ns_p50", "ns", false},
    {"serve.submit_ns_p99", "ns", false},
    {"serve.run_batch_us_p50", "us", false},
    {"serve.batch_size_mean", "count", false},
    {"serve.fairness", "ratio", false},
    {"serve.queue_wait_ms_p50", "ms", false},
    {"serve.queue_wait_ms_p99", "ms", false},
    {"serve.step_us_p50", "us", false},
    {"serve.step_frac", "ratio", false},
    {"serve.trace_residual_frac", "ratio", false},
    {"cluster.submit_us_p50", "us", false},
    {"cluster.submit_restore_us_p50", "us", false},
    {"cluster.pump_ms_p50", "ms", false},
    {"cluster.pump_ms_p99", "ms", false},
    {"cluster.migrate_ms_p50", "ms", false},
    {"cluster.restore_frac", "ratio", false},
    {"cluster.spills_per_req", "count", false},
    {"checkpoint.encode_us", "us", false},
    {"checkpoint.decode_us", "us", false},
    {"checkpoint.bytes", "B", false},
    {"spill.put_us", "us", false},
    {"spill.take_us", "us", false},
    {"telemetry.trace_overhead_frac", "ratio", false},
};

/// The layer a per-layer metric belongs to: its name up to the first dot.
std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

// ---------------------------------------------------------------------------
// Workload shapes.

constexpr const char* kWorkloads[] = {"filter_cpu", "filter_wide", "serve_many",
                                      "cluster_zipf"};

/// Window steps the object-position RMSE note covers: a fixed count, so
/// the note is a pure function of the seed. It is not gated -- across seeds
/// the mismatched robot-arm model loses and regains the object, and the
/// RMSE spreads over an order of magnitude.
constexpr std::size_t kRmseSteps = 500;

struct Scale {
  std::size_t setup_min_reps;
  std::size_t setup_max_reps;
  std::size_t filter_warmup;      ///< untimed steps before the window
  std::size_t hash_steps;         ///< steps covered by the replay hash
  std::size_t serve_sessions;
  std::size_t serve_warmup;       ///< completions before the window
  std::size_t cluster_sessions;
  std::size_t cluster_resident;
  std::size_t cluster_clients;
  std::size_t cluster_warmup;
  std::size_t migrate_every;      ///< completions between migrations
  std::size_t calibration_reps;
  std::size_t replay_sessions;
};

constexpr Scale kFull{5, 25, 20, 50, 512, 1024, 1024, 256, 64, 2000, 512, 1000, 8};
constexpr Scale kSmoke{1, 1, 2, 5, 64, 64, 128, 32, 16, 64, 32, 20, 8};

/// Set-up repeats past setup_min_reps until this much time went into it.
constexpr double kSetupBudgetS = 1.0;

/// Ops a traced window may complete: the serve paths record three spans
/// per request, so this keeps every recorder below its 1 Mi span cap.
constexpr std::size_t kTracedOpCap = 250'000;
constexpr std::size_t kNoOpCap = ~std::size_t{0};

struct Options {
  std::string workload;
  std::uint64_t scenario_seed = 0;  ///< derived from --seed
  std::uint64_t filter_seed = 0;
  std::uint64_t zipf_seed = 0;
  double seconds = 10.0;
  bool traced = false;
  Scale scale = kFull;
  std::size_t workers = 1;
};

// ---------------------------------------------------------------------------
// Measurement helpers.

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host-noise sample: system-wide CPU steal ticks (/proc/stat) and this
/// process's involuntary context switches. Notes only, never gated.
struct HostSample {
  std::uint64_t steal_ticks = 0;
  std::uint64_t total_ticks = 0;
  long involuntary_switches = 0;
};

HostSample host_sample() {
  HostSample h;
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;  // "cpu": user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8 && stat; ++field) {
    std::uint64_t ticks = 0;
    stat >> ticks;
    h.total_ticks += ticks;
    if (field == 7) h.steal_ticks = ticks;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  h.involuntary_switches = ru.ru_nivcsw;
  return h;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Durations in fixed memory -- log buckets 1% wide from 10 ns to ~4 min --
/// so peak RSS, itself a reported metric, does not grow with the number of
/// ops a run completes. Count and sum are exact; a quantile interpolates
/// within its bucket by rank. (telemetry::LatencyHistogram's buckets are
/// 41% wide: a tight latency distribution that shifts inside one bucket
/// would read the same there.)
class Durations {
 public:
  void add(double seconds) {
    ++count_;
    sum_ += seconds;
    ++buckets_[bucket(seconds)];
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return ratio(sum_, static_cast<double>(count_)); }

  /// Nearest-rank q-quantile in seconds; 0 when empty.
  [[nodiscard]] double quantile(double q) const {
    const auto target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
    std::uint64_t below = 0;
    for (std::size_t b = 0; b < kBuckets && count_ > 0; ++b) {
      if (below + buckets_[b] >= target) {
        const double within = static_cast<double>(target - below) /
                              static_cast<double>(buckets_[b]);
        return kMinSeconds * std::pow(kRatio, static_cast<double>(b) - 1.0 + within);
      }
      below += buckets_[b];
    }
    return 0.0;
  }

 private:
  static constexpr double kMinSeconds = 1e-8;
  static constexpr double kRatio = 1.01;
  static constexpr std::size_t kBuckets = 2400;

  /// Bucket b >= 1 holds [kMin * r^(b-1), kMin * r^b); bucket 0 the rest.
  static std::size_t bucket(double seconds) {
    if (!(seconds > kMinSeconds)) return 0;
    const double b = std::floor(std::log(seconds / kMinSeconds) / std::log(kRatio)) + 1.0;
    return static_cast<std::size_t>(std::min(b, static_cast<double>(kBuckets - 1)));
  }

  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::array<std::uint64_t, kBuckets> buckets_{};
};

std::uint64_t fnv1a(std::uint64_t h, std::span<const float> values) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size_bytes(); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ull;
  }
  return h;
}

bool all_finite(std::span<const float> values) {
  return std::all_of(values.begin(), values.end(),
                     [](float v) { return std::isfinite(v); });
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

/// Wall and process-CPU time of one measured window.
struct Window {
  Clock::time_point t0{};
  double cpu0 = 0.0;
  double wall = 0.0;
  double cpu = 0.0;

  void start() {
    t0 = Clock::now();
    cpu0 = process_cpu_seconds();
  }
  [[nodiscard]] double elapsed() const { return seconds_between(t0, Clock::now()); }
  void stop() {
    wall = elapsed();
    cpu = process_cpu_seconds() - cpu0;
  }
};

/// Builds the system under test repeatedly, timing each build into
/// `setup_s` (the previous one is torn down untimed), and returns the last.
template <typename Rig, typename Make>
Rig set_up(const Options& o, Durations& setup_s, Make&& make) {
  Rig rig{};
  for (std::size_t k = 0; k < o.scale.setup_max_reps &&
                          (k < o.scale.setup_min_reps || setup_s.sum() < kSetupBudgetS);
       ++k) {
    rig = Rig{};
    const auto t0 = Clock::now();
    rig = make(k);
    setup_s.add(seconds_between(t0, Clock::now()));
  }
  return rig;
}

/// Everything one process measured and checked.
struct Run {
  std::map<std::string, double> metrics;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::pair<std::string, double>> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(std::string name, bool ok) { checks.emplace_back(std::move(name), ok); }
};

// ---------------------------------------------------------------------------
// Traffic: each session is a robot-arm tracker with its own scenario seed.
// The program under test only ever receives the generated (z, u) frames.

struct Tracker {
  sim::RobotArmScenario scenario;
  std::vector<float> z;
  std::vector<float> u;
  std::vector<double> truth;

  void reset(std::uint64_t seed) {
    scenario.reset(seed);
    next();
  }
  /// Advances to the next frame (the one the following request sends).
  void next() {
    const auto step = scenario.advance();
    z.assign(step.z.begin(), step.z.end());
    u.assign(step.u.begin(), step.u.end());
    truth = step.truth;
  }
};

/// Per-session inputs and bookkeeping shared by the serve and cluster loops.
struct Sessions {
  std::vector<Tracker> trackers;
  std::vector<Model> models;
  std::vector<core::FilterConfig> configs;
  std::vector<std::uint64_t> seeds;
  std::vector<std::uint64_t> accepted;  ///< frames the system accepted
  std::vector<std::uint64_t> completed;
  std::vector<std::uint64_t> restored;  ///< submits that restored from spill
  std::vector<std::uint8_t> migrated;

  Sessions(std::size_t n, std::size_t m, std::size_t groups, const Options& o)
      : trackers(n), configs(n), seeds(n) {
    for (std::size_t i = 0; i < n; ++i) {
      seeds[i] = o.scenario_seed + i;
      configs[i].particles_per_filter = m;
      configs[i].num_filters = groups;
      configs[i].seed = o.filter_seed + 7919 * i;
    }
    restart();
    for (const Tracker& tr : trackers) models.push_back(tr.scenario.make_model<float>());
  }

  /// Rewinds every tracker to frame 0 and clears the counts.
  void restart() {
    const std::size_t n = trackers.size();
    for (std::size_t i = 0; i < n; ++i) trackers[i].reset(seeds[i]);
    accepted.assign(n, 0);
    completed.assign(n, 0);
    restored.assign(n, 0);
    migrated.assign(n, 0);
  }
};

/// Stage and step wall time of a set of filter steps.
struct StepTimes {
  std::array<double, core::kStageCount> stage_s{};
  double step_s = 0.0;
  double particle_steps = 0.0;
};

/// Steps a direct single-worker filter through the frames session `i` had
/// accepted and reports whether it lands bit for bit on `served`.
bool replay_matches(const Sessions& ss, std::size_t i, std::span<const float> served,
                    telemetry::Telemetry* tel, StepTimes& times) {
  core::FilterConfig cfg = ss.configs[i];
  cfg.workers = 1;
  cfg.telemetry = tel;
  Filter pf(ss.models[i], cfg);
  Tracker tr;
  tr.reset(ss.seeds[i]);
  for (std::uint64_t k = 0; k < ss.accepted[i]; ++k) {
    const auto t0 = Clock::now();
    pf.step(tr.z, tr.u);
    times.step_s += seconds_between(t0, Clock::now());
    tr.next();
  }
  for (std::size_t s = 0; s < core::kStageCount; ++s) {
    times.stage_s[s] += pf.timers().seconds(static_cast<core::Stage>(s));
  }
  times.particle_steps +=
      static_cast<double>(pf.particle_count()) * static_cast<double>(ss.accepted[i]);
  return pf.step_index() == ss.accepted[i] && same_bits(pf.estimate(), served);
}

// ---------------------------------------------------------------------------
// Per-layer extraction shared by the filter and replay paths.

void record_core(const StepTimes& t, Run& r) {
  double stage_total = 0.0;
  for (std::size_t s = 0; s < core::kStageCount; ++s) {
    const auto stage = static_cast<core::Stage>(s);
    r.metrics[std::string("core.stage.") + core::StageTimers::key(stage) +
              ".ns_per_particle"] = 1e9 * ratio(t.stage_s[s], t.particle_steps);
    stage_total += t.stage_s[s];
  }
  r.metrics["core.residual_frac"] = 1.0 - ratio(stage_total, t.step_s);
}

constexpr const char* kWorkCounters[] = {"barriers", "lockstep_phases",
                                         "compare_exchanges", "scan_sweeps",
                                         "rng_draws"};

/// Task-clock and work-counter totals of a Telemetry, diffed across a window.
struct TelemetryTotals {
  std::array<profile::CounterSums, core::kStageCount> stage{};
  std::array<std::uint64_t, std::size(kWorkCounters)> work{};
  std::uint64_t steps = 0;
};

TelemetryTotals telemetry_totals(const telemetry::Telemetry& tel) {
  TelemetryTotals t;
  for (std::size_t s = 0; s < core::kStageCount; ++s) {
    const std::string key = core::StageTimers::key(static_cast<core::Stage>(s));
    if (const auto* acc = tel.profile.find("stage." + key)) t.stage[s] = acc->sums();
  }
  for (std::size_t w = 0; w < t.work.size(); ++w) {
    const auto* c = tel.registry.find_counter(std::string("work.") + kWorkCounters[w]);
    t.work[w] = c != nullptr ? c->value() : 0;
  }
  const auto* steps = tel.registry.find_counter("steps");
  t.steps = steps != nullptr ? steps->value() : 0;
  return t;
}

/// profile.* and work.* from the difference of two totals; returns the
/// summed stage task clock in seconds.
double record_profile_work(const TelemetryTotals& before, const TelemetryTotals& after,
                           std::size_t particles_per_step, Run& r) {
  const double steps = static_cast<double>(after.steps - before.steps);
  double cpu_ns = 0.0;
  for (std::size_t s = 0; s < core::kStageCount; ++s) {
    const double ns = (after.stage[s] - before.stage[s]).task_clock_ns;
    cpu_ns += ns;
    r.metrics[std::string("profile.stage.") +
              core::StageTimers::key(static_cast<core::Stage>(s)) +
              ".cpu_ns_per_particle"] =
        ratio(ns, steps * static_cast<double>(particles_per_step));
  }
  for (std::size_t w = 0; w < after.work.size(); ++w) {
    r.metrics[std::string("work.") + kWorkCounters[w] + "_per_step"] =
        ratio(static_cast<double>(after.work[w] - before.work[w]), steps);
  }
  return 1e-9 * cpu_ns;
}

/// Replays `sample` and records the replay check plus, when traced, the
/// core.* / profile.* / work.* metrics of the replayed filters.
template <typename EstimateFn>
void replay_sample(const Sessions& ss, const std::vector<std::size_t>& sample,
                   EstimateFn&& estimate, bool traced, Run& r) {
  std::unique_ptr<telemetry::Telemetry> tel;
  if (traced) tel = std::make_unique<telemetry::Telemetry>();
  StepTimes times;
  bool all_match = !sample.empty();
  for (const std::size_t i : sample) {
    const std::vector<float> served = estimate(i);
    all_match = replay_matches(ss, i, served, tel.get(), times) && all_match;
  }
  r.check("replay.bit_identical", all_match);
  if (!traced) return;
  record_core(times, r);
  record_profile_work(TelemetryTotals{}, telemetry_totals(*tel),
                      ss.configs.front().total_particles(), r);
  r.check("replay.dropped_spans_zero", tel->trace.dropped_spans() == 0);
}

/// The end-to-end metrics of an untraced window whose ops took `latency_s`.
void record_e2e(const Window& win, const Durations& latency_s, const Durations& setup_s,
                Run& r) {
  const double ops = static_cast<double>(latency_s.count());
  r.metrics["throughput"] = ops / win.wall;
  r.metrics["latency_p50_ms"] = 1e3 * latency_s.quantile(0.50);
  r.metrics["latency_p99_ms"] = 1e3 * latency_s.quantile(0.99);
  r.metrics["cpu_us_per_op"] = 1e6 * ratio(win.cpu, ops);
  r.metrics["setup_s"] = setup_s.quantile(0.5);
  r.metrics["rss_mb"] = peak_rss_mb();
}

/// telemetry.trace_overhead_frac: untraced over traced throughput, minus 1.
void record_trace_overhead(const Window& traced, const Durations& traced_ops, Run& r) {
  r.metrics["telemetry.trace_overhead_frac"] =
      r.metrics["throughput"] / (static_cast<double>(traced_ops.count()) / traced.wall) -
      1.0;
}

// ---------------------------------------------------------------------------
// filter_cpu / filter_wide: one DistributedParticleFilter on a
// min(nproc, 4)-worker device; an op is one step().

core::FilterConfig filter_config(const Options& o) {
  core::FilterConfig cfg = core::FilterConfig::table2_cpu_defaults();
  if (o.workload == "filter_wide") {
    cfg.particles_per_filter = 512;
    cfg.num_filters = 128;
    cfg.resample = core::ResampleAlgorithm::kVose;
  }
  cfg.seed = o.filter_seed;
  cfg.workers = o.workers;
  return cfg;
}

struct FilterPhase {
  Window win;
  Durations step_s;            ///< step() wall, window steps
  StepTimes times;             ///< timers() delta over the window
  mcore::ThreadPool::Stats pool{};                  ///< pool stats delta
  std::uint64_t hash = 0xcbf29ce484222325ull;       ///< first hash_steps estimates
  std::uint64_t nonfinite = 0;
  double rmse = 0.0;           ///< object position, first kRmseSteps window steps
};

FilterPhase drive_filter(Filter& pf, const Options& o, double seconds,
                         std::size_t warmup) {
  FilterPhase ph;
  Tracker tr;
  tr.reset(o.scenario_seed);
  estimation::ErrorAccumulator err;
  const std::size_t j = tr.scenario.config().arm.n_joints;
  const auto step = [&](bool timed) {
    const auto t0 = Clock::now();
    pf.step(tr.z, tr.u);
    const auto t1 = Clock::now();
    const auto est = pf.estimate();
    if (!all_finite(est)) ++ph.nonfinite;
    if (pf.step_index() <= o.scale.hash_steps) ph.hash = fnv1a(ph.hash, est);
    if (timed) {
      ph.step_s.add(seconds_between(t0, t1));
      if (ph.step_s.count() <= kRmseSteps) {
        const double e[2] = {static_cast<double>(est[j]) - tr.truth[j],
                             static_cast<double>(est[j + 1]) - tr.truth[j + 1]};
        err.add_step(e);
      }
    }
    tr.next();
  };
  for (std::size_t k = 0; k < warmup; ++k) step(false);
  std::array<double, core::kStageCount> stage0{};
  for (std::size_t s = 0; s < core::kStageCount; ++s) {
    stage0[s] = pf.timers().seconds(static_cast<core::Stage>(s));
  }
  const auto pool0 = pf.dev().pool().stats();
  ph.win.start();
  while (ph.win.elapsed() < seconds || pf.step_index() < o.scale.hash_steps) {
    step(true);
  }
  ph.win.stop();
  for (std::size_t s = 0; s < core::kStageCount; ++s) {
    ph.times.stage_s[s] = pf.timers().seconds(static_cast<core::Stage>(s)) - stage0[s];
  }
  ph.times.step_s = ph.step_s.sum();
  ph.times.particle_steps =
      static_cast<double>(ph.step_s.count()) * static_cast<double>(pf.particle_count());
  const auto pool1 = pf.dev().pool().stats();
  ph.pool.jobs_executed = pool1.jobs_executed - pool0.jobs_executed;
  ph.pool.indices_executed = pool1.indices_executed - pool0.indices_executed;
  ph.rmse = err.rmse();
  return ph;
}

void run_filter(const Options& o, telemetry::Telemetry* tel, Run& r) {
  Tracker tr;
  tr.reset(o.scenario_seed);
  const Model model = tr.scenario.make_model<float>();
  const core::FilterConfig cfg = filter_config(o);

  Durations setup_s;
  const auto pf = set_up<std::unique_ptr<Filter>>(o, setup_s, [&](std::size_t) {
    return std::make_unique<Filter>(model, cfg);
  });

  const double untraced_s = o.traced ? 0.75 * o.seconds : o.seconds;
  const FilterPhase ph = drive_filter(*pf, o, untraced_s, o.scale.filter_warmup);
  const double steps = static_cast<double>(ph.step_s.count());
  r.attempted += ph.step_s.count();
  r.failed += ph.nonfinite;
  r.notes.emplace_back("rmse", ph.rmse);
  r.check("filter.estimates_finite", ph.nonfinite == 0);

  {
    // The first hash_steps estimates must not depend on the worker count.
    core::FilterConfig one = cfg;
    one.workers = 1;
    Filter ref(model, one);
    const FilterPhase rp = drive_filter(ref, o, 0.0, 0);
    r.check("filter.workers1_replay_hash", rp.hash == ph.hash);
  }

  record_e2e(ph.win, ph.step_s, setup_s, r);
  if (!o.traced) return;

  record_core(ph.times, r);
  r.metrics["mcore.jobs_per_op"] =
      static_cast<double>(ph.pool.jobs_executed) / steps;
  r.metrics["mcore.indices_per_job"] =
      ratio(static_cast<double>(ph.pool.indices_executed),
            static_cast<double>(ph.pool.jobs_executed));

  core::FilterConfig traced_cfg = cfg;
  traced_cfg.telemetry = tel;
  Filter traced(model, traced_cfg);
  const TelemetryTotals before = telemetry_totals(*tel);
  const FilterPhase tp = drive_filter(traced, o, 0.25 * o.seconds, 2);
  const double cpu_s =
      record_profile_work(before, telemetry_totals(*tel), traced.particle_count(), r);
  const double stage_wall =
      std::accumulate(tp.times.stage_s.begin(), tp.times.stage_s.end(), 0.0);
  r.metrics["mcore.parallel_efficiency"] =
      ratio(cpu_s, static_cast<double>(o.workers) * stage_wall);
  record_trace_overhead(tp.win, tp.step_s, r);
  r.attempted += tp.step_s.count();
  r.failed += tp.nonfinite;
  r.check("trace.dropped_spans_zero", tel->trace.dropped_spans() == 0);
  // The per-group step series (tens of MB as JSON) is no ledger metric;
  // keep it out of the report.
  tel->series.clear();
}

// ---------------------------------------------------------------------------
// serve_many: one SessionManager, closed loop -- every session keeps exactly
// one request outstanding and sends its next frame once the batch that
// carried the previous one returns. An op is one request.

constexpr std::size_t kServeParticlesPerFilter = 32;
constexpr std::size_t kServeFilters = 8;
constexpr std::size_t kServeMaxBatch = 64;

struct ServeRig {
  std::unique_ptr<Manager> mgr;
  std::vector<Manager::SessionId> ids;
};

ServeRig make_manager(const Options& o, const Sessions& ss, telemetry::Telemetry* tel) {
  serve::ServeConfig cfg;
  cfg.workers = o.workers;
  cfg.max_batch = kServeMaxBatch;
  cfg.telemetry = tel;
  cfg.trace_requests = tel != nullptr;
  ServeRig rig;
  rig.mgr = std::make_unique<Manager>(cfg);
  for (std::size_t i = 0; i < ss.models.size(); ++i) {
    const auto opened = rig.mgr->open_session(ss.models[i], ss.configs[i]);
    if (!opened.ok()) {
      throw std::runtime_error(std::string("open_session: ") +
                               serve::to_string(opened.admission));
    }
    rig.ids.push_back(opened.id);
  }
  return rig;
}

struct LoopStats {
  Window win;
  Durations latency_s;                ///< outside-timed, window completions
  std::uint64_t attempted = 0;        ///< window submits
  std::uint64_t rejected = 0;         ///< every phase submit
  std::uint64_t accepted_all = 0;
  std::uint64_t completed_all = 0;
  double latency_sum_all = 0.0;       ///< every completion, seconds
  double dispatch_wall_all = 0.0;     ///< run_batch()/pump() wall, seconds
};

struct ServeStats : LoopStats {
  Durations submit_s;
  Durations run_batch_s;
  std::uint64_t batches = 0;
  std::uint64_t batched = 0;
};

/// Closed loop: `warmup` completions, then a window of `seconds`
/// (or `max_ops` completions), then no new submits until the queue drains.
ServeStats drive_serve(Manager& mgr, const std::vector<Manager::SessionId>& ids,
                       Sessions& ss, std::size_t warmup, double seconds,
                       std::size_t max_ops) {
  ServeStats st;
  const auto t_phase = Clock::now();
  std::vector<Clock::time_point> sent(ids.size());
  std::unordered_map<std::uint64_t, std::uint32_t> owner;
  std::vector<std::uint32_t> retry;
  bool in_window = false;
  bool stopping = false;
  const auto submit = [&](std::uint32_t i) {
    Tracker& tr = ss.trackers[i];
    const auto t0 = Clock::now();
    // EDF deadline = submit time, so the oldest request is served first.
    const auto res = mgr.submit(ids[i], tr.z, tr.u, seconds_between(t_phase, t0));
    const auto t1 = Clock::now();
    if (in_window) {
      st.submit_s.add(seconds_between(t0, t1));
      ++st.attempted;
    }
    if (!res.ok()) {
      ++st.rejected;
      retry.push_back(i);
      return;
    }
    ++st.accepted_all;
    ++ss.accepted[i];
    sent[i] = t0;
    owner.emplace(res.ticket, i);
    tr.next();
  };
  for (std::uint32_t i = 0; i < ids.size(); ++i) submit(i);
  for (;;) {
    if (!in_window && !stopping && st.completed_all >= warmup) {
      in_window = true;
      st.win.start();
    }
    if (in_window && (st.win.elapsed() >= seconds || st.latency_s.count() >= max_ops)) {
      st.win.stop();
      in_window = false;
      stopping = true;
    }
    if (stopping && owner.empty()) break;
    const auto t0 = Clock::now();
    const auto batch = mgr.run_batch();
    const auto t1 = Clock::now();
    if (batch.dispatched == 0) throw std::runtime_error("serve loop made no progress");
    st.dispatch_wall_all += seconds_between(t0, t1);
    if (in_window) {
      st.run_batch_s.add(seconds_between(t0, t1));
      ++st.batches;
      st.batched += batch.dispatched;
    }
    for (const std::uint64_t ticket : batch.tickets) {
      const auto it = owner.find(ticket);
      const std::uint32_t i = it->second;
      owner.erase(it);
      ++ss.completed[i];
      ++st.completed_all;
      const double lat = seconds_between(sent[i], t1);
      st.latency_sum_all += lat;
      if (in_window) st.latency_s.add(lat);
      if (!stopping) submit(i);
    }
    std::vector<std::uint32_t> again;
    again.swap(retry);
    for (const std::uint32_t i : again) {
      if (!stopping) submit(i);
    }
  }
  return st;
}

/// Jain's fairness index of per-session completions: 1 = perfectly even.
double jain_index(const std::vector<std::uint64_t>& x) {
  double sum = 0.0, sq = 0.0;
  for (const std::uint64_t v : x) {
    sum += static_cast<double>(v);
    sq += static_cast<double>(v) * static_cast<double>(v);
  }
  return ratio(sum * sum, static_cast<double>(x.size()) * sq);
}

/// Accepted == completed, every estimate finite; returns non-finite count.
template <typename EstimateFn>
std::uint64_t check_sessions(const Sessions& ss, EstimateFn&& estimate, Run& r) {
  std::uint64_t nonfinite = 0;
  for (std::size_t i = 0; i < ss.trackers.size(); ++i) {
    if (!all_finite(estimate(i))) ++nonfinite;
  }
  r.check("sessions.accepted_eq_completed", ss.accepted == ss.completed);
  r.check("sessions.estimates_finite", nonfinite == 0);
  return nonfinite;
}

void run_serve(const Options& o, telemetry::Telemetry* tel, Run& r) {
  Sessions ss(o.scale.serve_sessions, kServeParticlesPerFilter, kServeFilters, o);
  Durations setup_s;
  ServeRig rig = set_up<ServeRig>(o, setup_s,
                                  [&](std::size_t) { return make_manager(o, ss, nullptr); });
  const double untraced_s = o.traced ? 0.75 * o.seconds : o.seconds;
  const ServeStats st =
      drive_serve(*rig.mgr, rig.ids, ss, o.scale.serve_warmup, untraced_s, kNoOpCap);
  r.attempted += st.attempted;
  r.failed += st.rejected;
  const auto estimate = [&](std::size_t i) { return rig.mgr->estimate(rig.ids[i]).value(); };
  r.failed += check_sessions(ss, estimate, r);
  std::vector<std::size_t> sample;
  for (std::size_t k = 0; k < o.scale.replay_sessions; ++k) {
    sample.push_back(k * ss.trackers.size() / o.scale.replay_sessions);
  }
  replay_sample(ss, sample, estimate, o.traced, r);
  record_e2e(st.win, st.latency_s, setup_s, r);
  if (!o.traced) return;

  r.metrics["serve.submit_ns_p50"] = 1e9 * st.submit_s.quantile(0.50);
  r.metrics["serve.submit_ns_p99"] = 1e9 * st.submit_s.quantile(0.99);
  r.metrics["serve.run_batch_us_p50"] = 1e6 * st.run_batch_s.quantile(0.50);
  r.metrics["serve.batch_size_mean"] =
      ratio(static_cast<double>(st.batched), static_cast<double>(st.batches));
  r.metrics["serve.fairness"] = jain_index(ss.completed);
  r.metrics["mcore.jobs_per_op"] =
      ratio(static_cast<double>(st.batches), static_cast<double>(st.latency_s.count()));
  r.metrics["mcore.indices_per_job"] = r.metrics["serve.batch_size_mean"];

  // Traced phase: a fresh manager with telemetry on ServeConfig only
  // (per-session stage histograms are single-writer).
  rig = ServeRig{};
  ss.restart();
  ServeRig traced = make_manager(o, ss, tel);
  const ServeStats tt = drive_serve(*traced.mgr, traced.ids, ss, o.scale.serve_warmup,
                                    0.25 * o.seconds, kTracedOpCap);
  r.attempted += tt.attempted;
  r.failed += tt.rejected;
  Durations queue_wait_s;
  double request_span_s = 0.0;
  for (const auto& span : tel->trace.spans()) {
    if (span.name == "queue_wait") queue_wait_s.add(1e-6 * span.dur_us);
    if (span.name == "request") request_span_s += 1e-6 * span.dur_us;
  }
  // Step durations from the manager's always-on flight ring (the session
  // filters carry no telemetry, so their step spans live only there).
  Durations step_s;
  for (const auto& e : traced.mgr->flight().events()) {
    if (e.kind == telemetry::FlightEventKind::kSpanEnd && e.code == "step") {
      step_s.add(1e-9 * static_cast<double>(e.b));
    }
  }
  const double workers = static_cast<double>(traced.mgr->worker_count());
  const double busy = workers * tt.dispatch_wall_all;
  r.metrics["serve.queue_wait_ms_p50"] = 1e3 * queue_wait_s.quantile(0.50);
  r.metrics["serve.queue_wait_ms_p99"] = 1e3 * queue_wait_s.quantile(0.99);
  r.metrics["serve.step_us_p50"] = 1e6 * step_s.quantile(0.50);
  r.metrics["serve.step_frac"] =
      ratio(step_s.mean() * static_cast<double>(tt.completed_all), busy);
  r.metrics["serve.trace_residual_frac"] =
      1.0 - ratio(request_span_s, tt.latency_sum_all);
  const auto* batch_cpu = tel->profile.find("serve.batch");
  r.metrics["mcore.parallel_efficiency"] =
      ratio(batch_cpu != nullptr ? 1e-9 * batch_cpu->sums().task_clock_ns : 0.0, busy);
  record_trace_overhead(tt.win, tt.latency_s, r);
  r.check("trace.dropped_spans_zero", tel->trace.dropped_spans() == 0);
  r.check("sessions.traced_accepted_eq_completed", ss.accepted == ss.completed);
}

// ---------------------------------------------------------------------------
// cluster_zipf: a 4-shard ServeCluster pumped from this thread, a resident
// budget well below the session count, and closed-loop clients that each
// pick an idle session by Zipf(1.0). An op is one request.

constexpr std::size_t kClusterShards = 4;
constexpr std::size_t kClusterParticlesPerFilter = 64;
constexpr std::size_t kClusterFilters = 16;
/// Sessions opened between residency sweeps during set-up.
constexpr std::size_t kOpensPerSweep = 64;

/// Zipf(s) over session ranks, ranks mapped to sessions by a seeded shuffle
/// (SplitMix64 Fisher-Yates, so the mapping is the same on every libc++).
class ZipfPicker {
 public:
  ZipfPicker(std::size_t n, double s, std::uint64_t seed)
      : rng_(seed), cdf_(n), session_(n) {
    double acc = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = acc;
    }
    for (double& c : cdf_) c /= acc;
    std::iota(session_.begin(), session_.end(), std::size_t{0});
    for (std::size_t i = n; i > 1; --i) std::swap(session_[i - 1], session_[rng_() % i]);
  }

  /// A session that is not `busy`, drawn by rank.
  std::size_t pick(const std::vector<std::uint8_t>& busy) {
    for (;;) {
      const double u = static_cast<double>(rng_() >> 11) * 0x1.0p-53;
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
      const std::size_t i = session_[std::min(rank, session_.size() - 1)];
      if (!busy[i]) return i;
    }
  }

 private:
  prng::SplitMix64 rng_;
  std::vector<double> cdf_;
  std::vector<std::size_t> session_;
};

struct ClusterRig {
  std::unique_ptr<Cluster> cluster;
  std::vector<Cluster::SessionId> ids;
};

/// Builds the cluster and opens every session, pumping as it goes so the
/// residency sweep spills down to the budget instead of holding them all.
ClusterRig make_cluster(const Options& o, const Sessions& ss, telemetry::Telemetry* tel) {
  ClusterRig rig;
  serve::ClusterConfig cfg;
  cfg.shards = kClusterShards;
  cfg.shard.workers = 1;
  cfg.shard.trace_requests = tel != nullptr;
  cfg.max_resident_sessions = o.scale.cluster_resident;
  cfg.telemetry = tel;
  rig.cluster = std::make_unique<Cluster>(cfg);
  for (std::size_t i = 0; i < ss.models.size(); ++i) {
    const auto opened = rig.cluster->open_session(ss.models[i], ss.configs[i]);
    if (!opened.ok()) {
      throw std::runtime_error(std::string("cluster open_session: ") +
                               serve::to_string(opened.admission));
    }
    rig.ids.push_back(opened.id);
    if ((i + 1) % kOpensPerSweep == 0) (void)rig.cluster->pump();
  }
  (void)rig.cluster->pump();
  return rig;
}

struct ClusterStats : LoopStats {
  Durations submit_s;          ///< resident-session submits
  Durations submit_restore_s;  ///< submits that restored first
  Durations pump_s;
  Durations migrate_s;
  std::uint64_t accepted = 0;            ///< window
  std::uint64_t restored = 0;            ///< window
};

ClusterStats drive_cluster(Cluster& c, const std::vector<Cluster::SessionId>& ids,
                           Sessions& ss, const Options& o, double seconds,
                           std::size_t max_ops) {
  ClusterStats st;
  const std::size_t clients = o.scale.cluster_clients;
  ZipfPicker zipf(ids.size(), 1.0, o.zipf_seed);
  std::vector<std::uint8_t> busy(ids.size(), 0);
  std::vector<std::int64_t> held(clients, -1);
  std::vector<Clock::time_point> sent(clients);
  const auto t_phase = Clock::now();
  bool in_window = false;
  bool stopping = false;
  for (;;) {
    if (!in_window && !stopping && st.completed_all >= o.scale.cluster_warmup) {
      in_window = true;
      st.win.start();
    }
    if (in_window && (st.win.elapsed() >= seconds || st.latency_s.count() >= max_ops)) {
      st.win.stop();
      in_window = false;
      stopping = true;
    }
    std::size_t outstanding = 0;
    for (std::size_t k = 0; k < clients; ++k) {
      if (held[k] < 0 && !stopping) {
        const std::size_t i = zipf.pick(busy);
        Tracker& tr = ss.trackers[i];
        const auto t0 = Clock::now();
        const double now = seconds_between(t_phase, t0);
        const auto res = c.submit(ids[i], tr.z, tr.u, now, now);
        const double took = seconds_between(t0, Clock::now());
        if (in_window) {
          (res.restored_from_spill ? st.submit_restore_s : st.submit_s).add(took);
          ++st.attempted;
        }
        if (!res.ok()) {
          ++st.rejected;
          continue;
        }
        ++st.accepted_all;
        ++ss.accepted[i];
        if (res.restored_from_spill) ++ss.restored[i];
        if (in_window) {
          ++st.accepted;
          st.restored += res.restored_from_spill ? 1 : 0;
        }
        tr.next();
        held[k] = static_cast<std::int64_t>(i);
        busy[i] = 1;
        sent[k] = t0;
      }
      outstanding += held[k] >= 0 ? 1 : 0;
    }
    if (outstanding == 0) {
      if (stopping) break;
      throw std::runtime_error("cluster loop: every submit was rejected");
    }
    const auto t0 = Clock::now();
    const std::size_t dispatched = c.pump();
    const auto t1 = Clock::now();
    if (dispatched == 0) {
      throw std::runtime_error("cluster loop stalled with requests outstanding");
    }
    st.dispatch_wall_all += seconds_between(t0, t1);
    if (in_window) st.pump_s.add(seconds_between(t0, t1));
    for (std::size_t k = 0; k < clients; ++k) {
      if (held[k] < 0) continue;
      const auto i = static_cast<std::size_t>(held[k]);
      if (c.pending(ids[i]).value_or(1) != 0) continue;
      held[k] = -1;
      busy[i] = 0;
      ++ss.completed[i];
      ++st.completed_all;
      const double lat = seconds_between(sent[k], t1);
      st.latency_sum_all += lat;
      if (in_window) st.latency_s.add(lat);
      if (!stopping && st.completed_all % o.scale.migrate_every == 0) {
        const std::size_t target = (c.shard_of(ids[i]).value() + 1) % kClusterShards;
        const auto m0 = Clock::now();
        const bool moved = c.migrate(ids[i], target);
        if (in_window) st.migrate_s.add(seconds_between(m0, Clock::now()));
        if (moved) ss.migrated[i] = 1;
      }
    }
  }
  return st;
}

/// Replay sample: a migrated session, a spill-restored session, then the
/// busiest sessions.
std::vector<std::size_t> cluster_sample(const Sessions& ss, std::size_t want) {
  std::vector<std::size_t> order(ss.trackers.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return ss.completed[a] > ss.completed[b];
  });
  std::vector<std::size_t> sample;
  const auto add_first = [&](auto&& pred) {
    for (const std::size_t i : order) {
      if (pred(i) && std::find(sample.begin(), sample.end(), i) == sample.end()) {
        sample.push_back(i);
        return;
      }
    }
  };
  add_first([&](std::size_t i) { return ss.migrated[i] != 0; });
  add_first([&](std::size_t i) { return ss.restored[i] != 0; });
  for (const std::size_t i : order) {
    if (sample.size() >= want) break;
    if (std::find(sample.begin(), sample.end(), i) == sample.end()) sample.push_back(i);
  }
  return sample;
}

std::uint64_t shard_batches(const Cluster& c) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < c.shard_count(); ++i) {
    if (const auto* b = c.shard(i).config().telemetry->registry.find_counter("serve.batches")) {
      n += b->value();
    }
  }
  return n;
}

double shard_batch_cpu_seconds(const Cluster& c) {
  double ns = 0.0;
  for (std::size_t i = 0; i < c.shard_count(); ++i) {
    if (const auto* acc = c.shard(i).config().telemetry->profile.find("serve.batch")) {
      ns += acc->sums().task_clock_ns;
    }
  }
  return 1e-9 * ns;
}

void run_cluster(const Options& o, telemetry::Telemetry* tel, Run& r) {
  Sessions ss(o.scale.cluster_sessions, kClusterParticlesPerFilter, kClusterFilters, o);
  Durations setup_s;
  ClusterRig rig = set_up<ClusterRig>(
      o, setup_s, [&](std::size_t) { return make_cluster(o, ss, nullptr); });
  const std::uint64_t batches0 = shard_batches(*rig.cluster);
  const double untraced_s = o.traced ? 0.75 * o.seconds : o.seconds;
  const ClusterStats st = drive_cluster(*rig.cluster, rig.ids, ss, o, untraced_s, kNoOpCap);
  r.attempted += st.attempted;
  r.failed += st.rejected;
  const auto estimate = [&](std::size_t i) {
    return rig.cluster->estimate(rig.ids[i]).value();
  };
  r.failed += check_sessions(ss, estimate, r);
  const std::vector<std::size_t> sample = cluster_sample(ss, o.scale.replay_sessions);
  r.check("cluster.sample_has_migrated",
          std::any_of(sample.begin(), sample.end(),
                      [&](std::size_t i) { return ss.migrated[i] != 0; }));
  r.check("cluster.sample_has_restored",
          std::any_of(sample.begin(), sample.end(),
                      [&](std::size_t i) { return ss.restored[i] != 0; }));
  replay_sample(ss, sample, estimate, o.traced, r);
  record_e2e(st.win, st.latency_s, setup_s, r);
  if (!o.traced) return;

  const double completed = static_cast<double>(st.completed_all);
  const double batches = static_cast<double>(shard_batches(*rig.cluster) - batches0);
  r.metrics["cluster.submit_us_p50"] = 1e6 * st.submit_s.quantile(0.50);
  r.metrics["cluster.submit_restore_us_p50"] = 1e6 * st.submit_restore_s.quantile(0.50);
  r.metrics["cluster.pump_ms_p50"] = 1e3 * st.pump_s.quantile(0.50);
  r.metrics["cluster.pump_ms_p99"] = 1e3 * st.pump_s.quantile(0.99);
  r.metrics["cluster.migrate_ms_p50"] = 1e3 * st.migrate_s.quantile(0.50);
  r.metrics["cluster.restore_frac"] =
      ratio(static_cast<double>(st.restored), static_cast<double>(st.accepted));
  r.metrics["mcore.jobs_per_op"] = ratio(batches, completed);
  r.metrics["mcore.indices_per_job"] = ratio(completed, batches);

  rig = ClusterRig{};
  ss.restart();
  ClusterRig traced = make_cluster(o, ss, tel);
  const auto* spills = tel->registry.find_counter("cluster.spills");
  const std::uint64_t spills0 = spills->value();
  const double batch_cpu0 = shard_batch_cpu_seconds(*traced.cluster);
  const ClusterStats tt =
      drive_cluster(*traced.cluster, traced.ids, ss, o, 0.25 * o.seconds, kTracedOpCap);
  r.attempted += tt.attempted;
  r.failed += tt.rejected;
  r.metrics["cluster.spills_per_req"] =
      ratio(static_cast<double>(spills->value() - spills0),
            static_cast<double>(tt.accepted_all));
  // Shards run one worker each, all pumped from this thread.
  r.metrics["mcore.parallel_efficiency"] = ratio(
      shard_batch_cpu_seconds(*traced.cluster) - batch_cpu0, tt.dispatch_wall_all);
  record_trace_overhead(tt.win, tt.latency_s, r);
  bool dropped = false;
  for (std::size_t i = 0; i < traced.cluster->shard_count(); ++i) {
    dropped = dropped ||
              traced.cluster->shard(i).config().telemetry->trace.dropped_spans() != 0;
  }
  r.check("trace.dropped_spans_zero", !dropped);
  r.check("sessions.traced_accepted_eq_completed", ss.accepted == ss.completed);
}

// ---------------------------------------------------------------------------
// Checkpoint and spill-store calibration at the cluster_zipf session shape:
// the cost of one spill (encode + put) and one restore (take + decode).

void calibrate_checkpoint(const Options& o, Run& r) {
  Sessions ss(1, kClusterParticlesPerFilter, kClusterFilters, o);
  core::FilterConfig cfg = ss.configs[0];
  cfg.workers = 1;
  Filter pf(ss.models[0], cfg);
  for (int k = 0; k < 8; ++k) {
    pf.step(ss.trackers[0].z, ss.trackers[0].u);
    ss.trackers[0].next();
  }
  const core::FilterState<float> state = pf.export_state();
  serve::SpillStore store;
  Durations encode_s, decode_s, put_s, take_s;
  std::size_t bytes = 0;
  bool round_trips = true;
  for (std::size_t k = 0; k < o.scale.calibration_reps; ++k) {
    const auto t0 = Clock::now();
    const auto blob = serve::encode_checkpoint<float>(state);
    const auto t1 = Clock::now();
    const auto decoded = serve::decode_checkpoint<float>(blob);
    const auto t2 = Clock::now();
    (void)store.put(1, blob);
    const auto t3 = Clock::now();
    const auto back = store.take(1);
    const auto t4 = Clock::now();
    encode_s.add(seconds_between(t0, t1));
    decode_s.add(seconds_between(t1, t2));
    put_s.add(seconds_between(t2, t3));
    take_s.add(seconds_between(t3, t4));
    bytes = blob.size();
    round_trips = round_trips && back == blob && same_bits(decoded.state, state.state);
  }
  r.check("checkpoint.round_trip", round_trips);
  r.metrics["checkpoint.encode_us"] = 1e6 * encode_s.quantile(0.5);
  r.metrics["checkpoint.decode_us"] = 1e6 * decode_s.quantile(0.5);
  r.metrics["checkpoint.bytes"] = static_cast<double>(bytes);
  r.metrics["spill.put_us"] = 1e6 * put_s.quantile(0.5);
  r.metrics["spill.take_us"] = 1e6 * take_s.quantile(0.5);
}

// ---------------------------------------------------------------------------
// Output.

bool exercised(const std::string& workload, const std::string& layer) {
  if (layer == "serve") return workload == "serve_many";
  if (layer == "cluster") return workload == "cluster_zipf";
  return true;
}

using Result = std::vector<std::pair<const MetricDef*, double>>;

/// Prints this mode's metrics, notes and checks, mirrors them into the
/// report, and returns the metrics for the result line. A metric of a
/// layer this workload does not exercise reads 0 ("n/a").
Result summarize(const Options& o, Run& r, bench::Report& report) {
  bench_util::Table table({"metric", "value", "unit"});
  Result out;
  for (const MetricDef& m : kCatalogue) {
    if (m.end_to_end == o.traced) continue;
    const auto it = r.metrics.find(m.name);
    const bool applies = m.end_to_end || exercised(o.workload, layer_of(m.name));
    if (it == r.metrics.end() && applies) r.check(std::string("metric.") + m.name, false);
    const double v = it != r.metrics.end() ? it->second : 0.0;
    if (!std::isfinite(v)) r.check(std::string("metric.finite.") + m.name, false);
    out.emplace_back(&m, v);
    table.add_row({m.name, applies ? bench_util::Table::num(v, 4) : "n/a", m.unit});
    report.add_value(m.name, v);
  }
  table.print(std::cout);
  report.add_table("metrics", table);
  for (const auto& [name, value] : r.notes) {
    std::cout << "note " << name << " = " << value << '\n';
    report.add_value("note." + name, value);
  }
  for (const auto& [name, ok] : r.checks) {
    std::cout << "check " << name << ": " << (ok ? "ok" : "FAILED") << '\n';
  }
  return out;
}

/// The last stdout line: one JSON object with the verdict and the metrics.
void print_result(bool correct, const Run& r, const Result& metrics) {
  telemetry::json::JsonWriter w(std::cout);
  w.begin_object();
  w.kv("correct", correct);
  w.kv("attempted", std::max<std::uint64_t>(r.attempted, 1));
  w.kv("failed", r.failed);
  w.key("metrics");
  w.begin_object();
  for (const auto& [m, v] : metrics) {
    w.key(m->name);
    w.begin_object();
    w.kv("value", v);
    w.kv("unit", m->unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = bench_util::Cli::parse_or_exit(
      argc, argv,
      bench::standard_flags(
          {"--workload", "--seed", "--seconds", "--traced", "--smoke"}));
  Options o;
  o.workload = cli.get("--workload", "");
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) ==
      std::end(kWorkloads)) {
    std::cerr << "error: --workload expects filter_cpu, filter_wide, serve_many or "
                 "cluster_zipf, got '"
              << o.workload << "'\n";
    return 2;
  }
  bench::Report report(cli, "Performance ledger: " + o.workload,
                       "Pinned-seed ledger workload; end-to-end metrics untraced, "
                       "per-layer metrics from a traced run.");
  prng::SplitMix64 seeds(cli.get_u64("--seed", 1));
  o.scenario_seed = seeds();
  o.filter_seed = seeds();
  o.zipf_seed = seeds();
  o.seconds = cli.get_double("--seconds", 10.0);
  o.traced = cli.has("--traced");
  o.scale = cli.has("--smoke") ? kSmoke : kFull;
  o.workers = std::min<std::size_t>(mcore::ThreadPool::default_worker_count(), 4);
  std::cout << "== Performance ledger: " << o.workload << (o.traced ? " (traced)" : "")
            << " ==\n"
            << device::host_description() << "\nworkers " << o.workers << ", window "
            << o.seconds << " s\n\n";

  // The traced phase records into the report's telemetry when one is
  // attached (--json/--trace/--telemetry), so --trace exports its spans.
  std::unique_ptr<telemetry::Telemetry> own_tel;
  telemetry::Telemetry* tel = report.telemetry();
  if (o.traced && tel == nullptr) {
    own_tel = std::make_unique<telemetry::Telemetry>();
    tel = own_tel.get();
  }

  const HostSample h0 = host_sample();
  Run r;
  try {
    if (o.workload == "serve_many") {
      run_serve(o, tel, r);
    } else if (o.workload == "cluster_zipf") {
      run_cluster(o, tel, r);
    } else {
      run_filter(o, tel, r);
    }
    if (o.traced) calibrate_checkpoint(o, r);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    ++r.failed;
    r.check("no_exception", false);
  }
  const HostSample h1 = host_sample();
  const double steal = ratio(static_cast<double>(h1.steal_ticks - h0.steal_ticks),
                             static_cast<double>(h1.total_ticks - h0.total_ticks));
  r.notes.emplace_back("host.steal_frac", steal);
  r.notes.emplace_back("host.involuntary_switches",
                       static_cast<double>(h1.involuntary_switches - h0.involuntary_switches));
  if (steal > 0.05) {
    std::cerr << "warning: CPU steal was " << 100.0 * steal
              << "% of host CPU time during this run; timings are suspect\n";
  }
  const Result metrics = summarize(o, r, report);
  bool correct = std::all_of(r.checks.begin(), r.checks.end(),
                             [](const auto& c) { return c.second; });
  report.add_value("correct", correct ? 1.0 : 0.0);
  correct = report.write() == 0 && correct;
  print_result(correct, r, metrics);
  return correct ? 0 : 1;
}
