// StageProbe: the one instrumentation seam of a filter round. Built from
// the Telemetry* a filter's config carries, it resolves every metric,
// profile accumulator and derived gauge the filter emits at construction,
// so a step only touches cached pointers. Its RAII stage scope (one per
// paper Fig 4 kernel) records the StageTimers sample, the "stage.<key>"
// histogram, the profile accumulator and, when named, the span together.
// Detached (null Telemetry) only the filter's own StageTimers record.
// Recording is passive, so estimates are bit-identical either way.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/stage_timers.hpp"
#include "device/device.hpp"
#include "profile/profile.hpp"
#include "telemetry/telemetry.hpp"

namespace esthera::core {

/// Increments for the counters a filter emits, one field per counter.
/// The work.* ones are the deterministic cost proxies the regression gate
/// diffs; per-group tallies fold with commutative adds, so totals do not
/// depend on the worker count.
struct Tally {
  std::uint64_t barriers = 0;           ///< kernel-boundary global barriers
  std::uint64_t lockstep_phases = 0;    ///< lock-step phases of launches
  std::uint64_t compare_exchanges = 0;  ///< sort-network compare-exchanges
  std::uint64_t scan_sweeps = 0;        ///< prefix-scan sweeps
  std::uint64_t rng_draws = 0;          ///< generated variates
  std::uint64_t metropolis_steps = 0;   ///< Metropolis chain steps
  std::uint64_t rejection_trials = 0;   ///< rejection-sampler trials
  std::uint64_t steps = 0;              ///< completed rounds
  std::uint64_t exchanged = 0;          ///< particles the exchange wrote
  std::uint64_t degenerate = 0;         ///< groups with no finite log-weight
  std::uint64_t skipped = 0;            ///< groups that skipped resampling
};

class StageProbe {
 public:
  /// The filter instrumented, which fixes the metric set: the centralized
  /// filter has three of the six stages and no barriers, lock-step phases
  /// or sort network.
  enum class Filter : std::uint8_t { kDistributed, kCentralized };

  /// Detached probe: stage timers only.
  StageProbe() = default;

  /// `groups` is the span group range [0, groups); `particles` the
  /// population the per-particle profile gauges divide by.
  StageProbe(telemetry::Telemetry* tel, Filter filter, std::size_t groups,
             std::size_t particles);

  [[nodiscard]] bool attached() const { return tel_ != nullptr; }
  [[nodiscard]] telemetry::Telemetry* telemetry() const { return tel_; }
  [[nodiscard]] StageTimers& timers() { return timers_; }

  /// Sets a construction-time constant gauge (shape, budgets); no-op when
  /// detached.
  void publish(std::string_view gauge, double value) const;

  /// The round span ("step") of one filter round, parented under `ctx`.
  /// Stage and launch spans opened while it lives parent under it.
  class RoundScope {
   public:
    RoundScope(StageProbe& probe, std::uint64_t step,
               const telemetry::TraceContext* ctx)
        : probe_(probe),
          span_(probe.trace(), "step", 0, probe.groups_, step,
                ctx != nullptr ? ctx->track : 0, ctx) {
      probe_.step_ = step;
      probe_.ctx_ = span_.child_context() ? &span_.child_context() : nullptr;
    }
    ~RoundScope() { probe_.ctx_ = nullptr; }

   private:
    StageProbe& probe_;
    telemetry::ScopedSpan span_;
  };

  /// One kernel stage: one timing into StageTimers and its stage.*
  /// histogram, a profile scope (mirrored by pool threads), and a span
  /// when `span` names one. Records also when the stage throws.
  class StageScope {
   public:
    StageScope(StageProbe& probe, Stage stage, const char* span)
        : timer_{probe, stage},
          profile_(probe.prof_, probe.stages_[index(stage)].accum),
          span_(probe.span(span)) {}

   private:
    // Members end in reverse order, so the sample covers the profile
    // scope and the span, and stage time leaves no instrumentation
    // residual in the step.
    struct Timer {
      ~Timer() {
        const double seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        probe.timers_.add(stage, seconds);
        if (auto* h = probe.stages_[index(stage)].hist) h->record(seconds);
      }
      StageProbe& probe;
      Stage stage;
      std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
    };
    Timer timer_;
    profile::Scope profile_;
    telemetry::ScopedSpan span_;
  };

  [[nodiscard]] RoundScope round(std::uint64_t step,
                                 const telemetry::TraceContext* ctx) {
    return RoundScope(*this, step, ctx);
  }

  [[nodiscard]] StageScope stage(Stage stage, const char* span = nullptr) {
    return StageScope(*this, stage, span);
  }

  /// One kernel-launch span under the open round (inert without `name`).
  [[nodiscard]] telemetry::ScopedSpan span(const char* name) const {
    return telemetry::ScopedSpan(name != nullptr ? trace() : nullptr, name, 0, groups_,
                                 step_, track(), name != nullptr ? ctx_ : nullptr);
  }

  /// Folds `tally` into the counters. Thread-safe (kernels call it per
  /// group); one branch when detached.
  void count(const Tally& tally) const {
    if (tel_ == nullptr) return;
    for (std::size_t i = 0; i < kCounters.size(); ++i) {
      const std::uint64_t n = tally.*kCounters[i].field;
      if (n != 0 && counters_[i] != nullptr) counters_[i]->add(n);
    }
  }

  /// Host-side, once per attached round: publishes the distributed
  /// filter's RNG-budget high-water marks and `dev`'s pool and launch
  /// statistics, and refreshes the derived profile.stage.* gauges.
  void end_step(std::uint64_t normals_used = 0, std::uint64_t uniforms_used = 0,
                device::Device* dev = nullptr);

 private:
  struct CounterField {
    const char* distributed;  ///< name in the distributed filter
    const char* centralized;  ///< name in the centralized one; null: none
    std::uint64_t Tally::*field;
  };
  static constexpr std::array<CounterField, 11> kCounters = {{
      {"work.barriers", nullptr, &Tally::barriers},
      {"work.lockstep_phases", nullptr, &Tally::lockstep_phases},
      {"work.compare_exchanges", nullptr, &Tally::compare_exchanges},
      {"work.scan_sweeps", "work.scan_sweeps", &Tally::scan_sweeps},
      {"work.rng_draws", "work.rng_draws", &Tally::rng_draws},
      {"work.metropolis_steps", "work.metropolis_steps", &Tally::metropolis_steps},
      {"work.rejection_trials", "work.rejection_trials", &Tally::rejection_trials},
      {"steps", "steps", &Tally::steps},
      {"exchange.particles", nullptr, &Tally::exchanged},
      {"resample.degenerate_groups", "resample.degenerate", &Tally::degenerate},
      {"resample.skipped_groups", "resample.skipped", &Tally::skipped},
  }};

  struct StageMetrics {  // all null for a stage the filter does not have
    telemetry::LatencyHistogram* hist = nullptr;
    profile::StageAccum* accum = nullptr;  // null unless profiling
    telemetry::Gauge* ipc = nullptr;
    telemetry::Gauge* cycles = nullptr;
    telemetry::Gauge* misses = nullptr;
    telemetry::Gauge* cpu_ns = nullptr;
  };

  static constexpr std::size_t index(Stage stage) {
    return static_cast<std::size_t>(stage);
  }
  [[nodiscard]] telemetry::TraceRecorder* trace() const {
    return tel_ != nullptr ? &tel_->trace : nullptr;
  }
  [[nodiscard]] std::uint32_t track() const {
    return ctx_ != nullptr ? ctx_->track : 0;
  }

  telemetry::Telemetry* tel_ = nullptr;
  profile::Profiler* prof_ = nullptr;  ///< null unless the profiler samples
  std::size_t groups_ = 1;
  std::size_t particles_ = 0;
  StageTimers timers_;
  std::array<StageMetrics, kStageCount> stages_{};
  std::uint64_t profiled_steps_ = 0;
  std::array<telemetry::Counter*, kCounters.size()> counters_{};
  telemetry::Gauge* normals_high_water_ = nullptr;
  telemetry::Gauge* uniforms_high_water_ = nullptr;
  telemetry::Gauge* pool_jobs_ = nullptr;
  telemetry::Gauge* pool_indices_ = nullptr;
  telemetry::Gauge* pool_max_depth_ = nullptr;
  telemetry::Gauge* launches_ = nullptr;
  // The in-flight round (set by RoundScope).
  std::uint64_t step_ = 0;
  const telemetry::TraceContext* ctx_ = nullptr;
};

inline StageProbe::StageProbe(telemetry::Telemetry* tel, Filter filter,
                       std::size_t groups, std::size_t particles)
    : tel_(tel), groups_(groups), particles_(particles) {
  if (tel_ == nullptr) return;
  auto& reg = tel_->registry;
  const bool distributed = filter == Filter::kDistributed;
  reg.gauge("profile.mode").set(static_cast<double>(tel_->profile.mode()));
  reg.gauge("profile.unavailable")
      .set(tel_->profile.unavailable_reason().empty() ? 0.0 : 1.0);
  if (tel_->profile.enabled()) prof_ = &tel_->profile;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    const auto stage = static_cast<Stage>(s);
    if (!distributed && stage != Stage::kSampling &&
        stage != Stage::kGlobalEstimate && stage != Stage::kResampling) {
      continue;
    }
    const std::string key = StageTimers::key(stage);
    StageMetrics& m = stages_[s];
    m.hist = &reg.histogram("stage." + key);
    if (prof_ == nullptr) continue;
    m.accum = &prof_->accumulator("stage." + key);
    const std::string base = "profile.stage." + key + ".";
    m.ipc = &reg.gauge(base + "ipc");
    m.cycles = &reg.gauge(base + "cycles_per_particle");
    m.misses = &reg.gauge(base + "cache_misses_per_particle");
    m.cpu_ns = &reg.gauge(base + "cpu_ns_per_particle");
  }
  for (std::size_t i = 0; i < kCounters.size(); ++i) {
    const char* name = distributed ? kCounters[i].distributed : kCounters[i].centralized;
    if (name != nullptr) counters_[i] = &reg.counter(name);
  }
  if (distributed) {
    normals_high_water_ = &reg.gauge("rng.normals_high_water");
    uniforms_high_water_ = &reg.gauge("rng.uniforms_high_water");
    pool_jobs_ = &reg.gauge("pool.jobs_executed");
    pool_indices_ = &reg.gauge("pool.indices_executed");
    pool_max_depth_ = &reg.gauge("pool.max_queue_depth");
    launches_ = &reg.gauge("device.launches");
  }
}

inline void StageProbe::publish(std::string_view gauge, double value) const {
  if (tel_ != nullptr) tel_->registry.gauge(gauge).set(value);
}

inline void StageProbe::end_step(std::uint64_t normals_used,
                                 std::uint64_t uniforms_used,
                                 device::Device* dev) {
  if (tel_ == nullptr) return;
  if (normals_high_water_ != nullptr) {
    normals_high_water_->update_max(static_cast<double>(normals_used));
    uniforms_high_water_->update_max(static_cast<double>(uniforms_used));
  }
  if (dev != nullptr) {
    const auto pool = dev->pool().stats();
    pool_jobs_->set(static_cast<double>(pool.jobs_executed));
    pool_indices_->set(static_cast<double>(pool.indices_executed));
    pool_max_depth_->set(static_cast<double>(pool.max_queue_depth));
    launches_->set(static_cast<double>(dev->launch_count()));
  }
  if (prof_ == nullptr) return;
  // Per-particle gauges from the lifetime sums: the hardware-side
  // complement of the stage.* time histograms. Hardware-derived gauges
  // stay 0 in software fallback; task-clock per particle is always live.
  ++profiled_steps_;
  const double particles =
      static_cast<double>(particles_) * static_cast<double>(profiled_steps_);
  for (const StageMetrics& m : stages_) {
    if (m.accum == nullptr) continue;
    const auto sums = m.accum->sums();
    m.cpu_ns->set(sums.task_clock_ns / particles);
    if (sums.hardware_samples > 0) {
      m.ipc->set(sums.ipc());
      m.cycles->set(sums.cycles / particles);
      m.misses->set(sums.cache_misses / particles);
    }
  }
}

}  // namespace esthera::core
