// esthera::telemetry -- the zero-cost-when-off observability layer, built
// in the style of esthera::debug: filters carry a nullable
// `telemetry::Telemetry*` (FilterConfig::telemetry /
// CentralizedOptions::telemetry), and every probe on the hot path is one
// branch on that pointer. When attached, a Telemetry instance aggregates
//
//   * registry  -- counters, gauges, and per-launch latency histograms
//                  (the six "stage.*" histograms, fed with each filter's
//                  StageTimers by core::StageProbe),
//   * trace     -- one span per device kernel launch, exportable as
//                  Chrome Trace Event JSON (chrome://tracing / Perfetto),
//   * series    -- per-step signals: per-group ESS, unique-parent
//                  fraction, weight entropy, exchange volume, RNG
//                  high-water marks, pool statistics.
//
// Recording is purely passive: no RNG is consumed and no filter state is
// touched, so estimates are bit-identical with and without telemetry.
// One Telemetry may be shared by several filters (all members are
// thread-safe for concurrent recording); sinks.hpp serializes everything.
//
// The ESTHERA_TELEMETRY CMake option mirrors ESTHERA_CHECKED: it does not
// change the filters (the pointer still defaults to null) but flips
// kTelemetryBuild, which the bench harness uses to attach telemetry to
// every benchmark filter by default.
#pragma once

#include "profile/profile.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/series.hpp"
#include "telemetry/trace.hpp"

namespace esthera::telemetry {

/// True when the build carries -DESTHERA_TELEMETRY; the bench harness uses
/// it as the default for attaching telemetry to benchmark filters.
#ifdef ESTHERA_TELEMETRY
inline constexpr bool kTelemetryBuild = true;
#else
inline constexpr bool kTelemetryBuild = false;
#endif

/// The full observability surface a filter records into.
struct Telemetry {
  MetricsRegistry registry;
  TraceRecorder trace;
  StepSeries series;
  /// Hardware-counter attribution (perf_event_open with software
  /// task-clock fallback); resolves its mode from ESTHERA_PROFILE at
  /// construction. Like every other member, recording through it is
  /// purely passive -- estimates stay bit-identical.
  profile::Profiler profile;
};

}  // namespace esthera::telemetry
