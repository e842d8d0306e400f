// esthera::telemetry tests: histogram bucket/quantile semantics, registry
// stability, trace well-formedness and span nesting, series sinks
// (JSONL/CSV/snapshot) round-tripping through the JSON validator, and --
// the layer's core contract -- telemetry-off runs are bit-identical to
// telemetry-on runs for both filter families.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/centralized_pf.hpp"
#include "core/distributed_pf.hpp"
#include "mcore/thread_pool.hpp"
#include "models/robot_arm.hpp"
#include "sim/ground_truth.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/series.hpp"
#include "telemetry/sinks.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace esthera;

// ---------------------------------------------------------------- histogram

TEST(LatencyHistogram, ExactStatsAndIdenticalSampleQuantiles) {
  telemetry::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.p50(), 0.0);

  for (int i = 0; i < 100; ++i) h.record(2e-3);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 2e-3);
  EXPECT_DOUBLE_EQ(h.max(), 2e-3);
  EXPECT_NEAR(h.sum(), 0.2, 1e-12);
  EXPECT_NEAR(h.mean(), 2e-3, 1e-12);
  // All mass in one bucket and quantiles clamp to [min, max]: exact.
  EXPECT_DOUBLE_EQ(h.p50(), 2e-3);
  EXPECT_DOUBLE_EQ(h.p95(), 2e-3);
  EXPECT_DOUBLE_EQ(h.p99(), 2e-3);
}

TEST(LatencyHistogram, QuantilesWithinBucketResolution) {
  telemetry::LatencyHistogram h;
  // 1..1000 us uniformly; true p50 = 500 us, p95 = 950 us.
  for (int i = 1; i <= 1000; ++i) h.record(i * 1e-6);
  // Geometric buckets with ratio sqrt(2): the estimate is off by at most
  // one bucket, i.e. a factor of sqrt(2) either way.
  EXPECT_GT(h.quantile(0.5), 500e-6 / std::sqrt(2.0));
  EXPECT_LT(h.quantile(0.5), 500e-6 * std::sqrt(2.0));
  EXPECT_GT(h.quantile(0.95), 950e-6 / std::sqrt(2.0));
  EXPECT_LE(h.quantile(0.95), 1000e-6);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), h.quantile(1e-9));  // rank floor is 1
  EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max());
}

TEST(LatencyHistogram, GuardsNonFiniteAndNegativeSamples) {
  telemetry::LatencyHistogram h;
  h.record(-1.0);
  h.record(std::nan(""));
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.bucket_count(0), 2u);  // both land in the [0, 1us] bucket
}

TEST(LatencyHistogram, BucketEdgesAreContiguous) {
  for (std::size_t b = 1; b < telemetry::LatencyHistogram::kBucketCount; ++b) {
    EXPECT_DOUBLE_EQ(telemetry::LatencyHistogram::bucket_upper_bound(b - 1),
                     telemetry::LatencyHistogram::bucket_lower_bound(b));
  }
}

TEST(LatencyHistogram, ResetClearsEverything) {
  telemetry::LatencyHistogram h;
  h.record(1.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

// ----------------------------------------------------------------- registry

TEST(MetricsRegistry, CountersGaugesAndStableReferences) {
  telemetry::MetricsRegistry reg;
  telemetry::Counter& c = reg.counter("steps");
  c.add();
  c.add(4);
  EXPECT_EQ(reg.counter("steps").value(), 5u);
  EXPECT_EQ(&reg.counter("steps"), &c);  // get-or-create returns stable refs

  telemetry::Gauge& g = reg.gauge("hwm");
  g.set(2.0);
  g.update_max(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  g.update_max(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);

  EXPECT_EQ(reg.find_counter("absent"), nullptr);
  EXPECT_EQ(reg.find_gauge("absent"), nullptr);
  EXPECT_EQ(reg.find_histogram("absent"), nullptr);
  EXPECT_NE(reg.find_counter("steps"), nullptr);

  reg.histogram("lat").record(1e-3);
  const auto names = reg.histogram_names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "lat");
}

TEST(MetricsRegistry, WriteJsonIsValid) {
  telemetry::MetricsRegistry reg;
  reg.counter("a\"quoted\"").add(7);
  reg.gauge("g").set(-1.25);
  reg.histogram("h").record(2e-3);
  std::ostringstream os;
  reg.write_json(os);
  std::string err;
  EXPECT_TRUE(telemetry::json::validate(os.str(), &err)) << err << "\n" << os.str();
  EXPECT_NE(os.str().find("\"p95\""), std::string::npos);
}

// --------------------------------------------------------------------- json

TEST(Json, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(telemetry::json::validate("{\"a\":[1,2.5e-3,null,true,\"x\"]}"));
  EXPECT_TRUE(telemetry::json::validate("[]"));
  std::string err;
  EXPECT_FALSE(telemetry::json::validate("{", &err));
  EXPECT_FALSE(telemetry::json::validate("tru"));
  EXPECT_FALSE(telemetry::json::validate("{} extra"));
  EXPECT_FALSE(telemetry::json::validate("{\"a\":01}"));
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(telemetry::json::number(std::nan("")), "null");
  std::ostringstream os;
  telemetry::json::JsonWriter w(os);
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.end_array();
  EXPECT_EQ(os.str(), "[null]");
}

// -------------------------------------------------------------------- trace

TEST(TraceRecorder, NullRecorderSpanIsANoOp) {
  telemetry::ScopedSpan span(nullptr, "nothing", 0, 1, 0);
  SUCCEED();  // must not dereference or record anywhere
}

TEST(TraceRecorder, RecordsNestedSpansAndValidChromeTrace) {
  telemetry::TraceRecorder rec;
  {
    telemetry::ScopedSpan outer(&rec, "step", 0, 4, 7);
    {
      telemetry::ScopedSpan inner(&rec, "sampling+weighting", 0, 4, 7);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_EQ(rec.span_count(), 2u);
  const auto spans = rec.spans();  // inner destructs (and records) first
  const auto& inner = spans[0];
  const auto& outer = spans[1];
  EXPECT_EQ(inner.name, "sampling+weighting");
  EXPECT_EQ(outer.name, "step");
  EXPECT_EQ(outer.step, 7u);
  EXPECT_EQ(outer.group_end, 4u);
  // Nesting: the step span must enclose the kernel span on the timeline.
  EXPECT_LE(outer.ts_us, inner.ts_us);
  EXPECT_GE(outer.ts_us + outer.dur_us, inner.ts_us + inner.dur_us);
  EXPECT_GT(inner.dur_us, 0.0);

  std::ostringstream os;
  rec.write_chrome_trace(os);
  std::string err;
  EXPECT_TRUE(telemetry::json::validate(os.str(), &err)) << err;
  EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(os.str().find("\"ph\":\"X\""), std::string::npos);

  rec.clear();
  EXPECT_EQ(rec.span_count(), 0u);
}

// ------------------------------------------------------------ series, sinks

TEST(StepSeries, RecordsScalarsAndGroups) {
  telemetry::StepSeries s;
  s.record(0, "ess.mean", 10.0);
  s.record_group(0, "ess", 3, 12.5);
  s.record_group(1, "ess", 3, 11.0);
  EXPECT_EQ(s.point_count(), 3u);
  const auto pts = s.points("ess");
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].group, 3);
  EXPECT_EQ(pts[1].step, 1u);
  EXPECT_EQ(s.points("ess.mean")[0].group, telemetry::StepSeries::kNoGroup);
  EXPECT_TRUE(s.points("absent").empty());
}

TEST(Sinks, JsonlCsvAndSnapshotRoundTrip) {
  telemetry::Telemetry tel;
  tel.registry.counter("steps").add(2);
  tel.registry.histogram("stage.rand").record(5e-4);
  tel.series.record(0, "ess.mean", 31.0);
  tel.series.record_group(0, "ess", 1, 30.0);

  std::ostringstream jsonl;
  telemetry::write_series_jsonl(jsonl, tel.series);
  std::istringstream lines(jsonl.str());
  std::string line;
  std::size_t n_lines = 0;
  while (std::getline(lines, line)) {
    ++n_lines;
    std::string err;
    EXPECT_TRUE(telemetry::json::validate(line, &err)) << err << "\n" << line;
  }
  EXPECT_EQ(n_lines, 2u);
  EXPECT_NE(jsonl.str().find("\"group\":1"), std::string::npos);

  std::ostringstream csv;
  telemetry::write_series_csv(csv, tel.series);
  EXPECT_EQ(csv.str().substr(0, 23), "series,step,group,value");
  EXPECT_NE(csv.str().find("ess.mean,0,,31"), std::string::npos);

  std::ostringstream snap;
  telemetry::write_snapshot_json(snap, tel);
  std::string err;
  ASSERT_TRUE(telemetry::json::validate(snap.str(), &err)) << err;
  EXPECT_NE(snap.str().find("esthera.telemetry.snapshot/1"), std::string::npos);
  EXPECT_NE(snap.str().find("\"stage.rand\""), std::string::npos);
  EXPECT_NE(snap.str().find("\"series\""), std::string::npos);
}

// -------------------------------------------------------------- stage timers

TEST(StageTimers, EmptyTimerIsWellDefined) {
  core::StageTimers t;
  EXPECT_EQ(t.total(), 0.0);
  EXPECT_EQ(t.fraction(core::Stage::kRand), 0.0);
  EXPECT_EQ(t.launches(core::Stage::kRand), 0u);
  EXPECT_EQ(t.breakdown_string(), "(no samples)");
}

TEST(StageTimers, TracksLaunchCountsAndKeys) {
  core::StageTimers t;
  t.add(core::Stage::kExchange, 0.25);
  t.add(core::Stage::kExchange, 0.75);
  EXPECT_EQ(t.launches(core::Stage::kExchange), 2u);
  EXPECT_DOUBLE_EQ(t.seconds(core::Stage::kExchange), 1.0);
  EXPECT_DOUBLE_EQ(t.fraction(core::Stage::kExchange), 1.0);
  EXPECT_NE(t.breakdown_string().find("(2x)"), std::string::npos);
  EXPECT_STREQ(core::StageTimers::key(core::Stage::kLocalSort), "local_sort");
  EXPECT_STREQ(core::StageTimers::key(core::Stage::kGlobalEstimate),
               "global_estimate");
}

// --------------------------------------------------------------- thread pool

TEST(ThreadPool, ReportsExecutionStats) {
  mcore::ThreadPool pool(2);
  std::atomic<int> hits{0};
  pool.run(10, [&](std::size_t, std::size_t) { ++hits; }, 2);
  pool.run(4, [&](std::size_t, std::size_t) { ++hits; }, 1);
  EXPECT_EQ(hits.load(), 14);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.jobs_executed, 2u);
  EXPECT_EQ(stats.indices_executed, 14u);
  EXPECT_EQ(stats.max_queue_depth, 10u);
}

// ------------------------------------------------- filters: on == off (bits)

core::FilterConfig tel_config() {
  core::FilterConfig cfg;
  cfg.particles_per_filter = 32;
  cfg.num_filters = 16;
  cfg.scheme = topology::ExchangeScheme::kRing;
  cfg.exchange_particles = 1;
  cfg.workers = 2;
  cfg.seed = 7;
  return cfg;
}

template <typename Filter>
std::vector<float> run_arm_estimates(Filter& pf, int steps, std::uint64_t seed) {
  sim::RobotArmScenario scenario;
  scenario.reset(seed);
  std::vector<float> z, u, out;
  for (int k = 0; k < steps; ++k) {
    const auto step = scenario.advance();
    z.assign(step.z.begin(), step.z.end());
    u.assign(step.u.begin(), step.u.end());
    pf.step(z, u);
    out.insert(out.end(), pf.estimate().begin(), pf.estimate().end());
  }
  return out;
}

TEST(TelemetryEquivalence, DistributedEstimatesAreBitIdentical) {
  using Filter = core::DistributedParticleFilter<models::RobotArmModel<float>>;
  sim::RobotArmScenario scenario;

  core::FilterConfig off_cfg = tel_config();
  ASSERT_EQ(off_cfg.telemetry, nullptr);
  scenario.reset(5);
  Filter off(scenario.make_model<float>(), off_cfg);
  const auto base = run_arm_estimates(off, 12, 5);

  telemetry::Telemetry tel;
  core::FilterConfig on_cfg = tel_config();
  on_cfg.telemetry = &tel;
  scenario.reset(5);
  Filter on(scenario.make_model<float>(), on_cfg);
  const auto observed = run_arm_estimates(on, 12, 5);

  ASSERT_EQ(base.size(), observed.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i], observed[i]) << "estimate diverged at element " << i;
  }

  // The instrumented run actually recorded what the docs promise.
  EXPECT_EQ(tel.registry.counter("steps").value(), 12u);
  for (const char* name :
       {"stage.rand", "stage.sampling", "stage.local_sort",
        "stage.global_estimate", "stage.exchange", "stage.resampling"}) {
    const auto* h = tel.registry.find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GE(h->count(), 12u) << name;
  }
  EXPECT_EQ(tel.series.points("ess").size(), 12u * 16u);
  EXPECT_EQ(tel.series.points("unique_parent").size(), 12u * 16u);
  EXPECT_EQ(tel.series.points("entropy").size(), 12u * 16u);
  EXPECT_EQ(tel.series.points("exchange.volume").size(), 12u);
  // Ring, t=1: every group receives one particle from each of its two
  // neighbours per step.
  EXPECT_DOUBLE_EQ(tel.series.points("exchange.volume")[0].value, 32.0);
  EXPECT_GT(tel.trace.span_count(), 12u * 6u);  // round + kernel spans
  EXPECT_GT(tel.registry.gauge("pool.jobs_executed").value(), 0.0);

  // Per-group diagnostics surface through the filter, too.
  EXPECT_EQ(on.group_ess().size(), 16u);
  EXPECT_EQ(on.group_unique_parent_fraction().size(), 16u);
  for (const double f : on.group_unique_parent_fraction()) {
    EXPECT_GT(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
}

TEST(TelemetryEquivalence, CentralizedEstimatesAreBitIdentical) {
  using Filter = core::CentralizedParticleFilter<models::RobotArmModel<float>>;
  sim::RobotArmScenario scenario;
  core::CentralizedOptions opts;
  opts.seed = 11;

  scenario.reset(4);
  Filter off(scenario.make_model<float>(), 128, opts);
  const auto base = run_arm_estimates(off, 10, 4);

  telemetry::Telemetry tel;
  core::CentralizedOptions on_opts = opts;
  on_opts.telemetry = &tel;
  scenario.reset(4);
  Filter on(scenario.make_model<float>(), 128, on_opts);
  const auto observed = run_arm_estimates(on, 10, 4);

  ASSERT_EQ(base.size(), observed.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i], observed[i]) << "estimate diverged at element " << i;
  }
  EXPECT_EQ(tel.registry.counter("steps").value(), 10u);
  EXPECT_EQ(tel.series.points("ess").size(), 10u);
  EXPECT_EQ(tel.series.points("unique_parent").size(), 10u);
  ASSERT_NE(tel.registry.find_histogram("stage.sampling"), nullptr);
  EXPECT_EQ(tel.registry.find_histogram("stage.sampling")->count(), 10u);
  EXPECT_EQ(tel.trace.span_count(), 10u * 4u);  // step + three stage spans
}

TEST(TelemetryComposition, WorksAlongsideInvariantChecking) {
  using Filter = core::DistributedParticleFilter<models::RobotArmModel<float>>;
  telemetry::Telemetry tel;
  core::FilterConfig cfg = tel_config();
  cfg.check_invariants = true;
  cfg.telemetry = &tel;
  sim::RobotArmScenario scenario;
  scenario.reset(6);
  Filter pf(scenario.make_model<float>(), cfg);
  EXPECT_NO_THROW(run_arm_estimates(pf, 6, 6));
  // The checker's RNG budget accounting feeds the high-water gauges.
  const auto* hwm = tel.registry.find_gauge("rng.normals_high_water");
  ASSERT_NE(hwm, nullptr);
  EXPECT_GT(hwm->value(), 0.0);
  EXPECT_GT(tel.registry.gauge("rng.normals_budget").value(),
            hwm->value() - 1.0);
  EXPECT_GT(tel.trace.span_count(), 0u);
}

}  // namespace
