// esthera::monitor: detector trip/no-trip semantics, rate limiting,
// JSONL event export, and - the load-bearing guarantee - that attaching a
// HealthMonitor to either filter changes no estimate bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/centralized_pf.hpp"
#include "core/distributed_pf.hpp"
#include "models/model.hpp"
#include "models/robot_arm.hpp"
#include "monitor/monitor.hpp"
#include "resample/metropolis.hpp"
#include "sim/ground_truth.hpp"
#include "telemetry/json.hpp"

namespace {

using namespace esthera;

// Healthy sample values: well above every default threshold.
constexpr double kHealthyEss = 0.8;
constexpr double kHealthyUnique = 0.6;
constexpr double kHealthyEntropy = 0.9;

void observe_healthy(monitor::HealthMonitor& mon, std::uint64_t step,
                     std::int64_t group = 0) {
  mon.observe_group(step, group, kHealthyEss, kHealthyUnique, kHealthyEntropy,
                    /*degenerate=*/false, /*nonfinite_weights=*/0);
}

// ------------------------------------------------------------- detectors

TEST(Monitor, HealthySignalsRaiseNothing) {
  monitor::HealthMonitor mon;
  for (std::uint64_t k = 0; k < 20; ++k) {
    observe_healthy(mon, k);
    mon.observe_exchange_volume(k, 32.0);
  }
  EXPECT_EQ(mon.event_count(), 0u);
  EXPECT_EQ(mon.suppressed_count(), 0u);
}

TEST(Monitor, EssCollapseTripsBelowThreshold) {
  monitor::HealthMonitor mon;
  mon.observe_group(0, 3, /*ess_fraction=*/0.01, kHealthyUnique,
                    kHealthyEntropy, false, 0);
  ASSERT_EQ(mon.count("ess_collapse"), 1u);
  const auto events = mon.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detector, "ess_collapse");
  EXPECT_EQ(events[0].severity, monitor::Severity::kWarning);
  EXPECT_EQ(events[0].group, 3);
  EXPECT_DOUBLE_EQ(events[0].value, 0.01);
  EXPECT_DOUBLE_EQ(events[0].threshold, mon.config().ess_collapse_fraction);
}

TEST(Monitor, DegenerateGroupEscalatesEssCollapseToCritical) {
  monitor::HealthMonitor mon;
  mon.observe_group(0, 0, /*ess_fraction=*/0.0, kHealthyUnique, 0.0,
                    /*degenerate=*/true, 0);
  ASSERT_GE(mon.count("ess_collapse"), 1u);
  EXPECT_EQ(mon.events()[0].severity, monitor::Severity::kCritical);
  // A degenerate group's entropy is meaningless; no entropy_floor noise.
  EXPECT_EQ(mon.count("entropy_floor"), 0u);
}

TEST(Monitor, ParentStarvationTripsBelowThreshold) {
  monitor::HealthMonitor mon;
  mon.observe_group(0, 1, kHealthyEss, /*unique_parent=*/0.02, kHealthyEntropy,
                    false, 0);
  EXPECT_EQ(mon.count("parent_starvation"), 1u);
  EXPECT_EQ(mon.count("ess_collapse"), 0u);
}

TEST(Monitor, EntropyFloorTripsBelowThreshold) {
  monitor::HealthMonitor mon;
  mon.observe_group(0, 2, kHealthyEss, kHealthyUnique,
                    /*normalized_entropy=*/0.01, false, 0);
  ASSERT_EQ(mon.count("entropy_floor"), 1u);
  EXPECT_EQ(mon.events()[0].severity, monitor::Severity::kInfo);
}

TEST(Monitor, NonfiniteWeightsAreCritical) {
  monitor::HealthMonitor mon;
  mon.observe_group(4, 7, kHealthyEss, kHealthyUnique, kHealthyEntropy, false,
                    /*nonfinite_weights=*/3);
  ASSERT_EQ(mon.count("nonfinite_weights"), 1u);
  const auto events = mon.events();
  EXPECT_EQ(events[0].severity, monitor::Severity::kCritical);
  EXPECT_DOUBLE_EQ(events[0].value, 3.0);
}

TEST(Monitor, ExchangeAnomalyComparesAgainstFirstObservation) {
  monitor::HealthMonitor mon;
  mon.observe_exchange_volume(0, 32.0);  // becomes the reference
  mon.observe_exchange_volume(1, 32.0);
  mon.observe_exchange_volume(2, 40.0);  // 25% off: inside tolerance (50%)
  EXPECT_EQ(mon.count("exchange_anomaly"), 0u);
  mon.observe_exchange_volume(3, 128.0);  // 4x the reference
  ASSERT_EQ(mon.count("exchange_anomaly"), 1u);
  const auto events = mon.events();
  EXPECT_EQ(events[0].group, monitor::HealthMonitor::kNoGroup);
  EXPECT_DOUBLE_EQ(events[0].value, 128.0);
}

// ----------------------------------------------------------- rate limiting

TEST(Monitor, CooldownSuppressesRepeatTrips) {
  monitor::MonitorConfig cfg;
  cfg.cooldown_steps = 10;
  monitor::HealthMonitor mon(cfg);
  for (std::uint64_t k = 0; k <= 5; ++k) {
    mon.observe_group(k, 0, 0.01, kHealthyUnique, kHealthyEntropy, false, 0);
  }
  EXPECT_EQ(mon.count("ess_collapse"), 1u);
  EXPECT_EQ(mon.suppressed_count(), 5u);
  // Past the cooldown window the detector may fire again.
  mon.observe_group(11, 0, 0.01, kHealthyUnique, kHealthyEntropy, false, 0);
  EXPECT_EQ(mon.count("ess_collapse"), 2u);
}

TEST(Monitor, CooldownIsPerGroupAndPerDetector) {
  monitor::MonitorConfig cfg;
  cfg.cooldown_steps = 10;
  monitor::HealthMonitor mon(cfg);
  mon.observe_group(0, 0, 0.01, kHealthyUnique, kHealthyEntropy, false, 0);
  mon.observe_group(0, 1, 0.01, kHealthyUnique, kHealthyEntropy, false, 0);
  EXPECT_EQ(mon.count("ess_collapse"), 2u);  // distinct groups both emit
  // A different detector on a cooling-down group still emits.
  mon.observe_group(1, 0, kHealthyEss, 0.01, kHealthyEntropy, false, 0);
  EXPECT_EQ(mon.count("parent_starvation"), 1u);
  EXPECT_EQ(mon.suppressed_count(), 0u);
}

TEST(Monitor, ZeroCooldownEmitsEveryTrip) {
  monitor::MonitorConfig cfg;
  cfg.cooldown_steps = 0;
  monitor::HealthMonitor mon(cfg);
  for (std::uint64_t k = 0; k < 4; ++k) {
    mon.observe_group(k, 0, 0.01, kHealthyUnique, kHealthyEntropy, false, 0);
  }
  EXPECT_EQ(mon.count("ess_collapse"), 4u);
  EXPECT_EQ(mon.suppressed_count(), 0u);
}

TEST(Monitor, MetropolisBiasTripsOnUnderSizedChain) {
  monitor::HealthMonitor mon;
  // beta = 8 at the default epsilon needs ~dozens of steps; 4 is far
  // short, so the detector raises with the recommended count as threshold.
  mon.observe_metropolis(/*step=*/2, /*group=*/5, /*beta=*/8.0,
                         /*chain_steps=*/4);
  ASSERT_EQ(mon.count("metropolis_bias"), 1u);
  const auto events = mon.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].severity, monitor::Severity::kWarning);
  EXPECT_EQ(events[0].group, 5);
  EXPECT_DOUBLE_EQ(events[0].value, 4.0);
  EXPECT_DOUBLE_EQ(events[0].threshold,
                   static_cast<double>(resample::metropolis_recommended_steps(
                       8.0, mon.config().metropolis_bias_epsilon)));
}

TEST(Monitor, MetropolisBiasSilentWhenChainIsLongEnough) {
  monitor::HealthMonitor mon;
  const std::size_t enough = resample::metropolis_recommended_steps(
      8.0, mon.config().metropolis_bias_epsilon);
  mon.observe_metropolis(0, 0, 8.0, enough);
  mon.observe_metropolis(1, 0, 1.0, 1);  // uniform weights: one step is fine
  EXPECT_EQ(mon.count("metropolis_bias"), 0u);
  EXPECT_EQ(mon.event_count(), 0u);
}

TEST(Monitor, RetentionCapKeepsCountingPastMaxEvents) {
  monitor::MonitorConfig cfg;
  cfg.cooldown_steps = 0;
  cfg.max_events = 3;
  monitor::HealthMonitor mon(cfg);
  for (std::uint64_t k = 0; k < 8; ++k) {
    mon.observe_group(k, 0, 0.01, kHealthyUnique, kHealthyEntropy, false, 0);
  }
  EXPECT_EQ(mon.events().size(), 3u);
  EXPECT_EQ(mon.event_count(), 8u);
  EXPECT_EQ(mon.count("ess_collapse"), 8u);
}

TEST(Monitor, ClearResetsStateButKeepsSink) {
  std::ostringstream sink;
  monitor::MonitorConfig cfg;
  cfg.cooldown_steps = 0;
  monitor::HealthMonitor mon(cfg);
  mon.set_sink(&sink);
  mon.observe_group(0, 0, 0.01, kHealthyUnique, kHealthyEntropy, false, 0);
  mon.observe_exchange_volume(0, 32.0);
  mon.clear();
  EXPECT_EQ(mon.event_count(), 0u);
  EXPECT_TRUE(mon.events().empty());
  // The exchange reference was dropped: a new volume becomes the baseline
  // instead of tripping against the old one.
  mon.observe_exchange_volume(1, 512.0);
  EXPECT_EQ(mon.count("exchange_anomaly"), 0u);
  // Sink survives clear(): the next event still streams.
  const auto before = sink.str().size();
  mon.observe_group(2, 0, 0.01, kHealthyUnique, kHealthyEntropy, false, 0);
  EXPECT_GT(sink.str().size(), before);
}

// ------------------------------------------------------------ JSONL export

TEST(Monitor, SinkStreamsOneValidJsonObjectPerLine) {
  std::ostringstream sink;
  monitor::MonitorConfig cfg;
  cfg.cooldown_steps = 0;
  monitor::HealthMonitor mon(cfg);
  mon.set_sink(&sink);
  mon.observe_group(3, 5, 0.01, 0.01, 0.01, false, 2);
  mon.observe_exchange_volume(3, 16.0);
  mon.observe_exchange_volume(4, 999.0);

  std::istringstream lines(sink.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    std::string error;
    EXPECT_TRUE(telemetry::json::validate(line, &error)) << error;
    const auto v = telemetry::json::parse(line, &error);
    ASSERT_TRUE(v.has_value()) << error;
    ASSERT_NE(v->find("schema"), nullptr);
    EXPECT_EQ(v->find("schema")->as_string(), "esthera.monitor.event/1");
    ASSERT_NE(v->find("detector"), nullptr);
    ASSERT_NE(v->find("severity"), nullptr);
    ASSERT_NE(v->find("step"), nullptr);
    ++n;
  }
  EXPECT_EQ(n, mon.event_count());
  EXPECT_GE(n, 4u);  // ess + starvation + entropy + nonfinite (+ anomaly)

  // write_events_jsonl re-serializes the retained events identically.
  std::ostringstream rewritten;
  mon.write_events_jsonl(rewritten);
  EXPECT_EQ(rewritten.str(), sink.str());
}

TEST(Monitor, GroupFieldOmittedForPopulationEvents) {
  std::ostringstream sink;
  monitor::HealthMonitor mon;
  mon.set_sink(&sink);
  mon.observe_exchange_volume(0, 8.0);
  mon.observe_exchange_volume(1, 800.0);
  const auto v = telemetry::json::parse(sink.str());
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("group"), nullptr);
  ASSERT_NE(v->find("detector"), nullptr);
  EXPECT_EQ(v->find("detector")->as_string(), "exchange_anomaly");
}

// ----------------------------------------------- filters: on == off (bits)

core::FilterConfig mon_config() {
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

TEST(MonitorEquivalence, DistributedEstimatesAreBitIdentical) {
  using Filter = core::DistributedParticleFilter<models::RobotArmModel<float>>;
  sim::RobotArmScenario scenario;

  core::FilterConfig off_cfg = mon_config();
  ASSERT_EQ(off_cfg.monitor, nullptr);
  scenario.reset(5);
  Filter off(scenario.make_model<float>(), off_cfg);
  const auto base = run_arm_estimates(off, 12, 5);

  monitor::HealthMonitor mon;
  core::FilterConfig on_cfg = mon_config();
  on_cfg.monitor = &mon;
  scenario.reset(5);
  Filter on(scenario.make_model<float>(), on_cfg);
  const auto observed = run_arm_estimates(on, 12, 5);

  ASSERT_EQ(base.size(), observed.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i], observed[i]) << "estimate diverged at element " << i;
  }
  // A healthy tracking run leaks no NaN.
  EXPECT_EQ(mon.count("nonfinite_weights"), 0u);
}

TEST(MonitorEquivalence, CentralizedEstimatesAreBitIdentical) {
  using Filter = core::CentralizedParticleFilter<models::RobotArmModel<float>>;
  sim::RobotArmScenario scenario;
  core::CentralizedOptions opts;
  opts.seed = 11;
  opts.move_steps = 1;  // exercise the restructured MH acceptance path

  scenario.reset(4);
  Filter off(scenario.make_model<float>(), 128, opts);
  const auto base = run_arm_estimates(off, 10, 4);

  monitor::HealthMonitor mon;
  core::CentralizedOptions on_opts = opts;
  on_opts.monitor = &mon;
  scenario.reset(4);
  Filter on(scenario.make_model<float>(), 128, on_opts);
  const auto observed = run_arm_estimates(on, 10, 4);

  ASSERT_EQ(base.size(), observed.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i], observed[i]) << "estimate diverged at element " << i;
  }
  EXPECT_EQ(mon.count("nonfinite_weights"), 0u);
}

TEST(MonitorEquivalence, CentralizedTelemetryAndMonitorSeeTheSameRound) {
  // Both consumers attached share one computation of the round's entropy
  // and unique-parent fraction; each must see what it sees alone.
  using Filter = core::CentralizedParticleFilter<models::RobotArmModel<float>>;
  monitor::MonitorConfig trip_always;
  trip_always.entropy_floor_fraction = 1.01;  // normalized entropy <= 1
  trip_always.unique_parent_min = 1.01;       // unique fraction <= 1
  trip_always.metropolis_bias_epsilon = 1e-12;
  trip_always.cooldown_steps = 0;
  core::CentralizedOptions opts;
  opts.seed = 11;
  opts.resample = core::ResampleAlgorithm::kMetropolis;
  sim::RobotArmScenario scenario;
  const auto run = [&](telemetry::Telemetry* tel, monitor::HealthMonitor* mon) {
    core::CentralizedOptions o = opts;
    o.telemetry = tel;
    o.monitor = mon;
    scenario.reset(4);
    Filter pf(scenario.make_model<float>(), 128, o);
    run_arm_estimates(pf, 10, 4);
  };
  telemetry::Telemetry tel_alone;
  run(&tel_alone, nullptr);
  monitor::HealthMonitor mon_alone(trip_always);
  run(nullptr, &mon_alone);
  telemetry::Telemetry tel_both;
  monitor::HealthMonitor mon_both(trip_always);
  run(&tel_both, &mon_both);

  for (const char* name : {"ess", "entropy", "unique_parent"}) {
    const auto alone = tel_alone.series.points(name);
    const auto both = tel_both.series.points(name);
    ASSERT_EQ(alone.size(), 10u) << name;
    ASSERT_EQ(both.size(), alone.size()) << name;
    for (std::size_t i = 0; i < alone.size(); ++i) {
      EXPECT_EQ(both[i].value, alone[i].value) << name << " step " << i;
    }
  }
  const auto alone = mon_alone.events();
  const auto both = mon_both.events();
  for (const char* detector :
       {"entropy_floor", "parent_starvation", "metropolis_bias"}) {
    EXPECT_EQ(mon_alone.count(detector), 10u) << detector;
  }
  ASSERT_EQ(both.size(), alone.size());
  for (std::size_t i = 0; i < alone.size(); ++i) {
    EXPECT_EQ(both[i].detector, alone[i].detector) << i;
    EXPECT_EQ(both[i].step, alone[i].step) << i;
    EXPECT_EQ(both[i].value, alone[i].value) << alone[i].detector << " " << i;
  }
}

TEST(MonitorEquivalence, WorksAlongsideTelemetryAndChecking) {
  using Filter = core::DistributedParticleFilter<models::RobotArmModel<float>>;
  telemetry::Telemetry tel;
  monitor::HealthMonitor mon;
  core::FilterConfig cfg = mon_config();
  cfg.check_invariants = true;
  cfg.telemetry = &tel;
  cfg.monitor = &mon;
  sim::RobotArmScenario scenario;
  scenario.reset(6);
  Filter pf(scenario.make_model<float>(), cfg);
  EXPECT_NO_THROW(run_arm_estimates(pf, 6, 6));
  EXPECT_EQ(tel.registry.counter("steps").value(), 6u);
}

// ------------------------------------------- forced collapse, end to end

/// A 1-D model whose likelihood is so peaked that a single particle takes
/// essentially all the weight: ESS/m collapses toward 1/m every step, the
/// exact degeneracy failure mode the monitor exists to flag.
template <typename T>
class PeakedModel {
 public:
  using Scalar = T;
  [[nodiscard]] std::size_t state_dim() const { return 1; }
  [[nodiscard]] std::size_t measurement_dim() const { return 1; }
  [[nodiscard]] std::size_t control_dim() const { return 0; }
  [[nodiscard]] std::size_t noise_dim() const { return 1; }
  [[nodiscard]] std::size_t init_noise_dim() const { return 1; }
  [[nodiscard]] std::size_t measurement_noise_dim() const { return 1; }

  void sample_initial(std::span<T> x, std::span<const T> normals) const {
    x[0] = normals[0];  // wide prior vs the razor-thin likelihood
  }
  void sample_transition(std::span<const T> x_prev, std::span<T> x,
                         std::span<const T> /*u*/, std::span<const T> normals,
                         std::size_t /*step*/) const {
    x[0] = x_prev[0] + normals[0];
  }
  void sample_measurement(std::span<const T> x, std::span<T> z,
                          std::span<const T> normals) const {
    z[0] = x[0] + T(0.001) * normals[0];
  }
  [[nodiscard]] T log_likelihood(std::span<const T> x,
                                 std::span<const T> z) const {
    const T e = z[0] - x[0];
    return -T(5e4) * e * e;  // sigma ~ 0.003: one particle dominates
  }
};

TEST(MonitorEndToEnd, ForcedEssCollapseEmitsEventsToJsonlSink) {
  static_assert(models::SystemModel<PeakedModel<float>>);
  std::ostringstream sink;
  monitor::HealthMonitor mon;
  mon.set_sink(&sink);

  core::FilterConfig cfg;
  cfg.particles_per_filter = 64;
  cfg.num_filters = 8;
  cfg.workers = 2;
  cfg.seed = 3;
  cfg.monitor = &mon;
  core::DistributedParticleFilter<PeakedModel<float>> pf(PeakedModel<float>{},
                                                         cfg);
  sim::ModelSimulator<PeakedModel<double>> sim(PeakedModel<double>{}, 9);
  std::vector<float> z;
  for (int k = 0; k < 10; ++k) {
    const auto step = sim.advance();
    z.assign(step.z.begin(), step.z.end());
    pf.step(z);
  }
  EXPECT_GE(mon.count("ess_collapse"), 1u)
      << "a near-delta likelihood must collapse the ESS";
  // And the collapse reached the JSONL sink as parseable events.
  std::istringstream lines(sink.str());
  std::string line;
  bool saw_collapse = false;
  while (std::getline(lines, line)) {
    std::string error;
    ASSERT_TRUE(telemetry::json::validate(line, &error)) << error;
    if (line.find("\"ess_collapse\"") != std::string::npos) saw_collapse = true;
  }
  EXPECT_TRUE(saw_collapse);
}

}  // namespace
