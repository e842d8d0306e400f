// Utility-module tests: the particle stores, the bench table/CLI helpers,
// the filter configuration, and the stage timers.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "bench_util/cli.hpp"
#include "bench_util/table.hpp"
#include "core/config.hpp"
#include "core/particle_store.hpp"
#include "core/stage_probe.hpp"
#include "core/stage_timers.hpp"

namespace {

using namespace esthera;

// --- ParticleStore -----------------------------------------------------------

TEST(ParticleStore, LayoutAndAccessors) {
  core::ParticleStore<float> store(4, 3);
  EXPECT_EQ(store.count(), 4u);
  EXPECT_EQ(store.dim(), 3u);
  for (std::size_t i = 0; i < 4; ++i) {
    auto s = store.state(i);
    for (std::size_t d = 0; d < 3; ++d) s[d] = static_cast<float>(i * 10 + d);
    store.log_weights()[i] = static_cast<float>(i);
  }
  // AoS: particle i occupies contiguous raw slots [3i, 3i+3).
  const auto raw = store.raw_state();
  EXPECT_FLOAT_EQ(raw[3 * 2 + 1], 21.0f);
  const auto block = store.state_block(1, 2);
  EXPECT_EQ(block.size(), 6u);
  EXPECT_FLOAT_EQ(block[0], 10.0f);
  const auto lw = store.log_weights(2, 2);
  EXPECT_FLOAT_EQ(lw[0], 2.0f);
}

TEST(ParticleStore, SwapIsCheapAndComplete) {
  core::ParticleStore<double> a(2, 2);
  core::ParticleStore<double> b(3, 2);
  a.state(0)[0] = 1.0;
  b.state(0)[0] = 9.0;
  a.swap(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(a.state(0)[0], 9.0);
  EXPECT_DOUBLE_EQ(b.state(0)[0], 1.0);
}

TEST(ParticleStore, ResizeZeroes) {
  core::ParticleStore<float> store(2, 2);
  store.state(0)[0] = 5.0f;
  store.resize(3, 4);
  EXPECT_EQ(store.count(), 3u);
  EXPECT_EQ(store.dim(), 4u);
  for (const float v : store.raw_state()) EXPECT_EQ(v, 0.0f);
}

TEST(ParticleStoreSoA, ComponentMajorLayout) {
  core::ParticleStoreSoA<float> store(4, 2);
  store.at(1, 0) = 3.0f;
  store.at(1, 1) = 7.0f;
  EXPECT_FLOAT_EQ(store.component(0)[1], 3.0f);
  EXPECT_FLOAT_EQ(store.component(1)[1], 7.0f);
  EXPECT_EQ(store.component(0).size(), 4u);
}

// --- Table --------------------------------------------------------------------

TEST(Table, AlignedOutput) {
  bench_util::Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, CsvOutput) {
  bench_util::Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, ShortRowsPadAndLongRowsThrow) {
  bench_util::Table t({"a", "b", "c"});
  t.add_row({"only"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b,c\nonly,,\n");
  EXPECT_THROW(t.add_row({"1", "2", "3", "4"}), std::invalid_argument);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(bench_util::Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(bench_util::Table::num(std::size_t{42}), "42");
  EXPECT_EQ(bench_util::Table::num(2.0, 0), "2");
}

// --- Cli -----------------------------------------------------------------------

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--steps=50", "--name", "ring", "--flag"};
  bench_util::Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_size("--steps", 0), 50u);
  EXPECT_EQ(cli.get("--name", ""), "ring");
  EXPECT_TRUE(cli.has("--flag"));
  EXPECT_FALSE(cli.has("--absent"));
  EXPECT_EQ(cli.get_size("--absent", 7), 7u);
  EXPECT_DOUBLE_EQ(cli.get_double("--absent", 1.5), 1.5);
}

TEST(Cli, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(bench_util::Cli(2, const_cast<char**>(argv)), std::invalid_argument);
}

TEST(Cli, FlagFollowedByFlagHasNoValue) {
  const char* argv[] = {"prog", "--a", "--b", "x"};
  bench_util::Cli cli(4, const_cast<char**>(argv));
  EXPECT_TRUE(cli.has("--a"));
  EXPECT_EQ(cli.get("--a", "none"), "none");
  EXPECT_EQ(cli.get("--b", ""), "x");
}

TEST(Cli, ParseOrExitAcceptsKnownFlags) {
  const char* argv[] = {"prog", "--steps=50", "--json", "out.json"};
  const auto cli = bench_util::Cli::parse_or_exit(4, const_cast<char**>(argv),
                                                  {"--steps", "--json"});
  EXPECT_EQ(cli.get_size("--steps", 0), 50u);
  EXPECT_EQ(cli.get("--json", ""), "out.json");
}

TEST(CliDeathTest, UnknownFlagExitsWithError) {
  const char* argv[] = {"prog", "--setps=50"};  // typo'd --steps
  EXPECT_EXIT(
      {
        const auto cli = bench_util::Cli::parse_or_exit(
            2, const_cast<char**>(argv), {"--steps", "--json"});
        (void)cli;
      },
      testing::ExitedWithCode(2), "unknown flag '--setps'");
}

TEST(CliDeathTest, UnknownFlagListsAcceptedFlagsSorted) {
  const char* argv[] = {"prog", "--bogus"};
  EXPECT_EXIT(
      {
        const auto cli = bench_util::Cli::parse_or_exit(
            2, const_cast<char**>(argv), {"--steps", "--json"});
        (void)cli;
      },
      testing::ExitedWithCode(2), "accepted flags: --json --steps");
}

TEST(CliDeathTest, HelpPrintsAcceptedFlagsAndExitsZero) {
  const char* argv[] = {"prog", "--help"};
  EXPECT_EXIT(
      {
        const auto cli = bench_util::Cli::parse_or_exit(
            2, const_cast<char**>(argv), {"--steps", "--json"});
        (void)cli;
      },
      testing::ExitedWithCode(0), "");
}

TEST(CliDeathTest, HelpWinsOverUnknownFlags) {
  const char* argv[] = {"prog", "--bogus", "--help"};
  EXPECT_EXIT(
      {
        const auto cli = bench_util::Cli::parse_or_exit(
            3, const_cast<char**>(argv), {"--steps"});
        (void)cli;
      },
      testing::ExitedWithCode(0), "");
}

TEST(CliDeathTest, PositionalArgumentExitsInsteadOfThrowing) {
  const char* argv[] = {"prog", "stray"};
  EXPECT_EXIT(
      {
        const auto cli = bench_util::Cli::parse_or_exit(
            2, const_cast<char**>(argv), {"--steps"});
        (void)cli;
      },
      testing::ExitedWithCode(2), "unexpected positional argument: stray");
}

// --- FilterConfig ---------------------------------------------------------------

TEST(FilterConfig, Table2Defaults) {
  const auto gpu = core::FilterConfig::table2_gpu_defaults();
  EXPECT_EQ(gpu.particles_per_filter, 512u);
  EXPECT_EQ(gpu.num_filters, 1024u);
  EXPECT_EQ(gpu.scheme, topology::ExchangeScheme::kRing);
  EXPECT_EQ(gpu.exchange_particles, 1u);
  EXPECT_EQ(gpu.total_particles(), 512u * 1024u);
  EXPECT_NO_THROW(gpu.validate());

  const auto cpu = core::FilterConfig::table2_cpu_defaults();
  EXPECT_EQ(cpu.particles_per_filter, 64u);
  EXPECT_NO_THROW(cpu.validate());
}

TEST(FilterConfig, SummaryMentionsAllKnobs) {
  const auto cfg = core::FilterConfig::table2_gpu_defaults();
  const std::string s = cfg.summary();
  EXPECT_NE(s.find("m=512"), std::string::npos);
  EXPECT_NE(s.find("N=1024"), std::string::npos);
  EXPECT_NE(s.find("ring"), std::string::npos);
  EXPECT_NE(s.find("t=1"), std::string::npos);
}

TEST(FilterConfig, EnumParsers) {
  EXPECT_EQ(core::parse_resample_algorithm("rws"), core::ResampleAlgorithm::kRws);
  EXPECT_EQ(core::parse_resample_algorithm("alias"), core::ResampleAlgorithm::kVose);
  EXPECT_THROW((void)core::parse_resample_algorithm("bogus"), std::invalid_argument);
  EXPECT_EQ(core::parse_estimator("mean"), core::EstimatorKind::kWeightedMean);
  EXPECT_EQ(core::parse_estimator("max"), core::EstimatorKind::kMaxWeight);
  EXPECT_THROW((void)core::parse_estimator("bogus"), std::invalid_argument);
  for (const auto a :
       {core::ResampleAlgorithm::kRws, core::ResampleAlgorithm::kVose,
        core::ResampleAlgorithm::kSystematic, core::ResampleAlgorithm::kStratified}) {
    EXPECT_EQ(core::parse_resample_algorithm(core::to_string(a)), a);
  }
}

TEST(FilterConfig, AllToAllValidatesAgainstPoolInflow) {
  core::FilterConfig cfg;
  cfg.particles_per_filter = 4;
  cfg.num_filters = 8;
  cfg.scheme = topology::ExchangeScheme::kAllToAll;
  cfg.exchange_particles = 4;  // pooled inflow == m
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.exchange_particles = 2;
  EXPECT_NO_THROW(cfg.validate());
}

// --- StageTimers ------------------------------------------------------------------

TEST(StageTimers, AccumulateAndFraction) {
  core::StageTimers timers;
  timers.add(core::Stage::kSampling, 0.3);
  timers.add(core::Stage::kResampling, 0.1);
  timers.add(core::Stage::kSampling, 0.1);
  EXPECT_DOUBLE_EQ(timers.seconds(core::Stage::kSampling), 0.4);
  EXPECT_DOUBLE_EQ(timers.total(), 0.5);
  EXPECT_DOUBLE_EQ(timers.fraction(core::Stage::kSampling), 0.8);
  EXPECT_DOUBLE_EQ(timers.fraction(core::Stage::kRand), 0.0);
  timers.reset();
  EXPECT_DOUBLE_EQ(timers.total(), 0.0);
  EXPECT_DOUBLE_EQ(timers.fraction(core::Stage::kSampling), 0.0);
}

TEST(StageTimers, NamesAndBreakdown) {
  EXPECT_STREQ(core::StageTimers::name(core::Stage::kRand), "rand");
  EXPECT_STREQ(core::StageTimers::name(core::Stage::kLocalSort), "local sort");
  core::StageTimers timers;
  timers.add(core::Stage::kExchange, 1.0);
  const std::string s = timers.breakdown_string();
  EXPECT_NE(s.find("exchange 100.0%"), std::string::npos);
}

TEST(StageTimers, ScopedTimerAddsElapsed) {
  // A detached probe's stage scope is the filters' stage timer.
  core::StageProbe probe;
  {
    const auto stage = probe.stage(core::Stage::kLocalSort);
    // Work the optimizer cannot elide (result feeds an assertion).
    double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
    EXPECT_GT(sink, 0.0);
  }
  EXPECT_GT(probe.timers().seconds(core::Stage::kLocalSort), 0.0);
  EXPECT_EQ(probe.timers().launches(core::Stage::kLocalSort), 1u);
  EXPECT_FALSE(probe.attached());
  probe.count({.barriers = 1});  // detached: a no-op, not a crash
}

TEST(StageProbe, StageThatThrowsIsStillRecordedEverywhere) {
  telemetry::Telemetry tel;
  core::StageProbe probe(&tel, core::StageProbe::Filter::kCentralized, 1, 8);
  const auto ctx = telemetry::TraceContext::mint(1, 0);
  EXPECT_THROW(
      {
        const auto round = probe.round(0, &ctx);
        const auto stage = probe.stage(core::Stage::kSampling, "sampling+weighting");
        probe.count({.barriers = 1, .rng_draws = 3});
        throw std::runtime_error("model failure");
      },
      std::runtime_error);
  EXPECT_EQ(probe.timers().launches(core::Stage::kSampling), 1u);
  EXPECT_EQ(tel.registry.histogram("stage.sampling").count(), 1u);
  EXPECT_EQ(tel.registry.counter("work.rng_draws").value(), 3u);
  // The centralized metric set has no barrier counter.
  EXPECT_EQ(tel.registry.find_counter("work.barriers"), nullptr);
  const auto spans = tel.trace.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "sampling+weighting");
  EXPECT_TRUE(spans[0].thrown);
  EXPECT_EQ(spans[0].parent_span_id, spans[1].span_id);
  EXPECT_EQ(spans[1].name, "step");
  EXPECT_EQ(spans[1].parent_span_id, ctx.span_id);
  // Outside a round, launch spans have no parent again.
  EXPECT_EQ(probe.span("late").child_context().trace_id, 0u);
}

}  // namespace
