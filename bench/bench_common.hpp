// Shared plumbing for the figure/table benchmark harnesses: an accuracy
// experiment runner implementing the paper's protocol (average estimation
// error over R independent runs of S time steps each, Sec. VII-D) and a
// throughput runner measuring achieved filter update rates (Fig 3).
#pragma once

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util/cli.hpp"
#include "bench_util/table.hpp"
#include "core/centralized_pf.hpp"
#include "core/distributed_pf.hpp"
#include "device/invariants.hpp"
#include "device/platform.hpp"
#include "estimation/metrics.hpp"
#include "mcore/thread_pool.hpp"
#include "models/robot_arm.hpp"
#include "sim/ground_truth.hpp"
#include "telemetry/json.hpp"
#include "telemetry/openmetrics.hpp"
#include "telemetry/sinks.hpp"
#include "telemetry/telemetry.hpp"
#include "version.hpp"

namespace esthera::bench {

/// Flags every Report-owning bench accepts: the export flags documented
/// on Report plus --full. Pass bench-specific extras to get the complete
/// accepted-flag list for Cli::parse_or_exit.
inline std::vector<std::string> standard_flags(std::vector<std::string> extras = {}) {
  std::vector<std::string> flags = {"--full",         "--json",
                                    "--trace",        "--series-jsonl",
                                    "--series-csv",   "--telemetry",
                                    "--workers",      "--openmetrics"};
  flags.insert(flags.end(), extras.begin(), extras.end());
  return flags;
}

/// Applies the --workers override before any pool exists: takes precedence
/// over ESTHERA_WORKERS, same grammar (fully numeric, in
/// [1, ThreadPool::kMaxWorkers]) -- but a flag typo exits 2 instead of
/// silently falling back the way a malformed environment variable does.
/// The resolved count lands in the report's "build" stamp as usual. The
/// Report constructor calls this, so Report-owning benches get it for free.
inline void apply_workers_flag(const bench_util::Cli& cli) {
  if (!cli.has("--workers")) return;
  const std::string v = cli.get("--workers", "");
  bool numeric = !v.empty();
  for (const char c : v) numeric = numeric && c >= '0' && c <= '9';
  long parsed = 0;
  if (numeric) {
    errno = 0;
    char* end = nullptr;
    parsed = std::strtol(v.c_str(), &end, 10);
    numeric = errno == 0 && end == v.c_str() + v.size();
  }
  if (!numeric || parsed < 1 || parsed > mcore::ThreadPool::kMaxWorkers) {
    std::cerr << "error: --workers expects an integer in [1, "
              << mcore::ThreadPool::kMaxWorkers << "], got '" << v << "'\n";
    std::exit(2);
  }
  mcore::ThreadPool::set_default_worker_count(static_cast<std::size_t>(parsed));
}

/// The flags Protocol::from_cli reads, plus bench-specific extras; nest
/// inside standard_flags or plain_flags to build the full accepted list.
inline std::vector<std::string> protocol_flags(std::vector<std::string> extras = {}) {
  std::vector<std::string> flags = {"--runs", "--steps", "--seed", "--warmup"};
  flags.insert(flags.end(), extras.begin(), extras.end());
  return flags;
}

/// Flags for benches without a Report: just --full plus extras.
inline std::vector<std::string> plain_flags(std::vector<std::string> extras = {}) {
  std::vector<std::string> flags = {"--full"};
  flags.insert(flags.end(), extras.begin(), extras.end());
  return flags;
}

/// Protocol parameters for accuracy experiments.
struct Protocol {
  std::size_t runs = 5;     ///< independent runs (paper: 100)
  std::size_t steps = 60;   ///< time steps per run (paper: 100)
  std::size_t warmup = 10;  ///< steps excluded from the error average
  std::uint64_t seed = 1;

  static Protocol from_cli(const bench_util::Cli& cli) {
    Protocol p;
    if (cli.full_scale()) {
      p.runs = 100;
      p.steps = 100;
    }
    p.runs = cli.get_size("--runs", p.runs);
    p.steps = cli.get_size("--steps", p.steps);
    p.seed = cli.get_u64("--seed", p.seed);
    p.warmup = cli.get_size("--warmup", p.warmup);
    if (p.warmup >= p.steps) {
      std::cerr << "error: --warmup (" << p.warmup
                << ") must be smaller than --steps (" << p.steps
                << "); no steps would enter the error average\n";
      std::exit(2);
    }
    return p;
  }
};

/// Mean object-position estimation error of a distributed filter on the
/// robot-arm scenario under the given configuration.
inline double distributed_arm_error(const core::FilterConfig& cfg,
                                    const Protocol& proto,
                                    sim::RobotArmScenarioConfig scenario_cfg = {}) {
  estimation::ErrorAccumulator err;
  sim::RobotArmScenario scenario(scenario_cfg);
  const std::size_t j = scenario_cfg.arm.n_joints;
  std::vector<float> z, u;
  for (std::size_t r = 0; r < proto.runs; ++r) {
    scenario.reset(proto.seed + r);
    core::FilterConfig run_cfg = cfg;
    run_cfg.seed = cfg.seed + r * 7919;
    core::DistributedParticleFilter<models::RobotArmModel<float>> pf(
        scenario.make_model<float>(), run_cfg);
    for (std::size_t k = 0; k < proto.steps; ++k) {
      const auto step = scenario.advance();
      z.assign(step.z.begin(), step.z.end());
      u.assign(step.u.begin(), step.u.end());
      pf.step(z, u);
      if (k >= proto.warmup) {
        const double ex =
            static_cast<double>(pf.estimate()[j + 0]) - step.truth[j + 0];
        const double ey =
            static_cast<double>(pf.estimate()[j + 1]) - step.truth[j + 1];
        err.add_step(std::vector<double>{ex, ey});
      }
    }
  }
  return err.rmse();
}

/// Same protocol for the sequential, centralized reference filter
/// (double precision, Vose resampling - the paper's C reference).
inline double centralized_arm_error(std::size_t n_particles, const Protocol& proto,
                                    sim::RobotArmScenarioConfig scenario_cfg = {}) {
  estimation::ErrorAccumulator err;
  sim::RobotArmScenario scenario(scenario_cfg);
  const std::size_t j = scenario_cfg.arm.n_joints;
  for (std::size_t r = 0; r < proto.runs; ++r) {
    scenario.reset(proto.seed + r);
    core::CentralizedOptions opts;
    opts.seed = 1000 + r * 7919;
    core::CentralizedParticleFilter<models::RobotArmModel<double>> pf(
        scenario.make_model<double>(), n_particles, opts);
    for (std::size_t k = 0; k < proto.steps; ++k) {
      const auto step = scenario.advance();
      pf.step(step.z, step.u);
      if (k >= proto.warmup) {
        const double ex = pf.estimate()[j + 0] - step.truth[j + 0];
        const double ey = pf.estimate()[j + 1] - step.truth[j + 1];
        err.add_step(std::vector<double>{ex, ey});
      }
    }
  }
  return err.rmse();
}

/// Achieved update rate (rounds per second) of a distributed filter on the
/// robot-arm scenario, measured over `steps` rounds after one warmup round.
inline double distributed_arm_hz(const core::FilterConfig& cfg, std::size_t steps,
                                 sim::RobotArmScenarioConfig scenario_cfg = {}) {
  sim::RobotArmScenario scenario(scenario_cfg);
  scenario.reset(3);
  core::DistributedParticleFilter<models::RobotArmModel<float>> pf(
      scenario.make_model<float>(), cfg);
  std::vector<float> z, u;
  const auto run_step = [&] {
    const auto step = scenario.advance();
    z.assign(step.z.begin(), step.z.end());
    u.assign(step.u.begin(), step.u.end());
    pf.step(z, u);
  };
  run_step();  // warmup
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < steps; ++k) run_step();
  const auto end = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(end - start).count();
  return static_cast<double>(steps) / secs;
}

/// Update rate of the centralized reference filter.
inline double centralized_arm_hz(std::size_t n_particles, std::size_t steps,
                                 sim::RobotArmScenarioConfig scenario_cfg = {}) {
  sim::RobotArmScenario scenario(scenario_cfg);
  scenario.reset(3);
  core::CentralizedParticleFilter<models::RobotArmModel<double>> pf(
      scenario.make_model<double>(), n_particles);
  const auto run_step = [&] {
    const auto step = scenario.advance();
    pf.step(step.z, step.u);
  };
  run_step();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < steps; ++k) run_step();
  const auto end = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(end - start).count();
  return static_cast<double>(steps) / secs;
}

/// Prints the standard bench header (paper reference + configuration).
inline void print_header(const char* figure, const char* description) {
  std::cout << "== Esthera reproduction: " << figure << " ==\n"
            << description << "\n"
            << device::host_description() << "\n\n";
}

/// Machine-readable bench output + optional telemetry attachment.
///
/// Every bench harness owns one Report: it mirrors what the bench prints
/// (tables and named scalars) and, when exporting was requested, owns the
/// telemetry::Telemetry instance the filters record into. Flags:
///   --json <path>          full machine-readable report (esthera.bench/1),
///                          with the telemetry snapshot under "telemetry"
///   --trace <path>         Chrome Trace Event JSON of every kernel launch
///                          (load in chrome://tracing or ui.perfetto.dev)
///   --series-jsonl <path>  per-step series as JSON Lines
///   --series-csv <path>    per-step series as CSV
///   --openmetrics <path>   OpenMetrics text exposition of the metrics
///                          registry (Prometheus-scrapable; counters,
///                          gauges, histograms with le buckets + exemplars)
///   --telemetry            attach telemetry without exporting (breakdowns
///                          and counters still accumulate)
///   --workers N            worker-thread override (precedence over
///                          ESTHERA_WORKERS; recorded in the build stamp)
/// Telemetry is attached when any flag above is present, or by default in
/// -DESTHERA_TELEMETRY builds; telemetry() returns null otherwise, so the
/// filters keep their zero-cost path.
class Report {
 public:
  Report(const bench_util::Cli& cli, std::string name, std::string description)
      : name_(std::move(name)),
        description_(std::move(description)),
        full_scale_(cli.full_scale()),
        json_path_(cli.get("--json", "")),
        trace_path_(cli.get("--trace", "")),
        jsonl_path_(cli.get("--series-jsonl", "")),
        csv_path_(cli.get("--series-csv", "")),
        openmetrics_path_(cli.get("--openmetrics", "")) {
    apply_workers_flag(cli);
    if (telemetry::kTelemetryBuild || cli.has("--telemetry") ||
        !json_path_.empty() || !trace_path_.empty() || !jsonl_path_.empty() ||
        !csv_path_.empty() || !openmetrics_path_.empty()) {
      telemetry_ = std::make_unique<telemetry::Telemetry>();
    }
  }

  /// Prints the standard header for this report's figure.
  void print_header() const {
    bench::print_header(name_.c_str(), description_.c_str());
  }

  /// The sink the bench should hand to its filters (FilterConfig::telemetry
  /// / CentralizedOptions::telemetry); null when no exporting was requested.
  [[nodiscard]] telemetry::Telemetry* telemetry() { return telemetry_.get(); }

  /// Records a named scalar result (update rate, RMSE, ...).
  void add_value(std::string key, double value) {
    values_.emplace_back(std::move(key), value);
  }

  /// Snapshots a printed table under `key` (copies headers and rows).
  void add_table(std::string key, const bench_util::Table& table) {
    tables_.push_back({std::move(key), table.headers(), table.rows()});
  }

  /// Writes every requested export. Returns the bench exit status: 0, or 1
  /// when an output file could not be opened.
  [[nodiscard]] int write() const {
    int status = 0;
    if (telemetry_) {
      // Introspection gauges in every snapshot (gauges are notes-only in
      // bench_compare, so these never gate and never churn baselines).
      telemetry_->registry.gauge("trace.spans")
          .set(static_cast<double>(telemetry_->trace.span_count()));
      telemetry_->registry.gauge("trace.dropped_spans")
          .set(static_cast<double>(telemetry_->trace.dropped_spans()));
    }
    if (!json_path_.empty() && !write_json_file()) status = 1;
    if (!trace_path_.empty()) {
      std::ofstream os(trace_path_);
      if (os && telemetry_) {
        telemetry_->trace.write_chrome_trace(os);
        std::cout << "trace: " << trace_path_ << '\n';
      } else {
        std::cerr << "error: cannot write trace to " << trace_path_ << '\n';
        status = 1;
      }
    }
    if (!jsonl_path_.empty() && telemetry_) {
      std::ofstream os(jsonl_path_);
      if (os) {
        telemetry::write_series_jsonl(os, telemetry_->series);
      } else {
        std::cerr << "error: cannot write series to " << jsonl_path_ << '\n';
        status = 1;
      }
    }
    if (!csv_path_.empty() && telemetry_) {
      std::ofstream os(csv_path_);
      if (os) {
        telemetry::write_series_csv(os, telemetry_->series);
      } else {
        std::cerr << "error: cannot write series to " << csv_path_ << '\n';
        status = 1;
      }
    }
    if (!openmetrics_path_.empty() && telemetry_) {
      std::ofstream os(openmetrics_path_);
      if (os) {
        telemetry::openmetrics::Writer w(os);
        // Profiler identity first so scrapers can key off the mode before
        // interpreting the derived profile.* gauges.
        w.info("profile", "hardware-counter profiler identity",
               {{"mode", profile::to_string(telemetry_->profile.mode())},
                {"unavailable", telemetry_->profile.unavailable_reason()}});
        telemetry::openmetrics::write_families(w, telemetry_->registry);
        w.eof();
        std::cout << "openmetrics: " << openmetrics_path_ << '\n';
      } else {
        std::cerr << "error: cannot write openmetrics to " << openmetrics_path_
                  << '\n';
        status = 1;
      }
    }
    return status;
  }

 private:
  struct TableCopy {
    std::string key;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };

  /// Emits a table cell as a JSON number when it parses fully as one (the
  /// common case: Table::num output), as a string otherwise (labels).
  static void write_cell(telemetry::json::JsonWriter& w, const std::string& cell) {
    if (!cell.empty()) {
      char* end = nullptr;
      const double v = std::strtod(cell.c_str(), &end);
      if (end == cell.c_str() + cell.size() && std::isfinite(v)) {
        w.value(v);
        return;
      }
    }
    w.value(cell);
  }

  [[nodiscard]] bool write_json_file() const {
    std::ofstream os(json_path_);
    if (!os) {
      std::cerr << "error: cannot write report to " << json_path_ << '\n';
      return false;
    }
    telemetry::json::JsonWriter w(os);
    w.begin_object();
    w.kv("schema", "esthera.bench/1");
    w.kv("name", name_);
    w.kv("description", description_);
    w.kv("host", device::host_description());
    w.kv("full_scale", full_scale_);
    // Build stamp: lets bench_compare refuse apples-to-oranges diffs (a
    // debug report against a release baseline, say) instead of reporting
    // them as regressions.
    w.key("build");
    w.begin_object();
    w.kv("version", kVersionString);
#ifdef NDEBUG
    w.kv("build_type", "release");
#else
    w.kv("build_type", "debug");
#endif
    w.kv("checked", debug::kCheckedBuild);
    w.kv("telemetry_build", telemetry::kTelemetryBuild);
    w.kv("workers",
         static_cast<std::uint64_t>(mcore::ThreadPool::default_worker_count()));
    if (telemetry_) {
      // Counter source for the profile.* gauges in this snapshot; strings,
      // so bench_compare's exact-match gate (build_type/checked/
      // telemetry_build only) never trips on them.
      w.kv("profile_mode", profile::to_string(telemetry_->profile.mode()));
      w.kv("profile_unavailable", telemetry_->profile.unavailable_reason());
    }
    w.end_object();
    w.key("values");
    w.begin_object();
    for (const auto& [key, value] : values_) w.kv(key, value);
    w.end_object();
    w.key("tables");
    w.begin_object();
    for (const TableCopy& t : tables_) {
      w.key(t.key);
      w.begin_object();
      w.key("headers");
      w.begin_array();
      for (const auto& h : t.headers) w.value(h);
      w.end_array();
      w.key("rows");
      w.begin_array();
      for (const auto& row : t.rows) {
        w.begin_array();
        for (const auto& cell : row) write_cell(w, cell);
        w.end_array();
      }
      w.end_array();
      w.end_object();
    }
    w.end_object();
    if (telemetry_) {
      w.key("telemetry");
      w.begin_object();
      telemetry::write_snapshot_fields(w, *telemetry_);
      w.end_object();
    }
    w.end_object();
    os << '\n';
    std::cout << "json: " << json_path_ << '\n';
    return true;
  }

  std::string name_;
  std::string description_;
  bool full_scale_ = false;
  std::string json_path_;
  std::string trace_path_;
  std::string jsonl_path_;
  std::string csv_path_;
  std::string openmetrics_path_;
  std::unique_ptr<telemetry::Telemetry> telemetry_;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<TableCopy> tables_;
};

}  // namespace esthera::bench
