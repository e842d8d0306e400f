#include "bench_util/compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace esthera::bench_util::compare {

namespace {

using telemetry::json::Value;

constexpr std::string_view kSchema = "esthera.bench/1";

Result fatal(std::string reason) {
  Result r;
  r.fatal = true;
  r.fatal_reason = std::move(reason);
  return r;
}

double rel_delta(double baseline, double current) {
  const double denom = std::max(std::abs(baseline), 1e-12);
  return std::abs(current - baseline) / denom;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Compares one numeric pair under `tol` and appends the delta.
void add_delta(Result& r, std::string path, double baseline, double current,
               double tol) {
  Delta d;
  d.path = std::move(path);
  d.baseline = baseline;
  d.current = current;
  d.rel = rel_delta(baseline, current);
  d.tol = tol;
  d.regression = d.rel > tol;
  r.deltas.push_back(std::move(d));
}

/// Walks two flat numeric objects (values, counters) key-by-key. Keys
/// present only in the baseline gate (a metric disappeared); keys present
/// only in the current report are a note (a metric appeared).
void compare_numeric_object(Result& r, const std::string& prefix,
                            const Value* base, const Value* cur, double tol) {
  if (base == nullptr && cur == nullptr) return;
  if (base == nullptr || !base->is_object()) {
    r.notes.push_back(prefix + ": absent in baseline");
    return;
  }
  if (cur == nullptr || !cur->is_object()) {
    r.mismatches.push_back(prefix + ": absent in current report");
    return;
  }
  for (const auto& [key, bval] : base->as_object()) {
    if (!bval.is_number()) continue;
    const Value* cval = cur->find(key);
    if (cval == nullptr || !cval->is_number()) {
      r.mismatches.push_back(prefix + "." + key + ": missing in current report");
      continue;
    }
    add_delta(r, prefix + "." + key, bval.as_number(), cval->as_number(), tol);
  }
  for (const auto& [key, cval] : cur->as_object()) {
    (void)cval;
    if (base->find(key) == nullptr) {
      r.notes.push_back(prefix + "." + key + ": new metric (not in baseline)");
    }
  }
}

/// Tables compare cell-by-cell: numeric cells under the scalar tolerance,
/// string cells (row labels) by equality, and any shape change gates.
void compare_tables(Result& r, const Value* base, const Value* cur, double tol) {
  if (base == nullptr || !base->is_object()) return;
  if (cur == nullptr || !cur->is_object()) {
    r.mismatches.push_back("tables: absent in current report");
    return;
  }
  for (const auto& [tkey, btab] : base->as_object()) {
    const Value* ctab = cur->find(tkey);
    if (ctab == nullptr) {
      r.mismatches.push_back("tables." + tkey + ": missing in current report");
      continue;
    }
    const Value* brows = btab.find("rows");
    const Value* crows = ctab->find("rows");
    if (brows == nullptr || crows == nullptr || !brows->is_array() ||
        !crows->is_array()) {
      r.mismatches.push_back("tables." + tkey + ": malformed rows");
      continue;
    }
    if (brows->as_array().size() != crows->as_array().size()) {
      r.mismatches.push_back(
          "tables." + tkey + ": row count " +
          std::to_string(brows->as_array().size()) + " -> " +
          std::to_string(crows->as_array().size()));
      continue;
    }
    for (std::size_t i = 0; i < brows->as_array().size(); ++i) {
      const Value& brow = brows->as_array()[i];
      const Value& crow = crows->as_array()[i];
      if (!brow.is_array() || !crow.is_array() ||
          brow.as_array().size() != crow.as_array().size()) {
        r.mismatches.push_back("tables." + tkey + "[" + std::to_string(i) +
                               "]: shape change");
        continue;
      }
      for (std::size_t j = 0; j < brow.as_array().size(); ++j) {
        const Value& b = brow.as_array()[j];
        const Value& c = crow.as_array()[j];
        const std::string cell = "tables." + tkey + "[" + std::to_string(i) +
                                 "][" + std::to_string(j) + "]";
        if (b.is_number() && c.is_number()) {
          add_delta(r, cell, b.as_number(), c.as_number(), tol);
        } else if (b.is_string() && c.is_string()) {
          if (b.as_string() != c.as_string()) {
            r.mismatches.push_back(cell + ": '" + b.as_string() + "' -> '" +
                                   c.as_string() + "'");
          }
        } else if (b.kind() != c.kind()) {
          r.mismatches.push_back(cell + ": cell type changed");
        }
      }
    }
  }
}

/// Histograms gate on invocation counts only: how often a stage ran is
/// deterministic, how long it took is not.
void compare_histogram_counts(Result& r, const Value* base, const Value* cur) {
  if (base == nullptr || !base->is_object()) return;
  if (cur == nullptr || !cur->is_object()) {
    r.mismatches.push_back("histograms: absent in current report");
    return;
  }
  for (const auto& [key, bhist] : base->as_object()) {
    const Value* chist = cur->find(key);
    if (chist == nullptr) {
      r.mismatches.push_back("histograms." + key + ": missing in current report");
      continue;
    }
    const Value* bcount = bhist.find("count");
    const Value* ccount = chist->find("count");
    if (bcount == nullptr || ccount == nullptr) continue;
    add_delta(r, "histograms." + key + ".count", bcount->as_number(),
              ccount->as_number(), 0.0);
  }
}

/// Returns the build-stamp field as a printable string ("<absent>" when
/// the report predates the stamp).
std::string build_field(const Value* build, std::string_view key) {
  if (build == nullptr) return "<absent>";
  const Value* v = build->find(key);
  if (v == nullptr) return "<absent>";
  if (v->is_string()) return v->as_string();
  if (v->is_bool()) return v->as_bool() ? "true" : "false";
  if (v->is_number()) return fmt(v->as_number());
  return "<absent>";
}

}  // namespace

Result compare_reports(const Value& baseline, const Value& current,
                       const CompareOptions& opts) {
  for (const Value* rep : {&baseline, &current}) {
    const Value* schema = rep->find("schema");
    if (schema == nullptr || schema->as_string() != kSchema) {
      return fatal("not an " + std::string(kSchema) + " report (schema: " +
                   (schema ? schema->as_string() : "<missing>") + ")");
    }
  }
  const std::string bname = baseline.find("name") ? baseline.find("name")->as_string() : "";
  const std::string cname = current.find("name") ? current.find("name")->as_string() : "";
  if (bname != cname) {
    return fatal("reports come from different benches: '" + bname + "' vs '" +
                 cname + "'");
  }

  Result r;

  // Build stamp: refuse apples-to-oranges comparisons unless overridden.
  const Value* bbuild = baseline.find("build");
  const Value* cbuild = current.find("build");
  for (const std::string_view key :
       {std::string_view("build_type"), std::string_view("checked"),
        std::string_view("telemetry_build")}) {
    const std::string bv = build_field(bbuild, key);
    const std::string cv = build_field(cbuild, key);
    if (bv != cv) {
      const std::string what = "build." + std::string(key) + ": " + bv +
                               " (baseline) vs " + cv + " (current)";
      if (!opts.allow_build_mismatch) return fatal(what);
      r.notes.push_back(what + " [mismatch allowed]");
    }
  }
  const Value* bfull = baseline.find("full_scale");
  const Value* cfull = current.find("full_scale");
  if ((bfull && bfull->as_bool()) != (cfull && cfull->as_bool())) {
    const std::string what = "full_scale differs between reports";
    if (!opts.allow_build_mismatch) return fatal(what);
    r.notes.push_back(what + " [mismatch allowed]");
  }
  // Version and worker count do not gate: the work counters are designed
  // to be identical across worker counts, and a version bump alone is not
  // a perf change. Surface them so a reader can spot stale baselines.
  for (const std::string_view key :
       {std::string_view("version"), std::string_view("workers")}) {
    const std::string bv = build_field(bbuild, key);
    const std::string cv = build_field(cbuild, key);
    if (bv != cv) {
      r.notes.push_back("build." + std::string(key) + ": " + bv + " -> " + cv);
    }
  }
  const Value* bhost = baseline.find("host");
  const Value* chost = current.find("host");
  if (bhost && chost && bhost->as_string() != chost->as_string()) {
    r.notes.push_back("host differs (ok: gated quantities are machine-independent)");
  }

  compare_numeric_object(r, "values", baseline.find("values"),
                         current.find("values"), opts.scalar_rel_tol);
  compare_tables(r, baseline.find("tables"), current.find("tables"),
                 opts.scalar_rel_tol);

  const Value* btel = baseline.find("telemetry");
  const Value* ctel = current.find("telemetry");
  if (btel != nullptr && btel->is_object()) {
    if (ctel == nullptr || !ctel->is_object()) {
      r.mismatches.push_back("telemetry: absent in current report");
    } else {
      compare_numeric_object(r, "counters", btel->find("counters"),
                             ctel->find("counters"), opts.counter_rel_tol);
      compare_histogram_counts(r, btel->find("histograms"),
                               ctel->find("histograms"));
      // Gauges are intentionally skipped: pool.* and rng.*_high_water
      // depend on the worker count and scheduling, not on the algorithm.
    }
  }
  return r;
}

Result compare_files(const std::string& baseline_path,
                     const std::string& current_path,
                     const CompareOptions& opts) {
  std::string texts[2];
  const std::string* paths[2] = {&baseline_path, &current_path};
  for (int i = 0; i < 2; ++i) {
    std::ifstream is(*paths[i]);
    if (!is) return fatal("cannot read " + *paths[i]);
    std::ostringstream ss;
    ss << is.rdbuf();
    texts[i] = ss.str();
  }
  std::string error;
  const auto base = telemetry::json::parse(texts[0], &error);
  if (!base) return fatal(baseline_path + ": " + error);
  const auto cur = telemetry::json::parse(texts[1], &error);
  if (!cur) return fatal(current_path + ": " + error);
  return compare_reports(*base, *cur, opts);
}

void write_markdown(std::ostream& os, const Result& result,
                    std::string_view baseline_label,
                    std::string_view current_label) {
  os << "## Bench comparison\n\n";
  os << "baseline: `" << baseline_label << "`  \n";
  os << "current: `" << current_label << "`\n\n";
  if (result.fatal) {
    os << "**FATAL**: " << result.fatal_reason << "\n";
    return;
  }
  std::size_t regressions = 0;
  for (const Delta& d : result.deltas) regressions += d.regression ? 1 : 0;
  if (result.has_regression()) {
    os << "**REGRESSION** - " << regressions << " metric(s) out of tolerance, "
       << result.mismatches.size() << " structural mismatch(es)\n\n";
  } else {
    os << "**OK** - " << result.deltas.size()
       << " metric(s) compared, all within tolerance\n\n";
  }
  if (!result.mismatches.empty()) {
    os << "### Structural mismatches\n\n";
    for (const auto& m : result.mismatches) os << "- " << m << "\n";
    os << "\n";
  }
  if (regressions > 0) {
    os << "### Out of tolerance\n\n";
    os << "| metric | baseline | current | rel. delta | tolerance |\n";
    os << "|---|---:|---:|---:|---:|\n";
    for (const Delta& d : result.deltas) {
      if (!d.regression) continue;
      os << "| `" << d.path << "` | " << fmt(d.baseline) << " | "
         << fmt(d.current) << " | " << fmt(d.rel) << " | " << fmt(d.tol)
         << " |\n";
    }
    os << "\n";
  }
  if (!result.notes.empty()) {
    os << "### Notes\n\n";
    for (const auto& n : result.notes) os << "- " << n << "\n";
    os << "\n";
  }
}

}  // namespace esthera::bench_util::compare
