// OpenMetrics exposition tests: name/label/help escaping edge cases,
// counter/gauge/histogram family shapes (cumulative le buckets,
// monotonicity, the mandatory terminal +Inf bucket, exemplar syntax),
// info metrics, and determinism -- identical recorded values produce
// byte-identical documents regardless of how many workers did the
// recording. Plus the JSON string-escaping hardening the exporter layer
// leans on: arbitrary bytes (control chars, quotes, invalid UTF-8) must
// never produce invalid JSON.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "mcore/thread_pool.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/openmetrics.hpp"

namespace {

using namespace esthera;
namespace om = telemetry::openmetrics;

// ------------------------------------------------------------- sanitizing

TEST(OpenMetricsNames, DottedNamesMapIntoTheSpecCharset) {
  EXPECT_EQ(om::sanitize_name("serve.request.latency"),
            "esthera_serve_request_latency");
  EXPECT_EQ(om::sanitize_name("stage.local_sort"), "esthera_stage_local_sort");
  // Bytes outside [a-zA-Z0-9_:] all collapse to '_'; the prefix supplies
  // a valid leading character even for weird inputs.
  EXPECT_EQ(om::sanitize_name("9lives"), "esthera_9lives");
  EXPECT_EQ(om::sanitize_name("a-b c\xc3\xa9"), "esthera_a_b_c__");
  EXPECT_EQ(om::sanitize_name(""), "esthera_");
}

TEST(OpenMetricsEscaping, LabelValues) {
  EXPECT_EQ(om::escape_label("plain"), "plain");
  EXPECT_EQ(om::escape_label("a\"b"), "a\\\"b");
  EXPECT_EQ(om::escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(om::escape_label("a\nb"), "a\\nb");
  EXPECT_EQ(om::escape_label("\\\"\n"), "\\\\\\\"\\n");
}

TEST(OpenMetricsEscaping, HelpText) {
  EXPECT_EQ(om::escape_help("a\nb"), "a\\nb");
  EXPECT_EQ(om::escape_help("a\\b"), "a\\\\b");
  // Double quotes are legal in HELP and pass through untouched.
  EXPECT_EQ(om::escape_help("say \"hi\""), "say \"hi\"");
}

// --------------------------------------------------------------- families

TEST(OpenMetricsWriter, CounterGetsTotalSuffix) {
  std::ostringstream os;
  om::Writer w(os);
  w.counter("serve.requests", "completed requests", 42);
  w.eof();
  EXPECT_EQ(os.str(),
            "# TYPE esthera_serve_requests counter\n"
            "# HELP esthera_serve_requests completed requests\n"
            "esthera_serve_requests_total 42\n"
            "# EOF\n");
}

TEST(OpenMetricsWriter, GaugeAndInfo) {
  std::ostringstream os;
  om::Writer w(os);
  w.gauge("queue.depth", "", 3.5);
  w.info("profile", "profiler identity",
         {{"mode", "software"}, {"unavailable", "perf \"denied\"\nline2"}});
  w.eof();
  const std::string doc = os.str();
  EXPECT_NE(doc.find("esthera_queue_depth 3.5\n"), std::string::npos);
  EXPECT_NE(doc.find("# TYPE esthera_profile info\n"), std::string::npos);
  EXPECT_NE(doc.find("esthera_profile_info{mode=\"software\","
                     "unavailable=\"perf \\\"denied\\\"\\nline2\"} 1\n"),
            std::string::npos);
  EXPECT_EQ(doc.rfind("# EOF\n"), doc.size() - 6);
}

TEST(OpenMetricsWriter, HistogramBucketsAreCumulativeMonotoneWithInfTerminal) {
  telemetry::LatencyHistogram h;
  // Spread samples across several buckets, plus one far beyond the top
  // bucket bound so the overflow lands in +Inf.
  for (int i = 0; i < 10; ++i) h.record(2e-6);
  for (int i = 0; i < 5; ++i) h.record(1e-3);
  h.record(1e9);

  std::ostringstream os;
  om::Writer w(os);
  w.histogram("stage.sampling", "sampling latency", h);
  w.eof();

  std::istringstream lines(os.str());
  std::string line;
  std::uint64_t prev = 0;
  std::size_t buckets = 0;
  std::string last_le;
  std::uint64_t last_cum = 0;
  while (std::getline(lines, line)) {
    const std::string prefix = "esthera_stage_sampling_bucket{le=\"";
    if (line.rfind(prefix, 0) != 0) continue;
    ++buckets;
    const auto le_end = line.find('"', prefix.size());
    ASSERT_NE(le_end, std::string::npos);
    last_le = line.substr(prefix.size(), le_end - prefix.size());
    const std::uint64_t cum =
        std::stoull(line.substr(line.find("} ") + 2));
    EXPECT_GE(cum, prev) << "cumulative counts must be monotone";
    prev = cum;
    last_cum = cum;
  }
  EXPECT_EQ(buckets, telemetry::LatencyHistogram::kBucketCount);
  EXPECT_EQ(last_le, "+Inf");
  EXPECT_EQ(last_cum, h.count());
  EXPECT_NE(os.str().find("esthera_stage_sampling_count 16\n"),
            std::string::npos);
}

TEST(OpenMetricsWriter, ExemplarsCarryTraceIds) {
  telemetry::LatencyHistogram h;
  h.record(3e-6, 0xabcdef0123456789ull);

  std::ostringstream os;
  om::Writer w(os);
  w.histogram("lat", "", h);
  const std::string doc = os.str();
  // Exemplar syntax: <bucket line> # {trace_id="0x<16 hex>"} <value>
  EXPECT_NE(doc.find(" # {trace_id=\"0xabcdef0123456789\"} "),
            std::string::npos);
  // A histogram with no retained trace ids emits no exemplars.
  telemetry::LatencyHistogram plain;
  plain.record(3e-6);
  std::ostringstream os2;
  om::Writer w2(os2);
  w2.histogram("lat", "", plain);
  EXPECT_EQ(os2.str().find("trace_id"), std::string::npos);
}

// ------------------------------------------------------------ determinism

/// Populates the registry with a deterministic workload distributed over
/// `workers` threads: only commutative adds of fixed values, so the final
/// state -- and therefore the exposition document -- is independent of
/// scheduling and worker count. LatencyHistogram is single-writer, so each
/// pool index records into its own histogram and the registry's histogram
/// merges them in index order once run() has returned. (Merging one
/// histogram per worker would not do: which indices a worker runs depends
/// on scheduling, and the floating-point `_sum` depends on how the samples
/// are grouped.)
void record_fixed_workload(telemetry::MetricsRegistry& reg,
                           std::size_t workers) {
  constexpr std::size_t kSamples = 256;
  auto& requests = reg.counter("serve.requests");
  auto& depth = reg.gauge("queue.depth");
  auto& lat = reg.histogram("stage.sampling");
  mcore::ThreadPool pool(workers);
  std::vector<telemetry::LatencyHistogram> per_index(kSamples);
  pool.run(kSamples, [&](std::size_t i, std::size_t) {
    requests.add(1);
    // Fixed per-index values: same multiset of samples in any order.
    per_index[i].record(1e-6 * static_cast<double>(1 + i % 32),
                        static_cast<std::uint64_t>(1 + i));
  });
  for (const auto& h : per_index) lat.merge(h);
  depth.set(7.0);
}

TEST(OpenMetricsDeterminism, ByteIdenticalAcrossWorkerCounts) {
  std::vector<std::string> docs;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    telemetry::MetricsRegistry reg;
    record_fixed_workload(reg, workers);
    std::ostringstream os;
    om::write_registry(os, reg);
    docs.push_back(os.str());
  }
  EXPECT_EQ(docs[0], docs[1]) << "1 vs 2 workers";
  EXPECT_EQ(docs[0], docs[2]) << "1 vs 8 workers";
  // Sanity: the document is non-trivial and terminated.
  EXPECT_NE(docs[0].find("esthera_serve_requests_total 256\n"),
            std::string::npos);
  EXPECT_EQ(docs[0].rfind("# EOF\n"), docs[0].size() - 6);
}

TEST(OpenMetricsDeterminism, FamiliesAppearInSortedRegistryOrder) {
  telemetry::MetricsRegistry reg;
  reg.counter("zeta").add(1);
  reg.counter("alpha").add(2);
  reg.gauge("mid").set(1.0);
  std::ostringstream os;
  om::write_registry(os, reg);
  const std::string doc = os.str();
  EXPECT_LT(doc.find("esthera_alpha_total"), doc.find("esthera_zeta_total"));
}

// ----------------------------------------------------- JSON escape hardening

std::string json_quoted(std::string_view raw) {
  return "\"" + telemetry::json::escape(raw) + "\"";
}

TEST(JsonEscape, ControlCharactersAndQuotes) {
  EXPECT_EQ(telemetry::json::escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(telemetry::json::escape("\n\t\r"), "\\n\\t\\r");
  EXPECT_EQ(telemetry::json::escape(std::string("\x01\x1f", 2)),
            "\\u0001\\u001f");
  EXPECT_TRUE(telemetry::json::validate(json_quoted(std::string("\x00\x07", 2))));
}

TEST(JsonEscape, ValidUtf8PassesThrough) {
  const std::string multi = "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x8e\xb2";
  EXPECT_EQ(telemetry::json::escape(multi), multi);
  EXPECT_TRUE(telemetry::json::validate(json_quoted(multi)));
}

TEST(JsonEscape, InvalidUtf8BecomesReplacementCharacter) {
  const std::string replacement = "\xef\xbf\xbd";
  // Lone continuation byte, stray lead byte, overlong encoding,
  // truncated sequence at end of string, CESU-8 surrogate, > U+10FFFF.
  const std::vector<std::string> bad = {
      std::string("\x80"),             // continuation without lead
      std::string("\xc3"),             // truncated 2-byte sequence
      std::string("\xc0\xaf"),         // overlong '/'
      std::string("\xe0\x80\xaf"),     // overlong 3-byte
      std::string("\xed\xa0\x80"),     // UTF-16 surrogate half
      std::string("\xf5\x80\x80\x80"), // above U+10FFFF
      std::string("ab\xf0\x9f\x8e"),   // truncated 4-byte at end
  };
  for (const auto& s : bad) {
    const std::string escaped = telemetry::json::escape(s);
    EXPECT_NE(escaped.find(replacement), std::string::npos) << "input: " << s;
    std::string error;
    EXPECT_TRUE(telemetry::json::validate(json_quoted(s), &error))
        << "input: " << s << " error: " << error;
  }
  // Valid bytes around the damage survive untouched.
  EXPECT_EQ(telemetry::json::escape(std::string("a\x80z")),
            "a" + replacement + "z");
}

TEST(JsonEscape, TenantIdsRoundTripThroughStatuszStyleDocuments) {
  // The shapes write_statusz / chrome traces emit: arbitrary ids inside
  // quoted strings. Whatever the bytes, the document must stay valid.
  const std::vector<std::string> ids = {
      "tenant-1", "we\"ird", "back\\slash", "new\nline",
      std::string("bin\x00ary", 7), "bad\xff\xfeutf"};
  for (const auto& id : ids) {
    std::ostringstream os;
    os << "{\"tenant\":" << json_quoted(id) << "}";
    std::string error;
    EXPECT_TRUE(telemetry::json::validate(os.str(), &error))
        << "id bytes broke the document: " << error;
  }
}

}  // namespace
