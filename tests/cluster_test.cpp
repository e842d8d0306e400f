// ServeCluster tests: hash-ring determinism and coverage, config
// validation, the migration determinism matrix (1/2/4 shards x 1/2/8
// workers, migrate mid-run => bit-identical estimates vs a direct
// filter), the acceptance scenario (4-shard cluster with one forced
// migration and one spill/restore cycle mid-run, bit-identical to a
// single SessionManager), transparent spill restore (a spilled session
// is known, never kUnknownSession), structured restore failure on a
// corrupt spill file, budget refusal keeping sessions resident, EDF
// deadline shedding and per-tenant fair admission, the cluster.* metric
// catalogue, statusz/OpenMetrics aggregation, the shard_imbalance /
// spill_thrash detectors, and a concurrent submit/pump/migrate/spill
// stress loop for TSan.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/cluster.hpp"
#include "sim/ground_truth.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace esthera;

using ArmModel = models::RobotArmModel<float>;
using ArmFilter = core::DistributedParticleFilter<ArmModel>;
using Manager = serve::SessionManager<ArmModel>;
using Cluster = serve::ServeCluster<ArmModel>;

core::FilterConfig small_config(std::uint64_t seed = 21) {
  core::FilterConfig cfg;
  cfg.particles_per_filter = 16;
  cfg.num_filters = 4;
  cfg.seed = seed;
  cfg.workers = 1;
  return cfg;
}

struct Traffic {
  std::vector<std::vector<float>> z;
  std::vector<std::vector<float>> u;

  explicit Traffic(std::uint64_t scenario_seed, std::size_t steps) {
    sim::RobotArmScenario scenario;
    scenario.reset(scenario_seed);
    for (std::size_t k = 0; k < steps; ++k) {
      const auto step = scenario.advance();
      z.emplace_back(step.z.begin(), step.z.end());
      u.emplace_back(step.u.begin(), step.u.end());
    }
  }
};

ArmModel make_model(std::uint64_t scenario_seed) {
  sim::RobotArmScenario scenario;
  scenario.reset(scenario_seed);
  return scenario.make_model<float>();
}

/// Direct-filter reference trajectories for kSessions sessions.
std::vector<std::vector<float>> direct_reference(std::size_t sessions,
                                                 std::size_t steps) {
  std::vector<std::vector<float>> reference;
  for (std::size_t s = 0; s < sessions; ++s) {
    const Traffic traffic(100 + s, steps);
    ArmFilter pf(make_model(100 + s), small_config(500 + s));
    for (std::size_t k = 0; k < steps; ++k) pf.step(traffic.z[k], traffic.u[k]);
    const auto est = pf.estimate();
    reference.emplace_back(est.begin(), est.end());
  }
  return reference;
}

/// Serves kSessions sessions through a cluster, optionally migrating
/// session 1 mid-run, and returns the final estimates.
std::vector<std::vector<float>> cluster_trajectories(std::size_t shards,
                                                     std::size_t workers,
                                                     bool migrate_mid_run) {
  constexpr std::size_t kSessions = 3;
  constexpr std::size_t kSteps = 10;
  serve::ClusterConfig ccfg;
  ccfg.shards = shards;
  ccfg.shard.workers = workers;
  ccfg.shard.max_batch = 8;
  ccfg.shard.max_pending_per_session = kSteps;
  Cluster cluster(ccfg);

  std::vector<Traffic> traffic;
  std::vector<Cluster::SessionId> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    traffic.emplace_back(100 + s, kSteps);
    const auto opened =
        cluster.open_session(make_model(100 + s), small_config(500 + s));
    EXPECT_TRUE(opened.ok());
    ids.push_back(opened.id);
  }

  std::vector<std::size_t> next(kSessions, 0);
  std::size_t submitted = 0;
  bool migrated = false;
  while (submitted < kSessions * kSteps) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      for (std::size_t b = 0; b < 3 && next[s] < kSteps; ++b) {
        const std::size_t k = next[s]++;
        EXPECT_TRUE(cluster
                        .submit(ids[s], traffic[s].z[k], traffic[s].u[k],
                                static_cast<double>(k))
                        .ok());
        ++submitted;
      }
    }
    while (cluster.pump() > 0) {
    }
    if (migrate_mid_run && !migrated && submitted >= kSessions * kSteps / 2) {
      migrated = true;
      const std::size_t from = *cluster.shard_of(ids[1]);
      EXPECT_TRUE(cluster.migrate(ids[1], (from + 1) % shards));
    }
  }
  cluster.drain();

  std::vector<std::vector<float>> result;
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(*cluster.step_index(ids[s]), kSteps);
    result.push_back(*cluster.estimate(ids[s]));
  }
  return result;
}

TEST(ClusterHashRing, DeterministicAndCoversEveryShard) {
  const serve::HashRing a(4, 16);
  const serve::HashRing b(4, 16);
  std::set<std::size_t> hit;
  for (std::uint64_t key = 1; key <= 1000; ++key) {
    const std::size_t s = a.shard_for(key);
    EXPECT_EQ(s, b.shard_for(key));  // placement is reproducible
    EXPECT_LT(s, 4u);
    hit.insert(s);
  }
  EXPECT_EQ(hit.size(), 4u);  // no shard is unreachable
}

TEST(ClusterConfigValidate, RejectsInconsistentBounds) {
  serve::ClusterConfig cfg;
  cfg.shards = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.vnodes_per_shard = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.shed_service_seconds = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.fair_admission = true;
  cfg.tenant_min_slots = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.shard.max_queue = 0;  // shard template is validated too
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Cluster, MigrationDeterminismMatrix) {
  const auto reference = direct_reference(3, 10);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      EXPECT_EQ(cluster_trajectories(shards, workers, true), reference)
          << "shards=" << shards << " workers=" << workers;
    }
  }
}

// Acceptance scenario: a session served on a 4-shard cluster -- including
// one forced migration and one evict-to-spill/restore cycle mid-run --
// must produce bit-identical estimates to the same session on a single
// SessionManager.
TEST(Cluster, FourShardMigrationAndSpillCycleMatchesSingleManager) {
  constexpr std::size_t kSteps = 12;
  const Traffic traffic(100, kSteps);

  // Reference: the same session on one SessionManager, no cluster.
  std::vector<float> single;
  {
    Manager mgr((serve::ServeConfig()));
    const auto opened = mgr.open_session(make_model(100), small_config(500));
    ASSERT_TRUE(opened.ok());
    for (std::size_t k = 0; k < kSteps; ++k) {
      ASSERT_TRUE(mgr.submit(opened.id, traffic.z[k], traffic.u[k],
                             static_cast<double>(k))
                      .ok());
      while (mgr.run_batch().dispatched > 0) {
      }
    }
    mgr.drain();
    single = *mgr.estimate(opened.id);
  }

  serve::ClusterConfig ccfg;
  ccfg.shards = 4;
  Cluster cluster(ccfg);
  const auto opened =
      cluster.open_session(make_model(100), small_config(500));
  ASSERT_TRUE(opened.ok());
  const auto id = opened.id;
  bool saw_restore = false;
  for (std::size_t k = 0; k < kSteps; ++k) {
    const auto sub = cluster.submit(id, traffic.z[k], traffic.u[k],
                                    static_cast<double>(k));
    ASSERT_TRUE(sub.ok());
    saw_restore = saw_restore || sub.restored_from_spill;
    while (cluster.pump() > 0) {
    }
    if (k == 3) {  // forced migration mid-run
      const std::size_t from = *cluster.shard_of(id);
      ASSERT_TRUE(cluster.migrate(id, (from + 1) % 4));
    }
    if (k == 7) {  // forced evict-to-spill; the next submit restores
      ASSERT_TRUE(cluster.spill_session(id));
      ASSERT_TRUE(*cluster.spilled(id));
      EXPECT_EQ(*cluster.step_index(id), 8u);  // answered from the blob
    }
  }
  cluster.drain();
  EXPECT_TRUE(saw_restore);
  EXPECT_EQ(*cluster.estimate(id), single);
  EXPECT_EQ(*cluster.step_index(id), kSteps);
}

TEST(Cluster, SpilledSessionIsKnownAndRestoresOnSubmit) {
  const Traffic traffic(30, 4);
  serve::ClusterConfig ccfg;
  ccfg.shards = 2;
  Cluster fresh(ccfg);
  const auto o = fresh.open_session(make_model(30), small_config(31));
  ASSERT_TRUE(o.ok());
  ASSERT_TRUE(fresh.submit(o.id, traffic.z[0], traffic.u[0]).ok());
  while (fresh.pump() > 0) {
  }
  ASSERT_TRUE(fresh.spill_session(o.id));
  EXPECT_EQ(*fresh.pending(o.id), 0u);
  // A spilled session is not "unknown": the submit restores and admits.
  const auto sub = fresh.submit(o.id, traffic.z[1], traffic.u[1]);
  EXPECT_EQ(sub.admission, serve::Admission::kAccepted);
  EXPECT_TRUE(sub.restored_from_spill);
  EXPECT_FALSE(*fresh.spilled(o.id));
  // A *closed* session is unknown -- the reasons stay distinct.
  while (fresh.pump() > 0) {
  }
  EXPECT_TRUE(fresh.close_session(o.id));
  EXPECT_EQ(fresh.submit(o.id, traffic.z[2], traffic.u[2]).admission,
            serve::Admission::kUnknownSession);
}

TEST(Cluster, LruResidencySweepSpillsColdestSession) {
  const Traffic traffic(40, 6);
  serve::ClusterConfig ccfg;
  ccfg.shards = 2;
  ccfg.max_resident_sessions = 2;
  Cluster cluster(ccfg);
  std::vector<Cluster::SessionId> ids;
  for (std::size_t s = 0; s < 3; ++s) {
    const auto o = cluster.open_session(make_model(40 + s), small_config(41 + s));
    ASSERT_TRUE(o.ok());
    ids.push_back(o.id);
  }
  // Touch 1 and 2; 0 stays coldest and must be the one spilled.
  ASSERT_TRUE(cluster.submit(ids[1], traffic.z[0], traffic.u[0]).ok());
  ASSERT_TRUE(cluster.submit(ids[2], traffic.z[0], traffic.u[0]).ok());
  while (cluster.pump() > 0) {
  }
  EXPECT_EQ(cluster.resident_count(), 2u);
  EXPECT_TRUE(*cluster.spilled(ids[0]));
  EXPECT_FALSE(*cluster.spilled(ids[1]));
  EXPECT_FALSE(*cluster.spilled(ids[2]));
}

TEST(Cluster, CorruptSpillFileRejectsStructuredNotCrash) {
  const Traffic traffic(50, 3);
  char dir_template[] = "/tmp/esthera_spill_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  serve::ClusterConfig ccfg;
  ccfg.shards = 2;
  ccfg.spill.dir = dir_template;
  Cluster cluster(ccfg);
  const auto o = cluster.open_session(make_model(50), small_config(51));
  ASSERT_TRUE(o.ok());
  ASSERT_TRUE(cluster.submit(o.id, traffic.z[0], traffic.u[0]).ok());
  while (cluster.pump() > 0) {
  }
  ASSERT_TRUE(cluster.spill_session(o.id));
  const std::string path = cluster.spill_store().path_for(o.id);
  ASSERT_FALSE(path.empty());
  {
    // Flip one byte in the middle of the blob: the checksum must refuse.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(64);
    char byte = 0;
    f.seekg(64);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(64);
    f.write(&byte, 1);
  }
  const auto sub = cluster.submit(o.id, traffic.z[1], traffic.u[1]);
  EXPECT_EQ(sub.admission, serve::Admission::kRestoreFailed);
  // The blob survives for postmortem inspection.
  EXPECT_TRUE(std::ifstream(path).good());
  // The session stays known (and keeps failing structurally, not fatally).
  EXPECT_EQ(cluster.submit(o.id, traffic.z[2], traffic.u[2]).admission,
            serve::Admission::kRestoreFailed);
  std::remove(path.c_str());
  ::rmdir(dir_template);
}

// A spill file holding a valid blob of another session's shape (a swapped
// file, or two clusters sharing one spill dir) passes the checksum; the
// restore must still end in a structured kRestoreFailed with the blob kept
// in the store, not an exception out of submit() that loses the blob.
TEST(Cluster, SwappedSpillFilesOfOtherShapeRejectStructuredAndKeepBlobs) {
  const Traffic traffic(55, 3);
  char dir_template[] = "/tmp/esthera_spill_swap_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  serve::ClusterConfig ccfg;
  ccfg.shards = 2;
  ccfg.spill.dir = dir_template;
  Cluster cluster(ccfg);
  // m=32 x N=8 and m=64 x N=4 on the stateless Philox core: equal blob
  // sizes, so the store's size bookkeeping cannot tell the files apart.
  std::vector<core::FilterConfig> cfgs(2, small_config(56));
  cfgs[0].particles_per_filter = 32;
  cfgs[0].num_filters = 8;
  cfgs[1].particles_per_filter = 64;
  cfgs[1].num_filters = 4;
  std::vector<Cluster::SessionId> ids;
  std::vector<std::string> paths;
  for (auto& cfg : cfgs) {
    cfg.generator = prng::Generator::kPhilox;
    const auto o = cluster.open_session(make_model(55), cfg);
    ASSERT_TRUE(o.ok());
    ASSERT_TRUE(cluster.submit(o.id, traffic.z[0], traffic.u[0]).ok());
    while (cluster.pump() > 0) {
    }
    ASSERT_TRUE(cluster.spill_session(o.id));
    ids.push_back(o.id);
    paths.push_back(cluster.spill_store().path_for(o.id));
  }
  const auto swap_files = [&] {
    const std::string tmp = paths[0] + ".swap";
    ASSERT_EQ(std::rename(paths[0].c_str(), tmp.c_str()), 0);
    ASSERT_EQ(std::rename(paths[1].c_str(), paths[0].c_str()), 0);
    ASSERT_EQ(std::rename(tmp.c_str(), paths[1].c_str()), 0);
  };
  swap_files();
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(cluster.submit(ids[s], traffic.z[1], traffic.u[1]).admission,
              serve::Admission::kRestoreFailed);
    EXPECT_TRUE(*cluster.spilled(ids[s]));
    EXPECT_TRUE(cluster.spill_store().contains(ids[s]));
    EXPECT_TRUE(std::ifstream(paths[s]).good());
  }
  // Nothing was lost: with the files back in place both sessions resume
  // exactly where a never-spilled filter would be.
  swap_files();
  for (std::size_t s = 0; s < 2; ++s) {
    ASSERT_TRUE(cluster.submit(ids[s], traffic.z[1], traffic.u[1]).ok());
    while (cluster.pump() > 0) {
    }
    ArmFilter direct(make_model(55), cfgs[s]);
    for (std::size_t k = 0; k < 2; ++k) direct.step(traffic.z[k], traffic.u[k]);
    const auto est = direct.estimate();
    EXPECT_EQ(*cluster.estimate(ids[s]), std::vector<float>(est.begin(), est.end()));
  }
  cluster.drain();
  ::rmdir(dir_template);
}

TEST(Cluster, SpillBudgetRefusalKeepsSessionResident) {
  const Traffic traffic(60, 3);
  telemetry::Telemetry tel;
  serve::ClusterConfig ccfg;
  ccfg.shards = 1;
  ccfg.spill.budget_bytes = 16;  // no checkpoint blob fits
  ccfg.telemetry = &tel;
  Cluster cluster(ccfg);
  const auto o = cluster.open_session(make_model(60), small_config(61));
  ASSERT_TRUE(o.ok());
  EXPECT_FALSE(cluster.spill_session(o.id));
  EXPECT_FALSE(*cluster.spilled(o.id));
  EXPECT_EQ(tel.registry.counter("cluster.spill.rejected").value(), 1u);
  // Still serving.
  EXPECT_TRUE(cluster.submit(o.id, traffic.z[0], traffic.u[0]).ok());
  cluster.drain();
}

TEST(Cluster, DeadlineSheddingRejectsUnmeetableRequests) {
  const Traffic traffic(70, 8);
  serve::ClusterConfig ccfg;
  ccfg.shards = 1;
  ccfg.shard.max_pending_per_session = 8;
  ccfg.shed_service_seconds = 1.0;  // each queued request costs 1 unit
  Cluster cluster(ccfg);
  const auto o = cluster.open_session(make_model(70), small_config(71));
  ASSERT_TRUE(o.ok());
  // Queue empty: a deadline of 1.0 at now=0 is meetable (1 slot ahead).
  EXPECT_TRUE(cluster.submit(o.id, traffic.z[0], traffic.u[0], 1.0, 0.0).ok());
  // One queued ahead: deadline 1.5 would finish at 2.0 -> shed.
  const auto shed = cluster.submit(o.id, traffic.z[1], traffic.u[1], 1.5, 0.0);
  EXPECT_EQ(shed.admission, serve::Admission::kDeadlineUnmeetable);
  // Same request with a feasible deadline is admitted...
  EXPECT_TRUE(cluster.submit(o.id, traffic.z[1], traffic.u[1], 2.0, 0.0).ok());
  // ...and undeadlined requests are never shed.
  EXPECT_TRUE(cluster.submit(o.id, traffic.z[2], traffic.u[2]).ok());
  cluster.drain();
}

TEST(Cluster, FairAdmissionCapsHotTenant) {
  const Traffic traffic(80, 8);
  serve::ClusterConfig ccfg;
  ccfg.shards = 1;
  ccfg.shard.max_queue = 8;
  ccfg.shard.max_pending_per_session = 8;
  ccfg.fair_admission = true;
  ccfg.tenant_min_slots = 1;
  Cluster cluster(ccfg);
  const auto hot = cluster.open_session(make_model(80), small_config(81), 1);
  const auto cold = cluster.open_session(make_model(80), small_config(82), 2);
  ASSERT_TRUE(hot.ok());
  ASSERT_TRUE(cold.ok());
  // Tenant 1 alone: cap = capacity / 1 active = 8; it can queue freely.
  for (std::size_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(cluster.submit(hot.id, traffic.z[k], traffic.u[k]).ok());
  }
  // Tenant 2's first submit activates it: 2 active tenants, cap = 4.
  EXPECT_TRUE(cluster.submit(cold.id, traffic.z[0], traffic.u[0]).ok());
  // Tenant 1 already holds 4 >= cap -> over quota; tenant 2 still fits.
  EXPECT_EQ(cluster.submit(hot.id, traffic.z[4], traffic.u[4]).admission,
            serve::Admission::kTenantOverQuota);
  EXPECT_TRUE(cluster.submit(cold.id, traffic.z[1], traffic.u[1]).ok());
  cluster.drain();
}

TEST(Cluster, MetricsCatalogueIsRecorded) {
  const Traffic traffic(90, 6);
  telemetry::Telemetry tel;
  serve::ClusterConfig ccfg;
  ccfg.shards = 2;
  ccfg.telemetry = &tel;
  Cluster cluster(ccfg);
  const auto a = cluster.open_session(make_model(90), small_config(91));
  const auto b = cluster.open_session(make_model(90), small_config(92));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(cluster.submit(a.id, traffic.z[k], traffic.u[k]).ok());
    ASSERT_TRUE(cluster.submit(b.id, traffic.z[k], traffic.u[k]).ok());
  }
  while (cluster.pump() > 0) {
  }
  ASSERT_TRUE(cluster.migrate(a.id, (*cluster.shard_of(a.id) + 1) % 2));
  ASSERT_TRUE(cluster.spill_session(b.id));
  ASSERT_TRUE(cluster.submit(b.id, traffic.z[3], traffic.u[3]).ok());
  cluster.drain();
  EXPECT_EQ(cluster.submit(a.id, traffic.z[4], traffic.u[4]).admission,
            serve::Admission::kDraining);

  auto& reg = tel.registry;
  EXPECT_EQ(reg.counter("cluster.requests.accepted").value(), 7u);
  EXPECT_EQ(reg.counter("cluster.requests.completed").value(), 7u);
  EXPECT_EQ(reg.counter("cluster.migrations").value(), 1u);
  EXPECT_EQ(reg.counter("cluster.spills").value(), 1u);
  EXPECT_EQ(reg.counter("cluster.spill.restores").value(), 1u);
  EXPECT_EQ(reg.counter("cluster.rejected.draining").value(), 1u);
  EXPECT_GE(reg.counter("cluster.batches").value(), 1u);
  EXPECT_EQ(reg.gauge("cluster.sessions.open").value(), 2.0);
  EXPECT_EQ(reg.gauge("cluster.sessions.spilled").value(), 0.0);
  EXPECT_EQ(reg.gauge("cluster.queue.depth").value(), 0.0);
  // The merged latency view counts every completed request once.
  EXPECT_EQ(cluster.merged_latency().count(), 7u);
}

TEST(Cluster, StatuszAggregatesShardsAndSessions) {
  const Traffic traffic(95, 4);
  telemetry::Telemetry tel;
  serve::ClusterConfig ccfg;
  ccfg.shards = 2;
  ccfg.telemetry = &tel;
  Cluster cluster(ccfg);
  const auto a = cluster.open_session(make_model(95), small_config(96), 7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(cluster.submit(a.id, traffic.z[0], traffic.u[0]).ok());
  while (cluster.pump() > 0) {
  }
  ASSERT_TRUE(cluster.spill_session(a.id));

  std::ostringstream os;
  cluster.write_statusz(os);
  std::string error;
  const auto doc = telemetry::json::parse(os.str(), &error);
  ASSERT_TRUE(doc) << error;
  EXPECT_EQ(doc->find("schema")->as_string(), "esthera.cluster.statusz/1");
  EXPECT_EQ(doc->find("shard_count")->as_number(), 2.0);
  const auto* sessions = doc->find("sessions_summary");
  ASSERT_NE(sessions, nullptr);
  EXPECT_EQ(sessions->find("total")->as_number(), 1.0);
  EXPECT_EQ(sessions->find("spilled")->as_number(), 1.0);
  const auto* spill = doc->find("spill");
  ASSERT_NE(spill, nullptr);
  EXPECT_EQ(spill->find("stored")->as_number(), 1.0);
  EXPECT_GT(spill->find("bytes")->as_number(), 0.0);
  const auto* shards = doc->find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_TRUE(shards->is_array());
  ASSERT_EQ(shards->as_array().size(), 2u);
  for (const auto& row : shards->as_array()) {
    // Every shard row embeds the shard's own full statusz document.
    const auto* detail = row.find("detail");
    ASSERT_NE(detail, nullptr);
    EXPECT_EQ(detail->find("schema")->as_string(), "esthera.statusz/1");
  }
  const auto* rows = doc->find("sessions");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->as_array().size(), 1u);
  EXPECT_EQ(rows->as_array()[0].find("state")->as_string(), "spilled");
  EXPECT_EQ(rows->as_array()[0].find("tenant")->as_number(), 7.0);
  const auto* rejects = doc->find("rejects");
  ASSERT_NE(rejects, nullptr);
  EXPECT_EQ(rejects->as_object().size(),
            static_cast<std::size_t>(serve::kAdmissionReasonCount - 1));
}

TEST(Cluster, OpenMetricsLabelsShardsAndKeepsOneTypePerFamily) {
  const Traffic traffic(97, 4);
  telemetry::Telemetry tel;
  serve::ClusterConfig ccfg;
  ccfg.shards = 2;
  ccfg.telemetry = &tel;
  Cluster cluster(ccfg);
  const auto a = cluster.open_session(make_model(97), small_config(98));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(cluster.submit(a.id, traffic.z[0], traffic.u[0]).ok());
  cluster.drain();

  std::ostringstream os;
  cluster.write_openmetrics(os);
  const std::string doc = os.str();
  ASSERT_GE(doc.size(), 6u);
  EXPECT_EQ(doc.substr(doc.size() - 6), "# EOF\n");
  // One TYPE line per family, even with two shards contributing samples.
  std::map<std::string, int> type_lines;
  bool saw_shard0 = false, saw_shard1 = false;
  std::istringstream lines(doc);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) ++type_lines[line];
    if (line.find("{shard=\"0\"") != std::string::npos) saw_shard0 = true;
    if (line.find("{shard=\"1\"") != std::string::npos) saw_shard1 = true;
  }
  for (const auto& [type_line, count] : type_lines) {
    EXPECT_EQ(count, 1) << type_line;
  }
  EXPECT_TRUE(saw_shard0);
  EXPECT_TRUE(saw_shard1);
  // Shard families appear labeled; cluster families appear unlabeled.
  EXPECT_NE(
      doc.find("esthera_serve_requests_accepted_total{shard=\"0\"}"),
      std::string::npos);
  EXPECT_NE(doc.find("esthera_cluster_requests_accepted_total 1"),
            std::string::npos);
}

TEST(Cluster, ShardImbalanceDetectorFires) {
  const Traffic traffic(99, 16);
  monitor::MonitorConfig mcfg;
  mcfg.shard_imbalance_ratio = 1.5;
  mcfg.shard_imbalance_min_depth = 4.0;
  monitor::HealthMonitor mon(mcfg);
  serve::ClusterConfig ccfg;
  ccfg.shards = 2;
  ccfg.shard.max_pending_per_session = 16;
  ccfg.shard.max_batch = 1;  // keep the queue deep across the pump
  ccfg.monitor = &mon;
  Cluster cluster(ccfg);
  const auto o = cluster.open_session(make_model(99), small_config(99));
  ASSERT_TRUE(o.ok());
  // All load lands on one shard: max depth far above the cross-shard mean.
  for (std::size_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(cluster.submit(o.id, traffic.z[k], traffic.u[k]).ok());
  }
  (void)cluster.pump();
  EXPECT_GE(mon.count("shard_imbalance"), 1u);
  std::ostringstream flight;
  cluster.dump_flight(flight);
  EXPECT_NE(flight.str().find("shard_imbalance"), std::string::npos);
  cluster.drain();
}

TEST(Cluster, SpillThrashDetectorFires) {
  const Traffic traffic(101, 8);
  monitor::MonitorConfig mcfg;
  mcfg.spill_thrash_ticks = 1000;  // any restore counts as thrash
  monitor::HealthMonitor mon(mcfg);
  serve::ClusterConfig ccfg;
  ccfg.shards = 1;
  ccfg.monitor = &mon;
  Cluster cluster(ccfg);
  const auto o = cluster.open_session(make_model(101), small_config(102));
  ASSERT_TRUE(o.ok());
  ASSERT_TRUE(cluster.spill_session(o.id));
  ASSERT_TRUE(cluster.submit(o.id, traffic.z[0], traffic.u[0]).ok());
  EXPECT_GE(mon.count("spill_thrash"), 1u);
  cluster.drain();
}

TEST(ClusterSpillStore, BudgetAndRoundTripAccounting) {
  serve::SpillStore::Config cfg;
  cfg.budget_bytes = 100;
  serve::SpillStore store(cfg);
  const std::vector<std::uint8_t> blob60(60, 0xAB);
  const std::vector<std::uint8_t> blob50(50, 0xCD);
  EXPECT_TRUE(store.put(1, blob60));
  EXPECT_EQ(store.bytes(), 60u);
  EXPECT_FALSE(store.put(2, blob50));  // 110 > 100: refused
  EXPECT_EQ(store.bytes(), 60u);
  EXPECT_TRUE(store.put(1, blob50));  // replacement re-budgets
  EXPECT_EQ(store.bytes(), 50u);
  EXPECT_EQ(store.peek(1), blob50);   // peek is non-destructive
  EXPECT_TRUE(store.contains(1));
  EXPECT_EQ(store.take(1), blob50);
  EXPECT_FALSE(store.contains(1));
  EXPECT_EQ(store.bytes(), 0u);
  EXPECT_THROW((void)store.take(1), serve::SpillError);
  EXPECT_THROW((void)store.peek(7), serve::SpillError);
  store.erase(9);  // absent: no-op
}

// TSan stress: concurrent submitters, pump threads, a migrator, a
// spiller, and a statusz scraper all over one 4-shard cluster.
TEST(ClusterStress, ConcurrentSubmitPumpMigrateSpillStatusz) {
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kSteps = 30;
  serve::ClusterConfig ccfg;
  ccfg.shards = 4;
  ccfg.shard.workers = 2;
  ccfg.shard.max_pending_per_session = kSteps;
  Cluster cluster(ccfg);
  std::vector<Traffic> traffic;
  std::vector<Cluster::SessionId> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    traffic.emplace_back(200 + s, kSteps);
    const auto o =
        cluster.open_session(make_model(200 + s), small_config(300 + s));
    ASSERT_TRUE(o.ok());
    ids.push_back(o.id);
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < kSteps; ++k) {
        for (std::size_t s = t; s < kSessions; s += 2) {
          // Backlog rejects are fine; only structured outcomes allowed.
          (void)cluster.submit(ids[s], traffic[s].z[k], traffic[s].u[k],
                               static_cast<double>(k));
        }
      }
    });
  }
  for (std::size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)cluster.pump();
      }
    });
  }
  threads.emplace_back([&] {
    std::size_t round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)cluster.migrate(ids[round % kSessions], round % 4);
      ++round;
    }
  });
  threads.emplace_back([&] {
    std::size_t round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto id = ids[round % kSessions];
      (void)cluster.spill_session(id);
      ++round;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::ostringstream os;
      cluster.write_statusz(os);
      std::ostringstream om;
      cluster.write_openmetrics(om);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  threads[0].join();
  threads[1].join();
  stop.store(true, std::memory_order_relaxed);
  for (std::size_t t = 2; t < threads.size(); ++t) threads[t].join();
  cluster.drain();
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_TRUE(cluster.estimate(ids[s]).has_value());
  }
}

}  // namespace
