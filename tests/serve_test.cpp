// Serving-runtime tests: checkpoint round-trip bit-identity (including
// save -> destroy -> restore -> step through the SessionManager),
// structured rejection of truncated / corrupt / incompatible blobs,
// determinism under concurrency (fixed per-session seed => bit-identical
// estimates regardless of manager worker count, batch interleaving, or an
// intervening checkpoint/restore), admission control with every rejection
// reason, EDF batch ordering, the serve.* metric catalogue, and a
// concurrent submit/checkpoint/evict stress loop for TSan (plus a
// multi-waiter close/evict race on one busy session and two dispatchers
// sharing step workspaces across session shapes).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "serve/session_manager.hpp"
#include "sim/ground_truth.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace esthera;

using ArmModel = models::RobotArmModel<float>;
using ArmFilter = core::DistributedParticleFilter<ArmModel>;
using Manager = serve::SessionManager<ArmModel>;

core::FilterConfig small_config(std::uint64_t seed = 21) {
  core::FilterConfig cfg;
  cfg.particles_per_filter = 16;
  cfg.num_filters = 4;
  cfg.seed = seed;
  cfg.workers = 1;
  return cfg;
}

/// Deterministic observation stream: `steps` (z, u) pairs of one scenario.
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

std::vector<float> estimates_concat(ArmFilter& pf, const Traffic& traffic,
                                    std::size_t from, std::size_t to) {
  std::vector<float> out;
  for (std::size_t k = from; k < to; ++k) {
    pf.step(traffic.z[k], traffic.u[k]);
    const auto est = pf.estimate();
    out.insert(out.end(), est.begin(), est.end());
  }
  return out;
}

TEST(ServeCheckpoint, EncodeDecodeRoundTripIsBitIdentical) {
  const Traffic traffic(5, 8);
  ArmFilter pf(make_model(5), small_config());
  for (std::size_t k = 0; k < 5; ++k) pf.step(traffic.z[k], traffic.u[k]);

  const auto state = pf.export_state();
  const auto blob = serve::encode_checkpoint<float>(state);
  const auto decoded = serve::decode_checkpoint<float>(blob);
  EXPECT_EQ(serve::encode_checkpoint<float>(decoded), blob);
  EXPECT_EQ(decoded.step, state.step);
  EXPECT_EQ(decoded.state, state.state);
  EXPECT_EQ(decoded.log_weights, state.log_weights);
  EXPECT_EQ(decoded.rng.mt_words, state.rng.mt_words);
  EXPECT_EQ(serve::checkpoint_version(blob), serve::kCheckpointVersion);
}

TEST(ServeCheckpoint, SaveDestroyRestoreStepMatchesUninterruptedRun) {
  const Traffic traffic(6, 12);

  // Reference: one filter stepped straight through.
  ArmFilter reference(make_model(6), small_config());
  for (std::size_t k = 0; k < 4; ++k) reference.step(traffic.z[k], traffic.u[k]);
  const auto expected = estimates_concat(reference, traffic, 4, 12);

  // Subject: snapshot at step 4, destroy, restore into a new filter.
  std::vector<std::uint8_t> blob;
  {
    ArmFilter pf(make_model(6), small_config());
    for (std::size_t k = 0; k < 4; ++k) pf.step(traffic.z[k], traffic.u[k]);
    blob = serve::encode_checkpoint<float>(pf.export_state());
  }
  ArmFilter restored(make_model(6), small_config());
  restored.import_state(serve::decode_checkpoint<float>(blob));
  EXPECT_EQ(restored.step_index(), 4u);
  EXPECT_EQ(estimates_concat(restored, traffic, 4, 12), expected);
}

TEST(ServeCheckpoint, TruncatedBlobRejectedWithClearError) {
  ArmFilter pf(make_model(7), small_config());
  const auto blob = serve::encode_checkpoint<float>(pf.export_state());
  // Below the fixed header the reader reports truncation by name; past it
  // the checksum (over the full blob) catches the cut first and reports
  // corruption. Both are loud, structured refusals.
  for (const std::size_t keep : {std::size_t{3}, std::size_t{40}, std::size_t{100},
                                 blob.size() - 1}) {
    const std::vector<std::uint8_t> cut(blob.begin(),
                                        blob.begin() + static_cast<long>(keep));
    EXPECT_THROW(
        {
          try {
            (void)serve::decode_checkpoint<float>(cut);
          } catch (const serve::CheckpointError& e) {
            const std::string what = e.what();
            EXPECT_TRUE(what.find("truncated") != std::string::npos ||
                        what.find("corrupt") != std::string::npos)
                << "keep=" << keep << ": " << what;
            throw;
          }
        },
        serve::CheckpointError)
        << "keep=" << keep;
  }
}

TEST(ServeCheckpoint, CorruptBlobFailsChecksum) {
  ArmFilter pf(make_model(7), small_config());
  auto blob = serve::encode_checkpoint<float>(pf.export_state());
  blob[blob.size() / 2] ^= 0x40;
  EXPECT_THROW(
      {
        try {
          (void)serve::decode_checkpoint<float>(blob);
        } catch (const serve::CheckpointError& e) {
          EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
          throw;
        }
      },
      serve::CheckpointError);
}

TEST(ServeCheckpoint, VersionMismatchIsRefusedNotParsed) {
  ArmFilter pf(make_model(7), small_config());
  auto blob = serve::encode_checkpoint<float>(pf.export_state());
  blob[4] = 3;  // little-endian version field follows the 4-byte magic
  EXPECT_THROW(
      {
        try {
          (void)serve::decode_checkpoint<float>(blob);
        } catch (const serve::CheckpointError& e) {
          EXPECT_NE(std::string(e.what()).find("version 3"), std::string::npos);
          throw;
        }
      },
      serve::CheckpointError);
  EXPECT_THROW((void)serve::checkpoint_version(std::vector<std::uint8_t>{'X'}),
               serve::CheckpointError);
}

TEST(ServeCheckpoint, ScalarWidthMismatchIsRefused) {
  ArmFilter pf(make_model(7), small_config());
  const auto blob = serve::encode_checkpoint<float>(pf.export_state());
  EXPECT_THROW((void)serve::decode_checkpoint<double>(blob), serve::CheckpointError);
}

void patch_u64_and_resign(std::vector<std::uint8_t>& blob, std::size_t offset,
                          std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    blob[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
  // Re-signed through the encoder's own checksum so the corrupted header
  // fields reach the extent guards instead of being caught by the checksum.
  const std::size_t payload = blob.size() - 8;
  const std::uint64_t sum =
      serve::checkpoint_checksum(std::span(blob).first(payload));
  for (int i = 0; i < 8; ++i) {
    blob[payload + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(sum >> (8 * i));
  }
}

TEST(ServeCheckpoint, OverflowingExtentFieldsAreRejectedNotAllocated) {
  ArmFilter pf(make_model(7), small_config());
  const auto blob = serve::encode_checkpoint<float>(pf.export_state());
  // Little-endian u64 header fields after magic/version/scalar/generator:
  // particles_per_filter at 16, num_filters at 24, state_dim at 32, rng
  // word count at 56. A value of 2^62 makes the old `field * 4` extent
  // guard wrap to zero and pass, reaching resize() with an astronomical
  // size -- it must be a CheckpointError, never length_error/bad_alloc.
  constexpr std::uint64_t kHuge = 1ull << 62;
  for (const std::size_t offset :
       {std::size_t{16}, std::size_t{24}, std::size_t{32}, std::size_t{56}}) {
    auto bad = blob;
    patch_u64_and_resign(bad, offset, kHuge);
    EXPECT_THROW((void)serve::decode_checkpoint<float>(bad),
                 serve::CheckpointError)
        << "field at offset " << offset;
  }
  // particles * filters wrapping the u64 product to zero must not pass.
  auto wrap = blob;
  patch_u64_and_resign(wrap, 16, 1ull << 32);
  patch_u64_and_resign(wrap, 24, 1ull << 32);
  EXPECT_THROW((void)serve::decode_checkpoint<float>(wrap),
               serve::CheckpointError);
}

TEST(ServeCheckpoint, ImportRejectsShapeMismatch) {
  ArmFilter pf(make_model(7), small_config());
  auto state = pf.export_state();
  state.particles_per_filter = 32;  // no longer matches this filter
  ArmFilter other(make_model(7), small_config());
  EXPECT_THROW(other.import_state(state), std::invalid_argument);
}

// The snapshot constructor is construct-then-import_state() without the
// seeding and prior draw: 20 post-restore estimates must match bit for bit
// across generator cores and roughening.
TEST(ServeCheckpoint, SnapshotConstructorMatchesConstructThenImport) {
  const Traffic traffic(8, 24);
  for (const auto generator : {prng::Generator::kMtgp, prng::Generator::kPhilox}) {
    for (const double roughening : {0.0, 0.2}) {
      core::FilterConfig cfg = small_config();
      cfg.generator = generator;
      cfg.roughening_k = roughening;
      ArmFilter source(make_model(8), cfg);
      for (std::size_t k = 0; k < 4; ++k) source.step(traffic.z[k], traffic.u[k]);
      const auto state = source.export_state();

      ArmFilter imported(make_model(8), cfg);
      imported.import_state(state);
      ArmFilter built(make_model(8), cfg, std::make_shared<device::Device>(1), state);
      EXPECT_EQ(built.step_index(), 4u);
      EXPECT_EQ(estimates_concat(built, traffic, 4, 24),
                estimates_concat(imported, traffic, 4, 24))
          << "generator " << static_cast<int>(generator) << " roughening "
          << roughening;
    }
  }
}

TEST(ServeCheckpoint, SnapshotConstructorRejectsMismatchLikeImport) {
  ArmFilter pf(make_model(7), small_config());
  const auto dev = std::make_shared<device::Device>(1);
  auto wrong_m = pf.export_state();
  wrong_m.particles_per_filter = 32;
  auto wrong_n = pf.export_state();
  wrong_n.num_filters = 8;
  wrong_n.rng.groups = 8;
  core::FilterConfig philox = small_config();
  philox.generator = prng::Generator::kPhilox;
  ArmFilter other(make_model(7), small_config());
  ArmFilter other_philox(make_model(7), philox);
  EXPECT_THROW(other.import_state(wrong_m), std::invalid_argument);
  EXPECT_THROW(ArmFilter(make_model(7), small_config(), dev, wrong_m),
               std::invalid_argument);
  EXPECT_THROW(other.import_state(wrong_n), std::invalid_argument);
  EXPECT_THROW(ArmFilter(make_model(7), small_config(), dev, wrong_n),
               std::invalid_argument);
  EXPECT_THROW(other_philox.import_state(pf.export_state()), std::invalid_argument);
  EXPECT_THROW(ArmFilter(make_model(7), philox, dev, pf.export_state()),
               std::invalid_argument);
}

TEST(ServeConfig, ValidationRejectsInconsistentBounds) {
  serve::ServeConfig cfg;
  cfg.max_queue = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.max_pending_per_session = cfg.max_queue + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.max_batch = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.max_sessions = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_NO_THROW(serve::ServeConfig{}.validate());
}

TEST(ServeConfig, StepCostModelGrowsWithWork) {
  core::FilterConfig small = small_config();
  core::FilterConfig big_m = small;
  big_m.particles_per_filter *= 4;
  core::FilterConfig big_n = small;
  big_n.num_filters *= 4;
  EXPECT_GT(serve::step_cost_model(big_m, 3), serve::step_cost_model(small, 3));
  EXPECT_GT(serve::step_cost_model(big_n, 3), serve::step_cost_model(small, 3));
  EXPECT_GT(serve::step_cost_model(small, 6), serve::step_cost_model(small, 3));
}

/// Drives `sessions` tenants through a manager: submits their traffic in
/// round-robin `burst`-sized chunks and batches until done, then returns
/// each session's final estimate.
std::vector<std::vector<float>> serve_trajectories(std::size_t workers,
                                                   std::size_t max_batch,
                                                   std::size_t burst,
                                                   bool checkpoint_cycle) {
  constexpr std::size_t kSessions = 3;
  constexpr std::size_t kSteps = 10;
  serve::ServeConfig scfg;
  scfg.workers = workers;
  scfg.max_batch = max_batch;
  scfg.max_pending_per_session = kSteps;
  Manager mgr(scfg);

  std::vector<Traffic> traffic;
  std::vector<Manager::SessionId> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    traffic.emplace_back(100 + s, kSteps);
    const auto opened =
        mgr.open_session(make_model(100 + s), small_config(500 + s));
    EXPECT_TRUE(opened.ok());
    ids.push_back(opened.id);
  }

  std::vector<std::size_t> next(kSessions, 0);
  std::size_t submitted = 0;
  bool cycled = false;
  while (submitted < kSessions * kSteps) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      for (std::size_t b = 0; b < burst && next[s] < kSteps; ++b) {
        const std::size_t k = next[s]++;
        EXPECT_TRUE(mgr.submit(ids[s], traffic[s].z[k], traffic[s].u[k],
                               static_cast<double>(k))
                        .ok());
        ++submitted;
      }
    }
    while (mgr.run_batch().dispatched > 0) {
    }
    if (checkpoint_cycle && !cycled && submitted >= kSessions * kSteps / 2) {
      // Mid-run: evict session 1 and immediately restore it from the blob.
      cycled = true;
      const auto blob = mgr.evict(ids[1]);
      EXPECT_TRUE(blob.has_value());
      if (blob.has_value()) {
        const auto restored =
            mgr.restore_session(make_model(101), small_config(501), *blob);
        EXPECT_TRUE(restored.ok());
        if (restored.ok()) ids[1] = restored.id;
      }
    }
  }
  mgr.drain();

  std::vector<std::vector<float>> result;
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(*mgr.step_index(ids[s]), kSteps);
    result.push_back(*mgr.estimate(ids[s]));
  }
  return result;
}

TEST(Serve, DeterministicAcrossWorkersBatchingAndRestore) {
  // Reference: each session's filter stepped directly, no manager at all.
  std::vector<std::vector<float>> reference;
  for (std::size_t s = 0; s < 3; ++s) {
    const Traffic traffic(100 + s, 10);
    ArmFilter pf(make_model(100 + s), small_config(500 + s));
    for (std::size_t k = 0; k < 10; ++k) pf.step(traffic.z[k], traffic.u[k]);
    const auto est = pf.estimate();
    reference.emplace_back(est.begin(), est.end());
  }
  EXPECT_EQ(serve_trajectories(1, 1, 1, false), reference);
  EXPECT_EQ(serve_trajectories(1, 8, 4, false), reference);
  EXPECT_EQ(serve_trajectories(4, 3, 2, false), reference);
  EXPECT_EQ(serve_trajectories(4, 8, 5, true), reference);
}

TEST(Serve, AdmissionRejectsWithStructuredReasons) {
  telemetry::Telemetry tel;
  serve::ServeConfig scfg;
  scfg.max_queue = 3;
  scfg.max_pending_per_session = 2;
  scfg.max_sessions = 2;
  scfg.workers = 1;
  scfg.telemetry = &tel;
  Manager mgr(scfg);
  const Traffic traffic(8, 6);

  const auto a = mgr.open_session(make_model(8), small_config(1));
  const auto b = mgr.open_session(make_model(8), small_config(2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto c = mgr.open_session(make_model(8), small_config(3));
  EXPECT_EQ(c.admission, serve::Admission::kSessionLimit);

  EXPECT_EQ(mgr.submit(999, traffic.z[0], traffic.u[0]).admission,
            serve::Admission::kUnknownSession);
  EXPECT_TRUE(mgr.submit(a.id, traffic.z[0], traffic.u[0]).ok());
  EXPECT_TRUE(mgr.submit(a.id, traffic.z[1], traffic.u[1]).ok());
  EXPECT_EQ(mgr.submit(a.id, traffic.z[2], traffic.u[2]).admission,
            serve::Admission::kSessionBacklog);
  EXPECT_TRUE(mgr.submit(b.id, traffic.z[0], traffic.u[0]).ok());
  EXPECT_EQ(mgr.submit(b.id, traffic.z[1], traffic.u[1]).admission,
            serve::Admission::kQueueFull);
  EXPECT_EQ(mgr.queue_depth(), 3u);

  EXPECT_STREQ(serve::to_string(serve::Admission::kQueueFull), "queue_full");
  EXPECT_STREQ(serve::to_string(serve::Admission::kAccepted), "accepted");

  // Drain executes everything already admitted, then rejects new work.
  mgr.drain();
  EXPECT_EQ(mgr.queue_depth(), 0u);
  EXPECT_EQ(*mgr.step_index(a.id), 2u);
  EXPECT_EQ(*mgr.step_index(b.id), 1u);
  EXPECT_EQ(mgr.submit(a.id, traffic.z[2], traffic.u[2]).admission,
            serve::Admission::kDraining);
  EXPECT_EQ(mgr.open_session(make_model(8), small_config(4)).admission,
            serve::Admission::kDraining);

  EXPECT_EQ(tel.registry.counter("serve.rejected.session_backlog").value(), 1u);
  EXPECT_EQ(tel.registry.counter("serve.rejected.queue_full").value(), 1u);
  EXPECT_EQ(tel.registry.counter("serve.rejected.unknown_session").value(), 1u);
  EXPECT_EQ(tel.registry.counter("serve.rejected.session_limit").value(), 1u);
  EXPECT_EQ(tel.registry.counter("serve.rejected.draining").value(), 2u);
  EXPECT_EQ(tel.registry.counter("serve.requests.accepted").value(), 3u);
  EXPECT_EQ(tel.registry.counter("serve.requests.completed").value(), 3u);
}

TEST(Serve, BatchOrderIsEdfWithCostAndIdTieBreaks) {
  serve::ServeConfig scfg;
  scfg.workers = 1;
  Manager mgr(scfg);
  const Traffic traffic(9, 4);

  // Session `big` costs more per step than the two small ones.
  core::FilterConfig big_cfg = small_config(11);
  big_cfg.particles_per_filter = 64;
  const auto small_a = mgr.open_session(make_model(9), small_config(12));
  const auto big = mgr.open_session(make_model(9), big_cfg);
  const auto small_b = mgr.open_session(make_model(9), small_config(13));

  // Deadlines: small_a late (3), big and small_b tied early (1).
  const auto t1 = mgr.submit(small_a.id, traffic.z[0], traffic.u[0], 3.0);
  const auto t2 = mgr.submit(big.id, traffic.z[0], traffic.u[0], 1.0);
  const auto t3 = mgr.submit(small_b.id, traffic.z[0], traffic.u[0], 1.0);
  ASSERT_TRUE(t1.ok() && t2.ok() && t3.ok());

  const auto stats = mgr.run_batch();
  ASSERT_EQ(stats.dispatched, 3u);
  // Earliest deadline first; within the tie the costlier session leads.
  EXPECT_EQ(stats.tickets,
            (std::vector<std::uint64_t>{t2.ticket, t3.ticket, t1.ticket}));

  // Equal deadline and equal cost: session id decides.
  const auto u1 = mgr.submit(small_b.id, traffic.z[1], traffic.u[1], 5.0);
  const auto u2 = mgr.submit(small_a.id, traffic.z[1], traffic.u[1], 5.0);
  const auto stats2 = mgr.run_batch();
  ASSERT_EQ(stats2.dispatched, 2u);
  EXPECT_EQ(stats2.tickets,
            (std::vector<std::uint64_t>{u2.ticket, u1.ticket}));
}

TEST(Serve, NanDeadlineIsTreatedAsNoDeadline) {
  // A NaN deadline would break the EDF comparator's strict weak ordering
  // (UB in std::sort); submit() normalizes it to kNoDeadline instead.
  serve::ServeConfig scfg;
  scfg.workers = 1;
  Manager mgr(scfg);
  const Traffic traffic(9, 2);

  const auto a = mgr.open_session(make_model(9), small_config(41));
  const auto b = mgr.open_session(make_model(9), small_config(42));
  const auto nan_req = mgr.submit(a.id, traffic.z[0], traffic.u[0],
                                  std::numeric_limits<double>::quiet_NaN());
  const auto dl_req = mgr.submit(b.id, traffic.z[0], traffic.u[0], 1.0);
  ASSERT_TRUE(nan_req.ok());
  ASSERT_TRUE(dl_req.ok());

  const auto stats = mgr.run_batch();
  ASSERT_EQ(stats.dispatched, 2u);
  EXPECT_EQ(stats.tickets,
            (std::vector<std::uint64_t>{dl_req.ticket, nan_req.ticket}));
}

TEST(Serve, MetricsCatalogueIsRecorded) {
  telemetry::Telemetry tel;
  serve::ServeConfig scfg;
  scfg.workers = 1;
  scfg.max_batch = 2;
  scfg.telemetry = &tel;
  Manager mgr(scfg);
  const Traffic traffic(10, 4);

  const auto a = mgr.open_session(make_model(10), small_config(31));
  const auto b = mgr.open_session(make_model(10), small_config(32));
  for (std::size_t k = 0; k < 2; ++k) {
    ASSERT_TRUE(mgr.submit(a.id, traffic.z[k], traffic.u[k]).ok());
    ASSERT_TRUE(mgr.submit(b.id, traffic.z[k], traffic.u[k]).ok());
  }
  while (mgr.run_batch().dispatched > 0) {
  }
  ASSERT_TRUE(mgr.checkpoint(a.id).has_value());
  ASSERT_TRUE(mgr.evict(b.id).has_value());
  EXPECT_TRUE(mgr.close_session(a.id));

  auto& reg = tel.registry;
  EXPECT_EQ(reg.counter("serve.sessions.opened").value(), 2u);
  EXPECT_EQ(reg.counter("serve.sessions.closed").value(), 1u);
  EXPECT_EQ(reg.counter("serve.sessions.evicted").value(), 1u);
  EXPECT_EQ(reg.counter("serve.checkpoints").value(), 2u);
  EXPECT_EQ(reg.counter("serve.requests.completed").value(), 4u);
  EXPECT_EQ(reg.counter("serve.batches").value(), 2u);
  EXPECT_EQ(reg.gauge("serve.sessions.open").value(), 0.0);
  EXPECT_EQ(reg.gauge("serve.queue.depth").value(), 0.0);
  EXPECT_GT(reg.gauge("serve.checkpoint.bytes").value(), 0.0);
  ASSERT_NE(reg.find_histogram("serve.request.latency"), nullptr);
  EXPECT_EQ(reg.find_histogram("serve.request.latency")->count(), 4u);
  ASSERT_NE(reg.find_histogram("serve.batch.size"), nullptr);
  EXPECT_EQ(reg.find_histogram("serve.batch.size")->count(), 2u);
}

// Concurrent submit / run_batch / checkpoint / evict+restore: the TSan CI
// job runs this to shake out scheduler races. Assertions are structural
// (no lost sessions, drain empties the queue); the determinism test above
// covers value correctness.
// Sessions of two shapes share the manager's step workspaces while two
// threads dispatch batches at once, so one workspace serves both shapes
// and an inline dispatch (worker 0 on two threads) borrows beside the
// pooled one. Every session must still end bit-identical to its filter
// stepped directly, with invariant checking off and on (checked, each
// borrow re-poisons the workspace).
TEST(ServeStress, TwoDispatchersShareWorkspacesAcrossShapes) {
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kSteps = 6;
  const auto config = [](std::size_t s, bool checked) {
    core::FilterConfig cfg;
    cfg.particles_per_filter = s % 2 == 0 ? 32 : 64;
    cfg.num_filters = s % 2 == 0 ? 8 : 16;
    cfg.seed = 1100 + s;
    cfg.workers = 1;
    cfg.check_invariants = checked;
    return cfg;
  };
  for (const bool checked : {false, true}) {
    SCOPED_TRACE(checked ? "checked" : "unchecked");
    serve::ServeConfig scfg;
    scfg.workers = 2;
    scfg.max_batch = 3;
    scfg.max_pending_per_session = kSteps;
    Manager mgr(scfg);
    std::vector<Traffic> traffic;
    std::vector<Manager::SessionId> ids;
    for (std::size_t s = 0; s < kSessions; ++s) {
      traffic.emplace_back(40 + s, kSteps);
      const auto opened = mgr.open_session(make_model(40 + s), config(s, checked));
      ASSERT_TRUE(opened.ok());
      ids.push_back(opened.id);
    }
    for (std::size_t k = 0; k < kSteps; ++k) {
      for (std::size_t s = 0; s < kSessions; ++s) {
        ASSERT_TRUE(mgr.submit(ids[s], traffic[s].z[k], traffic[s].u[k],
                               static_cast<double>(k))
                        .ok());
      }
    }
    const auto dispatch = [&mgr] {
      while (mgr.queue_depth() > 0) mgr.run_batch();
    };
    std::thread a(dispatch);
    std::thread b(dispatch);
    a.join();
    b.join();
    mgr.drain();
    // Steps run at once: the pooled dispatch's workers plus the inline one.
    EXPECT_LE(mgr.workspace_count(), 2 * mgr.worker_count());
    for (std::size_t s = 0; s < kSessions; ++s) {
      ArmFilter pf(make_model(40 + s), config(s, checked));
      for (std::size_t k = 0; k < kSteps; ++k) pf.step(traffic[s].z[k], traffic[s].u[k]);
      const auto blob = mgr.checkpoint(ids[s]);
      ASSERT_TRUE(blob.has_value());
      EXPECT_EQ(*blob, serve::encode_checkpoint<float>(pf.export_state())) << "session " << s;
    }
  }
}

TEST(ServeStress, ConcurrentSubmitCheckpointEvict) {
  serve::ServeConfig scfg;
  scfg.workers = 2;
  scfg.max_queue = 64;
  scfg.max_pending_per_session = 4;
  Manager mgr(scfg);
  const Traffic traffic(12, 8);

  constexpr std::size_t kSessions = 4;
  std::vector<std::atomic<std::uint64_t>> ids(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto opened = mgr.open_session(make_model(12), small_config(700 + s));
    ASSERT_TRUE(opened.ok());
    ids[s].store(opened.id);
  }

  std::atomic<bool> stop{false};
  std::thread batcher([&] {
    while (!stop.load()) mgr.run_batch();
  });
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < 2; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < 300; ++i) {
        const std::size_t s = (i + t) % kSessions;
        const std::size_t k = i % traffic.z.size();
        (void)mgr.submit(ids[s].load(), traffic.z[k], traffic.u[k],
                         static_cast<double>(i));
      }
    });
  }
  std::thread chaos([&] {
    for (std::size_t i = 0; i < 50; ++i) {
      (void)mgr.checkpoint(ids[0].load());
      const auto blob = mgr.evict(ids[1].load());
      if (blob.has_value()) {
        const auto restored =
            mgr.restore_session(make_model(12), small_config(701), *blob);
        ASSERT_TRUE(restored.ok());
        ids[1].store(restored.id);
      }
    }
  });
  for (auto& t : submitters) t.join();
  chaos.join();
  stop.store(true);
  batcher.join();
  mgr.drain();

  EXPECT_EQ(mgr.queue_depth(), 0u);
  EXPECT_EQ(mgr.session_count(), kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_TRUE(mgr.estimate(ids[s].load()).has_value());
  }
}

// Regression for the wait-idle use-after-free: several threads wait out
// the SAME busy session (close racing evict racing estimate on one id).
// The first waiter to wake erases the map entry, so the others must
// re-look-up the session instead of re-reading a cached reference --
// exactly one eraser may win, and the ASan/TSan CI jobs verify nobody
// touches the freed SessionState.
TEST(ServeStress, ConcurrentClosersOnOneBusySession) {
  const Traffic traffic(14, 1);
  for (int round = 0; round < 20; ++round) {
    serve::ServeConfig scfg;
    scfg.workers = 1;
    Manager mgr(scfg);
    core::FilterConfig fcfg = small_config(900 + static_cast<std::uint64_t>(round));
    fcfg.particles_per_filter = 256;  // widen the in-flight window
    const auto opened = mgr.open_session(make_model(14), fcfg);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(mgr.submit(opened.id, traffic.z[0], traffic.u[0]).ok());

    std::atomic<int> erased{0};
    std::thread batcher([&] { mgr.run_batch(); });
    std::thread closer([&] {
      if (mgr.close_session(opened.id)) erased.fetch_add(1);
    });
    std::thread evictor([&] {
      if (mgr.evict(opened.id).has_value()) erased.fetch_add(1);
    });
    std::thread observer([&] { (void)mgr.estimate(opened.id); });
    batcher.join();
    closer.join();
    evictor.join();
    observer.join();

    EXPECT_EQ(erased.load(), 1) << "round " << round;
    EXPECT_EQ(mgr.session_count(), 0u) << "round " << round;
  }
}

}  // namespace
