// SessionManager: the multi-tenant serving runtime over
// DistributedParticleFilter (see serve.hpp for the subsystem overview).
//
// Request lifecycle (docs/ARCHITECTURE.md has the full diagram):
//
//   submit(id, z, u, deadline)
//     -> admission control: draining? session known? global queue below
//        max_queue? session backlog below max_pending_per_session?
//     -> rejected: SubmitResult carries the structured Admission reason
//     -> admitted: request enqueued FIFO on its session, ticket returned
//   run_batch()
//     -> selects <= max_batch sessions with pending work, earliest
//        deadline first (ties: higher-cost session first, then session id)
//     -> dispatches the batch over the shared ThreadPool; each entry steps
//        its session's filter exactly once, inline on one worker
//     -> completion: per-request latency into serve.request.latency,
//        batch size into serve.batch.size, sessions released
//   checkpoint/evict(id)
//     -> waits for the session to leave any in-flight batch, serializes
//        particle store + RNG stream + step index to a versioned blob
//   restore_session(model, config, blob)
//     -> decodes + validates the blob against the model and config, then
//        opens a session whose filter is built straight from the snapshot
//        and continues the source trajectory bit-identically
//   drain()
//     -> stops admission (kDraining) and runs batches until empty
//
// Thread-safety: every public method may be called concurrently; internal
// state is guarded by one mutex, and filter stepping happens outside the
// lock with the session pinned by a busy flag. Stepping is the only
// mutation done off-lock, so checkpoint/estimate/close wait on the busy
// flag instead of racing the step.
//
// Memory: a session holds only its filter's persistent state, about its
// checkpoint blob. A step (and the prior draw of open_session) borrows its
// round scratch from the manager's core::WorkspacePool, so a manager needs
// as many workspaces as steps run at once -- at most worker_count() per
// dispatching thread -- however many sessions are open.
//
// A session's own FilterConfig::telemetry/monitor (if any) is exercised
// from scheduler worker threads. Counters and gauges are atomic, but
// stage histograms are single-writer, so share one Telemetry instance
// across sessions only with a single-worker manager; otherwise give each
// session its own instance (or none).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/distributed_pf.hpp"
#include "core/step_workspace.hpp"
#include "device/device.hpp"
#include "mcore/thread_pool.hpp"
#include "monitor/monitor.hpp"
#include "serve/checkpoint.hpp"
#include "serve/serve.hpp"
#include "telemetry/context.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/json.hpp"
#include "telemetry/openmetrics.hpp"
#include "telemetry/telemetry.hpp"

namespace esthera::serve {

template <typename Model>
  requires models::SystemModel<Model>
class SessionManager {
 public:
  using T = typename Model::Scalar;
  using Filter = core::DistributedParticleFilter<Model>;
  using SessionId = std::uint64_t;
  using Clock = std::chrono::steady_clock;

  /// No deadline: schedulable last, after every deadlined request.
  static constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

  struct OpenResult {
    Admission admission = Admission::kAccepted;
    SessionId id = 0;
    [[nodiscard]] bool ok() const { return admission == Admission::kAccepted; }
  };

  struct SubmitResult {
    Admission admission = Admission::kAccepted;
    std::uint64_t ticket = 0;
    /// The request's minted trace identity (inert when rejected or when
    /// ServeConfig::trace_requests is off). Lets callers log their own
    /// trace id and lets tests predict exemplar retention.
    telemetry::TraceContext trace;
    [[nodiscard]] bool ok() const { return admission == Admission::kAccepted; }
  };

  struct BatchStats {
    std::size_t dispatched = 0;    ///< requests executed by this call
    std::size_t queued_after = 0;  ///< queue depth after the batch
    /// Tickets in dispatch (EDF) order; exposes the scheduling decision
    /// for tests and debugging.
    std::vector<std::uint64_t> tickets;
  };

  explicit SessionManager(ServeConfig cfg)
      : cfg_(cfg),
        pool_(cfg.workers == 0 ? mcore::ThreadPool::default_worker_count()
                               : cfg.workers),
        // One shared emulated device for every session, with an inline
        // (single-worker) pool: session steps parallelize across sessions
        // via pool_, never inside one session. This is what makes each
        // session's trajectory independent of the manager's worker count.
        device_(std::make_shared<device::Device>(1)),
        flight_(cfg.flight_events_per_thread) {
    cfg_.validate();
    // Flight-recorder code table: every code recorded on the hot path is
    // a string literal; registering the addresses here lets dumps resolve
    // them without the recorder ever storing strings.
    for (const char* code :
         {"request", "queue_wait", "batch", "step", "prng",
          "sampling+weighting", "local sort", "global estimate", "exchange",
          "resampling"}) {
      flight_.register_code(code);
    }
    for (int a = 0; a < kAdmissionReasonCount; ++a) {
      flight_.register_code(to_string(static_cast<Admission>(a)));
    }
    for (const char* d :
         {"ess_collapse", "parent_starvation", "entropy_floor",
          "nonfinite_weights", "exchange_anomaly", "metropolis_bias",
          "monitor"}) {
      flight_.register_code(d);
    }
    if (cfg_.monitor != nullptr) {
      // Monitor hook: every emitted detector event lands in the flight
      // ring and (when configured) triggers the automatic ring dump.
      // Called from observing threads with the monitor's lock held; the
      // hook touches only the lock-free recorder and the dump mutex.
      cfg_.monitor->set_event_callback(
          [this](const monitor::Event& e) { on_monitor_event(e); });
    }
    if (cfg_.telemetry != nullptr) {
      auto& reg = cfg_.telemetry->registry;
      cnt_accepted_ = &reg.counter("serve.requests.accepted");
      cnt_completed_ = &reg.counter("serve.requests.completed");
      cnt_rejected_[static_cast<int>(Admission::kQueueFull)] =
          &reg.counter("serve.rejected.queue_full");
      cnt_rejected_[static_cast<int>(Admission::kSessionBacklog)] =
          &reg.counter("serve.rejected.session_backlog");
      cnt_rejected_[static_cast<int>(Admission::kUnknownSession)] =
          &reg.counter("serve.rejected.unknown_session");
      cnt_rejected_[static_cast<int>(Admission::kDraining)] =
          &reg.counter("serve.rejected.draining");
      cnt_rejected_[static_cast<int>(Admission::kSessionLimit)] =
          &reg.counter("serve.rejected.session_limit");
      cnt_batches_ = &reg.counter("serve.batches");
      cnt_opened_ = &reg.counter("serve.sessions.opened");
      cnt_closed_ = &reg.counter("serve.sessions.closed");
      cnt_evicted_ = &reg.counter("serve.sessions.evicted");
      cnt_restored_ = &reg.counter("serve.sessions.restored");
      cnt_checkpoints_ = &reg.counter("serve.checkpoints");
      gauge_queue_ = &reg.gauge("serve.queue.depth");
      gauge_sessions_ = &reg.gauge("serve.sessions.open");
      gauge_ckpt_bytes_ = &reg.gauge("serve.checkpoint.bytes");
      hist_latency_ = &reg.histogram("serve.request.latency");
      hist_batch_ = &reg.histogram("serve.batch.size");
      // Introspection gauges (notes-only in the regression gate: gauges
      // are never diffed, so these add no baseline churn).
      gauge_dropped_spans_ = &reg.gauge("trace.dropped_spans");
      gauge_flight_occupancy_ = &reg.gauge("flight.occupancy");
      gauge_flight_overwritten_ = &reg.gauge("flight.overwritten");
      // Hardware-counter attribution for request batches: one "serve.batch"
      // accumulator fed by a profile::Scope around each batch dispatch.
      // The pool captures the scope, so the steps each worker executes
      // accrue their hardware deltas here alongside the batch-size and
      // latency histograms.
      auto& prof = cfg_.telemetry->profile;
      reg.gauge("profile.mode").set(static_cast<double>(prof.mode()));
      reg.gauge("profile.unavailable")
          .set(prof.unavailable_reason().empty() ? 0.0 : 1.0);
      if (prof.enabled()) {
        prof_ = &prof;
        batch_accum_ = &prof.accumulator("serve.batch");
        gauge_batch_ipc_ = &reg.gauge("profile.serve.batch.ipc");
        gauge_batch_cpu_ns_ =
            &reg.gauge("profile.serve.batch.cpu_ns_per_request");
      }
    }
  }

  ~SessionManager() {
    // The monitor outlives the manager but the installed callback
    // captures `this`; detach it before any member is torn down.
    if (cfg_.monitor != nullptr) cfg_.monitor->set_event_callback({});
  }
  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  [[nodiscard]] const ServeConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t worker_count() const { return pool_.worker_count(); }

  /// Step workspaces created so far: the peak number of steps (and session
  /// opens) that ran at once, not the number of sessions.
  [[nodiscard]] std::size_t workspace_count() const { return workspaces_.created(); }

  /// Opens a session running `model` under `fcfg` (per-session seed, shape,
  /// telemetry, monitor all come from `fcfg`). The filter runs on the
  /// manager's shared single-worker device regardless of `fcfg.workers`,
  /// and draws its prior in a workspace borrowed from the manager's pool.
  /// `tenant` is a free-form owner tag propagated into trace spans,
  /// flight events, and statusz (0 = untagged).
  [[nodiscard]] OpenResult open_session(Model model, core::FilterConfig fcfg,
                                        std::uint64_t tenant = 0) {
    std::unique_lock lock(mutex_);
    if (const Admission a = admit_session_locked(); a != Admission::kAccepted) {
      return {note_reject(a), 0};
    }
    const auto ws = workspaces_.borrow();  // the prior draw's variates
    return insert_session_locked(
        std::make_unique<Filter>(std::move(model), fcfg, device_, *ws), fcfg,
        cnt_opened_, tenant);
  }

  /// Opens a session continuing the trajectory serialized in `blob`
  /// (produced by checkpoint()/evict()). `model` and `fcfg` must match the
  /// source session: a corrupt blob, or a valid one whose scalar width,
  /// shape (m, N, state_dim) or PRNG core differs from `model` and `fcfg`,
  /// throws CheckpointError (an invalid `fcfg` still throws
  /// std::invalid_argument). The restored session's next step is
  /// bit-identical to the step the source session would have taken.
  [[nodiscard]] OpenResult restore_session(Model model, core::FilterConfig fcfg,
                                           std::span<const std::uint8_t> blob,
                                           std::uint64_t tenant = 0) {
    const core::FilterState<T> state = decode_checkpoint<T>(blob);
    if (state.particles_per_filter != fcfg.particles_per_filter ||
        state.num_filters != fcfg.num_filters ||
        state.state_dim != model.state_dim() ||
        state.rng.generator != fcfg.generator) {
      const auto shape = [](std::uint64_t m, std::uint64_t n, std::uint64_t dim,
                            prng::Generator g) {
        return "(m=" + std::to_string(m) + ", N=" + std::to_string(n) +
               ", dim=" + std::to_string(dim) +
               (g == prng::Generator::kMtgp ? ", MTGP)" : ", Philox)");
      };
      throw CheckpointError(
          "checkpoint " +
          shape(state.particles_per_filter, state.num_filters, state.state_dim,
                state.rng.generator) +
          " does not match the session " +
          shape(fcfg.particles_per_filter, fcfg.num_filters, model.state_dim(),
                fcfg.generator));
    }
    std::unique_lock lock(mutex_);
    if (const Admission a = admit_session_locked(); a != Admission::kAccepted) {
      return {note_reject(a), 0};
    }
    return insert_session_locked(
        std::make_unique<Filter>(std::move(model), fcfg, device_, state), fcfg,
        cnt_restored_, tenant);
  }

  /// Closes a session, dropping any requests still queued on it. Returns
  /// false when the id is unknown. Blocks while the session is in flight.
  bool close_session(SessionId id) {
    std::unique_lock lock(mutex_);
    auto it = wait_idle_locked(lock, id);
    if (it == sessions_.end()) return false;
    queue_size_ -= it->second.pending.size();
    sessions_.erase(it);
    if (cnt_closed_) cnt_closed_->add(1);
    publish_gauges_locked();
    return true;
  }

  /// Serializes a session to a versioned checkpoint blob (the session
  /// stays open). std::nullopt when the id is unknown. Blocks while the
  /// session is in flight so the snapshot is step-boundary consistent.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> checkpoint(SessionId id) {
    std::unique_lock lock(mutex_);
    auto it = wait_idle_locked(lock, id);
    if (it == sessions_.end()) return std::nullopt;
    auto blob = encode_checkpoint<T>(it->second.filter->export_state());
    if (cnt_checkpoints_) cnt_checkpoints_->add(1);
    if (gauge_ckpt_bytes_) gauge_ckpt_bytes_->set(static_cast<double>(blob.size()));
    return blob;
  }

  /// checkpoint() + close_session(): serializes the session and removes it
  /// (idle-session eviction). Queued requests on the session are dropped --
  /// evict idle sessions. std::nullopt when the id is unknown.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> evict(SessionId id) {
    std::unique_lock lock(mutex_);
    auto it = wait_idle_locked(lock, id);
    if (it == sessions_.end()) return std::nullopt;
    auto blob = encode_checkpoint<T>(it->second.filter->export_state());
    if (cnt_checkpoints_) cnt_checkpoints_->add(1);
    if (gauge_ckpt_bytes_) gauge_ckpt_bytes_->set(static_cast<double>(blob.size()));
    queue_size_ -= it->second.pending.size();
    sessions_.erase(it);
    if (cnt_evicted_) cnt_evicted_->add(1);
    publish_gauges_locked();
    return blob;
  }

  /// Admits one observe(z, u) request for session `id`. `deadline` is any
  /// monotone urgency value (smaller = sooner; e.g. seconds since start);
  /// kNoDeadline schedules after all deadlined work (NaN is normalized to
  /// kNoDeadline). On rejection the
  /// structured reason comes back in SubmitResult -- the call never blocks
  /// and never drops silently.
  [[nodiscard]] SubmitResult submit(SessionId id, std::span<const T> z,
                                    std::span<const T> u = {},
                                    double deadline = kNoDeadline) {
    // A NaN deadline would break the strict weak ordering of the EDF sort
    // comparator (UB in std::sort); treat it as "no deadline".
    if (std::isnan(deadline)) deadline = kNoDeadline;
    std::unique_lock lock(mutex_);
    if (draining_) return rejected(Admission::kDraining);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return rejected(Admission::kUnknownSession);
    if (queue_size_ >= cfg_.max_queue) return rejected(Admission::kQueueFull);
    if (it->second.pending.size() >= cfg_.max_pending_per_session) {
      return rejected(Admission::kSessionBacklog);
    }
    Request req;
    req.ticket = next_ticket_++;
    req.deadline = deadline;
    req.z.assign(z.begin(), z.end());
    req.u.assign(u.begin(), u.end());
    req.enqueued = Clock::now();
    if (cfg_.trace_requests) {
      // Mint the request's trace identity: deterministic in (trace_seed,
      // ticket), so a replayed workload traces identically and tests can
      // predict exemplar trace ids.
      req.ctx = telemetry::TraceContext::mint(cfg_.trace_seed, req.ticket);
      req.ctx.session = id;
      req.ctx.tenant = it->second.tenant;
      req.ctx.track = static_cast<std::uint32_t>(id);
      req.ctx.flight = &flight_;
    }
    flight_.record(telemetry::FlightEventKind::kAdmission,
                   to_string(Admission::kAccepted), req.ctx.trace_id, id,
                   req.ticket);
    it->second.pending.push_back(std::move(req));
    ++queue_size_;
    if (cnt_accepted_) cnt_accepted_->add(1);
    publish_gauges_locked();
    const Request& queued = it->second.pending.back();
    return {Admission::kAccepted, queued.ticket, queued.ctx};
  }

  /// Dispatches one batch: up to max_batch pending requests (at most one
  /// per session, sessions' requests stay FIFO), earliest deadline first,
  /// ties broken by descending session cost then ascending session id, all
  /// stepped concurrently over the shared pool. Returns what was
  /// dispatched. Safe to call from several threads; a session never
  /// appears in two batches at once.
  BatchStats run_batch() {
    struct Entry {
      SessionState* session = nullptr;
      Request req;
      /// The request's batch-residency span context; the filter's round
      /// span parents under it, completing the request -> queue_wait /
      /// batch -> step -> kernels tree.
      telemetry::TraceContext bctx;
    };
    std::vector<Entry> batch;
    BatchStats stats;
    std::uint64_t batch_seq = 0;
    {
      std::unique_lock lock(mutex_);
      std::vector<SessionState*> ready;
      ready.reserve(sessions_.size());
      for (auto& [id, s] : sessions_) {
        if (!s.busy && !s.pending.empty()) ready.push_back(&s);
      }
      std::sort(ready.begin(), ready.end(),
                [](const SessionState* a, const SessionState* b) {
                  const double da = a->pending.front().deadline;
                  const double db = b->pending.front().deadline;
                  if (da != db) return da < db;
                  if (a->cost != b->cost) return a->cost > b->cost;
                  return a->id < b->id;
                });
      if (ready.size() > cfg_.max_batch) ready.resize(cfg_.max_batch);
      batch.reserve(ready.size());
      for (SessionState* s : ready) {
        s->busy = true;
        batch.push_back({s, std::move(s->pending.front()), {}});
        s->pending.pop_front();
        --queue_size_;
        stats.tickets.push_back(batch.back().req.ticket);
      }
      stats.dispatched = batch.size();
      stats.queued_after = queue_size_;
      if (!batch.empty()) {
        batch_seq = next_batch_++;
        ++in_flight_batches_;
      }
      publish_gauges_locked();
    }
    if (batch.empty()) return stats;
    const auto t_dispatch = Clock::now();
    telemetry::TraceRecorder* trace =
        cfg_.telemetry != nullptr ? &cfg_.telemetry->trace : nullptr;
    if (trace != nullptr) {
      for (Entry& e : batch) {
        if (!e.req.ctx) continue;
        // queue_wait: admission to batch selection, parented to the
        // request span (recorded at completion below).
        telemetry::TraceSpan qs;
        qs.name = "queue_wait";
        qs.ts_us = trace->us_since_epoch(e.req.enqueued);
        qs.dur_us = std::chrono::duration<double, std::micro>(
                        t_dispatch - e.req.enqueued)
                        .count();
        qs.track = e.req.ctx.track;
        qs.trace_id = e.req.ctx.trace_id;
        qs.span_id = telemetry::TraceContext::derive_span(e.req.ctx.span_id,
                                                          "queue_wait");
        qs.parent_span_id = e.req.ctx.span_id;
        qs.session = e.req.ctx.session;
        qs.tenant = e.req.ctx.tenant;
        trace->record_span(std::move(qs));
      }
    }
    flight_.record(telemetry::FlightEventKind::kSpanBegin, "batch", 0,
                   batch_seq, batch.size());
    {
      // Batch-level profiling scope: the pool captures it at dispatch, so
      // every worker's share of the batch accrues into "serve.batch".
      // Session filters with their own profilers nest stage scopes inside
      // and restore this share on exit.
      profile::Scope prof_scope(prof_, batch_accum_);
      pool_.run(batch.size(), [&](std::size_t i, std::size_t /*worker*/) {
        Entry& e = batch[i];
        const auto ws = workspaces_.borrow();
        if (e.req.ctx) {
          e.bctx = e.req.ctx.child("batch", batch_seq);
          e.session->filter->step(*ws, e.req.z, e.req.u, &e.bctx);
        } else {
          e.session->filter->step(*ws, e.req.z, e.req.u);
        }
      });
    }
    flight_.record(telemetry::FlightEventKind::kSpanEnd, "batch", 0,
                   batch_seq, batch.size());
    {
      std::unique_lock lock(mutex_);
      const auto now = Clock::now();
      for (Entry& e : batch) {
        e.session->busy = false;
        ++e.session->completed;
        if (e.session->work_cmpex != nullptr) {
          const std::uint64_t total = e.session->work_cmpex->value() +
                                      e.session->work_rng->value() -
                                      e.session->work_base;
          e.session->cost = total / e.session->completed;
        }
        // One latency value feeds the histogram sample, its exemplar, and
        // the request span's duration, so an exemplar's trace resolves to
        // a request span with the bit-identical duration.
        const double lat_us =
            std::chrono::duration<double, std::micro>(now - e.req.enqueued)
                .count();
        if (hist_latency_) {
          hist_latency_->record(lat_us * 1e-6, e.req.ctx.trace_id);
        }
        if (trace != nullptr && e.req.ctx) {
          telemetry::TraceSpan bs;  // batch residency: selection -> done
          bs.name = "batch";
          bs.ts_us = trace->us_since_epoch(t_dispatch);
          bs.dur_us =
              std::chrono::duration<double, std::micro>(now - t_dispatch)
                  .count();
          bs.step = batch_seq;
          bs.track = e.req.ctx.track;
          bs.trace_id = e.req.ctx.trace_id;
          bs.span_id = e.bctx.span_id;
          bs.parent_span_id = e.req.ctx.span_id;
          bs.session = e.req.ctx.session;
          bs.tenant = e.req.ctx.tenant;
          trace->record_span(std::move(bs));
          telemetry::TraceSpan rs;  // request root: admission -> done
          rs.name = "request";
          rs.ts_us = trace->us_since_epoch(e.req.enqueued);
          rs.dur_us = lat_us;
          rs.step = e.req.ticket;
          rs.track = e.req.ctx.track;
          rs.trace_id = e.req.ctx.trace_id;
          rs.span_id = e.req.ctx.span_id;
          rs.parent_span_id = 0;
          rs.session = e.req.ctx.session;
          rs.tenant = e.req.ctx.tenant;
          rs.deadline = e.req.deadline;
          trace->record_span(std::move(rs));
        }
      }
      if (cnt_completed_) cnt_completed_->add(batch.size());
      if (cnt_batches_) cnt_batches_->add(1);
      if (hist_batch_) hist_batch_->record(static_cast<double>(batch.size()));
      if (batch_accum_ != nullptr && cnt_completed_ != nullptr) {
        // Derived batch-profile gauges from the lifetime sums; per-request
        // normalization uses the completed-request counter updated above.
        const auto sums = batch_accum_->sums();
        const auto done = static_cast<double>(cnt_completed_->value());
        if (done > 0.0) gauge_batch_cpu_ns_->set(sums.task_clock_ns / done);
        if (sums.hardware_samples > 0) gauge_batch_ipc_->set(sums.ipc());
      }
      stats.queued_after = queue_size_;
      --in_flight_batches_;
      publish_gauges_locked();
      idle_cv_.notify_all();
    }
    return stats;
  }

  /// Graceful shutdown: stops admitting (submits reject with kDraining)
  /// and runs batches until every already-admitted request has executed.
  void drain() {
    {
      std::unique_lock lock(mutex_);
      draining_ = true;
    }
    for (;;) {
      const BatchStats stats = run_batch();
      std::unique_lock lock(mutex_);
      if (queue_size_ == 0) return;
      if (stats.dispatched == 0) {
        // Every pending request sits on a session busy in another
        // thread's in-flight batch: sleep until a batch completes
        // (idle_cv_ is notified then) instead of spinning. The timeout
        // bounds the wait in case the notify races this wait.
        idle_cv_.wait_for(lock, std::chrono::milliseconds(1));
      }
    }
  }

  [[nodiscard]] bool draining() const {
    std::unique_lock lock(mutex_);
    return draining_;
  }

  [[nodiscard]] std::size_t queue_depth() const {
    std::unique_lock lock(mutex_);
    return queue_size_;
  }

  [[nodiscard]] std::size_t session_count() const {
    std::unique_lock lock(mutex_);
    return sessions_.size();
  }

  /// Pending requests queued on one session; nullopt for unknown ids.
  [[nodiscard]] std::optional<std::size_t> pending(SessionId id) const {
    std::unique_lock lock(mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return std::nullopt;
    return it->second.pending.size();
  }

  /// Copy of the session's current estimate (waits out an in-flight step);
  /// nullopt for unknown ids.
  [[nodiscard]] std::optional<std::vector<T>> estimate(SessionId id) {
    std::unique_lock lock(mutex_);
    auto it = wait_idle_locked(lock, id);
    if (it == sessions_.end()) return std::nullopt;
    const auto est = it->second.filter->estimate();
    return std::vector<T>(est.begin(), est.end());
  }

  /// Completed filtering rounds of the session; nullopt for unknown ids.
  [[nodiscard]] std::optional<std::uint64_t> step_index(SessionId id) {
    std::unique_lock lock(mutex_);
    auto it = wait_idle_locked(lock, id);
    if (it == sessions_.end()) return std::nullopt;
    return it->second.filter->step_index();
  }

  /// The always-on flight recorder (read-side: occupancy, events, dumps).
  [[nodiscard]] const telemetry::FlightRecorder& flight() const {
    return flight_;
  }

  /// Dumps the flight ring as `esthera.flight/1` JSONL (on-demand path;
  /// the automatic path fires on monitor events, see ServeConfig).
  void dump_flight(std::ostream& os) const { flight_.dump_jsonl(os); }

  /// Copy of the manager's request-latency histogram, taken under the
  /// manager mutex so the buckets are consistent with batch completion
  /// (histograms are single-writer; an unlocked cross-thread read would
  /// race). Empty when the manager has no telemetry. This is what a
  /// ServeCluster merges into its cluster-wide latency view.
  [[nodiscard]] telemetry::LatencyHistogram latency_snapshot() const {
    std::unique_lock lock(mutex_);
    return hist_latency_ != nullptr ? *hist_latency_
                                    : telemetry::LatencyHistogram{};
  }

  /// Runs `fn` with the manager mutex held, excluding in-flight batch
  /// completions -- lets an owning ServeCluster read this manager's
  /// single-writer telemetry (histograms) race-free while aggregating
  /// cross-shard exposition documents.
  template <typename Fn>
  void with_export_lock(Fn&& fn) const {
    std::unique_lock lock(mutex_);
    fn();
  }

  /// Live introspection: one `esthera.statusz/1` JSON document with
  /// per-session state, queue depths, in-flight batches, latency
  /// quantiles, trace/flight occupancy, and recent monitor events.
  /// Non-blocking with respect to in-flight steps: busy sessions are
  /// reported from manager-owned state only (never reads a busy filter).
  void write_statusz(std::ostream& os) const {
    std::unique_lock lock(mutex_);
    telemetry::json::JsonWriter w(os);
    w.begin_object();
    w.kv("schema", "esthera.statusz/1");
    w.kv("draining", draining_);
    w.kv("workers", static_cast<std::uint64_t>(pool_.worker_count()));
    w.kv("queue_depth", static_cast<std::uint64_t>(queue_size_));
    w.kv("sessions_open", static_cast<std::uint64_t>(sessions_.size()));
    w.kv("batches_in_flight", static_cast<std::uint64_t>(in_flight_batches_));
    w.key("sessions");
    w.begin_array();
    for (const auto& [id, s] : sessions_) {
      w.begin_object();
      w.kv("id", static_cast<std::uint64_t>(id));
      w.kv("tenant", s.tenant);
      w.kv("pending", static_cast<std::uint64_t>(s.pending.size()));
      w.kv("busy", s.busy);
      w.kv("completed", s.completed);
      w.kv("cost", s.cost);
      w.end_object();
    }
    w.end_array();
    if (hist_latency_ != nullptr) {
      // Histogram writes happen under this same mutex, so quantile reads
      // here are consistent.
      w.key("latency");
      w.begin_object();
      w.kv("count", hist_latency_->count());
      w.kv("p50", hist_latency_->quantile(0.50));
      w.kv("p95", hist_latency_->quantile(0.95));
      w.kv("p99", hist_latency_->quantile(0.99));
      w.end_object();
    }
    if (cnt_accepted_ != nullptr) {
      w.key("requests");
      w.begin_object();
      w.kv("accepted", cnt_accepted_->value());
      w.kv("completed", cnt_completed_->value());
      std::uint64_t rejected = 0;
      for (const telemetry::Counter* c : cnt_rejected_) {
        if (c != nullptr) rejected += c->value();
      }
      w.kv("rejected", rejected);
      w.end_object();
    }
    if (cfg_.telemetry != nullptr) {
      w.key("trace");
      w.begin_object();
      w.kv("spans",
           static_cast<std::uint64_t>(cfg_.telemetry->trace.span_count()));
      w.kv("dropped_spans", cfg_.telemetry->trace.dropped_spans());
      w.end_object();
      // Profiler identity + batch attribution: the mode is fixed at
      // telemetry construction, and a non-empty unavailable reason is the
      // structured signal that a hardware request degraded to software.
      const auto& prof = cfg_.telemetry->profile;
      w.key("profile");
      w.begin_object();
      w.kv("mode", profile::to_string(prof.mode()));
      if (!prof.unavailable_reason().empty()) {
        w.kv("unavailable", prof.unavailable_reason());
      }
      if (batch_accum_ != nullptr) {
        const auto sums = batch_accum_->sums();
        w.kv("batch_samples", sums.samples);
        w.kv("batch_cpu_ns", sums.task_clock_ns);
        if (sums.hardware_samples > 0) {
          w.kv("batch_ipc", sums.ipc());
          w.kv("batch_cycles", sums.cycles);
          w.kv("batch_cache_misses", sums.cache_misses);
        }
      }
      w.end_object();
    }
    w.key("flight");
    w.begin_object();
    w.kv("occupancy", static_cast<std::uint64_t>(flight_.occupancy()));
    w.kv("capacity", static_cast<std::uint64_t>(flight_.capacity()));
    w.kv("total", flight_.total_recorded());
    w.kv("overwritten", flight_.overwritten());
    w.kv("dropped_threads", flight_.dropped_threads());
    w.end_object();
    if (cfg_.monitor != nullptr) {
      // Lock order: manager mutex -> monitor mutex (the reverse path, the
      // monitor callback, touches only the lock-free flight recorder and
      // the dump mutex -- never the manager mutex -- so no cycle).
      w.key("monitor");
      w.begin_object();
      w.kv("events",
           static_cast<std::uint64_t>(cfg_.monitor->event_count()));
      w.kv("suppressed",
           static_cast<std::uint64_t>(cfg_.monitor->suppressed_count()));
      const auto events = cfg_.monitor->events();
      const std::size_t first = events.size() > 8 ? events.size() - 8 : 0;
      w.key("recent");
      w.begin_array();
      for (std::size_t i = first; i < events.size(); ++i) {
        const monitor::Event& e = events[i];
        w.begin_object();
        w.kv("detector", e.detector);
        w.kv("severity", monitor::to_string(e.severity));
        w.kv("step", static_cast<std::uint64_t>(e.step));
        if (e.group != monitor::HealthMonitor::kNoGroup) {
          w.kv("group", e.group);
        }
        w.kv("value", e.value);
        w.kv("threshold", e.threshold);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_object();
    os << '\n';
  }

  /// OpenMetrics text exposition of the manager's registry (counters,
  /// gauges, histograms with le buckets + exemplars) plus an
  /// esthera_profile info metric carrying the profiler mode and the
  /// structured unavailable reason. Scrape-ready: ends with "# EOF".
  /// Without telemetry the document is valid but empty.
  void write_openmetrics(std::ostream& os) const {
    telemetry::openmetrics::Writer w(os);
    if (cfg_.telemetry != nullptr) {
      // Histogram writes happen under this mutex, so bucket/count reads
      // here are consistent with each other.
      std::unique_lock lock(mutex_);
      const auto& prof = cfg_.telemetry->profile;
      w.info("profile", "hardware-counter profiler identity",
             {{"mode", profile::to_string(prof.mode())},
              {"unavailable", prof.unavailable_reason()}});
      telemetry::openmetrics::write_families(w, cfg_.telemetry->registry);
    }
    w.eof();
  }

 private:
  struct Request {
    std::uint64_t ticket = 0;
    double deadline = kNoDeadline;
    std::vector<T> z;
    std::vector<T> u;
    Clock::time_point enqueued;
    /// Minted trace identity (trace_id == 0 when tracing is off).
    telemetry::TraceContext ctx;
  };

  struct SessionState {
    SessionId id = 0;
    std::uint64_t tenant = 0;  ///< owner tag propagated into spans/statusz
    std::unique_ptr<Filter> filter;
    std::deque<Request> pending;
    bool busy = false;            ///< currently stepping inside a batch
    std::uint64_t completed = 0;  ///< requests executed
    std::uint64_t cost = 0;       ///< deterministic per-step work estimate
    /// Live work counters of the session's own telemetry (null without
    /// it); when present, `cost` tracks the measured per-step average of
    /// (compare-exchanges + RNG draws) since open instead of the static
    /// model. Both are machine-independent.
    const telemetry::Counter* work_cmpex = nullptr;
    const telemetry::Counter* work_rng = nullptr;
    std::uint64_t work_base = 0;  ///< counter sum when the session opened
  };

  [[nodiscard]] Admission admit_session_locked() const {
    if (draining_) return Admission::kDraining;
    if (sessions_.size() >= cfg_.max_sessions) return Admission::kSessionLimit;
    return Admission::kAccepted;
  }

  OpenResult insert_session_locked(std::unique_ptr<Filter> filter,
                                   const core::FilterConfig& fcfg,
                                   telemetry::Counter* opened_counter,
                                   std::uint64_t tenant) {
    SessionState s;
    s.id = next_session_++;
    s.tenant = tenant;
    s.cost = step_cost_model(fcfg, filter->model().state_dim());
    if (fcfg.telemetry != nullptr) {
      auto& reg = fcfg.telemetry->registry;
      s.work_cmpex = &reg.counter("work.compare_exchanges");
      s.work_rng = &reg.counter("work.rng_draws");
      s.work_base = s.work_cmpex->value() + s.work_rng->value();
    }
    s.filter = std::move(filter);
    const SessionId id = s.id;
    sessions_.emplace(id, std::move(s));
    if (opened_counter) opened_counter->add(1);
    publish_gauges_locked();
    return {Admission::kAccepted, id};
  }

  Admission note_reject(Admission why) {
    flight_.record(telemetry::FlightEventKind::kAdmission, to_string(why));
    if (telemetry::Counter* c = cnt_rejected_[static_cast<int>(why)]) c->add(1);
    return why;
  }

  SubmitResult rejected(Admission why) { return {note_reject(why), 0, {}}; }

  using SessionIter = typename std::map<SessionId, SessionState>::iterator;

  /// Waits until session `id` is idle and returns a fresh iterator to it,
  /// or sessions_.end() when the id is unknown or was erased while
  /// waiting. The session is re-looked-up after every wakeup: two threads
  /// may wait on the same busy session (e.g. close racing evict on one
  /// id), and the first waiter to wake can erase the map entry -- caching
  /// a reference or iterator across the wait would dangle.
  SessionIter wait_idle_locked(std::unique_lock<std::mutex>& lock,
                               SessionId id) {
    for (;;) {
      auto it = sessions_.find(id);
      if (it == sessions_.end() || !it->second.busy) return it;
      idle_cv_.wait(lock);
    }
  }

  void publish_gauges_locked() {
    if (gauge_queue_) gauge_queue_->set(static_cast<double>(queue_size_));
    if (gauge_sessions_) gauge_sessions_->set(static_cast<double>(sessions_.size()));
    if (gauge_dropped_spans_) {
      gauge_dropped_spans_->set(
          static_cast<double>(cfg_.telemetry->trace.dropped_spans()));
    }
    if (gauge_flight_occupancy_) {
      gauge_flight_occupancy_->set(static_cast<double>(flight_.occupancy()));
    }
    if (gauge_flight_overwritten_) {
      gauge_flight_overwritten_->set(static_cast<double>(flight_.overwritten()));
    }
  }

  /// Maps a detector name back to the registered string literal so the
  /// flight recorder stores a resolvable code address.
  [[nodiscard]] static const char* detector_code(const std::string& name) {
    for (const char* d :
         {"ess_collapse", "parent_starvation", "entropy_floor",
          "nonfinite_weights", "exchange_anomaly", "metropolis_bias"}) {
      if (name == d) return d;
    }
    return "monitor";
  }

  /// Monitor event hook: runs on the observing thread with the monitor's
  /// lock held. Must never take mutex_ (statusz holds mutex_ and then the
  /// monitor's lock); it touches only the lock-free flight recorder and
  /// the dedicated dump mutex.
  void on_monitor_event(const monitor::Event& e) {
    flight_.record(telemetry::FlightEventKind::kMonitor,
                   detector_code(e.detector), 0,
                   static_cast<std::uint64_t>(e.step),
                   static_cast<std::uint64_t>(e.group));
    if (!cfg_.flight_dump_path.empty()) dump_flight_to_path();
  }

  void dump_flight_to_path() const {
    std::lock_guard dump_lock(flight_dump_mutex_);
    std::ofstream os(cfg_.flight_dump_path, std::ios::trunc);
    if (os) flight_.dump_jsonl(os);
  }

  ServeConfig cfg_;
  mcore::ThreadPool pool_;
  std::shared_ptr<device::Device> device_;
  /// Round scratch lent to session steps (see the file comment).
  core::WorkspacePool<T> workspaces_;
  /// Always-on black box; declared after device_ to match the ctor init
  /// list, before anything that records into it.
  telemetry::FlightRecorder flight_;
  mutable std::mutex flight_dump_mutex_;  ///< serializes automatic dumps
  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  std::map<SessionId, SessionState> sessions_;
  std::size_t queue_size_ = 0;
  std::size_t in_flight_batches_ = 0;  ///< batches between dispatch and done
  bool draining_ = false;
  SessionId next_session_ = 1;
  std::uint64_t next_ticket_ = 1;
  std::uint64_t next_batch_ = 1;  ///< batch sequence (span step + child salt)
  // Cached serve.* metrics (null without telemetry).
  telemetry::Counter* cnt_accepted_ = nullptr;
  telemetry::Counter* cnt_completed_ = nullptr;
  telemetry::Counter* cnt_rejected_[kAdmissionReasonCount] = {};
  telemetry::Counter* cnt_batches_ = nullptr;
  telemetry::Counter* cnt_opened_ = nullptr;
  telemetry::Counter* cnt_closed_ = nullptr;
  telemetry::Counter* cnt_evicted_ = nullptr;
  telemetry::Counter* cnt_restored_ = nullptr;
  telemetry::Counter* cnt_checkpoints_ = nullptr;
  telemetry::Gauge* gauge_queue_ = nullptr;
  telemetry::Gauge* gauge_sessions_ = nullptr;
  telemetry::Gauge* gauge_ckpt_bytes_ = nullptr;
  telemetry::Gauge* gauge_dropped_spans_ = nullptr;
  telemetry::Gauge* gauge_flight_occupancy_ = nullptr;
  telemetry::Gauge* gauge_flight_overwritten_ = nullptr;
  telemetry::LatencyHistogram* hist_latency_ = nullptr;
  telemetry::LatencyHistogram* hist_batch_ = nullptr;
  // Batch-level hardware-counter attribution (null when telemetry is off
  // or ESTHERA_PROFILE=off).
  profile::Profiler* prof_ = nullptr;
  profile::StageAccum* batch_accum_ = nullptr;
  telemetry::Gauge* gauge_batch_ipc_ = nullptr;
  telemetry::Gauge* gauge_batch_cpu_ns_ = nullptr;
};

/// Background scheduler: calls run_batch() in a loop, sleeping for the
/// batch window after each pass so concurrent submits coalesce into one
/// batch. stop() (also run by the destructor) joins the thread and then
/// drains the manager -- admitted requests always execute; later submits
/// reject with kDraining.
template <typename Model>
class BatchLoop {
 public:
  BatchLoop(SessionManager<Model>& manager, std::chrono::microseconds window)
      : manager_(manager), window_(window), thread_([this] { loop(); }) {}

  ~BatchLoop() { stop(); }
  BatchLoop(const BatchLoop&) = delete;
  BatchLoop& operator=(const BatchLoop&) = delete;

  /// Idempotent: stops the scheduler thread and drains remaining work.
  void stop() {
    stopping_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    manager_.drain();
  }

 private:
  void loop() {
    while (!stopping_.load(std::memory_order_relaxed)) {
      manager_.run_batch();
      std::this_thread::sleep_for(window_);
    }
  }

  SessionManager<Model>& manager_;
  std::chrono::microseconds window_;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace esthera::serve
