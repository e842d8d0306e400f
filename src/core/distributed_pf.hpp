// The fully distributed particle filter (paper Algorithm 2, Sec. IV): a
// network of small sub-filters, each owned by one work group of the
// emulated many-core device. Every round runs six device kernels, each a
// global-barrier-separated launch exactly as in the paper (Sec. VI):
//
//   1. PRNG                  - per-group MTGP/Philox streams fill a buffer
//   2. sampling + weighting  - one lane per particle
//   3. local sort            - bitonic network on (weight, index) pairs
//   4. global estimate       - local reductions + final host rounds
//   5. particle exchange     - top-t per neighbour pair (Ring / 2D Torus)
//                              or pooled global top-t (All-to-All)
//   6. resampling            - local RWS or Vose per sub-filter
//
// Host <-> device traffic is limited to the measurement, the control input
// and the estimate, the property the paper calls essential for running
// millions of particles (Sec. VI).
//
// The filter holds only what persists between rounds (the paper's global
// memory): particles, PRNG streams, step index, estimate and diagnostics.
// A round's scratch comes from a StepWorkspace (core/step_workspace.hpp),
// the counterpart of work-group local memory. A standalone filter owns
// one; serve sessions borrow from a pool shared by the manager's workers.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/filter_state.hpp"
#include "core/particle_store.hpp"
#include "core/stage_probe.hpp"
#include "core/step_workspace.hpp"
#include "device/device.hpp"
#include "device/invariants.hpp"
#include "estimation/diagnostics.hpp"
#include "mcore/first_touch.hpp"
#include "models/model.hpp"
#include "monitor/monitor.hpp"
#include "prng/mtgp_stream.hpp"
#include "prng/philox.hpp"
#include "resample/ess.hpp"
#include "resample/metropolis.hpp"
#include "resample/rejection.hpp"
#include "resample/rws.hpp"
#include "resample/systematic.hpp"
#include "resample/vose.hpp"
#include "sortnet/bitonic.hpp"
#include "sortnet/scan.hpp"
#include "telemetry/telemetry.hpp"

namespace esthera::core {

/// Distributed (networked sub-filter) SIR particle filter over any
/// SystemModel, running on the emulated many-core device.
template <typename Model>
  requires models::SystemModel<Model>
class DistributedParticleFilter {
 public:
  using T = typename Model::Scalar;

  /// Owns its device, sized from `config.workers` (0 = auto).
  DistributedParticleFilter(Model model, FilterConfig config)
      : DistributedParticleFilter(std::move(model), config,
                                  std::make_unique<device::Device>(config.workers)) {}

  /// Runs on an externally provided device (shared across filters).
  DistributedParticleFilter(Model model, FilterConfig config,
                            std::shared_ptr<device::Device> dev)
      : DistributedParticleFilter(std::move(model), config,
                                  std::unique_ptr<device::Device>{}, std::move(dev)) {}

  /// Runs on an externally provided device and draws the prior with the
  /// borrowed `ws`. The filter owns no workspace until a step() without
  /// one needs it, so a caller that always steps with a borrowed workspace
  /// (serve's pooled sessions) keeps no round scratch per filter.
  DistributedParticleFilter(Model model, FilterConfig config,
                            std::shared_ptr<device::Device> dev, StepWorkspace<T>& ws)
      : DistributedParticleFilter(std::move(model), config,
                                  std::unique_ptr<device::Device>{}, std::move(dev),
                                  nullptr, &ws) {}

  /// Resumes `snapshot` (from export_state()) on an externally provided
  /// device: the same filter as constructing and then import_state(), but
  /// the PRNG stream is built straight from the snapshot, no prior is drawn
  /// and no workspace is needed until the first step(), so restoring costs
  /// about a copy of the state. Throws what import_state() throws on a
  /// shape or generator mismatch.
  DistributedParticleFilter(Model model, FilterConfig config,
                            std::shared_ptr<device::Device> dev,
                            const FilterState<T>& snapshot)
      : DistributedParticleFilter(std::move(model), config,
                                  std::unique_ptr<device::Device>{}, std::move(dev),
                                  &snapshot) {}

  [[nodiscard]] const FilterConfig& config() const { return cfg_; }
  [[nodiscard]] const Model& model() const { return model_; }
  /// Mutable model access for time-varying model state (e.g. observer
  /// positions); update before step().
  [[nodiscard]] Model& model_mutable() { return model_; }
  [[nodiscard]] std::size_t particle_count() const { return n_total_; }
  [[nodiscard]] std::size_t step_index() const { return step_; }
  [[nodiscard]] std::span<const T> estimate() const { return estimate_; }
  [[nodiscard]] StageTimers& timers() { return probe_.timers(); }
  [[nodiscard]] device::Device& dev() { return *dev_; }

  /// Local (per-sub-filter) estimate: the first particle of group g. After
  /// a full step() (which ends in resampling) it is one draw from the
  /// group's resampled population, not necessarily the group's best.
  [[nodiscard]] std::span<const T> local_estimate(std::size_t g) const {
    return cur_.state(g * m_);
  }

  /// Log-weight of the current global estimate (valid for the max-weight
  /// estimator after at least one step; used by the cluster layer to pick
  /// the best node-level estimate).
  [[nodiscard]] T estimate_log_weight() const { return estimate_lw_; }

  /// Injects an externally supplied particle (e.g. from another cluster
  /// node) into group `group`, replacing that group's last particle slot.
  /// Takes effect in the next round's sampling.
  void inject(std::span<const T> state, T log_weight, std::size_t group) {
    assert(state.size() == dim_ && group < n_filters_);
    auto dst = cur_.state(group * m_ + m_ - 1);
    std::copy(state.begin(), state.end(), dst.begin());
    cur_.log_weights()[group * m_ + m_ - 1] = log_weight;
  }

  /// Mean effective sample size across sub-filters, for diagnostics
  /// (computed during the last resampling stage).
  [[nodiscard]] double mean_ess() const {
    return n_filters_ ? ess_sum_ / static_cast<double>(n_filters_) : 0.0;
  }

  /// Mean fraction of distinct parents chosen by the last resampling round
  /// across sub-filters: 1.0 = no duplication, 1/m = full collapse onto a
  /// single ancestor. This is the particle-diversity signal behind the
  /// paper's All-to-All finding (Fig 6a). 0 before any resampling round.
  [[nodiscard]] double mean_unique_parent_fraction() const {
    return n_filters_ ? unique_sum_ / static_cast<double>(n_filters_) : 0.0;
  }

  /// Per-group ESS of the last resampling round (0 for degenerate groups).
  [[nodiscard]] std::span<const double> group_ess() const { return group_ess_; }

  /// Per-group unique-parent fraction of the last resampling round (1.0
  /// for groups that skipped resampling -- every particle kept its own
  /// ancestor).
  [[nodiscard]] std::span<const double> group_unique_parent_fraction() const {
    return group_unique_;
  }

  /// Re-draws the initial particle population from the model's prior,
  /// drawing its variates in the filter's own workspace.
  void initialize() { initialize(own_workspace()); }

  /// initialize() with the variates drawn in the borrowed `ws`.
  void initialize(StepWorkspace<T>& ws) {
    fit(ws);
    stream_.fill(dev_->pool(), ws.rand);
    const std::size_t ind = model_.init_noise_dim();
    dev_->launch(n_filters_, [&](std::size_t g) {
      const auto normals = ws.rand.group_normals(g);
      for (std::size_t p = 0; p < m_; ++p) {
        const std::size_t i = g * m_ + p;
        model_.sample_initial(cur_.state(i), normals.subspan(p * ind, ind));
        cur_.log_weights()[i] = T(0);
      }
    });
    step_ = 0;
    // A re-init must not carry diagnostics or timings from a previous run:
    // mean_ess(), mean_unique_parent_fraction(), estimate_log_weight() and
    // breakdown_string() all read 0 again until the next step().
    estimate_lw_ = T(0);
    reset_diagnostics();
    // Estimate before the first measurement: particle 0's state (all
    // particles are prior draws; there is no weight information yet).
    const auto s = cur_.state(0);
    estimate_.assign(s.begin(), s.end());
    if (checker_) {
      for (std::size_t g = 0; g < n_filters_; ++g) {
        debug::check_log_weights<T>(cur_.log_weights(g * m_, m_), "initialize", g);
      }
    }
  }

  /// Captures the filter's complete trajectory-determining state: particle
  /// states and log-weights, the per-group PRNG stream position, the step
  /// index, and the last published estimate. Const and purely observational
  /// (no RNG consumed, no state touched): stepping after an export is
  /// bit-identical to never having exported. See core/filter_state.hpp.
  [[nodiscard]] FilterState<T> export_state() const {
    FilterState<T> s;
    s.step = step_;
    s.particles_per_filter = m_;
    s.num_filters = n_filters_;
    s.state_dim = dim_;
    s.rng = stream_.save_state();
    const auto states = cur_.state_block(0, n_total_);
    s.state.assign(states.begin(), states.end());
    const auto lw = cur_.log_weights();
    s.log_weights.assign(lw.begin(), lw.end());
    s.estimate.assign(estimate_.begin(), estimate_.end());
    s.estimate_log_weight = estimate_lw_;
    return s;
  }

  /// Restores a snapshot from export_state() into this filter: the next
  /// step() produces bit-identical results to the filter the snapshot was
  /// taken from. The receiving filter must have the same shape (m, N,
  /// state_dim) and PRNG core; throws std::invalid_argument otherwise.
  /// Diagnostics (mean_ess() etc.) and stage timers reset, exactly as
  /// after initialize().
  void import_state(const FilterState<T>& s) {
    if (s.particles_per_filter != m_ || s.num_filters != n_filters_ ||
        s.state_dim != dim_) {
      throw std::invalid_argument(
          "import_state: snapshot shape (m=" +
          std::to_string(s.particles_per_filter) +
          ", N=" + std::to_string(s.num_filters) +
          ", dim=" + std::to_string(s.state_dim) + ") does not match filter (m=" +
          std::to_string(m_) + ", N=" + std::to_string(n_filters_) +
          ", dim=" + std::to_string(dim_) + ")");
    }
    if (s.state.size() != n_total_ * dim_ || s.log_weights.size() != n_total_ ||
        s.estimate.size() != dim_) {
      throw std::invalid_argument("import_state: snapshot array sizes do not "
                                  "match the declared shape");
    }
    stream_.restore_state(s.rng);  // validates group count + generator core
    std::copy(s.state.begin(), s.state.end(), cur_.state_block(0, n_total_).begin());
    std::copy(s.log_weights.begin(), s.log_weights.end(),
              cur_.log_weights().begin());
    estimate_.assign(s.estimate.begin(), s.estimate.end());
    estimate_lw_ = s.estimate_log_weight;
    step_ = static_cast<std::size_t>(s.step);
    // Per-round diagnostics belong to the snapshot's previous round, which
    // was not replayed here; reset them like initialize() does.
    reset_diagnostics();
  }

  /// One filtering round (Algorithm 2) on measurement `z`, control `u`,
  /// with the filter's own workspace (created on first use).
  /// `ctx`, when given, is the parent TraceContext the round span joins
  /// (serve passes the request's batch context so kernel spans parent
  /// under the request tree). Propagation is purely passive -- no RNG
  /// consumed, no state touched -- so estimates are bit-identical with
  /// and without a context (test-enforced, like telemetry attach).
  void step(std::span<const T> z, std::span<const T> u = {},
            const telemetry::TraceContext* ctx = nullptr) {
    step(own_workspace(), z, u, ctx);
  }

  /// One filtering round with the borrowed workspace `ws`. Which workspace
  /// a round uses never changes its results: a round writes every
  /// workspace element before reading it.
  void step(StepWorkspace<T>& ws, std::span<const T> z, std::span<const T> u = {},
            const telemetry::TraceContext* ctx = nullptr) {
    fit(ws);
    {
      // Round-level span: every kernel span of this step nests inside it.
      const auto round = probe_.round(step_, ctx);
      run_rand(ws);
      run_sampling(ws, z, u);
      run_local_sort(ws);
      run_global_estimate(ws);
      run_exchange(ws);
      run_resampling(ws);
    }
    if (probe_.attached()) record_step_telemetry();
    if (mon_) record_step_monitor();
    ++step_;
  }

 private:
  DistributedParticleFilter(Model model, FilterConfig config,
                            std::unique_ptr<device::Device> owned,
                            std::shared_ptr<device::Device> shared = nullptr,
                            const FilterState<T>* snapshot = nullptr,
                            StepWorkspace<T>* init_ws = nullptr)
      : model_(std::move(model)),
        cfg_(config),
        owned_dev_(std::move(owned)),
        shared_dev_(std::move(shared)),
        dev_(shared_dev_ ? shared_dev_.get() : owned_dev_.get()),
        m_(cfg_.particles_per_filter),
        n_filters_(cfg_.num_filters),
        n_total_(cfg_.total_particles()),
        dim_(model_.state_dim()),
        stream_(snapshot != nullptr
                    ? prng::MtgpStream(n_filters_, cfg_.seed, cfg_.generator,
                                       snapshot->rng)
                    : prng::MtgpStream(n_filters_, cfg_.seed, cfg_.generator)),
        cur_(n_total_, dim_),
        local_best_lw_(n_filters_),
        group_wsum_(n_filters_),
        group_wstate_(n_filters_ * dim_),
        estimate_(dim_, T(0)) {
    cfg_.validate();
    // Normals per group: enough for one transition (or initial) draw per
    // particle, plus one jitter vector per particle when roughening is on.
    // Uniforms per group: worst-case resampler demand (Vose: 2 per draw)
    // plus one policy coin.
    roughening_offset_ = m_ * std::max(model_.noise_dim(), model_.init_noise_dim());
    // Collective-free resamplers draw inline from counter-based per-(group,
    // step) Philox streams instead of the pre-filled buffer (their demand -
    // 2*B*m for Metropolis, unbounded for rejection - does not fit a sized
    // buffer; on the real device each lane owns a counter-based stream).
    // The chain seed is SplitMix64-decorrelated from the filter seed so the
    // inline streams never collide with the buffer-filling streams.
    chain_seed_ = prng::SplitMix64(cfg_.seed ^ 0x4d6574726f506f6cull)();
    metropolis_steps_ = cfg_.metropolis_steps > 0
                            ? cfg_.metropolis_steps
                            : resample::metropolis_default_steps(m_);
    const std::size_t npg =
        roughening_offset_ + (cfg_.roughening_k > 0.0 ? m_ * dim_ : 0);
    const std::size_t upg = 2 * m_ + 1;
    shape_ = {.particles = n_total_,
              .dim = dim_,
              .groups = n_filters_,
              .normals_per_group = npg,
              .uniforms_per_group = upg,
              .exchange = cfg_.exchange_particles};
    build_neighbor_lists();
    resampled_flags_.assign(n_filters_, 0);
    group_ess_.assign(n_filters_, 0.0);
    group_unique_.assign(n_filters_, 1.0);
    group_entropy_.assign(n_filters_, 0.0);
    group_degenerate_.assign(n_filters_, 0);
    group_nonfinite_.assign(n_filters_, 0);
    group_beta_.assign(n_filters_, 1.0);
    // Exchange volume is a topology constant: particles written per round
    // when the exchange stage runs at all.
    if (cfg_.scheme == topology::ExchangeScheme::kNone ||
        cfg_.exchange_particles == 0 || n_filters_ < 2) {
      exchange_volume_ = 0;
    } else if (topology::is_pooled(cfg_.scheme)) {
      exchange_volume_ = n_filters_ * cfg_.exchange_particles;
    } else {
      exchange_volume_ = 0;
      for (const auto& nb : neighbors_) {
        exchange_volume_ += nb.size() * cfg_.exchange_particles;
      }
    }
    if (cfg_.check_invariants) {
      checker_ = std::make_unique<debug::InvariantChecker>(n_filters_, m_, npg, upg);
      checked_dev_ = std::make_unique<debug::CheckedDevice>(*dev_);
      // The particle store starts unwritten; poisoned, a kernel that reads
      // a particle before initialization wrote it trips a check.
      debug::poison(cur_.raw_state(), cur_.log_weights());
    }
    mon_ = cfg_.monitor;
    // Only a validated configuration registers metrics.
    probe_ = StageProbe(cfg_.telemetry, StageProbe::Filter::kDistributed, n_filters_,
                        n_total_);
    probe_.publish("filter.num_filters", static_cast<double>(n_filters_));
    probe_.publish("filter.particles_per_filter", static_cast<double>(m_));
    probe_.publish("rng.normals_budget", static_cast<double>(npg));
    probe_.publish("rng.uniforms_budget", static_cast<double>(upg));
    if (snapshot != nullptr) {
      import_state(*snapshot);
    } else {
      initialize(init_ws != nullptr ? *init_ws : own_workspace());
    }
  }

  [[nodiscard]] StepWorkspace<T>& own_workspace() {
    if (!own_ws_) own_ws_ = std::make_unique<StepWorkspace<T>>();
    return *own_ws_;
  }

  /// Lays `ws` out for this filter. Under checking it is re-poisoned at
  /// every borrow: a borrowed workspace holds another filter's data, which
  /// a read-before-write would otherwise consume silently.
  void fit(StepWorkspace<T>& ws) const { ws.fit(shape_, checker_ != nullptr); }

  /// Row of ws.aux holding sorted position k of the group starting at
  /// particle `base` (valid from the local sort until resampling).
  [[nodiscard]] static std::size_t sorted_row(const StepWorkspace<T>& ws,
                                              std::size_t base, std::size_t k) {
    return base + ws.sort_idx[base + k];
  }

  /// Clears the per-round diagnostics and the stage timers.
  void reset_diagnostics() {
    ess_sum_ = 0.0;
    unique_sum_ = 0.0;
    probe_.timers().reset();
    std::fill(resampled_flags_.begin(), resampled_flags_.end(), std::uint8_t{0});
    std::fill(group_ess_.begin(), group_ess_.end(), 0.0);
    std::fill(group_unique_.begin(), group_unique_.end(), 1.0);
    std::fill(group_entropy_.begin(), group_entropy_.end(), 0.0);
    std::fill(group_degenerate_.begin(), group_degenerate_.end(), std::uint8_t{0});
    std::fill(group_nonfinite_.begin(), group_nonfinite_.end(), std::uint64_t{0});
  }

  /// Routes a kernel launch through the CheckedDevice when invariant
  /// checking is on (verifying exactly-once group coverage per launch) and
  /// records one trace span per launch when telemetry is attached; the two
  /// layers compose.
  template <typename Kernel>
  void launch(const char* name, Kernel&& kernel) {
    const auto span = probe_.span(name);
    probe_.count({.barriers = 1});  // kernel-boundary global barrier
    if (checked_dev_) {
      checked_dev_->launch(name, n_filters_, kernel);
    } else {
      dev_->launch(n_filters_, kernel);
    }
  }

  void build_neighbor_lists() {
    neighbors_.resize(n_filters_);
    for (std::size_t g = 0; g < n_filters_; ++g) {
      neighbors_[g] = topology::neighbors(cfg_.scheme, n_filters_,
                                          static_cast<std::uint32_t>(g));
    }
  }

  void run_rand(StepWorkspace<T>& ws) {
    // The PRNG fill goes straight to the pool rather than through launch(),
    // so the stage scope carries its kernel span.
    const auto stage = probe_.stage(Stage::kRand, "prng");
    stream_.fill(dev_->pool(), ws.rand);
    probe_.count({.barriers = 1,  // the fill is a launch, too
                  .rng_draws = n_filters_ * (ws.rand.normals_per_group +
                                             ws.rand.uniforms_per_group)});
    if (checker_) {
      checker_->check_prng_buffers<T>(ws.rand.normals, ws.rand.uniforms);
    }
  }

  /// Propagates and weights every particle of cur_ into ws.aux; the round's
  /// particles stay in the workspace until resampling writes the next
  /// population back into cur_.
  void run_sampling(StepWorkspace<T>& ws, std::span<const T> z, std::span<const T> u) {
    const auto stage = probe_.stage(Stage::kSampling);
    const std::size_t nd = model_.noise_dim();
    launch("sampling+weighting", [&](std::size_t g) {
      const auto normals = ws.rand.group_normals(g);
      const std::size_t base = g * m_;
      const auto lw_in = cur_.log_weights(base, m_);
      auto lw_out = ws.aux.log_weights(base, m_);
      for (std::size_t p = 0; p < m_; ++p) {
        const std::size_t i = base + p;
        model_.sample_transition(cur_.state(i), ws.aux.state(i), u,
                                 normals.subspan(p * nd, nd), step_);
        // Weighting: w' = w * p(z|x), in the log domain.
        lw_out[p] = lw_in[p] + model_.log_likelihood(ws.aux.state(i), z);
      }
    });
    if (checker_) {
      checker_->note_rng_use(m_ * nd, 0, "sampling+weighting");
      for (std::size_t g = 0; g < n_filters_; ++g) {
        debug::check_log_weights<T>(ws.aux.log_weights(g * m_, m_),
                                    "sampling+weighting", g);
      }
    }
  }

  /// Sorts each group's (log-weight, index) pairs, best first. The states
  /// are not moved: the later stages read sorted position k through
  /// sorted_row(), and resampling gathers each state once.
  void run_local_sort(StepWorkspace<T>& ws) {
    const auto stage = probe_.stage(Stage::kLocalSort);
    launch("local sort", [&](std::size_t g) {
      const std::size_t base = g * m_;
      auto keys = std::span<T>(ws.sort_keys).subspan(base, m_);
      auto idx = std::span<std::uint32_t>(ws.sort_idx).subspan(base, m_);
      const auto lw = ws.aux.log_weights(base, m_);
      for (std::size_t p = 0; p < m_; ++p) {
        keys[p] = lw[p];
        idx[p] = static_cast<std::uint32_t>(p);
      }
      // Descending: the best particle lands at local index 0.
      sortnet::NetCounters nc;
      sortnet::bitonic_sort_by_key<T, std::uint32_t>(
          keys, idx, std::greater<T>(), probe_.attached() ? &nc : nullptr);
      probe_.count({.lockstep_phases = nc.lockstep_phases,
                    .compare_exchanges = nc.compare_exchanges});
    });
    if (checker_) {
      for (std::size_t g = 0; g < n_filters_; ++g) {
        debug::check_sorted_descending<T>(
            std::span<const T>(ws.sort_keys).subspan(g * m_, m_), g);
        debug::check_permutation(
            std::span<const std::uint32_t>(ws.sort_idx).subspan(g * m_, m_), g);
      }
    }
  }

  void run_global_estimate(const StepWorkspace<T>& ws) {
    const auto stage = probe_.stage(Stage::kGlobalEstimate);
    if (cfg_.estimator == EstimatorKind::kMaxWeight) {
      launch("global estimate", [&](std::size_t g) {
        local_best_lw_[g] = ws.sort_keys[g * m_];  // sorted: best first
      });
      const std::size_t best_g =
          sortnet::reduce_max_index(std::span<const T>(local_best_lw_));
      const auto s = ws.aux.state(sorted_row(ws, best_g * m_, 0));
      estimate_.assign(s.begin(), s.end());
      estimate_lw_ = local_best_lw_[best_g];
      check_estimate_finite();
      return;
    }
    // Weighted mean: per-group partial sums with local max-normalization,
    // combined on the host with a global max correction.
    launch("global estimate", [&](std::size_t g) {
      const std::size_t base = g * m_;
      const auto lw = std::span<const T>(ws.sort_keys).subspan(base, m_);
      const T local_max = lw[0];
      local_best_lw_[g] = local_max;
      auto wstate = std::span<T>(group_wstate_).subspan(g * dim_, dim_);
      std::fill(wstate.begin(), wstate.end(), T(0));
      if (!std::isfinite(local_max)) {
        // Degenerate group (every log-weight -inf, or NaN at the sorted
        // head): no usable weight mass. exp(lw - local_max) would be NaN
        // here; contribute nothing instead.
        local_best_lw_[g] = -std::numeric_limits<T>::infinity();
        group_wsum_[g] = T(0);
        return;
      }
      T wsum = T(0);
      for (std::size_t p = 0; p < m_; ++p) {
        T w = std::exp(lw[p] - local_max);
        if (!(w >= T(0))) w = T(0);  // NaN guard: a stray NaN weighs nothing
        wsum += w;
        const auto s = ws.aux.state(sorted_row(ws, base, p));
        for (std::size_t d = 0; d < dim_; ++d) wstate[d] += w * s[d];
      }
      group_wsum_[g] = wsum;
    });
    const std::size_t best_g =
        sortnet::reduce_max_index(std::span<const T>(local_best_lw_));
    const T global_max = local_best_lw_[best_g];
    estimate_lw_ = global_max;
    if (!std::isfinite(global_max)) {
      // Every group is degenerate: there is no weight information at all.
      // Keep the previous round's estimate rather than emitting NaN.
      return;
    }
    T wsum = T(0);
    std::fill(estimate_.begin(), estimate_.end(), T(0));
    for (std::size_t g = 0; g < n_filters_; ++g) {
      const T scale = std::exp(local_best_lw_[g] - global_max);
      if (scale <= T(0)) continue;
      wsum += scale * group_wsum_[g];
      for (std::size_t d = 0; d < dim_; ++d) {
        estimate_[d] += scale * group_wstate_[g * dim_ + d];
      }
    }
    if (wsum > T(0)) {
      for (auto& v : estimate_) v /= wsum;
    }
    check_estimate_finite();
  }

  void check_estimate_finite() const {
    if (!checker_) return;
    for (std::size_t d = 0; d < estimate_.size(); ++d) {
      if (!std::isfinite(estimate_[d])) {
        debug::fail("global estimate",
                    "estimate component " + std::to_string(d) + " is not finite",
                    0);
      }
    }
  }

  void run_exchange(StepWorkspace<T>& ws) {
    const std::size_t t = cfg_.exchange_particles;
    if (cfg_.scheme == topology::ExchangeScheme::kNone || t == 0 || n_filters_ < 2) {
      return;
    }
    const auto stage = probe_.stage(Stage::kExchange);
    // Phase A: every sub-filter publishes its top-t (sorted: the first t).
    launch("exchange", [&](std::size_t g) {
      const std::size_t base = g * m_;
      for (std::size_t k = 0; k < t; ++k) {
        const auto s = ws.aux.state(sorted_row(ws, base, k));
        std::copy(s.begin(), s.end(),
                  ws.outbox_state.begin() + static_cast<std::ptrdiff_t>((g * t + k) * dim_));
        ws.outbox_lw[g * t + k] = ws.sort_keys[base + k];
      }
    });
    if (topology::is_pooled(cfg_.scheme)) {
      // All-to-All: the pooled kernel selects the same global top-t for
      // every sub-filter ("all sub-filters read back the same t best
      // particles from the supplied set"). The partial_sort permutes
      // pool_order, so each round restarts from the identity.
      std::iota(ws.pool_order.begin(), ws.pool_order.end(), std::uint32_t{0});
      std::partial_sort(ws.pool_order.begin(),
                        ws.pool_order.begin() + static_cast<std::ptrdiff_t>(t),
                        ws.pool_order.end(), [&](std::uint32_t a, std::uint32_t b) {
                          return ws.outbox_lw[a] > ws.outbox_lw[b];
                        });
      std::copy_n(ws.pool_order.begin(), t, ws.pool_top.begin());
      launch("exchange", [&](std::size_t g) {
        const std::size_t base = g * m_;
        for (std::size_t k = 0; k < t; ++k) {
          const std::uint32_t src = ws.pool_top[k];
          write_particle(ws, g, base + m_ - 1 - k, src);
        }
      });
      commit_exchange_checks(ws);
      return;
    }
    // Phase B: pairwise schemes; each sub-filter pulls its neighbours'
    // published particles and overwrites its own worst ones.
    launch("exchange", [&](std::size_t g) {
      const std::size_t base = g * m_;
      std::size_t slot = 0;
      for (const std::uint32_t q : neighbors_[g]) {
        for (std::size_t k = 0; k < t; ++k) {
          write_particle(ws, g, base + m_ - 1 - slot,
                         q * t + static_cast<std::uint32_t>(k));
          ++slot;
        }
      }
    });
    commit_exchange_checks(ws);
  }

  /// Copies outbox particle `src` into sorted position `dst` of group g.
  /// Under checking, the destination must stay inside the group's slot
  /// range [g*m, (g+1)*m) and the source inside the outbox - the canonical
  /// indexing bugs of a parallel exchange (Sec. IV).
  void write_particle(StepWorkspace<T>& ws, std::size_t g, std::size_t dst,
                      std::uint32_t src) {
    if (checker_) {
      checker_->expect_in_range(dst, g * m_, (g + 1) * m_, "exchange",
                                "write outside the group's slot range", g);
      checker_->expect(src < ws.outbox_lw.size(), "exchange",
                       "outbox source index out of range", g, src,
                       ws.outbox_lw.size());
    }
    const T* s = ws.outbox_state.data() + static_cast<std::size_t>(src) * dim_;
    auto d = ws.aux.state(sorted_row(ws, g * m_, dst - g * m_));
    std::copy(s, s + dim_, d.begin());
    ws.sort_keys[dst] = ws.outbox_lw[src];
  }

  /// Host-side: surfaces any write violation the exchange kernels recorded
  /// and re-validates the post-exchange log-weights.
  void commit_exchange_checks(const StepWorkspace<T>& ws) {
    if (!checker_) return;
    checker_->commit("exchange");
    for (std::size_t g = 0; g < n_filters_; ++g) {
      debug::check_log_weights<T>(
          std::span<const T>(ws.sort_keys).subspan(g * m_, m_), "exchange", g);
    }
  }

  /// Resamples each group from its sorted, exchanged population in the
  /// workspace and writes the next population into cur_.
  void run_resampling(StepWorkspace<T>& ws) {
    const auto stage = probe_.stage(Stage::kResampling);
    launch("resampling", [&](std::size_t g) {
      const std::size_t base = g * m_;
      const auto lw = std::span<const T>(ws.sort_keys).subspan(base, m_);
      const auto rows = std::span<const std::uint32_t>(ws.sort_idx).subspan(base, m_);
      auto w = std::span<T>(ws.weights).subspan(base, m_);
      resampled_flags_[g] = 0;
      group_degenerate_[g] = 0;
      group_unique_[g] = 1.0;
      // Exchange may have placed a heavier particle at the tail: the
      // normalization recomputes the local maximum rather than trusting
      // the sorted head. It also sanitizes: non-finite log-weights weigh
      // zero, and a group with *no* finite log-weight (every likelihood
      // underflowed, or NaN leaked in) reports itself degenerate - feeding
      // its NaN weights to RWS/Vose/systematic would yield garbage indices.
      if (mon_) group_nonfinite_[g] = estimation::anomalous_log_weights<T>(lw);
      const bool has_weight_info = resample::normalize_from_log<T>(lw, w);
      if (probe_.attached() || mon_) {
        // Passive read of the freshly normalized weights; log(m) for a
        // degenerate (uniform-fallback) group.
        group_entropy_[g] =
            estimation::weight_entropy<T>(std::span<const T>(w));
      }
      const auto particles = ws.aux.state_block(base, m_);
      const auto next = cur_.state_block(base, m_);
      auto lw_next = cur_.log_weights(base, m_);
      if (!has_weight_info) {
        // Uniform-ancestor fallback: keep every particle exactly once and
        // restart the group with uniform weights. Deterministic, preserves
        // whatever diversity is left, and the next round's likelihoods
        // rebuild the weight information from scratch.
        auto out = std::span<std::uint32_t>(ws.resample_out).subspan(base, m_);
        for (std::size_t p = 0; p < m_; ++p) out[p] = static_cast<std::uint32_t>(p);
        sortnet::gather_rows<T, std::uint32_t>(particles, next, rows, dim_);
        for (std::size_t p = 0; p < m_; ++p) lw_next[p] = T(0);
        group_ess_[g] = 0.0;
        group_degenerate_[g] = 1;
        resampled_flags_[g] = 1;
        if (cfg_.roughening_k > 0.0) apply_roughening(ws, g);
        return;
      }
      const double ess =
          static_cast<double>(resample::effective_sample_size<T>(w));
      group_ess_[g] = ess;
      const auto uniforms = ws.rand.group_uniforms(g);
      const double coin = static_cast<double>(uniforms[2 * m_]);
      if (!resample::should_resample(cfg_.policy, ess / static_cast<double>(m_),
                                     coin)) {
        // Carry the population (and its weights) to the next round.
        sortnet::gather_rows<T, std::uint32_t>(particles, next, rows, dim_);
        for (std::size_t p = 0; p < m_; ++p) lw_next[p] = lw[p];
        return;
      }
      resampled_flags_[g] = 1;
      auto out = std::span<std::uint32_t>(ws.resample_out).subspan(base, m_);
      auto cumsum = std::span<T>(ws.cumsum).subspan(base, m_);
      if (mon_ && cfg_.resample == ResampleAlgorithm::kMetropolis) {
        group_beta_[g] = estimation::weight_skew<T>(w);  // metropolis_bias input
      }
      sortnet::NetCounters nc;
      sortnet::NetCounters* ncp = probe_.attached() ? &nc : nullptr;
      switch (cfg_.resample) {
        case ResampleAlgorithm::kRws:
          resample::rws_resample<T>(w, uniforms.first(m_), out, cumsum, ncp);
          break;
        case ResampleAlgorithm::kVose: {
          auto prob = std::span<T>(ws.alias_prob).subspan(base, m_);
          auto alias = std::span<std::uint32_t>(ws.alias_idx).subspan(base, m_);
          auto scaled = std::span<T>(ws.vose_scaled).subspan(base, m_);
          auto slots = std::span<std::uint32_t>(ws.vose_slots).subspan(base, m_);
          resample::vose_build_inplace<T>(w, prob, alias, scaled, slots);
          resample::vose_sample<T>(prob, alias, uniforms.first(2 * m_), out);
          break;
        }
        case ResampleAlgorithm::kSystematic:
          resample::systematic_resample<T>(w, static_cast<T>(uniforms[0]), out,
                                           cumsum, ncp);
          break;
        case ResampleAlgorithm::kStratified:
          resample::stratified_resample<T>(w, uniforms.first(m_), out, cumsum,
                                           ncp);
          break;
        case ResampleAlgorithm::kMetropolis: {
          prng::PhiloxStream chain(chain_seed_, chain_stream(g));
          resample::MetropolisCounters mc;
          resample::metropolis_resample<T>(std::span<const T>(w),
                                           metropolis_steps_, chain, out, &mc);
          // Every chain step is one lock-step phase of the launch.
          probe_.count({.lockstep_phases = metropolis_steps_,
                        .rng_draws = mc.rng_draws,
                        .metropolis_steps = mc.steps});
          break;
        }
        case ResampleAlgorithm::kRejection: {
          prng::PhiloxStream chain(chain_seed_, chain_stream(g));
          resample::RejectionCounters rc;
          // Max-normalized weights bound every weight by exactly 1.
          resample::rejection_resample<T>(std::span<const T>(w), T(1), chain,
                                          out,
                                          resample::kRejectionDefaultMaxTrials,
                                          &rc);
          // The deepest lane's trial count is the launch's phase count.
          probe_.count({.lockstep_phases = rc.max_trials,
                        .rng_draws = rc.rng_draws,
                        .rejection_trials = rc.trials});
          break;
        }
      }
      // Scan sweeps are lock-step rounds too.
      probe_.count({.lockstep_phases = nc.scan_sweeps, .scan_sweeps = nc.scan_sweeps});
      // Each drawn sorted position names its workspace row through the
      // sort permutation: one state copy per particle per round.
      for (std::size_t p = 0; p < m_; ++p) {
        // A corrupt resample index must not read out of bounds.
        assert(out[p] < m_);
        const T* in = particles.data() + std::size_t{rows[out[p]]} * dim_;
        T* row = next.data() + p * dim_;
        for (std::size_t d = 0; d < dim_; ++d) row[d] = in[d];
      }
      // Diversity diagnostic: distinct parents / m, via the shared
      // estimation helper. The per-group sort-index slice is the scratch
      // (the gather above was its last reader), so the kernel stays
      // allocation-free.
      group_unique_[g] = estimation::unique_parent_fraction(
          out, std::span<std::uint32_t>(ws.sort_idx).subspan(base, m_));
      for (std::size_t p = 0; p < m_; ++p) lw_next[p] = T(0);
      if (cfg_.roughening_k > 0.0) apply_roughening(ws, g);
    });
    if (checker_) {
      const std::size_t roughening_normals =
          cfg_.roughening_k > 0.0 ? roughening_offset_ + m_ * dim_ : 0;
      checker_->note_rng_use(roughening_normals, 2 * m_ + 1, "resampling");
      for (std::size_t g = 0; g < n_filters_; ++g) {
        if (!resampled_flags_[g]) continue;
        const auto out =
            std::span<const std::uint32_t>(ws.resample_out).subspan(g * m_, m_);
        const auto w = std::span<const T>(ws.weights).subspan(g * m_, m_);
        debug::check_index_set(out, m_, g);
        if (cfg_.resample == ResampleAlgorithm::kMetropolis &&
            !group_degenerate_[g]) {
          // Finite-B Metropolis is biased by design; validate against the
          // exact B-step chain distribution instead of the weights.
          debug::check_metropolis_distribution<T>(w, out, metropolis_steps_, g);
        } else {
          debug::check_resample_distribution<T>(w, out, g);
        }
        if (cfg_.resample == ResampleAlgorithm::kRejection &&
            !group_degenerate_[g]) {
          // Rejection's correctness hinges on w_max bounding every weight;
          // the max-normalization contract pins that bound to 1.
          debug::check_weight_bound<T>(w, T(1), g);
        }
      }
    }
    ess_sum_ = 0.0;
    for (const double e : group_ess_) ess_sum_ += e;
    unique_sum_ = 0.0;
    for (const double u : group_unique_) unique_sum_ += u;
  }

  /// Host-side, once per step() when telemetry is attached: flushes the
  /// per-group diagnostics the kernels just computed into the registry and
  /// the per-step series. Purely observational -- reads filter state only.
  void record_step_telemetry() {
    auto& series = probe_.telemetry()->series;
    std::size_t degenerate = 0;
    std::size_t skipped = 0;
    double entropy_sum = 0.0;
    for (std::size_t g = 0; g < n_filters_; ++g) {
      series.record_group(step_, "ess", g, group_ess_[g]);
      series.record_group(step_, "unique_parent", g, group_unique_[g]);
      series.record_group(step_, "entropy", g, group_entropy_[g]);
      degenerate += group_degenerate_[g];
      skipped += resampled_flags_[g] ? 0 : 1;
      entropy_sum += group_entropy_[g];
    }
    series.record(step_, "ess.mean", mean_ess());
    series.record(step_, "unique_parent.mean", mean_unique_parent_fraction());
    series.record(step_, "entropy.mean",
                  n_filters_ ? entropy_sum / static_cast<double>(n_filters_) : 0.0);
    series.record(step_, "exchange.volume",
                  static_cast<double>(exchange_volume_));
    series.record(step_, "resample.degenerate_groups",
                  static_cast<double>(degenerate));
    series.record(step_, "resample.skipped_groups",
                  static_cast<double>(skipped));
    // RNG-budget high-water marks: exact consumption extents from the
    // invariant checker when it is on, else the sized per-round extents
    // the kernels are known to consume.
    std::size_t normals_used = m_ * model_.noise_dim();
    if (cfg_.roughening_k > 0.0) normals_used = roughening_offset_ + m_ * dim_;
    std::size_t uniforms_used = 2 * m_ + 1;
    if (checker_) {
      normals_used = checker_->normals_high_water();
      uniforms_used = checker_->uniforms_high_water();
    }
    probe_.count({.steps = 1,
                  .exchanged = exchange_volume_,
                  .degenerate = degenerate,
                  .skipped = skipped});
    probe_.end_step(normals_used, uniforms_used, dev_);
    series.record(step_, "pool.jobs_executed",
                  static_cast<double>(dev_->pool().stats().jobs_executed));
  }

  /// Host-side, once per step() when a HealthMonitor is attached: feeds the
  /// per-group diagnostics of the round just completed into the monitor's
  /// detectors. Purely observational -- reads filter state only, so
  /// estimates stay bit-identical with and without a monitor.
  void record_step_monitor() {
    const double m = static_cast<double>(m_);
    // Normalized entropy is entropy / log(m); for m == 1 entropy carries no
    // information, so report full health instead of a spurious floor trip.
    const double log_m = m_ > 1 ? std::log(m) : 0.0;
    for (std::size_t g = 0; g < n_filters_; ++g) {
      mon_->observe_group(step_, static_cast<std::int64_t>(g),
                          group_ess_[g] / m, group_unique_[g],
                          log_m > 0.0 ? group_entropy_[g] / log_m : 1.0,
                          group_degenerate_[g] != 0, group_nonfinite_[g]);
    }
    mon_->observe_exchange_volume(step_, static_cast<double>(exchange_volume_));
    if (cfg_.resample == ResampleAlgorithm::kMetropolis) {
      for (std::size_t g = 0; g < n_filters_; ++g) {
        if (!resampled_flags_[g] || group_degenerate_[g]) continue;
        mon_->observe_metropolis(step_, static_cast<std::int64_t>(g),
                                 group_beta_[g], metropolis_steps_);
      }
    }
  }

  /// Philox stream id of group g's inline resampling chain this round: the
  /// (step, group) pair, so every round of every group is an independent
  /// stream regardless of worker count or scheduling.
  [[nodiscard]] std::uint64_t chain_stream(std::size_t g) const {
    return (static_cast<std::uint64_t>(step_) << 32) |
           static_cast<std::uint64_t>(g);
  }

  /// Gordon roughening of group g's freshly resampled population (in cur_):
  /// per-dimension jitter scaled by the local value range and m^{-1/dim}.
  void apply_roughening(const StepWorkspace<T>& ws, std::size_t g) {
    const std::size_t base = g * m_;
    const auto normals = ws.rand.group_normals(g).subspan(roughening_offset_);
    const T scale = static_cast<T>(
        cfg_.roughening_k *
        std::pow(static_cast<double>(m_), -1.0 / static_cast<double>(dim_)));
    for (std::size_t d = 0; d < dim_; ++d) {
      T lo = cur_.state(base)[d];
      T hi = lo;
      for (std::size_t p = 1; p < m_; ++p) {
        const T v = cur_.state(base + p)[d];
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      const T sigma = scale * (hi - lo);
      if (sigma <= T(0)) continue;
      for (std::size_t p = 0; p < m_; ++p) {
        cur_.state(base + p)[d] += sigma * normals[p * dim_ + d];
      }
    }
  }

  Model model_;
  FilterConfig cfg_;
  std::unique_ptr<device::Device> owned_dev_;
  std::shared_ptr<device::Device> shared_dev_;
  device::Device* dev_;
  std::size_t m_;
  std::size_t n_filters_;
  std::size_t n_total_;
  std::size_t dim_;
  std::size_t roughening_offset_ = 0;
  prng::MtgpStream stream_;
  ParticleStore<T> cur_;
  WorkspaceShape shape_;
  /// Round scratch for steps that do not bring their own (see
  /// own_workspace()).
  std::unique_ptr<StepWorkspace<T>> own_ws_;
  std::vector<std::uint8_t> resampled_flags_;
  std::vector<T> local_best_lw_;
  std::vector<T> group_wsum_;
  std::vector<T> group_wstate_;
  std::vector<std::vector<std::uint32_t>> neighbors_;
  std::vector<T> estimate_;
  std::unique_ptr<debug::InvariantChecker> checker_;
  std::unique_ptr<debug::CheckedDevice> checked_dev_;
  T estimate_lw_ = T(0);
  StageProbe probe_;  // stage timing, spans, profiling and work.* counters
  monitor::HealthMonitor* mon_ = nullptr;
  std::vector<double> group_ess_;
  std::vector<double> group_unique_;
  std::vector<double> group_entropy_;
  std::vector<std::uint8_t> group_degenerate_;
  std::vector<std::uint64_t> group_nonfinite_;
  std::vector<double> group_beta_;
  std::uint64_t chain_seed_ = 0;
  std::size_t metropolis_steps_ = 0;
  std::size_t exchange_volume_ = 0;
  double ess_sum_ = 0.0;
  double unique_sum_ = 0.0;
  std::size_t step_ = 0;
};

}  // namespace esthera::core
