// The sequential, centralized particle filter (paper Algorithm 1 and
// Sec. VI: "we have also implemented a sequential, centralized particle
// filter ... as a reference"). It is the accuracy oracle for the
// distributed filter (Fig 9) and the sequential baseline of Fig 3/Fig 5.
// Vose's alias method is its default resampler, the faster choice for a
// large centralized filter (Fig 5).
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/particle_store.hpp"
#include "core/stage_probe.hpp"
#include "device/invariants.hpp"
#include "estimation/diagnostics.hpp"
#include "models/model.hpp"
#include "monitor/monitor.hpp"
#include "prng/distributions.hpp"
#include "prng/mt19937.hpp"
#include "resample/ess.hpp"
#include "resample/metropolis.hpp"
#include "resample/rejection.hpp"
#include "resample/rws.hpp"
#include "resample/systematic.hpp"
#include "resample/vose.hpp"
#include "sortnet/bitonic.hpp"
#include "telemetry/telemetry.hpp"

namespace esthera::core {

struct CentralizedOptions {
  ResampleAlgorithm resample = ResampleAlgorithm::kVose;
  resample::ResamplePolicy policy = resample::ResamplePolicy::always();
  EstimatorKind estimator = EstimatorKind::kMaxWeight;
  std::uint64_t seed = 42;

  /// Chain length B of the Metropolis resampler (same semantics as
  /// FilterConfig::metropolis_steps); 0 picks
  /// resample::metropolis_default_steps(n).
  std::size_t metropolis_steps = 0;

  /// FRIM (finite-redraw importance-maximizing) sampling, after Chao et
  /// al. [19]: a drawn particle whose log-likelihood falls below
  /// `frim_floor` is rejected and redrawn, up to `frim_redraws` times
  /// (bounded, as required for real-time use). 0 disables FRIM. The floor
  /// is an absolute log-likelihood; the bundled models drop additive
  /// constants so their maximum is 0 and a floor like -20 is meaningful.
  std::size_t frim_redraws = 0;
  double frim_floor = -20.0;

  /// Resample-move (Gilks & Berzuini): after resampling, each particle
  /// takes `move_steps` Metropolis-Hastings steps targeting
  /// p(x_k | x_{k-1}^parent, z_k), proposing fresh draws from the
  /// transition kernel of its parent's predecessor state (a valid
  /// independence proposal, accepted with min(1, p(z|y)/p(z|x))).
  /// Rejuvenates the duplicates resampling creates. 0 disables the move.
  std::size_t move_steps = 0;

  /// Runtime opt-in for the esthera::debug invariant checker (same
  /// semantics as FilterConfig::check_invariants): validates log-weights,
  /// the estimate, and every resampled index set, throwing
  /// debug::InvariantViolation on the first breach.
  bool check_invariants = debug::kCheckedBuild;

  /// Observability sink (same semantics as FilterConfig::telemetry): null
  /// disables every probe at the cost of one branch per site; when set,
  /// the filter records per-stage latency histograms, one span per stage
  /// per step, and per-step ESS / entropy / unique-parent series.
  /// Borrowed pointer; must outlive the filter.
  telemetry::Telemetry* telemetry = nullptr;

  /// Runtime health monitor (same semantics as FilterConfig::monitor):
  /// when set, the filter feeds its per-step ESS fraction, unique-parent
  /// fraction, normalized weight entropy, and non-finite-weight count into
  /// the monitor's detectors. Passive; estimates are bit-identical either
  /// way. Borrowed pointer; must outlive the filter.
  monitor::HealthMonitor* monitor = nullptr;
};

/// Sequential SIR particle filter over any SystemModel.
template <typename Model>
  requires models::SystemModel<Model>
class CentralizedParticleFilter {
 public:
  using T = typename Model::Scalar;

  CentralizedParticleFilter(Model model, std::size_t n_particles,
                            CentralizedOptions options = {})
      : model_(std::move(model)),
        opts_(options),
        n_(n_particles),
        cur_(n_particles, model_.state_dim()),
        aux_(n_particles, model_.state_dim()),
        rng_(static_cast<std::uint32_t>((options.seed ^ (options.seed >> 32)) | 1u)),
        weights_(n_particles),
        cumsum_(n_particles),
        indices_(n_particles),
        noise_(std::max(model_.noise_dim(), model_.init_noise_dim())),
        estimate_(model_.state_dim(), T(0)),
        metropolis_steps_(options.metropolis_steps > 0
                              ? options.metropolis_steps
                              : resample::metropolis_default_steps(n_particles)),
        probe_(options.telemetry, StageProbe::Filter::kCentralized, 1, n_particles),
        mon_(options.monitor) {
    assert(n_ > 0);
    probe_.publish("filter.particles", static_cast<double>(n_));
    if (opts_.check_invariants) {
      // The particle stores start unwritten (ParticleStore); poisoned, a
      // read before the first write shows in the estimate.
      debug::poison(cur_.raw_state(), cur_.log_weights(), aux_.raw_state(),
                    aux_.log_weights());
    }
    initialize();
  }

  /// Draws the initial particle population from the model's prior.
  void initialize() {
    prng::NormalSource<T, prng::Mt19937> normal(rng_);
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t d = 0; d < model_.init_noise_dim(); ++d) noise_[d] = normal();
      model_.sample_initial(cur_.state(i), noise_);
      cur_.log_weights()[i] = T(0);
    }
    step_ = 0;
    update_estimate();
  }

  /// One filtering round: sample / weigh / estimate / (conditionally)
  /// resample, consuming measurement `z` under control `u`. `ctx`, when
  /// given, is the parent TraceContext the round span joins (purely
  /// passive; estimates are bit-identical with and without it).
  void step(std::span<const T> z, std::span<const T> u = {},
            const telemetry::TraceContext* ctx = nullptr) {
    const auto round = probe_.round(step_, ctx);
    {
      const auto stage = probe_.stage(Stage::kSampling, "sampling+weighting");
      if (opts_.move_steps > 0) {
        // Keep x_{k-1}: the move step proposes fresh transitions from the
        // predecessor of each resampled particle's parent.
        prev_.assign(cur_.raw_state().begin(), cur_.raw_state().end());
      }
      prng::NormalSource<T, prng::Mt19937> normal(rng_);
      std::uint64_t draws = 0;
      for (std::size_t i = 0; i < n_; ++i) {
        T loglik = T(0);
        for (std::size_t redraw = 0;; ++redraw) {
          for (std::size_t d = 0; d < model_.noise_dim(); ++d) noise_[d] = normal();
          draws += model_.noise_dim();
          model_.sample_transition(cur_.state(i), aux_.state(i), u, noise_, step_);
          loglik = model_.log_likelihood(aux_.state(i), z);
          // FRIM: bounded rejection of negligible-weight draws.
          if (redraw >= opts_.frim_redraws ||
              static_cast<double>(loglik) >= opts_.frim_floor) {
            break;
          }
        }
        // Weighting: w' = w * p(z|x), in the log domain.
        aux_.log_weights()[i] = cur_.log_weights()[i] + loglik;
      }
      note_rng(draws);
      cur_.swap(aux_);
      if (opts_.check_invariants) {
        debug::check_log_weights<T>(std::span<const T>(cur_.log_weights()),
                                    "sampling+weighting", 0);
      }
    }
    {
      const auto stage = probe_.stage(Stage::kGlobalEstimate, "global estimate");
      update_estimate();
    }
    bool resampled = false;
    {
      const auto stage = probe_.stage(Stage::kResampling, "resampling");
      resampled = maybe_resample();
      if (resampled && opts_.move_steps > 0) {
        apply_move_steps(z, u);
      }
    }
    if (probe_.attached() || mon_ != nullptr) {
      // Passive reads of the already-normalized weights_ and the resampled
      // indices_, shared by both consumers.
      const double entropy = estimation::weight_entropy<T>(std::span<const T>(weights_));
      double unique = 1.0;  // a skipped round keeps every particle's own parent
      if (resampled) {
        unique_scratch_.resize(n_);
        unique = estimation::unique_parent_fraction(
            std::span<const std::uint32_t>(indices_),
            std::span<std::uint32_t>(unique_scratch_));
      }
      if (probe_.attached()) {
        auto& series = probe_.telemetry()->series;
        series.record(step_, "ess", ess_);
        series.record(step_, "entropy", entropy);
        series.record(step_, "unique_parent", unique);
        probe_.count({.steps = 1, .degenerate = degenerate_, .skipped = !resampled});
        probe_.end_step();
      }
      if (mon_ != nullptr) record_step_monitor(resampled, entropy, unique);
    }
    ++step_;
  }

  [[nodiscard]] std::span<const T> estimate() const { return estimate_; }
  [[nodiscard]] double ess() const { return ess_; }

  /// Acceptance rate of the resample-move MH steps so far (0 when unused).
  [[nodiscard]] double move_acceptance_rate() const {
    return move_proposals_ > 0
               ? static_cast<double>(move_accepts_) /
                     static_cast<double>(move_proposals_)
               : 0.0;
  }
  [[nodiscard]] std::size_t particle_count() const { return n_; }
  [[nodiscard]] std::size_t step_index() const { return step_; }
  [[nodiscard]] const Model& model() const { return model_; }
  /// Mutable model access for time-varying model state (e.g. the
  /// bearings-only observer position, updated before each step()).
  [[nodiscard]] Model& model_mutable() { return model_; }
  [[nodiscard]] StageTimers& timers() { return probe_.timers(); }
  [[nodiscard]] const ParticleStore<T>& particles() const { return cur_; }

 private:
  /// Per-step monitor probes; called only when mon_ != nullptr, after the
  /// resampling stage. Purely passive: reads diagnostics already computed.
  void record_step_monitor(bool resampled, double entropy, double unique) {
    const double log_n = n_ > 1 ? std::log(static_cast<double>(n_)) : 0.0;
    mon_->observe_group(step_, 0, ess_ / static_cast<double>(n_), unique,
                        log_n > 0.0 ? entropy / log_n : 1.0, degenerate_,
                        nonfinite_weights_);
    if (resampled && !degenerate_ &&
        opts_.resample == ResampleAlgorithm::kMetropolis) {
      mon_->observe_metropolis(step_, 0, estimation::weight_skew<T>(weights_),
                               metropolis_steps_);
    }
  }

  /// Converts log-weights to max-normalized linear weights in `weights_`
  /// and returns the index of the best particle. Sets `degenerate_` when
  /// no particle carries a finite log-weight (weights_ is then uniform).
  std::size_t normalize_weights() {
    const auto lw = std::span<const T>(cur_.log_weights());
    if (mon_ != nullptr) nonfinite_weights_ = estimation::anomalous_log_weights(lw);
    degenerate_ = !resample::normalize_from_log<T>(lw, weights_);
    if (degenerate_) return 0;
    std::size_t best = 0;
    for (std::size_t i = 1; i < n_; ++i) {
      if (weights_[i] > weights_[best]) best = i;
    }
    return best;
  }

  void update_estimate() {
    const std::size_t best = normalize_weights();
    ess_ = degenerate_
               ? 0.0
               : static_cast<double>(resample::effective_sample_size(
                     std::span<const T>(weights_)));
    if (degenerate_) {
      // No usable weight information this round; keep the previous
      // estimate rather than averaging over meaningless weights.
      return;
    }
    if (opts_.estimator == EstimatorKind::kMaxWeight) {
      const auto s = cur_.state(best);
      estimate_.assign(s.begin(), s.end());
    } else {
      T wsum = T(0);
      std::fill(estimate_.begin(), estimate_.end(), T(0));
      for (std::size_t i = 0; i < n_; ++i) {
        const T w = weights_[i];
        wsum += w;
        const auto s = cur_.state(i);
        for (std::size_t d = 0; d < estimate_.size(); ++d) estimate_[d] += w * s[d];
      }
      for (auto& v : estimate_) v /= wsum;
    }
    if (opts_.check_invariants) {
      for (std::size_t d = 0; d < estimate_.size(); ++d) {
        if (!std::isfinite(static_cast<double>(estimate_[d]))) {
          debug::fail("global estimate", "estimate component is not finite", 0);
        }
      }
    }
  }

  /// Returns true when the population was resampled this round.
  bool maybe_resample() {
    if (degenerate_) {
      // No finite log-weight anywhere: resampling from these weights would
      // be meaningless (or NaN-poisoned). Keep every particle exactly once
      // and restart with uniform weights; the next round's likelihoods
      // rebuild the weight information.
      for (std::size_t i = 0; i < n_; ++i) indices_[i] = static_cast<std::uint32_t>(i);
      for (std::size_t i = 0; i < n_; ++i) cur_.log_weights()[i] = T(0);
      return true;
    }
    const double u = prng::uniform01<double>(rng_);
    note_rng(1);  // the resampling-policy coin
    if (!resample::should_resample(opts_.policy, ess_ / static_cast<double>(n_), u)) {
      return false;
    }
    auto out = std::span<std::uint32_t>(indices_);
    const auto w = std::span<const T>(weights_);
    sortnet::NetCounters nc;
    sortnet::NetCounters* ncp = probe_.attached() ? &nc : nullptr;
    switch (opts_.resample) {
      case ResampleAlgorithm::kRws: {
        fill_uniforms(n_);
        resample::rws_resample<T>(w, uniform_scratch(), out, cumsum_, ncp);
        break;
      }
      case ResampleAlgorithm::kVose: {
        resample::vose_build<T>(w, alias_);
        fill_uniforms(2 * n_);
        resample::vose_sample<T>(alias_, uniform_scratch(), out);
        break;
      }
      case ResampleAlgorithm::kSystematic: {
        note_rng(1);
        resample::systematic_resample<T>(w, prng::uniform01<T>(rng_), out, cumsum_,
                                         ncp);
        break;
      }
      case ResampleAlgorithm::kStratified: {
        fill_uniforms(n_);
        resample::stratified_resample<T>(w, uniform_scratch(), out, cumsum_, ncp);
        break;
      }
      case ResampleAlgorithm::kMetropolis: {
        resample::MetropolisCounters mc;
        resample::metropolis_resample<T>(w, metropolis_steps_, rng_, out, &mc);
        probe_.count({.rng_draws = mc.rng_draws, .metropolis_steps = mc.steps});
        break;
      }
      case ResampleAlgorithm::kRejection: {
        // Max-normalized weights bound every weight by exactly 1.
        resample::RejectionCounters rc;
        resample::rejection_resample<T>(w, T(1), rng_, out,
                                        resample::kRejectionDefaultMaxTrials,
                                        &rc);
        probe_.count({.rng_draws = rc.rng_draws, .rejection_trials = rc.trials});
        break;
      }
    }
    probe_.count({.scan_sweeps = nc.scan_sweeps});
    if (opts_.check_invariants) {
      debug::check_index_set(out, n_, 0);
      if (opts_.resample == ResampleAlgorithm::kMetropolis) {
        // Finite-B Metropolis is biased by design; validate against the
        // exact B-step chain distribution instead of the weights.
        debug::check_metropolis_distribution<T>(w, out, metropolis_steps_, 0);
      } else {
        debug::check_resample_distribution<T>(w, out, 0);
      }
      if (opts_.resample == ResampleAlgorithm::kRejection) {
        debug::check_weight_bound<T>(w, T(1), 0);
      }
    }
    sortnet::gather_rows<T, std::uint32_t>(cur_.raw_state(), aux_.raw_state(),
                                           out, model_.state_dim());
    for (std::size_t i = 0; i < n_; ++i) aux_.log_weights()[i] = T(0);
    cur_.swap(aux_);
    return true;
  }

  /// Resample-move rejuvenation: MH steps with the transition kernel from
  /// the parent's predecessor as independence proposal.
  void apply_move_steps(std::span<const T> z, std::span<const T> u) {
    const std::size_t dim = model_.state_dim();
    prng::NormalSource<T, prng::Mt19937> normal(rng_);
    std::vector<T> proposal(dim);
    move_proposals_ += n_ * opts_.move_steps;
    for (std::size_t i = 0; i < n_; ++i) {
      // indices_[i] is particle i's parent in the pre-resampling
      // population; sampling was 1:1, so prev_ holds its predecessor.
      const std::size_t parent = indices_[i];
      std::span<const T> pred(prev_.data() + parent * dim, dim);
      T current_ll = model_.log_likelihood(cur_.state(i), z);
      for (std::size_t s = 0; s < opts_.move_steps; ++s) {
        for (std::size_t d = 0; d < model_.noise_dim(); ++d) noise_[d] = normal();
        note_rng(model_.noise_dim());
        model_.sample_transition(pred, proposal, u, noise_, step_);
        const T proposal_ll = model_.log_likelihood(proposal, z);
        const T log_accept = proposal_ll - current_ll;
        bool accept = log_accept >= T(0);
        if (!accept) {
          note_rng(1);  // the MH acceptance coin
          accept = prng::uniform01<T>(rng_) < std::exp(log_accept);
        }
        if (accept) {
          std::copy(proposal.begin(), proposal.end(), cur_.state(i).begin());
          current_ll = proposal_ll;
          ++move_accepts_;
        }
      }
    }
  }

  void fill_uniforms(std::size_t count) {
    uniforms_.resize(count);
    for (auto& v : uniforms_) v = prng::uniform01<T>(rng_);
    note_rng(count);
  }

  /// Folds `n` generated variates into work.rng_draws.
  void note_rng(std::uint64_t n) const { probe_.count({.rng_draws = n}); }

  [[nodiscard]] std::span<const T> uniform_scratch() const { return uniforms_; }

  Model model_;
  CentralizedOptions opts_;
  std::size_t n_;
  ParticleStore<T> cur_;
  ParticleStore<T> aux_;
  prng::Mt19937 rng_;
  std::vector<T> weights_;
  std::vector<T> cumsum_;
  std::vector<std::uint32_t> indices_;
  std::vector<T> uniforms_;
  std::vector<T> noise_;
  std::vector<T> estimate_;
  resample::AliasTable<T> alias_;
  std::vector<T> prev_;  // x_{k-1} copy for the resample-move step
  std::size_t metropolis_steps_;  // resolved chain length B
  StageProbe probe_;  // stage timing, spans, profiling and work.* counters
  monitor::HealthMonitor* mon_ = nullptr;
  std::vector<std::uint32_t> unique_scratch_;
  double ess_ = 0.0;
  bool degenerate_ = false;
  std::uint64_t nonfinite_weights_ = 0;
  std::size_t step_ = 0;
  std::size_t move_accepts_ = 0;
  std::size_t move_proposals_ = 0;
};

}  // namespace esthera::core
