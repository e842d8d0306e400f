// The alternative distributed particle-filter organizations from the
// paper's related work (Sec. III), implemented on the same device
// decomposition so they can be compared head-to-head with the paper's
// fully-local design:
//
//  * GDPF (Bashi et al.): sampling and weighting run in parallel per
//    sub-filter, but resampling is performed *centrally* over the whole
//    population - the communication-heavy organization the paper's design
//    avoids.
//  * CDPF (Bashi et al.): central resampling over a *compressed* set: each
//    sub-filter contributes its k best particles, the center resamples
//    that set, and every sub-filter rebuilds its population from the
//    result.
//  * RPA (Bolic et al.): resampling with proportional allocation - a
//    two-stage scheme where the center allocates per-group child counts
//    proportionally to group weight sums (via one systematic draw) and the
//    groups then resample their allocation locally.
//
// LDPF equals the paper's design with no exchange (scheme kNone), and RNA
// is essentially the paper's design itself (local resampling + exchange);
// both are covered by DistributedParticleFilter, see make_ldpf_config().
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/particle_store.hpp"
#include "core/stage_probe.hpp"
#include "device/device.hpp"
#include "models/model.hpp"
#include "prng/mtgp_stream.hpp"
#include "resample/rws.hpp"
#include "resample/systematic.hpp"
#include "sortnet/bitonic.hpp"
#include "sortnet/scan.hpp"

namespace esthera::core {

enum class BaselineKind : std::uint8_t {
  kGdpf,  ///< central resampling over all particles
  kCdpf,  ///< central resampling over a compressed representative set
  kRpa,   ///< proportional allocation: central counts, local resampling
};

[[nodiscard]] inline const char* to_string(BaselineKind k) {
  switch (k) {
    case BaselineKind::kGdpf: return "gdpf";
    case BaselineKind::kCdpf: return "cdpf";
    case BaselineKind::kRpa: return "rpa";
  }
  return "?";
}

/// LDPF is the paper's design with exchange disabled.
[[nodiscard]] inline FilterConfig make_ldpf_config(FilterConfig cfg) {
  cfg.scheme = topology::ExchangeScheme::kNone;
  cfg.exchange_particles = 0;
  return cfg;
}

struct BaselineOptions {
  BaselineKind kind = BaselineKind::kGdpf;
  std::size_t compressed_per_group = 4;  ///< k for CDPF
  std::uint64_t seed = 42;
  std::size_t workers = 0;
};

/// Distributed-sampling / centralized-or-allocated-resampling filters.
template <typename Model>
  requires models::SystemModel<Model>
class BaselineDistributedFilter {
 public:
  using T = typename Model::Scalar;

  BaselineDistributedFilter(Model model, std::size_t particles_per_filter,
                            std::size_t num_filters, BaselineOptions options = {})
      : model_(std::move(model)),
        opts_(options),
        m_(particles_per_filter),
        n_filters_(num_filters),
        n_total_(m_ * num_filters),
        dim_(model_.state_dim()),
        dev_(std::make_unique<device::Device>(options.workers)),
        stream_(n_filters_, options.seed),
        cur_(n_total_, dim_),
        aux_(n_total_, dim_),
        weights_(n_total_),
        cumsum_(n_total_),
        indices_(n_total_),
        uniforms_(n_total_),
        pool_(std::min(opts_.compressed_per_group, m_) * n_filters_),
        pool_weights_(pool_.size()),
        pool_cumsum_(pool_.size()),
        group_sums_(n_filters_),
        group_draws_(n_filters_),
        group_cumsum_(n_filters_),
        counts_(n_filters_),
        offsets_(n_filters_ + 1, 0),
        estimate_(dim_, T(0)) {
    assert(m_ > 0 && n_filters_ > 0);
    const std::size_t npg = m_ * std::max(model_.noise_dim(), model_.init_noise_dim());
    rand_.resize(n_filters_, npg, 2 * m_ + 1);
    initialize();
  }

  [[nodiscard]] std::span<const T> estimate() const { return estimate_; }
  [[nodiscard]] std::size_t particle_count() const { return n_total_; }
  [[nodiscard]] StageTimers& timers() { return probe_.timers(); }
  [[nodiscard]] BaselineKind kind() const { return opts_.kind; }

  void initialize() {
    stream_.fill(dev_->pool(), rand_);
    const std::size_t ind = model_.init_noise_dim();
    dev_->launch(n_filters_, [&](std::size_t g) {
      const auto normals = rand_.group_normals(g);
      for (std::size_t p = 0; p < m_; ++p) {
        const std::size_t i = g * m_ + p;
        model_.sample_initial(cur_.state(i), normals.subspan(p * ind, ind));
        cur_.log_weights()[i] = T(0);
      }
    });
    step_ = 0;
  }

  void step(std::span<const T> z, std::span<const T> u = {}) {
    {
      const auto stage = probe_.stage(Stage::kRand);
      stream_.fill(dev_->pool(), rand_);
    }
    {
      const auto stage = probe_.stage(Stage::kSampling);
      const std::size_t nd = model_.noise_dim();
      dev_->launch(n_filters_, [&](std::size_t g) {
        const auto normals = rand_.group_normals(g);
        for (std::size_t p = 0; p < m_; ++p) {
          const std::size_t i = g * m_ + p;
          model_.sample_transition(cur_.state(i), aux_.state(i), u,
                                   normals.subspan(p * nd, nd), step_);
          aux_.log_weights()[i] = model_.log_likelihood(aux_.state(i), z);
        }
      });
      cur_.swap(aux_);
    }
    {
      const auto stage = probe_.stage(Stage::kGlobalEstimate);
      update_estimate();
    }
    {
      const auto stage = probe_.stage(Stage::kResampling);
      switch (opts_.kind) {
        case BaselineKind::kGdpf: resample_central(); break;
        case BaselineKind::kCdpf: resample_compressed(); break;
        case BaselineKind::kRpa: resample_proportional(); break;
      }
    }
    ++step_;
  }

 private:
  /// Globally max-normalized linear weights into weights_; returns argmax.
  std::size_t normalize_weights() {
    const auto lw = cur_.log_weights();
    std::size_t best = 0;
    for (std::size_t i = 1; i < n_total_; ++i) {
      if (lw[i] > lw[best]) best = i;
    }
    const T max_lw = lw[best];
    for (std::size_t i = 0; i < n_total_; ++i) {
      weights_[i] = std::exp(lw[i] - max_lw);
    }
    return best;
  }

  void update_estimate() {
    const std::size_t best = normalize_weights();
    const auto s = cur_.state(best);
    estimate_.assign(s.begin(), s.end());
  }

  /// One uniform per draw, consumed from the per-group device buffers so
  /// results stay deterministic regardless of scheduling.
  [[nodiscard]] T group_uniform(std::size_t g, std::size_t i) const {
    return rand_.group_uniforms(g)[i];
  }

  void resample_central() {
    // GDPF: one RWS pass over the entire population ("resampling is
    // performed centrally"). Communication-equivalent: all weights and all
    // surviving states cross the interconnect.
    for (std::size_t g = 0; g < n_filters_; ++g) {
      for (std::size_t p = 0; p < m_; ++p) {
        uniforms_[g * m_ + p] = group_uniform(g, p);
      }
    }
    resample::rws_resample<T>(weights_, uniforms_, indices_, cumsum_);
    sortnet::gather_rows<T, std::uint32_t>(cur_.raw_state(), aux_.raw_state(),
                                           indices_, dim_);
    finish_resample();
  }

  void resample_compressed() {
    // CDPF: each group publishes its k best particles; the center
    // resamples the compressed set; every group redraws its population
    // from the compressed winners.
    const std::size_t k = pool_.size() / n_filters_;
    dev_->launch(n_filters_, [&](std::size_t g) {
      // Partial selection of the k best by repeated max (k is tiny); the
      // group's slice of indices_ is the selection scratch.
      const auto lw = cur_.log_weights(g * m_, m_);
      const auto local = std::span<std::uint32_t>(indices_).subspan(g * m_, m_);
      std::iota(local.begin(), local.end(), 0u);
      std::partial_sort(local.begin(), local.begin() + static_cast<std::ptrdiff_t>(k),
                        local.end(), [&](std::uint32_t a, std::uint32_t b) {
                          return lw[a] > lw[b];
                        });
      for (std::size_t i = 0; i < k; ++i) {
        pool_[g * k + i] = static_cast<std::uint32_t>(g * m_ + local[i]);
      }
    });
    // Central resampling over the compressed pool: one cumulative sum that
    // every group draws from.
    for (std::size_t i = 0; i < pool_.size(); ++i) pool_weights_[i] = weights_[pool_[i]];
    const T total = resample::build_cumulative<T>(pool_weights_, pool_cumsum_);
    // Every group redraws its m particles from the pool.
    dev_->launch(n_filters_, [&](std::size_t g) {
      const auto uniforms = rand_.group_uniforms(g);
      for (std::size_t p = 0; p < m_; ++p) {
        const T target = uniforms[p] * total;
        const std::size_t pick = resample::upper_index<T>(pool_cumsum_, target);
        const auto src = cur_.state(pool_[pick]);
        auto dst = aux_.state(g * m_ + p);
        std::copy(src.begin(), src.end(), dst.begin());
      }
    });
    for (std::size_t i = 0; i < n_total_; ++i) aux_.log_weights()[i] = T(0);
    cur_.swap(aux_);
  }

  void resample_proportional() {
    // RPA: stage 1 (central): allocate per-group child counts proportional
    // to group weight sums with one systematic draw; stage 2 (local): each
    // group resamples its allocation from its own particles. Groups then
    // hold variable counts; the population is re-balanced back to m per
    // group by cyclic redistribution (the "particle routing" step of the
    // original architecture).
    dev_->launch(n_filters_, [&](std::size_t g) {
      T sum = T(0);
      for (std::size_t p = 0; p < m_; ++p) sum += weights_[g * m_ + p];
      group_sums_[g] = sum;
    });
    resample::systematic_resample<T>(group_sums_, group_uniform(0, 2 * m_),
                                     group_draws_, group_cumsum_);
    std::fill(counts_.begin(), counts_.end(), std::size_t{0});
    for (const auto g : group_draws_) ++counts_[g];  // one draw per group slot
    // counts[g] children allocated to group g, summing to n_filters_;
    // scale to the full population (each allocation stands for m children).
    // Stage 2: local resampling of counts[g] * m children per group, written
    // contiguously into aux_ in group order.
    for (std::size_t g = 0; g < n_filters_; ++g) {
      offsets_[g + 1] = offsets_[g] + counts_[g] * m_;
    }
    dev_->launch(n_filters_, [&](std::size_t g) {
      const std::size_t children = counts_[g] * m_;
      if (children == 0) return;
      auto w = std::span<const T>(weights_).subspan(g * m_, m_);
      auto cumsum = std::span<T>(cumsum_).subspan(g * m_, m_);
      const T total = resample::build_cumulative<T>(w, cumsum);
      const auto uniforms = rand_.group_uniforms(g);
      for (std::size_t c = 0; c < children; ++c) {
        // Stretch the per-group uniform budget cyclically; decorrelate
        // repeats with a golden-ratio offset.
        T uval = uniforms[c % (2 * m_)] +
                 static_cast<T>(0.6180339887) * static_cast<T>(c / (2 * m_));
        uval -= std::floor(uval);
        const std::size_t pick = resample::upper_index<T>(cumsum, uval * total);
        const auto src = cur_.state(g * m_ + pick);
        auto dst = aux_.state(offsets_[g] + c);
        std::copy(src.begin(), src.end(), dst.begin());
      }
    });
    for (std::size_t i = 0; i < n_total_; ++i) aux_.log_weights()[i] = T(0);
    cur_.swap(aux_);
  }

  void finish_resample() {
    for (std::size_t i = 0; i < n_total_; ++i) aux_.log_weights()[i] = T(0);
    cur_.swap(aux_);
  }

  Model model_;
  BaselineOptions opts_;
  std::size_t m_;
  std::size_t n_filters_;
  std::size_t n_total_;
  std::size_t dim_;
  std::unique_ptr<device::Device> dev_;
  prng::MtgpStream stream_;
  prng::RandomBuffer<T> rand_;
  ParticleStore<T> cur_;
  ParticleStore<T> aux_;
  std::vector<T> weights_;
  std::vector<T> cumsum_;
  std::vector<std::uint32_t> indices_;
  // Round scratch of the central stages, sized once so step() allocates
  // nothing: GDPF's gathered uniforms; CDPF's compressed pool; RPA's group
  // sums, draws and child counts/offsets.
  std::vector<T> uniforms_;
  std::vector<std::uint32_t> pool_;
  std::vector<T> pool_weights_;
  std::vector<T> pool_cumsum_;
  std::vector<T> group_sums_;
  std::vector<std::uint32_t> group_draws_;
  std::vector<T> group_cumsum_;
  std::vector<std::size_t> counts_;
  std::vector<std::size_t> offsets_;
  std::vector<T> estimate_;
  StageProbe probe_;  // detached: stage timers only
  std::size_t step_ = 0;
};

}  // namespace esthera::core
