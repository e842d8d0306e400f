// Filter-health diagnostics beyond ESS: weight entropy, surviving-parent
// statistics of a resampling round (the particle-impoverishment signal
// behind the paper's All-to-All diversity-loss finding), and a
// time-to-convergence detector used by the experiment harnesses.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_set>

namespace esthera::estimation {

/// Shannon entropy (nats) of a normalized-or-not non-negative weight
/// vector; maximal (log n) for uniform weights, 0 when degenerate.
template <typename T>
double weight_entropy(std::span<const T> weights) {
  double total = 0.0;
  for (const T w : weights) total += static_cast<double>(w);
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (const T w : weights) {
    const double p = static_cast<double>(w) / total;
    if (p > 0.0) h -= p * std::log(p);
  }
  return h;
}

/// Count of NaN or +inf log-weights: anomalies for the health monitor
/// (-inf is legitimate likelihood underflow).
template <typename T>
std::uint64_t anomalous_log_weights(std::span<const T> log_weights) {
  std::uint64_t bad = 0;
  for (const T v : log_weights) {
    if (std::isnan(v) || (std::isinf(v) && v > T(0))) ++bad;
  }
  return bad;
}

/// Weight skew beta = n * w_max / W of max-normalized weights (w_max = 1):
/// the Metropolis-bias detector's input. n when every weight is zero.
template <typename T>
double weight_skew(std::span<const T> weights) {
  double total = 0.0;
  for (const T w : weights) total += static_cast<double>(w);
  const double n = static_cast<double>(weights.size());
  return total > 0.0 ? n / total : n;
}

/// Fraction of distinct parents among resampled indices - a direct
/// impoverishment measure: 1.0 means every child has its own parent,
/// 1/n means the whole population collapsed onto one ancestor.
inline double unique_parent_fraction(std::span<const std::uint32_t> parents) {
  if (parents.empty()) return 0.0;
  std::unordered_set<std::uint32_t> seen(parents.begin(), parents.end());
  return static_cast<double>(seen.size()) / static_cast<double>(parents.size());
}

/// Allocation-free overload for device kernels: counts distinct parents in
/// O(m) by marking each one in caller-provided `scratch` (at least
/// parents.size() elements, not overlapping `parents`; contents
/// clobbered). Resampled indices lie in
/// [0, m); an index outside that range - only a corrupt resampler writes
/// one - never addresses `scratch`, and is counted by comparing it with
/// the earlier entries instead. Same exact result as the set-based
/// overload.
inline double unique_parent_fraction(std::span<const std::uint32_t> parents,
                                     std::span<std::uint32_t> scratch) {
  const std::size_t m = parents.size();
  if (m == 0) return 0.0;
  assert(scratch.size() >= m);
  const auto seen = scratch.first(m);
  std::fill(seen.begin(), seen.end(), 0u);
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint32_t p = parents[i];
    if (p < m) {
      distinct += seen[p] ^ 1u;
      seen[p] = 1u;
    } else if (std::find(parents.begin(), parents.begin() + i, p) ==
               parents.begin() + i) {
      ++distinct;
    }
  }
  return static_cast<double>(distinct) / static_cast<double>(m);
}

/// Declares convergence once the per-step error stays below `threshold`
/// for `window` consecutive steps; reports the first step of that window.
class ConvergenceDetector {
 public:
  ConvergenceDetector(double threshold, std::size_t window)
      : threshold_(threshold), window_(window) {}

  /// Feeds one step's error; returns true once converged (latched).
  bool update(double error) {
    ++step_;
    if (converged_) return true;
    if (error < threshold_) {
      if (++streak_ >= window_) {
        converged_ = true;
        convergence_step_ = step_ - window_;
      }
    } else {
      streak_ = 0;
    }
    return converged_;
  }

  [[nodiscard]] bool converged() const { return converged_; }

  /// First step of the qualifying window (meaningful once converged()).
  [[nodiscard]] std::size_t convergence_step() const { return convergence_step_; }

  void reset() {
    step_ = 0;
    streak_ = 0;
    converged_ = false;
    convergence_step_ = 0;
  }

 private:
  double threshold_;
  std::size_t window_;
  std::size_t step_ = 0;
  std::size_t streak_ = 0;
  bool converged_ = false;
  std::size_t convergence_step_ = 0;
};

}  // namespace esthera::estimation
