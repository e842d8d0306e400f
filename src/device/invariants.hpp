// esthera::debug - a zero-cost-when-off invariant-checking layer for the
// emulated device and the filters running on it. The six barrier-separated
// kernels of the paper (Sec. VI) obey cross-kernel contracts that nothing
// else in the system enforces: log-weights stay free of NaN after
// weighting, per-group keys are descending after the local sort, resample
// outputs are valid index sets whose distribution matches the weights,
// exchange writes stay inside their group's slot range, and no kernel
// consumes more of the per-round RandomBuffer than the sized budgets.
// The checkers here validate those post-conditions host-side after each
// launch; every violation throws debug::InvariantViolation naming the
// kernel and group.
//
// Enablement is two-level: FilterConfig::check_invariants (runtime opt-in,
// per filter) and the ESTHERA_CHECKED compile definition (CMake option of
// the same name), which flips the runtime default to on. When off, the
// filters hold a null checker and every check site is a single
// branch-on-null - no measurable overhead in the release benchmarks.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <ranges>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "device/device.hpp"

namespace esthera::debug {

/// True when the build carries -DESTHERA_CHECKED; FilterConfig and
/// CentralizedOptions use it as the default for their runtime opt-ins.
#ifdef ESTHERA_CHECKED
inline constexpr bool kCheckedBuild = true;
#else
inline constexpr bool kCheckedBuild = false;
#endif

/// Thrown by every checker on a broken kernel post-condition.
class InvariantViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Throws InvariantViolation with "[kernel] message (group g)".
[[noreturn]] void fail(const char* kernel, const std::string& message,
                       std::size_t group);

/// Fills buffers that their owner leaves unwritten at construction
/// (mcore::FirstTouchVector) with values no kernel produces: quiet NaN for
/// floating point, all ones (0xFFFFFFFF for 32-bit indices) for integers.
/// A checked filter poisons such buffers, so a kernel that reads an element
/// before any kernel wrote it changes the estimate or trips a check instead
/// of silently reading whatever the allocator handed back.
template <typename... Ranges>
void poison(Ranges&&... buffers) {
  const auto fill = [](auto&& buffer) {
    using V = std::ranges::range_value_t<decltype(buffer)>;
    if constexpr (std::is_floating_point_v<V>) {
      std::ranges::fill(buffer, std::numeric_limits<V>::quiet_NaN());
    } else {
      std::ranges::fill(buffer, std::numeric_limits<V>::max());
    }
  };
  (fill(buffers), ...);
}

// ---------------------------------------------------------------------------
// Reusable free checkers. All run host-side (they may throw; device kernels
// must not) and attribute failures to a kernel name and group id.
// ---------------------------------------------------------------------------

/// Post-condition of sampling+weighting: no log-weight is NaN or +inf.
/// -inf is legal (a zero-likelihood particle) and handled downstream by the
/// degenerate-weight fallback in resampling.
template <typename T>
void check_log_weights(std::span<const T> lw, const char* kernel,
                       std::size_t group) {
  for (std::size_t p = 0; p < lw.size(); ++p) {
    const T v = lw[p];
    if (std::isnan(v)) {
      fail(kernel, "log-weight " + std::to_string(p) + " is NaN", group);
    }
    if (std::isinf(v) && v > T(0)) {
      fail(kernel, "log-weight " + std::to_string(p) + " is +inf", group);
    }
  }
}

/// Post-condition of the local sort: keys descending (best particle first).
/// NaN keys are rejected outright - the bitonic network's compare-exchange
/// schedule silently produces garbage orderings under NaN.
template <typename T>
void check_sorted_descending(std::span<const T> keys, std::size_t group,
                             const char* kernel = "local sort") {
  for (std::size_t p = 0; p < keys.size(); ++p) {
    if (std::isnan(keys[p])) {
      fail(kernel, "sort key " + std::to_string(p) + " is NaN", group);
    }
    if (p + 1 < keys.size() && keys[p] < keys[p + 1]) {
      fail(kernel,
           "keys not descending at " + std::to_string(p) + ": " +
               std::to_string(static_cast<double>(keys[p])) + " < " +
               std::to_string(static_cast<double>(keys[p + 1])),
           group);
    }
  }
}

/// Post-condition of resampling: every ancestor index lies in [0, m).
void check_index_set(std::span<const std::uint32_t> idx, std::size_t m,
                     std::size_t group, const char* kernel = "resampling");

/// Post-condition of the sort's index array: a permutation of [0, m).
void check_permutation(std::span<const std::uint32_t> idx, std::size_t group,
                       const char* kernel = "local sort");

/// Pearson chi-square statistic of ancestor counts against the expected
/// counts draws * w_i / W. Bins with expected count < 1 are lumped into a
/// single tail bin so tiny weights cannot dominate the statistic.
/// `bins_out`, when non-null, receives the number of contributing bins.
double chi_square_statistic(std::span<const double> expected,
                            std::span<const std::uint32_t> ancestors,
                            std::size_t* bins_out = nullptr);

/// Smoke bound on the resample output's distribution: the chi-square
/// statistic of the ancestor counts must stay below `factor * bins + 100`.
/// A correct resampler lands near `bins`; corrupted index math (constant
/// ancestors, off-by-one group offsets) lands orders of magnitude higher.
/// Groups smaller than 8 particles are skipped (no statistical power).
template <typename T>
void check_resample_distribution(std::span<const T> weights,
                                 std::span<const std::uint32_t> ancestors,
                                 std::size_t group, double factor = 12.0,
                                 const char* kernel = "resampling") {
  const std::size_t n = weights.size();
  if (n < 8) return;
  double total = 0.0;
  for (const T w : weights) total += static_cast<double>(w);
  if (!(total > 0.0)) {
    fail(kernel, "non-positive total weight fed to resampling", group);
  }
  std::vector<double> expected(n);
  const double draws = static_cast<double>(ancestors.size());
  for (std::size_t i = 0; i < n; ++i) {
    expected[i] = draws * static_cast<double>(weights[i]) / total;
  }
  std::size_t bins = 0;
  const double chi2 = chi_square_statistic(expected, ancestors, &bins);
  const double bound = factor * static_cast<double>(bins) + 100.0;
  if (chi2 > bound) {
    fail(kernel,
         "ancestor distribution failed the chi-square smoke bound: chi2=" +
             std::to_string(chi2) + " > " + std::to_string(bound) + " (" +
             std::to_string(bins) + " bins)",
         group);
  }
}

/// Post-condition of Metropolis resampling: the ancestor counts match the
/// *B-step chain* distribution, not the weight distribution -- for finite B
/// the chain is biased by design, so check_resample_distribution's null
/// hypothesis is wrong for it. This checker advances the exact Metropolis
/// transition kernel (propose uniform, accept min(1, w_j/w_k)) B times from
/// the lanes' self-start (one chain per index) and applies the same
/// chi-square smoke bound against the resulting expected counts. O(n^2 * B)
/// host-side; groups past the `max_work` budget are skipped (checked mode
/// targets small debug configurations).
template <typename T>
void check_metropolis_distribution(std::span<const T> weights,
                                   std::span<const std::uint32_t> ancestors,
                                   std::size_t chain_steps, std::size_t group,
                                   double factor = 12.0,
                                   std::size_t max_work = std::size_t{1} << 22,
                                   const char* kernel = "resampling") {
  const std::size_t n = weights.size();
  if (n < 8 || chain_steps == 0) return;
  if (n * n * chain_steps > max_work) return;
  // Expected counts: one lane starts on every index, so the count vector
  // starts at all-ones and is pushed through the transition kernel B times.
  std::vector<double> x(n, 1.0);
  std::vector<double> next(n);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t b = 0; b < chain_steps; ++b) {
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t k = 0; k < n; ++k) {
      const double mass = x[k];
      if (mass <= 0.0) continue;
      const double wk = static_cast<double>(weights[k]);
      double stay = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        const double wj = static_cast<double>(weights[j]);
        const double accept =
            wk <= 0.0 ? 1.0 : (wj >= wk ? 1.0 : wj / wk);
        next[j] += mass * inv_n * accept;
        stay += inv_n * (1.0 - accept);
      }
      next[k] += mass * stay;
    }
    x.swap(next);
  }
  std::size_t bins = 0;
  const double chi2 = chi_square_statistic(x, ancestors, &bins);
  const double bound = factor * static_cast<double>(bins) + 100.0;
  if (chi2 > bound) {
    fail(kernel,
         "ancestor distribution failed the Metropolis chain chi-square "
         "bound: chi2=" +
             std::to_string(chi2) + " > " + std::to_string(bound) + " (" +
             std::to_string(bins) + " bins, B=" + std::to_string(chain_steps) +
             ")",
         group);
  }
}

/// Pre-condition of rejection resampling: every weight lies in [0, w_max].
/// Rejection's acceptance test u < w/w_max is only a valid thinning when
/// w_max bounds the weights; a weight above the bound is silently
/// under-sampled, the exact bug class this check exists to surface.
template <typename T>
void check_weight_bound(std::span<const T> weights, T w_max, std::size_t group,
                        const char* kernel = "resampling") {
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const T w = weights[i];
    if (!(w >= T(0)) || w > w_max) {
      fail(kernel,
           "weight " + std::to_string(i) + " = " +
               std::to_string(static_cast<double>(w)) +
               " outside [0, w_max=" + std::to_string(static_cast<double>(w_max)) +
               "] fed to rejection resampling",
           group);
    }
  }
}

// ---------------------------------------------------------------------------
// InvariantChecker: per-filter stateful checker.
// ---------------------------------------------------------------------------

/// Owned by a filter when checking is enabled. Stateless checks forward to
/// the free functions above; the stateful part tracks RandomBuffer
/// consumption high-water marks against the sized budgets and collects
/// violations recorded from inside device kernels (where throwing would
/// kill a worker thread) for a deferred host-side throw.
class InvariantChecker {
 public:
  /// `normals_budget` / `uniforms_budget`: the per-group RandomBuffer
  /// capacities (npg / upg) every round's consumption must stay within.
  InvariantChecker(std::size_t n_filters, std::size_t particles_per_filter,
                   std::size_t normals_budget, std::size_t uniforms_budget);

  [[nodiscard]] std::size_t group_count() const { return n_filters_; }
  [[nodiscard]] std::size_t group_size() const { return m_; }

  // --- RandomBuffer budget tracking -------------------------------------
  /// Records that a kernel consumed per-group prefixes of `normals` /
  /// `uniforms` variates this round (extents, i.e. one past the highest
  /// index touched). Throws when an extent exceeds the sized budget.
  void note_rng_use(std::size_t normals, std::size_t uniforms,
                    const char* kernel);
  [[nodiscard]] std::size_t normals_high_water() const {
    return normals_hwm_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t uniforms_high_water() const {
    return uniforms_hwm_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t normals_budget() const { return normals_budget_; }
  [[nodiscard]] std::size_t uniforms_budget() const { return uniforms_budget_; }

  /// Post-condition of the PRNG kernel: every normal is finite and every
  /// uniform lies in [0, 1).
  template <typename T>
  void check_prng_buffers(std::span<const T> normals,
                          std::span<const T> uniforms) const {
    const std::size_t npg = n_filters_ ? normals.size() / n_filters_ : 0;
    const std::size_t upg = n_filters_ ? uniforms.size() / n_filters_ : 0;
    for (std::size_t i = 0; i < normals.size(); ++i) {
      if (!std::isfinite(normals[i])) {
        fail("prng", "normal variate " + std::to_string(npg ? i % npg : i) +
                         " is not finite",
             npg ? i / npg : 0);
      }
    }
    for (std::size_t i = 0; i < uniforms.size(); ++i) {
      const T u = uniforms[i];
      if (!(u >= T(0)) || u >= T(1)) {
        fail("prng", "uniform variate " + std::to_string(upg ? i % upg : i) +
                         " outside [0, 1)",
             upg ? i / upg : 0);
      }
    }
  }

  // --- deferred in-kernel expectations ----------------------------------
  /// Usable from inside device kernels: records (never throws) the first
  /// failed expectation. Thread-safe.
  void expect(bool ok, const char* kernel, const char* what, std::size_t group,
              std::size_t value, std::size_t bound);
  /// Usable from inside device kernels: `value` must lie in [lo, hi).
  void expect_in_range(std::size_t value, std::size_t lo, std::size_t hi,
                       const char* kernel, const char* what, std::size_t group) {
    if (value >= lo && value < hi) [[likely]] {
      return;
    }
    expect(false, kernel, what, group, value, hi);
  }
  /// Host-side: throws InvariantViolation if any expectation recorded a
  /// failure since the last commit.
  void commit(const char* kernel);

 private:
  std::size_t n_filters_;
  std::size_t m_;
  std::size_t normals_budget_;
  std::size_t uniforms_budget_;
  std::atomic<std::size_t> normals_hwm_{0};
  std::atomic<std::size_t> uniforms_hwm_{0};
  std::atomic<bool> failed_{false};
  std::mutex failure_mutex_;
  std::string failure_message_;  // guarded by failure_mutex_
  std::size_t failure_group_ = 0;
};

// ---------------------------------------------------------------------------
// CheckedDevice: launch decorator enforcing the device contract itself.
// ---------------------------------------------------------------------------

/// Wraps a device::Device and verifies, per launch, that the emulator
/// invoked every work group exactly once (the exactly-once coverage the
/// kernel-barrier semantics promise). The filters route their launches
/// through a CheckedDevice when invariant checking is enabled.
class CheckedDevice {
 public:
  explicit CheckedDevice(device::Device& dev) : dev_(dev) {}

  [[nodiscard]] device::Device& underlying() { return dev_; }

  template <typename Kernel>
  void launch(const char* kernel_name, std::size_t num_groups, Kernel&& kernel) {
    hits_.assign(num_groups, 0);
    dev_.launch(num_groups, [&](std::size_t g) {
      std::atomic_ref<std::uint32_t>(hits_[g]).fetch_add(
          1, std::memory_order_relaxed);
      kernel(g);
    });
    for (std::size_t g = 0; g < num_groups; ++g) {
      if (hits_[g] != 1) {
        fail(kernel_name,
             "group executed " + std::to_string(hits_[g]) +
                 " times (expected exactly once)",
             g);
      }
    }
  }

 private:
  device::Device& dev_;
  std::vector<std::uint32_t> hits_;
};

}  // namespace esthera::debug
