// Work-group prefix sums and reductions executed as their GPU lock-step
// schedules: Blelloch up-sweep/down-sweep scan (paper Sec. VI-F uses it to
// build the cumulative-weight array for Roulette Wheel Selection, after
// Harris et al., GPU Gems 3 ch. 39) and tree reductions for the global
// estimate (Sec. VI-D).
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "sortnet/bitonic.hpp"  // is_pow2

namespace esthera::sortnet {

/// Blelloch exclusive scan in place; returns the total sum.
/// Requires a power-of-two size (pad externally otherwise).
template <typename T>
T blelloch_exclusive_scan(std::span<T> data, NetCounters* nc = nullptr) {
  const std::size_t n = data.size();
  if (n == 0) return T(0);
  if (n == 1) {
    const T total = data[0];
    data[0] = T(0);
    return total;
  }
  assert(is_pow2(n) && "blelloch scan requires a power-of-two size");
  // Up-sweep (reduce) phase.
  for (std::size_t d = 1; d < n; d <<= 1) {
    if (nc) ++nc->scan_sweeps;
    for (std::size_t i = 2 * d - 1; i < n; i += 2 * d) {
      data[i] += data[i - d];
    }
  }
  const T total = data[n - 1];
  data[n - 1] = T(0);
  // Down-sweep phase.
  for (std::size_t d = n >> 1; d >= 1; d >>= 1) {
    if (nc) ++nc->scan_sweeps;
    for (std::size_t i = 2 * d - 1; i < n; i += 2 * d) {
      const T t = data[i - d];
      data[i - d] = data[i];
      data[i] += t;
    }
  }
  return total;
}

/// Inclusive scan built on the exclusive scan; returns the total sum.
template <typename T>
T inclusive_scan_inplace(std::span<T> data) {
  if (data.empty()) return T(0);
  // Serial recurrence matches the lock-step result exactly for addition; we
  // keep the Blelloch routine for fidelity tests and use it where the
  // device path scans, while this helper serves non-power-of-two sizes.
  T acc = T(0);
  for (auto& v : data) {
    acc += v;
    v = acc;
  }
  return acc;
}

/// Tree reduction: index of the maximum element (ties resolve to the lowest
/// index, matching the deterministic GPU reduction the paper uses to pick
/// the highest-weight particle).
template <typename T>
std::size_t reduce_max_index(std::span<const T> data) {
  assert(!data.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < data.size(); ++i) {
    if (data[i] > data[best]) best = i;
  }
  return best;
}

/// Tree reduction: sum of all elements using pairwise (power-of-two stride)
/// combination, the schedule a work-group reduction executes. Matches
/// serial summation for exact types; for floating point the pairwise order
/// is actually *better* conditioned.
template <typename T>
T tree_reduce_sum(std::span<const T> data) {
  const std::size_t n = data.size();
  if (n == 0) return T(0);
  std::vector<T> buf(data.begin(), data.end());
  std::size_t m = n;
  while (m > 1) {
    const std::size_t half = (m + 1) / 2;
    for (std::size_t i = 0; i + half < m; ++i) buf[i] += buf[i + half];
    m = half;
  }
  return buf[0];
}

}  // namespace esthera::sortnet
