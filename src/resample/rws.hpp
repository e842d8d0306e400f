// Roulette Wheel Selection resampling (paper Sec. VI-F): a parallel prefix
// sum builds the cumulative weight array, then every draw multiplies one
// uniform variate by the local weight sum and binary-searches the highest
// index whose cumulative weight is not larger. Complexity Theta(n) init,
// Theta(log n) per sample.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>

#include "sortnet/scan.hpp"

namespace esthera::resample {

/// Builds the inclusive cumulative-weight array in `cumsum` (same size as
/// `weights`) and returns the total weight. Uses the Blelloch lock-step
/// scan when the size is a power of two, matching the device kernel.
template <typename T>
T build_cumulative(std::span<const T> weights, std::span<T> cumsum,
                   sortnet::NetCounters* nc = nullptr) {
  assert(cumsum.size() == weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) cumsum[i] = weights[i];
  if (sortnet::is_pow2(cumsum.size())) {
    const T total = sortnet::blelloch_exclusive_scan<T>(cumsum, nc);
    // Convert exclusive to inclusive: shift left, append total.
    for (std::size_t i = 0; i + 1 < cumsum.size(); ++i) cumsum[i] = cumsum[i + 1];
    if (!cumsum.empty()) cumsum[cumsum.size() - 1] = total;
    return total;
  }
  return sortnet::inclusive_scan_inplace(cumsum);
}

/// Binary search: smallest index i with cumsum[i] >= target, clamped to
/// the last index. Branch-free lower bound: each halving step advances by
/// `half` times the comparison bit (a conditional move, not a jump), so the
/// search costs log2(n) compares and no mispredictions. On any
/// non-decreasing cumsum (and for NaN targets, which no entry is below) the
/// index equals the classic lo/hi bisection's.
template <typename T>
std::size_t upper_index(std::span<const T> cumsum, T target) {
  std::size_t len = cumsum.size();
  if (len == 0) return static_cast<std::size_t>(-1);
  std::size_t lo = 0;
  while (len > 1) {
    const std::size_t half = len / 2;
    lo += static_cast<std::size_t>(cumsum[lo + half - 1] < target) * half;
    len -= half;
  }
  lo += static_cast<std::size_t>(cumsum[lo] < target);
  return lo < cumsum.size() ? lo : cumsum.size() - 1;
}

/// Roulette Wheel Selection: draws `out.size()` indices with replacement
/// from the discrete distribution given by `weights` (non-negative, not
/// necessarily normalized), consuming one uniform variate per draw.
/// `cumsum` is caller-provided scratch of the same size as `weights`.
template <typename T>
void rws_resample(std::span<const T> weights, std::span<const T> uniforms,
                  std::span<std::uint32_t> out, std::span<T> cumsum,
                  sortnet::NetCounters* nc = nullptr) {
  assert(uniforms.size() >= out.size());
  const T total = build_cumulative(weights, cumsum, nc);
  assert(total > T(0) && "RWS requires positive total weight");
  for (std::size_t s = 0; s < out.size(); ++s) {
    const T target = uniforms[s] * total;
    out[s] = static_cast<std::uint32_t>(upper_index<T>(cumsum, target));
  }
}

}  // namespace esthera::resample
