// Low-variance resampling schemes beyond the two the paper benchmarks:
// systematic, stratified, and plain multinomial selection. These are the
// standard comparators in the particle-filtering literature (Arulampalam et
// al. 2002) and serve as extension points and test oracles.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>

#include "resample/rws.hpp"

namespace esthera::resample {

/// Systematic resampling: one uniform u positions a comb of n equally
/// spaced pointers u + k/n over the normalized cumulative weights.
/// Minimal variance among unbiased schemes; consumes a single uniform.
template <typename T>
void systematic_resample(std::span<const T> weights, T u,
                         std::span<std::uint32_t> out, std::span<T> cumsum,
                         sortnet::NetCounters* nc = nullptr) {
  const std::size_t draws = out.size();
  if (draws == 0) return;
  const T total = build_cumulative(weights, cumsum, nc);
  assert(total > T(0));
  const T step = total / static_cast<T>(draws);
  T pointer = u * step;
  std::size_t idx = 0;
  for (std::size_t s = 0; s < draws; ++s) {
    while (idx + 1 < cumsum.size() && cumsum[idx] < pointer) ++idx;
    out[s] = static_cast<std::uint32_t>(idx);
    pointer += step;
  }
}

/// Stratified resampling: one uniform per stratum [k/n, (k+1)/n).
template <typename T>
void stratified_resample(std::span<const T> weights, std::span<const T> uniforms,
                         std::span<std::uint32_t> out, std::span<T> cumsum,
                         sortnet::NetCounters* nc = nullptr) {
  const std::size_t draws = out.size();
  if (draws == 0) return;
  assert(uniforms.size() >= draws);
  const T total = build_cumulative(weights, cumsum, nc);
  assert(total > T(0));
  const T step = total / static_cast<T>(draws);
  std::size_t idx = 0;
  for (std::size_t s = 0; s < draws; ++s) {
    const T pointer = (static_cast<T>(s) + uniforms[s]) * step;
    while (idx + 1 < cumsum.size() && cumsum[idx] < pointer) ++idx;
    out[s] = static_cast<std::uint32_t>(idx);
  }
}

/// Multinomial resampling: n independent draws. Identical distribution to
/// RWS (it *is* RWS); provided under its literature name for clarity.
template <typename T>
void multinomial_resample(std::span<const T> weights, std::span<const T> uniforms,
                          std::span<std::uint32_t> out, std::span<T> cumsum) {
  rws_resample(weights, uniforms, out, cumsum);
}

}  // namespace esthera::resample
