// Pluggable lane-execution backends for the emulated many-core device.
//
// The Device schedules work *groups* over a thread pool; a backend decides
// how the *lanes* inside one group's lock-step phase are evaluated. The
// scalar reference backend walks lanes one at a time (the seed behaviour,
// bit-for-bit); the SIMD backend batches the lanes of each phase into
// `#pragma omp simd` loops over contiguous lane arrays, the way a GPU work
// group executes all lanes of a phase at once (paper Sec. VI). Where one
// kernel is already the fast form for every backend, both LaneOps rows
// point at it: the local sort (sortnet::bitonic_sort_by_key visits only the
// live lanes of each phase with branch-free, lane-batched selects) and the
// Box-Muller fill (prng::box_muller_fill, run in place over the raw draws
// by MtgpStream::fill). The scan and the weighting keep one kernel per
// backend. Both backends run the identical lock-step schedule, so the
// deterministic work.* counters (compare_exchanges, lockstep_phases,
// scan_sweeps, rng_draws) tally identically under either - the
// machine-independent proof of schedule equivalence the regression gate
// relies on - and every batched op is restricted to bit-exact transforms
// (compare-exchange selects, element-independent adds, IEEE-exact math), so
// estimates match the scalar reference bit-for-bit too.
//
// Adding a backend (GPU offload, fixed-point, ...) means adding an enum
// value, a LaneOps table, and a lane_ops() row; everything above the device
// layer selects backends only through FilterConfig/CentralizedOptions or
// the ESTHERA_BACKEND environment variable.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "prng/distributions.hpp"
#include "sortnet/bitonic.hpp"
#include "sortnet/scan.hpp"

namespace esthera::device {

/// How the lanes of a lock-step phase are evaluated.
enum class Backend : std::uint8_t {
  kAuto,    ///< resolve from the process default (override > env > scalar)
  kScalar,  ///< lane-by-lane reference (seed behaviour, bit-for-bit)
  kSimd,    ///< lanes of each phase batched into `#pragma omp simd` loops
};

[[nodiscard]] const char* to_string(Backend b);

/// Parses "auto" / "scalar" / "simd"; throws std::invalid_argument on
/// anything else.
[[nodiscard]] Backend parse_backend(const std::string& name);

/// Process-wide backend override (bench --backend flag); kAuto clears the
/// override. Takes precedence over ESTHERA_BACKEND. Read when a filter
/// whose config says kAuto resolves its backend, so set it before
/// constructing filters.
void set_default_backend(Backend b);

/// The process default: the set_default_backend override when set, else a
/// valid ESTHERA_BACKEND environment value ("scalar" or "simd"; anything
/// else - including "auto" - is ignored rather than trusted), else kScalar.
[[nodiscard]] Backend default_backend();

/// Maps kAuto to default_backend(); returns concrete backends unchanged.
[[nodiscard]] Backend resolve_backend(Backend b);

namespace detail {

/// Descending bitonic sort of (key, index) pairs. One kernel serves every
/// backend: sortnet::bitonic_sort_by_key already enumerates only the live
/// lanes of each phase and compare-exchanges them with branch-free selects
/// in a lane-batched loop.
template <typename T>
void sort_pairs_desc(std::span<T> keys, std::span<std::uint32_t> idx,
                     sortnet::NetCounters* nc) {
  sortnet::bitonic_sort_by_key<T, std::uint32_t>(keys, idx, std::greater<T>(),
                                                 nc);
}

/// Weighting phase over one group's contiguous lane arrays:
/// lw_out[i] = lw_in[i] + loglik[i]. Element-independent IEEE adds, so the
/// batched variant is bit-identical by construction.
template <typename T>
void weigh_lanes_scalar(std::span<const T> lw_in, std::span<const T> loglik,
                        std::span<T> lw_out) {
  for (std::size_t i = 0; i < lw_out.size(); ++i) {
    lw_out[i] = lw_in[i] + loglik[i];
  }
}

template <typename T>
void weigh_lanes_simd(std::span<const T> lw_in, std::span<const T> loglik,
                      std::span<T> lw_out) {
  const std::size_t n = lw_out.size();
  const T* in = lw_in.data();
  const T* ll = loglik.data();
  T* out = lw_out.data();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = in[i] + ll[i];
  }
}

}  // namespace detail

/// The lane-batched phase kernels a backend provides, over one work group's
/// contiguous lane arrays. Scan signature doubles as resample::ScanFn so
/// the cumulative-weight builds inside the resamplers run on the same
/// backend as everything else.
template <typename T>
struct LaneOps {
  /// Descending bitonic sort of (key, index) pairs - the local-sort kernel.
  void (*sort_pairs_desc)(std::span<T> keys, std::span<std::uint32_t> idx,
                          sortnet::NetCounters* nc);
  /// Blelloch exclusive scan in place; returns the total.
  T (*exclusive_scan)(std::span<T> data, sortnet::NetCounters* nc);
  /// lw_out[i] = lw_in[i] + loglik[i] - the weighting phase.
  void (*weigh)(std::span<const T> lw_in, std::span<const T> loglik,
                std::span<T> lw_out);
  /// Box-Muller over U(0,1) draws in generator draw order; `out` may alias
  /// `draws` (see prng::box_muller_fill for the draw-pairing contract).
  void (*normal_fill)(std::span<const T> draws, std::span<T> out);
};

/// The LaneOps table of a concrete backend (kAuto resolves first).
template <typename T>
[[nodiscard]] inline const LaneOps<T>& lane_ops(Backend b) {
  // The sort and Box-Muller rows are shared: their single kernels are
  // already branch-free and lane-batched (sort) or bound by scalar libm
  // calls that no batching speeds up (Box-Muller).
  static const LaneOps<T> kScalarOps{
      &detail::sort_pairs_desc<T>, &sortnet::blelloch_exclusive_scan<T>,
      &detail::weigh_lanes_scalar<T>, &prng::box_muller_fill<T>};
  static const LaneOps<T> kSimdOps{
      &detail::sort_pairs_desc<T>, &sortnet::blelloch_exclusive_scan_simd<T>,
      &detail::weigh_lanes_simd<T>, &prng::box_muller_fill<T>};
  return resolve_backend(b) == Backend::kSimd ? kSimdOps : kScalarOps;
}

}  // namespace esthera::device
