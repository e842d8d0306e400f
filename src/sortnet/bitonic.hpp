// Bitonic sorting network, executed as the fixed lock-step schedule a GPU
// work group would run (paper Sec. VI-C: local sort of sub-filter weights
// with an index array tracking the permutation). Every (k, j) phase is a
// barrier-separated round of independent compare-exchanges; we evaluate the
// live lanes of each round sequentially, as branch-free selects, which
// executes the identical schedule.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

namespace esthera::sortnet {

/// Deterministic work tally for the lock-step device algorithms: every
/// count depends only on the problem size (and, for scans, on whether the
/// caller scanned at all) -- never on thread scheduling or wall-clock.
/// Callers pass a per-group instance into the sort/scan routines and fold
/// the totals into the telemetry registry's machine-independent `work.*`
/// counters, the cost proxies the bench regression gate diffs.
struct NetCounters {
  std::uint64_t lockstep_phases = 0;    ///< barrier-separated (k, j) sort rounds
  std::uint64_t compare_exchanges = 0;  ///< compare-exchange lanes evaluated
  std::uint64_t scan_sweeps = 0;        ///< Blelloch up/down-sweep rounds
};

/// True when n is a power of two (and nonzero).
constexpr bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

namespace detail {

/// sw ? x : y as a bit mask for arithmetic types, so the compiler emits
/// neither a branch nor a float compare-and-jump: the select copies the
/// chosen value's bits exactly (NaN payloads and signed zeros included).
template <typename V>
inline V select(bool sw, V x, V y) {
  if constexpr (std::is_arithmetic_v<V> && sizeof(V) <= sizeof(std::uint64_t)) {
    using U = std::conditional_t<
        sizeof(V) == 1, std::uint8_t,
        std::conditional_t<sizeof(V) == 2, std::uint16_t,
                           std::conditional_t<sizeof(V) == 4, std::uint32_t,
                                              std::uint64_t>>>;
    const U mask = static_cast<U>(U(0) - static_cast<U>(sw));
    return std::bit_cast<V>(static_cast<U>((std::bit_cast<U>(x) & mask) |
                                           (std::bit_cast<U>(y) & ~mask)));
  } else {
    return sw ? x : y;
  }
}

/// Runs the bitonic schedule over n lanes (a power of two), calling
/// cx(a, b, ascending) once per compare-exchange pair of each (k, j) phase.
/// Within a phase the pair set {(i, i^j) : (i & j) == 0} is exactly the set
/// of (base + o, base + o + j) pairs over 2j-aligned blocks, and the
/// direction bit (i & k) == 0 is constant per block (2j <= k), so the
/// enumeration visits only the n/2 live lanes and hoists the direction out
/// of the inner loop. The pairs of one block are independent lanes, which
/// the `omp simd` pragma lets the compiler batch.
template <typename CompareExchange>
inline void bitonic_schedule(std::size_t n, NetCounters* nc,
                             CompareExchange cx) {
  for (std::size_t k = 2; k <= n; k <<= 1) {
    for (std::size_t j = k >> 1; j > 0; j >>= 1) {
      if (nc) {
        ++nc->lockstep_phases;
        nc->compare_exchanges += n / 2;
      }
      for (std::size_t base = 0; base < n; base += 2 * j) {
        const bool ascending = (base & k) == 0;
#pragma omp simd
        for (std::size_t a = base; a < base + j; ++a) cx(a, a + j, ascending);
      }
    }
  }
}

}  // namespace detail

/// Sorts `keys` ascending under `cmp` using the bitonic network.
/// Requires keys.size() to be a power of two (sub-filter sizes are).
///
/// Every compare-exchange is a branch-free select on the decision
/// `cmp(keys[b], keys[a]) == ascending`, the lock-step lane rule of the
/// device kernel: NaN keys (for which cmp is false either way), infinities
/// and ties land exactly where a lane-by-lane evaluation puts them.
template <typename K, typename Compare = std::less<K>>
void bitonic_sort(std::span<K> keys, Compare cmp = {}, NetCounters* nc = nullptr) {
  const std::size_t n = keys.size();
  if (n <= 1) return;
  assert(is_pow2(n) && "bitonic_sort requires a power-of-two size");
  K* const key = keys.data();
  detail::bitonic_schedule(n, nc, [&](std::size_t a, std::size_t b, bool ascending) {
    const K ka = key[a];
    const K kb = key[b];
    const bool sw = cmp(kb, ka) == ascending;
    key[a] = detail::select(sw, kb, ka);
    key[b] = detail::select(sw, ka, kb);
  });
}

/// Sorts `keys` ascending under `cmp`, applying the same exchanges to the
/// index array `idx` so that callers can gather full particle states by the
/// resulting permutation. Requires a power-of-two size; same schedule and
/// decision rule as bitonic_sort.
template <typename K, typename I, typename Compare = std::less<K>>
void bitonic_sort_by_key(std::span<K> keys, std::span<I> idx, Compare cmp = {},
                         NetCounters* nc = nullptr) {
  const std::size_t n = keys.size();
  assert(idx.size() == n);
  if (n <= 1) return;
  assert(is_pow2(n) && "bitonic_sort_by_key requires a power-of-two size");
  K* const key = keys.data();
  I* const ind = idx.data();
  detail::bitonic_schedule(n, nc, [&](std::size_t a, std::size_t b, bool ascending) {
    const K ka = key[a];
    const K kb = key[b];
    const I ia = ind[a];
    const I ib = ind[b];
    const bool sw = cmp(kb, ka) == ascending;
    key[a] = detail::select(sw, kb, ka);
    key[b] = detail::select(sw, ka, kb);
    ind[a] = detail::select(sw, ib, ia);
    ind[b] = detail::select(sw, ia, ib);
  });
}

/// Gathers `src` rows into `dst` by `perm`: dst row i = src row perm[i].
/// Rows are `dim` contiguous values. This is the paper's "apply the index
/// array with non-contiguous reads, contiguous writes" reorder step.
template <typename T, typename I>
void gather_rows(std::span<const T> src, std::span<T> dst, std::span<const I> perm,
                 std::size_t dim) {
  assert(dst.size() == perm.size() * dim);
  assert(src.size() >= dst.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    // A corrupt permutation entry must not read out of bounds.
    assert(static_cast<std::size_t>(perm[i]) * dim + dim <= src.size());
    const T* in = src.data() + static_cast<std::size_t>(perm[i]) * dim;
    T* out = dst.data() + i * dim;
    for (std::size_t d = 0; d < dim; ++d) out[d] = in[d];
  }
}

}  // namespace esthera::sortnet
