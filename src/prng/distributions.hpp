// Conversions from uniform bits to floating-point variates: U(0,1) and the
// Box-Muller transform to N(0,1), as used by the paper's PRNG kernel
// (MTGP + Box-Muller, Sec. VI-A).
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <utility>

namespace esthera::prng {

/// Maps 32 uniform bits to a float in [0, 1) with 24-bit resolution.
inline float u01f(std::uint32_t bits) {
  return static_cast<float>(bits >> 8) * 0x1.0p-24f;
}

/// Maps 32 uniform bits to a double in [0, 1) (32-bit resolution; enough for
/// resampling draws, the reference filter uses u01d64 below for sampling).
inline double u01d(std::uint32_t bits) { return bits * 0x1.0p-32; }

/// Maps 64 uniform bits to a double in [0, 1) with 53-bit resolution.
inline double u01d64(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

template <typename T>
inline T u01(std::uint32_t bits) {
  if constexpr (sizeof(T) == sizeof(float)) {
    return u01f(bits);
  } else {
    return static_cast<T>(u01d(bits));
  }
}

/// Draws U(0,1) of type T from a 32-bit generator.
template <typename T, typename Gen>
inline T uniform01(Gen& gen) {
  return u01<T>(gen());
}

/// Box-Muller: maps two U(0,1) variates to two independent N(0,1) variates.
/// The first input is nudged away from 0 so log() stays finite.
template <typename T>
inline std::pair<T, T> box_muller(T u1, T u2) {
  constexpr T kTiny = sizeof(T) == sizeof(float) ? T(1.1754944e-38) : T(2.2250738585072014e-308);
  if (u1 < kTiny) u1 = kTiny;
  const T r = std::sqrt(T(-2) * std::log(u1));
  const T theta = T(2) * std::numbers::pi_v<T> * u2;
  return {r * std::cos(theta), r * std::sin(theta)};
}

/// Batched Box-Muller over `draws`, a run of U(0,1) variates in generator
/// draw order. Pair p consumes draws[2p] and draws[2p+1] and produces
/// out[2p], out[2p+1] (an odd-sized `out` still consumes a full pair and
/// discards z1, matching the sized PRNG-kernel budget). Pair p is read
/// before it is written, so `out` may alias `draws` for an in-place fill.
///
/// Draw-pairing contract: the historical fill evaluated
/// `box_muller(uniform01(gen), uniform01(gen))`, whose argument order is
/// unspecified; GCC evaluates right-to-left, so the *first* draw of each
/// pair became the angle input u2 and the *second* the radius input u1.
/// This helper pins that pairing explicitly - box_muller(draws[2p+1],
/// draws[2p]) - so the fills reproduce the seed sequences bit-for-bit on
/// any compiler. The transform calls the scalar libm routines (no
/// fast-math relaxation, no vector-math substitution); a `#pragma omp simd`
/// here measures *slower* because the transcendental calls serialize the
/// lanes anyway.
template <typename T>
inline void box_muller_fill(std::span<const T> draws, std::span<T> out) {
  const std::size_t pairs = out.size() / 2;
  assert(draws.size() >= 2 * ((out.size() + 1) / 2));
  const T* const d = draws.data();
  T* const o = out.data();
  for (std::size_t p = 0; p < pairs; ++p) {
    const auto [z0, z1] = box_muller(d[2 * p + 1], d[2 * p]);
    o[2 * p] = z0;
    o[2 * p + 1] = z1;
  }
  if (out.size() % 2 == 1) {
    const auto [z0, z1] = box_muller(d[out.size()], d[out.size() - 1]);
    o[out.size() - 1] = z0;
    (void)z1;
  }
}

/// Stateful N(0,1) source over any 32-bit generator; caches the second
/// Box-Muller output so no variate is wasted.
template <typename T, typename Gen>
class NormalSource {
 public:
  explicit NormalSource(Gen& gen) : gen_(gen) {}

  T operator()() {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    // Draw order pinned to box_muller_fill's contract: the first draw is
    // the angle input u2, the second the radius input u1 (historically
    // GCC's right-to-left argument evaluation; now explicit so the seed
    // sequences are compiler-independent).
    const T u2 = uniform01<T>(gen_);
    const T u1 = uniform01<T>(gen_);
    const auto [z0, z1] = box_muller(u1, u2);
    spare_ = z1;
    has_spare_ = true;
    return z0;
  }

 private:
  Gen& gen_;
  T spare_{};
  bool has_spare_ = false;
};

}  // namespace esthera::prng
