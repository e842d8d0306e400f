// Mersenne Twister MT19937 implemented from scratch (Matsumoto & Nishimura,
// 1998). The paper's device-side PRNG is MTGP, an MT variant with one
// independent generator state per work group; `MtgpStream` builds that
// scheme on top of this core generator.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace esthera::prng {

class MtgpStream;

/// 32-bit Mersenne Twister with the standard MT19937 parameters.
///
/// Bit-exact with std::mt19937 for the same seed (verified by tests), but
/// self-contained so the device emulator does not depend on libstdc++
/// internals and so states can be stored compactly per work group.
class Mt19937 {
 public:
  using result_type = std::uint32_t;

  static constexpr std::uint32_t kDefaultSeed = 5489u;

  explicit Mt19937(std::uint32_t seed = kDefaultSeed) { reseed(seed); }

  /// Re-initializes the state from a 32-bit seed (Knuth's multiplier
  /// recurrence, identical to std::mt19937 seeding).
  void reseed(std::uint32_t seed);

  /// Seeds one generator per entry of `seeds`: generator i holds exactly
  /// the state of Mt19937(seeds[i]). The Knuth recurrences of four
  /// generators run interleaved in one loop, so their multiply latencies
  /// overlap instead of adding up (per-work-group stream setup).
  [[nodiscard]] static std::vector<Mt19937> seeded(
      std::span<const std::uint32_t> seeds);

  /// Next 32 uniformly distributed bits.
  std::uint32_t operator()() {
    if (index_ >= kN) twist();
    return temper(state_[index_++]);
  }

  /// Writes conv(b) for the next out.size() outputs b, in draw order: the
  /// same values as `for (auto& v : out) v = conv((*this)());`, but each
  /// run of the current state block is tempered and converted in one loop.
  template <typename T, typename Conv>
  void fill(std::span<T> out, Conv conv) {
    std::size_t done = 0;
    while (done < out.size()) {
      if (index_ >= kN) twist();
      const std::size_t run = std::min<std::size_t>(
          out.size() - done, static_cast<std::size_t>(kN - index_));
      const std::uint32_t* src = state_.data() + index_;
      T* dst = out.data() + done;
      for (std::size_t i = 0; i < run; ++i) dst[i] = conv(temper(src[i]));
      index_ += static_cast<int>(run);
      done += run;
    }
  }

  /// Skips `n` outputs.
  void discard(unsigned long long n);

  static constexpr std::uint32_t min() { return 0; }
  static constexpr std::uint32_t max() { return 0xffffffffu; }

  /// Number of 32-bit words in the raw generator state.
  static constexpr std::size_t kStateWords = 624;

  /// Raw state export for checkpointing: the 624 state words. Together
  /// with state_index() this captures the generator exactly; restoring
  /// both reproduces the output sequence bit-for-bit.
  [[nodiscard]] std::span<const std::uint32_t> state_words() const {
    return state_;
  }
  /// Position within the current state block, in [0, kStateWords].
  [[nodiscard]] std::uint32_t state_index() const {
    return static_cast<std::uint32_t>(index_);
  }
  /// Restores a state previously captured via state_words()/state_index().
  /// Throws std::invalid_argument on a wrong word count or index.
  void set_state(std::span<const std::uint32_t> words, std::uint32_t index);

  /// Key of the unseeded constructor. Only Mt19937 and MtgpStream can make
  /// one, so no other code can hold a generator whose state is unwritten.
  class Unseeded {
    Unseeded() = default;
    friend class Mt19937;
    friend class MtgpStream;
  };

  /// A generator whose state words are left unwritten, for a caller that
  /// writes every word before the first draw: seeded() runs the Knuth
  /// recurrences into it, and MtgpStream's snapshot constructor calls
  /// set_state(). Constructed in place (emplace_back), so nothing zero-fills
  /// or copies a state that is about to be overwritten.
  explicit Mt19937(Unseeded /*key*/) {}

 private:
  static constexpr int kN = 624;
  static constexpr int kM = 397;
  static constexpr std::uint32_t kMatrixA = 0x9908b0dfu;
  static constexpr std::uint32_t kUpperMask = 0x80000000u;
  static constexpr std::uint32_t kLowerMask = 0x7fffffffu;

  static constexpr std::uint32_t temper(std::uint32_t y) {
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    return y ^ (y >> 18);
  }

  void twist();

  // No initializer: every constructor either seeds all kN words or is the
  // Unseeded one, whose caller writes them.
  std::array<std::uint32_t, kN> state_;
  int index_ = kN;
};

/// SplitMix64: a tiny, well-mixed 64-bit generator used only to derive
/// decorrelated seeds for per-work-group generator states.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t operator()() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

}  // namespace esthera::prng
