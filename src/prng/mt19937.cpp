#include "prng/mt19937.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace esthera::prng {

namespace {

/// Knuth's seeding recurrence: state word i from word i - 1.
constexpr std::uint32_t knuth_next(std::uint32_t prev, int i) {
  return 1812433253u * (prev ^ (prev >> 30)) + static_cast<std::uint32_t>(i);
}

}  // namespace

void Mt19937::reseed(std::uint32_t seed) {
  state_[0] = seed;
  for (int i = 1; i < kN; ++i) state_[i] = knuth_next(state_[i - 1], i);
  index_ = kN;
}

std::vector<Mt19937> Mt19937::seeded(std::span<const std::uint32_t> seeds) {
  std::vector<Mt19937> gens;
  gens.reserve(seeds.size());
  for (std::size_t g = 0; g < seeds.size(); ++g) gens.emplace_back(Unseeded{});
  constexpr std::size_t kLanes = 4;
  std::size_t g = 0;
  for (; g + kLanes <= seeds.size(); g += kLanes) {
    std::uint32_t x[kLanes] = {};
    for (std::size_t l = 0; l < kLanes; ++l) {
      x[l] = seeds[g + l];
      gens[g + l].state_[0] = x[l];
    }
    for (int i = 1; i < kN; ++i) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        x[l] = knuth_next(x[l], i);
        gens[g + l].state_[i] = x[l];
      }
    }
  }
  for (; g < seeds.size(); ++g) gens[g].reseed(seeds[g]);
  return gens;
}

// The standard three-loop twist: no modulo, and the conditional xor of the
// matrix constant becomes a mask. Word i reads words i + 1 and i + M (mod
// N) after the earlier words of this pass were already rewritten, exactly
// as the single-loop reference does.
void Mt19937::twist() {
  const auto mix = [](std::uint32_t upper, std::uint32_t lower,
                      std::uint32_t far) {
    const std::uint32_t y = (upper & kUpperMask) | (lower & kLowerMask);
    return far ^ (y >> 1) ^ ((0u - (y & 1u)) & kMatrixA);
  };
  int i = 0;
  for (; i < kN - kM; ++i) state_[i] = mix(state_[i], state_[i + 1], state_[i + kM]);
  for (; i < kN - 1; ++i) {
    state_[i] = mix(state_[i], state_[i + 1], state_[i + kM - kN]);
  }
  state_[kN - 1] = mix(state_[kN - 1], state_[0], state_[kM - 1]);
  index_ = 0;
}

void Mt19937::discard(unsigned long long n) {
  for (unsigned long long i = 0; i < n; ++i) (*this)();
}

void Mt19937::set_state(std::span<const std::uint32_t> words, std::uint32_t index) {
  if (words.size() != kStateWords) {
    throw std::invalid_argument("Mt19937::set_state: expected " +
                                std::to_string(kStateWords) + " words, got " +
                                std::to_string(words.size()));
  }
  if (index > kStateWords) {
    throw std::invalid_argument("Mt19937::set_state: index " +
                                std::to_string(index) + " out of range");
  }
  std::copy(words.begin(), words.end(), state_.begin());
  index_ = static_cast<int>(index);
}

}  // namespace esthera::prng
