// Sorting-network and scan tests: the lock-step bitonic sort, permutation
// tracking, row gathering, Blelloch scan and the reductions are verified
// against their serial oracles over parameterized sizes and input patterns.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "sortnet/bitonic.hpp"
#include "sortnet/scan.hpp"

namespace {

using namespace esthera;

TEST(Pow2, IsPow2) {
  EXPECT_FALSE(sortnet::is_pow2(0));
  EXPECT_TRUE(sortnet::is_pow2(1));
  EXPECT_TRUE(sortnet::is_pow2(2));
  EXPECT_FALSE(sortnet::is_pow2(3));
  EXPECT_TRUE(sortnet::is_pow2(1024));
  EXPECT_FALSE(sortnet::is_pow2(1023));
}

TEST(Pow2, NextPow2) {
  EXPECT_EQ(sortnet::next_pow2(1), 1u);
  EXPECT_EQ(sortnet::next_pow2(2), 2u);
  EXPECT_EQ(sortnet::next_pow2(3), 4u);
  EXPECT_EQ(sortnet::next_pow2(513), 1024u);
  EXPECT_EQ(sortnet::next_pow2(1024), 1024u);
}

enum class Pattern { kRandom, kSorted, kReverse, kConstant, kFewUniques, kAlternating };

std::vector<float> make_input(std::size_t n, Pattern pattern, std::uint32_t seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<float> dist(-100.0f, 100.0f);
  std::vector<float> v(n);
  switch (pattern) {
    case Pattern::kRandom:
      for (auto& x : v) x = dist(gen);
      break;
    case Pattern::kSorted:
      for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<float>(i);
      break;
    case Pattern::kReverse:
      for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<float>(n - i);
      break;
    case Pattern::kConstant:
      for (auto& x : v) x = 3.5f;
      break;
    case Pattern::kFewUniques:
      for (auto& x : v) x = static_cast<float>(gen() % 4);
      break;
    case Pattern::kAlternating:
      for (std::size_t i = 0; i < n; ++i) v[i] = (i % 2 == 0) ? 1.0f : -1.0f;
      break;
  }
  return v;
}

class BitonicTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, Pattern>> {};

TEST_P(BitonicTest, SortsAscending) {
  const auto [n, pattern] = GetParam();
  auto v = make_input(n, pattern, 42);
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  sortnet::bitonic_sort(std::span<float>(v));
  EXPECT_EQ(v, expected);
}

TEST_P(BitonicTest, SortsDescendingWithGreater) {
  const auto [n, pattern] = GetParam();
  auto v = make_input(n, pattern, 43);
  auto expected = v;
  std::sort(expected.begin(), expected.end(), std::greater<float>());
  sortnet::bitonic_sort(std::span<float>(v), std::greater<float>());
  EXPECT_EQ(v, expected);
}

TEST_P(BitonicTest, ByKeyKeepsPermutationConsistent) {
  const auto [n, pattern] = GetParam();
  auto keys = make_input(n, pattern, 44);
  const auto original = keys;
  std::vector<std::uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  sortnet::bitonic_sort_by_key(std::span<float>(keys), std::span<std::uint32_t>(idx));
  // Keys sorted.
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  // idx is a permutation.
  auto perm = idx;
  std::sort(perm.begin(), perm.end());
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(perm[i], i);
  // idx maps original positions to sorted keys.
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(keys[i], original[idx[i]]);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndPatterns, BitonicTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 4, 8, 16, 64, 256, 1024),
                       ::testing::Values(Pattern::kRandom, Pattern::kSorted,
                                         Pattern::kReverse, Pattern::kConstant,
                                         Pattern::kFewUniques,
                                         Pattern::kAlternating)));

// The lane-by-lane reference network: every (k, j) phase walks all n lanes,
// skips the upper lane of each pair, and swaps behind a data-dependent
// branch. The production kernel enumerates only the live lanes and swaps
// with branch-free selects; it must reproduce this loop's keys and
// permutation exactly, whatever the key values.
template <typename K, typename Compare>
void reference_bitonic_by_key(std::span<K> keys, std::span<std::uint32_t> idx,
                              Compare cmp) {
  const std::size_t n = keys.size();
  for (std::size_t k = 2; k <= n; k <<= 1) {
    for (std::size_t j = k >> 1; j > 0; j >>= 1) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t l = i ^ j;
        if (l <= i) continue;
        const bool ascending = (i & k) == 0;
        if (cmp(keys[l], keys[i]) == ascending) {
          std::swap(keys[i], keys[l]);
          std::swap(idx[i], idx[l]);
        }
      }
    }
  }
}

// Ties, infinities, signed zeros and NaNs mixed into random keys: the cases
// where a select-based network could land a value differently from the
// branchy reference if the decision rule drifted.
std::vector<float> adversarial_keys(std::size_t n, std::uint32_t seed) {
  std::mt19937 gen(seed);
  const float specials[] = {-std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            0.0f, -0.0f, 1.0f, 1.0f, -2.5f};
  std::vector<float> v(n);
  for (auto& x : v) {
    const std::uint32_t r = gen() % 8;
    x = r < 4 ? specials[gen() % std::size(specials)]
              : static_cast<float>(static_cast<int>(gen() % 16) - 8);
  }
  return v;
}

std::vector<std::uint32_t> key_bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> bits(v.size());
  std::memcpy(bits.data(), v.data(), v.size() * sizeof(float));
  return bits;
}

template <typename Compare>
void expect_matches_reference(Compare cmp, std::uint32_t seed) {
  for (std::size_t n = 2; n <= 1024; n <<= 1) {
    const auto input = adversarial_keys(n, seed + static_cast<std::uint32_t>(n));
    auto ref_keys = input;
    std::vector<std::uint32_t> ref_idx(n);
    std::iota(ref_idx.begin(), ref_idx.end(), 0u);
    auto keys = ref_keys;
    auto idx = ref_idx;
    reference_bitonic_by_key(std::span<float>(ref_keys),
                             std::span<std::uint32_t>(ref_idx), cmp);
    sortnet::NetCounters nc;
    sortnet::bitonic_sort_by_key(std::span<float>(keys),
                                 std::span<std::uint32_t>(idx), cmp, &nc);
    EXPECT_EQ(key_bits(keys), key_bits(ref_keys)) << "n=" << n;
    EXPECT_EQ(idx, ref_idx) << "n=" << n;
    const std::size_t log_n = static_cast<std::size_t>(std::countr_zero(n));
    EXPECT_EQ(nc.lockstep_phases, log_n * (log_n + 1) / 2) << "n=" << n;
    EXPECT_EQ(nc.compare_exchanges, nc.lockstep_phases * n / 2) << "n=" << n;
    // The keys-only network makes the same decisions.
    auto plain = input;
    sortnet::bitonic_sort(std::span<float>(plain), cmp);
    EXPECT_EQ(key_bits(plain), key_bits(ref_keys)) << "n=" << n;
  }
}

TEST(BitonicReference, BranchFreeMatchesLaneByLaneDescending) {
  expect_matches_reference(std::greater<float>(), 7);
}

TEST(BitonicReference, BranchFreeMatchesLaneByLaneAscending) {
  expect_matches_reference(std::less<float>(), 8);
}

TEST(BitonicReference, DoubleKeysMatchLaneByLane) {
  for (std::size_t n = 2; n <= 512; n <<= 1) {
    std::mt19937 gen(static_cast<std::uint32_t>(n));
    std::vector<double> ref_keys(n);
    for (auto& x : ref_keys) {
      x = gen() % 5 == 0 ? -std::numeric_limits<double>::infinity()
                         : static_cast<double>(gen() % 7);
    }
    auto keys = ref_keys;
    std::vector<std::uint32_t> ref_idx(n);
    std::iota(ref_idx.begin(), ref_idx.end(), 0u);
    auto idx = ref_idx;
    reference_bitonic_by_key(std::span<double>(ref_keys),
                             std::span<std::uint32_t>(ref_idx),
                             std::greater<double>());
    sortnet::bitonic_sort_by_key(std::span<double>(keys),
                                 std::span<std::uint32_t>(idx),
                                 std::greater<double>());
    EXPECT_EQ(keys, ref_keys) << "n=" << n;
    EXPECT_EQ(idx, ref_idx) << "n=" << n;
  }
}

TEST(GatherRows, ReordersStateVectors) {
  const std::size_t dim = 3;
  std::vector<double> src = {0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3};
  std::vector<double> dst(src.size());
  const std::vector<std::uint32_t> perm = {2, 0, 3, 1};
  sortnet::gather_rows<double, std::uint32_t>(src, dst, perm, dim);
  const std::vector<double> expected = {2, 2, 2, 0, 0, 0, 3, 3, 3, 1, 1, 1};
  EXPECT_EQ(dst, expected);
}

TEST(GatherRows, WithDuplicatesReplicates) {
  const std::size_t dim = 2;
  std::vector<int> src = {10, 11, 20, 21};
  std::vector<int> dst(4);
  const std::vector<std::uint32_t> perm = {1, 1};
  sortnet::gather_rows<int, std::uint32_t>(src, dst, perm, dim);
  EXPECT_EQ(dst, (std::vector<int>{20, 21, 20, 21}));
}

class ScanTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScanTest, BlellochMatchesSerialExclusive) {
  const std::size_t n = GetParam();
  std::mt19937 gen(7);
  std::vector<double> v(n);
  for (auto& x : v) x = static_cast<double>(gen() % 100);
  std::vector<double> expected(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    expected[i] = acc;
    acc += v[i];
  }
  const double total = sortnet::blelloch_exclusive_scan(std::span<double>(v));
  EXPECT_DOUBLE_EQ(total, acc);
  EXPECT_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(Pow2Sizes, ScanTest,
                         ::testing::Values<std::size_t>(1, 2, 4, 8, 32, 128, 1024));

TEST(Scan, InclusiveAnySize) {
  std::vector<float> v = {1, 2, 3, 4, 5, 6, 7};
  const float total = sortnet::inclusive_scan_inplace(std::span<float>(v));
  EXPECT_FLOAT_EQ(total, 28.0f);
  EXPECT_EQ(v, (std::vector<float>{1, 3, 6, 10, 15, 21, 28}));
}

TEST(Scan, EmptyAndSingle) {
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(sortnet::blelloch_exclusive_scan(std::span<double>(empty)), 0.0);
  std::vector<double> one = {5.0};
  EXPECT_DOUBLE_EQ(sortnet::blelloch_exclusive_scan(std::span<double>(one)), 5.0);
  EXPECT_DOUBLE_EQ(one[0], 0.0);
}

TEST(Reduce, MaxIndexFirstOfTies) {
  const std::vector<double> v = {1.0, 5.0, 3.0, 5.0, 2.0};
  EXPECT_EQ(sortnet::reduce_max_index<double>(v), 1u);
}

TEST(Reduce, MaxIndexSingle) {
  const std::vector<float> v = {-2.0f};
  EXPECT_EQ(sortnet::reduce_max_index<float>(v), 0u);
}

TEST(Reduce, TreeSumMatchesSerial) {
  std::mt19937 gen(9);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 7u, 64u, 100u, 1000u}) {
    std::vector<double> v(n);
    double serial = 0.0;
    for (auto& x : v) {
      x = static_cast<double>(gen() % 1000) / 7.0;
      serial += x;
    }
    EXPECT_NEAR(sortnet::tree_reduce_sum<double>(v), serial, 1e-9) << "n=" << n;
  }
}

}  // namespace
