// The half-precision codec of su3/halfprec.h against the textbook element
// conversions, kept here as reference implementations: the decode on every
// int16 (a faster form must round alike), the branch-free encode on every
// float bit pattern (four slow shards of 2^30 patterns each) and, fast, on
// every float in [-1.01, 1.01] at a fixed stride plus the special values,
// and the bit-pattern norm against the float max-abs loop.

#include "su3/halfprec.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cfloat>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace quda {
namespace {

// the reference quantizer: clamp by float compares, round half away from
// zero by a sign branch, NaN to 0
half_t ref_to_half(float x) {
  if (std::isnan(x)) return 0;
  float v = x * kHalfPointScale;
  if (v > kHalfPointScale) v = kHalfPointScale;
  if (v < -kHalfPointScale) v = -kHalfPointScale;
  return static_cast<half_t>(v >= 0 ? v + 0.5f : v - 0.5f);
}

float ref_from_half(half_t h) { return static_cast<float>(h) / kHalfPointScale; }

// the reference norm: the float max-abs loop (a NaN never compares greater)
template <std::size_t N> float ref_norm(const std::array<float, N>& v) {
  float m = 0;
  for (float x : v)
    if (std::abs(x) > m) m = std::abs(x);
  return m == 0.0f ? 1e-37f : m;
}

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

// encode mismatches over the bit patterns [lo, hi) taken every `stride`,
// and over their negations
std::uint64_t encode_mismatches(std::uint64_t lo, std::uint64_t hi, std::uint64_t stride,
                                std::uint32_t& first) {
  std::uint64_t bad = 0;
  for (std::uint64_t b = lo; b < hi; b += stride) {
    const float x = std::bit_cast<float>(static_cast<std::uint32_t>(b));
    if (to_half(x) != ref_to_half(x) && bad++ == 0) first = static_cast<std::uint32_t>(b);
  }
  return bad;
}

TEST(HalfCodec, DecodeEqualsDivisionOnEveryInt16) {
  int bad = 0;
  for (int h = std::numeric_limits<half_t>::min(); h <= std::numeric_limits<half_t>::max(); ++h)
    if (bits(from_half(static_cast<half_t>(h))) != bits(ref_from_half(static_cast<half_t>(h))))
      ADD_FAILURE() << "h = " << h << " (" << ++bad << " so far)";
  EXPECT_EQ(bad, 0);
}

// the fast companion of the exhaustive shards below: every float in
// [-1.01, 1.01] at a stride of 257 bit patterns, then the values at the
// ends of the number line
TEST(HalfCodec, EncodeEqualsReferenceOnUnitIntervalAndSpecials) {
  std::uint32_t first = 0;
  const std::uint64_t top = bits(1.01f) + 1;
  EXPECT_EQ(encode_mismatches(0, top, 257, first), 0u) << "first at 0x" << std::hex << first;
  EXPECT_EQ(encode_mismatches(0x80000000ull, 0x80000000ull + top, 257, first), 0u)
      << "first at 0x" << std::hex << first;

  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> specials = {
      0.0f, FLT_TRUE_MIN, 1e-39f, FLT_MIN, 0.5f / kHalfPointScale, 1.5f / kHalfPointScale,
      0.99999994f, 1.0f, 1.00000012f, 1.5f, 32767.0f, 1e30f, FLT_MAX, inf,
      std::numeric_limits<float>::quiet_NaN(), std::numeric_limits<float>::signaling_NaN(),
      std::bit_cast<float>(0x7fc00001u), std::bit_cast<float>(0x7f800001u),
      std::bit_cast<float>(0x7fffffffu)};
  for (float s : specials)
    for (float x : {s, -s}) EXPECT_EQ(to_half(x), ref_to_half(x)) << "bits 0x" << std::hex << bits(x);
  EXPECT_EQ(to_half(std::numeric_limits<float>::quiet_NaN()), 0);
  EXPECT_EQ(to_half(inf), 32767);
  EXPECT_EQ(to_half(-inf), -32767);
}

// the whole float line in four shards of 2^30 bit patterns (the slow label)
class HalfCodec : public ::testing::TestWithParam<int> {};

TEST_P(HalfCodec, EncodeEqualsReferenceOnEveryFloat) {
  const std::uint64_t lo = std::uint64_t(GetParam()) << 30;
  std::uint32_t first = 0;
  EXPECT_EQ(encode_mismatches(lo, lo + (1ull << 30), 1, first), 0u)
      << "first at 0x" << std::hex << first;
}

INSTANTIATE_TEST_SUITE_P(Quarter, HalfCodec, ::testing::Range(0, 4));

// the site codec is the element codec applied to each real, and the
// bit-pattern norm is the float max-abs loop, NaN and Inf included
TEST(HalfCodec, SiteCodecAndNormMatchElementForms) {
  std::mt19937_64 rng(3);
  std::normal_distribution<float> d(0.0f, 1.0f);
  std::uniform_int_distribution<int> pick(0, 23);
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(), -0.0f, FLT_TRUE_MIN};
  for (int trial = 0; trial < 2000; ++trial) {
    std::array<float, 24> v;
    for (float& x : v) x = trial % 5 == 0 ? 0.0f : d(rng);
    if (trial % 3 == 0) v[static_cast<std::size_t>(pick(rng))] = specials[trial % 4];
    const float norm = max_abs_norm(v);
    ASSERT_EQ(bits(norm), bits(ref_norm(v))) << "trial " << trial;

    const std::array<half_t, 24> q = encode(v, 1.0f / norm);
    const std::array<float, 24> back = decode(q, norm);
    for (std::size_t k = 0; k < v.size(); ++k) {
      ASSERT_EQ(q[k], ref_to_half(v[k] * (1.0f / norm))) << "trial " << trial << " k " << k;
      ASSERT_EQ(bits(back[k]), bits(ref_from_half(q[k]) * norm)) << "trial " << trial;
    }
  }
}

} // namespace
} // namespace quda
