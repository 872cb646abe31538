#pragma once
// 16-bit fixed point ("half precision") storage, Section V-C3 of the paper,
// and the one codec every half-precision load and store goes through.
//
// On the GPU this is realized by reading signed 16-bit integers through the
// texture unit with cudaReadModeNormalizedFloat, which converts to a float
// in [-1, 1] for free.  We model exactly that storage format:
//
//  * gauge links: every element of an SU(3) matrix lies in [-1, 1] by
//    unitarity, so links are stored as raw normalized int16 (the two phases
//    of the 8-real parameterization divided by pi, below).
//  * spinors and clover sites: normalized int16 sharing one float norm per
//    site (the max-abs over the site's reals).  The shared norm is motivated
//    by the fact that applying the Wilson-clover matrix mixes all color and
//    spin components (footnote 2).  Each field keeps its own norm rule; the
//    quantizer and dequantizer here are shared.
//
// Arithmetic on half-precision fields is performed in float after
// conversion, as on the GPU.  decode()/encode() convert a site's block of
// int16 at once, in straight-line loops the compiler vectorizes: the
// element conversions are written without division and without
// data-dependent branches, and equal the textbook forms bit for bit on
// every input (tests/test_halfcodec.cpp checks all 2^16 and all 2^32).

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace quda {

using half_t = std::int16_t;

inline constexpr float kHalfPointScale = 32767.0f;

// quantize a value in [-1, 1] to the nearest step, ties away from zero;
// values outside are clamped (they can only arise from rounding at the
// interval ends), and NaN, which no clamp catches and no integer holds,
// quantizes to 0.  The clamp acts on |x|'s bit pattern, where NaN is above
// Inf: NaN -> 0, anything above 1.0f (Inf included) -> 1.0f, sign kept.
// The float-compare form of the same clamp is exact too, but under the
// default -ftrapping-math GCC keeps its compares as branches and does not
// vectorize the loop.
inline half_t to_half(float x) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(x);
  std::uint32_t a = bits & 0x7fffffffu;
  a = a > 0x7f800000u ? 0u : std::min(a, 0x3f800000u);
  const float t = std::bit_cast<float>(a | (bits & 0x80000000u)) * kHalfPointScale;
  return static_cast<half_t>(static_cast<int>(t + std::copysign(0.5f, t)));
}

// float(h) / 32767.0f, as a multiply: the double product rounds to the same
// float on all 65,536 inputs (the all-float h * (1.0f / 32767.0f) does not)
inline float from_half(half_t h) {
  return static_cast<float>(static_cast<double>(h) * (1.0 / 32767.0));
}

// out[k] = from_half(in[k]) * scale
template <std::size_t N>
std::array<float, N> decode(const std::array<half_t, N>& in, float scale) {
  std::array<float, N> out;
  for (std::size_t k = 0; k < N; ++k) out[k] = from_half(in[k]) * scale;
  return out;
}

// out[k] = to_half(in[k] * inv)
template <std::size_t N>
std::array<half_t, N> encode(const std::array<float, N>& in, float inv) {
  std::array<half_t, N> out;
  for (std::size_t k = 0; k < N; ++k) out[k] = to_half(in[k] * inv);
  return out;
}

// The spinor and face norm: the float max of |v[k]|, NaN skipped, 1e-37
// for an all-zero site.  Taken as an integer max over the |v| bit patterns
// (ordered like the magnitudes, Inf included) with NaN mapped to 0, which
// equals the float loop and vectorizes; signed, because SSE2 compares
// signed 32-bit integers but not unsigned ones.
template <std::size_t N> float max_abs_norm(const std::array<float, N>& v) {
  std::int32_t m = 0;
  for (std::size_t k = 0; k < N; ++k) {
    const std::int32_t a = std::bit_cast<std::int32_t>(v[k]) & 0x7fffffff;
    m = std::max(m, a > 0x7f800000 ? 0 : a);
  }
  return m == 0 ? 1e-37f : std::bit_cast<float>(m);
}

// --- 8-real gauge phases ----------------------------------------------------
//
// Of the eight reals (see SU3Packed8), the six matrix elements are bounded
// by [-1, 1] through unitarity and quantize like the 12-real format, but the
// two leading entries are *phases* in [-pi, pi].  They are stored divided by
// pi, which maps them exactly onto the fixed-point interval -- the
// half-precision rule the angles need that the bounded elements do not.

inline constexpr float kPhaseScale = 3.14159265358979323846f;

inline float phase_to_unit(float theta) { return theta / kPhaseScale; }
inline float unit_to_phase(float u) { return u * kPhaseScale; }

} // namespace quda
