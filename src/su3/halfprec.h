#pragma once
// 16-bit fixed point ("half precision") storage, Section V-C3 of the paper.
//
// On the GPU this is realized by reading signed 16-bit integers through the
// texture unit with cudaReadModeNormalizedFloat, which converts to a float
// in [-1, 1] for free.  We model exactly that storage format:
//
//  * gauge links: every element of an SU(3) matrix lies in [-1, 1] by
//    unitarity, so links are stored as raw normalized int16.
//  * spinors: stored as 24 normalized int16 sharing a single float
//    normalization (the max-abs over the spinor's 24 reals).  The shared
//    norm is motivated by the fact that applying the Wilson-clover matrix
//    mixes all color and spin components (footnote 2).
//
// Arithmetic on half-precision fields is performed in float after
// conversion, as on the GPU.

#include "su3/complex.h"
#include "su3/spinor.h"
#include "su3/su3.h"

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace quda {

using half_t = std::int16_t;

inline constexpr float kHalfPointScale = 32767.0f;

// quantize a value in [-1, 1]; values outside are clamped (they can only
// arise from rounding at the interval ends).  NaN, which no clamp catches
// and no integer holds, quantizes to 0.
inline half_t to_half(float x) {
  if (std::isnan(x)) return 0;
  float v = x * kHalfPointScale;
  if (v > kHalfPointScale) v = kHalfPointScale;
  if (v < -kHalfPointScale) v = -kHalfPointScale;
  return static_cast<half_t>(v >= 0 ? v + 0.5f : v - 0.5f);
}

inline float from_half(half_t h) { return static_cast<float>(h) / kHalfPointScale; }

// --- spinor packing ---------------------------------------------------------

// A packed half-precision spinor: 24 normalized int16 plus one float norm.
// In the field layout the int16 payload is distributed across six short4
// blocks and the norm lives in a separate array (Section V-C3), but the
// per-site logical content is exactly this.
struct PackedSpinorHalf {
  std::array<half_t, 24> v{};
  float norm{0.0f};
};

inline PackedSpinorHalf pack_half(const Spinor<float>& s) {
  PackedSpinorHalf p;
  float m = max_abs(s);
  if (m == 0.0f) m = std::numeric_limits<float>::min(); // avoid 0/0
  p.norm = m;
  const float inv = 1.0f / m;
  std::size_t k = 0;
  for (std::size_t spin = 0; spin < 4; ++spin)
    for (std::size_t c = 0; c < 3; ++c) {
      p.v[k++] = to_half(s.s[spin][c].re * inv);
      p.v[k++] = to_half(s.s[spin][c].im * inv);
    }
  return p;
}

inline Spinor<float> unpack_half(const PackedSpinorHalf& p) {
  Spinor<float> s;
  std::size_t k = 0;
  for (std::size_t spin = 0; spin < 4; ++spin)
    for (std::size_t c = 0; c < 3; ++c) {
      const float re = from_half(p.v[k++]) * p.norm;
      const float im = from_half(p.v[k++]) * p.norm;
      s.s[spin][c] = Complex<float>(re, im);
    }
  return s;
}

// --- gauge packing (2-row compressed, 12 complex = 24 int16) ----------------

struct PackedGaugeHalf {
  std::array<half_t, 24> v{};
};

inline PackedGaugeHalf pack_half(const SU3Compressed<float>& u) {
  PackedGaugeHalf p;
  std::size_t k = 0;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) {
      p.v[k++] = to_half(u.row[r][c].re);
      p.v[k++] = to_half(u.row[r][c].im);
    }
  return p;
}

inline SU3Compressed<float> unpack_half(const PackedGaugeHalf& p) {
  SU3Compressed<float> u;
  std::size_t k = 0;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) {
      const float re = from_half(p.v[k++]);
      const float im = from_half(p.v[k++]);
      u.row[r][c] = Complex<float>(re, im);
    }
  return u;
}

// --- gauge packing (8-real compressed) --------------------------------------
//
// Of the eight reals (see SU3Packed8), the six matrix elements are bounded
// by [-1, 1] through unitarity and quantize like the 12-real format, but the
// two leading entries are *phases* in [-pi, pi].  They are stored divided by
// pi, which maps them exactly onto the fixed-point interval -- the
// half-precision rule the angles need that the bounded elements do not.

inline constexpr float kPhaseScale = 3.14159265358979323846f;

inline float phase_to_unit(float theta) { return theta / kPhaseScale; }
inline float unit_to_phase(float u) { return u * kPhaseScale; }

struct PackedGauge8Half {
  std::array<half_t, 8> v{};
};

inline PackedGauge8Half pack_half(const SU3Packed8<float>& p) {
  PackedGauge8Half h;
  h.v[0] = to_half(phase_to_unit(p.v[0]));
  h.v[1] = to_half(phase_to_unit(p.v[1]));
  for (std::size_t k = 2; k < 8; ++k) h.v[k] = to_half(p.v[k]);
  return h;
}

inline SU3Packed8<float> unpack_half(const PackedGauge8Half& h) {
  SU3Packed8<float> p;
  p.v[0] = unit_to_phase(from_half(h.v[0]));
  p.v[1] = unit_to_phase(from_half(h.v[1]));
  for (std::size_t k = 2; k < 8; ++k) p.v[k] = from_half(h.v[k]);
  return p;
}

// --- clover packing ---------------------------------------------------------

// Clover blocks are Hermitian with eigenvalues O(1 + csw * F); QUDA stores
// them in half precision with a shared per-site norm like spinors.  36 reals
// per chiral block.
struct PackedCloverHalf {
  std::array<half_t, 72> v{};
  float norm{0.0f};
};

} // namespace quda
