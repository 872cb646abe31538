#pragma once
// Color-spinors: the per-site degrees of freedom of a quark field.
//
// A (full) spinor has 4 spin x 3 color complex components = 24 reals.
// A half-spinor -- the result of applying a spin projector P = 1 +/- gamma_mu
// and keeping only the two independent spin components -- has 12 reals.
// The 24 -> 12 compression is what makes the multi-GPU face exchange cheap
// (Section VI-C, footnote 3 of the paper).

#include "su3/complex.h"
#include "su3/su3.h"

#include <array>
#include <cstddef>

namespace quda {

template <typename T> struct Spinor {
  std::array<ColorVector<T>, 4> s{}; // spin index outer, color inner

  constexpr ColorVector<T>& operator[](std::size_t spin) { return s[spin]; }
  constexpr const ColorVector<T>& operator[](std::size_t spin) const { return s[spin]; }

  constexpr Complex<T>& at(std::size_t spin, std::size_t color) { return s[spin][color]; }
  constexpr const Complex<T>& at(std::size_t spin, std::size_t color) const {
    return s[spin][color];
  }

  constexpr Spinor& operator+=(const Spinor& o) {
    for (std::size_t i = 0; i < 4; ++i) s[i] += o.s[i];
    return *this;
  }
  constexpr Spinor& operator-=(const Spinor& o) {
    for (std::size_t i = 0; i < 4; ++i) s[i] -= o.s[i];
    return *this;
  }
  constexpr Spinor& operator*=(T a) {
    for (std::size_t i = 0; i < 4; ++i) s[i] *= a;
    return *this;
  }
  constexpr Spinor& operator*=(const Complex<T>& a) {
    for (std::size_t i = 0; i < 4; ++i) s[i] *= a;
    return *this;
  }
  friend constexpr Spinor operator+(Spinor a, const Spinor& b) { return a += b; }
  friend constexpr Spinor operator-(Spinor a, const Spinor& b) { return a -= b; }
  friend constexpr Spinor operator*(Spinor a, T s) { return a *= s; }
  friend constexpr Spinor operator*(T s, Spinor a) { return a *= s; }
};

template <typename T> struct HalfSpinor {
  std::array<ColorVector<T>, 2> s{};

  constexpr ColorVector<T>& operator[](std::size_t spin) { return s[spin]; }
  constexpr const ColorVector<T>& operator[](std::size_t spin) const { return s[spin]; }
};

// real n of a spinor or half spinor in memory order (spin, colour, re/im),
// for the lane loads and stores of the fields
template <typename T> constexpr T& real_at(Spinor<T>& p, std::size_t n) {
  Complex<T>& z = p.s[n / 6][n / 2 % 3];
  return n % 2 ? z.im : z.re;
}
template <typename T> constexpr T& real_at(HalfSpinor<T>& p, std::size_t n) {
  Complex<T>& z = p.s[n / 6][n / 2 % 3];
  return n % 2 ? z.im : z.re;
}

template <typename T> inline T norm2(const Spinor<T>& p) {
  T n = 0;
  for (std::size_t i = 0; i < 4; ++i) n += norm2(p.s[i]);
  return n;
}

template <typename T> inline Complex<T> dot(const Spinor<T>& a, const Spinor<T>& b) {
  Complex<T> d{};
  for (std::size_t i = 0; i < 4; ++i) d += dot(a.s[i], b.s[i]);
  return d;
}

// max |real component| over the 24 reals; this is the normalization QUDA
// shares across a spinor's elements in half precision (Section V-C3).
template <typename T> inline T max_abs(const Spinor<T>& p) {
  T m = 0;
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t c = 0; c < 3; ++c) {
      const T r = std::abs(p.s[i][c].re), im = std::abs(p.s[i][c].im);
      if (r > m) m = r;
      if (im > m) m = im;
    }
  return m;
}

// U acting on color index of every spin component.  The results are built
// member by member, not cleared and then filled: for site lanes a cleared
// aggregate is too large for the compiler to drop the clear.
template <typename T>
constexpr HalfSpinor<T> operator*(const SU3<T>& u, const HalfSpinor<T>& h) {
  return HalfSpinor<T>{{u * h.s[0], u * h.s[1]}};
}

template <typename T>
constexpr HalfSpinor<T> adj_mul(const SU3<T>& u, const HalfSpinor<T>& h) {
  return HalfSpinor<T>{{adj_mul(u, h.s[0]), adj_mul(u, h.s[1])}};
}

// the spinor or half spinor with reals v in memory order (real_at), member
// by member
namespace detail {
template <typename T, std::size_t N>
constexpr ColorVector<T> colour_vector_at(const std::array<T, N>& v, std::size_t i) {
  return ColorVector<T>{{Complex<T>(v[6 * i], v[6 * i + 1]), Complex<T>(v[6 * i + 2], v[6 * i + 3]),
                         Complex<T>(v[6 * i + 4], v[6 * i + 5])}};
}
} // namespace detail
template <typename T> constexpr Spinor<T> spinor_from_reals(const std::array<T, 24>& v) {
  using detail::colour_vector_at;
  return Spinor<T>{{colour_vector_at(v, 0), colour_vector_at(v, 1), colour_vector_at(v, 2),
                    colour_vector_at(v, 3)}};
}
template <typename T> constexpr HalfSpinor<T> spinor_from_reals(const std::array<T, 12>& v) {
  return HalfSpinor<T>{{detail::colour_vector_at(v, 0), detail::colour_vector_at(v, 1)}};
}

template <typename T> constexpr Spinor<T> operator*(const SU3<T>& u, const Spinor<T>& p) {
  Spinor<T> o;
  for (std::size_t i = 0; i < 4; ++i) o.s[i] = u * p.s[i];
  return o;
}

// precision conversion
template <typename To, typename From>
constexpr Spinor<To> convert(const Spinor<From>& p) {
  Spinor<To> o;
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t c = 0; c < 3; ++c)
      o.s[i][c] = Complex<To>(static_cast<To>(p.s[i][c].re), static_cast<To>(p.s[i][c].im));
  return o;
}

template <typename To, typename From> constexpr SU3<To> convert(const SU3<From>& m) {
  SU3<To> o;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      o.e[r][c] = Complex<To>(static_cast<To>(m.e[r][c].re), static_cast<To>(m.e[r][c].im));
  return o;
}

} // namespace quda
