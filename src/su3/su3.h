#pragma once
// SU(3) color matrices and color vectors.
//
// A link matrix U lives on the edge between lattice sites x and x+mu and is
// a special unitary 3x3 complex matrix.  QUDA stores only the first two rows
// ("12-real" or 2-row compression) and reconstructs the third row in
// registers from the cross product of the conjugates of the first two rows
// (Section V-C1 of the paper).  Both the full and compressed representations
// are provided here.

#include "su3/complex.h"

#include <array>
#include <cmath>
#include <cstddef>
#include <limits>

namespace quda {

template <typename T> struct ColorVector {
  std::array<Complex<T>, 3> c{};

  constexpr Complex<T>& operator[](std::size_t i) { return c[i]; }
  constexpr const Complex<T>& operator[](std::size_t i) const { return c[i]; }

  constexpr ColorVector& operator+=(const ColorVector& o) {
    for (std::size_t i = 0; i < 3; ++i) c[i] += o.c[i];
    return *this;
  }
  constexpr ColorVector& operator-=(const ColorVector& o) {
    for (std::size_t i = 0; i < 3; ++i) c[i] -= o.c[i];
    return *this;
  }
  constexpr ColorVector& operator*=(T s) {
    for (std::size_t i = 0; i < 3; ++i) c[i] *= s;
    return *this;
  }
  constexpr ColorVector& operator*=(const Complex<T>& s) {
    for (std::size_t i = 0; i < 3; ++i) c[i] *= s;
    return *this;
  }
  friend constexpr ColorVector operator+(ColorVector a, const ColorVector& b) { return a += b; }
  friend constexpr ColorVector operator-(ColorVector a, const ColorVector& b) { return a -= b; }
  friend constexpr ColorVector operator*(ColorVector a, T s) { return a *= s; }
  friend constexpr ColorVector operator*(T s, ColorVector a) { return a *= s; }
};

template <typename T> inline T norm2(const ColorVector<T>& v) {
  T s = 0;
  for (std::size_t i = 0; i < 3; ++i) s += norm2(v.c[i]);
  return s;
}

// Hermitian inner product <a, b> = sum_i conj(a_i) b_i.
template <typename T>
inline Complex<T> dot(const ColorVector<T>& a, const ColorVector<T>& b) {
  Complex<T> s{};
  for (std::size_t i = 0; i < 3; ++i) conj_cmad(s, a.c[i], b.c[i]);
  return s;
}

template <typename T> struct SU3 {
  // row-major: e[row][col]
  std::array<std::array<Complex<T>, 3>, 3> e{};

  constexpr Complex<T>& operator()(std::size_t r, std::size_t c) { return e[r][c]; }
  constexpr const Complex<T>& operator()(std::size_t r, std::size_t c) const { return e[r][c]; }

  static constexpr SU3 identity() {
    SU3 m;
    for (std::size_t i = 0; i < 3; ++i) m.e[i][i] = Complex<T>(T(1));
    return m;
  }

  constexpr SU3& operator+=(const SU3& o) {
    for (std::size_t r = 0; r < 3; ++r)
      for (std::size_t c = 0; c < 3; ++c) e[r][c] += o.e[r][c];
    return *this;
  }
  constexpr SU3& operator*=(T s) {
    for (std::size_t r = 0; r < 3; ++r)
      for (std::size_t c = 0; c < 3; ++c) e[r][c] *= s;
    return *this;
  }
  friend constexpr SU3 operator+(SU3 a, const SU3& b) { return a += b; }
  friend constexpr SU3 operator*(SU3 a, T s) { return a *= s; }
};

// real n of a matrix in memory order (row, column, re/im)
template <typename T> constexpr T& real_at(SU3<T>& m, std::size_t n) {
  Complex<T>& z = m.e[n / 6][n / 2 % 3];
  return n % 2 ? z.im : z.re;
}

template <typename T> constexpr SU3<T> adjoint(const SU3<T>& m) {
  SU3<T> a;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) a.e[r][c] = conj(m.e[c][r]);
  return a;
}

template <typename T> constexpr SU3<T> operator*(const SU3<T>& a, const SU3<T>& b) {
  SU3<T> m;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) {
      Complex<T> s{};
      for (std::size_t k = 0; k < 3; ++k) cmad(s, a.e[r][k], b.e[k][c]);
      m.e[r][c] = s;
    }
  return m;
}

// U * v
template <typename T>
constexpr ColorVector<T> operator*(const SU3<T>& m, const ColorVector<T>& v) {
  const auto row = [&](std::size_t r) {
    Complex<T> s{};
    for (std::size_t k = 0; k < 3; ++k) cmad(s, m.e[r][k], v.c[k]);
    return s;
  };
  return ColorVector<T>{{row(0), row(1), row(2)}};
}

// U^dagger * v without forming the adjoint ("matrix conjugation performed at
// no cost through register relabeling", Section V-B).
template <typename T>
constexpr ColorVector<T> adj_mul(const SU3<T>& m, const ColorVector<T>& v) {
  const auto row = [&](std::size_t r) {
    Complex<T> s{};
    for (std::size_t k = 0; k < 3; ++k) conj_cmad(s, m.e[k][r], v.c[k]);
    return s;
  };
  return ColorVector<T>{{row(0), row(1), row(2)}};
}

template <typename T> constexpr Complex<T> det(const SU3<T>& m) {
  return m.e[0][0] * (m.e[1][1] * m.e[2][2] - m.e[1][2] * m.e[2][1]) -
         m.e[0][1] * (m.e[1][0] * m.e[2][2] - m.e[1][2] * m.e[2][0]) +
         m.e[0][2] * (m.e[1][0] * m.e[2][1] - m.e[1][1] * m.e[2][0]);
}

// Frobenius distance^2 between two matrices; used by the unitarity tests.
template <typename T> inline T frobenius_dist2(const SU3<T>& a, const SU3<T>& b) {
  T s = 0;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) s += norm2(a.e[r][c] - b.e[r][c]);
  return s;
}

// --- 2-row ("12-real") gauge compression -----------------------------------

// Compressed representation: the first two rows only.
template <typename T> struct SU3Compressed {
  std::array<std::array<Complex<T>, 3>, 2> row{};
};

template <typename T> constexpr SU3Compressed<T> compress(const SU3<T>& m) {
  SU3Compressed<T> c;
  c.row[0] = m.e[0];
  c.row[1] = m.e[1];
  return c;
}

// Third row from unitarity: row2 = conj(row0 x row1).
template <typename T>
constexpr std::array<Complex<T>, 3> reconstruct_third_row(
    const std::array<Complex<T>, 3>& r0, const std::array<Complex<T>, 3>& r1) {
  std::array<Complex<T>, 3> r2;
  r2[0] = conj(r0[1] * r1[2] - r0[2] * r1[1]);
  r2[1] = conj(r0[2] * r1[0] - r0[0] * r1[2]);
  r2[2] = conj(r0[0] * r1[1] - r0[1] * r1[0]);
  return r2;
}

template <typename T> constexpr SU3<T> decompress(const SU3Compressed<T>& c) {
  SU3<T> m;
  m.e[0] = c.row[0];
  m.e[1] = c.row[1];
  m.e[2] = reconstruct_third_row(c.row[0], c.row[1]);
  return m;
}

// --- 8-real gauge compression ----------------------------------------------
//
// The minimal practical parameterization (Clark et al., arXiv:0911.3191):
// store the phases of U00 and U20 plus the complex elements U01, U02, U10 --
// eight reals per link.  Unitarity fixes the magnitudes |U00| and |U20| (row
// 0 and column 0 are unit vectors), and the remaining four elements follow
// from orthogonality of the rows plus the cross-product identity
// row2 = conj(row0 x row1).  All eight stored numbers are bounded: the six
// matrix elements lie in [-1, 1] by unitarity and the two phases in
// [-pi, pi], which is what makes a fixed-point half-precision encoding
// possible (see su3/halfprec.h).
//
// Layout of the 8 reals: { arg(U00), arg(U20), Re U01, Im U01, Re U02,
// Im U02, Re U10, Im U10 }.

template <typename T> struct SU3Packed8 {
  std::array<T, 8> v{};

  constexpr T& operator[](std::size_t i) { return v[i]; }
  constexpr const T& operator[](std::size_t i) const { return v[i]; }
};

template <typename T> inline SU3Packed8<T> pack_eight(const SU3<T>& m) {
  SU3Packed8<T> p;
  p.v[0] = std::atan2(m.e[0][0].im, m.e[0][0].re);
  p.v[1] = std::atan2(m.e[2][0].im, m.e[2][0].re);
  p.v[2] = m.e[0][1].re;
  p.v[3] = m.e[0][1].im;
  p.v[4] = m.e[0][2].re;
  p.v[5] = m.e[0][2].im;
  p.v[6] = m.e[1][0].re;
  p.v[7] = m.e[1][0].im;
  return p;
}

// Reconstruct the full link from the 8-real parameterization.  The division
// by n = |U01|^2 + |U02|^2 is singular when row 0 is concentrated in its
// first element (e.g. unit gauge links): the parameterization genuinely
// cannot represent the lower-right 2x2 block then, so a deterministic
// fallback completes the matrix as a1 (+) diag embedding, which is still a
// valid SU(3) element.  sqrt arguments are clamped at zero against rounding.
template <typename T> inline SU3<T> unpack_eight(const SU3Packed8<T>& p) {
  const Complex<T> phase_a1{std::cos(p.v[0]), std::sin(p.v[0])};
  const Complex<T> a2{p.v[2], p.v[3]};
  const Complex<T> a3{p.v[4], p.v[5]};
  const Complex<T> b1{p.v[6], p.v[7]};

  const T n = norm2(a2) + norm2(a3);
  const T abs_a1 = std::sqrt(std::max(T(0), T(1) - n));
  const Complex<T> a1 = phase_a1 * abs_a1;

  SU3<T> m;
  m.e[0][0] = a1;
  m.e[0][1] = a2;
  m.e[0][2] = a3;

  // degenerate row 0: orthogonality forces U10 ~ 0 as well, so complete as
  // the block-diagonal a1 (+) [[1, 0], [0, conj(a1)]] (det = +1)
  if (n <= T(32) * std::numeric_limits<T>::epsilon()) {
    m.e[1][0] = Complex<T>{};
    m.e[1][1] = Complex<T>(T(1));
    m.e[1][2] = Complex<T>{};
    m.e[2][0] = Complex<T>{};
    m.e[2][1] = Complex<T>{};
    m.e[2][2] = conj(a1);
    return m;
  }

  // column 0 is a unit vector: |c1|^2 = 1 - |a1|^2 - |b1|^2
  const T abs_c1 = std::sqrt(std::max(T(0), T(1) - norm2(a1) - norm2(b1)));
  const Complex<T> c1 = Complex<T>{std::cos(p.v[1]), std::sin(p.v[1])} * abs_c1;

  // Cramer's rule on the two linear constraints
  //   conj(a2) b2 + conj(a3) b3 = -conj(a1) b1   (row 1 _|_ row 0)
  //   -a3 b2 + a2 b3 = conj(c1)                  (c1 from the cross product)
  const T inv_n = T(1) / n;
  const Complex<T> b2 = (conj(a3) * conj(c1) + conj(a1) * (a2 * b1)) * -inv_n;
  const Complex<T> b3 = (conj(a2) * conj(c1) - conj(a1) * (a3 * b1)) * inv_n;
  m.e[1][0] = b1;
  m.e[1][1] = b2;
  m.e[1][2] = b3;

  // row2 = conj(row0 x row1), written with the already-known c1
  m.e[2][0] = c1;
  m.e[2][1] = conj(a3 * b1 - a1 * b3);
  m.e[2][2] = conj(a1 * b2 - a2 * b1);
  return m;
}

// Gram-Schmidt re-unitarization onto the SU(3) manifold.  Used when building
// "weak field" configurations (Section VII-A) and after accumulating noise.
template <typename T> inline SU3<T> reunitarize(const SU3<T>& m) {
  SU3<T> u = m;
  // normalize row 0
  T n0 = 0;
  for (std::size_t c = 0; c < 3; ++c) n0 += norm2(u.e[0][c]);
  n0 = T(1) / std::sqrt(n0);
  for (std::size_t c = 0; c < 3; ++c) u.e[0][c] *= n0;
  // orthogonalize row 1 against row 0, then normalize
  Complex<T> proj{};
  for (std::size_t c = 0; c < 3; ++c) conj_cmad(proj, u.e[0][c], u.e[1][c]);
  for (std::size_t c = 0; c < 3; ++c) u.e[1][c] -= proj * u.e[0][c];
  T n1 = 0;
  for (std::size_t c = 0; c < 3; ++c) n1 += norm2(u.e[1][c]);
  n1 = T(1) / std::sqrt(n1);
  for (std::size_t c = 0; c < 3; ++c) u.e[1][c] *= n1;
  // row 2 from unitarity (guarantees det = +1)
  u.e[2] = reconstruct_third_row(u.e[0], u.e[1]);
  return u;
}

using SU3d = SU3<double>;
using SU3f = SU3<float>;

} // namespace quda
