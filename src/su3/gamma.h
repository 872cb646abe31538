#pragma once
// Euclidean gamma matrices, spin projectors, and basis rotations.
//
// Two bases are supported:
//
//  * GammaBasis::DeGrandRossi -- the "conventional chiral basis" used by
//    Chroma/QDP++ at the library interface (gamma_5 diagonal).
//  * GammaBasis::NonRelativistic -- QUDA's internal basis, in which the
//    temporal projectors P(+/-)4 = 1 +/- gamma_4 are *diagonal*
//    (equation (6) of the paper).  This halves the data transferred for
//    temporal gathers -- exactly the property the multi-GPU time-slicing
//    decomposition exploits.
//
// The unitary intertwiner S with  gamma^NR_mu = S gamma^DR_mu S^dag  is
// derived *numerically* from the two representations (Schur averaging over
// the finite Clifford group), rather than hand-coded, so the basis change
// used at the API boundary is correct by construction and checked by tests.
//
// Hot-path kernels never touch dense 4x4 spin matrices at run time: the
// projector structure in the internal basis is encoded as 2x2 spin blocks
// (gamma_k = [[0, b_k], [b_k^dag, 0]], gamma_4 = diag(1,1,-1,-1)) so that
// projection produces 12 numbers and reconstruction is a 2x2 spin rotation,
// and those blocks, the chiral transform W and gamma_5 are compile-time
// constants (below).

#include "su3/complex.h"
#include "su3/spinor.h"

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace quda {

enum class GammaBasis { DeGrandRossi, NonRelativistic };

// dense 4x4 complex spin matrix (reference paths, clover construction, tests)
struct SpinMatrix {
  std::array<std::array<complexd, 4>, 4> e{};

  complexd& operator()(std::size_t r, std::size_t c) { return e[r][c]; }
  const complexd& operator()(std::size_t r, std::size_t c) const { return e[r][c]; }

  static SpinMatrix identity();
  static SpinMatrix zero() { return {}; }

  SpinMatrix& operator+=(const SpinMatrix& o);
  SpinMatrix& operator-=(const SpinMatrix& o);
  SpinMatrix& operator*=(const complexd& a);
  friend SpinMatrix operator+(SpinMatrix a, const SpinMatrix& b) { return a += b; }
  friend SpinMatrix operator-(SpinMatrix a, const SpinMatrix& b) { return a -= b; }
  friend SpinMatrix operator*(const SpinMatrix& a, const SpinMatrix& b);
  friend SpinMatrix operator*(SpinMatrix a, const complexd& s) { return a *= s; }
};

constexpr SpinMatrix adjoint(const SpinMatrix& m) {
  SpinMatrix a;
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) a.e[r][c] = conj(m.e[c][r]);
  return a;
}
double frobenius_dist2(const SpinMatrix& a, const SpinMatrix& b);

// Apply a dense spin matrix to the spin index of a spinor (color untouched).
template <typename T>
Spinor<T> apply_spin(const SpinMatrix& m, const Spinor<T>& p) {
  Spinor<T> out;
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) {
      const Complex<T> w(static_cast<T>(m.e[r][c].re), static_cast<T>(m.e[r][c].im));
      if (w.re == T(0) && w.im == T(0)) continue;
      for (std::size_t col = 0; col < 3; ++col) cmad(out.s[r][col], w, p.s[c][col]);
    }
  return out;
}

// --- dense tables -----------------------------------------------------------

// gamma_mu in the given basis; mu in [0,4): 0..2 spatial, 3 temporal.
const SpinMatrix& gamma(GammaBasis basis, int mu);
// gamma_5 = gamma_1 gamma_2 gamma_3 gamma_4 in the given basis.
const SpinMatrix& gamma5(GammaBasis basis);
// sigma_{mu,nu} = (i/2)[gamma_mu, gamma_nu] in the given basis.
SpinMatrix sigma_munu(GammaBasis basis, int mu, int nu);
// projector P = 1 + sign*gamma_mu (sign = +1 or -1), dense form.
SpinMatrix projector(GammaBasis basis, int mu, int sign);

// Unitary S with gamma^NR = S gamma^DR S^dag.  Row-major 4x4.
const SpinMatrix& basis_rotation_dr_to_nr();

// Unitary W whose columns are gamma_5 eigenvectors in the internal basis:
// W^dag gamma_5^NR W = diag(+1, +1, -1, -1).  The clover term commutes with
// gamma_5 and is applied as two 6x6 blocks in this eigenbasis; spinors are
// rotated by W^dag / W around the block application.
const SpinMatrix& chiral_transform();

// Rotate a spinor between bases at the API boundary.
template <typename T>
Spinor<T> rotate_basis(GammaBasis from, GammaBasis to, const Spinor<T>& p) {
  if (from == to) return p;
  const SpinMatrix& s = basis_rotation_dr_to_nr();
  if (from == GammaBasis::DeGrandRossi) return apply_spin(s, p);
  return apply_spin(adjoint(s), p);
}

// --- compile-time spin algebra in the internal (NonRelativistic) basis -----
//
// The dslash, the clover apply and gamma_5 use their spin matrices as
// compile-time constants.  Each product is the run-time dense loop's: the
// same cmads on the same operands in the same order (rows outer, columns
// inner, colour innermost).  Only the zero tests move to compile time; an
// entry that is zero (of either sign) is skipped as before, and a nonzero
// entry's zero real or imaginary part still multiplies, so 0*Inf stays NaN
// and the sign of zero is kept.  The tables hold the exact bits of the
// run-time derivations in gamma.cpp, which SpinTables.* checks bit for bit.

// 2x2 complex spin block, the off-diagonal block b_k of gamma_k.
struct Mat2 {
  std::array<std::array<complexd, 2>, 2> e{};
};

namespace detail {
// 1/sqrt(2) as Gram-Schmidt computes it, 0.5 * (1/sqrt(0.5)): one ulp
// below the correctly rounded value
inline constexpr double kRsqrt2 = std::bit_cast<double>(std::uint64_t{0x3fe6a09e667f3bcc});
inline constexpr complexd c(double re, double im) { return {re, im}; }
} // namespace detail

// b_mu = -i sigma_mu for mu in 0..2 (for mu == 3 the projector is diagonal
// and no spin rotation is needed)
inline constexpr std::array<Mat2, 3> kSpatialBlocks = {{
    {{{{detail::c(0, -0.0), detail::c(0, -1)}, {detail::c(0, -1), detail::c(0, -0.0)}}}},
    {{{{detail::c(0, -0.0), detail::c(-1, 0)}, {detail::c(1, -0.0), detail::c(0, -0.0)}}}},
    {{{{detail::c(0, -1), detail::c(0, -0.0)}, {detail::c(0, -0.0), detail::c(0, 1)}}}},
}};

// the chiral transform W = chiral_transform(), with its two -0 entries
inline constexpr SpinMatrix kChiralTransform = [] {
  using detail::c;
  constexpr double h = detail::kRsqrt2;
  return SpinMatrix{{{{{c(h, 0), c(0, 0), c(h, 0), c(-0.0, 0)}},
                      {{c(0, 0), c(h, 0), c(-0.0, 0), c(h, 0)}},
                      {{c(-h, 0), c(0, 0), c(h, 0), c(0, 0)}},
                      {{c(0, 0), c(-h, 0), c(0, 0), c(h, 0)}}}}};
}();
inline constexpr SpinMatrix kChiralTransformDag = adjoint(kChiralTransform);

// gamma_5 = gamma5(GammaBasis::NonRelativistic)
inline constexpr SpinMatrix kGamma5 = [] {
  using detail::c;
  return SpinMatrix{{{{{c(0, 0), c(0, 0), c(-1, 0), c(0, 0)}},
                      {{c(0, 0), c(0, 0), c(0, 0), c(-1, 0)}},
                      {{c(-1, 0), c(0, 0), c(0, 0), c(0, 0)}},
                      {{c(0, 0), c(-1, 0), c(0, 0), c(0, 0)}}}}};
}();

namespace detail {

template <std::size_t N, typename F> constexpr void static_for(F&& f) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (f(std::integral_constant<std::size_t, I>{}), ...);
  }(std::make_index_sequence<N>{});
}

// out = M v on the spin index of N spin components, for a constant N x N
// matrix M (SpinMatrix or Mat2): the dense loop with its zero tests folded
template <const auto& M, typename T, std::size_t N>
constexpr std::array<ColorVector<T>, N> spin_apply(const std::array<ColorVector<T>, N>& v) {
  std::array<ColorVector<T>, N> out{};
  static_for<N>([&](auto r) {
    constexpr std::size_t R = decltype(r)::value;
    static_for<N>([&](auto c) {
      constexpr std::size_t C = decltype(c)::value;
      constexpr Complex<T> w(static_cast<T>(M.e[R][C].re), static_cast<T>(M.e[R][C].im));
      if constexpr (w.re != T(0) || w.im != T(0))
        for (std::size_t col = 0; col < 3; ++col) cmad(out[R][col], w, v[C][col]);
    });
  });
  return out;
}

// sign * b and sign * b^dag, entry by entry, in double: scaling by +-1 is
// exact, so it gives the bits of scaling after rounding to the compute type
constexpr Mat2 scaled_block(const Mat2& b, int sign, bool dagger) {
  Mat2 m;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 2; ++c) {
      const complexd e = dagger ? conj(b.e[c][r]) : b.e[r][c];
      m.e[r][c] = {e.re * sign, e.im * sign};
    }
  return m;
}
template <int Mu, int Sign>
inline constexpr Mat2 kProjectBlock = scaled_block(kSpatialBlocks[Mu], Sign, false);
template <int Mu, int Sign>
inline constexpr Mat2 kReconstructBlock = scaled_block(kSpatialBlocks[Mu], Sign, true);

// f(mu, sign) with both as compile-time constants, for run-time (mu, sign)
template <typename F> decltype(auto) visit_hop(int mu, int sign, F&& f) {
  const auto by_sign = [&](auto m) -> decltype(auto) {
    return sign > 0 ? f(m, std::integral_constant<int, +1>{})
                    : f(m, std::integral_constant<int, -1>{});
  };
  switch (mu) {
    case 0: return by_sign(std::integral_constant<int, 0>{});
    case 1: return by_sign(std::integral_constant<int, 1>{});
    case 2: return by_sign(std::integral_constant<int, 2>{});
    default: return by_sign(std::integral_constant<int, 3>{});
  }
}

} // namespace detail

// Apply a constant spin matrix (kChiralTransform, kChiralTransformDag,
// kGamma5) to a spinor: apply_spin(M, p) with the zero tests folded.
template <const SpinMatrix& M, typename T> constexpr Spinor<T> apply_spin(const Spinor<T>& p) {
  Spinor<T> out;
  out.s = detail::spin_apply<M>(p.s);
  return out;
}

// Project: h = top two spin components of (1 + Sign*gamma_Mu) psi, in the
// internal basis.  The output is 12 numbers -- the quantity communicated in
// the face exchange.
//
// For spatial mu: (P psi)_upper = psi_u + sign * b_mu psi_l.
// For temporal mu (gamma_4 diagonal): P+4 psi = (2 psi_0, 2 psi_1, 0, 0) and
// P-4 psi = (0, 0, 2 psi_2, 2 psi_3); we transport the nonzero half.
template <int Mu, int Sign, typename T> inline HalfSpinor<T> project(const Spinor<T>& p) {
  static_assert(Mu >= 0 && Mu < 4 && (Sign == 1 || Sign == -1));
  HalfSpinor<T> h;
  if constexpr (Mu == 3) {
    constexpr std::size_t base = Sign > 0 ? 0 : 2;
    h.s[0] = p.s[base] * T(2);
    h.s[1] = p.s[base + 1] * T(2);
  } else {
    const auto rot = detail::spin_apply<detail::kProjectBlock<Mu, Sign>>(
        std::array<ColorVector<T>, 2>{p.s[2], p.s[3]});
    h.s[0] = p.s[0] + rot[0];
    h.s[1] = p.s[1] + rot[1];
  }
  return h;
}

// Reconstruct: out += R(h), the rank-2 completion of the projector.
// For spatial mu: out_u += h; out_l += sign * b_mu^dag h.
// For temporal mu: out_{upper or lower} += h depending on sign.
template <int Mu, int Sign, typename T>
inline void reconstruct_add(const HalfSpinor<T>& h, Spinor<T>& out) {
  static_assert(Mu >= 0 && Mu < 4 && (Sign == 1 || Sign == -1));
  if constexpr (Mu == 3) {
    constexpr std::size_t base = Sign > 0 ? 0 : 2;
    out.s[base] += h.s[0];
    out.s[base + 1] += h.s[1];
  } else {
    out.s[0] += h.s[0];
    out.s[1] += h.s[1];
    const auto rot = detail::spin_apply<detail::kReconstructBlock<Mu, Sign>>(h.s);
    out.s[2] += rot[0];
    out.s[3] += rot[1];
  }
}

// the same for run-time (mu, sign), sign = +1 or -1
template <typename T> inline HalfSpinor<T> project(int mu, int sign, const Spinor<T>& p) {
  return detail::visit_hop(mu, sign, [&](auto m, auto s) {
    return project<decltype(m)::value, decltype(s)::value>(p);
  });
}
template <typename T>
inline void reconstruct_add(int mu, int sign, const HalfSpinor<T>& h, Spinor<T>& out) {
  detail::visit_hop(mu, sign, [&](auto m, auto s) {
    reconstruct_add<decltype(m)::value, decltype(s)::value>(h, out);
  });
}

} // namespace quda
