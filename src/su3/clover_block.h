#pragma once
// The clover term A_x as two packed 6x6 Hermitian chiral blocks.
//
// A_x = (c_sw / 2) sum_{mu<nu} sigma_{mu,nu} F_{mu,nu}(x) commutes with
// gamma_5 and therefore decomposes into two 6x6 Hermitian blocks (one per
// chirality), each described by 36 real numbers -- 72 reals per site in
// total, exactly the figure the paper quotes (Section II, footnote 1).
//
// In the internal basis gamma_5 is *not* diagonal (gamma_4 is), so the
// chiral components are formed on the fly as (psi_upper +/- psi_lower)/sqrt2;
// this is a handful of adds per site and no extra memory traffic.

#include "su3/complex.h"
#include "su3/spinor.h"

#include <array>
#include <cstddef>

namespace quda {

// Packed 6x6 Hermitian matrix: 6 real diagonal entries + 15 complex
// strictly-lower-triangle entries (row-major), 36 reals total.
template <typename T> struct HermitianBlock {
  std::array<T, 6> diag{};
  std::array<Complex<T>, 15> lower{};

  static constexpr std::size_t tri_index(std::size_t r, std::size_t c) {
    // r > c required
    return r * (r - 1) / 2 + c;
  }

  Complex<T> at(std::size_t r, std::size_t c) const {
    if (r == c) return Complex<T>(diag[r]);
    if (r > c) return lower[tri_index(r, c)];
    return conj(lower[tri_index(c, r)]);
  }

  void set(std::size_t r, std::size_t c, const Complex<T>& v) {
    if (r == c) {
      diag[r] = v.re;
    } else if (r > c) {
      lower[tri_index(r, c)] = v;
    } else {
      lower[tri_index(c, r)] = conj(v);
    }
  }

  // y = H * x for a 6-component chiral half (2 spin x 3 color, flattened
  // spin-major: index = spin*3 + color).
  std::array<Complex<T>, 6> apply(const std::array<Complex<T>, 6>& x) const {
    std::array<Complex<T>, 6> y{};
    for (std::size_t r = 0; r < 6; ++r) {
      Complex<T> acc = Complex<T>(diag[r]) * x[r];
      for (std::size_t c = 0; c < r; ++c) cmad(acc, lower[tri_index(r, c)], x[c]);
      for (std::size_t c = r + 1; c < 6; ++c) conj_cmad(acc, lower[tri_index(c, r)], x[c]);
      y[r] = acc;
    }
    return y;
  }

  template <typename U> HermitianBlock<U> convert() const {
    HermitianBlock<U> o;
    for (std::size_t i = 0; i < 6; ++i) o.diag[i] = static_cast<U>(diag[i]);
    for (std::size_t i = 0; i < 15; ++i)
      o.lower[i] = Complex<U>(static_cast<U>(lower[i].re), static_cast<U>(lower[i].im));
    return o;
  }
};

// One lattice site's clover term: a block per chirality.
template <typename T> struct CloverSite {
  HermitianBlock<T> block[2]; // [0]: +chirality, [1]: -chirality
};

// real n of a clover site in memory order (per block: the diagonal, then
// the lower triangle's re/im pairs)
template <typename T> constexpr T& real_at(CloverSite<T>& c, std::size_t n) {
  HermitianBlock<T>& b = c.block[n / 36];
  const std::size_t m = n % 36;
  if (m < 6) return b.diag[m];
  Complex<T>& z = b.lower[(m - 6) / 2];
  return m % 2 ? z.im : z.re;
}

// Invert a packed Hermitian 6x6 block (Gaussian elimination with partial
// pivoting on the dense form).  Used once at setup to build the A^{-1}
// needed by even-odd preconditioning; not performance critical.
HermitianBlock<double> invert(const HermitianBlock<double>& h);

// Dense <-> packed conversion helpers (shared with the clover construction
// code and the tests).
using Dense6 = std::array<std::array<complexd, 6>, 6>;
Dense6 to_dense(const HermitianBlock<double>& h);
HermitianBlock<double> from_dense(const Dense6& m, double hermiticity_tol = 1e-10);

} // namespace quda
