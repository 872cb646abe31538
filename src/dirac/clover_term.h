#pragma once
// Construction and application of the Sheikholeslami-Wohlert clover term.
//
// A_x = (c_sw / 2) * sum_{mu<nu} sigma_{mu,nu} (i F_{mu,nu}(x))
//
// where F is the traceless anti-Hermitian "clover leaf" field strength (the
// average of the four plaquettes in the mu-nu plane touching x).  A commutes
// with gamma_5, so it decomposes into two 6x6 Hermitian chiral blocks -- the
// 72-reals-per-site representation the paper describes -- which is what the
// device field stores.  An independent dense 12x12 construction is kept for
// the reference operator and as a cross-check of the block machinery.

#include "lattice/host_field.h"
#include "su3/gamma.h"

#include <array>
#include <vector>

namespace quda {

// dense 12x12 per-site clover matrix, row-major with index = spin*3 + color
struct DenseClover {
  std::array<complexd, 144> e{};

  complexd& at(std::size_t r, std::size_t c) { return e[12 * r + c]; }
  const complexd& at(std::size_t r, std::size_t c) const { return e[12 * r + c]; }
};

class DenseCloverField {
public:
  DenseCloverField() = default;
  explicit DenseCloverField(const Geometry& geom)
      : geom_(geom), sites_(static_cast<std::size_t>(geom.volume())) {}

  const Geometry& geom() const { return geom_; }
  DenseClover& operator[](std::int64_t i) { return sites_[static_cast<std::size_t>(i)]; }
  const DenseClover& operator[](std::int64_t i) const {
    return sites_[static_cast<std::size_t>(i)];
  }

private:
  Geometry geom_;
  std::vector<DenseClover> sites_;
};

// the clover-leaf field strength i*F_{mu,nu}(x): Hermitian traceless 3x3
SU3<double> clover_leaf_ifield(const HostGaugeField& u, const Coords& x, int mu, int nu);

// blocked (chiral 6x6) construction -- the production path
HostCloverField make_clover_term(const HostGaugeField& u, double csw);

// independent dense construction -- the reference / cross-check path
DenseCloverField make_dense_clover_term(const HostGaugeField& u, double csw);

// T = (4 + m) + A: add the Wilson diagonal to the clover blocks in place
void add_diag(HostCloverField& a, double diag);

// per-site inversion of the (already mass-shifted) clover blocks
HostCloverField invert_clover(const HostCloverField& t);

// apply a blocked clover site to a spinor: out = W (B+ (+) B-) W^dag psi;
// the body of the apply_clover_xpay kernel
template <typename T>
Spinor<T> apply_clover_site(const CloverSite<T>& site, const Spinor<T>& psi) {
  const Spinor<T> chi = apply_spin<kChiralTransformDag>(psi);
  Spinor<T> eta;
  for (int b = 0; b < 2; ++b) {
    std::array<Complex<T>, 6> v{};
    for (std::size_t s = 0; s < 2; ++s)
      for (std::size_t c = 0; c < 3; ++c) v[3 * s + c] = chi.s[2 * b + s][c];
    const std::array<Complex<T>, 6> y = site.block[b].apply(v);
    for (std::size_t s = 0; s < 2; ++s)
      for (std::size_t c = 0; c < 3; ++c) eta.s[2 * b + s][c] = y[3 * s + c];
  }
  return apply_spin<kChiralTransform>(eta);
}

// apply a dense clover site to a spinor (reference path)
Spinor<double> apply_dense_clover_site(const DenseClover& a, const Spinor<double>& psi);

} // namespace quda
