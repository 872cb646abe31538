#include "dirac/clover_term.h"

#include "exec/host_engine.h"

#include <cassert>
#include <stdexcept>

namespace quda {

namespace {

// signed-direction link: L(x, +mu) = U_mu(x), L(x, -mu) = U_mu^dag(x - mu).
// `dir` is mu for forward, and the motion updates x to the far end.
SU3<double> signed_link(const HostGaugeField& u, Coords& x, int mu, int sign) {
  const Geometry& g = u.geom();
  if (sign > 0) {
    const SU3<double> l = u.link(mu, x);
    x = g.neighbor(x, mu, +1);
    return l;
  }
  x = g.neighbor(x, mu, -1);
  return adjoint(u.link(mu, x));
}

// plaquette starting at x traversing (a, b, -a, -b) with signed directions
SU3<double> signed_plaquette(const HostGaugeField& u, const Coords& x0, int mu_a, int sa,
                             int mu_b, int sb) {
  Coords x = x0;
  SU3<double> p = signed_link(u, x, mu_a, sa);
  p = p * signed_link(u, x, mu_b, sb);
  p = p * signed_link(u, x, mu_a, -sa);
  p = p * signed_link(u, x, mu_b, -sb);
  assert(x == x0);
  return p;
}

} // namespace

SU3<double> clover_leaf_ifield(const HostGaugeField& u, const Coords& x, int mu, int nu) {
  // the four leaves around x in the mu-nu plane
  SU3<double> q = signed_plaquette(u, x, mu, +1, nu, +1);
  q += signed_plaquette(u, x, nu, +1, mu, -1);
  q += signed_plaquette(u, x, mu, -1, nu, -1);
  q += signed_plaquette(u, x, nu, -1, mu, +1);

  // F = (Q - Q^dag) / 8, made traceless;  return i*F (Hermitian)
  const SU3<double> qd = adjoint(q);
  SU3<double> f;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) f.e[r][c] = (q.e[r][c] - qd.e[r][c]) * 0.125;
  complexd tr{};
  for (std::size_t d = 0; d < 3; ++d) tr += f.e[d][d];
  tr = tr / 3.0;
  for (std::size_t d = 0; d < 3; ++d) f.e[d][d] -= tr;

  SU3<double> inf;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) inf.e[r][c] = times_i(f.e[r][c]);
  return inf;
}

namespace {

// the 2x2 chiral sub-blocks of W^dag sigma_{mu,nu} W, cached per plane
struct SigmaBlocks {
  // [pair][block], pair index over the 6 (mu<nu) planes
  std::array<std::array<std::array<std::array<complexd, 2>, 2>, 2>, 6> b{};
  std::array<std::pair<int, int>, 6> planes{};

  SigmaBlocks() {
    const SpinMatrix& w = chiral_transform();
    const SpinMatrix wd = adjoint(w);
    int p = 0;
    for (int mu = 0; mu < 4; ++mu)
      for (int nu = mu + 1; nu < 4; ++nu, ++p) {
        planes[static_cast<std::size_t>(p)] = {mu, nu};
        const SpinMatrix st = wd * sigma_munu(GammaBasis::NonRelativistic, mu, nu) * w;
        // sigma commutes with gamma_5, so the rotated matrix must be block
        // diagonal in the chiral eigenbasis; verify once.
        double offb = 0;
        for (std::size_t r = 0; r < 2; ++r)
          for (std::size_t c = 0; c < 2; ++c)
            offb += norm2(st.e[r][2 + c]) + norm2(st.e[2 + r][c]);
        if (offb > 1e-20)
          throw std::logic_error("sigma_munu is not chiral-block-diagonal");
        for (int blk = 0; blk < 2; ++blk)
          for (std::size_t r = 0; r < 2; ++r)
            for (std::size_t c = 0; c < 2; ++c)
              b[static_cast<std::size_t>(p)][static_cast<std::size_t>(blk)][r][c] =
                  st.e[2 * static_cast<std::size_t>(blk) + r][2 * static_cast<std::size_t>(blk) + c];
      }
  }
};

const SigmaBlocks& sigma_blocks() {
  static const SigmaBlocks s;
  return s;
}

} // namespace

// These set-up routines run their site loops on the host engine: every site
// is written from its own inputs alone, so the bits do not depend on the
// worker budget.

HostCloverField make_clover_term(const HostGaugeField& u, double csw) {
  const Geometry& g = u.geom();
  HostCloverField a(g);
  const SigmaBlocks& sb = sigma_blocks();
  const double coeff = 0.5 * csw;

  exec::parallel_for(0, g.volume(), exec::kSiteGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const Coords x = g.coords(i);
      Dense6 dense[2] = {};
      for (std::size_t p = 0; p < 6; ++p) {
        const auto [mu, nu] = sb.planes[p];
        const SU3<double> inf = clover_leaf_ifield(u, x, mu, nu);
        for (int blk = 0; blk < 2; ++blk)
          for (std::size_t s = 0; s < 2; ++s)
            for (std::size_t sp = 0; sp < 2; ++sp) {
              const complexd spin = sb.b[p][static_cast<std::size_t>(blk)][s][sp] * coeff;
              if (spin.re == 0.0 && spin.im == 0.0) continue;
              for (std::size_t c = 0; c < 3; ++c)
                for (std::size_t cp = 0; cp < 3; ++cp)
                  dense[blk][3 * s + c][3 * sp + cp] += spin * inf.e[c][cp];
            }
      }
      for (int blk = 0; blk < 2; ++blk) a[i].block[blk] = from_dense(dense[blk], 1e-8);
    }
  });
  return a;
}

DenseCloverField make_dense_clover_term(const HostGaugeField& u, double csw) {
  const Geometry& g = u.geom();
  DenseCloverField a(g);
  const double coeff = 0.5 * csw;
  std::array<SpinMatrix, 6> sigma; // per (mu < nu) plane, in loop order
  for (int mu = 0, p = 0; mu < 4; ++mu)
    for (int nu = mu + 1; nu < 4; ++nu, ++p)
      sigma[static_cast<std::size_t>(p)] = sigma_munu(GammaBasis::NonRelativistic, mu, nu);

  exec::parallel_for(0, g.volume(), exec::kSiteGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const Coords x = g.coords(i);
      for (int mu = 0, p = 0; mu < 4; ++mu)
        for (int nu = mu + 1; nu < 4; ++nu, ++p) {
          const SpinMatrix& sig = sigma[static_cast<std::size_t>(p)];
          const SU3<double> inf = clover_leaf_ifield(u, x, mu, nu);
          for (std::size_t s = 0; s < 4; ++s)
            for (std::size_t sp = 0; sp < 4; ++sp) {
              const complexd spin = sig.e[s][sp] * coeff;
              if (spin.re == 0.0 && spin.im == 0.0) continue;
              for (std::size_t c = 0; c < 3; ++c)
                for (std::size_t cp = 0; cp < 3; ++cp)
                  a[i].at(3 * s + c, 3 * sp + cp) += spin * inf.e[c][cp];
            }
        }
    }
  });
  return a;
}

void add_diag(HostCloverField& a, double diag) {
  exec::parallel_for(0, a.geom().volume(), exec::kSiteGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i)
      for (int blk = 0; blk < 2; ++blk)
        for (std::size_t d = 0; d < 6; ++d) a[i].block[blk].diag[d] += diag;
  });
}

HostCloverField invert_clover(const HostCloverField& t) {
  HostCloverField inv(t.geom());
  exec::parallel_for(0, t.geom().volume(), exec::kSiteGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i)
      for (int blk = 0; blk < 2; ++blk) inv[i].block[blk] = invert(t[i].block[blk]);
  });
  return inv;
}

Spinor<double> apply_dense_clover_site(const DenseClover& a, const Spinor<double>& psi) {
  Spinor<double> out;
  for (std::size_t r = 0; r < 12; ++r) {
    complexd acc{};
    for (std::size_t c = 0; c < 12; ++c) cmad(acc, a.e[12 * r + c], psi.s[c / 3][c % 3]);
    out.s[r / 3][r % 3] = acc;
  }
  return out;
}

} // namespace quda
