#include "su3/gamma.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace quda {

SpinMatrix SpinMatrix::identity() {
  SpinMatrix m;
  for (std::size_t i = 0; i < 4; ++i) m.e[i][i] = complexd(1.0);
  return m;
}

SpinMatrix& SpinMatrix::operator+=(const SpinMatrix& o) {
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) e[r][c] += o.e[r][c];
  return *this;
}

SpinMatrix& SpinMatrix::operator-=(const SpinMatrix& o) {
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) e[r][c] -= o.e[r][c];
  return *this;
}

SpinMatrix& SpinMatrix::operator*=(const complexd& a) {
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) e[r][c] *= a;
  return *this;
}

SpinMatrix operator*(const SpinMatrix& a, const SpinMatrix& b) {
  SpinMatrix m;
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) {
      complexd s{};
      for (std::size_t k = 0; k < 4; ++k) cmad(s, a.e[r][k], b.e[k][c]);
      m.e[r][c] = s;
    }
  return m;
}

double frobenius_dist2(const SpinMatrix& a, const SpinMatrix& b) {
  double s = 0;
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) s += norm2(a.e[r][c] - b.e[r][c]);
  return s;
}

namespace {

constexpr complexd I{0.0, 1.0};

// Pauli matrices
using Pauli = std::array<std::array<complexd, 2>, 2>;
const Pauli kSigma[3] = {
    {{{complexd(0), complexd(1)}, {complexd(1), complexd(0)}}},
    {{{complexd(0), -I}, {I, complexd(0)}}},
    {{{complexd(1), complexd(0)}, {complexd(0), complexd(-1)}}},
};

// place a 2x2 block at block position (br, bc), scaled
void set_block(SpinMatrix& m, int br, int bc, const Pauli& p, const complexd& scale) {
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 2; ++c) m.e[2 * br + r][2 * bc + c] = scale * p[r][c];
}

const Pauli kIdent2 = {{{complexd(1), complexd(0)}, {complexd(0), complexd(1)}}};

// internal (NonRelativistic / Dirac-Pauli) basis:
//   gamma_k = [[0, -i sigma_k], [i sigma_k, 0]],   gamma_4 = diag(1,1,-1,-1)
SpinMatrix make_gamma_nr(int mu) {
  SpinMatrix g;
  if (mu == 3) {
    g.e[0][0] = g.e[1][1] = complexd(1);
    g.e[2][2] = g.e[3][3] = complexd(-1);
    return g;
  }
  set_block(g, 0, 1, kSigma[mu], -I);
  set_block(g, 1, 0, kSigma[mu], I);
  return g;
}

// DeGrand-Rossi (chiral) basis:
//   gamma_k = [[0, i sigma_k], [-i sigma_k, 0]],   gamma_4 = [[0, 1], [1, 0]]
SpinMatrix make_gamma_dr(int mu) {
  SpinMatrix g;
  if (mu == 3) {
    set_block(g, 0, 1, kIdent2, complexd(1));
    set_block(g, 1, 0, kIdent2, complexd(1));
    return g;
  }
  set_block(g, 0, 1, kSigma[mu], I);
  set_block(g, 1, 0, kSigma[mu], -I);
  return g;
}

struct Tables {
  std::array<SpinMatrix, 4> nr;
  std::array<SpinMatrix, 4> dr;
  SpinMatrix g5_nr, g5_dr;
  SpinMatrix rotation; // S with gamma^NR = S gamma^DR S^dag
  SpinMatrix chiral;   // W with W^dag g5_nr W = diag(1,1,-1,-1)

  Tables() {
    for (int mu = 0; mu < 4; ++mu) {
      nr[mu] = make_gamma_nr(mu);
      dr[mu] = make_gamma_dr(mu);
    }
    g5_nr = nr[0] * nr[1] * nr[2] * nr[3];
    g5_dr = dr[0] * dr[1] * dr[2] * dr[3];
    rotation = derive_rotation();
    chiral = derive_chiral();
  }

  // Schur averaging over the 16 Clifford basis elements Gamma_A: for any X,
  //   S0 = sum_A Gamma_A^NR X (Gamma_A^DR)^dag
  // intertwines the two irreducible representations; since they are
  // irreducible, S0 is proportional to the (unique up to phase) unitary S.
  SpinMatrix derive_rotation() const {
    for (std::size_t xr = 0; xr < 4; ++xr) {
      for (std::size_t xc = 0; xc < 4; ++xc) {
        SpinMatrix x;
        x.e[xr][xc] = complexd(1);
        SpinMatrix s0;
        for (unsigned mask = 0; mask < 16; ++mask) {
          SpinMatrix a = SpinMatrix::identity();
          SpinMatrix b = SpinMatrix::identity();
          for (int mu = 0; mu < 4; ++mu) {
            if (mask & (1u << mu)) {
              a = a * nr[mu];
              b = b * dr[mu];
            }
          }
          s0 += a * x * adjoint(b);
        }
        // S0 S0^dag = lambda I for an intertwiner of irreps; normalize.
        const SpinMatrix ss = s0 * adjoint(s0);
        double lambda = 0;
        for (std::size_t i = 0; i < 4; ++i) lambda += ss.e[i][i].re;
        lambda /= 4.0;
        if (lambda < 1e-8) continue; // unlucky X annihilated by the average
        s0 *= complexd(1.0 / std::sqrt(lambda), 0.0);
        // verify off-diagonal smallness of S0 S0^dag (i.e. S is unitary)
        const SpinMatrix check = s0 * adjoint(s0);
        if (frobenius_dist2(check, SpinMatrix::identity()) > 1e-20) continue;
        // verify the intertwining property before accepting
        bool ok = true;
        for (int mu = 0; mu < 4 && ok; ++mu)
          ok = frobenius_dist2(s0 * dr[mu] * adjoint(s0), nr[mu]) < 1e-20;
        if (ok) return s0;
      }
    }
    throw std::logic_error("gamma basis rotation derivation failed");
  }

  // Orthonormal eigenbasis of gamma_5^NR with eigenvalue order (+,+,-,-):
  // Gram-Schmidt over the columns of the chiral projectors (1 +/- g5)/2.
  SpinMatrix derive_chiral() const {
    SpinMatrix w;
    std::array<std::array<complexd, 4>, 4> basis{}; // basis[k] = k-th column of W
    std::size_t have = 0;
    for (int sign = +1; sign >= -1; sign -= 2) {
      for (std::size_t col = 0; col < 4 && have < (sign > 0 ? 2u : 4u); ++col) {
        // candidate = column `col` of (1 + sign*g5)/2
        std::array<complexd, 4> v{};
        for (std::size_t r = 0; r < 4; ++r) {
          v[r] = g5_nr.e[r][col] * complexd(0.5 * sign, 0.0);
          if (r == col) v[r] += complexd(0.5);
        }
        // orthogonalize against the accepted columns
        for (std::size_t k = 0; k < have; ++k) {
          complexd proj{};
          for (std::size_t r = 0; r < 4; ++r) conj_cmad(proj, basis[k][r], v[r]);
          for (std::size_t r = 0; r < 4; ++r) v[r] -= proj * basis[k][r];
        }
        double n = 0;
        for (std::size_t r = 0; r < 4; ++r) n += norm2(v[r]);
        if (n < 1e-12) continue; // linearly dependent column
        const double inv = 1.0 / std::sqrt(n);
        for (std::size_t r = 0; r < 4; ++r) v[r] *= complexd(inv, 0.0);
        basis[have++] = v;
      }
    }
    if (have != 4) throw std::logic_error("chiral transform derivation failed");
    for (std::size_t c = 0; c < 4; ++c)
      for (std::size_t r = 0; r < 4; ++r) w.e[r][c] = basis[c][r];
    return w;
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

} // namespace

const SpinMatrix& gamma(GammaBasis basis, int mu) {
  assert(mu >= 0 && mu < 4);
  return basis == GammaBasis::NonRelativistic ? tables().nr[mu] : tables().dr[mu];
}

const SpinMatrix& gamma5(GammaBasis basis) {
  return basis == GammaBasis::NonRelativistic ? tables().g5_nr : tables().g5_dr;
}

SpinMatrix sigma_munu(GammaBasis basis, int mu, int nu) {
  const SpinMatrix& gm = gamma(basis, mu);
  const SpinMatrix& gn = gamma(basis, nu);
  SpinMatrix comm = gm * gn - gn * gm;
  comm *= complexd(0.0, 0.5); // (i/2) [gamma_mu, gamma_nu]
  return comm;
}

SpinMatrix projector(GammaBasis basis, int mu, int sign) {
  SpinMatrix p = SpinMatrix::identity();
  SpinMatrix g = gamma(basis, mu);
  g *= complexd(static_cast<double>(sign), 0.0);
  return p + g;
}

const SpinMatrix& basis_rotation_dr_to_nr() { return tables().rotation; }

const SpinMatrix& chiral_transform() { return tables().chiral; }

} // namespace quda
