// Unit tests: clover term construction, its chiral-block structure (the
// 72-reals-per-site representation), block inversion, and agreement between
// the blocked production path and the independent dense construction.

#include "dirac/clover_term.h"
#include "dirac/gauge_init.h"
#include "exec/host_engine.h"
#include "field_pins.h"
#include "su3/clover_block.h"

#include <gtest/gtest.h>

#include <random>

namespace quda {
namespace {

HermitianBlock<double> random_block(std::mt19937_64& rng, double diag_shift) {
  std::normal_distribution<double> d(0.0, 0.3);
  HermitianBlock<double> h;
  for (std::size_t i = 0; i < 6; ++i) h.diag[i] = diag_shift + d(rng);
  for (std::size_t i = 0; i < 15; ++i) h.lower[i] = complexd(d(rng), d(rng));
  return h;
}

TEST(HermitianBlock, PackedApplyMatchesDense) {
  std::mt19937_64 rng(4);
  const HermitianBlock<double> h = random_block(rng, 1.0);
  const Dense6 m = to_dense(h);

  std::normal_distribution<double> d(0.0, 1.0);
  std::array<complexd, 6> x;
  for (auto& v : x) v = complexd(d(rng), d(rng));

  const auto y = h.apply(x);
  for (std::size_t r = 0; r < 6; ++r) {
    complexd expect{};
    for (std::size_t c = 0; c < 6; ++c) cmad(expect, m[r][c], x[c]);
    EXPECT_NEAR(y[r].re, expect.re, 1e-12);
    EXPECT_NEAR(y[r].im, expect.im, 1e-12);
  }
}

TEST(HermitianBlock, DensePackRoundTrip) {
  std::mt19937_64 rng(8);
  const HermitianBlock<double> h = random_block(rng, 2.0);
  const HermitianBlock<double> h2 = from_dense(to_dense(h));
  for (std::size_t i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(h.diag[i], h2.diag[i]);
  for (std::size_t i = 0; i < 15; ++i) {
    EXPECT_DOUBLE_EQ(h.lower[i].re, h2.lower[i].re);
    EXPECT_DOUBLE_EQ(h.lower[i].im, h2.lower[i].im);
  }
}

TEST(HermitianBlock, FromDenseRejectsNonHermitian) {
  Dense6 m{};
  m[0][1] = complexd(1.0, 0.0);
  m[1][0] = complexd(2.0, 0.0); // not conj(m[0][1])
  for (std::size_t i = 0; i < 6; ++i) m[i][i] = complexd(1.0);
  EXPECT_THROW(from_dense(m, 1e-12), std::invalid_argument);
}

TEST(HermitianBlock, InverseIsInverse) {
  std::mt19937_64 rng(15);
  for (int trial = 0; trial < 20; ++trial) {
    const HermitianBlock<double> h = random_block(rng, 4.0); // diagonally dominant
    const HermitianBlock<double> hinv = invert(h);
    const Dense6 a = to_dense(h), b = to_dense(hinv);
    for (std::size_t r = 0; r < 6; ++r)
      for (std::size_t c = 0; c < 6; ++c) {
        complexd prod{};
        for (std::size_t k = 0; k < 6; ++k) cmad(prod, a[r][k], b[k][c]);
        EXPECT_NEAR(prod.re, r == c ? 1.0 : 0.0, 1e-10);
        EXPECT_NEAR(prod.im, 0.0, 1e-10);
      }
  }
}

TEST(CloverTerm, VanishesOnUnitGauge) {
  const Geometry g({4, 4, 4, 4});
  HostGaugeField u(g);
  make_unit_gauge(u);
  const HostCloverField a = make_clover_term(u, 1.0);
  for (std::int64_t i = 0; i < g.volume(); ++i)
    for (int b = 0; b < 2; ++b) {
      for (std::size_t d = 0; d < 6; ++d) EXPECT_NEAR(a[i].block[b].diag[d], 0.0, 1e-14);
      for (std::size_t o = 0; o < 15; ++o) EXPECT_NEAR(norm2(a[i].block[b].lower[o]), 0.0, 1e-28);
    }
}

TEST(CloverTerm, FieldStrengthIsHermitianTraceless) {
  const Geometry g({4, 4, 4, 4});
  HostGaugeField u(g);
  make_random_gauge(u, 55);
  std::mt19937_64 rng(2);
  std::uniform_int_distribution<std::int64_t> pick(0, g.volume() - 1);
  for (int trial = 0; trial < 16; ++trial) {
    const Coords x = g.coords(pick(rng));
    for (int mu = 0; mu < 4; ++mu)
      for (int nu = mu + 1; nu < 4; ++nu) {
        const SU3<double> f = clover_leaf_ifield(u, x, mu, nu);
        EXPECT_LT(frobenius_dist2(f, adjoint(f)), 1e-24);
        complexd tr{};
        for (std::size_t d = 0; d < 3; ++d) tr += f.e[d][d];
        EXPECT_NEAR(tr.re, 0.0, 1e-12);
        EXPECT_NEAR(tr.im, 0.0, 1e-12);
      }
  }
}

TEST(CloverTerm, BlockedMatchesDenseConstruction) {
  // the production 72-real chiral-block path against the independent dense
  // 12x12 sigma.F construction, applied to random spinors
  const Geometry g({4, 4, 4, 4});
  HostGaugeField u(g);
  make_weak_field_gauge(u, 0.3, 101);
  const double csw = 1.3;
  const HostCloverField blocked = make_clover_term(u, csw);
  const DenseCloverField dense = make_dense_clover_term(u, csw);

  std::mt19937_64 rng(6);
  std::normal_distribution<double> d(0.0, 1.0);
  for (std::int64_t i = 0; i < g.volume(); ++i) {
    Spinor<double> psi;
    for (std::size_t spin = 0; spin < 4; ++spin)
      for (std::size_t c = 0; c < 3; ++c) psi.s[spin][c] = complexd(d(rng), d(rng));
    const Spinor<double> via_blocks = apply_clover_site(blocked[i], psi);
    const Spinor<double> via_dense = apply_dense_clover_site(dense[i], psi);
    EXPECT_LT(norm2(via_blocks - via_dense), 1e-20 * norm2(psi))
        << "blocked/dense clover mismatch at site " << i;
  }
}

TEST(CloverTerm, AddDiagShiftsOnlyDiagonal) {
  const Geometry g({4, 4, 4, 4});
  HostGaugeField u(g);
  make_weak_field_gauge(u, 0.2, 7);
  HostCloverField a = make_clover_term(u, 1.0);
  const HostCloverField orig = a;
  add_diag(a, 4.1);
  for (std::int64_t i = 0; i < g.volume(); ++i)
    for (int b = 0; b < 2; ++b) {
      for (std::size_t d = 0; d < 6; ++d)
        EXPECT_DOUBLE_EQ(a[i].block[b].diag[d], orig[i].block[b].diag[d] + 4.1);
      for (std::size_t o = 0; o < 15; ++o)
        EXPECT_EQ(norm2(a[i].block[b].lower[o] - orig[i].block[b].lower[o]), 0.0);
    }
}

TEST(CloverTerm, InvertCloverGivesIdentityAction) {
  const Geometry g({4, 4, 4, 4});
  HostGaugeField u(g);
  make_weak_field_gauge(u, 0.25, 31);
  HostCloverField t = make_clover_term(u, 1.2);
  add_diag(t, 4.05);
  const HostCloverField tinv = invert_clover(t);

  std::mt19937_64 rng(12);
  std::normal_distribution<double> d(0.0, 1.0);
  for (std::int64_t i = 0; i < g.volume(); i += 7) {
    Spinor<double> psi;
    for (std::size_t spin = 0; spin < 4; ++spin)
      for (std::size_t c = 0; c < 3; ++c) psi.s[spin][c] = complexd(d(rng), d(rng));
    const Spinor<double> round = apply_clover_site(tinv[i], apply_clover_site(t[i], psi));
    EXPECT_LT(norm2(round - psi), 1e-20 * norm2(psi));
  }
}

// the clover term, its inverse and the dense reference are built site by
// site on the host engine: the same bits at every worker budget, and pinned
TEST(CloverTerm, BitIdenticalAcrossBudgets) {
  const Geometry g({4, 4, 8, 8}); // 1024 sites: several site-loop chunks
  HostGaugeField u(g);
  make_weak_field_gauge(u, 0.3, 77);
  struct Digests {
    std::uint64_t term, inverse, dense;
  };
  auto build_at = [&](int budget) {
    exec::set_thread_budget(budget);
    HostCloverField t = make_clover_term(u, 1.3);
    add_diag(t, 4.2);
    const HostCloverField tinv = invert_clover(t);
    const DenseCloverField dense = make_dense_clover_term(u, 1.3);
    exec::set_thread_budget(0);
    Digests d{kFnvBasis, kFnvBasis, kFnvBasis};
    for (std::int64_t i = 0; i < g.volume(); ++i) {
      d.term = fnv1a(d.term, &t[i], sizeof t[i]);
      d.inverse = fnv1a(d.inverse, &tinv[i], sizeof tinv[i]);
      d.dense = fnv1a(d.dense, &dense[i], sizeof dense[i]);
    }
    return d;
  };
  const Digests d1 = build_at(1);
  for (int budget : {2, 8}) {
    const Digests dn = build_at(budget);
    EXPECT_EQ(dn.term, d1.term) << "budget " << budget;
    EXPECT_EQ(dn.inverse, d1.inverse) << "budget " << budget;
    EXPECT_EQ(dn.dense, d1.dense) << "budget " << budget;
  }
  EXPECT_EQ(d1.term, 0x1fb4f919472aa706ull) << "term: 0x" << std::hex << d1.term;
  EXPECT_EQ(d1.inverse, 0x4b4194de373e6933ull) << "inverse: 0x" << std::hex << d1.inverse;
  EXPECT_EQ(d1.dense, 0x1df1a4c1d09658a9ull) << "dense: 0x" << std::hex << d1.dense;
}

} // namespace
} // namespace quda
