// Unit tests: gamma-matrix algebra in both bases, the numerically-derived
// basis rotation, spin projectors, and the fast projection/reconstruction
// path used by the dslash kernels.

#include "su3/gamma.h"

#include "field_pins.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace quda {
namespace {

Spinor<double> random_spinor(std::mt19937_64& rng) {
  std::normal_distribution<double> d(0.0, 1.0);
  Spinor<double> s;
  for (std::size_t spin = 0; spin < 4; ++spin)
    for (std::size_t c = 0; c < 3; ++c) s.s[spin][c] = complexd(d(rng), d(rng));
  return s;
}

class GammaBases : public ::testing::TestWithParam<GammaBasis> {};

TEST_P(GammaBases, CliffordAlgebra) {
  const GammaBasis basis = GetParam();
  for (int mu = 0; mu < 4; ++mu)
    for (int nu = 0; nu < 4; ++nu) {
      const SpinMatrix anti = gamma(basis, mu) * gamma(basis, nu) +
                              gamma(basis, nu) * gamma(basis, mu);
      SpinMatrix expect;
      if (mu == nu) {
        expect = SpinMatrix::identity();
        expect *= complexd(2.0);
      }
      EXPECT_LT(frobenius_dist2(anti, expect), 1e-24)
          << "{gamma_" << mu << ", gamma_" << nu << "} != 2 delta";
    }
}

TEST_P(GammaBases, GammasAreHermitianAndUnitary) {
  const GammaBasis basis = GetParam();
  for (int mu = 0; mu < 4; ++mu) {
    const SpinMatrix& g = gamma(basis, mu);
    EXPECT_LT(frobenius_dist2(g, adjoint(g)), 1e-24);
    EXPECT_LT(frobenius_dist2(g * g, SpinMatrix::identity()), 1e-24);
  }
}

TEST_P(GammaBases, Gamma5AnticommutesWithGammas) {
  const GammaBasis basis = GetParam();
  const SpinMatrix& g5 = gamma5(basis);
  EXPECT_LT(frobenius_dist2(g5 * g5, SpinMatrix::identity()), 1e-24);
  for (int mu = 0; mu < 4; ++mu) {
    const SpinMatrix anti = g5 * gamma(basis, mu) + gamma(basis, mu) * g5;
    EXPECT_LT(frobenius_dist2(anti, SpinMatrix::zero()), 1e-24);
  }
}

TEST_P(GammaBases, SigmaMunuHermitianAndChiral) {
  const GammaBasis basis = GetParam();
  const SpinMatrix& g5 = gamma5(basis);
  for (int mu = 0; mu < 4; ++mu)
    for (int nu = mu + 1; nu < 4; ++nu) {
      const SpinMatrix s = sigma_munu(basis, mu, nu);
      EXPECT_LT(frobenius_dist2(s, adjoint(s)), 1e-24) << "sigma not Hermitian";
      EXPECT_LT(frobenius_dist2(s * g5, g5 * s), 1e-24) << "sigma does not commute with g5";
    }
}

INSTANTIATE_TEST_SUITE_P(BothBases, GammaBases,
                         ::testing::Values(GammaBasis::DeGrandRossi,
                                           GammaBasis::NonRelativistic),
                         [](const auto& info) {
                           return info.param == GammaBasis::DeGrandRossi ? "DeGrandRossi"
                                                                         : "NonRelativistic";
                         });

TEST(GammaBasisSpecifics, DRGamma5IsDiagonal) {
  const SpinMatrix& g5 = gamma5(GammaBasis::DeGrandRossi);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      if (r != c) {
        EXPECT_LT(norm2(g5.e[r][c]), 1e-24);
      }
}

TEST(GammaBasisSpecifics, NRTemporalProjectorsAreDiagonal) {
  // the paper's equation (6): in the non-relativistic basis P+4 =
  // diag(2,2,0,0) and P-4 = diag(0,0,2,2)
  const SpinMatrix pp = projector(GammaBasis::NonRelativistic, 3, +1);
  const SpinMatrix pm = projector(GammaBasis::NonRelativistic, 3, -1);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) {
      if (r != c) {
        EXPECT_LT(norm2(pp.e[r][c]), 1e-24);
        EXPECT_LT(norm2(pm.e[r][c]), 1e-24);
      }
    }
  EXPECT_NEAR(pp.e[0][0].re, 2.0, 1e-14);
  EXPECT_NEAR(pp.e[1][1].re, 2.0, 1e-14);
  EXPECT_NEAR(pp.e[2][2].re, 0.0, 1e-14);
  EXPECT_NEAR(pm.e[3][3].re, 2.0, 1e-14);
}

TEST(BasisRotation, IntertwinesAllGammas) {
  const SpinMatrix& s = basis_rotation_dr_to_nr();
  // unitary
  EXPECT_LT(frobenius_dist2(s * adjoint(s), SpinMatrix::identity()), 1e-20);
  for (int mu = 0; mu < 4; ++mu) {
    const SpinMatrix rotated = s * gamma(GammaBasis::DeGrandRossi, mu) * adjoint(s);
    EXPECT_LT(frobenius_dist2(rotated, gamma(GammaBasis::NonRelativistic, mu)), 1e-20)
        << "rotation fails for mu = " << mu;
  }
}

TEST(BasisRotation, RotateBasisRoundTrip) {
  std::mt19937_64 rng(11);
  const Spinor<double> psi = random_spinor(rng);
  const Spinor<double> nr =
      rotate_basis(GammaBasis::DeGrandRossi, GammaBasis::NonRelativistic, psi);
  const Spinor<double> back =
      rotate_basis(GammaBasis::NonRelativistic, GammaBasis::DeGrandRossi, nr);
  EXPECT_NEAR(norm2(psi - back), 0.0, 1e-24);
  EXPECT_NEAR(norm2(nr), norm2(psi), 1e-12); // unitary
}

TEST(ChiralTransform, DiagonalizesGamma5) {
  const SpinMatrix& w = chiral_transform();
  EXPECT_LT(frobenius_dist2(w * adjoint(w), SpinMatrix::identity()), 1e-20);
  const SpinMatrix d = adjoint(w) * gamma5(GammaBasis::NonRelativistic) * w;
  EXPECT_NEAR(d.e[0][0].re, 1.0, 1e-12);
  EXPECT_NEAR(d.e[1][1].re, 1.0, 1e-12);
  EXPECT_NEAR(d.e[2][2].re, -1.0, 1e-12);
  EXPECT_NEAR(d.e[3][3].re, -1.0, 1e-12);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      if (r != c) {
        EXPECT_LT(norm2(d.e[r][c]), 1e-20);
      }
}

struct ProjCase {
  int mu;
  int sign;
};

constexpr ProjCase kProjCases[8] = {{0, +1}, {0, -1}, {1, +1}, {1, -1},
                                    {2, +1}, {2, -1}, {3, +1}, {3, -1}};

class Projection : public ::testing::TestWithParam<ProjCase> {};

TEST_P(Projection, ProjectorSquaredIsTwiceProjector) {
  const auto [mu, sign] = GetParam();
  const SpinMatrix p = projector(GammaBasis::NonRelativistic, mu, sign);
  SpinMatrix twice = p;
  twice *= complexd(2.0);
  EXPECT_LT(frobenius_dist2(p * p, twice), 1e-24);
}

TEST_P(Projection, FastPathMatchesDenseProjector) {
  const auto [mu, sign] = GetParam();
  std::mt19937_64 rng(mu * 17 + sign + 100);
  const Spinor<double> psi = random_spinor(rng);

  // dense: (1 + sign*gamma_mu) psi
  const SpinMatrix p = projector(GammaBasis::NonRelativistic, mu, sign);
  const Spinor<double> dense = apply_spin(p, psi);

  // fast: project to half spinor, reconstruct
  const HalfSpinor<double> h = project(mu, sign, psi);
  Spinor<double> fast{};
  reconstruct_add(mu, sign, h, fast);

  EXPECT_LT(norm2(dense - fast), 1e-24)
      << "projection path mismatch at mu=" << mu << " sign=" << sign;
}

INSTANTIATE_TEST_SUITE_P(AllDirections, Projection, ::testing::ValuesIn(kProjCases),
                         [](const auto& info) {
                           return "mu" + std::to_string(info.param.mu) +
                                  (info.param.sign > 0 ? "_plus" : "_minus");
                         });

// --- exactness on special values ---------------------------------------------
//
// The fast projection and the constant spin rotations are pinned bitwise on
// spinors whose reals are signed zeros, finite values, a denormal, both
// infinities and a quiet NaN.  A product with a zero spin-matrix entry still
// carries the sign of zero and turns Inf into NaN, so these digests move if
// any term of the spin algebra is dropped, reordered or folded away.

template <typename T> std::array<T, 8> special_reals() {
  using lim = std::numeric_limits<T>;
  return {T(0), -T(0), T(1.5), T(-2.25), lim::denorm_min() * T(3),
          lim::infinity(), -lim::infinity(), lim::quiet_NaN()};
}

// eight spinors each holding one special value everywhere, then 32 whose
// reals are drawn from the specials by a fixed generator
template <typename T> std::vector<Spinor<T>> special_spinors() {
  const auto v = special_reals<T>();
  std::vector<Spinor<T>> out;
  std::array<T, 24> r;
  for (const T x : v) {
    r.fill(x);
    out.push_back(std::bit_cast<Spinor<T>>(r));
  }
  std::mt19937 rng(2024);
  for (int k = 0; k < 32; ++k) {
    for (T& x : r) x = v[rng() % v.size()];
    out.push_back(std::bit_cast<Spinor<T>>(r));
  }
  return out;
}

// a spinor's or half spinor's reals, NaNs canonical (field_pins.h)
template <typename S> std::uint64_t digest(std::uint64_t h, const S& s) {
  using T = decltype(s.s[0][0].re);
  const auto v = std::bit_cast<std::array<T, sizeof s / sizeof(T)>>(s);
  return fnv1a_values(h, v.data(), v.size());
}

// per (mu, sign): every projection, then every reconstruction of a projected
// half spinor onto the next special spinor
template <typename T> std::array<std::uint64_t, 8> project_reconstruct_digests() {
  const std::vector<Spinor<T>> ps = special_spinors<T>();
  std::array<std::uint64_t, 8> d{};
  for (std::size_t k = 0; k < 8; ++k) {
    const auto [mu, sign] = kProjCases[k];
    std::uint64_t h = kFnvBasis;
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const HalfSpinor<T> half = project(mu, sign, ps[i]);
      h = digest(h, half);
      Spinor<T> out = ps[(i + 1) % ps.size()];
      reconstruct_add(mu, sign, half, out);
      h = digest(h, out);
    }
    d[k] = h;
  }
  return d;
}

template <const SpinMatrix& M, typename T>
std::uint64_t constant_rotation_digest(const std::vector<Spinor<T>>& ps) {
  std::uint64_t h = kFnvBasis, dense = kFnvBasis;
  for (const Spinor<T>& p : ps) {
    h = digest(h, apply_spin<M>(p));
    dense = digest(dense, apply_spin(M, p));
  }
  EXPECT_EQ(h, dense) << "the compile-time apply differs from the dense loop";
  return h;
}

// W, W^dag and gamma_5 applied to every special spinor
template <typename T> std::array<std::uint64_t, 3> constant_rotation_digests() {
  const std::vector<Spinor<T>> ps = special_spinors<T>();
  return {constant_rotation_digest<kChiralTransform>(ps),
          constant_rotation_digest<kChiralTransformDag>(ps),
          constant_rotation_digest<kGamma5>(ps)};
}

void expect_digests(const char* what, const auto& got, const auto& want) {
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k], want[k]) << what << " " << k << ": 0x" << std::hex << got[k];
  }
}

bool same_bits(const complexd& a, const complexd& b) {
  return std::bit_cast<std::uint64_t>(a.re) == std::bit_cast<std::uint64_t>(b.re) &&
         std::bit_cast<std::uint64_t>(a.im) == std::bit_cast<std::uint64_t>(b.im);
}

void expect_same_bits(const SpinMatrix& table, const SpinMatrix& derived, const char* what) {
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_TRUE(same_bits(table.e[r][c], derived.e[r][c]))
          << what << "(" << r << ", " << c << "): " << table.e[r][c] << " vs "
          << derived.e[r][c];
    }
}

// the compile-time tables against the run-time derivations: Gram-Schmidt
// for W, the product gamma_1 gamma_2 gamma_3 gamma_4 for gamma_5, and the
// upper-right blocks of the spatial gammas
TEST(SpinTables, ConstexprTablesMatchDerivations) {
  expect_same_bits(kChiralTransform, chiral_transform(), "W");
  expect_same_bits(kChiralTransformDag, adjoint(chiral_transform()), "W^dag");
  expect_same_bits(kGamma5, gamma5(GammaBasis::NonRelativistic), "gamma_5");
  for (int mu = 0; mu < 3; ++mu) {
    const SpinMatrix& g = gamma(GammaBasis::NonRelativistic, mu);
    for (std::size_t r = 0; r < 2; ++r)
      for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_TRUE(same_bits(kSpatialBlocks[static_cast<std::size_t>(mu)].e[r][c],
                              g.e[r][2 + c]))
            << "b_" << mu << "(" << r << ", " << c << ")";
      }
  }
}

TEST(SpinAlgebraPinned, ProjectReconstructDouble) {
  expect_digests("project/reconstruct", project_reconstruct_digests<double>(),
                 std::array<std::uint64_t, 8>{
                     0xa22a45a16dc4dc06ull, 0x47313fff7ceca7b4ull, 0x18f4447443872e6full,
                     0xb5cecdbb23febbd5ull, 0x173ad73d31de5789ull, 0xaab6310d20661233ull,
                     0x17e594e40e7f708dull, 0xc95a40baa24410a1ull});
}
TEST(SpinAlgebraPinned, ProjectReconstructFloat) {
  expect_digests("project/reconstruct", project_reconstruct_digests<float>(),
                 std::array<std::uint64_t, 8>{
                     0xa5ed3d885d00224aull, 0x21fb6d77402a363cull, 0x702c1c6b6d74e88eull,
                     0x03250e27df786ebeull, 0xd26bc2a7a6dc918bull, 0x006ffe86d3294133ull,
                     0xf8e7510efb51ced7ull, 0xefcdae6f2fcbf025ull});
}
TEST(SpinAlgebraPinned, ConstantRotationsDouble) {
  expect_digests("W, W^dag, gamma_5", constant_rotation_digests<double>(),
                 std::array<std::uint64_t, 3>{0x1a53987729f9dce3ull, 0x81c177bf32fa1107ull,
                                              0xbe54f263ed4a7949ull});
}
TEST(SpinAlgebraPinned, ConstantRotationsFloat) {
  expect_digests("W, W^dag, gamma_5", constant_rotation_digests<float>(),
                 std::array<std::uint64_t, 3>{0xf18d4ba830e41aa8ull, 0xf8e5b6160d21d4ecull,
                                              0xaf20662157fd9075ull});
}

} // namespace
} // namespace quda
