// Property-based tests on cross-cutting invariants:
//
//  * gauge covariance of the Wilson-clover operator (the deepest physics
//    check: a random local SU(3) rotation of links and fields commutes with
//    the operator);
//  * gamma_5 Hermiticity of the full operator;
//  * Modeled and Real execution charge *identical* simulated time (the
//    benchmark harness times exactly the code path the tests validate);
//  * BLAS kernels against naive recompositions, in all precisions, and the
//    stored bits and returned values of every BLAS kernel, precision
//    conversion and gamma_5 pinned;
//  * the auto-tuner's sweep semantics.

#include "field_pins.h"

#include "blas/autotune.h"
#include "blas/blas.h"
#include "comm/qmp.h"
#include "dirac/clover_term.h"
#include "dirac/gauge_init.h"
#include "dirac/transfer.h"
#include "dirac/wilson_ref.h"
#include "parallel/halo_dslash.h"
#include "sim/event_sim.h"

#include <gtest/gtest.h>

#include <array>
#include <initializer_list>
#include <random>

namespace quda {
namespace {

// --- gauge covariance ---------------------------------------------------------

SU3<double> random_su3(std::mt19937_64& rng) {
  std::normal_distribution<double> d(0.0, 1.0);
  SU3<double> m;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) m.e[r][c] = complexd(d(rng), d(rng));
  return reunitarize(m);
}

TEST(GaugeCovariance, WilsonCloverOperatorTransformsCovariantly) {
  // M[U^g] (g psi) == g (M[U] psi) for a random gauge transformation g(x)
  const Geometry g({4, 4, 4, 6});
  HostGaugeField u(g), ug(g);
  HostSpinorField psi(g), psig(g);
  make_random_gauge(u, 20001);
  make_random_spinor(psi, 20002);

  std::mt19937_64 rng(20003);
  std::vector<SU3<double>> rot(static_cast<std::size_t>(g.volume()));
  for (auto& m : rot) m = random_su3(rng);

  for (std::int64_t i = 0; i < g.volume(); ++i) {
    const Coords x = g.coords(i);
    for (int mu = 0; mu < 4; ++mu) {
      const std::int64_t xf = g.linear_index(g.neighbor(x, mu, +1));
      // U'_mu(x) = g(x) U_mu(x) g(x+mu)^dag
      ug.link(mu, i) = rot[static_cast<std::size_t>(i)] * u.link(mu, i) *
                       adjoint(rot[static_cast<std::size_t>(xf)]);
    }
    psig[i] = rot[static_cast<std::size_t>(i)] * psi[i];
  }

  WilsonParams wp;
  wp.mass = 0.1;
  wp.time_bc = TimeBoundary::Antiperiodic;

  const DenseCloverField clover = make_dense_clover_term(u, 1.3);
  const DenseCloverField clover_g = make_dense_clover_term(ug, 1.3);

  HostSpinorField m_psi(g), m_psig(g);
  apply_wilson_clover_ref(u, clover, psi, m_psi, wp);
  apply_wilson_clover_ref(ug, clover_g, psig, m_psig, wp);

  double num = 0, den = 0;
  for (std::int64_t i = 0; i < g.volume(); ++i) {
    const Spinor<double> rotated = rot[static_cast<std::size_t>(i)] * m_psi[i];
    num += norm2(m_psig[i] - rotated);
    den += norm2(rotated);
  }
  EXPECT_LT(num / den, 1e-22) << "operator is not gauge covariant";
}

TEST(GaugeCovariance, PlaquetteIsGaugeInvariant) {
  const Geometry g({4, 4, 4, 4});
  HostGaugeField u(g), ug(g);
  make_random_gauge(u, 20010);
  std::mt19937_64 rng(20011);
  std::vector<SU3<double>> rot(static_cast<std::size_t>(g.volume()));
  for (auto& m : rot) m = random_su3(rng);
  for (std::int64_t i = 0; i < g.volume(); ++i) {
    const Coords x = g.coords(i);
    for (int mu = 0; mu < 4; ++mu) {
      const std::int64_t xf = g.linear_index(g.neighbor(x, mu, +1));
      ug.link(mu, i) = rot[static_cast<std::size_t>(i)] * u.link(mu, i) *
                       adjoint(rot[static_cast<std::size_t>(xf)]);
    }
  }
  EXPECT_NEAR(average_plaquette(u), average_plaquette(ug), 1e-12);
}

TEST(Gamma5Hermiticity, FullOperatorSatisfiesG5MG5EqualsMdag) {
  // <phi, g5 M g5 psi> == conj(<psi, g5 M g5 phi>) -- i.e. g5 M g5 is the
  // adjoint of M (the property CGNR's dagger application relies on)
  const Geometry g({4, 4, 4, 4});
  HostGaugeField u(g);
  make_random_gauge(u, 20020);
  HostSpinorField psi(g), phi(g);
  make_random_spinor(psi, 20021);
  make_random_spinor(phi, 20022);

  WilsonParams wp;
  wp.mass = 0.2;
  const DenseCloverField clover = make_dense_clover_term(u, 1.0);

  const SpinMatrix& g5 = gamma5(GammaBasis::NonRelativistic);
  auto g5_rotate = [&](const HostSpinorField& f) {
    HostSpinorField out(g);
    for (std::int64_t i = 0; i < g.volume(); ++i) out[i] = apply_spin(g5, f[i]);
    return out;
  };
  auto inner = [&](const HostSpinorField& a, const HostSpinorField& b) {
    complexd s{};
    for (std::int64_t i = 0; i < g.volume(); ++i) s += dot(a[i], b[i]);
    return s;
  };

  HostSpinorField m_psi(g), m_phi(g);
  apply_wilson_clover_ref(u, clover, psi, m_psi, wp);
  apply_wilson_clover_ref(u, clover, phi, m_phi, wp);

  // <phi, g5 M g5 psi> where the outer g5 pairs with phi
  const complexd lhs = inner(g5_rotate(phi), m_psi) * complexd(1.0, 0.0);
  const complexd rhs = conj(inner(g5_rotate(psi), m_phi));
  // g5 M g5 = M^dag  <=>  <g5 phi, M psi> == conj(<g5 psi, M phi>)
  EXPECT_NEAR(lhs.re, rhs.re, 1e-8);
  EXPECT_NEAR(lhs.im, rhs.im, 1e-8);
}

// --- Modeled == Real timing ----------------------------------------------------

TEST(ExecutionModes, ModeledAndRealChargeIdenticalTime) {
  const Geometry lg({4, 4, 4, 4});
  const int ranks = 4;

  auto run_mode = [&](Execution exec) {
    sim::VirtualCluster cluster(sim::ClusterSpec::jlab_9g(ranks));
    std::vector<double> clocks(static_cast<std::size_t>(ranks));
    cluster.run([&](sim::RankContext& ctx) {
      comm::QmpGrid grid(ctx, comm::GridTopology::time_only(ranks));
      parallel::HaloDslashConfig cfg;
      cfg.policy = CommPolicy::Overlap;
      cfg.exec = exec;

      HostGaugeField hu(lg);
      make_weak_field_gauge(hu, 0.1, 99);
      HostSpinorField hin(lg);
      make_random_spinor(hin, 100);
      GaugeField<PrecSingle> u = upload_gauge<PrecSingle>(hu, Reconstruct::Twelve);
      parallel::exchange_gauge_ghost<PrecSingle>(
          grid, lg, exec == Execution::Real ? &u : nullptr, exec);
      const PartitionMask mask = grid.topology().partition_mask();
      SpinorField<PrecSingle> in = upload_spinor<PrecSingle>(hin, Parity::Odd, mask);
      SpinorField<PrecSingle> out(lg, mask);

      for (int rep = 0; rep < 6; ++rep) {
        cfg.out_parity = rep % 2 == 0 ? Parity::Even : Parity::Odd;
        if (exec == Execution::Real)
          parallel::halo_dslash<PrecSingle>(grid, lg, cfg, {&out, &u, &in});
        else
          parallel::halo_dslash<PrecSingle>(grid, lg, cfg, {});
      }
      clocks[static_cast<std::size_t>(ctx.rank())] = ctx.clock().now_us;
    });
    return clocks;
  };

  const auto real = run_mode(Execution::Real);
  const auto modeled = run_mode(Execution::Modeled);
  for (int r = 0; r < ranks; ++r)
    EXPECT_DOUBLE_EQ(real[static_cast<std::size_t>(r)], modeled[static_cast<std::size_t>(r)])
        << "rank " << r << ": the benches time a different path than the tests validate";
}

// --- BLAS kernels vs naive recomposition ---------------------------------------

template <typename P> class BlasTyped : public ::testing::Test {};
using AllPrecs = ::testing::Types<PrecDouble, PrecSingle, PrecHalf>;
TYPED_TEST_SUITE(BlasTyped, AllPrecs);

template <typename P>
SpinorField<P> random_field(const Geometry& g, std::uint64_t seed) {
  HostSpinorField h(g);
  make_random_spinor(h, seed);
  return upload_spinor<P>(h, Parity::Even, kPartitionTimeOnly);
}

template <typename P> double tolerance() {
  return P::value == Precision::Double ? 1e-20 : P::value == Precision::Single ? 1e-9 : 2e-3;
}

TYPED_TEST(BlasTyped, AxpyNormIsAxpyThenNorm) {
  using P = TypeParam;
  const Geometry g({4, 4, 4, 4});
  const SpinorField<P> x = random_field<P>(g, 1);
  SpinorField<P> y1 = random_field<P>(g, 2);
  SpinorField<P> y2 = SpinorField<P>::like(y1);
  blas::copy(y2, y1);

  const double fused = blas::axpy_norm(0.37, x, y1);
  blas::axpy(0.37, x, y2);
  const double composed = blas::norm2(y2);
  EXPECT_NEAR(fused, composed, tolerance<P>() * composed * 100 + 1e-12);
}

TYPED_TEST(BlasTyped, XmyNormMatchesManual) {
  using P = TypeParam;
  const Geometry g({4, 4, 4, 4});
  const SpinorField<P> x = random_field<P>(g, 3);
  SpinorField<P> y = random_field<P>(g, 4);
  SpinorField<P> expect = SpinorField<P>::like(y);
  // expect = x - y
  blas::copy(expect, x);
  blas::axpy(-1.0, y, expect);
  const double n = blas::xmy_norm(x, y);
  EXPECT_NEAR(n, blas::norm2(expect), tolerance<P>() * n * 100 + 1e-12);
  // y now holds x - y
  double diff = 0;
  for (std::int64_t i = 0; i < y.sites(); ++i)
    diff += static_cast<double>(quda::norm2(y.load(i) - expect.load(i)));
  EXPECT_NEAR(diff, 0.0, tolerance<P>() * n * 10 + 1e-12);
}

TYPED_TEST(BlasTyped, BicgstabPUpdateMatchesComposition) {
  using P = TypeParam;
  const Geometry g({4, 4, 4, 4});
  const SpinorField<P> r = random_field<P>(g, 5);
  const SpinorField<P> v = random_field<P>(g, 6);
  SpinorField<P> p = random_field<P>(g, 7);
  SpinorField<P> expect = SpinorField<P>::like(p);
  blas::copy(expect, p);

  const complexd beta{0.3, -0.4}, omega{1.1, 0.2};
  // expect = r + beta*(p - omega v)
  blas::caxpy(-omega, v, expect);      // p - omega v
  // scale by beta then add r: use caxpby-by-hand
  for (std::int64_t i = 0; i < expect.sites(); ++i) {
    auto e = expect.load(i);
    using real_t = typename P::real_t;
    e *= Complex<real_t>(static_cast<real_t>(beta.re), static_cast<real_t>(beta.im));
    e += r.load(i);
    expect.store(i, e);
  }
  blas::bicgstab_p_update(p, r, v, beta, omega);
  double diff = 0, den = 0;
  for (std::int64_t i = 0; i < p.sites(); ++i) {
    diff += static_cast<double>(quda::norm2(p.load(i) - expect.load(i)));
    den += static_cast<double>(quda::norm2(expect.load(i)));
  }
  EXPECT_LT(diff / den, tolerance<P>() * 100);
}

TYPED_TEST(BlasTyped, RUpdateReductionsMatchSeparateKernels) {
  using P = TypeParam;
  const Geometry g({4, 4, 4, 4});
  const SpinorField<P> s = random_field<P>(g, 8);
  const SpinorField<P> t = random_field<P>(g, 9);
  const SpinorField<P> r0 = random_field<P>(g, 10);
  SpinorField<P> r = SpinorField<P>::like(s);

  const complexd omega{0.8, -0.1};
  double r2 = 0;
  complexd rho;
  blas::bicgstab_r_update(r, s, t, omega, r2, rho, r0);

  EXPECT_NEAR(r2, blas::norm2(r), tolerance<P>() * r2 * 100 + 1e-12);
  const complexd rho_ref = blas::cdot(r0, r);
  EXPECT_NEAR(rho.re, rho_ref.re, tolerance<P>() * std::abs(rho_ref.re) * 100 + 1e-9);
  EXPECT_NEAR(rho.im, rho_ref.im, tolerance<P>() * std::abs(rho_ref.re) * 100 + 1e-9);
}

TYPED_TEST(BlasTyped, Gamma5IsInvolution) {
  using P = TypeParam;
  const Geometry g({4, 4, 4, 4});
  const SpinorField<P> x = random_field<P>(g, 11);
  SpinorField<P> y = SpinorField<P>::like(x);
  apply_gamma5<P>(y, x);
  apply_gamma5<P>(y, y);
  double diff = 0, den = 0;
  for (std::int64_t i = 0; i < x.sites(); ++i) {
    diff += static_cast<double>(quda::norm2(y.load(i) - x.load(i)));
    den += static_cast<double>(quda::norm2(x.load(i)));
  }
  EXPECT_LT(diff / den, tolerance<P>() * 100);
}

// --- pinned element-wise kernel bits --------------------------------------------
// Each element-wise kernel runs once on seeded fields; the written field's
// stored payload and norms are pinned.  101 sites is odd, so every span
// also has a tail past the last full vector.

constexpr std::int64_t kPinSites = 101, kPinFace = 16;
constexpr int kNumElementwise = 7;
constexpr const char* kElementwiseNames[kNumElementwise] = {
    "copy", "axpy", "xpay", "axpby", "caxpy", "bicgstab_p_update", "bicgstab_x_update"};

template <typename P>
SpinorField<P> seeded_field(std::uint64_t seed, std::int64_t pad = kPinFace,
                            std::int64_t sites = kPinSites) {
  using real_t = typename P::real_t;
  SpinorField<P> f(sites, kPinFace, pad);
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> d(0.0, 1.0);
  for (std::int64_t i = 0; i < f.sites(); ++i) {
    Spinor<real_t> s;
    for (std::size_t spin = 0; spin < 4; ++spin)
      for (std::size_t c = 0; c < 3; ++c)
        s.s[spin][c] = Complex<real_t>(static_cast<real_t>(d(rng)), static_cast<real_t>(d(rng)));
    f.store(i, s);
  }
  return f;
}

// kernel k writes `out` from x and z (and from out itself where it updates)
template <typename P>
void run_elementwise(int k, SpinorField<P>& out, const SpinorField<P>& x, const SpinorField<P>& z) {
  const complexd omega{0.9, 0.05};
  switch (k) {
    case 0: blas::copy(out, x); break;
    case 1: blas::axpy(0.37, x, out); break;
    case 2: blas::xpay(x, -0.61, out); break;
    case 3: blas::axpby(0.37, x, -0.61, out); break;
    case 4: blas::caxpy(complexd{0.37, -0.21}, x, out); break;
    case 5: blas::bicgstab_p_update(out, x, z, complexd{1.1, -0.2}, omega); break;
    case 6: blas::bicgstab_x_update(out, complexd{0.3, 0.1}, x, omega, z); break;
  }
}

template <typename P>
void expect_elementwise_pinned(const std::array<std::uint64_t, kNumElementwise>& want) {
  const SpinorField<P> x = seeded_field<P>(1), z = seeded_field<P>(2);
  for (int k = 0; k < kNumElementwise; ++k) {
    SpinorField<P> out = seeded_field<P>(3);
    run_elementwise(k, out, x, z);
    const std::uint64_t got = stored_digest(out);
    EXPECT_EQ(got, want[static_cast<std::size_t>(k)])
        << kElementwiseNames[k] << ": 0x" << std::hex << got;
  }
}

TEST(BlasPinned, ElementwiseKernelsDouble) {
  expect_elementwise_pinned<PrecDouble>(
      {0x43a6c33ade658483, 0x78c979ac39c312b9, 0x88db783513461649, 0x7ffa16268ecf3f39,
       0xde8922aea513fd7b, 0x936c09f91b53eb5e, 0x01144098c1ed8d8e});
}
TEST(BlasPinned, ElementwiseKernelsSingle) {
  expect_elementwise_pinned<PrecSingle>(
      {0xbee190c45e6960cf, 0xc19241b8a9ea0a2b, 0xccbbf59bcba07f1f, 0x62d23e0c292a48e0,
       0x60537c12c6bfabde, 0xabc6ee3d934ef0b2, 0xb072b482713da69d});
}
TEST(BlasPinned, ElementwiseKernelsHalf) {
  expect_elementwise_pinned<PrecHalf>(
      {0x8ada9e7645a83b4d, 0x0ea8ede86efd5400, 0xa390fcea47b35910, 0xd732b9b3ba164f92,
       0xb414d18cb2183c05, 0x9c8bfd64704ea142, 0xb6724eb49065b342});
}

// an output whose pad differs from its inputs' pad holds, bit for bit, the
// values the matched-pad output holds
template <typename P> void expect_output_pad_irrelevant() {
  const SpinorField<P> x = seeded_field<P>(1), z = seeded_field<P>(2);
  for (int k = 0; k < kNumElementwise; ++k) {
    SpinorField<P> matched = seeded_field<P>(3);
    SpinorField<P> other = seeded_field<P>(3, kPinFace + 3);
    run_elementwise(k, matched, x, z);
    run_elementwise(k, other, x, z);
    EXPECT_EQ(loaded_digest(matched), loaded_digest(other)) << kElementwiseNames[k];
  }
}

TEST(BlasPinned, OutputPadDoesNotChangeBitsDouble) { expect_output_pad_irrelevant<PrecDouble>(); }
TEST(BlasPinned, OutputPadDoesNotChangeBitsSingle) { expect_output_pad_irrelevant<PrecSingle>(); }

// --- pinned reduction, conversion and gamma_5 bits --------------------------------
// Two sizes: the 101 sites above, and 2 kBlasGrain + 5 sites, whose
// reductions fold three chunks' partials.  A reduction's digest hashes the
// bit patterns of the doubles it returns, then the stored digest of the
// field it writes.

constexpr std::array<std::int64_t, 2> kFoldSizes = {kPinSites, 2 * exec::kBlasGrain + 5};
constexpr int kNumReductions = 5;
constexpr const char* kReductionNames[kNumReductions] = {"norm2", "cdot", "axpy_norm", "xmy_norm",
                                                         "bicgstab_r_update"};
using SizeDigests = std::array<std::uint64_t, kFoldSizes.size()>;

std::uint64_t hash_doubles(std::uint64_t h, std::initializer_list<double> v) {
  for (const double d : v) h = fnv1a(h, &d, sizeof d);
  return h;
}

template <typename P> std::uint64_t run_reduction(int k, std::int64_t sites) {
  const SpinorField<P> x = seeded_field<P>(1, kPinFace, sites);
  const SpinorField<P> z = seeded_field<P>(2, kPinFace, sites);
  SpinorField<P> out = seeded_field<P>(3, kPinFace, sites);
  std::uint64_t h = kFnvBasis;
  switch (k) {
    case 0: h = hash_doubles(h, {blas::norm2(x)}); break;
    case 1: {
      const complexd d = blas::cdot(x, z);
      h = hash_doubles(h, {d.re, d.im});
      break;
    }
    case 2: h = hash_doubles(h, {blas::axpy_norm(0.37, x, out)}); break;
    case 3: h = hash_doubles(h, {blas::xmy_norm(x, out)}); break;
    case 4: {
      const SpinorField<P> r0 = seeded_field<P>(4, kPinFace, sites);
      double r2 = 0;
      complexd rho;
      blas::bicgstab_r_update(out, x, z, complexd{0.9, 0.05}, r2, rho, r0);
      h = hash_doubles(h, {r2, rho.re, rho.im});
      break;
    }
  }
  const std::uint64_t written = stored_digest(out);
  return fnv1a(h, &written, sizeof written);
}

template <typename P>
void expect_reductions_pinned(const std::array<std::array<std::uint64_t, kNumReductions>,
                                               kFoldSizes.size()>& want) {
  for (std::size_t s = 0; s < kFoldSizes.size(); ++s)
    for (int k = 0; k < kNumReductions; ++k) {
      const std::uint64_t got = run_reduction<P>(k, kFoldSizes[s]);
      EXPECT_EQ(got, want[s][static_cast<std::size_t>(k)])
          << kReductionNames[k] << " on " << kFoldSizes[s] << " sites: 0x" << std::hex << got;
    }
}

TEST(BlasPinned, ReductionsDouble) {
  expect_reductions_pinned<PrecDouble>(
      {{{0xccdabb5e1e71c094, 0x5b695f598d397800, 0x97cdaec6265f2bf1,
        0x9039f9265f964adf, 0xba168f123a09d639},
       {0x0f92af67dad15301, 0xdaf6276d11c44db9, 0x92ff2da2bbd5f058,
        0x8d575396f46a6b58, 0xc723f4e7c2cc14b3}}});
}
TEST(BlasPinned, ReductionsSingle) {
  expect_reductions_pinned<PrecSingle>(
      {{{0x7937ba6382598e6d, 0xa171399169bec9a1, 0x75b870f21f5d6666,
        0x6a75bb371d96df37, 0x578ecf9b75e32341},
       {0xb422ebc7fdd00f3c, 0x94b77ba1ee8b750d, 0x7c927a086ba3268a,
        0x57be6768bf852cd2, 0x8bef29feaca81799}}});
}
TEST(BlasPinned, ReductionsHalf) {
  expect_reductions_pinned<PrecHalf>(
      {{{0x54d1a996815b5f91, 0x2fb15c2aa6890d88, 0x49d612324f797cd5,
        0x4b5dd498055e464e, 0xed76433ba4213e6b},
       {0xf74dc5207b2d6ac7, 0x8104cc7578b357b2, 0x6c996d24d95d6d70,
        0xae887768f8ea0dd2, 0x403b34949c61482a}}});
}

template <typename PDst, typename PSrc> void expect_convert_pinned(const SizeDigests& want) {
  for (std::size_t s = 0; s < kFoldSizes.size(); ++s) {
    const SpinorField<PSrc> src = seeded_field<PSrc>(5, kPinFace, kFoldSizes[s]);
    SpinorField<PDst> dst = seeded_field<PDst>(6, kPinFace, kFoldSizes[s]);
    convert_field(src, dst);
    const std::uint64_t got = stored_digest(dst);
    EXPECT_EQ(got, want[s]) << to_string(PSrc::value) << " -> " << to_string(PDst::value)
                            << " on " << kFoldSizes[s] << " sites: 0x" << std::hex << got;
  }
}

TEST(BlasPinned, ConvertField) {
  expect_convert_pinned<PrecSingle, PrecDouble>({0xdb597e211ad5738e, 0x080c183e73c6a110});
  expect_convert_pinned<PrecHalf, PrecDouble>({0xfa06811d86b0fd28, 0xae18922bb9cd30fc});
  expect_convert_pinned<PrecDouble, PrecSingle>({0x17ce3ca0f16c1a5f, 0x22b71f39dae16c98});
  expect_convert_pinned<PrecHalf, PrecSingle>({0xfa06811d86b0fd28, 0xae18922bb9cd30fc});
  expect_convert_pinned<PrecDouble, PrecHalf>({0x495bbac52dd0b2c9, 0x642f83c047365cc7});
  expect_convert_pinned<PrecSingle, PrecHalf>({0x69b1664b66df4cdd, 0x0c1034b04bb70dbd});
}

template <typename P> void expect_gamma5_pinned(const SizeDigests& want) {
  for (std::size_t s = 0; s < kFoldSizes.size(); ++s) {
    const SpinorField<P> in = seeded_field<P>(7, kPinFace, kFoldSizes[s]);
    SpinorField<P> out = seeded_field<P>(8, kPinFace, kFoldSizes[s]);
    apply_gamma5(out, in);
    const std::uint64_t got = stored_digest(out);
    EXPECT_EQ(got, want[s]) << to_string(P::value) << " on " << kFoldSizes[s] << " sites: 0x"
                            << std::hex << got;
  }
}

TEST(BlasPinned, Gamma5) {
  expect_gamma5_pinned<PrecDouble>({0x06c4fca353d635e1, 0x06f9c1d31c39c077});
  expect_gamma5_pinned<PrecSingle>({0xdfb2a5c1ffdf7247, 0xed77c73fb0a55323});
  expect_gamma5_pinned<PrecHalf>({0x6fecd0f4d8c7db5d, 0xbaa16eccfb0c8edb});
}

// --- auto-tuner -----------------------------------------------------------------

TEST(AutoTuner, PrefersPeakOccupancyForStreamingKernels) {
  blas::AutoTuner tuner(gpusim::geforce_gtx285());
  gpusim::KernelCost cost;
  cost.bytes = 1e7;
  cost.efficiency = 0.85;
  const auto& best = tuner.tune("stream", cost);
  EXPECT_EQ(best.launch.block_size, 256) << "256 threads has the peak occupancy factor";
  EXPECT_GT(best.time_us, 0.0);
}

TEST(AutoTuner, CachesByKey) {
  blas::AutoTuner tuner(gpusim::geforce_gtx285());
  gpusim::KernelCost a;
  a.bytes = 1e6;
  a.efficiency = 1.0;
  const auto* first = &tuner.tune("k1", a);
  const auto* again = &tuner.tune("k1", a);
  EXPECT_EQ(first, again);
  EXPECT_EQ(tuner.cache_size(), 1u);
  tuner.tune("k2", a);
  EXPECT_EQ(tuner.cache_size(), 2u);
}

TEST(AutoTuner, ExportsHeaderWithAllKeys) {
  blas::AutoTuner tuner(gpusim::geforce_gtx285());
  gpusim::KernelCost a;
  a.bytes = 1e6;
  a.efficiency = 1.0;
  tuner.tune("axpy_single", a);
  tuner.tune("caxpy_half", a);
  const std::string header = tuner.export_header();
  EXPECT_NE(header.find("BLOCKDIM_AXPY_SINGLE"), std::string::npos);
  EXPECT_NE(header.find("BLOCKDIM_CAXPY_HALF"), std::string::npos);
}

TEST(AutoTuner, TunedNeverWorseThanAnySweptConfig) {
  blas::AutoTuner tuner(gpusim::geforce_gtx285());
  gpusim::KernelCost cost;
  cost.bytes = 5e6;
  cost.flops = 2e6;
  cost.efficiency = 0.6;
  const auto& best = tuner.tune("sweep", cost);
  for (int block = 64; block <= 512; block += 64)
    EXPECT_LE(best.time_us, tuner.duration_at(cost, block) + 1e-12);
}

} // namespace
} // namespace quda
