// Integration tests: the optimized QUDA-order dslash and Wilson-clover
// operator against the independent naive-order reference implementation, in
// all three precisions and both temporal boundary conditions.

#include "dirac/dslash.h"
#include "dirac/gauge_init.h"
#include "dirac/transfer.h"
#include "dirac/wilson_ref.h"
#include "field_pins.h"
#include "one_gpu.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

namespace quda {
namespace {

struct DslashFixture {
  Geometry g;
  HostGaugeField u;
  HostSpinorField in;

  explicit DslashFixture(LatticeDims dims, std::uint64_t seed = 123)
      : g(dims), u(g), in(g) {
    make_random_gauge(u, seed);
    make_random_spinor(in, seed + 1);
  }
};

// apply the device path (both parities) and download to a host field
template <typename P>
HostSpinorField device_hopping(const DslashFixture& s, TimeBoundary bc) {
  const GaugeField<P> gauge = upload_gauge<P>(s.u, Reconstruct::Twelve);
  const SpinorField<P> in_e = upload_spinor<P>(s.in, Parity::Even, kPartitionTimeOnly);
  const SpinorField<P> in_o = upload_spinor<P>(s.in, Parity::Odd, kPartitionTimeOnly);
  SpinorField<P> out_e(s.g, kPartitionTimeOnly), out_o(s.g, kPartitionTimeOnly);

  DslashOptions opt;
  const double phase = bc == TimeBoundary::Antiperiodic ? -1.0 : 1.0;
  opt.bc_backward = phase;
  opt.bc_forward = phase;

  opt.out_parity = Parity::Even;
  dslash<P>(out_e, gauge, in_o, s.g, opt, 0, s.g.half_volume(), 1, Accumulate::No);
  opt.out_parity = Parity::Odd;
  dslash<P>(out_o, gauge, in_e, s.g, opt, 0, s.g.half_volume(), 1, Accumulate::No);

  HostSpinorField out(s.g);
  download_spinor(out_e, Parity::Even, out);
  download_spinor(out_o, Parity::Odd, out);
  return out;
}

double rel_dist2(const HostSpinorField& a, const HostSpinorField& b) {
  double num = 0, den = 0;
  for (std::int64_t i = 0; i < a.geom().volume(); ++i) {
    num += norm2(a[i] - b[i]);
    den += norm2(b[i]);
  }
  return num / den;
}

class DslashVsReference : public ::testing::TestWithParam<TimeBoundary> {};

TEST_P(DslashVsReference, DoublePrecisionHopping) {
  const DslashFixture s({4, 4, 4, 6});
  WilsonParams wp;
  wp.time_bc = GetParam();
  HostSpinorField ref(s.g);
  apply_hopping_ref(s.u, s.in, ref, wp);
  const HostSpinorField dev = device_hopping<PrecDouble>(s, GetParam());
  EXPECT_LT(rel_dist2(dev, ref), 1e-24);
}

TEST_P(DslashVsReference, SinglePrecisionHopping) {
  const DslashFixture s({4, 4, 4, 6});
  WilsonParams wp;
  wp.time_bc = GetParam();
  HostSpinorField ref(s.g);
  apply_hopping_ref(s.u, s.in, ref, wp);
  const HostSpinorField dev = device_hopping<PrecSingle>(s, GetParam());
  EXPECT_LT(rel_dist2(dev, ref), 1e-11);
}

TEST_P(DslashVsReference, HalfPrecisionHopping) {
  const DslashFixture s({4, 4, 4, 6});
  WilsonParams wp;
  wp.time_bc = GetParam();
  HostSpinorField ref(s.g);
  apply_hopping_ref(s.u, s.in, ref, wp);
  const HostSpinorField dev = device_hopping<PrecHalf>(s, GetParam());
  // 16-bit storage: relative error per element ~ 8 * 2/32767
  EXPECT_LT(rel_dist2(dev, ref), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(BothBCs, DslashVsReference,
                         ::testing::Values(TimeBoundary::Periodic, TimeBoundary::Antiperiodic),
                         [](const auto& info) {
                           return info.param == TimeBoundary::Periodic ? "periodic"
                                                                       : "antiperiodic";
                         });

TEST(DslashRegions, TimesliceSplitCoversWholeLattice) {
  // interior + boundary region calls must reproduce the full-volume kernel
  const DslashFixture s({4, 4, 4, 8});
  const GaugeField<PrecDouble> gauge = upload_gauge<PrecDouble>(s.u, Reconstruct::Twelve);
  const SpinorField<PrecDouble> in_o =
      upload_spinor<PrecDouble>(s.in, Parity::Odd, kPartitionTimeOnly);
  SpinorField<PrecDouble> full(s.g, kPartitionTimeOnly), split(s.g, kPartitionTimeOnly);

  DslashOptions opt;
  opt.out_parity = Parity::Even;
  dslash<PrecDouble>(full, gauge, in_o, s.g, opt, 0, s.g.half_volume(), 1, Accumulate::No);

  const std::int64_t fs = s.g.half_spatial_volume();
  const int t = s.g.dims().t;
  // boundary slices t=0 and t=T-1, interior in between
  dslash<PrecDouble>(split, gauge, in_o, s.g, opt, 0, fs, 1, Accumulate::No);
  dslash<PrecDouble>(split, gauge, in_o, s.g, opt, fs, (t - 1) * fs, 1, Accumulate::No);
  dslash<PrecDouble>(split, gauge, in_o, s.g, opt, (t - 1) * fs, t * fs, 1, Accumulate::No);

  for (std::int64_t i = 0; i < s.g.half_volume(); ++i)
    EXPECT_LT(norm2(convert<double>(full.load(i)) - convert<double>(split.load(i))), 1e-28);
}

TEST(DslashCompression, TwelveMatchesEighteen) {
  const DslashFixture s({4, 4, 4, 4});
  const HostSpinorField a = [&] {
    const GaugeField<PrecDouble> g12 = upload_gauge<PrecDouble>(s.u, Reconstruct::Twelve);
    const SpinorField<PrecDouble> in_o =
        upload_spinor<PrecDouble>(s.in, Parity::Odd, kPartitionTimeOnly);
    SpinorField<PrecDouble> out(s.g, kPartitionTimeOnly);
    DslashOptions opt;
    dslash<PrecDouble>(out, g12, in_o, s.g, opt, 0, s.g.half_volume(), 1, Accumulate::No);
    HostSpinorField h(s.g);
    download_spinor(out, Parity::Even, h);
    return h;
  }();
  const HostSpinorField b = [&] {
    const GaugeField<PrecDouble> g18 = upload_gauge<PrecDouble>(s.u, Reconstruct::Eighteen);
    const SpinorField<PrecDouble> in_o =
        upload_spinor<PrecDouble>(s.in, Parity::Odd, kPartitionTimeOnly);
    SpinorField<PrecDouble> out(s.g, kPartitionTimeOnly);
    DslashOptions opt;
    dslash<PrecDouble>(out, g18, in_o, s.g, opt, 0, s.g.half_volume(), 1, Accumulate::No);
    HostSpinorField h(s.g);
    download_spinor(out, Parity::Even, h);
    return h;
  }();
  // only even sites were written; compare those
  double num = 0;
  for (std::int64_t i = 0; i < s.g.volume(); ++i)
    if (Geometry::site_parity(s.g.coords(i)) == Parity::Even) num += norm2(a[i] - b[i]);
  EXPECT_LT(num, 1e-22);
}

TEST(DslashCompression, EightMatchesEighteen) {
  const DslashFixture s({4, 4, 4, 4});
  const auto run = [&](Reconstruct recon) {
    const GaugeField<PrecDouble> g = upload_gauge<PrecDouble>(s.u, recon);
    const SpinorField<PrecDouble> in_o =
        upload_spinor<PrecDouble>(s.in, Parity::Odd, kPartitionTimeOnly);
    SpinorField<PrecDouble> out(s.g, kPartitionTimeOnly);
    DslashOptions opt;
    dslash<PrecDouble>(out, g, in_o, s.g, opt, 0, s.g.half_volume(), 1, Accumulate::No);
    HostSpinorField h(s.g);
    download_spinor(out, Parity::Even, h);
    return h;
  };
  const HostSpinorField a = run(Reconstruct::Eight);
  const HostSpinorField b = run(Reconstruct::Eighteen);
  // the 8-real path re-derives six of nine link entries through atan2 and
  // Cramer's rule, so it agrees to reconstruction accuracy, not exactly
  double num = 0, den = 0;
  for (std::int64_t i = 0; i < s.g.volume(); ++i)
    if (Geometry::site_parity(s.g.coords(i)) == Parity::Even) {
      num += norm2(a[i] - b[i]);
      den += norm2(b[i]);
    }
  EXPECT_LT(num / den, 1e-20);
}

class FullOperator : public ::testing::TestWithParam<double> {};

TEST_P(FullOperator, WilsonCloverMatchesReference) {
  const double csw = GetParam();
  const DslashFixture s({4, 4, 4, 6}, 321);
  const double mass = 0.1;

  WilsonParams wp;
  wp.mass = mass;
  wp.time_bc = TimeBoundary::Antiperiodic;

  HostSpinorField ref(s.g);
  const DenseCloverField dense = make_dense_clover_term(s.u, csw);
  apply_wilson_clover_ref(s.u, dense, s.in, ref, wp);

  // device path
  HostCloverField t = make_clover_term(s.u, csw);
  add_diag(t, 4.0 + mass);
  const HostCloverField tinv = invert_clover(t);

  const GaugeField<PrecDouble> gauge = upload_gauge<PrecDouble>(s.u, Reconstruct::Twelve);
  const CloverField<PrecDouble> cl = upload_clover<PrecDouble>(t);
  const CloverField<PrecDouble> clinv = upload_clover<PrecDouble>(tinv);

  on_one_gpu([&](comm::QmpGrid& grid) {
    auto op = one_gpu_op(grid, s.g, gauge, cl, clinv, TimeBoundary::Antiperiodic);

    SpinorFieldD in_e = upload_spinor<PrecDouble>(s.in, Parity::Even, kPartitionTimeOnly);
    SpinorFieldD in_o = upload_spinor<PrecDouble>(s.in, Parity::Odd, kPartitionTimeOnly);
    SpinorFieldD out_e(s.g, kPartitionTimeOnly), out_o(s.g, kPartitionTimeOnly);
    op.apply_full(out_e, out_o, in_e, in_o);

    HostSpinorField dev(s.g);
    download_spinor(out_e, Parity::Even, dev);
    download_spinor(out_o, Parity::Odd, dev);

    EXPECT_LT(rel_dist2(dev, ref), 1e-22) << "csw = " << csw;
  });
}

INSTANTIATE_TEST_SUITE_P(CswValues, FullOperator, ::testing::Values(0.0, 1.0, 1.72),
                         [](const auto& info) {
                           return "csw_" + std::to_string(static_cast<int>(info.param * 100));
                         });

// one fixture for the whole suite: gtest requires it of a suite that mixes
// the plain DaggerIsAdjoint with the per-precision pins below
class SchurOperator : public ::testing::TestWithParam<Precision> {};

TEST_F(SchurOperator, DaggerIsAdjoint) {
  // <y, Mhat x> == <Mhat^dag y, x> for random x, y
  const DslashFixture s({4, 4, 4, 4}, 77);
  const double mass = 0.2, csw = 1.0;
  HostCloverField t = make_clover_term(s.u, csw);
  add_diag(t, 4.0 + mass);
  const HostCloverField tinv = invert_clover(t);

  const GaugeField<PrecDouble> gauge = upload_gauge<PrecDouble>(s.u, Reconstruct::Twelve);
  const CloverField<PrecDouble> cl = upload_clover<PrecDouble>(t);
  const CloverField<PrecDouble> clinv = upload_clover<PrecDouble>(tinv);
  on_one_gpu([&](comm::QmpGrid& grid) {
    auto op = one_gpu_op(grid, s.g, gauge, cl, clinv, TimeBoundary::Periodic);

    HostSpinorField hx(s.g), hy(s.g);
    make_random_spinor(hx, 5);
    make_random_spinor(hy, 6);
    const SpinorFieldD x = upload_spinor<PrecDouble>(hx, Parity::Even, kPartitionTimeOnly);
    const SpinorFieldD y = upload_spinor<PrecDouble>(hy, Parity::Even, kPartitionTimeOnly);
    SpinorFieldD mx(s.g, kPartitionTimeOnly), mdy(s.g, kPartitionTimeOnly);
    op.apply(mx, x);
    op.apply_dagger(mdy, y);

    const complexd lhs = blas::cdot(y, mx);
    const complexd rhs = blas::cdot(mdy, x);
    EXPECT_NEAR(lhs.re, rhs.re, 1e-8 * std::abs(lhs.re) + 1e-10);
    EXPECT_NEAR(lhs.im, rhs.im, 1e-8 * std::abs(lhs.re) + 1e-10);
  });
}

// The Schur operator's outputs pinned bit for bit on a one-rank grid, the
// way invert() runs one GPU: Mhat, Mhat^dag, the prepared source, the
// reconstructed odd parity and the full matrix on both parities, by the
// stored digest of each output field (half norms included).  The pins were
// taken from the former single-device operator, which these outputs matched
// bit for bit.
template <typename P>
std::array<std::uint64_t, 6> schur_digests(parallel::ParallelWilsonCloverOp<P>& op,
                                           const Geometry& g, SpinorField<P>& in_e,
                                           SpinorField<P>& in_o) {
  SpinorField<P> out(g, kPartitionNone), dag(g, kPartitionNone), bprime(g, kPartitionNone),
      x_o(g, kPartitionNone), full_e(g, kPartitionNone), full_o(g, kPartitionNone);
  op.apply(out, in_e);
  op.apply_dagger(dag, in_e);
  op.prepare_source(bprime, in_e, in_o);
  op.reconstruct_odd(x_o, in_e, in_o);
  op.apply_full(full_e, full_o, in_e, in_o);
  return {stored_digest(out), stored_digest(dag),    stored_digest(bprime),
          stored_digest(x_o), stored_digest(full_e), stored_digest(full_o)};
}

template <typename P> void expect_schur_pinned(const std::array<std::uint64_t, 6>& pins) {
  const Geometry g({4, 4, 4, 8});
  HostGaugeField u(g);
  make_weak_field_gauge(u, 0.2, 2401);
  HostCloverField t = make_clover_term(u, 1.2);
  add_diag(t, 4.0 + 0.1);
  const HostCloverField tinv = invert_clover(t);
  const GaugeField<P> gauge = upload_gauge<P>(u, Reconstruct::Twelve);
  const CloverField<P> cl = upload_clover<P>(t);
  const CloverField<P> clinv = upload_clover<P>(tinv);
  HostSpinorField h(g);
  make_random_spinor(h, 2402);
  SpinorField<P> in_e = upload_spinor<P>(h, Parity::Even, kPartitionNone);
  SpinorField<P> in_o = upload_spinor<P>(h, Parity::Odd, kPartitionNone);

  on_one_gpu([&](comm::QmpGrid& grid) {
    auto op = one_gpu_op(grid, g, gauge, cl, clinv, TimeBoundary::Antiperiodic);
    const std::array<std::uint64_t, 6> got = schur_digests(op, g, in_e, in_o);
    for (std::size_t k = 0; k < got.size(); ++k)
      EXPECT_EQ(got[k], pins[k]) << "output " << k << ": 0x" << std::hex << got[k];
  });
}

TEST_P(SchurOperator, OneRankGridMatchesSingleDevice) {
  switch (GetParam()) {
    case Precision::Double:
      expect_schur_pinned<PrecDouble>({0x62bcde550cc995d6ull, 0x55a9fb7acb623b3dull,
                                       0x3cfc4367bf41e9b3ull, 0x0e2e452350cc4e63ull,
                                       0x5f67ea172f77e7d4ull, 0x18095b106a4222acull});
      break;
    case Precision::Single:
      expect_schur_pinned<PrecSingle>({0x7099a3f83c915bd2ull, 0x4c2fd66a6da27161ull,
                                       0x28a473736eec58daull, 0x36f0289ce578baf4ull,
                                       0x372599b87accdc51ull, 0xb1c595d48acb347bull});
      break;
    case Precision::Half:
      expect_schur_pinned<PrecHalf>({0x40974c2c0eb23525ull, 0x4f2d6ed084faeb33ull,
                                     0x672b4eaad368f490ull, 0xdb3db27335558e05ull,
                                     0x1c304fc290da2c84ull, 0x149f9a35bff83630ull});
      break;
  }
}

std::string precision_name(const ::testing::TestParamInfo<Precision>& info) {
  const char* names[] = {"Double", "Single", "Half"};
  return names[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(, SchurOperator,
                         ::testing::Values(Precision::Double, Precision::Single, Precision::Half),
                         precision_name);

TEST(BasisRotationEquivalence, ReferenceOperatorsRelatedByRotation) {
  // M^NR (S psi) == S (M^DR psi): rotating the field and applying the
  // internal-basis operator equals applying the DR-basis operator and
  // rotating -- validates the interface-basis conversion path
  const DslashFixture s({4, 4, 4, 4}, 888);
  WilsonParams nr, dr;
  nr.mass = dr.mass = 0.3;
  nr.basis = GammaBasis::NonRelativistic;
  dr.basis = GammaBasis::DeGrandRossi;

  HostSpinorField rotated_in(s.g);
  for (std::int64_t i = 0; i < s.g.volume(); ++i)
    rotated_in[i] = rotate_basis(GammaBasis::DeGrandRossi, GammaBasis::NonRelativistic, s.in[i]);

  HostSpinorField out_nr(s.g), out_dr(s.g);
  apply_wilson_ref(s.u, rotated_in, out_nr, nr);
  apply_wilson_ref(s.u, s.in, out_dr, dr);

  double num = 0, den = 0;
  for (std::int64_t i = 0; i < s.g.volume(); ++i) {
    const Spinor<double> rotated_out =
        rotate_basis(GammaBasis::DeGrandRossi, GammaBasis::NonRelativistic, out_dr[i]);
    num += norm2(out_nr[i] - rotated_out);
    den += norm2(rotated_out);
  }
  EXPECT_LT(num / den, 1e-24);
}

} // namespace
} // namespace quda
