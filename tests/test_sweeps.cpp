// Parameterized property sweeps: memory-footprint arithmetic across volumes
// and precision modes, solver convergence across tolerance targets, field
// precision conversions, and the interior/boundary kernel-region split.

#include "dirac/gauge_init.h"
#include "dirac/transfer.h"
#include "one_gpu.h"
#include "parallel/halo_dslash.h"
#include "perfmodel/footprint.h"
#include "solvers/bicgstab.h"
#include "solvers/mixed_precision.h"

#include <gtest/gtest.h>

namespace quda {
namespace {

// --- footprint sweeps -----------------------------------------------------------

class FootprintSweep : public ::testing::TestWithParam<LatticeDims> {};

TEST_P(FootprintSweep, ScalesLinearlyWithVolume) {
  const LatticeDims dims = GetParam();
  LatticeDims doubled = dims;
  doubled.t *= 2;
  const auto f1 = perf::solver_footprint(dims, Precision::Single);
  const auto f2 = perf::solver_footprint(doubled, Precision::Single);
  // doubling T doubles every volume term; padding/ghosts scale sublinearly
  EXPECT_GT(f2.total(), 1.9 * f1.total());
  EXPECT_LT(f2.total(), 2.1 * f1.total());
}

TEST_P(FootprintSweep, PrecisionOrdering) {
  const LatticeDims dims = GetParam();
  const auto fd = perf::solver_footprint(dims, Precision::Double);
  const auto fs = perf::solver_footprint(dims, Precision::Single);
  const auto mixed = perf::solver_footprint(dims, Precision::Single, Precision::Half);
  EXPECT_GT(fd.total(), fs.total());
  // mixed stores both precision copies: bigger than uniform single
  EXPECT_GT(mixed.total(), fs.total());
  EXPECT_LT(mixed.total(), fd.total()) << "half copies cost less than full double";
}

TEST_P(FootprintSweep, GaugeBytesExact) {
  const LatticeDims dims = GetParam();
  // single precision, 12-real compression, one face of padding
  const std::int64_t expect =
      (dims.volume() + dims.spatial_volume()) * 4 * 12 * 4;
  EXPECT_EQ(perf::gauge_field_bytes(Precision::Single, dims), expect);
  // double stores 18 reals
  const std::int64_t expect_d =
      (dims.volume() + dims.spatial_volume()) * 4 * 18 * 8;
  EXPECT_EQ(perf::gauge_field_bytes(Precision::Double, dims), expect_d);
}

INSTANTIATE_TEST_SUITE_P(Volumes, FootprintSweep,
                         ::testing::Values(LatticeDims{16, 16, 16, 32},
                                           LatticeDims{24, 24, 24, 32},
                                           LatticeDims{24, 24, 24, 64},
                                           LatticeDims{32, 32, 32, 32},
                                           LatticeDims{32, 32, 32, 64}),
                         [](const auto& info) { return info.param.to_string(); });

// --- solver tolerance sweep ------------------------------------------------------

struct SolveSetup {
  Geometry g{LatticeDims{4, 4, 4, 8}};
  HostGaugeField u;
  HostCloverField t, tinv;
  GaugeFieldD gauge;
  CloverFieldD clover, clover_inv;

  SolveSetup() : u(g) {
    make_weak_field_gauge(u, 0.2, 40001);
    t = make_clover_term(u, 1.0);
    add_diag(t, 4.1);
    tinv = invert_clover(t);
    gauge = upload_gauge<PrecDouble>(u, Reconstruct::Twelve);
    clover = upload_clover<PrecDouble>(t);
    clover_inv = upload_clover<PrecDouble>(tinv);
  }

  auto op(comm::QmpGrid& grid) {
    return one_gpu_op(grid, g, gauge, clover, clover_inv, TimeBoundary::Periodic);
  }
};

class ToleranceSweep : public ::testing::TestWithParam<double> {};

TEST_P(ToleranceSweep, BiCGstabReachesTarget) {
  // NOLINT(sim-static-state): fixture cached across the parameter sweep --
  // construction dominates the test time and the setup is read-only after init
  static SolveSetup setup;
  on_one_gpu([&](comm::QmpGrid& grid) {
    auto op = setup.op(grid);
    HostSpinorField hb(setup.g);
    make_random_spinor(hb, 40002);
    const SpinorFieldD b = upload_spinor<PrecDouble>(hb, Parity::Even, kPartitionTimeOnly);
    SpinorFieldD x(setup.g, kPartitionTimeOnly);

    SolverParams sp;
    sp.tol = GetParam();
    sp.max_iter = 2000;
    const SolverStats stats = solve_bicgstab(op, x, b, sp);
    EXPECT_TRUE(stats.converged) << stats.summary();
    EXPECT_LE(stats.true_residual, GetParam() * 2.5);
  });
}

INSTANTIATE_TEST_SUITE_P(Tolerances, ToleranceSweep,
                         ::testing::Values(1e-4, 1e-6, 1e-8, 1e-10, 1e-12),
                         [](const auto& info) {
                           return "tol1em" + std::to_string(
                                                 static_cast<int>(-std::log10(info.param) + 0.5));
                         });

// tighter tolerance must not need fewer iterations (monotonicity)
TEST(ToleranceMonotonicity, IterationsGrowWithPrecision) {
  SolveSetup setup;
  on_one_gpu([&](comm::QmpGrid& grid) {
    auto op = setup.op(grid);
    HostSpinorField hb(setup.g);
    make_random_spinor(hb, 40003);
    const SpinorFieldD b = upload_spinor<PrecDouble>(hb, Parity::Even, kPartitionTimeOnly);

    int prev_iters = 0;
    for (double tol : {1e-4, 1e-7, 1e-10}) {
      SpinorFieldD x(setup.g, kPartitionTimeOnly);
      SolverParams sp;
      sp.tol = tol;
      sp.max_iter = 2000;
      const SolverStats stats = solve_bicgstab(op, x, b, sp);
      ASSERT_TRUE(stats.converged);
      EXPECT_GE(stats.iterations, prev_iters);
      prev_iters = stats.iterations;
    }
  });
}

// --- precision conversion round trips --------------------------------------------

TEST(ConvertField, DoubleToSingleToDoubleLosesOnlySinglePrecision) {
  const Geometry g({4, 4, 4, 4});
  HostSpinorField h(g);
  make_random_spinor(h, 40004);
  const SpinorFieldD d = upload_spinor<PrecDouble>(h, Parity::Even, kPartitionTimeOnly);
  SpinorFieldS s(g, kPartitionTimeOnly);
  SpinorFieldD back(g, kPartitionTimeOnly);
  convert_field(d, s);
  convert_field(s, back);
  double num = 0, den = 0;
  for (std::int64_t i = 0; i < d.sites(); ++i) {
    num += quda::norm2(back.load(i) - d.load(i));
    den += quda::norm2(d.load(i));
  }
  EXPECT_LT(num / den, 1e-13);
  EXPECT_GT(num, 0.0) << "single precision must actually round";
}

TEST(ConvertField, HalfRoundTripWithinQuantizationBound) {
  const Geometry g({4, 4, 4, 4});
  HostSpinorField hf(g);
  make_random_spinor(hf, 40005);
  const SpinorFieldS s = upload_spinor<PrecSingle>(hf, Parity::Even, kPartitionTimeOnly);
  SpinorFieldH h(g, kPartitionTimeOnly);
  SpinorFieldS back(g, kPartitionTimeOnly);
  convert_field(s, h);
  convert_field(h, back);
  for (std::int64_t i = 0; i < s.sites(); ++i) {
    const auto a = s.load(i), b = back.load(i);
    const float bound = 2.0f * max_abs(a) / kHalfPointScale;
    for (std::size_t spin = 0; spin < 4; ++spin)
      for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_NEAR(a.s[spin][c].re, b.s[spin][c].re, bound);
        EXPECT_NEAR(a.s[spin][c].im, b.s[spin][c].im, bound);
      }
  }
}

// --- kernel region split ----------------------------------------------------------

TEST(KernelRegions, InteriorPlusBoundaryEqualsAll) {
  // a periodic single-rank "self-exchange": packing the field's own faces
  // into its own ghost zones makes ghost reads identical to wrapped reads,
  // so the region-split kernel must reproduce the wrap kernel exactly
  const Geometry g({4, 4, 4, 8});
  HostGaugeField hu(g);
  HostSpinorField hin(g);
  make_random_gauge(hu, 40006);
  make_random_spinor(hin, 40007);

  for (const PartitionMask mask :
       {PartitionMask{false, false, false, true}, PartitionMask{false, true, false, true},
        PartitionMask{true, true, true, true}}) {
    GaugeFieldD u = upload_gauge<PrecDouble>(hu, Reconstruct::Twelve);
    SpinorFieldD in(g, mask);
    {
      const SpinorFieldD tmp = upload_spinor<PrecDouble>(hin, Parity::Odd, mask);
      blas::copy(in, tmp);
    }
    // self-exchange: own last face -> own Backward ghost (and gauge ghost),
    // own first face -> own Forward ghost
    for (int mu = 0; mu < 4; ++mu) {
      if (!mask[static_cast<std::size_t>(mu)]) continue;
      FaceBuffer<PrecDouble> fwd_face, back_face;
      pack_face(in, g, Parity::Odd, mu, +1, fwd_face);
      unpack_ghost(in, g, mu, GhostFace::Backward, fwd_face);
      pack_face(in, g, Parity::Odd, mu, -1, back_face);
      unpack_ghost(in, g, mu, GhostFace::Forward, back_face);
      GaugeFaceBuffer<PrecDouble> gf;
      pack_gauge_face(u, g, mu, gf);
      unpack_gauge_ghost(u, g, mu, gf);
    }

    SpinorFieldD all(g, mask), split(g, mask);
    DslashOptions wrap;
    dslash<PrecDouble>(all, u, in, g, wrap, 1, Accumulate::No);

    DslashOptions ghosted;
    ghosted.ghost = mask;
    dslash<PrecDouble>(split, u, in, g, ghosted, 1, Accumulate::No, KernelRegion::Interior);
    dslash<PrecDouble>(split, u, in, g, ghosted, 1, Accumulate::No, KernelRegion::Boundary);

    for (std::int64_t i = 0; i < g.half_volume(); ++i)
      ASSERT_LT(quda::norm2(split.load(i) - all.load(i)), 1e-24)
          << "site " << i << " differs for a mask";
  }
}

TEST(KernelRegions, InteriorCountMatchesDirectEnumeration) {
  const Geometry g({4, 4, 4, 8});
  for (const PartitionMask mask :
       {PartitionMask{false, false, false, true}, PartitionMask{false, true, false, true},
        PartitionMask{true, true, true, true}}) {
    std::int64_t interior = 0;
    for (std::int64_t cb = 0; cb < g.half_volume(); ++cb) {
      const Coords x = g.cb_coords(Parity::Even, cb);
      bool edge = false;
      for (int mu = 0; mu < 4; ++mu)
        if (mask[static_cast<std::size_t>(mu)] && (x[mu] == 0 || x[mu] == g.dims()[mu] - 1))
          edge = true;
      if (!edge) ++interior;
    }
    EXPECT_EQ(interior, parallel::interior_sites(g, mask));
  }
}

} // namespace
} // namespace quda
