// Integration tests: Krylov solvers on the even-odd preconditioned
// Wilson-clover system -- uniform precision BiCGstab and CGNR, mixed
// precision with reliable updates (single-half, double-half, double-single),
// the defect-correction baseline, and full-solution reconstruction.

#include "blas/blas.h"
#include "dirac/clover_term.h"
#include "dirac/gauge_init.h"
#include "dirac/transfer.h"
#include "dirac/wilson_ref.h"
#include "one_gpu.h"
#include "solvers/bicgstab.h"
#include "solvers/cg.h"
#include "solvers/mixed_precision.h"

#include <gtest/gtest.h>

namespace quda {
namespace {

// A complete one-GPU problem: weak-field gauge, clover term, uploaded fields
// in every precision, and operators over them on a one-rank grid.
struct Problem {
  Geometry g;
  HostGaugeField u;
  HostCloverField t, tinv;
  double mass, csw;

  GaugeFieldD gauge_d;
  GaugeFieldS gauge_s;
  GaugeFieldH gauge_h;
  CloverFieldD clover_d, clover_inv_d;
  CloverFieldS clover_s, clover_inv_s;
  CloverFieldH clover_h, clover_inv_h;

  Problem(LatticeDims dims, double mass_, double csw_, std::uint64_t seed = 2024)
      : g(dims), u(g), mass(mass_), csw(csw_) {
    make_weak_field_gauge(u, 0.2, seed);
    t = make_clover_term(u, csw);
    add_diag(t, 4.0 + mass);
    tinv = invert_clover(t);

    gauge_d = upload_gauge<PrecDouble>(u, Reconstruct::Twelve);
    gauge_s = upload_gauge<PrecSingle>(u, Reconstruct::Twelve);
    gauge_h = upload_gauge<PrecHalf>(u, Reconstruct::Twelve);
    clover_d = upload_clover<PrecDouble>(t);
    clover_inv_d = upload_clover<PrecDouble>(tinv);
    clover_s = upload_clover<PrecSingle>(t);
    clover_inv_s = upload_clover<PrecSingle>(tinv);
    clover_h = upload_clover<PrecHalf>(t);
    clover_inv_h = upload_clover<PrecHalf>(tinv);
  }

  template <typename P>
  auto op(comm::QmpGrid& grid, const GaugeField<P>& gauge, const CloverField<P>& clover,
          const CloverField<P>& clover_inv) {
    return one_gpu_op(grid, g, gauge, clover, clover_inv, TimeBoundary::Antiperiodic);
  }
  auto op_d(comm::QmpGrid& grid) { return op(grid, gauge_d, clover_d, clover_inv_d); }
  auto op_s(comm::QmpGrid& grid) { return op(grid, gauge_s, clover_s, clover_inv_s); }
  auto op_h(comm::QmpGrid& grid) { return op(grid, gauge_h, clover_h, clover_inv_h); }
};

TEST(BiCGstab, ConvergesDoublePrecision) {
  Problem prob({4, 4, 4, 8}, 0.1, 1.0);
  on_one_gpu([&](comm::QmpGrid& grid) {
    auto op = prob.op_d(grid);

    HostSpinorField hb(prob.g);
    make_random_spinor(hb, 31);
    const SpinorFieldD b = upload_spinor<PrecDouble>(hb, Parity::Even, kPartitionTimeOnly);
    SpinorFieldD x(prob.g, kPartitionTimeOnly);

    SolverParams sp;
    sp.tol = 1e-10;
    sp.max_iter = 500;
    const SolverStats stats = solve_bicgstab(op, x, b, sp);
    EXPECT_TRUE(stats.converged) << stats.summary();
    EXPECT_LT(stats.true_residual, 1e-9);
    EXPECT_GT(stats.iterations, 3);
  });
}

TEST(BiCGstab, ConvergesSinglePrecision) {
  Problem prob({4, 4, 4, 8}, 0.1, 1.0);
  on_one_gpu([&](comm::QmpGrid& grid) {
    auto op = prob.op_s(grid);

    HostSpinorField hb(prob.g);
    make_random_spinor(hb, 77);
    const SpinorFieldS b = upload_spinor<PrecSingle>(hb, Parity::Even, kPartitionTimeOnly);
    SpinorFieldS x(prob.g, kPartitionTimeOnly);

    SolverParams sp;
    sp.tol = 1e-5;
    sp.max_iter = 500;
    const SolverStats stats = solve_bicgstab(op, x, b, sp);
    EXPECT_TRUE(stats.converged) << stats.summary();
  });
}

TEST(BiCGstab, SolutionSatisfiesReferenceOperator) {
  // solve the Schur system, reconstruct the odd parity, and check the full
  // solution against the *reference* operator: M x == b end-to-end
  Problem prob({4, 4, 4, 8}, 0.15, 1.3, 555);
  on_one_gpu([&](comm::QmpGrid& grid) {
    auto op = prob.op_d(grid);

    HostSpinorField hb(prob.g);
    make_random_spinor(hb, 3);
    const SpinorFieldD b_e = upload_spinor<PrecDouble>(hb, Parity::Even, kPartitionTimeOnly);
    SpinorFieldD b_o = upload_spinor<PrecDouble>(hb, Parity::Odd, kPartitionTimeOnly);

    SpinorFieldD bprime(prob.g, kPartitionTimeOnly), x_e(prob.g, kPartitionTimeOnly),
        x_o(prob.g, kPartitionTimeOnly);
    op.prepare_source(bprime, b_e, b_o);

    SolverParams sp;
    sp.tol = 1e-11;
    sp.max_iter = 1000;
    const SolverStats stats = solve_bicgstab(op, x_e, bprime, sp);
    ASSERT_TRUE(stats.converged) << stats.summary();
    op.reconstruct_odd(x_o, x_e, b_o);

    HostSpinorField hx(prob.g);
    download_spinor(x_e, Parity::Even, hx);
    download_spinor(x_o, Parity::Odd, hx);

    // reference check
    WilsonParams wp;
    wp.mass = prob.mass;
    wp.time_bc = TimeBoundary::Antiperiodic;
    const DenseCloverField dense = make_dense_clover_term(prob.u, prob.csw);
    HostSpinorField mx(prob.g);
    apply_wilson_clover_ref(prob.u, dense, hx, mx, wp);

    double num = 0, den = 0;
    for (std::int64_t i = 0; i < prob.g.volume(); ++i) {
      num += norm2(mx[i] - hb[i]);
      den += norm2(hb[i]);
    }
    EXPECT_LT(std::sqrt(num / den), 1e-9);
  });
}

TEST(CGNR, ConvergesDoublePrecision) {
  Problem prob({4, 4, 4, 4}, 0.2, 1.0, 808);
  on_one_gpu([&](comm::QmpGrid& grid) {
    auto op = prob.op_d(grid);

    HostSpinorField hb(prob.g);
    make_random_spinor(hb, 10);
    const SpinorFieldD b = upload_spinor<PrecDouble>(hb, Parity::Even, kPartitionTimeOnly);
    SpinorFieldD x(prob.g, kPartitionTimeOnly);

    SolverParams sp;
    sp.tol = 1e-8;
    sp.max_iter = 2000;
    const SolverStats stats = solve_cgnr(op, x, b, sp);
    EXPECT_TRUE(stats.converged) << stats.summary();
    EXPECT_LT(stats.true_residual, 1e-8);
  });
}

TEST(MixedPrecision, SingleHalfReachesSingleTolerance) {
  // the paper's workhorse mode: outer single, sloppy half, target 1e-7
  Problem prob({4, 4, 4, 8}, 0.1, 1.0, 99);
  on_one_gpu([&](comm::QmpGrid& grid) {
    auto op_hi = prob.op_s(grid);
    auto op_lo = prob.op_h(grid);

    HostSpinorField hb(prob.g);
    make_random_spinor(hb, 8);
    const SpinorFieldS b = upload_spinor<PrecSingle>(hb, Parity::Even, kPartitionTimeOnly);
    SpinorFieldS x(prob.g, kPartitionTimeOnly);

    SolverParams sp;
    sp.tol = 1e-6;
    sp.delta = 1e-1; // the paper's delta for mixed single-half
    sp.max_iter = 2000;
    const SolverStats stats = solve_bicgstab_reliable(op_hi, op_lo, x, b, sp);
    EXPECT_TRUE(stats.converged) << stats.summary();
    EXPECT_GT(stats.reliable_updates, 0) << "half precision alone cannot reach 1e-6";
  });
}

TEST(MixedPrecision, DoubleHalfReachesDeepTolerance) {
  Problem prob({4, 4, 4, 8}, 0.1, 1.0, 44);
  on_one_gpu([&](comm::QmpGrid& grid) {
    auto op_hi = prob.op_d(grid);
    auto op_lo = prob.op_h(grid);

    HostSpinorField hb(prob.g);
    make_random_spinor(hb, 9);
    const SpinorFieldD b = upload_spinor<PrecDouble>(hb, Parity::Even, kPartitionTimeOnly);
    SpinorFieldD x(prob.g, kPartitionTimeOnly);

    SolverParams sp;
    sp.tol = 1e-10;
    sp.delta = 1e-2; // the paper's delta for mixed double-half
    sp.max_iter = 4000;
    const SolverStats stats = solve_bicgstab_reliable(op_hi, op_lo, x, b, sp);
    EXPECT_TRUE(stats.converged) << stats.summary();
    EXPECT_LT(stats.true_residual, 1e-9);
    EXPECT_GT(stats.reliable_updates, 1);
  });
}

TEST(MixedPrecision, DoubleSingleReachesDeepTolerance) {
  Problem prob({4, 4, 4, 8}, 0.1, 1.0, 45);
  on_one_gpu([&](comm::QmpGrid& grid) {
    auto op_hi = prob.op_d(grid);
    auto op_lo = prob.op_s(grid);

    HostSpinorField hb(prob.g);
    make_random_spinor(hb, 11);
    const SpinorFieldD b = upload_spinor<PrecDouble>(hb, Parity::Even, kPartitionTimeOnly);
    SpinorFieldD x(prob.g, kPartitionTimeOnly);

    SolverParams sp;
    sp.tol = 1e-12;
    sp.delta = 1e-3;
    sp.max_iter = 4000;
    const SolverStats stats = solve_bicgstab_reliable(op_hi, op_lo, x, b, sp);
    EXPECT_TRUE(stats.converged) << stats.summary();
    EXPECT_LT(stats.true_residual, 1e-11);
  });
}

TEST(MixedPrecision, DefectCorrectionConvergesButRestarts) {
  Problem prob({4, 4, 4, 8}, 0.1, 1.0, 46);
  on_one_gpu([&](comm::QmpGrid& grid) {
    auto op_hi = prob.op_d(grid);
    auto op_lo = prob.op_s(grid);

    HostSpinorField hb(prob.g);
    make_random_spinor(hb, 12);
    const SpinorFieldD b = upload_spinor<PrecDouble>(hb, Parity::Even, kPartitionTimeOnly);
    SpinorFieldD x(prob.g, kPartitionTimeOnly);

    SolverParams sp;
    sp.tol = 1e-10;
    sp.max_iter = 8000;
    const SolverStats stats = solve_defect_correction(op_hi, op_lo, x, b, sp, 1e-3);
    EXPECT_TRUE(stats.converged) << stats.summary();
    EXPECT_GT(stats.restarts, 1) << "defect correction restarts the Krylov space";
  });
}

TEST(MixedPrecision, ReliableBeatsDefectCorrectionOnIterations) {
  // the motivation for reliable updates the paper cites from [4]: a single
  // preserved Krylov space needs fewer total iterations than restarting
  Problem prob({4, 4, 4, 8}, 0.05, 1.0, 47); // lighter mass = harder system
  on_one_gpu([&](comm::QmpGrid& grid) {
    auto op_hi = prob.op_d(grid);
    auto op_lo1 = prob.op_s(grid);
    auto op_lo2 = prob.op_s(grid);

    HostSpinorField hb(prob.g);
    make_random_spinor(hb, 13);
    const SpinorFieldD b = upload_spinor<PrecDouble>(hb, Parity::Even, kPartitionTimeOnly);

    SolverParams sp;
    sp.tol = 1e-10;
    sp.delta = 1e-3;
    sp.max_iter = 8000;

    SpinorFieldD x1(prob.g, kPartitionTimeOnly), x2(prob.g, kPartitionTimeOnly);
    const SolverStats rel = solve_bicgstab_reliable(op_hi, op_lo1, x1, b, sp);
    const SolverStats dc = solve_defect_correction(op_hi, op_lo2, x2, b, sp, 1e-2);
    ASSERT_TRUE(rel.converged) << rel.summary();
    ASSERT_TRUE(dc.converged) << dc.summary();
    EXPECT_LE(rel.iterations, dc.iterations) << "reliable: " << rel.summary()
                                             << " vs defect-correction: " << dc.summary();
  });
}

TEST(Solvers, ZeroSourceGivesZeroSolution) {
  Problem prob({4, 4, 4, 4}, 0.2, 1.0, 48);
  on_one_gpu([&](comm::QmpGrid& grid) {
    auto op = prob.op_d(grid);
    SpinorFieldD b(prob.g, kPartitionTimeOnly), x(prob.g, kPartitionTimeOnly);
    HostSpinorField ones(prob.g);
    make_random_spinor(ones, 14);
    x = upload_spinor<PrecDouble>(ones, Parity::Even, kPartitionTimeOnly); // non-zero initial guess
    SolverParams sp;
    const SolverStats stats = solve_bicgstab(op, x, b, sp);
    EXPECT_TRUE(stats.converged);
    EXPECT_EQ(blas::norm2(x), 0.0);
  });
}

} // namespace
} // namespace quda
