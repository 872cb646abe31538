// Cross-checks among solvers and remaining model corners: CGNR and BiCGstab
// agree on the solution; nonzero initial guesses work; boundary conditions
// matter; the clover xpay fusion; and the CPU-cluster baseline model.

#include "cpuref/cpu_cluster.h"
#include "dirac/clover_term.h"
#include "dirac/gauge_init.h"
#include "dirac/transfer.h"
#include "one_gpu.h"
#include "solvers/bicgstab.h"
#include "solvers/cg.h"

#include <gtest/gtest.h>

namespace quda {
namespace {

struct Sys {
  Geometry g{LatticeDims{4, 4, 4, 8}};
  HostGaugeField u;
  HostCloverField t, tinv;
  GaugeFieldD gauge;
  CloverFieldD clover, clover_inv;
  TimeBoundary bc;

  explicit Sys(TimeBoundary bc_ = TimeBoundary::Antiperiodic) : u(g), bc(bc_) {
    make_weak_field_gauge(u, 0.2, 50001);
    t = make_clover_term(u, 1.0);
    add_diag(t, 4.1);
    tinv = invert_clover(t);
    gauge = upload_gauge<PrecDouble>(u, Reconstruct::Twelve);
    clover = upload_clover<PrecDouble>(t);
    clover_inv = upload_clover<PrecDouble>(tinv);
  }

  auto op(comm::QmpGrid& grid) { return one_gpu_op(grid, g, gauge, clover, clover_inv, bc); }
};

double field_rel_dist2(const SpinorFieldD& a, const SpinorFieldD& b) {
  double num = 0, den = 0;
  for (std::int64_t i = 0; i < a.sites(); ++i) {
    num += quda::norm2(a.load(i) - b.load(i));
    den += quda::norm2(b.load(i));
  }
  return num / den;
}

TEST(SolverCrossChecks, CgnrAndBicgstabAgreeOnTheSolution) {
  Sys s;
  on_one_gpu([&](comm::QmpGrid& grid) {
    auto op = s.op(grid);
    HostSpinorField hb(s.g);
    make_random_spinor(hb, 50002);
    const SpinorFieldD b = upload_spinor<PrecDouble>(hb, Parity::Even, kPartitionTimeOnly);

    SpinorFieldD x_bi(s.g, kPartitionTimeOnly), x_cg(s.g, kPartitionTimeOnly);
    SolverParams sp;
    sp.tol = 1e-10;
    sp.max_iter = 4000;
    const SolverStats s1 = solve_bicgstab(op, x_bi, b, sp);
    const SolverStats s2 = solve_cgnr(op, x_cg, b, sp);
    ASSERT_TRUE(s1.converged) << s1.summary();
    ASSERT_TRUE(s2.converged) << s2.summary();
    EXPECT_LT(field_rel_dist2(x_bi, x_cg), 1e-16);
    // CG on the normal equations squares the condition number: more iterations
    EXPECT_GT(s2.iterations, s1.iterations);
  });
}

TEST(SolverCrossChecks, NonzeroInitialGuessConvergesToSameSolution) {
  Sys s;
  on_one_gpu([&](comm::QmpGrid& grid) {
    auto op = s.op(grid);
    HostSpinorField hb(s.g), hguess(s.g);
    make_random_spinor(hb, 50003);
    make_random_spinor(hguess, 50004);
    const SpinorFieldD b = upload_spinor<PrecDouble>(hb, Parity::Even, kPartitionTimeOnly);

    SolverParams sp;
    sp.tol = 1e-11;
    sp.max_iter = 4000;

    SpinorFieldD x_zero(s.g, kPartitionTimeOnly);
    SpinorFieldD x_guess = upload_spinor<PrecDouble>(hguess, Parity::Even, kPartitionTimeOnly);
    const SolverStats s1 = solve_bicgstab(op, x_zero, b, sp);
    const SolverStats s2 = solve_bicgstab(op, x_guess, b, sp);
    ASSERT_TRUE(s1.converged);
    ASSERT_TRUE(s2.converged);
    EXPECT_LT(field_rel_dist2(x_guess, x_zero), 1e-18);
  });
}

TEST(SolverCrossChecks, BoundaryConditionChangesTheSolution) {
  // anti-periodic vs periodic time BC are different operators; a solver that
  // ignored the phase would pass the residual check of the wrong system
  Sys s_apbc(TimeBoundary::Antiperiodic);
  Sys s_pbc(TimeBoundary::Periodic);
  on_one_gpu([&](comm::QmpGrid& grid) {
    auto op_a = s_apbc.op(grid);
    auto op_p = s_pbc.op(grid);

    HostSpinorField hb(s_apbc.g);
    make_random_spinor(hb, 50005);
    const SpinorFieldD b = upload_spinor<PrecDouble>(hb, Parity::Even, kPartitionTimeOnly);
    SpinorFieldD xa(s_apbc.g, kPartitionTimeOnly), xp(s_pbc.g, kPartitionTimeOnly);
    SolverParams sp;
    sp.tol = 1e-10;
    sp.max_iter = 4000;
    ASSERT_TRUE(solve_bicgstab(op_a, xa, b, sp).converged);
    ASSERT_TRUE(solve_bicgstab(op_p, xp, b, sp).converged);
    EXPECT_GT(field_rel_dist2(xa, xp), 1e-6);
  });
}

TEST(SolverCrossChecks, CloverXpayFusionMatchesComposition) {
  Sys s;
  HostSpinorField hx(s.g), hy(s.g);
  make_random_spinor(hx, 50006);
  make_random_spinor(hy, 50007);
  const SpinorFieldD x = upload_spinor<PrecDouble>(hx, Parity::Even, kPartitionTimeOnly);
  SpinorFieldD fused = upload_spinor<PrecDouble>(hy, Parity::Even, kPartitionTimeOnly);
  SpinorFieldD plain(s.g, kPartitionTimeOnly);

  const double bcoef = -0.25;
  // fused: out = C x + b out
  apply_clover_xpay<PrecDouble>(fused, s.clover, Parity::Even, x, s.g, 0, s.g.half_volume(),
                                bcoef);
  // composed: C x, then add b*y manually
  apply_clover_xpay<PrecDouble>(plain, s.clover, Parity::Even, x, s.g, 0, s.g.half_volume(), 0);
  const SpinorFieldD y = upload_spinor<PrecDouble>(hy, Parity::Even, kPartitionTimeOnly);
  blas::axpy(bcoef, y, plain);
  for (std::int64_t i = 0; i < x.sites(); ++i)
    ASSERT_LT(quda::norm2(fused.load(i) - plain.load(i)), 1e-24);
}

TEST(CpuCluster, BaselineModelMatchesPaperNumbers) {
  // 16 nodes x 8 Nehalem cores at ~2 Gflops/core SSE = the paper's 255 Gflops
  EXPECT_NEAR(cpuref::cluster_gflops(16, Precision::Single), 256.0, 8.0);
  EXPECT_EQ(cpuref::sse_core_gflops(Precision::Half), 0.0) << "no 16-bit SSE path";
  EXPECT_LT(cpuref::cluster_gflops(16, Precision::Double),
            cpuref::cluster_gflops(16, Precision::Single));
  // iteration time scales with volume and inversely with nodes
  const double t16 = cpuref::iteration_time_us({32, 32, 32, 256}, 16, Precision::Single);
  const double t32 = cpuref::iteration_time_us({32, 32, 32, 256}, 32, Precision::Single);
  EXPECT_NEAR(t16 / t32, 2.0, 1e-9);
}

TEST(SolverCrossChecks, MaxIterZeroReturnsNotConverged) {
  Sys s;
  on_one_gpu([&](comm::QmpGrid& grid) {
    auto op = s.op(grid);
    HostSpinorField hb(s.g);
    make_random_spinor(hb, 50008);
    const SpinorFieldD b = upload_spinor<PrecDouble>(hb, Parity::Even, kPartitionTimeOnly);
    SpinorFieldD x(s.g, kPartitionTimeOnly);
    SolverParams sp;
    sp.tol = 1e-10;
    sp.max_iter = 0;
    const SolverStats stats = solve_bicgstab(op, x, b, sp);
    EXPECT_FALSE(stats.converged);
    EXPECT_EQ(stats.iterations, 0);
  });
}

} // namespace
} // namespace quda
