// Ablation for Section V-D: reliable updates vs defect correction.
//
// The paper's mixed-precision solver keeps a single Krylov space and folds
// in high-precision corrections (reliable updates); the traditional
// alternative, defect correction, restarts the Krylov space at every
// correction and therefore needs more total iterations.  This bench runs
// both (real arithmetic, small lattice) across sloppy precisions and delta
// values and reports iteration counts and true residuals.

#include "dirac/clover_term.h"
#include "dirac/gauge_init.h"
#include "dirac/transfer.h"
#include "parallel/parallel_op.h"
#include "sim/event_sim.h"
#include "solvers/mixed_precision.h"

#include <cstdio>

using namespace quda;

int main() {
  const Geometry g({6, 6, 6, 8});
  HostGaugeField u(g);
  make_weak_field_gauge(u, 0.25, 424242);
  const double mass = 0.03, csw = 1.0; // light mass: an ill-conditioned system
  HostCloverField t = make_clover_term(u, csw);
  add_diag(t, 4.0 + mass);
  const HostCloverField tinv = invert_clover(t);

  const GaugeFieldD u_d = upload_gauge<PrecDouble>(u, Reconstruct::Twelve);
  const GaugeFieldS u_s = upload_gauge<PrecSingle>(u, Reconstruct::Twelve);
  const GaugeFieldH u_h = upload_gauge<PrecHalf>(u, Reconstruct::Twelve);
  const CloverFieldD t_d = upload_clover<PrecDouble>(t), tinv_d = upload_clover<PrecDouble>(tinv);
  const CloverFieldS t_s = upload_clover<PrecSingle>(t), tinv_s = upload_clover<PrecSingle>(tinv);
  const CloverFieldH t_h = upload_clover<PrecHalf>(t), tinv_h = upload_clover<PrecHalf>(tinv);

  HostSpinorField hb(g);
  make_random_spinor(hb, 5);
  const SpinorFieldD b = upload_spinor<PrecDouble>(hb, Parity::Even, kPartitionNone);

  // one GPU as the library runs it: the Schur operator on a one-rank grid
  sim::VirtualCluster cluster(sim::ClusterSpec::jlab_9g(1));
  cluster.run([&](sim::RankContext& ctx) {
    comm::QmpGrid grid(ctx, comm::GridTopology::time_only(1));
    const TimeBoundary bc = TimeBoundary::Antiperiodic;
    parallel::ParallelWilsonCloverOp<PrecDouble> op_d(grid, g, u_d, t_d, tinv_d, bc,
                                                      CommPolicy::Overlap);
    parallel::ParallelWilsonCloverOp<PrecSingle> op_s(grid, g, u_s, t_s, tinv_s, bc,
                                                      CommPolicy::Overlap);
    parallel::ParallelWilsonCloverOp<PrecHalf> op_h(grid, g, u_h, t_h, tinv_h, bc,
                                                    CommPolicy::Overlap);

    std::printf("Reliable updates vs defect correction (V = 6^3 x 8, m = %.2f, tol = 1e-10)\n\n",
                mass);
    std::printf("%-16s %-10s %-10s %8s %10s %10s %14s\n", "strategy", "sloppy", "delta", "iters",
                "updates", "restarts", "true |r|/|b|");

    SolverParams sp;
    sp.tol = 1e-10;
    sp.max_iter = 20000;

    const double deltas[] = {1e-1, 1e-2, 1e-3};
    for (Precision sloppy : {Precision::Single, Precision::Half}) {
      for (double delta : deltas) {
        sp.delta = delta;
        SpinorFieldD x(g, kPartitionNone);
        SolverStats rel;
        if (sloppy == Precision::Single)
          rel = solve_bicgstab_reliable(op_d, op_s, x, b, sp);
        else
          rel = solve_bicgstab_reliable(op_d, op_h, x, b, sp);
        std::printf("%-16s %-10s %-10.0e %8d %10d %10d %14.2e\n", "reliable", to_string(sloppy),
                    delta, rel.iterations, rel.reliable_updates, rel.restarts, rel.true_residual);
      }
      SpinorFieldD x(g, kPartitionNone);
      SolverStats dc;
      if (sloppy == Precision::Single)
        dc = solve_defect_correction(op_d, op_s, x, b, sp, 1e-2);
      else
        dc = solve_defect_correction(op_d, op_h, x, b, sp, 1e-1);
      std::printf("%-16s %-10s %-10s %8d %10s %10d %14.2e\n", "defect-corr", to_string(sloppy),
                  "-", dc.iterations, "-", dc.restarts, dc.true_residual);
    }

    // uniform double for reference
    SpinorFieldD x(g, kPartitionNone);
    SolverParams sp_u = sp;
    const SolverStats uni = solve_bicgstab(op_d, x, b, sp_u);
    std::printf("%-16s %-10s %-10s %8d %10s %10s %14.2e\n", "uniform", "double", "-",
                uni.iterations, "-", "-", uni.true_residual);

    std::printf("\nexpected: reliable updates converge in fewer total iterations than\n");
    std::printf("defect correction at equal sloppy precision (single Krylov space)\n");
  });
  return 0;
}
