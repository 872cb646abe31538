#pragma once
// Conjugate gradients on the normal equations (CGNR): solves A x = b via
// the Hermitian positive-definite system A^dag A x = A^dag b.  QUDA provides
// CG alongside BiCGstab (Section V); for the gamma_5-Hermitian Wilson-clover
// matrix the dagger application costs one extra pair of gamma_5 sweeps.

#include "solvers/checkpoint.h"
#include "solvers/linear_operator.h"
#include "solvers/solver.h"
#include "trace/telemetry.h"
#include "trace/trace.h"

#include <cmath>
#include <cstdio>

namespace quda {

template <typename P>
SolverStats solve_cgnr(LinearOperator<P>& op, SpinorField<P>& x, const SpinorField<P>& b,
                       const SolverParams& params, CheckpointManager<P>* ckpt = nullptr) {
  SolverStats stats;

  SpinorField<P> r = SpinorField<P>::like(b); // normal-eq residual
  SpinorField<P> p = SpinorField<P>::like(b);
  SpinorField<P> ap = SpinorField<P>::like(b);
  SpinorField<P> tmp = SpinorField<P>::like(b);

  const double b2 = op.global_sum(blas::norm2(b));
  op.account_blas(1, 0);
  if (b2 == 0.0) {
    x.zero();
    stats.converged = true;
    return stats;
  }

  // r = A^dag (b - A x)
  op.apply(tmp, x);
  blas::xmy_norm(b, tmp);
  op.account_blas(2, 1);
  op.apply_dagger(r, tmp);
  blas::copy(p, r);
  op.account_blas(2, 2);

  double rr = op.global_sum(blas::norm2(r));
  op.account_blas(1, 0);

  // convergence is judged on the original system's residual; track it by
  // recomputing periodically (every 10 iterations) and at exit
  const double stop = params.tol * params.tol * b2;
  int k = 0;
  double true_r2 = b2;

  // loss of positivity in p^dag A^dag A p means the search direction has
  // degenerated (rounding or a corrupted iterate); restart steepest-descent
  // from the current x, bounded by the restart budget
  auto breakdown_restart = [&]() {
    if (stats.breakdown_restarts >= params.max_breakdown_restarts) return false;
    ++stats.breakdown_restarts;
    if (auto* rec = telemetry::current()) rec->flag(telemetry::kBreakdownRestart);
    op.apply(tmp, x);
    blas::xmy_norm(b, tmp);
    op.apply_dagger(r, tmp);
    blas::copy(p, r);
    rr = op.global_sum(blas::norm2(r));
    op.account_blas(5, 3);
    return rr > 0.0;
  };

  while (k < params.max_iter) {
    // ap = A^dag A p
    op.apply(tmp, p);
    op.apply_dagger(ap, tmp);
    const double pap = op.global_sum(blas::cdot(p, ap)).re;
    op.account_blas(2, 0);
    if (pap <= 0.0) {
      if (!breakdown_restart()) break;
      continue;
    }
    const double alpha = rr / pap;

    blas::axpy(alpha, p, x);
    const double rr_new = op.global_sum(blas::axpy_norm(-alpha, ap, r));
    op.account_blas(5, 2);
    const double beta = rr_new / rr;
    rr = rr_new;
    blas::xpay(r, beta, p);
    op.account_blas(2, 1);

    ++k;
    if (trace::RankTracer* tr = trace::current())
      tr->instant(trace::Kind::Iteration, tr->now_us(), 0, -1, -1, k);
    if (auto* rec = telemetry::current()) rec->iteration(k, rr, to_string(P::value)[0]);
    if (k % 10 == 0 || rr < stop) {
      op.apply(tmp, x);
      SpinorField<P> res = SpinorField<P>::like(b);
      blas::copy(res, b);
      true_r2 = op.global_sum(blas::axpy_norm(-1.0, tmp, res));
      op.account_blas(4, 2);
      if (auto* rec = telemetry::current()) rec->true_residual(true_r2);
      if (params.verbose)
        std::printf("CGNR: iter %4d  |r|/|b| = %.3e\n", k, std::sqrt(true_r2 / b2));
      if (true_r2 <= stop) break;
      // the periodic true-residual check doubles as the checkpoint boundary
      if (ckpt != nullptr) ckpt->observe_boundary(x, k);
    }
  }

  stats.iterations = k;
  stats.true_residual = std::sqrt(true_r2 / b2);
  stats.converged = true_r2 <= stop;
  return stats;
}

} // namespace quda
