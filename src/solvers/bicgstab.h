#pragma once
// BiCGstab (van der Vorst) in uniform precision.  This is the workhorse
// solver of the paper's experiments; the Wilson-clover matrix is
// non-Hermitian, so a nonsymmetric method is used directly rather than CG
// on the normal equations (Section II).
//
// All reductions are routed through the operator's global_sum hook so the
// identical code runs multi-GPU (Section VI-E).

#include "solvers/checkpoint.h"
#include "solvers/linear_operator.h"
#include "solvers/solver.h"
#include "trace/telemetry.h"
#include "trace/trace.h"

#include <cmath>
#include <cstdio>

namespace quda {

// every 10th iteration of the uniform solvers is a checkpointable boundary
// (the mixed solver uses accepted reliable updates instead)
inline constexpr int kUniformCheckpointStride = 10;

template <typename P>
SolverStats solve_bicgstab(LinearOperator<P>& op, SpinorField<P>& x, const SpinorField<P>& b,
                           const SolverParams& params, CheckpointManager<P>* ckpt = nullptr) {
  SolverStats stats;

  SpinorField<P> r = SpinorField<P>::like(b);
  SpinorField<P> r0 = SpinorField<P>::like(b);
  SpinorField<P> p = SpinorField<P>::like(b);
  SpinorField<P> v = SpinorField<P>::like(b);
  SpinorField<P> s = SpinorField<P>::like(b);
  SpinorField<P> t = SpinorField<P>::like(b);

  const double b2 = op.global_sum(blas::norm2(b));
  op.account_blas(1, 0);
  if (b2 == 0.0) {
    x.zero();
    stats.converged = true;
    return stats;
  }
  const double stop = params.tol * params.tol * b2;

  // r = b - A x
  op.apply(r, x);
  double r2 = op.global_sum(blas::xmy_norm(b, r));
  op.account_blas(2, 1);
  blas::copy(r0, r);
  blas::copy(p, r);
  op.account_blas(2, 2);

  complexd rho = op.global_sum(blas::cdot(r0, r));
  op.account_blas(2, 0);
  complexd alpha{1.0, 0.0}, omega{1.0, 0.0};

  // scalar breakdown: restart the Krylov space from the current iterate
  // (bounded) instead of giving up on the first degenerate inner product
  auto breakdown_restart = [&]() {
    if (stats.breakdown_restarts >= params.max_breakdown_restarts) return false;
    ++stats.breakdown_restarts;
    if (trace::RankTracer* tr = trace::current())
      tr->instant(trace::Kind::BreakdownRestart, tr->now_us(), 0, -1, -1, stats.breakdown_restarts);
    if (auto* rec = telemetry::current()) rec->flag(telemetry::kBreakdownRestart);
    op.apply(r, x);
    r2 = op.global_sum(blas::xmy_norm(b, r));
    blas::copy(r0, r);
    blas::copy(p, r);
    rho = op.global_sum(blas::cdot(r0, r));
    op.account_blas(6, 3);
    alpha = complexd{1.0, 0.0};
    omega = complexd{1.0, 0.0};
    return norm2(rho) != 0.0;
  };

  int k = 0;
  while (k < params.max_iter && r2 > stop) {
    // v = A p
    op.apply(v, p);
    const complexd r0v = op.global_sum(blas::cdot(r0, v));
    op.account_blas(2, 0);
    if (norm2(r0v) == 0.0) { // breakdown
      if (!breakdown_restart()) break;
      continue;
    }
    alpha = rho / r0v;

    // s = r - alpha v
    blas::copy(s, r);
    blas::caxpy(-alpha, v, s);
    op.account_blas(3, 2);

    // t = A s
    op.apply(t, s);
    const complexd ts = op.global_sum(blas::cdot(t, s));
    const double t2 = op.global_sum(blas::norm2(t));
    op.account_blas(3, 0);
    if (t2 == 0.0) {
      if (!breakdown_restart()) break;
      continue;
    }
    omega = ts / t2;

    // x += alpha p + omega s
    blas::bicgstab_x_update(x, alpha, p, omega, s);
    op.account_blas(3, 1);

    // r = s - omega t (fused with the next rho and the residual norm)
    complexd rho_next;
    blas::bicgstab_r_update(r, s, t, omega, r2, rho_next, r0);
    r2 = op.global_sum(r2);
    rho_next = op.global_sum(rho_next);
    op.account_blas(3, 1);

    if (norm2(rho_next) == 0.0) { // breakdown: r orthogonal to r0
      ++k;
      if (!breakdown_restart()) break;
      continue;
    }
    const complexd beta = (rho_next / rho) * (alpha / omega);
    rho = rho_next;

    // p = r + beta (p - omega v)
    blas::bicgstab_p_update(p, r, v, beta, omega);
    op.account_blas(3, 1);

    ++k;
    if (trace::RankTracer* tr = trace::current())
      tr->instant(trace::Kind::Iteration, tr->now_us(), 0, -1, -1, k);
    if (auto* rec = telemetry::current()) rec->iteration(k, r2, to_string(P::value)[0]);
    if (ckpt != nullptr && k % kUniformCheckpointStride == 0 && r2 > stop)
      ckpt->observe_boundary(x, k);
    if (params.verbose && (k % 10 == 0))
      std::printf("BiCGstab: iter %4d  |r|/|b| = %.3e\n", k, std::sqrt(r2 / b2));
  }

  stats.iterations = k;
  // true residual
  op.apply(v, x);
  const double true_r2 = op.global_sum(blas::xmy_norm(b, v));
  op.account_blas(2, 1);
  if (auto* rec = telemetry::current()) rec->true_residual(true_r2);
  stats.true_residual = std::sqrt(true_r2 / b2);
  stats.converged = true_r2 <= stop * 4.0; // allow rounding slack vs iterated residual
  return stats;
}

} // namespace quda
