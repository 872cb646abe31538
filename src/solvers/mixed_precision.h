#pragma once
// Mixed-precision solvers (Section V-D of the paper).
//
// solve_bicgstab_reliable: BiCGstab iterated in low ("sloppy") precision
// with *reliable updates*: when the iterated residual falls below delta
// times the maximum residual seen since the last update, the true residual
// is recomputed in high precision and the accumulated low-precision
// solution is folded into the high-precision solution.  A single Krylov
// space is preserved across updates (the search vectors are kept), which is
// the advantage over defect correction that the paper highlights.
//
// solve_defect_correction: the traditional alternative -- an inner solver
// restarted from scratch around every high-precision correction -- kept as
// the comparison baseline for the ablation benchmark.

#include "solvers/bicgstab.h"
#include "solvers/linear_operator.h"
#include "solvers/solver.h"

#include <cmath>
#include <cstdio>

namespace quda {

// convert between precision classes through the compute type
template <typename PDst, typename PSrc>
void convert_spinor_field(SpinorField<PDst>& dst, const SpinorField<PSrc>& src) {
  convert_field(src, dst);
}

template <typename PHi, typename PLo>
SolverStats solve_bicgstab_reliable(LinearOperator<PHi>& op_hi, LinearOperator<PLo>& op_lo,
                                    SpinorField<PHi>& x, const SpinorField<PHi>& b,
                                    const SolverParams& params,
                                    CheckpointManager<PHi>* ckpt = nullptr) {
  SolverStats stats;

  SpinorField<PHi> r_hi = SpinorField<PHi>::like(b);
  SpinorField<PHi> tmp_hi = SpinorField<PHi>::like(b);
  SpinorField<PLo> r = op_lo.make_vector(), r0 = op_lo.make_vector(), p = op_lo.make_vector(),
                   v = op_lo.make_vector(), s = op_lo.make_vector(), t = op_lo.make_vector(),
                   x_lo = op_lo.make_vector();

  const double b2 = op_hi.global_sum(blas::norm2(b));
  op_hi.account_blas(1, 0);
  if (b2 == 0.0) {
    x.zero();
    stats.converged = true;
    return stats;
  }
  const double stop = params.tol * params.tol * b2;

  // high-precision initial residual
  op_hi.apply(r_hi, x);
  double r2 = op_hi.global_sum(blas::xmy_norm(b, r_hi));
  op_hi.account_blas(2, 1);

  convert_spinor_field(r, r_hi);
  blas::copy(r0, r);
  blas::copy(p, r);
  x_lo.zero();
  op_lo.account_blas(3, 3);

  double maxrr = std::sqrt(r2);
  complexd rho = op_lo.global_sum(blas::cdot(r0, r));
  op_lo.account_blas(2, 0);
  complexd alpha{1.0, 0.0}, omega{1.0, 0.0};

  // last reliable iterate, for SDC rollback (only kept when detection is on)
  const bool sdc_on = params.sdc_threshold > 0;
  SpinorField<PHi> x_saved = SpinorField<PHi>::like(b);
  if (sdc_on) {
    blas::copy(x_saved, x);
    op_hi.account_blas(1, 1);
  }

  // rebuild the Krylov space from the current high-precision residual r_hi
  // (used after rollbacks and breakdown restarts); returns false when the
  // new shadow residual is itself degenerate
  auto rebuild_krylov = [&]() {
    convert_spinor_field(r, r_hi);
    blas::copy(r0, r);
    blas::copy(p, r);
    x_lo.zero();
    rho = op_lo.global_sum(blas::cdot(r0, r));
    op_lo.account_blas(4, 3);
    alpha = complexd{1.0, 0.0};
    omega = complexd{1.0, 0.0};
    maxrr = std::sqrt(r2);
    return norm2(rho) != 0.0;
  };

  // scalar breakdown (|rho| or |omega| underflow): fold the sloppy progress
  // into x, recompute the true residual, and restart the Krylov space from
  // the current iterate -- bounded by the restart budget
  auto breakdown_restart = [&]() {
    if (stats.breakdown_restarts >= params.max_breakdown_restarts) return false;
    ++stats.breakdown_restarts;
    if (trace::RankTracer* tr = trace::current())
      tr->instant(trace::Kind::BreakdownRestart, tr->now_us(), 0, -1, -1, stats.breakdown_restarts);
    if (auto* rec = telemetry::current()) rec->flag(telemetry::kBreakdownRestart);
    convert_spinor_field(tmp_hi, x_lo);
    blas::axpy(1.0, tmp_hi, x);
    op_hi.apply(r_hi, x);
    r2 = op_hi.global_sum(blas::xmy_norm(b, r_hi));
    op_hi.account_blas(5, 2);
    return rebuild_krylov();
  };

  // stagnation guard: when the tolerance sits at (or below) the outer
  // precision's floor, the true residual stops improving between reliable
  // updates; give up rather than thrash update after update
  double last_update_r2 = r2;
  int stagnant_updates = 0;

  int k = 0;
  while (k < params.max_iter && r2 > stop) {
    op_lo.apply(v, p);
    const complexd r0v = op_lo.global_sum(blas::cdot(r0, v));
    op_lo.account_blas(2, 0);
    if (norm2(r0v) == 0.0) {
      if (!breakdown_restart()) break;
      continue;
    }
    alpha = rho / r0v;

    blas::copy(s, r);
    blas::caxpy(-alpha, v, s);
    op_lo.account_blas(3, 2);

    op_lo.apply(t, s);
    const complexd ts = op_lo.global_sum(blas::cdot(t, s));
    const double t2 = op_lo.global_sum(blas::norm2(t));
    op_lo.account_blas(3, 0);
    if (t2 == 0.0) {
      if (!breakdown_restart()) break;
      continue;
    }
    omega = ts / t2;

    blas::bicgstab_x_update(x_lo, alpha, p, omega, s);
    op_lo.account_blas(3, 1);

    complexd rho_next;
    blas::bicgstab_r_update(r, s, t, omega, r2, rho_next, r0);
    r2 = op_lo.global_sum(r2);
    rho_next = op_lo.global_sum(rho_next);
    op_lo.account_blas(3, 1);
    ++k;
    if (trace::RankTracer* tr = trace::current())
      tr->instant(trace::Kind::Iteration, tr->now_us(), 0, -1, -1, k);
    // the ledger records the *sloppy* iterated residual with the sloppy
    // regime; reliable updates below attach the true residual
    if (auto* rec = telemetry::current()) rec->iteration(k, r2, to_string(PLo::value)[0]);

    const double rnorm = std::sqrt(r2);
    if (rnorm > maxrr) maxrr = rnorm;

    // --- reliable update trigger ------------------------------------------
    // a non-finite iterated residual means an iterate was corrupted; force
    // an update so the true residual exposes it to the SDC check below
    if (rnorm < params.delta * maxrr || r2 < stop || !std::isfinite(r2)) {
      trace::RankTracer* tr = trace::current();
      const double reliable_begin_us = tr != nullptr ? tr->now_us() : 0.0;
      // fold the sloppy solution into the high-precision solution and
      // recompute the true residual
      convert_spinor_field(tmp_hi, x_lo);
      blas::axpy(1.0, tmp_hi, x);
      op_hi.account_blas(3, 1);
      x_lo.zero();

      op_hi.apply(r_hi, x);
      r2 = op_hi.global_sum(blas::xmy_norm(b, r_hi));
      op_hi.account_blas(2, 1);
      ++stats.reliable_updates;
      if (auto* rec = telemetry::current()) {
        rec->flag(telemetry::kReliableUpdate);
        rec->true_residual(r2);
      }

      // --- SDC check: does the true residual contradict convergence? ------
      if (sdc_on && (!std::isfinite(r2) ||
                     r2 > params.sdc_threshold * params.sdc_threshold *
                              std::max(last_update_r2, stop))) {
        ++stats.sdc_detected;
        // roll back to the last reliable iterate; its corrupted successor
        // (and the whole Krylov space built on it) is discarded
        blas::copy(x, x_saved);
        op_hi.apply(r_hi, x);
        r2 = op_hi.global_sum(blas::xmy_norm(b, r_hi));
        op_hi.account_blas(3, 2);
        if (stats.rollbacks >= params.max_rollbacks) {
          stats.escalated = true; // budget exhausted: caller escalates
          if (tr != nullptr) {
            tr->instant(trace::Kind::Escalate, tr->now_us());
            tr->span(trace::Kind::ReliableUpdate, reliable_begin_us, tr->now_us(), 0, -1, -1, k);
          }
          break;
        }
        ++stats.rollbacks;
        last_update_r2 = r2;
        stagnant_updates = 0;
        if (auto* rec = telemetry::current()) rec->flag(telemetry::kRollback);
        if (tr != nullptr)
          tr->instant(trace::Kind::SdcRollback, tr->now_us(), 0, -1, -1, stats.rollbacks);
        const bool rebuilt = rebuild_krylov();
        if (tr != nullptr)
          tr->span(trace::Kind::ReliableUpdate, reliable_begin_us, tr->now_us(), 0, -1, -1, k);
        if (!rebuilt) break;
        continue;
      }

      // accepted: this iterate becomes the rollback point
      if (sdc_on) {
        blas::copy(x_saved, x);
        op_hi.account_blas(1, 1);
      }
      convert_spinor_field(r, r_hi);
      op_lo.account_blas(1, 1);
      maxrr = std::sqrt(r2);
      // accepted reliable updates are the checkpointable boundaries: x is
      // exactly the iterate a restart would rebuild the Krylov space from
      if (ckpt != nullptr && r2 > stop) ckpt->observe_boundary(x, k);
      if (tr != nullptr)
        tr->span(trace::Kind::ReliableUpdate, reliable_begin_us, tr->now_us(), 0, -1, -1, k);
      if (r2 <= stop) break;
      if (r2 > 0.8 * last_update_r2) {
        if (++stagnant_updates >= 3) break; // converged as far as precision allows
      } else {
        stagnant_updates = 0;
      }
      last_update_r2 = r2;
      // note: r0, p, v and the scalar state are *kept* -- the Krylov space
      // is preserved across the update
    }

    if (norm2(rho_next) == 0.0) {
      // r became orthogonal to the shadow residual: re-seed r0
      blas::copy(r0, r);
      rho_next = op_lo.global_sum(blas::cdot(r0, r));
      op_lo.account_blas(3, 1);
      blas::copy(p, r);
      op_lo.account_blas(1, 1);
      ++stats.restarts;
      if (auto* rec = telemetry::current()) rec->flag(telemetry::kRestart);
      if (norm2(rho_next) == 0.0) break;
    }
    const complexd beta = (rho_next / rho) * (alpha / omega);
    rho = rho_next;

    blas::bicgstab_p_update(p, r, v, beta, omega);
    op_lo.account_blas(3, 1);

    if (params.verbose && (k % 10 == 0))
      std::printf("BiCGstab(mixed): iter %4d  |r|/|b| = %.3e\n", k, std::sqrt(r2 / b2));
  }

  // fold any remaining sloppy accumulation and measure the true residual
  convert_spinor_field(tmp_hi, x_lo);
  blas::axpy(1.0, tmp_hi, x);
  op_hi.apply(tmp_hi, x);
  const double true_r2 = op_hi.global_sum(blas::xmy_norm(b, tmp_hi));
  op_hi.account_blas(5, 2);

  stats.iterations = k;
  stats.true_residual = std::sqrt(true_r2 / b2);
  stats.converged = true_r2 <= stop * 4.0;
  return stats;
}

// Defect correction: restart the sloppy Krylov space around every
// high-precision correction.  Typically needs more total iterations than
// reliable updates (the comparison made in [4] and cited in Section V-D).
template <typename PHi, typename PLo>
SolverStats solve_defect_correction(LinearOperator<PHi>& op_hi, LinearOperator<PLo>& op_lo,
                                    SpinorField<PHi>& x, const SpinorField<PHi>& b,
                                    const SolverParams& params, double inner_tol = 1e-2) {
  SolverStats stats;

  SpinorField<PHi> r_hi = SpinorField<PHi>::like(b);
  SpinorField<PHi> e_hi = SpinorField<PHi>::like(b);
  SpinorField<PLo> r_lo = op_lo.make_vector();
  SpinorField<PLo> e_lo = op_lo.make_vector();

  const double b2 = op_hi.global_sum(blas::norm2(b));
  op_hi.account_blas(1, 0);
  if (b2 == 0.0) {
    x.zero();
    stats.converged = true;
    return stats;
  }
  const double stop = params.tol * params.tol * b2;

  double r2 = b2;
  double last_r2 = b2 * 4.0;
  while (stats.iterations < params.max_iter) {
    op_hi.apply(r_hi, x);
    r2 = op_hi.global_sum(blas::xmy_norm(b, r_hi));
    op_hi.account_blas(2, 1);
    if (r2 <= stop) break;
    if (r2 > 0.8 * last_r2) break; // correction loop has stagnated
    last_r2 = r2;

    convert_spinor_field(r_lo, r_hi);
    e_lo.zero();
    SolverParams inner = params;
    inner.tol = inner_tol;
    inner.max_iter = params.max_iter - stats.iterations;
    const SolverStats is = solve_bicgstab(op_lo, e_lo, r_lo, inner);
    stats.iterations += is.iterations;
    ++stats.restarts;
    // each defect-correction cycle is a restart of the inner Krylov space
    if (auto* rec = telemetry::current()) rec->flag(telemetry::kRestart);
    if (is.iterations == 0) break; // inner solver stalled

    convert_spinor_field(e_hi, e_lo);
    blas::axpy(1.0, e_hi, x);
    op_hi.account_blas(3, 1);
  }

  op_hi.apply(r_hi, x);
  const double true_r2 = op_hi.global_sum(blas::xmy_norm(b, r_hi));
  op_hi.account_blas(2, 1);
  stats.true_residual = std::sqrt(true_r2 / b2);
  stats.converged = true_r2 <= stop * 4.0;
  return stats;
}

} // namespace quda
