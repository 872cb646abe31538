#pragma once
// Single-device Wilson-clover operator in QUDA order: the full two-parity
// matrix and the even-odd (Schur complement) preconditioned operator that
// the Krylov solvers actually invert (Section II).
//
//   M = [ T_e        -1/2 D_eo ]        T_p = (4 + m) + A_p
//       [ -1/2 D_oe   T_o      ]
//
//   Mhat = T_e - 1/4 D_eo T_o^{-1} D_oe          (solved for x_e)
//   source prep:   b' = b_e + 1/2 D_eo T_o^{-1} b_o
//   reconstruct:   x_o = T_o^{-1} (b_o + 1/2 D_oe x_e)
//
// Wilson without clover is the csw = 0 special case (T diagonal), so one
// code path serves both discretizations.

#include "dirac/dslash.h"
#include "exec/host_engine.h"
#include "solvers/linear_operator.h"

namespace quda {

struct OperatorParams {
  double mass = 0.0;
  TimeBoundary time_bc = TimeBoundary::Periodic;
};

template <typename P> class WilsonCloverOp final : public LinearOperator<P> {
public:
  // `clover` holds T = (4+m)+A for both parities; `clover_inv` its inverse
  WilsonCloverOp(const Geometry& geom, const GaugeField<P>& gauge, const CloverField<P>& clover,
                 const CloverField<P>& clover_inv, const OperatorParams& params)
      : geom_(geom),
        gauge_(gauge),
        clover_(clover),
        clover_inv_(clover_inv),
        params_(params),
        tmp_o_(geom, kPartitionNone),
        tmp2_o_(geom, kPartitionNone) {}

  std::int64_t sites() const override { return geom_.half_volume(); }
  const Geometry& geom() const { return geom_; }

  SpinorField<P> make_vector() const override { return SpinorField<P>(geom_, kPartitionNone); }

  // Mhat x_e (even-parity Schur complement)
  void apply(SpinorField<P>& out, const SpinorField<P>& in) override {
    const std::int64_t vh = geom_.half_volume();
    dslash<P>(tmp_o_, gauge_, in, geom_, opts(Parity::Odd), 0, vh, 1, Accumulate::No);
    apply_clover_xpay<P>(tmp2_o_, clover_inv_, Parity::Odd, tmp_o_, geom_, 0, vh, 0);
    dslash<P>(out, gauge_, tmp2_o_, geom_, opts(Parity::Even), 0, vh, 1, Accumulate::No);
    // out = T_e in - 1/4 out
    apply_clover_xpay<P>(out, clover_, Parity::Even, in, geom_, 0, vh,
                         static_cast<typename P::real_t>(-0.25));
  }

  // gamma_5 Mhat gamma_5 = Mhat^dag (gamma_5 Hermiticity)
  void apply_dagger(SpinorField<P>& out, const SpinorField<P>& in) override {
    SpinorField<P> g5in = SpinorField<P>::like(in);
    apply_gamma5<P>(g5in, in);
    apply(out, g5in);
    apply_gamma5<P>(out, out);
  }

  // full (unpreconditioned) operator on parity pairs, for tests and residual
  // checks: out_p = T_p in_p - 1/2 D in_{p'}
  void apply_full(SpinorField<P>& out_e, SpinorField<P>& out_o, const SpinorField<P>& in_e,
                  const SpinorField<P>& in_o) {
    const std::int64_t vh = geom_.half_volume();
    using real_t = typename P::real_t;
    dslash<P>(out_e, gauge_, in_o, geom_, opts(Parity::Even), 0, vh, real_t(-0.5), Accumulate::No);
    apply_clover_xpay<P>(out_e, clover_, Parity::Even, in_e, geom_, 0, vh, real_t(1));
    dslash<P>(out_o, gauge_, in_e, geom_, opts(Parity::Odd), 0, vh, real_t(-0.5), Accumulate::No);
    apply_clover_xpay<P>(out_o, clover_, Parity::Odd, in_o, geom_, 0, vh, real_t(1));
  }

  // b' = b_e + 1/2 D_eo T_o^{-1} b_o
  void prepare_source(SpinorField<P>& bprime, const SpinorField<P>& b_e,
                      const SpinorField<P>& b_o) {
    const std::int64_t vh = geom_.half_volume();
    using real_t = typename P::real_t;
    apply_clover_xpay<P>(tmp_o_, clover_inv_, Parity::Odd, b_o, geom_, 0, vh, 0);
    copy_spinor(bprime, b_e);
    dslash<P>(bprime, gauge_, tmp_o_, geom_, opts(Parity::Even), 0, vh, real_t(0.5),
              Accumulate::Yes);
  }

  // x_o = T_o^{-1} (b_o + 1/2 D_oe x_e)
  void reconstruct_odd(SpinorField<P>& x_o, const SpinorField<P>& x_e,
                       const SpinorField<P>& b_o) {
    const std::int64_t vh = geom_.half_volume();
    using real_t = typename P::real_t;
    copy_spinor(tmp_o_, b_o);
    dslash<P>(tmp_o_, gauge_, x_e, geom_, opts(Parity::Odd), 0, vh, real_t(0.5), Accumulate::Yes);
    apply_clover_xpay<P>(x_o, clover_inv_, Parity::Odd, tmp_o_, geom_, 0, vh, 0);
  }

private:
  DslashOptions opts(Parity out_parity) const {
    DslashOptions o;
    o.out_parity = out_parity;
    const double bc = params_.time_bc == TimeBoundary::Antiperiodic ? -1.0 : 1.0;
    o.bc_backward = bc;
    o.bc_forward = bc;
    return o;
  }

  void copy_spinor(SpinorField<P>& dst, const SpinorField<P>& src) {
    exec::parallel_for(0, geom_.half_volume(), exec::kBlasGrain,
                       [&](std::int64_t b, std::int64_t e) {
                         for (std::int64_t i = b; i < e; ++i) dst.store(i, src.load(i));
                       });
  }

  Geometry geom_;
  const GaugeField<P>& gauge_;
  const CloverField<P>& clover_;
  const CloverField<P>& clover_inv_;
  OperatorParams params_;
  SpinorField<P> tmp_o_, tmp2_o_;
};

} // namespace quda
