#pragma once
// The even-odd Wilson-clover operator in QUDA order: the full two-parity
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
// code path serves both discretizations.  The mass is folded into T.
//
// One GPU runs it as a one-rank grid.  Every dslash goes through the halo
// exchange, which is the plain local kernel on a grid that cuts no
// dimension; global sums go through QMP/MPI reductions (Section VI-E), and
// all device work is charged to the rank's simulated GPU.
//
// Clover applications are fused into the dslash kernels on the real device
// (the paper's per-site cost of 3696 flops / 2976 bytes already assumes
// kernel fusion), so they add numerics here but no extra modeled kernel
// time; the fused cost is carried by the dslash launches inside
// halo_dslash.

#include "parallel/halo_dslash.h"
#include "solvers/linear_operator.h"

namespace quda::parallel {

template <typename P> class ParallelWilsonCloverOp final : public LinearOperator<P> {
public:
  // fields are local-lattice fields; the gauge field must already contain
  // its ghost links (exchange_gauge_ghost); `clover` holds T = (4+m)+A for
  // both parities, `clover_inv` its inverse
  ParallelWilsonCloverOp(comm::QmpGrid& grid, const Geometry& local, const GaugeField<P>& gauge,
                         const CloverField<P>& clover, const CloverField<P>& clover_inv,
                         TimeBoundary time_bc, CommPolicy policy)
      : grid_(grid), local_(local), gauge_(gauge), clover_(clover), clover_inv_(clover_inv),
        time_bc_(time_bc), policy_(policy),
        tmp_o_(local, grid.topology().partition_mask()),
        tmp2_o_(local, grid.topology().partition_mask()) {}

  std::int64_t sites() const override { return local_.half_volume(); }
  const Geometry& geom() const { return local_; }
  comm::QmpGrid& grid() { return grid_; }

  SpinorField<P> make_vector() const override {
    return SpinorField<P>(local_, grid_.topology().partition_mask());
  }

  double effective_flops() const { return effective_flops_; }

  // Mhat x_e = T_e x_e - 1/4 D_eo T_o^{-1} D_oe x_e, with halo exchange on
  // both hopping applications
  void apply(SpinorField<P>& out, const SpinorField<P>& in) override {
    // the ghost end zone of `in` receives the neighbors' faces -- it is
    // scratch space within the field, not logical content (mirrors QUDA,
    // where the received faces land inside the input spinor's allocation)
    halo(tmp_o_, const_cast<SpinorField<P>&>(in), Parity::Odd, 1.0, Accumulate::No);
    apply_clover_xpay<P>(tmp2_o_, clover_inv_, Parity::Odd, tmp_o_, 0);
    halo(out, tmp2_o_, Parity::Even, 1.0, Accumulate::No);
    apply_clover_xpay<P>(out, clover_, Parity::Even, in, static_cast<typename P::real_t>(-0.25));
    effective_flops_ += perf::effective_matrix_flops(sites());
    maybe_inject_device_flip(out);
  }

  // gamma_5 Mhat gamma_5 = Mhat^dag (gamma_5 Hermiticity)
  void apply_dagger(SpinorField<P>& out, const SpinorField<P>& in) override {
    SpinorField<P> g5in = SpinorField<P>::like(in);
    apply_gamma5<P>(g5in, in);
    apply(out, g5in);
    apply_gamma5<P>(out, out);
  }

  // b' = b_e + 1/2 D_eo T_o^{-1} b_o
  void prepare_source(SpinorField<P>& bprime, const SpinorField<P>& b_e, SpinorField<P>& b_o) {
    apply_clover_xpay<P>(tmp_o_, clover_inv_, Parity::Odd, b_o, 0);
    blas::copy(bprime, b_e);
    halo(bprime, tmp_o_, Parity::Even, 0.5, Accumulate::Yes);
  }

  // x_o = T_o^{-1} (b_o + 1/2 D_oe x_e)
  void reconstruct_odd(SpinorField<P>& x_o, SpinorField<P>& x_e, const SpinorField<P>& b_o) {
    blas::copy(tmp_o_, b_o);
    halo(tmp_o_, x_e, Parity::Odd, 0.5, Accumulate::Yes);
    apply_clover_xpay<P>(x_o, clover_inv_, Parity::Odd, tmp_o_, 0);
  }

  // full (two-parity) operator for end-to-end residual checks:
  // out_p = T_p in_p - 1/2 D in_{p'}
  void apply_full(SpinorField<P>& out_e, SpinorField<P>& out_o, SpinorField<P>& in_e,
                  SpinorField<P>& in_o) {
    using real_t = typename P::real_t;
    halo(out_e, in_o, Parity::Even, -0.5, Accumulate::No);
    apply_clover_xpay<P>(out_e, clover_, Parity::Even, in_e, real_t(1));
    halo(out_o, in_e, Parity::Odd, -0.5, Accumulate::No);
    apply_clover_xpay<P>(out_o, clover_, Parity::Odd, in_o, real_t(1));
  }

  // MPI reductions for the solver's linear-algebra kernels (Section VI-E)
  double global_sum(double local) override {
    return grid_.sum(local);
  }
  complexd global_sum(const complexd& local) override {
    double v[2] = {local.re, local.im};
    grid_.sum(v, 2);
    return {v[0], v[1]};
  }

  // a fused BLAS kernel swept the local vectors: charge the streaming kernel
  void account_blas(int reads, int writes) override {
    charge_blas(grid_.context(), P::value, sites(), reads, writes, effective_flops_);
  }

private:
  // Transient device-memory fault ("ECC off", as on the paper's GTX 285s):
  // one deterministic draw per operator application; when it fires, a single
  // bit of the freshly-computed output spinor is flipped -- the silent data
  // corruption the solver's reliable-update SDC check exists to catch.
  void maybe_inject_device_flip(SpinorField<P>& out) {
    auto& fs = grid_.context().faults();
    if (!fs.enabled()) return;
    const auto selector = fs.next_device_fault();
    if (!selector) return;
    ++fs.counters().device_flips;
    auto& data = out.raw_data();
    if (data.empty()) return;
    const std::uint64_t nbits =
        static_cast<std::uint64_t>(data.size()) * sizeof(typename P::store_t) * 8;
    const std::uint64_t bit = *selector % nbits;
    auto* bytes = reinterpret_cast<unsigned char*>(data.data());
    bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }

  void halo(SpinorField<P>& out, SpinorField<P>& in, Parity out_parity, double scale,
            Accumulate acc) {
    HaloDslashConfig cfg;
    cfg.policy = policy_;
    cfg.out_parity = out_parity;
    cfg.scale = scale;
    cfg.accumulate = acc;
    cfg.time_bc = time_bc_;
    halo_dslash<P>(grid_, local_, cfg, {&out, &gauge_, &in});
  }

  comm::QmpGrid& grid_;
  Geometry local_;
  const GaugeField<P>& gauge_;
  const CloverField<P>& clover_;
  const CloverField<P>& clover_inv_;
  TimeBoundary time_bc_;
  CommPolicy policy_;
  SpinorField<P> tmp_o_, tmp2_o_;
  double effective_flops_ = 0;
};

} // namespace quda::parallel
