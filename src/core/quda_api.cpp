#include "core/quda_api.h"

#include "blas/blas.h"
#include "core/partition.h"
#include "core/provenance.h"
#include "dirac/clover_term.h"
#include "dirac/transfer.h"
#include "parallel/parallel_op.h"
#include "sim/event_sim.h"
#include "solvers/bicgstab.h"
#include "solvers/cg.h"
#include "solvers/checkpoint.h"
#include "solvers/mixed_precision.h"
#include "trace/telemetry.h"
#include "trace/trace_export.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace quda {

namespace {

using comm::GridTopology;
using core::local_geometry;
using core::merge_spinor;
using core::slice_clover;
using core::slice_gauge;
using core::slice_spinor;
using parallel::ParallelWilsonCloverOp;
using sim::RankContext;
using sim::VirtualCluster;

// everything a rank needs to build its operators at one precision
template <typename P> struct RankFields {
  GaugeField<P> gauge;
  CloverField<P> clover;
  CloverField<P> clover_inv;

  RankFields(comm::QmpGrid& grid, const Geometry& lg, const HostGaugeField& lu,
             const HostCloverField& lt, const HostCloverField& ltinv, Reconstruct recon)
      : gauge(upload_gauge<P>(lu, recon)),
        clover(upload_clover<P>(lt)),
        clover_inv(upload_clover<P>(ltinv)) {
    // register the footprint with the simulated device: this is where a
    // too-large problem fails with bad_alloc, as on the real cards
    auto& dev = grid.context().device();
    dev.malloc_bytes(gauge.device_bytes());
    dev.malloc_bytes(clover.device_bytes() + clover_inv.device_bytes());
    parallel::exchange_gauge_ghost<P>(grid, lg, &gauge);
  }
};

// a device spinor registered with the allocator, shaped for the grid's
// decomposition
template <typename P>
SpinorField<P> make_vector(comm::QmpGrid& grid, const Geometry& lg) {
  SpinorField<P> f(lg, grid.topology().partition_mask());
  grid.context().device().malloc_bytes(f.device_bytes());
  return f;
}

struct RankOutcome {
  SolverStats stats;
  HostSpinorField x_local;
  double effective_flops = 0;
  std::int64_t bytes_peak = 0;
  std::int64_t gauge_bytes = 0;
  double setup_done_us = 0;
  double solve_done_us = 0;
  // checkpoint/restart outcome (DESIGN.md §10)
  int recovery_epochs = 0;          // completed cluster recovery epochs
  std::uint64_t ckpt_digest = 0;    // last committed checkpoint digest
  std::vector<CheckpointEvent> ckpt_log;
};

// the solver vectors BiCGstab allocates internally are charged here so the
// device-memory gate reflects the full solve footprint
template <typename P>
void charge_solver_vectors(comm::QmpGrid& grid, const Geometry& lg, int count) {
  SpinorField<P> probe(lg, grid.topology().partition_mask());
  grid.context().device().malloc_bytes(count * probe.device_bytes());
}

SolverParams solver_params(const InvertParams& p) {
  SolverParams sp;
  sp.tol = p.tol;
  sp.delta = p.delta;
  sp.max_iter = p.max_iter;
  sp.verbose = p.verbose;
  sp.sdc_threshold = p.sdc_threshold;
  sp.max_rollbacks = p.max_rollbacks;
  sp.max_breakdown_restarts = p.max_breakdown_restarts;
  return sp;
}

template <typename POuter>
SolverStats dispatch_uniform(ParallelWilsonCloverOp<POuter>& op, SpinorField<POuter>& x,
                             const SpinorField<POuter>& b, const InvertParams& p,
                             CheckpointManager<POuter>* ckpt) {
  const SolverParams sp = solver_params(p);
  if (p.solver == SolverType::CG) return solve_cgnr(op, x, b, sp, ckpt);
  return solve_bicgstab(op, x, b, sp, ckpt);
}

template <typename POuter, typename PSloppy>
SolverStats dispatch_mixed(ParallelWilsonCloverOp<POuter>& op_hi,
                           ParallelWilsonCloverOp<PSloppy>& op_lo, SpinorField<POuter>& x,
                           const SpinorField<POuter>& b, const InvertParams& p,
                           CheckpointManager<POuter>* ckpt) {
  const SolverParams sp = solver_params(p);
  if (p.solver == SolverType::CG)
    throw std::invalid_argument("mixed-precision CG is not provided; use BiCGstab");
  if (p.mixed_strategy == MixedStrategy::DefectCorrection)
    return solve_defect_correction(op_hi, op_lo, x, b, sp);
  SolverStats st = solve_bicgstab_reliable(op_hi, op_lo, x, b, sp, ckpt);
  if (st.escalated && !st.converged && st.iterations < sp.max_iter) {
    // rollback budget exhausted in the sloppy space: finish the solve in
    // full outer precision from the current iterate before giving up
    SolverParams esc = sp;
    esc.max_iter = sp.max_iter - st.iterations;
    st.merge(solve_bicgstab(op_hi, x, b, esc, ckpt));
    st.escalated = true;
  }
  return st;
}

// One rank's half of a coordinated recovery epoch (DESIGN.md §10).  The
// survivor path runs on a RankFailure (a peer went silent under us); the
// dead path on this rank's own RankDeath, standing in for the warm spare
// that takes over the subvolume.  Both charge their local costs, roll the
// iterate back to the last committed checkpoint, and meet at the recovery
// rendezvous, after which every rank's clock sits at the epoch's resume
// time and the transport is clean.  Returns the completed epoch index.
template <typename POuter>
int recover_rank(RankContext& ctx, comm::QmpGrid& grid, CheckpointManager<POuter>& ckpt,
                 SpinorField<POuter>& x, const sim::RankDeath* death) {
  const sim::FaultConfig& fc = ctx.spec().faults;
  auto& counters = ctx.faults().counters();
  auto& tracer = ctx.tracer();

  if (death != nullptr) {
    // this rank died: model the failure detector noticing (heartbeats stop
    // after a crash; a hang must outlive the hang timeout) and the warm
    // spare spinning up in its place
    const double latency =
        death->kind == sim::DeathKind::Hang ? fc.hang_timeout_us : fc.heartbeat_interval_us;
    tracer.span(trace::Kind::Detect, ctx.clock().now_us, ctx.clock().now_us + latency);
    ctx.clock().advance(latency);
    counters.detection_us += latency;
    const double respawn_begin = ctx.clock().now_us;
    ctx.clock().advance(fc.respawn_us);
    ++counters.respawns;
    tracer.span(trace::Kind::Respawn, respawn_begin, ctx.clock().now_us);
    // the new incarnation draws its own death schedule, relative to now
    grid.arm_failure_detector();
  } else {
    // survivor: go terminal first so peers blocked on us unblock, then
    // charge the local rollback (discarding the Krylov space built since
    // the last committed checkpoint)
    ctx.enter_recovery();
    ++counters.rank_failures_detected;
    tracer.instant(trace::Kind::RankFailure, ctx.clock().now_us);
    const double rb_begin = ctx.clock().now_us;
    ctx.clock().advance(fc.rollback_us);
    counters.restore_us += fc.rollback_us;
    tracer.span(trace::Kind::Rollback, rb_begin, ctx.clock().now_us);
  }

  // roll the iterate back to the last committed checkpoint, or restart from
  // the initial (zero) guess when nothing committed yet
  const double restore_begin = ctx.clock().now_us;
  if (ckpt.restore(x) < 0) x.zero();
  tracer.span(trace::Kind::Restore, restore_begin, ctx.clock().now_us);

  // coordinated epoch barrier: every rank resumes at the same clock with
  // fresh channels, reduction state, and framing sequence numbers
  const double arrive_us = ctx.clock().now_us;
  const sim::RecoveryEpoch ep = ctx.recovery_rendezvous();
  grid.recovery_sync();
  tracer.span(trace::Kind::Resume, arrive_us, ctx.clock().now_us);
  tracer.instant(trace::Kind::RecoveryReset, ctx.clock().now_us);
  if (auto* rec = telemetry::current()) rec->recovery(ep.epoch);
  // the epoch index is cluster-global, so every rank takes this branch (or
  // none does) -- a deterministic abort instead of a poison race
  if (ep.epoch > fc.max_failures)
    throw std::runtime_error("rank-failure recovery budget exhausted after " +
                             std::to_string(ep.epoch) + " epochs");
  return ep.epoch;
}

// Drive `solve_fn` (+ `epilogue`: odd-site reconstruction and the closing
// barrier) to completion through rank failures.  Interrupt-style loop: the
// catch blocks only record what happened; the recovery work -- which can
// itself die and re-enter the loop -- runs inside the try.
template <typename POuter, typename SolveFn, typename EpilogueFn>
SolverStats run_with_recovery(RankContext& ctx, comm::QmpGrid& grid,
                              CheckpointManager<POuter>& ckpt, SpinorField<POuter>& x,
                              int& epochs_seen, SolveFn&& solve_fn, EpilogueFn&& epilogue) {
  grid.arm_failure_detector();
  enum class Interrupt { None, PeerFailed, Died };
  Interrupt intr = Interrupt::None;
  sim::RankDeath death{};
  int catches = 0;
  for (;;) {
    try {
      if (intr != Interrupt::None) {
        const int epoch =
            recover_rank(ctx, grid, ckpt, x, intr == Interrupt::Died ? &death : nullptr);
        epochs_seen = std::max(epochs_seen, epoch);
        intr = Interrupt::None;
      }
      SolverStats st = solve_fn(&ckpt);
      epilogue();
      grid.disarm_failure_detector();
      return st;
    } catch (const sim::RankFailure&) {
      intr = Interrupt::PeerFailed;
    } catch (const sim::RankDeath& d) {
      death = d;
      intr = Interrupt::Died;
    }
    // local backstop only; the real (deterministic, cluster-global) budget
    // is the epoch check inside recover_rank
    if (++catches > 4 * (ctx.spec().faults.max_failures + 2))
      throw std::runtime_error("recovery loop made no progress within its failure budget");
  }
}

// per-rank solve at outer precision POuter; a different PSloppy makes it a
// mixed-precision solve
template <typename POuter, typename PSloppy>
RankOutcome rank_solve(RankContext& ctx, const GridTopology& topo, const Geometry& lg,
                       const HostGaugeField& lu, const HostCloverField& lt,
                       const HostCloverField& ltinv, const HostSpinorField& lb,
                       const InvertParams& p) {
  comm::QmpGrid grid(ctx, topo);
  grid.set_retry_policy(p.retry);
  RankOutcome out;
  const double setup_begin_us = ctx.clock().now_us;

  RankFields<POuter> hi(grid, lg, lu, lt, ltinv, p.reconstruct);
  out.gauge_bytes = hi.gauge.device_bytes();
  ParallelWilsonCloverOp<POuter> op_hi(grid, lg, hi.gauge, hi.clover, hi.clover_inv, p.time_bc,
                                       p.overlap);

  const PartitionMask mask = topo.partition_mask();
  SpinorField<POuter> b_e = upload_spinor<POuter>(lb, Parity::Even, mask);
  SpinorField<POuter> b_o = upload_spinor<POuter>(lb, Parity::Odd, mask);
  SpinorField<POuter> bprime = make_vector<POuter>(grid, lg);
  SpinorField<POuter> x_e = make_vector<POuter>(grid, lg);
  SpinorField<POuter> x_o = make_vector<POuter>(grid, lg);
  ctx.device().malloc_bytes(b_e.device_bytes() + b_o.device_bytes());
  charge_solver_vectors<POuter>(grid, lg, 6); // r, r0, p, v, s, t

  op_hi.prepare_source(bprime, b_e, b_o);

  // checkpoint/restart driver state; deaths are armed only once setup is
  // barriered (setup-phase failures are out of scope, DESIGN.md §10)
  CheckpointManager<POuter> ckpt(grid, p.checkpoint_interval);
  auto epilogue = [&] {
    op_hi.reconstruct_odd(x_o, x_e, b_o);
    grid.barrier();
  };

  if constexpr (std::is_same_v<POuter, PSloppy>) {
    grid.barrier();
    out.setup_done_us = ctx.clock().now_us;
    out.stats = run_with_recovery(
        ctx, grid, ckpt, x_e, out.recovery_epochs,
        [&](CheckpointManager<POuter>* c) { return dispatch_uniform(op_hi, x_e, bprime, p, c); },
        epilogue);
    out.effective_flops = op_hi.effective_flops();
  } else {
    RankFields<PSloppy> lo(grid, lg, lu, lt, ltinv,
                           p.reconstruct_sloppy.value_or(p.reconstruct));
    out.gauge_bytes += lo.gauge.device_bytes();
    ParallelWilsonCloverOp<PSloppy> op_lo(grid, lg, lo.gauge, lo.clover, lo.clover_inv,
                                          p.time_bc, p.overlap);
    charge_solver_vectors<PSloppy>(grid, lg, 7); // sloppy r, r0, p, v, s, t, x
    grid.barrier();
    out.setup_done_us = ctx.clock().now_us;
    out.stats = run_with_recovery(
        ctx, grid, ckpt, x_e, out.recovery_epochs,
        [&](CheckpointManager<POuter>* c) {
          return dispatch_mixed(op_hi, op_lo, x_e, bprime, p, c);
        },
        epilogue);
    out.effective_flops = op_hi.effective_flops() + op_lo.effective_flops();
  }

  out.solve_done_us = ctx.clock().now_us;
  out.ckpt_digest = ckpt.committed_digest();
  out.ckpt_log = ckpt.log();
  ctx.tracer().span(trace::Kind::Setup, setup_begin_us, out.setup_done_us);
  ctx.tracer().span(trace::Kind::Solve, out.setup_done_us, out.solve_done_us);

  out.x_local = HostSpinorField(lg);
  download_spinor(x_e, Parity::Even, out.x_local);
  download_spinor(x_o, Parity::Odd, out.x_local);
  out.bytes_peak = ctx.device().bytes_peak();
  return out;
}

void validate(const InvertParams& p) {
  if (p.precision == Precision::Half)
    throw std::invalid_argument("half precision is a sloppy precision, not an outer one");
  if (p.sloppy && bytes_per_real(*p.sloppy) > bytes_per_real(p.precision))
    throw std::invalid_argument("sloppy precision must not exceed the outer precision");
  if (p.reconstruct_sloppy &&
      reals_per_link(*p.reconstruct_sloppy) > reals_per_link(p.reconstruct))
    throw std::invalid_argument(
        "sloppy reconstruct must not store more reals than the outer reconstruct");
}

// T = (4 + m) + A and its inverse, built once on the global lattice
// (boundary leaves need cross-rank links, exactly why Chroma hands QUDA a
// finished clover field)
struct CloverTerms {
  HostCloverField t, tinv;
};

CloverTerms make_clover_terms(const HostGaugeField& gauge, const InvertParams& params) {
  CloverTerms c{make_clover_term(gauge, params.csw), {}};
  add_diag(c.t, 4.0 + params.mass);
  c.tinv = invert_clover(c.t);
  return c;
}

} // namespace

InvertResult invert_multi_gpu(const sim::ClusterSpec& cluster_spec, const HostGaugeField& gauge,
                              const HostSpinorField& b, HostSpinorField& x,
                              const InvertParams& params) {
  validate(params);
  const Geometry& g = gauge.geom();
  const int n_ranks = cluster_spec.num_ranks();
  const GridTopology topo = comm::resolve_topology(params.grid, n_ranks);
  (void)local_geometry(g, topo); // validate divisibility up front

  const CloverTerms clover = make_clover_terms(gauge, params);

  // rotate the source into the internal basis
  HostSpinorField b_nr(g);
  for (std::int64_t i = 0; i < g.volume(); ++i)
    b_nr[i] = rotate_basis(params.interface_basis, GammaBasis::NonRelativistic, b[i]);

  VirtualCluster cluster(cluster_spec);
  std::vector<RankOutcome> outcomes(static_cast<std::size_t>(n_ranks));

  cluster.run([&](RankContext& ctx) {
    const int rank = ctx.rank();
    const Geometry local = local_geometry(g, topo);
    const HostGaugeField lu = slice_gauge(gauge, topo, rank);
    const HostCloverField lt = slice_clover(clover.t, topo, rank);
    const HostCloverField ltinv = slice_clover(clover.tinv, topo, rank);
    const HostSpinorField lb = slice_spinor(b_nr, topo, rank);

    RankOutcome& out = outcomes[static_cast<std::size_t>(rank)];
    const bool mixed = params.sloppy && *params.sloppy != params.precision;

    if (params.precision == Precision::Double) {
      if (!mixed)
        out = rank_solve<PrecDouble, PrecDouble>(ctx, topo, local, lu, lt, ltinv, lb, params);
      else if (*params.sloppy == Precision::Single)
        out = rank_solve<PrecDouble, PrecSingle>(ctx, topo, local, lu, lt, ltinv, lb, params);
      else
        out = rank_solve<PrecDouble, PrecHalf>(ctx, topo, local, lu, lt, ltinv, lb, params);
    } else {
      if (!mixed)
        out = rank_solve<PrecSingle, PrecSingle>(ctx, topo, local, lu, lt, ltinv, lb, params);
      else
        out = rank_solve<PrecSingle, PrecHalf>(ctx, topo, local, lu, lt, ltinv, lb, params);
    }
  });

  // merge and rotate back to the interface basis
  HostSpinorField x_nr(g);
  for (int r = 0; r < n_ranks; ++r)
    merge_spinor(x_nr, outcomes[static_cast<std::size_t>(r)].x_local, topo, r);
  if (x.geom().volume() != g.volume()) x = HostSpinorField(g);
  for (std::int64_t i = 0; i < g.volume(); ++i)
    x[i] = rotate_basis(GammaBasis::NonRelativistic, params.interface_basis, x_nr[i]);

  InvertResult result;
  result.stats = outcomes[0].stats;
  double total_flops = 0;
  for (const auto& o : outcomes) {
    total_flops += o.effective_flops;
    result.device_bytes_peak = std::max(result.device_bytes_peak, o.bytes_peak);
    result.gauge_device_bytes = std::max(result.gauge_device_bytes, o.gauge_bytes);
  }
  result.simulated_time_us = outcomes[0].solve_done_us - outcomes[0].setup_done_us;
  result.effective_gflops =
      result.simulated_time_us > 0 ? total_flops / (result.simulated_time_us * 1e3) : 0.0;

  // fault/recovery report: comm-layer counters summed over ranks, solver
  // recovery from rank 0 (reductions keep every rank's solver in lockstep)
  const sim::FaultCounters& fc = cluster.fault_totals();
  FaultReport& fr = result.faults;
  fr.drops = fc.drops;
  fr.delays = fc.delays;
  fr.corruptions = fc.corruptions;
  fr.device_flips = fc.device_flips;
  fr.stalls = fc.stalls;
  fr.checksum_errors = fc.checksum_errors;
  fr.retries = fc.retries;
  fr.sdc_detected = result.stats.sdc_detected;
  fr.rollbacks = result.stats.rollbacks;
  fr.breakdown_restarts = result.stats.breakdown_restarts;
  fr.escalated = result.stats.escalated;
  fr.recovered = fc.recovered_messages + result.stats.rollbacks;
  fr.recovery_time_us = fc.recovery_us;

  // process-failure recovery: crash/hang injections, detection latency, and
  // the checkpoint/restart work that got the solve to completion anyway
  RecoveryReport& rr = fr.recovery;
  rr.crashes = fc.crashes;
  rr.hangs = fc.hangs;
  rr.respawns = fc.respawns;
  rr.checkpoints = fc.checkpoints_committed;
  rr.restores = fc.restores;
  rr.detection_us = fc.detection_us;
  rr.checkpoint_us = fc.checkpoint_us;
  rr.restore_us = fc.restore_us;
  for (const auto& o : outcomes) {
    rr.failures = std::max(rr.failures, o.recovery_epochs);
    rr.checkpoint_digest ^= o.ckpt_digest;
  }

  // QUDA_SIM_CKPT=<path>: export the per-rank checkpoint event log as JSON
  // lines (one object per write/commit/abort/restore event)
  if (const char* ckpt_env = std::getenv("QUDA_SIM_CKPT"); ckpt_env != nullptr && *ckpt_env) {
    const std::string path = trace::unique_trace_path(ckpt_env);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write export " + path);
    // one provenance line first, so differential tools can strip it by filter
    std::fprintf(f, "{\"provenance\":%s}\n", core::provenance_json(cluster_spec).c_str());
    for (int r = 0; r < n_ranks; ++r)
      for (const CheckpointEvent& e : outcomes[static_cast<std::size_t>(r)].ckpt_log)
        std::fprintf(f,
                     "{\"rank\":%d,\"action\":\"%s\",\"iteration\":%d,\"time_us\":%.3f,"
                     "\"digest\":\"%016llx\",\"bytes\":%lld}\n",
                     r, e.action, e.iteration, e.time_us,
                     static_cast<unsigned long long>(e.digest), static_cast<long long>(e.bytes));
    const bool write_failed = std::ferror(f) != 0;
    if (std::fclose(f) != 0 || write_failed)
      throw std::runtime_error("cannot write export " + path);
  }

  result.traced = cluster.trace().enabled;
  if (result.traced) {
    result.trace_metrics = trace::compute_metrics(cluster.trace());
    result.critpath = trace::analyze_solve(
        cluster.trace(), trace::ModelConfig{cluster_spec.device.dual_copy_engine});
  }
  result.telemetry = cluster.telemetry();
  return result;
}

InvertResult invert(const HostGaugeField& gauge, const HostSpinorField& b, HostSpinorField& x,
                    const InvertParams& params) {
  return invert_multi_gpu(sim::ClusterSpec::jlab_9g(1), gauge, b, x, params);
}

void apply_matrix_multi_gpu(const sim::ClusterSpec& cluster_spec, const HostGaugeField& gauge,
                            const HostSpinorField& in, HostSpinorField& out,
                            const InvertParams& params) {
  validate(params);
  const Geometry& g = gauge.geom();
  const int n_ranks = cluster_spec.num_ranks();
  const GridTopology topo = comm::resolve_topology(params.grid, n_ranks);

  const CloverTerms clover = make_clover_terms(gauge, params);

  HostSpinorField in_nr(g);
  for (std::int64_t i = 0; i < g.volume(); ++i)
    in_nr[i] = rotate_basis(params.interface_basis, GammaBasis::NonRelativistic, in[i]);

  VirtualCluster cluster(cluster_spec);
  std::vector<HostSpinorField> outs(static_cast<std::size_t>(n_ranks));

  cluster.run([&](RankContext& ctx) {
    comm::QmpGrid grid(ctx, topo);
    grid.set_retry_policy(params.retry);
    const int rank = ctx.rank();
    const Geometry local = local_geometry(g, topo);
    const HostGaugeField lu = slice_gauge(gauge, topo, rank);
    const HostCloverField lt = slice_clover(clover.t, topo, rank);
    const HostCloverField ltinv = slice_clover(clover.tinv, topo, rank);
    const HostSpinorField lin = slice_spinor(in_nr, topo, rank);

    RankFields<PrecDouble> fields(grid, local, lu, lt, ltinv, params.reconstruct);
    ParallelWilsonCloverOp<PrecDouble> op(grid, local, fields.gauge, fields.clover,
                                          fields.clover_inv, params.time_bc, params.overlap);

    const PartitionMask mask = topo.partition_mask();
    SpinorFieldD in_e = upload_spinor<PrecDouble>(lin, Parity::Even, mask);
    SpinorFieldD in_o = upload_spinor<PrecDouble>(lin, Parity::Odd, mask);
    SpinorFieldD out_e(local, mask), out_o(local, mask);
    op.apply_full(out_e, out_o, in_e, in_o);

    HostSpinorField lout(local);
    download_spinor(out_e, Parity::Even, lout);
    download_spinor(out_o, Parity::Odd, lout);
    outs[static_cast<std::size_t>(rank)] = lout;
  });

  HostSpinorField out_nr(g);
  for (int r = 0; r < n_ranks; ++r)
    merge_spinor(out_nr, outs[static_cast<std::size_t>(r)], topo, r);
  if (out.geom().volume() != g.volume()) out = HostSpinorField(g);
  for (std::int64_t i = 0; i < g.volume(); ++i)
    out[i] = rotate_basis(GammaBasis::NonRelativistic, params.interface_basis, out_nr[i]);
}

} // namespace quda
