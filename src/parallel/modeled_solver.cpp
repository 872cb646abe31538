#include "parallel/modeled_solver.h"

#include <stdexcept>

namespace quda::parallel {

namespace {

// dispatch a modeled halo dslash at a runtime precision and link storage
void modeled_halo(comm::QmpGrid& grid, const Geometry& local, Precision prec, Reconstruct recon,
                  CommPolicy policy, TimeBoundary bc, Parity parity) {
  HaloDslashConfig cfg;
  cfg.policy = policy;
  cfg.exec = Execution::Modeled;
  cfg.out_parity = parity;
  cfg.time_bc = bc;
  cfg.reconstruct = recon;
  switch (prec) {
    case Precision::Double:
      halo_dslash<PrecDouble>(grid, local, cfg, {});
      break;
    case Precision::Single:
      halo_dslash<PrecSingle>(grid, local, cfg, {});
      break;
    case Precision::Half:
      halo_dslash<PrecHalf>(grid, local, cfg, {});
      break;
  }
}

// one even-odd matrix application: two halo dslashes (clover fused)
void modeled_matrix(comm::QmpGrid& grid, const Geometry& local, Precision prec, Reconstruct recon,
                    CommPolicy policy, TimeBoundary bc) {
  modeled_halo(grid, local, prec, recon, policy, bc, Parity::Odd);
  modeled_halo(grid, local, prec, recon, policy, bc, Parity::Even);
}

// one fused BLAS kernel + counters
void modeled_blas(sim::RankContext& ctx, Precision prec, std::int64_t sites, int reads,
                  int writes, double& eff_flops) {
  double& clk = ctx.clock().now_us;
  clk = ctx.device().launch_kernel(clk, kInteriorStream,
                                   perf::blas_kernel_cost(prec, sites, reads, writes),
                                   kKernelLaunch);
  clk = ctx.device().device_synchronize(clk);
  eff_flops += perf::effective_blas_flops(sites, reads);
}

void modeled_reduction(sim::RankContext& ctx) { (void)ctx.allreduce_sum(0.0); }

} // namespace

ModeledSolverResult run_modeled_solver(sim::VirtualCluster& cluster,
                                       const ModeledSolverConfig& config) {
  const comm::GridTopology topo =
      comm::resolve_topology(config.topology.dims, cluster.spec().num_ranks());
  ModeledSolverResult result;
  result.iterations = config.iterations;

  // --- memory gate -------------------------------------------------------------
  const perf::SolverFootprint fp =
      perf::solver_footprint(config.local, config.outer, config.sloppy, config.reconstruct,
                             config.reconstruct_sloppy);
  result.footprint_bytes = fp.total();
  result.gauge_footprint_bytes = fp.gauge_bytes;
  gpusim::Device probe(cluster.spec().device, cluster.spec().bus);
  if (!probe.fits(fp.total())) {
    result.fits = false;
    return result;
  }

  const Geometry local(config.local);
  const std::int64_t vh = local.half_volume();
  const Precision sloppy = config.sloppy.value_or(config.outer);
  const bool mixed = sloppy != config.outer;
  // kernel/wire charges: unset knobs keep the pre-knob 12-real anchor
  const Reconstruct recon_outer = config.reconstruct.value_or(Reconstruct::Twelve);
  const Reconstruct recon_sloppy =
      config.reconstruct_sloppy.value_or(config.reconstruct.value_or(Reconstruct::Twelve));

  // every rank runs the same schedule; one rank accumulates the flop count
  // (all ranks are identical, so aggregate = per-rank x N)
  std::vector<double> eff_flops(static_cast<std::size_t>(cluster.spec().num_ranks()), 0.0);
  int rollbacks_rank0 = 0;
  int iterations_rank0 = config.iterations;

  cluster.run([&](sim::RankContext& ctx) {
    comm::QmpGrid grid(ctx, topo);
    grid.set_retry_policy(config.retry);
    double& flops = eff_flops[static_cast<std::size_t>(ctx.rank())];

    // modeled SDC: one device-fault draw per matrix application, exactly as
    // in Real execution; a flip voids the segment since the last reliable
    // update, and the detection point decides globally (mirroring the true
    // residual's allreduce) whether to re-run it
    bool segment_corrupt = false;
    int rollbacks = 0;
    auto draw_flip = [&] {
      if (!ctx.faults().enabled()) return;
      if (ctx.faults().next_device_fault()) {
        ++ctx.faults().counters().device_flips;
        segment_corrupt = true;
      }
    };

    auto& tracer = ctx.tracer();
    const double setup_begin_us = ctx.clock().now_us;

    // setup: gauge ghost exchange (program initialization, Section VI-B)
    switch (sloppy) {
      case Precision::Double:
        exchange_gauge_ghost<PrecDouble>(grid, local, nullptr, Execution::Modeled, recon_sloppy);
        break;
      case Precision::Single:
        exchange_gauge_ghost<PrecSingle>(grid, local, nullptr, Execution::Modeled, recon_sloppy);
        break;
      case Precision::Half:
        exchange_gauge_ghost<PrecHalf>(grid, local, nullptr, Execution::Modeled, recon_sloppy);
        break;
    }

    // initial residual: one outer matrix apply + two BLAS sweeps + reduction
    modeled_matrix(grid, local, config.outer, recon_outer, config.policy, config.time_bc);
    flops += perf::effective_matrix_flops(vh);
    modeled_blas(ctx, config.outer, vh, 2, 1, flops);
    modeled_reduction(ctx);
    tracer.span(trace::Kind::Setup, setup_begin_us, ctx.clock().now_us);
    const double solve_begin_us = ctx.clock().now_us;

    int executed = 0;
    for (int k = 1; k <= config.iterations; ++k) {
      // BiCGstab iteration at sloppy precision: 2 matrix applies, the fused
      // BLAS schedule of solve_bicgstab, and 3 fused reductions
      modeled_matrix(grid, local, sloppy, recon_sloppy, config.policy, config.time_bc);
      draw_flip();
      modeled_matrix(grid, local, sloppy, recon_sloppy, config.policy, config.time_bc);
      draw_flip();
      flops += 2 * perf::effective_matrix_flops(vh);
      ++executed;

      modeled_blas(ctx, sloppy, vh, 2, 0, flops); // <r0, v>
      modeled_reduction(ctx);
      modeled_blas(ctx, sloppy, vh, 3, 2, flops); // s = r - alpha v
      modeled_blas(ctx, sloppy, vh, 3, 0, flops); // <t, s>, <t, t>
      modeled_reduction(ctx);
      modeled_blas(ctx, sloppy, vh, 3, 1, flops); // x update
      modeled_blas(ctx, sloppy, vh, 3, 1, flops); // r update + norms
      modeled_reduction(ctx);
      modeled_blas(ctx, sloppy, vh, 3, 1, flops); // p update

      tracer.instant(trace::Kind::Iteration, ctx.clock().now_us, 0, -1, -1, k);
      // modeled iterations carry no residual (arithmetic suppressed); the
      // ledger still pins the iteration cadence and precision regime
      if (auto* rec = telemetry::current())
        rec->iteration(k, -1.0, to_string(sloppy)[0]);

      if (mixed && config.reliable_interval > 0 && k % config.reliable_interval == 0) {
        // reliable update: fold x_lo, recompute the true residual at outer
        // precision, convert back down (Section V-D)
        const double reliable_begin_us = ctx.clock().now_us;
        modeled_blas(ctx, config.outer, vh, 3, 1, flops); // y += x_lo
        modeled_matrix(grid, local, config.outer, recon_outer, config.policy, config.time_bc);
        flops += perf::effective_matrix_flops(vh);
        modeled_blas(ctx, config.outer, vh, 2, 1, flops); // r = b - Ay + norm
        modeled_reduction(ctx);

        // SDC detection rides the true residual's allreduce: any rank's
        // corrupted segment shows up in the global residual, so the rollback
        // decision is global and every rank stays in lockstep
        double corrupt_flag = segment_corrupt ? 1.0 : 0.0;
        corrupt_flag = ctx.allreduce_sum(corrupt_flag);
        segment_corrupt = false;
        if (corrupt_flag > 0 && rollbacks < config.max_rollbacks) {
          ++rollbacks;
          // rollback: restore the saved iterate, recompute the residual,
          // rebuild the sloppy Krylov space, then re-run the voided segment
          modeled_blas(ctx, config.outer, vh, 1, 1, flops); // x = x_saved
          modeled_matrix(grid, local, config.outer, recon_outer, config.policy, config.time_bc);
          flops += perf::effective_matrix_flops(vh);
          modeled_blas(ctx, config.outer, vh, 2, 1, flops); // r = b - Ax + norm
          modeled_reduction(ctx);
          modeled_blas(ctx, sloppy, vh, 4, 3, flops); // rebuild r0, p, rho
          modeled_reduction(ctx);
          tracer.instant(trace::Kind::SolverRollback, ctx.clock().now_us, 0, -1, -1, k);
          if (auto* rec = telemetry::current()) rec->flag(telemetry::kRollback);
          tracer.span(trace::Kind::ReliableUpdate, reliable_begin_us, ctx.clock().now_us, 0, -1, -1,
                      k);
          k -= config.reliable_interval; // the segment is re-run
          continue;
        }
        modeled_blas(ctx, sloppy, vh, 1, 1, flops); // r_lo = convert(r)
        if (auto* rec = telemetry::current()) rec->flag(telemetry::kReliableUpdate);
        tracer.span(trace::Kind::ReliableUpdate, reliable_begin_us, ctx.clock().now_us, 0, -1, -1,
                    k);
      }
    }
    ctx.barrier();
    tracer.span(trace::Kind::Solve, solve_begin_us, ctx.clock().now_us);
    if (ctx.rank() == 0) {
      rollbacks_rank0 = rollbacks;
      iterations_rank0 = executed;
    }
  });

  result.iterations = iterations_rank0;
  result.rollbacks = rollbacks_rank0;
  result.faults = cluster.fault_totals();
  result.time_us = cluster.makespan_us();
  result.traced = cluster.trace().enabled;
  if (result.traced) {
    result.metrics = trace::compute_metrics(cluster.trace());
    result.critpath = trace::analyze_solve(
        cluster.trace(), trace::ModelConfig{cluster.spec().device.dual_copy_engine});
  }
  result.telemetry = cluster.telemetry();
  double total_flops = 0;
  for (double f : eff_flops) total_flops += f;
  // flops/us -> Gflops (time_us is 0 only for degenerate no-op schedules)
  result.effective_gflops = result.time_us > 0 ? total_flops / (result.time_us * 1e3) : 0.0;
  return result;
}

} // namespace quda::parallel
