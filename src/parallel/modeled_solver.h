#pragma once
// Timing-only ("Modeled") execution of the parallel BiCGstab solver at
// paper-scale volumes.
//
// The benchmark harness needs the performance of solves on lattices like
// 32^3 x 256 across up to 32 GPUs -- volumes whose real arithmetic would
// take hours per data point on one host core.  Sustained Gflops is a
// per-iteration quantity, so we execute the solver's *schedule* (matrix
// applications, fused BLAS sweeps, reductions, reliable updates) through
// exactly the same halo-exchange and device-timing code paths the real
// solver uses, with Execution::Modeled suppressing the arithmetic.  The
// iteration count is a fixed input; it cancels out of the Gflops metric up
// to the reliable-update overhead, which is modeled explicitly.

#include "parallel/halo_dslash.h"
#include "perfmodel/footprint.h"
#include "sim/event_sim.h"
#include "trace/attribution.h"
#include "trace/metrics.h"
#include "trace/telemetry.h"

#include <optional>

namespace quda::parallel {

struct ModeledSolverConfig {
  LatticeDims local{};                       // per-rank lattice
  // rank grid (comm::resolve_topology): all ones is the paper's time
  // slicing over the cluster's ranks; any other grid must hold every rank,
  // or the run raises std::invalid_argument
  comm::GridTopology topology{};
  Precision outer = Precision::Single;       // high/outer precision
  std::optional<Precision> sloppy{};         // set => mixed precision
  // gauge link storage per level.  Unset keeps the pre-knob behavior: the
  // 12-real anchored kernel traffic and the era-default footprint (18-real
  // double, 12-real otherwise).  Set, it drives the kernel bytes, the gauge
  // ghost wire, and the footprint gate -- the fig4/5/6 curves move with it.
  std::optional<Reconstruct> reconstruct{};
  std::optional<Reconstruct> reconstruct_sloppy{};
  CommPolicy policy = CommPolicy::Overlap;
  int iterations = 200;                      // Krylov iterations to simulate
  int reliable_interval = 40;                // iterations per reliable update (mixed)
  TimeBoundary time_bc = TimeBoundary::Antiperiodic;
  // fault tolerance: comm framing/retry policy, and the rollback budget for
  // modeled SDC recovery (a device flip voids the segment since the last
  // reliable update; the segment is re-run)
  sim::RetryPolicy retry{};
  int max_rollbacks = 10;
};

struct ModeledSolverResult {
  bool fits = true;               // device memory gate (footprint vs capacity)
  std::int64_t footprint_bytes = 0;
  std::int64_t gauge_footprint_bytes = 0; // gauge slice of the footprint (recon-aware)
  double time_us = 0;             // simulated makespan of the solve
  double effective_gflops = 0;    // aggregate sustained effective Gflops
  int iterations = 0;             // iterations executed (incl. re-run segments)
  int rollbacks = 0;              // SDC rollbacks (re-run reliable segments)
  sim::FaultCounters faults{};    // injection/recovery totals over all ranks
  bool traced = false;            // tracing was on; `metrics` is meaningful
  trace::Metrics metrics{};       // aggregated trace metrics of the solve
  trace::CritSummary critpath{};  // critical-path attribution (traced runs)
  telemetry::TelemetryReport telemetry{}; // flight recorder (QUDA_SIM_TELEMETRY)
};

// run the modeled solve on `cluster` (one rank per GPU); returns aggregate
// performance in the paper's effective-Gflops metric
ModeledSolverResult run_modeled_solver(sim::VirtualCluster& cluster,
                                       const ModeledSolverConfig& config);

} // namespace quda::parallel
