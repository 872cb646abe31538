#pragma once
// The public interface of the library, mirroring the shape of QUDA's C API
// (loadGaugeQuda / loadCloverQuda / invertQuda) in idiomatic C++.
//
// An application hands over host-side fields in its own gamma basis
// (Chroma/QDP++ use DeGrand-Rossi) together with an InvertParams describing
// the discretization, precisions, solver, and communication policy; the
// library reorders fields into the device layout, splits them over the
// simulated GPU cluster's ranks, runs the (possibly mixed-precision) Krylov
// solver with halo exchange, and returns the solution plus solver and
// performance statistics.
//
// The single-GPU path is simply a 1-rank cluster.

#include "dirac/wilson_ref.h"
#include "lattice/gauge_field.h"
#include "lattice/host_field.h"
#include "lattice/precision.h"
#include "parallel/policy.h"
#include "sim/cluster_spec.h"
#include "solvers/solver.h"
#include "trace/attribution.h"
#include "trace/metrics.h"
#include "trace/telemetry.h"

#include <optional>

namespace quda {

enum class SolverType {
  BiCGstab, // the production solver of the paper
  CG,       // conjugate gradients on the normal equations (CGNR)
};

enum class MixedStrategy {
  ReliableUpdates,  // QUDA's scheme: one Krylov space, high-precision corrections
  DefectCorrection, // restart-based baseline
};

struct InvertParams {
  // physics / discretization
  double mass = 0.0;
  double csw = 0.0; // 0 = plain Wilson; nonzero = Wilson-clover
  TimeBoundary time_bc = TimeBoundary::Antiperiodic;
  GammaBasis interface_basis = GammaBasis::DeGrandRossi;

  // precisions: solver runs at `precision`; setting a lower `sloppy`
  // selects the mixed-precision reliable-update solver
  Precision precision = Precision::Single;
  std::optional<Precision> sloppy{};
  MixedStrategy mixed_strategy = MixedStrategy::ReliableUpdates;

  // solver controls (Section VII-A's tol / delta)
  SolverType solver = SolverType::BiCGstab;
  double tol = 1e-7; // relative; note the outer precision's floor (~1e-7 in single)
  double delta = 1e-1;
  int max_iter = 5000;
  bool verbose = false;

  // multi-GPU controls
  CommPolicy overlap = CommPolicy::Overlap;
  // gauge link storage per solver level: `reconstruct` for the outer fields,
  // `reconstruct_sloppy` for the sloppy/inner fields of a mixed solve
  // (default = same as outer).  The sloppy level may compress harder than
  // the outer one (e.g. Twelve outer / Eight sloppy) but never store more
  // reals -- mirroring the precision rule.
  Reconstruct reconstruct = Reconstruct::Twelve;
  std::optional<Reconstruct> reconstruct_sloppy{};
  // rank grid over (x, y, z, t).  All ones = the paper's 1-D slicing of the
  // time dimension sized to the cluster; anything else selects the
  // multi-dimensional decomposition (the paper's future work) and must
  // multiply to the cluster's rank count.
  std::array<int, 4> grid{1, 1, 1, 1};

  // fault tolerance: message framing/retry policy of the comm layer, and
  // the solver's SDC rollback policy (sdc_threshold 0 = detection off).
  // Faults themselves are injected via ClusterSpec::faults.
  sim::RetryPolicy retry{};
  double sdc_threshold = 0;
  int max_rollbacks = 10;
  int max_breakdown_restarts = 3;
  // coordinated checkpoint/restart: take a two-phase checkpoint of the
  // solver iterate every N checkpointable boundaries (accepted reliable
  // updates in the mixed solver, every 10th iteration in uniform solvers);
  // 0 disables checkpointing (a rank failure then restarts the solve from
  // the initial guess)
  int checkpoint_interval = 0;
};

// process-failure recovery outcome of one solve (DESIGN.md §10)
struct RecoveryReport {
  int failures = 0;        // completed recovery epochs
  long crashes = 0;        // rank-crash injections that fired
  long hangs = 0;          // rank-hang injections that fired
  long respawns = 0;       // warm-spare respawns
  long checkpoints = 0;    // two-phase commits (summed over ranks)
  long restores = 0;       // checkpoint restores (summed over ranks)
  double detection_us = 0; // sim time between deaths and cluster detection
  double checkpoint_us = 0;   // sim time charged to checkpoint writes/commits
  double restore_us = 0;      // sim time charged to rollback + restore
  // XOR of the per-rank last-committed checkpoint digests (order-free, so
  // deterministic without extra communication); 0 when nothing committed
  std::uint64_t checkpoint_digest = 0;

  bool clean() const { return crashes == 0 && hangs == 0; }
};

// fault/recovery outcome of one solve: what was injected, what the
// detection layers caught, and what the recovery machinery did about it
struct FaultReport {
  // injected (summed over ranks)
  long drops = 0;
  long delays = 0;
  long corruptions = 0;
  long device_flips = 0;
  long stalls = 0;
  // detected
  long checksum_errors = 0; // corrupt frames caught by receivers
  int sdc_detected = 0;     // corrupted iterates caught at reliable updates
  // recovered
  long retries = 0;            // resend attempts by the reliable senders
  long recovered = 0;          // redelivered messages + completed rollbacks
  int rollbacks = 0;           // solver rollbacks to a reliable iterate
  int breakdown_restarts = 0;  // Krylov restarts after scalar breakdown
  bool escalated = false;      // solve finished in full outer precision
  double recovery_time_us = 0; // sim time spent on timeouts, backoff, stalls
  // process-level failures and checkpoint/restart recovery
  RecoveryReport recovery{};

  bool clean() const {
    return drops == 0 && delays == 0 && corruptions == 0 && device_flips == 0 && stalls == 0 &&
           recovery.clean();
  }
};

struct InvertResult {
  SolverStats stats;
  double simulated_time_us = 0;    // cluster makespan of the solve
  double effective_gflops = 0;     // aggregate sustained effective Gflops
  std::int64_t device_bytes_peak = 0; // max device memory used by any rank
  // per-rank gauge storage actually allocated (outer + sloppy fields at
  // their respective Reconstruct) -- the footprint the recon knobs shrink
  std::int64_t gauge_device_bytes = 0;
  FaultReport faults;              // fault injection / recovery accounting
  bool traced = false;             // tracing was on; `trace_metrics` is meaningful
  trace::Metrics trace_metrics{};  // aggregated trace metrics of the solve
  trace::CritSummary critpath{};   // critical-path attribution of the full run
  telemetry::TelemetryReport telemetry{}; // flight recorder (QUDA_SIM_TELEMETRY)
};

// Solve M x = b on the cluster's simulated GPUs, decomposed over the rank
// grid `params.grid` (all ones: the time slicing over every rank).  `gauge`
// and `b` are full-lattice host fields in `params.interface_basis`; `x`
// receives the solution in the same basis.  Every cut dimension must divide
// evenly into even local extents (a cut x also needs an even local y).
InvertResult invert_multi_gpu(const sim::ClusterSpec& cluster_spec, const HostGaugeField& gauge,
                              const HostSpinorField& b, HostSpinorField& x,
                              const InvertParams& params);

// single-GPU convenience overload
InvertResult invert(const HostGaugeField& gauge, const HostSpinorField& b, HostSpinorField& x,
                    const InvertParams& params);

// Apply the full Wilson-clover matrix M on `ranks` GPUs (an `MatQuda`-style
// entry point, useful for residual checks and as a cheap API smoke test).
void apply_matrix_multi_gpu(const sim::ClusterSpec& cluster_spec, const HostGaugeField& gauge,
                            const HostSpinorField& in, HostSpinorField& out,
                            const InvertParams& params);

} // namespace quda
