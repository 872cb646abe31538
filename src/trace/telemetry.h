#pragma once
// Solver flight recorder: per-iteration telemetry layered on the tracer.
//
// The telemetry layer has the same contract tracing has (trace.h): it is
// purely observational.  A recorder hook never reads-and-advances a
// SimClock -- it only samples the bound clock pointer -- so a
// telemetry-enabled run is bit-identical in solution, makespan and trace
// digests to a disabled one, at any QUDA_SIM_THREADS budget and so at any
// rank-worker count (tests/test_telemetry.cpp pins this).
//
// Four pieces:
//  * a typed metric Registry per rank (counters, gauges, fixed-bucket
//    histograms, simulated-time series in deterministic fixed-width
//    buckets), merged across ranks in rank order;
//  * a per-iteration convergence Ledger the Krylov solvers (cg.h,
//    bicgstab.h, mixed_precision.h) and the modeled solver feed --
//    iteration number, iterated/true residual, precision regime, and
//    event flags (reliable updates, rollbacks, restarts, checkpoints,
//    recovery epochs) -- attached to InvertResult/ModeledSolverResult and
//    exported as JSONL via QUDA_SIM_TELEMETRY=<path>;
//  * per-rank utilization timelines (busy / exposed-comm / PCIe / stall /
//    recovery fraction per time bucket) plus achieved-vs-model-peak
//    bandwidth gauges, derived post-run through the classifier the trace
//    metrics use (metrics.h classify()), and a load-imbalance metric
//    (max/mean busy fraction);
//  * online anomaly monitors evaluated at iteration boundaries (residual
//    stagnation, retry-rate spikes, overlap-efficiency collapse vs. the
//    run's own opening iterations, post-hoc utilization imbalance) that
//    emit typed Anomaly records into the ledger and -- when tracing is on
//    -- into the trace as Kind::Anomaly instants (excluded from
//    trace::sequence_digest, like timestamps, so goldens survive).
//
// Bucket determinism rule: every time-resolved aggregate uses fixed-width
// buckets whose width is a pure function of the configuration (explicit
// bucket_us for series; makespan/buckets for timelines) -- never of
// wall-clock or arrival order -- so exports are bit-stable across
// schedulers and thread budgets.

#include "trace/trace.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace quda::telemetry {

// --- typed metric registry ---------------------------------------------------

// fixed-bucket histogram: counts[i] is the number of samples with
// v < edges[i] (first match); counts.back() catches everything >= edges
struct Histogram {
  std::vector<double> edges; // ascending upper edges
  std::vector<long> counts;  // size edges.size() + 1

  explicit Histogram(std::vector<double> e = {})
      : edges(std::move(e)), counts(edges.size() + 1, 0) {}

  void add(double v) {
    std::size_t i = 0;
    while (i < edges.size() && v >= edges[i]) ++i;
    ++counts[i];
  }
  long total() const {
    long t = 0;
    for (long c : counts) t += c;
    return t;
  }
};

// simulated-time series: samples summed into deterministic fixed-width
// buckets of the simulated clock (bucket index = floor(ts / bucket_us))
struct TimeSeries {
  double bucket_us = 1000.0;
  std::vector<double> values; // sum of samples per bucket

  void add(double ts_us, double v) {
    if (bucket_us <= 0) return;
    const auto b = static_cast<std::size_t>(ts_us > 0 ? ts_us / bucket_us : 0.0);
    if (values.size() <= b) values.resize(b + 1, 0.0);
    values[b] += v;
  }
};

// Per-rank typed metric store.  std::map keeps iteration (and therefore
// merge and export) order deterministic.
class Registry {
public:
  void count(const std::string& name, long delta = 1) { counters_[name] += delta; }
  void gauge(const std::string& name, double value) { gauges_[name] = value; }
  Histogram& histogram(const std::string& name, std::vector<double> edges) {
    auto it = histograms_.find(name);
    if (it == histograms_.end())
      it = histograms_.emplace(name, Histogram(std::move(edges))).first;
    return it->second;
  }
  TimeSeries& series(const std::string& name, double bucket_us) {
    auto it = series_.find(name);
    if (it == series_.end()) {
      it = series_.emplace(name, TimeSeries{}).first;
      it->second.bucket_us = bucket_us;
    }
    return it->second;
  }

  // fold another rank's registry into this one; callers iterate ranks in
  // ascending rank order so the merged values are scheduler-independent
  void merge(const Registry& other);

  const std::map<std::string, long>& counters() const { return counters_; }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const { return histograms_; }
  const std::map<std::string, TimeSeries>& all_series() const { return series_; }
  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty() && series_.empty();
  }

private:
  std::map<std::string, long> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, TimeSeries> series_;
};

// --- convergence ledger ------------------------------------------------------

// event flags on one ledger entry (bitmask)
enum LedgerFlag : unsigned {
  kReliableUpdate = 1u << 0,   // reliable residual replacement accepted
  kRollback = 1u << 1,         // SDC rollback to the shadow iterate
  kBreakdownRestart = 1u << 2, // Krylov breakdown restart
  kRestart = 1u << 3,          // r0 re-seed / defect-correction restart
  kCheckpoint = 1u << 4,       // checkpoint committed at this boundary
  kRecovery = 1u << 5,         // a rank-failure recovery epoch completed
};

struct IterationRecord {
  long iter = 0;
  int epoch = 0;         // recovery epochs survived so far
  double r2 = -1.0;      // iterated residual norm^2 (-1 = unavailable)
  double true_r2 = -1.0; // true residual norm^2 (-1 = unmeasured here)
  char regime = 'd';     // precision regime: 'd' / 's' / 'h'
  unsigned flags = 0;    // LedgerFlag bitmask
};

using Ledger = std::vector<IterationRecord>;

// --- anomaly monitors --------------------------------------------------------

enum class AnomalyKind : int {
  ResidualStagnation = 0,   // window of iterations without relative progress
  RetryStorm = 1,           // retransmission burst between two boundaries
  OverlapCollapse = 2,      // overlap efficiency fell vs. opening iterations
  UtilizationImbalance = 3, // max/mean busy fraction beyond threshold
};

const char* anomaly_kind_name(AnomalyKind kind);

struct Anomaly {
  AnomalyKind kind = AnomalyKind::ResidualStagnation;
  int rank = 0;
  long iter = 0;  // iteration boundary that fired (-1: post-hoc)
  int epoch = 0;
  double ts_us = 0;
  double value = 0;     // the observed statistic
  double reference = 0; // the threshold / baseline it was compared against
};

// Detector thresholds.  All monitors are deterministic functions of the
// recorded stream; defaults are loose enough to stay silent on the clean
// fig5 baseline (an acceptance criterion).
struct MonitorConfig {
  int stagnation_window = 25;       // boundaries per stagnation check
  double stagnation_epsilon = 0.01; // min relative r2 improvement per window
  long retry_spike = 8;             // retries between boundaries that fire
  int opening_iters = 5;            // boundaries forming the overlap baseline
  double overlap_collapse = 0.5;    // fire when eff < collapse * baseline
  double min_baseline = 0.05;       // ignore runs with negligible overlap
  double imbalance_threshold = 1.5; // max/mean busy fraction (post-hoc)
};

// collection/export switches; lives in ClusterSpec and defaults from the
// QUDA_SIM_TELEMETRY environment variable (value = JSONL export path)
struct TelemetryOptions {
  bool enabled = false; // record the ledger/registry and run the monitors
  std::string path;     // non-empty: write JSONL here after each run
  MonitorConfig monitors{};
};

// --- per-rank recorder -------------------------------------------------------

// Ledger/metric sink of one simulated rank, owned by its RankContext and
// written only from that rank's fiber.  Like RankTracer it is bound to
// the rank's clock (read-only) and, when available, the rank's tracer and
// retry counter -- the recorder never mutates any of them.
class RankRecorder {
public:
  void bind(int rank, const double* now_us, trace::RankTracer* tracer,
            const long* retries) {
    rank_ = rank;
    clock_ = now_us;
    tracer_ = tracer;
    retries_ = retries;
  }
  void set_enabled(bool on) { enabled_ = on; }
  void set_enabled(bool on, const MonitorConfig& monitors) {
    enabled_ = on;
    monitors_ = monitors;
  }
  bool enabled() const { return enabled_; }
  int rank() const { return rank_; }
  double now_us() const { return clock_ != nullptr ? *clock_ : 0.0; }

  // --- solver hooks (no-ops while disabled) ---
  // Iteration boundary: append a ledger record and run the online
  // monitors.  r2 < 0 means the iterated residual is unavailable (the
  // modeled solver runs no numerics).
  void iteration(long iter, double r2, char regime);
  // attach a measured true residual to the most recent boundary
  void true_residual(double r2);
  // set LedgerFlag bits on the most recent boundary (or stash them for the
  // next one when no iteration has been recorded yet -- e.g. a breakdown
  // restart before the first ++k)
  void flag(unsigned flags);
  // a recovery rendezvous completed; subsequent records carry this epoch
  void recovery(int epoch);

  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  const Ledger& ledger() const { return ledger_; }
  const std::vector<Anomaly>& anomalies() const { return anomalies_; }
  void clear();

private:
  void run_monitors(const IterationRecord& rec);
  void emit(AnomalyKind kind, long iter, double value, double reference);

  int rank_ = 0;
  const double* clock_ = nullptr;
  trace::RankTracer* tracer_ = nullptr;
  const long* retries_ = nullptr;
  bool enabled_ = false;
  MonitorConfig monitors_{};

  Ledger ledger_;
  std::vector<Anomaly> anomalies_;
  Registry registry_;
  unsigned pending_flags_ = 0;
  int epoch_ = 0;

  // monitor state
  std::vector<double> r2_window_;    // recent iterated residuals (r2 >= 0)
  long last_retries_ = 0;            // retry counter at the last boundary
  std::size_t last_event_idx_ = 0;   // tracer events consumed so far
  double overlap_baseline_sum_ = 0;  // opening-iteration overlap efficiency
  int overlap_baseline_n_ = 0;
};

// thread-local recorder of the simulated rank running on this OS thread;
// null off a rank fiber.  The returned recorder may be disabled -- hooks on
// a disabled recorder are no-ops -- so the scheduler binds unconditionally.
RankRecorder* current();

// RAII binding of current() while a rank's fiber runs on this thread
class ScopedRecorder {
public:
  explicit ScopedRecorder(RankRecorder* recorder);
  ~ScopedRecorder();
  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;

private:
  RankRecorder* prev_;
};

// --- post-run analysis -------------------------------------------------------

struct AnalysisConfig {
  int buckets = 64;          // utilization buckets over [0, makespan]
  double shm_peak_gbs = 4.5; // model peaks for achieved-vs-peak gauges
  double ib_peak_gbs = 3.2;
  MonitorConfig monitors{};
};

// per-rank utilization timeline: activity fraction of each time bucket
struct RankTimeline {
  std::vector<double> busy;         // device kernel execution
  std::vector<double> exposed_comm; // halo windows not covered by kernels
  std::vector<double> pcie;         // host<->device copies
  std::vector<double> stall;        // blocked on storage (checkpoint I/O)
  std::vector<double> recovery;     // rank-failure detection/rollback/respawn
};

// everything one run recorded, merged across ranks in rank order
struct TelemetryReport {
  bool enabled = false;
  int ranks = 0;
  double makespan_us = 0;
  double bucket_us = 0;            // timeline bucket width (makespan/buckets)
  Ledger ledger;                   // rank 0's ledger (SPMD-symmetric)
  bool ledger_symmetric = true;    // every rank recorded the same #boundaries
  std::vector<Anomaly> anomalies;  // merged in rank order, post-hoc last
  Registry registry;               // merged in rank order
  std::vector<RankTimeline> timelines; // indexed by rank (empty: no tracing)
  double load_imbalance = 0;       // max/mean busy fraction (0: no data)

  long anomaly_count() const { return static_cast<long>(anomalies.size()); }
  long iterations() const { return static_cast<long>(ledger.size()); }
};

// Fold the per-rank recorders + the recorded trace into one report.  Pure
// post-run analysis: runs after the scheduler tore the ranks down, so it
// can never perturb simulated time.
TelemetryReport build_report(const std::vector<const RankRecorder*>& recorders,
                             const trace::TraceReport& trace, double makespan_us,
                             const AnalysisConfig& cfg);

// Write the report as JSON Lines: one provenance object (when
// provenance_json is non-empty), one run header, then iteration / anomaly /
// counter / gauge / histogram / series / timeline records, one per line.
// Returns false when the file cannot be written.
bool write_jsonl(const std::string& path, const TelemetryReport& report,
                 const std::string& provenance_json);

// Non-clobbering export path: appends .N when base already exists.  Own
// counter, separate from trace::unique_trace_path, so telemetry exports
// never perturb the trace/checkpoint suffix sequence existing tests pin.
std::string unique_export_path(const std::string& base);

} // namespace quda::telemetry
