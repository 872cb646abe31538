// Solver flight recorder (DESIGN.md §13): typed metric registry, the
// per-iteration convergence ledger, utilization timelines, and the online
// anomaly monitors.  The load-bearing property is observational purity: a
// telemetry-enabled run must be bit-identical -- solution vector, makespan,
// per-rank trace digests -- to a disabled one, at any QUDA_SIM_THREADS
// budget and so at one rank worker or one per rank, including a faulted
// crash/recovery run.  Telemetry itself must also be deterministic: the
// ledger, anomaly stream, and merged registry replay bitwise across
// budgets.

#include "core/partition.h"
#include "core/quda_api.h"
#include "dirac/clover_term.h"
#include "dirac/gauge_init.h"
#include "dirac/transfer.h"
#include "exec/host_engine.h"
#include "parallel/modeled_solver.h"
#include "parallel/parallel_op.h"
#include "sim/event_sim.h"
#include "solvers/bicgstab.h"
#include "solvers/cg.h"
#include "solvers/mixed_precision.h"
#include "trace/telemetry.h"
#include "trace/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace quda {
namespace {

using telemetry::AnomalyKind;
using telemetry::RankRecorder;
using telemetry::TelemetryReport;

// the suite drives the telemetry knobs itself; scrub ambient state
const bool g_env_cleared = [] {
  ::unsetenv("QUDA_SIM_TRACE");
  ::unsetenv("QUDA_SIM_TELEMETRY");
  return true;
}();

// --- registry units ----------------------------------------------------------

TEST(TelemetryRegistry, HistogramBucketsByUpperEdge) {
  telemetry::Histogram h({0.0, 1.0, 2.0});
  ASSERT_EQ(h.counts.size(), 4u);
  h.add(-0.5); // < 0
  h.add(0.0);  // [0, 1)
  h.add(0.5);
  h.add(1.5);  // [1, 2)
  h.add(7.0);  // >= 2
  EXPECT_EQ(h.counts[0], 1);
  EXPECT_EQ(h.counts[1], 2);
  EXPECT_EQ(h.counts[2], 1);
  EXPECT_EQ(h.counts[3], 1);
  EXPECT_EQ(h.total(), 5);
}

TEST(TelemetryRegistry, TimeSeriesFixedWidthBuckets) {
  telemetry::TimeSeries s;
  s.bucket_us = 100.0;
  s.add(0.0, 1.0);
  s.add(99.9, 1.0);
  s.add(100.0, 2.0);
  s.add(350.0, 4.0);
  s.add(-5.0, 8.0); // pre-epoch samples land in bucket 0
  ASSERT_EQ(s.values.size(), 4u);
  EXPECT_EQ(s.values[0], 10.0);
  EXPECT_EQ(s.values[1], 2.0);
  EXPECT_EQ(s.values[2], 0.0);
  EXPECT_EQ(s.values[3], 4.0);
}

TEST(TelemetryRegistry, MergeRulesAreRankOrderIndependent) {
  telemetry::Registry a, b;
  a.count("iterations", 10);
  b.count("iterations", 5);
  b.count("rollbacks", 1);
  a.gauge("busy_frac.max", 0.5);
  b.gauge("busy_frac.max", 0.8);
  a.histogram("res", {0.0, 1.0}).add(0.5);
  b.histogram("res", {0.0, 1.0}).add(0.5);
  b.histogram("res_other_shape", {5.0}).add(1.0);
  a.series("per_ms", 1000.0).add(500.0, 1.0);
  b.series("per_ms", 1000.0).add(1500.0, 2.0);

  a.merge(b);
  EXPECT_EQ(a.counters().at("iterations"), 15);
  EXPECT_EQ(a.counters().at("rollbacks"), 1);
  EXPECT_EQ(a.gauges().at("busy_frac.max"), 0.8); // gauges keep the max
  EXPECT_EQ(a.histograms().at("res").counts[1], 2);
  EXPECT_EQ(a.histograms().at("res_other_shape").total(), 1); // adopted whole
  ASSERT_EQ(a.all_series().at("per_ms").values.size(), 2u);
  EXPECT_EQ(a.all_series().at("per_ms").values[0], 1.0);
  EXPECT_EQ(a.all_series().at("per_ms").values[1], 2.0);

  // incompatible shapes never merge: the existing histogram stays intact
  telemetry::Registry c;
  c.histogram("res", {9.0}).add(1.0);
  a.merge(c);
  EXPECT_EQ(a.histograms().at("res").edges, (std::vector<double>{0.0, 1.0}));
  EXPECT_EQ(a.histograms().at("res").total(), 2);
}

// --- recorder units ----------------------------------------------------------

TEST(TelemetryRecorder, DisabledHooksAreNoOps) {
  RankRecorder rec;
  double clock = 0;
  rec.bind(0, &clock, nullptr, nullptr);
  rec.iteration(1, 1.0, 's');
  rec.flag(telemetry::kRollback);
  rec.true_residual(0.5);
  EXPECT_TRUE(rec.ledger().empty());
  EXPECT_TRUE(rec.registry().empty());
}

TEST(TelemetryRecorder, PendingFlagsAttachToFirstIteration) {
  RankRecorder rec;
  double clock = 0;
  rec.bind(0, &clock, nullptr, nullptr);
  rec.set_enabled(true);
  // a breakdown restart can fire before the first ++k; the flag must not
  // be dropped on the floor just because the ledger is still empty
  rec.flag(telemetry::kBreakdownRestart);
  rec.iteration(1, 1.0, 's');
  ASSERT_EQ(rec.ledger().size(), 1u);
  EXPECT_EQ(rec.ledger()[0].flags & telemetry::kBreakdownRestart,
            unsigned{telemetry::kBreakdownRestart});
  // later flags attach to the latest boundary instead
  rec.flag(telemetry::kReliableUpdate);
  rec.true_residual(0.25);
  EXPECT_EQ(rec.ledger()[0].flags & telemetry::kReliableUpdate,
            unsigned{telemetry::kReliableUpdate});
  EXPECT_EQ(rec.ledger()[0].true_r2, 0.25);
  EXPECT_EQ(rec.registry().counters().at("breakdown_restarts"), 1);
}

TEST(TelemetryRecorder, RecoveryEpochStampsSubsequentRecords) {
  RankRecorder rec;
  double clock = 0;
  rec.bind(2, &clock, nullptr, nullptr);
  rec.set_enabled(true);
  rec.iteration(1, 1.0, 'h');
  rec.recovery(1);
  rec.iteration(2, 0.5, 'h');
  ASSERT_EQ(rec.ledger().size(), 2u);
  EXPECT_EQ(rec.ledger()[0].epoch, 0);
  EXPECT_EQ(rec.ledger()[0].flags & telemetry::kRecovery, unsigned{telemetry::kRecovery});
  EXPECT_EQ(rec.ledger()[1].epoch, 1);
  EXPECT_EQ(rec.registry().counters().at("recovery_epochs"), 1);
}

TEST(TelemetryRecorder, StagnationMonitorFiresOncePerPlateau) {
  RankRecorder rec;
  double clock = 0;
  telemetry::MonitorConfig mon;
  mon.stagnation_window = 5;
  mon.stagnation_epsilon = 0.01;
  rec.bind(0, &clock, nullptr, nullptr);
  rec.set_enabled(true, mon);
  // converging prefix: no firing while each window improves
  for (long k = 1; k <= 6; ++k) rec.iteration(k, 1.0 / static_cast<double>(k * k), 's');
  EXPECT_TRUE(rec.anomalies().empty());
  // flat plateau: exactly one finding (the window clears after firing),
  // then a second full flat window reports again
  for (long k = 7; k <= 11; ++k) rec.iteration(k, 1e-6, 's');
  ASSERT_EQ(rec.anomalies().size(), 1u);
  EXPECT_EQ(rec.anomalies()[0].kind, AnomalyKind::ResidualStagnation);
  for (long k = 12; k <= 15; ++k) rec.iteration(k, 1e-6, 's');
  EXPECT_EQ(rec.anomalies().size(), 1u) << "refractory window reported twice";
  rec.iteration(16, 1e-6, 's');
  EXPECT_EQ(rec.anomalies().size(), 2u);
  EXPECT_EQ(rec.registry().counters().at("anomaly.residual_stagnation"), 2);
}

TEST(TelemetryRecorder, RetryStormMonitorFiresOnBurst) {
  RankRecorder rec;
  double clock = 0;
  long retries = 0;
  telemetry::MonitorConfig mon;
  mon.retry_spike = 3;
  rec.bind(1, &clock, nullptr, &retries);
  rec.set_enabled(true, mon);
  rec.iteration(1, 1.0, 's');
  retries += 2; // under the spike threshold
  rec.iteration(2, 0.5, 's');
  EXPECT_TRUE(rec.anomalies().empty());
  retries += 9; // burst between boundaries
  rec.iteration(3, 0.25, 's');
  ASSERT_EQ(rec.anomalies().size(), 1u);
  EXPECT_EQ(rec.anomalies()[0].kind, AnomalyKind::RetryStorm);
  EXPECT_EQ(rec.anomalies()[0].value, 9.0);
  EXPECT_EQ(rec.anomalies()[0].rank, 1);
  retries += 1; // the counter deltas reset at each boundary
  rec.iteration(4, 0.1, 's');
  EXPECT_EQ(rec.anomalies().size(), 1u);
}

// --- modeled-solver integration ---------------------------------------------

parallel::ModeledSolverConfig modeled_config() {
  parallel::ModeledSolverConfig cfg;
  cfg.local = LatticeDims{8, 8, 8, 16};
  cfg.outer = Precision::Single;
  cfg.sloppy = Precision::Half;
  cfg.policy = CommPolicy::Overlap;
  cfg.iterations = 25;
  cfg.reliable_interval = 10;
  return cfg;
}

struct ModeledObs {
  parallel::ModeledSolverResult result;
  double makespan = 0;
  std::vector<std::uint64_t> digests;
};

ModeledObs run_modeled(int ranks, bool telemetry_on, const sim::FaultConfig& faults = {},
                       const telemetry::MonitorConfig& monitors = {}) {
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(ranks);
  spec.trace.enabled = true;
  spec.telemetry.enabled = telemetry_on;
  spec.telemetry.monitors = monitors;
  spec.faults = faults;
  sim::VirtualCluster cluster(spec);
  ModeledObs o;
  o.result = parallel::run_modeled_solver(cluster, modeled_config());
  o.makespan = cluster.makespan_us();
  for (const auto& events : cluster.trace().per_rank)
    o.digests.push_back(trace::sequence_digest(events));
  return o;
}

// acceptance: switching the flight recorder on perturbs nothing -- makespan,
// Gflops, and every per-rank trace digest stay bitwise identical at thread
// budgets {1, 2, ranks} (one rank worker, then one per rank), with message
// faults in play
TEST(TelemetryPurity, ModeledSolveUnperturbedAcrossSchedulersAndBudgets) {
  sim::FaultConfig faults;
  faults.seed = 20260808;
  faults.drop_rate = 0.02;
  faults.delay_rate = 0.05;

  exec::set_thread_budget(1);
  const ModeledObs off = run_modeled(4, false, faults);
  ASSERT_TRUE(off.result.fits);
  EXPECT_FALSE(off.result.telemetry.enabled);

  for (const int budget : {1, 2, 4}) {
    exec::set_thread_budget(budget);
    const ModeledObs on = run_modeled(4, true, faults);
    const std::string label = "budget " + std::to_string(budget);
    EXPECT_EQ(off.result.time_us, on.result.time_us) << label;
    EXPECT_EQ(off.result.effective_gflops, on.result.effective_gflops) << label;
    EXPECT_EQ(off.makespan, on.makespan) << label;
    ASSERT_EQ(off.digests.size(), on.digests.size()) << label;
    for (std::size_t r = 0; r < off.digests.size(); ++r)
      EXPECT_EQ(off.digests[r], on.digests[r]) << label << " rank " << r;
    // telemetry itself is deterministic: the report replays bitwise
    EXPECT_TRUE(on.result.telemetry.enabled) << label;
    EXPECT_EQ(on.result.telemetry.iterations(), 25) << label;
    EXPECT_TRUE(on.result.telemetry.ledger_symmetric) << label;
  }
  exec::set_thread_budget(0);
}

// a clean symmetric modeled run keeps every monitor silent (the anomaly
// thresholds are calibrated to the repo's own baselines)
TEST(TelemetryModeled, CleanRunMonitorsStaySilent) {
  const ModeledObs o = run_modeled(4, true);
  ASSERT_TRUE(o.result.fits);
  const TelemetryReport& t = o.result.telemetry;
  ASSERT_TRUE(t.enabled);
  EXPECT_EQ(t.anomaly_count(), 0) << "clean run fired a monitor";
  EXPECT_EQ(t.iterations(), 25);
  EXPECT_TRUE(t.ledger_symmetric);
  // timelines come from the recorded trace; a symmetric run is balanced
  ASSERT_EQ(t.timelines.size(), 4u);
  EXPECT_GT(t.load_imbalance, 0.0);
  EXPECT_LT(t.load_imbalance, 1.5);
  EXPECT_GT(t.registry.gauges().at("busy_frac.max"), 0.0);
  EXPECT_GE(t.registry.counters().at("iterations"), 4 * 25l);
  // modeled ledgers carry the cadence but no residuals
  EXPECT_EQ(t.ledger[0].r2, -1.0);
  EXPECT_EQ(t.ledger[0].regime, 'h');
}

// a seeded drop storm drives the retry machinery hard enough to trip the
// retry-storm monitor, and the findings land in the trace as instants
TEST(TelemetryModeled, SeededRetryStormFiresMonitor) {
  sim::FaultConfig faults;
  faults.seed = 777;
  faults.drop_rate = 0.08; // heavy but deliverable within the retry budget
  telemetry::MonitorConfig mon;
  mon.retry_spike = 0; // any retransmission between boundaries fires
  const ModeledObs o = run_modeled(4, true, faults, mon);
  ASSERT_TRUE(o.result.fits);
  const TelemetryReport& t = o.result.telemetry;
  ASSERT_GT(t.anomaly_count(), 0) << "seeded retry storm stayed invisible";
  bool saw_storm = false;
  for (const telemetry::Anomaly& a : t.anomalies)
    if (a.kind == AnomalyKind::RetryStorm) saw_storm = true;
  EXPECT_TRUE(saw_storm);
  EXPECT_GT(t.registry.counters().at("anomaly.retry_storm"), 0);
}

// the JSONL export mirrors the trace-export contract: spec switch or the
// QUDA_SIM_TELEMETRY environment variable, non-clobbering suffixes, one
// provenance line first
TEST(TelemetryModeled, JsonlExportViaSpecAndEnv) {
  auto slurp = [](const std::string& base) {
    for (int n = 0; n < 8; ++n) {
      const std::string path = n == 0 ? base : base + "." + std::to_string(n);
      std::ifstream in(path);
      if (!in) continue;
      std::ostringstream ss;
      ss << in.rdbuf();
      std::remove(path.c_str());
      return ss.str();
    }
    return std::string{};
  };

  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(2);
  spec.trace.enabled = true;
  spec.telemetry.enabled = true;
  spec.telemetry.path = "telemetry_spec_test.jsonl";
  sim::VirtualCluster cluster(spec);
  (void)parallel::run_modeled_solver(cluster, modeled_config());
  const std::string via_spec = slurp("telemetry_spec_test.jsonl");
  ASSERT_FALSE(via_spec.empty());
  EXPECT_EQ(via_spec.find("{\"type\": \"provenance\""), 0u)
      << "provenance must be the first line";
  EXPECT_NE(via_spec.find("\"type\": \"run\""), std::string::npos);
  EXPECT_NE(via_spec.find("\"type\": \"iteration\""), std::string::npos);
  EXPECT_NE(via_spec.find("\"type\": \"timeline\""), std::string::npos);
  EXPECT_NE(via_spec.find("\"ledger_symmetric\": true"), std::string::npos);

  // env-only run: enabling and the path both come from QUDA_SIM_TELEMETRY
  ::setenv("QUDA_SIM_TELEMETRY", "telemetry_env_test.jsonl", 1);
  sim::ClusterSpec env_spec = sim::ClusterSpec::jlab_9g(2);
  sim::VirtualCluster env_cluster(env_spec);
  (void)parallel::run_modeled_solver(env_cluster, modeled_config());
  ::unsetenv("QUDA_SIM_TELEMETRY");
  const std::string via_env = slurp("telemetry_env_test.jsonl");
  ASSERT_FALSE(via_env.empty());
  EXPECT_NE(via_env.find("\"type\": \"run\""), std::string::npos);
  // untraced run: no utilization timelines, but the ledger still lands
  EXPECT_EQ(via_env.find("\"type\": \"timeline\""), std::string::npos);
  EXPECT_NE(via_env.find("\"type\": \"iteration\""), std::string::npos);
}

TEST(TelemetryModeled, UnwritableJsonlPathRaisesAfterTheRun) {
  // a JSONL path inside a missing directory fails the run loudly, naming
  // the path -- but only once the in-memory report is stored
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(2);
  spec.telemetry.enabled = true;
  spec.telemetry.path = "no_such_dir/telemetry_unwritable.jsonl";
  sim::VirtualCluster cluster(spec);
  try {
    (void)parallel::run_modeled_solver(cluster, modeled_config());
    FAIL() << "an unwritable telemetry export must raise";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(spec.telemetry.path), std::string::npos) << e.what();
  }
  EXPECT_TRUE(cluster.telemetry().enabled);
  EXPECT_GT(cluster.telemetry().iterations(), 0) << "the report must survive the export error";
}

// --- real-mode integration (labeled slow in CMake) ---------------------------

struct RealFixture {
  Geometry g{LatticeDims{4, 4, 4, 8}};
  HostGaugeField u;
  HostSpinorField b;
  InvertParams params;

  RealFixture() : u(g), b(g) {
    make_weak_field_gauge(u, 0.2, 9000);
    make_random_spinor(b, 9001);
    params.mass = 0.1;
    params.csw = 1.0;
    params.precision = Precision::Single;
    params.sloppy = Precision::Half;
    params.tol = 1e-6;
    params.delta = 1e-1;
    params.max_iter = 2000;
    params.checkpoint_interval = 1;
  }
};

// a zero source converges before the first Krylov iteration; the ledger
// must degrade to empty instead of inventing a boundary
TEST(TelemetryReal, ZeroIterationSolveYieldsEmptyLedger) {
  RealFixture f;
  f.params.sloppy.reset(); // uniform single precision
  HostSpinorField zero_b(f.g), x(f.g);
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(1);
  spec.telemetry.enabled = true;
  const InvertResult r = invert_multi_gpu(spec, f.u, zero_b, x, f.params);
  ASSERT_TRUE(r.stats.converged);
  EXPECT_EQ(r.stats.iterations, 0);
  ASSERT_TRUE(r.telemetry.enabled);
  EXPECT_EQ(r.telemetry.iterations(), 0);
  EXPECT_TRUE(r.telemetry.ledger_symmetric);
  EXPECT_EQ(r.telemetry.anomaly_count(), 0);
}

// an unreachable tolerance stagnates at the precision floor; the residual
// ledger sees the plateau and the stagnation monitor names it
TEST(TelemetryReal, StagnatingSolveFiresStagnationMonitor) {
  RealFixture f;
  // mixed single/half with an unreachable tolerance: reliable updates keep
  // resetting the iterated residual to the floored true residual, so the
  // boundary stream plateaus (a uniform-precision recursive residual would
  // keep decaying forever and never show the stall)
  f.params.tol = 1e-30;
  f.params.max_iter = 200;
  f.params.checkpoint_interval = 0;
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(1);
  spec.telemetry.enabled = true;
  // the solver's own guard quits after 3 stagnant reliable updates, so the
  // plateau is short: a 6-boundary window fits inside it
  spec.telemetry.monitors.stagnation_window = 6;
  HostSpinorField x(f.g);
  const InvertResult r = invert_multi_gpu(spec, f.u, f.b, x, f.params);
  EXPECT_FALSE(r.stats.converged);
  ASSERT_TRUE(r.telemetry.enabled);
  bool saw_stagnation = false;
  for (const telemetry::Anomaly& a : r.telemetry.anomalies)
    if (a.kind == AnomalyKind::ResidualStagnation) saw_stagnation = true;
  EXPECT_TRUE(saw_stagnation) << "plateaued solve fired no stagnation anomaly ("
                              << r.telemetry.anomaly_count() << " anomalies)";
  // the ledger carries the convergence history the monitor consumed
  EXPECT_EQ(r.telemetry.iterations(), r.stats.iterations);
  EXPECT_GT(r.telemetry.ledger.back().iter, 0);
  EXPECT_EQ(r.telemetry.ledger.back().regime, 'h') << "mixed boundaries are sloppy";
}

// everything observable about one real crashy run
struct RealObs {
  InvertResult r;
  HostSpinorField x;
  std::string trace_json;
};

// strip the lines telemetry is *allowed* to change in a trace export: the
// provenance stamp (names the thread budget) and the anomaly instants
// (monitor findings, excluded from digests by design)
std::string strip_observational_lines(const std::string& text) {
  std::string out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    if (line.find("\"provenance\"") == std::string::npos &&
        line.find("\"name\": \"anomaly\"") == std::string::npos) {
      out += line;
      if (eol < text.size()) out += '\n';
    }
    pos = eol + 1;
  }
  return out;
}

std::string slurp_export(const std::string& base) {
  for (int n = 0; n < 64; ++n) {
    const std::string path = n == 0 ? base : base + "." + std::to_string(n);
    std::ifstream in(path, std::ios::binary);
    if (!in) continue;
    std::ostringstream ss;
    ss << in.rdbuf();
    std::remove(path.c_str());
    return strip_observational_lines(ss.str());
  }
  return "";
}

// acceptance: the purity contract holds on the hardest path -- a seeded
// mid-solve rank crash recovered via checkpoint/restart -- at budgets
// {1, 2, ranks}; and the respawned rank's recorder stays in lockstep
// (symmetric per-rank ledger and recovery counts)
TEST(TelemetryReal, CrashRecoveryPureAndDeterministic) {
  RealFixture f;

  HostSpinorField x_clean(f.g);
  const InvertResult clean = invert_multi_gpu(sim::ClusterSpec::jlab_9g(4), f.u, f.b,
                                              x_clean, f.params);
  ASSERT_TRUE(clean.stats.converged) << clean.stats.summary();

  int run_index = 0;
  auto run_crashy = [&](int budget, bool telemetry_on) {
    exec::set_thread_budget(budget);
    sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(4);
    spec.faults.seed = 4242;
    spec.faults.crash_rate = 0.35;
    spec.faults.crash_window_us = 0.5 * clean.simulated_time_us;
    spec.trace.enabled = true;
    const std::string trace_path =
        "telemetry_crashy_" + std::to_string(run_index++) + ".trace.json";
    spec.trace.path = trace_path;
    spec.telemetry.enabled = telemetry_on;
    RealObs o{InvertResult{}, HostSpinorField(f.g), ""};
    o.r = invert_multi_gpu(spec, f.u, f.b, o.x, f.params);
    o.trace_json = slurp_export(trace_path);
    return o;
  };

  const RealObs off = run_crashy(1, false);
  ASSERT_GT(off.r.faults.recovery.crashes, 0) << "the crash injection must fire";
  ASSERT_TRUE(off.r.stats.converged) << off.r.stats.summary();
  ASSERT_FALSE(off.trace_json.empty());

  const RealObs* base_on = nullptr;
  RealObs first_on;
  for (const int budget : {1, 2, 4}) {
    const RealObs on = run_crashy(budget, true);
    const std::string label = "budget " + std::to_string(budget);

    // purity vs. the telemetry-off run: bitwise on every observable
    EXPECT_EQ(off.r.simulated_time_us, on.r.simulated_time_us) << label;
    EXPECT_EQ(off.r.stats.true_residual, on.r.stats.true_residual) << label;
    EXPECT_EQ(off.r.faults.recovery.failures, on.r.faults.recovery.failures) << label;
    EXPECT_EQ(off.r.faults.recovery.checkpoint_digest,
              on.r.faults.recovery.checkpoint_digest) << label;
    EXPECT_EQ(off.trace_json, on.trace_json)
        << label << ": trace (minus provenance/anomaly lines) must be bit-identical";
    for (std::int64_t i = 0; i < f.g.volume(); ++i)
      ASSERT_EQ(norm2(off.x[i] - on.x[i]), 0.0) << label << " site " << i;

    // the flight recorder stays in lockstep through death and respawn
    const TelemetryReport& t = on.r.telemetry;
    ASSERT_TRUE(t.enabled) << label;
    EXPECT_TRUE(t.ledger_symmetric)
        << label << ": respawned rank recorded a different boundary count";
    const long epochs = t.registry.counters().at("recovery_epochs");
    EXPECT_GT(epochs, 0) << label;
    EXPECT_EQ(epochs % 4, 0)
        << label << ": recovery rendezvous must be recorded by every rank";

    // telemetry determinism: every enabled run reports the same story
    if (base_on == nullptr) {
      first_on = on;
      base_on = &first_on;
      continue;
    }
    EXPECT_EQ(base_on->r.telemetry.iterations(), t.iterations()) << label;
    EXPECT_EQ(base_on->r.telemetry.anomaly_count(), t.anomaly_count()) << label;
    EXPECT_EQ(base_on->r.telemetry.load_imbalance, t.load_imbalance) << label;
    EXPECT_EQ(base_on->r.telemetry.registry.counters(), t.registry.counters()) << label;
    ASSERT_EQ(base_on->r.telemetry.ledger.size(), t.ledger.size()) << label;
    for (std::size_t i = 0; i < t.ledger.size(); ++i) {
      EXPECT_EQ(base_on->r.telemetry.ledger[i].iter, t.ledger[i].iter) << label;
      EXPECT_EQ(base_on->r.telemetry.ledger[i].epoch, t.ledger[i].epoch) << label;
      EXPECT_EQ(base_on->r.telemetry.ledger[i].r2, t.ledger[i].r2) << label;
      EXPECT_EQ(base_on->r.telemetry.ledger[i].flags, t.ledger[i].flags) << label;
    }
  }
  exec::set_thread_budget(0);
}

// --- trace instants and ledger mark the same iterations -----------------------

// rank 0's Iteration instants, in trace order
std::vector<long> iteration_instants(const trace::TraceReport& trace) {
  std::vector<long> iters;
  for (const trace::Event& e : trace.per_rank.at(0))
    if (e.kind == trace::Kind::Iteration) iters.push_back(static_cast<long>(e.seq));
  return iters;
}

std::vector<long> ledger_iterations(const TelemetryReport& t) {
  std::vector<long> iters;
  for (const telemetry::IterationRecord& rec : t.ledger) iters.push_back(rec.iter);
  return iters;
}

enum class RealSolver { CG, BiCGstab, MixedBiCGstab };

// a real 2-rank single-precision solve (half sloppy for the mixed solver)
// with trace and telemetry on; every solver marks each iteration on both
void expect_instants_match_ledger(RealSolver solver) {
  const Geometry g(LatticeDims{4, 4, 4, 8});
  HostGaugeField u(g);
  make_weak_field_gauge(u, 0.2, 9100);
  HostCloverField t = make_clover_term(u, 1.0);
  add_diag(t, 4.1);
  const HostCloverField tinv = invert_clover(t);
  HostSpinorField b(g);
  make_random_spinor(b, 9101);

  const comm::GridTopology topo = comm::GridTopology::time_only(2);
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(2);
  spec.trace.enabled = true;
  spec.telemetry.enabled = true;
  sim::VirtualCluster cluster(spec);
  cluster.run([&](sim::RankContext& ctx) {
    comm::QmpGrid grid(ctx, topo);
    const int rank = ctx.rank();
    const Geometry lg = core::local_geometry(g, topo);
    const HostGaugeField lu = core::slice_gauge(u, topo, rank);
    const HostCloverField lt = core::slice_clover(t, topo, rank);
    const HostCloverField ltinv = core::slice_clover(tinv, topo, rank);
    GaugeFieldS u_s = upload_gauge<PrecSingle>(lu, Reconstruct::Twelve);
    GaugeFieldH u_h = upload_gauge<PrecHalf>(lu, Reconstruct::Twelve);
    parallel::exchange_gauge_ghost<PrecSingle>(grid, lg, &u_s);
    parallel::exchange_gauge_ghost<PrecHalf>(grid, lg, &u_h);
    const CloverFieldS t_s = upload_clover<PrecSingle>(lt);
    const CloverFieldS tinv_s = upload_clover<PrecSingle>(ltinv);
    const CloverFieldH t_h = upload_clover<PrecHalf>(lt);
    const CloverFieldH tinv_h = upload_clover<PrecHalf>(ltinv);
    const TimeBoundary bc = TimeBoundary::Antiperiodic;
    parallel::ParallelWilsonCloverOp<PrecSingle> op_s(grid, lg, u_s, t_s, tinv_s, bc,
                                                      CommPolicy::Overlap);
    parallel::ParallelWilsonCloverOp<PrecHalf> op_h(grid, lg, u_h, t_h, tinv_h, bc,
                                                    CommPolicy::Overlap);

    const PartitionMask mask = topo.partition_mask();
    const SpinorFieldS b_e =
        upload_spinor<PrecSingle>(core::slice_spinor(b, topo, rank), Parity::Even, mask);
    SpinorFieldS x(lg, mask);
    SolverParams sp;
    sp.tol = 1e-5;
    sp.max_iter = 500;
    SolverStats st;
    switch (solver) {
      case RealSolver::CG: st = solve_cgnr(op_s, x, b_e, sp); break;
      case RealSolver::BiCGstab: st = solve_bicgstab(op_s, x, b_e, sp); break;
      case RealSolver::MixedBiCGstab: st = solve_bicgstab_reliable(op_s, op_h, x, b_e, sp); break;
    }
    EXPECT_TRUE(st.converged) << st.summary();
  });
  const std::vector<long> ledger = ledger_iterations(cluster.telemetry());
  EXPECT_FALSE(ledger.empty());
  EXPECT_EQ(iteration_instants(cluster.trace()), ledger);
}

TEST(IterationMarks, CgInstantsMatchLedger) { expect_instants_match_ledger(RealSolver::CG); }

TEST(IterationMarks, BicgstabInstantsMatchLedger) {
  expect_instants_match_ledger(RealSolver::BiCGstab);
}

TEST(IterationMarks, MixedBicgstabInstantsMatchLedger) {
  expect_instants_match_ledger(RealSolver::MixedBiCGstab);
}

TEST(IterationMarks, ModeledSolverInstantsMatchLedger) {
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(2);
  spec.trace.enabled = true;
  spec.telemetry.enabled = true;
  sim::VirtualCluster cluster(spec);
  const parallel::ModeledSolverResult r = parallel::run_modeled_solver(cluster, modeled_config());
  EXPECT_EQ(ledger_iterations(r.telemetry).size(), 25u);
  EXPECT_EQ(iteration_instants(cluster.trace()), ledger_iterations(r.telemetry));
}

} // namespace
} // namespace quda
