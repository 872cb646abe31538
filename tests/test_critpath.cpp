// Critical-path analyzer tests (src/trace/critpath, src/trace/attribution).
//
// The analyzer's contract is exactness, so the tests assert bitwise and
// near-machine-precision identities, not tolerances-of-convenience:
//   * the backward walk's path length equals the end-to-end simulated time
//     EXACTLY (the walk uses only recorded doubles and recomputes every
//     cross-rank arrival with the same expression the simulator used);
//   * the typed segments tile [0, makespan], so the attribution categories
//     sum to the path length;
//   * the forward replay with unedited weights reproduces the makespan
//     bitwise, and every monotone what-if projection is bracketed by the
//     compute bound below and the measured time above;
//   * a faulted run's whole summary (category split, projections, walk
//     shape) is pinned bitwise, so a gap charged to the wrong step fails;
//   * the paper's qualitative structure shows up in the attribution:
//     NoOverlap exposes far more communication than Overlap at fig5 sizes.

#include "crit_pins.h"

#include "core/quda_api.h"
#include "dirac/gauge_init.h"
#include "parallel/modeled_solver.h"
#include "trace/attribution.h"
#include "trace/critpath.h"
#include "trace/trace_export.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace quda {
namespace {

using parallel::ModeledSolverConfig;
using parallel::ModeledSolverResult;
using trace::Kind;

struct AnalyzedRun {
  ModeledSolverResult result;
  trace::CritSummary crit; // re-derived from the raw report (independent of
                           // the copy run_modeled_solver attaches)
  trace::TraceReport report;
  double makespan_us = 0;
};

AnalyzedRun run_analyzed(int ranks, const ModeledSolverConfig& cfg,
                         const sim::FaultConfig& faults = {}) {
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(ranks);
  spec.trace.enabled = true;
  spec.faults = faults;
  sim::VirtualCluster cluster(spec);
  AnalyzedRun a;
  a.result = parallel::run_modeled_solver(cluster, cfg);
  a.crit = trace::analyze_solve(cluster.trace(),
                                trace::ModelConfig{spec.device.dual_copy_engine});
  a.report = cluster.trace();
  a.makespan_us = cluster.makespan_us();
  return a;
}

// fig5(b)-sized local problem: global 24^3 x 32 over 2 GPUs
ModeledSolverConfig fig5_config(CommPolicy policy, int iterations = 30) {
  ModeledSolverConfig cfg;
  cfg.local = LatticeDims{24, 24, 24, 16};
  cfg.outer = Precision::Single;
  cfg.sloppy = Precision::Half;
  cfg.policy = policy;
  cfg.iterations = iterations;
  cfg.reliable_interval = 10;
  return cfg;
}

double cat_sum(const trace::CritSummary& c) {
  double s = 0;
  for (int i = 0; i < trace::kNumPathCats; ++i) s += c.cat_us[i];
  return s;
}

// --- exactness invariants on real solves -------------------------------------

class CritPathPolicies : public ::testing::TestWithParam<CommPolicy> {};

TEST_P(CritPathPolicies, PathLengthEqualsEndToEndTimeExactly) {
  const AnalyzedRun a = run_analyzed(2, fig5_config(GetParam()));
  ASSERT_TRUE(a.result.fits);
  ASSERT_TRUE(a.crit.valid) << a.crit.error;
  // bitwise: the walk closed at t == 0 and every segment endpoint is a
  // recorded double, so no epsilon is needed or tolerated
  EXPECT_EQ(a.crit.path_us, a.result.time_us);
  EXPECT_EQ(a.crit.makespan_us, a.makespan_us);
  EXPECT_GE(a.crit.critical_rank, 0);
  EXPECT_LT(a.crit.critical_rank, 2);
  EXPECT_GT(a.crit.segments, 0u);
}

TEST_P(CritPathPolicies, CategoriesTileTheCriticalPath) {
  const AnalyzedRun a = run_analyzed(2, fig5_config(GetParam()));
  ASSERT_TRUE(a.crit.valid) << a.crit.error;
  // the sum re-associates many recorded doubles, so allow rounding only
  EXPECT_NEAR(cat_sum(a.crit), a.crit.path_us, 1e-9 * a.crit.path_us);
  for (int i = 0; i < trace::kNumPathCats; ++i)
    EXPECT_GE(a.crit.cat_us[i], 0.0) << trace::path_cat_name(static_cast<trace::PathCat>(i));
}

TEST_P(CritPathPolicies, WhatIfProjectionsAreBracketed) {
  const AnalyzedRun a = run_analyzed(2, fig5_config(GetParam()));
  ASSERT_TRUE(a.crit.valid) << a.crit.error;
  // monotone max-plus: removing edge weight can only shrink the makespan,
  // and kernel time per stream survives every projection
  EXPECT_GT(a.crit.compute_bound_us, 0.0);
  EXPECT_LE(a.crit.compute_bound_us, a.crit.whatif_zero_latency_us);
  EXPECT_LE(a.crit.whatif_zero_latency_us, a.crit.makespan_us);
  EXPECT_LE(a.crit.whatif_free_pcie_us, a.crit.makespan_us);
  EXPECT_LE(a.crit.whatif_infinite_overlap_us, a.crit.makespan_us);
  // identity replay re-derives the recorded schedule bitwise: it applies
  // the simulator's own max/+ expressions to the recorded doubles
  EXPECT_EQ(a.crit.replay_identity_us, a.crit.makespan_us);
}

TEST_P(CritPathPolicies, AnalysisIsDeterministicAcrossRuns) {
  const AnalyzedRun a = run_analyzed(2, fig5_config(GetParam(), /*iterations=*/10));
  const AnalyzedRun b = run_analyzed(2, fig5_config(GetParam(), /*iterations=*/10));
  ASSERT_TRUE(a.crit.valid) << a.crit.error;
  ASSERT_TRUE(b.crit.valid) << b.crit.error;
  EXPECT_EQ(a.crit.path_us, b.crit.path_us);
  EXPECT_EQ(a.crit.critical_rank, b.crit.critical_rank);
  EXPECT_EQ(a.crit.segments, b.crit.segments);
  EXPECT_EQ(a.crit.cross_rank_jumps, b.crit.cross_rank_jumps);
  for (int i = 0; i < trace::kNumPathCats; ++i) EXPECT_EQ(a.crit.cat_us[i], b.crit.cat_us[i]);
}

INSTANTIATE_TEST_SUITE_P(BothPolicies, CritPathPolicies,
                         ::testing::Values(CommPolicy::Overlap, CommPolicy::NoOverlap),
                         [](const ::testing::TestParamInfo<CommPolicy>& info) {
                           return info.param == CommPolicy::Overlap ? "Overlap" : "NoOverlap";
                         });

// --- the paper's structure in the attribution --------------------------------

TEST(CritPathAttribution, NoOverlapExposesMoreCommThanOverlap) {
  const AnalyzedRun no = run_analyzed(2, fig5_config(CommPolicy::NoOverlap));
  const AnalyzedRun ov = run_analyzed(2, fig5_config(CommPolicy::Overlap));
  ASSERT_TRUE(no.crit.valid) << no.crit.error;
  ASSERT_TRUE(ov.crit.valid) << ov.crit.error;
  // the whole point of the overlapped pipeline: communication leaves the
  // critical path.  At fig5(b) sizes the gap is large, not marginal.
  EXPECT_GT(no.crit.exposed_comm_us(), 2.0 * ov.crit.exposed_comm_us());
  // both runs are compute-dominated at this local volume
  EXPECT_GT(no.crit.interior_us() + no.crit.boundary_us(), no.crit.exposed_comm_us());
}

TEST(CritPathAttribution, SoloRankHasNoExposedCommAndNoRankHops) {
  ModeledSolverConfig cfg = fig5_config(CommPolicy::Overlap);
  cfg.local = LatticeDims{24, 24, 24, 32};
  const AnalyzedRun a = run_analyzed(1, cfg);
  ASSERT_TRUE(a.result.fits);
  ASSERT_TRUE(a.crit.valid) << a.crit.error;
  EXPECT_EQ(a.crit.path_us, a.result.time_us);
  EXPECT_EQ(a.crit.cross_rank_jumps, 0);
  EXPECT_EQ(a.crit.critical_rank, 0);
  // a 1-rank solve has no halo messages to expose (the boundary kernels
  // still run: periodic wrap within the rank)
  EXPECT_DOUBLE_EQ(a.crit.exposed_comm_us(), 0.0);
}

TEST(CritPathAttribution, WalkStaysExactUnderFaultInjection) {
  // retransmissions, checksum failures and stalls reshape the DAG but every
  // edge is still recorded, so the walk must still close at time zero
  sim::FaultConfig faults;
  faults.seed = 7;
  faults.drop_rate = 2e-3;
  faults.corrupt_rate = 2e-3;
  ModeledSolverConfig cfg = fig5_config(CommPolicy::Overlap);
  cfg.local = LatticeDims{8, 8, 8, 16};
  cfg.iterations = 60;
  cfg.retry.checksums = true;
  cfg.retry.max_retries = 6;
  const AnalyzedRun a = run_analyzed(4, cfg, faults);
  ASSERT_TRUE(a.crit.valid) << a.crit.error;
  EXPECT_GT(a.result.faults.retries, 0) << "faults must actually fire";
  EXPECT_EQ(a.crit.path_us, a.result.time_us);
  EXPECT_EQ(a.crit.replay_identity_us, a.crit.makespan_us);
  EXPECT_NEAR(cat_sum(a.crit), a.crit.path_us, 1e-9 * a.crit.path_us);
}

TEST(CritPathAttribution, FaultedNoOverlapSummaryIsPinned) {
  // every message and device fault at once on 8 ranks: the trace carries
  // drop tombstones, checksum failures with retransmissions, stalls,
  // degraded links and SDC rollbacks, and the whole summary is pinned
  sim::FaultConfig faults;
  faults.seed = 11;
  faults.drop_rate = 4e-3;
  faults.corrupt_rate = 4e-3;
  faults.stall_rate = 4e-3;
  faults.delay_rate = 1e-2;
  faults.device_flip_rate = 2e-2;
  ModeledSolverConfig cfg = fig5_config(CommPolicy::NoOverlap);
  cfg.local = LatticeDims{8, 8, 8, 8};
  cfg.iterations = 40;
  cfg.retry.checksums = true;
  cfg.retry.max_retries = 6;
  const AnalyzedRun a = run_analyzed(8, cfg, faults);
  ASSERT_TRUE(a.crit.valid) << a.crit.error;
  EXPECT_GT(a.result.faults.drops, 0);
  EXPECT_GT(a.result.faults.checksum_errors, 0);
  EXPECT_GT(a.result.faults.retries, 0);
  EXPECT_GT(a.result.faults.stalls, 0);
  EXPECT_GT(a.result.faults.delays, 0);
  EXPECT_GT(a.result.rollbacks, 0);
  EXPECT_EQ(a.crit.path_us, a.result.time_us);
  const trace::CritSummary pinned{
      .valid = true,
      .error = "",
      .makespan_us = 0x1.639eb95b8f96bp+17,
      .path_us = 0x1.639eb95b8f96bp+17,
      .cat_us = {0x1.1b6572b4c35c4p+14, 0x0p+0, 0x1.07b1c74b0cb23p+15, 0x1.e1907f3134b94p+16,
                 0x1.afab333333bc5p+12, 0x0p+0, 0x0p+0},
      .critical_rank = 0,
      .cross_rank_jumps = 846,
      .segments = 20432,
      .compute_bound_us = 0x1.1b6572b4c35cp+14,
      .replay_identity_us = 0x1.639eb95b8f96bp+17,
      .whatif_zero_latency_us = 0x1.4c59d369ab572p+17,
      .whatif_free_pcie_us = 0x1.d728c0dfaf5efp+15,
      .whatif_infinite_overlap_us = 0x1.e191326467f3fp+16,
  };
  expect_summary_pinned(a.crit, pinned);
  // the Chrome export of the same run, byte for byte (bar provenance)
  std::istringstream json(trace::chrome_trace_json(a.report));
  EXPECT_EQ(export_digest(json), 0xe1903fbd1c90d843ull);
}

TEST(CritPathAttribution, SolverResultCarriesTheSameSummary) {
  // run_modeled_solver attaches the analysis; it must match a re-derivation
  // from the same report
  const AnalyzedRun a = run_analyzed(2, fig5_config(CommPolicy::Overlap, /*iterations=*/10));
  ASSERT_TRUE(a.result.traced);
  ASSERT_TRUE(a.result.critpath.valid) << a.result.critpath.error;
  EXPECT_EQ(a.result.critpath.path_us, a.crit.path_us);
  for (int i = 0; i < trace::kNumPathCats; ++i)
    EXPECT_EQ(a.result.critpath.cat_us[i], a.crit.cat_us[i]);
}

// --- degenerate inputs and rendering -----------------------------------------

TEST(CritPathDegenerate, EmptyReportIsInvalidWithError) {
  trace::TraceReport empty;
  const trace::CritSummary c = trace::analyze_solve(empty);
  EXPECT_FALSE(c.valid);
  EXPECT_FALSE(c.error.empty());
  EXPECT_EQ(c.path_us, 0.0);
  // the renderer must degrade gracefully, not crash or print a table of zeros
  const std::string table = trace::attribution_table(c);
  EXPECT_NE(table.find("unavailable"), std::string::npos);
}

TEST(CritPathDegenerate, UntracedRunYieldsInvalidSummary) {
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(2);
  sim::VirtualCluster cluster(spec);
  const ModeledSolverResult r =
      parallel::run_modeled_solver(cluster, fig5_config(CommPolicy::Overlap, 5));
  ASSERT_TRUE(r.fits);
  EXPECT_FALSE(r.traced);
  EXPECT_FALSE(r.critpath.valid);
}

TEST(CritPathDegenerate, AttributionTableNamesEveryCategory) {
  const AnalyzedRun a = run_analyzed(2, fig5_config(CommPolicy::Overlap, /*iterations=*/10));
  ASSERT_TRUE(a.crit.valid) << a.crit.error;
  const std::string table = trace::attribution_table(a.crit);
  ASSERT_FALSE(table.empty());
  for (int i = 0; i < trace::kNumPathCats; ++i)
    EXPECT_NE(table.find(trace::path_cat_name(static_cast<trace::PathCat>(i))),
              std::string::npos)
        << table;
  EXPECT_NE(table.find("what-if"), std::string::npos) << table;
}

// --- every model validation fires on the input it catches -------------------

// the n-th event of `kind` on `rank` (spanning: only spans with end > begin)
trace::Event& nth_event(trace::TraceReport& rep, int rank, trace::Kind kind, int n = 0,
                        bool spanning = false) {
  for (trace::Event& e : rep.per_rank[static_cast<std::size_t>(rank)])
    if (e.kind == kind && (!spanning || e.end_us > e.ts_us) && n-- == 0) return e;
  throw std::out_of_range(std::string("trace has no such ") + trace::info(kind).name);
}

TEST(CritPathValidation, EachCorruptedEdgeIsRejectedWithItsError) {
  // a small Overlap trace carries every modeled event kind: messages,
  // collectives, kernels, sync and async copies, stream waits and syncs
  ModeledSolverConfig cfg = fig5_config(CommPolicy::Overlap, /*iterations=*/2);
  cfg.local = LatticeDims{8, 8, 8, 8};
  cfg.reliable_interval = 1;
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(2);
  spec.trace.enabled = true;
  sim::VirtualCluster cluster(spec);
  ASSERT_TRUE(parallel::run_modeled_solver(cluster, cfg).fits);
  const trace::TraceReport clean = cluster.trace();
  ASSERT_TRUE(trace::analyze_solve(clean).valid);

  using Report = trace::TraceReport;
  struct Corruption {
    const char* error; // the analyzer's message for it
    std::function<void(Report&)> apply;
  };
  const std::vector<Corruption> cases = {
      // per-rank extraction
      {"host anchor regressed in time",
       [](Report& t) { nth_event(t, 0, Kind::Isend, 2).ts_us = 0; }},
      {"mpi_wait without a sender edge",
       [](Report& t) { nth_event(t, 0, Kind::MpiWait).dep_rank = -1; }},
      {"mpi_wait without a posted irecv",
       [](Report& t) { nth_event(t, 0, Kind::MpiWait).tag = 9999; }},
      {"mpi_wait ended before its recomputed arrival",
       [](Report& t) { nth_event(t, 0, Kind::MpiWait).edge_us = 1e9; }},
      {"mpi_wait sender is outside the run",
       [](Report& t) {
         trace::Event& w = nth_event(t, 0, Kind::MpiWait);
         w.dep_rank = 2;
         w.peer = 2;
       }},
      {"allreduce without a rendezvous edge",
       [](Report& t) { nth_event(t, 0, Kind::Allreduce).dep_rank = 2; }},
      {"sync copy without an issue anchor",
       [](Report& t) { nth_event(t, 0, Kind::MemcpyH2D).dep_ts_us = -1; }},
      {"sync copy start does not match its engine gate",
       [](Report& t) { nth_event(t, 0, Kind::MemcpyH2D).ts_us += 1; }},
      {"async copy without an issue anchor",
       [](Report& t) { nth_event(t, 0, Kind::MemcpyAsyncD2H).dep_ts_us = -1; }},
      {"async copy start does not match its gate",
       [](Report& t) { nth_event(t, 0, Kind::MemcpyAsyncD2H).ts_us += 1; }},
      {"kernel without an issue anchor",
       [](Report& t) { nth_event(t, 0, Kind::Blas).dep_ts_us = -1; }},
      {"kernel started before its stream gate",
       [](Report& t) {
         trace::Event& k = nth_event(t, 0, Kind::DslashInterior);
         k.ts_us = k.dep_ts_us - 1;
       }},
      {"blas names an invalid stream", [](Report& t) { nth_event(t, 0, Kind::Blas).track = -1; }},
      {"stream_wait source value mismatch",
       [](Report& t) { nth_event(t, 0, Kind::StreamWait).dep_ts_us += 1; }},
      {"stream_wait names an invalid stream",
       [](Report& t) { nth_event(t, 0, Kind::StreamWait).tag = -1; }},
      {"stream_sync end does not match the stream's last op",
       [](Report& t) { nth_event(t, 0, Kind::StreamSync, 0, true).end_us += 1; }},
      {"stream_sync names an invalid stream",
       [](Report& t) { nth_event(t, 0, Kind::StreamSync, 0, true).tag = -1; }},
      {"device_sync end does not match any device resource",
       [](Report& t) { nth_event(t, 0, Kind::DeviceSync, 0, true).end_us += 1; }},
      // cross-rank linking
      {"mpi_wait edge names a rank other than its channel peer",
       [](Report& t) { nth_event(t, 0, Kind::MpiWait).dep_rank = 0; }},
      {"mpi_wait without a matching isend on its channel",
       [](Report& t) {
         // move the first wait and the receive it consumes to a channel
         // nobody sends on
         trace::Event& w = nth_event(t, 0, Kind::MpiWait);
         for (trace::Event& e : t.per_rank[0])
           if (e.kind == Kind::Irecv && e.peer == w.peer && e.tag == w.tag) {
             e.tag = 9999;
             break;
           }
         w.tag = 9999;
       }},
      {"matched isend time differs from the recorded send edge",
       [](Report& t) { nth_event(t, 0, Kind::MpiWait).dep_ts_us -= 0.5; }},
      {"ranks disagree on the number of collectives",
       [](Report& t) {
         auto& events = t.per_rank[1];
         for (auto it = events.end(); it != events.begin();)
           if ((--it)->kind == Kind::Allreduce) {
             events.erase(it);
             break;
           }
       }},
      {"collective gate time differs from the gate rank's arrival",
       [](Report& t) { nth_event(t, 0, Kind::Allreduce).dep_ts_us += 0.5; }},
  };
  for (const Corruption& c : cases) {
    SCOPED_TRACE(c.error);
    Report bad = clean;
    c.apply(bad);
    const trace::CritSummary s = trace::analyze_solve(bad);
    EXPECT_FALSE(s.valid);
    EXPECT_NE(s.error.find(c.error), std::string::npos) << s.error;
  }
}

TEST(CritPathValidation, CyclicWaitsDeadlockTheReplay) {
  // each of two ranks waits for a message the other sends only afterwards,
  // all at t = 0 with zero flight time: every recorded edge checks out and
  // the backward walk closes, but no forward schedule exists
  trace::TraceReport rep;
  rep.enabled = true;
  rep.per_rank.resize(2);
  for (int r = 0; r < 2; ++r) {
    trace::Event e;
    e.peer = 1 - r;
    e.tag = 0;
    e.kind = trace::Kind::Irecv;
    rep.per_rank[static_cast<std::size_t>(r)].push_back(e);
    e.kind = trace::Kind::MpiWait;
    e.dep_rank = 1 - r;
    e.dep_ts_us = 0;
    rep.per_rank[static_cast<std::size_t>(r)].push_back(e);
    e.kind = trace::Kind::Isend;
    e.dep_rank = -1;
    e.dep_ts_us = -1;
    rep.per_rank[static_cast<std::size_t>(r)].push_back(e);
  }
  const trace::CritSummary s = trace::analyze_solve(rep);
  EXPECT_FALSE(s.valid);
  EXPECT_EQ(s.error, "replay deadlocked");
}

// --- full public-API run (Real execution mode) -------------------------------

TEST(CritPathApi, InvertAttributesItsFullTimeline) {
  // the analyzer must close over a complete invertQuda-style run -- setup,
  // reordering, mixed-precision solve, reliable updates -- not just the
  // modeled inner loop
  Geometry g{LatticeDims{4, 4, 4, 8}};
  HostGaugeField u(g);
  HostSpinorField b(g), x(g);
  make_weak_field_gauge(u, 0.2, 9000);
  make_random_spinor(b, 9001);
  InvertParams params;
  params.mass = 0.1;
  params.tol = 1e-6;
  params.precision = Precision::Single;
  params.max_iter = 500;

  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(2);
  spec.trace.enabled = true;
  const InvertResult r = invert_multi_gpu(spec, u, b, x, params);
  EXPECT_TRUE(r.stats.converged) << r.stats.summary();
  ASSERT_TRUE(r.traced);
  ASSERT_TRUE(r.critpath.valid) << r.critpath.error;
  // the attribution covers the whole timeline; simulated_time_us is the
  // solve window only (setup excluded), so the path strictly contains it
  EXPECT_EQ(r.critpath.path_us, r.critpath.makespan_us);
  EXPECT_GE(r.critpath.path_us, r.simulated_time_us);
  EXPECT_NEAR(cat_sum(r.critpath), r.critpath.path_us, 1e-9 * r.critpath.path_us);
  EXPECT_GT(r.critpath.compute_bound_us, 0.0);
  EXPECT_EQ(r.critpath.replay_identity_us, r.critpath.makespan_us);
  EXPECT_LE(r.critpath.whatif_zero_latency_us, r.critpath.makespan_us);
}

} // namespace
} // namespace quda
