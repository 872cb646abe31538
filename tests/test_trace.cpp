// Trace/metrics subsystem tests (src/trace): schema well-formedness of the
// recorded event streams, golden event-sequence digests pinned for small
// 2-rank solves (pipeline reordering fails loudly), property-based
// invariants across seeds and comm policies (span nesting, send/wait
// matching, overlap geometry, fault accounting), and exporter fidelity --
// a fig5-sized Overlap run exported through QUDA_SIM_TRACE whose Chrome
// JSON, re-parsed by hand, reproduces the overlap efficiency computed
// in-process to within 1%.

#include "parallel/modeled_solver.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "trace/trace_export.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace quda {
namespace {

using parallel::ModeledSolverConfig;
using parallel::ModeledSolverResult;
using trace::Event;

// the suite controls QUDA_SIM_TRACE itself (the acceptance test sets it);
// scrub any ambient value so every other traced run stays export-free
const bool g_env_cleared = [] {
  ::unsetenv("QUDA_SIM_TRACE");
  return true;
}();

// --- harness -----------------------------------------------------------------

ModeledSolverConfig small_config(CommPolicy policy) {
  ModeledSolverConfig cfg;
  cfg.local = LatticeDims{8, 8, 8, 16};
  cfg.outer = Precision::Single;
  cfg.sloppy = Precision::Half;
  cfg.policy = policy;
  cfg.iterations = 25;
  cfg.reliable_interval = 10;
  return cfg;
}

struct TracedRun {
  ModeledSolverResult result;
  trace::TraceReport report;
  double makespan_us = 0;
};

TracedRun run_traced(int ranks, const ModeledSolverConfig& cfg,
                     const sim::FaultConfig& faults = {}) {
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(ranks);
  spec.trace.enabled = true;
  spec.faults = faults;
  sim::VirtualCluster cluster(spec);
  TracedRun t;
  t.result = parallel::run_modeled_solver(cluster, cfg);
  t.report = cluster.trace();
  t.makespan_us = cluster.makespan_us();
  return t;
}

// --- interval helpers (independent of src/trace/metrics.cpp on purpose) ------

using Interval = std::pair<double, double>;

std::vector<Interval> interval_union(std::vector<Interval> v) {
  std::sort(v.begin(), v.end());
  std::vector<Interval> out;
  for (const Interval& iv : v) {
    if (!out.empty() && iv.first <= out.back().second)
      out.back().second = std::max(out.back().second, iv.second);
    else
      out.push_back(iv);
  }
  return out;
}

double total_length(const std::vector<Interval>& v) {
  double s = 0;
  for (const Interval& iv : v) s += iv.second - iv.first;
  return s;
}

double intersection_length(const std::vector<Interval>& a, const std::vector<Interval>& b) {
  double s = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].first, b[j].first);
    const double hi = std::min(a[i].second, b[j].second);
    if (hi > lo) s += hi - lo;
    if (a[i].second < b[j].second)
      ++i;
    else
      ++j;
  }
  return s;
}

// spans recorded on one track of one rank, as intervals
std::vector<Interval> spans_on(const std::vector<Event>& events, int track) {
  std::vector<Interval> out;
  for (const Event& e : events)
    if (!trace::info(e.kind).instant && e.track == track) out.emplace_back(e.ts_us, e.end_us);
  return out;
}

std::vector<Interval> spans_of(const std::vector<Event>& events, trace::Kind kind) {
  std::vector<Interval> out;
  for (const Event& e : events)
    if (e.kind == kind) out.emplace_back(e.ts_us, e.end_us);
  return out;
}

long count_of(const std::vector<Event>& events, trace::Kind kind) {
  long n = 0;
  for (const Event& e : events)
    if (e.kind == kind) ++n;
  return n;
}

// spans on one track must be disjoint or properly nested (stack check);
// shared endpoints are allowed
::testing::AssertionResult properly_nested(std::vector<Interval> spans) {
  constexpr double eps = 1e-6;
  // sort by begin ascending, longer span first on ties so parents precede
  std::sort(spans.begin(), spans.end(), [](const Interval& a, const Interval& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  });
  std::vector<double> stack; // open span end times
  for (const Interval& iv : spans) {
    while (!stack.empty() && stack.back() <= iv.first + eps) stack.pop_back();
    if (!stack.empty() && iv.second > stack.back() + eps)
      return ::testing::AssertionFailure()
             << "span [" << iv.first << ", " << iv.second << ") partially overlaps a span ending at "
             << stack.back();
    stack.push_back(iv.second);
  }
  return ::testing::AssertionSuccess();
}

// --- schema: the recorded streams are typed and well-formed ------------------

TEST(TraceSchema, TwoRankOverlapRunIsWellFormed) {
  const TracedRun t = run_traced(2, small_config(CommPolicy::Overlap));
  ASSERT_TRUE(t.report.enabled);
  ASSERT_EQ(t.report.per_rank.size(), 2u);
  ASSERT_GT(t.report.total_events(), 0u);

  const std::set<int> tracks = {0, 1, 2, trace::kTrackHost, trace::kTrackComm, trace::kTrackSolver};
  long collectives = 0;
  for (const auto& rank_events : t.report.per_rank) {
    ASSERT_FALSE(rank_events.empty());
    for (const Event& e : rank_events) {
      const trace::KindInfo& k = trace::info(e.kind);
      if (k.track == trace::kTrackStream) {
        EXPECT_GE(e.track, 0) << k.name << " must run on a device stream";
      } else {
        EXPECT_EQ(e.track, k.track) << k.name << " off its fixed track";
      }
      EXPECT_TRUE(tracks.count(e.track)) << k.name << " on unknown track " << e.track;
      EXPECT_GE(e.ts_us, 0.0) << k.name;
      EXPECT_GE(e.end_us, e.ts_us) << k.name;
      if (k.instant) { EXPECT_EQ(e.end_us, e.ts_us) << k.name; }
      if (k.cat == trace::Cat::Collective) ++collectives;
    }
  }
  EXPECT_GT(collectives, 0) << "modeled solve must record allreduce rendezvous";

  // the aggregated metrics see the same stream
  ASSERT_TRUE(t.result.traced);
  const trace::Metrics& m = t.result.metrics;
  EXPECT_EQ(m.events, static_cast<long>(t.report.total_events()));
  EXPECT_GT(m.messages, 0);
  EXPECT_GT(m.halo_bytes, 0);
  EXPECT_GT(m.comm_us, 0.0);
  EXPECT_GT(m.kernel_us, 0.0);
  EXPECT_TRUE(m.kernels.count("dslash_interior"));
  EXPECT_TRUE(m.kernels.count("dslash_boundary"));
  EXPECT_TRUE(m.kernels.count("blas"));
}

TEST(TraceSchema, DisabledTracingRecordsNothing) {
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(2);
  sim::VirtualCluster cluster(spec);
  const ModeledSolverResult r = parallel::run_modeled_solver(cluster, small_config(CommPolicy::Overlap));
  ASSERT_TRUE(r.fits);
  EXPECT_FALSE(r.traced);
  EXPECT_FALSE(cluster.trace().enabled);
  EXPECT_EQ(cluster.trace().total_events(), 0u);
}

// --- golden digests: the event pipeline's shape is pinned --------------------
//
// The digest hashes (name, cat, span/instant, track, bytes, peer, tag, seq)
// per event in order -- not timestamps -- so recalibrating the time model does
// not move it, but any reordering of the launch/copy/send pipeline does.
// If an intentional pipeline change lands, rerun and update the constants.

constexpr std::uint64_t kGoldenOverlap[2] = {0x7d42bf3dc6af0497ull, 0x22ebdb178b71f835ull};
constexpr std::uint64_t kGoldenNoOverlap[2] = {0xca70aa88b3e50087ull, 0xdb8a4fe5200d3a0dull};

TEST(TraceGolden, OverlapEventSequenceDigestsArePinned) {
  const TracedRun t = run_traced(2, small_config(CommPolicy::Overlap));
  ASSERT_EQ(t.report.per_rank.size(), 2u);
  for (int r = 0; r < 2; ++r) {
    const std::uint64_t d = trace::sequence_digest(t.report.per_rank[r]);
    EXPECT_EQ(d, kGoldenOverlap[r])
        << "rank " << r << " digest 0x" << std::hex << d << " (update the golden if intended)";
  }
}

TEST(TraceGolden, NoOverlapEventSequenceDigestsArePinned) {
  const TracedRun t = run_traced(2, small_config(CommPolicy::NoOverlap));
  ASSERT_EQ(t.report.per_rank.size(), 2u);
  for (int r = 0; r < 2; ++r) {
    const std::uint64_t d = trace::sequence_digest(t.report.per_rank[r]);
    EXPECT_EQ(d, kGoldenNoOverlap[r])
        << "rank " << r << " digest 0x" << std::hex << d << " (update the golden if intended)";
  }
}

TEST(TraceGolden, PoliciesProduceDistinctPipelines) {
  // the two comm policies must not hash to the same stream: a regression
  // that silently collapses Overlap into NoOverlap fails here
  const TracedRun a = run_traced(2, small_config(CommPolicy::Overlap));
  const TracedRun b = run_traced(2, small_config(CommPolicy::NoOverlap));
  EXPECT_NE(trace::sequence_digest(a.report.per_rank[0]),
            trace::sequence_digest(b.report.per_rank[0]));
}

TEST(TraceGolden, DigestAndTimingDeterministicAcrossRuns) {
  const TracedRun a = run_traced(2, small_config(CommPolicy::Overlap));
  const TracedRun b = run_traced(2, small_config(CommPolicy::Overlap));
  EXPECT_EQ(a.makespan_us, b.makespan_us);
  ASSERT_EQ(a.report.per_rank.size(), b.report.per_rank.size());
  for (std::size_t r = 0; r < a.report.per_rank.size(); ++r)
    EXPECT_EQ(trace::sequence_digest(a.report.per_rank[r]),
              trace::sequence_digest(b.report.per_rank[r]));
}

// --- digest unit semantics ----------------------------------------------------

// an event as RankTracer records it (an instant ends where it begins)
Event make_event(trace::Kind kind, int track, double b, double e, std::int64_t bytes = 0,
                 int peer = -1, int tag = -1, std::int64_t seq = -1) {
  return {.kind = kind,
          .track = static_cast<std::int16_t>(track),
          .tag = tag,
          .ts_us = b,
          .end_us = e,
          .bytes = bytes,
          .seq = seq,
          .peer = peer};
}

TEST(TraceDigest, TimestampsDoNotAffectTheDigest) {
  const std::vector<Event> a = {make_event(trace::Kind::Dslash, 0, 10, 20, 4096),
                                make_event(trace::Kind::Isend, -1, 15, 15, 512, 1, 7, 3)};
  std::vector<Event> b = a;
  b[0].ts_us = 1000;
  b[0].end_us = 1099;
  b[1].ts_us = 2000;
  EXPECT_EQ(trace::sequence_digest(a), trace::sequence_digest(b));
}

TEST(TraceDigest, StructuralFieldsDoAffectTheDigest) {
  const std::vector<Event> a = {make_event(trace::Kind::Dslash, 0, 10, 20, 4096),
                                make_event(trace::Kind::Isend, -1, 15, 15, 512, 1, 7, 3)};
  std::vector<Event> reordered = {a[1], a[0]};
  EXPECT_NE(trace::sequence_digest(a), trace::sequence_digest(reordered));

  std::vector<Event> renamed = a;
  renamed[0].kind = trace::Kind::Blas;
  EXPECT_NE(trace::sequence_digest(a), trace::sequence_digest(renamed));

  std::vector<Event> resized = a;
  resized[1].bytes = 1024;
  EXPECT_NE(trace::sequence_digest(a), trace::sequence_digest(resized));

  std::vector<Event> retracked = a;
  retracked[0].track = 1;
  EXPECT_NE(trace::sequence_digest(a), trace::sequence_digest(retracked));
}

// --- metrics unit semantics ---------------------------------------------------

TEST(TraceMetrics, SyntheticOverlapGeometry) {
  trace::TraceReport rep;
  rep.enabled = true;
  rep.per_rank.resize(1);
  auto& ev = rep.per_rank[0];
  ev.push_back(make_event(trace::Kind::HaloComm, trace::kTrackComm, 0, 10));
  ev.push_back(make_event(trace::Kind::Dslash, 0, 5, 15, 1 << 20));
  ev.push_back(make_event(trace::Kind::Isend, trace::kTrackHost, 1, 1, 4096, 1, 0, 0));
  ev.push_back(make_event(trace::Kind::Retry, trace::kTrackHost, 2, 2, 4096, 1, 0, 0));

  const trace::Metrics m = trace::compute_metrics(rep);
  EXPECT_EQ(m.events, 4);
  EXPECT_EQ(m.messages, 1);
  EXPECT_EQ(m.halo_bytes, 4096);
  EXPECT_EQ(m.retries, 1);
  EXPECT_DOUBLE_EQ(m.comm_us, 10.0);
  EXPECT_DOUBLE_EQ(m.overlapped_us, 5.0);
  EXPECT_DOUBLE_EQ(m.overlap_efficiency, 0.5);
  EXPECT_DOUBLE_EQ(m.kernel_us, 10.0);
  ASSERT_TRUE(m.kernels.count("dslash"));
  EXPECT_EQ(m.kernels.at("dslash").count, 1);
  EXPECT_DOUBLE_EQ(m.kernels.at("dslash").total_us, 10.0);
}

TEST(TraceMetrics, OverlappingWindowsAreUnionedBeforeIntersection) {
  trace::TraceReport rep;
  rep.enabled = true;
  rep.per_rank.resize(1);
  auto& ev = rep.per_rank[0];
  // two overlapping comm windows [0,10) + [5,20) union to 20us, fully
  // covered by one long kernel -> efficiency exactly 1, not 25/20
  ev.push_back(make_event(trace::Kind::HaloComm, trace::kTrackComm, 0, 10));
  ev.push_back(make_event(trace::Kind::HaloComm, trace::kTrackComm, 5, 20));
  ev.push_back(make_event(trace::Kind::Dslash, 1, 0, 30));
  const trace::Metrics m = trace::compute_metrics(rep);
  EXPECT_DOUBLE_EQ(m.comm_us, 20.0);
  EXPECT_DOUBLE_EQ(m.overlapped_us, 20.0);
  EXPECT_DOUBLE_EQ(m.overlap_efficiency, 1.0);
}

// --- metrics degenerate inputs ------------------------------------------------

TEST(TraceMetrics, EmptyKernelStatMeanIsZeroNotNan) {
  const trace::KernelStat empty{};
  EXPECT_EQ(empty.count, 0);
  EXPECT_DOUBLE_EQ(empty.mean_us(), 0.0);
}

TEST(TraceMetrics, EmptyReportYieldsAllZeroMetrics) {
  trace::TraceReport rep;
  rep.enabled = true;
  rep.per_rank.resize(2); // ranks that recorded nothing
  const trace::Metrics m = trace::compute_metrics(rep);
  EXPECT_EQ(m.events, 0);
  EXPECT_EQ(m.messages, 0);
  EXPECT_DOUBLE_EQ(m.comm_us, 0.0);
  EXPECT_DOUBLE_EQ(m.overlap_efficiency, 0.0) << "0/0 must not produce NaN";
  EXPECT_TRUE(m.kernels.empty());
}

TEST(TraceMetrics, ZeroLengthCommWindowsDoNotPoisonEfficiency) {
  trace::TraceReport rep;
  rep.enabled = true;
  rep.per_rank.resize(1);
  // a degenerate zero-duration comm window alongside a kernel: the union
  // must skip it and the efficiency ratio must stay finite
  rep.per_rank[0].push_back(make_event(trace::Kind::HaloComm, trace::kTrackComm, 5, 5));
  rep.per_rank[0].push_back(make_event(trace::Kind::Dslash, 0, 0, 10));
  const trace::Metrics m = trace::compute_metrics(rep);
  EXPECT_DOUBLE_EQ(m.comm_us, 0.0);
  EXPECT_DOUBLE_EQ(m.overlapped_us, 0.0);
  EXPECT_DOUBLE_EQ(m.overlap_efficiency, 0.0);
  EXPECT_DOUBLE_EQ(m.kernel_us, 10.0);
}

TEST(TraceMetrics, ZeroIterationSolveStaysFinite) {
  ModeledSolverConfig cfg = small_config(CommPolicy::Overlap);
  cfg.iterations = 0;
  const TracedRun t = run_traced(2, cfg);
  ASSERT_TRUE(t.result.fits);
  ASSERT_TRUE(t.result.traced);
  const trace::Metrics& m = t.result.metrics;
  EXPECT_TRUE(std::isfinite(m.overlap_efficiency));
  EXPECT_TRUE(std::isfinite(t.result.effective_gflops));
  EXPECT_GE(m.comm_us, 0.0);
  for (const auto& [name, stat] : m.kernels)
    EXPECT_TRUE(std::isfinite(stat.mean_us())) << name;
}

// --- properties across seeds and policies ------------------------------------

TEST(TraceProperties, SpansNestWithinEveryTrack) {
  // spans on one timeline must serialize or nest -- partial overlap means
  // two host-side phases claim the same simulated instant.  The comm track
  // is exempt: msg_flight spans of concurrent messages legitimately overlap.
  for (const CommPolicy policy : {CommPolicy::Overlap, CommPolicy::NoOverlap}) {
    for (const int ranks : {2, 4}) {
      const TracedRun t = run_traced(ranks, small_config(policy));
      for (std::size_t r = 0; r < t.report.per_rank.size(); ++r) {
        for (const int track : {0, 1, 2, trace::kTrackHost, trace::kTrackSolver}) {
          EXPECT_TRUE(properly_nested(spans_on(t.report.per_rank[r], track)))
              << "rank " << r << " track " << track << " policy "
              << (policy == CommPolicy::Overlap ? "Overlap" : "NoOverlap");
        }
      }
    }
  }
}

TEST(TraceProperties, DeliveredSendsMatchReceiverWaits) {
  // every delivered transport attempt (isend minus drop tombstones) must be
  // consumed by exactly one receiver-side mpi_wait carrying the same
  // modeled byte count, per (src, dst, tag) channel -- under fault
  // injection and retransmission too
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    for (const CommPolicy policy : {CommPolicy::Overlap, CommPolicy::NoOverlap}) {
      sim::FaultConfig faults;
      faults.seed = seed;
      faults.drop_rate = 2e-3;
      faults.corrupt_rate = 2e-3;
      ModeledSolverConfig cfg = small_config(policy);
      cfg.retry.checksums = true;
      cfg.retry.max_retries = 6;
      const TracedRun t = run_traced(4, cfg, faults);

      using Channel = std::tuple<int, int, int>; // src, dst, tag
      std::map<Channel, std::pair<long, long>> sent, waited; // count, bytes
      for (std::size_t r = 0; r < t.report.per_rank.size(); ++r) {
        for (const Event& e : t.report.per_rank[r]) {
          if (e.kind == trace::Kind::Isend) {
            auto& s = sent[{static_cast<int>(r), e.peer, e.tag}];
            s.first += 1;
            s.second += e.bytes;
          } else if (e.kind == trace::Kind::Drop) {
            auto& s = sent[{static_cast<int>(r), e.peer, e.tag}];
            s.first -= 1;
            s.second -= e.bytes;
          } else if (e.kind == trace::Kind::MpiWait) {
            auto& w = waited[{e.peer, static_cast<int>(r), e.tag}];
            w.first += 1;
            w.second += e.bytes;
          }
        }
      }
      EXPECT_EQ(sent, waited) << "seed " << seed;
      EXPECT_GT(t.result.faults.drops + t.result.faults.corruptions, 0)
          << "fault injection must actually fire for this property to bite";
    }
  }
}

TEST(TraceProperties, OverlapRunsInteriorKernelInsideCommWindow) {
  // the point of the paper's overlapped pipeline: on every cut rank the
  // interior kernel must execute inside the halo communication window
  const TracedRun t = run_traced(4, small_config(CommPolicy::Overlap));
  ASSERT_TRUE(t.result.traced);
  EXPECT_GT(t.result.metrics.overlap_efficiency, 0.0);
  for (std::size_t r = 0; r < t.report.per_rank.size(); ++r) {
    const auto& ev = t.report.per_rank[r];
    const auto comm = interval_union(spans_of(ev, trace::Kind::HaloComm));
    const auto interior = interval_union(spans_of(ev, trace::Kind::DslashInterior));
    ASSERT_FALSE(comm.empty()) << "rank " << r;
    ASSERT_FALSE(interior.empty()) << "rank " << r;
    EXPECT_GT(intersection_length(comm, interior), 0.0)
        << "rank " << r << ": interior compute must overlap communication";
  }
}

TEST(TraceProperties, NoOverlapRunsSerializeCommAndKernels) {
  const TracedRun t = run_traced(4, small_config(CommPolicy::NoOverlap));
  ASSERT_TRUE(t.result.traced);
  EXPECT_GT(t.result.metrics.comm_us, 0.0);
  EXPECT_DOUBLE_EQ(t.result.metrics.overlapped_us, 0.0);
  EXPECT_DOUBLE_EQ(t.result.metrics.overlap_efficiency, 0.0);
}

TEST(TraceProperties, FaultInstantsMatchFaultReportCounters) {
  // the trace is an audit log of the fault machinery: injected and
  // recovered events in the stream must match the FaultCounters totals
  for (const std::uint64_t seed : {3ull, 11ull}) {
    sim::FaultConfig faults;
    faults.seed = seed;
    faults.drop_rate = 1e-3;
    faults.corrupt_rate = 1e-3;
    faults.stall_rate = 1e-4;
    ModeledSolverConfig cfg = small_config(CommPolicy::Overlap);
    cfg.iterations = 60;
    cfg.retry.checksums = true;
    cfg.retry.max_retries = 6;
    const TracedRun t = run_traced(4, cfg, faults);

    long drops = 0, corrupts = 0, stalls = 0, retries = 0, checksum_errors = 0;
    for (const auto& ev : t.report.per_rank) {
      drops += count_of(ev, trace::Kind::Drop);
      corrupts += count_of(ev, trace::Kind::Corrupt);
      stalls += count_of(ev, trace::Kind::Stall);
      retries += count_of(ev, trace::Kind::Retry);
      checksum_errors += count_of(ev, trace::Kind::ChecksumError);
    }
    EXPECT_EQ(drops, t.result.faults.drops) << "seed " << seed;
    EXPECT_EQ(corrupts, t.result.faults.corruptions) << "seed " << seed;
    EXPECT_EQ(stalls, t.result.faults.stalls) << "seed " << seed;
    EXPECT_EQ(retries, t.result.faults.retries) << "seed " << seed;
    EXPECT_EQ(checksum_errors, t.result.faults.checksum_errors) << "seed " << seed;
    EXPECT_EQ(t.result.metrics.retries, t.result.faults.retries) << "seed " << seed;
    EXPECT_GT(retries, 0) << "seed " << seed << ": retries must actually fire";
  }
}

TEST(TraceProperties, TracingIsObservationalOnly) {
  // identical simulated makespan with recording on and off -- the
  // bit-identity contract of the tracer (the Real-mode version lives in
  // test_exec.cpp).  Edge recording (dep_rank/dep_ts/edge_us, consumed by
  // the critical-path analyzer) runs inside the traced branch, so this
  // equality also proves the happens-before bookkeeping costs zero
  // simulated time.
  for (const CommPolicy policy : {CommPolicy::Overlap, CommPolicy::NoOverlap}) {
    const ModeledSolverConfig cfg = small_config(policy);
    sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(4);
    sim::VirtualCluster off(spec);
    const ModeledSolverResult r_off = parallel::run_modeled_solver(off, cfg);
    spec.trace.enabled = true;
    sim::VirtualCluster on(spec);
    const ModeledSolverResult r_on = parallel::run_modeled_solver(on, cfg);
    EXPECT_EQ(r_off.time_us, r_on.time_us);
    EXPECT_EQ(off.makespan_us(), on.makespan_us());
    EXPECT_FALSE(r_off.traced);
    EXPECT_TRUE(r_on.traced);
  }
}

TEST(TraceProperties, DependencyEdgesAreRecordedAndDeterministic) {
  // every completed receive names its sender (and the recorded send time
  // matches that sender's isend instant); every allreduce names a valid
  // gate rank; kernels and copies anchor to a non-negative host issue time.
  // Two identical runs must agree on every edge bitwise -- the analyzer's
  // exactness rests on this.
  const int ranks = 4;
  const TracedRun a = run_traced(ranks, small_config(CommPolicy::Overlap));
  const TracedRun b = run_traced(ranks, small_config(CommPolicy::Overlap));
  long waits = 0, colls = 0, device_spans = 0;
  for (int r = 0; r < ranks; ++r) {
    const auto& ev = a.report.per_rank[r];
    const auto& ev_b = b.report.per_rank[r];
    ASSERT_EQ(ev.size(), ev_b.size()) << "rank " << r;
    for (std::size_t i = 0; i < ev.size(); ++i) {
      const Event& e = ev[i];
      const trace::KindInfo& k = trace::info(e.kind);
      EXPECT_EQ(e.dep_rank, ev_b[i].dep_rank);
      EXPECT_EQ(e.dep_ts_us, ev_b[i].dep_ts_us);
      EXPECT_EQ(e.edge_us, ev_b[i].edge_us);
      EXPECT_LT(e.dep_rank, ranks);
      if (e.kind == trace::Kind::MpiWait) {
        ++waits;
        EXPECT_EQ(e.dep_rank, e.peer) << "wait edge must name the sender";
        EXPECT_GE(e.dep_ts_us, 0.0);
        EXPECT_GE(e.edge_us, 0.0);
      } else if (e.kind == trace::Kind::Allreduce) {
        ++colls;
        EXPECT_GE(e.dep_rank, 0);
      } else if (k.cat == trace::Cat::Kernel || k.cat == trace::Cat::Copy) {
        ++device_spans;
        EXPECT_GE(e.dep_ts_us, 0.0) << k.name << ": issue anchor missing";
        EXPECT_LE(e.dep_ts_us, e.ts_us) << k.name << ": issued after it started";
      }
    }
  }
  EXPECT_GT(waits, 0);
  EXPECT_GT(colls, 0);
  EXPECT_GT(device_spans, 0);
}

// --- exporter ----------------------------------------------------------------

TEST(TraceExport, ChromeJsonIsOneEventPerLineAndComplete) {
  const TracedRun t = run_traced(2, small_config(CommPolicy::Overlap));
  const std::string json = trace::chrome_trace_json(t.report);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"name\": \"comm\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"name\": \"solver\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"name\": \"stream 0\"}"), std::string::npos);

  // one JSON object per line: the number of event lines matches the report
  std::istringstream is(json);
  std::string line;
  std::size_t spans = 0, instants = 0;
  while (std::getline(is, line)) {
    if (line.find("\"ph\": \"X\"") != std::string::npos) ++spans;
    if (line.find("\"ph\": \"i\"") != std::string::npos) ++instants;
  }
  EXPECT_EQ(spans + instants, t.report.total_events());
}

TEST(TraceExport, UnwritablePathRaisesAfterTheRun) {
  // a trace path inside a missing directory fails the run loudly, naming
  // the path -- but only once the in-memory report is stored
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(2);
  spec.trace.enabled = true;
  spec.trace.path = "no_such_dir/trace_unwritable.json";
  sim::VirtualCluster cluster(spec);
  try {
    (void)parallel::run_modeled_solver(cluster, small_config(CommPolicy::Overlap));
    FAIL() << "an unwritable trace export must raise";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(spec.trace.path), std::string::npos) << e.what();
  }
  EXPECT_GT(cluster.trace().total_events(), 0u) << "the report must survive the export error";

  // the run's own error wins over the export error
  try {
    cluster.run([](sim::RankContext&) { throw std::logic_error("rank body failed"); });
    FAIL() << "the failing run must raise";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "rank body failed");
  }
}

TEST(TraceExport, UniqueTracePathsDiffer) {
  const std::string a = trace::unique_trace_path("trace_unique_test.json");
  const std::string b = trace::unique_trace_path("trace_unique_test.json");
  EXPECT_NE(a, b);
  EXPECT_EQ(a.rfind("trace_unique_test.json", 0), 0u);
  EXPECT_EQ(b.rfind("trace_unique_test.json", 0), 0u);
}

// --- acceptance: fig5-sized Overlap run through QUDA_SIM_TRACE ---------------

// minimal field extractors for the exporter's one-object-per-line format
double json_num(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in: " << line;
  return std::strtod(line.c_str() + pos + needle.size(), nullptr);
}

std::string json_str(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in: " << line;
  const std::size_t begin = pos + needle.size();
  return line.substr(begin, line.find('"', begin) - begin);
}

TEST(TraceAcceptance, Fig5SizedOverlapExportRoundTripsOverlapEfficiency) {
  // fig5(b) mid-point: global 24^3 x 128 over 8 GPUs, overlapped comms,
  // exported exactly the way a user would capture it: QUDA_SIM_TRACE=<path>
  const std::string base = "trace_fig5_acceptance.json";
  // the export suffixes the path when earlier runs in this process already
  // exported; scrub every candidate so exactly the fresh file survives
  auto candidate = [&](int n) { return n == 0 ? base : base + "." + std::to_string(n); };
  for (int n = 0; n < 4096; ++n) std::remove(candidate(n).c_str());
  ASSERT_EQ(::setenv("QUDA_SIM_TRACE", base.c_str(), 1), 0);

  ModeledSolverConfig cfg;
  cfg.local = LatticeDims{24, 24, 24, 16};
  cfg.outer = Precision::Single;
  cfg.sloppy = Precision::Half;
  cfg.policy = CommPolicy::Overlap;
  cfg.iterations = 40;
  cfg.reliable_interval = 40;

  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(8); // trace.enabled left false: env drives it
  sim::VirtualCluster cluster(spec);
  const ModeledSolverResult r = parallel::run_modeled_solver(cluster, cfg);
  ::unsetenv("QUDA_SIM_TRACE");
  ASSERT_TRUE(r.fits);
  ASSERT_TRUE(r.traced) << "QUDA_SIM_TRACE must enable tracing without spec changes";
  ASSERT_GT(r.metrics.overlap_efficiency, 0.0);

  std::string path;
  for (int n = 0; n < 4096 && path.empty(); ++n)
    if (std::ifstream(candidate(n)).good()) path = candidate(n);
  ASSERT_FALSE(path.empty()) << "no exported trace found";

  // re-derive the overlap efficiency from the file alone: per rank, union
  // of halo_comm windows on the comm track intersected with the union of
  // kernel spans on the stream tracks
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::map<int, std::vector<Interval>> comm, kernels;
  std::size_t event_lines = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.find("\"ph\": \"X\"") != std::string::npos ||
        line.find("\"ph\": \"i\"") != std::string::npos)
      ++event_lines;
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    const int pid = static_cast<int>(json_num(line, "pid"));
    const int tid = static_cast<int>(json_num(line, "tid"));
    const double ts = json_num(line, "ts");
    const double dur = json_num(line, "dur");
    if (tid == 11 && json_str(line, "name") == "halo_comm")
      comm[pid].emplace_back(ts, ts + dur);
    else if (tid < 10 && json_str(line, "cat") == "kernel")
      kernels[pid].emplace_back(ts, ts + dur);
  }
  EXPECT_EQ(event_lines, cluster.trace().total_events());
  ASSERT_EQ(comm.size(), 8u) << "every rank must have halo comm windows";

  double comm_us = 0, overlapped_us = 0;
  for (auto& [pid, windows] : comm) {
    const auto cw = interval_union(std::move(windows));
    comm_us += total_length(cw);
    overlapped_us += intersection_length(cw, interval_union(kernels[pid]));
  }
  ASSERT_GT(comm_us, 0.0);
  const double file_efficiency = overlapped_us / comm_us;

  // the file-derived split must match the in-process metrics within 1%
  EXPECT_NEAR(comm_us, r.metrics.comm_us, 0.01 * r.metrics.comm_us);
  EXPECT_NEAR(overlapped_us, r.metrics.overlapped_us, 0.01 * r.metrics.overlapped_us);
  EXPECT_NEAR(file_efficiency, r.metrics.overlap_efficiency,
              0.01 * r.metrics.overlap_efficiency);
}

} // namespace
} // namespace quda
