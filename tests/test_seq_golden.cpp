// Pinned 256-rank golden run (DESIGN.md §12): a quick-lattice modeled
// solve on a 4x4x4x4 process grid (256 simulated GPUs, global 16^4) on the
// default fat-tree cluster, its 256 rank fibers on one worker (thread
// budget 1).  Fibers make rank count a parameter instead of an OS thread
// count, so this runs on one CPU in well under the suite timeout -- and
// because the DES is conservative, every number below is a pure function
// of the configuration.  The goldens pin:
//
//   - the simulated makespan, bitwise (the full hierarchical-interconnect
//     cost model: intra-node shm, leaf-switch IB, cross-switch hops with
//     oversubscription, and the switch-hop allreduce surcharge);
//   - per-rank FNV-1a event-sequence digests (first, last, and a fold over
//     all 256 ranks), pinning the pipeline structure at scale;
//   - the critical-path walk: valid, closed at t = 0, path == makespan
//     bitwise, category tiling exact, and the whole CritSummary (category
//     split, what-if projections, walk shape) pinned bitwise;
//   - the per-link-class traffic split (shm/ib/xswitch bytes), pinning the
//     topology classification of every message;
//   - the scheduler counters on one worker: how often the ranks block
//     (parks, wakes), and that no wake leaves a rank to park again (zero
//     spurious);
//   - the exported Chrome trace and telemetry JSONL byte for byte (FNV-1a,
//     provenance line excluded).
//
// Any change to the scheduler, the interconnect model, or the halo pipeline
// that moves the 256-rank timeline fails here loudly.  The exported trace
// (trace_seq256_golden.json) is left on disk for tools/quick_gate.sh to
// lint against tools/trace_schema.json.

#include "crit_pins.h"

#include "exec/host_engine.h"
#include "parallel/modeled_solver.h"
#include "sim/event_sim.h"
#include "trace/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

namespace quda {
namespace {

constexpr const char* kTracePath = "trace_seq256_golden.json";
constexpr const char* kTelemetryPath = "telemetry_seq256.jsonl";

// export path n of `base`, as the exporters suffix repeat runs
std::string export_path(const char* base, int n) {
  return n == 0 ? base : std::string(base) + "." + std::to_string(n);
}

// drop stale exports (the exporters append .N suffixes rather than
// overwrite, which would otherwise accumulate across local reruns)
void scrub_trace_exports() {
  for (const char* base : {kTracePath, kTelemetryPath})
    for (int n = 0; n < 64; ++n) std::remove(export_path(base, n).c_str());
}

// digest of the one export of `base` the run left after the scrub
std::uint64_t digest_of_export(const char* base) {
  for (int n = 0; n < 64; ++n) {
    std::ifstream in(export_path(base, n));
    if (in) return export_digest(in);
  }
  ADD_FAILURE() << "no export of " << base;
  return 0;
}

TEST(SeqGolden, Pinned256RankModeledSolve) {
  // the timeline goldens are budget-invariant; budget 1 keeps the fibers
  // on one worker, where the scheduler counters are pinned too
  exec::set_thread_budget(1);
  scrub_trace_exports();

  sim::ClusterSpec spec = sim::ClusterSpec::fat_tree(256);
  spec.trace.enabled = true;
  spec.trace.path = kTracePath;
  // the flight recorder runs on top: the goldens below must survive it
  // bit-for-bit (observational purity, DESIGN.md §13), and quick_gate.sh
  // renders the JSONL left on disk into the HTML run report
  spec.telemetry.enabled = true;
  spec.telemetry.path = kTelemetryPath;
  sim::VirtualCluster cluster(spec);

  parallel::ModeledSolverConfig cfg;
  cfg.local = LatticeDims{4, 4, 4, 4}; // 16^4 global over the 4x4x4x4 grid
  cfg.topology = comm::GridTopology{{4, 4, 4, 4}};
  cfg.outer = Precision::Single;
  cfg.sloppy = Precision::Half;
  cfg.policy = CommPolicy::Overlap;
  cfg.iterations = 5;
  cfg.reliable_interval = 5;

  const parallel::ModeledSolverResult r = parallel::run_modeled_solver(cluster, cfg);
  ASSERT_TRUE(r.fits);
  ASSERT_TRUE(r.traced);
  ASSERT_EQ(cluster.trace().per_rank.size(), 256u);

  // --- critical-path tiling --------------------------------------------------
  ASSERT_TRUE(r.critpath.valid) << r.critpath.error;
  EXPECT_EQ(r.critpath.path_us, r.critpath.makespan_us)
      << "the walk must close at t = 0: path tiles [0, makespan] exactly";
  EXPECT_EQ(r.critpath.makespan_us, cluster.makespan_us());
  double cat_sum = 0;
  for (int c = 0; c < trace::kNumPathCats; ++c) cat_sum += r.critpath.cat_us[c];
  EXPECT_NEAR(cat_sum, r.critpath.path_us, 1e-6 * r.critpath.path_us)
      << "attribution categories must tile the path";
  EXPECT_GT(r.critpath.exposed_comm_us(), 0.0)
      << "a 4^4 local volume is firmly communication-bound";

  // --- pinned goldens --------------------------------------------------------
  // regenerate by running with --gtest_also_run_disabled_tests and reading
  // the printout below, after verifying the timeline change is intended
  const double kGoldenMakespanUs = 81581.101610996702;
  const std::uint64_t kGoldenDigestRank0 = 9794379416283240936ull;
  const std::uint64_t kGoldenDigestRank255 = 16109566784602716260ull;
  const std::uint64_t kGoldenDigestFold = 18162238263478380985ull;
  const long kGoldenShmBytes = 6555648;
  const long kGoldenIbBytes = 19666944;
  const long kGoldenXswitchBytes = 26222592;
  // scheduler counters: every park ends in one wake, none spurious
  const std::int64_t kGoldenParks = 10996;
  // the exported bytes bar provenance: timestamps, edges and link classes
  // the sequence digests skip, and every telemetry record
  const std::uint64_t kGoldenTraceExport = 0x38cd7f8b1a322625ull;
  const std::uint64_t kGoldenTelemetryExport = 0xcfead811e2f5b4f3ull;

  const auto& per_rank = cluster.trace().per_rank;
  const std::uint64_t d0 = trace::sequence_digest(per_rank.front());
  const std::uint64_t d255 = trace::sequence_digest(per_rank.back());
  // FNV-1a fold of all 256 per-rank digests, so a change on *any* rank
  // fails even if ranks 0/255 happen to keep their sequence
  std::uint64_t fold = 1469598103934665603ull;
  for (const auto& events : per_rank) {
    std::uint64_t d = trace::sequence_digest(events);
    for (int b = 0; b < 8; ++b) {
      fold ^= (d >> (8 * b)) & 0xffull;
      fold *= 1099511628211ull;
    }
  }

  const sim::SchedCounters& sched = cluster.sched_totals();
  const std::uint64_t trace_export = digest_of_export(kTracePath);
  const std::uint64_t telemetry_export = digest_of_export(kTelemetryPath);
  std::printf("SeqGolden: makespan %.17g digest0 %llu digest255 %llu fold %llu "
              "shm %ld ib %ld xswitch %ld parks %lld wakes %lld spurious %lld "
              "trace export %#llx telemetry export %#llx\n",
              cluster.makespan_us(), static_cast<unsigned long long>(d0),
              static_cast<unsigned long long>(d255),
              static_cast<unsigned long long>(fold), r.metrics.shm_bytes,
              r.metrics.ib_bytes, r.metrics.xswitch_bytes,
              static_cast<long long>(sched.parks), static_cast<long long>(sched.wakes),
              static_cast<long long>(sched.spurious),
              static_cast<unsigned long long>(trace_export),
              static_cast<unsigned long long>(telemetry_export));

  EXPECT_EQ(cluster.makespan_us(), kGoldenMakespanUs);
  EXPECT_EQ(d0, kGoldenDigestRank0);
  EXPECT_EQ(d255, kGoldenDigestRank255);
  EXPECT_EQ(fold, kGoldenDigestFold);
  // traffic split over the interconnect hierarchy: with 2 GPUs per node and
  // 8 nodes per leaf switch, a 256-rank solve exercises all three classes
  EXPECT_EQ(r.metrics.shm_bytes, kGoldenShmBytes);
  EXPECT_EQ(r.metrics.ib_bytes, kGoldenIbBytes);
  EXPECT_EQ(r.metrics.xswitch_bytes, kGoldenXswitchBytes);
  EXPECT_EQ(sched.parks, kGoldenParks);
  EXPECT_EQ(sched.wakes, kGoldenParks);
  EXPECT_EQ(sched.spurious, 0);
  EXPECT_EQ(trace_export, kGoldenTraceExport);
  EXPECT_EQ(telemetry_export, kGoldenTelemetryExport);
  EXPECT_GT(r.metrics.shm_bytes, 0);
  EXPECT_GT(r.metrics.ib_bytes, 0);
  EXPECT_GT(r.metrics.xswitch_bytes, 0);

  // the whole critical-path summary, bitwise (hex floats: exact doubles)
  const trace::CritSummary kGoldenCrit{
      .valid = true,
      .error = "",
      .makespan_us = 0x1.3ead1a032da3cp+16,
      .path_us = 0x1.3ead1a032da3cp+16,
      .cat_us = {0x1.9b34ce67fc4p+2, 0x1.2499e6599c34p+5, 0x1.0bc999999961bp+10,
                 0x1.38bdc0598f384p+16, 0x1.9533333331f64p+8, 0x0p+0, 0x0p+0},
      .critical_rank = 0,
      .cross_rank_jumps = 4,
      .segments = 2155,
      .compute_bound_us = 0x1.6b823a2c94834p+5,
      .replay_identity_us = 0x1.3ead1a032da3cp+16,
      .whatif_zero_latency_us = 0x1.3ad78d3660d71p+16,
      .whatif_free_pcie_us = 0x1.06826766b360bp+12,
      .whatif_infinite_overlap_us = 0x1.38ccc24524edep+16,
  };
  expect_summary_pinned(r.critpath, kGoldenCrit);

  exec::set_thread_budget(0); // back to the environment default
}

} // namespace
} // namespace quda
