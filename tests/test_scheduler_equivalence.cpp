// Scheduler equivalence suite (DESIGN.md §12): the rank fibers must walk
// the same timeline on one OS worker as on one worker per rank.  Because
// the DES is conservative -- message and collective completion times are
// pure functions of the participants' simulated clocks -- no interleaving
// of the workers can change it, and every observable must match *bitwise*:
// solution vectors, makespans, FaultReport/RecoveryReport (checkpoint
// digests included), per-rank FNV-1a trace digests, and exported trace
// files with timestamps.  Each scenario runs at QUDA_SIM_THREADS budget 1
// (one worker) against budgets {2, ranks}: budget = ranks gives every rank
// a worker of its own, and the budget also throttles host-side
// parallel_for work, which must not perturb the timeline either.
//
// Also pinned here: the rule that picks the worker count.

#include "core/quda_api.h"
#include "dirac/gauge_init.h"
#include "exec/host_engine.h"
#include "parallel/modeled_solver.h"
#include "sim/event_sim.h"
#include "sim/scheduler.h"
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

using parallel::ModeledSolverConfig;
using parallel::ModeledSolverResult;

// the suite drives the recording switches itself; scrub any ambient values
// so every run starts from the documented defaults
const bool g_env_cleared = [] {
  ::unsetenv("QUDA_SIM_TRACE");
  ::unsetenv("QUDA_SIM_TELEMETRY");
  return true;
}();

// the budgets every scenario runs at against the budget-1 baseline: a
// budget below the rank count keeps one worker, budget = ranks gives each
// rank its own
std::vector<int> other_budgets(int ranks) { return {2, ranks}; }

TEST(RankWorkers, OnePerRankWithinTheBudgetOtherwiseOne) {
  EXPECT_EQ(sim::rank_workers(0, 4), 1);
  EXPECT_EQ(sim::rank_workers(1, 1), 1);
  EXPECT_EQ(sim::rank_workers(2, 4), 2);
  EXPECT_EQ(sim::rank_workers(4, 4), 4);
  EXPECT_EQ(sim::rank_workers(5, 4), 1);
  EXPECT_EQ(sim::rank_workers(4, 1), 1);
  EXPECT_EQ(sim::rank_workers(1024, 8), 1);
}

// --- modeled-solver scenarios ------------------------------------------------

ModeledSolverConfig modeled_config(CommPolicy policy) {
  ModeledSolverConfig cfg;
  cfg.local = LatticeDims{8, 8, 8, 16};
  cfg.outer = Precision::Single;
  cfg.sloppy = Precision::Half;
  cfg.policy = policy;
  cfg.iterations = 25;
  cfg.reliable_interval = 10;
  return cfg;
}

// everything observable about one modeled run, digested for comparison
struct ModeledObs {
  ModeledSolverResult result;
  double makespan = 0;
  std::vector<std::uint64_t> digests; // per-rank trace sequence digests
};

ModeledObs run_modeled(int ranks, const ModeledSolverConfig& cfg,
                       const sim::FaultConfig& faults = {}) {
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(ranks);
  spec.trace.enabled = true;
  spec.faults = faults;
  sim::VirtualCluster cluster(spec);
  ModeledObs o;
  o.result = parallel::run_modeled_solver(cluster, cfg);
  o.makespan = cluster.makespan_us();
  for (const auto& events : cluster.trace().per_rank)
    o.digests.push_back(trace::sequence_digest(events));
  return o;
}

void expect_same_modeled(const ModeledObs& a, const ModeledObs& b, const std::string& label) {
  EXPECT_EQ(a.result.fits, b.result.fits) << label;
  EXPECT_EQ(a.result.iterations, b.result.iterations) << label;
  // EXPECT_EQ on doubles is exact comparison on purpose: the worker counts
  // must agree bitwise, not to a tolerance
  EXPECT_EQ(a.result.time_us, b.result.time_us) << label;
  EXPECT_EQ(a.result.effective_gflops, b.result.effective_gflops) << label;
  EXPECT_EQ(a.makespan, b.makespan) << label;
  ASSERT_EQ(a.digests.size(), b.digests.size()) << label;
  for (std::size_t r = 0; r < a.digests.size(); ++r)
    EXPECT_EQ(a.digests[r], b.digests[r]) << label << " rank " << r << " trace digest";
}

// run one scenario at budget 1 and at the other budgets, and require each
// run to match the budget-1 baseline bitwise
void sweep_modeled(int ranks, const ModeledSolverConfig& cfg,
                   const sim::FaultConfig& faults = {}) {
  exec::set_thread_budget(1);
  const ModeledObs base = run_modeled(ranks, cfg, faults);
  ASSERT_TRUE(base.result.fits);
  ASSERT_EQ(base.digests.size(), static_cast<std::size_t>(ranks));

  for (const int budget : other_budgets(ranks)) {
    exec::set_thread_budget(budget);
    const ModeledObs other = run_modeled(ranks, cfg, faults);
    expect_same_modeled(base, other, "budget " + std::to_string(budget));
  }
  exec::set_thread_budget(0); // back to the environment default
}

TEST(SchedulerEquivalence, ModeledSolveOverlap) {
  sweep_modeled(4, modeled_config(CommPolicy::Overlap));
}

TEST(SchedulerEquivalence, ModeledSolveNoOverlap) {
  sweep_modeled(4, modeled_config(CommPolicy::NoOverlap));
}

// a 1x2x2x2 grid exercises the multi-dimensional halo exchange paths (six
// neighbors per rank instead of two) at both worker counts
TEST(SchedulerEquivalence, ModeledSolveMultiDimGrid) {
  ModeledSolverConfig cfg = modeled_config(CommPolicy::Overlap);
  cfg.topology = comm::GridTopology{{1, 2, 2, 2}};
  sweep_modeled(8, cfg);
}

// the fig5(a) 32-GPU point (32^3 x 256 time-sliced over 32 GPUs, single/half
// with overlap): 32 ranks on 32 workers, so a wakeup that reached the wrong
// rank, or none, would show here first
TEST(SchedulerEquivalence, ModeledSolve32RankFig5Point) {
  ModeledSolverConfig cfg = modeled_config(CommPolicy::Overlap);
  cfg.local = LatticeDims{32, 32, 32, 8};
  sweep_modeled(32, cfg);
}

// message faults (drops, degraded links, transient stalls) perturb the
// timeline through the retry machinery; the injected schedule is a pure
// function of the seed, so every worker count must replay it exactly
TEST(SchedulerEquivalence, ModeledSolveWithMessageFaults) {
  sim::FaultConfig faults;
  faults.seed = 20260808;
  faults.drop_rate = 0.02;
  faults.delay_rate = 0.05;
  faults.stall_rate = 0.01;
  sweep_modeled(4, modeled_config(CommPolicy::Overlap), faults);
}

// --- real-mode solves (invert_multi_gpu) -------------------------------------

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

struct RealObs {
  InvertResult r;
  HostSpinorField x;
  std::string trace_json; // exported Chrome trace, timestamps included
};

// Exports carry a one-line provenance stamp naming the thread budget --
// exactly what these tests vary -- so strip those lines before the bitwise
// comparison.  Everything else must match to the last bit.
std::string strip_provenance(const std::string& text) {
  std::string out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    if (line.find("\"provenance\"") == std::string::npos) {
      out += line;
      if (eol < text.size()) out += '\n';
    }
    pos = eol + 1;
  }
  return out;
}

// trace exports append .N suffixes when the base name exists; each run here
// uses a distinct base, so exactly one variant exists: read it, delete it
std::string slurp_export(const std::string& base) {
  for (int n = 0; n < 64; ++n) {
    const std::string path = n == 0 ? base : base + "." + std::to_string(n);
    std::ifstream in(path, std::ios::binary);
    if (!in) continue;
    std::ostringstream ss;
    ss << in.rdbuf();
    std::remove(path.c_str());
    return strip_provenance(ss.str());
  }
  return "";
}

RealObs run_real(const RealFixture& f, sim::ClusterSpec spec, int budget, int run_index) {
  exec::set_thread_budget(budget);
  spec.trace.enabled = true;
  const std::string trace_path =
      "sched_equiv_" + std::to_string(run_index) + ".trace.json";
  spec.trace.path = trace_path;
  RealObs o{InvertResult{}, HostSpinorField(f.g), ""};
  o.r = invert_multi_gpu(spec, f.u, f.b, o.x, f.params);
  o.trace_json = slurp_export(trace_path);
  return o;
}

void expect_same_real(const RealObs& a, const RealObs& b, const Geometry& g,
                      const std::string& label) {
  EXPECT_EQ(a.r.stats.converged, b.r.stats.converged) << label;
  EXPECT_EQ(a.r.stats.iterations, b.r.stats.iterations) << label;
  EXPECT_EQ(a.r.stats.true_residual, b.r.stats.true_residual) << label;
  EXPECT_EQ(a.r.simulated_time_us, b.r.simulated_time_us) << label;
  EXPECT_EQ(a.r.effective_gflops, b.r.effective_gflops) << label;

  const FaultReport& fa = a.r.faults;
  const FaultReport& fb = b.r.faults;
  EXPECT_EQ(fa.drops, fb.drops) << label;
  EXPECT_EQ(fa.delays, fb.delays) << label;
  EXPECT_EQ(fa.corruptions, fb.corruptions) << label;
  EXPECT_EQ(fa.stalls, fb.stalls) << label;
  EXPECT_EQ(fa.retries, fb.retries) << label;
  EXPECT_EQ(fa.recovered, fb.recovered) << label;
  EXPECT_EQ(fa.rollbacks, fb.rollbacks) << label;
  EXPECT_EQ(fa.recovery_time_us, fb.recovery_time_us) << label;
  EXPECT_EQ(fa.recovery.failures, fb.recovery.failures) << label;
  EXPECT_EQ(fa.recovery.crashes, fb.recovery.crashes) << label;
  EXPECT_EQ(fa.recovery.hangs, fb.recovery.hangs) << label;
  EXPECT_EQ(fa.recovery.respawns, fb.recovery.respawns) << label;
  EXPECT_EQ(fa.recovery.checkpoints, fb.recovery.checkpoints) << label;
  EXPECT_EQ(fa.recovery.restores, fb.recovery.restores) << label;
  EXPECT_EQ(fa.recovery.detection_us, fb.recovery.detection_us) << label;
  EXPECT_EQ(fa.recovery.checkpoint_us, fb.recovery.checkpoint_us) << label;
  EXPECT_EQ(fa.recovery.restore_us, fb.recovery.restore_us) << label;
  EXPECT_EQ(fa.recovery.checkpoint_digest, fb.recovery.checkpoint_digest) << label;

  EXPECT_EQ(a.trace_json, b.trace_json)
      << label << ": exported trace (timestamps included) must be bit-identical";
  for (std::int64_t i = 0; i < g.volume(); ++i)
    ASSERT_EQ(norm2(a.x[i] - b.x[i]), 0.0) << label << " site " << i;
}

// CG on the normal equations with a seeded message-fault environment: the
// full reliable-messaging story (retries, degraded links, rollbacks) must
// replay identically at every worker count
TEST(SchedulerEquivalence, RealCGWithMessageFaults) {
  RealFixture f;
  // uniform-precision CG: the mixed-precision path is BiCGstab-only
  f.params.solver = SolverType::CG;
  f.params.sloppy.reset();
  f.params.retry.checksums = true;

  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(4);
  spec.faults.seed = 31337;
  spec.faults.drop_rate = 0.02;
  spec.faults.delay_rate = 0.05;
  spec.faults.corrupt_rate = 0.01;

  int run_index = 0;
  const RealObs base = run_real(f, spec, 1, run_index++);
  ASSERT_TRUE(base.r.stats.converged) << base.r.stats.summary();
  ASSERT_FALSE(base.r.faults.clean()) << "the fault injection must actually fire";
  ASSERT_FALSE(base.trace_json.empty());

  for (const int budget : other_budgets(spec.num_ranks())) {
    const RealObs other = run_real(f, spec, budget, run_index++);
    expect_same_real(base, other, f.g, "budget " + std::to_string(budget));
  }
  exec::set_thread_budget(0);
}

// rank crashes, heartbeat detection, and coordinated checkpoint/restart:
// the hardest scenario for the wakeup protocol (survivors park on a dead
// peer, the death must wake them in simulated order, and the recovery
// rendezvous must reconverge)
TEST(SchedulerEquivalence, RealCrashRecoveryCheckpointRestart) {
  RealFixture f;

  exec::set_thread_budget(8);
  HostSpinorField x_clean(f.g);
  const InvertResult clean = invert_multi_gpu(sim::ClusterSpec::jlab_9g(4), f.u, f.b,
                                              x_clean, f.params);
  ASSERT_TRUE(clean.stats.converged) << clean.stats.summary();

  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(4);
  spec.faults.seed = 4242;
  spec.faults.crash_rate = 0.35;
  spec.faults.crash_window_us = 0.5 * clean.simulated_time_us;

  int run_index = 100;
  const RealObs base = run_real(f, spec, 1, run_index++);
  ASSERT_TRUE(base.r.stats.converged) << base.r.stats.summary();
  ASSERT_GT(base.r.faults.recovery.crashes, 0) << "the crash injection must actually fire";
  ASSERT_GT(base.r.faults.recovery.restores, 0);
  ASSERT_NE(base.r.faults.recovery.checkpoint_digest, 0u);
  ASSERT_FALSE(base.trace_json.empty());

  for (const int budget : other_budgets(spec.num_ranks())) {
    const RealObs other = run_real(f, spec, budget, run_index++);
    expect_same_real(base, other, f.g, "budget " + std::to_string(budget));
  }
  exec::set_thread_budget(0);
}

} // namespace
} // namespace quda
