// Scheduler equivalence suite (DESIGN.md §12): the cooperative event-loop
// scheduler (QUDA_SIM_SCHED=seq, rank-per-fiber) must be observationally
// indistinguishable from the historical thread-per-rank scheduler.  Because
// the DES is conservative -- message and collective completion times are
// pure functions of the participants' simulated clocks -- both schedulers
// walk the same timeline, and every observable must match *bitwise*:
// solution vectors, makespans, FaultReport/RecoveryReport (checkpoint
// digests included), per-rank FNV-1a trace digests, and exported trace
// files with timestamps.  The sweep runs each scenario under both
// schedulers at QUDA_SIM_THREADS budgets {1, 2, 8}: the budget throttles
// host-side parallel_for work and must not perturb the timeline either.
//
// Also pinned here: the typed SchedulerCapacityError raised when the
// threads scheduler is asked for more ranks than it can service, and the
// QUDA_SIM_SCHED resolution rules (explicit spec beats environment,
// unknown values are a loud std::invalid_argument).

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
#include <stdexcept>
#include <string>
#include <vector>

namespace quda {
namespace {

using parallel::ModeledSolverConfig;
using parallel::ModeledSolverResult;

// the suite drives the scheduler and capacity knobs itself; scrub any
// ambient values so every run starts from the documented defaults
const bool g_env_cleared = [] {
  ::unsetenv("QUDA_SIM_TRACE");
  ::unsetenv("QUDA_SIM_TELEMETRY");
  ::unsetenv("QUDA_SIM_SCHED");
  ::unsetenv("QUDA_SIM_MAX_RANK_THREADS");
  return true;
}();

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

ModeledObs run_modeled(sim::SchedulerKind kind, int ranks, const ModeledSolverConfig& cfg,
                       const sim::FaultConfig& faults = {}) {
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(ranks);
  spec.scheduler = kind;
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
  // EXPECT_EQ on doubles is exact comparison on purpose: the schedulers
  // must agree bitwise, not to a tolerance
  EXPECT_EQ(a.result.time_us, b.result.time_us) << label;
  EXPECT_EQ(a.result.effective_gflops, b.result.effective_gflops) << label;
  EXPECT_EQ(a.makespan, b.makespan) << label;
  ASSERT_EQ(a.digests.size(), b.digests.size()) << label;
  for (std::size_t r = 0; r < a.digests.size(); ++r)
    EXPECT_EQ(a.digests[r], b.digests[r]) << label << " rank " << r << " trace digest";
}

// run one scenario under every (scheduler, thread budget) combination and
// require each run to match the threads/budget-1 baseline bitwise
void sweep_modeled(int ranks, const ModeledSolverConfig& cfg,
                   const sim::FaultConfig& faults = {}) {
  exec::set_thread_budget(1);
  const ModeledObs base = run_modeled(sim::SchedulerKind::Threads, ranks, cfg, faults);
  ASSERT_TRUE(base.result.fits);
  ASSERT_EQ(base.digests.size(), static_cast<std::size_t>(ranks));

  for (const sim::SchedulerKind kind :
       {sim::SchedulerKind::Threads, sim::SchedulerKind::Seq}) {
    for (const int budget : {1, 2, 8}) {
      exec::set_thread_budget(budget);
      const ModeledObs other = run_modeled(kind, ranks, cfg, faults);
      expect_same_modeled(base, other,
                          std::string(sim::scheduler_name(kind)) + " budget " +
                              std::to_string(budget));
    }
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
// neighbors per rank instead of two) under both schedulers
TEST(SchedulerEquivalence, ModeledSolveMultiDimGrid) {
  ModeledSolverConfig cfg = modeled_config(CommPolicy::Overlap);
  cfg.topology = comm::GridTopology{{1, 2, 2, 2}};
  sweep_modeled(8, cfg);
}

// the fig5(a) 32-GPU point (32^3 x 256 time-sliced over 32 GPUs, single/half
// with overlap): 32 rank threads, so a wakeup that reached the wrong rank,
// or none, would show here first
TEST(SchedulerEquivalence, ModeledSolve32RankFig5Point) {
  ModeledSolverConfig cfg = modeled_config(CommPolicy::Overlap);
  cfg.local = LatticeDims{32, 32, 32, 8};
  sweep_modeled(32, cfg);
}

// message faults (drops, degraded links, transient stalls) perturb the
// timeline through the retry machinery; the injected schedule is a pure
// function of the seed, so both schedulers must replay it exactly
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

// Exports carry a one-line provenance stamp naming the scheduler and thread
// budget -- exactly what these tests vary -- so strip those lines before the
// bitwise comparison.  Everything else must match to the last bit.
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

RealObs run_real(const RealFixture& f, sim::ClusterSpec spec, sim::SchedulerKind kind,
                 int budget, int run_index) {
  exec::set_thread_budget(budget);
  spec.scheduler = kind;
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
// replay identically under the fiber scheduler
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
  const RealObs base = run_real(f, spec, sim::SchedulerKind::Threads, 1, run_index++);
  ASSERT_TRUE(base.r.stats.converged) << base.r.stats.summary();
  ASSERT_FALSE(base.r.faults.clean()) << "the fault injection must actually fire";
  ASSERT_FALSE(base.trace_json.empty());

  for (const sim::SchedulerKind kind :
       {sim::SchedulerKind::Threads, sim::SchedulerKind::Seq}) {
    for (const int budget : {1, 2, 8}) {
      const RealObs other = run_real(f, spec, kind, budget, run_index++);
      expect_same_real(base, other, f.g,
                       std::string(sim::scheduler_name(kind)) + " budget " +
                           std::to_string(budget));
    }
  }
  exec::set_thread_budget(0);
}

// rank crashes, heartbeat detection, and coordinated checkpoint/restart:
// the hardest scenario for the seq scheduler's deterministic deadlock
// protocol (survivors park on a dead peer, the watchdog must fire in
// simulated order, and the recovery rendezvous must reconverge)
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
  const RealObs base = run_real(f, spec, sim::SchedulerKind::Threads, 1, run_index++);
  ASSERT_TRUE(base.r.stats.converged) << base.r.stats.summary();
  ASSERT_GT(base.r.faults.recovery.crashes, 0) << "the crash injection must actually fire";
  ASSERT_GT(base.r.faults.recovery.restores, 0);
  ASSERT_NE(base.r.faults.recovery.checkpoint_digest, 0u);
  ASSERT_FALSE(base.trace_json.empty());

  for (const sim::SchedulerKind kind :
       {sim::SchedulerKind::Threads, sim::SchedulerKind::Seq}) {
    for (const int budget : {1, 2, 8}) {
      const RealObs other = run_real(f, spec, kind, budget, run_index++);
      expect_same_real(base, other, f.g,
                       std::string(sim::scheduler_name(kind)) + " budget " +
                           std::to_string(budget));
    }
  }
  exec::set_thread_budget(0);
}

// --- scheduler selection and capacity ----------------------------------------

TEST(SchedulerCapacity, DefaultCapacityAndOverride) {
  EXPECT_EQ(sim::threads_scheduler_capacity(), 512);
  ::setenv("QUDA_SIM_MAX_RANK_THREADS", "3", 1);
  EXPECT_EQ(sim::threads_scheduler_capacity(), 3);
  ::setenv("QUDA_SIM_MAX_RANK_THREADS", "0", 1); // below the >= 1 floor: ignored
  EXPECT_EQ(sim::threads_scheduler_capacity(), 512);
  ::unsetenv("QUDA_SIM_MAX_RANK_THREADS");
  EXPECT_EQ(sim::threads_scheduler_capacity(), 512);
}

TEST(SchedulerCapacity, ThreadsOverCapacityRaisesTypedError) {
  ::setenv("QUDA_SIM_MAX_RANK_THREADS", "3", 1);
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(4);
  spec.scheduler = sim::SchedulerKind::Threads;
  sim::VirtualCluster cluster(spec);
  const ModeledSolverConfig cfg = modeled_config(CommPolicy::Overlap);
  bool threw = false;
  try {
    parallel::run_modeled_solver(cluster, cfg);
  } catch (const sim::SchedulerCapacityError& e) {
    threw = true;
    EXPECT_EQ(e.requested(), 4);
    EXPECT_EQ(e.capacity(), 3);
    // the message must name the escape hatch
    EXPECT_NE(std::string(e.what()).find("QUDA_SIM_SCHED=seq"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(threw) << "4 ranks over a 3-thread capacity must refuse to run";

  // the same cluster size sails through under the cooperative scheduler
  sim::ClusterSpec seq_spec = sim::ClusterSpec::jlab_9g(4);
  seq_spec.scheduler = sim::SchedulerKind::Seq;
  sim::VirtualCluster seq_cluster(seq_spec);
  const ModeledSolverResult r = parallel::run_modeled_solver(seq_cluster, cfg);
  EXPECT_TRUE(r.fits);
  EXPECT_GT(r.effective_gflops, 0.0);
  ::unsetenv("QUDA_SIM_MAX_RANK_THREADS");
}

TEST(SchedulerResolve, ExplicitSpecBeatsEnvironment) {
  ::setenv("QUDA_SIM_SCHED", "seq", 1);
  EXPECT_EQ(sim::resolve_scheduler(sim::SchedulerKind::Threads),
            sim::SchedulerKind::Threads);
  EXPECT_EQ(sim::resolve_scheduler(sim::SchedulerKind::Seq), sim::SchedulerKind::Seq);
  EXPECT_EQ(sim::resolve_scheduler(sim::SchedulerKind::Auto), sim::SchedulerKind::Seq);
  ::setenv("QUDA_SIM_SCHED", "threads", 1);
  EXPECT_EQ(sim::resolve_scheduler(sim::SchedulerKind::Auto), sim::SchedulerKind::Threads);
  ::unsetenv("QUDA_SIM_SCHED");
  EXPECT_EQ(sim::resolve_scheduler(sim::SchedulerKind::Auto), sim::SchedulerKind::Threads);
}

TEST(SchedulerResolve, UnknownEnvValueIsLoud) {
  ::setenv("QUDA_SIM_SCHED", "fibers", 1);
  EXPECT_THROW(sim::resolve_scheduler(sim::SchedulerKind::Auto), std::invalid_argument);
  ::unsetenv("QUDA_SIM_SCHED");
}

TEST(SchedulerResolve, SchedulerNames) {
  EXPECT_STREQ(sim::scheduler_name(sim::SchedulerKind::Threads), "threads");
  EXPECT_STREQ(sim::scheduler_name(sim::SchedulerKind::Seq), "seq");
}

// the environment path end-to-end: Auto + QUDA_SIM_SCHED=seq runs the
// fiber scheduler and lands on the threads timeline bitwise
TEST(SchedulerResolve, EnvSelectedSeqMatchesThreads) {
  exec::set_thread_budget(2);
  const ModeledSolverConfig cfg = modeled_config(CommPolicy::Overlap);
  const ModeledObs threads = run_modeled(sim::SchedulerKind::Threads, 4, cfg);
  ::setenv("QUDA_SIM_SCHED", "seq", 1);
  const ModeledObs env_seq = run_modeled(sim::SchedulerKind::Auto, 4, cfg);
  ::unsetenv("QUDA_SIM_SCHED");
  expect_same_modeled(threads, env_seq, "env-selected seq");
  exec::set_thread_budget(0);
}

} // namespace
} // namespace quda
