// Fault injection and recovery: deterministic fault schedules, reliable
// message delivery under payload corruption and drops, typed CommTimeout on
// exhausted retries (no deadlock), solver SDC rollback, and reproducibility
// of both the fault schedule and the simulated-time totals.

#include "comm/qmp.h"
#include "core/quda_api.h"
#include "dirac/gauge_init.h"
#include "parallel/modeled_solver.h"
#include "sim/fault_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace quda {
namespace {

// --- fault model unit tests --------------------------------------------------

TEST(FaultModel, SameSeedSameSchedule) {
  sim::FaultConfig cfg;
  cfg.seed = 777;
  cfg.drop_rate = 0.1;
  cfg.corrupt_rate = 0.1;
  cfg.delay_rate = 0.1;
  cfg.stall_rate = 0.05;
  cfg.device_flip_rate = 0.1;
  const sim::FaultModel a(cfg), b(cfg);
  for (int rank = 0; rank < 4; ++rank) {
    for (std::uint64_t e = 0; e < 1000; ++e) {
      const sim::MessageFault fa = a.message_fault(rank, e);
      const sim::MessageFault fb = b.message_fault(rank, e);
      EXPECT_EQ(fa.drop, fb.drop);
      EXPECT_EQ(fa.corrupt, fb.corrupt);
      EXPECT_EQ(fa.corrupt_bits, fb.corrupt_bits);
      EXPECT_EQ(fa.delay_factor, fb.delay_factor);
      EXPECT_EQ(fa.stall_us, fb.stall_us);
      EXPECT_EQ(a.device_fault(rank, e), b.device_fault(rank, e));
    }
  }
}

TEST(FaultModel, RanksSeeDifferentSchedules) {
  sim::FaultConfig cfg;
  cfg.seed = 777;
  cfg.drop_rate = 0.2;
  const sim::FaultModel m(cfg);
  int differing = 0;
  for (std::uint64_t e = 0; e < 200; ++e)
    if (m.message_fault(0, e).drop != m.message_fault(1, e).drop) ++differing;
  EXPECT_GT(differing, 0) << "rank must be part of the draw key";
}

TEST(FaultModel, RatesAreHonoredApproximately) {
  sim::FaultConfig cfg;
  cfg.seed = 99;
  cfg.drop_rate = 0.25;
  const sim::FaultModel m(cfg);
  int drops = 0;
  const int n = 4000;
  for (std::uint64_t e = 0; e < n; ++e)
    if (m.message_fault(0, e).drop) ++drops;
  EXPECT_NEAR(static_cast<double>(drops) / n, cfg.drop_rate, 0.03);
}

// --- FaultConfig validation --------------------------------------------------

// every rejected field raises the typed FaultConfigError naming the field
TEST(FaultConfigValidate, RejectsEachBadField) {
  auto rejects = [](void (*mutate)(sim::FaultConfig&)) {
    sim::FaultConfig cfg;
    cfg.seed = 1;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), sim::FaultConfigError);
  };
  // probabilities must live in [0, 1]
  rejects([](sim::FaultConfig& c) { c.drop_rate = -0.1; });
  rejects([](sim::FaultConfig& c) { c.drop_rate = 1.5; });
  rejects([](sim::FaultConfig& c) { c.delay_rate = -1.0; });
  rejects([](sim::FaultConfig& c) { c.corrupt_rate = 2.0; });
  rejects([](sim::FaultConfig& c) { c.device_flip_rate = -0.5; });
  rejects([](sim::FaultConfig& c) { c.stall_rate = 1.01; });
  rejects([](sim::FaultConfig& c) { c.crash_rate = -0.01; });
  rejects([](sim::FaultConfig& c) { c.hang_rate = 1.0001; });
  // a delayed path cannot beat the nominal one
  rejects([](sim::FaultConfig& c) { c.delay_factor = 0.5; });
  // durations are non-negative
  rejects([](sim::FaultConfig& c) { c.stall_us = -1.0; });
  rejects([](sim::FaultConfig& c) { c.heartbeat_interval_us = -1.0; });
  rejects([](sim::FaultConfig& c) { c.hang_timeout_us = -1.0; });
  rejects([](sim::FaultConfig& c) { c.respawn_us = -1.0; });
  rejects([](sim::FaultConfig& c) { c.rollback_us = -1.0; });
  // the recovery budget cannot be negative
  rejects([](sim::FaultConfig& c) { c.max_failures = -1; });
  // death times need a positive draw window once process faults are on
  rejects([](sim::FaultConfig& c) {
    c.crash_rate = 0.1;
    c.crash_window_us = 0.0;
  });
  // seed 0 degenerates the per-kind seed^salt mixing
  rejects([](sim::FaultConfig& c) {
    c.seed = 0;
    c.crash_rate = 0.1;
  });
}

TEST(FaultConfigValidate, AcceptsDefaultsAndEnabledConfigs) {
  sim::FaultConfig off; // all rates zero, seed 0: nothing enabled, valid
  EXPECT_NO_THROW(off.validate());

  sim::FaultConfig on;
  on.seed = 42;
  on.drop_rate = 0.1;
  on.crash_rate = 0.05;
  on.hang_rate = 0.05;
  EXPECT_NO_THROW(on.validate());
}

// the cluster totals are exactly the sum of the per-rank counters, for
// every field -- including the crash/hang/detection/recovery ones
// --- generic-catch death guard ----------------------------------------------
// rethrow_if_rank_death() is the sanctioned escape hatch for a generic
// `catch (...)` that sits upstream of transport ops (rule sim-death-swallow
// in tools/semantic_check.py): a RankDeath passes through untouched, every
// other exception falls through to the handler body.

TEST(RankDeathGuard, RethrowsRankDeathThroughGenericCatch) {
  bool swallowed = false;
  bool rethrown = false;
  try {
    try {
      throw sim::RankDeath{3, sim::DeathKind::Hang, 42.0};
    } catch (...) {
      sim::rethrow_if_rank_death();
      swallowed = true; // must stay unreachable for a death
    }
  } catch (const sim::RankDeath&) {
    rethrown = true;
  }
  EXPECT_TRUE(rethrown);
  EXPECT_FALSE(swallowed);
}

TEST(RankDeathGuard, PassesOrdinaryExceptionsToTheHandler) {
  bool handled = false;
  try {
    throw std::runtime_error("plain failure");
  } catch (...) {
    sim::rethrow_if_rank_death();
    handled = true;
  }
  EXPECT_TRUE(handled);
}

TEST(RankDeathGuard, PreservesTheDeathPayload) {
  try {
    try {
      throw sim::RankDeath{7, sim::DeathKind::Crash, 123.5};
    } catch (...) {
      sim::rethrow_if_rank_death();
      FAIL() << "guard swallowed a RankDeath";
    }
  } catch (const sim::RankDeath& d) {
    EXPECT_EQ(d.rank, 7);
    EXPECT_EQ(d.kind, sim::DeathKind::Crash);
    EXPECT_DOUBLE_EQ(d.time_us, 123.5);
  }
}

TEST(FaultCountersAgg, PerRankCountersSumToClusterTotals) {
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(4);
  spec.faults.seed = 606;
  spec.faults.crash_rate = 0.5;
  spec.faults.hang_rate = 0.3;
  spec.faults.crash_window_us = 50.0;
  spec.faults.drop_rate = 0.02;

  sim::VirtualCluster cluster(spec);
  cluster.run([&](sim::RankContext& ctx) {
    const sim::FaultConfig& fc = ctx.spec().faults;
    auto& c = ctx.faults().counters();
    ctx.faults().arm_deaths(ctx.clock().now_us);
    // distinct per-rank checkpoint accounting, so an aggregation bug that
    // drops or double-counts a rank cannot cancel out
    c.checkpoints_committed += ctx.rank() + 1;
    c.checkpoint_us += 10.0 * (ctx.rank() + 1);
    for (int iter = 0; iter < 50; ++iter) {
      try {
        ctx.allreduce_sum(1.0);
      } catch (const sim::RankDeath&) { // this rank died: respawn + rejoin
        ctx.clock().advance(fc.respawn_us);
        ++c.respawns;
        ++c.restores;
        c.restore_us += fc.rollback_us;
        ctx.faults().arm_deaths(ctx.clock().now_us);
        (void)ctx.recovery_rendezvous();
      } catch (const sim::RankFailure&) { // a peer died: detect + roll back
        ctx.enter_recovery();
        ++c.rank_failures_detected;
        c.detection_us += fc.heartbeat_interval_us;
        (void)ctx.recovery_rendezvous();
      }
    }
  });

  const auto& per_rank = cluster.per_rank_fault_counters();
  ASSERT_EQ(per_rank.size(), 4u);
  sim::FaultCounters sum;
  for (const sim::FaultCounters& c : per_rank) sum += c;

  const sim::FaultCounters& tot = cluster.fault_totals();
  EXPECT_GT(tot.crashes + tot.hangs, 0) << "deaths must actually fire in this schedule";
  EXPECT_EQ(sum.drops, tot.drops);
  EXPECT_EQ(sum.delays, tot.delays);
  EXPECT_EQ(sum.corruptions, tot.corruptions);
  EXPECT_EQ(sum.device_flips, tot.device_flips);
  EXPECT_EQ(sum.stalls, tot.stalls);
  EXPECT_EQ(sum.checksum_errors, tot.checksum_errors);
  EXPECT_EQ(sum.retries, tot.retries);
  EXPECT_EQ(sum.recovered_messages, tot.recovered_messages);
  EXPECT_DOUBLE_EQ(sum.recovery_us, tot.recovery_us);
  EXPECT_EQ(sum.crashes, tot.crashes);
  EXPECT_EQ(sum.hangs, tot.hangs);
  EXPECT_EQ(sum.rank_failures_detected, tot.rank_failures_detected);
  EXPECT_EQ(sum.respawns, tot.respawns);
  EXPECT_EQ(sum.checkpoints_committed, tot.checkpoints_committed);
  EXPECT_EQ(sum.restores, tot.restores);
  EXPECT_DOUBLE_EQ(sum.detection_us, tot.detection_us);
  EXPECT_DOUBLE_EQ(sum.checkpoint_us, tot.checkpoint_us);
  EXPECT_DOUBLE_EQ(sum.restore_us, tot.restore_us);
  EXPECT_EQ(sum.checkpoints_committed, 1 + 2 + 3 + 4);
}

// --- reliable delivery through the full solver stack -------------------------

struct FaultFixture {
  Geometry g{LatticeDims{4, 4, 4, 8}};
  HostGaugeField u;
  HostSpinorField b;
  InvertParams params;

  FaultFixture() : u(g), b(g) {
    make_weak_field_gauge(u, 0.2, 9000);
    make_random_spinor(b, 9001);
    params.mass = 0.1;
    params.csw = 1.0;
    params.precision = Precision::Single;
    params.sloppy = Precision::Half;
    params.tol = 1e-6;
    params.delta = 1e-1;
    params.max_iter = 2000;
  }
};

// acceptance (1): a 4-rank mixed-precision solve with injected payload
// bit-flips and drops, checksums + retry on, converges to the identical
// solution of the fault-free run, with recovered messages reported
TEST(FaultRecovery, CorruptedHalosRecoverToFaultFreeSolution) {
  FaultFixture f;

  HostSpinorField x_clean(f.g);
  const InvertResult clean =
      invert_multi_gpu(sim::ClusterSpec::jlab_9g(4), f.u, f.b, x_clean, f.params);
  ASSERT_TRUE(clean.stats.converged) << clean.stats.summary();
  EXPECT_TRUE(clean.faults.clean());
  EXPECT_EQ(clean.faults.recovered, 0);

  sim::ClusterSpec faulty = sim::ClusterSpec::jlab_9g(4);
  faulty.faults.seed = 2024;
  faulty.faults.corrupt_rate = 0.05;
  faulty.faults.drop_rate = 0.02;
  InvertParams p = f.params;
  p.retry.checksums = true;
  p.retry.max_retries = 5;

  HostSpinorField x_faulty(f.g);
  const InvertResult r = invert_multi_gpu(faulty, f.u, f.b, x_faulty, p);
  ASSERT_TRUE(r.stats.converged) << r.stats.summary();

  EXPECT_GT(r.faults.corruptions + r.faults.drops, 0) << "faults must actually fire";
  EXPECT_GT(r.faults.checksum_errors, 0) << "receivers must catch corrupt frames";
  EXPECT_GT(r.faults.retries, 0);
  EXPECT_GT(r.faults.recovered, 0);
  EXPECT_GT(r.faults.recovery_time_us, 0.0);

  // every damaged frame was discarded and retransmitted, so the numerics
  // are bit-identical to the fault-free run
  EXPECT_EQ(r.stats.iterations, clean.stats.iterations);
  EXPECT_NEAR(r.stats.true_residual, clean.stats.true_residual,
              1e-12 + 1e-6 * clean.stats.true_residual);
  double num = 0, den = 0;
  for (std::int64_t i = 0; i < f.g.volume(); ++i) {
    num += norm2(x_faulty[i] - x_clean[i]);
    den += norm2(x_clean[i]);
  }
  EXPECT_LT(std::sqrt(num / den), 1e-12) << "recovered solve must match fault-free solve";

  // recovery costs simulated time
  EXPECT_GT(r.simulated_time_us, clean.simulated_time_us);
}

// acceptance (2): a permanent drop exhausts the retry budget and every rank
// fails with a typed CommTimeout -- no deadlock, no abort
TEST(FaultRecovery, ExhaustedRetriesRaiseCommTimeoutOnEveryRank) {
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(4);
  spec.faults.seed = 7;
  spec.faults.drop_rate = 1.0; // the link is dead

  sim::RetryPolicy rp;
  rp.max_retries = 2;

  sim::VirtualCluster cluster(spec);
  std::vector<int> timed_out(4, 0), wrong_error(4, 0);
  cluster.run([&](sim::RankContext& ctx) {
    comm::QmpGrid grid(ctx, comm::GridTopology::time_only(4));
    grid.set_retry_policy(rp);
    try {
      // ring exchange: every rank sends forward and receives from behind
      auto pending = grid.post_receive(3, -1, 0);
      grid.send_to(3, +1, 0, std::vector<std::byte>(64), 64);
      (void)grid.wait_receive(pending);
    } catch (const sim::CommTimeout&) {
      timed_out[static_cast<std::size_t>(ctx.rank())] = 1;
    } catch (...) {
      wrong_error[static_cast<std::size_t>(ctx.rank())] = 1;
    }
  });

  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(timed_out[static_cast<std::size_t>(r)], 1) << "rank " << r;
    EXPECT_EQ(wrong_error[static_cast<std::size_t>(r)], 0) << "rank " << r;
  }
  EXPECT_GT(cluster.fault_totals().drops, 0);
}

// the same failure propagates out of invert_multi_gpu as the typed error
TEST(FaultRecovery, InvertPropagatesCommTimeout) {
  FaultFixture f;
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(4);
  spec.faults.seed = 7;
  spec.faults.drop_rate = 1.0;
  InvertParams p = f.params;
  p.retry.max_retries = 1;
  HostSpinorField x(f.g);
  EXPECT_THROW(invert_multi_gpu(spec, f.u, f.b, x, p), sim::CommTimeout);
}

// acceptance (3): the same seed reproduces the identical fault schedule and
// identical simulated-time totals across two runs
TEST(FaultRecovery, SameSeedReproducesScheduleAndTimings) {
  FaultFixture f;
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(4);
  spec.faults.seed = 31337;
  spec.faults.corrupt_rate = 0.03;
  spec.faults.drop_rate = 0.02;
  spec.faults.delay_rate = 0.05;
  spec.faults.stall_rate = 0.01;
  InvertParams p = f.params;
  p.retry.checksums = true;
  p.retry.max_retries = 5;

  HostSpinorField x1(f.g), x2(f.g);
  const InvertResult r1 = invert_multi_gpu(spec, f.u, f.b, x1, p);
  const InvertResult r2 = invert_multi_gpu(spec, f.u, f.b, x2, p);
  ASSERT_TRUE(r1.stats.converged) << r1.stats.summary();

  EXPECT_EQ(r1.faults.drops, r2.faults.drops);
  EXPECT_EQ(r1.faults.delays, r2.faults.delays);
  EXPECT_EQ(r1.faults.corruptions, r2.faults.corruptions);
  EXPECT_EQ(r1.faults.stalls, r2.faults.stalls);
  EXPECT_EQ(r1.faults.checksum_errors, r2.faults.checksum_errors);
  EXPECT_EQ(r1.faults.retries, r2.faults.retries);
  EXPECT_EQ(r1.faults.recovered, r2.faults.recovered);
  EXPECT_EQ(r1.stats.iterations, r2.stats.iterations);
  EXPECT_DOUBLE_EQ(r1.faults.recovery_time_us, r2.faults.recovery_time_us);
  EXPECT_DOUBLE_EQ(r1.simulated_time_us, r2.simulated_time_us);
  for (std::int64_t i = 0; i < f.g.volume(); ++i)
    ASSERT_EQ(norm2(x1[i] - x2[i]), 0.0) << "site " << i;
}

// --- SDC detection and rollback ----------------------------------------------

// device-memory bit flips ("ECC off") corrupt iterates; the reliable-update
// SDC check detects the residual jump and rolls back to the last reliable
// iterate, and the solve still converges to a correct solution
TEST(FaultRecovery, DeviceFlipsAreDetectedAndRolledBack) {
  // a larger lattice than the fixture's: enough iterations (and flip draws)
  // that some flips land in exponent bits and actually trip the SDC check
  const Geometry g{LatticeDims{8, 8, 8, 16}};
  HostGaugeField u(g);
  make_weak_field_gauge(u, 0.2, 9000);
  HostSpinorField b(g);
  make_point_source(b, {0, 0, 0, 0}, 0, 0);

  InvertParams p;
  p.mass = 0.1;
  p.csw = 1.0;
  p.precision = Precision::Double;
  p.sloppy = Precision::Single;
  p.tol = 1e-8;
  p.max_iter = 2000;
  p.sdc_threshold = 10.0;
  p.max_rollbacks = 20;

  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(4);
  spec.faults.seed = 99;
  spec.faults.device_flip_rate = 0.3; // high enough that some flips hit exponent bits
  HostSpinorField x(g);
  const InvertResult r = invert_multi_gpu(spec, u, b, x, p);
  EXPECT_GT(r.faults.device_flips, 0) << "flips must actually fire";
  EXPECT_GT(r.faults.sdc_detected, 0) << "rollback branch must actually execute";
  EXPECT_GT(r.faults.rollbacks, 0);
  ASSERT_TRUE(r.stats.converged) << r.stats.summary();
  EXPECT_LT(r.stats.true_residual, 1e-7);
}

// with detection off, the modeled solver's schedule is unchanged by the
// flips; with it on, rollbacks repeat reliable segments and cost time
TEST(FaultRecovery, ModeledRollbackChargesTime) {
  parallel::ModeledSolverConfig cfg;
  cfg.local = LatticeDims{8, 8, 8, 16};
  cfg.outer = Precision::Single;
  cfg.sloppy = Precision::Half;
  cfg.iterations = 120;
  cfg.reliable_interval = 40;

  sim::ClusterSpec clean = sim::ClusterSpec::jlab_9g(4);
  sim::VirtualCluster c0(clean);
  const auto r0 = parallel::run_modeled_solver(c0, cfg);
  ASSERT_TRUE(r0.fits);
  EXPECT_EQ(r0.rollbacks, 0);
  EXPECT_EQ(r0.iterations, cfg.iterations);

  sim::ClusterSpec faulty = clean;
  faulty.faults.seed = 5150;
  faulty.faults.device_flip_rate = 0.01;
  sim::VirtualCluster c1(faulty);
  const auto r1 = parallel::run_modeled_solver(c1, cfg);
  ASSERT_TRUE(r1.fits);
  EXPECT_GT(r1.faults.device_flips, 0);
  EXPECT_GT(r1.rollbacks, 0);
  EXPECT_EQ(r1.iterations, cfg.iterations + r1.rollbacks * cfg.reliable_interval);
  EXPECT_GT(r1.time_us, r0.time_us) << "re-run segments must cost simulated time";
}

} // namespace
} // namespace quda
