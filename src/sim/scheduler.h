#pragma once
// Pluggable rank schedulers for the discrete-event cluster simulator
// (DESIGN.md §12).  VirtualCluster::run hands every rank body to one of
// these; the RankContext SPMD API is identical under both:
//
//   ThreadsScheduler -- one OS thread per simulated rank, each parked on a
//     condition variable of its own (the historical execution mode).
//     Capacity-limited: thread stacks and kernel scheduling make O(1000)
//     ranks impractical, so exceeding threads_scheduler_capacity() raises
//     a typed SchedulerCapacityError naming the escape hatch.
//
//   SeqScheduler -- one cooperative event loop on the calling thread,
//     running each rank as a stackful fiber (ucontext) with a lazily
//     committed guard-paged stack.  The loop always resumes the runnable
//     fiber with the smallest (simulated clock, rank) pair, kept in a
//     min-heap, so execution order is a pure function of the simulation
//     state -- there is no OS interleaving left to be nondeterministic
//     about.  Rank count becomes a parameter: 1024 ranks are 1024 fibers,
//     not 1024 threads.
//
// Wakeups are targeted: the transport records what each parked rank waits
// for and wakes only the rank whose wait it satisfies (wake); wake_all is
// reserved for failure paths, where every parked rank must re-check.
//
// Because message/collective completion times are pure functions of the
// participants' clocks (conservative DES), the two schedulers produce
// bit-identical simulated timelines; tests/test_scheduler_equivalence.cpp
// pins that equivalence differentially.

#include "core/sync.h"
#include "sim/cluster_spec.h"

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace quda::sim {

class RankContext;

// Raised by VirtualCluster::run when the requested rank count exceeds what
// the threads scheduler can service, instead of dying inside std::thread
// construction.  The message names the escape hatch.
class SchedulerCapacityError : public std::runtime_error {
public:
  SchedulerCapacityError(int requested, int capacity)
      : std::runtime_error(
            "simulated cluster of " + std::to_string(requested) +
            " ranks exceeds the threads scheduler's capacity of " + std::to_string(capacity) +
            " OS threads; use the cooperative event-loop scheduler instead "
            "(QUDA_SIM_SCHED=seq, or ClusterSpec::scheduler = SchedulerKind::Seq)"),
        requested_(requested), capacity_(capacity) {}

  int requested() const { return requested_; }
  int capacity() const { return capacity_; }

private:
  int requested_;
  int capacity_;
};

// canonical name of a resolved scheduler kind ("threads" | "seq")
const char* scheduler_name(SchedulerKind kind);

// Resolve Auto: the QUDA_SIM_SCHED environment variable (threads|seq; any
// other value is an std::invalid_argument), defaulting to Threads.  An
// explicit ClusterSpec::scheduler setting wins over the environment.
SchedulerKind resolve_scheduler(SchedulerKind requested);

// rank count the threads scheduler accepts before raising a typed
// SchedulerCapacityError (QUDA_SIM_MAX_RANK_THREADS overrides; >= 1)
int threads_scheduler_capacity();

// Execution engine behind VirtualCluster::run.  run() drives every rank
// body to completion; bodies must not throw (VirtualCluster wraps them).
// park/wake/wake_all implement the blocking protocol of the transport: the
// cluster mutex is held on entry to and on return from park, and released
// while parked.  Each rank parks on a slot of its own, so a wake reaches
// exactly one rank.
class RankScheduler {
public:
  virtual ~RankScheduler() = default;

  // run body(*ranks[r]) once per rank (ranks[r] must be rank r); returns
  // when every rank finished.  trace_on binds each rank's tracer as the
  // thread-local trace::current() for the duration of that rank's execution
  // (per resume under seq).
  virtual void run(const std::vector<RankContext*>& ranks, bool trace_on,
                   const std::function<void(RankContext&)>& body) = 0;

  // Park the calling rank (`rank`) until wake(rank) or wake_all().  Returns
  // true when the caller armed a watchdog (wall_timeout_ms > 0) and it fired
  // with no wakeup: under threads that is a real wall-clock cv timeout;
  // under seq it is the deterministic equivalent -- every rank is parked, so
  // no wakeup can ever come.  A seq-mode deadlock with no watchdog armed
  // anywhere throws std::runtime_error from the lowest-ranked parked fiber.
  // Callers re-check their wait condition on return: threads may also wake
  // spuriously.
  virtual bool park(int rank, core::MutexLock& lock, double wall_timeout_ms) = 0;

  // wake one parked rank; a no-op under seq when the rank is not parked
  virtual void wake(int rank) = 0;

  // wake every parked rank so it re-checks its wait condition (failure
  // paths only: poison, deaths, recovery)
  virtual void wake_all() = 0;
};

// construct the scheduler for a resolved (non-Auto) kind
std::unique_ptr<RankScheduler> make_scheduler(SchedulerKind kind);

} // namespace quda::sim
