#pragma once
// The rank scheduler of the discrete-event cluster simulator (DESIGN.md §12).
// VirtualCluster::run hands every rank body to it, and the RankContext SPMD
// API sits on top of its park/wake protocol.
//
// Each rank runs as a stackful fiber (ucontext) with a lazily committed
// guard-paged stack.  K OS workers resume the fibers, and every worker takes
// the runnable fiber with the smallest (simulated clock, rank) pair from one
// shared min-heap.  K is rank_workers(ranks, exec::thread_budget()):
//   * one worker per rank when the ranks fit in the thread budget, so
//     Real-mode ranks overlap their serial host work the way one MPI process
//     per GPU does;
//   * one worker otherwise.  Its resume order is then a pure function of the
//     simulation state, and rank count is a parameter: 1024 ranks are 1024
//     fibers, not 1024 threads.
//
// Wakeups are targeted: the transport records what each parked rank waits
// for and wakes only the rank whose wait it satisfies (wake); wake_all is
// reserved for failure paths, where every parked rank must re-check.
//
// Deadlock is exact at any K: when live fibers remain, none is running and
// none is runnable, no wakeup can ever come.  The lowest-ranked parked fiber
// is then resumed with park() returning true, and its rank raises the typed
// CommTimeout.
//
// Because message/collective completion times are pure functions of the
// participants' clocks (conservative DES), the simulated timeline does not
// depend on K; tests/test_scheduler_equivalence.cpp pins K = 1 against
// K = ranks bitwise.

#include "core/sync.h"

#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

namespace quda::sim {

class RankContext;

// The K rule: OS workers that run `ranks` rank fibers under a host thread
// budget of `budget` -- ranks when they fit, one otherwise (never zero).
int rank_workers(int ranks, int budget);

class RankScheduler {
public:
  RankScheduler();
  ~RankScheduler();
  RankScheduler(const RankScheduler&) = delete;
  RankScheduler& operator=(const RankScheduler&) = delete;

  // Run body(*ranks[r]) once per rank (ranks[r] must be rank r) on
  // rank_workers(ranks, exec::thread_budget()) OS workers, the calling
  // thread among them; returns when every rank finished.  Bodies must not
  // throw (VirtualCluster wraps them).  trace_on binds each rank's tracer as
  // the thread-local trace::current() on every resume, since a fiber may
  // resume on any worker.
  void run(const std::vector<RankContext*>& ranks, bool trace_on,
           const std::function<void(RankContext&)>& body);

  // Park the calling rank until wake(rank) or wake_all().  The cluster
  // mutex (`lock`) is held on entry and on return, and released while
  // parked.  Returns true when the rank was resumed by the deadlock rule
  // instead of a wakeup.  Callers re-check their wait condition otherwise:
  // with K > 1 a wake meant for an earlier wait can arrive late.
  bool park(int rank, core::MutexLock& lock);

  // wake one parked rank; a no-op when the rank is not parked
  void wake(int rank);

  // wake every parked rank so it re-checks its wait condition (failure
  // paths only: poison, deaths, recovery)
  void wake_all();

private:
  struct Fiber;
  struct Worker;

  static void trampoline(unsigned hi, unsigned lo);
  void work(Worker& w);
  // worker -> fiber, and back once the fiber parks or finishes
  void resume(Worker& w, Fiber& f);
  // fiber -> the worker running it; the fiber holds mutex_, which the
  // worker then owns
  void suspend(Fiber& f);
  void make_runnable(Fiber& f) QUDA_REQUIRES(mutex_);

  // The scheduler lock.  A fiber takes it before switching out and the
  // worker it switched to releases it, so no other worker can resume the
  // fiber before its context is saved.
  core::Mutex mutex_;
  core::CondVar idle_ QUDA_CV_WAITS_WITH(mutex_); // workers with nothing runnable
  // Indexed by rank and fixed for a run; each fiber's state fields are
  // guarded by mutex_.
  std::vector<std::unique_ptr<Fiber>> fibers_;
  // The runnable fibers keyed by (simulated clock, rank); a worker resumes
  // the smallest, so with one worker the order is a pure function of
  // simulation state, with rank as the deterministic tie-break.  A key is
  // exact until its fiber runs: a runnable fiber's clock cannot change
  // before it is resumed, and no rank writes another rank's clock.
  std::priority_queue<std::pair<double, int>, std::vector<std::pair<double, int>>,
                      std::greater<>>
      runnable_ QUDA_GUARDED_BY(mutex_);
  int live_ QUDA_GUARDED_BY(mutex_) = 0;    // fibers not yet done
  int running_ QUDA_GUARDED_BY(mutex_) = 0; // fibers on a worker right now
  int idle_workers_ QUDA_GUARDED_BY(mutex_) = 0;
  const std::function<void(RankContext&)>* body_ = nullptr;
  bool trace_on_ = false;
};

} // namespace quda::sim
