#include "sim/scheduler.h"

#include "core/wallclock.h"
#include "sim/event_sim.h"
#include "trace/telemetry.h"
#include "trace/trace.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <queue>
#include <thread>
#include <utility>

namespace quda::sim {

namespace {

// ---------------------------------------------------------------------------
// threads: one OS thread per rank, each parked on a condvar of its own

class ThreadsScheduler final : public RankScheduler {
public:
  void run(const std::vector<RankContext*>& ranks, bool trace_on,
           const std::function<void(RankContext&)>& body) override {
    slots_.clear();
    for (std::size_t r = 0; r < ranks.size(); ++r)
      slots_.push_back(std::make_unique<core::CondVar>());
    std::vector<std::thread> threads;
    threads.reserve(ranks.size());
    for (RankContext* ctx : ranks) {
      threads.emplace_back([ctx, trace_on, &body] {
        // bind the thread-local tracer so layers without RankContext access
        // (the device model, the solvers) can emit; null keeps them silent.
        // The recorder binds unconditionally: a disabled recorder's hooks
        // are no-ops, so the cost matches the tracer's null check.
        trace::ScopedTracer bind_tracer(trace_on ? &ctx->tracer() : nullptr);
        telemetry::ScopedRecorder bind_recorder(&ctx->recorder());
        body(*ctx);
      });
    }
    for (auto& t : threads) t.join();
  }

  bool park(int rank, core::MutexLock& lock, double wall_timeout_ms) override {
    core::CondVar& slot = *slots_[static_cast<std::size_t>(rank)];
    if (wall_timeout_ms <= 0) {
      slot.wait(lock);
      return false;
    }
    // the watchdog is the one place real time enters the simulator, and it
    // routes through the allowlisted (and test-injectable) shim
    const auto deadline =
        core::now_for_watchdog() +
        std::chrono::microseconds(static_cast<std::int64_t>(wall_timeout_ms * 1e3));
    return slot.wait_until(lock, deadline) == std::cv_status::timeout;
  }

  // only rank r ever waits on slot r, so one notify reaches exactly it
  void wake(int rank) override { slots_[static_cast<std::size_t>(rank)]->notify_one(); }

  void wake_all() override {
    for (auto& slot : slots_) slot->notify_one();
  }

private:
  // one condvar per rank, indexed by rank; the waits release the cluster's
  // transport lock that park() receives
  std::vector<std::unique_ptr<core::CondVar>> slots_ QUDA_CV_WAITS_WITH(VirtualCluster::mutex_);
};

// ---------------------------------------------------------------------------
// seq: a single event loop resuming stackful (ucontext) fibers in
// deterministic (clock, rank) order

class SeqScheduler final : public RankScheduler {
public:
  void run(const std::vector<RankContext*>& ranks, bool trace_on,
           const std::function<void(RankContext&)>& body) override;
  bool park(int rank, core::MutexLock& lock, double wall_timeout_ms) override;
  void wake(int rank) override;
  void wake_all() override;

private:
  // a fiber's guard page + stack mapping, unmapped when the fiber is
  // destroyed -- including when run() throws part-way through set-up
  struct StackMap {
    void* base = MAP_FAILED;
    std::size_t bytes = 0;

    StackMap() = default;
    StackMap(const StackMap&) = delete;
    StackMap& operator=(const StackMap&) = delete;
    ~StackMap() {
      if (base != MAP_FAILED) ::munmap(base, bytes);
    }
  };

  struct Fiber {
    enum class State { Runnable, Parked, Done };
    enum class Wake { Notified, TimedOut, Deadlock };

    RankContext* ctx = nullptr;
    ucontext_t uc{};
    StackMap stack;
    State state = State::Runnable;
    Wake wake = Wake::Notified;
    bool watchdog = false; // parked caller armed a wall-timeout fallback
  };

  // 1 MiB of lazily committed stack per fiber (plus one guard page): the
  // rank bodies keep bulk data on the heap, and virtual address space is
  // the only per-rank cost until a page is touched
  static constexpr std::size_t kStackBytes = std::size_t{1} << 20;

  static void trampoline(unsigned hi, unsigned lo);
  void resume(Fiber& f, bool trace_on);
  void make_runnable(Fiber& f, Fiber::Wake why);
  void unpark_deterministically();

  std::vector<std::unique_ptr<Fiber>> fibers_; // indexed by rank
  // The runnable fibers keyed by (simulated clock, rank); the loop resumes
  // the smallest, so execution order is a pure function of simulation
  // state, with rank as the deterministic tie-break.  A key is exact until
  // its fiber runs: a runnable fiber's clock cannot change before it is
  // resumed, and no rank writes another rank's clock.
  std::priority_queue<std::pair<double, int>, std::vector<std::pair<double, int>>,
                      std::greater<>>
      runnable_;
  int live_ = 0; // fibers not yet Done
  const std::function<void(RankContext&)>* body_ = nullptr;
  ucontext_t loop_uc_{};
  Fiber* current_ = nullptr;
};

void SeqScheduler::trampoline(unsigned hi, unsigned lo) {
  // makecontext only passes ints; the scheduler pointer rides in two halves
  auto* self = reinterpret_cast<SeqScheduler*>(
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
  Fiber& f = *self->current_;
  (*self->body_)(*f.ctx); // the body wrapper catches everything
  f.state = Fiber::State::Done;
  --self->live_;
  // returning setcontext()s uc_link, i.e. the event loop's saved context
}

void SeqScheduler::resume(Fiber& f, bool trace_on) {
  current_ = &f;
  // rebind the thread-local tracer and recorder per resume: every fiber
  // shares this OS thread, so the binding must follow the fiber
  trace::ScopedTracer bind_tracer(trace_on ? &f.ctx->tracer() : nullptr);
  telemetry::ScopedRecorder bind_recorder(&f.ctx->recorder());
  swapcontext(&loop_uc_, &f.uc);
  current_ = nullptr;
}

void SeqScheduler::make_runnable(Fiber& f, Fiber::Wake why) {
  f.state = Fiber::State::Runnable;
  f.wake = why;
  runnable_.emplace(f.ctx->clock().now_us, f.ctx->rank());
}

void SeqScheduler::unpark_deterministically() {
  // Every live fiber is parked, so no wakeup can ever arrive.  Fire the
  // lowest-ranked watchdogged fiber as TimedOut (it re-checks its channel
  // and raises the same CommTimeout the threads watchdog would); with no
  // watchdog armed anywhere this is a true deadlock -- unpark the
  // lowest-ranked fiber with Deadlock status, which throws on resume.
  Fiber* victim = nullptr;
  for (auto& f : fibers_) {
    if (f->state != Fiber::State::Parked) continue;
    if (victim == nullptr) victim = f.get();
    if (f->watchdog) {
      victim = f.get();
      break;
    }
  }
  make_runnable(*victim, victim->watchdog ? Fiber::Wake::TimedOut : Fiber::Wake::Deadlock);
}

void SeqScheduler::run(const std::vector<RankContext*>& ranks, bool trace_on,
                       const std::function<void(RankContext&)>& body) {
  body_ = &body;
  const long page = ::sysconf(_SC_PAGESIZE);
  const std::size_t guard = page > 0 ? static_cast<std::size_t>(page) : 4096;

  fibers_.clear();
  runnable_ = {};
  fibers_.reserve(ranks.size());
  for (RankContext* ctx : ranks) {
    auto f = std::make_unique<Fiber>();
    f->ctx = ctx;
    f->stack.bytes = guard + kStackBytes;
    f->stack.base =
        ::mmap(nullptr, f->stack.bytes, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (f->stack.base == MAP_FAILED)
      throw std::runtime_error("seq scheduler: mmap of a fiber stack failed");
    // stacks grow downward: the guard page sits at the low end of the map
    char* stack = static_cast<char*>(f->stack.base) + guard;
    if (::mprotect(stack, kStackBytes, PROT_READ | PROT_WRITE) != 0)
      throw std::runtime_error("seq scheduler: mprotect of a fiber stack failed");
    if (::getcontext(&f->uc) != 0)
      throw std::runtime_error("seq scheduler: getcontext failed");
    f->uc.uc_stack.ss_sp = stack;
    f->uc.uc_stack.ss_size = kStackBytes;
    f->uc.uc_link = &loop_uc_;
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    ::makecontext(&f->uc, reinterpret_cast<void (*)()>(&SeqScheduler::trampoline), 2,
                  static_cast<unsigned>(self >> 32), static_cast<unsigned>(self & 0xffffffffu));
    fibers_.push_back(std::move(f));
  }
  live_ = static_cast<int>(fibers_.size());
  for (auto& f : fibers_) make_runnable(*f, Fiber::Wake::Notified);

  while (live_ > 0) {
    if (runnable_.empty()) {
      unpark_deterministically();
      continue;
    }
    const int rank = runnable_.top().second;
    runnable_.pop();
    resume(*fibers_[static_cast<std::size_t>(rank)], trace_on);
  }

  fibers_.clear(); // unmaps every stack
  body_ = nullptr;
}

bool SeqScheduler::park(int /*rank*/, core::MutexLock& lock, double wall_timeout_ms) {
  Fiber& f = *current_;
  f.state = Fiber::State::Parked;
  f.watchdog = wall_timeout_ms > 0;
  // the transport lock is uncontended on this single thread, but the
  // unlock/relock pair keeps the lock discipline identical to threads mode
  lock.unlock();
  swapcontext(&f.uc, &loop_uc_);
  lock.lock();
  f.watchdog = false;
  if (f.wake == Fiber::Wake::Deadlock)
    throw std::runtime_error(
        "simulated deadlock: every rank is parked with no wakeup pending (seq scheduler)");
  return f.wake == Fiber::Wake::TimedOut;
}

void SeqScheduler::wake(int rank) {
  Fiber& f = *fibers_[static_cast<std::size_t>(rank)];
  if (f.state == Fiber::State::Parked) make_runnable(f, Fiber::Wake::Notified);
}

void SeqScheduler::wake_all() {
  for (auto& f : fibers_)
    if (f->state == Fiber::State::Parked) make_runnable(*f, Fiber::Wake::Notified);
}

} // namespace

const char* scheduler_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::Threads: return "threads";
    case SchedulerKind::Seq: return "seq";
    case SchedulerKind::Auto: break;
  }
  return "auto";
}

SchedulerKind resolve_scheduler(SchedulerKind requested) {
  if (requested != SchedulerKind::Auto) return requested;
  const char* env = std::getenv("QUDA_SIM_SCHED");
  if (env == nullptr || env[0] == '\0') return SchedulerKind::Threads;
  if (std::strcmp(env, "threads") == 0) return SchedulerKind::Threads;
  if (std::strcmp(env, "seq") == 0) return SchedulerKind::Seq;
  throw std::invalid_argument(std::string("QUDA_SIM_SCHED=") + env +
                              " is not a rank scheduler (expected threads|seq)");
}

int threads_scheduler_capacity() {
  // 512 threads is comfortably inside Linux defaults; past that the seq
  // scheduler is both safer and faster.  The override exists mainly so
  // tests can shrink the limit without spawning hundreds of threads.
  if (const char* env = std::getenv("QUDA_SIM_MAX_RANK_THREADS")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return 512;
}

std::unique_ptr<RankScheduler> make_scheduler(SchedulerKind kind) {
  if (kind == SchedulerKind::Seq) return std::make_unique<SeqScheduler>();
  return std::make_unique<ThreadsScheduler>();
}

} // namespace quda::sim
