#include "sim/scheduler.h"

#include "exec/host_engine.h"
#include "sim/event_sim.h"
#include "trace/telemetry.h"
#include "trace/trace.h"

#include <cxxabi.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <stdexcept>
#include <thread>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace quda::sim {

int rank_workers(int ranks, int budget) { return ranks > 1 && ranks <= budget ? ranks : 1; }

namespace {

// Sanitizer annotations for a context switch; no-ops in plain builds.  ASan
// must learn which stack is about to run (start_switch, right before the
// switch) and that the switch landed (finish_switch, first thing on the new
// stack).  TSan must learn which fiber runs next, right before the switch,
// and that the scheduler lock changed hands across it: it tracks a mutex's
// owner per fiber, so the switching fiber gives up the lock it took and the
// worker takes it over (core::Mutex holds only its std::mutex, so the two
// share one address).
namespace san {

#if defined(__SANITIZE_ADDRESS__)
void start_switch(void** fake_stack, const void* bottom, std::size_t size) {
  __sanitizer_start_switch_fiber(fake_stack, bottom, size);
}
void finish_switch(void* fake_stack, const void** bottom_old, std::size_t* size_old) {
  __sanitizer_finish_switch_fiber(fake_stack, bottom_old, size_old);
}
#else
void start_switch(void**, const void*, std::size_t) {}
void finish_switch(void*, const void**, std::size_t*) {}
#endif

#if defined(__SANITIZE_THREAD__)
void* create_fiber() { return __tsan_create_fiber(0); }
void destroy_fiber(void* fiber) { __tsan_destroy_fiber(fiber); }
void* current_fiber() { return __tsan_get_current_fiber(); }
void switch_to(void* fiber) { __tsan_switch_to_fiber(fiber, 0); }
void lock_handed_off(core::Mutex& m) {
  __tsan_mutex_pre_unlock(&m, 0);
  __tsan_mutex_post_unlock(&m, 0);
}
void lock_taken_over(core::Mutex& m) {
  __tsan_mutex_pre_lock(&m, 0);
  __tsan_mutex_post_lock(&m, 0, 0);
}
#else
void* create_fiber() { return nullptr; }
void destroy_fiber(void*) {}
void* current_fiber() { return nullptr; }
void switch_to(void*) {}
void lock_handed_off(core::Mutex&) {}
void lock_taken_over(core::Mutex&) {}
#endif

} // namespace san

// The C++ runtime keeps the exceptions being handled in a per-thread record
// (the Itanium C++ ABI's __cxa_eh_globals, whose layout this mirrors).  A
// fiber that parks inside a catch handler must take its record along: it
// may resume on another worker, and other fibers catch exceptions on this
// thread meanwhile.  Without that, a rethrow could raise another rank's
// exception.
struct EhGlobals {
  void* caught_exceptions = nullptr;
  unsigned int uncaught_exceptions = 0;
};

EhGlobals& eh_globals() { return *reinterpret_cast<EhGlobals*>(abi::__cxa_get_globals()); }

// a fiber's guard page + stack mapping, unmapped when the fiber is destroyed
// -- including when run() throws part-way through set-up
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

// 1 MiB of lazily committed stack per fiber (plus one guard page): the rank
// bodies keep bulk data on the heap, and virtual address space is the only
// per-rank cost until a page is touched
constexpr std::size_t kStackBytes = std::size_t{1} << 20;

} // namespace

struct RankScheduler::Fiber {
  enum class State : std::uint8_t { Runnable, Running, Parked, Done };

  RankScheduler* owner = nullptr;
  RankContext* ctx = nullptr;
  ucontext_t uc{};
  StackMap stack;
  char* stack_bottom = nullptr; // lowest usable address, above the guard page
  State state = State::Runnable;
  bool deadlocked = false;  // resumed by the deadlock rule, not a wakeup
  Worker* worker = nullptr; // the worker running it, set on every resume
  EhGlobals eh;             // its exceptions being handled, while switched out
  void* asan_fake_stack = nullptr;
  void* tsan_fiber = san::create_fiber();

  Fiber() = default;
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber() { san::destroy_fiber(tsan_fiber); }
};

struct RankScheduler::Worker {
  ucontext_t uc{};
  // the loop's hold on the scheduler lock; a fiber switching out takes it
  // through this guard, and the loop finds it held on return
  core::MutexLock* lock = nullptr;
  void* tsan_fiber = nullptr;
  void* asan_fake_stack = nullptr;
  // this worker's own stack, reported by the first fiber it resumes
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
};

RankScheduler::RankScheduler() = default;
RankScheduler::~RankScheduler() = default;

void RankScheduler::trampoline(unsigned hi, unsigned lo) {
  // makecontext only passes ints; the fiber pointer rides in two halves
  Fiber& f = *reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) |
                                       static_cast<std::uintptr_t>(lo));
  san::finish_switch(nullptr, &f.worker->stack_bottom, &f.worker->stack_size);
  RankScheduler& self = *f.owner;
  (*self.body_)(*f.ctx); // the body wrapper catches everything
  f.worker->lock->lock();
  f.state = Fiber::State::Done;
  --self.live_;
  self.suspend(f);
}

void RankScheduler::suspend(Fiber& f) {
  // Switch to the worker running the fiber now.  A finished fiber leaves
  // through here too, not through a uc_link fixed at makecontext: it may
  // finish on a different worker from the one it started on, and that one
  // may be running another fiber by now.
  Worker& w = *f.worker;
  const bool done = f.state == Fiber::State::Done;
  san::lock_handed_off(mutex_);
  san::start_switch(done ? nullptr : &f.asan_fake_stack, w.stack_bottom, w.stack_size);
  san::switch_to(w.tsan_fiber);
  if (done) ::setcontext(&w.uc); // does not return
  ::swapcontext(&f.uc, &w.uc);
  // resumed, perhaps by another worker
  san::finish_switch(f.asan_fake_stack, &f.worker->stack_bottom, &f.worker->stack_size);
}

void RankScheduler::resume(Worker& w, Fiber& f) {
  // rebind the thread-local tracer and recorder per resume: the binding
  // must follow the fiber from worker to worker.  The recorder binds
  // unconditionally: a disabled recorder's hooks are no-ops, so the cost
  // matches the tracer's null check.
  trace::ScopedTracer bind_tracer(trace_on_ ? &f.ctx->tracer() : nullptr);
  telemetry::ScopedRecorder bind_recorder(&f.ctx->recorder());
  // a fiber always switches back to the worker that resumed it, so this
  // thread's exception record is the fiber's on return
  EhGlobals& eh = eh_globals();
  const EhGlobals worker_eh = std::exchange(eh, f.eh);
  san::start_switch(&w.asan_fake_stack, f.stack_bottom, kStackBytes);
  san::switch_to(f.tsan_fiber);
  ::swapcontext(&w.uc, &f.uc);
  san::finish_switch(w.asan_fake_stack, nullptr, nullptr);
  san::lock_taken_over(mutex_);
  f.eh = std::exchange(eh, worker_eh);
}

void RankScheduler::make_runnable(Fiber& f) {
  f.state = Fiber::State::Runnable;
  runnable_.emplace(f.ctx->clock().now_us, f.ctx->rank());
  if (idle_workers_ > 0) idle_.notify_one();
}

void RankScheduler::work(Worker& w) {
  w.tsan_fiber = san::current_fiber();
  core::MutexLock lock(mutex_);
  w.lock = &lock;
  while (live_ > 0) {
    if (runnable_.empty()) {
      if (running_ == 0) {
        // every live fiber is parked, so no wakeup can ever come: resume
        // the lowest-ranked one, whose park() reports the deadlock
        for (auto& f : fibers_)
          if (f->state == Fiber::State::Parked) {
            f->deadlocked = true;
            make_runnable(*f);
            break;
          }
        continue;
      }
      ++idle_workers_;
      idle_.wait(lock);
      --idle_workers_;
      continue;
    }
    Fiber& f = *fibers_[static_cast<std::size_t>(runnable_.top().second)];
    runnable_.pop();
    f.state = Fiber::State::Running;
    f.worker = &w;
    ++running_;
    lock.unlock();
    resume(w, f); // back once f parked or finished, with the lock held again
    --running_;
  }
  if (idle_workers_ > 0) idle_.notify_all(); // the run is over
  w.lock = nullptr;
}

void RankScheduler::run(const std::vector<RankContext*>& ranks, bool trace_on,
                        const std::function<void(RankContext&)>& body) {
  body_ = &body;
  trace_on_ = trace_on;
  const long page = ::sysconf(_SC_PAGESIZE);
  const std::size_t guard = page > 0 ? static_cast<std::size_t>(page) : 4096;

  fibers_.clear();
  fibers_.reserve(ranks.size());
  for (RankContext* ctx : ranks) {
    auto f = std::make_unique<Fiber>();
    f->owner = this;
    f->ctx = ctx;
    f->stack.bytes = guard + kStackBytes;
    f->stack.base =
        ::mmap(nullptr, f->stack.bytes, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (f->stack.base == MAP_FAILED)
      throw std::runtime_error("rank scheduler: mmap of a fiber stack failed");
    // stacks grow downward: the guard page sits at the low end of the map
    f->stack_bottom = static_cast<char*>(f->stack.base) + guard;
    if (::mprotect(f->stack_bottom, kStackBytes, PROT_READ | PROT_WRITE) != 0)
      throw std::runtime_error("rank scheduler: mprotect of a fiber stack failed");
    if (::getcontext(&f->uc) != 0) throw std::runtime_error("rank scheduler: getcontext failed");
    f->uc.uc_stack.ss_sp = f->stack_bottom;
    f->uc.uc_stack.ss_size = kStackBytes;
    f->uc.uc_link = nullptr; // a finished fiber leaves through suspend()
    const auto fp = reinterpret_cast<std::uintptr_t>(f.get());
    ::makecontext(&f->uc, reinterpret_cast<void (*)()>(&RankScheduler::trampoline), 2,
                  static_cast<unsigned>(fp >> 32), static_cast<unsigned>(fp & 0xffffffffu));
    fibers_.push_back(std::move(f));
  }
  {
    core::MutexLock lock(mutex_);
    runnable_ = {};
    running_ = 0;
    idle_workers_ = 0;
    live_ = static_cast<int>(fibers_.size());
    for (auto& f : fibers_) make_runnable(*f);
  }

  // the calling thread is worker 0
  std::vector<Worker> pool(static_cast<std::size_t>(
      rank_workers(static_cast<int>(ranks.size()), exec::thread_budget())));
  std::vector<std::thread> threads;
  threads.reserve(pool.size() - 1);
  for (std::size_t i = 1; i < pool.size(); ++i) {
    try {
      threads.emplace_back([this, &w = pool[i]] { work(w); });
    } catch (const std::exception&) {
      break; // results do not depend on K: run on the workers that started
    }
  }
  work(pool[0]);
  for (auto& t : threads) t.join();

  fibers_.clear(); // unmaps every stack
  body_ = nullptr;
}

bool RankScheduler::park(int rank, core::MutexLock& lock) {
  Fiber& f = *fibers_[static_cast<std::size_t>(rank)];
  // Take the scheduler lock before letting go of the cluster lock: a waker
  // that claims this rank under the cluster lock must then wait for the
  // worker to release the scheduler lock, i.e. for this context to be saved.
  f.worker->lock->lock();
  f.state = Fiber::State::Parked;
  lock.unlock();
  suspend(f);
  lock.lock();
  return std::exchange(f.deadlocked, false);
}

void RankScheduler::wake(int rank) {
  Fiber& f = *fibers_[static_cast<std::size_t>(rank)];
  core::MutexLock lock(mutex_);
  if (f.state == Fiber::State::Parked) make_runnable(f);
}

void RankScheduler::wake_all() {
  core::MutexLock lock(mutex_);
  for (auto& f : fibers_)
    if (f->state == Fiber::State::Parked) make_runnable(*f);
}

} // namespace quda::sim
