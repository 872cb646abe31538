#pragma once
// Host execution engine: a shared, lazily-initialized thread pool driving
// every kernel that runs numerics (dslash, clover, fused BLAS, face
// gather/scatter, precision conversion) through deterministic work
// decomposition.  This speeds up *wall clock* only -- simulated-time
// charging through the device model is completely unchanged.
//
// Determinism contract
// --------------------
// * parallel_for splits [begin, end) into fixed-size chunks of `grain`
//   sites.  Chunk boundaries depend only on (range, grain) -- never on the
//   thread budget -- and chunks write disjoint sites, so element-wise
//   kernels produce bit-identical fields at every thread count.
// * parallel_reduce computes one partial per chunk by *serial* in-order
//   accumulation within the chunk, then folds the partials left-to-right
//   in chunk-index order.  Because the chunk shape is fixed, the floating
//   point addition tree is identical at every thread count: reductions are
//   bit-identical whether run with 1, 2, or 64 threads.  When the whole
//   range fits in one chunk the fold degenerates to exactly the historical
//   serial loop, so every small-lattice (<= kBlasGrain sites) reduction --
//   which includes all tier-1 Real-mode tests and the fault-injection
//   suite -- reproduces the pre-engine results bit-for-bit.
// * The per-rank discrete-event simulation is untouched: fault draws,
//   message schedules, and clock charging happen on the rank's fiber, never
//   inside worker chunks.
//
// Thread budget
// -------------
// One global budget shared by every rank of a VirtualCluster run, read
// once from QUDA_SIM_THREADS (default: hardware_concurrency), so an
// N-rank simulation does not oversubscribe the machine with N private
// pools.  The pool owns budget-1 workers; calling threads participate in
// their own batches, so budget=1 means "no workers, run inline" -- the
// exact historical serial code path.  Nested parallel regions (a chunk
// body calling parallel_for) degrade to inline serial execution instead of
// deadlocking the pool.

#include <cstdint>
#include <functional>
#include <vector>

namespace quda::exec {

// default chunk grains (sites per chunk).  kBlasGrain is part of the
// determinism contract above: ranges up to kBlasGrain sites reduce in one
// chunk, i.e. in the historical serial order.  Do not shrink it casually.
// kSiteGrain serves only element-wise parallel_for loops (dslash, clover
// apply, clover set-up), so no bit depends on it; it is sized so one rank's
// parity at the strong-scaling volumes (2,048 sites at 8^3 x 8) splits into
// enough chunks to keep the shared pool busy (DESIGN.md section 6).
inline constexpr std::int64_t kSiteGrain = 64;    // dslash/clover site loops
inline constexpr std::int64_t kBlasGrain = 4096;  // BLAS1 + reduction sweeps
inline constexpr std::int64_t kFaceGrain = 512;   // face gather/scatter

// the global worker budget (>= 1); first call reads QUDA_SIM_THREADS
int thread_budget();

// override the budget (n <= 0 re-reads the environment/default).  Stops and
// restarts the pool; must not race concurrent parallel_for calls -- intended
// for tests and benchmarks only.
void set_thread_budget(int n);

namespace detail {

inline std::int64_t chunk_count(std::int64_t n, std::int64_t grain) {
  return n <= 0 ? 0 : (n + grain - 1) / grain;
}

// run task(c) for every c in [0, num_chunks) on the shared pool; blocks
// until all chunks completed; rethrows the first chunk exception
void run_chunks(std::int64_t num_chunks, const std::function<void(std::int64_t)>& task);

} // namespace detail

// fn(chunk_begin, chunk_end) over contiguous chunks covering [begin, end)
template <typename Fn>
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain, Fn&& fn) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  const std::int64_t chunks = detail::chunk_count(n, grain);
  if (chunks == 1) {
    fn(begin, end);
    return;
  }
  detail::run_chunks(chunks, [&](std::int64_t c) {
    const std::int64_t b = begin + c * grain;
    const std::int64_t e = b + grain < end ? b + grain : end;
    fn(b, e);
  });
}

// partial(chunk_begin, chunk_end) -> T accumulated serially inside the
// chunk; partials folded with += in chunk order (see determinism contract).
// T must be zero-initialized by T{} and additive via +=.
template <typename T, typename Fn>
T parallel_reduce(std::int64_t begin, std::int64_t end, std::int64_t grain, Fn&& partial) {
  const std::int64_t n = end - begin;
  if (n <= 0) return T{};
  if (grain < 1) grain = 1;
  const std::int64_t chunks = detail::chunk_count(n, grain);
  if (chunks == 1) return partial(begin, end);
  std::vector<T> parts(static_cast<std::size_t>(chunks));
  detail::run_chunks(chunks, [&](std::int64_t c) {
    const std::int64_t b = begin + c * grain;
    const std::int64_t e = b + grain < end ? b + grain : end;
    parts[static_cast<std::size_t>(c)] = partial(b, e);
  });
  T total{};
  for (const T& p : parts) total += p;
  return total;
}

} // namespace quda::exec
