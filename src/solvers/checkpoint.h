#pragma once
// Coordinated checkpointing of solver Krylov state (DESIGN.md §10).
//
// At configurable reliable-update boundaries every rank snapshots its local
// high-precision iterate to simulated stable storage and the cluster runs a
// two-phase commit: write (device->host staging + storage write, charged to
// the sim clock), then a commit vote over the existing allreduce, then the
// commit marker.  A rank death anywhere before the vote completes leaves the
// previous committed checkpoint as the recovery point -- the pending slot is
// simply never promoted -- so survivors and the respawned warm spare always
// roll back to the same iterate.
//
// Serialization goes through SpinorField::load() over the *interior* sites
// only: ghost end zones hold transient halo data that may be stale between
// exchanges, and folding them into the snapshot would break the bit-identical
// digest guarantee across QUDA_SIM_THREADS budgets.  Snapshot payloads are
// double regardless of the field precision, so the FNV-1a digest pins the
// exact iterate the solver would resume from.

#include "comm/qmp.h"
#include "lattice/spinor_field.h"
#include "trace/telemetry.h"
#include "trace/trace.h"

#include <cstdint>
#include <cstring>
#include <vector>

namespace quda {

// one entry of the per-rank checkpoint event log (exported when the
// QUDA_SIM_CKPT environment variable names a path)
struct CheckpointEvent {
  const char* action = ""; // "write" | "commit" | "abort" | "restore"
  int iteration = 0;       // solver iteration the snapshot belongs to
  double time_us = 0;      // sim time the event completed
  std::uint64_t digest = 0;
  std::int64_t bytes = 0;
};

template <typename P> class CheckpointManager {
public:
  CheckpointManager(comm::QmpGrid& grid, int interval) : grid_(grid), interval_(interval) {}

  bool active() const { return interval_ > 0; }
  int interval() const { return interval_; }

  // Solver hook, called at every checkpointable boundary (an accepted
  // reliable update in the mixed solver, every 10th iteration in the
  // uniform solvers): every `interval` boundaries, take a coordinated
  // checkpoint of the current iterate.
  void observe_boundary(const SpinorField<P>& x, int iteration) {
    if (!active()) return;
    if (++boundaries_ % interval_ != 0) return;
    checkpoint(x, iteration);
  }

  // Two-phase coordinated checkpoint.  Throws (RankFailure / RankDeath via
  // the commit vote) when the epoch dies mid-protocol; the pending slot is
  // then abandoned and the last committed checkpoint stands.
  void checkpoint(const SpinorField<P>& x, int iteration) {
    sim::RankContext& ctx = grid_.context();
    auto& counters = ctx.faults().counters();
    auto& tracer = ctx.tracer();
    const double begin_us = ctx.clock().now_us;

    serialize(x, pending_.data);
    pending_.digest = digest_of(pending_.data);
    pending_.iteration = iteration;
    pending_.bytes = static_cast<std::int64_t>(pending_.data.size() * sizeof(double));
    pending_.valid = true;

    // phase 1: stage the snapshot over PCIe and stream it to stable storage
    const double write_us =
        ctx.spec().bus.transfer_time_us(x.device_bytes(), gpusim::CopyDir::DeviceToHost,
                                        /*async=*/false, ctx.spec().good_numa_binding) +
        ctx.spec().storage.transfer_time_us(pending_.bytes);
    ctx.clock().advance(write_us);
    counters.checkpoint_us += write_us;
    tracer.span(trace::Kind::Checkpoint, begin_us, ctx.clock().now_us, pending_.bytes, -1, -1,
                iteration);
    log_.push_back({"write", iteration, ctx.clock().now_us, pending_.digest, pending_.bytes});

    // phase 2: commit vote -- the collective doubles as the barrier that
    // proves every rank's write reached stable storage
    try {
      grid_.sum(1.0);
    } catch (...) {
      pending_.valid = false;
      tracer.instant(trace::Kind::CkptAbort, ctx.clock().now_us, 0, -1, -1, iteration);
      log_.push_back({"abort", iteration, ctx.clock().now_us, pending_.digest, pending_.bytes});
      throw;
    }

    // commit marker: one latency-only storage op, then promote the slot
    const double commit_begin_us = ctx.clock().now_us;
    ctx.clock().advance(ctx.spec().storage.latency_us);
    counters.checkpoint_us += ctx.spec().storage.latency_us;
    committed_ = pending_;
    pending_.valid = false;
    ++counters.checkpoints_committed;
    if (auto* rec = telemetry::current()) rec->flag(telemetry::kCheckpoint);
    tracer.span(trace::Kind::CkptCommit, commit_begin_us, ctx.clock().now_us, 0, -1, -1, iteration);
    log_.push_back(
        {"commit", iteration, ctx.clock().now_us, committed_.digest, committed_.bytes});
  }

  // Restore the last committed iterate into x, charging storage read +
  // host->device staging.  Returns the committed iteration, or -1 when no
  // checkpoint is committed (x is left untouched; the recovery driver
  // restarts from the initial guess instead).
  int restore(SpinorField<P>& x) {
    sim::RankContext& ctx = grid_.context();
    if (!committed_.valid) return -1;
    auto& counters = ctx.faults().counters();
    const double read_us =
        ctx.spec().storage.transfer_time_us(committed_.bytes) +
        ctx.spec().bus.transfer_time_us(x.device_bytes(), gpusim::CopyDir::HostToDevice,
                                        /*async=*/false, ctx.spec().good_numa_binding);
    ctx.clock().advance(read_us);
    counters.restore_us += read_us;
    ++counters.restores;
    deserialize(committed_.data, x);
    log_.push_back({"restore", committed_.iteration, ctx.clock().now_us, committed_.digest,
                    committed_.bytes});
    return committed_.iteration;
  }

  std::uint64_t committed_digest() const { return committed_.valid ? committed_.digest : 0; }
  const std::vector<CheckpointEvent>& log() const { return log_; }

private:
  struct Slot {
    bool valid = false;
    int iteration = 0;
    std::uint64_t digest = 0;
    std::int64_t bytes = 0;
    std::vector<double> data;
  };

  static void serialize(const SpinorField<P>& x, std::vector<double>& out) {
    out.resize(static_cast<std::size_t>(x.sites()) * SpinorField<P>::kNint);
    std::size_t w = 0;
    for (std::int64_t site = 0; site < x.sites(); ++site) {
      const auto sp = x.load(site);
      for (std::size_t spin = 0; spin < 4; ++spin)
        for (std::size_t c = 0; c < 3; ++c) {
          out[w++] = static_cast<double>(sp.s[spin][c].re);
          out[w++] = static_cast<double>(sp.s[spin][c].im);
        }
    }
  }

  static void deserialize(const std::vector<double>& in, SpinorField<P>& x) {
    using real_t = typename P::real_t;
    std::size_t r = 0;
    for (std::int64_t site = 0; site < x.sites(); ++site) {
      Spinor<real_t> sp;
      for (std::size_t spin = 0; spin < 4; ++spin)
        for (std::size_t c = 0; c < 3; ++c) {
          const real_t re = static_cast<real_t>(in[r++]);
          const real_t im = static_cast<real_t>(in[r++]);
          sp.s[spin][c] = Complex<real_t>(re, im);
        }
      x.store(site, sp);
    }
  }

  static std::uint64_t digest_of(const std::vector<double>& data) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (double d : data) {
      std::uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      for (int i = 0; i < 8; ++i) {
        h ^= (bits >> (8 * i)) & 0xffull;
        h *= 0x100000001b3ull;
      }
    }
    return h;
  }

  comm::QmpGrid& grid_;
  int interval_ = 0;
  long boundaries_ = 0;
  Slot pending_;
  Slot committed_;
  std::vector<CheckpointEvent> log_;
};

} // namespace quda
