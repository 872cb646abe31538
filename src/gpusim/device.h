#pragma once
// A simulated CUDA device: stream timelines, a copy engine, a memory
// allocator with capacity accounting, and synchronization primitives whose
// semantics mirror the CUDA runtime calls the paper's implementation uses
// (cudaMemcpy, cudaMemcpyAsync, cudaStreamSynchronize, kernel launches on
// streams).
//
// Time is a double in microseconds.  The device does not own a clock; every
// call takes the host's current time and returns the host's time after the
// call (blocking calls advance it, asynchronous calls add only issue
// overhead).  The rank's SimClock in the cluster simulator owns "now".
//
// GT200 devices have a single copy engine: all host/device transfers
// serialize on it regardless of stream (Fermi relaxes this -- footnote 4 of
// the paper -- modeled by DeviceSpec::dual_copy_engine).

#include "gpusim/device_spec.h"
#include "gpusim/kernel_model.h"
#include "trace/trace.h"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace quda::gpusim {

class Device {
public:
  static constexpr int kNumStreams = 3; // interior + two face streams (Section VI-D2)
  static constexpr double kAsyncIssueOverheadUs = 1.5; // host cost of queueing an async op

  Device(const DeviceSpec& spec, const BusModel& bus, bool good_numa = true)
      : spec_(spec), bus_(bus), good_numa_(good_numa),
        stream_ready_(kNumStreams, 0.0), copy_engines_(spec.dual_copy_engine ? 2 : 1, 0.0) {}

  const DeviceSpec& spec() const { return spec_; }
  const BusModel& bus() const { return bus_; }
  bool good_numa() const { return good_numa_; }

  // --- memory ---------------------------------------------------------------

  // allocation accounting only; the payload lives in host std::vectors.
  // ~180 MiB of the card is reserved for the CUDA context/driver, as on the
  // real cards.
  static constexpr std::int64_t kDriverReservedBytes = 180ll << 20;

  void malloc_bytes(std::int64_t bytes) {
    if (bytes < 0) throw std::invalid_argument("negative allocation");
    if (used_ + bytes > spec_.ram_bytes() - kDriverReservedBytes)
      throw std::bad_alloc();
    used_ += bytes;
    peak_ = std::max(peak_, used_);
  }
  void free_bytes(std::int64_t bytes) { used_ -= bytes; }
  std::int64_t bytes_used() const { return used_; }
  std::int64_t bytes_peak() const { return peak_; }
  std::int64_t bytes_capacity() const { return spec_.ram_bytes() - kDriverReservedBytes; }
  bool fits(std::int64_t bytes) const { return used_ + bytes <= bytes_capacity(); }

  // --- transfers --------------------------------------------------------------

  // cudaMemcpy: host blocks until the transfer completes
  double memcpy_sync(double host_now, std::int64_t bytes, CopyDir dir) {
    double& engine = pick_engine(dir);
    const double start = std::max(host_now, engine);
    const double done = start + bus_.transfer_time_us(bytes, dir, /*async=*/false, good_numa_);
    engine = done;
    if (trace::RankTracer* tr = trace::current()) {
      tr->span(dir == CopyDir::HostToDevice ? trace::Kind::MemcpyH2D : trace::Kind::MemcpyD2H,
               start, done, bytes);
      // edge: issued by the host at host_now (start-host_now = engine wait),
      // weight = bus occupancy of the transfer
      tr->dep(-1, host_now, done - start);
    }
    return done;
  }

  // cudaMemcpyAsync on a stream: host pays only the issue overhead; the
  // transfer occupies the copy engine and the stream
  double memcpy_async(double host_now, int stream, std::int64_t bytes, CopyDir dir) {
    double& engine = pick_engine(dir);
    double& s = stream_ready_.at(static_cast<std::size_t>(stream));
    const double start = std::max({host_now, engine, s});
    const double done = start + bus_.transfer_time_us(bytes, dir, /*async=*/true, good_numa_);
    engine = done;
    s = done;
    if (trace::RankTracer* tr = trace::current()) {
      tr->span(dir == CopyDir::HostToDevice ? trace::Kind::MemcpyAsyncH2D
                                            : trace::Kind::MemcpyAsyncD2H,
               trace::Stream{stream}, start, done, bytes);
      tr->dep(-1, host_now, done - start);
    }
    return host_now + kAsyncIssueOverheadUs;
  }

  // --- kernels ----------------------------------------------------------------

  // asynchronous kernel launch on a stream
  double launch_kernel(double host_now, int stream, const KernelCost& cost,
                       const LaunchConfig& launch, bool double_precision = false) {
    double& s = stream_ready_.at(static_cast<std::size_t>(stream));
    const double start = std::max(host_now, s) + kKernelLaunchOverheadUs;
    s = start + kernel_duration_us(cost, launch, spec_, double_precision);
    if (trace::RankTracer* tr = trace::current()) {
      tr->span(cost.kind, trace::Stream{stream}, start, s, static_cast<std::int64_t>(cost.bytes));
      // edge: issued by the host at host_now, weight = execution duration
      // (the launch overhead sits between the gating value and `start`)
      tr->dep(-1, host_now, s - start);
    }
    return host_now + kAsyncIssueOverheadUs;
  }

  // --- synchronization ---------------------------------------------------------

  double stream_synchronize(double host_now, int stream) const {
    const double t = std::max(host_now, stream_ready_.at(static_cast<std::size_t>(stream)));
    if (trace::RankTracer* tr = trace::current())
      tr->span(trace::Kind::StreamSync, host_now, t, 0, -1, stream);
    return t;
  }

  double device_synchronize(double host_now) const {
    double t = host_now;
    for (double s : stream_ready_) t = std::max(t, s);
    for (double e : copy_engines_) t = std::max(t, e);
    if (trace::RankTracer* tr = trace::current())
      tr->span(trace::Kind::DeviceSync, host_now, t);
    return t;
  }

  // make a stream wait for another stream's work issued so far (cuda event)
  void stream_wait_stream(int waiter, int waitee) {
    double& w = stream_ready_.at(static_cast<std::size_t>(waiter));
    const double src = stream_ready_.at(static_cast<std::size_t>(waitee));
    w = std::max(w, src);
    if (trace::RankTracer* tr = trace::current()) {
      // cross-stream edge: the waiter's next op is gated by the waitee's
      // ready value at insertion time (tag = waitee stream)
      tr->instant(trace::Kind::StreamWait, trace::Stream{waiter}, tr->now_us(), waitee);
      tr->dep(-1, src, 0);
    }
  }

  double stream_ready(int stream) const {
    return stream_ready_.at(static_cast<std::size_t>(stream));
  }

private:
  double& pick_engine(CopyDir dir) {
    // dual-engine devices dedicate one engine per direction
    if (copy_engines_.size() == 2)
      return copy_engines_[dir == CopyDir::HostToDevice ? 0 : 1];
    return copy_engines_[0];
  }

  DeviceSpec spec_;
  BusModel bus_;
  bool good_numa_;
  std::vector<double> stream_ready_;
  std::vector<double> copy_engines_;
  std::int64_t used_ = 0;
  std::int64_t peak_ = 0;
};

} // namespace quda::gpusim
