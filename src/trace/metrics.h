#pragma once
// Aggregated metrics derived from a TraceReport, and the per-rank event
// classifier they share with the telemetry timelines and monitors.
//
// classify() sorts one rank's events by their kind's Class into windows
// (kernel executions, halo comm, PCIe, checkpoint stalls, recovery) and
// Metrics counts and sums (messages, retries, link traffic, kernel time).
// compute_metrics folds them into the headline numbers the benches merge
// into their BENCH_<name>.json; telemetry.h reads the same windows and
// sums for its utilization timelines, link-bandwidth gauges and
// overlap-collapse monitor.  Overlap is therefore measured one way
// everywhere: per rank, the union of halo_comm windows intersected with
// the union of kernel spans across the device streams.

#include "trace/intervals.h"
#include "trace/trace.h"

#include <array>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace quda::trace {

// running stats for one kernel name across all ranks/streams
struct KernelStat {
  long count = 0;
  double total_us = 0;
  double min_us = 0;
  double max_us = 0;

  void add(double dur_us) {
    if (count == 0) {
      min_us = max_us = dur_us;
    } else {
      if (dur_us < min_us) min_us = dur_us;
      if (dur_us > max_us) max_us = dur_us;
    }
    ++count;
    total_us += dur_us;
  }

  // guarded mean: an empty histogram (e.g. a zero-iteration solve) reports 0
  // rather than dividing by a zero count
  double mean_us() const { return count > 0 ? total_us / static_cast<double>(count) : 0.0; }
};

// one rank's classified spans as [ts_us, end_us) windows, in event order
// (consumers union them)
struct RankWindows {
  std::vector<Interval> kernel;   // kernel executions on the device streams
  std::vector<Interval> comm;     // halo exchange windows
  std::vector<Interval> pcie;     // host<->device copies, sync and async
  std::vector<Interval> stall;    // checkpoint I/O
  std::vector<Interval> recovery; // rank-failure detect/respawn/rollback/restore/resume
};

struct Metrics {
  long events = 0;          // total recorded events across ranks
  long messages = 0;        // isend count
  long halo_bytes = 0;      // modeled bytes across all isends
  long retries = 0;         // reliable-layer retransmissions
  long checksum_errors = 0; // corrupt frames detected on receive
  // delivered wire traffic split by link class (msg_flight events tagged by
  // the transport; all zero on pre-hierarchy traces with untagged flights)
  long shm_bytes = 0;     // same-node shared-memory deliveries
  long ib_bytes = 0;      // one-hop InfiniBand deliveries
  long xswitch_bytes = 0; // cross-leaf-switch fat-tree deliveries
  std::array<double, 3> flight_us{}; // their flight time, indexed by sim::LinkClass
  double comm_us = 0;       // sum over ranks of union of halo_comm windows
  double overlapped_us = 0; // portion of comm_us covered by kernel spans
  double overlap_efficiency = 0; // overlapped_us / comm_us (0 when no comm)
  double kernel_us = 0;          // total device kernel time
  std::map<std::string, KernelStat> kernels;
};

// The classifier: append one rank's windows to `windows` and add its
// events to the counts and sums of `m` (all but comm_us, overlapped_us and
// overlap_efficiency, which take the windows' unions).  A caller threads
// one Metrics through the ranks in rank order, so every floating-point sum
// runs in rank-then-event order.
void classify(std::span<const Event> events, RankWindows& windows, Metrics& m);

Metrics compute_metrics(const TraceReport& report);

} // namespace quda::trace
