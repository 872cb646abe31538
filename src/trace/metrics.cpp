#include "trace/metrics.h"

#include "trace/intervals.h"

#include <cstring>
#include <utility>
#include <vector>

namespace quda::trace {

Metrics compute_metrics(const TraceReport& report) {
  Metrics m;
  for (const auto& rank_events : report.per_rank) {
    std::vector<Interval> comm_windows;
    std::vector<Interval> kernel_windows;
    for (const Event& e : rank_events) {
      ++m.events;
      if (e.instant) {
        if (std::strcmp(e.name, "isend") == 0) {
          ++m.messages;
          m.halo_bytes += e.bytes;
        } else if (std::strcmp(e.name, "retry") == 0) {
          ++m.retries;
        } else if (std::strcmp(e.name, "checksum_error") == 0) {
          ++m.checksum_errors;
        }
        continue;
      }
      if (e.track == kTrackComm && std::strcmp(e.name, "msg_flight") == 0) {
        // delivered wire bytes by link class (sim::LinkClass numeric values)
        if (e.link == 0) {
          m.shm_bytes += e.bytes;
        } else if (e.link == 1) {
          m.ib_bytes += e.bytes;
        } else if (e.link == 2) {
          m.xswitch_bytes += e.bytes;
        }
      }
      if (e.cat == Cat::Kernel && e.track >= 0) {
        m.kernel_us += e.dur_us;
        m.kernels[e.name].add(e.dur_us);
        kernel_windows.emplace_back(e.ts_us, e.end_us);
      } else if (e.track == kTrackComm && std::strcmp(e.name, "halo_comm") == 0) {
        comm_windows.emplace_back(e.ts_us, e.end_us);
      }
    }
    const auto comm_union = interval_union(std::move(comm_windows));
    const auto kernel_union = interval_union(std::move(kernel_windows));
    m.comm_us += total_length(comm_union);
    m.overlapped_us += intersection_length(comm_union, kernel_union);
  }
  m.overlap_efficiency = m.comm_us > 0 ? m.overlapped_us / m.comm_us : 0.0;
  return m;
}

} // namespace quda::trace
