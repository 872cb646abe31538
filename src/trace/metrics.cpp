#include "trace/metrics.h"

#include <utility>

namespace quda::trace {

void classify(std::span<const Event> events, RankWindows& w, Metrics& m) {
  m.events += static_cast<long>(events.size());
  for (const Event& e : events) {
    switch (info(e.kind).cls) {
      case Class::Isend:
        ++m.messages;
        m.halo_bytes += e.bytes;
        break;
      case Class::Retry: ++m.retries; break;
      case Class::ChecksumError: ++m.checksum_errors; break;
      case Class::Kernel: {
        const double dur = e.end_us - e.ts_us;
        m.kernel_us += dur;
        m.kernels[info(e.kind).name].add(dur);
        w.kernel.emplace_back(e.ts_us, e.end_us);
        break;
      }
      case Class::Flight:
        if (e.link < 0 || e.link > 2) break;
        (e.link == 0 ? m.shm_bytes : e.link == 1 ? m.ib_bytes : m.xswitch_bytes) += e.bytes;
        m.flight_us[static_cast<std::size_t>(e.link)] += e.end_us - e.ts_us;
        break;
      case Class::HaloComm: w.comm.emplace_back(e.ts_us, e.end_us); break;
      case Class::SyncCopy:
      case Class::AsyncCopy: w.pcie.emplace_back(e.ts_us, e.end_us); break;
      case Class::Checkpoint: w.stall.emplace_back(e.ts_us, e.end_us); break;
      case Class::Recovery: w.recovery.emplace_back(e.ts_us, e.end_us); break;
      default: break;
    }
  }
}

Metrics compute_metrics(const TraceReport& report) {
  Metrics m;
  for (const auto& rank_events : report.per_rank) {
    RankWindows w;
    classify(rank_events, w, m);
    const auto comm_union = interval_union(std::move(w.comm));
    const auto kernel_union = interval_union(std::move(w.kernel));
    m.comm_us += total_length(comm_union);
    m.overlapped_us += intersection_length(comm_union, kernel_union);
  }
  m.overlap_efficiency = m.comm_us > 0 ? m.overlapped_us / m.comm_us : 0.0;
  return m;
}

} // namespace quda::trace
