#include "trace/attribution.h"

#include <algorithm>
#include <cstdio>

namespace quda::trace {

const char* path_cat_name(PathCat cat) {
  switch (cat) {
    case PathCat::Interior: return "interior_compute";
    case PathCat::Boundary: return "boundary_compute";
    case PathCat::ExposedComm: return "exposed_comm";
    case PathCat::Pcie: return "pcie_transfer";
    case PathCat::StallSync: return "stall_sync";
    case PathCat::SolverSerial: return "solver_serial";
    case PathCat::Recovery: return "recovery";
  }
  return "unknown";
}

PathCat classify_segment(const PathSegment& seg) {
  switch (seg.kind) {
    case SegKind::KernelExec:
      return seg.op == Kind::DslashBoundary ? PathCat::Boundary : PathCat::Interior;
    case SegKind::CopyExec:
      return PathCat::Pcie;
    case SegKind::MsgFlight:
    case SegKind::CommTail:
    case SegKind::CollectiveTree:
      return PathCat::ExposedComm;
    case SegKind::LaunchGap:
    case SegKind::SyncStall:
      return PathCat::StallSync;
    case SegKind::HostGap:
      switch (seg.gap) {
        case GapKind::CommOverhead: return PathCat::ExposedComm;
        case GapKind::DeviceIssue: return PathCat::StallSync;
        case GapKind::Solver: return PathCat::SolverSerial;
        case GapKind::Recovery: return PathCat::Recovery;
      }
  }
  return PathCat::SolverSerial;
}

CritSummary analyze_solve(const TraceReport& report, const ModelConfig& config) {
  CritSummary s;
  const ProgramModel model = build_model(report, config);
  if (!model.ok()) {
    s.error = model.error;
    return s;
  }

  const CriticalPath cp = critical_path(model);
  s.makespan_us = cp.makespan_us;
  s.path_us = cp.path_us;
  s.critical_rank = cp.critical_rank;
  s.cross_rank_jumps = cp.cross_rank_jumps;
  s.segments = cp.segments.size();
  if (!cp.ok) {
    s.error = cp.error;
    return s;
  }
  for (const PathSegment& seg : cp.segments)
    s.cat_us[static_cast<int>(classify_segment(seg))] += seg.length_us();

  s.compute_bound_us = compute_bound_us(model);

  const Projections p = replay(model);
  if (!p.ok) {
    s.error = p.error;
    return s;
  }
  s.replay_identity_us = p.identity_us;
  // a reduced-weight projection is <= the measurement in exact arithmetic;
  // clamp away the forward replay's accumulated rounding so the reported
  // numbers keep that invariant
  s.whatif_zero_latency_us = std::min(p.zero_latency_us, s.makespan_us);
  s.whatif_free_pcie_us = std::min(p.free_pcie_us, s.makespan_us);
  s.whatif_infinite_overlap_us = std::min(p.infinite_overlap_us, s.makespan_us);
  s.valid = true;
  return s;
}

std::string attribution_table(const CritSummary& s) {
  char line[160];
  std::string out;
  if (!s.valid) {
    out = "critical-path analysis unavailable";
    if (!s.error.empty()) out += ": " + s.error;
    out += "\n";
    return out;
  }
  std::snprintf(line, sizeof line, "critical path: %.1f us over %zu segments (rank %d, %ld rank hops)\n",
                s.path_us, s.segments, s.critical_rank, s.cross_rank_jumps);
  out += line;
  out += "  category            time_us     share\n";
  for (int c = 0; c < kNumPathCats; ++c) {
    const double share = s.path_us > 0 ? 100.0 * s.cat_us[c] / s.path_us : 0.0;
    std::snprintf(line, sizeof line, "  %-18s %10.1f   %6.2f%%\n",
                  path_cat_name(static_cast<PathCat>(c)), s.cat_us[c], share);
    out += line;
  }
  std::snprintf(line, sizeof line,
                "  what-if: zero-latency net %.1f us | free PCIe %.1f us | infinite overlap %.1f us\n",
                s.whatif_zero_latency_us, s.whatif_free_pcie_us, s.whatif_infinite_overlap_us);
  out += line;
  std::snprintf(line, sizeof line, "  compute lower bound %.1f us | replay identity %.1f us\n",
                s.compute_bound_us, s.replay_identity_us);
  out += line;
  return out;
}

} // namespace quda::trace
