#include "trace/trace_export.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>

namespace quda::trace {

namespace {

// stable thread ids within a rank's process: streams keep their index, the
// named host-side tracks sort after them
inline int track_tid(int track) {
  switch (track) {
    case kTrackHost: return 10;
    case kTrackComm: return 11;
    case kTrackSolver: return 12;
    default: return track;
  }
}

inline std::string track_label(int track) {
  switch (track) {
    case kTrackHost: return "host";
    case kTrackComm: return "comm";
    case kTrackSolver: return "solver";
    default: return "stream " + std::to_string(track);
  }
}

inline std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_meta(std::string& out, int pid, int tid, const char* kind,
                 const std::string& label, bool& first) {
  out += first ? "\n" : ",\n";
  first = false;
  out += "{\"ph\": \"M\", \"pid\": " + std::to_string(pid) + ", \"tid\": " +
         std::to_string(tid) + ", \"name\": \"" + kind + "\", \"args\": {\"name\": \"" + label +
         "\"}}";
}

void append_event(std::string& out, int pid, const Event& e, bool& first) {
  out += first ? "\n" : ",\n";
  first = false;
  const KindInfo& k = info(e.kind);
  out += "{\"name\": \"";
  out += k.name;
  out += "\", \"cat\": \"";
  out += cat_name(k.cat);
  out += "\", \"ph\": \"";
  out += k.instant ? "i" : "X";
  out += "\", ";
  if (k.instant) out += "\"s\": \"t\", ";
  out += "\"pid\": " + std::to_string(pid) + ", \"tid\": " +
         std::to_string(track_tid(e.track)) + ", \"ts\": " + num(e.ts_us);
  if (!k.instant) out += ", \"dur\": " + num(e.end_us - e.ts_us);
  out += ", \"args\": {\"bytes\": " + std::to_string(e.bytes) +
         ", \"peer\": " + std::to_string(e.peer) + ", \"tag\": " + std::to_string(e.tag) +
         ", \"seq\": " + std::to_string(e.seq) + ", \"dep_rank\": " + std::to_string(e.dep_rank) +
         ", \"dep_ts\": " + num(e.dep_ts_us) + ", \"edge_us\": " + num(e.edge_us) +
         ", \"link\": " + std::to_string(e.link) + "}}";
}

} // namespace

std::string chrome_trace_json(const TraceReport& report) {
  std::string out = "{\n\"traceEvents\": [";
  bool first = true;
  for (std::size_t rank = 0; rank < report.per_rank.size(); ++rank) {
    const int pid = static_cast<int>(rank);
    append_meta(out, pid, 0, "process_name", "rank " + std::to_string(pid), first);
    std::set<int> tracks;
    for (const Event& e : report.per_rank[rank]) tracks.insert(e.track);
    for (int track : tracks)
      append_meta(out, pid, track_tid(track), "thread_name", track_label(track), first);
    for (const Event& e : report.per_rank[rank]) append_event(out, pid, e, first);
  }
  out += "\n],\n";
  // provenance rides on exactly one line so differential tests (bitwise
  // trace comparison across schedulers/budgets) can strip it by line
  if (!report.provenance_json.empty())
    out += "\"provenance\": " + report.provenance_json + ",\n";
  out += "\"displayTimeUnit\": \"ms\",\n\"otherData\": {\"tool\": \"mgpu-quda sim tracer\", "
         "\"ranks\": " +
         std::to_string(report.per_rank.size()) + ", \"events\": " +
         std::to_string(report.total_events()) +
         ", \"gpus_per_node\": " + std::to_string(report.gpus_per_node) +
         ", \"nodes_per_switch\": " + std::to_string(report.nodes_per_switch) + "}\n}\n";
  return out;
}

bool write_chrome_trace(const std::string& path, const TraceReport& report) {
  std::ofstream os(path);
  if (!os) return false;
  os << chrome_trace_json(report);
  return static_cast<bool>(os);
}

std::string unique_trace_path(const std::string& base) {
  // NOLINT(sim-static-state): process-wide export-file counter; only
  // suffixes repeat-run filenames, never read by any sim-time computation
  static std::atomic<int> counter{0};
  const int n = counter.fetch_add(1);
  return n == 0 ? base : base + "." + std::to_string(n);
}

} // namespace quda::trace
