#pragma once
// Common provenance stamp for every export the simulator writes: the trace
// JSON (QUDA_SIM_TRACE), the checkpoint event log (QUDA_SIM_CKPT), the
// telemetry JSONL (QUDA_SIM_TELEMETRY), and every BENCH_<name>.json.
//
// The stamp records what produced the file -- git describe, build type,
// the host thread budget, and a cluster-spec summary -- as one JSON object,
// emitted on exactly one line of each export so differential tests (which
// compare exports bitwise across thread budgets) can strip it with a line
// filter.  The budget and the rank count fix the rank-worker count
// (sim::rank_workers).
//
// QUDA_SIM_GIT_DESCRIBE / QUDA_SIM_BUILD_TYPE are baked in at configure
// time by the top-level CMakeLists; the fallbacks keep ad-hoc compiles
// working.

#include "exec/host_engine.h"
#include "sim/cluster_spec.h"

#include <string>

#ifndef QUDA_SIM_GIT_DESCRIBE
#define QUDA_SIM_GIT_DESCRIBE "unknown"
#endif
#ifndef QUDA_SIM_BUILD_TYPE
#define QUDA_SIM_BUILD_TYPE "unknown"
#endif

namespace quda::core {

inline const char* git_describe() { return QUDA_SIM_GIT_DESCRIBE; }
inline const char* build_type() {
  return QUDA_SIM_BUILD_TYPE[0] != '\0' ? QUDA_SIM_BUILD_TYPE : "default";
}

// one-line JSON summary of the cluster an export came from
inline std::string cluster_summary_json(const sim::ClusterSpec& spec) {
  return "{\"ranks\": " + std::to_string(spec.num_ranks()) +
         ", \"nodes\": " + std::to_string(spec.num_nodes()) +
         ", \"gpus_per_node\": " + std::to_string(spec.gpus_per_node) +
         ", \"nodes_per_switch\": " + std::to_string(spec.interconnect.nodes_per_switch) + "}";
}

// The provenance object itself.  cluster_summary is
// cluster_summary_json(spec), or empty when no single cluster describes the
// export (bench suites).
inline std::string provenance_json(const std::string& cluster_summary = "") {
  std::string out = "{\"git\": \"";
  out += git_describe();
  out += "\", \"build\": \"";
  out += build_type();
  out += "\", \"threads\": ";
  out += std::to_string(exec::thread_budget());
  if (!cluster_summary.empty()) {
    out += ", \"cluster\": ";
    out += cluster_summary;
  }
  out += "}";
  return out;
}

// provenance for a run under `spec`
inline std::string provenance_json(const sim::ClusterSpec& spec) {
  return provenance_json(cluster_summary_json(spec));
}

} // namespace quda::core
