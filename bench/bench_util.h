#pragma once
// Shared helpers for the benchmark binaries: each bench regenerates one
// table or figure of the paper, printing the same rows/series the paper
// plots.  Absolute numbers come from the calibrated device model; the
// shapes (who wins, by what factor, where the crossovers fall) are the
// reproduction targets recorded in EXPERIMENTS.md.

#include "core/provenance.h"
#include "core/wallclock.h"
#include "parallel/modeled_solver.h"
#include "sim/event_sim.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace quda::bench {

// Machine-readable companion to the text tables: accumulates config entries
// and data points, then writes BENCH_<name>.json (config, per-point numbers,
// total wall clock) so the perf trajectory can be diffed across commits.
class BenchJson {
public:
  explicit BenchJson(std::string name)
      : name_(std::move(name)), start_(core::wall_now()) {}

  void config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, quote(value));
  }
  void config(const std::string& key, double value) { config_.emplace_back(key, num(value)); }

  // begin a new data point; field() calls attach to the most recent point
  void point() { points_.emplace_back(); }
  void field(const std::string& key, const std::string& value) {
    points_.back().emplace_back(key, quote(value));
  }
  void field(const std::string& key, double value) { points_.back().emplace_back(key, num(value)); }

  // write BENCH_<name>.json in the current directory
  void write() const {
    const double wall = std::chrono::duration<double>(core::wall_now() - start_).count();
    std::ofstream os("BENCH_" + name_ + ".json");
    // one provenance line (commit, build type, thread budget) so any perf
    // delta can be traced back to what produced the numbers
    os << "{\n  \"name\": " << quote(name_) << ",\n  \"provenance\": "
       << core::provenance_json() << ",\n  \"config\": {";
    write_fields(os, config_, "\n    ");
    os << "\n  },\n  \"points\": [";
    for (std::size_t p = 0; p < points_.size(); ++p) {
      os << (p ? ",\n    {" : "\n    {");
      write_fields(os, points_[p], " ");
      os << " }";
    }
    os << "\n  ],\n  \"wall_seconds\": " << num(wall) << "\n}\n";
  }

private:
  using Fields = std::vector<std::pair<std::string, std::string>>;

  static std::string quote(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return q + "\"";
  }

  static std::string num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  static void write_fields(std::ofstream& os, const Fields& fields, const char* sep) {
    for (std::size_t i = 0; i < fields.size(); ++i)
      os << (i ? "," : "") << sep << quote(fields[i].first) << ": " << fields[i].second;
  }

  std::string name_;
  core::WallClock::time_point start_;
  Fields config_;
  std::vector<Fields> points_;
};

struct SolverSeries {
  std::string label;
  Precision outer;
  std::optional<Precision> sloppy;
  CommPolicy policy;
  bool good_numa = true;
  // gauge link storage (unset = the pre-knob 12-real-anchored model)
  std::optional<Reconstruct> recon{};
  std::optional<Reconstruct> recon_sloppy{};
};

// Run one modeled-solver data point: the global lattice decomposed over the
// 4-D process grid `topo` on the cluster `spec`.  The paper's figures run
// jlab_9g(n) with GridTopology::time_only(n); the big sweeps (256-1024
// ranks) use a fat_tree spec, whose rank fibers share one worker past the
// thread budget, so rank count stays a parameter instead of an OS thread
// count.  Every point records its event timeline and flight recorder, so it
// carries trace metrics (halo bytes, overlap efficiency), critical-path
// attribution and telemetry; QUDA_SIM_TRACE and QUDA_SIM_TELEMETRY
// additionally export each run.
inline parallel::ModeledSolverResult run_grid_point(sim::ClusterSpec spec,
                                                    const comm::GridTopology& topo,
                                                    LatticeDims global,
                                                    const SolverSeries& series, int iterations) {
  spec.good_numa_binding = series.good_numa;
  spec.trace.enabled = true;
  spec.telemetry.enabled = true;
  sim::VirtualCluster cluster(spec);

  parallel::ModeledSolverConfig cfg;
  cfg.local = global;
  cfg.local.x /= topo.dims[0];
  cfg.local.y /= topo.dims[1];
  cfg.local.z /= topo.dims[2];
  cfg.local.t /= topo.dims[3];
  cfg.topology = topo;
  cfg.outer = series.outer;
  cfg.sloppy = series.sloppy;
  cfg.policy = series.policy;
  cfg.iterations = iterations;
  cfg.reconstruct = series.recon;
  cfg.reconstruct_sloppy = series.recon_sloppy;
  return parallel::run_modeled_solver(cluster, cfg);
}

inline std::string grid_label(const comm::GridTopology& topo) {
  return std::to_string(topo.dims[0]) + "x" + std::to_string(topo.dims[1]) + "x" +
         std::to_string(topo.dims[2]) + "x" + std::to_string(topo.dims[3]);
}

inline void print_scaling_table(const char* title, const std::vector<int>& gpu_counts,
                                const std::vector<SolverSeries>& series,
                                const std::vector<std::vector<parallel::ModeledSolverResult>>&
                                    results /* [series][point] */) {
  std::printf("\n%s\n", title);
  std::printf("%-6s", "GPUs");
  for (const auto& s : series) std::printf("  %22s", s.label.c_str());
  std::printf("\n");
  for (std::size_t p = 0; p < gpu_counts.size(); ++p) {
    std::printf("%-6d", gpu_counts[p]);
    for (std::size_t s = 0; s < series.size(); ++s) {
      const auto& r = results[s][p];
      if (!r.fits)
        std::printf("  %22s", "OOM");
      else
        std::printf("  %18.1f GF", r.effective_gflops);
    }
    std::printf("\n");
  }
}

// attach the aggregated trace metrics of one run to the current JSON point
inline void record_metrics(BenchJson& json, const trace::Metrics& m) {
  json.field("halo_bytes", static_cast<double>(m.halo_bytes));
  json.field("messages", static_cast<double>(m.messages));
  json.field("retries", static_cast<double>(m.retries));
  // delivered wire traffic split by interconnect link class (numeric, so
  // topology knobs show up as value deltas on stable point keys)
  json.field("shm_bytes", static_cast<double>(m.shm_bytes));
  json.field("ib_bytes", static_cast<double>(m.ib_bytes));
  json.field("xswitch_bytes", static_cast<double>(m.xswitch_bytes));
  json.field("comm_us", m.comm_us);
  json.field("overlapped_comm_us", m.overlapped_us);
  json.field("overlap_efficiency", m.overlap_efficiency);
  json.field("kernel_us", m.kernel_us);
  for (const auto& [name, stat] : m.kernels) {
    json.field("kernel_" + name + "_count", static_cast<double>(stat.count));
    json.field("kernel_" + name + "_us", stat.total_us);
  }
}

// attach the flight-recorder summary of one run to the current JSON point
// (gated by bench_diff: more iterations, worse imbalance, or new anomalies
// on an unchanged workload are regressions)
inline void record_telemetry(BenchJson& json, const telemetry::TelemetryReport& t) {
  if (!t.enabled) return;
  json.field("iterations", static_cast<double>(t.iterations()));
  json.field("load_imbalance", t.load_imbalance);
  json.field("anomaly_count", static_cast<double>(t.anomaly_count()));
}

// attach the critical-path attribution of one run to the current JSON point
inline void record_critpath(BenchJson& json, const trace::CritSummary& c) {
  json.field("crit_valid", static_cast<double>(c.valid));
  if (!c.valid) return;
  json.field("crit_path_us", c.path_us);
  json.field("crit_interior_us", c.interior_us());
  json.field("crit_boundary_us", c.boundary_us());
  json.field("crit_exposed_comm_us", c.exposed_comm_us());
  json.field("crit_pcie_us", c.pcie_us());
  json.field("crit_stall_us", c.stall_us());
  json.field("crit_solver_us", c.solver_us());
  json.field("crit_recovery_us", c.recovery_us());
  json.field("crit_rank_hops", static_cast<double>(c.cross_rank_jumps));
  json.field("compute_bound_us", c.compute_bound_us);
  json.field("whatif_zero_latency_us", c.whatif_zero_latency_us);
  json.field("whatif_free_pcie_us", c.whatif_free_pcie_us);
  json.field("whatif_infinite_overlap_us", c.whatif_infinite_overlap_us);
}

// Record one data point.  Its string fields join the bench_diff point key:
// the grid label keeps per-dimension sweeps at equal GPU counts distinct,
// and a link reconstruction joins it when the series sets one.  The 1-D
// scaling tables pass no grid and their legacy series set no
// reconstruction, keeping their keys byte-stable.  Footprints are numeric
// (not part of the key), so reconstruction changes show up as value deltas
// on stable points.
inline void record_point(BenchJson& json, const char* table, const SolverSeries& series,
                         int gpus, const comm::GridTopology* grid,
                         const parallel::ModeledSolverResult& r) {
  json.point();
  json.field("table", table);
  json.field("series", series.label);
  if (grid != nullptr) json.field("grid", grid_label(*grid));
  json.field("gpus", static_cast<double>(gpus));
  if (series.recon) json.field("recon", to_string(*series.recon));
  if (series.recon_sloppy) json.field("recon_sloppy", to_string(*series.recon_sloppy));
  json.field("fits", static_cast<double>(r.fits));
  json.field("footprint_bytes", static_cast<double>(r.footprint_bytes));
  json.field("gauge_footprint_bytes", static_cast<double>(r.gauge_footprint_bytes));
  if (r.fits) {
    json.field("gflops", r.effective_gflops);
    json.field("time_us", r.time_us);
    if (r.traced) {
      record_metrics(json, r.metrics);
      record_critpath(json, r.critpath);
    }
    record_telemetry(json, r.telemetry);
  }
}

// record one scaling table's results as JSON points (one per series x count)
inline void record_scaling_points(BenchJson& json, const char* table,
                                  const std::vector<int>& gpu_counts,
                                  const std::vector<SolverSeries>& series,
                                  const std::vector<std::vector<parallel::ModeledSolverResult>>&
                                      results /* [series][point] */) {
  for (std::size_t s = 0; s < series.size(); ++s)
    for (std::size_t p = 0; p < gpu_counts.size(); ++p)
      record_point(json, table, series[s], gpu_counts[p], nullptr, results[s][p]);
}

} // namespace quda::bench
