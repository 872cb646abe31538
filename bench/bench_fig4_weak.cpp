// Fig. 4 of the paper: weak scaling of the parallelized solver up to 32
// GPUs, with overlapped communication (the faster choice in weak scaling).
//
//  (a) local volume 32^4 per GPU: single and mixed single-half precision
//      (double does not fit in device memory at this local volume -- the
//      bench prints OOM for it, reproducing the paper's footnote);
//  (b) local volume 24^3 x 32 per GPU: single, double, mixed single-half,
//      and mixed double-half.
//
// Expected shapes: near-linear scaling in every mode; mixed-precision
// solvers well above uniform single; double-half nearly identical to
// single-half; >4 Tflops aggregate at 32 GPUs for single-half in (a).
//
// (c) extends past the paper to 256-1024 simulated GPUs ("Scaling Lattice
// QCD beyond 100 GPUs" regime): 4-D grid decompositions on a fat-tree
// cluster, whose rank fibers share one worker, with critpath attribution
// per point.  Weak scaling holds the local volume fixed, so the exposed-
// comm fraction per point isolates the interconnect hierarchy's cost.

#include "bench_util.h"

using namespace quda;
using namespace quda::bench;

namespace {

// weak scaling holds the per-GPU volume: the global lattice grows with the grid
LatticeDims global_dims(LatticeDims local, const comm::GridTopology& topo) {
  local.x *= topo.dims[0];
  local.y *= topo.dims[1];
  local.z *= topo.dims[2];
  local.t *= topo.dims[3];
  return local;
}

void run_subfigure(BenchJson& json, const char* title, LatticeDims local,
                   const std::vector<SolverSeries>& series) {
  const std::vector<int> gpus = {1, 2, 4, 8, 16, 24, 32};
  std::vector<std::vector<parallel::ModeledSolverResult>> results(series.size());
  for (std::size_t s = 0; s < series.size(); ++s)
    for (int n : gpus) {
      const auto topo = comm::GridTopology::time_only(n);
      results[s].push_back(run_grid_point(sim::ClusterSpec::jlab_9g(n), topo,
                                          global_dims(local, topo), series[s], 100));
    }
  print_scaling_table(title, gpus, series, results);
  record_scaling_points(json, title, gpus, series, results);
}

void run_multidim_table(BenchJson& json, const char* title, LatticeDims local,
                        const std::vector<comm::GridTopology>& grids,
                        const SolverSeries& series) {
  std::printf("\n%s\n", title);
  std::printf("%-8s %-14s %14s %16s\n", "GPUs", "grid", "Gflops", "GF per GPU");
  for (const auto& topo : grids) {
    sim::ClusterSpec spec = sim::ClusterSpec::fat_tree(topo.num_ranks());
    const auto r = run_grid_point(spec, topo, global_dims(local, topo), series, /*iterations=*/10);
    record_point(json, title, series, topo.num_ranks(), &topo, r);
    if (!r.fits) {
      std::printf("%-8d %-14s %14s\n", topo.num_ranks(), grid_label(topo).c_str(), "OOM");
      continue;
    }
    std::printf("%-8d %-14s %12.1f GF %13.1f GF\n", topo.num_ranks(),
                grid_label(topo).c_str(), r.effective_gflops,
                r.effective_gflops / topo.num_ranks());
  }
}

} // namespace

int main() {
  std::printf("Fig. 4: weak scaling on up to 32 GPUs (overlapped communication)\n");

  BenchJson json("fig4_weak");
  json.config("scaling", "weak");
  json.config("policy", "overlap");

  run_subfigure(json, "(a) V = 32^4 sites per GPU",
                {32, 32, 32, 32},
                {
                    {"single", Precision::Single, std::nullopt, CommPolicy::Overlap},
                    {"single-half", Precision::Single, Precision::Half, CommPolicy::Overlap},
                    {"double (paper: OOM)", Precision::Double, std::nullopt, CommPolicy::Overlap},
                });

  run_subfigure(json, "(b) V = 24^3 x 32 sites per GPU",
                {24, 24, 24, 32},
                {
                    {"single", Precision::Single, std::nullopt, CommPolicy::Overlap},
                    {"double", Precision::Double, std::nullopt, CommPolicy::Overlap},
                    {"single-half", Precision::Single, Precision::Half, CommPolicy::Overlap},
                    {"double-half", Precision::Double, Precision::Half, CommPolicy::Overlap},
                });

  // (c): weak scaling to 256-1024 simulated GPUs at (b)'s local volume,
  // sweeping which dimensions the process grid cuts at each count
  run_multidim_table(json, "(c) multi-dim V = 24^3 x 32 sites per GPU", {24, 24, 24, 32},
                     {
                         {{1, 1, 2, 128}},
                         {{1, 2, 2, 64}},
                         {{2, 2, 2, 32}},
                         {{1, 2, 2, 128}},
                         {{1, 2, 4, 64}},
                         {{2, 2, 4, 32}},
                         {{2, 2, 2, 128}},
                         {{2, 2, 4, 64}},
                         {{1, 4, 4, 64}},
                     },
                     {"single-half", Precision::Single, Precision::Half, CommPolicy::Overlap});

  json.write();
  return 0;
}
