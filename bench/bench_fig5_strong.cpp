// Fig. 5 of the paper: strong scaling of the solver on the two production
// lattices, comparing the overlapped and non-overlapped communication
// strategies in single and mixed single-half precision.
//
//  (a) V = 32^3 x 256: overlap increasingly wins as the GPU count grows;
//      mixed precision needs >= 8 GPUs (memory footprint); uniform single
//      already fits on 4.  A deliberately NUMA-misbound series (maroon in
//      the paper) shows visibly lower performance.
//  (b) V = 24^3 x 128: the smaller lattice.  The overlapped mixed-precision
//      solver plateaus beyond ~8 GPUs -- the cudaMemcpyAsync latency
//      penalty is no longer hidden by the shrunken interior -- and is
//      overtaken by the non-overlapped variant, the paper's surprise result.
//
//  (c) extension past the paper, in the regime of "Scaling Lattice QCD
//      beyond 100 GPUs": 256-1024 simulated GPUs on (a)'s lattice,
//      per-dimension 4-D decomposition sweeps on a fat-tree cluster, whose
//      rank fibers share one worker (rank count is a parameter, not an OS
//      thread budget).  Each point carries critpath/whatif
//      attribution showing where each added cut dimension pays off.

#include "bench_util.h"

#include <cstring>

using namespace quda;
using namespace quda::bench;

namespace {

void run_subfigure(BenchJson& json, const char* title, LatticeDims global,
                   const std::vector<int>& gpus, const std::vector<SolverSeries>& series,
                   int iterations) {
  std::vector<std::vector<parallel::ModeledSolverResult>> results(series.size());
  for (std::size_t s = 0; s < series.size(); ++s)
    for (int n : gpus)
      results[s].push_back(run_grid_point(sim::ClusterSpec::jlab_9g(n),
                                          comm::GridTopology::time_only(n), global, series[s],
                                          iterations));
  print_scaling_table(title, gpus, series, results);
  record_scaling_points(json, title, gpus, series, results);
}

// the 256-1024 GPU decomposition sweep: fat-tree interconnect, one worker
void run_multidim_table(BenchJson& json, const char* title, LatticeDims global,
                        const std::vector<comm::GridTopology>& grids,
                        const SolverSeries& series, int iterations) {
  std::printf("\n%s\n", title);
  std::printf("%-8s %-14s %14s %16s %18s\n", "GPUs", "grid", "Gflops", "GF per GPU",
              "exposed comm us");
  for (const auto& topo : grids) {
    sim::ClusterSpec spec = sim::ClusterSpec::fat_tree(topo.num_ranks());
    const auto r = run_grid_point(spec, topo, global, series, iterations);
    record_point(json, title, series, topo.num_ranks(), &topo, r);
    if (!r.fits) {
      std::printf("%-8d %-14s %14s\n", topo.num_ranks(), grid_label(topo).c_str(), "OOM");
      continue;
    }
    std::printf("%-8d %-14s %12.1f GF %13.1f GF %16.1f\n", topo.num_ranks(),
                grid_label(topo).c_str(), r.effective_gflops,
                r.effective_gflops / topo.num_ranks(),
                r.critpath.valid ? r.critpath.exposed_comm_us() : 0.0);
  }
}

} // namespace

int main(int argc, char** argv) {
  // --quick: a reduced sweep with stable point keys, cheap enough for the
  // per-commit perf gate (tools/quick_gate.sh diffs its JSON against a
  // baseline with tools/bench_diff.py)
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  std::printf("Fig. 5: strong scaling on up to 32 GPUs%s\n", quick ? " (quick gate mode)" : "");

  BenchJson json("fig5_strong");
  json.config("scaling", "strong");
  json.config("mode", quick ? "quick" : "full");

  if (quick) {
    run_subfigure(
        json, "(b) V = 24^3 x 128 sites", {24, 24, 24, 128}, {2, 4},
        {
            {"single, no overlap", Precision::Single, std::nullopt, CommPolicy::NoOverlap},
            {"single, overlap", Precision::Single, std::nullopt, CommPolicy::Overlap},
        },
        /*iterations=*/30);
    // one 256-rank point so the per-commit gate covers the O(1000)-rank
    // path (cheap: modeled iterations, fibers on one worker)
    run_multidim_table(json, "(c) multi-dim V = 24^3 x 128", {24, 24, 24, 128},
                       {{{1, 2, 2, 64}}},
                       {"single-half, overlap", Precision::Single, Precision::Half,
                        CommPolicy::Overlap},
                       /*iterations=*/10);
    json.write();
    return 0;
  }

  run_subfigure(
      json, "(a) V = 32^3 x 256 sites", {32, 32, 32, 256}, {4, 8, 16, 32},
      {
          {"single, no overlap", Precision::Single, std::nullopt, CommPolicy::NoOverlap},
          {"single-half, no ovl", Precision::Single, Precision::Half, CommPolicy::NoOverlap},
          {"single, overlap", Precision::Single, std::nullopt, CommPolicy::Overlap},
          {"single-half, overlap", Precision::Single, Precision::Half, CommPolicy::Overlap},
          {"s-h ovl, bad NUMA", Precision::Single, Precision::Half, CommPolicy::Overlap,
           /*good_numa=*/false},
      },
      /*iterations=*/100);

  run_subfigure(
      json, "(b) V = 24^3 x 128 sites", {24, 24, 24, 128}, {1, 2, 4, 8, 16, 32},
      {
          {"single, no overlap", Precision::Single, std::nullopt, CommPolicy::NoOverlap},
          {"single-half, no ovl", Precision::Single, Precision::Half, CommPolicy::NoOverlap},
          {"single, overlap", Precision::Single, std::nullopt, CommPolicy::Overlap},
          {"single-half, overlap", Precision::Single, Precision::Half, CommPolicy::Overlap},
      },
      /*iterations=*/100);

  // (c): strong scaling to 256-1024 simulated GPUs on (a)'s lattice, with
  // per-dimension decomposition sweeps at each GPU count.  At equal rank
  // counts the grids differ only in which dimensions are cut; the critpath
  // attribution (crit_*/whatif_* fields per point) shows the shrinking-
  // interior exposed-comm cost each extra cut dimension buys back.
  run_multidim_table(json, "(c) multi-dim V = 32^3 x 256 sites", {32, 32, 32, 256},
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
                     {"single-half, overlap", Precision::Single, Precision::Half,
                      CommPolicy::Overlap},
                     /*iterations=*/10);

  json.write();
  return 0;
}
