// Fig. 6 of the paper: strong scaling of the V = 24^3 x 128 lattice across
// all four precision modes -- uniform single, uniform double, mixed
// single-half, mixed double-half -- using the non-overlapping solver (which
// Fig. 5(b) showed to be the faster choice on this lattice).
//
// Expected shapes: both half-sloppy mixed modes clearly outperform the
// uniform solvers; uniform double is slowest in absolute terms but shows
// the *flattest* (best) strong scaling because its kernel, throttled by the
// GTX 285's weak double-precision path, keeps the compute-to-communication
// ratio high.

#include "bench_util.h"

using namespace quda;
using namespace quda::bench;

int main() {
  std::printf("Fig. 6: strong scaling, V = 24^3 x 128, all precision modes, no overlap\n");

  const LatticeDims global{24, 24, 24, 128};
  const std::vector<int> gpus = {1, 2, 4, 8, 16, 32};
  const std::vector<SolverSeries> series = {
      {"single", Precision::Single, std::nullopt, CommPolicy::NoOverlap},
      {"single-half", Precision::Single, Precision::Half, CommPolicy::NoOverlap},
      {"double", Precision::Double, std::nullopt, CommPolicy::NoOverlap},
      {"double-half", Precision::Double, Precision::Half, CommPolicy::NoOverlap},
  };

  // one point: the global lattice time-sliced over n GPUs
  auto time_sliced_point = [&](int n, const SolverSeries& s) {
    return run_grid_point(sim::ClusterSpec::jlab_9g(n), comm::GridTopology::time_only(n), global,
                          s, 100);
  };

  std::vector<std::vector<parallel::ModeledSolverResult>> results(series.size());
  for (std::size_t s = 0; s < series.size(); ++s)
    for (int n : gpus) results[s].push_back(time_sliced_point(n, series[s]));
  print_scaling_table("V = 24^3 x 128 sites", gpus, series, results);

  // link-reconstruction sweep on the single and single-half modes: 8-real
  // storage cuts the dslash gauge traffic by a third vs the 12-real anchor
  // (over half vs 18-real), which the bandwidth-bound model converts
  // directly into effective Gflops
  const std::vector<SolverSeries> recon_series = {
      {"single-r18", Precision::Single, std::nullopt, CommPolicy::NoOverlap, true,
       Reconstruct::Eighteen, std::nullopt},
      {"single-r12", Precision::Single, std::nullopt, CommPolicy::NoOverlap, true,
       Reconstruct::Twelve, std::nullopt},
      {"single-r8", Precision::Single, std::nullopt, CommPolicy::NoOverlap, true,
       Reconstruct::Eight, std::nullopt},
      {"single-half-r8", Precision::Single, Precision::Half, CommPolicy::NoOverlap, true,
       Reconstruct::Eight, Reconstruct::Eight},
  };
  std::vector<std::vector<parallel::ModeledSolverResult>> recon_results(recon_series.size());
  for (std::size_t s = 0; s < recon_series.size(); ++s)
    for (int n : gpus) recon_results[s].push_back(time_sliced_point(n, recon_series[s]));
  print_scaling_table("V = 24^3 x 128 sites, link reconstruction", gpus, recon_series,
                      recon_results);

  BenchJson json("fig6_precision");
  json.config("scaling", "strong");
  json.config("policy", "no_overlap");
  record_scaling_points(json, "V = 24^3 x 128 sites", gpus, series, results);
  record_scaling_points(json, "V = 24^3 x 128 sites, link reconstruction", gpus, recon_series,
                        recon_results);
  json.write();

  // strong-scaling efficiency relative to the smallest fitting partition
  std::printf("\nparallel efficiency at 32 GPUs (vs the smallest fitting partition):\n");
  for (std::size_t s = 0; s < series.size(); ++s) {
    std::size_t base = 0;
    while (base < gpus.size() && !results[s][base].fits) ++base;
    if (base >= gpus.size()) continue;
    const double per_gpu_base = results[s][base].effective_gflops / gpus[base];
    const double per_gpu_32 = results[s].back().effective_gflops / gpus.back();
    std::printf("  %-14s %.1f%%\n", series[s].label.c_str(),
                100.0 * per_gpu_32 / per_gpu_base);
  }
  return 0;
}
