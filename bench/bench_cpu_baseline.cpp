// Section VII-C's CPU baseline comparison: the same 32^3 x 256 solve on a
// 16-node partition of the GPU-less "9q" cluster (128 Nehalem cores with
// optimized SSE routines) sustained 255 Gflops in single precision, while
// 16 nodes / 32 GPUs of "9g" sustained over 3 Tflops -- "over a factor of
// 10 faster than observed without the GPUs".

#include "bench_util.h"
#include "cpuref/cpu_cluster.h"

using namespace quda;
using namespace quda::bench;

int main() {
  std::printf("CPU cluster baseline (Section VII-C)\n\n");

  const LatticeDims global{32, 32, 32, 256};
  const int nodes = 16;

  const double cpu_gflops = cpuref::cluster_gflops(nodes, Precision::Single);
  std::printf("  9q partition: %d nodes x %d cores, SSE single precision: %.0f Gflops\n",
              nodes, cpuref::kCoresPerNode, cpu_gflops);
  std::printf("  (paper measurement: 255 Gflops, ~2 Gflops per core)\n\n");

  const SolverSeries gpu_series{"single-half, overlap", Precision::Single, Precision::Half,
                                CommPolicy::Overlap};
  const auto gpu = run_grid_point(sim::ClusterSpec::jlab_9g(32), comm::GridTopology::time_only(32),
                                  global, gpu_series, 100);
  if (!gpu.fits) {
    std::printf("  unexpected OOM in the GPU configuration\n");
    return 1;
  }
  std::printf("  9g partition: 16 nodes / 32 GTX 285, mixed single-half solver: %.0f Gflops\n",
              gpu.effective_gflops);

  const double speedup = gpu.effective_gflops / cpu_gflops;
  std::printf("\n  GPU / CPU speedup: %.1fx  (paper: \"over a factor of 10\")\n", speedup);

  // per-iteration wall-clock comparison for the production solve
  const double cpu_iter = cpuref::iteration_time_us(global, nodes, Precision::Single);
  std::printf("\n  per-iteration time, 32^3 x 256 even-odd system:\n");
  std::printf("    CPU cluster : %8.2f ms\n", cpu_iter / 1e3);
  std::printf("    GPU cluster : %8.2f ms\n", gpu.time_us / gpu.iterations / 1e3);
  return speedup > 10.0 ? 0 : 1;
}
