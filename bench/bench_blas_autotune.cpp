// Section V-E: auto-tuned linear-algebra kernels.
//
// Sweeps the launch space of the fused BLAS kernels the BiCGstab solver
// uses, in all three precisions, printing the tuned block sizes and the
// gain over naive launch choices -- and then quantifies the paper's claim
// that the complete solver "typically runs 10 to 20% slower than would the
// matrix-vector product in isolation" due to these streaming kernels.

#include "blas/autotune.h"
#include "perfmodel/costs.h"

#include <cstdio>

using namespace quda;

namespace {

struct KernelDesc {
  const char* name;
  int reads;
  int writes;
};

// the fused kernels of the BiCGstab iteration (see solvers/bicgstab.h)
constexpr KernelDesc kKernels[] = {
    {"cDotProduct", 2, 0},    {"caxpy", 3, 2},        {"cDotProductNormA", 3, 0},
    {"axpyZpbx", 3, 1},       {"xpaypbz", 3, 1},      {"caxpbypzYmbw", 3, 1},
};

} // namespace

int main() {
  const auto& dev = gpusim::geforce_gtx285();
  blas::AutoTuner tuner(dev);
  const std::int64_t sites = 24 * 24 * 24 * 32 / 2; // one parity of a production local volume

  std::printf("Section V-E: BLAS kernel auto-tuning sweep (GTX 285, %lld sites)\n\n",
              static_cast<long long>(sites));
  std::printf("%-20s %-8s %10s %14s %14s %10s\n", "kernel", "prec", "block", "tuned (us)",
              "worst (us)", "gain");

  for (Precision p : {Precision::Half, Precision::Single, Precision::Double}) {
    for (const auto& k : kKernels) {
      const auto cost = perf::blas_kernel_cost(p, sites, k.reads, k.writes);
      const std::string key = std::string(k.name) + "_" + to_string(p);
      const auto& best = tuner.tune(key, cost, p == Precision::Double);
      double worst = 0;
      for (int block = 64; block <= 512; block += 64)
        worst = std::max(worst, tuner.duration_at(cost, block, p == Precision::Double));
      std::printf("%-20s %-8s %10d %14.1f %14.1f %9.0f%%\n", k.name, to_string(p),
                  best.launch.block_size, best.time_us, worst,
                  100.0 * (worst - best.time_us) / worst);
    }
  }

  // solver overhead estimate: per-iteration BLAS time vs matrix-vector time
  std::printf("\nsolver overhead from BLAS1 kernels (per BiCGstab iteration):\n");
  for (Precision p : {Precision::Half, Precision::Single, Precision::Double}) {
    double blas_us = 0;
    for (const auto& k : kKernels) {
      const auto cost = perf::blas_kernel_cost(p, sites, k.reads, k.writes);
      blas_us += tuner.tune(std::string(k.name) + "_" + to_string(p), cost,
                            p == Precision::Double)
                     .time_us;
    }
    const auto mv = perf::dslash_kernel_cost(p, sites, Reconstruct::Twelve);
    const double mv_us =
        4.0 * gpusim::kernel_duration_us(mv, {256, 0}, dev, p == Precision::Double);
    std::printf("  %-8s matrix %8.0f us + blas %8.0f us  -> solver %4.0f%% slower than M alone\n",
                to_string(p), mv_us, blas_us, 100.0 * blas_us / mv_us);
  }

  std::printf("\ngenerated header:\n%s", tuner.export_header().c_str());
  return 0;
}
