// Ablation for Section V-B / [10]: partition camping and the field padding.
//
// Device memory on the GTX 285 is interleaved over 8 partitions in 256-byte
// regions.  A QUDA field is read as Nint/Nvec parallel block streams whose
// starting addresses are separated by stride*Nvec*sizeof(real); when that
// separation maps every stream onto the same partition, effective bandwidth
// collapses ("partition camping").  QUDA's fix is to pad each block by one
// spatial volume (equation (5)).  Camping is volume-dependent -- the paper
// says "certain problem sizes" -- so this bench sweeps volumes and reports,
// for each, the bank-coverage factor and modeled dslash time without and
// with the pad.

#include "gpusim/kernel_model.h"
#include "lattice/geometry.h"
#include "perfmodel/costs.h"

#include <cstdio>

using namespace quda;

int main() {
  const auto& dev = gpusim::geforce_gtx285();
  std::printf("Partition camping ablation (GTX 285: %d partitions x %d bytes)\n\n",
              dev.memory_partitions, dev.partition_bytes);
  std::printf("%-16s %14s %10s %10s %14s %14s %8s\n", "lattice", "stride(B)", "banks",
              "banks+pad", "dslash (us)", "padded (us)", "gain");

  const LatticeDims volumes[] = {
      {16, 16, 16, 64}, {20, 20, 20, 64}, {24, 24, 24, 32}, {24, 24, 24, 128},
      {28, 28, 28, 32}, {32, 32, 32, 64}, {32, 32, 32, 256}, {36, 36, 36, 32},
  };

  for (const auto& dims : volumes) {
    const Geometry g(dims);
    const std::int64_t vh = g.half_volume();
    constexpr int nvec_bytes = 4 * 4; // float4 blocks in single precision

    const std::int64_t stride_raw = vh * nvec_bytes;
    const std::int64_t stride_pad = (vh + g.half_spatial_volume()) * nvec_bytes;

    const double banks_raw = gpusim::partition_camping_factor(stride_raw, dev) *
                             dev.memory_partitions;
    const double banks_pad = gpusim::partition_camping_factor(stride_pad, dev) *
                             dev.memory_partitions;

    constexpr Reconstruct recon = Reconstruct::Twelve;
    auto cost_raw = perf::dslash_kernel_cost(Precision::Single, vh, recon, stride_raw);
    auto cost_pad = perf::dslash_kernel_cost(Precision::Single, vh, recon, stride_pad);
    const double t_raw = gpusim::kernel_duration_us(cost_raw, {256, 0}, dev, false);
    const double t_pad = gpusim::kernel_duration_us(cost_pad, {256, 0}, dev, false);

    std::printf("%-16s %14lld %10.0f %10.0f %14.0f %14.0f %7.2fx\n", dims.to_string().c_str(),
                static_cast<long long>(stride_raw), banks_raw, banks_pad, t_raw, t_pad,
                t_raw / t_pad);
  }

  std::printf("\ncamping is volume-dependent (\"certain problem sizes\"); the pad shifts the\n");
  std::printf("stream alignment and restores bank coverage for the affected volumes.\n");
  std::printf("Volumes whose pad is itself partition-aligned need a tuned pad size, which\n");
  std::printf("the BlockLayout's free pad parameter supports.\n");
  return 0;
}
