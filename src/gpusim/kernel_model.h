#pragma once
// Kernel execution-time model for the simulated device.
//
// The paper's kernels are strongly bandwidth bound (Section V-C), so a
// kernel's duration is modeled as
//
//   t = launch_overhead + max( bytes / BW_eff , flops / F_eff )
//
// where the effective rates are the device peaks scaled by an occupancy
// factor (a function of the thread-block size, Section III) and -- for the
// memory system -- a partition-camping factor (a function of the array
// stride, Section III / [10]).  The numbers a kernel moves and computes come
// from the analytic per-site counts in perfmodel/costs.h.

#include "gpusim/device_spec.h"
#include "trace/trace.h"

#include <algorithm>
#include <cstdint>

namespace quda::gpusim {

struct LaunchConfig {
  int block_size = 64; // must be a multiple of 64 (Section III)
  int grid_blocks = 0; // 0 = cover all threads
};

struct KernelCost {
  double flops = 0;
  double bytes = 0;            // device-memory traffic
  std::int64_t stride_bytes = 0; // dominant access stride, for camping; 0 = none
  double efficiency = 1.0;     // kernel-specific fraction of peak bandwidth
  trace::Kind kind = trace::Kind::Kernel; // trace event kind (a Class::Kernel row)
};

inline constexpr double kKernelLaunchOverheadUs = 4.0;

// Occupancy: how well a block size hides memory latency.  Small blocks
// under-populate the multiprocessor; very large blocks exhaust registers /
// shared memory and reduce the number of resident blocks.  The curve peaks
// at 256 threads, which is typical of the GT200 kernels QUDA tunes for.
inline double occupancy_factor(int block_size) {
  switch (block_size) {
    case 64: return 0.62;
    case 128: return 0.86;
    case 192: return 0.95;
    case 256: return 1.00;
    case 320: return 0.97;
    case 384: return 0.93;
    case 448: return 0.88;
    case 512: return 0.84;
    default: return 0.25; // not a multiple of 64: warp fragmentation
  }
}

// Partition camping (Section III): successive `partition_bytes` regions of
// device memory map round-robin onto `partitions` banks.  When an array is
// walked with a fixed stride, only some banks may be touched; the achieved
// bandwidth scales with the fraction of banks in play.  Padding the field by
// one spatial volume (equation (5)) perturbs the stride off the pathological
// values.
inline double partition_camping_factor(std::int64_t stride_bytes, const DeviceSpec& dev) {
  if (stride_bytes <= 0) return 1.0;
  const int npart = dev.memory_partitions;
  const std::int64_t region = dev.partition_bytes;
  bool used[64] = {};
  int distinct = 0;
  // sample the bank pattern of the field's parallel block streams (starting
  // addresses k * stride)
  for (int k = 0; k < 4 * npart; ++k) {
    const int bank = static_cast<int>((static_cast<std::int64_t>(k) * stride_bytes / region) %
                                      npart);
    if (!used[bank]) {
      used[bank] = true;
      ++distinct;
    }
  }
  // camping throttles but does not fully serialize the memory system: the
  // in-flight warps still spread over regions within a stream.  The ~2x
  // worst case matches the losses reported for the affected volumes in [4].
  return std::max(static_cast<double>(distinct) / npart, 0.5);
}

// duration of a kernel (excluding launch overhead, which the stream engine
// adds) in microseconds
inline double kernel_duration_us(const KernelCost& cost, const LaunchConfig& launch,
                                 const DeviceSpec& dev, bool double_precision_flops) {
  const double occ = occupancy_factor(launch.block_size);
  const double camp = partition_camping_factor(cost.stride_bytes, dev);
  const double bw_eff = dev.mem_bandwidth_gbs * 1e3 * occ * camp * cost.efficiency; // bytes/us
  const double peak_flops =
      (double_precision_flops ? dev.gflops_dp : dev.gflops_sp) * 1e3 * occ; // flops/us
  const double t_mem = bw_eff > 0 ? cost.bytes / bw_eff : 0.0;
  const double t_alu = peak_flops > 0 ? cost.flops / peak_flops : 0.0;
  return std::max(t_mem, t_alu);
}

} // namespace quda::gpusim
