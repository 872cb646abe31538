#pragma once
// Analytic kernel cost formulas and calibration constants.
//
// The anchor numbers come from the paper (Section V-A): applying the fused
// Wilson-clover matrix costs 3696 flops per lattice site against 2976 bytes
// of memory traffic in single precision, with 2-row gauge compression.  All
// performance is quoted in "effective Gflops" using the standard operation
// count (reconstruction flops are *not* counted), exactly as in Section
// VII-A.
//
// Per-precision efficiency factors express how close each kernel family
// runs to the device's peak bandwidth; they are the model's calibration
// knobs (documented in EXPERIMENTS.md) and were chosen so the simulated
// GTX 285 lands in the regime the paper reports (roughly 95-105 effective
// Gflops per GPU for the single-precision solver, ~150 for mixed
// single-half, ~25-30 for double).

#include "gpusim/kernel_model.h"
#include "lattice/gauge_field.h"
#include "lattice/geometry.h"
#include "lattice/precision.h"
#include "sim/cluster_spec.h"

#include <cmath>
#include <cstdint>

namespace quda::perf {

// paper constants for one application of the even-odd Wilson-clover matrix,
// per (single-parity) site
inline constexpr double kMatrixFlopsPerSite = 3696.0;
inline constexpr double kMatrixBytesPerSiteSingle = 2976.0;

// link loads per matrix application per (single-parity) site: the two fused
// dslash kernels each stream 8 links (4 directions x forward/backward)
inline constexpr double kLinkLoadsPerSite = 16.0;

// the 2976-byte anchor assumes 2-row (12-real) gauge compression
inline constexpr int kAnchorGaugeReals = 12;

// gauge-only slice of the matrix traffic: 16 link loads per site at the
// field's stored width -- the quantity link reconstruction shrinks
inline double gauge_bytes_per_site(Precision p, Reconstruct r) {
  return kLinkLoadsPerSite * reals_per_link(r) * static_cast<double>(bytes_per_real(p));
}

// matrix traffic per site: the anchored total at the precision's width,
// shifted by the difference between the stored link width and the
// anchor's 12 reals, so Eight/Eighteen move the modeled bandwidth (and with
// it effective Gflops) the way the papers show
inline double matrix_bytes_per_site(Precision p, Reconstruct r) {
  double anchor = kMatrixBytesPerSiteSingle;
  if (p == Precision::Double) anchor = 2.0 * kMatrixBytesPerSiteSingle;
  // half: 16-bit payload plus the float normalization arrays (9 spinor
  // norms and 1 clover norm per site)
  if (p == Precision::Half) anchor = 0.5 * kMatrixBytesPerSiteSingle + 10.0 * 4.0;
  return anchor + kLinkLoadsPerSite * (reals_per_link(r) - kAnchorGaugeReals) *
                      static_cast<double>(bytes_per_real(p));
}

// dslash-kernel fraction of peak bandwidth (gather-heavy access pattern);
// double runs far from peak on GT200-era hardware (no texture doubles)
inline double dslash_efficiency(Precision p) {
  switch (p) {
    case Precision::Double: return 0.27;
    case Precision::Single: return 0.58;
    case Precision::Half: return 0.40; // the half kernel is gather/ALU-limited, not pure streaming
  }
  return 0;
}

// streaming (BLAS1) kernels run much closer to peak
inline constexpr double kBlasEfficiency = 0.85;

// The even-odd matrix application is realized as two fused dslash+clover
// kernels (one per parity sweep), so each kernel gets half the per-site
// totals over `sites` output sites, with links stored as `r`.
inline gpusim::KernelCost dslash_kernel_cost(Precision p, std::int64_t sites, Reconstruct r,
                                             std::int64_t stride_bytes = 0) {
  gpusim::KernelCost c;
  c.flops = 0.5 * kMatrixFlopsPerSite * static_cast<double>(sites);
  c.bytes = 0.5 * matrix_bytes_per_site(p, r) * static_cast<double>(sites);
  c.efficiency = dslash_efficiency(p);
  c.stride_bytes = stride_bytes;
  c.kind = trace::Kind::Dslash;
  return c;
}

// a fused BLAS kernel reading `reads` and writing `writes` spinor vectors
inline gpusim::KernelCost blas_kernel_cost(Precision p, std::int64_t sites, int reads,
                                           int writes) {
  gpusim::KernelCost c;
  const double reals = 24.0 * static_cast<double>(sites);
  c.bytes = static_cast<double>(reads + writes) * reals *
            static_cast<double>(bytes_per_real(p));
  if (p == Precision::Half) c.bytes += static_cast<double>(reads + writes) *
                                       static_cast<double>(sites) * 4.0; // norms
  c.flops = 2.0 * static_cast<double>(reads) * reals; // ~1 mul + 1 add per real read
  c.efficiency = kBlasEfficiency;
  c.kind = trace::Kind::Blas;
  return c;
}

// --- face traffic -------------------------------------------------------------

// bytes of one projected spinor face (12 reals per face site, plus one
// float norm per site in half precision) -- what crosses PCI-E and the wire
inline std::int64_t face_bytes(Precision p, std::int64_t face_sites) {
  std::int64_t b = face_sites * 12 * bytes_per_real(p);
  if (p == Precision::Half) b += face_sites * 4;
  return b;
}

// the no-overlap implementation moves each face with one cudaMemcpy per
// field block (Section VI-D1): 24/Nvec blocks, plus one for the norms
inline int face_copy_blocks(Precision p) {
  switch (p) {
    case Precision::Double: return 24 / PrecDouble::nvec;      // 12
    case Precision::Single: return 24 / PrecSingle::nvec;      // 6
    case Precision::Half: return 24 / PrecHalf::nvec + 1;      // 6 + norm copy
  }
  return 1;
}

// received faces go up in a single copy (plus norms in half)
inline int ghost_upload_copies(Precision p) { return p == Precision::Half ? 2 : 1; }

// --- modeled allreduce costs (hierarchical interconnect aware) ----------------

// Per-step cost of the modeled recursive-doubling allreduce: every step is
// one small-message IB exchange plus the host-side MPI call overhead.
inline double allreduce_step_us(const sim::ClusterSpec& spec) {
  return spec.net.ib_latency_us + spec.net.mpi_overhead_us;
}

// Total modeled latency of an n-rank allreduce after the last arrival:
// ceil(log2 n) recursive-doubling steps, plus -- on hierarchical clusters --
// one up-and-down traversal of the switch tree (the steps that cross leaf
// switches pay the extra hops).  Flat clusters reproduce the historical
// steps * step cost bit-for-bit.
inline double allreduce_tree_cost_us(const sim::ClusterSpec& spec) {
  const int n = spec.num_ranks();
  int steps = 0;
  while ((1 << steps) < n) ++steps;
  double cost = static_cast<double>(steps) * allreduce_step_us(spec);
  const int num_switches = spec.num_switches();
  if (num_switches > 1) {
    int switch_steps = 0;
    while ((1 << switch_steps) < num_switches) ++switch_steps;
    cost += static_cast<double>(switch_steps) * 2.0 * spec.interconnect.switch_hop_us;
  }
  return cost;
}

// effective flop count for reporting, per matrix application (Section
// VII-A's metric)
inline double effective_matrix_flops(std::int64_t sites) {
  return kMatrixFlopsPerSite * static_cast<double>(sites);
}

// effective flops of a fused BLAS kernel (counted like axpy-class ops)
inline double effective_blas_flops(std::int64_t sites, int reads) {
  return 2.0 * 24.0 * static_cast<double>(reads) * static_cast<double>(sites);
}

} // namespace quda::perf
