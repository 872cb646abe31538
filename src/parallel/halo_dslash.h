#pragma once
// The multi-GPU Wilson dslash: domain decomposition with face halo exchange
// (Section VI of the paper).
//
// The paper's production configuration slices only the time dimension (the
// full spatial volume stays on one GPU); scaling to hundreds of GPUs needs
// the multi-dimensional decomposition the paper lists as future work, which
// this engine also implements: any subset of the four dimensions may be cut
// by the rank grid, with one pair of projected spinor faces (12 reals per
// face site, footnote 3) and one gauge ghost face per cut dimension.
//
// Two communication policies are implemented (Section VI-D):
//
//  * NoOverlap: synchronous per-block cudaMemcpy of all faces, a blocking
//    exchange, a single upload per face, then ONE kernel over the whole
//    local volume.  Cheap latency, zero overlap.
//  * Overlap: three CUDA streams.  Stream 0 runs the interior kernel
//    (sites touching no cut edge) while streams 1 and 2 move the
//    backward- and forward-traveling faces with cudaMemcpyAsync and
//    non-blocking MPI; the boundary kernel runs once the ghosts have
//    landed.  Hides transfer time behind compute but pays the
//    (Tylersburg-sized) async-copy latencies -- the tradeoff behind Fig. 5.
//
// The same entry point runs the numerics and the timing when it is given
// fields, and the timing alone when it is given none (the benchmarks'
// paper-sized volumes), so that tests validate the exact code path the
// benchmarks time.

#include "comm/qmp.h"
#include "dirac/dslash.h"
#include "parallel/policy.h"
#include "perfmodel/costs.h"

namespace quda::parallel {

// which CUDA stream handles what, mirroring Section VI-D2
inline constexpr int kInteriorStream = 0;
inline constexpr int kBackwardFaceStream = 1; // face send backward / receive forward
inline constexpr int kForwardFaceStream = 2;  // face send forward / receive backward

// message tags: a face is tagged by its dimension and travel direction
inline constexpr int face_tag(int mu, int travel_dir) { return 2 * mu + (travel_dir > 0); }
inline constexpr int gauge_tag(int mu) { return 16 + mu; }

// launch geometry of every modeled kernel: 256 threads a block, the block
// size with the peak occupancy factor (gpusim/kernel_model.h)
inline constexpr gpusim::LaunchConfig kKernelLaunch{256, 0};

struct HaloDslashConfig {
  CommPolicy policy = CommPolicy::Overlap;
  Parity out_parity = Parity::Even;
  double scale = 1.0;
  Accumulate accumulate = Accumulate::No;
  TimeBoundary time_bc = TimeBoundary::Periodic;
  // gauge storage format a timing-only call charges the bytes of; a call
  // with fields reads it from its gauge field
  Reconstruct reconstruct = Reconstruct::Twelve;
};

// field set for one halo dslash: all three run the numerics, none makes the
// call timing-only, and a partial set raises std::invalid_argument
template <typename P> struct HaloFields {
  SpinorField<P>* out = nullptr;
  const GaugeField<P>* gauge = nullptr;
  SpinorField<P>* in = nullptr; // received ghosts are scattered into it
};

// out[local] (+)= scale * D in, exchanging faces with the grid neighbors in
// every partitioned dimension; advances the rank's simulated clock through
// the full protocol
template <typename P>
void halo_dslash(comm::QmpGrid& grid, const Geometry& local, const HaloDslashConfig& cfg,
                 HaloFields<P> f);

// one-time gauge ghost exchange at setup (Section VI-B): for each cut
// dimension mu, each rank sends the U_mu links of its last perpendicular
// slice forward; the receiver stores them in the pad of its mu slab.  The
// wire carries gauge_wire_reals() reals per link in the gauge field's
// format; a null gauge makes the exchange timing-only, and `recon` sets the
// bytes it charges.
template <typename P>
void exchange_gauge_ghost(comm::QmpGrid& grid, const Geometry& local, GaugeField<P>* gauge,
                          Reconstruct recon = Reconstruct::Twelve);

// one fused BLAS kernel sweeping `sites` sites of `reads` + `writes`
// vectors: its streaming time on the rank's device, and its effective
// flops added to `flops`
void charge_blas(sim::RankContext& ctx, Precision p, std::int64_t sites, int reads, int writes,
                 double& flops);

// single-parity interior site count for a partition mask (the work the
// overlapped interior kernel covers)
std::int64_t interior_sites(const Geometry& local, const PartitionMask& mask);

} // namespace quda::parallel
