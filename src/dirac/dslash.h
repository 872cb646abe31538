#pragma once
// Optimized ("device") Wilson dslash kernels on QUDA-ordered parity fields,
// plus the face pack/unpack used by the multi-GPU halo exchange.
//
// These kernels mirror the structure of QUDA's CUDA kernels: one logical
// thread per output site, spin projection to half-spinors before the color
// multiply, 2-row gauge reconstruction in registers, and ghost-zone reads
// for hops that leave the local volume (Section VI).
//
// Any subset of the four dimensions may be partitioned (DslashOptions::
// ghost); the paper's production configuration cuts only time, and its
// "future work" multi-dimensional decomposition is the general case.  Since
// the spin projectors reduce every face to 12 numbers per site regardless
// of direction (footnote 3 of the paper), the same pack/unpack path serves
// all dimensions.
//
// A kernel sweeps the whole output parity.  For the overlap split a region
// selects the runs of consecutive checkerboard sites each pass visits; on
// a multi-dimensional cut the interior/boundary split is not contiguous.
//
// The site bodies run W consecutive sites of a run at once, one per SIMD
// lane (su3/lanes.h): the host analogue of one CUDA thread per site.
//
// Local parity equals global parity only when every rank's coordinate
// offsets are even; the parallel driver enforces an even local extent in
// every cut dimension, and an even local Y when x is cut (the x face is
// checkerboarded along y, see Geometry::face_site_coords).

#include "lattice/clover_field.h"
#include "lattice/gauge_field.h"
#include "lattice/geometry.h"
#include "lattice/spinor_field.h"
#include "su3/gamma.h"

#include <array>
#include <cstdint>
#include <vector>

namespace quda {

struct DslashOptions {
  Parity out_parity = Parity::Even;
  // per dimension: hops crossing the local edge read the spinor ghost end
  // zone (and, backward, the gauge ghost pad) instead of wrapping
  std::array<bool, 4> ghost{};
  // phase applied to a hop crossing the local t=0 / t=T-1 edge; encodes the
  // global fermion boundary condition on the ranks that own a global edge
  double bc_backward = 1.0;
  double bc_forward = 1.0;
};

enum class Accumulate { No, Yes };

// site filter for the overlap split: Interior sites touch no partitioned
// edge; Boundary sites touch at least one
enum class KernelRegion { All, Interior, Boundary };

// out[region] (+)= scale * sum_mu hops(in)  -- the raw hopping sum D x,
// without the -1/2 normalization (the callers fold that into `scale`)
template <typename P>
void dslash(SpinorField<P>& out, const GaugeField<P>& gauge, const SpinorField<P>& in,
            const Geometry& g, const DslashOptions& opt, typename P::real_t scale,
            Accumulate accumulate, KernelRegion region = KernelRegion::All);

// out = C * x + b * out on every site of parity `parity` (apply the clover
// blocks; b=0 overwrites)
template <typename P>
void apply_clover_xpay(SpinorField<P>& out, const CloverField<P>& clover, Parity parity,
                       const SpinorField<P>& x, typename P::real_t b);

// --- face exchange ----------------------------------------------------------

// A host-side staging buffer for one projected face.  The payload is in
// storage precision (half keeps one float norm per face site), so its byte
// size is exactly what crosses PCI-E and the network.
template <typename P> struct FaceBuffer {
  using store_t = typename P::store_t;
  std::vector<store_t> data;
  std::vector<float> norm;

  void resize(std::int64_t face_sites) {
    data.assign(static_cast<std::size_t>(face_sites * 12), store_t{});
    if constexpr (P::has_norm) norm.assign(static_cast<std::size_t>(face_sites), 0.0f);
  }

  std::int64_t bytes() const {
    return std::int64_t(data.size()) * sizeof(store_t) + std::int64_t(norm.size()) * sizeof(float);
  }
};

// gather the spin-projected face of `field` (parity `field_parity`)
// perpendicular to mu with projector sign `sign`: +1 packs P+mu of the last
// slice, the face sent to the forward neighbor; -1 packs P-mu of slice 0,
// sent backward
template <typename P>
void pack_face(const SpinorField<P>& field, const Geometry& g, Parity field_parity, int mu,
               int sign, FaceBuffer<P>& buf);

// scatter a received face buffer into the mu ghost end zone of `field`
template <typename P>
void unpack_ghost(SpinorField<P>& field, const Geometry& g, int mu, GhostFace face,
                  const FaceBuffer<P>& buf);

// wire format of the gauge ghost exchange: recon-8 links travel in their
// stored 8-real parameterization; 12- and 18-real fields ship full SU(3)
// rows (the receiver re-compresses into its own storage)
inline constexpr int gauge_wire_reals(Reconstruct r) {
  return r == Reconstruct::Eight ? 8 : 18;
}

// copy the sender-side gauge ghost for a cut in dimension mu: the U_mu
// links on this rank's last slice, packed per link in storage precision
template <typename P> struct GaugeFaceBuffer {
  using store_t = typename P::store_t;
  std::vector<store_t> data; // face_sites * 2 parities * nint reals
  int nint = 18;             // wire reals per link (gauge_wire_reals)

  void resize(std::int64_t face_sites, int wire_reals = 18) {
    nint = wire_reals;
    data.assign(static_cast<std::size_t>(face_sites * 2 * wire_reals), store_t{});
  }
  std::int64_t bytes() const { return std::int64_t(data.size()) * sizeof(store_t); }
};

// gather the U_mu links of the last slice perpendicular to mu
template <typename P>
void pack_gauge_face(const GaugeField<P>& gauge, const Geometry& g, int mu,
                     GaugeFaceBuffer<P>& buf);

template <typename P>
void unpack_gauge_ghost(GaugeField<P>& gauge, const Geometry& g, int mu,
                        const GaugeFaceBuffer<P>& buf);

} // namespace quda
