#pragma once
// Device-resident gauge field in the QUDA blocked layout.
//
// Storage is per direction mu and per parity; each (mu, parity) slab is a
// BlockLayout over the half-volume, padded by one face perpendicular to mu.
// Links are stored full (18 reals), 2-row compressed (12 reals, Section
// V-C1), or in the minimal 8-real parameterization (Clark et al.,
// arXiv:0911.3191) -- the knob that trades reconstruction arithmetic for
// gauge memory traffic on the bandwidth-bound dslash.
//
// Gauge ghost zone (Section VI-B): for a decomposition that cuts dimension
// mu, the link matrices that must be fetched from the backward neighbor are
// the U_mu links of its last slice perpendicular to mu.  Since the pad
// region of the mu slab is exactly one such face in size, the ghost links
// are stored *inside the padding* -- no extra allocation.  (The paper does
// this for the time direction; the multi-dimensional extension applies the
// same trick per cut dimension.)

#include "lattice/geometry.h"
#include "lattice/layout.h"
#include "lattice/precision.h"
#include "su3/su3.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <vector>

namespace quda {

enum class Reconstruct : int {
  Eight = 8,     // phase + second-row parameterization, fully rebuilt in registers
  Twelve = 12,   // 2-row compressed, third row rebuilt in registers
  Eighteen = 18, // full matrix
};

// stored reals per link = the enum value
inline constexpr int reals_per_link(Reconstruct r) { return static_cast<int>(r); }

inline const char* to_string(Reconstruct r) {
  switch (r) {
    case Reconstruct::Eight: return "8";
    case Reconstruct::Twelve: return "12";
    case Reconstruct::Eighteen: return "18";
  }
  return "?";
}

template <typename P> class GaugeField {
public:
  using store_t = typename P::store_t;
  using real_t = typename P::real_t;

  GaugeField() = default;

  // slab mu padded by the face perpendicular to mu, so any dimension can
  // host a gauge ghost
  GaugeField(const Geometry& geom, Reconstruct recon) : recon_(recon) {
    const std::int64_t sites = geom.half_volume();
    const int nvec = recon == Reconstruct::Eighteen ? kFullNvec : P::nvec;
    std::int64_t off = 0;
    for (int mu = 0; mu < 4; ++mu) {
      layouts_[static_cast<std::size_t>(mu)] =
          BlockLayout(sites, geom.face_sites(mu), static_cast<int>(recon), nvec);
      base_[static_cast<std::size_t>(mu)] = off;
      off += 2 * layouts_[static_cast<std::size_t>(mu)].body_size();
    }
    data_.assign(static_cast<std::size_t>(off), store_t{});
  }

  Reconstruct reconstruct() const { return recon_; }
  std::int64_t ghost_capacity(int mu) const { return layouts_[static_cast<std::size_t>(mu)].pad; }

  std::int64_t device_bytes() const { return std::int64_t(data_.size()) * sizeof(store_t); }

  // R must be reconstruct(): the kernels dispatch on it once per call and
  // load with the reconstruction fixed at compile time
  template <Reconstruct R> SU3<real_t> load(int mu, Parity parity, std::int64_t cb) const {
    return std::bit_cast<SU3<real_t>>(load<R>(mu, parity, LaneSites<1>{cb}));
  }
  SU3<real_t> load(int mu, Parity parity, std::int64_t cb) const {
    assert(cb >= 0 && cb < layouts_[static_cast<std::size_t>(mu)].sites);
    return load_at(mu, slab_base(mu, parity), cb);
  }

  // the links of the W sites cb as lanes (su3/lanes.h), bit for bit W calls
  // of load<R>(), each lane from its own site's blocks
  template <Reconstruct R, std::size_t W>
  SU3<Lanes<real_t, W>> load(int mu, Parity parity, const LaneSites<W>& cb) const {
    assert(R == recon_);
    for ([[maybe_unused]] std::int64_t x : cb)
      assert(x >= 0 && x < layouts_[static_cast<std::size_t>(mu)].sites);
    return load_at<R>(mu, slab_base(mu, parity), cb);
  }

  void store(int mu, Parity parity, std::int64_t cb, const SU3<double>& u) {
    assert(cb >= 0 && cb < layouts_[static_cast<std::size_t>(mu)].sites);
    store_at(mu, slab_base(mu, parity), cb, u);
  }

  // ghost links for a decomposition cutting dimension mu: the U_mu links of
  // the backward neighbor's last slice, living in the pad of the mu slab
  template <Reconstruct R>
  SU3<real_t> load_ghost(int mu, Parity parity, std::int64_t face_site) const {
    return std::bit_cast<SU3<real_t>>(load_ghost<R>(mu, parity, LaneSites<1>{face_site}));
  }
  SU3<real_t> load_ghost(int mu, Parity parity, std::int64_t face_site) const {
    assert(face_site >= 0 && face_site < ghost_capacity(mu));
    return load_at(mu, slab_base(mu, parity), layouts_[static_cast<std::size_t>(mu)].sites + face_site);
  }
  // the ghost links of the W face sites fs as lanes
  template <Reconstruct R, std::size_t W>
  SU3<Lanes<real_t, W>> load_ghost(int mu, Parity parity, const LaneSites<W>& fs) const {
    assert(R == recon_);
    LaneSites<W> slot;
    for (std::size_t k = 0; k < W; ++k) {
      assert(fs[k] >= 0 && fs[k] < ghost_capacity(mu));
      slot[k] = layouts_[static_cast<std::size_t>(mu)].sites + fs[k];
    }
    return load_at<R>(mu, slab_base(mu, parity), slot);
  }

  void store_ghost(int mu, Parity parity, std::int64_t face_site, const SU3<double>& u) {
    assert(face_site >= 0 && face_site < ghost_capacity(mu));
    store_at(mu, slab_base(mu, parity), layouts_[static_cast<std::size_t>(mu)].sites + face_site, u);
  }

  const std::vector<store_t>& raw_data() const { return data_; }

private:
  std::int64_t slab_base(int mu, Parity parity) const {
    return base_[static_cast<std::size_t>(mu)] +
           parity_int(parity) * layouts_[static_cast<std::size_t>(mu)].body_size();
  }

  static constexpr bool kHalf = P::value == Precision::Half;
  // 18-real (uncompressed) storage is not divisible by a 4-vector, so it
  // always uses 2-vectors (QUDA stores uncompressed links as float2)
  static constexpr int kFullNvec = 2;

  // the N stored reals of the W links in slots x into the first N reals of
  // the aggregate of lanes a (N = the reconstruct's reals, in short vectors
  // of Nv), gathered by the layout; half decodes them (links carry no norm)
  template <std::size_t N, std::size_t Nv = P::nvec, std::size_t W, typename A>
  void load_lanes(const BlockLayout& l, std::int64_t base, const LaneSites<W>& x, A& a) const {
    if constexpr (kHalf)
      l.gather_lanes<Nv, N>(data_.data() + base, x, a,
                            [](store_t h, std::size_t) { return from_half(h); });
    else
      l.gather_lanes<Nv, N>(data_.data() + base, x, a, [](store_t r, std::size_t) { return r; });
  }

  template <std::size_t Nv = P::nvec, std::size_t N>
  void store_reals(const BlockLayout& l, std::int64_t base, std::int64_t x,
                   const std::array<real_t, N>& v) {
    if constexpr (kHalf)
      l.scatter<Nv>(encode(v, 1.0f), x, data_.data() + base);
    else
      l.scatter<Nv>(v, x, data_.data() + base);
  }

  // the links in slots x of slab mu, lane k from slot x[k]
  template <Reconstruct R, std::size_t W>
  SU3<Lanes<real_t, W>> load_at(int mu, std::int64_t base, const LaneSites<W>& x) const {
    using L = Lanes<real_t, W>;
    const BlockLayout& l = layouts_[static_cast<std::size_t>(mu)];
    // the stored reals, then the matrix built from them member by member
    // (a matrix cleared first and then filled costs a block clear per load)
    std::array<L, static_cast<std::size_t>(R)> v;
    load_lanes<static_cast<std::size_t>(R), R == Reconstruct::Eighteen ? kFullNvec : P::nvec>(
        l, base, x, v);
    if constexpr (R == Reconstruct::Eight) {
      // the parameterization's phases and branch are per link: lane by lane
      SU3<L> u;
      for (std::size_t k = 0; k < W; ++k) {
        SU3Packed8<real_t> p;
        for (std::size_t i = 0; i < 8; ++i) p.v[i] = v[i][k];
        if constexpr (kHalf) // phases are stored as theta/pi
          for (std::size_t i = 0; i < 2; ++i) p.v[i] = unit_to_phase(p.v[i]);
        set_lane(u, k, std::bit_cast<SU3<Lanes<real_t, 1>>>(unpack_eight(p)));
      }
      return u;
    } else {
      const auto row = [&](std::size_t r) {
        return std::array<Complex<L>, 3>{Complex<L>(v[6 * r], v[6 * r + 1]),
                                         Complex<L>(v[6 * r + 2], v[6 * r + 3]),
                                         Complex<L>(v[6 * r + 4], v[6 * r + 5])};
      };
      // recon 12: the two stored rows are the first 12 reals of the
      // row-major matrix, and the third is rebuilt from them
      if constexpr (R == Reconstruct::Eighteen)
        return SU3<L>{{row(0), row(1), row(2)}};
      else
        return SU3<L>{{row(0), row(1), reconstruct_third_row(row(0), row(1))}};
    }
  }
  template <Reconstruct R> SU3<real_t> load_at(int mu, std::int64_t base, std::int64_t x) const {
    return std::bit_cast<SU3<real_t>>(load_at<R>(mu, base, LaneSites<1>{x}));
  }

  SU3<real_t> load_at(int mu, std::int64_t base, std::int64_t x) const {
    switch (recon_) {
      case Reconstruct::Eight: return load_at<Reconstruct::Eight>(mu, base, x);
      case Reconstruct::Twelve: return load_at<Reconstruct::Twelve>(mu, base, x);
      case Reconstruct::Eighteen: break;
    }
    return load_at<Reconstruct::Eighteen>(mu, base, x);
  }

  void store_at(int mu, std::int64_t base, std::int64_t x, const SU3<double>& u) {
    const BlockLayout& l = layouts_[static_cast<std::size_t>(mu)];
    if (recon_ == Reconstruct::Eight) {
      const SU3Packed8<double> p = pack_eight(u);
      std::array<real_t, 8> v;
      for (std::size_t k = 0; k < 8; ++k) v[k] = static_cast<real_t>(p.v[k]);
      if constexpr (kHalf) // keep the fixed-point range
        for (std::size_t k = 0; k < 2; ++k) v[k] = phase_to_unit(v[k]);
      store_reals(l, base, x, v);
      return;
    }
    const auto m = std::bit_cast<std::array<double, 18>>(u);
    std::array<real_t, 18> v;
    for (std::size_t k = 0; k < 18; ++k) v[k] = static_cast<real_t>(m[k]);
    if (recon_ == Reconstruct::Eighteen) {
      store_reals<kFullNvec>(l, base, x, v);
      return;
    }
    std::array<real_t, 12> rows; // the first two rows
    std::copy_n(v.begin(), 12, rows.begin());
    store_reals(l, base, x, rows);
  }

  Reconstruct recon_ = Reconstruct::Twelve;
  std::array<BlockLayout, 4> layouts_{};
  std::array<std::int64_t, 4> base_{};
  std::vector<store_t> data_;
};

using GaugeFieldD = GaugeField<PrecDouble>;
using GaugeFieldS = GaugeField<PrecSingle>;
using GaugeFieldH = GaugeField<PrecHalf>;

} // namespace quda
