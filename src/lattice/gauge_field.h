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

  // time-partitioned layout: every slab padded by one temporal face
  GaugeField(std::int64_t sites, std::int64_t face_sites, Reconstruct recon) {
    std::array<std::int64_t, 4> pads{face_sites, face_sites, face_sites, face_sites};
    init(sites, pads, recon);
  }

  // general layout: slab mu padded by the face perpendicular to mu, so any
  // dimension can host a gauge ghost
  GaugeField(const Geometry& geom, Reconstruct recon) {
    std::array<std::int64_t, 4> pads;
    for (int mu = 0; mu < 4; ++mu) pads[static_cast<std::size_t>(mu)] = geom.face_sites(mu);
    init(geom.half_volume(), pads, recon);
  }

  Reconstruct reconstruct() const { return recon_; }
  const BlockLayout& layout(int mu = 3) const {
    return layouts_[static_cast<std::size_t>(mu)];
  }
  // temporal face (backward-compatible accessor)
  std::int64_t face_sites() const { return layouts_[3].pad; }
  std::int64_t ghost_capacity(int mu) const { return layouts_[static_cast<std::size_t>(mu)].pad; }

  std::int64_t device_bytes() const { return std::int64_t(data_.size()) * sizeof(store_t); }

  SU3<real_t> load(int mu, Parity parity, std::int64_t cb) const {
    assert(cb >= 0 && cb < layouts_[static_cast<std::size_t>(mu)].sites);
    return load_at(mu, slab_base(mu, parity), cb);
  }

  void store(int mu, Parity parity, std::int64_t cb, const SU3<double>& u) {
    assert(cb >= 0 && cb < layouts_[static_cast<std::size_t>(mu)].sites);
    store_at(mu, slab_base(mu, parity), cb, u);
  }

  // ghost links for a decomposition cutting dimension mu: the U_mu links of
  // the backward neighbor's last slice, living in the pad of the mu slab
  SU3<real_t> load_ghost(int mu, Parity parity, std::int64_t face_site) const {
    assert(face_site >= 0 && face_site < ghost_capacity(mu));
    return load_at(mu, slab_base(mu, parity), layouts_[static_cast<std::size_t>(mu)].sites + face_site);
  }

  void store_ghost(int mu, Parity parity, std::int64_t face_site, const SU3<double>& u) {
    assert(face_site >= 0 && face_site < ghost_capacity(mu));
    store_at(mu, slab_base(mu, parity), layouts_[static_cast<std::size_t>(mu)].sites + face_site, u);
  }

  // temporal wrappers (the paper's 1-D decomposition)
  SU3<real_t> load_ghost(Parity parity, std::int64_t face_site) const {
    return load_ghost(3, parity, face_site);
  }
  void store_ghost(Parity parity, std::int64_t face_site, const SU3<double>& u) {
    store_ghost(3, parity, face_site, u);
  }

  const std::vector<store_t>& raw_data() const { return data_; }

private:
  void init(std::int64_t sites, const std::array<std::int64_t, 4>& pads, Reconstruct recon) {
    recon_ = recon;
    const int nvec = recon == Reconstruct::Eighteen ? kFullNvec : P::nvec;
    std::int64_t off = 0;
    for (int mu = 0; mu < 4; ++mu) {
      layouts_[static_cast<std::size_t>(mu)] =
          BlockLayout(sites, pads[static_cast<std::size_t>(mu)], static_cast<int>(recon), nvec);
      base_[static_cast<std::size_t>(mu)] = off;
      off += 2 * layouts_[static_cast<std::size_t>(mu)].body_size();
    }
    data_.assign(static_cast<std::size_t>(off), store_t{});
  }

  std::int64_t slab_base(int mu, Parity parity) const {
    return base_[static_cast<std::size_t>(mu)] +
           parity_int(parity) * layouts_[static_cast<std::size_t>(mu)].body_size();
  }

  static constexpr bool kHalf = P::value == Precision::Half;
  // 18-real (uncompressed) storage is not divisible by a 4-vector, so it
  // always uses 2-vectors (QUDA stores uncompressed links as float2)
  static constexpr int kFullNvec = 2;

  // the N stored reals of link x (N = the reconstruct's reals, in Nvec W
  // short vectors), gathered by the layout; half decodes them (links carry
  // no norm)
  template <std::size_t N, std::size_t W = P::nvec>
  std::array<real_t, N> load_reals(const BlockLayout& l, std::int64_t base,
                                   std::int64_t x) const {
    std::array<store_t, N> raw;
    l.gather<W>(data_.data() + base, x, raw);
    if constexpr (kHalf)
      return decode(raw, 1.0f);
    else
      return raw;
  }

  template <std::size_t W = P::nvec, std::size_t N>
  void store_reals(const BlockLayout& l, std::int64_t base, std::int64_t x,
                   const std::array<real_t, N>& v) {
    if constexpr (kHalf)
      l.scatter<W>(encode(v, 1.0f), x, data_.data() + base);
    else
      l.scatter<W>(v, x, data_.data() + base);
  }

  SU3<real_t> load_at(int mu, std::int64_t base, std::int64_t x) const {
    const BlockLayout& l = layouts_[static_cast<std::size_t>(mu)];
    if (recon_ == Reconstruct::Eight) {
      SU3Packed8<real_t> p{load_reals<8>(l, base, x)};
      if constexpr (kHalf) // phases are stored as theta/pi
        for (std::size_t k = 0; k < 2; ++k) p.v[k] = unit_to_phase(p.v[k]);
      return unpack_eight(p);
    }
    if (recon_ == Reconstruct::Eighteen)
      return std::bit_cast<SU3<real_t>>(load_reals<18, kFullNvec>(l, base, x));
    // the two stored rows are the first 12 reals of the row-major matrix
    const auto rows = load_reals<12>(l, base, x);
    std::array<real_t, 18> m{};
    std::copy(rows.begin(), rows.end(), m.begin());
    SU3<real_t> u = std::bit_cast<SU3<real_t>>(m);
    u.e[2] = reconstruct_third_row(u.e[0], u.e[1]);
    return u;
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
