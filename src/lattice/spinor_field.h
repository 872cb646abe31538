#pragma once
// Device-resident color-spinor fields in the QUDA blocked layout, over a
// single parity (the solvers work on the even-odd preconditioned system, so
// all solver vectors are single-parity).
//
// Ghost zones: rather than placing received faces in the padding (which
// would double-count them in the reduction kernels), the field is oversized
// by an *end zone* holding the projected faces -- 12 reals per face site --
// exactly as described in Section VI-C.  The paper's decomposition divides
// only the time dimension (two faces); the multi-dimensional extension it
// lists as future work generalizes the end zone to two faces per
// partitioned dimension.  In half precision the norm array grows its own
// end zone (one float per face site).  No constructor picks the ghost shape
// for its caller: a field is built from a Geometry and the PartitionMask of
// its decomposition, or with like() from the field it stands in for.
//
// Every load and store of a site goes through the layout's one block
// gather/scatter and, in half precision, the codec of su3/halfprec.h: 24
// int16 of payload sharing one per-site max norm (Section V-C3).

#include "exec/host_engine.h"
#include "lattice/geometry.h"
#include "lattice/layout.h"
#include "lattice/precision.h"
#include "su3/spinor.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <vector>

namespace quda {

// which dimensions of the local lattice have off-rank neighbors
using PartitionMask = std::array<bool, 4>;

inline constexpr PartitionMask kPartitionTimeOnly{false, false, false, true};
inline constexpr PartitionMask kPartitionNone{false, false, false, false};

// which end-zone face a ghost half-spinor belongs to
enum class GhostFace : int {
  Backward = 0, // received from the backward (coord-1) neighbor: P+mu projected
  Forward = 1,  // received from the forward neighbor: P-mu projected
};

template <typename P> class SpinorField {
public:
  using store_t = typename P::store_t;
  using real_t = typename P::real_t;
  static constexpr int kNint = 24;      // 4 spin x 3 color complex
  static constexpr int kFaceReals = 12; // projected half-spinor

  SpinorField() = default;

  // raw layout: `sites` single-parity sites with a temporal end zone of
  // `face_sites` sites a face, `pad` pad sites per block (defaults to one
  // temporal face)
  SpinorField(std::int64_t sites, std::int64_t face_sites, std::int64_t pad = -1)
      : layout_(sites, pad < 0 ? face_sites : pad, kNint, P::nvec) {
    ghost_sites_[3] = face_sites;
    allocate();
  }

  // one pair of ghost faces per partitioned dimension; the caller names the
  // mask (the grid's partition_mask(), or kPartitionNone on one device)
  SpinorField(const Geometry& geom, const PartitionMask& partitioned)
      : layout_(geom.half_volume(), geom.half_spatial_volume(), kNint, P::nvec) {
    for (int mu = 0; mu < 4; ++mu)
      if (partitioned[mu]) ghost_sites_[mu] = geom.face_sites(mu);
    allocate();
  }

  // a fresh field with the same shape (sites, pad, ghost configuration)
  static SpinorField like(const SpinorField& o) {
    SpinorField f;
    f.layout_ = o.layout_;
    f.ghost_sites_ = o.ghost_sites_;
    f.allocate();
    return f;
  }

  std::int64_t sites() const { return layout_.sites; }
  const BlockLayout& layout() const { return layout_; }

  std::int64_t ghost_sites(int mu) const { return ghost_sites_[static_cast<std::size_t>(mu)]; }

  std::int64_t ghost_reals() const {
    std::int64_t r = 0;
    for (std::int64_t s : ghost_sites_) r += 2 * s * kFaceReals;
    return r;
  }

  // device memory footprint in bytes (body + ghost + norm array)
  std::int64_t device_bytes() const {
    std::int64_t b = (layout_.body_size() + ghost_reals()) * std::int64_t(sizeof(store_t));
    if constexpr (P::has_norm) b += std::int64_t(norm_.size()) * sizeof(float);
    return b;
  }

  // one site's 24 reals in component order (spin, color, re/im), the order
  // the layout's blocks hold them in: gathered by the layout, half decoded
  // with the site's norm.  A site stores under its own norm: the max-abs of
  // its reals (NaN skipped, 1e-37 for a zero site), so NaN stores as 0 and
  // an Inf makes every real of its site load as NaN.
  using Reals = std::array<real_t, kNint>;

  Reals load_reals(std::int64_t site) const {
    assert(site >= 0 && site < layout_.sites);
    std::array<store_t, kNint> raw;
    layout_.gather<P::nvec>(data_.data(), site, raw);
    if constexpr (P::has_norm)
      return decode(raw, norm_[static_cast<std::size_t>(site)]);
    else
      return raw;
  }

  void store_reals(std::int64_t site, const Reals& v) {
    assert(site >= 0 && site < layout_.sites);
    if constexpr (P::has_norm) {
      const float m = max_abs_norm(v);
      norm_[static_cast<std::size_t>(site)] = m;
      layout_.scatter<P::nvec>(encode(v, 1.0f / m), site, data_.data());
    } else {
      layout_.scatter<P::nvec>(v, site, data_.data());
    }
  }

  Spinor<real_t> load(std::int64_t site) const {
    return std::bit_cast<Spinor<real_t>>(load_reals(site));
  }

  void store(std::int64_t site, const Spinor<real_t>& s) {
    store_reals(site, std::bit_cast<Reals>(s));
  }

  // --- site lanes (su3/lanes.h) ------------------------------------------------

  // the W sites x as the lanes of one spinor, site x[k] in lane k: bit for
  // bit W calls of load().  Each lane reads its own site's blocks of the
  // layout, so a hop whose lanes wrap an edge costs no more than one whose
  // sites are consecutive.  Half decodes each lane under its own site's
  // norm.
  template <std::size_t W> Spinor<Lanes<real_t, W>> load(const LaneSites<W>& x) const {
    for ([[maybe_unused]] std::int64_t site : x) assert(site >= 0 && site < layout_.sites);
    std::array<Lanes<real_t, W>, kNint> v;
    if constexpr (P::has_norm) {
      Lanes<float, W> norm;
      for (std::size_t k = 0; k < W; ++k) norm[k] = norm_[static_cast<std::size_t>(x[k])];
      layout_.gather_lanes<P::nvec, kNint>(data_.data(), x, v, [&](store_t h, std::size_t k) {
        return from_half(h) * norm[k];
      });
    } else {
      layout_.gather_lanes<P::nvec, kNint>(data_.data(), x, v,
                                          [](store_t r, std::size_t) { return r; });
    }
    return spinor_from_reals(v);
  }

  // the W consecutive sites from x0 as lanes, bit for bit load(LaneSites):
  // each block is read and decoded as one run, and half multiplies each
  // lane by its site's norm after the transpose
  template <std::size_t W> Spinor<Lanes<real_t, W>> load(std::int64_t x0) const {
    assert(x0 >= 0 && x0 + std::int64_t(W) <= layout_.sites);
    std::array<Lanes<real_t, W>, kNint> v;
    if constexpr (P::has_norm) {
      layout_.gather_run<P::nvec, kNint>(data_.data(), x0, v,
                                        [](store_t h) { return from_half(h); });
      Lanes<float, W> norm;
      for (std::size_t k = 0; k < W; ++k) norm[k] = norm_[static_cast<std::size_t>(x0) + k];
      for (Lanes<float, W>& r : v) r *= norm;
    } else {
      layout_.gather_run<P::nvec, kNint>(data_.data(), x0, v, [](store_t r) { return r; });
    }
    return spinor_from_reals(v);
  }

  // the W consecutive sites from x0 from the lanes of s, bit for bit W calls
  // of store(): half takes each lane's norm over its own 24 reals
  template <std::size_t W> void store(std::int64_t x0, const Spinor<Lanes<real_t, W>>& s) {
    assert(x0 >= 0 && x0 + std::int64_t(W) <= layout_.sites);
    if constexpr (P::has_norm) {
      using L = Lanes<real_t, W>;
      const L m = max_abs_norm(std::bit_cast<std::array<L, kNint>>(s));
      for (std::size_t k = 0; k < W; ++k) norm_[static_cast<std::size_t>(x0) + k] = m[k];
      // scaled in lanes, then quantized in site order, where the encode
      // runs on whole runs of the block
      Spinor<L> scaled = s;
      scaled *= L(1.0f) / m;
      layout_.scatter_lanes<P::nvec, kNint>(scaled, x0, data_.data(),
                                           [](float r, std::size_t) { return to_half(r); });
    } else {
      layout_.scatter_lanes<P::nvec, kNint>(s, x0, data_.data(),
                                           [](real_t r, std::size_t) { return r; });
    }
  }

  // --- ghost end zone --------------------------------------------------------

  // a ghost face site is 12 contiguous reals; half decodes them with the
  // face site's norm and stores them under the norm it is given (the
  // sender's), with 0 for a norm that is not positive
  HalfSpinor<real_t> load_ghost(int mu, GhostFace face, std::int64_t fs) const {
    return std::bit_cast<HalfSpinor<real_t>>(load_ghost(mu, face, LaneSites<1>{fs}));
  }

  // the W face sites fs as lanes, bit for bit W calls of load_ghost()
  template <std::size_t W>
  HalfSpinor<Lanes<real_t, W>> load_ghost(int mu, GhostFace face, const LaneSites<W>& fs) const {
    std::array<Lanes<real_t, W>, kFaceReals> v;
    for (std::size_t k = 0; k < W; ++k) {
      assert(fs[k] >= 0 && fs[k] < ghost_sites(mu));
      const store_t* run = data_.data() + ghost_base(mu, face, fs[k]);
      const float norm = ghost_norm(mu, face, fs[k]);
      for (std::size_t n = 0; n < kFaceReals; ++n) {
        if constexpr (P::has_norm)
          v[n][k] = from_half(run[n]) * norm;
        else
          v[n][k] = run[n];
      }
    }
    return spinor_from_reals(v);
  }

  void store_ghost(int mu, GhostFace face, std::int64_t fs, const HalfSpinor<real_t>& h,
                   float norm = 1.0f) {
    assert(fs >= 0 && fs < ghost_sites(mu));
    using FaceReals = std::array<real_t, kFaceReals>;
    std::array<store_t, kFaceReals> raw;
    if constexpr (P::has_norm) {
      set_ghost_norm(mu, face, fs, norm);
      raw = encode(std::bit_cast<FaceReals>(h), norm > 0 ? 1.0f / norm : 0.0f);
    } else {
      raw = std::bit_cast<FaceReals>(h);
    }
    std::copy_n(raw.data(), kFaceReals, data_.data() + ghost_base(mu, face, fs));
  }

  float ghost_norm(int mu, GhostFace face, std::int64_t fs) const {
    if constexpr (P::has_norm)
      return norm_[static_cast<std::size_t>(norm_ghost_index(mu, face, fs))];
    else
      return 1.0f;
  }

  void zero() {
    data_.assign(data_.size(), store_t{});
    if constexpr (P::has_norm) norm_.assign(norm_.size(), 0.0f);
  }

  // direct access for layout tests and the face-packing code
  const std::vector<store_t>& raw_data() const { return data_; }
  std::vector<store_t>& raw_data() { return data_; }

  // norm array (empty unless P::has_norm), for tests that pin stored bits
  const std::vector<float>& norm_data() const { return norm_; }

private:
  void allocate() {
    std::int64_t ghost_off = layout_.body_size();
    std::int64_t norm_off = layout_.sites;
    for (int mu = 0; mu < 4; ++mu) {
      ghost_offset_[static_cast<std::size_t>(mu)] = ghost_off;
      norm_ghost_offset_[static_cast<std::size_t>(mu)] = norm_off;
      ghost_off += 2 * ghost_sites_[static_cast<std::size_t>(mu)] * kFaceReals;
      norm_off += 2 * ghost_sites_[static_cast<std::size_t>(mu)];
    }
    data_.assign(static_cast<std::size_t>(ghost_off), store_t{});
    if constexpr (P::has_norm) norm_.assign(static_cast<std::size_t>(norm_off), 0.0f);
  }

  std::int64_t norm_ghost_index(int mu, GhostFace face, std::int64_t fs) const {
    return norm_ghost_offset_[static_cast<std::size_t>(mu)] +
           static_cast<int>(face) * ghost_sites(mu) + fs;
  }

  void set_ghost_norm(int mu, GhostFace face, std::int64_t fs, float v) {
    if constexpr (P::has_norm)
      norm_[static_cast<std::size_t>(norm_ghost_index(mu, face, fs))] = v;
  }

  std::int64_t ghost_base(int mu, GhostFace face, std::int64_t fs) const {
    // per dimension: the backward face occupies the first half of that
    // dimension's end zone, the forward face the second (Section VI-C)
    return ghost_offset_[static_cast<std::size_t>(mu)] +
           (static_cast<int>(face) * ghost_sites(mu) + fs) * kFaceReals;
  }

  BlockLayout layout_{};
  std::array<std::int64_t, 4> ghost_sites_{};
  std::array<std::int64_t, 4> ghost_offset_{};
  std::array<std::int64_t, 4> norm_ghost_offset_{};
  std::vector<store_t> data_;
  std::vector<float> norm_;
};

using SpinorFieldD = SpinorField<PrecDouble>;
using SpinorFieldS = SpinorField<PrecSingle>;
using SpinorFieldH = SpinorField<PrecHalf>;

// Precision conversion, site by site: load() in the source precision, round
// each real to the destination's compute type, store() in the destination
// precision (so half takes store()'s per-site max norm).  Any precision
// pair and any pads.
template <typename PDst, typename PSrc>
void convert_field(const SpinorField<PSrc>& src, SpinorField<PDst>& dst) {
  assert(src.sites() == dst.sites());
  exec::parallel_for(0, src.sites(), exec::kBlasGrain, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) dst.store(i, convert<typename PDst::real_t>(src.load(i)));
  });
}

} // namespace quda
