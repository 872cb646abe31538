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
// end zone (one float per face site).
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

  // time-partitioned layout (the paper's production configuration):
  // `sites` single-parity sites, `face_sites` single-parity temporal face,
  // `pad` pad sites per block (defaults to one temporal face)
  SpinorField(std::int64_t sites, std::int64_t face_sites, std::int64_t pad = -1)
      : layout_(sites, pad < 0 ? face_sites : pad, kNint, P::nvec) {
    ghost_sites_[3] = face_sites;
    allocate();
  }

  explicit SpinorField(const Geometry& geom)
      : SpinorField(geom, kPartitionTimeOnly) {}

  // general decomposition: one pair of ghost faces per partitioned dimension
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

  // temporal face (backward-compatible accessor used by the 1-D paths)
  std::int64_t face_sites() const { return ghost_sites_[3]; }
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

  // --- ghost end zone --------------------------------------------------------

  // a ghost face site is 12 contiguous reals; half decodes them with the
  // face site's norm and stores them under the norm it is given (the
  // sender's), with 0 for a norm that is not positive
  HalfSpinor<real_t> load_ghost(int mu, GhostFace face, std::int64_t fs) const {
    assert(fs >= 0 && fs < ghost_sites(mu));
    std::array<store_t, kFaceReals> raw;
    std::copy_n(data_.data() + ghost_base(mu, face, fs), kFaceReals, raw.data());
    if constexpr (P::has_norm)
      return std::bit_cast<HalfSpinor<real_t>>(decode(raw, ghost_norm(mu, face, fs)));
    else
      return std::bit_cast<HalfSpinor<real_t>>(raw);
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

  // temporal-face convenience wrappers (the paper's 1-D decomposition)
  HalfSpinor<real_t> load_ghost(GhostFace face, std::int64_t fs) const {
    return load_ghost(3, face, fs);
  }
  void store_ghost(GhostFace face, std::int64_t fs, const HalfSpinor<real_t>& h,
                   float norm = 1.0f) {
    store_ghost(3, face, fs, h, norm);
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
