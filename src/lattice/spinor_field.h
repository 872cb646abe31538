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
// Half precision is decoded in load() and encoded in store(): 24 int16 of
// payload sharing one per-site max norm (Section V-C3).  The BLAS walker's
// half branch and convert_field reach half storage only through them.

#include "exec/host_engine.h"
#include "lattice/geometry.h"
#include "lattice/layout.h"
#include "lattice/precision.h"
#include "su3/spinor.h"

#include <array>
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

  // load/store walk the blocked layout incrementally: component pairs sit at
  // idx + w inside the current short vector, and idx jumps one block stride
  // when the vector is full -- same flat indices as layout_.index(site, n)
  // without the per-component integer division
  Spinor<real_t> load(std::int64_t site) const {
    assert(site >= 0 && site < layout_.sites);
    Spinor<real_t> s;
    const real_t scale = load_scale(site);
    const int nvec = layout_.nvec;
    const std::int64_t bstep = std::int64_t(nvec) * layout_.stride();
    std::int64_t idx = std::int64_t(nvec) * site;
    int w = 0;
    for (std::size_t spin = 0; spin < 4; ++spin)
      for (std::size_t c = 0; c < 3; ++c) {
        const real_t re = raw(idx + w) * scale;
        const real_t im = raw(idx + w + 1) * scale;
        s.s[spin][c] = Complex<real_t>(re, im);
        w += 2;
        if (w == nvec) {
          w = 0;
          idx += bstep;
        }
      }
    return s;
  }

  void store(std::int64_t site, const Spinor<real_t>& s) {
    assert(site >= 0 && site < layout_.sites);
    real_t inv = 1;
    if constexpr (P::has_norm) {
      float m = static_cast<float>(max_abs(s));
      if (m == 0.0f) m = 1e-37f;
      norm_[static_cast<std::size_t>(site)] = m;
      inv = real_t(1) / m;
    }
    const int nvec = layout_.nvec;
    const std::int64_t bstep = std::int64_t(nvec) * layout_.stride();
    std::int64_t idx = std::int64_t(nvec) * site;
    int w = 0;
    for (std::size_t spin = 0; spin < 4; ++spin)
      for (std::size_t c = 0; c < 3; ++c) {
        set_raw(idx + w, s.s[spin][c].re * inv);
        set_raw(idx + w + 1, s.s[spin][c].im * inv);
        w += 2;
        if (w == nvec) {
          w = 0;
          idx += bstep;
        }
      }
  }

  // --- ghost end zone --------------------------------------------------------

  HalfSpinor<real_t> load_ghost(int mu, GhostFace face, std::int64_t fs) const {
    assert(fs >= 0 && fs < ghost_sites(mu));
    HalfSpinor<real_t> h;
    const std::int64_t base = ghost_base(mu, face, fs);
    real_t scale = 1;
    if constexpr (P::has_norm) scale = ghost_norm(mu, face, fs);
    int n = 0;
    for (std::size_t spin = 0; spin < 2; ++spin)
      for (std::size_t c = 0; c < 3; ++c) {
        h.s[spin][c] = Complex<real_t>(raw(base + n) * scale, raw(base + n + 1) * scale);
        n += 2;
      }
    return h;
  }

  void store_ghost(int mu, GhostFace face, std::int64_t fs, const HalfSpinor<real_t>& h,
                   float norm = 1.0f) {
    assert(fs >= 0 && fs < ghost_sites(mu));
    const std::int64_t base = ghost_base(mu, face, fs);
    real_t inv = 1;
    if constexpr (P::has_norm) {
      set_ghost_norm(mu, face, fs, norm);
      inv = norm > 0 ? real_t(1) / norm : real_t(0);
    }
    int n = 0;
    for (std::size_t spin = 0; spin < 2; ++spin)
      for (std::size_t c = 0; c < 3; ++c) {
        set_raw(base + n, h.s[spin][c].re * inv);
        set_raw(base + n + 1, h.s[spin][c].im * inv);
        n += 2;
      }
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

  real_t load_scale(std::int64_t site) const {
    if constexpr (P::has_norm)
      return norm_[static_cast<std::size_t>(site)];
    else
      return real_t(1);
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

  real_t raw(std::int64_t i) const {
    const store_t v = data_[static_cast<std::size_t>(i)];
    if constexpr (P::value == Precision::Half)
      return from_half(v);
    else
      return static_cast<real_t>(v);
  }

  void set_raw(std::int64_t i, real_t v) {
    if constexpr (P::value == Precision::Half)
      data_[static_cast<std::size_t>(i)] = to_half(static_cast<float>(v));
    else
      data_[static_cast<std::size_t>(i)] = static_cast<store_t>(v);
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
