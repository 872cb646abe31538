#pragma once
// Device-resident clover field: two packed 6x6 Hermitian chiral blocks per
// site (72 reals, footnote 1 of the paper) in the QUDA blocked layout, one
// slab per parity.  The even-odd preconditioned operator additionally needs
// the *inverse* clover term, which is simply a second CloverField holding
// ((4+m) + A)^{-1} blocks.
//
// In half precision the 72 reals share one norm per site (their dynamic
// range is set by csw * F, which mixes all components).

#include "lattice/geometry.h"
#include "lattice/layout.h"
#include "lattice/precision.h"
#include "su3/clover_block.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <vector>

namespace quda {

template <typename P> class CloverField {
public:
  using store_t = typename P::store_t;
  using real_t = typename P::real_t;
  static constexpr int kNint = 72;

  CloverField() = default;

  CloverField(std::int64_t sites, std::int64_t pad)
      : layout_(sites, pad, kNint, P::nvec) {
    slab_ = layout_.body_size();
    data_.assign(static_cast<std::size_t>(2 * slab_), store_t{});
    if constexpr (P::has_norm) norm_.assign(static_cast<std::size_t>(2 * layout_.sites), 0.0f);
  }

  explicit CloverField(const Geometry& geom)
      : CloverField(geom.half_volume(), geom.half_spatial_volume()) {}

  const BlockLayout& layout() const { return layout_; }

  std::int64_t device_bytes() const {
    std::int64_t b = 2 * slab_ * std::int64_t(sizeof(store_t));
    if constexpr (P::has_norm) b += std::int64_t(norm_.size()) * sizeof(float);
    return b;
  }

  // a site's 72 reals in component order (block 0 then 1; each its 6
  // diagonal reals, then the 15 lower-triangle complex entries), the order
  // of CloverSite's members: gathered by the layout, half decoded with the
  // site's norm
  CloverSite<real_t> load(Parity parity, std::int64_t cb) const {
    assert(cb >= 0 && cb < layout_.sites);
    std::array<store_t, kNint> raw;
    layout_.gather<P::nvec>(data_.data() + parity_int(parity) * slab_, cb, raw);
    if constexpr (P::has_norm)
      return std::bit_cast<CloverSite<real_t>>(decode(raw, norm_[norm_index(parity, cb)]));
    else
      return std::bit_cast<CloverSite<real_t>>(raw);
  }

  // half stores under the site's max-abs, taken and inverted in double (1e-37
  // for a zero site); each real is scaled in double before it rounds to float
  void store(Parity parity, std::int64_t cb, const CloverSite<double>& site) {
    assert(cb >= 0 && cb < layout_.sites);
    const auto v = std::bit_cast<std::array<double, kNint>>(site);
    double inv = 1;
    if constexpr (P::has_norm) {
      double m = 0;
      for (double x : v) m = std::max(m, std::abs(x));
      if (m == 0) m = 1e-37;
      norm_[norm_index(parity, cb)] = static_cast<float>(m);
      inv = 1.0 / m;
    }
    std::array<real_t, kNint> r;
    for (std::size_t k = 0; k < v.size(); ++k) r[k] = static_cast<real_t>(v[k] * inv);
    store_t* body = data_.data() + parity_int(parity) * slab_;
    if constexpr (P::has_norm)
      layout_.scatter<P::nvec>(encode(r, 1.0f), cb, body);
    else
      layout_.scatter<P::nvec>(r, cb, body);
  }

private:
  std::size_t norm_index(Parity parity, std::int64_t cb) const {
    return static_cast<std::size_t>(parity_int(parity) * layout_.sites + cb);
  }

  BlockLayout layout_{};
  std::int64_t slab_ = 0;
  std::vector<store_t> data_;
  std::vector<float> norm_;
};

using CloverFieldD = CloverField<PrecDouble>;
using CloverFieldS = CloverField<PrecSingle>;
using CloverFieldH = CloverField<PrecHalf>;

} // namespace quda
