#include "dirac/dslash.h"

#include "dirac/clover_term.h"
#include "exec/host_engine.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <type_traits>
#include <vector>

namespace quda {

namespace {

// --- the sites a pass visits ------------------------------------------------

// a run [begin, end) of consecutive checkerboard sites
struct CbSpan {
  std::int64_t begin, end;
};

// The sites of one parity in `region`, as maximal runs.  The X/2 sites of a
// row share (y, z, t).  A row is interior when none of its cut y, z, t
// coordinates lies on an edge, less, when x is cut, the one site of the row
// at x = 0 or x = X - 1 (the row's parity decides which); Boundary sites
// are the rest.  So each pass visits only its own sites.
std::vector<CbSpan> region_spans(const Geometry& g, Parity parity,
                                 const std::array<bool, 4>& ghost, KernelRegion region) {
  std::vector<CbSpan> spans;
  const auto add = [&](std::int64_t b, std::int64_t e) {
    if (b >= e) return;
    if (!spans.empty() && spans.back().end == b)
      spans.back().end = e;
    else
      spans.push_back({b, e});
  };
  if (region == KernelRegion::All) {
    add(0, g.half_volume());
    return spans;
  }
  const LatticeDims& d = g.dims();
  const std::int64_t xh = d.x / 2;
  const auto on_edge = [&](int mu, int c) {
    return ghost[static_cast<std::size_t>(mu)] && (c == 0 || c == d[mu] - 1);
  };
  for (std::int64_t row = 0; row * xh < g.half_volume(); ++row) {
    const int y = static_cast<int>(row % d.y);
    const int z = static_cast<int>(row / d.y % d.z);
    const int t = static_cast<int>(row / d.y / d.z);
    // the row's interior sites are [r0 + lo, r0 + hi)
    std::int64_t lo = 0, hi = xh;
    if (on_edge(1, y) || on_edge(2, z) || on_edge(3, t)) {
      hi = 0;
    } else if (ghost[0]) {
      const bool odd = (y + z + t + parity_int(parity)) & 1;
      lo = odd ? 0 : 1;
      hi = odd ? xh - 1 : xh;
    }
    const std::int64_t r0 = row * xh;
    if (region == KernelRegion::Interior) {
      add(r0 + lo, r0 + hi);
    } else if (lo >= hi) {
      add(r0, r0 + xh);
    } else {
      add(r0, r0 + lo);
      add(r0 + hi, r0 + xh);
    }
  }
  return spans;
}

// group(w, cb0) over the sites of `spans` in groups of W consecutive sites,
// with w = 1 for a span's last sites (for_each_lane_group).  The spans'
// sites are split into chunks of kSiteGrain for the engine; no bit depends
// on the chunks.
template <std::size_t W, typename Group>
void for_each_group(const std::vector<CbSpan>& spans, Group&& group) {
  std::vector<std::int64_t> first(spans.size() + 1, 0); // ordinal of each span's first site
  for (std::size_t s = 0; s < spans.size(); ++s)
    first[s + 1] = first[s] + spans[s].end - spans[s].begin;
  exec::parallel_for(0, first.back(), exec::kSiteGrain, [&](std::int64_t lo, std::int64_t hi) {
    auto s = static_cast<std::size_t>(std::upper_bound(first.begin(), first.end(), lo) - first.begin() - 1);
    for (; lo < hi; ++s) {
      const std::int64_t n = std::min(hi, first[s + 1]) - lo;
      const std::int64_t cb = spans[s].begin + (lo - first[s]);
      for_each_lane_group<W>(cb, cb + n, group);
      lo += n;
    }
  });
}

// --- the dslash site body ---------------------------------------------------
//
// One body for W sites cb0, ..., cb0 + W - 1, one a lane (su3/lanes.h):
// W = kSiteLanes<real_t> for a span's groups, W = 1 for its last sites.
// Every lane runs the scalar body's operations in its order, so the bits do
// not depend on W.  A hop's input is read as whole blocks when its W
// neighbours are consecutive sites (or consecutive ghost face sites), and
// lane by lane where a lane wraps an edge or, among body lanes, reads a
// ghost.

template <std::size_t W> struct SiteGroup {
  LaneSites<W> cb;
  std::array<Coords, W> x;
};

// the coordinates of checkerboard site cb + 1 of a parity from those of cb:
// the next site of the x row, or the first of the next row
inline Coords next_cb_coords(const LatticeDims& d, Parity parity, Coords c) {
  if (c[0] + 2 < d.x) {
    c[0] += 2;
    return c;
  }
  if (++c[1] == d.y) {
    c[1] = 0;
    if (++c[2] == d.z) {
      c[2] = 0;
      ++c[3];
    }
  }
  c[0] = (c[1] + c[2] + c[3] + parity_int(parity)) & 1;
  return c;
}

// h *= phase[k] in each lane k whose phase is not 1
template <typename T, std::size_t W>
void scale_half_spinor(HalfSpinor<Lanes<T, W>>& h, const Lanes<T, W>& phase) {
  bool uniform = true;
  for (std::size_t k = 1; k < W; ++k) uniform = uniform && phase[k] == phase[0];
  if (uniform) {
    if (phase[0] == T(1)) return;
    for (std::size_t sp = 0; sp < 2; ++sp)
      for (std::size_t c = 0; c < 3; ++c) h.s[sp][c] *= phase;
    return;
  }
  for (std::size_t k = 0; k < W; ++k)
    if (phase[k] != T(1))
      for (std::size_t sp = 0; sp < 2; ++sp)
        for (std::size_t c = 0; c < 3; ++c) {
          h.s[sp][c].re[k] *= phase[k];
          h.s[sp][c].im[k] *= phase[k];
        }
}

// one direction's hop onto the W lanes of a group: the neighbour sites (or,
// for lanes on a cut edge, the face sites), which lanes read the ghost,
// and the boundary phase of each lane
template <std::size_t W, typename T> struct Hop {
  LaneSites<W> site, face;
  std::array<bool, W> ghost;
  bool any_ghost = false, all_ghost = true;
  Lanes<T, W> phase{T(1)};
};

template <int Mu, int Dir, std::size_t W, typename T>
Hop<W, T> hop(const Geometry& g, const DslashOptions& opt, const SiteGroup<W>& s) {
  Hop<W, T> h;
  const int edge = Dir > 0 ? g.dims()[Mu] - 1 : 0;
  for (std::size_t k = 0; k < W; ++k) {
    const bool at_edge = s.x[k][Mu] == edge;
    h.ghost[k] = at_edge && opt.ghost[Mu];
    h.any_ghost = h.any_ghost || h.ghost[k];
    h.all_ghost = h.all_ghost && h.ghost[k];
    h.site[k] = g.neighbor_cb<Mu, Dir>(s.cb[k], s.x[k]);
    h.face[k] = h.ghost[k] ? g.face_index(Mu, s.x[k]) : 0;
    if (Mu == 3 && at_edge)
      h.phase[k] = static_cast<T>(Dir > 0 ? opt.bc_forward : opt.bc_backward);
  }
  return h;
}

// in a hop whose lanes read the body but some the ghost: those lanes' half
// spinors and, backward, their links (u), lane by lane and out of line
template <Reconstruct R, std::size_t W, typename P, typename T>
[[gnu::noinline]] void read_ghost_lanes(const SpinorField<P>& in, const GaugeField<P>& gauge,
                                        int mu, GhostFace face, Parity link_parity,
                                        const Hop<W, T>& hop, HalfSpinor<Lanes<T, W>>& h,
                                        SU3<Lanes<T, W>>* u) {
  for (std::size_t k = 0; k < W; ++k) {
    if (!hop.ghost[k]) continue;
    const LaneSites<1> fs{hop.face[k]};
    set_lane(h, k, in.load_ghost(mu, face, fs));
    if (u != nullptr) set_lane(*u, k, gauge.template load_ghost<R>(mu, link_parity, fs));
  }
}

// the forward and backward hops of direction Mu onto acc:
// P-mu U_mu(x) psi(x+mu) and P+mu U_mu(x-mu)^dag psi(x-mu)
template <int Mu, Reconstruct R, std::size_t W, typename P>
inline void add_hops(Spinor<Lanes<typename P::real_t, W>>& acc, const GaugeField<P>& gauge,
                     const SpinorField<P>& in, const Geometry& g, const DslashOptions& opt,
                     const SiteGroup<W>& s) {
  using real_t = typename P::real_t;
  using L = Lanes<real_t, W>;
  const Parity out_parity = opt.out_parity;
  const Parity in_parity = other(out_parity);
  {
    const Hop<W, real_t> f = hop<Mu, +1, W, real_t>(g, opt, s);
    HalfSpinor<L> h = f.all_ghost ? in.load_ghost(Mu, GhostFace::Forward, f.face)
                                  : project<Mu, -1>(in.load(f.site));
    if (f.any_ghost && !f.all_ghost)
      read_ghost_lanes<R>(in, gauge, Mu, GhostFace::Forward, in_parity, f, h,
                          static_cast<SU3<L>*>(nullptr));
    HalfSpinor<L> uh = gauge.template load<R>(Mu, out_parity, s.cb) * h;
    if constexpr (Mu == 3) scale_half_spinor(uh, f.phase);
    reconstruct_add<Mu, -1>(uh, acc);
  }
  {
    const Hop<W, real_t> b = hop<Mu, -1, W, real_t>(g, opt, s);
    HalfSpinor<L> h = b.all_ghost ? in.load_ghost(Mu, GhostFace::Backward, b.face)
                                  : project<Mu, +1>(in.load(b.site));
    SU3<L> u = b.all_ghost ? gauge.template load_ghost<R>(Mu, in_parity, b.face)
                           : gauge.template load<R>(Mu, in_parity, b.site);
    if (b.any_ghost && !b.all_ghost)
      read_ghost_lanes<R>(in, gauge, Mu, GhostFace::Backward, in_parity, b, h, &u);
    HalfSpinor<L> uh = adj_mul(u, h);
    if constexpr (Mu == 3) scale_half_spinor(uh, b.phase);
    reconstruct_add<Mu, +1>(uh, acc);
  }
}

template <std::size_t W, Reconstruct R, typename P>
[[gnu::flatten]] void dslash_group(SpinorField<P>& out, const GaugeField<P>& gauge,
                                   const SpinorField<P>& in, const Geometry& g,
                                   const DslashOptions& opt, std::int64_t cb0,
                                   typename P::real_t scale, Accumulate accumulate) {
  using L = Lanes<typename P::real_t, W>;
  SiteGroup<W> s;
  s.cb = consecutive_sites<W>(cb0);
  s.x[0] = g.cb_coords(opt.out_parity, cb0);
  for (std::size_t k = 1; k < W; ++k)
    s.x[k] = next_cb_coords(g.dims(), opt.out_parity, s.x[k - 1]);
  Spinor<L> acc{};
  add_hops<0, R>(acc, gauge, in, g, opt, s);
  add_hops<1, R>(acc, gauge, in, g, opt, s);
  add_hops<2, R>(acc, gauge, in, g, opt, s);
  add_hops<3, R>(acc, gauge, in, g, opt, s);

  acc *= L(scale);
  if (accumulate == Accumulate::Yes) {
    Spinor<L> prev = out.load(s.cb);
    prev += acc;
    out.store(cb0, prev);
  } else {
    out.store(cb0, acc);
  }
}

template <Reconstruct R, typename P>
void dslash_sites(SpinorField<P>& out, const GaugeField<P>& gauge, const SpinorField<P>& in,
                  const Geometry& g, const DslashOptions& opt, typename P::real_t scale,
                  Accumulate accumulate, KernelRegion region) {
  for_each_group<kSiteLanes<typename P::real_t>>(
      region_spans(g, opt.out_parity, opt.ghost, region),
      [&](auto w, std::int64_t cb0) {
        dslash_group<decltype(w)::value, R>(out, gauge, in, g, opt, cb0, scale, accumulate);
      });
}

// out = C x + b out on the W sites from cb0
template <std::size_t W, typename P>
[[gnu::flatten]] void clover_group(SpinorField<P>& out, const CloverField<P>& clover,
                                   Parity parity, const SpinorField<P>& x, std::int64_t cb0,
                                   typename P::real_t b) {
  using real_t = typename P::real_t;
  using L = Lanes<real_t, W>;
  const LaneSites<W> cb = consecutive_sites<W>(cb0);
  Spinor<L> res = apply_clover_site(clover.template load<W>(parity, cb0), x.load(cb));
  if (b != real_t(0)) {
    Spinor<L> prev = out.load(cb);
    prev *= L(b);
    res += prev;
  }
  out.store(cb0, res);
}

} // namespace

template <typename P>
void dslash(SpinorField<P>& out, const GaugeField<P>& gauge, const SpinorField<P>& in,
            const Geometry& g, const DslashOptions& opt, typename P::real_t scale,
            Accumulate accumulate, KernelRegion region) {
  switch (gauge.reconstruct()) {
    case Reconstruct::Eight:
      return dslash_sites<Reconstruct::Eight>(out, gauge, in, g, opt, scale, accumulate, region);
    case Reconstruct::Twelve:
      return dslash_sites<Reconstruct::Twelve>(out, gauge, in, g, opt, scale, accumulate, region);
    case Reconstruct::Eighteen:
      return dslash_sites<Reconstruct::Eighteen>(out, gauge, in, g, opt, scale, accumulate,
                                                 region);
  }
}

template <typename P>
void apply_clover_xpay(SpinorField<P>& out, const CloverField<P>& clover, Parity parity,
                       const SpinorField<P>& x, typename P::real_t b) {
  assert(out.sites() == x.sites());
  for_each_group<kSiteLanes<typename P::real_t>>(
      {{0, x.sites()}}, [&](auto w, std::int64_t cb0) {
        clover_group<decltype(w)::value>(out, clover, parity, x, cb0, b);
      });
}

// --- face exchange -----------------------------------------------------------

// Faces travel as 12 reals per face site in storage precision; half
// quantizes each projected half spinor under its own norm (the spinor norm
// rule of su3/halfprec.h over its 12 reals).  Gauge links travel in their
// stored parameterization (8 reals, phases scaled by 1/pi in half) or as 18
// full-matrix reals, without a norm.

template <typename P>
void pack_face(const SpinorField<P>& field, const Geometry& g, Parity field_parity, int mu,
               int sign, FaceBuffer<P>& buf) {
  using real_t = typename P::real_t;
  const std::int64_t nf = g.face_sites(mu);
  const int slice = sign > 0 ? g.dims()[mu] - 1 : 0;
  buf.resize(nf);

  // the projector is fixed once per face, outside the site loop
  detail::visit_hop(mu, sign, [&](auto m, auto s) {
  constexpr int Mu = decltype(m)::value, Sign = decltype(s)::value;
  exec::parallel_for(0, nf, exec::kFaceGrain, [&](std::int64_t lo, std::int64_t hi) {
  for (std::int64_t fs = lo; fs < hi; ++fs) {
    const Coords c = g.face_site_coords(mu, field_parity, slice, fs);
    const HalfSpinor<real_t> h = project<Mu, Sign>(field.load(g.cb_index(c)));
    auto* dst = buf.data.data() + fs * 12;
    if constexpr (P::has_norm) {
      const auto v = std::bit_cast<std::array<real_t, 12>>(h);
      const float m = max_abs_norm(v);
      buf.norm[static_cast<std::size_t>(fs)] = m;
      const auto q = encode(v, 1.0f / m);
      std::copy(q.begin(), q.end(), dst);
    } else {
      // component by component: a whole-object copy of h goes through the
      // stack in pieces the compiler then reloads in other widths, which
      // stalls store-to-load forwarding
      for (std::size_t sp = 0; sp < 2; ++sp)
        for (std::size_t col = 0; col < 3; ++col) {
          *dst++ = h.s[sp][col].re;
          *dst++ = h.s[sp][col].im;
        }
    }
  }
  });
  });
}

template <typename P>
void unpack_ghost(SpinorField<P>& field, const Geometry& g, int mu, GhostFace face,
                  const FaceBuffer<P>& buf) {
  using real_t = typename P::real_t;
  const std::int64_t nf = g.face_sites(mu);
  assert(std::int64_t(buf.data.size()) == nf * 12);

  exec::parallel_for(0, nf, exec::kFaceGrain, [&](std::int64_t lo, std::int64_t hi) {
  for (std::int64_t fs = lo; fs < hi; ++fs) {
    std::array<typename P::store_t, 12> raw;
    std::copy_n(buf.data.data() + fs * 12, 12, raw.data());
    if constexpr (P::has_norm) {
      const float norm = buf.norm[static_cast<std::size_t>(fs)];
      field.store_ghost(mu, face, fs, std::bit_cast<HalfSpinor<real_t>>(decode(raw, norm)), norm);
    } else {
      field.store_ghost(mu, face, fs, std::bit_cast<HalfSpinor<real_t>>(raw));
    }
  }
  });
}

template <typename P>
void pack_gauge_face(const GaugeField<P>& gauge, const Geometry& g, int mu,
                     GaugeFaceBuffer<P>& buf) {
  using real_t = typename P::real_t;
  constexpr bool half = P::value == Precision::Half;
  const std::int64_t nf = g.face_sites(mu);
  const int slice = g.dims()[mu] - 1;
  const int wire = gauge_wire_reals(gauge.reconstruct());
  buf.resize(nf, wire);

  // one link's wire reals, quantized in half
  const auto put = [](const auto& v, auto* dst) {
    if constexpr (half) {
      const auto q = encode(v, 1.0f);
      std::copy(q.begin(), q.end(), dst);
    } else {
      std::copy(v.begin(), v.end(), dst);
    }
  };

  for (int par = 0; par < 2; ++par) {
    const Parity parity = par == 0 ? Parity::Even : Parity::Odd;
    exec::parallel_for(0, nf, exec::kFaceGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t fs = lo; fs < hi; ++fs) {
      const Coords c = g.face_site_coords(mu, parity, slice, fs);
      const SU3<real_t> u = gauge.load(mu, parity, g.cb_index(c));
      auto* dst = buf.data.data() + (par * nf + fs) * wire;
      if (wire == 8) {
        // ship the stored parameterization itself; the phases use the same
        // fixed-point scaling rule as device storage in half precision
        std::array<real_t, 8> v = pack_eight(u).v;
        if constexpr (half)
          for (std::size_t j = 0; j < 2; ++j) v[j] = phase_to_unit(v[j]);
        put(v, dst);
      } else {
        put(std::bit_cast<std::array<real_t, 18>>(u), dst);
      }
    }
    });
  }
}

template <typename P>
void unpack_gauge_ghost(GaugeField<P>& gauge, const Geometry& g, int mu,
                        const GaugeFaceBuffer<P>& buf) {
  using store_t = typename P::store_t;
  constexpr bool half = P::value == Precision::Half;
  const std::int64_t nf = g.face_sites(mu);
  const int wire = gauge_wire_reals(gauge.reconstruct());
  assert(buf.nint == wire);
  assert(std::int64_t(buf.data.size()) == nf * 2 * wire);

  // one link's wire reals as doubles, dequantized in half
  const auto get = [&]<std::size_t N>(const store_t* src, std::array<double, N>& out) {
    std::array<store_t, N> raw;
    std::copy_n(src, N, raw.data());
    std::array<typename P::real_t, N> v;
    if constexpr (half) {
      v = decode(raw, 1.0f);
      if constexpr (N == 8)
        for (std::size_t j = 0; j < 2; ++j) v[j] = unit_to_phase(v[j]);
    } else {
      v = raw;
    }
    std::copy(v.begin(), v.end(), out.begin());
  };

  for (int par = 0; par < 2; ++par) {
    const Parity parity = par == 0 ? Parity::Even : Parity::Odd;
    exec::parallel_for(0, nf, exec::kFaceGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t fs = lo; fs < hi; ++fs) {
      const store_t* src = buf.data.data() + (par * nf + fs) * wire;
      SU3<double> u;
      if (wire == 8) {
        SU3Packed8<double> p;
        get(src, p.v);
        u = unpack_eight(p);
      } else {
        std::array<double, 18> m;
        get(src, m);
        u = std::bit_cast<SU3<double>>(m);
      }
      gauge.store_ghost(mu, parity, fs, u);
    }
    });
  }
}

// --- explicit instantiations -------------------------------------------------

#define QUDA_INSTANTIATE(P)                                                                       \
  template void dslash<P>(SpinorField<P>&, const GaugeField<P>&, const SpinorField<P>&,           \
                          const Geometry&, const DslashOptions&, P::real_t, Accumulate,           \
                          KernelRegion);                                                          \
  template void apply_clover_xpay<P>(SpinorField<P>&, const CloverField<P>&, Parity,              \
                                     const SpinorField<P>&, P::real_t);                           \
  template void pack_face<P>(const SpinorField<P>&, const Geometry&, Parity, int, int,            \
                             FaceBuffer<P>&);                                                     \
  template void unpack_ghost<P>(SpinorField<P>&, const Geometry&, int, GhostFace,                 \
                                const FaceBuffer<P>&);                                            \
  template void pack_gauge_face<P>(const GaugeField<P>&, const Geometry&, int,                    \
                                   GaugeFaceBuffer<P>&);                                          \
  template void unpack_gauge_ghost<P>(GaugeField<P>&, const Geometry&, int,                       \
                                      const GaugeFaceBuffer<P>&);

QUDA_INSTANTIATE(PrecDouble)
QUDA_INSTANTIATE(PrecSingle)
QUDA_INSTANTIATE(PrecHalf)

#undef QUDA_INSTANTIATE

} // namespace quda
