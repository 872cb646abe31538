#include "dirac/dslash.h"

#include "exec/host_engine.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

namespace quda {

namespace {

template <typename T> void scale_half_spinor(HalfSpinor<T>& h, T s) {
  for (std::size_t sp = 0; sp < 2; ++sp)
    for (std::size_t c = 0; c < 3; ++c) h.s[sp][c] *= s;
}

// does this site touch any partitioned edge?
inline bool on_partitioned_edge(const Coords& c, const LatticeDims& dims,
                                const std::array<bool, 4>& ghost) {
  for (int mu = 0; mu < 4; ++mu)
    if (ghost[static_cast<std::size_t>(mu)] && (c[mu] == 0 || c[mu] == dims[mu] - 1))
      return true;
  return false;
}

} // namespace

template <typename P>
void dslash(SpinorField<P>& out, const GaugeField<P>& gauge, const SpinorField<P>& in,
            const Geometry& g, const DslashOptions& opt, std::int64_t cb_begin,
            std::int64_t cb_end, typename P::real_t scale, Accumulate accumulate,
            KernelRegion region) {
  using real_t = typename P::real_t;
  const Parity out_parity = opt.out_parity;
  const Parity in_parity = other(out_parity);

  exec::parallel_for(cb_begin, cb_end, exec::kSiteGrain, [&](std::int64_t lo, std::int64_t hi) {
  for (std::int64_t cb = lo; cb < hi; ++cb) {
    const Coords x = g.cb_coords(out_parity, cb);
    if (region != KernelRegion::All) {
      const bool boundary = on_partitioned_edge(x, g.dims(), opt.ghost);
      if (region == KernelRegion::Interior && boundary) continue;
      if (region == KernelRegion::Boundary && !boundary) continue;
    }
    Spinor<real_t> acc{};

    for (int mu = 0; mu < 4; ++mu) {
      const int len = g.dims()[mu];
      const bool dim_ghost = opt.ghost[static_cast<std::size_t>(mu)];
      // ---- forward hop: P-mu U_mu(x) psi(x+mu) --------------------------
      {
        const bool at_edge = x[mu] == len - 1;
        const bool ghost = at_edge && dim_ghost;
        const real_t phase =
            (mu == 3 && at_edge) ? static_cast<real_t>(opt.bc_forward) : real_t(1);
        HalfSpinor<real_t> h;
        if (ghost) {
          h = in.load_ghost(mu, GhostFace::Forward, g.face_index(mu, x));
        } else {
          const Coords xf = g.neighbor(x, mu, +1);
          h = project(mu, -1, in.load(g.cb_index(xf)));
        }
        h = gauge.load(mu, out_parity, cb) * h;
        if (phase != real_t(1)) scale_half_spinor(h, phase);
        reconstruct_add(mu, -1, h, acc);
      }
      // ---- backward hop: P+mu U_mu(x-mu)^dag psi(x-mu) ------------------
      {
        const bool at_edge = x[mu] == 0;
        const bool ghost = at_edge && dim_ghost;
        const real_t phase =
            (mu == 3 && at_edge) ? static_cast<real_t>(opt.bc_backward) : real_t(1);
        HalfSpinor<real_t> h;
        SU3<real_t> u;
        if (ghost) {
          const std::int64_t fs = g.face_index(mu, x);
          h = in.load_ghost(mu, GhostFace::Backward, fs);
          u = gauge.load_ghost(mu, in_parity, fs);
        } else {
          const Coords xb = g.neighbor(x, mu, -1);
          const std::int64_t cb_b = g.cb_index(xb);
          h = project(mu, +1, in.load(cb_b));
          u = gauge.load(mu, in_parity, cb_b);
        }
        h = adj_mul(u, h);
        if (phase != real_t(1)) scale_half_spinor(h, phase);
        reconstruct_add(mu, +1, h, acc);
      }
    }

    acc *= scale;
    if (accumulate == Accumulate::Yes) {
      Spinor<real_t> prev = out.load(cb);
      prev += acc;
      out.store(cb, prev);
    } else {
      out.store(cb, acc);
    }
  }
  });
}

template <typename P>
void apply_clover_xpay(SpinorField<P>& out, const CloverField<P>& clover, Parity parity,
                       const SpinorField<P>& x, const Geometry& g, std::int64_t cb_begin,
                       std::int64_t cb_end, typename P::real_t b) {
  using real_t = typename P::real_t;
  (void)g;
  const SpinMatrix& w = chiral_transform();
  const SpinMatrix wd = adjoint(w);

  exec::parallel_for(cb_begin, cb_end, exec::kSiteGrain, [&](std::int64_t lo, std::int64_t hi) {
  for (std::int64_t cb = lo; cb < hi; ++cb) {
    const CloverSite<real_t> site = clover.load(parity, cb);
    const Spinor<real_t> xin = x.load(cb);
    // chi = W^dag x; block apply; eta = W (B chi)
    const Spinor<real_t> chi = apply_spin(wd, xin);
    Spinor<real_t> eta;
    for (int blk = 0; blk < 2; ++blk) {
      std::array<Complex<real_t>, 6> v{};
      for (std::size_t s = 0; s < 2; ++s)
        for (std::size_t c = 0; c < 3; ++c) v[3 * s + c] = chi.s[2 * blk + s][c];
      const std::array<Complex<real_t>, 6> y = site.block[blk].apply(v);
      for (std::size_t s = 0; s < 2; ++s)
        for (std::size_t c = 0; c < 3; ++c) eta.s[2 * blk + s][c] = y[3 * s + c];
    }
    Spinor<real_t> res = apply_spin(w, eta);
    if (b != real_t(0)) {
      Spinor<real_t> prev = out.load(cb);
      prev *= b;
      res += prev;
    }
    out.store(cb, res);
  }
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
               int slice, int sign, FaceBuffer<P>& buf) {
  using real_t = typename P::real_t;
  const std::int64_t nf = g.face_sites(mu);
  buf.resize(nf);

  exec::parallel_for(0, nf, exec::kFaceGrain, [&](std::int64_t lo, std::int64_t hi) {
  for (std::int64_t fs = lo; fs < hi; ++fs) {
    const Coords c = g.face_site_coords(mu, field_parity, slice, fs);
    const HalfSpinor<real_t> h = project(mu, sign, field.load(g.cb_index(c)));
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
void pack_gauge_face(const GaugeField<P>& gauge, const Geometry& g, int mu, int slice,
                     GaugeFaceBuffer<P>& buf) {
  using real_t = typename P::real_t;
  constexpr bool half = P::value == Precision::Half;
  const std::int64_t nf = g.face_sites(mu);
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
                          const Geometry&, const DslashOptions&, std::int64_t, std::int64_t,      \
                          P::real_t, Accumulate, KernelRegion);                                   \
  template void apply_clover_xpay<P>(SpinorField<P>&, const CloverField<P>&, Parity,              \
                                     const SpinorField<P>&, const Geometry&, std::int64_t,        \
                                     std::int64_t, P::real_t);                                    \
  template void pack_face<P>(const SpinorField<P>&, const Geometry&, Parity, int, int, int,       \
                             FaceBuffer<P>&);                                                     \
  template void unpack_ghost<P>(SpinorField<P>&, const Geometry&, int, GhostFace,                 \
                                const FaceBuffer<P>&);                                            \
  template void pack_gauge_face<P>(const GaugeField<P>&, const Geometry&, int, int,               \
                                   GaugeFaceBuffer<P>&);                                          \
  template void unpack_gauge_ghost<P>(GaugeField<P>&, const Geometry&, int,                       \
                                      const GaugeFaceBuffer<P>&);

QUDA_INSTANTIATE(PrecDouble)
QUDA_INSTANTIATE(PrecSingle)
QUDA_INSTANTIATE(PrecHalf)

#undef QUDA_INSTANTIATE

} // namespace quda
