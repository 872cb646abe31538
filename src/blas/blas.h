#pragma once
// Vector-vector (BLAS1-like) kernels on device spinor fields, mirroring
// QUDA's fused linear-algebra kernels (Section V-E).  Where a solver needs
// several elementary operations on the same vectors they are fused into one
// kernel (one load/store sweep) -- e.g. the BiCGstab search-direction update
// p = r + beta*(p - omega*v) is a single kernel, as is the solution update
// x += alpha*p + omega*s.  The auto-tuner in blas/autotune.h picks launch
// geometry for these kernels in the simulated device model.
//
// Reductions return *local* sums; global sums across ranks are the
// responsibility of the caller (the solvers route them through their
// operator's global_sum hook, which the parallel operator implements with
// QMP/MPI reductions -- the only solver-level change multi-GPU required,
// Section VI-E).
//
// Execution: every kernel runs through the host execution engine
// (exec/host_engine.h).  The element-wise kernels are each one body over
// plain arrays of reals, run by detail::elementwise, the one place where the
// precision decides how a kernel touches memory: double and single hand the
// body raw component-block spans (stride-1 sweeps the compiler vectorizes),
// half hands it each site's 24 reals decoded by load_reals() and re-encoded
// by store_reals().  The reductions run on site lanes (su3/lanes.h): W
// consecutive sites at a time, each site's float sum in its own lane, and
// each lane's double added in site order, so they accumulate exactly as a
// site-by-site loop inside fixed-shape chunks (see the determinism contract
// in exec/host_engine.h).  A chunk's last sites run at W = 1.

#include "exec/host_engine.h"
#include "lattice/spinor_field.h"
#include "su3/gamma.h"

#include <algorithm>
#include <cassert>
#include <concepts>
#include <cstdint>

namespace quda::blas {

namespace detail {

// the raw elements of f holding components [j*nvec, (j+1)*nvec) of the
// sites from b on, at f's own pad offset: contiguous by BlockLayout::index,
// re and im alternating from an even element
template <typename F> auto* block_span(F& f, int j, std::int64_t b) {
  const BlockLayout& l = f.layout();
  return f.raw_data().data() + std::int64_t(l.nvec) * (j * l.stride() + b);
}

// A complex factor c of a kernel body, with -c.im kept beside it.  The
// parts of c * (zr, zi) are written in one shape, own part * c.re + other
// part * (-c.im or c.im), so the vectorizer keeps each (re, im) pair in one
// short vector and only swaps it.  They equal the textbook zr*c.re - zi*c.im
// and zr*c.im + zi*c.re bit for bit: x + (-y) is x - y, and + commutes.
template <typename T> struct ComplexFactor {
  T re, im, neg_im;
  explicit ComplexFactor(const complexd& c)
      : re(static_cast<T>(c.re)), im(static_cast<T>(c.im)), neg_im(-im) {}
  T mul_re(T zr, T zi) const { return zr * re + zi * neg_im; }
  T mul_im(T zr, T zi) const { return zi * re + zr * im; }
};

// Run an element-wise kernel body over the sites of w and in...:
// body(n, w_reals, in_reals...) updates n reals of w from the same n
// elements of each input, pairing elements (2k, 2k+1) as the re and im
// parts of one complex component.  Norm-free fields give the body one raw
// span per component block; half decodes each site of every field into 24
// floats, runs the body on them and encodes w's.  Both run the same body,
// so a kernel's bits do not depend on the fields' pads.
template <typename Body, typename P, typename... In>
  requires(std::same_as<In, SpinorField<P>> && ...)
void elementwise(const Body& body, SpinorField<P>& w, const In&... in) {
  assert(((in.sites() == w.sites()) && ...));
  exec::parallel_for(0, w.sites(), exec::kBlasGrain, [&](std::int64_t b, std::int64_t e) {
    // a chunk-local copy keeps the body's captured scalars in registers;
    // read through the shared closure, every store to w could change them
    const Body f = body;
    if constexpr (P::has_norm) {
      for (std::int64_t i = b; i < e; ++i) {
        auto y = w.load_reals(i);
        f(std::int64_t(y.size()), y.data(), in.load_reals(i).data()...);
        w.store_reals(i, y);
      }
    } else {
      const std::int64_t n = std::int64_t(P::nvec) * (e - b);
      for (int j = 0; j < w.layout().blocks(); ++j)
        f(n, block_span(w, j, b), block_span(in, j, b)...);
    }
  });
}

// body(x0, LaneCount<W>) for the lane groups of [b, e): the W consecutive
// sites from x0, W = kSiteLanes of the compute type and then 1 for the
// last sites
template <typename P, typename Body>
void each_lane_group(std::int64_t b, std::int64_t e, Body&& body) {
  for_each_lane_group<kSiteLanes<typename P::real_t>>(
      b, e, [&](auto w, std::int64_t x0) { body(x0, w); });
}

// acc += each lane as a double, in lane (site) order
template <typename T, std::size_t W> void add_lanes(double& acc, const Lanes<T, W>& v) {
  for (std::size_t k = 0; k < W; ++k) acc += static_cast<double>(v[k]);
}
template <typename T, std::size_t W> void add_lanes(complexd& acc, const Complex<Lanes<T, W>>& z) {
  for (std::size_t k = 0; k < W; ++k)
    acc += complexd(static_cast<double>(z.re[k]), static_cast<double>(z.im[k]));
}

// partial sums of the fused r-update reduction pair
struct RUpdatePartial {
  double r2 = 0;
  complexd rho{};
  RUpdatePartial& operator+=(const RUpdatePartial& o) {
    r2 += o.r2;
    rho += o.rho;
    return *this;
  }
};

} // namespace detail

template <typename P> void copy(SpinorField<P>& dst, const SpinorField<P>& src) {
  using real_t = typename P::real_t;
  detail::elementwise(
      [](std::int64_t n, real_t* d, const real_t* x) { std::copy_n(x, n, d); },
      dst, src);
}

template <typename P> double norm2(const SpinorField<P>& x) {
  return exec::parallel_reduce<double>(
      0, x.sites(), exec::kBlasGrain, [&](std::int64_t b, std::int64_t e) {
        double n = 0;
        detail::each_lane_group<P>(b, e, [&]<std::size_t W>(std::int64_t i, LaneCount<W>) {
          detail::add_lanes(n, quda::norm2(x.template load<W>(i)));
        });
        return n;
      });
}

template <typename P> complexd cdot(const SpinorField<P>& a, const SpinorField<P>& b) {
  return exec::parallel_reduce<complexd>(
      0, a.sites(), exec::kBlasGrain, [&](std::int64_t lo, std::int64_t hi) {
        complexd d{};
        detail::each_lane_group<P>(lo, hi, [&]<std::size_t W>(std::int64_t i, LaneCount<W>) {
          detail::add_lanes(d, dot(a.template load<W>(i), b.template load<W>(i)));
        });
        return d;
      });
}

// y += a * x
template <typename P>
void axpy(double a, const SpinorField<P>& x, SpinorField<P>& y) {
  using real_t = typename P::real_t;
  const real_t ar = static_cast<real_t>(a);
  detail::elementwise(
      [ar](std::int64_t n, real_t* yv, const real_t* xv) {
        for (std::int64_t k = 0; k < n; ++k) yv[k] += xv[k] * ar;
      },
      y, x);
}

// y = x + a * y
template <typename P>
void xpay(const SpinorField<P>& x, double a, SpinorField<P>& y) {
  using real_t = typename P::real_t;
  const real_t ar = static_cast<real_t>(a);
  detail::elementwise(
      [ar](std::int64_t n, real_t* yv, const real_t* xv) {
        for (std::int64_t k = 0; k < n; ++k) yv[k] = yv[k] * ar + xv[k];
      },
      y, x);
}

// y += a * x, complex a
template <typename P>
void caxpy(const complexd& a, const SpinorField<P>& x, SpinorField<P>& y) {
  using real_t = typename P::real_t;
  const detail::ComplexFactor<real_t> c(a);
  detail::elementwise(
      [c](std::int64_t n, real_t* yv, const real_t* xv) {
        for (std::int64_t k = 0; k < n; k += 2) {
          const real_t xr = xv[k];
          const real_t xi = xv[k + 1];
          yv[k] += c.mul_re(xr, xi);
          yv[k + 1] += c.mul_im(xr, xi);
        }
      },
      y, x);
}

// fused: y += a*x, then return ||y||^2 (QUDA's axpyNorm)
template <typename P>
double axpy_norm(double a, const SpinorField<P>& x, SpinorField<P>& y) {
  using real_t = typename P::real_t;
  const real_t ar = static_cast<real_t>(a);
  return exec::parallel_reduce<double>(
      0, x.sites(), exec::kBlasGrain, [&](std::int64_t lo, std::int64_t hi) {
        double n = 0;
        detail::each_lane_group<P>(lo, hi, [&]<std::size_t W>(std::int64_t i, LaneCount<W>) {
          auto yi = y.template load<W>(i);
          yi += x.template load<W>(i) * ar;
          y.store(i, yi);
          detail::add_lanes(n, quda::norm2(yi));
        });
        return n;
      });
}

// fused: y = x - y, then return ||y||^2 (QUDA's xmyNorm)
template <typename P>
double xmy_norm(const SpinorField<P>& x, SpinorField<P>& y) {
  return exec::parallel_reduce<double>(
      0, x.sites(), exec::kBlasGrain, [&](std::int64_t lo, std::int64_t hi) {
        double n = 0;
        detail::each_lane_group<P>(lo, hi, [&]<std::size_t W>(std::int64_t i, LaneCount<W>) {
          auto yi = x.template load<W>(i);
          yi -= y.template load<W>(i);
          y.store(i, yi);
          detail::add_lanes(n, quda::norm2(yi));
        });
        return n;
      });
}

// fused BiCGstab search-direction update: p = r + beta * (p - omega * v)
template <typename P>
void bicgstab_p_update(SpinorField<P>& p, const SpinorField<P>& r, const SpinorField<P>& v,
                       const complexd& beta, const complexd& omega) {
  using real_t = typename P::real_t;
  const detail::ComplexFactor<real_t> b(beta), bw(beta * omega);
  detail::elementwise(
      [b, bw](std::int64_t n, real_t* pv, const real_t* rv, const real_t* vv) {
        for (std::int64_t k = 0; k < n; k += 2) {
          const real_t pr = pv[k];
          const real_t pi = pv[k + 1];
          const real_t vr = vv[k];
          const real_t vi = vv[k + 1];
          pv[k] = b.mul_re(pr, pi) - bw.mul_re(vr, vi) + rv[k];
          pv[k + 1] = b.mul_im(pr, pi) - bw.mul_im(vr, vi) + rv[k + 1];
        }
      },
      p, r, v);
}

// fused BiCGstab solution update: x += alpha * p + omega * s
template <typename P>
void bicgstab_x_update(SpinorField<P>& x, const complexd& alpha, const SpinorField<P>& p,
                       const complexd& omega, const SpinorField<P>& s) {
  using real_t = typename P::real_t;
  const detail::ComplexFactor<real_t> a(alpha), w(omega);
  detail::elementwise(
      [a, w](std::int64_t n, real_t* xv, const real_t* pv, const real_t* sv) {
        for (std::int64_t k = 0; k < n; k += 2) {
          const real_t pr = pv[k];
          const real_t pi = pv[k + 1];
          const real_t sr = sv[k];
          const real_t si = sv[k + 1];
          xv[k] = xv[k] + a.mul_re(pr, pi) + w.mul_re(sr, si);
          xv[k + 1] = xv[k + 1] + a.mul_im(pr, pi) + w.mul_im(sr, si);
        }
      },
      x, p, s);
}

// fused: r = s - omega * t, returning <r, r> and <r, r0> for the next
// iteration's convergence check and rho (QUDA fuses these reductions)
template <typename P>
void bicgstab_r_update(SpinorField<P>& r, const SpinorField<P>& s, const SpinorField<P>& t,
                       const complexd& omega, double& r2, complexd& rho_next,
                       const SpinorField<P>& r0) {
  using real_t = typename P::real_t;
  const Complex<real_t> w(static_cast<real_t>(omega.re), static_cast<real_t>(omega.im));
  const auto acc = exec::parallel_reduce<detail::RUpdatePartial>(
      0, r.sites(), exec::kBlasGrain, [&](std::int64_t lo, std::int64_t hi) {
        detail::RUpdatePartial part;
        detail::each_lane_group<P>(lo, hi, [&]<std::size_t W>(std::int64_t i, LaneCount<W>) {
          using L = Lanes<real_t, W>;
          auto ti = t.template load<W>(i);
          ti *= Complex<L>(L(w.re), L(w.im));
          auto ri = s.template load<W>(i);
          ri -= ti;
          r.store(i, ri);
          detail::add_lanes(part.r2, quda::norm2(ri));
          detail::add_lanes(part.rho, dot(r0.template load<W>(i), ri));
        });
        return part;
      });
  r2 = acc.r2;
  rho_next = acc.rho;
}

// out = gamma_5 in (aliasing-safe: pointwise in spin)
template <typename P>
void apply_gamma5(SpinorField<P>& out, const SpinorField<P>& in) {
  exec::parallel_for(0, in.sites(), exec::kBlasGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) out.store(i, apply_spin<kGamma5>(in.load(i)));
  });
}

} // namespace quda::blas

namespace quda {
using blas::apply_gamma5;
}
