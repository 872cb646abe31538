#pragma once
// The QUDA device-field memory layout (Section V-B of the paper).
//
// A field with Nint internal real components per site over `sites` sites is
// stored as Nint/Nvec blocks of `stride` short vectors of length Nvec
// (equation (4)):
//
//   index(x, n) = Nvec * ( stride * floor(n / Nvec) + x ) + n mod Nvec
//
// with stride = sites + pad.  Successive threads (sites) then read
// successive Nvec-element short vectors, which is what produces coalesced
// memory transactions on the device.  The pad region between blocks breaks
// the power-of-two striding that causes partition camping (equation (5)),
// and -- the trick at the heart of the paper's gauge-field ghost zone -- is
// exactly one temporal face in size, so ghost data can live inside it.

#include "su3/lanes.h"

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>

namespace quda {

struct BlockLayout {
  std::int64_t sites = 0;  // number of lattice sites covered (e.g. V/2 for a parity field)
  std::int64_t pad = 0;    // extra sites of padding per block
  int nint = 0;            // internal real components per site
  int nvec = 0;            // short-vector length (1, 2, or 4)

  BlockLayout() = default;
  BlockLayout(std::int64_t sites_, std::int64_t pad_, int nint_, int nvec_)
      : sites(sites_), pad(pad_), nint(nint_), nvec(nvec_) {
    if (nint % nvec != 0)
      throw std::invalid_argument("Nint must be a multiple of Nvec");
  }

  std::int64_t stride() const { return sites + pad; }
  int blocks() const { return nint / nvec; }

  // total reals allocated for the body (blocks * stride * nvec)
  std::int64_t body_size() const { return std::int64_t(blocks()) * stride() * nvec; }

  // equation (4)/(5): flat index of internal component n at site x
  std::int64_t index(std::int64_t x, int n) const {
    return std::int64_t(nvec) * (stride() * (n / nvec) + x) + n % nvec;
  }

  // flat index of the first element of pad slot `p` (0 <= p < pad) in block b;
  // used to place ghost zones inside the padding
  std::int64_t pad_index(std::int64_t p, int n) const { return index(sites + p, n); }

  // The nint elements of site (or pad slot) x in component order, between a
  // field body and a site buffer: block b of the site is the short vector
  // holding components [b*nvec, (b+1)*nvec), at index(x, b*nvec).  This is
  // the one walk of the layout every field's loads and stores use.  The
  // caller names its Nvec at compile time (Nv == nvec) and the buffer's
  // length is nint, so the walk unrolls into whole short-vector copies.
  template <std::size_t Nv, typename T, std::size_t N>
  void gather(const T* body, std::int64_t x, std::array<T, N>& site) const {
    each_block<Nv, N>(x, [&](std::int64_t i, std::size_t n) {
      for (std::size_t j = 0; j < Nv; ++j) site[n + j] = body[i + j];
    });
  }
  template <std::size_t Nv, typename T, std::size_t N>
  void scatter(const std::array<T, N>& site, std::int64_t x, T* body) const {
    each_block<Nv, N>(x, [&](std::int64_t i, std::size_t n) {
      for (std::size_t j = 0; j < Nv; ++j) body[i + j] = site[n + j];
    });
  }

  // The same walk for W sites as lanes, between a field body and an
  // aggregate of Lanes<U, W> whose N reals real_at() names (Spinor, SU3,
  // CloverSite, ...): real n of lane k is component n of site x[k].  Block
  // b of the W sites is W whole short vectors, one per site (W consecutive
  // sites hold them side by side, equation (4)).  Each is read or written
  // at once, passed through f(element, k) for site k (the half codec under
  // the site's norm) in that order, and transposed between sites and lanes.
  // The block loop unrolls, so every real_at() is a fixed member; the
  // transposing loop over k stays rolled for the vectorizer, which turns it
  // into whole-vector shuffles (built any other way, lane vectors come from
  // partial stores that stall their reloads).
  template <std::size_t Nv, std::size_t N, typename T, std::size_t W, typename A, typename F>
  void gather_lanes(const T* body, const LaneSites<W>& x, A& lanes, F&& f) const {
    using U = std::remove_cvref_t<decltype(real_at(lanes, 0)[0])>;
    static_assert(sizeof(real_at(lanes, 0)) == W * sizeof(U));
    static_assert(sizeof(A) >= N * W * sizeof(U) && N % Nv == 0);
    assert(Nv == std::size_t(nvec) && N == std::size_t(nint));
    const std::int64_t step = std::int64_t(Nv) * stride();
#pragma GCC unroll 128
    for (std::size_t n = 0; n < N; n += Nv) {
      const std::int64_t block = std::int64_t(n / Nv) * step;
      U sites[W * Nv];
      for (std::size_t k = 0; k < W; ++k) {
        const T* run = body + block + std::int64_t(Nv) * x[k];
        for (std::size_t j = 0; j < Nv; ++j) sites[k * Nv + j] = f(run[j], k);
      }
#pragma GCC unroll 1
      for (std::size_t k = 0; k < W; ++k)
        for (std::size_t j = 0; j < Nv; ++j) real_at(lanes, n + j)[k] = sites[k * Nv + j];
    }
  }
  // the W consecutive sites from x0, whose block b is one run of W * Nv
  // elements, converted whole by f(element) in one loop: four elements an
  // instruction where f decodes half, where the per-lane form converts
  // element by element.  A per-site scale (the half norm) is the caller's,
  // in lanes.
  template <std::size_t Nv, std::size_t N, typename T, typename A, typename F>
  void gather_run(const T* body, std::int64_t x0, A& lanes, F&& f) const {
    using U = std::remove_cvref_t<decltype(real_at(lanes, 0)[0])>;
    constexpr std::size_t W = sizeof(real_at(lanes, 0)) / sizeof(U);
    static_assert(sizeof(A) >= N * W * sizeof(U) && N % Nv == 0);
    assert(Nv == std::size_t(nvec) && N == std::size_t(nint));
    const T* run = body + std::int64_t(Nv) * x0;
#pragma GCC unroll 128
    for (std::size_t n = 0; n < N; n += Nv, run += std::int64_t(Nv) * stride()) {
      U sites[W * Nv];
      for (std::size_t i = 0; i < W * Nv; ++i) sites[i] = f(run[i]);
#pragma GCC unroll 1
      for (std::size_t k = 0; k < W; ++k)
        for (std::size_t j = 0; j < Nv; ++j) real_at(lanes, n + j)[k] = sites[k * Nv + j];
    }
  }
  // the W consecutive sites from x
  template <std::size_t Nv, std::size_t N, typename T, typename A, typename F>
  void scatter_lanes(const A& lanes, std::int64_t x, T* body, F&& f) const {
    A& in = const_cast<A&>(lanes); // real_at names members; nothing is written
    using U = std::remove_cvref_t<decltype(real_at(in, 0)[0])>;
    constexpr std::size_t W = sizeof(real_at(in, 0)) / sizeof(U);
    static_assert(sizeof(A) >= N * W * sizeof(U) && N % Nv == 0);
    assert(Nv == std::size_t(nvec) && N == std::size_t(nint));
    T* run = body + std::int64_t(Nv) * x;
#pragma GCC unroll 128
    for (std::size_t n = 0; n < N; n += Nv, run += std::int64_t(Nv) * stride()) {
      U sites[W * Nv];
#pragma GCC unroll 1
      for (std::size_t k = 0; k < W; ++k)
        for (std::size_t j = 0; j < Nv; ++j) sites[k * Nv + j] = real_at(in, n + j)[k];
      for (std::size_t k = 0; k < W; ++k)
        for (std::size_t j = 0; j < Nv; ++j) run[k * Nv + j] = f(sites[k * Nv + j], k);
    }
  }

private:
  // fn(i, n) per block of site x: the flat index i of its first element and
  // its first component n
  template <std::size_t Nv, std::size_t N, typename Fn> void each_block(std::int64_t x, Fn&& fn) const {
    static_assert(Nv > 0 && N % Nv == 0);
    assert(Nv == std::size_t(nvec) && N == std::size_t(nint));
    const std::int64_t step = std::int64_t(Nv) * stride();
    std::int64_t i = std::int64_t(Nv) * x;
    for (std::size_t n = 0; n < N; n += Nv, i += step) fn(i, n);
  }
};

} // namespace quda
