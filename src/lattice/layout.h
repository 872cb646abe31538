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

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

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
  // caller names its Nvec at compile time (W == nvec) and the buffer's
  // length is nint, so the walk unrolls into whole short-vector copies.
  template <std::size_t W, typename T, std::size_t N>
  void gather(const T* body, std::int64_t x, std::array<T, N>& site) const {
    each_block<W, N>(x, [&](std::int64_t i, std::size_t n) {
      for (std::size_t k = 0; k < W; ++k) site[n + k] = body[i + k];
    });
  }
  template <std::size_t W, typename T, std::size_t N>
  void scatter(const std::array<T, N>& site, std::int64_t x, T* body) const {
    each_block<W, N>(x, [&](std::int64_t i, std::size_t n) {
      for (std::size_t k = 0; k < W; ++k) body[i + k] = site[n + k];
    });
  }

private:
  // fn(i, n) per block of site x: the flat index i of its first element and
  // its first component n
  template <std::size_t W, std::size_t N, typename Fn> void each_block(std::int64_t x, Fn&& fn) const {
    static_assert(W > 0 && N % W == 0);
    assert(W == std::size_t(nvec) && N == std::size_t(nint));
    const std::int64_t step = std::int64_t(W) * stride();
    std::int64_t i = std::int64_t(W) * x;
    for (std::size_t n = 0; n < N; n += W, i += step) fn(i, n);
  }
};

// The Nvec choices the paper reports as optimal: float4 in single precision,
// double2 in double (both 16-byte vectors); half uses short4 (8-byte).
inline int default_nvec_single() { return 4; }
inline int default_nvec_double() { return 2; }
inline int default_nvec_half() { return 4; }

} // namespace quda
