// Site lanes (su3/lanes.h) against the fields' site loads and stores: a lane
// load of W sites equals W calls of load() bit for bit, lane by lane, and a
// lane store of W sites leaves the same payload and half norms as W calls
// of store().  Covered for the spinor body and its ghost end zone, the
// gauge field in every reconstruction (ghost pads included) and the clover
// field, in every precision, on groups of consecutive sites and on groups
// that wrap (the lanes a hop across an edge gathers site by site).  The
// spinor input holds, on both parities, an all-zero site, an all -0 site
// and a site with an Inf and a NaN, so half lanes decode and encode sites
// whose norm is the 1e-37 floor or Inf.  A load of consecutive sites as one
// run equals their lane load.  The lane arithmetic itself is checked lane by
// lane against the scalar operations, on special values and seeded normals.

#include "dirac/clover_term.h"
#include "dirac/dslash.h"
#include "dirac/gauge_init.h"
#include "dirac/transfer.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace quda {
namespace {

constexpr PartitionMask kAllCut{true, true, true, true};

struct LaneData {
  Geometry g{LatticeDims{4, 4, 4, 8}};
  HostGaugeField u;
  HostSpinorField psi;
  HostCloverField t;

  LaneData() : u(g), psi(g) {
    make_weak_field_gauge(u, 0.3, 71);
    make_random_spinor(psi, 72);
    const Coords zero[2] = {{0, 0, 0, 0}, {1, 0, 0, 0}};
    const Coords minus_zero[2] = {{2, 1, 0, 0}, {3, 1, 0, 0}};
    const Coords inf_nan[2] = {{0, 2, 1, 3}, {1, 2, 1, 3}};
    for (int p = 0; p < 2; ++p) {
      psi.at(zero[p]) = Spinor<double>{};
      for (auto& cv : psi.at(minus_zero[p]).s)
        for (std::size_t c = 0; c < 3; ++c) cv[c] = complexd(-0.0, -0.0);
      Spinor<double>& s = psi.at(inf_nan[p]);
      s.s[1][2].re = std::numeric_limits<double>::infinity();
      s.s[3][0].im = std::numeric_limits<double>::quiet_NaN();
    }
    t = make_clover_term(u, 1.3);
    add_diag(t, 4.2);
  }
};

const LaneData& ldata() {
  static const LaneData d;
  return d;
}

template <typename A, typename B> bool same_bits(const A& a, const B& b) {
  static_assert(sizeof(A) == sizeof(B));
  return std::memcmp(&a, &b, sizeof(A)) == 0;
}

template <typename T> bool same_elements(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// groups of W sites in [0, n): consecutive ones at the start, in the middle
// and at the end, and ones that wrap or run backwards
template <std::size_t W> std::vector<LaneSites<W>> groups(std::int64_t n) {
  std::vector<LaneSites<W>> out;
  for (std::int64_t x0 : {std::int64_t(0), std::int64_t(1), n / 2 - 1, n - std::int64_t(W)})
    out.push_back(consecutive_sites<W>(x0));
  LaneSites<W> wrap, back, stride;
  for (std::size_t k = 0; k < W; ++k) {
    wrap[k] = (n - 2 + std::int64_t(k)) % n;
    back[k] = n - 1 - std::int64_t(k);
    stride[k] = (std::int64_t(3 * k) + 5) % n;
  }
  out.push_back(wrap);
  out.push_back(back);
  out.push_back(stride);
  return out;
}

// lane k of an aggregate of lanes, as the aggregate of one lane
template <template <typename> class A, typename S, std::size_t W>
A<Lanes<S, 1>> lane(const A<Lanes<S, W>>& a, std::size_t k) {
  constexpr std::size_t n = sizeof(a) / (W * sizeof(S));
  static_assert(sizeof(a) == n * W * sizeof(S));
  const auto from = std::bit_cast<std::array<Lanes<S, W>, n>>(a);
  std::array<S, n> to;
  for (std::size_t i = 0; i < n; ++i) to[i] = from[i][k];
  return std::bit_cast<A<Lanes<S, 1>>>(to);
}

std::string show(const auto& x) {
  std::string s;
  for (std::int64_t v : x) s += std::to_string(v) + " ";
  return s;
}

// fill every ghost face of `f` from `f` itself (a periodic one-rank grid)
template <typename P> void fill_ghosts(SpinorField<P>& f, const Geometry& g) {
  FaceBuffer<P> buf;
  for (int mu = 0; mu < 4; ++mu) {
    pack_face(f, g, Parity::Odd, mu, g.dims()[mu] - 1, +1, buf);
    unpack_ghost(f, g, mu, GhostFace::Backward, buf);
    pack_face(f, g, Parity::Odd, mu, 0, -1, buf);
    unpack_ghost(f, g, mu, GhostFace::Forward, buf);
  }
}

template <typename P> void expect_spinor_lanes() {
  constexpr std::size_t W = kSiteLanes<typename P::real_t>;
  const LaneData& d = ldata();
  SpinorField<P> f = upload_spinor<P>(d.psi, Parity::Odd, kAllCut);
  fill_ghosts(f, d.g);

  for (const LaneSites<W>& x : groups<W>(f.sites())) {
    const auto lanes = f.load(x);
    for (std::size_t k = 0; k < W; ++k)
      EXPECT_TRUE(same_bits(lane(lanes, k), f.load(x[k]))) << "load " << show(x) << "lane " << k;
    // consecutive sites also load as one run a block
    if (x == consecutive_sites<W>(x[0])) {
      EXPECT_TRUE(same_bits(f.template load<W>(x[0]), lanes)) << "run load " << show(x);
    }
  }

  for (int mu = 0; mu < 4; ++mu)
    for (GhostFace face : {GhostFace::Backward, GhostFace::Forward})
      for (const LaneSites<W>& fs : groups<W>(f.ghost_sites(mu))) {
        const auto lanes = f.load_ghost(mu, face, fs);
        for (std::size_t k = 0; k < W; ++k)
          EXPECT_TRUE(same_bits(lane(lanes, k), f.load_ghost(mu, face, fs[k])))
              << "ghost mu " << mu << " " << show(fs) << "lane " << k;
      }

  // stores: the lanes of sites src, written from x0 on, against site stores
  for (const LaneSites<W>& src : groups<W>(f.sites())) {
    const auto lanes = f.load(src);
    for (std::int64_t x0 : {std::int64_t(0), f.sites() / 2, f.sites() - std::int64_t(W)}) {
      SpinorField<P> by_lanes = SpinorField<P>::like(f), by_sites = SpinorField<P>::like(f);
      by_lanes.store(x0, lanes);
      for (std::size_t k = 0; k < W; ++k) by_sites.store(x0 + std::int64_t(k), f.load(src[k]));
      EXPECT_TRUE(same_elements(by_lanes.raw_data(), by_sites.raw_data()))
          << "store " << show(src) << "at " << x0;
      EXPECT_TRUE(same_elements(by_lanes.norm_data(), by_sites.norm_data()))
          << "store norms " << show(src) << "at " << x0;
    }
  }
}

template <typename P> void expect_gauge_lanes() {
  constexpr std::size_t W = kSiteLanes<typename P::real_t>;
  const LaneData& d = ldata();
  const auto each_recon = [&]<Reconstruct R>() {
    GaugeField<P> gauge = upload_gauge<P>(d.u, R);
    GaugeFaceBuffer<P> buf;
    for (int mu = 0; mu < 4; ++mu) {
      pack_gauge_face(gauge, d.g, mu, d.g.dims()[mu] - 1, buf);
      unpack_gauge_ghost(gauge, d.g, mu, buf);
    }
    for (int mu = 0; mu < 4; ++mu)
      for (Parity parity : {Parity::Even, Parity::Odd}) {
        for (const LaneSites<W>& cb : groups<W>(d.g.half_volume())) {
          const auto lanes = gauge.template load<R>(mu, parity, cb);
          for (std::size_t k = 0; k < W; ++k)
            EXPECT_TRUE(same_bits(lane(lanes, k), gauge.template load<R>(mu, parity, cb[k])))
                << "recon " << to_string(R) << " mu " << mu << " " << show(cb) << "lane " << k;
        }
        for (const LaneSites<W>& fs : groups<W>(gauge.ghost_capacity(mu))) {
          const auto lanes = gauge.template load_ghost<R>(mu, parity, fs);
          for (std::size_t k = 0; k < W; ++k)
            EXPECT_TRUE(same_bits(lane(lanes, k), gauge.template load_ghost<R>(mu, parity, fs[k])))
                << "recon " << to_string(R) << " ghost mu " << mu << " " << show(fs) << "lane "
                << k;
        }
      }
  };
  each_recon.template operator()<Reconstruct::Eight>();
  each_recon.template operator()<Reconstruct::Twelve>();
  each_recon.template operator()<Reconstruct::Eighteen>();
}

template <typename P> void expect_clover_lanes() {
  constexpr std::size_t W = kSiteLanes<typename P::real_t>;
  const LaneData& d = ldata();
  const CloverField<P> clover = upload_clover<P>(d.t);
  for (Parity parity : {Parity::Even, Parity::Odd})
    for (const LaneSites<W>& cb : groups<W>(d.g.half_volume())) {
      if (cb != consecutive_sites<W>(cb[0])) continue; // the clover apply reads those only
      const auto lanes = clover.template load<W>(parity, cb[0]);
      for (std::size_t k = 0; k < W; ++k)
        EXPECT_TRUE(same_bits(lane(lanes, k), clover.load(parity, cb[k])))
            << "clover " << show(cb) << "lane " << k;
    }
}

// --- lane arithmetic ----------------------------------------------------------
// Every operation of Lanes<S, W> against the scalar operation on each lane:
// the vector shapes (float x 4, double x 2) run whole-vector instructions,
// the others the element loop, and every lane must hold the scalar result's
// bits.  A NaN result only has to be a NaN: IEEE 754 leaves its sign and
// payload open, and they follow the operand order the compiler picks (see
// tests/field_pins.h).

// the sign and payload of a NaN are open; every other value is exact
template <typename S> bool same_value_bits(S got, S want) {
  if (std::isnan(want)) return std::isnan(got);
  return std::memcmp(&got, &want, sizeof(S)) == 0;
}

// +-0, +-Inf, a quiet NaN, the smallest subnormal, the largest finite value
// and seeded normals
template <typename S> std::vector<S> arithmetic_inputs() {
  using lim = std::numeric_limits<S>;
  std::vector<S> v = {S(0),          -S(0),         lim::infinity(), -lim::infinity(),
                      lim::quiet_NaN(), lim::denorm_min(), -lim::denorm_min(), lim::max(),
                      -lim::max()};
  std::mt19937_64 rng(73);
  std::normal_distribution<S> normal(S(0), S(1));
  for (int i = 0; i < 16; ++i) v.push_back(normal(rng));
  return v;
}

template <typename S, std::size_t W> void expect_arithmetic_matches_scalar() {
  using L = Lanes<S, W>;
  const std::vector<S> in = arithmetic_inputs<S>();
  const std::size_t n = in.size();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      L a, b;
      for (std::size_t k = 0; k < W; ++k) {
        a[k] = in[(i + k) % n];
        b[k] = in[(j + 3 * k) % n];
      }
      const L sum = a + b, diff = a - b, prod = a * b, quot = a / b, neg = -a, splat(a[0]);
      L compound = a;
      compound *= b;
      compound += a;
      compound -= b;
      compound /= b;
      for (std::size_t k = 0; k < W; ++k) {
        const S x = a[k], y = b[k];
        const std::string at = "lanes " + std::to_string(W) + " inputs " + std::to_string(i) +
                               "," + std::to_string(j) + " lane " + std::to_string(k);
        EXPECT_TRUE(same_value_bits(sum[k], S(x + y))) << "+ " << at;
        EXPECT_TRUE(same_value_bits(diff[k], S(x - y))) << "- " << at;
        EXPECT_TRUE(same_value_bits(prod[k], S(x * y))) << "* " << at;
        EXPECT_TRUE(same_value_bits(quot[k], S(x / y))) << "/ " << at;
        EXPECT_TRUE(same_value_bits(neg[k], S(-x))) << "unary - " << at;
        EXPECT_TRUE(same_value_bits(splat[k], a[0])) << "broadcast " << at;
        EXPECT_TRUE(same_value_bits(compound[k], S(S(S(x * y) + x) - y) / y)) << "compound " << at;
      }
    }
}

// constant evaluation takes the element loop, and agrees with the scalar
static_assert([] {
  constexpr Lanes<float, 4> a(1.5f), b(-2.0f);
  constexpr Lanes<float, 4> c = -(a * b + a / b - b);
  return c[0] == -(1.5f * -2.0f + 1.5f / -2.0f - -2.0f) && c == Lanes<float, 4>(c[3]);
}());

TEST(SiteLanes, ArithmeticMatchesScalar) {
  expect_arithmetic_matches_scalar<float, 4>();
  expect_arithmetic_matches_scalar<double, 2>();
  expect_arithmetic_matches_scalar<float, 1>();
  // integer lanes (the norm rule's bit patterns) have no vector shape:
  // element access and the broadcast
  Lanes<std::int32_t, 4> m(-7);
  m[2] = 0x7f800000;
  EXPECT_EQ(m[0], -7);
  EXPECT_EQ(m[1], -7);
  EXPECT_EQ(m[2], 0x7f800000);
  EXPECT_EQ(m[3], -7);
}

TEST(SiteLanes, SpinorDouble) { expect_spinor_lanes<PrecDouble>(); }
TEST(SiteLanes, SpinorSingle) { expect_spinor_lanes<PrecSingle>(); }
TEST(SiteLanes, SpinorHalf) { expect_spinor_lanes<PrecHalf>(); }
TEST(SiteLanes, GaugeDouble) { expect_gauge_lanes<PrecDouble>(); }
TEST(SiteLanes, GaugeSingle) { expect_gauge_lanes<PrecSingle>(); }
TEST(SiteLanes, GaugeHalf) { expect_gauge_lanes<PrecHalf>(); }
TEST(SiteLanes, CloverDouble) { expect_clover_lanes<PrecDouble>(); }
TEST(SiteLanes, CloverSingle) { expect_clover_lanes<PrecSingle>(); }
TEST(SiteLanes, CloverHalf) { expect_clover_lanes<PrecHalf>(); }

} // namespace
} // namespace quda
