// Unit tests: lattice geometry, checkerboard indexing, neighbors, and the
// QUDA blocked layout (equations (3)-(5) of the paper).

#include "lattice/geometry.h"
#include "lattice/layout.h"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <vector>

namespace quda {
namespace {

TEST(Geometry, LinearIndexRoundTrip) {
  const Geometry g({4, 6, 2, 8});
  for (std::int64_t i = 0; i < g.volume(); ++i) {
    EXPECT_EQ(g.linear_index(g.coords(i)), i);
  }
}

TEST(Geometry, ParityBalance) {
  const Geometry g({4, 4, 4, 4});
  std::int64_t even = 0, odd = 0;
  for (std::int64_t i = 0; i < g.volume(); ++i) {
    if (Geometry::site_parity(g.coords(i)) == Parity::Even)
      ++even;
    else
      ++odd;
  }
  EXPECT_EQ(even, g.half_volume());
  EXPECT_EQ(odd, g.half_volume());
}

TEST(Geometry, CbIndexIsParityBijection) {
  const Geometry g({4, 2, 6, 4});
  for (int par = 0; par < 2; ++par) {
    const Parity parity = par == 0 ? Parity::Even : Parity::Odd;
    std::set<std::int64_t> seen;
    for (std::int64_t i = 0; i < g.volume(); ++i) {
      const Coords c = g.coords(i);
      if (Geometry::site_parity(c) != parity) continue;
      const std::int64_t cb = g.cb_index(c);
      EXPECT_GE(cb, 0);
      EXPECT_LT(cb, g.half_volume());
      EXPECT_TRUE(seen.insert(cb).second) << "cb index collision";
      // inverse
      EXPECT_EQ(g.cb_coords(parity, cb), c);
    }
    EXPECT_EQ(std::int64_t(seen.size()), g.half_volume());
  }
}

TEST(Geometry, NeighborWrapsPeriodically) {
  const Geometry g({4, 4, 4, 8});
  const Coords origin{0, 0, 0, 0};
  for (int mu = 0; mu < 4; ++mu) {
    Coords back = g.neighbor(origin, mu, -1);
    EXPECT_EQ(back[mu], g.dims()[mu] - 1);
    EXPECT_TRUE(g.crosses_boundary(origin, mu, -1));
    EXPECT_FALSE(g.crosses_boundary(origin, mu, +1));
    // forward then backward is the identity
    EXPECT_EQ(g.neighbor(g.neighbor(origin, mu, +1), mu, -1), origin);
  }
}

TEST(Geometry, NeighborFlipsParity) {
  const Geometry g({4, 4, 2, 4});
  for (std::int64_t i = 0; i < g.volume(); ++i) {
    const Coords c = g.coords(i);
    for (int mu = 0; mu < 4; ++mu)
      for (int dir : {-1, +1})
        EXPECT_NE(Geometry::site_parity(c), Geometry::site_parity(g.neighbor(c, mu, dir)));
  }
}

// every hop of every site of both parities, on shapes with X = 2 (the x
// edge on both sites of a pair), odd and unit extents and a long t
template <int Mu, int Dir> void expect_neighbor_cb(const Geometry& g) {
  for (Parity p : {Parity::Even, Parity::Odd})
    for (std::int64_t cb = 0; cb < g.half_volume(); ++cb) {
      const Coords x = g.cb_coords(p, cb);
      ASSERT_EQ((g.neighbor_cb<Mu, Dir>(cb, x)), g.cb_index(g.neighbor(x, Mu, Dir)))
          << g.dims().to_string() << " mu " << Mu << " dir " << Dir << " cb " << cb;
    }
}

TEST(Geometry, NeighborCbMatchesNeighbor) {
  for (const LatticeDims d : {LatticeDims{4, 4, 4, 8}, LatticeDims{2, 3, 1, 5},
                              LatticeDims{6, 2, 5, 4}, LatticeDims{8, 1, 3, 2}}) {
    const Geometry g(d);
    expect_neighbor_cb<0, +1>(g);
    expect_neighbor_cb<0, -1>(g);
    expect_neighbor_cb<1, +1>(g);
    expect_neighbor_cb<1, -1>(g);
    expect_neighbor_cb<2, +1>(g);
    expect_neighbor_cb<2, -1>(g);
    expect_neighbor_cb<3, +1>(g);
    expect_neighbor_cb<3, -1>(g);
  }
}

TEST(Geometry, RejectsOddX) {
  EXPECT_THROW(Geometry({3, 4, 4, 4}), std::invalid_argument);
  EXPECT_THROW(Geometry({0, 4, 4, 4}), std::invalid_argument);
}

TEST(BlockLayout, IndexBijectiveAndInBounds) {
  const BlockLayout l(/*sites=*/120, /*pad=*/8, /*nint=*/24, /*nvec=*/4);
  EXPECT_EQ(l.stride(), 128);
  EXPECT_EQ(l.blocks(), 6);
  EXPECT_EQ(l.body_size(), 6 * 128 * 4);

  std::set<std::int64_t> seen;
  for (std::int64_t x = 0; x < l.sites; ++x)
    for (int n = 0; n < l.nint; ++n) {
      const std::int64_t i = l.index(x, n);
      EXPECT_GE(i, 0);
      EXPECT_LT(i, l.body_size());
      EXPECT_TRUE(seen.insert(i).second);
    }
}

TEST(BlockLayout, ConsecutiveSitesAreNvecApart) {
  // coalescing property: thread x and thread x+1 read elements Nvec apart
  const BlockLayout l(64, 4, 24, 4);
  for (int n = 0; n < l.nint; ++n)
    EXPECT_EQ(l.index(5, n) + l.nvec, l.index(6, n));
}

TEST(BlockLayout, PadSlotsDoNotAliasBody) {
  const BlockLayout l(64, 8, 72, 2);
  std::set<std::int64_t> body;
  for (std::int64_t x = 0; x < l.sites; ++x)
    for (int n = 0; n < l.nint; ++n) body.insert(l.index(x, n));
  for (std::int64_t p = 0; p < l.pad; ++p)
    for (int n = 0; n < l.nint; ++n) {
      const std::int64_t i = l.pad_index(p, n);
      EXPECT_LT(i, l.body_size());
      EXPECT_EQ(body.count(i), 0u) << "pad slot aliases body element";
    }
}

// the block gather/scatter the fields load and store through walks exactly
// index(x, n), at body sites and at pad slots
template <int W> void expect_walk_follows_index() {
  const BlockLayout l(10, 3, 12, W);
  std::vector<int> body(static_cast<std::size_t>(l.body_size()));
  for (std::size_t i = 0; i < body.size(); ++i) body[i] = static_cast<int>(i);
  for (std::int64_t x = 0; x < l.stride(); ++x) {
    std::array<int, 12> site{};
    l.gather<W>(body.data(), x, site);
    for (int n = 0; n < l.nint; ++n)
      EXPECT_EQ(site[static_cast<std::size_t>(n)], l.index(x, n)) << "nvec " << W;
    for (int& v : site) v = -v - 1;
    l.scatter<W>(site, x, body.data());
    for (int n = 0; n < l.nint; ++n)
      EXPECT_EQ(body[static_cast<std::size_t>(l.index(x, n))], -l.index(x, n) - 1) << "nvec " << W;
  }
}

TEST(BlockLayout, GatherScatterFollowIndex) {
  expect_walk_follows_index<1>();
  expect_walk_follows_index<2>();
  expect_walk_follows_index<4>();
}

TEST(BlockLayout, RejectsBadNvec) {
  EXPECT_THROW(BlockLayout(10, 0, 24, 5), std::invalid_argument);
}

} // namespace
} // namespace quda
