// Bitwise pins of the device kernels one by one, in every precision: the
// dslash over every region with and without accumulation (ghost zones filled
// by the face pack/unpack path, for each link reconstruction), the clover
// apply, the spinor face buffers and the gauge ghost exchange.  Every stored
// bit these kernels write goes through the fields' load/store and the half
// codec, so a change to either moves a digest here before it can reach a
// solve.  FNV-1a as in field_pins.h.
//
// The dslash runs on two decompositions: z and t cut, and x and y cut.  On
// the second, four consecutive checkerboard sites span two x rows, so a
// group of sites mixes hops that read a ghost with hops that wrap or stay
// in the body, and mixes Interior with Boundary sites.
//
// The single- and half-precision kernels are pinned a second time on an
// input that holds an all-zero site, an all -0 site and a site with an Inf
// and a NaN on each parity: a device bit flip can leave such values in a
// field, and the kernels must then write the same bits as before too.

#include "dirac/clover_term.h"
#include "dirac/dslash.h"
#include "dirac/gauge_init.h"
#include "dirac/transfer.h"
#include "field_pins.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace quda {
namespace {

// z and t cut: two ghost dimensions, so Interior and Boundary differ and the
// ghost reads cover a spatial and the temporal face
constexpr PartitionMask kPinMask{false, false, true, true};
// x and y cut: the x ghost is read by single sites of an x row, the y ghost
// by one of the two rows a group of four sites spans; t wraps with its phase
constexpr PartitionMask kPinMaskXY{true, true, false, false};

// per parity (even, odd): an all-zero site, an all -0 site, and a site on a
// cut z face holding +Inf and a NaN
void plant_specials(HostSpinorField& f) {
  const Coords zero[2] = {{0, 0, 0, 0}, {1, 0, 0, 0}};
  const Coords minus_zero[2] = {{1, 1, 2, 2}, {1, 2, 1, 3}};
  const Coords inf_nan[2] = {{2, 3, 3, 4}, {0, 1, 3, 5}};
  for (int p = 0; p < 2; ++p) {
    f.at(zero[p]) = Spinor<double>{};
    Spinor<double>& m = f.at(minus_zero[p]);
    for (auto& cv : m.s)
      for (std::size_t c = 0; c < 3; ++c) cv[c] = complexd(-0.0, -0.0);
    Spinor<double>& s = f.at(inf_nan[p]);
    s.s[0][0].re = std::numeric_limits<double>::infinity();
    s.s[2][1].im = std::numeric_limits<double>::quiet_NaN();
  }
}

struct PinData {
  Geometry g{LatticeDims{4, 4, 4, 8}};
  HostGaugeField u;
  HostSpinorField a, b, specials;
  HostCloverField t;

  PinData() : u(g), a(g), b(g), specials(g) {
    make_weak_field_gauge(u, 0.25, 41);
    make_random_spinor(a, 42);
    make_random_spinor(b, 43);
    specials = a;
    plant_specials(specials);
    t = make_clover_term(u, 1.1);
    add_diag(t, 4.1);
  }
};

const PinData& pdata() {
  static const PinData d;
  return d;
}

template <typename V> std::uint64_t vec_digest(std::uint64_t h, const std::vector<V>& v) {
  return fnv1a_values(h, v.data(), v.size());
}

template <typename P> std::uint64_t face_digest(std::uint64_t h, const FaceBuffer<P>& buf) {
  return vec_digest(vec_digest(h, buf.data), buf.norm);
}

// fill both ghost faces of every cut dimension of `in` from `in` itself (a
// periodic one-rank neighbour): the backward ghost is the P+mu projection
// of the last slice, the forward ghost the P-mu projection of slice 0.
// Returns the digest of every face buffer that crossed.
template <typename P>
std::uint64_t fill_ghosts(SpinorField<P>& in, const Geometry& g, const PartitionMask& mask) {
  std::uint64_t h = kFnvBasis;
  FaceBuffer<P> buf;
  for (int mu = 0; mu < 4; ++mu) {
    if (!mask[static_cast<std::size_t>(mu)]) continue;
    pack_face(in, g, Parity::Odd, mu, g.dims()[mu] - 1, +1, buf);
    h = face_digest(h, buf);
    unpack_ghost(in, g, mu, GhostFace::Backward, buf);
    pack_face(in, g, Parity::Odd, mu, 0, -1, buf);
    h = face_digest(h, buf);
    unpack_ghost(in, g, mu, GhostFace::Forward, buf);
  }
  return h;
}

// the wire buffers and the gauge field after its ghost pads are filled
template <typename P>
std::uint64_t fill_gauge_ghosts(GaugeField<P>& gauge, const Geometry& g,
                                const PartitionMask& mask) {
  std::uint64_t h = kFnvBasis;
  GaugeFaceBuffer<P> buf;
  for (int mu = 0; mu < 4; ++mu) {
    if (!mask[static_cast<std::size_t>(mu)]) continue;
    pack_gauge_face(gauge, g, mu, g.dims()[mu] - 1, buf);
    h = vec_digest(h, buf.data);
    unpack_gauge_ghost(gauge, g, mu, buf);
  }
  return vec_digest(h, gauge.raw_data());
}

struct ReconPins {
  Reconstruct recon;
  std::uint64_t gauge_ghost;
  // regions All, Interior, Boundary x Accumulate No, Yes
  std::array<std::uint64_t, 6> dslash;
};

template <typename P>
void expect_dslash_pinned(const HostSpinorField& src, std::uint64_t faces,
                          const std::array<ReconPins, 3>& want,
                          const PartitionMask& mask = kPinMask) {
  const PinData& d = pdata();
  SpinorField<P> in = upload_spinor<P>(src, Parity::Odd, mask);
  const std::uint64_t got_faces = fill_ghosts(in, d.g, mask);
  EXPECT_EQ(got_faces, faces) << "face buffers: 0x" << std::hex << got_faces;

  DslashOptions opt;
  opt.out_parity = Parity::Even;
  opt.ghost = mask;
  opt.bc_backward = -1.0;
  opt.bc_forward = -1.0;
  constexpr KernelRegion regions[3] = {KernelRegion::All, KernelRegion::Interior,
                                       KernelRegion::Boundary};
  for (const ReconPins& pins : want) {
    GaugeField<P> gauge = upload_gauge<P>(d.u, pins.recon);
    const std::uint64_t got_gauge = fill_gauge_ghosts(gauge, d.g, mask);
    EXPECT_EQ(got_gauge, pins.gauge_ghost)
        << "recon " << to_string(pins.recon) << " gauge ghost: 0x" << std::hex << got_gauge;
    for (int k = 0; k < 6; ++k) {
      SpinorField<P> out = upload_spinor<P>(d.b, Parity::Even, mask);
      const Accumulate acc = k % 2 ? Accumulate::Yes : Accumulate::No;
      dslash<P>(out, gauge, in, d.g, opt, 0, d.g.half_volume(), typename P::real_t(-0.37), acc,
                regions[k / 2]);
      const std::uint64_t got = stored_digest(out);
      EXPECT_EQ(got, pins.dslash[static_cast<std::size_t>(k)])
          << "recon " << to_string(pins.recon) << " dslash " << k << ": 0x" << std::hex << got;
    }
  }
}

// the loaded clover sites of both parities, then the clover apply with
// b = 0 (overwrite) and b != 0 (xpay on the old output)
template <typename P>
void expect_clover_pinned(const HostSpinorField& src, const std::array<std::uint64_t, 3>& want) {
  const PinData& d = pdata();
  const CloverField<P> clover = upload_clover<P>(d.t);
  std::uint64_t loaded = kFnvBasis;
  for (Parity parity : {Parity::Even, Parity::Odd})
    for (std::int64_t cb = 0; cb < d.g.half_volume(); ++cb) {
      const auto site = clover.load(parity, cb);
      loaded = fnv1a(loaded, &site, sizeof site);
    }
  EXPECT_EQ(loaded, want[0]) << "clover load: 0x" << std::hex << loaded;

  const SpinorField<P> x = upload_spinor<P>(src, Parity::Even, kPartitionTimeOnly);
  constexpr double bs[2] = {0.0, -0.43};
  for (int k = 0; k < 2; ++k) {
    SpinorField<P> out = upload_spinor<P>(d.b, Parity::Even, kPartitionTimeOnly);
    apply_clover_xpay<P>(out, clover, Parity::Even, x, d.g, 0, d.g.half_volume(),
                         static_cast<typename P::real_t>(bs[k]));
    const std::uint64_t got = stored_digest(out);
    EXPECT_EQ(got, want[static_cast<std::size_t>(k + 1)])
        << "clover b=" << bs[k] << ": 0x" << std::hex << got;
  }
}

TEST(KernelPinned, DslashHalf) {
  expect_dslash_pinned<PrecHalf>(
      pdata().a, 0x22378c621195dc5eull,
      {{{Reconstruct::Eight, 0xb6e9437c1f90ada9ull,
         {0x9519e7f0628b757dull, 0xbb50dcce26b722d5ull, 0xb459bcf52e11ad52ull,
          0xaa4f0d04d84e018cull, 0xc5b554d6e9e1b6deull, 0x5736d5540182eac4ull}},
        {Reconstruct::Twelve, 0x20f335e15e3c9e0bull,
         {0x0fe12e99bd0dc278ull, 0x1245f819c3bd8871ull, 0x04c3dfd73416fce5ull,
          0x4cafc4c94efcb616ull, 0x7dc3626c95b778e0ull, 0x8ce5342beba3cebeull}},
        {Reconstruct::Eighteen, 0xbd878e31205aeb87ull,
         {0xe4ee58adeb635046ull, 0xb8adea82881ead6bull, 0x8f8e32bed04350a6ull,
          0xac6665524674f569ull, 0x49973a131724c245ull, 0x9cff6c0adf12fbf3ull}}}});
}
TEST(KernelPinned, DslashSingle) {
  expect_dslash_pinned<PrecSingle>(
      pdata().a, 0x8d5ff1d898b70565ull,
      {{{Reconstruct::Eight, 0xcd368767a19d92acull,
         {0xae91de45e8fd36f5ull, 0x4d9e703ab9266adfull, 0xc08cbd24ee225d98ull,
          0x635ac20b75607ca2ull, 0xe7f7d7194b6ebc5cull, 0xc414029fd8db3f0cull}},
        {Reconstruct::Twelve, 0x3ca221076f2e5540ull,
         {0xdca06f07f557c3d9ull, 0x45e9c5b3bed7f39cull, 0x786da5e943dc9e8bull,
          0x9a2a129d646cbdf5ull, 0x93c2e258d7dd0a2full, 0x977f3f5efbf362f8ull}},
        {Reconstruct::Eighteen, 0xd3168a09b576b640ull,
         {0xe7051546f36483bcull, 0xc38c680d5d1c46b2ull, 0x413d98558981080eull,
          0x57887e93e66c79a0ull, 0xfc3d2fa9906b1f5full, 0x4ba0b345a467a893ull}}}});
}
TEST(KernelPinned, CloverApplyHalf) {
  expect_clover_pinned<PrecHalf>(
      pdata().a, {0xc757145cf34c0e4dull, 0x00ba87b083bbd124ull, 0xd76ef563afe4ce55ull});
}
TEST(KernelPinned, CloverApplySingle) {
  expect_clover_pinned<PrecSingle>(
      pdata().a, {0x8c7d6823ebc03d30ull, 0xc601f63703218622ull, 0xea6292efea926b54ull});
}
TEST(KernelPinned, DslashSingleSpecials) {
  expect_dslash_pinned<PrecSingle>(
      pdata().specials, 0x24aba15461255290ull,
      {{{Reconstruct::Eight, 0xcd368767a19d92acull,
         {0xdf3c5c4ef596ef73ull, 0xeb0425fb439a9894ull, 0xe18f636640c0267bull,
          0x280bdae3519be204ull, 0x66483aba50387a61ull, 0x3eb514778e872fb1ull}},
        {Reconstruct::Twelve, 0x3ca221076f2e5540ull,
         {0xba6fda3c678de5bcull, 0x40f1702fd8bcd0b0ull, 0xaa4f54a00be3c558ull,
          0x9c8aee1ca735fa47ull, 0xbee4a084baa968d1ull, 0xe9336eca62a8da9eull}},
        {Reconstruct::Eighteen, 0xd3168a09b576b640ull,
         {0x51bf3d3db9c795f4ull, 0x26dc0cf2780f576aull, 0x9c4060cdb713d1ccull,
          0xadcc293950caa88full, 0xd9a4b47d416400b9ull, 0xef2d6e2da5755048ull}}}});
}
TEST(KernelPinned, CloverApplySingleSpecials) {
  expect_clover_pinned<PrecSingle>(
      pdata().specials, {0x8c7d6823ebc03d30ull, 0x46845c3ebdeacf39ull, 0x4ca44961357987b4ull});
}

TEST(KernelPinned, DslashDouble) {
  expect_dslash_pinned<PrecDouble>(
      pdata().a, 0x786e051abc09d687ull,
      {{{Reconstruct::Eight, 0xcae904aceaf31d0eull,
         {0x76ef91331bef2118ull, 0xd471d2fdbfff1708ull, 0x32cf14d4521dd7a8ull, 0x380081ea12cb26c3ull, 0x56ef313aed8b913dull, 0x185cce50d04fda2aull}},
        {Reconstruct::Twelve, 0xae366190ceda2941ull,
         {0xad51ed7379bd1268ull, 0x1f02edd1299f6a68ull, 0xae5d5eeab0c9e954ull, 0x6b931d321d013c1dull, 0x418d6fe01c59445dull, 0x2c6e0b45425e7110ull}},
        {Reconstruct::Eighteen, 0x680aa2f492234aefull,
         {0xad51ed7379bd1268ull, 0x1f02edd1299f6a68ull, 0xae5d5eeab0c9e954ull, 0x6b931d321d013c1dull, 0x418d6fe01c59445dull, 0x2c6e0b45425e7110ull}}}});
}
TEST(KernelPinned, CloverApplyDouble) {
  expect_clover_pinned<PrecDouble>(pdata().a, {0xbb3c81a38abea25cull, 0x63651bc8ab1d7033ull, 0x9df83ad1011dfb2full});
}
TEST(KernelPinned, DslashHalfSpecials) {
  expect_dslash_pinned<PrecHalf>(
      pdata().specials, 0xde6f30411e7a2b89ull,
      {{{Reconstruct::Eight, 0xb6e9437c1f90ada9ull,
         {0xc9dedce4510f87ecull, 0x4d811a77832a47eeull, 0x3c0693305005f81eull, 0x63f9f3c711038379ull, 0x2a20c6f8815bac0full, 0x7a60883675a1543aull}},
        {Reconstruct::Twelve, 0x20f335e15e3c9e0bull,
         {0x22292742dc82ba93ull, 0xe2b7f1c4f15a9823ull, 0x183805a1cc2128c2ull, 0x20e870ffc089b538ull, 0xcdceb651b0b266ccull, 0x86146e48d2f35ab2ull}},
        {Reconstruct::Eighteen, 0xbd878e31205aeb87ull,
         {0x9f4d46609d2ae231ull, 0xbaef9d5a27a76c22ull, 0xc8f55239c87ae076ull, 0xad384e866c839ef8ull, 0x707e6810ecc1968aull, 0xdbb486e7c96a1f7bull}}}});
}
TEST(KernelPinned, CloverApplyHalfSpecials) {
  expect_clover_pinned<PrecHalf>(pdata().specials, {0xc757145cf34c0e4dull, 0x6f9302acdfde2c3eull, 0xbeaac6f4f2c964a6ull});
}
TEST(KernelPinned, DslashHalfXYCut) {
  expect_dslash_pinned<PrecHalf>(
      pdata().a, 0xd66432f26debb6a9ull,
      {{{Reconstruct::Eight, 0x5e81830994a718caull,
         {0xd0ae6505c21cabf6ull, 0x3322da4cebf5dc81ull, 0x5af34c33bfa33e3eull, 0x113a33fe250cac86ull, 0xb33dd2d0a502d95dull, 0x99130cb7f313b79eull}},
        {Reconstruct::Twelve, 0x84b91009152b9c9cull,
         {0x063771de070313dfull, 0xbe6fb6e0f79e5ce1ull, 0xc472f288d74f6f95ull, 0x2591cf6dd6bc642dull, 0x2e4bac00e620580bull, 0xb1051162e86b5931ull}},
        {Reconstruct::Eighteen, 0x40d95e50a756c57full,
         {0x3758d0c5e2307706ull, 0x25854a7093f8cbb7ull, 0x7fb07ab8bfccfac4ull, 0xf784051e1e49b0d4ull, 0x52195dc4758e79dfull, 0xcf25288ba0a45fe2ull}}}},
      kPinMaskXY);
}
TEST(KernelPinned, DslashSingleXYCut) {
  expect_dslash_pinned<PrecSingle>(
      pdata().a, 0xc384aa373a31d10aull,
      {{{Reconstruct::Eight, 0x93fb3487c32612c8ull,
         {0x5b7b71b38ff2454eull, 0x8570f08e5fef1577ull, 0x839073ad6f85df45ull, 0xb0b6d78ce8dc1ab4ull, 0xa44181fc49d5cb52ull, 0x3a106339d63ef536ull}},
        {Reconstruct::Twelve, 0xf1b2ada30f4f3f10ull,
         {0x45b6e91a72fc73d9ull, 0x8d7dd9327cd5339cull, 0x2d2262bdad77b8cdull, 0xba62de2c904cf484ull, 0x4c36adcd26404c71ull, 0x69b09422dfc354d9ull}},
        {Reconstruct::Eighteen, 0xd107143d37474e94ull,
         {0xd21efbf9e5e7c3bcull, 0xc5652b96f035a6b2ull, 0x4626545cc06f0bafull, 0xf1c9982700bde85eull, 0xbf9bef354eed950eull, 0x2310de12b6b119e5ull}}}},
      kPinMaskXY);
}
TEST(KernelPinned, DslashDoubleXYCut) {
  expect_dslash_pinned<PrecDouble>(
      pdata().a, 0xc052a0a20c5d0e5aull,
      {{{Reconstruct::Eight, 0x1771a67be3a31b21ull,
         {0xd1d4b87a58428823ull, 0x0e95781d46709995ull, 0xaa182a3023b54f03ull, 0xb42cf237adde4079ull, 0x5189fe120cd034f9ull, 0xfc539dee03b19881ull}},
        {Reconstruct::Twelve, 0x5d5432ebe17e00d1ull,
         {0x85613e7ede641268ull, 0x14107125af466a68ull, 0xe3f0b8f3e4ee0fd3ull, 0xdddbeead8a04571eull, 0x561d895649bcb2b2ull, 0xca03ee5c51ab72ffull}},
        {Reconstruct::Eighteen, 0x6d6cf80c83354ca3ull,
         {0x85613e7ede641268ull, 0x14107125af466a68ull, 0xe3f0b8f3e4ee0fd3ull, 0xdddbeead8a04571eull, 0x561d895649bcb2b2ull, 0xca03ee5c51ab72ffull}}}},
      kPinMaskXY);
}
TEST(KernelPinned, DslashSingleSpecialsXYCut) {
  expect_dslash_pinned<PrecSingle>(
      pdata().specials, 0x3b63504fa18ace27ull,
      {{{Reconstruct::Eight, 0x93fb3487c32612c8ull,
         {0xfedb6ffb9b1d33fcull, 0x9cd4971ad6fa2ab4ull, 0x1fbec1f37ab0ecf6ull, 0x29a2b33e7f377d44ull, 0x21c35674aa65d8dbull, 0x12cd453732c14abdull}},
        {Reconstruct::Twelve, 0xf1b2ada30f4f3f10ull,
         {0x2f987221347125bcull, 0xf39b26e80c1dd0b0ull, 0xe1fc8c2f6f996c12ull, 0xa316ee04877d73c2ull, 0x983f83cbd482ab47ull, 0x3c9b7f4934c6adb7ull}},
        {Reconstruct::Eighteen, 0xd107143d37474e94ull,
         {0xac55b83e045555f4ull, 0x05b7a14f30eb376aull, 0x273fd4efa7145a8dull, 0x15dbbfdb619362a0ull, 0xd320d1ab6b8d1970ull, 0x896eab3b04fd185full}}}},
      kPinMaskXY);
}

} // namespace
} // namespace quda
