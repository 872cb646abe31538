// Bitwise pins of the device kernels one by one, in half and in single: the
// dslash over every region with and without accumulation (ghost zones filled
// by the face pack/unpack path, for each link reconstruction), the clover
// apply, the spinor face buffers and the gauge ghost exchange.  Every stored
// bit these kernels write goes through the fields' load/store and the half
// codec, so a change to either moves a digest here before it can reach a
// solve.  FNV-1a as in field_pins.h.

#include "dirac/clover_term.h"
#include "dirac/dslash.h"
#include "dirac/gauge_init.h"
#include "dirac/transfer.h"
#include "field_pins.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

namespace quda {
namespace {

// z and t cut: two ghost dimensions, so Interior and Boundary differ and the
// ghost reads cover a spatial and the temporal face
constexpr PartitionMask kPinMask{false, false, true, true};

struct PinData {
  Geometry g{LatticeDims{4, 4, 4, 8}};
  HostGaugeField u;
  HostSpinorField a, b;
  HostCloverField t;

  PinData() : u(g), a(g), b(g) {
    make_weak_field_gauge(u, 0.25, 41);
    make_random_spinor(a, 42);
    make_random_spinor(b, 43);
    t = make_clover_term(u, 1.1);
    add_diag(t, 4.1);
  }
};

const PinData& pdata() {
  static const PinData d;
  return d;
}

template <typename V> std::uint64_t vec_digest(std::uint64_t h, const std::vector<V>& v) {
  return fnv1a(h, v.data(), v.size() * sizeof(V));
}

template <typename P> std::uint64_t face_digest(std::uint64_t h, const FaceBuffer<P>& buf) {
  return vec_digest(vec_digest(h, buf.data), buf.norm);
}

// fill both ghost faces of every cut dimension of `in` from `in` itself (a
// periodic one-rank neighbour): the backward ghost is the P+mu projection
// of the last slice, the forward ghost the P-mu projection of slice 0.
// Returns the digest of every face buffer that crossed.
template <typename P> std::uint64_t fill_ghosts(SpinorField<P>& in, const Geometry& g) {
  std::uint64_t h = kFnvBasis;
  FaceBuffer<P> buf;
  for (int mu = 0; mu < 4; ++mu) {
    if (!kPinMask[static_cast<std::size_t>(mu)]) continue;
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
template <typename P> std::uint64_t fill_gauge_ghosts(GaugeField<P>& gauge, const Geometry& g) {
  std::uint64_t h = kFnvBasis;
  GaugeFaceBuffer<P> buf;
  for (int mu = 0; mu < 4; ++mu) {
    if (!kPinMask[static_cast<std::size_t>(mu)]) continue;
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
void expect_dslash_pinned(std::uint64_t faces, const std::array<ReconPins, 3>& want) {
  const PinData& d = pdata();
  SpinorField<P> in = upload_spinor<P>(d.a, Parity::Odd, kPinMask);
  const std::uint64_t got_faces = fill_ghosts(in, d.g);
  EXPECT_EQ(got_faces, faces) << "face buffers: 0x" << std::hex << got_faces;

  DslashOptions opt;
  opt.out_parity = Parity::Even;
  opt.ghost = kPinMask;
  opt.bc_backward = -1.0;
  opt.bc_forward = -1.0;
  constexpr KernelRegion regions[3] = {KernelRegion::All, KernelRegion::Interior,
                                       KernelRegion::Boundary};
  for (const ReconPins& pins : want) {
    GaugeField<P> gauge = upload_gauge<P>(d.u, pins.recon);
    const std::uint64_t got_gauge = fill_gauge_ghosts(gauge, d.g);
    EXPECT_EQ(got_gauge, pins.gauge_ghost)
        << "recon " << to_string(pins.recon) << " gauge ghost: 0x" << std::hex << got_gauge;
    for (int k = 0; k < 6; ++k) {
      SpinorField<P> out = upload_spinor<P>(d.b, Parity::Even, kPinMask);
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
template <typename P> void expect_clover_pinned(const std::array<std::uint64_t, 3>& want) {
  const PinData& d = pdata();
  const CloverField<P> clover = upload_clover<P>(d.t);
  std::uint64_t loaded = kFnvBasis;
  for (Parity parity : {Parity::Even, Parity::Odd})
    for (std::int64_t cb = 0; cb < d.g.half_volume(); ++cb) {
      const auto site = clover.load(parity, cb);
      loaded = fnv1a(loaded, &site, sizeof site);
    }
  EXPECT_EQ(loaded, want[0]) << "clover load: 0x" << std::hex << loaded;

  const SpinorField<P> x = upload_spinor<P>(d.a, Parity::Even);
  constexpr double bs[2] = {0.0, -0.43};
  for (int k = 0; k < 2; ++k) {
    SpinorField<P> out = upload_spinor<P>(d.b, Parity::Even);
    apply_clover_xpay<P>(out, clover, Parity::Even, x, d.g, 0, d.g.half_volume(),
                         static_cast<typename P::real_t>(bs[k]));
    const std::uint64_t got = stored_digest(out);
    EXPECT_EQ(got, want[static_cast<std::size_t>(k + 1)])
        << "clover b=" << bs[k] << ": 0x" << std::hex << got;
  }
}

TEST(KernelPinned, DslashHalf) {
  expect_dslash_pinned<PrecHalf>(
      0x22378c621195dc5eull,
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
      0x8d5ff1d898b70565ull,
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
      {0xc757145cf34c0e4dull, 0x00ba87b083bbd124ull, 0xd76ef563afe4ce55ull});
}
TEST(KernelPinned, CloverApplySingle) {
  expect_clover_pinned<PrecSingle>(
      {0x8c7d6823ebc03d30ull, 0xc601f63703218622ull, 0xea6292efea926b54ull});
}

} // namespace
} // namespace quda
