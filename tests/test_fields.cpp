// Unit tests: device field store/load round trips in all three precisions,
// half-precision quantization error bounds, ghost end zones, and the gauge
// ghost living inside the padding.

#include "field_pins.h"

#include "dirac/gauge_init.h"
#include "dirac/transfer.h"
#include "lattice/clover_field.h"
#include "lattice/gauge_field.h"
#include "lattice/spinor_field.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

namespace quda {
namespace {

Spinor<double> random_spinor(std::mt19937_64& rng, double scale = 1.0) {
  std::normal_distribution<double> d(0.0, scale);
  Spinor<double> s;
  for (std::size_t spin = 0; spin < 4; ++spin)
    for (std::size_t c = 0; c < 3; ++c) s.s[spin][c] = complexd(d(rng), d(rng));
  return s;
}

template <typename P> class SpinorFieldTyped : public ::testing::Test {};
using AllPrecisions = ::testing::Types<PrecDouble, PrecSingle, PrecHalf>;
TYPED_TEST_SUITE(SpinorFieldTyped, AllPrecisions);

TYPED_TEST(SpinorFieldTyped, StoreLoadRoundTrip) {
  using P = TypeParam;
  const Geometry g({4, 4, 4, 4});
  SpinorField<P> f(g, kPartitionTimeOnly);
  std::mt19937_64 rng(42);

  std::vector<Spinor<double>> ref(static_cast<std::size_t>(f.sites()));
  for (std::int64_t i = 0; i < f.sites(); ++i) {
    ref[static_cast<std::size_t>(i)] = random_spinor(rng);
    f.store(i, convert<typename P::real_t>(ref[static_cast<std::size_t>(i)]));
  }

  // tolerance: exact in double; float rounding in single; ~1/32767 relative
  // to the per-spinor max in half
  const double tol = P::value == Precision::Double   ? 1e-30
                     : P::value == Precision::Single ? 1e-12
                                                     : 2e-4;
  for (std::int64_t i = 0; i < f.sites(); ++i) {
    const Spinor<double> got = convert<double>(f.load(i));
    const Spinor<double>& want = ref[static_cast<std::size_t>(i)];
    EXPECT_LT(norm2(got - want) / norm2(want), tol);
  }
}

TYPED_TEST(SpinorFieldTyped, GhostEndZoneRoundTrip) {
  using P = TypeParam;
  using real_t = typename P::real_t;
  const Geometry g({4, 4, 4, 4});
  SpinorField<P> f(g, kPartitionTimeOnly);
  std::mt19937_64 rng(17);
  std::normal_distribution<double> d(0.0, 1.0);

  for (int face = 0; face < 2; ++face) {
    for (std::int64_t fs = 0; fs < f.ghost_sites(3); ++fs) {
      HalfSpinor<real_t> h;
      double m = 0;
      for (std::size_t sp = 0; sp < 2; ++sp)
        for (std::size_t c = 0; c < 3; ++c) {
          const double re = d(rng), im = d(rng);
          h.s[sp][c] = Complex<real_t>(static_cast<real_t>(re), static_cast<real_t>(im));
          m = std::max({m, std::abs(re), std::abs(im)});
        }
      f.store_ghost(3, static_cast<GhostFace>(face), fs, h, static_cast<float>(m));
      const HalfSpinor<real_t> got = f.load_ghost(3, static_cast<GhostFace>(face), fs);
      for (std::size_t sp = 0; sp < 2; ++sp)
        for (std::size_t c = 0; c < 3; ++c) {
          const double tol = P::value == Precision::Half ? 2e-4 * m : 1e-6 * m + 1e-30;
          EXPECT_NEAR(static_cast<double>(got.s[sp][c].re),
                      static_cast<double>(h.s[sp][c].re), tol);
        }
    }
  }
}

TYPED_TEST(SpinorFieldTyped, GhostDoesNotClobberBody) {
  using P = TypeParam;
  using real_t = typename P::real_t;
  const Geometry g({4, 4, 4, 4});
  SpinorField<P> f(g, kPartitionTimeOnly);
  std::mt19937_64 rng(29);
  std::vector<Spinor<double>> ref(static_cast<std::size_t>(f.sites()));
  for (std::int64_t i = 0; i < f.sites(); ++i) {
    ref[static_cast<std::size_t>(i)] = random_spinor(rng);
    f.store(i, convert<real_t>(ref[static_cast<std::size_t>(i)]));
  }
  // fill both ghost faces
  for (int face = 0; face < 2; ++face)
    for (std::int64_t fs = 0; fs < f.ghost_sites(3); ++fs) {
      HalfSpinor<real_t> h;
      for (std::size_t sp = 0; sp < 2; ++sp)
        for (std::size_t c = 0; c < 3; ++c) h.s[sp][c] = Complex<real_t>(real_t(0.5), real_t(-0.5));
      f.store_ghost(3, static_cast<GhostFace>(face), fs, h, 0.5f);
    }
  // body intact
  for (std::int64_t i = 0; i < f.sites(); ++i) {
    const Spinor<double> got = convert<double>(f.load(i));
    const double tol = P::value == Precision::Double   ? 1e-30
                       : P::value == Precision::Single ? 1e-12
                                                       : 2e-4;
    EXPECT_LT(norm2(got - ref[static_cast<std::size_t>(i)]) /
                  norm2(ref[static_cast<std::size_t>(i)]),
              tol);
  }
}

TEST(HalfPrecision, QuantizationErrorBound) {
  // |from_half(to_half(x)) - x| <= 1/(2*32767) for x in [-1, 1]
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<float> u(-1.0f, 1.0f);
  for (int i = 0; i < 10000; ++i) {
    const float x = u(rng);
    EXPECT_NEAR(from_half(to_half(x)), x, 0.5f / kHalfPointScale + 1e-7f);
  }
  // clamping
  EXPECT_EQ(to_half(1.5f), to_half(1.0f));
  EXPECT_EQ(to_half(-1.5f), to_half(-1.0f));
}

// a half spinor site stores 24 int16 under one shared norm, its max-abs
TEST(HalfPrecision, SpinorPackSharedNorm) {
  std::mt19937_64 rng(5);
  const Spinor<double> sd = random_spinor(rng, 100.0); // large dynamic range
  const Spinor<float> s = convert<float>(sd);
  SpinorField<PrecHalf> f(1, 1);
  f.store(0, s);
  const float norm = f.norm_data()[0];
  EXPECT_FLOAT_EQ(norm, max_abs(s));
  const Spinor<float> u = f.load(0);
  const double tol = 2.0 / kHalfPointScale * norm;
  for (std::size_t spin = 0; spin < 4; ++spin)
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(u.s[spin][c].re, s.s[spin][c].re, tol);
      EXPECT_NEAR(u.s[spin][c].im, s.s[spin][c].im, tol);
    }
}

template <typename P> class GaugeFieldTyped : public ::testing::Test {};
TYPED_TEST_SUITE(GaugeFieldTyped, AllPrecisions);

TYPED_TEST(GaugeFieldTyped, UploadLoadMatchesHost) {
  using P = TypeParam;
  const Geometry g({4, 4, 4, 4});
  HostGaugeField host(g);
  make_random_gauge(host, 33);

  for (Reconstruct recon : {Reconstruct::Twelve, Reconstruct::Eighteen, Reconstruct::Eight}) {
    GaugeField<P> dev = upload_gauge<P>(host, recon);
    // 8-real storage round-trips through atan2/cos/sin and the Cramer-rule
    // reconstruction, which amplifies rounding by 1/(|U01|^2+|U02|^2) --
    // hence the looser per-recon tolerances
    const bool eight = recon == Reconstruct::Eight;
    const double tol = P::value == Precision::Double   ? (eight ? 1e-20 : 1e-28)
                       : P::value == Precision::Single ? (eight ? 1e-9 : 1e-12)
                                                       : // half: (1/32767)^2-ish per element
                           (eight ? 1e-4 : 2e-7);
    for (int par = 0; par < 2; ++par) {
      const Parity parity = par == 0 ? Parity::Even : Parity::Odd;
      for (std::int64_t cb = 0; cb < g.half_volume(); ++cb) {
        const Coords c = g.cb_coords(parity, cb);
        for (int mu = 0; mu < 4; ++mu) {
          const SU3<double> got = convert<double>(dev.load(mu, parity, cb));
          EXPECT_LT(frobenius_dist2(got, host.link(mu, c)) / 9.0, tol);
        }
      }
    }
  }
}

TYPED_TEST(GaugeFieldTyped, GhostLivesInPadWithoutAliasing) {
  using P = TypeParam;
  const Geometry g({4, 4, 4, 4});
  HostGaugeField host(g);
  make_random_gauge(host, 77);
  GaugeField<P> dev = upload_gauge<P>(host, Reconstruct::Twelve);

  // snapshot of all body links
  std::vector<SU3<double>> body;
  for (int par = 0; par < 2; ++par)
    for (std::int64_t cb = 0; cb < g.half_volume(); ++cb)
      for (int mu = 0; mu < 4; ++mu)
        body.push_back(convert<double>(dev.load(mu, par == 0 ? Parity::Even : Parity::Odd, cb)));

  // write ghosts into the pad
  std::mt19937_64 rng(3);
  std::normal_distribution<double> d(0.0, 1.0);
  std::vector<SU3<double>> ghosts;
  for (int par = 0; par < 2; ++par)
    for (std::int64_t fs = 0; fs < dev.ghost_capacity(3); ++fs) {
      SU3<double> u;
      for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c) u.e[r][c] = complexd(d(rng), d(rng));
      u = reunitarize(u);
      ghosts.push_back(u);
      dev.store_ghost(3, par == 0 ? Parity::Even : Parity::Odd, fs, u);
    }

  // ghosts read back
  std::size_t k = 0;
  const double tol = P::value == Precision::Half ? 1e-6 : 1e-10;
  for (int par = 0; par < 2; ++par)
    for (std::int64_t fs = 0; fs < dev.ghost_capacity(3); ++fs, ++k) {
      const SU3<double> got =
          convert<double>(dev.load_ghost(3, par == 0 ? Parity::Even : Parity::Odd, fs));
      EXPECT_LT(frobenius_dist2(got, ghosts[k]), tol);
    }

  // body untouched
  k = 0;
  for (int par = 0; par < 2; ++par)
    for (std::int64_t cb = 0; cb < g.half_volume(); ++cb)
      for (int mu = 0; mu < 4; ++mu, ++k) {
        const SU3<double> got =
            convert<double>(dev.load(mu, par == 0 ? Parity::Even : Parity::Odd, cb));
        EXPECT_LT(frobenius_dist2(got, body[k]), 1e-20);
      }
}

// the conversion parallelizes over fixed kBlasGrain site grains, so any
// thread budget yields the same bits
TEST(ConvertField, FastPathThreadInvariance) {
  const std::int64_t sites = 3 * exec::kBlasGrain + 37, face = 64;
  SpinorField<PrecSingle> src(sites, face);
  std::mt19937_64 rng(31);
  for (std::int64_t i = 0; i < sites; ++i)
    src.store(i, convert<float>(random_spinor(rng)));

  SpinorField<PrecHalf> one(sites, face), many(sites, face);
  exec::set_thread_budget(1);
  convert_field(src, one);
  exec::set_thread_budget(8);
  convert_field(src, many);
  exec::set_thread_budget(0);
  EXPECT_EQ(one.raw_data(), many.raw_data());
  EXPECT_EQ(one.norm_data(), many.norm_data());
}

// the six conversions the mixed solvers make, from a source with a zero
// site (store()'s zero-vector norm rule) and 1e3-scaled sites; the
// destination's stored payload and norms are pinned
template <typename P> SpinorField<P> conversion_source() {
  const std::int64_t sites = 96, face = 16;
  SpinorField<P> src(sites, face);
  std::mt19937_64 rng(11);
  for (std::int64_t i = 0; i < sites; ++i)
    src.store(i, convert<typename P::real_t>(random_spinor(rng, i % 7 == 0 ? 1e3 : 1.0)));
  src.store(5, Spinor<typename P::real_t>{});
  return src;
}

template <typename PDst, typename PSrc> std::uint64_t converted_digest() {
  const SpinorField<PSrc> src = conversion_source<PSrc>();
  SpinorField<PDst> dst(src.sites(), src.ghost_sites(3));
  convert_field(src, dst);
  return stored_digest(dst);
}

TEST(ConvertField, SolverPairsArePinned) {
  const struct {
    const char* pair;
    std::uint64_t got, want;
  } pins[] = {
      {"double->single", converted_digest<PrecSingle, PrecDouble>(), 0x6f771e4e1f87fdedull},
      {"single->double", converted_digest<PrecDouble, PrecSingle>(), 0x2e049ea2b4c9aa97ull},
      {"double->half", converted_digest<PrecHalf, PrecDouble>(), 0x43ee4c59dd02ba2full},
      {"half->double", converted_digest<PrecDouble, PrecHalf>(), 0x14b3d4442e5c787aull},
      {"single->half", converted_digest<PrecHalf, PrecSingle>(), 0x43ee4c59dd02ba2full},
      {"half->single", converted_digest<PrecSingle, PrecHalf>(), 0xeffe591de54c78f2ull},
  };
  for (const auto& p : pins) EXPECT_EQ(p.got, p.want) << p.pair << ": 0x" << std::hex << p.got;
}

// a NaN component stores as 0 and leaves the site's norm to the other
// components; an Inf component makes the norm Inf, so every component of
// that site loads as NaN.  Both through store() and through the
// single -> half conversion.
TEST(HalfStore, NanStoresZeroAndInfPoisonsItsSite) {
  Spinor<float> nan_site, inf_site;
  for (std::size_t spin = 0; spin < 4; ++spin)
    for (std::size_t c = 0; c < 3; ++c) {
      const float k = static_cast<float>(3 * spin + c); // max |component|: 24/48 = 0.5
      nan_site.s[spin][c] = Complex<float>((2 * k + 1) / 48, -(2 * k + 2) / 48);
    }
  inf_site = nan_site;
  nan_site.s[2][1].im = std::numeric_limits<float>::quiet_NaN();
  inf_site.s[1][0].re = std::numeric_limits<float>::infinity();

  SpinorField<PrecSingle> src(2, 1);
  src.store(0, nan_site);
  src.store(1, inf_site);
  SpinorField<PrecHalf> stored(2, 1), converted(2, 1);
  stored.store(0, nan_site);
  stored.store(1, inf_site);
  convert_field(src, converted);

  for (const SpinorField<PrecHalf>* h : {&stored, &converted}) {
    EXPECT_EQ(h->norm_data()[0], 0.5f);
    const Spinor<float> a = h->load(0);
    for (std::size_t spin = 0; spin < 4; ++spin)
      for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_NEAR(a.s[spin][c].re, nan_site.s[spin][c].re, 0.5f / kHalfPointScale);
        if (spin == 2 && c == 1)
          EXPECT_EQ(a.s[spin][c].im, 0.0f);
        else
          EXPECT_NEAR(a.s[spin][c].im, nan_site.s[spin][c].im, 0.5f / kHalfPointScale);
      }
    EXPECT_EQ(h->norm_data()[1], std::numeric_limits<float>::infinity());
    const Spinor<float> b = h->load(1);
    for (std::size_t spin = 0; spin < 4; ++spin)
      for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_TRUE(std::isnan(b.s[spin][c].re));
        EXPECT_TRUE(std::isnan(b.s[spin][c].im));
      }
  }
}

TEST(SpinorUploadDownload, RoundTripBothParities) {
  const Geometry g({4, 4, 4, 8});
  HostSpinorField host(g), back(g);
  make_random_spinor(host, 9);

  const SpinorFieldD even = upload_spinor<PrecDouble>(host, Parity::Even, kPartitionTimeOnly);
  const SpinorFieldD odd = upload_spinor<PrecDouble>(host, Parity::Odd, kPartitionTimeOnly);
  download_spinor(even, Parity::Even, back);
  download_spinor(odd, Parity::Odd, back);

  for (std::int64_t i = 0; i < g.volume(); ++i) EXPECT_LT(norm2(host[i] - back[i]), 1e-28);
}

} // namespace
} // namespace quda
