// End-to-end tests of the public API: invert() / invert_multi_gpu() /
// apply_matrix_multi_gpu() with Chroma-style DeGrand-Rossi interface fields,
// verified against the naive-order reference operator in the same basis.

#include "field_pins.h"

#include "core/quda_api.h"
#include "dirac/clover_term.h"
#include "dirac/gauge_init.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace quda {
namespace {

struct ApiFixture {
  Geometry g{LatticeDims{4, 4, 4, 8}};
  HostGaugeField u;
  HostSpinorField b;
  InvertParams params;

  ApiFixture() : u(g), b(g) {
    make_weak_field_gauge(u, 0.2, 9000);
    make_random_spinor(b, 9001);
    params.mass = 0.1;
    params.csw = 1.0;
    params.tol = 1e-9;
    params.precision = Precision::Double;
    params.max_iter = 2000;
  }

  // |M x - b| / |b| with the reference operator in the interface basis
  double reference_residual(const HostSpinorField& x) const {
    WilsonParams wp;
    wp.mass = params.mass;
    wp.time_bc = params.time_bc;
    wp.basis = params.interface_basis;
    HostSpinorField mx(g);
    if (params.csw != 0.0) {
      // build the dense clover in the *interface* basis for an independent check
      HostSpinorField x_nr(g), mx_nr(g);
      for (std::int64_t i = 0; i < g.volume(); ++i)
        x_nr[i] = rotate_basis(params.interface_basis, GammaBasis::NonRelativistic, x[i]);
      const DenseCloverField dense = make_dense_clover_term(u, params.csw);
      WilsonParams wnr = wp;
      wnr.basis = GammaBasis::NonRelativistic;
      apply_wilson_clover_ref(u, dense, x_nr, mx_nr, wnr);
      for (std::int64_t i = 0; i < g.volume(); ++i)
        mx[i] = rotate_basis(GammaBasis::NonRelativistic, params.interface_basis, mx_nr[i]);
    } else {
      apply_wilson_ref(u, x, mx, wp);
    }
    double num = 0, den = 0;
    for (std::int64_t i = 0; i < g.volume(); ++i) {
      num += norm2(mx[i] - b[i]);
      den += norm2(b[i]);
    }
    return std::sqrt(num / den);
  }
};

TEST(PublicApi, SingleGpuInvertDouble) {
  ApiFixture f;
  HostSpinorField x(f.g);
  const InvertResult r = invert(f.u, f.b, x, f.params);
  EXPECT_TRUE(r.stats.converged) << r.stats.summary();
  EXPECT_LT(f.reference_residual(x), 1e-8);
  EXPECT_GT(r.effective_gflops, 0.0);
  EXPECT_GT(r.simulated_time_us, 0.0);
  EXPECT_GT(r.device_bytes_peak, 0);
}

TEST(PublicApi, MultiGpuInvertMatchesSingleGpu) {
  ApiFixture f;
  HostSpinorField x1(f.g), x4(f.g);
  const InvertResult r1 = invert(f.u, f.b, x1, f.params);
  const InvertResult r4 = invert_multi_gpu(sim::ClusterSpec::jlab_9g(4), f.u, f.b, x4, f.params);
  ASSERT_TRUE(r1.stats.converged);
  ASSERT_TRUE(r4.stats.converged);
  double num = 0, den = 0;
  for (std::int64_t i = 0; i < f.g.volume(); ++i) {
    num += norm2(x1[i] - x4[i]);
    den += norm2(x1[i]);
  }
  EXPECT_LT(std::sqrt(num / den), 1e-7) << "decomposition must not change the solution";
}

TEST(PublicApi, MixedPrecisionSingleHalf) {
  ApiFixture f;
  f.params.precision = Precision::Single;
  f.params.sloppy = Precision::Half;
  f.params.tol = 1e-6;
  f.params.delta = 1e-1;
  HostSpinorField x(f.g);
  const InvertResult r = invert_multi_gpu(sim::ClusterSpec::jlab_9g(2), f.u, f.b, x, f.params);
  EXPECT_TRUE(r.stats.converged) << r.stats.summary();
  EXPECT_GT(r.stats.reliable_updates, 0);
  EXPECT_LT(f.reference_residual(x), 1e-4);
}

// the mixed solvers' bits end to end: the half-precision BLAS kernels, the
// precision conversions and the reliable updates all feed the solution
TEST(PublicApi, HalfSloppySolutionsArePinned) {
  ApiFixture f;
  f.params.sloppy = Precision::Half;
  f.params.delta = 1e-1;
  const struct {
    Precision outer;
    double tol;
    std::uint64_t digest;
  } cases[] = {{Precision::Single, 1e-6, 0xa0b294e3d186a6b6ull},
               {Precision::Double, 1e-9, 0x205266e0d5725eadull}};
  for (const auto& c : cases) {
    f.params.precision = c.outer;
    f.params.tol = c.tol;
    HostSpinorField x(f.g);
    const InvertResult r = invert_multi_gpu(sim::ClusterSpec::jlab_9g(2), f.u, f.b, x, f.params);
    EXPECT_TRUE(r.stats.converged) << r.stats.summary();
    const std::uint64_t got = solution_digest(x);
    EXPECT_EQ(got, c.digest) << to_string(c.outer) << "/half: 0x" << std::hex << got;
  }
}

TEST(PublicApi, WilsonWithoutClover) {
  ApiFixture f;
  f.params.csw = 0.0;
  HostSpinorField x(f.g);
  const InvertResult r = invert(f.u, f.b, x, f.params);
  EXPECT_TRUE(r.stats.converged) << r.stats.summary();
  EXPECT_LT(f.reference_residual(x), 1e-8);
}

TEST(PublicApi, CgSolver) {
  ApiFixture f;
  f.params.solver = SolverType::CG;
  f.params.tol = 1e-8;
  f.params.max_iter = 4000;
  HostSpinorField x(f.g);
  const InvertResult r = invert(f.u, f.b, x, f.params);
  EXPECT_TRUE(r.stats.converged) << r.stats.summary();
}

TEST(PublicApi, ApplyMatrixIsConsistentWithInvert) {
  // M applied to the solve's solution must reproduce the source
  ApiFixture f;
  HostSpinorField x(f.g), mx(f.g);
  const InvertResult r = invert(f.u, f.b, x, f.params);
  ASSERT_TRUE(r.stats.converged);
  apply_matrix_multi_gpu(sim::ClusterSpec::jlab_9g(2), f.u, x, mx, f.params);
  double num = 0, den = 0;
  for (std::int64_t i = 0; i < f.g.volume(); ++i) {
    num += norm2(mx[i] - f.b[i]);
    den += norm2(f.b[i]);
  }
  EXPECT_LT(std::sqrt(num / den), 1e-7);
}

TEST(PublicApi, Recon8SolveMatchesRecon12) {
  // the solve with 8-real gauge storage must converge to the same residual
  // tolerance as the 12-real default -- reconstruction changes the storage
  // and the kernel arithmetic, not the operator being inverted
  ApiFixture f;
  HostSpinorField x12(f.g), x8(f.g);

  InvertParams p12 = f.params;
  p12.reconstruct = Reconstruct::Twelve;
  const InvertResult r12 = invert(f.u, f.b, x12, p12);

  InvertParams p8 = f.params;
  p8.reconstruct = Reconstruct::Eight;
  const InvertResult r8 = invert(f.u, f.b, x8, p8);

  ASSERT_TRUE(r12.stats.converged) << r12.stats.summary();
  ASSERT_TRUE(r8.stats.converged) << r8.stats.summary();
  EXPECT_LT(f.reference_residual(x12), 1e-8);
  EXPECT_LT(f.reference_residual(x8), 1e-8);
  // 8-real storage holds fewer reals per link, so the device gauge
  // allocation must shrink
  EXPECT_GT(r12.gauge_device_bytes, 0);
  EXPECT_LT(r8.gauge_device_bytes, r12.gauge_device_bytes);
}

TEST(PublicApi, Recon8MixedPrecisionSloppy) {
  // outer Twelve + sloppy Eight: the compressed level only carries the
  // sloppy iterations; reliable updates in the outer precision restore the
  // true residual
  ApiFixture f;
  f.params.precision = Precision::Single;
  f.params.sloppy = Precision::Half;
  f.params.tol = 1e-6;
  f.params.delta = 1e-1;
  f.params.reconstruct = Reconstruct::Twelve;
  f.params.reconstruct_sloppy = Reconstruct::Eight;
  HostSpinorField x(f.g);
  const InvertResult r = invert_multi_gpu(sim::ClusterSpec::jlab_9g(2), f.u, f.b, x, f.params);
  EXPECT_TRUE(r.stats.converged) << r.stats.summary();
  EXPECT_LT(f.reference_residual(x), 1e-4);
}

TEST(PublicApi, RejectsInvalidParams) {
  ApiFixture f;
  HostSpinorField x(f.g);
  InvertParams bad = f.params;
  bad.precision = Precision::Half;
  EXPECT_THROW(invert(f.u, f.b, x, bad), std::invalid_argument);

  bad = f.params;
  bad.precision = Precision::Single;
  bad.sloppy = Precision::Double;
  EXPECT_THROW(invert(f.u, f.b, x, bad), std::invalid_argument);

  // T not divisible by ranks
  EXPECT_THROW(invert_multi_gpu(sim::ClusterSpec::jlab_9g(3), f.u, f.b, x, f.params),
               std::invalid_argument);

  // the sloppy level may compress harder than the outer, never less
  bad = f.params;
  bad.precision = Precision::Single;
  bad.sloppy = Precision::Half;
  bad.reconstruct = Reconstruct::Eight;
  bad.reconstruct_sloppy = Reconstruct::Eighteen;
  EXPECT_THROW(invert(f.u, f.b, x, bad), std::invalid_argument);
}

TEST(PublicApi, MultiDimGridMatchesTimeSlicing) {
  // the same solve on a 2x2 (z, t) grid must give the 1-D answer
  ApiFixture f;
  HostSpinorField x_1d(f.g), x_2d(f.g);
  const InvertResult r1 = invert_multi_gpu(sim::ClusterSpec::jlab_9g(4), f.u, f.b, x_1d, f.params);
  InvertParams p2 = f.params;
  p2.grid = {1, 1, 2, 2};
  const InvertResult r2 = invert_multi_gpu(sim::ClusterSpec::jlab_9g(4), f.u, f.b, x_2d, p2);
  ASSERT_TRUE(r1.stats.converged);
  ASSERT_TRUE(r2.stats.converged);
  double num = 0, den = 0;
  for (std::int64_t i = 0; i < f.g.volume(); ++i) {
    num += norm2(x_1d[i] - x_2d[i]);
    den += norm2(x_1d[i]);
  }
  EXPECT_LT(std::sqrt(num / den), 1e-7);
}

TEST(PublicApi, RejectsMismatchedGrid) {
  ApiFixture f;
  HostSpinorField x(f.g);
  InvertParams p = f.params;
  p.grid = {1, 1, 2, 2}; // 4 ranks on a 2-rank cluster
  EXPECT_THROW(invert_multi_gpu(sim::ClusterSpec::jlab_9g(2), f.u, f.b, x, p),
               std::invalid_argument);
}

TEST(PublicApi, UnwritableCheckpointLogRaises) {
  // QUDA_SIM_CKPT naming a path inside a missing directory fails the solve
  // loudly, naming the path, instead of silently writing nothing
  ApiFixture f;
  HostSpinorField x(f.g);
  const std::string path = "no_such_dir/ckpt_unwritable.jsonl";
  ASSERT_EQ(::setenv("QUDA_SIM_CKPT", path.c_str(), 1), 0);
  try {
    (void)invert_multi_gpu(sim::ClusterSpec::jlab_9g(2), f.u, f.b, x, f.params);
    ::unsetenv("QUDA_SIM_CKPT");
    FAIL() << "an unwritable checkpoint log must raise";
  } catch (const std::runtime_error& e) {
    ::unsetenv("QUDA_SIM_CKPT");
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

TEST(PublicApi, DeviceMemoryGateThrows) {
  // a deliberately tiny card cannot hold even this small problem
  ApiFixture f;
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(1);
  spec.device.ram_gib = 0.17; // below even the driver reservation
  HostSpinorField x(f.g);
  EXPECT_THROW(invert_multi_gpu(spec, f.u, f.b, x, f.params), std::bad_alloc);
}

} // namespace
} // namespace quda
