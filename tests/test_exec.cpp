// Host execution engine tests: the determinism contract of
// exec/host_engine.h.  parallel_for must cover ranges exactly once at any
// worker budget; parallel_reduce must be bit-identical across budgets (its
// chunk tree is a function of the range and grain only); the Real-mode
// kernels wired through the engine (BLAS, dslash) must produce bit-identical
// fields and sums at QUDA_SIM_THREADS = 1, 2, and 8, and match a plain
// serial reference on a sub-grain lattice (the seed's historical loops).

#include "blas/blas.h"
#include "core/quda_api.h"
#include "dirac/dslash.h"
#include "dirac/gauge_init.h"
#include "dirac/transfer.h"
#include "exec/host_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace quda {
namespace {

// run fn under a fixed worker budget, restoring the default afterwards
template <typename Fn> void with_budget(int budget, Fn&& fn) {
  exec::set_thread_budget(budget);
  fn();
  exec::set_thread_budget(0);
}

TEST(HostEngine, ParallelForCoversRangeExactlyOnce) {
  for (int budget : {1, 2, 8}) {
    with_budget(budget, [&] {
      const std::int64_t n = 10'000;
      std::vector<std::atomic<int>> hits(n);
      exec::parallel_for(0, n, 64, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)].fetch_add(1);
      });
      for (std::int64_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "budget " << budget;
    });
  }
}

TEST(HostEngine, ParallelForHandlesEmptyAndPartialChunks) {
  with_budget(4, [&] {
    exec::parallel_for(5, 5, 16, [&](std::int64_t, std::int64_t) { FAIL(); });
    std::atomic<std::int64_t> total{0};
    exec::parallel_for(3, 103, 17, [&](std::int64_t b, std::int64_t e) {
      total.fetch_add(e - b);
    });
    EXPECT_EQ(total.load(), 100);
  });
}

TEST(HostEngine, ReduceBitIdenticalAcrossBudgets) {
  // values whose sum is order-sensitive in floating point
  const std::int64_t n = 100'000;
  std::vector<double> v(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    v[static_cast<std::size_t>(i)] = (i % 7 ? 1.0 : -1.0) / (1.0 + double(i) * 1e-3);

  auto sum_at = [&](int budget) {
    double r = 0;
    with_budget(budget, [&] {
      r = exec::parallel_reduce<double>(0, n, 1024, [&](std::int64_t b, std::int64_t e) {
        double s = 0;
        for (std::int64_t i = b; i < e; ++i) s += v[static_cast<std::size_t>(i)];
        return s;
      });
    });
    return r;
  };

  const double r1 = sum_at(1);
  EXPECT_EQ(r1, sum_at(2));
  EXPECT_EQ(r1, sum_at(8));
}

TEST(HostEngine, SingleChunkReduceIsThePlainSerialLoop) {
  // a range within one grain must degenerate to exactly the serial fold
  const std::int64_t n = 1000;
  std::vector<double> v(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = 1.0 / (1.0 + double(i));
  double serial = 0;
  for (double x : v) serial += x;

  with_budget(8, [&] {
    const double r = exec::parallel_reduce<double>(0, n, exec::kBlasGrain,
                                                   [&](std::int64_t b, std::int64_t e) {
                                                     double s = 0;
                                                     for (std::int64_t i = b; i < e; ++i)
                                                       s += v[static_cast<std::size_t>(i)];
                                                     return s;
                                                   });
    EXPECT_EQ(r, serial);
  });
}

TEST(HostEngine, NestedParallelForRunsInline) {
  with_budget(4, [&] {
    std::atomic<std::int64_t> total{0};
    exec::parallel_for(0, 64, 4, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i)
        exec::parallel_for(0, 10, 2, [&](std::int64_t ib, std::int64_t ie) {
          total.fetch_add(ie - ib);
        });
    });
    EXPECT_EQ(total.load(), 64 * 10);
  });
}

TEST(HostEngine, ChunkExceptionPropagatesToCaller) {
  with_budget(4, [&] {
    EXPECT_THROW(exec::parallel_for(0, 1000, 10,
                                    [&](std::int64_t b, std::int64_t) {
                                      if (b == 500) throw std::runtime_error("chunk failure");
                                    }),
                 std::runtime_error);
  });
}

// --- kernel bit-identity across thread budgets -------------------------------

struct ExecKernelData {
  Geometry g{LatticeDims{8, 8, 8, 16}}; // half volume 4096 = one BLAS grain
  HostGaugeField u;
  HostSpinorField a, b;

  ExecKernelData() : u(g), a(g), b(g) {
    make_weak_field_gauge(u, 0.2, 11);
    make_random_spinor(a, 12);
    make_random_spinor(b, 13);
  }
};

const ExecKernelData& kdata() {
  static const ExecKernelData d;
  return d;
}

template <typename P> void expect_blas_bit_identity() {
  const auto& d = kdata();
  const SpinorField<P> x = upload_spinor<P>(d.a, Parity::Even, kPartitionTimeOnly);
  const SpinorField<P> y0 = upload_spinor<P>(d.b, Parity::Even, kPartitionTimeOnly);

  struct Run {
    double n2, axn;
    complexd cd;
    std::vector<typename P::store_t> y;
  };
  auto run_at = [&](int budget) {
    Run r;
    with_budget(budget, [&] {
      SpinorField<P> y = SpinorField<P>::like(y0);
      blas::copy(y, y0);
      r.n2 = blas::norm2(x);
      r.cd = blas::cdot(x, y);
      r.axn = blas::axpy_norm(0.37, x, y);
      blas::bicgstab_p_update(y, x, y0, complexd{1.1, -0.2}, complexd{0.9, 0.05});
      r.y = y.raw_data();
    });
    return r;
  };

  const Run r1 = run_at(1);
  for (int budget : {2, 8}) {
    const Run rn = run_at(budget);
    EXPECT_EQ(r1.n2, rn.n2) << "budget " << budget;
    EXPECT_EQ(r1.cd, rn.cd) << "budget " << budget;
    EXPECT_EQ(r1.axn, rn.axn) << "budget " << budget;
    EXPECT_EQ(r1.y, rn.y) << "budget " << budget;
  }

  // sub-grain lattice: the engine's reductions must equal the plain serial
  // loop (the seed code path) exactly
  ASSERT_LE(x.sites(), exec::kBlasGrain);
  double serial_n2 = 0;
  for (std::int64_t i = 0; i < x.sites(); ++i) {
    const auto s = x.load(i);
    serial_n2 += static_cast<double>(quda::norm2(s));
  }
  EXPECT_EQ(r1.n2, serial_n2);
}

TEST(HostEngineKernels, BlasBitIdenticalAcrossBudgetsDouble) {
  expect_blas_bit_identity<PrecDouble>();
}
TEST(HostEngineKernels, BlasBitIdenticalAcrossBudgetsSingle) {
  expect_blas_bit_identity<PrecSingle>();
}
TEST(HostEngineKernels, BlasBitIdenticalAcrossBudgetsHalf) {
  expect_blas_bit_identity<PrecHalf>();
}

template <typename P>
void expect_dslash_bit_identity(Reconstruct recon = Reconstruct::Twelve) {
  const auto& d = kdata();
  const GaugeField<P> gauge = upload_gauge<P>(d.u, recon);
  const SpinorField<P> in = upload_spinor<P>(d.a, Parity::Odd, kPartitionTimeOnly);

  auto run_at = [&](int budget) {
    std::vector<typename P::store_t> out_raw;
    with_budget(budget, [&] {
      SpinorField<P> out(d.g, kPartitionTimeOnly);
      DslashOptions opt;
      dslash<P>(out, gauge, in, d.g, opt, 0, d.g.half_volume(), 1, Accumulate::No);
      out_raw = out.raw_data();
    });
    return out_raw;
  };

  const auto r1 = run_at(1);
  EXPECT_EQ(r1, run_at(2));
  EXPECT_EQ(r1, run_at(8));
}

TEST(HostEngineKernels, DslashBitIdenticalAcrossBudgetsDouble) {
  expect_dslash_bit_identity<PrecDouble>();
}
TEST(HostEngineKernels, DslashBitIdenticalAcrossBudgetsSingle) {
  expect_dslash_bit_identity<PrecSingle>();
}
TEST(HostEngineKernels, DslashBitIdenticalAcrossBudgetsHalf) {
  expect_dslash_bit_identity<PrecHalf>();
}

// the 8-real reconstruction runs extra per-link math (atan2, sqrt, Cramer's
// rule) inside the site loop; it must stay on the same grain schedule
TEST(HostEngineKernels, DslashBitIdenticalAcrossBudgetsRecon8Single) {
  expect_dslash_bit_identity<PrecSingle>(Reconstruct::Eight);
}
TEST(HostEngineKernels, DslashBitIdenticalAcrossBudgetsRecon8Half) {
  expect_dslash_bit_identity<PrecHalf>(Reconstruct::Eight);
}

// fused kernels vs their unfused elementary composition
TEST(HostEngineKernels, FusedBlasMatchesUnfusedComposition) {
  const auto& d = kdata();
  const SpinorFieldD x = upload_spinor<PrecDouble>(d.a, Parity::Even, kPartitionTimeOnly);
  const SpinorFieldD y0 = upload_spinor<PrecDouble>(d.b, Parity::Even, kPartitionTimeOnly);

  // axpy_norm == axpy then norm2 (exact: same per-site arithmetic, and the
  // double store/load round-trip is lossless)
  SpinorFieldD y_fused = SpinorFieldD::like(y0);
  blas::copy(y_fused, y0);
  const double fused = blas::axpy_norm(0.37, x, y_fused);

  SpinorFieldD y_unfused = SpinorFieldD::like(y0);
  blas::copy(y_unfused, y0);
  blas::axpy(0.37, x, y_unfused);
  const double unfused = blas::norm2(y_unfused);

  EXPECT_EQ(y_fused.raw_data(), y_unfused.raw_data());
  EXPECT_EQ(fused, unfused);

  // bicgstab_p_update == caxpy composition (different accumulation order,
  // so compare to rounding accuracy)
  const complexd beta{1.1, -0.2}, omega{0.9, 0.05};
  SpinorFieldD p_fused = SpinorFieldD::like(y0);
  blas::copy(p_fused, y0);
  blas::bicgstab_p_update(p_fused, x, x, beta, omega);

  SpinorFieldD q = SpinorFieldD::like(y0); // q = p - omega * v
  blas::copy(q, y0);
  blas::caxpy(complexd{-omega.re, -omega.im}, x, q);
  SpinorFieldD p_unfused = SpinorFieldD::like(y0); // p = r + beta * q
  blas::copy(p_unfused, x);
  blas::caxpy(beta, q, p_unfused);

  SpinorFieldD diff = SpinorFieldD::like(y0);
  blas::copy(diff, p_fused);
  const double err = blas::xmy_norm(p_unfused, diff); // diff = p_unfused - p_fused
  const double ref = blas::norm2(p_fused);
  EXPECT_LE(err, 1e-24 * ref);
}

// --- tracing under the engine: thread safety + simulated-time bit-identity ---

// A full Real-mode multi-GPU solve with event recording on must be
// bit-identical -- in simulated time, iteration count, and the solution
// field -- to the same solve with recording off, at every worker budget.
// This pins two contracts at once: the tracer is purely observational
// (emission never advances a clock), and it is safe under QUDA_SIM_THREADS
// worker parallelism (events are written only from rank fibers; worker
// chunks never emit).
TEST(HostEngineTrace, TracedSolveBitIdenticalAcrossBudgetsAndTraceState) {
  Geometry g{LatticeDims{4, 4, 4, 8}};
  HostGaugeField u(g);
  HostSpinorField b(g);
  make_weak_field_gauge(u, 0.2, 77);
  make_random_spinor(b, 78);

  InvertParams p;
  p.mass = 0.1;
  p.csw = 1.0;
  p.precision = Precision::Single;
  p.sloppy = Precision::Half;
  p.tol = 1e-6;
  p.max_iter = 500;

  struct Run {
    InvertResult r;
    std::vector<double> x; // solution, flattened for exact comparison
  };
  auto run_at = [&](int budget, bool traced) {
    Run out;
    sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(2);
    spec.trace.enabled = traced;
    HostSpinorField x(g);
    with_budget(budget, [&] { out.r = invert_multi_gpu(spec, u, b, x, p); });
    for (std::int64_t i = 0; i < g.volume(); ++i)
      for (std::size_t s = 0; s < 4; ++s)
        for (std::size_t c = 0; c < 3; ++c) {
          out.x.push_back(x[i].at(s, c).re);
          out.x.push_back(x[i].at(s, c).im);
        }
    return out;
  };

  const Run ref = run_at(1, false);
  ASSERT_TRUE(ref.r.stats.converged) << ref.r.stats.summary();
  EXPECT_FALSE(ref.r.traced);

  const trace::Metrics* traced_ref = nullptr;
  std::vector<Run> traced_runs;
  for (const int budget : {1, 2, 8}) {
    for (const bool traced : {false, true}) {
      const Run run = run_at(budget, traced);
      EXPECT_EQ(run.r.simulated_time_us, ref.r.simulated_time_us)
          << "budget " << budget << " traced " << traced;
      EXPECT_EQ(run.r.stats.iterations, ref.r.stats.iterations)
          << "budget " << budget << " traced " << traced;
      EXPECT_EQ(run.x, ref.x) << "budget " << budget << " traced " << traced;
      EXPECT_EQ(run.r.traced, traced);
      if (traced) {
        EXPECT_GT(run.r.trace_metrics.events, 0);
        if (traced_ref == nullptr) {
          traced_runs.push_back(run);
          traced_ref = &traced_runs.back().r.trace_metrics;
        } else {
          // the recorded stream itself is budget-independent
          EXPECT_EQ(run.r.trace_metrics.events, traced_ref->events) << "budget " << budget;
          EXPECT_EQ(run.r.trace_metrics.messages, traced_ref->messages) << "budget " << budget;
          EXPECT_EQ(run.r.trace_metrics.halo_bytes, traced_ref->halo_bytes) << "budget " << budget;
          EXPECT_EQ(run.r.trace_metrics.comm_us, traced_ref->comm_us) << "budget " << budget;
          EXPECT_EQ(run.r.trace_metrics.overlapped_us, traced_ref->overlapped_us)
              << "budget " << budget;
          EXPECT_EQ(run.r.trace_metrics.kernel_us, traced_ref->kernel_us) << "budget " << budget;
        }
      }
    }
  }
}

} // namespace
} // namespace quda
