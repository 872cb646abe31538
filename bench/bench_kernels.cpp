// Google-benchmark microbenchmarks of the *real* (host-executed) kernels:
// the QUDA-order dslash in all precisions, the fused BLAS kernels and
// reductions, clover application, and the face gather.  These measure the reproduction's own
// host throughput (useful when hacking on the kernels); the simulated-GPU
// numbers in the figure benches come from the device model, not from here.
// BM_AnalyzeSolve times the post-run critical-path analysis of one recorded
// 32-GPU trace, the analysis layer's host cost on its own.
// BM_TriadDslashBytes is the single dslash's memory roofline, and
// BM_DslashHaloPattern the interior and boundary passes at one rank's
// volume of a two-rank 8^3 x 16 solve.

#include "blas/blas.h"
#include "dirac/clover_term.h"
#include "dirac/dslash.h"
#include "dirac/gauge_init.h"
#include "dirac/transfer.h"
#include "exec/host_engine.h"
#include "parallel/modeled_solver.h"
#include "sim/event_sim.h"
#include "trace/attribution.h"

#include <benchmark/benchmark.h>

#include <fstream>
#include <vector>

namespace quda {
namespace {

struct BenchFixtureData {
  Geometry g{LatticeDims{16, 16, 16, 16}};
  HostGaugeField u;
  HostSpinorField in;
  HostCloverField t;

  BenchFixtureData() : u(g), in(g) {
    make_weak_field_gauge(u, 0.2, 99);
    make_random_spinor(in, 100);
    t = make_clover_term(u, 1.0);
    add_diag(t, 4.1);
  }
};

const BenchFixtureData& data() {
  static const BenchFixtureData d;
  return d;
}

template <typename P> void BM_Dslash(benchmark::State& state) {
  const auto& d = data();
  const GaugeField<P> gauge = upload_gauge<P>(d.u, Reconstruct::Twelve);
  const SpinorField<P> in = upload_spinor<P>(d.in, Parity::Odd, kPartitionTimeOnly);
  SpinorField<P> out(d.g, kPartitionTimeOnly);
  DslashOptions opt;
  for (auto _ : state) {
    dslash<P>(out, gauge, in, d.g, opt, 0, d.g.half_volume(), 1, Accumulate::No);
    benchmark::DoNotOptimize(out.raw_data().data());
  }
  state.SetItemsProcessed(state.iterations() * d.g.half_volume());
}
BENCHMARK(BM_Dslash<PrecDouble>)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Dslash<PrecSingle>)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Dslash<PrecHalf>)->Unit(benchmark::kMillisecond);

template <typename P> void BM_DslashCompressed(benchmark::State& state) {
  // link reconstruction sweep: 8-, 12-, and 18-real gauge storage (the Arg
  // is the stored reals per link); host wall-clock trades reconstruction
  // ALU against gauge memory footprint here, while the device model moves
  // its bandwidth charge via perf::matrix_bytes_per_site(p, recon)
  const auto& d = data();
  const Reconstruct recon = state.range(0) == 8    ? Reconstruct::Eight
                            : state.range(0) == 12 ? Reconstruct::Twelve
                                                   : Reconstruct::Eighteen;
  const GaugeField<P> gauge = upload_gauge<P>(d.u, recon);
  const SpinorField<P> in = upload_spinor<P>(d.in, Parity::Odd, kPartitionTimeOnly);
  SpinorField<P> out(d.g, kPartitionTimeOnly);
  DslashOptions opt;
  for (auto _ : state) {
    dslash<P>(out, gauge, in, d.g, opt, 0, d.g.half_volume(), 1, Accumulate::No);
    benchmark::DoNotOptimize(out.raw_data().data());
  }
  state.counters["gauge_mb"] =
      static_cast<double>(gauge.device_bytes()) / (1024.0 * 1024.0);
}
BENCHMARK(BM_DslashCompressed<PrecSingle>)->Arg(8)->Arg(12)->Arg(18)->Unit(benchmark::kMillisecond);

template <typename PDst, typename PSrc> void BM_ConvertField(benchmark::State& state) {
  // the mixed-precision solver's per-reliable-update conversion: a per-site
  // load() in the source precision and store() in the destination's
  const auto& d = data();
  const SpinorField<PSrc> src = upload_spinor<PSrc>(d.in, Parity::Even, kPartitionTimeOnly);
  SpinorField<PDst> dst(d.g, kPartitionTimeOnly);
  for (auto _ : state) {
    convert_field(src, dst);
    benchmark::DoNotOptimize(dst.raw_data().data());
  }
  state.SetItemsProcessed(state.iterations() * d.g.half_volume());
}
BENCHMARK(BM_ConvertField<PrecHalf, PrecSingle>)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ConvertField<PrecSingle, PrecHalf>)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ConvertField<PrecSingle, PrecDouble>)->Unit(benchmark::kMicrosecond);

template <typename P> void BM_CloverApply(benchmark::State& state) {
  const auto& d = data();
  const CloverField<P> clover = upload_clover<P>(d.t);
  const SpinorField<P> in = upload_spinor<P>(d.in, Parity::Even, kPartitionTimeOnly);
  SpinorField<P> out(d.g, kPartitionTimeOnly);
  for (auto _ : state) {
    apply_clover_xpay<P>(out, clover, Parity::Even, in, d.g, 0, d.g.half_volume(), 0);
    benchmark::DoNotOptimize(out.raw_data().data());
  }
}
BENCHMARK(BM_CloverApply<PrecSingle>)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CloverApply<PrecHalf>)->Unit(benchmark::kMillisecond);

template <typename P> void BM_BlasAxpyNorm(benchmark::State& state) {
  const auto& d = data();
  const SpinorField<P> x = upload_spinor<P>(d.in, Parity::Even, kPartitionTimeOnly);
  SpinorField<P> y = upload_spinor<P>(d.in, Parity::Odd, kPartitionTimeOnly);
  double acc = 0;
  for (auto _ : state) {
    acc += blas::axpy_norm(0.001, x, y);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * d.g.half_volume());
}
BENCHMARK(BM_BlasAxpyNorm<PrecDouble>)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BlasAxpyNorm<PrecSingle>)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BlasAxpyNorm<PrecHalf>)->Unit(benchmark::kMillisecond);

// two element-wise kernels per precision: double and single run the BLAS
// walker's raw block spans, half its per-site decode/encode.  |beta| < 1
// and a small caxpy factor keep the repeated updates finite; the factors
// pass through DoNotOptimize so, as in a solver, they are run-time values
// rather than constants folded into the loops.
template <typename P> void BM_BlasPUpdate(benchmark::State& state) {
  const auto& d = data();
  SpinorField<P> p = upload_spinor<P>(d.in, Parity::Even, kPartitionTimeOnly);
  const SpinorField<P> r = upload_spinor<P>(d.in, Parity::Odd, kPartitionTimeOnly);
  const SpinorField<P> v = upload_spinor<P>(d.in, Parity::Even, kPartitionTimeOnly);
  complexd beta{0.51, -0.02}, omega{0.97, 0.01};
  benchmark::DoNotOptimize(beta);
  benchmark::DoNotOptimize(omega);
  for (auto _ : state) {
    blas::bicgstab_p_update(p, r, v, beta, omega);
    benchmark::DoNotOptimize(p.raw_data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * d.g.half_volume());
}
BENCHMARK(BM_BlasPUpdate<PrecDouble>)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BlasPUpdate<PrecSingle>)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BlasPUpdate<PrecHalf>)->Unit(benchmark::kMicrosecond);

template <typename P> void BM_BlasCaxpy(benchmark::State& state) {
  const auto& d = data();
  const SpinorField<P> x = upload_spinor<P>(d.in, Parity::Even, kPartitionTimeOnly);
  SpinorField<P> y = upload_spinor<P>(d.in, Parity::Odd, kPartitionTimeOnly);
  complexd a{1e-3, -1e-3};
  benchmark::DoNotOptimize(a);
  for (auto _ : state) {
    blas::caxpy(a, x, y);
    benchmark::DoNotOptimize(y.raw_data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * d.g.half_volume());
}
BENCHMARK(BM_BlasCaxpy<PrecDouble>)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BlasCaxpy<PrecSingle>)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BlasCaxpy<PrecHalf>)->Unit(benchmark::kMicrosecond);

// the reductions beside axpyNorm: cdot reads two fields; the fused BiCGstab
// r-update reads three, writes one and returns <r, r> and <r0, r>
template <typename P> void BM_BlasCdot(benchmark::State& state) {
  const auto& d = data();
  const SpinorField<P> x = upload_spinor<P>(d.in, Parity::Even, kPartitionTimeOnly);
  const SpinorField<P> y = upload_spinor<P>(d.in, Parity::Odd, kPartitionTimeOnly);
  complexd acc{};
  for (auto _ : state) acc += blas::cdot(x, y);
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * d.g.half_volume());
}
BENCHMARK(BM_BlasCdot<PrecSingle>)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BlasCdot<PrecHalf>)->Unit(benchmark::kMicrosecond);

template <typename P> void BM_BlasRUpdate(benchmark::State& state) {
  const auto& d = data();
  const SpinorField<P> s = upload_spinor<P>(d.in, Parity::Even, kPartitionTimeOnly);
  const SpinorField<P> t = upload_spinor<P>(d.in, Parity::Odd, kPartitionTimeOnly);
  SpinorField<P> r = SpinorField<P>::like(s);
  complexd omega{0.97, 0.01};
  benchmark::DoNotOptimize(omega);
  double r2 = 0;
  complexd rho;
  for (auto _ : state) {
    blas::bicgstab_r_update(r, s, t, omega, r2, rho, s);
    benchmark::DoNotOptimize(r2);
    benchmark::DoNotOptimize(rho);
  }
  state.SetItemsProcessed(state.iterations() * d.g.half_volume());
}
BENCHMARK(BM_BlasRUpdate<PrecSingle>)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BlasRUpdate<PrecHalf>)->Unit(benchmark::kMicrosecond);

template <typename P> void BM_FacePack(benchmark::State& state) {
  const auto& d = data();
  const SpinorField<P> in = upload_spinor<P>(d.in, Parity::Odd, kPartitionTimeOnly);
  FaceBuffer<P> buf;
  for (auto _ : state) {
    pack_face(in, d.g, Parity::Odd, 3, d.g.dims().t - 1, +1, buf);
    benchmark::DoNotOptimize(buf.data.data());
  }
  state.SetItemsProcessed(state.iterations() * d.g.half_spatial_volume());
}
BENCHMARK(BM_FacePack<PrecSingle>)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FacePack<PrecHalf>)->Unit(benchmark::kMicrosecond);

void BM_CloverConstruction(benchmark::State& state) {
  const auto& d = data();
  for (auto _ : state) {
    HostCloverField a = make_clover_term(d.u, 1.0);
    benchmark::DoNotOptimize(&a[0]);
  }
}
BENCHMARK(BM_CloverConstruction)->Unit(benchmark::kMillisecond);

// --- execution-engine thread sweeps ------------------------------------------
// The Arg is the worker budget for the run; 1 is the serial seed path.  These
// are the wall-clock speedup record for the host execution engine (the
// results land in BENCH_kernels.json with the rest).

template <typename P> void BM_DslashThreads(benchmark::State& state) {
  exec::set_thread_budget(static_cast<int>(state.range(0)));
  const auto& d = data();
  const GaugeField<P> gauge = upload_gauge<P>(d.u, Reconstruct::Twelve);
  const SpinorField<P> in = upload_spinor<P>(d.in, Parity::Odd, kPartitionTimeOnly);
  SpinorField<P> out(d.g, kPartitionTimeOnly);
  DslashOptions opt;
  for (auto _ : state) {
    dslash<P>(out, gauge, in, d.g, opt, 0, d.g.half_volume(), 1, Accumulate::No);
    benchmark::DoNotOptimize(out.raw_data().data());
  }
  state.SetItemsProcessed(state.iterations() * d.g.half_volume());
  exec::set_thread_budget(0);
}
BENCHMARK(BM_DslashThreads<PrecDouble>)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DslashThreads<PrecSingle>)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DslashThreads<PrecHalf>)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// the memory roofline of the single dslash: a triad a = b + s c (two
// streamed reads, one streamed write) over the bytes one dslash moves at
// 16^4, 1,248 B a site (8 neighbour spinors of 96 B, 8 recon-12 links of
// 48 B and the output spinor).  BM_DslashThreads<PrecSingle>/1 over this
// row is how far the single dslash is off its roofline at budget 1.
void BM_TriadDslashBytes(benchmark::State& state) {
  exec::set_thread_budget(static_cast<int>(state.range(0)));
  constexpr std::int64_t kBytesPerSite = 1248;
  const std::int64_t n = data().g.half_volume() * kBytesPerSite / (3 * sizeof(float));
  std::vector<float> a(static_cast<std::size_t>(n)), b(a.size(), 1.0f), c(a.size(), 2.0f);
  float s = 0.5f;
  benchmark::DoNotOptimize(s);
  for (auto _ : state) {
    exec::parallel_for(0, n, 24 * exec::kBlasGrain, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        const auto k = static_cast<std::size_t>(i);
        a[k] = b[k] + s * c[k];
      }
    });
    benchmark::DoNotOptimize(a.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * 3 * n * std::int64_t(sizeof(float)));
  exec::set_thread_budget(0);
}
BENCHMARK(BM_TriadDslashBytes)->Arg(1)->Unit(benchmark::kMillisecond);

// the strong-scaling halo pattern at one rank's volume of the solve_2gpu
// workload (8^3 x 16 over 2 ranks: 8^3 x 8 local, t cut): the interior
// pass, then the boundary pass reading the ghost zones, at a budget of 4.
// A parity is 2,048 sites here, so the site grain decides how many chunks
// each pass splits into and how many of them the boundary pass can fill.
struct HaloPatternData {
  Geometry g{LatticeDims{8, 8, 8, 8}};
  HostGaugeField u;
  HostSpinorField in;

  HaloPatternData() : u(g), in(g) {
    make_weak_field_gauge(u, 0.2, 199);
    make_random_spinor(in, 200);
  }
};

template <typename P> void BM_DslashHaloPattern(benchmark::State& state) {
  exec::set_thread_budget(static_cast<int>(state.range(0)));
  static const HaloPatternData d;
  constexpr PartitionMask mask{false, false, false, true};
  const int t = d.g.dims().t;
  GaugeField<P> gauge = upload_gauge<P>(d.u, Reconstruct::Twelve);
  GaugeFaceBuffer<P> links;
  pack_gauge_face(gauge, d.g, 3, t - 1, links);
  unpack_gauge_ghost(gauge, d.g, 3, links);
  // the neighbour ranks' faces, here this field's own (a periodic ring)
  SpinorField<P> in = upload_spinor<P>(d.in, Parity::Odd, mask);
  FaceBuffer<P> face;
  pack_face(in, d.g, Parity::Odd, 3, t - 1, +1, face);
  unpack_ghost(in, d.g, 3, GhostFace::Backward, face);
  pack_face(in, d.g, Parity::Odd, 3, 0, -1, face);
  unpack_ghost(in, d.g, 3, GhostFace::Forward, face);
  SpinorField<P> out(d.g, mask);
  DslashOptions opt;
  opt.ghost = mask;
  const std::int64_t vh = d.g.half_volume();
  for (auto _ : state) {
    dslash<P>(out, gauge, in, d.g, opt, 0, vh, 1, Accumulate::No, KernelRegion::Interior);
    dslash<P>(out, gauge, in, d.g, opt, 0, vh, 1, Accumulate::No, KernelRegion::Boundary);
    benchmark::DoNotOptimize(out.raw_data().data());
  }
  state.SetItemsProcessed(state.iterations() * vh);
  exec::set_thread_budget(0);
}
BENCHMARK(BM_DslashHaloPattern<PrecSingle>)->Arg(4)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DslashHaloPattern<PrecHalf>)->Arg(4)->Unit(benchmark::kMicrosecond);

// half against single at budget 1, where the default budget's run-to-run
// spread on a shared host does not hide the per-site codec cost
template <typename P> void BM_CloverApplyThreads(benchmark::State& state) {
  exec::set_thread_budget(static_cast<int>(state.range(0)));
  const auto& d = data();
  const CloverField<P> clover = upload_clover<P>(d.t);
  const SpinorField<P> in = upload_spinor<P>(d.in, Parity::Even, kPartitionTimeOnly);
  SpinorField<P> out(d.g, kPartitionTimeOnly);
  for (auto _ : state) {
    apply_clover_xpay<P>(out, clover, Parity::Even, in, d.g, 0, d.g.half_volume(), 0);
    benchmark::DoNotOptimize(out.raw_data().data());
  }
  state.SetItemsProcessed(state.iterations() * d.g.half_volume());
  exec::set_thread_budget(0);
}
BENCHMARK(BM_CloverApplyThreads<PrecSingle>)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CloverApplyThreads<PrecHalf>)->Arg(1)->Unit(benchmark::kMillisecond);

template <typename P> void BM_BlasAxpyNormThreads(benchmark::State& state) {
  exec::set_thread_budget(static_cast<int>(state.range(0)));
  const auto& d = data();
  const SpinorField<P> x = upload_spinor<P>(d.in, Parity::Even, kPartitionTimeOnly);
  SpinorField<P> y = upload_spinor<P>(d.in, Parity::Odd, kPartitionTimeOnly);
  double acc = 0;
  for (auto _ : state) {
    acc += blas::axpy_norm(0.001, x, y);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * d.g.half_volume());
  exec::set_thread_budget(0);
}
BENCHMARK(BM_BlasAxpyNormThreads<PrecDouble>)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BlasAxpyNormThreads<PrecSingle>)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

template <typename P> void BM_BlasPUpdateThreads(benchmark::State& state) {
  exec::set_thread_budget(static_cast<int>(state.range(0)));
  const auto& d = data();
  SpinorField<P> p = upload_spinor<P>(d.in, Parity::Even, kPartitionTimeOnly);
  const SpinorField<P> r = upload_spinor<P>(d.in, Parity::Odd, kPartitionTimeOnly);
  const SpinorField<P> v = upload_spinor<P>(d.in, Parity::Even, kPartitionTimeOnly);
  const complexd beta{1.01, -0.02}, omega{0.97, 0.01};
  for (auto _ : state) {
    blas::bicgstab_p_update(p, r, v, beta, omega);
    benchmark::DoNotOptimize(p.raw_data().data());
  }
  state.SetItemsProcessed(state.iterations() * d.g.half_volume());
  exec::set_thread_budget(0);
}
BENCHMARK(BM_BlasPUpdateThreads<PrecSingle>)->Arg(1)->Arg(8)->Unit(benchmark::kMicrosecond);

// the recorded trace of bench_fig5_strong's 32-GPU single/half overlap point
// (32^3 x 256 time-sliced over 32 ranks, 100 iterations), recorded once
struct RecordedRun {
  trace::TraceReport report;
  trace::ModelConfig config;

  RecordedRun() {
    sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(32);
    spec.trace.enabled = true;
    sim::VirtualCluster cluster(spec);
    parallel::ModeledSolverConfig cfg;
    cfg.local = LatticeDims{32, 32, 32, 256 / 32};
    cfg.outer = Precision::Single;
    cfg.sloppy = Precision::Half;
    cfg.policy = CommPolicy::Overlap;
    cfg.iterations = 100;
    parallel::run_modeled_solver(cluster, cfg);
    report = cluster.trace();
    config.dual_copy_engine = spec.device.dual_copy_engine;
  }
};

void BM_AnalyzeSolve(benchmark::State& state) {
  static const RecordedRun run;
  for (auto _ : state) {
    const trace::CritSummary s = trace::analyze_solve(run.report, run.config);
    benchmark::DoNotOptimize(s.path_us);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(run.report.total_events()));
}
BENCHMARK(BM_AnalyzeSolve)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace quda

// custom main: mirror the console run into BENCH_kernels.json so the host
// kernel throughput is tracked machine-readably across commits.  An explicit
// --benchmark_out on the command line overrides the default file.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_kernels.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
