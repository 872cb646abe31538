// Integration tests for the multi-GPU path: the halo-exchanged dslash and
// the parallel even-odd operator on N simulated ranks must reproduce the
// single-device / reference results exactly, for both communication
// policies, all precisions, and both boundary conditions.

#include "core/partition.h"
#include "dirac/gauge_init.h"
#include "dirac/transfer.h"
#include "dirac/wilson_ref.h"
#include "parallel/halo_dslash.h"
#include "parallel/parallel_op.h"
#include "sim/event_sim.h"
#include "solvers/bicgstab.h"
#include "solvers/mixed_precision.h"

#include <gtest/gtest.h>

namespace quda {
namespace {

using comm::GridTopology;
using parallel::HaloDslashConfig;
using parallel::HaloFields;
using sim::ClusterSpec;
using sim::RankContext;
using sim::VirtualCluster;

double rel_dist2(const HostSpinorField& a, const HostSpinorField& b) {
  double num = 0, den = 0;
  for (std::int64_t i = 0; i < a.geom().volume(); ++i) {
    num += norm2(a[i] - b[i]);
    den += norm2(b[i]);
  }
  return num / den;
}

// apply the raw hopping term on N ranks with the halo exchange and gather
// the global result
template <typename P>
HostSpinorField parallel_hopping(const HostGaugeField& gauge, const HostSpinorField& in,
                                 int n_ranks, CommPolicy policy, TimeBoundary bc) {
  const Geometry& gg = gauge.geom();
  VirtualCluster cluster(ClusterSpec::jlab_9g(n_ranks));
  std::vector<HostSpinorField> outs(static_cast<std::size_t>(n_ranks));

  const GridTopology topo = GridTopology::time_only(n_ranks);
  const PartitionMask mask = topo.partition_mask();
  cluster.run([&](RankContext& ctx) {
    comm::QmpGrid grid(ctx, topo);
    const int rank = ctx.rank();
    const Geometry lg = core::local_geometry(gg, topo);

    const HostGaugeField lu = core::slice_gauge(gauge, topo, rank);
    const HostSpinorField lin = core::slice_spinor(in, topo, rank);

    GaugeField<P> dev_u = upload_gauge<P>(lu, Reconstruct::Twelve);
    parallel::exchange_gauge_ghost<P>(grid, lg, &dev_u);

    SpinorField<P> in_e = upload_spinor<P>(lin, Parity::Even, mask);
    SpinorField<P> in_o = upload_spinor<P>(lin, Parity::Odd, mask);
    SpinorField<P> out_e(lg, mask), out_o(lg, mask);

    HaloDslashConfig cfg;
    cfg.policy = policy;
    cfg.time_bc = bc;
    cfg.scale = 1.0;

    cfg.out_parity = Parity::Even;
    parallel::halo_dslash<P>(grid, lg, cfg, {&out_e, &dev_u, &in_o});
    cfg.out_parity = Parity::Odd;
    parallel::halo_dslash<P>(grid, lg, cfg, {&out_o, &dev_u, &in_e});

    HostSpinorField lout(lg);
    download_spinor(out_e, Parity::Even, lout);
    download_spinor(out_o, Parity::Odd, lout);
    outs[static_cast<std::size_t>(rank)] = lout;
  });

  HostSpinorField global_out(gg);
  for (int r = 0; r < n_ranks; ++r)
    core::merge_spinor(global_out, outs[static_cast<std::size_t>(r)], topo, r);
  return global_out;
}

struct ParallelCase {
  int ranks;
  CommPolicy policy;
  TimeBoundary bc;
};

class ParallelDslash : public ::testing::TestWithParam<ParallelCase> {};

TEST_P(ParallelDslash, MatchesReferenceDouble) {
  const auto [ranks, policy, bc] = GetParam();
  const Geometry g({4, 4, 4, 8});
  HostGaugeField u(g);
  HostSpinorField in(g), ref(g);
  make_random_gauge(u, 2000);
  make_random_spinor(in, 2001);

  WilsonParams wp;
  wp.time_bc = bc;
  apply_hopping_ref(u, in, ref, wp);

  const HostSpinorField out = parallel_hopping<PrecDouble>(u, in, ranks, policy, bc);
  EXPECT_LT(rel_dist2(out, ref), 1e-24);
}

TEST_P(ParallelDslash, MatchesReferenceSingle) {
  const auto [ranks, policy, bc] = GetParam();
  const Geometry g({4, 4, 4, 8});
  HostGaugeField u(g);
  HostSpinorField in(g), ref(g);
  make_random_gauge(u, 3000);
  make_random_spinor(in, 3001);

  WilsonParams wp;
  wp.time_bc = bc;
  apply_hopping_ref(u, in, ref, wp);

  const HostSpinorField out = parallel_hopping<PrecSingle>(u, in, ranks, policy, bc);
  EXPECT_LT(rel_dist2(out, ref), 1e-11);
}

TEST_P(ParallelDslash, MatchesReferenceHalf) {
  const auto [ranks, policy, bc] = GetParam();
  const Geometry g({4, 4, 4, 8});
  HostGaugeField u(g);
  HostSpinorField in(g), ref(g);
  make_random_gauge(u, 4000);
  make_random_spinor(in, 4001);

  WilsonParams wp;
  wp.time_bc = bc;
  apply_hopping_ref(u, in, ref, wp);

  const HostSpinorField out = parallel_hopping<PrecHalf>(u, in, ranks, policy, bc);
  EXPECT_LT(rel_dist2(out, ref), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    RanksPoliciesBCs, ParallelDslash,
    ::testing::Values(ParallelCase{2, CommPolicy::NoOverlap, TimeBoundary::Periodic},
                      ParallelCase{2, CommPolicy::Overlap, TimeBoundary::Periodic},
                      ParallelCase{2, CommPolicy::Overlap, TimeBoundary::Antiperiodic},
                      ParallelCase{4, CommPolicy::NoOverlap, TimeBoundary::Antiperiodic},
                      ParallelCase{4, CommPolicy::Overlap, TimeBoundary::Periodic}),
    [](const auto& info) {
      return std::to_string(info.param.ranks) + "ranks_" +
             (info.param.policy == CommPolicy::Overlap ? "overlap" : "noOverlap") + "_" +
             (info.param.bc == TimeBoundary::Periodic ? "periodic" : "antiperiodic");
    });

TEST(ParallelDslashNumerics, OverlapAndNoOverlapAreBitIdentical) {
  // the two policies reorder communication, not arithmetic
  const Geometry g({4, 4, 4, 8});
  HostGaugeField u(g);
  HostSpinorField in(g);
  make_random_gauge(u, 5000);
  make_random_spinor(in, 5001);

  const HostSpinorField a =
      parallel_hopping<PrecDouble>(u, in, 4, CommPolicy::NoOverlap, TimeBoundary::Periodic);
  const HostSpinorField b =
      parallel_hopping<PrecDouble>(u, in, 4, CommPolicy::Overlap, TimeBoundary::Periodic);
  for (std::int64_t i = 0; i < g.volume(); ++i) EXPECT_EQ(norm2(a[i] - b[i]), 0.0);
}

TEST(GaugeGhostExchange, GhostEqualsNeighborLastSlice) {
  const Geometry g({4, 4, 4, 8});
  HostGaugeField u(g);
  make_random_gauge(u, 6000);
  const int n_ranks = 4;

  const GridTopology topo = GridTopology::time_only(n_ranks);

  VirtualCluster cluster(ClusterSpec::jlab_9g(n_ranks));
  cluster.run([&](RankContext& ctx) {
    comm::QmpGrid grid(ctx, topo);
    const Geometry lg = core::local_geometry(g, topo);
    const HostGaugeField lu = core::slice_gauge(u, topo, ctx.rank());
    GaugeField<PrecDouble> dev_u = upload_gauge<PrecDouble>(lu, Reconstruct::Twelve);
    parallel::exchange_gauge_ghost<PrecDouble>(grid, lg, &dev_u);

    // the ghost must equal the backward neighbor's t = T_local-1 temporal links
    const int back = (ctx.rank() + n_ranks - 1) % n_ranks;
    const HostGaugeField bu = core::slice_gauge(u, topo, back);
    for (int par = 0; par < 2; ++par) {
      const Parity parity = par == 0 ? Parity::Even : Parity::Odd;
      for (std::int64_t fs = 0; fs < lg.half_spatial_volume(); ++fs) {
        const Coords c = lg.face_site_coords(3, parity, lg.dims().t - 1, fs);
        const SU3<double> expect = bu.link(3, c);
        const SU3<double> got = dev_u.load_ghost(3, parity, fs);
        EXPECT_LT(frobenius_dist2(got, expect), 1e-20);
      }
    }
  });
}

// --- distributed solver -------------------------------------------------------

struct SolverSetup {
  Geometry g{LatticeDims{4, 4, 4, 8}};
  HostGaugeField u;
  HostCloverField t, tinv;
  HostSpinorField b;
  double mass = 0.1, csw = 1.0;

  SolverSetup() : u(g), b(g) {
    make_weak_field_gauge(u, 0.2, 7000);
    t = make_clover_term(u, csw);
    add_diag(t, 4.0 + mass);
    tinv = invert_clover(t);
    make_random_spinor(b, 7001);
  }
};

TEST(ParallelSolver, DistributedBiCGstabMatchesReferenceResidual) {
  SolverSetup s;
  const int n_ranks = 4;
  const GridTopology topo = GridTopology::time_only(n_ranks);
  VirtualCluster cluster(ClusterSpec::jlab_9g(n_ranks));
  std::vector<HostSpinorField> xs(static_cast<std::size_t>(n_ranks));
  std::vector<SolverStats> stats(static_cast<std::size_t>(n_ranks));

  cluster.run([&](RankContext& ctx) {
    comm::QmpGrid grid(ctx, topo);
    const int rank = ctx.rank();
    const Geometry lg = core::local_geometry(s.g, topo);
    const PartitionMask mask = topo.partition_mask();

    const HostGaugeField lu = core::slice_gauge(s.u, topo, rank);
    const HostCloverField lt = core::slice_clover(s.t, topo, rank);
    const HostCloverField ltinv = core::slice_clover(s.tinv, topo, rank);
    const HostSpinorField lb = core::slice_spinor(s.b, topo, rank);

    GaugeField<PrecDouble> dev_u = upload_gauge<PrecDouble>(lu, Reconstruct::Twelve);
    parallel::exchange_gauge_ghost<PrecDouble>(grid, lg, &dev_u);
    const CloverField<PrecDouble> dev_t = upload_clover<PrecDouble>(lt);
    const CloverField<PrecDouble> dev_tinv = upload_clover<PrecDouble>(ltinv);

    parallel::ParallelWilsonCloverOp<PrecDouble> op(
        grid, lg, dev_u, dev_t, dev_tinv, TimeBoundary::Antiperiodic, CommPolicy::Overlap);

    SpinorFieldD b_e = upload_spinor<PrecDouble>(lb, Parity::Even, mask);
    SpinorFieldD b_o = upload_spinor<PrecDouble>(lb, Parity::Odd, mask);
    SpinorFieldD bprime(lg, mask), x_e(lg, mask), x_o(lg, mask);
    op.prepare_source(bprime, b_e, b_o);

    SolverParams sp;
    sp.tol = 1e-11;
    sp.max_iter = 1000;
    stats[static_cast<std::size_t>(rank)] = solve_bicgstab(op, x_e, bprime, sp);
    op.reconstruct_odd(x_o, x_e, b_o);

    HostSpinorField lx(lg);
    download_spinor(x_e, Parity::Even, lx);
    download_spinor(x_o, Parity::Odd, lx);
    xs[static_cast<std::size_t>(rank)] = lx;
  });

  for (int r = 0; r < n_ranks; ++r) {
    EXPECT_TRUE(stats[static_cast<std::size_t>(r)].converged)
        << "rank " << r << ": " << stats[static_cast<std::size_t>(r)].summary();
    // identical global control flow: all ranks agree on the iteration count
    EXPECT_EQ(stats[static_cast<std::size_t>(r)].iterations, stats[0].iterations);
  }

  HostSpinorField x(s.g);
  for (int r = 0; r < n_ranks; ++r) core::merge_spinor(x, xs[static_cast<std::size_t>(r)], topo, r);

  // end-to-end: the merged solution satisfies the reference operator
  WilsonParams wp;
  wp.mass = s.mass;
  wp.time_bc = TimeBoundary::Antiperiodic;
  const DenseCloverField dense = make_dense_clover_term(s.u, s.csw);
  HostSpinorField mx(s.g);
  apply_wilson_clover_ref(s.u, dense, x, mx, wp);
  EXPECT_LT(std::sqrt(rel_dist2(mx, s.b)), 1e-9);
}

TEST(ParallelSolver, MixedPrecisionDistributedSolve) {
  SolverSetup s;
  const int n_ranks = 2;
  const GridTopology topo = GridTopology::time_only(n_ranks);
  VirtualCluster cluster(ClusterSpec::jlab_9g(n_ranks));
  std::vector<SolverStats> stats(static_cast<std::size_t>(n_ranks));

  cluster.run([&](RankContext& ctx) {
    comm::QmpGrid grid(ctx, topo);
    const int rank = ctx.rank();
    const Geometry lg = core::local_geometry(s.g, topo);
    const PartitionMask mask = topo.partition_mask();

    const HostGaugeField lu = core::slice_gauge(s.u, topo, rank);
    const HostCloverField lt = core::slice_clover(s.t, topo, rank);
    const HostCloverField ltinv = core::slice_clover(s.tinv, topo, rank);
    const HostSpinorField lb = core::slice_spinor(s.b, topo, rank);

    GaugeField<PrecSingle> u_s = upload_gauge<PrecSingle>(lu, Reconstruct::Twelve);
    GaugeField<PrecHalf> u_h = upload_gauge<PrecHalf>(lu, Reconstruct::Twelve);
    parallel::exchange_gauge_ghost<PrecSingle>(grid, lg, &u_s);
    parallel::exchange_gauge_ghost<PrecHalf>(grid, lg, &u_h);
    const CloverField<PrecSingle> t_s = upload_clover<PrecSingle>(lt);
    const CloverField<PrecSingle> tinv_s = upload_clover<PrecSingle>(ltinv);
    const CloverField<PrecHalf> t_h = upload_clover<PrecHalf>(lt);
    const CloverField<PrecHalf> tinv_h = upload_clover<PrecHalf>(ltinv);

    parallel::ParallelWilsonCloverOp<PrecSingle> op_hi(grid, lg, u_s, t_s, tinv_s,
                                                       TimeBoundary::Antiperiodic,
                                                       CommPolicy::Overlap);
    parallel::ParallelWilsonCloverOp<PrecHalf> op_lo(grid, lg, u_h, t_h, tinv_h,
                                                     TimeBoundary::Antiperiodic,
                                                     CommPolicy::Overlap);

    SpinorFieldS b_e = upload_spinor<PrecSingle>(lb, Parity::Even, mask);
    SpinorFieldS x(lg, mask);
    SolverParams sp;
    sp.tol = 1e-6;
    sp.delta = 1e-1;
    sp.max_iter = 2000;
    stats[static_cast<std::size_t>(rank)] = solve_bicgstab_reliable(op_hi, op_lo, x, b_e, sp);
  });

  for (int r = 0; r < n_ranks; ++r)
    EXPECT_TRUE(stats[static_cast<std::size_t>(r)].converged)
        << stats[static_cast<std::size_t>(r)].summary();
}

TEST(ParallelTiming, OverlapHidesTransfersForLargeLocalVolume) {
  // with a big interior, the overlapped policy's makespan must beat the
  // serialized one -- the left half of Fig. 5(a)'s story (timing-only calls)
  const LatticeDims local{32, 32, 32, 32};
  const Geometry lg(local);
  for (int ranks : {4}) {
    double makespans[2] = {0, 0};
    int idx = 0;
    for (CommPolicy policy : {CommPolicy::NoOverlap, CommPolicy::Overlap}) {
      VirtualCluster cluster(ClusterSpec::jlab_9g(ranks));
      cluster.run([&](RankContext& ctx) {
        comm::QmpGrid grid(ctx, GridTopology::time_only(ranks));
        HaloDslashConfig cfg;
        cfg.policy = policy;
        for (int rep = 0; rep < 10; ++rep) {
          cfg.out_parity = rep % 2 == 0 ? Parity::Even : Parity::Odd;
          parallel::halo_dslash<PrecSingle>(grid, lg, cfg, {});
        }
      });
      makespans[idx++] = cluster.makespan_us();
    }
    EXPECT_LT(makespans[1], makespans[0])
        << "overlap should win at local volume " << local.to_string();
  }
}

} // namespace
} // namespace quda
