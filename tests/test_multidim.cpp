// Integration tests for the multi-dimensional decomposition (the paper's
// Section VI-A "future work", implemented here): the halo-exchanged dslash
// and solver on 2-D, 3-D and 4-D rank grids must reproduce the reference
// results exactly, for both communication policies.

#include "core/partition.h"
#include "core/quda_api.h"
#include "dirac/gauge_init.h"
#include "dirac/transfer.h"
#include "dirac/wilson_ref.h"
#include "parallel/halo_dslash.h"
#include "parallel/modeled_solver.h"
#include "parallel/parallel_op.h"
#include "sim/event_sim.h"
#include "solvers/bicgstab.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace quda {
namespace {

using comm::GridTopology;
using parallel::HaloDslashConfig;
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

template <typename P>
HostSpinorField md_parallel_hopping(const HostGaugeField& gauge, const HostSpinorField& in,
                                    const GridTopology& topo, CommPolicy policy,
                                    TimeBoundary bc) {
  const Geometry& gg = gauge.geom();
  const int n_ranks = topo.num_ranks();
  VirtualCluster cluster(ClusterSpec::jlab_9g(n_ranks));
  std::vector<HostSpinorField> outs(static_cast<std::size_t>(n_ranks));

  cluster.run([&](RankContext& ctx) {
    comm::QmpGrid grid(ctx, topo);
    const int rank = ctx.rank();
    const Geometry lg = core::local_geometry(gg, topo);
    const PartitionMask mask = topo.partition_mask();

    const HostGaugeField lu = core::slice_gauge(gauge, topo, rank);
    const HostSpinorField lin = core::slice_spinor(in, topo, rank);

    GaugeField<P> dev_u = upload_gauge<P>(lu, Reconstruct::Twelve);
    parallel::exchange_gauge_ghost<P>(grid, lg, &dev_u, Execution::Real);

    SpinorField<P> in_e = upload_spinor<P>(lin, Parity::Even, mask);
    SpinorField<P> in_o = upload_spinor<P>(lin, Parity::Odd, mask);
    SpinorField<P> out_e(lg, mask), out_o(lg, mask);

    HaloDslashConfig cfg;
    cfg.policy = policy;
    cfg.exec = Execution::Real;
    cfg.time_bc = bc;

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

struct MdCase {
  GridTopology topo;
  CommPolicy policy;
  TimeBoundary bc;
  const char* name;
};

class MultiDimDslash : public ::testing::TestWithParam<MdCase> {};

TEST_P(MultiDimDslash, MatchesReferenceDouble) {
  const auto& c = GetParam();
  const Geometry g({4, 4, 4, 8});
  HostGaugeField u(g);
  HostSpinorField in(g), ref(g);
  make_random_gauge(u, 11000);
  make_random_spinor(in, 11001);

  WilsonParams wp;
  wp.time_bc = c.bc;
  apply_hopping_ref(u, in, ref, wp);

  const HostSpinorField out = md_parallel_hopping<PrecDouble>(u, in, c.topo, c.policy, c.bc);
  EXPECT_LT(rel_dist2(out, ref), 1e-24);
}

TEST_P(MultiDimDslash, MatchesReferenceHalf) {
  const auto& c = GetParam();
  const Geometry g({4, 4, 4, 8});
  HostGaugeField u(g);
  HostSpinorField in(g), ref(g);
  make_random_gauge(u, 12000);
  make_random_spinor(in, 12001);

  WilsonParams wp;
  wp.time_bc = c.bc;
  apply_hopping_ref(u, in, ref, wp);

  const HostSpinorField out = md_parallel_hopping<PrecHalf>(u, in, c.topo, c.policy, c.bc);
  EXPECT_LT(rel_dist2(out, ref), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, MultiDimDslash,
    ::testing::Values(
        MdCase{{{1, 1, 2, 2}}, CommPolicy::Overlap, TimeBoundary::Periodic, "zt_overlap"},
        MdCase{{{1, 1, 2, 2}}, CommPolicy::NoOverlap, TimeBoundary::Antiperiodic,
               "zt_noOverlap_apbc"},
        MdCase{{{2, 1, 1, 2}}, CommPolicy::Overlap, TimeBoundary::Antiperiodic,
               "xt_overlap_apbc"},
        MdCase{{{1, 2, 2, 2}}, CommPolicy::Overlap, TimeBoundary::Periodic, "yzt_overlap"},
        MdCase{{{2, 2, 2, 2}}, CommPolicy::NoOverlap, TimeBoundary::Periodic, "xyzt_noOverlap"},
        MdCase{{{2, 2, 2, 2}}, CommPolicy::Overlap, TimeBoundary::Antiperiodic,
               "xyzt_overlap_apbc"},
        MdCase{{{1, 1, 2, 1}}, CommPolicy::Overlap, TimeBoundary::Periodic, "pure_z_overlap"}),
    [](const auto& info) { return info.param.name; });

TEST(MultiDimDslash, OverlapAndNoOverlapBitIdentical) {
  const Geometry g({4, 4, 4, 8});
  HostGaugeField u(g);
  HostSpinorField in(g);
  make_random_gauge(u, 13000);
  make_random_spinor(in, 13001);
  const GridTopology topo{{2, 1, 2, 2}};

  const HostSpinorField a =
      md_parallel_hopping<PrecDouble>(u, in, topo, CommPolicy::NoOverlap, TimeBoundary::Periodic);
  const HostSpinorField b =
      md_parallel_hopping<PrecDouble>(u, in, topo, CommPolicy::Overlap, TimeBoundary::Periodic);
  for (std::int64_t i = 0; i < g.volume(); ++i) EXPECT_EQ(norm2(a[i] - b[i]), 0.0);
}

TEST(MultiDim, InteriorSiteCount) {
  const Geometry g({8, 8, 8, 8});
  EXPECT_EQ(parallel::interior_sites(g, {false, false, false, true}), 8 * 8 * 8 * 6 / 2);
  EXPECT_EQ(parallel::interior_sites(g, {false, false, true, true}), 8 * 8 * 6 * 6 / 2);
  EXPECT_EQ(parallel::interior_sites(g, {true, true, true, true}), 6 * 6 * 6 * 6 / 2);
  EXPECT_EQ(parallel::interior_sites(g, {false, false, false, false}), g.half_volume());
}

TEST(MultiDim, TopologyRoundTrip) {
  const GridTopology topo{{2, 3, 1, 4}};
  EXPECT_EQ(topo.num_ranks(), 24);
  for (int r = 0; r < topo.num_ranks(); ++r) EXPECT_EQ(topo.rank_of(topo.coords(r)), r);
  EXPECT_TRUE(topo.partitioned(0));
  EXPECT_FALSE(topo.partitioned(2));
}

TEST(MultiDim, FaceIndexBijectivePerDirection) {
  const Geometry g({4, 6, 4, 8});
  for (int mu = 0; mu < 4; ++mu) {
    for (int par = 0; par < 2; ++par) {
      const Parity parity = par == 0 ? Parity::Even : Parity::Odd;
      const int slice = g.dims()[mu] - 1;
      std::vector<bool> seen(static_cast<std::size_t>(g.face_sites(mu)), false);
      for (std::int64_t fs = 0; fs < g.face_sites(mu); ++fs) {
        const Coords c = g.face_site_coords(mu, parity, slice, fs);
        EXPECT_EQ(c[mu], slice);
        EXPECT_EQ(Geometry::site_parity(c), parity);
        EXPECT_EQ(g.face_index(mu, c), fs);
        EXPECT_FALSE(seen[static_cast<std::size_t>(fs)]);
        seen[static_cast<std::size_t>(fs)] = true;
      }
    }
  }
}

TEST(MultiDimSolver, TwoDimensionalSolveMatchesReference) {
  const Geometry g({4, 4, 4, 8});
  HostGaugeField u(g);
  HostSpinorField b(g);
  make_weak_field_gauge(u, 0.2, 14000);
  make_random_spinor(b, 14001);
  const double mass = 0.1, csw = 1.0;
  HostCloverField t = make_clover_term(u, csw);
  add_diag(t, 4.0 + mass);
  const HostCloverField tinv = invert_clover(t);

  const GridTopology topo{{1, 1, 2, 2}};
  const int n_ranks = topo.num_ranks();
  VirtualCluster cluster(ClusterSpec::jlab_9g(n_ranks));
  std::vector<HostSpinorField> xs(static_cast<std::size_t>(n_ranks));
  std::vector<SolverStats> stats(static_cast<std::size_t>(n_ranks));

  cluster.run([&](RankContext& ctx) {
    comm::QmpGrid grid(ctx, topo);
    const int rank = ctx.rank();
    const Geometry lg = core::local_geometry(g, topo);
    const PartitionMask mask = topo.partition_mask();

    const HostGaugeField lu = core::slice_gauge(u, topo, rank);
    const HostCloverField lt = core::slice_clover(t, topo, rank);
    const HostCloverField ltinv = core::slice_clover(tinv, topo, rank);
    const HostSpinorField lb = core::slice_spinor(b, topo, rank);

    GaugeField<PrecDouble> dev_u = upload_gauge<PrecDouble>(lu, Reconstruct::Twelve);
    parallel::exchange_gauge_ghost<PrecDouble>(grid, lg, &dev_u, Execution::Real);
    const CloverField<PrecDouble> dev_t = upload_clover<PrecDouble>(lt);
    const CloverField<PrecDouble> dev_tinv = upload_clover<PrecDouble>(ltinv);

    parallel::ParallelWilsonCloverOp<PrecDouble> op(
        grid, lg, dev_u, dev_t, dev_tinv, TimeBoundary::Antiperiodic, CommPolicy::Overlap);

    SpinorFieldD b_e = upload_spinor<PrecDouble>(lb, Parity::Even, mask);
    SpinorFieldD b_o = upload_spinor<PrecDouble>(lb, Parity::Odd, mask);
    SpinorFieldD bprime = op.make_vector(), x_e = op.make_vector(), x_o = op.make_vector();
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

  for (int r = 0; r < n_ranks; ++r)
    ASSERT_TRUE(stats[static_cast<std::size_t>(r)].converged)
        << stats[static_cast<std::size_t>(r)].summary();

  HostSpinorField x(g);
  for (int r = 0; r < n_ranks; ++r)
    core::merge_spinor(x, xs[static_cast<std::size_t>(r)], topo, r);

  WilsonParams wp;
  wp.mass = mass;
  wp.time_bc = TimeBoundary::Antiperiodic;
  const DenseCloverField dense = make_dense_clover_term(u, csw);
  HostSpinorField mx(g);
  apply_wilson_clover_ref(u, dense, x, mx, wp);
  EXPECT_LT(std::sqrt(rel_dist2(mx, b)), 1e-9);
}

// --- decomposition property tests (PR 8) --------------------------------------
// Random grid factorizations must partition the lattice exactly: every
// global site is owned by exactly one rank, slice-then-merge is the
// identity byte-for-byte, and the degenerate 1x1x1xN grid is literally the
// paper's 1-D time slicing.

// deterministic xorshift64 draw (no std::random_device: the sampled grids
// must be identical on every machine and every run)
std::uint64_t lcg_next(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

// sample a valid factorization with 4 <= ranks <= 64 for an {8,8,8,16}
// global lattice: x,y,z cuts from {1,2,4}, t cuts from {1,2,4,8}
GridTopology draw_topology(std::uint64_t& s) {
  const int xyz_choices[] = {1, 2, 4};
  const int t_choices[] = {1, 2, 4, 8};
  for (;;) {
    GridTopology topo{{xyz_choices[lcg_next(s) % 3], xyz_choices[lcg_next(s) % 3],
                       xyz_choices[lcg_next(s) % 3],
                       t_choices[lcg_next(s) % 4]}};
    if (topo.num_ranks() >= 4 && topo.num_ranks() <= 64) return topo;
  }
}

TEST(MultiDimProperty, RandomFactorizationSliceMergeRoundTrip) {
  const Geometry g({8, 8, 8, 16});
  HostSpinorField in(g);
  HostGaugeField u(g);
  make_random_spinor(in, 15001);
  make_random_gauge(u, 15000);

  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  for (int draw = 0; draw < 12; ++draw) {
    const GridTopology topo = draw_topology(seed);
    const int n = topo.num_ranks();
    const std::string label = std::to_string(topo.dims[0]) + "x" +
                              std::to_string(topo.dims[1]) + "x" +
                              std::to_string(topo.dims[2]) + "x" +
                              std::to_string(topo.dims[3]);

    // spinor: slice every rank, merge into a fresh field, compare bytes
    HostSpinorField merged(g);
    for (int r = 0; r < n; ++r)
      core::merge_spinor(merged, core::slice_spinor(in, topo, r), topo, r);
    for (std::int64_t i = 0; i < g.volume(); ++i)
      ASSERT_EQ(norm2(merged[i] - in[i]), 0.0) << label << " site " << i;

    // gauge: the blocks must cover every global site exactly once, and each
    // local link must equal the global link it claims to be
    std::vector<int> owners(static_cast<std::size_t>(g.volume()), 0);
    for (int r = 0; r < n; ++r) {
      const HostGaugeField lu = core::slice_gauge(u, topo, r);
      const Geometry& lg = lu.geom();
      for (std::int64_t i = 0; i < lg.volume(); ++i) {
        const Coords lc = lg.coords(i);
        const Coords gc = core::block_to_global(lc, topo, r, lg.dims());
        ++owners[static_cast<std::size_t>(g.linear_index(gc))];
        for (int mu = 0; mu < 4; ++mu)
          ASSERT_EQ(frobenius_dist2(lu.link(mu, lc), u.link(mu, gc)), 0.0)
              << label << " rank " << r << " site " << i << " mu " << mu;
      }
    }
    for (std::int64_t i = 0; i < g.volume(); ++i)
      ASSERT_EQ(owners[static_cast<std::size_t>(i)], 1)
          << label << ": every site is owned by exactly one rank";
  }
}

// The halo-exchanged dslash on randomly drawn grids agrees with the
// single-rank reference kernel at the last ulp per site (the wire's
// gamma-basis projection rounds once per cut direction, so exact bit
// equality with the undecomposed kernel is not attainable -- the per-site
// error bound below is ~1e-15 in amplitude, i.e. one double rounding), and
// for each drawn grid the Overlap and NoOverlap pipelines are bit-identical
// -- the property that actually pins the decomposition's arithmetic.
TEST(MultiDimProperty, RandomGridHaloDslashMatchesReference) {
  const Geometry g({4, 4, 4, 8});
  HostGaugeField u(g);
  HostSpinorField in(g), ref(g);
  make_random_gauge(u, 16000);
  make_random_spinor(in, 16001);

  WilsonParams wp;
  wp.time_bc = TimeBoundary::Antiperiodic;
  apply_hopping_ref(u, in, ref, wp);

  // the 4^3 x 8 volume admits cuts of 2 in x,y,z and {2,4} in t
  std::uint64_t seed = 0x2545f4914f6cdd1dull;
  const int draws = 4;
  for (int draw = 0; draw < draws; ++draw) {
    GridTopology topo{{1 + static_cast<int>(lcg_next(seed) % 2),
                       1 + static_cast<int>(lcg_next(seed) % 2),
                       1 + static_cast<int>(lcg_next(seed) % 2),
                       2 << (lcg_next(seed) % 2)}};
    if (topo.num_ranks() < 4) topo.dims[3] = 4;
    const std::string label = std::to_string(topo.dims[0]) + "x" +
                              std::to_string(topo.dims[1]) + "x" +
                              std::to_string(topo.dims[2]) + "x" +
                              std::to_string(topo.dims[3]);
    const HostSpinorField out =
        md_parallel_hopping<PrecDouble>(u, in, topo, CommPolicy::Overlap, wp.time_bc);
    for (std::int64_t i = 0; i < g.volume(); ++i)
      ASSERT_LT(norm2(out[i] - ref[i]), 1e-26) << label << " site " << i;

    const HostSpinorField out_no =
        md_parallel_hopping<PrecDouble>(u, in, topo, CommPolicy::NoOverlap, wp.time_bc);
    for (std::int64_t i = 0; i < g.volume(); ++i)
      ASSERT_EQ(norm2(out[i] - out_no[i]), 0.0)
          << label << " site " << i << ": policies must agree bitwise";
  }
}

TEST(MultiDim, ModeledSolverRejectsMismatchedTopology) {
  // the modeled solver resolves its grid by the rule invert_multi_gpu uses:
  // a grid that does not hold every rank raises instead of running a ring
  parallel::ModeledSolverConfig cfg;
  cfg.local = {4, 4, 4, 4};
  cfg.iterations = 1;
  cfg.topology = GridTopology{{1, 1, 2, 2}};
  VirtualCluster cluster(ClusterSpec::jlab_9g(8));
  EXPECT_THROW(parallel::run_modeled_solver(cluster, cfg), std::invalid_argument);

  cfg.topology = GridTopology{{1, 1, 2, 4}};
  VirtualCluster matching(ClusterSpec::jlab_9g(8));
  EXPECT_EQ(parallel::run_modeled_solver(matching, cfg).iterations, 1);
}

TEST(MultiDim, XCutNeedsEvenLocalY) {
  // the face perpendicular to x is checkerboarded along y, its fastest
  // remaining dimension, so an x cut needs an even local y even where y is
  // not cut; with an odd one the face sites landed on the wrong sites and
  // the operator came out wrong without an error
  for (int y : {3, 5})
    EXPECT_THROW(core::local_geometry(Geometry({8, y, 4, 4}), GridTopology{{2, 1, 1, 1}}),
                 std::invalid_argument)
        << "Y = " << y;

  const auto apply = [](int y, std::array<int, 4> grid, int ranks) {
    const Geometry g({8, y, 4, 4});
    HostGaugeField u(g);
    HostSpinorField x(g), mx(g);
    make_weak_field_gauge(u, 0.2, 77);
    make_random_spinor(x, 78);
    InvertParams params;
    params.mass = 0.1;
    params.csw = 1.0;
    params.precision = Precision::Double;
    params.grid = grid;
    apply_matrix_multi_gpu(ClusterSpec::jlab_9g(ranks), u, x, mx, params);
    return mx;
  };
  EXPECT_THROW(apply(3, {2, 1, 1, 1}, 2), std::invalid_argument);
  EXPECT_EQ(rel_dist2(apply(4, {2, 1, 1, 1}, 2), apply(4, {1, 1, 1, 1}, 1)), 0.0);
}

TEST(MultiDim, RejectsOddLocalExtent) {
  const Geometry g({4, 4, 4, 8});
  // z = 4 over 2 ranks is fine; y = 4 over 4 ranks gives local 1
  EXPECT_THROW(core::local_geometry(g, GridTopology{{1, 4, 1, 1}}), std::invalid_argument);
  // 6 over 2 gives local 3 (odd)
  const Geometry g2({4, 6, 4, 8});
  EXPECT_THROW(core::local_geometry(g2, GridTopology{{1, 2, 1, 1}}), std::invalid_argument);
}

} // namespace
} // namespace quda
