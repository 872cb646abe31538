#pragma once
// One GPU as the library runs it: a one-rank cluster whose grid cuts no
// dimension (GridTopology::time_only(1), the path invert() takes).  Tests
// build the production Schur operator on that grid inside the cluster's
// run(), so they exercise the operator every solve uses.

#include "parallel/parallel_op.h"
#include "sim/event_sim.h"

namespace quda {

// run body(grid) as the one rank of a one-GPU cluster
template <typename Body> void on_one_gpu(Body&& body) {
  sim::VirtualCluster cluster(sim::ClusterSpec::jlab_9g(1));
  cluster.run([&](sim::RankContext& ctx) {
    comm::QmpGrid grid(ctx, comm::GridTopology::time_only(1));
    body(grid);
  });
}

// the Schur operator over one device's fields on that grid
template <typename P>
parallel::ParallelWilsonCloverOp<P> one_gpu_op(comm::QmpGrid& grid, const Geometry& g,
                                               const GaugeField<P>& gauge,
                                               const CloverField<P>& clover,
                                               const CloverField<P>& clover_inv,
                                               TimeBoundary time_bc) {
  return {grid, g, gauge, clover, clover_inv, time_bc, CommPolicy::Overlap};
}

} // namespace quda
