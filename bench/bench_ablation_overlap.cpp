// Ablation for Section VI-D: when does overlapping communication with
// computation win?
//
// Sweeps the local time extent (i.e. the strong-scaling knob) at the two
// production spatial volumes and reports the per-application cost of the
// halo-exchanged matrix under both communication policies.  The crossover
// -- overlap winning for large interiors, losing to cheap synchronous
// copies when the local volume shrinks -- is the mechanism behind the
// difference between Fig. 5(a) and Fig. 5(b).

#include "comm/qmp.h"
#include "parallel/halo_dslash.h"
#include "sim/event_sim.h"

#include <cstdio>

using namespace quda;

namespace {

double dslash_time_us(const LatticeDims& local, Precision prec, CommPolicy policy, int ranks) {
  sim::VirtualCluster cluster(sim::ClusterSpec::jlab_9g(ranks));
  const Geometry lg(local);
  constexpr int reps = 20;
  cluster.run([&](sim::RankContext& ctx) {
    comm::QmpGrid grid(ctx, comm::GridTopology::time_only(ranks));
    parallel::HaloDslashConfig cfg;
    cfg.policy = policy;
    cfg.exec = Execution::Modeled;
    for (int r = 0; r < reps; ++r) {
      cfg.out_parity = r % 2 == 0 ? Parity::Even : Parity::Odd;
      switch (prec) {
        case Precision::Double:
          parallel::halo_dslash<PrecDouble>(grid, lg, cfg, {});
          break;
        case Precision::Single:
          parallel::halo_dslash<PrecSingle>(grid, lg, cfg, {});
          break;
        case Precision::Half:
          parallel::halo_dslash<PrecHalf>(grid, lg, cfg, {});
          break;
      }
    }
  });
  return cluster.makespan_us() / reps;
}

void sweep(int sx, Precision prec) {
  std::printf("\nspatial volume %d^3, %s precision (8 ranks):\n", sx, to_string(prec));
  std::printf("%-10s %16s %16s %10s\n", "local T", "no overlap (us)", "overlap (us)", "winner");
  for (int t_local : {2, 4, 8, 16, 32, 64}) {
    const LatticeDims local{sx, sx, sx, t_local};
    const double no = dslash_time_us(local, prec, CommPolicy::NoOverlap, 8);
    const double ov = dslash_time_us(local, prec, CommPolicy::Overlap, 8);
    std::printf("%-10d %16.0f %16.0f %10s\n", t_local, no, ov,
                ov < no ? "overlap" : "no overlap");
  }
}

} // namespace

int main() {
  std::printf("Overlap vs no-overlap halo dslash across local volume (Section VI-D)\n");
  sweep(24, Precision::Half);   // the sloppy precision of the mixed solver
  sweep(24, Precision::Single);
  sweep(32, Precision::Single);
  std::printf("\nexpected: overlap wins for large local T; synchronous copies win when\n");
  std::printf("the interior kernel is too small to hide the async-copy latencies\n");
  return 0;
}
