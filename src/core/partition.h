#pragma once
// Domain decomposition utilities: slicing full-lattice host fields into
// per-rank local blocks of a 4-D process grid and merging per-rank results
// back.
//
// The paper's decomposition divides only the time dimension (Section VI-A):
// that is the grid GridTopology::time_only(ranks).  Any other grid is the
// multi-dimensional decomposition it lists as future work.  Every cut local
// extent must be even so local and global checkerboards coincide, and an x
// cut needs an even local y: the x face is checkerboarded along y.

#include "comm/qmp.h"
#include "lattice/host_field.h"

#include <stdexcept>

namespace quda::core {

inline Geometry local_geometry(const Geometry& global, const comm::GridTopology& topo) {
  LatticeDims d = global.dims();
  int* ext[4] = {&d.x, &d.y, &d.z, &d.t};
  for (int mu = 0; mu < 4; ++mu) {
    const int n = topo.dims[static_cast<std::size_t>(mu)];
    if (global.dims()[mu] % n != 0)
      throw std::invalid_argument("global extent must divide the grid dimension");
    *ext[mu] = global.dims()[mu] / n;
    if (n > 1 && (*ext[mu] < 2 || *ext[mu] % 2 != 0))
      throw std::invalid_argument("cut dimensions need even local extent >= 2");
  }
  if (topo.dims[0] > 1 && d.y % 2 != 0)
    throw std::invalid_argument("an x cut needs an even local y extent");
  return Geometry(d);
}

inline Coords block_to_global(const Coords& local, const comm::GridTopology& topo, int rank,
                              const LatticeDims& local_dims) {
  const auto rc = topo.coords(rank);
  Coords g;
  for (int mu = 0; mu < 4; ++mu)
    g[mu] = local[mu] + rc[static_cast<std::size_t>(mu)] * local_dims[mu];
  return g;
}

inline HostGaugeField slice_gauge(const HostGaugeField& global, const comm::GridTopology& topo,
                                  int rank) {
  const Geometry lg = local_geometry(global.geom(), topo);
  HostGaugeField local(lg);
  for (std::int64_t i = 0; i < lg.volume(); ++i) {
    const Coords lc = lg.coords(i);
    const Coords gc = block_to_global(lc, topo, rank, lg.dims());
    for (int mu = 0; mu < 4; ++mu) local.link(mu, lc) = global.link(mu, gc);
  }
  return local;
}

inline HostSpinorField slice_spinor(const HostSpinorField& global,
                                    const comm::GridTopology& topo, int rank) {
  const Geometry lg = local_geometry(global.geom(), topo);
  HostSpinorField local(lg);
  for (std::int64_t i = 0; i < lg.volume(); ++i)
    local[i] = global.at(block_to_global(lg.coords(i), topo, rank, lg.dims()));
  return local;
}

inline HostCloverField slice_clover(const HostCloverField& global,
                                    const comm::GridTopology& topo, int rank) {
  const Geometry lg = local_geometry(global.geom(), topo);
  HostCloverField local(lg);
  for (std::int64_t i = 0; i < lg.volume(); ++i)
    local[i] = global[global.geom().linear_index(
        block_to_global(lg.coords(i), topo, rank, lg.dims()))];
  return local;
}

inline void merge_spinor(HostSpinorField& global, const HostSpinorField& local,
                         const comm::GridTopology& topo, int rank) {
  const Geometry& lg = local.geom();
  for (std::int64_t i = 0; i < lg.volume(); ++i)
    global.at(block_to_global(lg.coords(i), topo, rank, lg.dims())) = local[i];
}

} // namespace quda::core
