#pragma once
// Host <-> device field transfers: reorder between the naive CPU ordering
// (equation (3)) and the blocked, padded QUDA device ordering (equations
// (4)-(5)), splitting/merging parities.  The even-odd reordering means the
// preconditioning has no efficiency cost: all components of a given parity
// are contiguous on the device (Section II).

#include "dirac/clover_term.h"
#include "exec/host_engine.h"
#include "lattice/clover_field.h"
#include "lattice/gauge_field.h"
#include "lattice/host_field.h"
#include "lattice/spinor_field.h"

namespace quda {

template <typename P>
SpinorField<P> upload_spinor(const HostSpinorField& host, Parity parity,
                             const PartitionMask& mask) {
  const Geometry& g = host.geom();
  SpinorField<P> dev(g, mask);
  exec::parallel_for(0, g.half_volume(), exec::kBlasGrain, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t cb = b; cb < e; ++cb) {
      const Coords c = g.cb_coords(parity, cb);
      dev.store(cb, convert<typename P::real_t>(host.at(c)));
    }
  });
  return dev;
}

template <typename P>
void download_spinor(const SpinorField<P>& dev, Parity parity, HostSpinorField& host) {
  const Geometry& g = host.geom();
  exec::parallel_for(0, g.half_volume(), exec::kBlasGrain, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t cb = b; cb < e; ++cb) {
      const Coords c = g.cb_coords(parity, cb);
      host.at(c) = convert<double>(dev.load(cb));
    }
  });
}

template <typename P>
GaugeField<P> upload_gauge(const HostGaugeField& host, Reconstruct recon) {
  const Geometry& g = host.geom();
  GaugeField<P> dev(g, recon);
  for (int par = 0; par < 2; ++par) {
    const Parity parity = par == 0 ? Parity::Even : Parity::Odd;
    exec::parallel_for(0, g.half_volume(), exec::kBlasGrain, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t cb = b; cb < e; ++cb) {
        const Coords c = g.cb_coords(parity, cb);
        for (int mu = 0; mu < 4; ++mu) dev.store(mu, parity, cb, host.link(mu, c));
      }
    });
  }
  return dev;
}

template <typename P> CloverField<P> upload_clover(const HostCloverField& host) {
  const Geometry& g = host.geom();
  CloverField<P> dev(g);
  for (int par = 0; par < 2; ++par) {
    const Parity parity = par == 0 ? Parity::Even : Parity::Odd;
    exec::parallel_for(0, g.half_volume(), exec::kBlasGrain, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t cb = b; cb < e; ++cb) {
        const Coords c = g.cb_coords(parity, cb);
        dev.store(parity, cb, host[g.linear_index(c)]);
      }
    });
  }
  return dev;
}

} // namespace quda
