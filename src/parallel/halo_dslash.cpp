#include "parallel/halo_dslash.h"

#include <cstring>
#include <stdexcept>

namespace quda::parallel {

namespace {

template <typename P> using Face = FaceBuffer<P>;

// serialize a face buffer (payload + norms) for the wire; Modeled mode
// ships an empty payload -- the network model charges the modeled bytes
// either way
template <typename P>
std::vector<std::byte> serialize(const Face<P>& buf) {
  std::vector<std::byte> payload;
  const std::size_t data_bytes = buf.data.size() * sizeof(typename P::store_t);
  const std::size_t norm_bytes = buf.norm.size() * sizeof(float);
  payload.resize(data_bytes + norm_bytes);
  if (data_bytes > 0) std::memcpy(payload.data(), buf.data.data(), data_bytes);
  if (norm_bytes > 0) std::memcpy(payload.data() + data_bytes, buf.norm.data(), norm_bytes);
  return payload;
}

template <typename P>
void deserialize(const std::vector<std::byte>& payload, std::int64_t face_sites, Face<P>* buf) {
  if (buf == nullptr || payload.empty()) return;
  buf->resize(face_sites);
  const std::size_t data_bytes = buf->data.size() * sizeof(typename P::store_t);
  const std::size_t norm_bytes = buf->norm.size() * sizeof(float);
  if (payload.size() != data_bytes + norm_bytes)
    throw std::runtime_error("face payload size mismatch");
  std::memcpy(buf->data.data(), payload.data(), data_bytes);
  if (norm_bytes > 0) std::memcpy(buf->norm.data(), payload.data() + data_bytes, norm_bytes);
}

// the per-dimension exchange bookkeeping of one halo application
template <typename P> struct DimExchange {
  int mu = 0;
  std::int64_t face_bytes = 0;
  Face<P> send_back, send_fwd;   // outgoing projected faces
  Face<P> ghost_back, ghost_fwd; // received faces
  sim::RankContext::PendingRecv recv_fwd_ghost{};  // from the forward neighbor
  sim::RankContext::PendingRecv recv_back_ghost{}; // from the backward neighbor
};

} // namespace

std::int64_t interior_sites(const Geometry& local, const PartitionMask& mask) {
  std::int64_t count = 1;
  for (int mu = 0; mu < 4; ++mu) {
    const int len = local.dims()[mu];
    count *= mask[static_cast<std::size_t>(mu)] ? (len - 2) : len;
  }
  return count / 2;
}

template <typename P>
void halo_dslash(comm::QmpGrid& grid, const Geometry& local, const HaloDslashConfig& cfg,
                 HaloFields<P> f) {
  const Precision prec = P::value;
  const bool real = cfg.exec == Execution::Real;
  if (real && (f.out == nullptr || f.gauge == nullptr || f.in == nullptr))
    throw std::invalid_argument("Real execution requires fields");

  auto& ctx = grid.context();
  auto& dev = ctx.device();
  auto& tracer = ctx.tracer();
  double& clk = ctx.clock().now_us;
  const double op_begin_us = clk;

  const std::int64_t vh = local.half_volume();
  using real_t = typename P::real_t;

  DslashOptions opt;
  opt.out_parity = cfg.out_parity;
  const double bc = cfg.time_bc == TimeBoundary::Antiperiodic ? -1.0 : 1.0;
  opt.bc_backward = grid.owns_global_edge(3, -1) ? bc : 1.0;
  opt.bc_forward = grid.owns_global_edge(3, +1) ? bc : 1.0;

  // dimensions cut by the rank grid
  std::vector<DimExchange<P>> cuts;
  PartitionMask mask{};
  for (int mu = 0; mu < 4; ++mu) {
    if (!grid.partitioned(mu)) continue;
    const int len = local.dims()[mu];
    if (len < 2 || len % 2 != 0)
      throw std::invalid_argument("cut dimensions need even local extent >= 2");
    if (mu == 0 && local.dims().y % 2 != 0)
      throw std::invalid_argument("an x cut needs an even local y extent");
    mask[static_cast<std::size_t>(mu)] = true;
    opt.ghost[static_cast<std::size_t>(mu)] = true;
    DimExchange<P> d;
    d.mu = mu;
    d.face_bytes = perf::face_bytes(prec, local.face_sites(mu));
    cuts.push_back(std::move(d));
  }

  // ---- no cut dimensions: plain local kernel with periodic wrap -------------
  if (cuts.empty()) {
    auto cost = perf::dslash_kernel_cost(prec, vh, cfg.reconstruct);
    cost.kind = trace::Kind::DslashLocal;
    dev.launch_kernel(clk, kInteriorStream, cost, kKernelLaunch, prec == Precision::Double);
    if (real)
      dslash<P>(*f.out, *f.gauge, *f.in, local, opt, 0, vh, static_cast<real_t>(cfg.scale),
                cfg.accumulate);
    clk = dev.device_synchronize(clk);
    tracer.span(trace::Kind::HaloDslash, op_begin_us, clk);
    return;
  }

  const Parity in_parity = other(cfg.out_parity);
  const int d2h_copies = perf::face_copy_blocks(prec);
  const int h2d_copies = perf::ghost_upload_copies(prec);

  // gather the outgoing faces (host-side mirror of the device block copies):
  // the backward-traveling face is our first slice, P-mu projected (it
  // becomes the backward neighbor's Forward ghost); the forward-traveling
  // face is our last slice, P+mu projected
  if (real) {
    for (auto& d : cuts) {
      pack_face(*f.in, local, in_parity, d.mu, 0, -1, d.send_back);
      pack_face(*f.in, local, in_parity, d.mu, local.dims()[d.mu] - 1, +1, d.send_fwd);
      tracer.instant(trace::Kind::PackFace, clk, 2 * d.face_bytes, -1, d.mu);
    }
  }

  std::int64_t halo_bytes_total = 0;
  for (const auto& d : cuts) halo_bytes_total += 2 * d.face_bytes;

  // post all receives first (MPI_Irecv before the sends, as QUDA/QMP does)
  for (auto& d : cuts) {
    d.recv_fwd_ghost = grid.post_receive(d.mu, +1, face_tag(d.mu, -1));
    d.recv_back_ghost = grid.post_receive(d.mu, -1, face_tag(d.mu, +1));
  }

  if (cfg.policy == CommPolicy::NoOverlap) {
    // ---- Section VI-D1: all communication up front, then one kernel --------
    const double comm_begin_us = clk;
    for (auto& d : cuts) {
      for (int k = 0; k < d2h_copies; ++k)
        clk = dev.memcpy_sync(clk, d.face_bytes / d2h_copies, gpusim::CopyDir::DeviceToHost);
      grid.send_to(d.mu, -1, face_tag(d.mu, -1),
                   real ? serialize<P>(d.send_back) : std::vector<std::byte>{}, d.face_bytes);
      for (int k = 0; k < d2h_copies; ++k)
        clk = dev.memcpy_sync(clk, d.face_bytes / d2h_copies, gpusim::CopyDir::DeviceToHost);
      grid.send_to(d.mu, +1, face_tag(d.mu, +1),
                   real ? serialize<P>(d.send_fwd) : std::vector<std::byte>{}, d.face_bytes);
    }

    for (auto& d : cuts) {
      std::vector<std::byte> payload = grid.wait_receive(d.recv_back_ghost);
      for (int k = 0; k < h2d_copies; ++k)
        clk = dev.memcpy_sync(clk, d.face_bytes / h2d_copies, gpusim::CopyDir::HostToDevice);
      if (real) {
        deserialize<P>(payload, local.face_sites(d.mu), &d.ghost_back);
        unpack_ghost(*f.in, local, d.mu, GhostFace::Backward, d.ghost_back);
      }

      payload = grid.wait_receive(d.recv_fwd_ghost);
      for (int k = 0; k < h2d_copies; ++k)
        clk = dev.memcpy_sync(clk, d.face_bytes / h2d_copies, gpusim::CopyDir::HostToDevice);
      if (real) {
        deserialize<P>(payload, local.face_sites(d.mu), &d.ghost_fwd);
        unpack_ghost(*f.in, local, d.mu, GhostFace::Forward, d.ghost_fwd);
      }
    }
    tracer.span(trace::Kind::HaloComm, comm_begin_us, clk, halo_bytes_total);

    // one kernel over the entire local volume
    auto cost = perf::dslash_kernel_cost(prec, vh, cfg.reconstruct);
    cost.kind = trace::Kind::DslashLocal;
    clk = dev.launch_kernel(clk, kInteriorStream, cost, kKernelLaunch, prec == Precision::Double);
    if (real)
      dslash<P>(*f.out, *f.gauge, *f.in, local, opt, 0, vh, static_cast<real_t>(cfg.scale),
                cfg.accumulate);
    clk = dev.device_synchronize(clk);
    tracer.span(trace::Kind::HaloDslash, op_begin_us, clk);
    return;
  }

  // ---- Section VI-D2: overlap communication with the interior kernel --------

  const std::int64_t n_interior = interior_sites(local, mask);
  if (n_interior > 0) {
    auto cost = perf::dslash_kernel_cost(prec, n_interior, cfg.reconstruct);
    cost.kind = trace::Kind::DslashInterior;
    clk = dev.launch_kernel(clk, kInteriorStream, cost, kKernelLaunch, prec == Precision::Double);
    if (real)
      dslash<P>(*f.out, *f.gauge, *f.in, local, opt, 0, vh, static_cast<real_t>(cfg.scale),
                cfg.accumulate, KernelRegion::Interior);
  }
  const double comm_begin_us = clk;

  // per cut dimension: async face downloads (stream 1 carries the
  // backward-traveling face, stream 2 the forward one), each followed by its
  // MPI send as soon as its stream has drained -- the backward send overlaps
  // the forward download (the pipeline of Section VI-D2)
  for (auto& d : cuts) {
    for (int k = 0; k < d2h_copies; ++k)
      clk = dev.memcpy_async(clk, kBackwardFaceStream, d.face_bytes / d2h_copies,
                             gpusim::CopyDir::DeviceToHost);
    for (int k = 0; k < d2h_copies; ++k)
      clk = dev.memcpy_async(clk, kForwardFaceStream, d.face_bytes / d2h_copies,
                             gpusim::CopyDir::DeviceToHost);

    clk = dev.stream_synchronize(clk, kBackwardFaceStream);
    grid.send_to(d.mu, -1, face_tag(d.mu, -1),
                 real ? serialize<P>(d.send_back) : std::vector<std::byte>{}, d.face_bytes);
    clk = dev.stream_synchronize(clk, kForwardFaceStream);
    grid.send_to(d.mu, +1, face_tag(d.mu, +1),
                 real ? serialize<P>(d.send_fwd) : std::vector<std::byte>{}, d.face_bytes);
  }

  // receive and upload the ghosts; each face goes up on its stream
  for (auto& d : cuts) {
    std::vector<std::byte> payload = grid.wait_receive(d.recv_fwd_ghost);
    if (real) {
      deserialize<P>(payload, local.face_sites(d.mu), &d.ghost_fwd);
      unpack_ghost(*f.in, local, d.mu, GhostFace::Forward, d.ghost_fwd);
    }
    for (int k = 0; k < h2d_copies; ++k)
      clk = dev.memcpy_async(clk, kBackwardFaceStream, d.face_bytes / h2d_copies,
                             gpusim::CopyDir::HostToDevice);

    payload = grid.wait_receive(d.recv_back_ghost);
    if (real) {
      deserialize<P>(payload, local.face_sites(d.mu), &d.ghost_back);
      unpack_ghost(*f.in, local, d.mu, GhostFace::Backward, d.ghost_back);
    }
    for (int k = 0; k < h2d_copies; ++k)
      clk = dev.memcpy_async(clk, kForwardFaceStream, d.face_bytes / h2d_copies,
                             gpusim::CopyDir::HostToDevice);
  }
  tracer.span(trace::Kind::HaloComm, comm_begin_us, clk, halo_bytes_total);

  // boundary kernel: waits (in-stream) for the interior kernel and the
  // ghost uploads, then updates every site on a cut edge
  dev.stream_wait_stream(kInteriorStream, kBackwardFaceStream);
  dev.stream_wait_stream(kInteriorStream, kForwardFaceStream);
  auto boundary_cost = perf::dslash_kernel_cost(prec, vh - n_interior, cfg.reconstruct);
  boundary_cost.kind = trace::Kind::DslashBoundary;
  clk = dev.launch_kernel(clk, kInteriorStream, boundary_cost, kKernelLaunch,
                          prec == Precision::Double);
  if (real)
    dslash<P>(*f.out, *f.gauge, *f.in, local, opt, 0, vh, static_cast<real_t>(cfg.scale),
              cfg.accumulate, KernelRegion::Boundary);
  clk = dev.device_synchronize(clk);
  tracer.span(trace::Kind::HaloDslash, op_begin_us, clk);
}

template <typename P>
void exchange_gauge_ghost(comm::QmpGrid& grid, const Geometry& local, GaugeField<P>* gauge,
                          Execution exec, Reconstruct recon) {
  if (!grid.is_parallel()) return;
  const bool real = exec == Execution::Real;
  if (real && gauge == nullptr)
    throw std::invalid_argument("Real execution requires a gauge field");
  // the field itself is authoritative when present; `recon` parameterizes
  // the Modeled byte charge
  if (real) recon = gauge->reconstruct();
  const int wire = gauge_wire_reals(recon);

  auto& ctx = grid.context();
  auto& dev = ctx.device();
  double& clk = ctx.clock().now_us;
  const double op_begin_us = clk;

  for (int mu = 0; mu < 4; ++mu) {
    if (!grid.partitioned(mu)) continue;
    const std::int64_t fs = local.face_sites(mu);
    const std::int64_t bytes = fs * 2 * wire * bytes_per_real(P::value);

    GaugeFaceBuffer<P> out_buf;
    if (real) pack_gauge_face(*gauge, local, mu, local.dims()[mu] - 1, out_buf);

    auto pending = grid.post_receive(mu, -1, gauge_tag(mu));

    // download the face, ship it forward, upload the received ghost into the pad
    clk = dev.memcpy_sync(clk, bytes, gpusim::CopyDir::DeviceToHost);
    std::vector<std::byte> payload;
    if (real) {
      payload.resize(out_buf.data.size() * sizeof(typename P::store_t));
      std::memcpy(payload.data(), out_buf.data.data(), payload.size());
    }
    // route through the grid so the gauge exchange gets the same framing,
    // checksum verification, and bounded retry as the spinor halos
    grid.send_to(mu, +1, gauge_tag(mu), std::move(payload), bytes);

    const std::vector<std::byte> in_payload = grid.wait_receive(pending);
    clk = dev.memcpy_sync(clk, bytes, gpusim::CopyDir::HostToDevice);
    if (real) {
      GaugeFaceBuffer<P> in_buf;
      in_buf.resize(fs, wire);
      if (in_payload.size() != in_buf.data.size() * sizeof(typename P::store_t))
        throw std::runtime_error("gauge ghost payload size mismatch");
      std::memcpy(in_buf.data.data(), in_payload.data(), in_payload.size());
      unpack_gauge_ghost(*gauge, local, mu, in_buf);
    }
  }
  ctx.tracer().span(trace::Kind::GaugeExchange, op_begin_us, clk);
}

#define QUDA_INSTANTIATE_HALO(P)                                                                  \
  template void halo_dslash<P>(comm::QmpGrid&, const Geometry&, const HaloDslashConfig&,          \
                               HaloFields<P>);                                                    \
  template void exchange_gauge_ghost<P>(comm::QmpGrid&, const Geometry&, GaugeField<P>*,          \
                                        Execution, Reconstruct);

QUDA_INSTANTIATE_HALO(PrecDouble)
QUDA_INSTANTIATE_HALO(PrecSingle)
QUDA_INSTANTIATE_HALO(PrecHalf)

#undef QUDA_INSTANTIATE_HALO

} // namespace quda::parallel
