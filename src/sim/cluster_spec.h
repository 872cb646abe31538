#pragma once
// Description of the simulated GPU cluster: nodes, GPUs per node, device
// and bus models, and the network model.  The default configuration mirrors
// the InfiniBand partition of the Jefferson Lab "9g" cluster used for the
// paper's measurements (Section VII-A): 16 nodes x 2 GeForce GTX 285 on a
// single QDR InfiniBand switch, dual-socket Nehalem hosts.

#include "gpusim/device_spec.h"
#include "sim/fault_model.h"
#include "trace/telemetry.h"
#include "trace/trace.h"

#include <algorithm>
#include <stdexcept>

namespace quda::sim {

// classification of the wire a delivered message crossed
enum class LinkClass {
  Shm = 0,         // same node: shared-memory transport
  Ib = 1,          // different node, same leaf switch: one IB hop
  CrossSwitch = 2, // different leaf switches: up and over the fat tree
};

// Message-passing path model.  QDR InfiniBand provides less bandwidth than
// x16 PCI-E (Section III); same-node ranks communicate through host memory.
struct NetworkModel {
  double ib_latency_us = 5.0;   // MPI small-message latency over IB
  double ib_bw_gbs = 3.2;       // achievable QDR IB bandwidth
  double shm_latency_us = 1.2;  // same-node (shared-memory) MPI latency
  double shm_bw_gbs = 4.5;      // host memcpy-limited same-node bandwidth
  double mpi_overhead_us = 0.7; // per-call host CPU cost of posting isend/irecv
  // staging buffers cross the QPI link when the process is bound to the
  // wrong socket, degrading the achievable message bandwidth as well
  double numa_bw_penalty = 0.8;

  double transfer_time_us(std::int64_t bytes, bool same_node, bool good_numa = true) const {
    const double lat = same_node ? shm_latency_us : ib_latency_us;
    double bw = (same_node ? shm_bw_gbs : ib_bw_gbs) * 1e3; // bytes/us
    if (!good_numa) bw *= numa_bw_penalty;
    return lat + static_cast<double>(bytes) / bw;
  }
};

// Hierarchical interconnect on top of NetworkModel: nodes are grouped under
// leaf switches of a fat tree.  Messages between nodes on different leaves
// pay two extra switch hops of latency, and their bandwidth is divided by
// the leaf's static downlink/uplink oversubscription ratio -- contention is
// charged deterministically up front (every cross-switch byte pays the
// worst-case share) rather than sampled, preserving the simulator's
// bit-reproducibility.  hop_bw_penalty models the PCIe/NUMA staging domains
// crossed per extra hop.  The default (nodes_per_switch = 0) is the
// historical flat single-switch network, reproduced bit-for-bit.
struct InterconnectModel {
  int nodes_per_switch = 0;   // 0 = flat: every node on one switch
  int uplinks_per_switch = 1; // fat-tree uplinks per leaf switch
  double switch_hop_us = 0.6; // added latency per extra switch hop
  // bandwidth multiplier per extra hop (<= 1.0): staging buffers cross one
  // more PCIe/QPI domain on the way to the spine
  double hop_bw_penalty = 1.0;

  bool hierarchical() const { return nodes_per_switch > 0; }
  // downlinks (nodes) per uplink; >= 1 so a fully-provisioned leaf is free
  double oversubscription() const {
    if (!hierarchical() || uplinks_per_switch < 1) return 1.0;
    return std::max(1.0, static_cast<double>(nodes_per_switch) /
                             static_cast<double>(uplinks_per_switch));
  }
};

// Simulated stable storage (the checkpoint target): a node-local scratch
// disk / parallel-filesystem stripe.  Checkpoint writes are charged
// latency + size/bandwidth on top of the device->host PCIe staging cost.
struct StorageModel {
  double latency_us = 800.0; // per-operation setup (open, commit marker)
  double bw_gbs = 1.0;       // streaming write/read bandwidth

  double transfer_time_us(std::int64_t bytes) const {
    return latency_us + static_cast<double>(bytes) / (bw_gbs * 1e3);
  }
};

struct ClusterSpec {
  int nodes = 1;
  int gpus_per_node = 1;
  gpusim::DeviceSpec device = gpusim::geforce_gtx285();
  gpusim::BusModel bus{};
  NetworkModel net{};
  // false models binding each MPI process to the socket *opposite* its GPU
  // (the deliberately-bad NUMA series in Fig. 5(a))
  bool good_numa_binding = true;
  // 0 = one rank per GPU; a smaller value leaves trailing GPUs idle (e.g. 3
  // ranks on two dual-GPU nodes)
  int ranks = 0;
  // seeded fault environment (all rates default to zero = fault-free);
  // injection is deterministic in (seed, rank, event counter)
  FaultConfig faults{};
  // stable-storage model for coordinated checkpoint/restart
  StorageModel storage{};
  // structured tracing (src/trace); recording also turns on when the
  // QUDA_SIM_TRACE environment variable is set (its value = export path)
  trace::TraceOptions trace{};
  // solver flight recorder (src/trace/telemetry.h); recording also turns
  // on when QUDA_SIM_TELEMETRY is set (its value = JSONL export path)
  telemetry::TelemetryOptions telemetry{};
  // leaf-switch grouping of the nodes (default: flat single switch)
  InterconnectModel interconnect{};

  int num_ranks() const { return ranks > 0 ? ranks : nodes * gpus_per_node; }
  int num_nodes() const { return (num_ranks() + gpus_per_node - 1) / gpus_per_node; }
  int node_of(int rank) const { return rank / gpus_per_node; }
  bool same_node(int a, int b) const { return node_of(a) == node_of(b); }

  // --- hierarchical-interconnect topology --------------------------------------
  int num_switches() const {
    if (!interconnect.hierarchical()) return 1;
    return (num_nodes() + interconnect.nodes_per_switch - 1) / interconnect.nodes_per_switch;
  }
  int switch_of(int rank) const {
    return interconnect.hierarchical() ? node_of(rank) / interconnect.nodes_per_switch : 0;
  }
  LinkClass link_class(int a, int b) const {
    if (same_node(a, b)) return LinkClass::Shm;
    return switch_of(a) == switch_of(b) ? LinkClass::Ib : LinkClass::CrossSwitch;
  }

  // Wire time of one modeled message from src to dst.  Flat clusters (the
  // default) route through NetworkModel::transfer_time_us unchanged, so
  // every pre-hierarchy timing is reproduced bit-for-bit; cross-switch
  // paths add the fat-tree legs described on InterconnectModel.
  double path_time_us(int src, int dst, std::int64_t bytes) const {
    switch (link_class(src, dst)) {
      case LinkClass::Shm:
        return net.transfer_time_us(bytes, true, good_numa_binding);
      case LinkClass::Ib:
        return net.transfer_time_us(bytes, false, good_numa_binding);
      case LinkClass::CrossSwitch:
        break;
    }
    const double lat = net.ib_latency_us + 2.0 * interconnect.switch_hop_us;
    double bw = net.ib_bw_gbs * 1e3; // bytes/us
    if (!good_numa_binding) bw *= net.numa_bw_penalty;
    bw *= interconnect.hop_bw_penalty * interconnect.hop_bw_penalty; // two extra hops
    bw /= interconnect.oversubscription();
    return lat + static_cast<double>(bytes) / bw;
  }

  // the paper's test bed, sized to `ranks` GPUs (2 per node, QDR IB)
  static ClusterSpec jlab_9g(int ranks) {
    if (ranks < 1) throw std::invalid_argument("need at least one rank");
    ClusterSpec s;
    s.gpus_per_node = ranks >= 2 ? 2 : 1;
    s.nodes = (ranks + s.gpus_per_node - 1) / s.gpus_per_node;
    s.ranks = ranks;
    return s;
  }

  // A 9g-style cluster scaled past one switch: dual-GPU nodes grouped under
  // 2:1-oversubscribed leaf switches, the shape of the "Scaling Lattice QCD
  // beyond 100 GPUs" installations.  Big sims (256-1024 ranks) exceed any
  // thread budget, so their rank fibers share one worker (DESIGN.md §12).
  static ClusterSpec fat_tree(int ranks, int gpus_per_node = 2, int nodes_per_switch = 8,
                              int uplinks_per_switch = 4) {
    if (ranks < 1) throw std::invalid_argument("need at least one rank");
    ClusterSpec s;
    s.gpus_per_node = ranks >= gpus_per_node ? gpus_per_node : 1;
    s.nodes = (ranks + s.gpus_per_node - 1) / s.gpus_per_node;
    s.ranks = ranks;
    s.interconnect.nodes_per_switch = nodes_per_switch;
    s.interconnect.uplinks_per_switch = uplinks_per_switch;
    return s;
  }
};

} // namespace quda::sim
