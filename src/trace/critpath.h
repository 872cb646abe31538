#pragma once
// Critical-path extraction over the recorded event DAG of one run.
//
// The tracer records, next to every event, the happens-before edge that
// gated it (Event::dep_*): mpi_wait carries the sender and send time,
// allreduce the rendezvous-gating rank, copies and kernels their host
// issue anchor, stream_wait the waitee's ready value.  From those records,
// dispatching on each event kind's Class (trace.h), build_model()
// reconstructs each rank's *program*: an ordered list of
// host steps (sends, receives, waits, collectives, copies, kernel issues,
// syncs), each carrying the classified local host gap that precedes it,
// plus the device-op timeline per stream/copy-engine, with every op's
// gating predecessor resolved by replaying the device-state max()
// computations on the exact recorded doubles -- so resolution is bitwise,
// not heuristic.
//
// Two consumers:
//  * critical_path() walks the DAG *backward* from the makespan-defining
//    rank's completion to time zero, hopping ranks at message and
//    rendezvous edges and descending device chains at blocking syncs.  The
//    walk uses only recorded times, so the returned segments tile
//    [0, makespan] exactly: path length == end-to-end simulated time.
//  * replay() re-executes the extracted program *forward* once, in four
//    lanes with edited edge weights -- unedited, zero-latency network, free
//    PCIe, infinite overlap -- projecting what the same schedule would have
//    cost on different hardware.  Max-plus monotonicity guarantees a
//    projection with reduced weights never exceeds the measured makespan.
//
// attribution.h maps the walk's segments onto the paper's cost categories
// and bundles the whole analysis into one CritSummary.

#include "trace/trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace quda::trace {

// analyzer-side description of the device the trace was recorded on
struct ModelConfig {
  bool dual_copy_engine = false; // GT200: one engine; Fermi: one per direction
};

// one device-side operation (kernel execution or PCIe transfer)
// reconstructed from a stream/host copy span
struct DeviceOp {
  Kind kind = Kind::Kernel; // the recorded event's kind (Class Kernel or a copy)
  int stream = -1;       // -1: sync copy (engine only)
  int engine = -1;       // copies only
  double issue_us = 0;   // host clock at issue (the recorded dep anchor)
  double gate_us = 0;    // max(issue, gating resource): start of launch gap
  double start_us = 0;   // execution begin
  double end_us = 0;     // execution end (exact recorded double)
  int pred_op = -1;      // device op whose end gated this one; -1 = host
  int issue_step = -1;   // index of the issuing Step in the rank program
};

// what a host step is; `ref` names the per-kind table entry it points at
enum class StepKind : std::uint8_t {
  Isend,      // message posted (anchor only; overhead lands in a gap); ref: send ordinal
  Irecv,      // receive posted (anchor; supplies the wait's post time); ref: post ordinal
  Wait,       // host blocks for a matched message; ref: WaitEdge
  Collective, // allreduce rendezvous; ref: generation k (CollEdge)
  SyncCopy,   // host-blocking PCIe transfer; ref: DeviceOp
  AsyncCopy,  // async transfer issue (DeviceOp runs on stream + engine); ref: DeviceOp
  Kernel,     // kernel issue (DeviceOp runs on the stream); ref: DeviceOp
  StreamSync, // host blocks on stream `tag`; ref: gating DeviceOp (-1 = none)
  DeviceSync, // host blocks on all streams + engines; ref: gating DeviceOp (-1 = none)
  StreamWait, // stream `peer` waits for stream `tag` (no host cost)
};

// container classifying a host gap (innermost enclosing span)
enum class GapKind : std::uint8_t {
  Solver,       // solver-serial host work (default)
  CommOverhead, // inside send_frame / recv_frame: framing, checksums, MPI calls
  DeviceIssue,  // inside halo_dslash / gauge_exchange: issue + launch overheads
  Recovery,     // inside checkpoint/rollback/restore/detect/respawn/resume spans
};

// One host step.  The local host time before it is implicit: the gap
// [end_us of the previous step (0 for the first), begin_us], classified by
// `gap`.  Edges too wide for 32 bytes live in the rank's side tables.
struct Step {
  double begin_us = 0; // arrival anchor (host clock reaching the step)
  double end_us = 0;   // post anchor (host clock after the step)
  StepKind kind = StepKind::Isend;
  GapKind gap = GapKind::Solver; // class of the host gap before the step
  bool dropped = false;          // Isend: fault tombstone, never delivered
  int peer = -1;                 // Isend / Irecv / Wait: channel peer rank
  int tag = -1;                  // Isend / Irecv / Wait: channel tag
  int ref = -1;                  // per-kind table index (see StepKind)
};
static_assert(sizeof(Step) == 32, "Step is the model's unit of memory traffic");

// a blocking receive's recorded message edge and the anchors it links
struct WaitEdge {
  double send_ts_us = 0; // matched send time (recorded edge)
  double path_us = 0;    // network flight time (recorded edge)
  double tail_us = 0;    // post-arrival local cost (MPI overhead)
  int irecv_step = -1;   // this rank's matching Irecv step (its begin: post time)
  int match_rank = -1;   // sender rank (recorded edge)
  int match_step = -1;   // sender's Isend step
  int match_send = -1;   // that Isend's send ordinal
};

// one rank's view of collective generation k
struct CollEdge {
  double gate_ts_us = 0; // rendezvous-gating rank's arrival time (recorded edge)
  double tree_us = 0;    // tree-reduction cost on top of the gate
  int gate_rank = -1;    // rendezvous-gating rank (recorded edge)
  int step = -1;         // this rank's Collective step
};

struct RankProgram {
  std::vector<Step> steps;
  std::vector<DeviceOp> ops;
  std::vector<WaitEdge> waits;
  std::vector<CollEdge> colls; // [k]: this rank's k-th collective
  int num_sends = 0;           // Isend ordinals handed out
  int num_posts = 0;           // Irecv ordinals handed out
  int num_streams = 0;
  GapKind tail_gap = GapKind::Solver; // class of [last step's end, end_us]
  double end_us = 0; // final host anchor == the rank's final simulated clock

  // start of the host gap before step i (i == steps.size(): the tail gap)
  double gap_begin_us(std::size_t i) const { return i > 0 ? steps[i - 1].end_us : 0.0; }
};

struct ProgramModel {
  std::vector<RankProgram> ranks;
  std::size_t num_collectives = 0;
  int num_engines = 1;
  std::string error; // non-empty: the trace could not be modeled
  bool ok() const { return error.empty(); }
};

ProgramModel build_model(const TraceReport& report, const ModelConfig& config = {});

// typed critical-path segment kinds (attribution.h maps them to categories)
enum class SegKind : std::uint8_t {
  HostGap,        // local host advance (GapKind says inside what)
  MsgFlight,      // network flight of the gating message
  CommTail,       // post-arrival local cost of a blocking wait
  CollectiveTree, // rendezvous wait + tree steps of an allreduce
  KernelExec,     // kernel execution (PathSegment::op = its kind)
  LaunchGap,      // kernel-launch overhead on the gating device chain
  CopyExec,       // PCIe bus occupancy (PathSegment::op = its kind)
  SyncStall,      // blocked sync whose device chain could not be resolved
};

struct PathSegment {
  int rank = -1;
  SegKind kind = SegKind::HostGap;
  GapKind gap = GapKind::Solver; // HostGap only
  Kind op = Kind::Kernel;        // KernelExec / CopyExec only
  double begin_us = 0;
  double end_us = 0;
  double length_us() const { return end_us - begin_us; }
};

struct CriticalPath {
  bool ok = false;
  std::string error;
  int critical_rank = -1;     // rank whose completion defines the makespan
  double makespan_us = 0;     // max over ranks of the final host anchor
  double path_us = 0;         // == makespan_us when the walk closed at t = 0
  double walk_end_us = 0;     // residual time at walk exhaustion (0 = exact)
  long cross_rank_jumps = 0;  // rank hops via message / rendezvous edges
  std::vector<PathSegment> segments; // in walk order (reverse chronological)
};

CriticalPath critical_path(const ProgramModel& model);

// makespans of the standard what-if projections (all weight reductions:
// monotone), replayed forward together
struct Projections {
  bool ok = false;
  std::string error;
  double identity_us = 0;     // unedited weights: reproduces the makespan
  double zero_latency_us = 0; // message flight and collective trees cost nothing
  double free_pcie_us = 0;    // PCIe transfers cost nothing
  // host never blocks on comm or device completion (waits cost only their
  // local tail; copies and syncs do not hold the host).  Collectives keep
  // their rendezvous semantics: a reduction is a data dependency, not comm
  // that overlap could hide.
  double infinite_overlap_us = 0;
};

// one forward pass, one lane per projection.  Bitwise the same as replaying
// each projection alone: blocking on a send or a rendezvous only delays a
// lane's update, never changes its value, and a collective's max does not
// depend on arrival order.
Projections replay(const ProgramModel& model);

// max over ranks of (max over streams of total kernel execution time): a
// lower bound on any replay that keeps kernel durations (stream ready
// values grow by at least each kernel's duration)
double compute_bound_us(const ProgramModel& model);

} // namespace quda::trace
