#pragma once
// Structured per-rank tracing of the simulated cluster.
//
// Every simulated rank records typed events -- kernel launches per stream,
// sync/async copies, isend/irecv/wait with sequence numbers and modeled
// byte counts, retries, allreduce rendezvous, solver iterations and
// reliable updates -- against *simulated* time.  Recording is purely
// observational: an emit call never reads or advances a SimClock, so a
// traced run is bit-identical in simulated time to an untraced one (the
// invariant tests/test_exec.cpp pins).
//
// The vocabulary is the Kind table below and nothing else: one row per
// event kind fixes its exported name, category, span/instant shape, track
// and the Class the analyses dispatch on.  Emitters pass a Kind; no
// consumer ever looks at a name.
//
// Ownership and threading: each RankContext owns one RankTracer, written
// only from that rank's fiber, so no synchronization is needed on the hot
// path.  Layers that cannot see the RankContext (the device model, the
// solvers) emit through the thread-local current() pointer, which the rank
// scheduler binds on every resume of the rank's fiber -- and only when
// tracing is enabled, so the disabled cost is one null check.
//
// Four consumers read the recorded events after a run:
//  * trace_export.h turns them into a Chrome/Perfetto trace_event JSON
//    file (one process per rank, one track per stream plus host/comm/solver
//    tracks), enabled by QUDA_SIM_TRACE=<path>;
//  * metrics.h aggregates them into Metrics (halo bytes, retries, overlap
//    efficiency, per-kernel histograms) that the benches merge into their
//    BENCH_<name>.json;
//  * telemetry.h derives per-rank utilization timelines, link-bandwidth
//    gauges and the overlap-collapse monitor from them;
//  * critpath.h rebuilds each rank's program from them and walks the
//    critical path.
// Metrics and telemetry read the events through one per-rank classifier,
// metrics.h classify().

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace quda::trace {

// event category, mirroring the subsystem that emitted it
enum class Cat : std::uint8_t {
  Kernel,     // device kernel execution on a stream
  Copy,       // PCI-E transfer (sync or async)
  Sync,       // host blocking on device work
  Comm,       // point-to-point messaging (transport + reliable layer)
  Collective, // allreduce / barrier rendezvous
  Solver,     // Krylov iterations, reliable updates, rollbacks
  Fault,      // injected faults and recovery actions
  Op,         // composite host-side operations (halo_dslash, setup, solve)
};

const char* cat_name(Cat cat);

// Track ids within one rank's timeline.  Non-negative tracks are device
// streams; the named negative tracks carry host-side activity.
inline constexpr int kTrackHost = -1;   // host thread: MPI calls, sync copies
inline constexpr int kTrackComm = -2;   // in-flight messages, halo comm windows
inline constexpr int kTrackSolver = -3; // solver-level phases
// table marker, never recorded: the kind runs on the device stream its
// emitter names
inline constexpr int kTrackStream = 0x7fff;

// what the analyses make of an event kind (metrics.h classify() for
// metrics, timelines and the overlap monitor; critpath.h for the program
// model)
enum class Class : std::uint8_t {
  None,          // observational only
  Kernel,        // kernel execution on a device stream
  SyncCopy,      // host-blocking PCIe transfer
  AsyncCopy,     // PCIe transfer queued on a stream
  StreamWait,    // a stream waits for another stream's work (cross-stream edge)
  StreamSync,    // host blocks on one stream (stream = tag)
  DeviceSync,    // host blocks on every stream and copy engine
  Isend,         // message posted
  Irecv,         // receive posted
  Wait,          // host blocks for a matched message
  Flight,        // a message on the wire, tagged with its link class
  HaloComm,      // one halo exchange window
  CommFrame,     // reliable-layer framing around a send or receive
  Collective,    // allreduce rendezvous
  DeviceIssue,   // host operation issuing device work (halo dslash, gauge exchange)
  Checkpoint,    // checkpoint I/O: stall on the timelines, recovery on the critical path
  Recovery,      // rank-failure detection, respawn, rollback, restore, resume
  Reset,         // cluster-wide channel purge that closes a recovery epoch
  Drop,          // fault tombstone recorded right after a dropped isend
  Retry,         // reliable-layer retransmission
  ChecksumError, // corrupt frame detected on receive
};

// The event vocabulary, one row per kind: enumerator, exported name (Chrome
// export, sequence_digest, metrics kernel keys), category, span or instant,
// track (kTrackStream: the device stream its emitter names) and the Class
// the analyses dispatch on.  Two kinds export one name: the recovery
// layer's rollback span and the modeled solver's rollback instant.
#define QUDA_TRACE_KINDS(X)                                                                       \
  /* device streams */                                                                            \
  X(Kernel, "kernel", Kernel, kSpan, kTrackStream, Kernel)                                        \
  X(Dslash, "dslash", Kernel, kSpan, kTrackStream, Kernel)                                        \
  X(DslashLocal, "dslash_local", Kernel, kSpan, kTrackStream, Kernel)                             \
  X(DslashInterior, "dslash_interior", Kernel, kSpan, kTrackStream, Kernel)                       \
  X(DslashBoundary, "dslash_boundary", Kernel, kSpan, kTrackStream, Kernel)                       \
  X(Blas, "blas", Kernel, kSpan, kTrackStream, Kernel)                                            \
  X(MemcpyAsyncH2D, "memcpy_async_h2d", Copy, kSpan, kTrackStream, AsyncCopy)                     \
  X(MemcpyAsyncD2H, "memcpy_async_d2h", Copy, kSpan, kTrackStream, AsyncCopy)                     \
  X(StreamWait, "stream_wait", Sync, kInstant, kTrackStream, StreamWait)                          \
  /* host: device calls, transport, reliable layer, collectives */                                \
  X(MemcpyH2D, "memcpy_h2d", Copy, kSpan, kTrackHost, SyncCopy)                                   \
  X(MemcpyD2H, "memcpy_d2h", Copy, kSpan, kTrackHost, SyncCopy)                                   \
  X(StreamSync, "stream_sync", Sync, kSpan, kTrackHost, StreamSync)                               \
  X(DeviceSync, "device_sync", Sync, kSpan, kTrackHost, DeviceSync)                               \
  X(Isend, "isend", Comm, kInstant, kTrackHost, Isend)                                            \
  X(Irecv, "irecv", Comm, kInstant, kTrackHost, Irecv)                                            \
  X(MpiWait, "mpi_wait", Comm, kSpan, kTrackHost, Wait)                                           \
  X(SendFrame, "send_frame", Comm, kSpan, kTrackHost, CommFrame)                                  \
  X(RecvFrame, "recv_frame", Comm, kSpan, kTrackHost, CommFrame)                                  \
  X(Allreduce, "allreduce", Collective, kSpan, kTrackHost, Collective)                            \
  /* host: composite operations */                                                                \
  X(HaloDslash, "halo_dslash", Op, kSpan, kTrackHost, DeviceIssue)                                \
  X(GaugeExchange, "gauge_exchange", Op, kSpan, kTrackHost, DeviceIssue)                          \
  X(PackFace, "pack_face", Op, kInstant, kTrackHost, None)                                        \
  /* host: injected faults and recovery */                                                        \
  X(Stall, "stall", Fault, kInstant, kTrackHost, None)                                            \
  X(Drop, "drop", Fault, kInstant, kTrackHost, Drop)                                              \
  X(Corrupt, "corrupt", Fault, kInstant, kTrackHost, None)                                        \
  X(Retry, "retry", Fault, kInstant, kTrackHost, Retry)                                           \
  X(ChecksumError, "checksum_error", Fault, kInstant, kTrackHost, ChecksumError)                  \
  X(RankCrash, "rank_crash", Fault, kInstant, kTrackHost, None)                                   \
  X(RankHang, "rank_hang", Fault, kInstant, kTrackHost, None)                                     \
  X(Checkpoint, "checkpoint", Fault, kSpan, kTrackHost, Checkpoint)                               \
  X(CkptCommit, "ckpt_commit", Fault, kSpan, kTrackHost, Checkpoint)                              \
  X(CkptAbort, "ckpt_abort", Fault, kInstant, kTrackHost, None)                                   \
  X(Detect, "detect", Fault, kSpan, kTrackHost, Recovery)                                         \
  X(Respawn, "respawn", Fault, kSpan, kTrackHost, Recovery)                                       \
  X(RankFailure, "rank_failure", Fault, kInstant, kTrackHost, None)                               \
  X(Rollback, "rollback", Fault, kSpan, kTrackHost, Recovery)                                     \
  X(Restore, "restore", Fault, kSpan, kTrackHost, Recovery)                                       \
  X(Resume, "resume", Fault, kSpan, kTrackHost, Recovery)                                         \
  X(RecoveryReset, "recovery_reset", Fault, kInstant, kTrackHost, Reset)                          \
  /* comm track */                                                                                \
  X(MsgFlight, "msg_flight", Comm, kSpan, kTrackComm, Flight)                                     \
  X(HaloComm, "halo_comm", Comm, kSpan, kTrackComm, HaloComm)                                     \
  /* solver track; anomaly instants are telemetry, skipped by sequence_digest */                  \
  X(Setup, "setup", Solver, kSpan, kTrackSolver, None)                                            \
  X(Solve, "solve", Solver, kSpan, kTrackSolver, None)                                            \
  X(Iteration, "iteration", Solver, kInstant, kTrackSolver, None)                                 \
  X(ReliableUpdate, "reliable_update", Solver, kSpan, kTrackSolver, None)                         \
  X(Escalate, "escalate", Solver, kInstant, kTrackSolver, None)                                   \
  X(SdcRollback, "sdc_rollback", Solver, kInstant, kTrackSolver, None)                            \
  X(BreakdownRestart, "breakdown_restart", Solver, kInstant, kTrackSolver, None)                  \
  X(SolverRollback, "rollback", Solver, kInstant, kTrackSolver, None)                             \
  X(Anomaly, "anomaly", Solver, kInstant, kTrackSolver, None)

enum class Kind : std::uint8_t {
#define QUDA_TRACE_KIND_ID(id, ...) id,
  QUDA_TRACE_KINDS(QUDA_TRACE_KIND_ID)
#undef QUDA_TRACE_KIND_ID
};

inline constexpr bool kSpan = false;
inline constexpr bool kInstant = true;

struct KindInfo {
  const char* name;
  Cat cat;
  bool instant; // point event; spans carry [ts_us, end_us]
  int track;    // fixed track, or kTrackStream
  Class cls;
};

inline constexpr KindInfo kKinds[] = {
#define QUDA_TRACE_KIND_INFO(id, name, cat, shape, track, cls) \
  {name, Cat::cat, shape, track, Class::cls},
    QUDA_TRACE_KINDS(QUDA_TRACE_KIND_INFO)
#undef QUDA_TRACE_KIND_INFO
};
#undef QUDA_TRACE_KINDS

constexpr const KindInfo& info(Kind kind) { return kKinds[static_cast<std::size_t>(kind)]; }

// One recorded event.  Its kind's row supplies the name, category and
// shape, so the event holds only what varies per emit: 64 bytes.
struct Event {
  Kind kind = Kind::Kernel;
  // Link class the payload crossed (msg_flight events): the numeric value
  // of sim::LinkClass (0 = shm, 1 = ib, 2 = cross-switch), -1 when not a
  // wire event.  Excluded from sequence_digest: it is derived from cluster
  // topology, not pipeline structure, so goldens survive topology sweeps.
  std::int8_t link = -1;
  std::int16_t track = kTrackHost; // the kind's fixed track, or its device stream
  int tag = -1;           // message tag; stream_sync / stream_wait: the stream waited on
  double ts_us = 0;       // simulated begin time
  double end_us = 0;      // exact recorded end time (== ts_us for instants).
                          // The duration is end_us - ts_us; the critical-path
                          // walk (critpath.h) needs the exact doubles the
                          // gating max() computations produced.
  std::int64_t bytes = 0; // modeled payload bytes (0 when not applicable)
  std::int64_t seq = -1;  // message sequence / iteration number
  int peer = -1;          // peer rank for comm events

  // Happens-before edge of this event, when it has one (critpath.h walks
  // these).  dep_rank >= 0 names the rank whose activity gated this event
  // (mpi_wait: the sender; allreduce: the rendezvous-gating rank); -1 with
  // dep_ts_us >= 0 means a local dependency (copy/kernel issue anchor,
  // stream_wait source value).  edge_us is the modeled weight of the edge
  // (network flight, tree cost, transfer or kernel duration).  Excluded
  // from sequence_digest: like timestamps, these are timing-derived.
  int dep_rank = -1;
  double dep_ts_us = -1;
  double edge_us = 0;
};
static_assert(sizeof(Event) <= 64, "recording writes 64 bytes per event");

// a device stream index, for the kinds the table records on a stream
struct Stream {
  int index;
};

// Per-rank event sink.  Bound to the rank's clock so layers without clock
// access (the solvers) can timestamp via now_us(); reading the clock for a
// timestamp never mutates it.
class RankTracer {
public:
  void bind(int rank, const double* now_us) {
    rank_ = rank;
    clock_ = now_us;
  }
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  int rank() const { return rank_; }
  double now_us() const { return clock_ != nullptr ? *clock_ : 0.0; }

  // a span or instant of a fixed-track kind
  void span(Kind kind, double begin_us, double end_us, std::int64_t bytes = 0, int peer = -1,
            int tag = -1, std::int64_t seq = -1) {
    record(kind, info(kind).track, begin_us, end_us, bytes, peer, tag, seq);
  }
  void instant(Kind kind, double ts_us, std::int64_t bytes = 0, int peer = -1, int tag = -1,
               std::int64_t seq = -1) {
    record(kind, info(kind).track, ts_us, ts_us, bytes, peer, tag, seq);
  }
  // a span or instant of a stream kind, on the stream it ran on
  void span(Kind kind, Stream stream, double begin_us, double end_us, std::int64_t bytes = 0) {
    record(kind, stream.index, begin_us, end_us, bytes, -1, -1, -1);
  }
  void instant(Kind kind, Stream stream, double ts_us, int tag) {
    record(kind, stream.index, ts_us, ts_us, 0, -1, tag, -1);
  }

  // attach a happens-before edge to the most recently recorded event (the
  // emitting layer knows the gating value right where it records the span)
  void dep(int dep_rank, double dep_ts_us, double edge_us) {
    if (!enabled_ || events_.empty()) return;
    Event& e = events_.back();
    e.dep_rank = dep_rank;
    e.dep_ts_us = dep_ts_us;
    e.edge_us = edge_us;
  }

  // tag the most recently recorded event with the link class its payload
  // crossed (msg_flight spans; the transport knows the class at emit time)
  void link(int link_class) {
    if (!enabled_ || events_.empty()) return;
    events_.back().link = static_cast<std::int8_t>(link_class);
  }

  const std::vector<Event>& events() const { return events_; }
  std::vector<Event> take_events() { return std::move(events_); }
  void clear() { events_.clear(); }

private:
  void record(Kind kind, int track, double ts_us, double end_us, std::int64_t bytes, int peer,
              int tag, std::int64_t seq) {
    if (!enabled_) return;
    events_.push_back({.kind = kind,
                       .track = static_cast<std::int16_t>(track),
                       .tag = tag,
                       .ts_us = ts_us,
                       .end_us = end_us > ts_us ? end_us : ts_us,
                       .bytes = bytes,
                       .seq = seq,
                       .peer = peer});
  }

  int rank_ = 0;
  const double* clock_ = nullptr;
  bool enabled_ = false;
  std::vector<Event> events_;
};

// thread-local tracer of the simulated rank running on this OS thread;
// null when tracing is disabled (or off a rank fiber entirely)
RankTracer* current();

// RAII binding of current() while a rank's fiber runs on this thread
class ScopedTracer {
public:
  explicit ScopedTracer(RankTracer* tracer);
  ~ScopedTracer();
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;

private:
  RankTracer* prev_;
};

// collection/export switches; lives in ClusterSpec and defaults from the
// QUDA_SIM_TRACE environment variable (value = export path)
struct TraceOptions {
  bool enabled = false; // record events (metrics become available)
  std::string path;     // non-empty: write Chrome JSON here after each run
};

// everything one VirtualCluster::run recorded, indexed by rank
struct TraceReport {
  std::vector<std::vector<Event>> per_rank;
  bool enabled = false;
  // node/switch topology of the run that produced the trace, so exporters
  // and lint can classify ranks into nodes and leaf switches
  int gpus_per_node = 1;
  int nodes_per_switch = 0; // 0 = flat single-switch network
  // one-line JSON provenance stamp (core/provenance.h), set by the run
  // that recorded the events; empty = omit from exports
  std::string provenance_json;

  std::size_t total_events() const {
    std::size_t n = 0;
    for (const auto& r : per_rank) n += r.size();
    return n;
  }
};

// Normalized digest of one rank's event *sequence*: FNV-1a over the typed
// fields that define pipeline structure (name, category, span/instant,
// track, bytes, peer, tag, seq) -- deliberately excluding timestamps, so
// golden digests pin the event ordering without pinning the calibrated
// time model.
std::uint64_t sequence_digest(const std::vector<Event>& events);

} // namespace quda::trace
