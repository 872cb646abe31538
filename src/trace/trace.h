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
// Ownership and threading: each RankContext owns one RankTracer, written
// only from that rank's fiber, so no synchronization is needed on the hot
// path.  Layers that cannot see the RankContext (the device model, the
// solvers) emit through the thread-local current() pointer, which the rank
// scheduler binds on every resume of the rank's fiber -- and only when
// tracing is enabled, so the disabled cost is one null check.
//
// Two sinks consume the recorded events after a run:
//  * trace_export.h turns them into a Chrome/Perfetto trace_event JSON
//    file (one process per rank, one track per stream plus host/comm/solver
//    tracks), enabled by QUDA_SIM_TRACE=<path>;
//  * metrics.h aggregates them into a MetricsRegistry (halo bytes, retries,
//    overlap efficiency, per-kernel histograms) that the benches merge into
//    their BENCH_<name>.json.

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

struct Event {
  const char* name = "";  // static-lifetime label
  Cat cat = Cat::Op;
  bool instant = false;   // true: point event (dur_us ignored, kept 0)
  int track = kTrackHost;
  double ts_us = 0;       // simulated begin time
  double dur_us = 0;      // simulated duration (spans only, >= 0)
  double end_us = 0;      // exact recorded end time (spans; == ts_us for
                          // instants).  Kept alongside dur_us because
                          // ts + (end - ts) is not bitwise end, and the
                          // critical-path walk (critpath.h) needs the exact
                          // doubles the gating max() computations produced.
  std::int64_t bytes = 0; // modeled payload bytes (0 when not applicable)
  int peer = -1;          // peer rank for comm events
  int tag = -1;           // message tag for comm events
  std::int64_t seq = -1;  // message sequence / iteration number

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

  // Link class the payload crossed (msg_flight events): the numeric value
  // of sim::LinkClass (0 = shm, 1 = ib, 2 = cross-switch), -1 when not a
  // wire event.  Excluded from sequence_digest: it is derived from cluster
  // topology, not pipeline structure, so goldens survive topology sweeps.
  int link = -1;
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

  void span(Cat cat, const char* name, int track, double begin_us, double end_us,
            std::int64_t bytes = 0, int peer = -1, int tag = -1, std::int64_t seq = -1) {
    if (!enabled_) return;
    Event e;
    e.name = name;
    e.cat = cat;
    e.instant = false;
    e.track = track;
    e.ts_us = begin_us;
    e.dur_us = end_us > begin_us ? end_us - begin_us : 0.0;
    e.end_us = end_us > begin_us ? end_us : begin_us;
    e.bytes = bytes;
    e.peer = peer;
    e.tag = tag;
    e.seq = seq;
    events_.push_back(e);
  }

  void instant(Cat cat, const char* name, int track, double ts_us, std::int64_t bytes = 0,
               int peer = -1, int tag = -1, std::int64_t seq = -1) {
    if (!enabled_) return;
    Event e;
    e.name = name;
    e.cat = cat;
    e.instant = true;
    e.track = track;
    e.ts_us = ts_us;
    e.end_us = ts_us;
    e.bytes = bytes;
    e.peer = peer;
    e.tag = tag;
    e.seq = seq;
    events_.push_back(e);
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
    events_.back().link = link_class;
  }

  const std::vector<Event>& events() const { return events_; }
  std::vector<Event> take_events() { return std::move(events_); }
  void clear() { events_.clear(); }

private:
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
// fields that define pipeline structure (name, category, kind, track,
// bytes, peer, tag, seq) -- deliberately excluding timestamps, so golden
// digests pin the event ordering without pinning the calibrated time model.
std::uint64_t sequence_digest(const std::vector<Event>& events);

} // namespace quda::trace
