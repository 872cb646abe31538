#pragma once
// Conservative discrete-event simulation of an SPMD message-passing program.
//
// Each simulated rank executes *real* program logic (including real
// numerics when desired) as a fiber of the RankScheduler (sim/scheduler.h),
// which runs the fibers on one OS worker per rank when the ranks fit in the
// host thread budget and on a single worker otherwise, so rank count scales
// to O(1000).  Each rank owns a SimClock; local work advances it by modeled
// durations.  Ranks interact only through the message channels and
// collective operations below, whose completion times are pure functions of
// the participants' clocks and the network model -- so simulated timings are
// deterministic regardless of OS scheduling, and bit-identical at any worker
// count (tests/test_scheduler_equivalence.cpp).  A blocked rank parks on a
// slot of its own and is woken only by the operation that satisfies its
// wait; failures wake everyone, and a cluster whose ranks are all parked
// raises CommTimeout (DESIGN.md §12).
//
// Semantics mirror the MPI subset that QMP exposes and the paper uses:
// point-to-point non-blocking send/receive with handles, and all-reduce.
//
// Fault injection (ClusterSpec::faults) is applied at the transport:
// isend() stamps each attempt with the rank's deterministic fault draw --
// dropped attempts never enter the channel (their timing effect arrives
// through the retransmission's later send time), corrupted attempts carry a
// flipped payload bit plus a corruption flag, delayed attempts a path-time
// multiplier.  A sender that exhausts its retry budget posts a *failed*
// tombstone and poisons the cluster so every blocked rank raises a typed
// CommTimeout instead of deadlocking.

#include "core/sync.h"
#include "gpusim/device.h"
#include "sim/cluster_spec.h"
#include "sim/fault_model.h"
#include "sim/scheduler.h"
#include "trace/trace.h"

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

namespace quda::sim {

struct SimClock {
  double now_us = 0;
  void advance(double us) { now_us += us; }
};

class VirtualCluster;

// one registered process death (crash or hang) of the current failure epoch
struct DeathRecord {
  int rank = -1;
  DeathKind kind = DeathKind::Crash;
  double time_us = 0; // the dead rank's clock when it went silent
};

// Result of one coordinated recovery epoch, published to every rank by the
// recovery rendezvous.  resume_us is the cluster-wide clock every rank
// resumes at: the max over all ranks' rendezvous-arrival clocks (which
// already carry rollback/restore/respawn charges) and the failure
// detector's completion time, max over the epoch's deaths of
// (death time + heartbeat_interval_us | hang_timeout_us).
struct RecoveryEpoch {
  int epoch = 0;      // 1-based index of this completed epoch
  double resume_us = 0;
  double detect_us = 0;
  std::vector<DeathRecord> deaths; // sorted by rank (deterministic)
};

// Per-rank scheduler counters of one run(), counted in the transport's wait
// loops.  On one worker they are a pure function of the configuration; with
// more workers a wake meant for an earlier wait may add a spurious resume.
struct SchedCounters {
  std::int64_t parks = 0;    // times the rank blocked in a transport wait
  std::int64_t wakes = 0;    // times it resumed from one
  std::int64_t spurious = 0; // resumes that found the wait unmet and parked again

  SchedCounters& operator+=(const SchedCounters& o) {
    parks += o.parks;
    wakes += o.wakes;
    spurious += o.spurious;
    return *this;
  }
};

// a matched in-flight message
struct Message {
  std::vector<std::byte> payload;  // empty in Modeled mode
  std::int64_t modeled_bytes = 0;  // what the network model charges
  double send_time_us = 0;         // sender clock when isend was posted
  // fault metadata stamped by the transport
  double delay_factor = 1.0; // degraded-link path-time multiplier
  bool corrupt = false;      // a payload bit was flipped in flight
  bool failed = false;       // sender exhausted retries; receiver must fail too
};

class RecvHandle {
public:
  friend class RankContext;

  std::vector<std::byte> take_payload() {
    if (payload_taken_)
      throw std::logic_error("RecvHandle::take_payload() called twice on the same message");
    payload_taken_ = true;
    return std::move(msg_.payload);
  }

  // fault metadata the reliable layer needs
  bool corrupt() const { return msg_.corrupt; }
  std::int64_t modeled_bytes() const { return msg_.modeled_bytes; }

  // arrival metadata: when the message reached this rank in simulated time,
  // and when the (possibly retransmitted) delivered attempt left the sender
  double arrival_us() const { return arrival_us_; }
  double send_time_us() const { return msg_.send_time_us; }

private:
  Message msg_;
  double arrival_us_ = 0;
  bool payload_taken_ = false;
};

// Per-rank execution context: the clock, the simulated GPU, and messaging.
class RankContext {
public:
  RankContext(VirtualCluster& cluster, int rank, const ClusterSpec& spec);

  int rank() const { return rank_; }
  int size() const;
  const ClusterSpec& spec() const { return spec_; }

  SimClock& clock() { return clock_; }
  gpusim::Device& device() { return device_; }
  FaultStream& faults() { return faults_; }
  trace::RankTracer& tracer() { return tracer_; }
  telemetry::RankRecorder& recorder() { return recorder_; }
  const SchedCounters& sched_counters() const { return sched_counters_; }

  // post a non-blocking send; advances the clock by the MPI call overhead.
  // Under fault injection the attempt may be dropped, corrupted, or delayed;
  // the returned status tells the *sender's* reliable layer what the
  // deterministic schedule did (standing in for ack-timeout / NACK
  // detection, whose latency the reliable layer charges explicitly).
  struct SendStatus {
    bool delivered = true;
    bool corrupted = false;
  };
  SendStatus isend(int dst, int tag, std::vector<std::byte> payload,
                   std::int64_t modeled_bytes);

  // a sender that exhausted its retry budget posts this so the receiver
  // fails with a typed CommTimeout instead of waiting forever
  void post_send_failure(int dst, int tag);

  // poison the whole cluster with a timeout and raise CommTimeout here;
  // peers blocked in wait()/allreduce are woken and raise CommTimeout too
  [[noreturn]] void raise_timeout(const std::string& what);

  // post a non-blocking receive; captures the post time so that a later
  // wait() completes at  max(sender post time, recv post time) + path  --
  // the MPI_Waitall semantics the overlapped implementation relies on
  struct PendingRecv {
    int src = 0;
    int tag = 0;
    double post_time_us = 0;
    bool consumed = false; // set by wait(); re-waiting is a hard error
  };
  PendingRecv irecv(int src, int tag);

  // Blocks until the message arrives.  A failed tombstone (sender gave up)
  // raises CommTimeout, as does a wait no rank is left to satisfy.  Waiting
  // twice on the same PendingRecv is a hard error.
  RecvHandle wait(PendingRecv& pending);

  // blocking receive: irecv + wait
  RecvHandle recv(int src, int tag);

  // all-reduce an elementwise sum across all ranks (one rendezvous for the
  // whole vector, as a fused MPI_Allreduce); completes at
  //   max_i(t_i) + perf::allreduce_tree_cost_us(spec)
  // (ceil(log2 N) tree steps, plus the switch-tree traversal surcharge on
  // hierarchical interconnects).  Contributions are folded in rank order,
  // so the result is bit-stable under any scheduler/interleaving.
  void allreduce_sum(double* values, int count);
  double allreduce_sum(double value) {
    allreduce_sum(&value, 1);
    return value;
  }
  void barrier();

  // Process-failure machinery (see DESIGN.md §10).  check_death() runs at
  // every transport-op entry: when this rank's armed death draw is due it
  // registers the death (waking every blocked peer) and throws RankDeath
  // with the clock untouched.  Peers discover the silence as a typed
  // RankFailure -- wait() throws when its source is terminal with an empty
  // channel, allreduce when a terminal rank can no longer arrive -- also
  // with their clocks untouched, so recovery timing is charged in exactly
  // one place (the recovery code driving the rendezvous).
  void check_death();
  // mark this rank terminal (recovering) so peers blocked on it unblock
  void enter_recovery();
  // Coordinated epoch barrier all ranks (survivors + respawned) reach after
  // charging their local recovery costs: the last arrival folds the epoch's
  // deaths into a RecoveryEpoch, resets channels/reductions/terminal flags,
  // and every rank resumes with its clock at resume_us.
  RecoveryEpoch recovery_rendezvous();

private:
  friend class VirtualCluster; // counts parks into sched_counters_

  VirtualCluster& cluster_;
  int rank_;
  const ClusterSpec& spec_;
  SimClock clock_;
  gpusim::Device device_;
  FaultStream faults_;
  trace::RankTracer tracer_;
  telemetry::RankRecorder recorder_;
  SchedCounters sched_counters_;
};

class VirtualCluster {
public:
  explicit VirtualCluster(ClusterSpec spec)
      : spec_(std::move(spec)), fault_model_(spec_.faults) {}

  const ClusterSpec& spec() const { return spec_; }

  // Run fn on every rank, each a fiber on rank_workers(ranks,
  // exec::thread_budget()) OS workers; rethrows the first exception.
  void run(const std::function<void(RankContext&)>& fn);

  // maximum simulated completion time over all ranks of the last run()
  double makespan_us() const { return makespan_us_; }

  // fault/recovery accounting summed over all ranks of the last run()
  // (populated even when a rank threw)
  const FaultCounters& fault_totals() const { return fault_totals_; }

  // the per-rank counters behind fault_totals(), indexed by rank (tests
  // assert the per-rank values sum to the cluster totals)
  const std::vector<FaultCounters>& per_rank_fault_counters() const {
    return per_rank_counters_;
  }

  // scheduler counters of the last run(), summed over ranks and per rank
  // (populated even when a rank threw)
  const SchedCounters& sched_totals() const { return sched_totals_; }
  const std::vector<SchedCounters>& per_rank_sched_counters() const {
    return per_rank_sched_;
  }

  // per-rank event streams of the last run() when tracing was enabled via
  // ClusterSpec::trace or QUDA_SIM_TRACE (populated even when a rank threw)
  const trace::TraceReport& trace() const { return trace_report_; }

  // solver flight-recorder report of the last run() when telemetry was
  // enabled via ClusterSpec::telemetry or QUDA_SIM_TELEMETRY
  const telemetry::TelemetryReport& telemetry() const { return telemetry_report_; }

private:
  friend class RankContext;

  // why the cluster was poisoned: peers blocked on a timed-out rank raise
  // CommTimeout; peers blocked on a generically-failed rank raise
  // runtime_error, preserving the original abort semantics
  enum class AbortKind { None, Error, Timeout };

  struct Channel {
    std::deque<Message> queue;
  };
  using ChannelKey = std::tuple<int, int, int>; // src, dst, tag

  // mark the cluster failed and wake every blocked rank
  void poison(AbortKind kind);

  // What a parked rank waits for.  The transport op that satisfies the wait
  // -- a send on the rank's channel, the completing arrival of the reduction
  // generation -- finds the rank's target here and wakes that rank alone;
  // failure paths (poison, deaths, recovery) wake every rank instead.
  struct WaitTarget {
    enum class Kind : std::uint8_t { None, Channel, Reduction, Recovery };
    Kind kind = Kind::None;
    int src = -1;                // Channel: messages from src on tag
    int tag = 0;
    std::int64_t generation = 0; // Reduction: the in-flight generation

    static WaitTarget channel(int src, int tag) { return {Kind::Channel, src, tag, 0}; }
    static WaitTarget reduction(std::int64_t generation) {
      return {Kind::Reduction, -1, 0, generation};
    }
    static WaitTarget recovery() { return {Kind::Recovery, -1, 0, 0}; }
    bool operator==(const WaitTarget&) const = default;
  };

  // Park ctx's rank until the op that satisfies `target` wakes it (or a
  // failure path wakes everyone).  Counts the park and the resume, plus a
  // spurious re-park when `again` (the previous wake left the wait unmet).
  // Raises CommTimeout when the scheduler finds every rank parked.
  void park(RankContext& ctx, core::MutexLock& lock, const WaitTarget& target, bool again)
      QUDA_REQUIRES(mutex_);
  // when `rank` is parked on `target`, clear its slot and return true: the
  // caller must then wake it
  bool claim_waiter(int rank, const WaitTarget& target) QUDA_REQUIRES(mutex_);

  // record a process death for the current failure epoch and wake everyone
  void register_death(int rank, DeathKind kind, double time_us);
  // true when some terminal (dead or recovering) rank has not arrived at
  // the in-flight reduction generation, i.e. it can never complete
  bool reduction_blocked_by_failure() const QUDA_REQUIRES(mutex_);

  ClusterSpec spec_;
  FaultModel fault_model_;
  // one cluster-wide transport lock: channels, the allreduce rendezvous, the
  // park slots, and the poison flag all rendezvous through it (clang checks
  // the GUARDED_BY fields under QUDA_SIM_ANALYZE; static_check.py checks
  // coverage always).  Ranks block on the scheduler's per-rank slots, which
  // release this lock while parked.
  core::Mutex mutex_;
  std::map<ChannelKey, Channel> channels_ QUDA_GUARDED_BY(mutex_);
  // what each parked rank waits for, indexed by rank (Kind::None: running)
  std::vector<WaitTarget> parked_ QUDA_GUARDED_BY(mutex_);
  bool aborted_ QUDA_GUARDED_BY(mutex_) = false; // a rank threw; peers must not block forever
  AbortKind abort_kind_ QUDA_GUARDED_BY(mutex_) = AbortKind::None;

  // allreduce state (generation-counted).  The gating rank -- the argmax of
  // the arrival times, ties broken toward the lowest rank so the value is
  // deterministic under any OS interleaving -- is latched per generation so
  // every participant can record the rendezvous edge for the critical-path
  // walk (trace/critpath.h).
  // Per-rank contribution slots, folded into the result in ascending rank
  // order by the completing arrival -- the sum is a pure function of the
  // contributions, never of OS arrival order, which is what makes Real-mode
  // results bit-identical across schedulers and thread budgets.
  struct Reduction {
    int arrived = 0;
    int width = -1; // element count of the in-flight generation (-1: none)
    std::vector<std::vector<double>> contrib; // indexed by rank
    double max_time = 0;
    int max_rank = -1;
    std::vector<double> result;
    double done_time = 0;
    double done_gate_time = 0;
    int done_gate_rank = 0;
    std::int64_t generation = 0;
    // which ranks have arrived at the in-flight generation; the failure
    // detector needs it to tell "terminal rank already contributed" (the
    // reduction still completes) from "can never complete" (survivors must
    // raise RankFailure)
    std::vector<std::uint8_t> arrived_mask;
  } red_ QUDA_GUARDED_BY(mutex_);

  // process-failure state of the current epoch: registered deaths, and the
  // terminal flags (dead or recovering) that unblock waiting peers
  std::vector<DeathRecord> deaths_ QUDA_GUARDED_BY(mutex_);
  std::vector<std::uint8_t> terminal_ QUDA_GUARDED_BY(mutex_);

  // generation-counted recovery rendezvous (all n ranks, incl. respawned)
  struct RecoverySync {
    int arrived = 0;
    double max_arrival = 0;
    std::int64_t generation = 0;
    RecoveryEpoch last; // published by the completing arrival
  } recovery_ QUDA_GUARDED_BY(mutex_);

  // runs the rank fibers; its state has a lock of its own, taken after
  // mutex_ when both are held
  RankScheduler sched_;

  double makespan_us_ = 0;
  FaultCounters fault_totals_;
  std::vector<FaultCounters> per_rank_counters_;
  SchedCounters sched_totals_;
  std::vector<SchedCounters> per_rank_sched_;
  trace::TraceReport trace_report_;
  telemetry::TelemetryReport telemetry_report_;
};

} // namespace quda::sim
