#pragma once
// Seeded, deterministic fault injection for the simulated cluster.
//
// The paper's production setting (16 nodes, 32 GTX 285s with ECC *off*, a
// shared QDR IB switch) is exactly the regime where transient faults --
// dropped or late messages, PCIe stalls, silent bit-flips in device memory
// -- dominate operational cost.  This module injects those faults on a
// reproducible schedule: every draw is a pure function of
// (seed, rank, per-rank event counter, fault kind), with no wall-clock
// randomness, so a given seed produces the identical fault schedule and
// identical simulated-time totals on every run regardless of OS thread
// scheduling.
//
// Injection happens in the transport (RankContext::isend stamps each
// message attempt) and in the parallel operator (one device-memory draw per
// matrix application).  Recovery lives one layer up: the reliable message
// protocol in src/comm (sequence numbers, checksums, bounded retry) and the
// rollback/restart machinery in src/solvers.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace quda::sim {

// typed failure raised when a message cannot be delivered within the retry
// budget -- or when a peer rank hit that condition and poisoned the cluster.
// Replaces blocking forever on a lost message.
struct CommTimeout : std::runtime_error {
  explicit CommTimeout(const std::string& what) : std::runtime_error(what) {}
};

// typed rejection of an ill-formed FaultConfig (negative rate, rate > 1,
// zero-seed ambiguity, ...); raised at FaultModel construction so a bad
// config can never silently skew a fault schedule
struct FaultConfigError : std::invalid_argument {
  explicit FaultConfigError(const std::string& what) : std::invalid_argument(what) {}
};

// how a rank dies: a crash stops servicing sends/recvs/allreduces at the
// drawn time; a hang stalls indefinitely (same transport silence, but the
// failure detector needs the longer hang timeout to declare it dead)
enum class DeathKind : std::uint8_t { Crash, Hang };

inline const char* death_kind_name(DeathKind k) {
  return k == DeathKind::Crash ? "crash" : "hang";
}

// Internal control-flow signal thrown on the dying rank's own thread the
// first time it reaches a transport operation at-or-after its drawn death
// time.  Not derived from std::exception on purpose: only the recovery loop
// in quda_api may catch it, never a generic catch (...) handler upstream.
struct RankDeath {
  int rank = -1;
  DeathKind kind = DeathKind::Crash;
  double time_us = 0; // rank-local sim time of death
};

// Guard for the rare generic handler that must observe arbitrary failures
// (checkpoint probing, batch rendezvous): called first inside a
// `catch (...)`, it lets a RankDeath pass through untouched and returns for
// everything else, so the handler can only swallow ordinary exceptions.
// tools/semantic_check.py (rule sim-death-swallow) accepts a generic catch
// whose body calls this, rethrows, or sits behind an explicit RankDeath arm.
inline void rethrow_if_rank_death() {
  try {
    throw;
  } catch (const RankDeath&) {
    throw;
  } catch (...) {
    // not a death: fall through to the caller's handler body
  }
}

// Typed failure delivered to the *survivors* by the failure detector when a
// peer dies mid-operation.  Replaces the CommTimeout cascade / deadlock a
// silent peer death would otherwise cause.
struct RankFailure : std::runtime_error {
  RankFailure(const std::string& what, int failed_rank_, DeathKind kind_)
      : std::runtime_error(what), failed_rank(failed_rank_), kind(kind_) {}
  int failed_rank = -1;
  DeathKind kind = DeathKind::Crash;
};

// one armed process-death draw: offset is relative to the arming time
struct DeathDraw {
  DeathKind kind = DeathKind::Crash;
  double offset_us = 0;
};

// fault environment of the simulated hardware; lives in ClusterSpec
struct FaultConfig {
  std::uint64_t seed = 12345;
  double drop_rate = 0;        // per message attempt: the attempt never arrives
  double delay_rate = 0;       // per delivered message: degraded-link transfer
  double delay_factor = 8.0;   // path-time multiplier for delayed messages
  double corrupt_rate = 0;     // per delivered message: one payload bit flipped
  double device_flip_rate = 0; // per operator application: device-memory SDC
  double stall_rate = 0;       // per send: transient rank stall (OS jitter, PCIe hiccup)
  double stall_us = 500.0;     // stall duration charged to the rank's clock

  // process-level failures (per solver incarnation, i.e. per arming)
  double crash_rate = 0; // rank dies at a drawn time inside crash_window_us
  double hang_rate = 0;  // rank stalls forever; detected via hang_timeout_us
  double crash_window_us = 100000.0;    // death time is uniform in [0, window) after arming
  double heartbeat_interval_us = 250.0; // detection latency for a crashed peer
  double hang_timeout_us = 2000.0;      // detection latency for a hung peer
  double respawn_us = 4000.0;           // warm-spare bring-up cost for the dead rank
  double rollback_us = 50.0;            // per-survivor solver rollback bookkeeping
  int max_failures = 4;                 // recovery attempts per solve before giving up

  bool process_faults() const { return crash_rate > 0 || hang_rate > 0; }

  bool enabled() const {
    return drop_rate > 0 || delay_rate > 0 || corrupt_rate > 0 || device_flip_rate > 0 ||
           stall_rate > 0 || process_faults();
  }

  // throws FaultConfigError on any out-of-range field (see fault_model.cpp)
  void validate() const;
};

// recovery policy of the reliable message layer (src/comm); also carried by
// InvertParams so applications can tune it per solve
struct RetryPolicy {
  int max_retries = 3;            // resend attempts per message before giving up
  double ack_timeout_us = 50.0;   // sim time for the sender to notice a lost attempt
  double backoff_us = 25.0;       // exponential backoff base between attempts
  double backoff_factor = 2.0;
  // frame halo messages with sequence numbers + checksums; detection cost is
  // charged at checksum_bw_gbs (hardware CRC32C via SSE4.2 on the Nehalem
  // hosts streams at memory bandwidth)
  bool checksums = false;
  double checksum_bw_gbs = 20.0;
};

// per-rank fault/recovery accounting; aggregated by VirtualCluster::run
struct FaultCounters {
  // injected events
  long drops = 0;
  long delays = 0;
  long corruptions = 0;
  long device_flips = 0;
  long stalls = 0;
  // detection and recovery at the comm layer
  long checksum_errors = 0;    // corrupt frames caught by the receiver
  long retries = 0;            // resend attempts by the reliable sender
  long recovered_messages = 0; // messages delivered after >= 1 lost/corrupt attempt
  double recovery_us = 0;      // sim time charged to timeouts, backoff, and stalls
  // process-level failure and checkpoint/restart accounting
  long crashes = 0;                 // rank-crash injections that fired
  long hangs = 0;                   // rank-hang injections that fired
  long rank_failures_detected = 0;  // RankFailure deliveries on this rank
  long respawns = 0;                // warm-spare respawns of this rank
  long checkpoints_committed = 0;   // two-phase checkpoint commits this rank joined
  long restores = 0;                // checkpoint restores performed by this rank
  double detection_us = 0;          // sim time between death and cluster-wide detection
  double checkpoint_us = 0;         // sim time charged to checkpoint writes/commits
  double restore_us = 0;            // sim time charged to rollback + state restore

  FaultCounters& operator+=(const FaultCounters& o) {
    drops += o.drops;
    delays += o.delays;
    corruptions += o.corruptions;
    device_flips += o.device_flips;
    stalls += o.stalls;
    checksum_errors += o.checksum_errors;
    retries += o.retries;
    recovered_messages += o.recovered_messages;
    recovery_us += o.recovery_us;
    crashes += o.crashes;
    hangs += o.hangs;
    rank_failures_detected += o.rank_failures_detected;
    respawns += o.respawns;
    checkpoints_committed += o.checkpoints_committed;
    restores += o.restores;
    detection_us += o.detection_us;
    checkpoint_us += o.checkpoint_us;
    restore_us += o.restore_us;
    return *this;
  }
};

// what the transport does with one send attempt
struct MessageFault {
  bool drop = false;
  bool corrupt = false;
  double delay_factor = 1.0;
  double stall_us = 0;
  std::uint64_t corrupt_bits = 0; // selector for which payload bit to flip
};

// Immutable, shared across ranks.  Draws are stateless pure functions of
// (seed, rank, counter, kind); the per-rank counters live in FaultStream.
class FaultModel {
public:
  explicit FaultModel(const FaultConfig& config) : config_(config) { config_.validate(); }

  const FaultConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled(); }

  MessageFault message_fault(int rank, std::uint64_t event) const;
  // returns a 64-bit flip selector (site and bit) when the draw fires
  std::optional<std::uint64_t> device_fault(int rank, std::uint64_t event) const;
  // process-death draw for one (rank, incarnation); incarnation 0 is the
  // original spawn, each warm-spare respawn re-arms with the next incarnation
  std::optional<DeathDraw> death_schedule(int rank, std::uint64_t incarnation) const;

private:
  FaultConfig config_;
};

// Per-rank view: owns the event counters and the fault/recovery accounting.
// One per RankContext; accessed only from that rank's thread.
class FaultStream {
public:
  FaultStream(const FaultModel* model, int rank) : model_(model), rank_(rank) {}

  bool enabled() const { return model_ != nullptr && model_->enabled(); }
  const FaultConfig& config() const { return model_->config(); }

  MessageFault next_message_fault() {
    return model_->message_fault(rank_, message_events_++);
  }
  std::optional<std::uint64_t> next_device_fault() {
    return model_->device_fault(rank_, device_events_++);
  }

  // one armed (absolute-time) death draw for the current incarnation
  struct ArmedDeath {
    DeathKind kind = DeathKind::Crash;
    double time_us = 0; // absolute sim time the rank goes silent
  };

  // (Re-)arm the process-death schedule for a new incarnation starting at
  // start_us.  Offsets are drawn relative to the arming time so a respawned
  // rank is not condemned to die again the instant it resumes.
  void arm_deaths(double start_us) {
    death_.reset();
    if (enabled() && config().process_faults()) {
      if (auto d = model_->death_schedule(rank_, incarnation_))
        death_ = ArmedDeath{d->kind, start_us + d->offset_us};
    }
    ++incarnation_;
  }
  void disarm_deaths() { death_.reset(); }
  // armed death whose time has come (checked at transport-op entry)
  const std::optional<ArmedDeath>& armed_death() const { return death_; }
  bool death_due(double now_us) const { return death_ && now_us >= death_->time_us; }
  std::uint64_t incarnation() const { return incarnation_; }

  FaultCounters& counters() { return counters_; }
  const FaultCounters& counters() const { return counters_; }

private:
  const FaultModel* model_ = nullptr;
  int rank_ = 0;
  std::uint64_t message_events_ = 0;
  std::uint64_t device_events_ = 0;
  std::uint64_t incarnation_ = 0;
  std::optional<ArmedDeath> death_;
  FaultCounters counters_;
};

} // namespace quda::sim
