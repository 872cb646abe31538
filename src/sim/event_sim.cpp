#include "sim/event_sim.h"

#include "core/provenance.h"
#include "perfmodel/costs.h"
#include "trace/telemetry.h"
#include "trace/trace_export.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <stdexcept>

namespace quda::sim {

RankContext::RankContext(VirtualCluster& cluster, int rank, const ClusterSpec& spec)
    : cluster_(cluster), rank_(rank), spec_(spec),
      device_(spec.device, spec.bus, spec.good_numa_binding),
      faults_(&cluster.fault_model_, rank) {
  tracer_.bind(rank, &clock_.now_us);
  // the recorder samples the clock, the tracer's event stream and the
  // retry counter read-only -- it never advances or mutates any of them
  recorder_.bind(rank, &clock_.now_us, &tracer_, &faults_.counters().retries);
}

int RankContext::size() const { return spec_.num_ranks(); }

void RankContext::check_death() {
  if (!faults_.death_due(clock_.now_us)) return;
  const FaultStream::ArmedDeath d = *faults_.armed_death();
  faults_.disarm_deaths();
  auto& counters = faults_.counters();
  if (d.kind == DeathKind::Crash) {
    ++counters.crashes;
  } else {
    ++counters.hangs;
  }
  // the death is stamped at the rank's *current* clock -- the first
  // transport op at-or-after the drawn time -- which is deterministic;
  // the clock itself stays untouched
  tracer_.instant(d.kind == DeathKind::Crash ? trace::Kind::RankCrash : trace::Kind::RankHang,
                  clock_.now_us);
  cluster_.register_death(rank_, d.kind, clock_.now_us);
  throw RankDeath{rank_, d.kind, clock_.now_us};
}

void RankContext::enter_recovery() {
  {
    core::MutexLock lock(cluster_.mutex_);
    if (rank_ < static_cast<int>(cluster_.terminal_.size()))
      cluster_.terminal_[static_cast<std::size_t>(rank_)] = 1;
  }
  // cascade: peers blocked on this rank re-check their terminal conditions
  cluster_.sched_.wake_all();
}

RecoveryEpoch RankContext::recovery_rendezvous() {
  check_death();
  const int n = spec_.num_ranks();
  RecoveryEpoch out;
  core::MutexLock lock(cluster_.mutex_);
  auto& rec = cluster_.recovery_;
  const std::int64_t my_generation = rec.generation;
  rec.max_arrival = std::max(rec.max_arrival, clock_.now_us);
  if (++rec.arrived == n) {
    // the epoch's death set is complete here (every death happens-before
    // its rank's rendezvous arrival), so the failure detector's completion
    // time is a deterministic fold over it
    double detect = 0;
    for (const DeathRecord& d : cluster_.deaths_) {
      const double latency = d.kind == DeathKind::Hang ? spec_.faults.hang_timeout_us
                                                       : spec_.faults.heartbeat_interval_us;
      detect = std::max(detect, d.time_us + latency);
    }
    out.epoch = rec.last.epoch + 1;
    out.detect_us = detect;
    out.resume_us = std::max(rec.max_arrival, detect);
    out.deaths = std::move(cluster_.deaths_);
    cluster_.deaths_.clear();
    std::sort(out.deaths.begin(), out.deaths.end(),
              [](const DeathRecord& a, const DeathRecord& b) {
                return a.rank != b.rank ? a.rank < b.rank : a.time_us < b.time_us;
              });
    // cluster-wide epoch reset: in-flight messages and partial reductions
    // from the aborted attempt vanish; every rank restarts from the same
    // committed checkpoint with fresh transport state
    cluster_.channels_.clear();
    auto& red = cluster_.red_;
    red.arrived = 0;
    red.width = -1;
    for (auto& slot : red.contrib) slot.clear();
    red.max_time = 0;
    red.max_rank = -1;
    std::fill(red.arrived_mask.begin(), red.arrived_mask.end(), std::uint8_t{0});
    std::fill(cluster_.terminal_.begin(), cluster_.terminal_.end(), std::uint8_t{0});
    rec.last = out;
    rec.arrived = 0;
    rec.max_arrival = 0;
    ++rec.generation;
    cluster_.sched_.wake_all();
  } else {
    for (bool again = false; !(cluster_.aborted_ || rec.generation != my_generation);
         again = true)
      cluster_.park(*this, lock, VirtualCluster::WaitTarget::recovery(), again);
    if (rec.generation == my_generation) {
      if (cluster_.abort_kind_ == VirtualCluster::AbortKind::Timeout)
        throw CommTimeout("peer rank raised CommTimeout during recovery");
      throw std::runtime_error("peer rank aborted during recovery");
    }
    out = rec.last;
  }
  clock_.now_us = std::max(clock_.now_us, out.resume_us);
  return out;
}

RankContext::SendStatus RankContext::isend(int dst, int tag, std::vector<std::byte> payload,
                                           std::int64_t modeled_bytes) {
  check_death();
  SendStatus status;
  Message m;
  m.payload = std::move(payload);
  m.modeled_bytes = modeled_bytes;

  if (faults_.enabled()) {
    const MessageFault f = faults_.next_message_fault();
    auto& counters = faults_.counters();
    if (f.stall_us > 0) {
      // transient rank stall (OS jitter, PCIe hiccup): charged before the send
      clock_.advance(f.stall_us);
      ++counters.stalls;
      counters.recovery_us += f.stall_us;
      tracer_.instant(trace::Kind::Stall, clock_.now_us, 0, dst, tag);
    }
    if (f.drop) {
      ++counters.drops;
      status.delivered = false;
    } else {
      if (f.corrupt) {
        m.corrupt = true;
        ++counters.corruptions;
        status.corrupted = true;
        if (!m.payload.empty()) {
          // real corruption: flip one bit of the payload in flight
          const std::uint64_t nbits = static_cast<std::uint64_t>(m.payload.size()) * 8;
          const std::uint64_t bit = f.corrupt_bits % nbits;
          m.payload[bit / 8] ^= std::byte{static_cast<unsigned char>(1u << (bit % 8))};
        }
      }
      if (f.delay_factor != 1.0) {
        m.delay_factor = f.delay_factor;
        ++counters.delays;
      }
    }
  }

  m.send_time_us = clock_.now_us;
  tracer_.instant(trace::Kind::Isend, m.send_time_us, modeled_bytes, dst, tag);
  if (!status.delivered) {
    // a dropped attempt never enters the channel: its timing effect reaches
    // the receiver through the retransmission's later send time
    tracer_.instant(trace::Kind::Drop, m.send_time_us, modeled_bytes, dst, tag);
  } else {
    if (m.corrupt) tracer_.instant(trace::Kind::Corrupt, m.send_time_us, modeled_bytes, dst, tag);
    bool wake = false;
    {
      core::MutexLock lock(cluster_.mutex_);
      cluster_.channels_[{rank_, dst, tag}].queue.push_back(std::move(m));
      wake = cluster_.claim_waiter(dst, VirtualCluster::WaitTarget::channel(rank_, tag));
    }
    if (wake) cluster_.sched_.wake(dst);
  }
  clock_.advance(spec_.net.mpi_overhead_us);
  return status;
}

void RankContext::post_send_failure(int dst, int tag) {
  Message m;
  m.failed = true;
  m.send_time_us = clock_.now_us;
  bool wake = false;
  {
    core::MutexLock lock(cluster_.mutex_);
    cluster_.channels_[{rank_, dst, tag}].queue.push_back(std::move(m));
    wake = cluster_.claim_waiter(dst, VirtualCluster::WaitTarget::channel(rank_, tag));
  }
  if (wake) cluster_.sched_.wake(dst);
}

void RankContext::raise_timeout(const std::string& what) {
  cluster_.poison(VirtualCluster::AbortKind::Timeout);
  throw CommTimeout(what);
}

RankContext::PendingRecv RankContext::irecv(int src, int tag) {
  check_death();
  PendingRecv p{src, tag, clock_.now_us};
  clock_.advance(spec_.net.mpi_overhead_us);
  tracer_.instant(trace::Kind::Irecv, p.post_time_us, 0, src, tag);
  return p;
}

RecvHandle RankContext::wait(PendingRecv& pending) {
  check_death();
  if (pending.consumed)
    throw std::logic_error("RankContext::wait() called twice on the same PendingRecv");
  pending.consumed = true;
  const double wait_begin_us = clock_.now_us;

  RecvHandle h;
  {
    core::MutexLock lock(cluster_.mutex_);
    auto& chan = cluster_.channels_[{pending.src, rank_, pending.tag}];
    for (bool again = false;; again = true) {
      if (!chan.queue.empty()) break;
      // Failure detector: an empty channel from a terminal (dead or
      // recovering) source can never fill -- its sends happen-before its
      // terminal marking in program order -- so the outcome is deterministic
      // even though the *wall* moment we notice is not.  The clock stays
      // untouched; detection latency is charged once, at the rendezvous.
      if (pending.src < static_cast<int>(cluster_.terminal_.size()) &&
          cluster_.terminal_[static_cast<std::size_t>(pending.src)]) {
        DeathKind kind = DeathKind::Crash;
        for (const DeathRecord& d : cluster_.deaths_)
          if (d.rank == pending.src) kind = d.kind;
        throw RankFailure("rank " + std::to_string(pending.src) +
                              " went silent while rank " + std::to_string(rank_) +
                              " was waiting on it",
                          pending.src, kind);
      }
      if (cluster_.aborted_) {
        if (cluster_.abort_kind_ == VirtualCluster::AbortKind::Timeout)
          throw CommTimeout("peer rank raised CommTimeout during recv");
        throw std::runtime_error("peer rank aborted during recv");
      }
      // park until the sender's arrival wakes us
      cluster_.park(*this, lock, VirtualCluster::WaitTarget::channel(pending.src, pending.tag),
                    again);
    }
    if (chan.queue.front().failed) {
      chan.queue.pop_front();
      lock.unlock();
      raise_timeout("sender rank " + std::to_string(pending.src) +
                    " exhausted its retry budget");
    }
    h.msg_ = std::move(chan.queue.front());
    chan.queue.pop_front();
  }
  // interconnect-aware wire time: same-node shm, one-hop IB, or the
  // cross-switch fat-tree path (flat specs reproduce the historical
  // NetworkModel::transfer_time_us bit-for-bit)
  const double path =
      spec_.path_time_us(pending.src, rank_, h.msg_.modeled_bytes) * h.msg_.delay_factor;
  h.arrival_us_ = std::max(h.msg_.send_time_us, pending.post_time_us) + path;
  clock_.now_us = std::max(clock_.now_us, h.arrival_us_);
  clock_.advance(spec_.net.mpi_overhead_us);
  if (tracer_.enabled()) {
    // the message's in-flight window on the comm track (tagged with the
    // link class it crossed), and the host-side blocking window of the wait
    // itself; the wait carries the happens-before edge back to the sender
    // (send time + network path)
    tracer_.span(trace::Kind::MsgFlight, h.msg_.send_time_us, h.arrival_us_, h.msg_.modeled_bytes,
                 pending.src, pending.tag);
    tracer_.link(static_cast<int>(spec_.link_class(pending.src, rank_)));
    tracer_.span(trace::Kind::MpiWait, wait_begin_us, clock_.now_us, h.msg_.modeled_bytes,
                 pending.src, pending.tag);
    tracer_.dep(pending.src, h.msg_.send_time_us, path);
  }
  return h;
}

RecvHandle RankContext::recv(int src, int tag) {
  PendingRecv p = irecv(src, tag);
  return wait(p);
}

void RankContext::allreduce_sum(double* values, int count) {
  check_death();
  const int n = spec_.num_ranks();
  if (n == 1) return;
  const double reduce_begin_us = clock_.now_us;

  // tree reduction: ceil(log2 N) network steps after the last rank arrives,
  // plus the switch-tree traversal surcharge on hierarchical interconnects
  // (flat specs reproduce the historical steps * step cost bit-for-bit)
  const double tree_cost = perf::allreduce_tree_cost_us(spec_);

  // raised when a terminal rank can never arrive at this generation; which
  // terminal rank we name is informational only (never fed into timing or
  // traces), so scanning the racy death set here is harmless
  auto raise_rank_failure = [&]() QUDA_REQUIRES(cluster_.mutex_) -> void {
    int failed = -1;
    for (std::size_t r = 0; r < cluster_.terminal_.size() && failed < 0; ++r)
      if (cluster_.terminal_[r] &&
          (r >= cluster_.red_.arrived_mask.size() || !cluster_.red_.arrived_mask[r]))
        failed = static_cast<int>(r);
    DeathKind kind = DeathKind::Crash;
    for (const DeathRecord& d : cluster_.deaths_)
      if (d.rank == failed) kind = d.kind;
    throw RankFailure("rank " + std::to_string(failed) +
                          " went silent during an allreduce joined by rank " +
                          std::to_string(rank_),
                      failed, kind);
  };

  core::MutexLock lock(cluster_.mutex_);
  auto& red = cluster_.red_;
  const std::int64_t my_generation = red.generation;
  if (red.arrived_mask.size() != static_cast<std::size_t>(n))
    red.arrived_mask.assign(static_cast<std::size_t>(n), 0);
  if (cluster_.reduction_blocked_by_failure()) raise_rank_failure();
  if (red.width < 0) red.width = count;
  if (red.width != count)
    throw std::logic_error("mismatched allreduce vector lengths across ranks");
  if (red.contrib.size() != static_cast<std::size_t>(n))
    red.contrib.assign(static_cast<std::size_t>(n), {});
  // park this rank's contribution in its slot; the completing arrival folds
  // the slots in rank order, so the sum never depends on arrival order
  red.contrib[static_cast<std::size_t>(rank_)].assign(values, values + count);
  red.arrived_mask[static_cast<std::size_t>(rank_)] = 1;
  // track the gating rank (argmax arrival, ties to the lowest rank so the
  // record is deterministic under any OS interleaving of equal clocks)
  if (red.arrived == 0 || clock_.now_us > red.max_time ||
      (clock_.now_us == red.max_time && rank_ < red.max_rank)) {
    red.max_time = clock_.now_us;
    red.max_rank = rank_;
  }
  if (++red.arrived == n) {
    // deterministic rank-order fold of the parked contributions
    red.result.assign(static_cast<std::size_t>(count), 0.0);
    for (int r = 0; r < n; ++r) {
      const auto& slot = red.contrib[static_cast<std::size_t>(r)];
      for (int i = 0; i < count; ++i) red.result[static_cast<std::size_t>(i)] += slot[i];
    }
    for (auto& slot : red.contrib) slot.clear();
    red.width = -1;
    red.done_time = red.max_time + tree_cost;
    red.done_gate_time = red.max_time;
    red.done_gate_rank = red.max_rank;
    red.max_time = 0;
    red.max_rank = -1;
    red.arrived = 0;
    std::fill(red.arrived_mask.begin(), red.arrived_mask.end(), std::uint8_t{0});
    ++red.generation;
    // wake exactly the ranks parked on the generation this arrival completed
    for (int r = 0; r < n; ++r)
      if (cluster_.claim_waiter(r, VirtualCluster::WaitTarget::reduction(my_generation)))
        cluster_.sched_.wake(r);
  } else {
    for (bool again = false; !(cluster_.aborted_ || red.generation != my_generation ||
                               cluster_.reduction_blocked_by_failure());
         again = true)
      cluster_.park(*this, lock, VirtualCluster::WaitTarget::reduction(my_generation), again);
    if (red.generation == my_generation) {
      // a generation that can never complete aborts with *no* collective
      // span recorded on any participant, keeping the per-rank collective
      // counts the critical-path linker cross-validates symmetric
      if (cluster_.reduction_blocked_by_failure()) raise_rank_failure();
      if (cluster_.abort_kind_ == VirtualCluster::AbortKind::Timeout)
        throw CommTimeout("peer rank raised CommTimeout during allreduce");
      throw std::runtime_error("peer rank aborted during allreduce");
    }
  }
  clock_.now_us = std::max(clock_.now_us, red.done_time);
  for (int i = 0; i < count; ++i) values[i] = red.result[static_cast<std::size_t>(i)];
  tracer_.span(trace::Kind::Allreduce, reduce_begin_us, clock_.now_us,
               static_cast<std::int64_t>(count) * 8);
  // rendezvous edge: the rank whose (latest) arrival gated this generation,
  // its arrival time, and the tree-reduction cost on top of it
  tracer_.dep(red.done_gate_rank, red.done_gate_time, tree_cost);
}

void RankContext::barrier() {
  double v = 0.0;
  allreduce_sum(&v, 1);
}

void VirtualCluster::park(RankContext& ctx, core::MutexLock& lock, const WaitTarget& target,
                          bool again) {
  SchedCounters& counters = ctx.sched_counters_;
  ++counters.parks;
  if (again) ++counters.spurious;
  WaitTarget& slot = parked_[static_cast<std::size_t>(ctx.rank())];
  slot = target;
  const bool deadlocked = sched_.park(ctx.rank(), lock);
  // a failure broadcast or the deadlock rule leaves the slot set
  slot = WaitTarget{};
  ++counters.wakes;
  if (!deadlocked) return;
  // Every rank is parked, so no operation can satisfy any wait.  The
  // lowest-ranked parked rank (this one) raises; run() records its error
  // before the poison that unblocks every other rank with CommTimeout.
  std::string what = "the recovery rendezvous";
  if (target.kind == WaitTarget::Kind::Channel)
    what = "a message from rank " + std::to_string(target.src) + " on tag " +
           std::to_string(target.tag);
  else if (target.kind == WaitTarget::Kind::Reduction)
    what = "allreduce generation " + std::to_string(target.generation);
  throw CommTimeout("simulated deadlock: every rank is parked and rank " +
                    std::to_string(ctx.rank()) + " waits for " + what);
}

bool VirtualCluster::claim_waiter(int rank, const WaitTarget& target) {
  WaitTarget& slot = parked_[static_cast<std::size_t>(rank)];
  if (slot != target) return false;
  slot = WaitTarget{};
  return true;
}

void VirtualCluster::register_death(int rank, DeathKind kind, double time_us) {
  {
    core::MutexLock lock(mutex_);
    deaths_.push_back(DeathRecord{rank, kind, time_us});
    if (rank < static_cast<int>(terminal_.size()))
      terminal_[static_cast<std::size_t>(rank)] = 1;
  }
  sched_.wake_all();
}

bool VirtualCluster::reduction_blocked_by_failure() const {
  for (std::size_t r = 0; r < terminal_.size(); ++r)
    if (terminal_[r] && (r >= red_.arrived_mask.size() || !red_.arrived_mask[r])) return true;
  return false;
}

void VirtualCluster::poison(AbortKind kind) {
  {
    core::MutexLock lock(mutex_);
    if (!aborted_) {
      aborted_ = true;
      abort_kind_ = kind;
    }
  }
  sched_.wake_all();
}

void VirtualCluster::run(const std::function<void(RankContext&)>& fn) {
  const int n = spec_.num_ranks();
  {
    core::MutexLock lock(mutex_);
    aborted_ = false;
    abort_kind_ = AbortKind::None;
    channels_.clear();
    deaths_.clear();
    terminal_.assign(static_cast<std::size_t>(n), 0);
    parked_.assign(static_cast<std::size_t>(n), WaitTarget{});
    red_.arrived = 0;
    red_.width = -1;
    for (auto& slot : red_.contrib) slot.clear();
    red_.max_time = 0;
    red_.max_rank = -1;
    red_.arrived_mask.assign(static_cast<std::size_t>(n), 0);
    recovery_ = RecoverySync{};
  }
  // tracing turns on via the spec or the QUDA_SIM_TRACE environment variable
  // (whose value doubles as the Chrome JSON export path)
  const char* env_trace = std::getenv("QUDA_SIM_TRACE");
  const bool trace_on = spec_.trace.enabled || (env_trace != nullptr && env_trace[0] != '\0');
  std::string trace_path = spec_.trace.path;
  if (trace_path.empty() && env_trace != nullptr) trace_path = env_trace;
  // telemetry mirrors the trace switch: the spec or QUDA_SIM_TELEMETRY
  // (whose value doubles as the JSONL export path)
  const char* env_telem = std::getenv("QUDA_SIM_TELEMETRY");
  const bool telemetry_on =
      spec_.telemetry.enabled || (env_telem != nullptr && env_telem[0] != '\0');
  std::string telemetry_path = spec_.telemetry.path;
  if (telemetry_path.empty() && env_telem != nullptr) telemetry_path = env_telem;

  std::vector<std::unique_ptr<RankContext>> contexts;
  contexts.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) contexts.push_back(std::make_unique<RankContext>(*this, r, spec_));
  if (trace_on)
    for (auto& c : contexts) c->tracer().set_enabled(true);
  if (telemetry_on)
    for (auto& c : contexts) c->recorder().set_enabled(true, spec_.telemetry.monitors);

  std::vector<RankContext*> rank_ptrs;
  rank_ptrs.reserve(static_cast<std::size_t>(n));
  for (auto& c : contexts) rank_ptrs.push_back(c.get());

  std::exception_ptr first_error;
  core::Mutex error_mutex;

  // The body the scheduler drives, once per rank: run fn and convert any
  // escape into cluster poison + first-error capture.  Bodies never throw
  // past the scheduler (the fiber boundary).  The scheduler binds each
  // rank's tracer as the thread-local trace::current() on every resume.
  const auto body = [&](RankContext& ctx) {
    try {
      fn(ctx);
    } catch (const CommTimeout&) {
      {
        core::MutexLock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      poison(AbortKind::Timeout);
    } catch (const RankDeath& d) {
      // a death that escapes fn means no recovery handler was installed;
      // surface it as a regular error rather than an opaque foreign type
      {
        core::MutexLock lock(error_mutex);
        if (!first_error)
          first_error = std::make_exception_ptr(std::runtime_error(
              "rank " + std::to_string(d.rank) + " died (" + death_kind_name(d.kind) +
              ") with no recovery handler installed"));
      }
      poison(AbortKind::Error);
    } catch (...) {
      {
        core::MutexLock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      poison(AbortKind::Error);
    }
  };
  sched_.run(rank_ptrs, trace_on, body);

  // fault/recovery and scheduler accounting survives even a failed run --
  // tests assert on counters after catching CommTimeout
  fault_totals_ = FaultCounters{};
  per_rank_counters_.clear();
  per_rank_counters_.reserve(static_cast<std::size_t>(n));
  sched_totals_ = SchedCounters{};
  per_rank_sched_.clear();
  per_rank_sched_.reserve(static_cast<std::size_t>(n));
  makespan_us_ = 0;
  for (auto& c : contexts) {
    per_rank_counters_.push_back(c->faults().counters());
    fault_totals_ += c->faults().counters();
    per_rank_sched_.push_back(c->sched_counters());
    sched_totals_ += c->sched_counters();
    makespan_us_ = std::max(makespan_us_, c->clock().now_us);
  }

  // the trace likewise survives a failed run (partial timelines are exactly
  // what one wants when diagnosing a CommTimeout).  An export that cannot
  // be written raises only after both reports are stored, and never in
  // place of the run's own error.
  std::string unwritten; // first export path that could not be written
  const std::string provenance = core::provenance_json(spec_);
  trace_report_ = trace::TraceReport{};
  trace_report_.enabled = trace_on;
  trace_report_.gpus_per_node = spec_.gpus_per_node;
  trace_report_.nodes_per_switch = spec_.interconnect.nodes_per_switch;
  trace_report_.provenance_json = provenance;
  if (trace_on) {
    trace_report_.per_rank.reserve(static_cast<std::size_t>(n));
    for (auto& c : contexts) trace_report_.per_rank.push_back(c->tracer().take_events());
    if (!trace_path.empty()) {
      const std::string path = trace::unique_trace_path(trace_path);
      if (!trace::write_chrome_trace(path, trace_report_)) unwritten = path;
    }
  }

  // telemetry analysis is strictly post-run (the ranks are torn down), so
  // it can never perturb simulated time; like the trace it survives a
  // failed run, and the ledger/anomalies of the partial run are exactly
  // what one wants when diagnosing it
  telemetry_report_ = telemetry::TelemetryReport{};
  if (telemetry_on) {
    std::vector<const telemetry::RankRecorder*> recorders;
    recorders.reserve(contexts.size());
    for (auto& c : contexts) recorders.push_back(&c->recorder());
    telemetry::AnalysisConfig acfg;
    acfg.monitors = spec_.telemetry.monitors;
    acfg.shm_peak_gbs = spec_.net.shm_bw_gbs;
    acfg.ib_peak_gbs = spec_.net.ib_bw_gbs;
    telemetry_report_ = telemetry::build_report(recorders, trace_report_, makespan_us_, acfg);
    if (!telemetry_path.empty()) {
      const std::string path = telemetry::unique_export_path(telemetry_path);
      if (!telemetry::write_jsonl(path, telemetry_report_, provenance) && unwritten.empty())
        unwritten = path;
    }
  }

  if (first_error) std::rethrow_exception(first_error);
  channels_.clear();
  if (!unwritten.empty()) throw std::runtime_error("cannot write export " + unwritten);
}

} // namespace quda::sim
