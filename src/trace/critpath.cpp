#include "trace/critpath.h"

#include "trace/intervals.h"

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <memory>
#include <tuple>

namespace quda::trace {

namespace {

// reconstructed device resource (stream or copy engine): its ready value and
// the op that last advanced it.  Invariant: value > 0 implies last_op >= 0.
struct ResState {
  double value = 0;
  int last_op = -1;
};

// copy-engine index for a memcpy event, mirroring Device::pick_engine
int engine_of(const Event& e, int num_engines) {
  const bool h2d = e.kind == Kind::MemcpyH2D || e.kind == Kind::MemcpyAsyncH2D;
  return num_engines == 2 ? (h2d ? 0 : 1) : 0;
}

// per-rank extraction: a pre-pass sizes the program and collects the gap
// containers, the tail end and the channel-purge times; the main pass turns
// the recorded event list into the RankProgram.  Both dispatch on each
// event's Class (trace.h).
class RankExtractor {
public:
  RankExtractor(const std::vector<Event>& events, int rank, ProgramModel& model,
                std::vector<double>& resets)
      : events_(events), rank_(rank), model_(model),
        prog_(model.ranks[static_cast<std::size_t>(rank)]), resets_(resets) {}

  void run() {
    prepass();
    for (std::size_t i = 0; i < events_.size() && model_.ok(); ++i) dispatch(i);
    if (!model_.ok()) return;
    // trailing host time not followed by an anchor (e.g. the tail of the
    // final container span): the rank's end anchor equals its final
    // simulated clock, the latest host-side end
    const double final_end = std::max(cursor_, host_end_);
    if (final_end > cursor_) prog_.tail_gap = classify(cursor_ + 0.5 * (final_end - cursor_));
    prog_.end_us = final_end;
    prog_.num_streams = static_cast<int>(streams_.size());
  }

private:
  void fail(const std::string& what) {
    if (model_.error.empty())
      model_.error = "rank " + std::to_string(rank_) + ": " + what;
  }

  // ---- pre-pass: sizes, containers, tail end, resets ------------------------

  void prepass() {
    std::size_t steps = 0, ops = 0, waits = 0, colls = 0;
    for (const Event& e : events_) {
      if (e.track < 0) host_end_ = std::max(host_end_, e.end_us);
      switch (info(e.kind).cls) {
        case Class::Reset: resets_.push_back(e.ts_us); break;
        case Class::CommFrame: comm_ivs_.emplace_back(e.ts_us, e.end_us); break;
        case Class::DeviceIssue: dev_ivs_.emplace_back(e.ts_us, e.end_us); break;
        case Class::Checkpoint:
        case Class::Recovery: rec_ivs_.emplace_back(e.ts_us, e.end_us); break;
        case Class::SyncCopy:
        case Class::AsyncCopy:
        case Class::Kernel: ++ops; ++steps; break;
        case Class::Wait: ++waits; ++steps; break;
        case Class::Collective: ++colls; ++steps; break;
        case Class::Isend:
        case Class::Irecv:
        case Class::StreamWait:
        case Class::StreamSync:
        case Class::DeviceSync: ++steps; break;
        default: break; // observational only
      }
    }
    prog_.steps.reserve(steps);
    prog_.ops.reserve(ops);
    prog_.waits.reserve(waits);
    prog_.colls.reserve(colls);
    std::sort(comm_ivs_.begin(), comm_ivs_.end());
    std::sort(dev_ivs_.begin(), dev_ivs_.end());
    std::sort(rec_ivs_.begin(), rec_ivs_.end());
  }

  // classify a gap by its midpoint; recovery containers win (nothing nests
  // inside them), then comm containers over device ones because
  // send/recv_frame nest inside halo_dslash.  Midpoints are monotonically
  // increasing, so scan pointers suffice.
  GapKind classify(double mid) {
    if (covers(rec_ivs_, rec_idx_, mid)) return GapKind::Recovery;
    if (covers(comm_ivs_, comm_idx_, mid)) return GapKind::CommOverhead;
    if (covers(dev_ivs_, dev_idx_, mid)) return GapKind::DeviceIssue;
    return GapKind::Solver;
  }

  // does a container in the sorted list `ivs` cover mid? (idx: scan pointer)
  static bool covers(const std::vector<Interval>& ivs, std::size_t& idx, double mid) {
    while (idx < ivs.size() && ivs[idx].second <= mid) ++idx;
    return idx < ivs.size() && ivs[idx].first <= mid;
  }

  // ---- main pass helpers ----------------------------------------------------

  // the host clock reaches the next step's anchor at `to`: validate and
  // classify the gap [cursor_, to] the step will carry
  bool reach(double to) {
    if (to < cursor_) {
      fail("host anchor regressed in time");
      return false;
    }
    gap_ = to > cursor_ ? classify(cursor_ + 0.5 * (to - cursor_)) : GapKind::Solver;
    return true;
  }

  // append a step reached by reach(begin); the host clock resumes at its end
  void push(StepKind kind, double begin, double end, int ref, int peer = -1, int tag = -1,
            bool dropped = false) {
    prog_.steps.push_back({.begin_us = begin,
                           .end_us = end,
                           .kind = kind,
                           .gap = gap_,
                           .dropped = dropped,
                           .peer = peer,
                           .tag = tag,
                           .ref = ref});
    cursor_ = end;
  }

  int next_step() const { return static_cast<int>(prog_.steps.size()); }
  int next_op() const { return static_cast<int>(prog_.ops.size()); }

  // size the stream table to cover the two streams an event names; false
  // (after failing) when one is not a stream index in [0, kTrackStream)
  bool claim_streams(const Event& e, int a, int b) {
    if (std::min(a, b) < 0 || std::max(a, b) >= kTrackStream) {
      fail(std::string(info(e.kind).name) + " names an invalid stream");
      return false;
    }
    if (std::max(a, b) >= static_cast<int>(streams_.size()))
      streams_.resize(static_cast<std::size_t>(std::max(a, b)) + 1);
    return true;
  }

  ResState& stream_state(int stream) { return streams_[static_cast<std::size_t>(stream)]; }

  ResState& engine_state(int engine) {
    if (engine >= static_cast<int>(engines_.size()))
      engines_.resize(static_cast<std::size_t>(engine) + 1);
    return engines_[static_cast<std::size_t>(engine)];
  }

  // ---- main pass: event dispatch --------------------------------------------

  void dispatch(std::size_t i) {
    const Event& e = events_[i];
    switch (info(e.kind).cls) {
      case Class::Isend: return on_isend(e, i);
      case Class::Irecv: return on_irecv(e);
      case Class::Wait: return on_wait(e);
      case Class::Collective: return on_collective(e);
      case Class::SyncCopy: return on_sync_copy(e);
      case Class::AsyncCopy: return on_async_copy(e);
      case Class::Kernel: return on_kernel(e);
      case Class::StreamWait: return on_stream_wait(e);
      case Class::StreamSync: return on_stream_sync(e);
      case Class::DeviceSync: return on_device_sync(e);
      case Class::Reset:
        // a recovery epoch cleared the transport channels: receives posted
        // before the reset can never be waited on again
        irecv_fifo_.clear();
        return;
      default:
        return; // containers and unmodeled events
    }
  }

  void on_isend(const Event& e, std::size_t i) {
    if (!reach(e.ts_us)) return;
    // a dropped attempt is tagged by the fault tombstone recorded right after
    const bool dropped = i + 1 < events_.size() && info(events_[i + 1].kind).cls == Class::Drop;
    push(StepKind::Isend, e.ts_us, e.ts_us, prog_.num_sends++, e.peer, e.tag, dropped);
  }

  void on_irecv(const Event& e) {
    if (!reach(e.ts_us)) return;
    irecv_fifo_[{e.peer, e.tag}].push_back(next_step());
    push(StepKind::Irecv, e.ts_us, e.ts_us, prog_.num_posts++, e.peer, e.tag);
  }

  void on_wait(const Event& e) {
    if (!reach(e.ts_us)) return;
    if (e.dep_rank < 0) return fail("mpi_wait without a sender edge");
    if (e.dep_rank >= static_cast<int>(model_.ranks.size()))
      return fail("mpi_wait sender is outside the run");
    auto& q = irecv_fifo_[{e.peer, e.tag}];
    if (q.empty()) return fail("mpi_wait without a posted irecv");
    WaitEdge w;
    w.send_ts_us = e.dep_ts_us;
    w.path_us = e.edge_us;
    w.irecv_step = q.front();
    w.match_rank = e.dep_rank;
    q.pop_front();
    // bitwise recomputation of the recorded arrival gate
    const double post = prog_.steps[static_cast<std::size_t>(w.irecv_step)].begin_us;
    const double arrival = std::max(w.send_ts_us, post) + w.path_us;
    w.tail_us = e.end_us - std::max(e.ts_us, arrival);
    if (w.tail_us < 0) return fail("mpi_wait ended before its recomputed arrival");
    push(StepKind::Wait, e.ts_us, e.end_us, static_cast<int>(prog_.waits.size()), e.peer,
         e.tag);
    prog_.waits.push_back(w);
  }

  void on_collective(const Event& e) {
    if (!reach(e.ts_us)) return;
    if (e.dep_rank < 0 || e.dep_rank >= static_cast<int>(model_.ranks.size()))
      return fail("allreduce without a rendezvous edge");
    const int k = static_cast<int>(prog_.colls.size());
    prog_.colls.push_back({.gate_ts_us = e.dep_ts_us,
                           .tree_us = e.edge_us,
                           .gate_rank = e.dep_rank,
                           .step = next_step()});
    push(StepKind::Collective, e.ts_us, e.end_us, k);
  }

  void on_sync_copy(const Event& e) {
    const double issue = e.dep_ts_us;
    if (issue < 0) return fail("sync copy without an issue anchor");
    if (!reach(issue)) return;
    ResState& eng = engine_state(engine_of(e, model_.num_engines));
    const double gate = std::max(issue, eng.value);
    if (e.ts_us != gate) return fail("sync copy start does not match its engine gate");
    DeviceOp op;
    op.kind = e.kind;
    op.engine = engine_of(e, model_.num_engines);
    op.issue_us = issue;
    op.gate_us = gate;
    op.start_us = e.ts_us;
    op.end_us = e.end_us;
    op.pred_op = (eng.last_op >= 0 && eng.value == gate) ? eng.last_op : -1;
    if (op.pred_op < 0 && gate != issue) return fail("sync copy gated by an untracked engine");
    op.issue_step = next_step();
    const int oi = next_op();
    prog_.ops.push_back(op);
    eng.value = e.end_us;
    eng.last_op = oi;
    push(StepKind::SyncCopy, issue, e.end_us, oi);
  }

  void on_async_copy(const Event& e) {
    const double issue = e.dep_ts_us;
    if (issue < 0) return fail("async copy without an issue anchor");
    if (!reach(issue) || !claim_streams(e, e.track, e.track)) return;
    ResState& st = stream_state(e.track);
    ResState& eng = engine_state(engine_of(e, model_.num_engines));
    const double gate = std::max({issue, st.value, eng.value});
    if (e.ts_us != gate) return fail("async copy start does not match its gate");
    DeviceOp op;
    op.kind = e.kind;
    op.stream = e.track;
    op.engine = engine_of(e, model_.num_engines);
    op.issue_us = issue;
    op.gate_us = gate;
    op.start_us = e.ts_us;
    op.end_us = e.end_us;
    if (st.last_op >= 0 && st.value == gate)
      op.pred_op = st.last_op;
    else if (eng.last_op >= 0 && eng.value == gate)
      op.pred_op = eng.last_op;
    else
      op.pred_op = -1;
    if (op.pred_op < 0 && gate != issue) return fail("async copy gated by an untracked resource");
    op.issue_step = next_step();
    const int oi = next_op();
    prog_.ops.push_back(op);
    st.value = e.end_us;
    st.last_op = oi;
    eng.value = e.end_us;
    eng.last_op = oi;
    push(StepKind::AsyncCopy, issue, issue, oi);
  }

  void on_kernel(const Event& e) {
    const double issue = e.dep_ts_us;
    if (issue < 0) return fail("kernel without an issue anchor");
    if (!reach(issue) || !claim_streams(e, e.track, e.track)) return;
    ResState& st = stream_state(e.track);
    const double gate = std::max(issue, st.value);
    if (e.ts_us < gate) return fail("kernel started before its stream gate");
    DeviceOp op;
    op.kind = e.kind;
    op.stream = e.track;
    op.issue_us = issue;
    op.gate_us = gate;
    op.start_us = e.ts_us; // gate + launch overhead
    op.end_us = e.end_us;
    op.pred_op = (st.last_op >= 0 && st.value == gate) ? st.last_op : -1;
    if (op.pred_op < 0 && gate != issue) return fail("kernel gated by an untracked stream");
    op.issue_step = next_step();
    const int oi = next_op();
    prog_.ops.push_back(op);
    st.value = e.end_us;
    st.last_op = oi;
    push(StepKind::Kernel, issue, issue, oi);
  }

  void on_stream_wait(const Event& e) {
    const int waiter = e.track;
    const int waitee = e.tag;
    if (!reach(e.ts_us) || !claim_streams(e, waiter, waitee)) return;
    ResState& src = stream_state(waitee);
    if (src.value != e.dep_ts_us) return fail("stream_wait source value mismatch");
    ResState& dst = stream_state(waiter);
    if (e.dep_ts_us > dst.value) {
      dst.value = e.dep_ts_us;
      dst.last_op = src.last_op;
    }
    push(StepKind::StreamWait, e.ts_us, e.ts_us, -1, waiter, waitee);
  }

  void on_stream_sync(const Event& e) {
    const int stream = e.tag;
    if (!reach(e.ts_us) || !claim_streams(e, stream, stream)) return;
    int pred = -1;
    if (e.end_us > e.ts_us) {
      const ResState& st = stream_state(stream);
      if (st.value != e.end_us || st.last_op < 0)
        return fail("stream_sync end does not match the stream's last op");
      pred = st.last_op;
    }
    push(StepKind::StreamSync, e.ts_us, e.end_us, pred, -1, stream);
  }

  void on_device_sync(const Event& e) {
    if (!reach(e.ts_us)) return;
    int pred = -1;
    if (e.end_us > e.ts_us) {
      for (const ResState& st : streams_)
        if (st.value == e.end_us && st.last_op >= 0) pred = st.last_op;
      if (pred < 0)
        for (const ResState& eng : engines_)
          if (eng.value == e.end_us && eng.last_op >= 0) pred = eng.last_op;
      if (pred < 0) return fail("device_sync end does not match any device resource");
    }
    push(StepKind::DeviceSync, e.ts_us, e.end_us, pred);
  }

  const std::vector<Event>& events_;
  const int rank_;
  ProgramModel& model_;
  RankProgram& prog_;
  std::vector<double>& resets_; // recovery_reset times, all ranks
  double cursor_ = 0;   // host clock after the last step
  double host_end_ = 0; // latest end of any host-side event
  GapKind gap_ = GapKind::Solver; // class of the gap before the next step
  std::vector<Interval> comm_ivs_, dev_ivs_, rec_ivs_;
  std::size_t comm_idx_ = 0, dev_idx_ = 0, rec_idx_ = 0;
  std::vector<ResState> streams_, engines_;
  std::map<std::pair<int, int>, std::deque<int>> irecv_fifo_; // (src, tag)
};

// match every Wait to its sender's Isend: FIFO per (src, dst, tag) channel,
// dropped attempts excluded (the transport skips their tombstones).  Every
// recovery_reset instant marks a cluster-wide channel purge at that sim
// time (identical on all ranks), so a wait only matches sends posted since
// the last reset preceding it -- earlier unconsumed sends died with the
// failure epoch.
void link_channels(ProgramModel& model, const std::vector<double>& resets) {
  struct Fifo {
    std::vector<int> steps; // the channel's Isend steps in send order
    std::size_t head = 0;   // first one not yet matched or purged
  };
  std::map<std::tuple<int, int, int>, Fifo> sends;
  for (std::size_t r = 0; r < model.ranks.size(); ++r) {
    const auto& steps = model.ranks[r].steps;
    for (std::size_t i = 0; i < steps.size(); ++i)
      if (steps[i].kind == StepKind::Isend && !steps[i].dropped)
        sends[{static_cast<int>(r), steps[i].peer, steps[i].tag}].steps.push_back(
            static_cast<int>(i));
  }
  for (std::size_t r = 0; r < model.ranks.size(); ++r) {
    RankProgram& prog = model.ranks[r];
    for (const Step& s : prog.steps) {
      if (s.kind != StepKind::Wait) continue;
      WaitEdge& w = prog.waits[static_cast<std::size_t>(s.ref)];
      if (w.match_rank != s.peer) {
        model.error = "mpi_wait edge names a rank other than its channel peer";
        return;
      }
      Fifo& q = sends[{s.peer, static_cast<int>(r), s.tag}];
      // purge sends that predate the last reset at-or-before this wait
      const auto reset = std::upper_bound(resets.begin(), resets.end(), s.begin_us);
      if (reset != resets.begin()) {
        const double purge_before = *(reset - 1);
        const auto& sender = model.ranks[static_cast<std::size_t>(s.peer)].steps;
        while (q.head < q.steps.size() &&
               sender[static_cast<std::size_t>(q.steps[q.head])].begin_us < purge_before)
          ++q.head;
      }
      if (q.head == q.steps.size()) {
        model.error = "mpi_wait without a matching isend on its channel";
        return;
      }
      const int si = q.steps[q.head++];
      const Step& snd =
          model.ranks[static_cast<std::size_t>(s.peer)].steps[static_cast<std::size_t>(si)];
      if (snd.begin_us != w.send_ts_us) {
        model.error = "matched isend time differs from the recorded send edge";
        return;
      }
      w.match_step = si;
      w.match_send = snd.ref;
    }
  }
}

// cross-validate the rendezvous edges: every rank saw the same number of
// collectives, and generation k's gate rank reached its k-th collective at
// exactly the recorded gate time
void link_collectives(ProgramModel& model) {
  const std::size_t count = model.ranks.empty() ? 0 : model.ranks[0].colls.size();
  for (const RankProgram& prog : model.ranks)
    if (prog.colls.size() != count) {
      model.error = "ranks disagree on the number of collectives";
      return;
    }
  model.num_collectives = count;
  for (std::size_t k = 0; k < count; ++k) {
    for (const RankProgram& prog : model.ranks) {
      const CollEdge& c = prog.colls[k];
      const RankProgram& gate = model.ranks[static_cast<std::size_t>(c.gate_rank)];
      const Step& g = gate.steps[static_cast<std::size_t>(gate.colls[k].step)];
      if (g.begin_us != c.gate_ts_us) {
        model.error = "collective gate time differs from the gate rank's arrival";
        return;
      }
    }
  }
}

} // namespace

ProgramModel build_model(const TraceReport& report, const ModelConfig& config) {
  ProgramModel model;
  model.num_engines = config.dual_copy_engine ? 2 : 1;
  if (!report.enabled || report.per_rank.empty()) {
    model.error = "trace is empty or was not enabled";
    return model;
  }
  model.ranks.resize(report.per_rank.size());
  // cluster-wide channel-purge times (one per recovery epoch; every rank
  // records the same set, the union is just belt and braces)
  std::vector<double> resets;
  for (std::size_t r = 0; r < report.per_rank.size(); ++r) {
    RankExtractor(report.per_rank[r], static_cast<int>(r), model, resets).run();
    if (!model.ok()) return model;
  }
  std::sort(resets.begin(), resets.end());
  resets.erase(std::unique(resets.begin(), resets.end()), resets.end());
  link_channels(model, resets);
  if (!model.ok()) return model;
  link_collectives(model);
  return model;
}

CriticalPath critical_path(const ProgramModel& model) {
  CriticalPath cp;
  if (!model.ok()) {
    cp.error = model.error;
    return cp;
  }
  if (model.ranks.empty()) {
    cp.error = "empty model";
    return cp;
  }

  int r = 0;
  long total_steps = 0;
  for (std::size_t i = 0; i < model.ranks.size(); ++i) {
    if (model.ranks[i].end_us > model.ranks[static_cast<std::size_t>(r)].end_us)
      r = static_cast<int>(i);
    total_steps += static_cast<long>(model.ranks[i].steps.size()) +
                   static_cast<long>(model.ranks[i].ops.size());
  }
  cp.critical_rank = r;
  cp.makespan_us = model.ranks[static_cast<std::size_t>(r)].end_us;

  auto prog = [&]() -> const RankProgram& { return model.ranks[static_cast<std::size_t>(r)]; };
  long safety = 4 * total_steps + 64;

  auto emit = [&](SegKind kind, double begin, double end, GapKind gap = GapKind::Solver,
                  Kind op = Kind::Kernel) {
    if (end > begin) cp.segments.push_back({r, kind, gap, op, begin, end});
  };

  // the rank's tail gap first: from its last step's end to its final clock
  int i = static_cast<int>(prog().steps.size());
  double t = prog().gap_begin_us(static_cast<std::size_t>(i));
  emit(SegKind::HostGap, t, cp.makespan_us, prog().tail_gap);
  --i;

  // the walk reached step i's begin anchor: emit the host gap before it and
  // continue at the previous step, aligned with its end
  auto leave = [&]() -> bool {
    const Step& s = prog().steps[static_cast<std::size_t>(i)];
    if (t != s.begin_us) return false;
    t = prog().gap_begin_us(static_cast<std::size_t>(i));
    emit(SegKind::HostGap, t, s.begin_us, s.gap);
    --i;
    return true;
  };

  // descend a device chain: t == ops[oi].end_us on entry; exits back to the
  // host walk at the first host-gated op's issue anchor
  auto descend = [&](int oi) -> bool {
    for (;;) {
      const DeviceOp& op = prog().ops[static_cast<std::size_t>(oi)];
      if (t != op.end_us) return false;
      emit(info(op.kind).cls == Class::Kernel ? SegKind::KernelExec : SegKind::CopyExec,
           op.start_us, op.end_us, GapKind::Solver, op.kind);
      emit(SegKind::LaunchGap, op.gate_us, op.start_us);
      t = op.gate_us;
      if (op.pred_op >= 0) {
        oi = op.pred_op;
        continue;
      }
      // host-gated: gate == issue (build_model validated), resume the host
      // walk at the issuing step's begin anchor
      t = op.issue_us;
      i = op.issue_step;
      return true;
    }
  };

  // one step of the walk back from step i (t == its end); nullptr or error
  auto step_back = [&]() -> const char* {
    const Step& s = prog().steps[static_cast<std::size_t>(i)];
    if (t != s.end_us) return "critical-path walk lost anchor alignment";
    bool aligned = true;
    switch (s.kind) {
      case StepKind::Isend:
      case StepKind::Irecv:
      case StepKind::Kernel:
      case StepKind::AsyncCopy:
      case StepKind::StreamWait:
        aligned = leave(); // zero-width anchors
        break;
      case StepKind::Wait: {
        const WaitEdge& w = prog().waits[static_cast<std::size_t>(s.ref)];
        const double post = prog().steps[static_cast<std::size_t>(w.irecv_step)].begin_us;
        const double arrival = std::max(w.send_ts_us, post) + w.path_us;
        emit(SegKind::CommTail, std::max(s.begin_us, arrival), s.end_us);
        if (arrival > s.begin_us) {
          emit(SegKind::MsgFlight, std::max(w.send_ts_us, post), arrival);
          if (w.send_ts_us >= post) {
            // the sender gated the arrival: hop to its isend anchor
            r = w.match_rank;
            i = w.match_step;
            t = w.send_ts_us;
            ++cp.cross_rank_jumps;
          } else {
            // our late irecv gated it: continue locally at the post anchor
            i = w.irecv_step;
            t = post;
          }
        } else {
          t = s.begin_us;
          aligned = leave();
        }
        break;
      }
      case StepKind::Collective: {
        const CollEdge& c = prog().colls[static_cast<std::size_t>(s.ref)];
        emit(SegKind::CollectiveTree, c.gate_ts_us, s.end_us);
        t = c.gate_ts_us;
        if (c.gate_rank != r) {
          // resume at the gate rank's arrival at the same generation
          r = c.gate_rank;
          i = prog().colls[static_cast<std::size_t>(s.ref)].step;
          ++cp.cross_rank_jumps;
        } // else: gate == begin, this rank arrived last
        aligned = leave();
        break;
      }
      case StepKind::SyncCopy:
        if (!descend(s.ref)) return "device chain walk lost alignment";
        aligned = leave();
        break;
      case StepKind::StreamSync:
      case StepKind::DeviceSync:
        if (s.end_us == s.begin_us) {
          aligned = leave();
        } else if (s.ref >= 0) {
          if (!descend(s.ref)) return "device chain walk lost alignment";
          aligned = leave();
        } else {
          emit(SegKind::SyncStall, s.begin_us, s.end_us);
          t = s.begin_us;
          aligned = leave();
        }
        break;
    }
    return aligned ? nullptr : "critical-path walk lost anchor alignment";
  };

  while (i >= 0) {
    const char* error = --safety < 0 ? "critical-path walk did not terminate" : step_back();
    if (error != nullptr) {
      cp.error = error;
      cp.walk_end_us = t;
      return cp;
    }
  }

  cp.walk_end_us = t;
  cp.path_us = cp.makespan_us - t;
  cp.ok = t == 0.0;
  if (!cp.ok) cp.error = "walk stopped short of time zero";
  return cp;
}

namespace {

// replay lanes: the identity and the three standard what-if projections.
// The overlap lane is last, so lanes [0, kOverlapLane) are the ones whose
// host blocks on comm and device completion.
constexpr int kLanes = 4;
constexpr int kOverlapLane = kLanes - 1; // host never blocks on comm or device completion
constexpr double kNetScale[kLanes] = {1.0, 0.0, 1.0, 1.0};  // flight + tree factor
constexpr double kPcieScale[kLanes] = {1.0, 1.0, 0.0, 1.0}; // transfer duration factor
using Lanes = std::array<double, kLanes>;

} // namespace

Projections replay(const ProgramModel& model) {
  Projections res;
  if (!model.ok()) {
    res.error = model.error;
    return res;
  }
  const std::size_t n = model.ranks.size();

  struct RankState {
    std::size_t pc = 0;
    bool arrived = false; // at steps[pc]: gap charged (and rendezvous joined)
    Lanes cursor{};
    std::vector<Lanes> streams, engines;
    std::unique_ptr<Lanes[]> sends, posts; // replayed anchors by ordinal
  };
  std::vector<RankState> st(n);
  for (std::size_t r = 0; r < n; ++r) {
    const RankProgram& prog = model.ranks[r];
    st[r].streams.assign(static_cast<std::size_t>(std::max(prog.num_streams, 1)), Lanes{});
    st[r].engines.assign(static_cast<std::size_t>(model.num_engines), Lanes{});
    st[r].sends = std::make_unique_for_overwrite<Lanes[]>(static_cast<std::size_t>(prog.num_sends));
    st[r].posts = std::make_unique_for_overwrite<Lanes[]>(static_cast<std::size_t>(prog.num_posts));
  }

  struct CollState {
    int arrived = 0;
    Lanes maxv{};
    Lanes done_t{};
  };
  std::vector<CollState> colls(model.num_collectives);

  for (;;) {
    bool progress = false;
    bool all_done = true;
    for (std::size_t r = 0; r < n; ++r) {
      RankState& rs = st[r];
      Lanes& cur = rs.cursor;
      const RankProgram& prog = model.ranks[r];
      while (rs.pc < prog.steps.size()) {
        const Step& s = prog.steps[rs.pc];
        if (!rs.arrived) {
          // first arrival: the local host gap before the step, charged once
          const double gap = s.begin_us - prog.gap_begin_us(rs.pc);
          for (double& c : cur) c += gap;
          if (s.kind == StepKind::Collective) {
            CollState& c = colls[static_cast<std::size_t>(s.ref)];
            for (int l = 0; l < kLanes; ++l)
              c.maxv[l] = c.arrived == 0 ? cur[l] : std::max(c.maxv[l], cur[l]);
            if (++c.arrived == static_cast<int>(n)) {
              const double tree = prog.colls[static_cast<std::size_t>(s.ref)].tree_us;
              for (int l = 0; l < kLanes; ++l) c.done_t[l] = c.maxv[l] + tree * kNetScale[l];
            }
          }
          rs.arrived = true;
          progress = true;
        }
        bool blocked = false;
        switch (s.kind) {
          case StepKind::Isend:
            rs.sends[static_cast<std::size_t>(s.ref)] = cur;
            break;
          case StepKind::Irecv:
            rs.posts[static_cast<std::size_t>(s.ref)] = cur;
            break;
          case StepKind::Wait: {
            const WaitEdge& w = prog.waits[static_cast<std::size_t>(s.ref)];
            const RankState& sender = st[static_cast<std::size_t>(w.match_rank)];
            if (sender.pc <= static_cast<std::size_t>(w.match_step)) {
              blocked = true; // not sent yet
              break;
            }
            const Lanes& snd = sender.sends[static_cast<std::size_t>(w.match_send)];
            const Lanes& post =
                rs.posts[static_cast<std::size_t>(prog.steps[static_cast<std::size_t>(w.irecv_step)].ref)];
            for (int l = 0; l < kOverlapLane; ++l)
              cur[l] = std::max(cur[l], std::max(snd[l], post[l]) + w.path_us * kNetScale[l]) +
                       w.tail_us;
            cur[kOverlapLane] += w.tail_us; // comm fully hidden: only the local tail
            break;
          }
          case StepKind::Collective: {
            const CollState& c = colls[static_cast<std::size_t>(s.ref)];
            if (c.arrived < static_cast<int>(n)) {
              blocked = true;
              break;
            }
            for (int l = 0; l < kLanes; ++l) cur[l] = std::max(cur[l], c.done_t[l]);
            break;
          }
          case StepKind::SyncCopy: {
            const DeviceOp& op = prog.ops[static_cast<std::size_t>(s.ref)];
            Lanes& eng = rs.engines[static_cast<std::size_t>(op.engine)];
            for (int l = 0; l < kLanes; ++l)
              eng[l] = std::max(cur[l], eng[l]) + (op.end_us - op.start_us) * kPcieScale[l];
            for (int l = 0; l < kOverlapLane; ++l) cur[l] = eng[l];
            break;
          }
          case StepKind::AsyncCopy: {
            const DeviceOp& op = prog.ops[static_cast<std::size_t>(s.ref)];
            Lanes& eng = rs.engines[static_cast<std::size_t>(op.engine)];
            Lanes& str = rs.streams[static_cast<std::size_t>(op.stream)];
            for (int l = 0; l < kLanes; ++l)
              eng[l] = str[l] =
                  std::max({cur[l], eng[l], str[l]}) + (op.end_us - op.start_us) * kPcieScale[l];
            break;
          }
          case StepKind::Kernel: {
            const DeviceOp& op = prog.ops[static_cast<std::size_t>(s.ref)];
            Lanes& str = rs.streams[static_cast<std::size_t>(op.stream)];
            for (int l = 0; l < kLanes; ++l) // start after the launch overhead
              str[l] = std::max(cur[l], str[l]) + (op.start_us - op.gate_us) +
                       (op.end_us - op.start_us);
            break;
          }
          case StepKind::StreamSync: {
            const Lanes& str = rs.streams[static_cast<std::size_t>(s.tag)];
            for (int l = 0; l < kOverlapLane; ++l) cur[l] = std::max(cur[l], str[l]);
            break;
          }
          case StepKind::DeviceSync:
            for (int l = 0; l < kOverlapLane; ++l) {
              for (const Lanes& v : rs.streams) cur[l] = std::max(cur[l], v[l]);
              for (const Lanes& v : rs.engines) cur[l] = std::max(cur[l], v[l]);
            }
            break;
          case StepKind::StreamWait: {
            Lanes& waiter = rs.streams[static_cast<std::size_t>(s.peer)];
            const Lanes& waitee = rs.streams[static_cast<std::size_t>(s.tag)];
            for (int l = 0; l < kLanes; ++l) waiter[l] = std::max(waiter[l], waitee[l]);
            break;
          }
        }
        if (blocked) break;
        ++rs.pc;
        rs.arrived = false;
      }
      if (rs.pc < prog.steps.size()) all_done = false;
    }
    if (all_done) break;
    if (!progress) {
      res.error = "replay deadlocked";
      return res;
    }
  }

  Lanes makespan{};
  for (std::size_t r = 0; r < n; ++r) {
    const RankProgram& prog = model.ranks[r];
    const double tail = prog.end_us - prog.gap_begin_us(prog.steps.size());
    for (int l = 0; l < kLanes; ++l) {
      double end = st[r].cursor[l] + tail;
      for (const Lanes& v : st[r].streams) end = std::max(end, v[l]);
      for (const Lanes& v : st[r].engines) end = std::max(end, v[l]);
      makespan[l] = std::max(makespan[l], end);
    }
  }
  res.identity_us = makespan[0];
  res.zero_latency_us = makespan[1];
  res.free_pcie_us = makespan[2];
  res.infinite_overlap_us = makespan[kOverlapLane];
  res.ok = true;
  return res;
}

double compute_bound_us(const ProgramModel& model) {
  double bound = 0;
  for (const RankProgram& prog : model.ranks) {
    std::vector<double> per_stream(static_cast<std::size_t>(std::max(prog.num_streams, 1)), 0.0);
    for (const DeviceOp& op : prog.ops)
      if (info(op.kind).cls == Class::Kernel)
        per_stream[static_cast<std::size_t>(op.stream)] += op.end_us - op.start_us;
    for (double v : per_stream) bound = std::max(bound, v);
  }
  return bound;
}

} // namespace quda::trace
