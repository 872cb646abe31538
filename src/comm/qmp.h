#pragma once
// A QMP-flavored message-passing layer (QCD Message Passing, [22] in the
// paper) on top of the simulated cluster.  QMP is a thin convenience API
// over MPI providing logical lattice topologies and the handful of
// primitives an LQCD code needs.
//
// A QmpGrid is a 4-D logical torus of ranks (rank coordinates run x
// fastest, mirroring QMP_declare_logical_topology).  The paper's production
// configuration, a 1-D ring over time, is the grid GridTopology::
// time_only(ranks); any other grid is the multi-dimensional decomposition
// it lists as future work.  resolve_topology() is the one rule by which
// every front end turns a requested grid into the cluster's.
//
// Reliability: every grid message is framed with a 16-byte header carrying
// a per-(peer, tag) sequence number and (optionally) an FNV-1a checksum of
// the payload.  send_to() retries a lost or (with checksums enabled) a
// corrupted attempt with exponential backoff, charging the ack-timeout and
// backoff intervals to the sim clock; a sender that exhausts its budget
// raises a typed sim::CommTimeout on every rank instead of deadlocking.
// wait_receive() verifies frames, discards bad ones (counting them as
// checksum errors), and re-arms the receive for the retransmission.

#include "lattice/spinor_field.h" // PartitionMask
#include "sim/event_sim.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

namespace quda::comm {

struct GridTopology {
  std::array<int, 4> dims{1, 1, 1, 1}; // ranks per dimension

  static GridTopology time_only(int ranks) { return {{1, 1, 1, ranks}}; }

  int num_ranks() const { return dims[0] * dims[1] * dims[2] * dims[3]; }

  std::array<int, 4> coords(int rank) const {
    std::array<int, 4> c{};
    for (int mu = 0; mu < 4; ++mu) {
      c[static_cast<std::size_t>(mu)] = rank % dims[static_cast<std::size_t>(mu)];
      rank /= dims[static_cast<std::size_t>(mu)];
    }
    return c;
  }

  int rank_of(const std::array<int, 4>& c) const {
    int r = 0;
    for (int mu = 3; mu >= 0; --mu)
      r = r * dims[static_cast<std::size_t>(mu)] + c[static_cast<std::size_t>(mu)];
    return r;
  }

  bool partitioned(int mu) const { return dims[static_cast<std::size_t>(mu)] > 1; }

  PartitionMask partition_mask() const {
    return {partitioned(0), partitioned(1), partitioned(2), partitioned(3)};
  }
};

// the rank grid a front end runs on `ranks` ranks: all ones asks for the
// paper's time slicing over every rank; any other grid must hold exactly
// `ranks` ranks
inline GridTopology resolve_topology(const std::array<int, 4>& dims, int ranks) {
  if (dims == std::array<int, 4>{1, 1, 1, 1}) return GridTopology::time_only(ranks);
  const GridTopology topo{dims};
  const bool positive = std::all_of(dims.begin(), dims.end(), [](int n) { return n >= 1; });
  if (!positive || topo.num_ranks() != ranks)
    throw std::invalid_argument("rank grid does not match the cluster size");
  return topo;
}

class QmpGrid {
public:
  QmpGrid(sim::RankContext& ctx, const GridTopology& topo) : ctx_(ctx), topo_(topo) {
    if (topo.num_ranks() != ctx.size())
      throw std::invalid_argument("grid topology does not match the cluster size");
  }

  int rank() const { return ctx_.rank(); }
  int size() const { return ctx_.size(); }
  bool is_parallel() const { return size() > 1; }
  const GridTopology& topology() const { return topo_; }
  bool partitioned(int mu) const { return topo_.partitioned(mu); }

  int neighbor(int mu, int dir) const {
    auto c = topo_.coords(rank());
    const int n = topo_.dims[static_cast<std::size_t>(mu)];
    c[static_cast<std::size_t>(mu)] = (c[static_cast<std::size_t>(mu)] + (dir > 0 ? 1 : n - 1)) % n;
    return topo_.rank_of(c);
  }

  // does this rank own a global edge of dimension mu (where the fermion BC
  // phase applies -- the "extra constants" of Section VI-B)?
  bool owns_global_edge(int mu, int dir) const {
    const auto c = topo_.coords(rank());
    return dir > 0 ? c[static_cast<std::size_t>(mu)] == topo_.dims[static_cast<std::size_t>(mu)] - 1
                   : c[static_cast<std::size_t>(mu)] == 0;
  }

  // --- reliability policy ------------------------------------------------------

  void set_retry_policy(const sim::RetryPolicy& p) { policy_ = p; }

  // --- face exchange helpers ---------------------------------------------------

  // ship a byte payload to the (mu, dir) neighbor (empty payload in Modeled
  // mode -- the network model charges `modeled_bytes` either way), framed
  // and retried per the retry policy
  void send_to(int mu, int dir, int tag, std::vector<std::byte> payload,
               std::int64_t modeled_bytes) {
    send_reliable(neighbor(mu, dir), tag, std::move(payload), modeled_bytes);
  }

  sim::RankContext::PendingRecv post_receive(int mu, int dir, int tag) {
    return ctx_.irecv(neighbor(mu, dir), tag);
  }

  // Completes the receive: unframes, verifies (when checksums are enabled),
  // and waits out retransmissions of frames that arrived damaged.  May raise
  // sim::CommTimeout (no rank left to send, or a peer poisoned the run).
  std::vector<std::byte> wait_receive(sim::RankContext::PendingRecv& pending) {
    auto& counters = ctx_.faults().counters();
    auto& tracer = ctx_.tracer();
    const double recv_begin_us = ctx_.clock().now_us;
    for (;;) {
      sim::RecvHandle h = ctx_.wait(pending);
      std::vector<std::byte> frame = h.take_payload();
      if (frame.size() < kHeaderBytes)
        throw std::runtime_error("received unframed message on a framed channel");
      if (policy_.checksums) ctx_.clock().advance(checksum_cost_us(h.modeled_bytes()));

      auto& expected_seq = recv_seq_[{pending.src, pending.tag}];
      if (!policy_.checksums || (!h.corrupt() && frame_valid(frame, expected_seq))) {
        // accepted (verification disabled accepts as-is: an in-flight bit
        // flip may have landed in the header, and flagging it would be
        // detection by another name)
        const std::uint32_t seq = expected_seq++;
        frame.erase(frame.begin(), frame.begin() + kHeaderBytes);
        tracer.span(trace::Kind::RecvFrame, recv_begin_us, ctx_.clock().now_us, h.modeled_bytes(),
                    pending.src, pending.tag, seq);
        return frame;
      }
      // damaged frame: count it, drop it, and re-arm for the sender's
      // retransmission of the same sequence number
      ++counters.checksum_errors;
      tracer.instant(trace::Kind::ChecksumError, ctx_.clock().now_us, h.modeled_bytes(),
                     pending.src, pending.tag, expected_seq);
      pending = ctx_.irecv(pending.src, pending.tag);
    }
  }

  // --- process-failure tolerance ----------------------------------------------

  // Arm the heartbeat/failure detector for a new solver incarnation: the
  // rank's seeded death draw (if any) is scheduled relative to *now*, so
  // field setup is never killed and a warm-spare respawn is not condemned
  // to die again the instant it resumes.
  void arm_failure_detector() { ctx_.faults().arm_deaths(ctx_.clock().now_us); }
  void disarm_failure_detector() { ctx_.faults().disarm_deaths(); }

  // Post-recovery transport resync: the rendezvous cleared every channel,
  // so both ends of every (peer, tag) stream restart their sequence
  // numbering from zero.  Must run on all ranks at the same epoch (the
  // recovery driver calls it right after the rendezvous).
  void recovery_sync() {
    send_seq_.clear();
    recv_seq_.clear();
  }

  // --- collectives -------------------------------------------------------------

  double sum(double local) { return ctx_.allreduce_sum(local); }
  void sum(double* values, int count) { ctx_.allreduce_sum(values, count); }

  void barrier() { ctx_.barrier(); }

  sim::RankContext& context() { return ctx_; }

private:
  // 16-byte frame header: magic, sequence number, FNV-1a payload checksum
  // (zero when checksums are disabled)
  static constexpr std::size_t kHeaderBytes = 16;
  static constexpr std::uint32_t kFrameMagic = 0x51554441u; // "QUDA"

  static std::uint64_t fnv1a(const std::vector<std::byte>& data, std::size_t offset) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = offset; i < data.size(); ++i) {
      h ^= static_cast<std::uint64_t>(data[i]);
      h *= 0x100000001b3ull;
    }
    return h;
  }

  template <class T> static void put(std::vector<std::byte>& buf, std::size_t at, T v) {
    std::memcpy(buf.data() + at, &v, sizeof(T));
  }
  template <class T> static T get(const std::vector<std::byte>& buf, std::size_t at) {
    T v;
    std::memcpy(&v, buf.data() + at, sizeof(T));
    return v;
  }

  // verification cost, charged per message at the streaming checksum rate
  // (hardware CRC32C on the Nehalem hosts runs near memory bandwidth)
  double checksum_cost_us(std::int64_t modeled_bytes) const {
    return static_cast<double>(modeled_bytes) / (policy_.checksum_bw_gbs * 1e3);
  }

  bool frame_valid(const std::vector<std::byte>& frame, std::uint32_t expected_seq) const {
    if (get<std::uint32_t>(frame, 0) != kFrameMagic) return false;
    if (get<std::uint32_t>(frame, 4) != expected_seq) return false;
    return get<std::uint64_t>(frame, 8) == fnv1a(frame, kHeaderBytes);
  }

  void send_reliable(int dst, int tag, std::vector<std::byte> payload,
                     std::int64_t modeled_bytes) {
    auto& counters = ctx_.faults().counters();
    auto& tracer = ctx_.tracer();
    const double send_begin_us = ctx_.clock().now_us;
    const std::uint32_t seq = send_seq_[{dst, tag}]++;

    std::vector<std::byte> frame(kHeaderBytes + payload.size());
    if (!payload.empty())
      std::memcpy(frame.data() + kHeaderBytes, payload.data(), payload.size());
    put(frame, 0, kFrameMagic);
    put(frame, 4, seq);
    put(frame, 8, policy_.checksums ? fnv1a(frame, kHeaderBytes) : std::uint64_t{0});
    const std::int64_t framed_bytes = modeled_bytes + std::int64_t(kHeaderBytes);
    if (policy_.checksums) ctx_.clock().advance(checksum_cost_us(framed_bytes));

    // Bounded retry with exponential backoff.  The transport's SendStatus
    // tells us deterministically what would otherwise surface as an ack
    // timeout or a receiver NACK; the detection latency is what we charge
    // to the sim clock before each resend.
    double backoff = policy_.backoff_us;
    int attempts = 0;
    for (;;) {
      const auto status = ctx_.isend(dst, tag, frame, framed_bytes);
      ++attempts;
      const bool bad = !status.delivered || (policy_.checksums && status.corrupted);
      if (!bad) break;
      if (attempts > policy_.max_retries) {
        ctx_.post_send_failure(dst, tag);
        ctx_.raise_timeout("message to rank " + std::to_string(dst) + " (tag " +
                           std::to_string(tag) + ") undeliverable after " +
                           std::to_string(attempts) + " attempts");
      }
      ++counters.retries;
      const double wait_us = policy_.ack_timeout_us + backoff;
      ctx_.clock().advance(wait_us);
      counters.recovery_us += wait_us;
      backoff *= policy_.backoff_factor;
      tracer.instant(trace::Kind::Retry, ctx_.clock().now_us, framed_bytes, dst, tag, seq);
    }
    if (attempts > 1) ++counters.recovered_messages;
    tracer.span(trace::Kind::SendFrame, send_begin_us, ctx_.clock().now_us, framed_bytes, dst, tag,
                seq);
  }

  sim::RankContext& ctx_;
  GridTopology topo_;
  sim::RetryPolicy policy_{};
  std::map<std::pair<int, int>, std::uint32_t> send_seq_; // keyed (dst, tag)
  std::map<std::pair<int, int>, std::uint32_t> recv_seq_; // keyed (src, tag)
};

} // namespace quda::comm
