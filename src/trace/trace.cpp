#include "trace/trace.h"

namespace quda::trace {

namespace {

thread_local RankTracer* t_current = nullptr;

inline std::uint64_t fnv1a_step(std::uint64_t h, std::uint64_t v) {
  // fold 8 bytes, low byte first, through the standard FNV-1a round
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffull;
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::uint64_t fnv1a_str(std::uint64_t h, const char* s) {
  for (; *s != '\0'; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 0x100000001b3ull;
  }
  return h;
}

} // namespace

const char* cat_name(Cat cat) {
  switch (cat) {
    case Cat::Kernel: return "kernel";
    case Cat::Copy: return "copy";
    case Cat::Sync: return "sync";
    case Cat::Comm: return "comm";
    case Cat::Collective: return "collective";
    case Cat::Solver: return "solver";
    case Cat::Fault: return "fault";
    case Cat::Op: return "op";
  }
  return "unknown";
}

RankTracer* current() { return t_current; }

ScopedTracer::ScopedTracer(RankTracer* tracer) : prev_(t_current) { t_current = tracer; }
ScopedTracer::~ScopedTracer() { t_current = prev_; }

std::uint64_t sequence_digest(const std::vector<Event>& events) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Event& e : events) {
    // anomaly instants are telemetry-layer observations, not pipeline
    // structure: excluded (like timestamps) so golden digests are
    // bit-identical with telemetry on or off
    if (e.kind == Kind::Anomaly) continue;
    const KindInfo& k = info(e.kind);
    h = fnv1a_str(h, k.name);
    h = fnv1a_step(h, static_cast<std::uint64_t>(k.cat));
    h = fnv1a_step(h, k.instant ? 1u : 0u);
    h = fnv1a_step(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(e.track)));
    h = fnv1a_step(h, static_cast<std::uint64_t>(e.bytes));
    h = fnv1a_step(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(e.peer)));
    h = fnv1a_step(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(e.tag)));
    h = fnv1a_step(h, static_cast<std::uint64_t>(e.seq));
  }
  return h;
}

} // namespace quda::trace
