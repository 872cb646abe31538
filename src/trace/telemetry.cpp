#include "trace/telemetry.h"

#include "trace/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <utility>

namespace quda::telemetry {

namespace {

using trace::Interval;
using trace::interval_subtract;
using trace::interval_union;
using trace::intersection_length;
using trace::total_length;

// spread a disjoint union over fixed-width buckets as coverage fractions
void bucketize(const std::vector<Interval>& u, double bucket_us, std::vector<double>& frac) {
  if (bucket_us <= 0) return;
  const auto nb = static_cast<double>(frac.size());
  for (const Interval& iv : u) {
    double lo = iv.first / bucket_us;
    double hi = iv.second / bucket_us;
    lo = std::max(0.0, std::min(lo, nb));
    hi = std::max(0.0, std::min(hi, nb));
    for (auto b = static_cast<std::size_t>(lo); b < frac.size() && static_cast<double>(b) < hi;
         ++b) {
      const double blo = std::max(lo, static_cast<double>(b));
      const double bhi = std::min(hi, static_cast<double>(b) + 1.0);
      if (bhi > blo) frac[b] += bhi - blo;
    }
  }
}

void json_escape_into(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  json_escape_into(out, s);
  out += '"';
  return out;
}

// %.17g, with non-finite values (a diverged residual) mapped to null so
// the JSONL stays parseable
std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void put_flag_names(std::string& out, unsigned flags) {
  out += '[';
  bool first = true;
  const std::pair<unsigned, const char*> names[] = {
      {kReliableUpdate, "reliable_update"}, {kRollback, "rollback"},
      {kBreakdownRestart, "breakdown_restart"}, {kRestart, "restart"},
      {kCheckpoint, "checkpoint"}, {kRecovery, "recovery"},
  };
  for (const auto& [bit, name] : names) {
    if ((flags & bit) == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += name;
    out += '"';
  }
  out += ']';
}

void put_double_array(std::string& out, const std::vector<double>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += jnum(v[i]);
  }
  out += ']';
}

} // namespace

const char* anomaly_kind_name(AnomalyKind kind) {
  switch (kind) {
    case AnomalyKind::ResidualStagnation: return "residual_stagnation";
    case AnomalyKind::RetryStorm: return "retry_storm";
    case AnomalyKind::OverlapCollapse: return "overlap_collapse";
    case AnomalyKind::UtilizationImbalance: return "utilization_imbalance";
  }
  return "unknown";
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, v] : other.counters_) counters_[name] += v;
  // a gauge merged across ranks keeps the maximum (rank order cannot matter)
  for (const auto& [name, v] : other.gauges_) {
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
      gauges_[name] = v;
    } else {
      it->second = std::max(it->second, v);
    }
  }
  for (const auto& [name, h] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, h);
      continue;
    }
    Histogram& mine = it->second;
    if (mine.edges != h.edges) continue; // incompatible shapes never merge
    for (std::size_t i = 0; i < mine.counts.size() && i < h.counts.size(); ++i)
      mine.counts[i] += h.counts[i];
  }
  for (const auto& [name, s] : other.series_) {
    auto it = series_.find(name);
    if (it == series_.end()) {
      series_.emplace(name, s);
      continue;
    }
    TimeSeries& mine = it->second;
    if (mine.bucket_us != s.bucket_us) continue;
    if (mine.values.size() < s.values.size()) mine.values.resize(s.values.size(), 0.0);
    for (std::size_t i = 0; i < s.values.size(); ++i) mine.values[i] += s.values[i];
  }
}

// --- RankRecorder ------------------------------------------------------------

void RankRecorder::iteration(long iter, double r2, char regime) {
  if (!enabled_) return;
  IterationRecord rec;
  rec.iter = iter;
  rec.epoch = epoch_;
  rec.r2 = r2;
  rec.regime = regime;
  rec.flags = pending_flags_;
  pending_flags_ = 0;
  ledger_.push_back(rec);
  registry_.count("iterations");
  if (r2 > 0)
    registry_.histogram("iter_log10_r2", {-12.0, -9.0, -6.0, -3.0, 0.0, 3.0})
        .add(std::log10(r2));
  registry_.series("iterations_per_ms", 1000.0).add(now_us(), 1.0);
  run_monitors(ledger_.back());
}

void RankRecorder::true_residual(double r2) {
  if (!enabled_ || ledger_.empty()) return;
  ledger_.back().true_r2 = r2;
}

void RankRecorder::flag(unsigned flags) {
  if (!enabled_) return;
  if (ledger_.empty()) {
    pending_flags_ |= flags;
  } else {
    ledger_.back().flags |= flags;
  }
  if (flags & kReliableUpdate) registry_.count("reliable_updates");
  if (flags & kRollback) registry_.count("rollbacks");
  if (flags & kBreakdownRestart) registry_.count("breakdown_restarts");
  if (flags & kRestart) registry_.count("restarts");
  if (flags & kCheckpoint) registry_.count("checkpoints");
}

void RankRecorder::recovery(int epoch) {
  if (!enabled_) return;
  epoch_ = epoch;
  registry_.count("recovery_epochs");
  flag(kRecovery);
}

void RankRecorder::clear() {
  ledger_.clear();
  anomalies_.clear();
  registry_ = Registry{};
  pending_flags_ = 0;
  epoch_ = 0;
  r2_window_.clear();
  last_retries_ = retries_ != nullptr ? *retries_ : 0;
  last_event_idx_ = tracer_ != nullptr ? tracer_->events().size() : 0;
  overlap_baseline_sum_ = 0;
  overlap_baseline_n_ = 0;
}

void RankRecorder::run_monitors(const IterationRecord& rec) {
  // residual stagnation: a full window of boundaries with negligible
  // relative improvement (restarts legitimately raise r2 -- the window is
  // cleared after firing so one plateau reports once)
  if (rec.r2 >= 0) {
    r2_window_.push_back(rec.r2);
    if (static_cast<int>(r2_window_.size()) >= monitors_.stagnation_window) {
      const double first = r2_window_.front();
      const double last = r2_window_.back();
      const double rel = first > 0 ? 1.0 - last / first : 0.0;
      if (rel < monitors_.stagnation_epsilon) {
        emit(AnomalyKind::ResidualStagnation, rec.iter, rel, monitors_.stagnation_epsilon);
        r2_window_.clear();
      } else {
        r2_window_.erase(r2_window_.begin());
      }
    }
  }

  // retry storm: retransmission burst since the previous boundary
  if (retries_ != nullptr) {
    const long delta = *retries_ - last_retries_;
    last_retries_ = *retries_;
    if (delta > monitors_.retry_spike)
      emit(AnomalyKind::RetryStorm, rec.iter, static_cast<double>(delta),
           static_cast<double>(monitors_.retry_spike));
  }

  // overlap collapse: this boundary's comm/kernel overlap efficiency vs.
  // the mean of the run's own opening iterations
  if (tracer_ != nullptr && tracer_->enabled()) {
    const auto& events = tracer_->events();
    trace::RankWindows w;
    trace::Metrics since_last;
    trace::classify(std::span(events).subspan(last_event_idx_), w, since_last);
    last_event_idx_ = events.size();
    const auto cu = interval_union(std::move(w.comm));
    const double comm_us = total_length(cu);
    if (comm_us > 0) {
      const double eff = intersection_length(cu, interval_union(std::move(w.kernel))) / comm_us;
      if (overlap_baseline_n_ < monitors_.opening_iters) {
        overlap_baseline_sum_ += eff;
        ++overlap_baseline_n_;
      } else {
        const double baseline = overlap_baseline_sum_ / overlap_baseline_n_;
        if (baseline >= monitors_.min_baseline && eff < monitors_.overlap_collapse * baseline)
          emit(AnomalyKind::OverlapCollapse, rec.iter, eff, baseline);
      }
    }
  }
}

void RankRecorder::emit(AnomalyKind kind, long iter, double value, double reference) {
  Anomaly a;
  a.kind = kind;
  a.rank = rank_;
  a.iter = iter;
  a.epoch = epoch_;
  a.ts_us = now_us();
  a.value = value;
  a.reference = reference;
  anomalies_.push_back(a);
  registry_.count(std::string("anomaly.") + anomaly_kind_name(kind));
  // anomaly instants are excluded from trace::sequence_digest, so golden
  // digests survive telemetry being switched on
  if (tracer_ != nullptr)
    tracer_->instant(trace::Kind::Anomaly, now_us(), static_cast<std::int64_t>(kind), -1, -1,
                     iter);
}

// --- thread-local binding ----------------------------------------------------

namespace {
thread_local RankRecorder* t_current = nullptr; // NOLINT(sim-static-state): per-thread observational binding, never read by sim-time math
} // namespace

RankRecorder* current() { return t_current; }

ScopedRecorder::ScopedRecorder(RankRecorder* recorder) : prev_(t_current) {
  t_current = recorder;
}

ScopedRecorder::~ScopedRecorder() { t_current = prev_; }

// --- post-run analysis -------------------------------------------------------

TelemetryReport build_report(const std::vector<const RankRecorder*>& recorders,
                             const trace::TraceReport& trace, double makespan_us,
                             const AnalysisConfig& cfg) {
  TelemetryReport rep;
  rep.enabled = true;
  rep.ranks = static_cast<int>(recorders.size());
  rep.makespan_us = makespan_us;

  // merge in ascending rank order so the result is scheduler-independent
  for (const RankRecorder* r : recorders) {
    if (r == nullptr) continue;
    rep.registry.merge(r->registry());
    rep.anomalies.insert(rep.anomalies.end(), r->anomalies().begin(), r->anomalies().end());
  }
  if (!recorders.empty() && recorders.front() != nullptr) {
    rep.ledger = recorders.front()->ledger();
    for (const RankRecorder* r : recorders)
      if (r != nullptr && r->ledger().size() != rep.ledger.size()) rep.ledger_symmetric = false;
  }

  // utilization timelines from the recorded event stream (empty untraced)
  const int buckets = std::max(1, cfg.buckets);
  std::vector<double> busy_us(trace.per_rank.size(), 0.0);
  trace::Metrics totals;
  if (makespan_us > 0 && !trace.per_rank.empty()) {
    rep.bucket_us = makespan_us / buckets;
    rep.timelines.resize(trace.per_rank.size());
    for (std::size_t rank = 0; rank < trace.per_rank.size(); ++rank) {
      trace::RankWindows w;
      trace::classify(trace.per_rank[rank], w, totals);
      const auto kern_u = interval_union(std::move(w.kernel));
      const auto comm_u = interval_union(std::move(w.comm));
      RankTimeline& tl = rep.timelines[rank];
      tl.busy.assign(buckets, 0.0);
      tl.exposed_comm.assign(buckets, 0.0);
      tl.pcie.assign(buckets, 0.0);
      tl.stall.assign(buckets, 0.0);
      tl.recovery.assign(buckets, 0.0);
      bucketize(kern_u, rep.bucket_us, tl.busy);
      bucketize(interval_subtract(comm_u, kern_u), rep.bucket_us, tl.exposed_comm);
      bucketize(interval_union(std::move(w.pcie)), rep.bucket_us, tl.pcie);
      bucketize(interval_union(std::move(w.stall)), rep.bucket_us, tl.stall);
      bucketize(interval_union(std::move(w.recovery)), rep.bucket_us, tl.recovery);
      busy_us[rank] = total_length(kern_u);
    }
  }

  // load imbalance: max over ranks of total busy time / mean busy time
  double busy_sum = 0, busy_max = 0;
  std::size_t busy_argmax = 0;
  for (std::size_t rank = 0; rank < busy_us.size(); ++rank) {
    busy_sum += busy_us[rank];
    if (busy_us[rank] > busy_max) {
      busy_max = busy_us[rank];
      busy_argmax = rank;
    }
  }
  const double busy_mean = busy_us.empty() ? 0.0 : busy_sum / static_cast<double>(busy_us.size());
  rep.load_imbalance = busy_mean > 0 ? busy_max / busy_mean : 0.0;
  if (busy_mean > 0) {
    rep.registry.gauge("busy_frac.max", busy_max / makespan_us);
    rep.registry.gauge("busy_frac.mean", busy_mean / makespan_us);
    rep.registry.gauge("load_imbalance", rep.load_imbalance);
  }

  // achieved-vs-model-peak wire bandwidth (GB/s); bytes/us = 1e-3 GB/s
  const char* link_names[3] = {"shm", "ib", "xswitch"};
  const double peaks[3] = {cfg.shm_peak_gbs, cfg.ib_peak_gbs, cfg.ib_peak_gbs};
  const long bytes[3] = {totals.shm_bytes, totals.ib_bytes, totals.xswitch_bytes};
  for (std::size_t c = 0; c < 3; ++c) {
    if (totals.flight_us[c] <= 0) continue;
    rep.registry.gauge(std::string("achieved_") + link_names[c] + "_gbs",
                       static_cast<double>(bytes[c]) / totals.flight_us[c] * 1e-3);
    rep.registry.gauge(std::string("peak_") + link_names[c] + "_gbs", peaks[c]);
  }

  // post-hoc monitor: utilization imbalance beyond threshold
  if (rep.load_imbalance > cfg.monitors.imbalance_threshold) {
    Anomaly a;
    a.kind = AnomalyKind::UtilizationImbalance;
    a.rank = static_cast<int>(busy_argmax);
    a.iter = -1;
    a.ts_us = makespan_us;
    a.value = rep.load_imbalance;
    a.reference = cfg.monitors.imbalance_threshold;
    rep.anomalies.push_back(a);
    rep.registry.count(std::string("anomaly.") +
                       anomaly_kind_name(AnomalyKind::UtilizationImbalance));
  }

  return rep;
}

// --- JSONL export ------------------------------------------------------------

bool write_jsonl(const std::string& path, const TelemetryReport& report,
                 const std::string& provenance_json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string line;
  auto put = [&] {
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), f);
    line.clear();
  };

  if (!provenance_json.empty()) {
    line = "{\"type\": \"provenance\", \"provenance\": " + provenance_json + "}";
    put();
  }
  line = "{\"type\": \"run\", \"ranks\": " + std::to_string(report.ranks) +
         ", \"makespan_us\": " + jnum(report.makespan_us) +
         ", \"bucket_us\": " + jnum(report.bucket_us) +
         ", \"iterations\": " + std::to_string(report.iterations()) +
         ", \"load_imbalance\": " + jnum(report.load_imbalance) +
         ", \"anomaly_count\": " + std::to_string(report.anomaly_count()) +
         ", \"ledger_symmetric\": " + (report.ledger_symmetric ? "true" : "false") + "}";
  put();

  for (const IterationRecord& rec : report.ledger) {
    line = "{\"type\": \"iteration\", \"iter\": " + std::to_string(rec.iter) +
           ", \"epoch\": " + std::to_string(rec.epoch) + ", \"r2\": " + jnum(rec.r2) +
           ", \"true_r2\": " + jnum(rec.true_r2) + ", \"regime\": \"" + rec.regime +
           "\", \"flags\": ";
    put_flag_names(line, rec.flags);
    line += '}';
    put();
  }
  for (const Anomaly& a : report.anomalies) {
    line = std::string("{\"type\": \"anomaly\", \"kind\": \"") + anomaly_kind_name(a.kind) +
           "\", \"rank\": " + std::to_string(a.rank) + ", \"iter\": " + std::to_string(a.iter) +
           ", \"epoch\": " + std::to_string(a.epoch) + ", \"ts_us\": " + jnum(a.ts_us) +
           ", \"value\": " + jnum(a.value) + ", \"reference\": " + jnum(a.reference) + "}";
    put();
  }
  for (const auto& [name, v] : report.registry.counters()) {
    line = "{\"type\": \"counter\", \"name\": " + jstr(name) +
           ", \"value\": " + std::to_string(v) + "}";
    put();
  }
  for (const auto& [name, v] : report.registry.gauges()) {
    line = "{\"type\": \"gauge\", \"name\": " + jstr(name) + ", \"value\": " + jnum(v) + "}";
    put();
  }
  for (const auto& [name, h] : report.registry.histograms()) {
    line = "{\"type\": \"histogram\", \"name\": " + jstr(name) + ", \"edges\": ";
    put_double_array(line, h.edges);
    line += ", \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) line += ", ";
      line += std::to_string(h.counts[i]);
    }
    line += "]}";
    put();
  }
  for (const auto& [name, s] : report.registry.all_series()) {
    line = "{\"type\": \"series\", \"name\": " + jstr(name) +
           ", \"bucket_us\": " + jnum(s.bucket_us) + ", \"values\": ";
    put_double_array(line, s.values);
    line += '}';
    put();
  }
  for (std::size_t rank = 0; rank < report.timelines.size(); ++rank) {
    const RankTimeline& tl = report.timelines[rank];
    line = "{\"type\": \"timeline\", \"rank\": " + std::to_string(rank) + ", \"busy\": ";
    put_double_array(line, tl.busy);
    line += ", \"exposed_comm\": ";
    put_double_array(line, tl.exposed_comm);
    line += ", \"pcie\": ";
    put_double_array(line, tl.pcie);
    line += ", \"stall\": ";
    put_double_array(line, tl.stall);
    line += ", \"recovery\": ";
    put_double_array(line, tl.recovery);
    line += '}';
    put();
  }
  const bool write_failed = std::ferror(f) != 0;
  return std::fclose(f) == 0 && !write_failed;
}

std::string unique_export_path(const std::string& base) {
  // NOLINT(sim-static-state): process-wide export-file counter; only
  // suffixes repeat-run filenames, never read by any sim-time computation.
  // Separate from trace::unique_trace_path so telemetry exports never
  // perturb the trace/checkpoint suffix sequence existing tests pin.
  static std::atomic<int> counter{0};
  const int n = counter.fetch_add(1);
  return n == 0 ? base : base + "." + std::to_string(n);
}

} // namespace quda::telemetry
