// perfbench driver: host-time benchmark of the simulated multi-GPU QUDA
// library.  One process measures one workload for a fixed wall-clock window
// and prints one JSON summary object as the last line of stdout:
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 times the workload's operation end to end; --trace 1 is the
// separate traced run that splits each operation into the layer calls this
// file makes (plain run, run with the library's trace + telemetry recording,
// oracle check) and reports them with the library's own per-run counts.
// Workloads, metrics and their layers are described in README.md.

#include "core/quda_api.h"
#include "dirac/clover_term.h"
#include "dirac/gauge_init.h"
#include "dirac/wilson_ref.h"
#include "parallel/modeled_solver.h"
#include "sim/event_sim.h"
#include "trace/attribution.h"
#include "trace/metrics.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

using namespace quda;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// splitmix64: every input seed of a run is derived from --seed through this
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return mix(mix(mix(seed) ^ a) ^ b) | 1; // nonzero: fault seeds reject 0
}

// linear-interpolated quantile of an unsorted sample (q in [0, 1])
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

// what one operation produced, beyond its host time.  The counts come from
// the library's own trace and are filled only by recorded runs.
struct OpResult {
  bool ok = false;
  std::string error; // why ok is false
  double iterations = 0;
  double messages = 0;
  double trace_events = 0;
  double kernel_launches = 0;
  double sim_makespan_us = 0;
  double sim_kernel_us = 0;
};

void take_trace_counts(OpResult& r, const trace::Metrics& m, const trace::CritSummary& c) {
  r.messages = static_cast<double>(m.messages);
  r.trace_events = static_cast<double>(m.events);
  for (const auto& [name, stat] : m.kernels) r.kernel_launches += static_cast<double>(stat.count);
  r.sim_makespan_us = c.makespan_us;
  r.sim_kernel_us = m.kernel_us;
}

// the critical-path oracle: the walk must tile [0, makespan] exactly and the
// unedited forward replay must reproduce the makespan bitwise
std::string critpath_error(const trace::CritSummary& c, double makespan_us) {
  if (!c.valid) return "critical path invalid: " + c.error;
  if (c.path_us != makespan_us) return "critical path length differs from makespan";
  if (c.replay_identity_us != makespan_us) return "identity replay differs from makespan";
  if (c.whatif_zero_latency_us > makespan_us || c.compute_bound_us > makespan_us)
    return "what-if projection exceeds the measured makespan";
  return "";
}

// inputs each set-up draws from the seed; operations cycle through them
constexpr std::size_t kInputs = 2;

class Workload {
public:
  virtual ~Workload() = default;
  // Build one set of inputs from `seed`, run every input once and check the
  // outputs against the oracle; throws std::runtime_error on a wrong output.
  virtual void setup(std::uint64_t seed) = 0;
  // one operation on input k; `recorded` turns on the library's trace and
  // telemetry recording.  Output is compared bitwise with the set-up run.
  virtual OpResult op(std::size_t k, bool recorded) = 0;
  // whether the end-to-end operation records (as the paper benches do)
  virtual bool e2e_recorded() const = 0;
  // oracle check of the output of the last op(); empty string = correct
  virtual std::string check() = 0;
};

// --- real-arithmetic solves through the public API --------------------------

// The solves of examples/propagator.cpp through invert_multi_gpu(), the
// library's invertQuda: mixed single/half BiCGstab (reliable updates)
// Wilson-clover solves of a point source on a seeded weak-field 8^3 x 16
// configuration, time-sliced over 2 simulated GPUs.  The seed draws the
// configuration and the source's site, spin and colour.  Fields cross the
// API in the DeGrand-Rossi basis.
class SolveWorkload final : public Workload {
public:
  SolveWorkload(LatticeDims dims, int ranks) : geom_(dims), ranks_(ranks) {
    params_.mass = 0.08;
    params_.csw = 1.2;
    params_.precision = Precision::Single;
    params_.sloppy = Precision::Half;
    params_.tol = 3e-7;
    params_.max_iter = 4000;
  }

  void setup(std::uint64_t seed) override {
    problems_.clear();
    for (std::size_t k = 0; k < kInputs; ++k) {
      Problem p{HostGaugeField(geom_), HostSpinorField(geom_), HostSpinorField(geom_), {}};
      make_weak_field_gauge(p.gauge, 0.2, derive(seed, k, 0));
      std::uint64_t r = derive(seed, k, 1);
      auto draw = [&r](int n) { return static_cast<int>((r = mix(r)) % static_cast<unsigned>(n)); };
      const LatticeDims d = geom_.dims();
      const Coords site{draw(d.x), draw(d.y), draw(d.z), draw(d.t)};
      const int spin = draw(2);
      const int color = draw(3);
      make_point_source(p.source, site, spin, color);
      p.dense_clover = make_dense_clover_term(p.gauge, params_.csw);
      problems_.push_back(std::move(p));
    }
    for (std::size_t k = 0; k < kInputs; ++k) {
      Problem& p = problems_[k];
      const InvertResult r = invert_multi_gpu(spec(false), p.gauge, p.source, p.solution, params_);
      if (!r.stats.converged) throw std::runtime_error("set-up solve did not converge");
      last_ = k;
      x_ = p.solution;
      if (const std::string err = check(); !err.empty()) throw std::runtime_error(err);
    }
  }

  bool e2e_recorded() const override { return false; }

  OpResult op(std::size_t k, bool recorded) override {
    const Problem& p = problems_[k];
    const InvertResult r = invert_multi_gpu(spec(recorded), p.gauge, p.source, x_, params_);
    last_ = k;
    OpResult out;
    out.iterations = r.stats.iterations;
    if (!r.stats.converged) {
      out.error = "solve did not converge: " + r.stats.summary();
      return out;
    }
    // the library is deterministic under either scheduler at any thread
    // budget, and recording is observationally pure: every solve of an
    // input is bitwise the same
    for (std::int64_t i = 0; i < geom_.volume(); ++i)
      if (std::memcmp(&x_[i], &p.solution[i], sizeof(x_[i])) != 0) {
        out.error = "solution differs from the set-up solve of the same input";
        return out;
      }
    if (recorded) {
      if (!r.traced) {
        out.error = "recorded solve returned no trace";
        return out;
      }
      take_trace_counts(out, r.trace_metrics, r.critpath);
      // simulated_time_us, the cluster's own clock, covers the solve phase
      // only (set-up and upload excluded), so it bounds the whole-run
      // makespan from below rather than equalling it
      if (!(r.critpath.makespan_us >= r.simulated_time_us)) {
        out.error = "critical-path makespan shorter than the solve's simulated time";
        return out;
      }
      out.error = critpath_error(r.critpath, r.critpath.makespan_us);
      if (!out.error.empty()) return out;
    }
    out.ok = true;
    return out;
  }

  // |M x - b| / |b| with the dense-clover reference operator, which shares
  // no kernel code with the solver's operator
  std::string check() override {
    const Problem& p = problems_[last_];
    HostSpinorField x_nr(geom_), mx_nr(geom_);
    for (std::int64_t i = 0; i < geom_.volume(); ++i)
      x_nr[i] = rotate_basis(params_.interface_basis, GammaBasis::NonRelativistic, x_[i]);
    WilsonParams wp;
    wp.mass = params_.mass;
    wp.time_bc = params_.time_bc;
    wp.basis = GammaBasis::NonRelativistic;
    apply_wilson_clover_ref(p.gauge, p.dense_clover, x_nr, mx_nr, wp);
    double num = 0, den = 0;
    for (std::int64_t i = 0; i < geom_.volume(); ++i) {
      const auto mx = rotate_basis(GammaBasis::NonRelativistic, params_.interface_basis, mx_nr[i]);
      num += norm2(mx - p.source[i]);
      den += norm2(p.source[i]);
    }
    const double residual = std::sqrt(num / den);
    if (!(residual < kResidualBound)) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "reference residual %.3e above %.1e", residual,
                    kResidualBound);
      return buf;
    }
    return "";
  }

private:
  static constexpr double kResidualBound = 3e-6; // 10x the solver tolerance

  struct Problem {
    HostGaugeField gauge;
    HostSpinorField source;
    HostSpinorField solution; // from the set-up solve
    DenseCloverField dense_clover;
  };

  sim::ClusterSpec spec(bool recorded) const {
    sim::ClusterSpec s = sim::ClusterSpec::jlab_9g(ranks_);
    s.trace.enabled = recorded;
    s.telemetry.enabled = recorded;
    return s;
  }

  Geometry geom_;
  int ranks_;
  InvertParams params_;
  std::vector<Problem> problems_;
  HostSpinorField x_;
  std::size_t last_ = 0;
};

// --- timing-only ("Modeled") solves at paper scale ---------------------------

// The 32-GPU single-half overlap point of bench_fig5_strong (a): 100
// iterations of the mixed single/half BiCGstab schedule on the 32^3 x 256
// production lattice through run_modeled_solver(), trace and telemetry on,
// as bench_util.h run_point() runs it.  That point is fault-free, so it has
// no input to draw; the seed instead draws which messages cross a degraded
// link (1% of messages, 8x path time), so each seed is a different
// simulated timeline of the same host work.
class ModeledWorkload final : public Workload {
public:
  ModeledWorkload(sim::ClusterSpec base, comm::GridTopology topo, int iterations)
      : base_(std::move(base)) {
    const LatticeDims global{32, 32, 32, 256};
    cfg_.local = {global.x / topo.dims[0], global.y / topo.dims[1], global.z / topo.dims[2],
                  global.t / topo.dims[3]};
    cfg_.topology = topo;
    cfg_.outer = Precision::Single;
    cfg_.sloppy = Precision::Half;
    cfg_.policy = CommPolicy::Overlap;
    cfg_.iterations = iterations;
  }

  void setup(std::uint64_t seed) override {
    specs_.clear();
    makespans_.clear();
    for (std::size_t k = 0; k < kInputs; ++k) {
      sim::ClusterSpec s = base_;
      s.faults.seed = derive(seed, k, 2);
      s.faults.delay_rate = 0.01;
      specs_.push_back(s);
      makespans_.push_back(-1);
      const OpResult plain = op(k, false);
      if (!plain.ok) throw std::runtime_error(plain.error);
      makespans_[k] = result_.time_us;
    }
    // observational purity: a recorded run has bitwise the plain run's
    // makespan (op() compares), and its trace passes the analysis oracle
    const OpResult traced = op(0, true);
    if (!traced.ok) throw std::runtime_error(traced.error);
    if (const std::string err = check(); !err.empty()) throw std::runtime_error(err);
  }

  bool e2e_recorded() const override { return true; }

  OpResult op(std::size_t k, bool recorded) override {
    sim::ClusterSpec s = specs_[k];
    s.trace.enabled = recorded;
    s.telemetry.enabled = recorded;
    cluster_ = std::make_unique<sim::VirtualCluster>(s);
    result_ = parallel::run_modeled_solver(*cluster_, cfg_);
    OpResult out;
    out.iterations = result_.iterations;
    if (!result_.fits || !(result_.time_us > 0) || !(result_.effective_gflops > 0)) {
      out.error = "modeled solve did not run";
      return out;
    }
    if (result_.iterations != cfg_.iterations) {
      out.error = "modeled solve ran a different iteration count";
      return out;
    }
    if (makespans_[k] >= 0 && result_.time_us != makespans_[k]) {
      out.error = "makespan differs from the set-up run of the same input";
      return out;
    }
    if (recorded) {
      take_trace_counts(out, result_.metrics, result_.critpath);
      out.error = critpath_error(result_.critpath, result_.time_us);
      if (!out.error.empty()) return out;
    }
    out.ok = true;
    return out;
  }

  // re-run the post-run analysis on the last run's recorded trace and
  // compare it with what the run reported
  std::string check() override {
    if (!cluster_ || !cluster_->trace().enabled) return "no recorded trace to check";
    const trace::Metrics m = trace::compute_metrics(cluster_->trace());
    const trace::CritSummary c = trace::analyze_solve(
        cluster_->trace(), trace::ModelConfig{cluster_->spec().device.dual_copy_engine});
    if (m.events != result_.metrics.events || m.messages != result_.metrics.messages)
      return "re-analysis disagrees with the run's trace metrics";
    if (c.path_us != result_.critpath.path_us) return "re-analysis disagrees on the path";
    return critpath_error(c, result_.time_us);
  }

private:
  sim::ClusterSpec base_;
  parallel::ModeledSolverConfig cfg_;
  std::vector<sim::ClusterSpec> specs_;
  std::vector<double> makespans_; // per input, from set-up's plain run (-1 during it)
  std::unique_ptr<sim::VirtualCluster> cluster_;
  parallel::ModeledSolverResult result_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "solve_2gpu") return std::make_unique<SolveWorkload>(LatticeDims{8, 8, 8, 16}, 2);
  if (name == "model_32gpu")
    return std::make_unique<ModeledWorkload>(sim::ClusterSpec::jlab_9g(32),
                                             comm::GridTopology::time_only(32), 100);
  return nullptr;
}

// --- measurement --------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val, nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      o.seconds = std::atof(val);
    } else if (key == "--trace") {
      o.trace = std::atoi(val);
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (argc % 2 != 1 || o.workload.empty() || !have_seed || !(o.seconds > 0) ||
      (o.trace != 0 && o.trace != 1))
    throw std::invalid_argument(
        "usage: perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>");
  return o;
}

// A fixed thread hand-off loop timed next to every operation.  The host's
// speed swings by up to half in phases lasting seconds to minutes (load on
// the cores it shares), and an operation slows with this loop, so their
// ratio measures the library's work with most of the machine's state
// divided out.  Both workloads pass control between OS threads all the
// time (the scheduler's rank threads, the host engine's workers), and a
// hand-off tracked their slowdowns better than a floating-point stencil
// kernel did (README.md, Noise).  It is the benchmark's own code: no change
// to the library can move it.
class HandoffReference {
public:
  HandoffReference() : partner_([this] { serve(); }) {}
  ~HandoffReference() {
    {
      std::lock_guard<std::mutex> lock(m_);
      stop_ = true;
      turn_ = 1;
    }
    cv_.notify_all();
    partner_.join();
  }

  // kRounds round trips of a turn between this thread and the partner
  double time_ms() {
    const auto t0 = Clock::now();
    for (int i = 0; i < kRounds; ++i) {
      std::unique_lock<std::mutex> lock(m_);
      turn_ = 1;
      cv_.notify_all();
      cv_.wait(lock, [this] { return turn_ == 0; });
    }
    return 1e3 * seconds_since(t0);
  }

private:
  void serve() {
    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
      cv_.wait(lock, [this] { return turn_ == 1; });
      if (stop_) return;
      turn_ = 0;
      cv_.notify_all();
    }
  }

  static constexpr int kRounds = 2000;
  std::mutex m_;
  std::condition_variable cv_;
  int turn_ = 0; // 1: the partner's move, 0: the timer's
  bool stop_ = false;
  std::thread partner_; // last member: started once the others exist
};

class Report {
public:
  void add(const char* name, double value, const char* unit) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name, value, unit);
    body_ += buf;
  }
  void print(bool correct, long attempted, long failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {%s}}\n",
                correct ? "true" : "false", attempted, failed, body_.c_str());
    std::fflush(stdout);
  }

private:
  std::string body_;
};

// set-ups per run, spread evenly over the measured window so that their
// median (setup_s) samples the machine's speed across the run, not at its
// start
constexpr std::size_t kSetups = 6;

// setup_s rescales each set-up to a machine on which one reference loop
// takes this long, about its median on the 4-vCPU Xeon (Sapphire Rapids)
// host the benchmark was tuned on, so it reads as seconds
constexpr double kRefNominalMs = 25;

int run(const Options& opt) {
  std::unique_ptr<Workload> w = make_workload(opt.workload);
  if (!w) throw std::invalid_argument("unknown workload " + opt.workload);

  HandoffReference reference;
  reference.time_ms(); // warm-up: the partner thread's first wake-ups
  double ref_before_ms = reference.time_ms();

  // Each set-up draws fresh inputs, so work a change moves into first use
  // is paid by every repetition; operations run on the latest inputs.  A
  // set-up is divided by the reference around it, like an operation.
  std::vector<double> setup_s, setup_raw_s;
  auto timed_setup = [&] {
    const auto t0 = Clock::now();
    w->setup(derive(opt.seed, 1000 + setup_s.size(), 0));
    setup_raw_s.push_back(seconds_since(t0));
    const double ref_after_ms = reference.time_ms();
    setup_s.push_back(setup_raw_s.back() * kRefNominalMs /
                      (0.5 * (ref_before_ms + ref_after_ms)));
    ref_before_ms = ref_after_ms;
  };
  timed_setup();

  long attempted = 0, failed = 0;
  std::vector<double> op_ms, op_vs_ref, run_ms, recorded_ms, check_ms;
  std::vector<OpResult> recorded_ops;
  // the window counts operation time: set-ups inside it are added back
  const auto window = Clock::now();
  double window_setups_s = 0;
  auto measured_s = [&] { return seconds_since(window) - window_setups_s; };
  for (std::size_t k = 0; measured_s() < opt.seconds; k = (k + 1) % kInputs) {
    if (setup_s.size() < kSetups &&
        measured_s() >= opt.seconds * static_cast<double>(setup_s.size()) / kSetups) {
      timed_setup();
      window_setups_s += setup_raw_s.back();
      k = 0;
    }
    ++attempted;
    std::string error;
    if (opt.trace == 0) {
      const auto t0 = Clock::now();
      const OpResult r = w->op(k, w->e2e_recorded());
      op_ms.push_back(1e3 * seconds_since(t0));
      // the machine's speed over the operation: the reference just before
      // and just after it (each sample serves two neighbouring operations)
      const double ref_after_ms = reference.time_ms();
      op_vs_ref.push_back(op_ms.back() / (0.5 * (ref_before_ms + ref_after_ms)));
      ref_before_ms = ref_after_ms;
      error = r.error;
    } else {
      // the layer calls of one operation, each timed on its own
      auto t0 = Clock::now();
      const OpResult plain = w->op(k, false);
      run_ms.push_back(1e3 * seconds_since(t0));
      t0 = Clock::now();
      const OpResult rec = w->op(k, true);
      recorded_ms.push_back(1e3 * seconds_since(t0));
      t0 = Clock::now();
      const std::string check_error = w->check();
      check_ms.push_back(1e3 * seconds_since(t0));
      error = !plain.ok ? plain.error : !rec.ok ? rec.error : check_error;
      if (rec.ok) recorded_ops.push_back(rec);
    }
    if (!error.empty()) {
      ++failed;
      std::fprintf(stderr, "perfbench: %s input %zu: %s\n", opt.workload.c_str(), k,
                   error.c_str());
    }
  }
  const double window_s = measured_s();

  Report report;
  if (opt.trace == 0) {
    report.add("op_vs_ref", quantile(op_vs_ref, 0.5), "ratio");
    report.add("op_p80_vs_ref", quantile(op_vs_ref, 0.8), "ratio");
    report.add("setup_s", quantile(setup_s, 0.5), "s");
  } else {
    auto per_op = [&](double OpResult::*field) {
      std::vector<double> v;
      for (const OpResult& r : recorded_ops) v.push_back(r.*field);
      return mean(v);
    };
    report.add("run_ms", quantile(run_ms, 0.5), "ms");
    report.add("recorded_run_ms", quantile(recorded_ms, 0.5), "ms");
    report.add("check_ms", quantile(check_ms, 0.5), "ms");
    report.add("iterations", per_op(&OpResult::iterations), "count");
    report.add("messages", per_op(&OpResult::messages), "count");
    report.add("trace_events", per_op(&OpResult::trace_events), "count");
    report.add("kernel_launches", per_op(&OpResult::kernel_launches), "count");
    report.add("sim_makespan_us", per_op(&OpResult::sim_makespan_us), "us");
    report.add("sim_kernel_us", per_op(&OpResult::sim_kernel_us), "us");
  }
  std::fprintf(stderr, "perfbench: %s seed %llu trace %d: %ld ops in %.2f s, %ld failed\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.trace,
               attempted, window_s, failed);
  if (opt.trace == 0)
    std::fprintf(stderr,
                 "perfbench: raw host time per operation: median %.3f ms, p80 %.3f ms; "
                 "per set-up: median %.4f s\n",
                 quantile(op_ms, 0.5), quantile(op_ms, 0.8), quantile(setup_raw_s, 0.5));
  report.print(failed == 0, attempted, failed);
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  // The library runs with its defaults (thread-per-rank scheduler, one host
  // worker per hardware thread) whatever the caller's environment says, and
  // no trace/telemetry/checkpoint export may write files during the run.
  for (const char* var : {"QUDA_SIM_SCHED", "QUDA_SIM_THREADS", "QUDA_SIM_MAX_RANK_THREADS",
                          "QUDA_SIM_TRACE", "QUDA_SIM_TELEMETRY", "QUDA_SIM_CKPT"})
    unsetenv(var);
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
