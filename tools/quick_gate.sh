#!/usr/bin/env bash
# Quick gate for the edit-compile-test loop (CI runs the full suite):
#   1. configure + build;
#   2. static analysis: tools/static_check.py (per-file determinism &
#      lock-discipline rules) and tools/semantic_check.py (cross-TU layer
#      DAG, wall-clock taint, RankDeath exception discipline, fiber-stack
#      budget, bench/gate schema), each with its seeded-violation
#      self-test; a failure prints the offending file:line rule table and
#      a one-line per-rule summary ("<tool>: rule summary -- rule:count");
#   3. the fast test subset (ctest -LE slow); under --sanitize address also
#      the slow Real-mode scheduler-equivalence and telemetry suites, whose
#      fibers run on one worker and on one per rank.  The subset holds the
#      checks no later step repeats: the trace acceptance test that exports
#      a fig5-sized Chrome trace, the 256-rank golden (SeqGolden.*, with the
#      flight recorder on in-spec; it leaves its trace and telemetry
#      exports in $BUILD/tests), the link-reconstruction tests, the
#      run-report renderer's self-test (Report.selftest), and the perf gate:
#      ctest BenchBaseline.<name>_run/_diff rerun each bench behind
#      bench/baselines/ and diff its BENCH JSON against the committed file
#      with tools/bench_diff.py, failing when any gated modeled metric
#      (time, gflops, critical path, ...) differs at all -- the exact
#      default of bench_diff, which prints the per-category attribution of
#      every changed point (fig4's and the full fig5 sweep's pairs are
#      labelled slow);
#   4. trace-lint every file that acceptance run produced against
#      tools/trace_schema.json;
#   5. crash-recovery smoke: a seeded mid-solve rank crash must be detected,
#      rolled back to the last committed checkpoint, and still converge; its
#      exported trace must satisfy the recovery pairing rules
#      (rank_failure -> rollback, checkpoint -> ckpt_commit/ckpt_abort);
#   6. flight-recorder smoke: the 256-rank golden's exported trace passes
#      the link-class and topology rules of tools/trace_schema.json, and
#      tools/report.py renders its JSONL + trace into the self-contained
#      HTML run report.
# After an intentional model change, re-run with QUICK_GATE_REBASELINE=1:
# right after the build it reruns every BenchBaseline.*_run and rewrites
# each committed baseline from this build (config and points; wall time
# and provenance are left out); commit them with the change.
# Usage: tools/quick_gate.sh [--sanitize [thread|address]] [build-dir]
#   default build-dir: build (or build-<sanitizer> under --sanitize).
#   --sanitize re-runs the whole gate in a QUDA_SIM_SANITIZE-instrumented
#   build tree (default thread); `address` instruments with ASan plus UBSan
#   and its float-to-integer overflow check (both -fno-sanitize-recover)
#   and _GLIBCXX_ASSERTIONS, and keeps assert() live (-UNDEBUG), so an
#   out-of-range container index, float conversion or field index aborts
#   the gate.  Both sanitizers are expected clean (README "Sanitizers").
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZE=""
if [ "${1:-}" = "--sanitize" ]; then
  shift
  case "${1:-}" in
    thread|address) SANITIZE="$1"; shift ;;
    *) SANITIZE="thread" ;;  # bare --sanitize: any next arg is the build dir
  esac
fi
if [ -n "$SANITIZE" ]; then
  BUILD="${1:-build-$SANITIZE}"
  CMAKE_EXTRA=(-DQUDA_SIM_SANITIZE="$SANITIZE")
else
  BUILD="${1:-build}"
  CMAKE_EXTRA=()
fi

cmake -B "$BUILD" -S . "${CMAKE_EXTRA[@]}"
cmake --build "$BUILD" -j"$(nproc)"
shopt -s nullglob

# rebaseline before anything diffs against the committed baselines: each
# bench/baselines/<stem>.json is rewritten from the BENCH JSON its ctest
# run left in $BUILD/tests/baselines/<stem>/
if [ "${QUICK_GATE_REBASELINE:-0}" = "1" ]; then
  ctest --test-dir "$BUILD" -R '^BenchBaseline\..*_run$' --output-on-failure -j"$(nproc)"
  for baseline in bench/baselines/*.json; do
    runs=("$BUILD/tests/baselines/$(basename "$baseline" .json)"/BENCH_*.json)
    if [ "${#runs[@]}" -ne 1 ]; then
      echo "quick_gate: no BenchBaseline run writes $baseline" >&2
      exit 1
    fi
    python3 - "${runs[0]}" "$baseline" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc = {k: v for k, v in doc.items() if k not in ("provenance", "wall_seconds")}
with open(sys.argv[2], "w") as f:
    f.write(json.dumps(doc, indent=2) + "\n")
EOF
  done
  echo "quick_gate: rewrote the perf baselines under bench/baselines; commit them with the change"
fi

# static analysis gate: fails fast with the file:line rule table and the
# per-rule summary line on stderr
python3 tools/static_check.py
python3 tools/static_check.py --self-test
python3 tools/semantic_check.py
python3 tools/semantic_check.py --self-test

ctest --test-dir "$BUILD" -LE slow --output-on-failure -j"$(nproc)"
if [ "$SANITIZE" = "address" ]; then
  ctest --test-dir "$BUILD" -L slow -R '^(SchedulerEquivalence\.Real|TelemetryReal\.)' \
    --output-on-failure -j"$(nproc)"
fi

traces=("$BUILD"/tests/trace_fig5_acceptance.json*)
if [ "${#traces[@]}" -eq 0 ]; then
  echo "quick_gate: the acceptance test produced no trace export" >&2
  exit 1
fi
python3 tools/trace_lint.py "${traces[@]}"

# crash-recovery smoke (the suite labels the full RankFailure matrix slow):
# one mid-solve rank crash recovered end to end, plus its exported trace
(cd "$BUILD/tests" && ./quda_tests \
  --gtest_filter='RankFailure.CrashMidSolveRecoversViaCheckpointRestart:RankFailure.RecoveryIsAttributedOnTheCriticalPath' \
  > /dev/null)
rf_traces=("$BUILD"/tests/trace_rank_failure.json*)
if [ "${#rf_traces[@]}" -eq 0 ]; then
  echo "quick_gate: the crash-recovery smoke produced no trace export" >&2
  exit 1
fi
python3 tools/trace_lint.py "${rf_traces[@]}"

# 256-rank smoke: the pinned golden run (4x4x4x4 grid of fibers on one
# worker, fat-tree interconnect), which ctest ran above with the flight
# recorder on in-spec, left its exports in $BUILD/tests: the 256-rank trace
# must pass the link-class and topology rules in tools/trace_schema.json,
# and the telemetry JSONL must render into the HTML run report.
seq_traces=("$BUILD"/tests/trace_seq256_golden.json*)
if [ "${#seq_traces[@]}" -eq 0 ]; then
  echo "quick_gate: the 256-rank seq smoke produced no trace export" >&2
  exit 1
fi
python3 tools/trace_lint.py "${seq_traces[@]}"
seq_telemetry=("$BUILD"/tests/telemetry_seq256.jsonl*)
if [ "${#seq_telemetry[@]}" -eq 0 ]; then
  echo "quick_gate: the 256-rank seq smoke produced no telemetry export" >&2
  exit 1
fi
python3 tools/report.py --telemetry "${seq_telemetry[0]}" \
  --trace "${seq_traces[0]}" -o "$BUILD/tests/seq256_report.html"
grep -q '</html>' "$BUILD/tests/seq256_report.html" || {
  echo "quick_gate: seq256 run report did not render to complete HTML" >&2
  exit 1
}
echo "quick gate OK (${#traces[@]} trace file(s) linted)"
