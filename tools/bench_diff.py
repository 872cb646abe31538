#!/usr/bin/env python3
"""Perf-regression gate: diff two BENCH_<name>.json files.

Stdlib only.  Points are matched across the two files by their join key --
every string-valued field plus the numeric axes ("gpus", "bytes",
"fault_rate") -- so reordering points or adding new ones never produces a
spurious failure; only points present in BOTH files are gated.

Every gated metric is a deterministic output of the simulated cluster, so
the default gate is exact: a point fails when any gated value differs from
the baseline at all, in either direction and near-zero baselines included.
The benches print them with %.17g, so the JSON carries every bit.  An
intended model change is rebaselined; to compare across one, give a
relative threshold (--threshold, or --gate per metric).  A metric with a
threshold above zero fails only when it got worse by more than that
percentage, and near-zero baselines are then compared against an absolute
floor instead (a 0.0 -> 0.3 us shift on an empty category passes).

On failure the tool prints, for every regressed point, the critical-path
attribution carried in the JSON (crit_* fields) so the report names the
bottleneck category, not just the slower number.

Usage:
  bench_diff.py BASELINE.json CURRENT.json [--threshold PCT]
                [--gate metric=PCT ...]
  bench_diff.py --self-test

Exit status 0 when no gated metric changed (exact) or regressed beyond its
threshold, 1 otherwise (2 on usage or file errors).
"""

import argparse
import json
import sys

# metric -> direction; "lower" means lower is better
GATED_METRICS = {
    "time_us": "lower",
    "comm_us": "lower",
    "crit_path_us": "lower",
    "crit_exposed_comm_us": "lower",
    "crit_pcie_us": "lower",
    "gflops": "higher",
    "overlap_efficiency": "higher",
    # device-memory footprints (recon-aware gauge storage): growing the
    # modeled allocation is a regression like losing flops is
    "footprint_bytes": "lower",
    "gauge_footprint_bytes": "lower",
    # flight-recorder summary (telemetry): needing more Krylov iterations,
    # a worse busy-time spread, or new anomalies on an unchanged workload
    # all mean the run got worse even if the wall time hides it
    "iterations": "lower",
    "load_imbalance": "lower",
    "anomaly_count": "lower",
}

# numeric fields that are axes, not measurements -- part of the join key
AXIS_FIELDS = ("gpus", "bytes", "fault_rate")

# under a relative threshold, baselines smaller than this are gated by
# absolute difference instead of ratio (relative thresholds explode as the
# denominator approaches zero); the exact gate has no floor
ABS_FLOOR = 1.0

ATTRIBUTION_FIELDS = (
    "crit_path_us",
    "crit_interior_us",
    "crit_boundary_us",
    "crit_exposed_comm_us",
    "crit_pcie_us",
    "crit_stall_us",
    "crit_solver_us",
    "compute_bound_us",
    "whatif_zero_latency_us",
    "whatif_free_pcie_us",
    "whatif_infinite_overlap_us",
)


def point_key(point):
    """Join key: sorted (name, value) over string fields and axis fields."""
    key = []
    for name, value in point.items():
        if isinstance(value, str) or name in AXIS_FIELDS:
            key.append((name, value))
    return tuple(sorted(key))


def index_points(doc, path):
    points = doc.get("points")
    if not isinstance(points, list):
        raise ValueError(f"{path}: no 'points' array")
    indexed = {}
    for p in points:
        k = point_key(p)
        if k in indexed:
            raise ValueError(f"{path}: duplicate point key {dict(k)}")
        indexed[k] = p
    return indexed


def describe_key(key):
    return ", ".join(f"{name}={value}" for name, value in key)


def compare(baseline, current, thresholds):
    """Return (regressions, compared) where regressions is a list of dicts."""
    regressions = []
    compared = 0
    for key, base_pt in baseline.items():
        cur_pt = current.get(key)
        if cur_pt is None:
            continue
        for metric, direction in GATED_METRICS.items():
            if metric not in base_pt or metric not in cur_pt:
                continue
            base = base_pt[metric]
            cur = cur_pt[metric]
            if not isinstance(base, (int, float)) or not isinstance(cur, (int, float)):
                continue
            compared += 1
            pct = thresholds[metric]
            worse = cur - base if direction == "lower" else base - cur
            if pct == 0:
                regressed = cur != base
                change = f"{base!r} -> {cur!r}"
            elif abs(base) < ABS_FLOOR:
                regressed = worse > ABS_FLOOR
                change = f"{base:g} -> {cur:g} (abs)"
            else:
                rel = worse / abs(base)
                regressed = rel > pct / 100.0
                change = f"{base:g} -> {cur:g} ({rel * 100.0:+.1f}%)"
            if regressed:
                regressions.append({
                    "key": key,
                    "metric": metric,
                    "change": change,
                    "threshold": pct,
                    "current": cur_pt,
                })
    return regressions, compared


def print_report(regressions, compared, out=sys.stderr):
    if not regressions:
        print(f"bench_diff: OK ({compared} metric comparisons, no regressions)")
        return
    print(f"bench_diff: FAIL -- {len(regressions)} regression(s) "
          f"across {compared} metric comparisons", file=out)
    shown = set()
    for r in regressions:
        gate = (f"exceeds {r['threshold']:g}% threshold" if r["threshold"] > 0
                else "differs under the exact gate")
        print(f"  [{describe_key(r['key'])}] {r['metric']}: {r['change']} {gate}",
              file=out)
        if r["key"] in shown:
            continue
        shown.add(r["key"])
        # attribution of the regressed point, when the bench carried it
        attrib = [(f, r["current"][f]) for f in ATTRIBUTION_FIELDS if f in r["current"]]
        if attrib:
            print("    attribution (current run):", file=out)
            for name, value in attrib:
                print(f"      {name:28s} {value:14.1f}", file=out)


def parse_gates(args):
    thresholds = {m: args.threshold for m in GATED_METRICS}
    for spec in args.gate:
        if "=" not in spec:
            raise ValueError(f"--gate expects metric=PCT, got {spec!r}")
        metric, _, pct = spec.partition("=")
        if metric not in GATED_METRICS:
            raise ValueError(f"--gate: unknown metric {metric!r} "
                             f"(known: {', '.join(sorted(GATED_METRICS))})")
        thresholds[metric] = float(pct)
    return thresholds


def self_test():
    """Synthetic baseline/current pairs: the exact default gate must fire on
    any change, the relative gate on a regression past its threshold, and
    both must stay silent on identical inputs."""
    def doc(time_us, gflops, gauge_bytes=1.0e6, iterations=200.0,
            imbalance=1.05, anomalies=0.0):
        return {
            "name": "selftest",
            "points": [
                {"series": "overlap", "gpus": 2, "time_us": time_us,
                 "gflops": gflops, "crit_path_us": time_us,
                 "crit_exposed_comm_us": 0.25 * time_us,
                 "crit_interior_us": 0.75 * time_us,
                 "gauge_footprint_bytes": gauge_bytes,
                 "iterations": iterations, "load_imbalance": imbalance,
                 "anomaly_count": anomalies},
                {"series": "overlap", "gpus": 4, "time_us": 100.0, "gflops": 50.0},
            ],
        }

    exact = {m: 0.0 for m in GATED_METRICS}
    thresholds = {m: 10.0 for m in GATED_METRICS}

    base = index_points(doc(1000.0, 40.0), "base")
    same = index_points(doc(1000.0, 40.0), "same")
    for gate in (exact, thresholds):
        regressions, compared = compare(base, same, gate)
        assert compared > 0, "self-test compared nothing"
        assert not regressions, f"identical inputs flagged: {regressions}"

    # the exact default: a change of one part in 10^12 fires, an improvement
    # as much as a regression, and so does a near-zero baseline moving off 0
    nudged = index_points(doc(1000.0 * (1 + 1e-12), 40.0), "nudged")
    regressions, _ = compare(base, nudged, exact)
    metrics = sorted(r["metric"] for r in regressions)
    assert metrics == ["crit_exposed_comm_us", "crit_path_us", "time_us"], metrics
    faster = index_points(doc(1000.0, 40.0 * (1 + 1e-12)), "faster")
    regressions, _ = compare(base, faster, exact)
    assert [r["metric"] for r in regressions] == ["gflops"], regressions
    off_zero = index_points(doc(1000.0, 40.0, anomalies=1e-300), "off_zero")
    regressions, _ = compare(base, off_zero, exact)
    assert [r["metric"] for r in regressions] == ["anomaly_count"], regressions
    # ... while a relative threshold lets the same nudge through
    regressions, _ = compare(base, nudged, thresholds)
    assert not regressions, f"1e-12 nudge flagged at 10% threshold: {regressions}"

    # 15% slower and proportionally fewer flops: every scaled metric of the
    # first point fires; the untouched second point stays silent
    bad = index_points(doc(1150.0, 40.0 / 1.15), "bad")
    regressions, _ = compare(base, bad, thresholds)
    metrics = sorted(r["metric"] for r in regressions)
    assert metrics == ["crit_exposed_comm_us", "crit_path_us", "gflops", "time_us"], metrics
    assert all(("gpus", 2) in r["key"] for r in regressions), "wrong point flagged"

    # a fatter gauge footprint (e.g. a recon knob silently dropped) fires
    # the memory gate even when the timing metrics hold steady
    fat = index_points(doc(1000.0, 40.0, gauge_bytes=1.2e6), "fat")
    regressions, _ = compare(base, fat, thresholds)
    assert [r["metric"] for r in regressions] == ["gauge_footprint_bytes"], regressions

    # 5% drift stays under the default 10% gate ...
    drift = index_points(doc(1050.0, 40.0 / 1.05), "drift")
    regressions, _ = compare(base, drift, thresholds)
    assert not regressions, f"5% drift flagged at 10% threshold: {regressions}"
    # ... but fires when the gate is tightened to 2%
    tight = dict(thresholds, time_us=2.0)
    regressions, _ = compare(base, drift, tight)
    assert any(r["metric"] == "time_us" for r in regressions), "tightened gate silent"

    # flight-recorder gates: more iterations on the same workload fires even
    # when the wall time holds (reliable-update churn hides in throughput) ...
    churn = index_points(doc(1000.0, 40.0, iterations=240.0), "churn")
    regressions, _ = compare(base, churn, thresholds)
    assert [r["metric"] for r in regressions] == ["iterations"], regressions
    # ... as does a busy-fraction spread blowing up across ranks ...
    skew = index_points(doc(1000.0, 40.0, imbalance=1.40), "skew")
    regressions, _ = compare(base, skew, thresholds)
    assert [r["metric"] for r in regressions] == ["load_imbalance"], regressions
    # ... and anomalies appearing on a previously clean run (near-zero
    # baseline, so the absolute floor decides: 0 -> 2 fires)
    noisy = index_points(doc(1000.0, 40.0, anomalies=2.0), "noisy")
    regressions, _ = compare(base, noisy, thresholds)
    assert [r["metric"] for r in regressions] == ["anomaly_count"], regressions

    # a numeric axis tells points of one series apart: the fault-rate sweep
    # of one series indexes without a duplicate key, each rate gated alone
    def sweep(time_us):
        return {"points": [{"series": "faulted", "fault_rate": rate, "time_us": t}
                           for rate, t in ((0, 100.0), (0.001, time_us))]}
    swept = index_points(sweep(110.0), "sweep")
    assert len(swept) == 2, swept
    regressions, compared = compare(swept, index_points(sweep(120.0), "slower"), exact)
    assert compared == 2, compared
    assert [dict(r["key"])["fault_rate"] for r in regressions] == [0.001], regressions

    # near-zero baseline: jitter below the absolute floor is not a regression
    zbase = index_points({"points": [{"series": "z", "gpus": 1, "time_us": 0.0}]}, "z0")
    zcur = index_points({"points": [{"series": "z", "gpus": 1, "time_us": 0.5}]}, "z1")
    regressions, _ = compare(zbase, zcur, thresholds)
    assert not regressions, f"sub-floor jitter flagged: {regressions}"

    # the failure path renders (attribution included) without crashing
    print_report(compare(base, bad, thresholds)[0], 6, out=sys.stdout)
    print_report(compare(base, nudged, exact)[0], 6, out=sys.stdout)
    print("bench_diff: self-test OK")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", nargs="?", help="baseline BENCH_<name>.json")
    ap.add_argument("current", nargs="?", help="current BENCH_<name>.json")
    ap.add_argument("--threshold", type=float, default=0.0,
                    help="relative regression threshold in percent for every "
                         "metric (default 0: exact match)")
    ap.add_argument("--gate", action="append", default=[], metavar="METRIC=PCT",
                    help="per-metric threshold override (repeatable)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in synthetic-pair checks and exit")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        ap.error("baseline and current files are required (or --self-test)")

    try:
        thresholds = parse_gates(args)
        with open(args.baseline, "r", encoding="utf-8") as f:
            baseline = index_points(json.load(f), args.baseline)
        with open(args.current, "r", encoding="utf-8") as f:
            current = index_points(json.load(f), args.current)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"bench_diff: error: {e}", file=sys.stderr)
        return 2

    common = sum(1 for k in baseline if k in current)
    if common == 0:
        print("bench_diff: error: no common points between the two files "
              "(different benches?)", file=sys.stderr)
        return 2

    regressions, compared = compare(baseline, current, thresholds)
    print_report(regressions, compared)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
