#!/usr/bin/env python3
"""Assert the paper's scaling claims over a figure bench's JSON.

    paper_claims.py fig6 BENCH_fig6_precision.json
    paper_claims.py fig4 BENCH_fig4_weak.json

Stdlib only.  Each claim reads the points (table, series, gpus, fits,
gflops) a figure bench writes, prints the figures it checks and exits 0
when the claim holds, 1 when it does not (2 on usage or file errors).

fig6  In the strong-scaling precision study (Section VII-C, Fig. 6) uniform
      double precision scales best: its parallel efficiency from 4 to 32
      GPUs, (gflops(32) / gflops(4)) / 8, is above that of single,
      single-half and double-half.
fig4  Weak scaling (Section VII-B, Fig. 4) keeps at least 99% parallel
      efficiency on every step between consecutive GPU counts of every
      series of the paper's tables (a) and (b):
      (gflops(n2) / n2) / (gflops(n1) / n1) >= 0.99.
"""

import json
import sys
from collections import defaultdict

FIG6_TABLE = "V = 24^3 x 128 sites"
FIG6_SERIES = ("double", "single", "single-half", "double-half")
FIG4_TABLES = ("(a)", "(b)")
FIG4_MIN_STEP = 0.99


def series_gflops(points, keep_table):
    """{(table, series): {gpus: gflops}} over the points that fit"""
    out = defaultdict(dict)
    for p in points:
        if keep_table(p["table"]) and p.get("fits") and p.get("gflops"):
            out[(p["table"], p["series"])][p["gpus"]] = p["gflops"]
    return out


def fig6(points):
    by = series_gflops(points, lambda t: t == FIG6_TABLE)
    eff = {}
    for s in FIG6_SERIES:
        g = by.get((FIG6_TABLE, s), {})
        if 4 not in g or 32 not in g:
            print(f"fig6: series {s} lacks the 4- or 32-GPU point")
            return False
        eff[s] = g[32] / g[4] / 8
        print(f"fig6: {s:12s} efficiency 4 -> 32 GPUs {eff[s]:.3f}")
    best = max(eff, key=eff.get)
    if best != "double":
        print(f"fig6: FAIL -- {best} scales best, not double")
        return False
    print("fig6: double scales best")
    return True


def fig4(points):
    by = series_gflops(points, lambda t: t.startswith(FIG4_TABLES))
    if not by:
        print("fig4: no points in tables (a) and (b)")
        return False
    worst = None
    for key, g in sorted(by.items()):
        gpus = sorted(g)
        for n1, n2 in zip(gpus, gpus[1:]):
            step = (g[n2] / n2) / (g[n1] / n1)
            if worst is None or step < worst[0]:
                worst = (step, key, n1, n2)
    step, (table, series), n1, n2 = worst
    print(f"fig4: worst step {step:.4f} ({table}, {series}, {n1} -> {n2} GPUs)")
    if step < FIG4_MIN_STEP:
        print(f"fig4: FAIL -- below {FIG4_MIN_STEP}")
        return False
    print(f"fig4: every step keeps at least {FIG4_MIN_STEP:.0%} efficiency")
    return True


CLAIMS = {"fig6": fig6, "fig4": fig4}


def main(argv):
    if len(argv) != 3 or argv[1] not in CLAIMS:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(argv[2]) as f:
            points = json.load(f)["points"]
    except (OSError, ValueError, KeyError) as e:
        print(f"paper_claims: cannot read {argv[2]}: {e}", file=sys.stderr)
        return 2
    return 0 if CLAIMS[argv[1]](points) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
