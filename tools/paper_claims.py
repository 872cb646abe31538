#!/usr/bin/env python3
"""Assert the paper's scaling claims over a figure bench's JSON.

    paper_claims.py fig6 BENCH_fig6_precision.json
    paper_claims.py fig4 BENCH_fig4_weak.json
    paper_claims.py fig5_overlap_gain BENCH_fig5_strong.json
    paper_claims.py fig5_no_overlap_wins BENCH_fig5_strong.json

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
fig5_overlap_gain
      In Fig. 5(a) (32^3 x 256, Section VII-C) the gain of overlapping
      communication, gflops(overlap) / gflops(no overlap), rises with the
      GPU count in single and in single-half precision.
fig5_no_overlap_wins
      In Fig. 5(b) (24^3 x 128) at 32 GPUs, single precision without
      overlap outruns overlapped single-half: the surface-to-volume ratio
      is so high that the mixed-precision solve no longer pays.
"""

import json
import sys
from collections import defaultdict

FIG6_TABLE = "V = 24^3 x 128 sites"
FIG6_SERIES = ("double", "single", "single-half", "double-half")
FIG4_TABLES = ("(a)", "(b)")
FIG4_MIN_STEP = 0.99
FIG5_TABLE_A = "(a) V = 32^3 x 256 sites"
FIG5_TABLE_B = "(b) V = 24^3 x 128 sites"
FIG5_OVERLAP_PAIRS = (("single, overlap", "single, no overlap"),
                      ("single-half, overlap", "single-half, no ovl"))


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


def fig5_overlap_gain(points):
    by = series_gflops(points, lambda t: t == FIG5_TABLE_A)
    ok = True
    for overlap, plain in FIG5_OVERLAP_PAIRS:
        g, h = by.get((FIG5_TABLE_A, overlap), {}), by.get((FIG5_TABLE_A, plain), {})
        gpus = sorted(set(g) & set(h))
        if len(gpus) < 2:
            print(f"fig5: {overlap} lacks two GPU counts with both series")
            return False
        ratios = [g[n] / h[n] for n in gpus]
        print(f"fig5: {overlap:22s} gain over no overlap "
              + ", ".join(f"{n} GPUs {r:.3f}" for n, r in zip(gpus, ratios)))
        if any(r2 <= r1 for r1, r2 in zip(ratios, ratios[1:])):
            print(f"fig5: FAIL -- the {overlap} gain does not rise with N")
            ok = False
    if ok:
        print("fig5: the overlap gain rises with N")
    return ok


def fig5_no_overlap_wins(points):
    by = series_gflops(points, lambda t: t == FIG5_TABLE_B)
    plain = by.get((FIG5_TABLE_B, "single, no overlap"), {}).get(32)
    mixed = by.get((FIG5_TABLE_B, "single-half, overlap"), {}).get(32)
    if plain is None or mixed is None:
        print("fig5: table (b) lacks a 32-GPU point")
        return False
    print(f"fig5: 32 GPUs, single no overlap {plain:.1f} GF, single-half overlap {mixed:.1f} GF")
    if plain <= mixed:
        print("fig5: FAIL -- overlapped single-half is not overtaken")
        return False
    print("fig5: single without overlap wins at 32 GPUs")
    return True


CLAIMS = {"fig6": fig6, "fig4": fig4, "fig5_overlap_gain": fig5_overlap_gain,
          "fig5_no_overlap_wins": fig5_no_overlap_wins}


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
