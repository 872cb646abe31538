#!/usr/bin/env python3
"""Render one self-contained HTML run report from the solver flight recorder.

Stdlib only (the repo adds no dependencies).  Inputs are the telemetry JSONL
written via QUDA_SIM_TELEMETRY (src/trace/telemetry.cpp; one JSON object per
line, types: provenance / run / iteration / anomaly / counter / gauge /
histogram / series / timeline) and, optionally, the Chrome trace JSON written
via QUDA_SIM_TRACE, which supplies the time-by-category attribution
breakdown.  The output is a single HTML file with inline SVG -- no external
assets, so it can be attached to a CI run or mailed around as-is.

Sections:
  * provenance        -- commit, build, thread budget, cluster
  * run summary       -- ranks, makespan, iterations, load imbalance
  * convergence curve -- log10 residual vs iteration, reliable updates and
                         restarts marked, true-residual points overlaid
  * utilization       -- rank x time-bucket busy-fraction heatmap
  * attribution       -- horizontal bar of span time by category (from the
                         trace export, when given)
  * anomalies         -- one table row per monitor finding
  * metrics           -- counters and gauges, alphabetical

Usage:
  report.py --telemetry RUN.jsonl [--trace TRACE.json] -o report.html
  report.py --self-test
"""

import argparse
import html
import json
import math
import sys

# ---------------------------------------------------------------- loading

def load_telemetry(path_or_lines):
    """Parse telemetry JSONL into one dict per line type.  Accepts a path or
    an iterable of lines (for the self-test)."""
    if isinstance(path_or_lines, str):
        with open(path_or_lines, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    else:
        lines = list(path_or_lines)
    data = {
        "provenance": {}, "run": {}, "iterations": [], "anomalies": [],
        "counters": {}, "gauges": {}, "histograms": [], "series": [],
        "timelines": [],
    }
    for n, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValueError(f"telemetry line {n}: not valid JSON: {e}")
        t = obj.get("type")
        if t == "provenance":
            data["provenance"] = obj.get("provenance", {})
        elif t == "run":
            data["run"] = obj
        elif t == "iteration":
            data["iterations"].append(obj)
        elif t == "anomaly":
            data["anomalies"].append(obj)
        elif t == "counter":
            data["counters"][obj.get("name", "?")] = obj.get("value")
        elif t == "gauge":
            data["gauges"][obj.get("name", "?")] = obj.get("value")
        elif t == "histogram":
            data["histograms"].append(obj)
        elif t == "series":
            data["series"].append(obj)
        elif t == "timeline":
            data["timelines"].append(obj)
        else:
            raise ValueError(f"telemetry line {n}: unknown type {t!r}")
    if not data["run"]:
        raise ValueError("telemetry carries no 'run' line")
    return data


def load_trace_attribution(path):
    """Aggregate span time by category from a QUDA_SIM_TRACE export; returns
    ({category: total_us}, provenance_dict)."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    by_cat = {}
    for ev in doc.get("traceEvents", []):
        if not isinstance(ev, dict) or ev.get("ph") != "X":
            continue
        cat = ev.get("cat", "?")
        by_cat[cat] = by_cat.get(cat, 0.0) + float(ev.get("dur", 0.0))
    return by_cat, doc.get("provenance", {})

# ---------------------------------------------------------------- SVG bits

PALETTE = {
    "kernel": "#4c78a8", "comm": "#f58518", "copy": "#54a24b",
    "solver": "#b279a2", "fault": "#e45756",
}


def esc(s):
    return html.escape(str(s), quote=True)


def heat_color(frac):
    """0 -> near-white, 1 -> saturated blue; clamped."""
    frac = min(1.0, max(0.0, frac))
    r = int(247 - 171 * frac)
    g = int(251 - 131 * frac)
    b = int(255 - 87 * frac)
    return f"#{r:02x}{g:02x}{b:02x}"


def svg_convergence(iterations, width=760, height=260):
    """Inline-SVG convergence curve: log10(iterated residual) vs iteration,
    with true-residual points and reliable-update / restart markers."""
    pts = [(it.get("iter", 0), it.get("r2")) for it in iterations
           if isinstance(it.get("r2"), (int, float)) and it.get("r2") > 0]
    if not pts:
        return "<p class='empty'>no residual history (modeled run or zero-iteration solve)</p>"
    xs = [p[0] for p in pts]
    ys = [math.log10(p[1]) for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1
    pad, pw, ph = 42, width - 2 * 42, height - 2 * 42

    def sx(x):
        return pad + pw * (x - x_lo) / (x_hi - x_lo)

    def sy(y):
        return pad + ph * (y_hi - y) / (y_hi - y_lo)

    poly = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
    out = [f"<svg viewBox='0 0 {width} {height}' class='chart' role='img' "
           f"aria-label='convergence curve'>"]
    # axes + gridlines at integer decades
    out.append(f"<line x1='{pad}' y1='{pad}' x2='{pad}' y2='{height - pad}' class='axis'/>")
    out.append(f"<line x1='{pad}' y1='{height - pad}' x2='{width - pad}' "
               f"y2='{height - pad}' class='axis'/>")
    for dec in range(math.ceil(y_lo), math.floor(y_hi) + 1):
        y = sy(dec)
        out.append(f"<line x1='{pad}' y1='{y:.1f}' x2='{width - pad}' y2='{y:.1f}' "
                   f"class='grid'/>")
        out.append(f"<text x='{pad - 6}' y='{y + 4:.1f}' class='tick' "
                   f"text-anchor='end'>1e{dec}</text>")
    out.append(f"<text x='{width / 2:.0f}' y='{height - 8}' class='tick' "
               f"text-anchor='middle'>iteration</text>")
    out.append(f"<polyline points='{poly}' fill='none' stroke='#4c78a8' stroke-width='1.5'/>")
    # event markers on the curve
    for it in iterations:
        flags = it.get("flags", [])
        x, r2 = it.get("iter", 0), it.get("r2")
        if not isinstance(r2, (int, float)) or r2 <= 0:
            continue
        if "reliable_update" in flags:
            out.append(f"<circle cx='{sx(x):.1f}' cy='{sy(math.log10(r2)):.1f}' r='3' "
                       f"fill='#54a24b'><title>reliable update @ {x}</title></circle>")
        if "rollback" in flags or "restart" in flags or "breakdown_restart" in flags:
            out.append(f"<rect x='{sx(x) - 3:.1f}' y='{sy(math.log10(r2)) - 3:.1f}' "
                       f"width='6' height='6' fill='#e45756'>"
                       f"<title>rollback/restart @ {x}</title></rect>")
        tr = it.get("true_r2")
        if isinstance(tr, (int, float)) and tr > 0:
            out.append(f"<circle cx='{sx(x):.1f}' cy='{sy(math.log10(tr)):.1f}' r='2.5' "
                       f"fill='none' stroke='#b279a2' stroke-width='1.2'>"
                       f"<title>true residual @ {x}</title></circle>")
    out.append("</svg>")
    return "".join(out)


def svg_heatmap(timelines, bucket_us, width=760):
    """Rank x time-bucket busy-fraction heatmap."""
    rows = [tl for tl in timelines if tl.get("busy")]
    if not rows:
        return "<p class='empty'>no utilization timelines (run the solve with tracing on)</p>"
    buckets = max(len(tl["busy"]) for tl in rows)
    cell_h = max(3, min(16, 220 // len(rows)))
    pad_l, pad_t = 52, 8
    cell_w = (width - pad_l - 8) / buckets
    height = pad_t + cell_h * len(rows) + 26
    out = [f"<svg viewBox='0 0 {width} {height:.0f}' class='chart' role='img' "
           f"aria-label='per-rank busy-fraction heatmap'>"]
    label_stride = max(1, len(rows) // 16)
    for r, tl in enumerate(rows):
        y = pad_t + r * cell_h
        if r % label_stride == 0:
            out.append(f"<text x='{pad_l - 6}' y='{y + cell_h - 1}' class='tick' "
                       f"text-anchor='end'>r{tl.get('rank', r)}</text>")
        for b, frac in enumerate(tl["busy"]):
            out.append(f"<rect x='{pad_l + b * cell_w:.1f}' y='{y}' "
                       f"width='{cell_w + 0.5:.1f}' height='{cell_h}' "
                       f"fill='{heat_color(frac)}'>"
                       f"<title>rank {tl.get('rank', r)} bucket {b}: "
                       f"{frac * 100:.0f}% busy</title></rect>")
    total_ms = buckets * bucket_us / 1000.0
    out.append(f"<text x='{pad_l}' y='{height - 8:.0f}' class='tick'>0 ms</text>")
    out.append(f"<text x='{width - 8}' y='{height - 8:.0f}' class='tick' "
               f"text-anchor='end'>{total_ms:.2f} ms</text>")
    out.append("</svg>")
    return "".join(out)


def svg_attribution(by_cat, width=760, bar_h=26):
    """One stacked horizontal bar: span time by trace category."""
    total = sum(by_cat.values())
    if total <= 0:
        return "<p class='empty'>no attribution (pass --trace with a span-bearing export)</p>"
    out = [f"<svg viewBox='0 0 {width} {bar_h + 40}' class='chart' role='img' "
           f"aria-label='time by category'>"]
    x = 0.0
    for cat in sorted(by_cat, key=by_cat.get, reverse=True):
        us = by_cat[cat]
        w = width * us / total
        color = PALETTE.get(cat, "#9d9d9d")
        out.append(f"<rect x='{x:.1f}' y='8' width='{max(w, 0.5):.1f}' height='{bar_h}' "
                   f"fill='{color}'><title>{esc(cat)}: {us:.1f} us "
                   f"({us / total * 100:.1f}%)</title></rect>")
        if w > 60:
            out.append(f"<text x='{x + w / 2:.1f}' y='{8 + bar_h / 2 + 4}' class='bar' "
                       f"text-anchor='middle'>{esc(cat)} {us / total * 100:.0f}%</text>")
        x += w
    out.append(f"<text x='0' y='{bar_h + 30}' class='tick'>total span time: "
               f"{total:.1f} us (categories overlap across tracks)</text>")
    out.append("</svg>")
    return "".join(out)

# ---------------------------------------------------------------- HTML

CSS = """
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto; max-width: 820px;
       color: #1a1a2e; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: 3px 10px; border-bottom: 1px solid #e0e0e8; }
th { background: #f4f4f8; }
.chart { width: 100%; height: auto; background: #fcfcfe; border: 1px solid #e0e0e8; }
.axis { stroke: #888; stroke-width: 1; } .grid { stroke: #e8e8ee; stroke-width: 1; }
.tick { font: 11px system-ui, sans-serif; fill: #666; }
.bar { font: 11px system-ui, sans-serif; fill: #fff; }
.empty { color: #888; font-style: italic; }
.kv { color: #555; } .anomaly-kind { font-weight: 600; color: #b33; }
code { background: #f4f4f8; padding: 1px 4px; }
"""


def render_html(tele, attribution=None, trace_prov=None):
    run = tele["run"]
    prov = tele["provenance"] or trace_prov or {}
    out = ["<!doctype html><html><head><meta charset='utf-8'>",
           "<title>solver run report</title>",
           f"<style>{CSS}</style></head><body>",
           "<h1>Solver flight-recorder report</h1>"]

    # provenance
    out.append("<h2>Provenance</h2>")
    if prov:
        out.append("<table>")
        for k in sorted(prov):
            out.append(f"<tr><th>{esc(k)}</th><td><code>{esc(json.dumps(prov[k]) if isinstance(prov[k], dict) else prov[k])}</code></td></tr>")
        out.append("</table>")
    else:
        out.append("<p class='empty'>export carries no provenance stamp</p>")

    # run summary
    out.append("<h2>Run summary</h2><table>")
    for key in ("ranks", "makespan_us", "iterations", "load_imbalance",
                "anomaly_count", "ledger_symmetric", "bucket_us"):
        if key in run:
            out.append(f"<tr><th>{esc(key)}</th><td>{esc(run[key])}</td></tr>")
    out.append("</table>")

    # convergence
    out.append("<h2>Convergence</h2>")
    out.append(svg_convergence(tele["iterations"]))
    out.append("<p class='kv'>line: iterated residual &middot; "
               "<span style='color:#b279a2'>&#9675;</span> true residual &middot; "
               "<span style='color:#54a24b'>&#9679;</span> reliable update &middot; "
               "<span style='color:#e45756'>&#9632;</span> rollback/restart</p>")

    # utilization heatmap
    out.append("<h2>Per-rank utilization</h2>")
    out.append(svg_heatmap(tele["timelines"], float(run.get("bucket_us", 0) or 1.0)))

    # attribution
    out.append("<h2>Time by category</h2>")
    out.append(svg_attribution(attribution or {}))

    # anomalies
    out.append("<h2>Anomalies</h2>")
    if tele["anomalies"]:
        out.append("<table><tr><th>kind</th><th>rank</th><th>iteration</th>"
                   "<th>epoch</th><th>time (us)</th><th>value</th><th>reference</th></tr>")
        for a in tele["anomalies"]:
            out.append("<tr><td class='anomaly-kind'>{}</td>{}</tr>".format(
                esc(a.get("kind", "?")),
                "".join(f"<td>{esc(a.get(k, ''))}</td>"
                        for k in ("rank", "iter", "epoch", "ts_us", "value", "reference"))))
        out.append("</table>")
    else:
        out.append("<p class='empty'>no anomalies -- the monitors stayed silent</p>")

    # metrics
    out.append("<h2>Metrics</h2><table><tr><th>metric</th><th>value</th></tr>")
    for name in sorted(tele["counters"]):
        out.append(f"<tr><td><code>{esc(name)}</code></td>"
                   f"<td>{esc(tele['counters'][name])}</td></tr>")
    for name in sorted(tele["gauges"]):
        v = tele["gauges"][name]
        shown = f"{v:.4g}" if isinstance(v, (int, float)) else v
        out.append(f"<tr><td><code>{esc(name)}</code></td><td>{esc(shown)}</td></tr>")
    out.append("</table>")

    out.append("</body></html>")
    return "\n".join(out)

# ---------------------------------------------------------------- self-test

SYNTHETIC = [
    '{"type": "provenance", "provenance": {"git": "deadbeef", "build": "Release", '
    '"threads": 1}}',
    '{"type": "run", "ranks": 2, "makespan_us": 4000, "bucket_us": 62.5, '
    '"iterations": 6, "load_imbalance": 1.25, "anomaly_count": 1, '
    '"ledger_symmetric": true}',
    '{"type": "iteration", "iter": 1, "epoch": 0, "r2": 1.0, "true_r2": null, '
    '"regime": "h", "flags": []}',
    '{"type": "iteration", "iter": 2, "epoch": 0, "r2": 0.1, "true_r2": null, '
    '"regime": "h", "flags": []}',
    '{"type": "iteration", "iter": 3, "epoch": 0, "r2": 0.01, "true_r2": 0.02, '
    '"regime": "h", "flags": ["reliable_update"]}',
    '{"type": "iteration", "iter": 4, "epoch": 0, "r2": 0.012, "true_r2": null, '
    '"regime": "h", "flags": ["rollback"]}',
    '{"type": "iteration", "iter": 5, "epoch": 1, "r2": 1e-4, "true_r2": null, '
    '"regime": "h", "flags": ["recovery"]}',
    '{"type": "iteration", "iter": 6, "epoch": 1, "r2": 1e-6, "true_r2": 2e-6, '
    '"regime": "s", "flags": []}',
    '{"type": "anomaly", "kind": "retry_storm", "rank": 1, "iter": 4, "epoch": 0, '
    '"ts_us": 2500, "value": 12, "reference": 8}',
    '{"type": "counter", "name": "iterations", "value": 6}',
    '{"type": "counter", "name": "anomaly.retry_storm", "value": 1}',
    '{"type": "gauge", "name": "busy_frac.max", "value": 0.8}',
    '{"type": "histogram", "name": "iter_log10_r2", "edges": [-12, -9, -6, -3, 0, 3], '
    '"counts": [0, 1, 1, 2, 2, 0]}',
    '{"type": "series", "name": "iterations_per_ms", "bucket_us": 1000, '
    '"values": [2, 2, 2, 0]}',
    '{"type": "timeline", "rank": 0, "busy": [0.9, 0.4], "exposed_comm": [0.05, 0.3], '
    '"pcie": [0, 0.1], "stall": [0, 0], "recovery": [0, 0.2]}',
    '{"type": "timeline", "rank": 1, "busy": [0.7, 0.6], "exposed_comm": [0.1, 0.2], '
    '"pcie": [0, 0], "stall": [0.05, 0], "recovery": [0, 0.2]}',
]


def self_test():
    tele = load_telemetry(SYNTHETIC)
    assert tele["run"]["ranks"] == 2
    assert len(tele["iterations"]) == 6
    assert len(tele["anomalies"]) == 1
    assert len(tele["timelines"]) == 2
    assert tele["counters"]["iterations"] == 6

    page = render_html(tele, attribution={"kernel": 3000.0, "comm": 800.0,
                                          "copy": 150.0, "fault": 50.0})
    # structure the report promises: every section header, both SVGs, the
    # anomaly row, and the provenance stamp
    for needle in ("<h2>Provenance</h2>", "<h2>Run summary</h2>",
                   "<h2>Convergence</h2>", "<h2>Per-rank utilization</h2>",
                   "<h2>Time by category</h2>", "<h2>Anomalies</h2>",
                   "<h2>Metrics</h2>", "retry_storm", "deadbeef",
                   "aria-label='convergence curve'",
                   "aria-label='per-rank busy-fraction heatmap'",
                   "aria-label='time by category'"):
        assert needle in page, f"rendered report is missing {needle!r}"
    assert page.count("<svg") == 3, "expected three inline SVGs"
    # reliable-update and rollback markers made it onto the curve
    assert "reliable update @ 3" in page
    assert "rollback/restart @ 4" in page
    # no unescaped user text
    assert "<script" not in page

    # empty-ledger degradation: a zero-iteration run still renders
    empty = load_telemetry([
        '{"type": "run", "ranks": 1, "makespan_us": 0, "bucket_us": 1, '
        '"iterations": 0, "load_imbalance": 0, "anomaly_count": 0, '
        '"ledger_symmetric": true}'])
    page2 = render_html(empty)
    assert "no residual history" in page2
    assert "no utilization timelines" in page2
    assert "no anomalies" in page2
    print("report.py: self-test OK")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--telemetry", help="telemetry JSONL (QUDA_SIM_TELEMETRY)")
    ap.add_argument("--trace", help="optional Chrome trace JSON (QUDA_SIM_TRACE)")
    ap.add_argument("-o", "--output", help="output HTML path")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in synthetic-render checks and exit")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.telemetry or not args.output:
        ap.error("--telemetry and -o are required (or --self-test)")

    try:
        tele = load_telemetry(args.telemetry)
        attribution, trace_prov = (load_trace_attribution(args.trace)
                                   if args.trace else ({}, {}))
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"report.py: error: {e}", file=sys.stderr)
        return 2

    page = render_html(tele, attribution=attribution, trace_prov=trace_prov)
    with open(args.output, "w", encoding="utf-8") as f:
        f.write(page)
    print(f"report.py: wrote {args.output} ({len(tele['iterations'])} iterations, "
          f"{len(tele['anomalies'])} anomalies, {len(tele['timelines'])} rank timelines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
