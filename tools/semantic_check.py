#!/usr/bin/env python3
"""Cross-translation-unit semantic analyzer: whole-program invariants.

Stdlib only.  Where tools/static_check.py lexes one file at a time, this
pass layer parses all of src/ bench/ tests/ once into a project model --

  * the #include graph (file-level, cycle-checked),
  * a per-file symbol/function table (namespace- and class-qualified),
  * a conservative name-based call graph --

and runs whole-program rule families the per-file rules cannot see:

  sim-layering          the layer DAG in tools/layers.json is machine-
                        checked against the real include graph: any
                        upward #include, any include cycle, and any
                        scanned file the manifest does not cover is a
                        finding
  sim-wallclock-taint   functions reaching core::wall_now() or
                        std::random_device through the call graph are
                        tainted; calling one from
                        sim-time code is a finding unless the exact
                        (file, callee) edge is allowlisted in the
                        manifest with a reason
  sim-death-swallow     sim::RankDeath is deliberately not a
                        std::exception; every generic `catch (...)` in
                        src/ must rethrow, call
                        sim::rethrow_if_rank_death(), sit behind an
                        explicit RankDeath handler in the same chain, or
                        carry NOLINT(sim-death-swallow): <reason>.  A
                        RankDeath that grows a base class is also a
                        finding (it would become catchable upstream)
  sim-fiber-stack       rank bodies run on 1 MiB guard-paged ucontext
                        fiber stacks (RankScheduler); function frames
                        estimated over frame_limit_bytes from local
                        array declarations, and call-graph recursion
                        cycles, are findings
  sim-bench-schema      every metric tools/bench_diff.py gates must be
                        emitted by some bench, and every metric the
                        benches emit must be gated, a join key/axis, or
                        allowlisted in the manifest

Suppression: `// NOLINT(sim-<rule>): <reason>` on the finding line or the
comment block above (validated by static_check's sim-bad-suppression), or
the manifest allowlists for edge-shaped findings.

Usage:
  semantic_check.py [--root DIR] [--manifest FILE]  lint the tree
  semantic_check.py --self-test [--root DIR]        seeded-violation
                    fixture tree under tests/lint_fixtures/semantic plus
                    the model-builder unit tests and pinned model stats
  semantic_check.py --test-model [--root DIR]       model-builder tests
                    only (include-cycle detection, overload/namespace
                    call resolution, pinned node/edge counts)
  semantic_check.py --update-stats [--root DIR]     re-pin
                    tools/model_stats.json after intentional changes
  semantic_check.py --list-rules

Exit status: 0 clean; 1 tree findings; 2 self-test/model mismatch.
"""

import argparse
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402  (GATED_METRICS / AXIS_FIELDS are the gate schema)
import static_check as sc  # noqa: E402  (shared lexer, scopes, suppressions)

RULES = sc.SEMANTIC_RULES
MANIFEST = "tools/layers.json"
MODEL_STATS = "tools/model_stats.json"
SEM_FIXTURE_DIR = os.path.join("tests", "lint_fixtures", "semantic")

# pinned real-tree stats may drift by this much before the gate fires: the
# gate exists to catch the parser silently finding nothing, not to make
# every source edit regenerate the pin
TREE_STATS_TOLERANCE = 0.25


# --------------------------------------------------------------------------
# project model
# --------------------------------------------------------------------------

_KEYWORDS = frozenset((
    "if", "for", "while", "switch", "catch", "do", "else", "try", "return",
    "sizeof", "alignof", "decltype", "noexcept", "static_assert", "throw",
    "new", "delete", "case", "default", "operator", "void", "int", "bool",
    "char", "short", "long", "float", "double", "auto", "unsigned", "signed",
    "const", "constexpr", "using", "typedef", "template", "typename",
    "co_await", "co_return", "co_yield", "requires", "assert", "defined",
))

_RECORD_NAME_RE = re.compile(
    r"\b(?:class|struct|union)\s+(?:alignas\s*\([^)]*\)\s*)?(\w+)")
_NS_NAME_RE = re.compile(r"\bnamespace\s+([\w:]+)")
_CAND_RE = re.compile(r"([A-Za-z_~][\w]*)\s*\(")
_QUAL_PREFIX_RE = re.compile(r"((?:\w+\s*::\s*)+)\s*$")
_HEAD_TAIL_RE = re.compile(
    r"(?:\s|&|const\b|noexcept\b(?:\s*\([^()]*\))?|override\b|final\b|"
    r"mutable\b|->[^{]*|:(?!:).*|"
    r"QUDA_[A-Z_]+(?:\s*\([^()]*(?:\([^()]*\)[^()]*)*\))?)*", re.S)
_CALL_RE = re.compile(r"((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_~][\w]*)\s*\(")
_INCLUDE_RE = re.compile(r'\s*#\s*include\s*"([^"]+)"')

# element sizes for the frame estimator; unknown element types fall back to
# _DEFAULT_ELEM_BYTES (a guess is fine -- the rule is a 64 KiB order-of-
# magnitude tripwire, not an ABI model)
_SIZEOF = {
    "bool": 1, "char": 1, "signed char": 1, "unsigned char": 1,
    "short": 2, "unsigned short": 2, "int": 4, "unsigned": 4,
    "unsigned int": 4, "long": 8, "unsigned long": 8, "long long": 8,
    "unsigned long long": 8, "float": 4, "double": 8, "long double": 16,
    "std::size_t": 8, "size_t": 8, "std::ptrdiff_t": 8,
    "std::int8_t": 1, "std::uint8_t": 1, "std::int16_t": 2,
    "std::uint16_t": 2, "std::int32_t": 4, "std::uint32_t": 4,
    "std::int64_t": 8, "std::uint64_t": 8,
    "int8_t": 1, "uint8_t": 1, "int16_t": 2, "uint16_t": 2,
    "int32_t": 4, "uint32_t": 4, "int64_t": 8, "uint64_t": 8,
    "complexf": 8, "complexd": 16,
}
_DEFAULT_ELEM_BYTES = 16

_ARRAY_DECL_RE = re.compile(
    r"\b([A-Za-z_][\w:]*(?:\s*<[^<>;(){}]*>)?(?:\s+(?:const|unsigned|signed|"
    r"long|short|char|int))*)\s+[A-Za-z_]\w*\s*((?:\[\s*\d+\s*\])+)")
_STD_ARRAY_RE = re.compile(
    r"\b(?:std\s*::\s*)?array\s*<\s*([^,<>]+?)\s*,\s*(\d+)\s*>")


class Scope:
    __slots__ = ("start", "end", "kind", "name", "head")

    def __init__(self, start, end, kind, name, head):
        self.start, self.end = start, end
        self.kind, self.name, self.head = kind, name, head


def build_named_scopes(code):
    """Like static_check.build_scopes, but keeps each scope's head text and
    the namespace/record name it declares."""
    scopes = []
    stack = []
    stmt_start = 0
    for i, c in enumerate(code):
        if c == "{":
            head = code[stmt_start:i]
            prev = head.rstrip()[-1:] if head.rstrip() else ""
            name = ""
            if sc._NS_RE.search(head):
                kind = "namespace"
                m = _NS_NAME_RE.search(head)
                name = m.group(1) if m else ""
            elif sc._RECORD_RE.search(head) and "(" not in head:
                kind = "record"
                m = _RECORD_NAME_RE.search(head)
                name = m.group(1) if m else ""
            elif prev in ("=", ",", "(", "{") or prev == "":
                kind = "init"
            else:
                kind = "code"
            stack.append((i, kind, name, head))
            stmt_start = i + 1
        elif c == "}":
            if stack:
                start, kind, name, head = stack.pop()
                scopes.append(Scope(start, i, kind, name, head))
            stmt_start = i + 1
        elif c == ";":
            stmt_start = i + 1
    while stack:
        start, kind, name, head = stack.pop()
        scopes.append(Scope(start, len(code), kind, name, head))
    scopes.sort(key=lambda s: s.start)
    return scopes


def parse_function_head(head):
    """(name, explicit_qual) for a function-definition head, else None.
    Picks the first identifier(...) whose parameter list closes into a
    legal definition tail (cv/ref/noexcept/trailing-return/ctor-init)."""
    for m in _CAND_RE.finditer(head):
        name = m.group(1)
        if name in _KEYWORDS:
            continue
        op = head.index("(", m.end() - 1)
        close = sc.match_delim(head, op, "(", ")")
        if close <= op:
            continue
        if not _HEAD_TAIL_RE.fullmatch(head[close:]):
            continue
        qm = _QUAL_PREFIX_RE.search(head[:m.start(1)])
        qual = (re.sub(r"\s+", "", qm.group(1)) if qm else "") + name
        return name, qual
    return None


class Call:
    __slots__ = ("offset", "name", "bare", "member", "this_member")

    def __init__(self, offset, name, member, this_member=False):
        self.offset = offset
        self.name = name
        self.bare = name.split("::")[-1]
        self.member = member            # obj.f(...) / p->f(...) syntax
        self.this_member = this_member  # this->f(...): receiver type known


class Function:
    __slots__ = ("name", "qual", "cls", "file", "line0", "body_start",
                 "body_end", "calls", "frame_bytes")

    def __init__(self, name, qual, cls, file, line0, body_start, body_end):
        self.name, self.qual, self.cls = name, qual, cls
        self.file, self.line0 = file, line0
        self.body_start, self.body_end = body_start, body_end
        self.calls = []
        self.frame_bytes = 0

    def __repr__(self):
        return "%s (%s:%d)" % (self.qual, self.file, self.line0 + 1)


class SourceFile:
    def __init__(self, path, text):
        self.path = path
        self.ctx = sc.FileCtx(path, sc.effective_path(path, text), text)
        self.includes = []   # (line0, raw_target, resolved_path_or_None)
        self.functions = []

    @property
    def effective(self):
        return self.ctx.effective


def _estimate_frame(body):
    total = 0
    for m in _ARRAY_DECL_RE.finditer(body):
        decl_type = re.sub(r"\s+", " ", m.group(1)).strip()
        if re.search(r"\b(?:static|extern|new)\b", decl_type):
            continue
        elems = 1
        for dim in re.findall(r"\[\s*(\d+)\s*\]", m.group(2)):
            elems *= int(dim)
        base = re.sub(r"\bconst\b|\bconstexpr\b", "", decl_type).strip()
        total += elems * _SIZEOF.get(base, _DEFAULT_ELEM_BYTES)
    for m in _STD_ARRAY_RE.finditer(body):
        base = re.sub(r"\s+", " ", m.group(1)).replace("const ", "").strip()
        total += int(m.group(2)) * _SIZEOF.get(base, _DEFAULT_ELEM_BYTES)
    return total


class Model:
    def __init__(self, root, scan_dirs=sc.SCAN_DIRS):
        self.root = root
        self.files = {}            # path -> SourceFile
        self.defs_by_name = {}     # bare name -> [Function]
        self.include_cycles = []   # list of [path, path, ...] cycles
        self._load(scan_dirs)
        self._resolve_includes()
        self._extract_functions()
        self._find_include_cycles()

    # -- loading ------------------------------------------------------------

    def _load(self, scan_dirs):
        fixture_prefix = sc.FIXTURE_DIR.replace(os.sep, "/")
        for d in scan_dirs:
            base = os.path.join(self.root, d)
            for dirpath, _, names in os.walk(base):
                rel_dir = os.path.relpath(dirpath, self.root).replace(os.sep, "/")
                if rel_dir.startswith(fixture_prefix):
                    continue
                for name in sorted(names):
                    if not name.endswith(sc.SCAN_EXTS):
                        continue
                    rel = (rel_dir + "/" + name) if rel_dir != "." else name
                    with open(os.path.join(self.root, rel), "r",
                              encoding="utf-8") as f:
                        text = f.read()
                    self.files[rel] = SourceFile(rel, text)

    def _resolve_includes(self):
        for path, sf in self.files.items():
            raw_lines = sf.ctx.lines
            code_lines = sf.ctx.code_lines
            for ln, raw in enumerate(raw_lines):
                m = _INCLUDE_RE.match(raw)
                if not m:
                    continue
                if ln < len(code_lines) and "include" not in code_lines[ln]:
                    continue  # the directive itself was inside a comment
                inc = m.group(1)
                resolved = None
                for cand in ("src/" + inc,
                             os.path.dirname(path) + "/" + inc if
                             os.path.dirname(path) else inc,
                             inc):
                    cand = os.path.normpath(cand).replace(os.sep, "/")
                    if cand in self.files:
                        resolved = cand
                        break
                sf.includes.append((ln, inc, resolved))

    # -- symbol / call extraction -------------------------------------------

    def _extract_functions(self):
        for path, sf in self.files.items():
            code = sf.ctx.code
            scopes = build_named_scopes(code)
            for s in scopes:
                if s.kind != "code":
                    continue
                # only outermost code scopes are function bodies; nested code
                # scopes are control-flow blocks (or lambdas, folded into
                # their definer)
                if any(o.start < s.start and s.end <= o.end and
                       o.kind in ("code", "init") for o in scopes):
                    continue
                parsed = parse_function_head(s.head)
                if not parsed:
                    continue
                name, qual = parsed
                ns_parts, record_parts = [], []
                for o in scopes:
                    if o.start < s.start and s.end <= o.end:
                        if o.kind == "namespace" and o.name:
                            ns_parts.append(o.name)
                        elif o.kind == "record" and o.name:
                            record_parts.append(o.name)
                context = "::".join(ns_parts + record_parts)
                full_qual = (context + "::" + qual) if context else qual
                cls = record_parts[-1] if record_parts else None
                if cls is None and "::" in qual:
                    # out-of-class definition: Class::method
                    cls = qual.split("::")[-2]
                fn = Function(name, full_qual, cls, path,
                              sc.line_of(code, s.start), s.start + 1, s.end)
                body = code[fn.body_start:fn.body_end]
                for cm in _CALL_RE.finditer(body):
                    cname = re.sub(r"\s+", "", cm.group(1))
                    if cname.split("::")[-1] in _KEYWORDS or \
                       cname.split("::")[0] in ("std",):
                        continue
                    off = fn.body_start + cm.start()
                    prev = code[off - 1] if off > 0 else " "
                    member = prev in ".>"
                    this_member = bool(member and re.search(
                        r"this\s*->\s*$", code[max(0, off - 12):off]))
                    fn.calls.append(Call(off, cname, member, this_member))
                fn.frame_bytes = _estimate_frame(body)
                sf.functions.append(fn)
                self.defs_by_name.setdefault(name, []).append(fn)

    # -- include cycles -----------------------------------------------------

    def _find_include_cycles(self):
        graph = {p: sorted({r for _, _, r in sf.includes if r and r != p})
                 for p, sf in self.files.items()}
        seen_cycles = set()
        color = {}
        stack = []

        def dfs(node):
            color[node] = 1
            stack.append(node)
            for nxt in graph.get(node, ()):
                if color.get(nxt, 0) == 1:
                    cyc = stack[stack.index(nxt):] + [nxt]
                    lo = min(range(len(cyc) - 1), key=lambda i: cyc[i])
                    canon = tuple(cyc[lo:-1] + cyc[:lo])
                    if canon not in seen_cycles:
                        seen_cycles.add(canon)
                        self.include_cycles.append(list(canon) + [canon[0]])
                elif color.get(nxt, 0) == 0:
                    dfs(nxt)
            stack.pop()
            color[node] = 2

        for p in sorted(graph):
            if color.get(p, 0) == 0:
                dfs(p)

    # -- call resolution ----------------------------------------------------

    @staticmethod
    def _container(fn):
        return fn.qual.rsplit("::", 1)[0] if "::" in fn.qual else ""

    def resolve_strict(self, caller, call):
        """Definitions a call confidently refers to (used for recursion
        detection: ambiguity resolves to nothing, not everything)."""
        defs = self.defs_by_name.get(call.bare, [])
        if not defs:
            return []
        if call.member and not call.this_member:
            # obj.f() / ptr->f(): the receiver's type is unknown, so any
            # name-based pick (e.g. the caller's own class for a delegating
            # wrapper) would fabricate edges
            return []
        if "::" in call.name:
            suffix = call.name
            exact = [f for f in defs
                     if f.qual == suffix or f.qual.endswith("::" + suffix)]
            return exact
        if caller.cls:
            same = [f for f in defs if f.cls == caller.cls and
                    f.file == caller.file] or \
                   [f for f in defs if f.cls == caller.cls]
            if same:
                return same
        same_file = [f for f in defs if f.file == caller.file and f.cls is None]
        if len(same_file) > 1:
            same_ns = [f for f in same_file
                       if self._container(f) == self._container(caller)]
            if same_ns:
                same_file = same_ns
        if same_file:
            return same_file
        same_ns = [f for f in defs if f.cls is None and
                   self._container(f) == self._container(caller)]
        if same_ns:
            return same_ns
        if len(defs) == 1:
            return defs
        return []

    def resolve_for_taint(self, caller, call):
        """Conservative resolution for taint propagation: ambiguity widens
        to every free-function candidate instead of narrowing to none."""
        strict = self.resolve_strict(caller, call)
        if strict:
            return strict
        if "::" in call.name or call.member:
            return []
        return [f for f in self.defs_by_name.get(call.bare, ())
                if f.cls is None]

    def stats(self):
        return {
            "files": len(self.files),
            "include_edges": sum(1 for sf in self.files.values()
                                 for _, _, r in sf.includes if r),
            "functions": sum(len(sf.functions) for sf in self.files.values()),
            "call_sites": sum(len(fn.calls) for sf in self.files.values()
                              for fn in sf.functions),
        }


# --------------------------------------------------------------------------
# manifest
# --------------------------------------------------------------------------

class Manifest:
    def __init__(self, path):
        self.path = path
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
        self.layers = doc["layers"]  # bottom -> top
        self.rank = {}
        seen = set()
        for i, layer in enumerate(self.layers):
            if layer["name"] in seen:
                raise ValueError("%s: duplicate layer %r" % (path, layer["name"]))
            seen.add(layer["name"])
            self.rank[layer["name"]] = i
        self.taint = doc.get("wallclock_taint", {})
        self.fiber = doc.get("fiber_stack", {})
        self.bench = doc.get("bench_schema", {})
        # fixture manifests may override the gate schema so the self-test
        # does not depend on the real bench_diff gate set
        self.gated_override = doc.get("gated_metrics")

    def layer_of(self, path):
        """(name, rank) of the most specific manifest entry covering path."""
        best = None
        for i, layer in enumerate(self.layers):
            for p in layer["paths"]:
                if path == p or (p.endswith("/") and path.startswith(p)):
                    spec = len(p) + (1000 if path == p else 0)
                    if best is None or spec > best[0]:
                        best = (spec, layer["name"], i)
        return (best[1], best[2]) if best else (None, None)

    def taint_allowed(self, file, callee):
        for entry in self.taint.get("allow", ()):
            if entry.get("file") == file and entry.get("callee") == callee:
                return True
        return False


# --------------------------------------------------------------------------
# rule passes
# --------------------------------------------------------------------------

class Analysis:
    """Holds the model, manifest, and the finding list the passes fill."""

    def __init__(self, model, manifest, manifest_display=None):
        self.model = model
        self.manifest = manifest
        self.manifest_display = manifest_display or manifest.path
        self.findings = []  # (path, line0, rule, msg)

    def report(self, path, line0, rule, msg):
        self.findings.append((path, line0, rule, msg))


def pass_layering(a):
    man, model = a.manifest, a.model
    for path in sorted(model.files):
        sf = model.files[path]
        eff = sf.effective
        name, rank = man.layer_of(eff)
        if name is None:
            a.report(path, 0, "sim-layering",
                     "file is not covered by the layer manifest (%s); assign "
                     "it to a layer" % a.manifest_display)
            continue
        for ln, raw, resolved in sf.includes:
            if not resolved or resolved == path:
                continue
            tname, trank = man.layer_of(model.files[resolved].effective)
            if tname is None:
                continue  # the includee's own coverage finding says enough
            if trank > rank:
                a.report(path, ln, "sim-layering",
                         "upward include: layer '%s' must not include '%s' "
                         "(layer '%s'); the layer DAG is %s" %
                         (name, raw, tname, a.manifest_display))
    for cyc in model.include_cycles:
        a.report(cyc[0], 0, "sim-layering",
                 "include cycle: " + " -> ".join(cyc))


def pass_wallclock_taint(a):
    man, model = a.manifest, a.model
    seeds = set(man.taint.get("seeds", ()))
    shims = set(man.taint.get("shim_files", ()))
    prefixes = tuple(man.taint.get("sim_time_prefixes", ()))
    if not seeds or not prefixes:
        return

    seed_res = {s: re.compile(r"\b%s\b" % re.escape(s)) for s in seeds}
    direct = {}   # Function -> (offset, seed) first direct seed use
    for path, sf in sorted(model.files.items()):
        if sf.effective in shims:
            continue
        for fn in sf.functions:
            body = sf.ctx.code[fn.body_start:fn.body_end]
            for seed, rx in sorted(seed_res.items()):
                m = rx.search(body)
                if m and not man.taint_allowed(sf.effective, seed):
                    direct.setdefault(fn, (fn.body_start + m.start(), seed))

    tainted = dict(direct)          # Function -> evidence
    via = {fn: seed for fn, (_, seed) in direct.items()}
    changed = True
    while changed:
        changed = False
        for path, sf in sorted(model.files.items()):
            if sf.effective in shims:
                continue
            for fn in sf.functions:
                if fn in tainted:
                    continue
                for call in fn.calls:
                    if man.taint_allowed(sf.effective, call.bare):
                        continue
                    for target in model.resolve_for_taint(fn, call):
                        if target in tainted:
                            tainted[fn] = (call.offset, call.bare)
                            via[fn] = call.bare
                            changed = True
                            break
                    if fn in tainted:
                        break

    def chain(name):
        parts = [name]
        guard = 0
        while parts[-1] not in seeds and guard < 16:
            guard += 1
            nxts = [via[f] for f in via
                    if f.name == parts[-1] and via[f] != parts[-1]]
            if not nxts:
                break
            parts.append(sorted(nxts)[0])
        return " -> ".join(parts)

    for path, sf in sorted(model.files.items()):
        eff = sf.effective
        if eff in shims or not eff.startswith(prefixes):
            continue
        for fn in sf.functions:
            reported = set()
            if fn in direct:
                off, seed = direct[fn]
                ln = sc.line_of(sf.ctx.code, off)
                if ln not in reported:
                    reported.add(ln)
                    a.report(path, ln, "sim-wallclock-taint",
                             "'%s' reads wall-clock/entropy seed '%s' in "
                             "sim-time code; route through the allowlisted "
                             "shim or add a manifest allow entry" %
                             (fn.qual, seed))
            for call in fn.calls:
                if call.bare in seeds:
                    continue  # direct seed use already reported above
                if man.taint_allowed(eff, call.bare):
                    continue
                targets = [t for t in model.resolve_for_taint(fn, call)
                           if t in tainted]
                if not targets:
                    continue
                ln = sc.line_of(sf.ctx.code, call.offset)
                if ln in reported:
                    continue
                reported.add(ln)
                a.report(path, ln, "sim-wallclock-taint",
                         "'%s' calls wall-clock-tainted '%s' (%s) from "
                         "sim-time code" % (fn.qual, call.bare,
                                            chain(call.bare)))


_CATCH_RE = re.compile(r"\bcatch\s*\(")
_RETHROW_RE = re.compile(r"\bthrow\s*;")
_DEATH_GUARD_RE = re.compile(r"\brethrow_if_rank_death\s*\(")
_DEATH_DERIVES_RE = re.compile(r"\b(?:struct|class)\s+RankDeath\s*(?:final\s*)?:(?!:)")


def pass_death_swallow(a):
    model = a.model
    for path, sf in sorted(model.files.items()):
        code = sf.ctx.code
        m = _DEATH_DERIVES_RE.search(code)
        if m:
            a.report(path, sc.line_of(code, m.start()), "sim-death-swallow",
                     "RankDeath must not derive from a base class: generic "
                     "std::exception handlers upstream of transport paths "
                     "must never be able to catch it")
        if not sf.effective.startswith("src/"):
            continue
        handlers = []  # (start, decl, body_start, body_end)
        for cm in _CATCH_RE.finditer(code):
            op = code.index("(", cm.start())
            close = sc.match_delim(code, op, "(", ")")
            decl = code[op + 1:close - 1].strip()
            i = close
            while i < len(code) and code[i].isspace():
                i += 1
            if i >= len(code) or code[i] != "{":
                continue
            handlers.append((cm.start(), decl, i, sc.match_delim(code, i, "{", "}")))
        for idx, (start, decl, bstart, bend) in enumerate(handlers):
            if decl != "...":
                continue
            body = code[bstart:bend]
            if _RETHROW_RE.search(body) or _DEATH_GUARD_RE.search(body):
                continue
            # an explicit RankDeath handler earlier in the same chain proves
            # the generic arm can never see a death (chain = handlers glued
            # back-to-back with only whitespace between them in masked code)
            chain_safe = False
            j = idx - 1
            while j >= 0:
                pstart, pdecl, _, pbend = handlers[j]
                if code[pbend:handlers[j + 1][0]].strip() != "":
                    break
                if re.search(r"\bRankDeath\b", pdecl):
                    chain_safe = True
                    break
                j -= 1
            if chain_safe:
                continue
            a.report(path, sc.line_of(code, start), "sim-death-swallow",
                     "generic catch (...) can swallow sim::RankDeath; "
                     "rethrow, call sim::rethrow_if_rank_death() first, put "
                     "an explicit RankDeath handler before it, or justify "
                     "with NOLINT(sim-death-swallow): <reason>")


def pass_fiber_stack(a):
    man, model = a.manifest, a.model
    limit = int(man.fiber.get("frame_limit_bytes", 65536))
    stack_bytes = int(man.fiber.get("stack_bytes", 1 << 20))
    prefixes = tuple(man.fiber.get("root_prefixes", ("src/",)))
    allowed_rec = set(man.fiber.get("allow_recursion", ()))

    in_scope = []
    for path, sf in sorted(model.files.items()):
        if not sf.effective.startswith(prefixes):
            continue
        for fn in sf.functions:
            in_scope.append(fn)
            if fn.frame_bytes > limit:
                a.report(path, fn.line0, "sim-fiber-stack",
                         "'%s' has an estimated %d KiB stack frame (> %d KiB "
                         "budget on the %d KiB fiber stacks); move bulk "
                         "locals to the heap" %
                         (fn.qual, fn.frame_bytes // 1024, limit // 1024,
                          stack_bytes // 1024))

    # recursion cycles over confident call edges (Tarjan SCC)
    scope_set = set(in_scope)
    edges = {fn: set() for fn in in_scope}
    for fn in in_scope:
        for call in fn.calls:
            # recursion edges demand a UNIQUE resolution: an overload set
            # (f(int) calling f(double)) must not become a false self-loop
            targets = model.resolve_strict(fn, call)
            if len(targets) == 1 and targets[0] in scope_set:
                if targets[0] is fn and \
                        len(model.defs_by_name.get(call.bare, ())) > 1:
                    # a self-call whose name has other definitions is far
                    # more likely a wrapper forwarding to an overload the
                    # name-based model cannot type-match (allreduce_sum
                    # value -> array, norm2 field -> site) than true
                    # recursion
                    continue
                edges[fn].add(targets[0])

    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    counter = [0]
    sccs = []

    def strongconnect(v):
        # iterative Tarjan (the analyzed tree may be deep)
        work = [(v, iter(sorted(edges[v], key=lambda f: (f.file, f.line0))))]
        index[v] = lowlink[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(edges[w],
                                                key=lambda f: (f.file, f.line0)))))
                    advanced = True
                    break
                elif w in on_stack:
                    lowlink[node] = min(lowlink[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w is node:
                        break
                sccs.append(comp)

    for fn in sorted(edges, key=lambda f: (f.file, f.line0)):
        if fn not in index:
            strongconnect(fn)

    for comp in sccs:
        cyclic = len(comp) > 1 or comp[0] in edges[comp[0]]
        if not cyclic:
            continue
        comp.sort(key=lambda f: (f.file, f.line0))
        if any(f.qual in allowed_rec for f in comp):
            continue
        anchor = comp[0]
        names = " -> ".join(f.qual for f in comp) + " -> " + comp[0].qual
        a.report(anchor.file, anchor.line0, "sim-fiber-stack",
                 "recursion cycle reachable on the fiber stacks: %s; unbounded "
                 "recursion cannot be proven safe against the %d KiB stack "
                 "(allowlist in the manifest with the bound argued)" %
                 (names, stack_bytes // 1024))


_FIELD_RE = re.compile(r'\.\s*field\s*\(\s*"([^"]+)"\s*(\+?)')


def pass_bench_schema(a):
    man, model = a.manifest, a.model
    gated = (set(man.gated_override) if man.gated_override is not None
             else set(bench_diff.GATED_METRICS))
    axes = set(bench_diff.AXIS_FIELDS)
    join_keys = set(man.bench.get("join_keys", ()))
    ungated = set(man.bench.get("ungated_metrics", ()))
    prefixes = tuple(p[:-1] for p in ungated if p.endswith("*"))
    exact_allowed = gated | axes | join_keys | \
        {u for u in ungated if not u.endswith("*")}

    emitted = {}  # name or prefix -> first (path, line0); prefix keys end '*'
    for path, sf in sorted(model.files.items()):
        if not sf.effective.startswith("bench/"):
            continue
        for m in _FIELD_RE.finditer(sf.ctx.text):
            name = m.group(1) + ("*" if m.group(2) else "")
            ln = sf.ctx.text.count("\n", 0, m.start())
            emitted.setdefault(name, (path, ln))
            if name.endswith("*"):
                continue
            if name in exact_allowed or name.startswith(prefixes):
                continue
            a.report(path, ln, "sim-bench-schema",
                     "bench emits metric '%s' that tools/bench_diff.py "
                     "neither gates nor allowlists; gate it or add it to "
                     "join_keys/ungated_metrics in %s" %
                     (name, a.manifest_display))

    emitted_exact = {n for n in emitted if not n.endswith("*")}
    emitted_prefixes = tuple(n[:-1] for n in emitted if n.endswith("*"))
    if not emitted:
        return  # no benches in this tree: nothing to cross-check
    for metric in sorted(gated):
        if metric in emitted_exact or metric.startswith(emitted_prefixes):
            continue
        a.report(a.manifest_display if man.gated_override is not None
                 else "tools/bench_diff.py",
                 _gate_line(metric) if man.gated_override is None else 0,
                 "sim-bench-schema",
                 "gated metric '%s' is emitted by no bench; the gate can "
                 "never fire (drop it or emit it)" % metric)


def _gate_line(metric):
    """0-based line of a gated metric inside bench_diff.py (best effort)."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_diff.py")
    try:
        with open(src, "r", encoding="utf-8") as f:
            for i, line in enumerate(f):
                if '"%s"' % metric in line:
                    return i
    except OSError:
        pass
    return 0


PASSES = [pass_layering, pass_wallclock_taint, pass_death_swallow,
          pass_fiber_stack, pass_bench_schema]


# --------------------------------------------------------------------------
# suppression + driver
# --------------------------------------------------------------------------

def apply_suppressions(a):
    """Drop findings justified by a NOLINT(sim-<rule>): <reason> on the
    line or the comment block above.  Returns (kept, honored_count)."""
    kept = []
    honored = 0
    nolint_by_file = {}
    for path, sf in a.model.files.items():
        nolint, _ = sf.ctx.suppressions()
        nolint_by_file[path] = (sf.ctx, nolint)
    for path, line0, rule, msg in sorted(set(a.findings)):
        ctx_nolint = nolint_by_file.get(path)
        if ctx_nolint:
            ctx, nolint = ctx_nolint
            if any(rule in nolint.get(ln, ())
                   for ln in ctx.comment_block_lines(line0)):
                honored += 1
                continue
        kept.append((path, line0 + 1, rule, msg))
    kept.sort()
    return kept, honored


def analyze(root, manifest_path, scan_dirs=sc.SCAN_DIRS, manifest_display=None):
    model = Model(root, scan_dirs)
    manifest = Manifest(manifest_path)
    a = Analysis(model, manifest, manifest_display)
    for p in PASSES:
        p(a)
    return a


def run_lint(root, manifest_path):
    a = analyze(root, manifest_path)
    findings, honored = apply_suppressions(a)
    if findings:
        print("semantic_check: FAIL -- %d finding(s):" % len(findings),
              file=sys.stderr)
        sc.print_findings(findings)
        print(sc.rule_summary_line("semantic_check", findings), file=sys.stderr)
        if any(rule == "sim-layering" for _, _, rule, _ in findings):
            print("semantic_check: layer manifest: %s" %
                  os.path.join(root, MANIFEST), file=sys.stderr)
        print("semantic_check: suppress with '// NOLINT(sim-<rule>): "
              "<reason>' or a manifest allow entry; see README 'Static "
              "analysis'", file=sys.stderr)
        return 1
    stats = a.model.stats()
    print("semantic_check: OK (%d files, %d include edges, %d functions, "
          "%d call sites; 0 findings, %d justified suppression(s))" %
          (stats["files"], stats["include_edges"], stats["functions"],
           stats["call_sites"], honored))
    return 0


# --------------------------------------------------------------------------
# self-test: seeded fixture tree + model-builder unit tests + pinned stats
# --------------------------------------------------------------------------

def expected_sem_findings(root):
    expected = set()
    tree = os.path.join(root, SEM_FIXTURE_DIR, "tree")
    for dirpath, _, names in os.walk(tree):
        for name in sorted(names):
            if not name.endswith(sc.SCAN_EXTS):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), tree)
            rel = rel.replace(os.sep, "/")
            with open(os.path.join(dirpath, name), "r", encoding="utf-8") as f:
                for i, raw in enumerate(f.read().split("\n")):
                    m = re.search(r"EXPECT-SEM(-NEXT)?:\s*([\w\-, ]+)", raw)
                    if not m:
                        continue
                    line1 = i + 2 if m.group(1) else i + 1
                    for rule in m.group(2).split(","):
                        rule = rule.strip()
                        if rule:
                            expected.add((rel, line1, rule))
    extra = os.path.join(root, SEM_FIXTURE_DIR, "expect_extra.json")
    if os.path.exists(extra):
        with open(extra, "r", encoding="utf-8") as f:
            for path, line1, rule in json.load(f):
                expected.add((path, line1, rule))
    return expected


def run_fixture_test(root):
    tree = os.path.join(root, SEM_FIXTURE_DIR, "tree")
    manifest = os.path.join(root, SEM_FIXTURE_DIR, "layers.json")
    if not os.path.isdir(tree):
        print("semantic_check --self-test: no fixture tree under %s" %
              tree, file=sys.stderr)
        return False
    a = analyze(tree, manifest, scan_dirs=("src", "bench", "tests"),
                manifest_display="layers.json")
    findings, honored = apply_suppressions(a)
    actual = {(p, ln, rule) for p, ln, rule, _ in findings}
    expected = expected_sem_findings(root)
    ok = True
    for p, ln, rule in sorted(expected - actual):
        print("self-test: MISSED expected finding %s:%d %s" % (p, ln, rule),
              file=sys.stderr)
        ok = False
    for p, ln, rule in sorted(actual - expected):
        print("self-test: UNEXPECTED finding %s:%d %s" % (p, ln, rule),
              file=sys.stderr)
        ok = False
    if honored < 1:
        print("self-test: expected at least one honored suppression in the "
              "fixture tree", file=sys.stderr)
        ok = False
    fired = {r for _, _, r in expected}
    silent = set(RULES) - fired
    if silent:
        print("self-test: no fixture exercises rule(s): %s" %
              ", ".join(sorted(silent)), file=sys.stderr)
        ok = False
    if ok:
        print("semantic_check fixtures: OK (%d seeded findings across %d "
              "rules; %d suppression(s) honored)" %
              (len(expected), len(fired), honored))
    return ok


def run_model_tests(root):
    """Unit tests for the project-model builder itself, on the synthetic
    tree under tests/lint_fixtures/semantic/model."""
    mroot = os.path.join(root, SEM_FIXTURE_DIR, "model")
    ok = True

    def check(cond, what):
        nonlocal ok
        if cond:
            print("model-test: OK   %s" % what)
        else:
            print("model-test: FAIL %s" % what, file=sys.stderr)
            ok = False

    model = Model(mroot, scan_dirs=("src",))

    # include-graph: the seeded a<->b cycle is detected, once
    check(len(model.include_cycles) == 1 and
          sorted(model.include_cycles[0][:-1]) ==
          ["src/a/cycle_a.h", "src/b/cycle_b.h"],
          "include-graph cycle detection (a <-> b, reported once)")

    # symbol table: namespaced definitions resolved with full quals
    quals = {fn.qual for sf in model.files.values() for fn in sf.functions}
    check("ns_a::helper" in quals and "ns_b::helper" in quals and
          "ns_a::Widget::helper" in quals,
          "namespace/class-qualified symbol table")

    # call resolution: bare call from ns_a::caller prefers the same-file
    # free helper; qualified call resolves across namespaces; method call
    # from inside Widget prefers the class overload
    by_qual = {}
    for sf in model.files.values():
        for fn in sf.functions:
            by_qual[fn.qual] = fn

    caller = by_qual.get("ns_a::caller")
    target = None
    if caller:
        call = next((c for c in caller.calls if c.bare == "helper"), None)
        if call:
            res = model.resolve_strict(caller, call)
            target = res[0].qual if len(res) == 1 else None
    check(target == "ns_a::helper",
          "bare-call overload resolution (same file wins): got %r" % target)

    qcaller = by_qual.get("ns_a::cross_caller")
    qtarget = None
    if qcaller:
        call = next((c for c in qcaller.calls if "::" in c.name), None)
        if call:
            res = model.resolve_strict(qcaller, call)
            qtarget = res[0].qual if len(res) == 1 else None
    check(qtarget == "ns_b::helper",
          "qualified-call resolution across namespaces: got %r" % qtarget)

    mcaller = by_qual.get("ns_a::Widget::spin")
    mtarget = None
    if mcaller:
        call = next((c for c in mcaller.calls if c.bare == "helper"), None)
        if call:
            res = model.resolve_strict(mcaller, call)
            mtarget = res[0].qual if len(res) == 1 else None
    check(mtarget == "ns_a::Widget::helper",
          "method-call resolution (same class wins): got %r" % mtarget)

    # pinned stats: exact on the synthetic model tree (it only changes
    # deliberately), tolerance-banded on the real tree (the gate catches
    # the parser silently collapsing, not ordinary source growth)
    stats_path = os.path.join(root, MODEL_STATS)
    if not os.path.exists(stats_path):
        check(False, "pinned stats file %s exists (run --update-stats)" %
              MODEL_STATS)
        return ok
    with open(stats_path, "r", encoding="utf-8") as f:
        pinned = json.load(f)

    fstats = model.stats()
    check(fstats == pinned.get("model_fixture"),
          "model-fixture stats pinned exactly: %s vs pinned %s" %
          (fstats, pinned.get("model_fixture")))

    tstats = Model(root).stats()
    drifted = []
    for key, val in pinned.get("tree", {}).items():
        cur = tstats.get(key, 0)
        if val and abs(cur - val) / float(val) > TREE_STATS_TOLERANCE:
            drifted.append("%s: %d vs pinned %d" % (key, cur, val))
    check(not drifted,
          "tree-wide node/edge counts within %d%% of the pin (%s): %s" %
          (int(TREE_STATS_TOLERANCE * 100), MODEL_STATS,
           "; ".join(drifted) if drifted else tstats))
    return ok


def update_stats(root):
    mroot = os.path.join(root, SEM_FIXTURE_DIR, "model")
    doc = {
        "_doc": "pinned by semantic_check.py --update-stats; model_fixture "
                "is compared exactly, tree within a +-%d%% band"
                % int(TREE_STATS_TOLERANCE * 100),
        "model_fixture": Model(mroot, scan_dirs=("src",)).stats(),
        "tree": Model(root).stats(),
    }
    path = os.path.join(root, MODEL_STATS)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print("semantic_check: pinned model stats -> %s" % path)
    return 0


def run_self_test(root):
    ok = run_fixture_test(root)
    ok = run_model_tests(root) and ok
    if ok:
        print("semantic_check --self-test: OK")
    return 0 if ok else 2


def main(argv):
    default_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=default_root, help="repository root")
    ap.add_argument("--manifest", default=None,
                    help="layer manifest (default: <root>/%s)" % MANIFEST)
    ap.add_argument("--self-test", action="store_true",
                    help="fixture tree + model-builder tests + pinned stats")
    ap.add_argument("--test-model", action="store_true",
                    help="model-builder unit tests only")
    ap.add_argument("--update-stats", action="store_true",
                    help="re-pin %s" % MODEL_STATS)
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print("%-24s %s" % (rule, RULES[rule]))
        return 0
    if args.update_stats:
        return update_stats(args.root)
    if args.self_test:
        return run_self_test(args.root)
    if args.test_model:
        return 0 if run_model_tests(args.root) else 2
    manifest = args.manifest or os.path.join(args.root, MANIFEST)
    return run_lint(args.root, manifest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
