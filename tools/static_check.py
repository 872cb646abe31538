#!/usr/bin/env python3
"""Repo-native static analysis: determinism & lock-discipline linter.

Stdlib only (the repo adds no dependencies).  A comment/string-stripping
C++ lexer feeds a per-file rule engine that enforces the invariants the
reproduction's headline guarantees rest on -- bit-identical simulated time
at any thread budget, and observational-only tracing:

  sim-nondeterminism          no entropy / wall-clock reads (rand, srand,
                              std::random_device, steady_clock::now, ...)
                              anywhere in src/, bench/, tests/ except the
                              allowlisted shim src/core/wallclock.h
  sim-unordered-iter          no iteration over std::unordered_map/set in
                              the sim-time-affecting layers (src/sim,
                              src/perfmodel, src/trace, src/parallel)
                              without a `// SIM_ORDERED: <reason>`
  sim-float-accum             no raw `+=` float-accumulation loops in
                              src/blas outside exec::parallel_reduce
                              (reduction-order safety)
  sim-span-pairing            a captured `*begin*_us` timestamp in src/
                              must feed a later tracer span() call (no
                              half-recorded trace windows)
  sim-using-namespace-header  no `using namespace` in headers
  sim-static-state            mutable function-local `static` state needs
                              an explicit justification
  sim-mutex-coverage          every mutex member must be referenced by at
                              least one QUDA_GUARDED_BY / QUDA_REQUIRES /
                              ... annotation; every condition-variable
                              member, held directly or through a container
                              or smart pointer, must carry
                              QUDA_CV_WAITS_WITH; every annotation argument
                              must name a declared mutex
                              (core/annotations.h)
  sim-bad-suppression         malformed suppression: NOLINT without a
                              rule list or reason, unknown rule name, or
                              an empty SIM_ORDERED justification

Every rule is individually suppressible with `// NOLINT(sim-<rule>): <reason>`
on the offending line or in the comment block directly above it; the reason
is mandatory.  sim-unordered-iter additionally accepts `// SIM_ORDERED:
<reason>` as its domain-specific justification.

The cross-translation-unit rule families (sim-layering, sim-wallclock-taint,
sim-death-swallow, sim-fiber-stack, sim-bench-schema) live in the companion
pass layer tools/semantic_check.py, which builds a whole-project model
(include graph, symbol table, call graph) on top of this file's lexer.
Their names are registered here so NOLINT suppressions naming them
validate, but the passes themselves run in semantic_check.py.

Usage:
  static_check.py [--root DIR] [FILE ...]   lint the tree (or only FILEs,
                                            registry still tree-wide)
  static_check.py --self-test [--root DIR]  run the seeded-violation
                                            fixtures under
                                            tests/lint_fixtures and assert
                                            every rule fires exactly where
                                            the EXPECT-LINT markers say
  static_check.py --list-rules              print the rule table

Exit status: 0 when clean.  Distinct failure codes keep CI logs
unambiguous: 1 means the tree carries findings (lint mode), 2 means the
seeded-violation fixtures mismatched (--self-test mode).
"""

import argparse
import os
import re
import sys

SCAN_DIRS = ("src", "bench", "tests")
SCAN_EXTS = (".h", ".cpp")
FIXTURE_DIR = os.path.join("tests", "lint_fixtures")
# the semantic fixture trees belong to tools/semantic_check.py --self-test;
# this linter's fixture walk must not pick up their EXPECT-SEM markers
SEMANTIC_FIXTURE_DIR = os.path.join(FIXTURE_DIR, "semantic")
WALLCLOCK_SHIM = "src/core/wallclock.h"
# the annotated-primitive layer itself: defines the macros / wraps the raw
# std primitives, so the coverage rule does not apply to it
ANNOTATION_LAYER = ("src/core/annotations.h", "src/core/sync.h")
ORDERED_LAYERS = ("src/sim/", "src/perfmodel/", "src/trace/", "src/parallel/")

RULES = {
    "sim-nondeterminism": "entropy / wall-clock source outside src/core/wallclock.h",
    "sim-unordered-iter": "unordered-container iteration in a sim-time-affecting layer",
    "sim-float-accum": "raw += float accumulation loop outside parallel_reduce",
    "sim-span-pairing": "captured *begin*_us timestamp never reaches a span() call",
    "sim-using-namespace-header": "using namespace in a header",
    "sim-static-state": "mutable function-local static state",
    "sim-mutex-coverage": "mutex/condvar member without annotation coverage",
    "sim-bad-suppression": "malformed NOLINT / SIM_ORDERED suppression",
}

# Whole-program rule families implemented by tools/semantic_check.py on the
# cross-TU project model.  Registered here so a NOLINT naming one of them is
# a valid suppression wherever suppressions are parsed.
SEMANTIC_RULES = {
    "sim-layering": "upward #include against the layer DAG in tools/layers.json",
    "sim-wallclock-taint": "call path from sim-time code into a wall-clock/entropy-"
                           "tainted function outside the allowlisted shim",
    "sim-death-swallow": "generic catch that could swallow sim::RankDeath without "
                         "rethrowing or proving death-safety",
    "sim-fiber-stack": "stack frame over the fiber budget, or a recursion cycle, "
                       "reachable from fiber entry points",
    "sim-bench-schema": "bench metric emitted but not gated/allowlisted, or gated "
                        "but never emitted (tools/bench_diff.py)",
}

# every rule name a NOLINT may legally reference
KNOWN_RULES = {**RULES, **SEMANTIC_RULES}


# --------------------------------------------------------------------------
# lexer: strip comments and string/char literals, keep line structure
# --------------------------------------------------------------------------

def mask_code(text):
    """Return (code, comments): `code` is `text` with comment and literal
    contents replaced by spaces (newlines kept, so offsets and line numbers
    survive); `comments` maps 0-based line -> concatenated comment text."""
    n = len(text)
    code = []
    comments = {}
    line = 0
    i = 0

    def note(ch):
        comments[line] = comments.get(line, "") + ch

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            code.append("  ")
            i += 2
            while i < n and text[i] != "\n":
                note(text[i])
                code.append(" ")
                i += 1
            continue
        if c == "/" and nxt == "*":
            code.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] == "\n":
                    code.append("\n")
                    line += 1
                else:
                    note(text[i])
                    code.append(" ")
                i += 1
            if i < n:
                code.append("  ")
                i += 2
            continue
        if c == "R" and nxt == '"':
            # raw string literal R"delim( ... )delim"
            m = re.match(r'R"([^()\s\\]{0,16})\(', text[i:])
            if m:
                end = text.find(")" + m.group(1) + '"', i + m.end())
                stop = n if end < 0 else end + len(m.group(1)) + 2
                for j in range(i, stop):
                    if text[j] == "\n":
                        code.append("\n")
                        line += 1
                    else:
                        code.append(" ")
                i = stop
                continue
        if c == '"' or c == "'":
            quote = c
            code.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    code.append("  ")
                    i += 2
                    continue
                code.append("\n" if text[i] == "\n" else " ")
                if text[i] == "\n":
                    line += 1
                i += 1
            if i < n:
                code.append(" ")
                i += 1
            continue
        code.append(c)
        if c == "\n":
            line += 1
        i += 1
    return "".join(code), comments


def match_delim(code, pos, open_ch, close_ch):
    """Index just past the delimiter that closes code[pos] (== open_ch)."""
    depth = 0
    for i in range(pos, len(code)):
        if code[i] == open_ch:
            depth += 1
        elif code[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def line_of(code, offset):
    return code.count("\n", 0, offset)  # 0-based


# --------------------------------------------------------------------------
# scope classification: namespace / record / init / code bodies
# --------------------------------------------------------------------------

_RECORD_RE = re.compile(r"\b(class|struct|union|enum)\b")
_NS_RE = re.compile(r"\bnamespace\b")


def build_scopes(code):
    """List of (start, end, kind) for every {...} block, kind in
    {'namespace', 'record', 'init', 'code'}."""
    scopes = []
    stack = []
    stmt_start = 0
    for i, c in enumerate(code):
        if c == "{":
            head = code[stmt_start:i]
            prev = head.rstrip()[-1:] if head.rstrip() else ""
            if _NS_RE.search(head):
                kind = "namespace"
            elif _RECORD_RE.search(head) and "(" not in head:
                kind = "record"
            elif prev in ("=", ",", "(", "{") or prev == "":
                kind = "init"
            else:
                kind = "code"
            stack.append((i, kind))
            stmt_start = i + 1
        elif c == "}":
            if stack:
                start, kind = stack.pop()
                scopes.append((start, i, kind))
            stmt_start = i + 1
        elif c == ";":
            stmt_start = i + 1
    while stack:  # unbalanced file: close at EOF
        start, kind = stack.pop()
        scopes.append((start, len(code), kind))
    return scopes


def enclosing_kind(scopes, offset):
    """Kind of the innermost scope containing offset ('' at file scope)."""
    best = None
    for start, end, kind in scopes:
        if start < offset <= end and (best is None or start > best[0]):
            best = (start, kind)
    return best[1] if best else ""


def inside_function(scopes, offset):
    """True if any enclosing scope is a code (function/control) body."""
    return any(start < offset <= end and kind == "code"
               for start, end, kind in scopes if start < offset)


# --------------------------------------------------------------------------
# suppression handling
# --------------------------------------------------------------------------

_NOLINT_RE = re.compile(r"NOLINT(?:\(([^)]*)\))?\s*:?\s*(.*)")
_ORDERED_RE = re.compile(r"SIM_ORDERED\s*(:?)\s*(.*)")


class FileCtx:
    def __init__(self, path, effective, text):
        self.path = path            # reported path (relative, posix)
        self.effective = effective  # path used for rule scoping (LINT-AS)
        self.text = text
        self.lines = text.split("\n")
        self.code, self.comments = mask_code(text)
        self.code_lines = self.code.split("\n")
        self.scopes = build_scopes(self.code)
        self.findings = []          # (line0, rule, message)

    def report(self, line0, rule, message):
        self.findings.append((line0, rule, message))

    def comment_block_lines(self, line0):
        """The given line plus the run of comment-only lines directly above."""
        result = [line0]
        ln = line0 - 1
        while ln >= 0 and ln in self.comments and self.code_lines[ln].strip() == "":
            result.append(ln)
            ln -= 1
        return result

    def suppressions(self):
        """Map line -> set of rules a well-formed NOLINT there suppresses,
        plus the list of SIM_ORDERED lines; emits sim-bad-suppression."""
        nolint = {}
        ordered = set()
        for ln, comment in sorted(self.comments.items()):
            if "NOLINT" in comment:
                m = _NOLINT_RE.search(comment)
                rules = [r.strip() for r in (m.group(1) or "").split(",") if r.strip()]
                reason = (m.group(2) or "").strip()
                if not rules:
                    self.report(ln, "sim-bad-suppression",
                                "NOLINT needs an explicit rule list: NOLINT(sim-<rule>): <reason>")
                    continue
                unknown = [r for r in rules if r not in KNOWN_RULES]
                if unknown:
                    self.report(ln, "sim-bad-suppression",
                                "NOLINT names unknown rule(s): " + ", ".join(unknown))
                    continue
                if not reason:
                    self.report(ln, "sim-bad-suppression",
                                "NOLINT(%s) without a reason; the reason is mandatory"
                                % ",".join(rules))
                    continue
                nolint.setdefault(ln, set()).update(rules)
            if "SIM_ORDERED" in comment:
                m = _ORDERED_RE.search(comment)
                if not m.group(1) or not m.group(2).strip():
                    self.report(ln, "sim-bad-suppression",
                                "SIM_ORDERED without a justification: SIM_ORDERED: <reason>")
                else:
                    ordered.add(ln)
        return nolint, ordered


# --------------------------------------------------------------------------
# rules
# --------------------------------------------------------------------------

_BANNED = [
    (re.compile(r"\brand\s*\("), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"\brand_r\s*\("), "rand_r()"),
    (re.compile(r"\bdrand48\s*\("), "drand48()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\b"),
     "chrono clock read"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"\btimespec_get\s*\("), "timespec_get()"),
    (re.compile(r"\b(?:localtime|gmtime|mktime)\s*\("), "calendar time"),
]


def rule_nondeterminism(ctx):
    if ctx.effective == WALLCLOCK_SHIM:
        return
    for rx, label in _BANNED:
        for m in rx.finditer(ctx.code):
            ctx.report(line_of(ctx.code, m.start()), "sim-nondeterminism",
                       "banned nondeterminism source %s; wall-clock reads go through "
                       "src/core/wallclock.h" % label)


_UNORDERED_RE = re.compile(r"\bunordered_(?:map|set)\s*<")
_RANGE_FOR_RE = re.compile(r"\bfor\s*\(")
_ITER_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*c?r?(?:begin|end)\s*\(")


def rule_unordered_iter(ctx):
    if not ctx.effective.startswith(ORDERED_LAYERS):
        return
    declared = set()
    for m in _UNORDERED_RE.finditer(ctx.code):
        close = match_delim(ctx.code, m.end() - 1, "<", ">")
        rest = ctx.code[close:close + 120]
        dm = re.match(r"[\s&*]*(?:const[\s&*]+)?(\w+)", rest)
        if dm:
            declared.add(dm.group(1))
    if not declared:
        return
    for m in _RANGE_FOR_RE.finditer(ctx.code):
        close = match_delim(ctx.code, m.end() - 1, "(", ")")
        # mask '::' so the scope operator is not mistaken for the range colon
        inner = ctx.code[m.end():close - 1].replace("::", "  ")
        if ":" not in inner:
            continue
        expr = inner.split(":", 1)[1].strip()
        em = re.search(r"(\w+)\s*$", expr)
        if em and em.group(1) in declared:
            ctx.report(line_of(ctx.code, m.start()), "sim-unordered-iter",
                       "iteration over unordered container '%s' in a sim-time-affecting "
                       "layer; use an ordered container or justify with SIM_ORDERED"
                       % em.group(1))
    for m in _ITER_CALL_RE.finditer(ctx.code):
        if m.group(1) in declared:
            ctx.report(line_of(ctx.code, m.start()), "sim-unordered-iter",
                       "iterator over unordered container '%s' in a sim-time-affecting "
                       "layer; use an ordered container or justify with SIM_ORDERED"
                       % m.group(1))


_FLOAT_DECL_RE = re.compile(r"\b(?:double|float|complexd|complexf)\s+(\w+)\s*[={]")
_REDUCE_RE = re.compile(r"\bparallel_reduce\b")
_FOR_RE = re.compile(r"\bfor\s*\(")
_ACCUM_RE = re.compile(r"\b(\w+)\s*\+=")


def rule_float_accum(ctx):
    if not ctx.effective.startswith("src/blas/"):
        return
    regions = []
    for m in _REDUCE_RE.finditer(ctx.code):
        i = m.end()
        while i < len(ctx.code) and ctx.code[i].isspace():
            i += 1
        if i < len(ctx.code) and ctx.code[i] == "<":
            i = match_delim(ctx.code, i, "<", ">")
            while i < len(ctx.code) and ctx.code[i].isspace():
                i += 1
        if i < len(ctx.code) and ctx.code[i] == "(":
            regions.append((m.start(), match_delim(ctx.code, i, "(", ")")))
    decls = {}
    for m in _FLOAT_DECL_RE.finditer(ctx.code):
        decls.setdefault(m.group(1), []).append(m.start())
    for m in _FOR_RE.finditer(ctx.code):
        close = match_delim(ctx.code, m.end() - 1, "(", ")")
        i = close
        while i < len(ctx.code) and ctx.code[i].isspace():
            i += 1
        if i >= len(ctx.code):
            continue
        body_start, body_end = (i, match_delim(ctx.code, i, "{", "}")) \
            if ctx.code[i] == "{" else (i, ctx.code.find(";", i) + 1)
        for am in _ACCUM_RE.finditer(ctx.code, body_start, body_end):
            name = am.group(1)
            before = ctx.code[am.start() - 1] if am.start() > 0 else " "
            if before in ".>":
                continue  # member access: o.r2 += ... (operator+= fold helpers)
            if name not in decls or not any(off < body_start for off in decls[name]):
                continue
            if any(a <= am.start() < b for a, b in regions):
                continue
            ctx.report(line_of(ctx.code, am.start()), "sim-float-accum",
                       "raw '+=' accumulation onto '%s' in a loop; route reductions "
                       "through exec::parallel_reduce for a thread-count-invariant "
                       "addition tree" % name)


_BEGIN_DECL_RE = re.compile(r"^[ \t]*(?:const\s+)?double\s+(\w*begin\w*_us)\s*=", re.M)
_SPAN_CALL_RE = re.compile(r"[.>]\s*span\s*\(")


def rule_span_pairing(ctx):
    if not ctx.effective.startswith("src/"):
        return
    spans = []
    for m in _SPAN_CALL_RE.finditer(ctx.code):
        op = ctx.code.find("(", m.start())
        spans.append((m.start(), match_delim(ctx.code, op, "(", ")")))
    for m in _BEGIN_DECL_RE.finditer(ctx.code):
        off = m.start(1)
        if not inside_function(ctx.scopes, off):
            continue
        name = m.group(1)
        paired = any(start > off and re.search(r"\b%s\b" % re.escape(name),
                                               ctx.code[start:end])
                     for start, end in spans)
        if not paired:
            ctx.report(line_of(ctx.code, off), "sim-span-pairing",
                       "'%s' captures a span begin time but no later span() call "
                       "consumes it" % name)


_USING_NS_RE = re.compile(r"\busing\s+namespace\b")


def rule_using_namespace_header(ctx):
    if not ctx.effective.endswith(".h"):
        return
    for m in _USING_NS_RE.finditer(ctx.code):
        ctx.report(line_of(ctx.code, m.start()), "sim-using-namespace-header",
                   "'using namespace' in a header leaks into every includer")


_STATIC_RE = re.compile(r"\bstatic\b")


def rule_static_state(ctx):
    for m in _STATIC_RE.finditer(ctx.code):
        if enclosing_kind(ctx.scopes, m.start()) != "code":
            continue
        stop = len(ctx.code)
        for ch in ";={(":
            p = ctx.code.find(ch, m.end())
            if p >= 0:
                stop = min(stop, p)
        decl = ctx.code[m.end():stop]
        if re.search(r"\b(?:const|constexpr|constinit)\b", decl):
            continue
        ctx.report(line_of(ctx.code, m.start()), "sim-static-state",
                   "mutable function-local static state persists across calls; "
                   "justify with NOLINT(sim-static-state) or refactor")


_MUTEX_DECL_RE = re.compile(r"\b(?:std::mutex|core::Mutex|Mutex)\s+(\w+)\s*;")
# a condvar member, held directly (`CondVar cv_`) or through a container or
# smart pointer (`std::vector<std::unique_ptr<CondVar>> slots_`,
# `std::unique_ptr<CondVar[]> cvs_`, `std::array<CondVar, 4> cvs_`): after
# the type come optional `[]`, trailing template arguments and closing `>`s,
# then the member name
_CV_DECL_RE = re.compile(
    r"\b(?:std::condition_variable(?:_any)?|core::CondVar|CondVar)\b"
    r"\s*(?:\[\s*\]\s*)?(?:(?:,[^<>;{}()]*)?>\s*)*(\w+)\s*(\()?")
_ANNOT_RE = re.compile(
    r"\bQUDA_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|ACQUIRE|RELEASE|TRY_ACQUIRE|"
    r"EXCLUDES|RETURN_CAPABILITY|CV_WAITS_WITH)\s*\(([^()]*)\)")


def collect_mutex_info(ctx, registry):
    """First pass of sim-mutex-coverage: record declared mutexes, CV
    declarations, and annotation references into the tree-wide registry."""
    if ctx.effective in ANNOTATION_LAYER:
        return
    for m in _MUTEX_DECL_RE.finditer(ctx.code):
        if enclosing_kind(ctx.scopes, m.start()) != "record":
            continue
        registry["mutexes"][m.group(1)] = (ctx, line_of(ctx.code, m.start()))
    for m in _CV_DECL_RE.finditer(ctx.code):
        # a member function returning one (`unique_ptr<CondVar> make()`) is
        # not a member
        if enclosing_kind(ctx.scopes, m.start()) != "record" or m.group(2):
            continue
        stop = ctx.code.find(";", m.end())
        stmt = ctx.code[m.start():stop if stop >= 0 else len(ctx.code)]
        registry["cvs"].append((ctx, line_of(ctx.code, m.start()), m.group(1),
                                "QUDA_CV_WAITS_WITH" in stmt))
    for m in _ANNOT_RE.finditer(ctx.code):
        for arg in m.group(1).split(","):
            am = re.search(r"(\w+)\s*$", arg.strip().lstrip("!"))
            if not am or am.group(1) in ("true", "false") or am.group(1).isdigit():
                continue
            registry["refs"].append((ctx, line_of(ctx.code, m.start()), am.group(1)))


def resolve_mutex_coverage(registry):
    """Second pass: cross-file resolution once every file is collected."""
    referenced = {name for _, _, name in registry["refs"]}
    for name, (ctx, ln) in sorted(registry["mutexes"].items()):
        if name not in referenced:
            ctx.report(ln, "sim-mutex-coverage",
                       "mutex '%s' is not referenced by any QUDA_GUARDED_BY / "
                       "QUDA_REQUIRES / ... annotation (core/annotations.h)" % name)
    for ctx, ln, name, annotated in registry["cvs"]:
        if not annotated:
            ctx.report(ln, "sim-mutex-coverage",
                       "condition variable '%s' must declare its pairing mutex with "
                       "QUDA_CV_WAITS_WITH(<mutex>)" % name)
    for ctx, ln, name in registry["refs"]:
        if name not in registry["mutexes"]:
            ctx.report(ln, "sim-mutex-coverage",
                       "annotation references '%s', which is not a declared mutex "
                       "member anywhere in the scanned tree" % name)


PER_FILE_RULES = [rule_nondeterminism, rule_unordered_iter, rule_float_accum,
                  rule_span_pairing, rule_using_namespace_header, rule_static_state]


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

def effective_path(rel, text):
    """Fixture files may carry a '// LINT-AS: <path>' directive in the first
    few lines to opt into path-scoped rules; real tree files never do."""
    if rel.startswith(FIXTURE_DIR.replace(os.sep, "/")):
        m = re.search(r"LINT-AS:\s*(\S+)", "\n".join(text.split("\n")[:5]))
        if m:
            return m.group(1)
    return rel


def scan_tree(root, files=None):
    """Lint the tree under root.  The whole tree is always scanned (the
    mutex-coverage registry is cross-file); an explicit file list only
    restricts which findings are reported.  Findings: (path, line1, rule,
    msg)."""
    paths = []
    for d in SCAN_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, d)):
            rel_dir = os.path.relpath(dirpath, root)
            if rel_dir.replace(os.sep, "/").startswith(FIXTURE_DIR.replace(os.sep, "/")):
                continue
            for name in sorted(names):
                if name.endswith(SCAN_EXTS):
                    paths.append(os.path.join(rel_dir, name))
    findings, suppressed, nfiles = scan_paths(root, sorted(paths))
    if files:
        want = {os.path.relpath(os.path.abspath(f), root).replace(os.sep, "/")
                for f in files}
        findings = [f for f in findings if f[0] in want]
    return findings, suppressed, nfiles


def scan_paths(root, paths):
    registry = {"mutexes": {}, "cvs": [], "refs": []}
    contexts = []
    for rel in paths:
        rel_posix = rel.replace(os.sep, "/")
        with open(os.path.join(root, rel), "r", encoding="utf-8") as f:
            text = f.read()
        ctx = FileCtx(rel_posix, effective_path(rel_posix, text), text)
        contexts.append(ctx)
        for rule in PER_FILE_RULES:
            rule(ctx)
        collect_mutex_info(ctx, registry)
    resolve_mutex_coverage(registry)

    findings = []
    suppressed = 0
    for ctx in contexts:
        nolint, ordered = ctx.suppressions()

        def is_suppressed(line0, rule):
            for ln in ctx.comment_block_lines(line0):
                if rule in nolint.get(ln, ()):
                    return True
                if rule == "sim-unordered-iter" and ln in ordered:
                    return True
            return False

        for line0, rule, msg in sorted(set(ctx.findings)):
            if rule != "sim-bad-suppression" and is_suppressed(line0, rule):
                suppressed += 1
            else:
                findings.append((ctx.path, line0 + 1, rule, msg))
    findings.sort()
    return findings, suppressed, len(contexts)


def print_findings(findings):
    """The offending file:line rule table (mirrors bench_diff attribution)."""
    locs = ["%s:%d" % (p, ln) for p, ln, _, _ in findings]
    wloc = max(len(s) for s in locs)
    wrule = max(len(r) for _, _, r, _ in findings)
    for (path, ln, rule, msg), loc in zip(findings, locs):
        print("  %-*s  %-*s  %s" % (wloc, loc, wrule, rule, msg), file=sys.stderr)


def rule_summary_line(tool, findings):
    """One line per failed run: '<tool>: rule summary -- rule:count ...'
    (quick_gate.sh and CI grep for it)."""
    counts = {}
    for _, _, rule, _ in findings:
        counts[rule] = counts.get(rule, 0) + 1
    return "%s: rule summary -- %s" % (
        tool, " ".join("%s:%d" % (r, counts[r]) for r in sorted(counts)))


def run_lint(root, files):
    findings, suppressed, nfiles = scan_tree(root, files)
    if findings:
        print("static_check: FAIL -- %d finding(s):" % len(findings), file=sys.stderr)
        print_findings(findings)
        print(rule_summary_line("static_check", findings), file=sys.stderr)
        print("static_check: suppress with '// NOLINT(sim-<rule>): <reason>' "
              "(reason mandatory); see README 'Static analysis'", file=sys.stderr)
        return 1
    print("static_check: OK (%d files, 0 findings, %d justified suppression(s))"
          % (nfiles, suppressed))
    return 0


def skip_semantic_dir(root, dirpath):
    rel = os.path.relpath(dirpath, root).replace(os.sep, "/")
    return rel.startswith(SEMANTIC_FIXTURE_DIR.replace(os.sep, "/"))


def expected_from_fixtures(root, fdir):
    expected = set()
    for dirpath, _, names in os.walk(os.path.join(root, fdir)):
        if skip_semantic_dir(root, dirpath):
            continue
        for name in sorted(names):
            if not name.endswith(SCAN_EXTS):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), root).replace(os.sep, "/")
            with open(os.path.join(dirpath, name), "r", encoding="utf-8") as f:
                for i, raw in enumerate(f.read().split("\n")):
                    m = re.search(r"EXPECT-LINT(-NEXT)?:\s*([\w\-, ]+)", raw)
                    if not m:
                        continue
                    line1 = i + 2 if m.group(1) else i + 1
                    for rule in m.group(2).split(","):
                        rule = rule.strip()
                        if rule:
                            expected.add((rel, line1, rule))
    return expected


def run_self_test(root):
    fdir = FIXTURE_DIR.replace(os.sep, "/")
    fixture_paths = []
    for dirpath, _, names in os.walk(os.path.join(root, fdir)):
        if skip_semantic_dir(root, dirpath):
            continue
        for name in sorted(names):
            if name.endswith(SCAN_EXTS):
                fixture_paths.append(os.path.relpath(os.path.join(dirpath, name), root))
    if not fixture_paths:
        print("static_check --self-test: no fixtures under %s" % fdir, file=sys.stderr)
        return 1
    findings, suppressed, _ = scan_paths(root, sorted(fixture_paths))
    actual = {(p, ln, rule) for p, ln, rule, _ in findings}
    expected = expected_from_fixtures(root, fdir)
    missed = expected - actual
    extra = actual - expected
    ok = True
    for p, ln, rule in sorted(missed):
        print("self-test: MISSED expected finding %s:%d %s" % (p, ln, rule),
              file=sys.stderr)
        ok = False
    for p, ln, rule in sorted(extra):
        print("self-test: UNEXPECTED finding %s:%d %s" % (p, ln, rule), file=sys.stderr)
        ok = False
    if suppressed < 1:
        print("self-test: expected at least one honored suppression in the fixtures",
              file=sys.stderr)
        ok = False
    fired = {r for _, _, r in expected}
    silent = set(RULES) - fired
    if silent:
        print("self-test: no fixture exercises rule(s): %s" % ", ".join(sorted(silent)),
              file=sys.stderr)
        ok = False
    if ok:
        print("static_check --self-test: OK (%d seeded findings across %d rules all "
              "fired; %d suppression(s) honored)" % (len(expected), len(fired),
                                                     suppressed))
    # exit 2 (not 1) so CI logs can tell a fixture mismatch (the linter
    # itself regressed) from tree findings (the tree regressed)
    return 0 if ok else 2


def main(argv):
    default_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*",
                    help="restrict the report to these files (registry stays tree-wide)")
    ap.add_argument("--root", default=default_root, help="repository root")
    ap.add_argument("--self-test", action="store_true",
                    help="verify every rule against tests/lint_fixtures")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print("%-28s %s" % (rule, RULES[rule]))
        for rule in sorted(SEMANTIC_RULES):
            print("%-28s %s  [semantic_check.py]" % (rule, SEMANTIC_RULES[rule]))
        return 0
    if args.self_test:
        return run_self_test(args.root)
    return run_lint(args.root, args.files)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
