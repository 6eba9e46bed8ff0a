#!/usr/bin/env python3
"""mcm_lint.py — project-specific structural C++ linter for the mcm library.

The cost model's validity rests on invariants the compiler cannot see:
every distance evaluation must flow through the injected metric (wrapped in
CountedMetric by measurement code), every node access through the
BufferPool, and the library must stay deterministic and silent. This linter
enforces those conventions with regex rules that are comment-, string- and
structure-aware (brace/namespace tracking, include-block parsing), each with
a per-rule path allowlist.

Rules (each registered as its own ctest, `lint_<rule>`):

  no-raw-metric-call        Index/engine/cost code may not name or invoke a
                            concrete metric functor (L2Distance,
                            EditDistanceMetric, ...); distances flow through
                            the injected Metric type, which measurement code
                            wraps in CountedMetric.
  no-pagefile-bypass        Only the BufferPool (and tests) may call
                            PageFile::ReadPage/WritePage; everything else
                            would corrupt the I/O cost accounting.
  no-unguarded-mutable-static
                            No mutable static state in library code unless
                            it is const, atomic, or a synchronization
                            primitive (thread safety + determinism).
  no-rand-or-time           No ambient entropy or wall-clock reads in
                            library code; RNG only via mcm/common/random.h,
                            clock reads only via common/clock.h (the single
                            seam Stopwatch and the phase timers share).
  no-iostream-in-library    Library code reports through obs/ or return
                            values, never by writing to std::cout/cerr.
  header-guard              Headers carry an include guard named after
                            their path (MCM_<PATH>_H_) or #pragma once.
  include-order             Include blocks are homogeneous (<...> and
                            "..." separated by blank lines) and
                            alphabetized within each block.
  no-using-namespace-in-header
                            No `using namespace` in headers.
  no-adhoc-vector-math      Coordinate-wise vector difference loops
                            (`a[i] - b[i]`) are only allowed inside
                            src/mcm/metric/ — everywhere else they bypass
                            the dispatched SIMD kernels and fork the
                            accumulation order.
  no-direct-prune-distance  Index traversal code (mtree/vptree/gnat/
                            baseline) may not call BoundedDistance, a
                            metric's DistanceWithin or a query evaluator's
                            (metric/prepared.h) DistanceWithin directly;
                            prune-site evaluations go through
                            engine/witness.h (GuardedDistanceWithin(chain,
                            capacity, stored, eval, x, bound, st),
                            CountedDistanceWithin(eval, x, bound, st)) so
                            the witness cascade sees every computed
                            distance and the avoided-evaluation accounting
                            stays exact.

A line containing `mcm-lint: allow(<rule>)` in a comment suppresses that
rule for that line (use sparingly; prefer fixing the code).

Usage:
  mcm_lint.py [--root REPO] [--rule RULE ...] [--list-rules] [--self-test]

Exit status: 0 clean, 1 violations found, 2 usage or I/O error.
"""

import argparse
import fnmatch
import pathlib
import re
import sys
import tempfile

# --------------------------------------------------------------------------
# Source model: comment/string stripping so rules match only real code.
# --------------------------------------------------------------------------


def strip_comments_and_strings(text):
    """Blanks comment bodies and string/char literal contents.

    Newlines and all structural characters outside comments/literals are
    preserved, so line numbers and brace tracking stay exact.
    """
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
            i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            elif c == "\n":  # Unterminated literal; recover.
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
    return "".join(out)


class SourceFile:
    """One scanned file: raw lines plus comment/string-blanked code lines."""

    def __init__(self, path, rel):
        self.path = path
        self.rel = rel  # POSIX-style path relative to the repo root.
        text = path.read_text(encoding="utf-8", errors="replace")
        self.raw_lines = text.splitlines()
        self.code_lines = strip_comments_and_strings(text).splitlines()
        # Include directives carry their target inside a string literal;
        # restore those lines (sans trailing comment) so include rules see
        # the real path. Commented-out includes stay blanked.
        include_re = re.compile(r"^\s*#\s*include\b")
        for i, code in enumerate(self.code_lines):
            if include_re.match(code):
                raw = self.raw_lines[i]
                raw = raw.split("//", 1)[0]
                self.code_lines[i] = raw

    def suppressed(self, lineno, rule):
        raw = self.raw_lines[lineno - 1]
        return f"mcm-lint: allow({rule})" in raw


class Violation:
    def __init__(self, rel, lineno, rule, message):
        self.rel = rel
        self.lineno = lineno
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.rel}:{self.lineno}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Rule framework.
# --------------------------------------------------------------------------


class Rule:
    """name/description plus scope globs, allowlist globs, and a checker."""

    def __init__(self, name, description, scope, allow, check):
        self.name = name
        self.description = description
        self.scope = scope  # fnmatch globs relative to the repo root.
        self.allow = allow  # fnmatch globs exempt from this rule.
        self.check = check  # fn(SourceFile) -> [(lineno, message)].

    def applies_to(self, rel):
        if not any(fnmatch.fnmatch(rel, g) for g in self.scope):
            return False
        return not any(fnmatch.fnmatch(rel, g) for g in self.allow)

    def run(self, sf):
        results = []
        for lineno, message in self.check(sf):
            if not sf.suppressed(lineno, self.name):
                results.append(Violation(sf.rel, lineno, self.name, message))
        return results


def _grep(sf, regex, message):
    """Matches `regex` against code (comment/string-stripped) lines."""
    out = []
    for lineno, line in enumerate(sf.code_lines, start=1):
        if regex.search(line):
            out.append((lineno, message(line) if callable(message)
                        else message))
    return out


# --------------------------------------------------------------------------
# Rule: no-raw-metric-call
# --------------------------------------------------------------------------

# Concrete metric functors and free distance functions defined in
# src/mcm/metric/. Index/engine/cost code must stay metric-generic.
METRIC_HEADER_RE = re.compile(
    r'#\s*include\s+"mcm/metric/(vector_metrics|string_metrics|'
    r'set_metrics)\.h"')
METRIC_FUNCTOR_CALL_RE = re.compile(
    r"\b(L1Distance|L2Distance|LInfDistance|LpDistance|EditDistanceMetric|"
    r"HausdorffMetric|JaccardMetric)\s*(\{\s*\}|\(\s*\))\s*\(")
METRIC_FREE_CALL_RE = re.compile(
    r"\b(EditDistance|BoundedEditDistance|HausdorffDistance|"
    r"JaccardDistance)\s*\(")


def check_raw_metric_call(sf):
    out = []
    if sf.rel.startswith("src/mcm/"):
        out += _grep(
            sf, METRIC_HEADER_RE,
            "concrete metric header included outside metric/dataset layers; "
            "take the metric as a template parameter instead")
    out += _grep(
        sf, METRIC_FUNCTOR_CALL_RE,
        "direct metric functor invocation; evaluate through the injected "
        "Metric (wrapped in CountedMetric by measurement code)")
    out += _grep(
        sf, METRIC_FREE_CALL_RE,
        "direct distance-function call; evaluate through the injected "
        "Metric (wrapped in CountedMetric by measurement code)")
    return out


# --------------------------------------------------------------------------
# Rule: no-pagefile-bypass
# --------------------------------------------------------------------------

PAGEFILE_RE = re.compile(r"\b(ReadPage|WritePage|ReadRun)\s*\(")


def check_pagefile_bypass(sf):
    return _grep(
        sf, PAGEFILE_RE,
        "PageFile::ReadPage/WritePage/ReadRun bypasses the BufferPool; fetch "
        "pages through a BufferPool (or a PagedNodeStore) so I/O costs stay "
        "exact")


# --------------------------------------------------------------------------
# Rule: no-unguarded-mutable-static
# --------------------------------------------------------------------------

STATIC_DECL_RE = re.compile(r"^\s*(inline\s+)?(thread_local\s+)?static\s")
# Tokens that make a static acceptable: immutability, atomicity, or being a
# synchronization primitive itself.
STATIC_OK_RE = re.compile(
    r"\bconst\b|\bconstexpr\b|std::atomic|std::mutex|std::shared_mutex|"
    r"std::once_flag|std::condition_variable|"
    r"\bmcm::Mutex\b|\bMutex\b|\bCondVar\b")  # common/mutex.h primitives


def check_mutable_static(sf):
    out = []
    for lineno, line in enumerate(sf.code_lines, start=1):
        if not STATIC_DECL_RE.match(line):
            continue
        decl = line.split("=", 1)[0]
        if STATIC_OK_RE.search(decl):
            continue
        # Function declarations/definitions: '(' in the declarator before
        # any initializer.
        if "(" in decl:
            continue
        # `static_assert`, `static_cast` in odd formatting.
        if re.match(r"^\s*static_(assert|cast)", line):
            continue
        out.append((lineno,
                    "mutable static state; make it const/atomic, guard it "
                    "with a named mutex, or move it into an object"))
    return out


# --------------------------------------------------------------------------
# Rule: no-rand-or-time
# --------------------------------------------------------------------------

RAND_TIME_RE = re.compile(
    r"\bstd::rand\b|\bsrand\s*\(|\brandom_device\b|\bstd::time\s*\(|"
    r"[^:\w]time\s*\(\s*(NULL|nullptr|0)\s*\)|::now\s*\(|"
    r"\bchrono::(steady_clock|system_clock|high_resolution_clock)\b|"
    r"\bgettimeofday\s*\(|\bclock_gettime\s*\(")


def check_rand_or_time(sf):
    return _grep(
        sf, RAND_TIME_RE,
        "ambient entropy/wall-clock read; seed RNGs via mcm/common/random.h "
        "and read the clock via common/clock.h's MonotonicNanos only")


# --------------------------------------------------------------------------
# Rule: no-iostream-in-library
# --------------------------------------------------------------------------

IOSTREAM_RE = re.compile(
    r'#\s*include\s*<iostream>|\bstd::(cout|cerr|clog)\b')


def check_iostream(sf):
    return _grep(
        sf, IOSTREAM_RE,
        "library code must not write to std::cout/std::cerr; report through "
        "obs/ observers or return values")


# --------------------------------------------------------------------------
# Rule: header-guard
# --------------------------------------------------------------------------


def expected_guard(rel):
    # src/mcm/mtree/node.h -> MCM_MTREE_NODE_H_
    assert rel.startswith("src/mcm/")
    stem = rel[len("src/mcm/"):]
    return "MCM_" + re.sub(r"[/.]", "_", stem).upper() + "_"


def check_header_guard(sf):
    guard = expected_guard(sf.rel)
    ifndef_re = re.compile(r"^\s*#\s*ifndef\s+(\w+)")
    define_re = re.compile(r"^\s*#\s*define\s+(\w+)")
    pragma_re = re.compile(r"^\s*#\s*pragma\s+once\b")
    ifndef_name = None
    define_name = None
    for line in sf.code_lines:
        if pragma_re.match(line):
            return []
        if ifndef_name is None:
            m = ifndef_re.match(line)
            if m:
                ifndef_name = m.group(1)
                continue
        elif define_name is None:
            m = define_re.match(line)
            if m:
                define_name = m.group(1)
            break
    if ifndef_name is None or define_name is None:
        return [(1, f"missing include guard (expected {guard} "
                 "or #pragma once)")]
    if ifndef_name != guard or define_name != guard:
        return [(1, f"include guard {ifndef_name} does not match path "
                 f"(expected {guard})")]
    return []


# --------------------------------------------------------------------------
# Rule: include-order
# --------------------------------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(<[^>]+>|"[^"]+")')


def check_include_order(sf):
    out = []
    # Collect contiguous include runs (consecutive include lines).
    runs = []
    current = []
    for lineno, line in enumerate(sf.code_lines, start=1):
        m = INCLUDE_RE.match(line)
        if m:
            target = m.group(1)
            kind = "sys" if target.startswith("<") else "proj"
            current.append((lineno, kind, target))
        elif current:
            runs.append(current)
            current = []
    if current:
        runs.append(current)

    first = True
    for run in runs:
        start = 0
        if first and sf.rel.endswith(".cc"):
            # The file's own header comes first, in its own block.
            own = "/" + pathlib.PurePosixPath(sf.rel).stem + ".h"
            if run[0][2].strip('"').endswith(own):
                start = 1
        first = False
        block = run[start:]
        if not block:
            continue
        kinds = {kind for _, kind, _ in block}
        if len(kinds) > 1:
            out.append((block[0][0],
                        "mixed <...> and \"...\" includes in one block; "
                        "separate them with a blank line"))
            continue
        for (ln_a, _, a), (ln_b, _, b) in zip(block, block[1:]):
            if a > b:
                out.append((ln_b, f"includes not alphabetized: {b} "
                            f"follows {a}"))
    return out


# --------------------------------------------------------------------------
# Rule: no-using-namespace-in-header
# --------------------------------------------------------------------------

USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\s")


def check_using_namespace(sf):
    return _grep(sf, USING_NAMESPACE_RE,
                 "`using namespace` in a header pollutes every includer; "
                 "qualify names instead")


# --------------------------------------------------------------------------
# Rule: no-adhoc-vector-math
# --------------------------------------------------------------------------

# Per-coordinate subtraction of two subscripted operands with the same
# index (`a[i] - b[i]`): the signature of a hand-rolled distance loop over
# FloatVector coordinates. Those loops belong in src/mcm/metric/ (where the
# SIMD kernels and their bounded variants live); anywhere else they silently
# fork the accumulation order and lose the kernel dispatch.
ADHOC_VECTOR_MATH_RE = re.compile(r"(\w+)\[(\w+)\]\s*-\s*(\w+)\[\2\]")


def check_adhoc_vector_math(sf):
    return _grep(
        sf, ADHOC_VECTOR_MATH_RE,
        "hand-rolled per-coordinate vector math; call the dispatched "
        "kernels in mcm/metric/kernels.h (or a metric functor) instead")


# --------------------------------------------------------------------------
# Rule: no-direct-prune-distance
# --------------------------------------------------------------------------

# A bounded evaluation at a prune site that does not flow through
# engine/witness.h never records a witness and never consults the cascade,
# silently forking the distance accounting. That holds for a metric's
# DistanceWithin(a, b, bound) and a query evaluator's DistanceWithin(x,
# bound) alike: both match below. The lookbehind keeps the sanctioned
# wrappers (GuardedDistanceWithin, CountedDistanceWithin) from matching on
# their common suffix. Whether exact evaluator calls (eval(x)) are charged
# is mcm_analyze's `accounting` rule, which sees whole functions.
PRUNE_DISTANCE_RE = re.compile(r"(?<!\w)(DistanceWithin|BoundedDistance)\s*\(")


def check_direct_prune_distance(sf):
    return _grep(
        sf, PRUNE_DISTANCE_RE,
        "direct bounded-distance call at a prune site; route it through "
        "engine/witness.h (GuardedDistanceWithin(chain, capacity, stored, "
        "eval, x, bound, st) or CountedDistanceWithin(eval, x, bound, st), "
        "eval = PrepareQuery(metric, query)) so witnesses are recorded and "
        "consulted")


# --------------------------------------------------------------------------
# Rule registry.
# --------------------------------------------------------------------------

LIB = ["src/mcm/*"]
LIB_HEADERS = ["src/mcm/*.h"]
INDEX_ENGINE_COST = [
    "src/mcm/mtree/*", "src/mcm/vptree/*", "src/mcm/gnat/*",
    "src/mcm/baseline/*", "src/mcm/engine/*", "src/mcm/cost/*",
]

RULES = [
    Rule(
        "no-raw-metric-call",
        "index/engine/cost code may not invoke a concrete metric functor",
        scope=INDEX_ENGINE_COST + ["bench/*", "examples/*", "tools/*"],
        # micro_benchmarks measures the metric primitives themselves — that
        # is the one place a raw call is the point of the code.
        allow=["bench/micro_benchmarks.cc"],
        check=check_raw_metric_call,
    ),
    Rule(
        "no-pagefile-bypass",
        "only BufferPool (and tests) may call PageFile::ReadPage/WritePage",
        scope=LIB + ["bench/*", "examples/*", "tools/*", "tests/*"],
        allow=[
            "src/mcm/storage/page_file.h", "src/mcm/storage/page_file.cc",
            "src/mcm/storage/buffer_pool.h", "src/mcm/storage/buffer_pool.cc",
            "tests/*",
        ],
        check=check_pagefile_bypass,
    ),
    Rule(
        "no-unguarded-mutable-static",
        "no mutable static state in library code",
        scope=LIB,
        allow=[],
        check=check_mutable_static,
    ),
    Rule(
        "no-rand-or-time",
        "no ambient entropy or wall-clock reads in library code",
        scope=LIB,
        allow=["src/mcm/common/random.h", "src/mcm/common/clock.h"],
        check=check_rand_or_time,
    ),
    Rule(
        "no-iostream-in-library",
        "library code reports via obs/ or return values, not cout/cerr",
        scope=LIB,
        # obs/ is the designated reporting layer; bench_util drives
        # command-line harnesses.
        allow=["src/mcm/obs/*", "src/mcm/bench_util/*"],
        check=check_iostream,
    ),
    Rule(
        "header-guard",
        "headers carry a path-derived include guard or #pragma once",
        scope=LIB_HEADERS,
        allow=[],
        check=check_header_guard,
    ),
    Rule(
        "include-order",
        "include blocks are homogeneous and alphabetized",
        scope=["src/mcm/*.h", "src/mcm/*.cc"],
        allow=[],
        check=check_include_order,
    ),
    Rule(
        "no-using-namespace-in-header",
        "no `using namespace` in headers",
        scope=LIB_HEADERS,
        allow=[],
        check=check_using_namespace,
    ),
    Rule(
        "no-direct-prune-distance",
        "prune-site distance evaluations go through engine/witness.h",
        scope=[
            "src/mcm/mtree/*", "src/mcm/vptree/*", "src/mcm/gnat/*",
            "src/mcm/baseline/*",
        ],
        allow=[],
        check=check_direct_prune_distance,
    ),
    Rule(
        "no-adhoc-vector-math",
        "coordinate-wise vector loops only inside src/mcm/metric/",
        scope=LIB + ["bench/*", "examples/*", "tools/*"],
        allow=[
            # The kernels and the metric functors ARE the designated home.
            "src/mcm/metric/*",
            # RddGrid differences histogram bin coordinates, not objects.
            "src/mcm/distribution/homogeneity.cc",
            # Scalar reference loops the kernel speedup is measured against.
            "bench/micro_benchmarks.cc",
        ],
        check=check_adhoc_vector_math,
    ),
]

RULES_BY_NAME = {rule.name: rule for rule in RULES}

SCAN_DIRS = ["src", "bench", "examples", "tools", "tests"]
SCAN_EXTS = {".h", ".cc", ".cpp"}


def collect_files(root):
    files = []
    for top in SCAN_DIRS:
        directory = root / top
        if not directory.is_dir():
            continue
        for path in sorted(directory.rglob("*")):
            if path.suffix in SCAN_EXTS and path.is_file():
                files.append(path)
    return files


def run_rules(root, rules):
    violations = []
    scanned = 0
    for path in collect_files(root):
        rel = path.relative_to(root).as_posix()
        applicable = [r for r in rules if r.applies_to(rel)]
        if not applicable:
            continue
        scanned += 1
        sf = SourceFile(path, rel)
        for rule in applicable:
            violations.extend(rule.run(sf))
    return violations, scanned


# --------------------------------------------------------------------------
# Self test: every rule must flag a seeded violation and pass a clean file.
# --------------------------------------------------------------------------

GOOD_HEADER = """\
#ifndef MCM_MTREE_SAMPLE_H_
#define MCM_MTREE_SAMPLE_H_

#include <cstdint>
#include <vector>

#include "mcm/common/query_stats.h"
#include "mcm/common/random.h"

namespace mcm {
inline int Answer() { return 42; }
}  // namespace mcm

#endif  // MCM_MTREE_SAMPLE_H_
"""

SELFTEST_CASES = {
    "no-raw-metric-call": [
        ("src/mcm/mtree/sample.h",
         '#include "mcm/metric/vector_metrics.h"\n'),
        ("src/mcm/cost/sample.cc",
         "double d = L2Distance{}(a, b);\n"),
        ("bench/sample.cc",
         "double d = EditDistance(a, b);\n"),
    ],
    "no-pagefile-bypass": [
        ("src/mcm/mtree/sample.cc",
         "file->ReadPage(id, buf.data());\n"),
        ("examples/sample.cpp",
         "file.WritePage(id, buf.data());\n"),
        ("src/mcm/engine/sample.cc",
         "file->ReadRun(first, count, buf.data());\n"),
    ],
    "no-unguarded-mutable-static": [
        ("src/mcm/cost/sample.cc",
         "static int counter = 0;\n"),
        ("src/mcm/cost/sample2.cc",
         "static std::vector<double> cache;\n"),
    ],
    "no-rand-or-time": [
        ("src/mcm/mtree/sample.cc",
         "int x = std::rand();\n"),
        ("src/mcm/cost/sample.cc",
         "auto t = std::chrono::steady_clock::now();\n"),
        ("src/mcm/dataset/sample.cc",
         "std::random_device rd;\n"),
        # Naming a wall clock is enough — aliasing it would dodge ::now(.
        ("src/mcm/engine/sample.cc",
         "using wall = std::chrono::system_clock;\n"),
        ("src/mcm/storage/sample.cc",
         "auto t0 = std::chrono::high_resolution_clock::now();\n"),
    ],
    "no-iostream-in-library": [
        ("src/mcm/cost/sample.cc",
         "#include <iostream>\nvoid F() { std::cout << 1; }\n"),
    ],
    "header-guard": [
        ("src/mcm/mtree/sample.h",
         "#ifndef WRONG_GUARD_H\n#define WRONG_GUARD_H\n#endif\n"),
        ("src/mcm/cost/sample.h",
         "namespace mcm {}\n"),
    ],
    "include-order": [
        ("src/mcm/mtree/sample.h",
         '#include <vector>\n#include <cstdint>\n'),
        ("src/mcm/cost/sample.h",
         '#include <vector>\n#include "mcm/common/random.h"\n'),
    ],
    "no-using-namespace-in-header": [
        ("src/mcm/mtree/sample.h",
         "using namespace std;\n"),
    ],
    "no-direct-prune-distance": [
        ("src/mcm/mtree/sample.cc",
         "const double d = metric_.DistanceWithin(a, b, r);\n"),
        ("src/mcm/vptree/sample.cc",
         "double d = BoundedDistance(metric_, a, b, bound);\n"),
        ("src/mcm/gnat/sample.cc",
         "if (DistanceWithin(q, o, limit) <= limit) {}\n"),
        ("src/mcm/baseline/sample.cc",
         "const double d = eval.DistanceWithin(x, bound);\n"),
        ("src/mcm/mtree/sample2.cc",
         "if (evals[p].DistanceWithin(x, r) <= r) {}\n"),
    ],
    "no-adhoc-vector-math": [
        ("src/mcm/cost/sample.cc",
         "for (size_t i = 0; i < n; ++i) s += a[i] - b[i];\n"),
        ("bench/sample.cc",
         "double d = q[j] - p[j];\n"),
    ],
}


def self_test():
    failures = []
    for rule in RULES:
        cases = SELFTEST_CASES.get(rule.name, [])
        if not cases:
            failures.append(f"{rule.name}: no self-test cases")
            continue
        for rel, content in cases:
            with tempfile.TemporaryDirectory() as tmp:
                root = pathlib.Path(tmp)
                target = root / rel
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(content, encoding="utf-8")
                violations, _ = run_rules(root, [rule])
                if not violations:
                    failures.append(
                        f"{rule.name}: seeded violation in {rel} "
                        "was not detected")
                # Suppression comment must silence the finding.
                suppressed = "\n".join(
                    line + f"  // mcm-lint: allow({rule.name})"
                    for line in content.splitlines()) + "\n"
                target.write_text(suppressed, encoding="utf-8")
                violations, _ = run_rules(root, [rule])
                if rule.name not in ("header-guard",) and violations:
                    failures.append(
                        f"{rule.name}: allow() comment did not suppress "
                        f"the finding in {rel}")
        # A clean, convention-following header must pass every rule.
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            target = root / "src/mcm/mtree/sample.h"
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(GOOD_HEADER, encoding="utf-8")
            violations, _ = run_rules(root, [rule])
            if violations:
                failures.append(
                    f"{rule.name}: false positive on clean header: "
                    f"{violations[0]}")
    if failures:
        print("mcm_lint self-test FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"mcm_lint self-test OK: {len(RULES)} rules, "
          f"{sum(len(v) for v in SELFTEST_CASES.values())} seeded "
          "violations all detected and suppressible.")
    return 0


# --------------------------------------------------------------------------
# CLI.
# --------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(
        description="Project-specific structural C++ linter.")
    parser.add_argument(
        "--root",
        default=pathlib.Path(__file__).resolve().parent.parent,
        type=pathlib.Path, help="Repository root (default: script's repo)")
    parser.add_argument(
        "--rule", action="append", default=None, metavar="RULE",
        help="Run only this rule (repeatable; default: all rules)")
    parser.add_argument(
        "--list-rules", action="store_true", help="List rules and exit")
    parser.add_argument(
        "--self-test", action="store_true",
        help="Verify every rule detects a seeded violation, then exit")
    args = parser.parse_args()

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.name}: {rule.description}")
        return 0
    if args.self_test:
        return self_test()

    if args.rule:
        try:
            rules = [RULES_BY_NAME[name] for name in args.rule]
        except KeyError as e:
            print(f"error: unknown rule {e.args[0]} "
                  f"(see --list-rules)", file=sys.stderr)
            return 2
    else:
        rules = RULES

    if not (args.root / "src" / "mcm").is_dir():
        print(f"error: {args.root} does not look like the repo root",
              file=sys.stderr)
        return 2

    violations, scanned = run_rules(args.root, rules)
    if violations:
        for violation in violations:
            print(violation)
        names = ", ".join(sorted({v.rule for v in violations}))
        print(f"mcm_lint: {len(violations)} violation(s) across "
              f"{scanned} files (rules: {names})", file=sys.stderr)
        return 1
    print(f"mcm_lint OK: {scanned} files clean under "
          f"{len(rules)} rule(s).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
