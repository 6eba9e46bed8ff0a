#!/usr/bin/env python3
"""Compare two BENCH_*.json artifacts and flag regressions.

Kernel-timing mode (the original): the micro-benchmark harness emits one
`record=metric` line whose `data` object maps benchmark names (BM_*) to
ns/op. This tool diffs those maps:

  bench_compare.py BASELINE CURRENT [--tolerance X]
      Compare two already-emitted artifacts. A benchmark regresses when
      current > baseline * tolerance; exits 1 when any regression (or an
      empty comparison) is found. Improvements and new benchmarks are
      reported but never fail the comparison.

The default tolerance is deliberately loose (5x): two artifacts from
different machines differ by more than few-percent noise.

Speedup mode: the kernel suite's artifact also carries a second metric
record with `speedup_<PAIR>` = ns(BM_Scalar<PAIR>) / ns(BM_Kernel<PAIR>),
both measured in the same run, so machine speed and load cancel out:

  bench_compare.py ARTIFACT --min-speedup NAME=X [--min-speedup ...] \
                   [--run BINARY --outdir DIR [--env K=V ...]]
      Fails unless every pair NAME names is present with a speedup >= X;
      NAME is one pair (`L2/64`) or a whole family (`L2`). With --run, BINARY
      runs first with MCM_OBS=1 / MCM_OBS_DIR=DIR and must write ARTIFACT
      (a stale copy is removed beforehand). The `bench_compare_kernels`
      CTest gates the micro_benchmarks kernel suite this way.

Generic metric mode: any pair of schema-valid BENCH_*.json files can be
compared on an explicit metric path with a hard ratio bound:

  bench_compare.py BASELINE CURRENT --metric SPEC \
                   [--current-metric SPEC] --max-ratio X [--min-ratio Y] \
                   [--run BINARY --outdir DIR [--env K=V ...]]
      SPEC is RECORD:CASE:FIELD — record type (`summary` or `query`),
      the record's `case` label, and a dotted numeric field path
      (`avg_dists`, `latency_us.p50`), or several joined by `+`, whose
      values are summed (`avg_dists+avg_witness_avoided`). When several
      records match (query records do), their values are averaged. The
      comparison fails when current > baseline * max-ratio, or, with
      --min-ratio, when current < baseline * min-ratio.
      --current-metric defaults to --metric; passing the SAME file as both
      BASELINE and CURRENT with two different specs compares two fields or
      cases of one artifact — the `bench_compare_witness` CTest uses this
      to require the witness cascade to compute <= 0.85x of the distances
      the model prices (computed + avoided) in the same run.
"""

import argparse
import json
import os
import subprocess
import sys


def load_metric_values(path, prefix="BM_"):
    """Returns the merged name -> value map of every metric record, over
    the names that start with `prefix` (BM_* maps to ns/op)."""
    timings = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                print(f"{path}:{lineno}: invalid JSON: {exc}",
                      file=sys.stderr)
                return None
            if not isinstance(rec, dict) or rec.get("record") != "metric":
                continue
            data = rec.get("data")
            if not isinstance(data, dict):
                continue
            for name, value in data.items():
                if (name.startswith(prefix)
                        and isinstance(value, (int, float))):
                    timings[name] = float(value)
    return timings


def compare(baseline_path, current_path, tolerance):
    baseline = load_metric_values(baseline_path)
    current = load_metric_values(current_path)
    if baseline is None or current is None:
        return 1
    if not baseline:
        print(f"{baseline_path}: no BM_* timings found", file=sys.stderr)
        return 1
    if not current:
        print(f"{current_path}: no BM_* timings found", file=sys.stderr)
        return 1

    shared = sorted(set(baseline) & set(current))
    if not shared:
        print("no benchmarks in common between "
              f"{baseline_path} and {current_path}", file=sys.stderr)
        return 1

    regressions = []
    print(f"{'benchmark':<44} {'baseline':>12} {'current':>12} {'ratio':>8}")
    for name in shared:
        base = baseline[name]
        cur = current[name]
        ratio = cur / base if base > 0 else float("inf")
        marker = ""
        if ratio > tolerance:
            marker = "  REGRESSION"
            regressions.append(name)
        elif ratio < 1.0 / tolerance:
            marker = "  (improved)"
        print(f"{name:<44} {base:>12.2f} {cur:>12.2f} {ratio:>8.2f}{marker}")

    for name in sorted(set(current) - set(baseline)):
        print(f"{name:<44} {'-':>12} {current[name]:>12.2f}    (new)")
    missing = sorted(set(baseline) - set(current))
    if missing:
        print(f"note: {len(missing)} baseline benchmark(s) not in this run: "
              + ", ".join(missing))

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond {tolerance}x: "
              + ", ".join(regressions), file=sys.stderr)
        return 1
    print(f"\nok: {len(shared)} benchmark(s) within {tolerance}x "
          "of the baseline")
    return 0


def parse_spec(spec):
    """Splits RECORD:CASE:FIELD; returns (record, case, list of field paths
    to sum, each a list of keys)."""
    parts = spec.split(":")
    if len(parts) != 3 or not all(parts):
        print(f"bad metric spec {spec!r}: expected RECORD:CASE:FIELD",
              file=sys.stderr)
        return None
    record, case, field = parts
    if record not in ("summary", "query"):
        print(f"bad metric spec {spec!r}: record must be summary or query",
              file=sys.stderr)
        return None
    return record, case, [term.split(".") for term in field.split("+")]


def extract_metric(path, spec):
    """Average numeric value of FIELD over matching records, or None."""
    parsed = parse_spec(spec)
    if parsed is None:
        return None
    record, case, field_paths = parsed
    values = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                print(f"{path}:{lineno}: invalid JSON: {exc}",
                      file=sys.stderr)
                return None
            if (not isinstance(rec, dict) or rec.get("record") != record
                    or rec.get("case") != case):
                continue
            total = 0.0
            for field_path in field_paths:
                value = rec
                for key in field_path:
                    value = value.get(key) if isinstance(value, dict) else None
                if not isinstance(value, (int, float)):
                    print(f"{path}:{lineno}: {'.'.join(field_path)} is not "
                          f"numeric in matching {record} record",
                          file=sys.stderr)
                    return None
                total += float(value)
            values.append(total)
    if not values:
        print(f"{path}: no {record} record with case {case!r}",
              file=sys.stderr)
        return None
    return sum(values) / len(values)


def compare_metric(baseline_path, current_path, baseline_spec, current_spec,
                   max_ratio, min_ratio=None):
    base = extract_metric(baseline_path, baseline_spec)
    cur = extract_metric(current_path, current_spec)
    if base is None or cur is None:
        return 1
    ratio = cur / base if base > 0 else float("inf")
    print(f"baseline  {baseline_spec:<40} {base:>12.3f}  ({baseline_path})")
    print(f"current   {current_spec:<40} {cur:>12.3f}  ({current_path})")
    allowed = f"max allowed {max_ratio}"
    if min_ratio is not None:
        allowed = f"min allowed {min_ratio}, " + allowed
    print(f"ratio     {ratio:.3f}  ({allowed})")
    if ratio > max_ratio:
        print(f"FAIL: ratio {ratio:.3f} exceeds {max_ratio}",
              file=sys.stderr)
        return 1
    if min_ratio is not None and ratio < min_ratio:
        print(f"FAIL: ratio {ratio:.3f} is below {min_ratio}",
              file=sys.stderr)
        return 1
    print("ok")
    return 0


def run_binary(binary, outdir, extra_env):
    os.makedirs(outdir, exist_ok=True)
    env = dict(os.environ)
    env["MCM_OBS"] = "1"
    env["MCM_OBS_DIR"] = outdir
    for item in extra_env:
        key, _, value = item.partition("=")
        env[key] = value
    proc = subprocess.run([binary], env=env, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        print(f"{binary}: exit code {proc.returncode}", file=sys.stderr)
        return False
    return True


def check_speedups(path, bars):
    """bars: NAME=X strings; NAME is a pair (`L2/64`) or a family (`L2`,
    every `L2/<arg>` pair). Fails when a NAME matches no pair or a matched
    pair's speedup is below X."""
    try:
        ratios = load_metric_values(path, prefix="speedup_")
    except OSError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return 1
    if ratios is None:
        return 1
    speedups = {name[len("speedup_"):]: v for name, v in ratios.items()}
    failures = []
    checked = 0
    print(f"{'pair':<20} {'speedup':>8} {'min':>6}")
    for bar in bars:
        name, _, value = bar.partition("=")
        minimum = float(value)
        pairs = sorted(p for p in speedups
                       if p == name or p.startswith(name + "/"))
        if not pairs:
            failures.append(f"{name}: no speedup_{name}* in {path}")
        for pair in pairs:
            got = speedups[pair]
            checked += 1
            marker = "" if got >= minimum else "  FAIL"
            if marker:
                failures.append(f"{pair}: {got:.2f}x < {minimum}x")
            print(f"{pair:<20} {got:>8.2f} {minimum:>6.2f}{marker}")
    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        return 1
    print(f"ok: {checked} kernel speedup(s) at or above their bars")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="diff BENCH_*.json timing artifacts")
    parser.add_argument("files", nargs="*",
                        help="BASELINE CURRENT (two-file mode)")
    parser.add_argument("--run", help="bench binary to execute first")
    parser.add_argument("--outdir", help="MCM_OBS_DIR for --run")
    parser.add_argument("--env", action="append", default=[],
                        metavar="K=V", help="extra environment for --run")
    parser.add_argument("--tolerance", type=float, default=5.0,
                        help="allowed current/baseline ratio (default 5)")
    parser.add_argument("--metric", metavar="RECORD:CASE:FIELD",
                        help="generic mode: metric path in BASELINE")
    parser.add_argument("--current-metric", metavar="RECORD:CASE:FIELD",
                        help="metric path in CURRENT (default: --metric)")
    parser.add_argument("--max-ratio", type=float,
                        help="generic mode: max current/baseline ratio")
    parser.add_argument("--min-ratio", type=float,
                        help="generic mode: min current/baseline ratio")
    parser.add_argument("--min-speedup", action="append", default=[],
                        metavar="NAME=X",
                        help="speedup mode: required scalar/kernel ratio")
    args = parser.parse_args()

    if args.min_speedup:
        if len(args.files) != 1:
            parser.error("speedup mode expects one ARTIFACT file")
        if args.run:
            if not args.outdir:
                parser.error("--run requires --outdir")
            if os.path.exists(args.files[0]):
                os.remove(args.files[0])
            if not run_binary(args.run, args.outdir, args.env):
                return 1
        return check_speedups(args.files[0], args.min_speedup)

    if args.metric or args.max_ratio is not None:
        if not args.metric or args.max_ratio is None:
            parser.error("generic mode needs both --metric and --max-ratio")
        if len(args.files) != 2:
            parser.error("generic mode expects BASELINE and CURRENT files")
        if args.run:
            if not args.outdir:
                parser.error("--run requires --outdir")
            if not run_binary(args.run, args.outdir, args.env):
                return 1
        return compare_metric(args.files[0], args.files[1], args.metric,
                              args.current_metric or args.metric,
                              args.max_ratio, args.min_ratio)
    if args.run:
        parser.error("--run needs --metric or --min-speedup")
    if len(args.files) != 2:
        parser.error("expected BASELINE and CURRENT")
    return compare(args.files[0], args.files[1], args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
