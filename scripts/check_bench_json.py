#!/usr/bin/env python3
"""Validate the BENCH_*.json artifacts emitted by the observability layer.

Two modes:

  check_bench_json.py FILE [FILE...]
      Validate already-emitted JSON Lines artifacts.

  check_bench_json.py --run BINARY --outdir DIR [--env K=V ...]
      Run a bench binary with MCM_OBS=1 and MCM_OBS_DIR=DIR (plus any extra
      --env overrides), then validate every BENCH_*.json it wrote. This is
      what the `bench_json_schema` CTest runs. When the overrides set
      MCM_TRACE_OUT, the Chrome trace written there is validated too: a
      JSON array of complete events (ph "X", dur >= 0, integer tid,
      args.query), with at least one span per query record.

Schema (one JSON object per line; see DESIGN.md "Observability"):
  record=meta     bench, schema_version, trace_capacity
  record=query    case, seq, kind in {range,knn,complex}, nodes, dists,
                  pruned, witness_avoided, buffer_hits, buffer_misses,
                  results, latency_us, phase_us (object: plan/traverse/
                  distance_eval/page_read/decode/collect/prefetch),
                  level_nodes
                  (array), prunes (object),
                  pred (object of {nodes, dists, level_nodes?})
  record=summary  case, queries, avg_nodes, avg_dists, avg_results,
                  avg_witness_avoided, latency_us (object with mean/p50/
                  p95/p99), phase_us (object, averages), residuals
                  (object of stats)
  record=metric   bench, data (counters/gauges/histograms object)
"""

import argparse
import glob
import json
import os
import subprocess
import sys

REQUIRED_BY_RECORD = {
    "meta": {"bench": str, "schema_version": (int, float),
             "trace_capacity": (int, float)},
    "query": {"case": str, "seq": (int, float), "kind": str,
              "nodes": (int, float), "dists": (int, float),
              "pruned": (int, float), "witness_avoided": (int, float),
              "buffer_hits": (int, float), "buffer_misses": (int, float),
              "results": (int, float), "latency_us": (int, float),
              "phase_us": dict, "level_nodes": list, "prunes": dict,
              "pred": dict},
    "summary": {"case": str, "queries": (int, float),
                "avg_nodes": (int, float), "avg_dists": (int, float),
                "avg_results": (int, float),
                "avg_witness_avoided": (int, float), "latency_us": dict,
                "phase_us": dict, "residuals": dict},
    "metric": {"bench": str, "data": dict},
}

VALID_KINDS = {"range", "knn", "complex"}


def fail(path, lineno, message):
    print(f"{path}:{lineno}: {message}", file=sys.stderr)
    return 1


def check_record(path, lineno, rec):
    errors = 0
    record = rec.get("record")
    if record not in REQUIRED_BY_RECORD:
        return fail(path, lineno, f"unknown record type {record!r}")
    for key, expected in REQUIRED_BY_RECORD[record].items():
        if key not in rec:
            errors += fail(path, lineno, f"{record} record missing {key!r}")
        elif not isinstance(rec[key], expected):
            errors += fail(
                path, lineno,
                f"{record}.{key} has type {type(rec[key]).__name__}, "
                f"expected {expected}")
    if record == "query":
        if rec.get("kind") not in VALID_KINDS:
            errors += fail(path, lineno,
                           f"query.kind {rec.get('kind')!r} not in "
                           f"{sorted(VALID_KINDS)}")
        for model, pred in rec.get("pred", {}).items():
            if not isinstance(pred, dict):
                errors += fail(path, lineno,
                               f"pred[{model!r}] is not an object")
        if isinstance(rec.get("level_nodes"), list):
            if not all(isinstance(v, (int, float))
                       for v in rec["level_nodes"]):
                errors += fail(path, lineno,
                               "query.level_nodes has non-numeric entries")
    if record in ("query", "summary") and isinstance(rec.get("phase_us"),
                                                     dict):
        for phase in ("plan", "traverse", "distance_eval", "page_read",
                      "decode", "collect", "prefetch"):
            if not isinstance(rec["phase_us"].get(phase), (int, float)):
                errors += fail(path, lineno,
                               f"{record}.phase_us missing {phase!r}")
    if record == "summary" and isinstance(rec.get("latency_us"), dict):
        # Tail latency is part of the contract: QPS benches must expose
        # the percentiles, not just a throughput-derived mean.
        for quantile in ("mean", "p50", "p95", "p99"):
            if not isinstance(rec["latency_us"].get(quantile), (int, float)):
                errors += fail(path, lineno,
                               f"summary.latency_us missing {quantile!r}")
    if record == "summary":
        for stream, stats in rec.get("residuals", {}).items():
            if not isinstance(stats, dict):
                errors += fail(path, lineno,
                               f"residuals[{stream!r}] is not an object")
                continue
            for key in ("count", "mean_rel_err", "p50_rel_err",
                        "p95_rel_err"):
                if key not in stats:
                    errors += fail(path, lineno,
                                   f"residuals[{stream!r}] missing {key!r}")
    return errors


def check_file(path):
    """Validates one artifact; returns (error count, query records)."""
    errors = 0
    records = {"meta": 0, "query": 0, "summary": 0, "metric": 0}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                errors += fail(path, lineno, f"invalid JSON: {exc}")
                continue
            if not isinstance(rec, dict):
                errors += fail(path, lineno, "line is not a JSON object")
                continue
            errors += check_record(path, lineno, rec)
            if rec.get("record") in records:
                records[rec["record"]] += 1
    if records["meta"] != 1:
        errors += fail(path, 0, f"expected exactly 1 meta record, "
                       f"found {records['meta']}")
    if records["query"] > 0 and records["summary"] == 0:
        errors += fail(path, 0, "query records present but no summary")
    total = sum(records.values())
    print(f"{path}: {total} records "
          f"(meta={records['meta']} query={records['query']} "
          f"summary={records['summary']} metric={records['metric']}), "
          f"{errors} error(s)")
    return errors, records["query"]


def check_chrome_trace(path, query_records):
    """Validates the Chrome trace at `path`; returns the error count."""
    try:
        with open(path, encoding="utf-8") as handle:
            events = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return fail(path, 0, f"unreadable Chrome trace: {exc}")
    if not isinstance(events, list):
        return fail(path, 0, "Chrome trace is not a JSON array")
    errors = 0
    for index, event in enumerate(events):
        where = f"event {index}"
        if not isinstance(event, dict):
            errors += fail(path, 0, f"{where} is not an object")
            continue
        if event.get("ph") != "X":
            errors += fail(path, 0, f"{where}: ph is {event.get('ph')!r}")
        dur = event.get("dur")
        if isinstance(dur, bool) or not isinstance(dur, (int, float)) \
                or dur < 0:
            errors += fail(path, 0, f"{where}: dur {dur!r} is not >= 0")
        tid = event.get("tid")
        if isinstance(tid, bool) or not isinstance(tid, int):
            errors += fail(path, 0, f"{where}: tid {tid!r} is no integer")
        args = event.get("args")
        if not isinstance(args, dict) or "query" not in args:
            errors += fail(path, 0, f"{where}: args.query missing")
    if len(events) < query_records:
        errors += fail(path, 0, f"{len(events)} spans for {query_records} "
                       f"query records")
    print(f"{path}: {len(events)} spans for {query_records} query records, "
          f"{errors} error(s)")
    return errors


def run_and_collect(binary, outdir, env):
    os.makedirs(outdir, exist_ok=True)
    for stale in glob.glob(os.path.join(outdir, "BENCH_*.json")):
        os.remove(stale)
    proc = subprocess.run([binary], env=env, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        print(f"{binary}: exited with {proc.returncode}", file=sys.stderr)
        return None
    artifacts = sorted(glob.glob(os.path.join(outdir, "BENCH_*.json")))
    if not artifacts:
        print(f"{binary}: wrote no BENCH_*.json into {outdir}",
              file=sys.stderr)
        return None
    return artifacts


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*", help="artifacts to validate")
    parser.add_argument("--run", help="bench binary to execute first")
    parser.add_argument("--outdir", default=".",
                        help="artifact directory for --run")
    parser.add_argument("--env", action="append", default=[],
                        metavar="K=V", help="extra env for --run")
    args = parser.parse_args()

    files = list(args.files)
    trace_path = None
    if args.run:
        env = dict(os.environ)
        env["MCM_OBS"] = "1"
        env["MCM_OBS_DIR"] = args.outdir
        for item in args.env:
            key, _, value = item.partition("=")
            env[key] = value
        trace_path = env.get("MCM_TRACE_OUT") or None
        if trace_path is not None and os.path.exists(trace_path):
            os.remove(trace_path)
        artifacts = run_and_collect(args.run, args.outdir, env)
        if artifacts is None:
            return 1
        files.extend(artifacts)
    if not files:
        parser.error("nothing to validate: pass FILEs or --run")

    errors = 0
    query_records = 0
    for path in files:
        file_errors, file_queries = check_file(path)
        errors += file_errors
        query_records += file_queries
    if trace_path is not None:
        errors += check_chrome_trace(trace_path, query_records)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
