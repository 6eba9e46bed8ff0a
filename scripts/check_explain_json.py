#!/usr/bin/env python3
"""Validate mcm_explain --json output against the EXPLAIN schema.

Modes:

  check_explain_json.py FILE [FILE...]
      Validate already-captured JSON documents.

  check_explain_json.py --run BINARY --workdir DIR
      Build the demo index with `BINARY --make-demo`, run one range and one
      k-NN EXPLAIN with --json, and validate both documents. This is what
      the `bench_json_schema_explain` CTest runs.

Schema (one JSON object; see src/mcm/obs/explain.cc RenderExplainJson):
  kind             "range" (with radius) or "knn" (with k)
  index            num_objects, height, num_nodes, node_size_bytes, d_plus
  plan             access_path in {index-scan, sequential-scan},
                   index_ms, sequential_ms
  predictions      array of 2 or 3 models (nmcm, lmcm, then optionally
                   nmcm.witness when the index reports an installed
                   witness cascade), each with nodes, distances,
                   level_nodes[], level_distances[]
  actual           nodes, distances, pruned, witness_avoided, buffer_hits,
                   buffer_misses, results, latency_us, levels[] (per-level
                   tallies incl. witness_avoided), prunes (object),
                   trace_dropped
  phase_us         plan, traverse, distance_eval, page_read, decode,
                   collect (all numbers)
"""

import argparse
import json
import os
import subprocess
import sys

NUM = (int, float)

PHASES = ("plan", "traverse", "distance_eval", "page_read", "decode",
          "collect")

INDEX_KEYS = {"num_objects": NUM, "height": NUM, "num_nodes": NUM,
              "node_size_bytes": NUM, "d_plus": NUM}
PLAN_KEYS = {"access_path": str, "index_ms": NUM, "sequential_ms": NUM}
PREDICTION_KEYS = {"model": str, "nodes": NUM, "distances": NUM,
                   "level_nodes": list, "level_distances": list}
ACTUAL_KEYS = {"nodes": NUM, "distances": NUM, "pruned": NUM,
               "witness_avoided": NUM, "buffer_hits": NUM,
               "buffer_misses": NUM, "results": NUM, "latency_us": NUM,
               "levels": list, "prunes": dict, "trace_dropped": NUM}
LEVEL_KEYS = {"level": NUM, "nodes": NUM, "distances": NUM,
              "entries_scanned": NUM, "entries_pruned": NUM,
              "subtree_prunes": NUM, "witness_avoided": NUM}


def fail(where, message):
    print(f"{where}: {message}", file=sys.stderr)
    return 1


def check_keys(where, obj, required):
    errors = 0
    if not isinstance(obj, dict):
        return fail(where, "not a JSON object")
    for key, expected in required.items():
        if key not in obj:
            errors += fail(where, f"missing {key!r}")
        elif not isinstance(obj[key], expected):
            errors += fail(where, f"{key} has type "
                           f"{type(obj[key]).__name__}, expected {expected}")
    return errors


def check_document(where, doc):
    errors = check_keys(where, doc, {"kind": str, "index": dict,
                                     "plan": dict, "predictions": list,
                                     "actual": dict, "phase_us": dict})
    if errors:
        return errors

    kind = doc["kind"]
    if kind == "range":
        if not isinstance(doc.get("radius"), NUM):
            errors += fail(where, "range document missing numeric radius")
    elif kind == "knn":
        if not isinstance(doc.get("k"), NUM):
            errors += fail(where, "knn document missing numeric k")
    else:
        errors += fail(where, f"kind {kind!r} not in {{range, knn}}")

    errors += check_keys(f"{where}.index", doc["index"], INDEX_KEYS)
    errors += check_keys(f"{where}.plan", doc["plan"], PLAN_KEYS)
    if doc["plan"].get("access_path") not in ("index-scan",
                                              "sequential-scan"):
        errors += fail(f"{where}.plan", "unknown access_path "
                       f"{doc['plan'].get('access_path')!r}")

    predictions = doc["predictions"]
    if len(predictions) not in (2, 3):
        errors += fail(f"{where}.predictions",
                       f"expected 2 or 3 models, found {len(predictions)}")
    for i, pred in enumerate(predictions):
        errors += check_keys(f"{where}.predictions[{i}]", pred,
                             PREDICTION_KEYS)
    models = [p.get("model") for p in predictions if isinstance(p, dict)]
    if models not in (["nmcm", "lmcm"], ["nmcm", "lmcm", "nmcm.witness"]):
        errors += fail(f"{where}.predictions",
                       f"expected [nmcm, lmcm(, nmcm.witness)], "
                       f"found {models}")
    if models == ["nmcm", "lmcm", "nmcm.witness"]:
        # Witnesses avoid metric evaluations, never node reads: the
        # corrected model must predict no more distances than N-MCM.
        nmcm_d = predictions[0].get("distances")
        witness_d = predictions[2].get("distances")
        if (isinstance(nmcm_d, NUM) and isinstance(witness_d, NUM)
                and witness_d > nmcm_d + 1e-9):
            errors += fail(f"{where}.predictions",
                           f"nmcm.witness distances ({witness_d}) exceed "
                           f"nmcm distances ({nmcm_d})")

    errors += check_keys(f"{where}.actual", doc["actual"], ACTUAL_KEYS)
    for i, level in enumerate(doc["actual"].get("levels", [])):
        errors += check_keys(f"{where}.actual.levels[{i}]", level,
                             LEVEL_KEYS)
    if isinstance(doc["actual"].get("levels"), list):
        level_nodes = sum(lv.get("nodes", 0)
                          for lv in doc["actual"]["levels"]
                          if isinstance(lv, dict))
        if level_nodes != doc["actual"].get("nodes"):
            errors += fail(f"{where}.actual", "per-level node visits "
                           f"({level_nodes}) do not sum to the total "
                           f"({doc['actual'].get('nodes')})")
        # Each parent-filter skip (entries_pruned) and cascade skip
        # (witness_avoided) is one avoided evaluation, so computed +
        # avoided per level sums to the query's computed + avoided.
        level_priced = sum(lv.get("distances", 0) +
                           lv.get("entries_pruned", 0) +
                           lv.get("witness_avoided", 0)
                           for lv in doc["actual"]["levels"]
                           if isinstance(lv, dict))
        priced = (doc["actual"].get("distances", 0) +
                  doc["actual"].get("witness_avoided", 0))
        if level_priced != priced:
            errors += fail(f"{where}.actual", "per-level computed + "
                           f"avoided ({level_priced}) does not sum to "
                           f"the total ({priced})")

    for phase in PHASES:
        if not isinstance(doc["phase_us"].get(phase), NUM):
            errors += fail(f"{where}.phase_us", f"missing phase {phase!r}")
    return errors


def check_text(where, text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return fail(where, f"invalid JSON: {exc}")
    errors = check_document(where, doc)
    status = "ok" if errors == 0 else f"{errors} error(s)"
    print(f"{where}: {doc.get('kind')} explain, {status}")
    return errors


def run_and_check(binary, workdir):
    os.makedirs(workdir, exist_ok=True)
    demo = os.path.join(workdir, "explain_demo.mtree")
    proc = subprocess.run([binary, "--make-demo", demo])
    if proc.returncode != 0:
        return fail(binary, f"--make-demo exited {proc.returncode}")

    errors = 0
    for label, query_args in (("range", ["--range", "0.4"]),
                              ("knn", ["--knn", "5"])):
        cmd = [binary, *query_args, "--json", demo]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            errors += fail(" ".join(cmd), f"exited {proc.returncode}")
            continue
        errors += check_text(f"{binary} ({label})", proc.stdout)
    return errors


def main():
    parser = argparse.ArgumentParser(
        description="validate mcm_explain --json output")
    parser.add_argument("files", nargs="*", help="captured JSON documents")
    parser.add_argument("--run", help="mcm_explain binary to drive")
    parser.add_argument("--workdir", help="scratch directory for --run")
    args = parser.parse_args()

    if args.run:
        if not args.workdir:
            parser.error("--run requires --workdir")
        return 1 if run_and_check(args.run, args.workdir) else 0
    if not args.files:
        parser.error("expected JSON files or --run mode")
    errors = 0
    for path in args.files:
        with open(path, encoding="utf-8") as handle:
            errors += check_text(path, handle.read())
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
