#!/usr/bin/env python3
"""Builds the layer benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload paged_vec --seed 1 --seconds 35
    python3 perfbench/run.py --selftest

The program is compiled from ../src and perfbench/ with CMake into the
directory named by CARGO_TARGET_DIR (default .bench_build), relative to the
repository root. Standard output ends with one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it carry the
run's metadata and its deterministic per-seed counts. --selftest runs every
workload at tiny sizes, measured and traced, and checks the metric names and
units against BENCHMARK.json, that no operation failed, and the seed
contract (same seed: identical counts; other seed: other inputs).
"""

import argparse
import glob
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paged_vec", "text_edit", "sharded_vec")
RUN_TIMEOUT_S = 170
# Per-layer metrics of the layer each workload loads: in a traced run they
# read 0 only if that layer's counters or interceptors never fired. Skipped
# shards are left out, since a tiny input can legitimately skip none.
LOADED_LAYER = {
    "paged_vec": ("storage.",),
    "text_edit": ("metric.",),
    "sharded_vec": ("cost.", "shard."),
}
LOADED_LAYER_EXEMPT = ("shard.skipped_per_query.",)


def must_be_nonzero(workload, trace, name):
    """End-to-end metrics are never 0; a traced run must show the layer its
    workload loads at work."""
    if not trace:
        return True
    return (name.startswith(LOADED_LAYER[workload]) and
            not name.startswith(LOADED_LAYER_EXEMPT))


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures and builds the benchmark (a no-op when up to date);
    returns the binary path."""
    out = os.path.join(build_root(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=840)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def read_text(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return ""


def host_meta():
    """Host and source identity recorded with every result."""
    cpu = ""
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = read_text(os.path.join(index, "level"))
        kind = read_text(os.path.join(index, "type"))
        if kind in ("Unified", "Data"):
            caches["L" + level] = read_text(os.path.join(index, "size"))
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = got.stdout.strip() if got.returncode == 0 else None
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted(glob.glob(os.path.join(ROOT, top, "**", "*"),
                                     recursive=True)):
            if os.path.isfile(path):
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "caches": caches,
            "git_sha": sha, "source_sha256": digest.hexdigest()}


def run_binary(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (output lines, result object)."""
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--tmp", os.path.join(build_root(), "tmp"),
            "--trace-dir", os.path.join(build_root(), "traces")]
    if smoke:
        args.append("--smoke")
    os.makedirs(os.path.join(build_root(), "traces"), exist_ok=True)
    done = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError("perfbench exited with %d" % done.returncode)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError("malformed result line")
    return lines, result


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    problems = []

    def check_metrics(label, result, workload, trace):
        got = result["metrics"]
        for metric in spec["per_layer"] if trace else spec["end_to_end"]:
            entry = got.get(metric["name"])
            if entry is None:
                problems.append("%s: missing %s" % (label, metric["name"]))
            elif entry["unit"] != metric["unit"]:
                problems.append("%s: %s has unit %s, declared %s" % (
                    label, metric["name"], entry["unit"], metric["unit"]))
            elif not math.isfinite(entry["value"]) or (
                    must_be_nonzero(workload, trace, metric["name"]) and
                    entry["value"] == 0):
                problems.append("%s: %s = %r" % (
                    label, metric["name"], entry["value"]))
        if not result["correct"] or result["failed"] != 0:
            problems.append("%s: error_rate %d/%d" % (
                label, result["failed"], result["attempted"]))

    for workload in WORKLOADS:
        counts = {}
        for seed, trace in ((7, 0), (7, 0), (8, 0), (7, 1)):
            label = "%s seed %d trace %d" % (workload, seed, trace)
            lines, result = run_binary(binary, workload, seed, 0.5, trace,
                                       smoke=True)
            check_metrics(label, result, workload, trace)
            counts.setdefault(seed, []).append(json.loads(lines[-2])["counts"])
        if counts[7][0] != counts[7][1] or counts[7][0] != counts[7][2]:
            problems.append(workload + ": same seed gave different counts")
        if counts[8][0]["inputs"] == counts[7][0]["inputs"]:
            problems.append(workload + ": another seed gave the same inputs")
        log("selftest %s done" % workload)
    for problem in problems:
        log("selftest: " + problem)
    log("selftest %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    try:
        binary = build()
        if args.selftest:
            return selftest(binary)
        lines, result = run_binary(binary, args.workload, args.seed,
                                   args.seconds, args.trace)
    except (RuntimeError, OSError, ValueError, IndexError,
            subprocess.TimeoutExpired) as error:
        log(str(error))
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"host": host_meta()}))
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
