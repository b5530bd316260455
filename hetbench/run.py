#!/usr/bin/env python3
"""Builds hetbench from the checkout and runs it, or compares two result files.

Run from the repository root:

    python3 hetbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
                            [--runs N] [--out results.jsonl]
    python3 hetbench/run.py --compare parent.jsonl change.jsonl

A run builds the `hetbench` binary into .bench_build/hetbench (CMake,
Release), runs one process per workload and run, relays the binary's
"metric <name> <value> <unit>" lines, and prints as its last line one JSON
object with the keys correct, attempted, failed and metrics. An untraced run
reports every end-to-end metric of BENCHMARK.json, a traced run every
per-layer metric (0 where the workload does not exercise that layer).
`--out` appends each run, with host, nproc and git revision, to a JSON-lines
file; `--compare` reads two such files (see README.md).
"""

import argparse
import json
import os
import socket
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "hetbench")
WORK_DIR = os.path.join(ROOT, ".hetbench")
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "hetbench"), "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "hetbench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("hetbench: build failed:", " ".join(step))
            sys.exit(1)
    return os.path.join(BUILD_DIR, "hetbench")


def revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                         text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def select_metrics(spec, reported, trace):
    """The metrics the mode promises, with BENCHMARK.json's units."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        got = reported.get(m["name"])
        if got is None:
            if not trace:
                raise ValueError("end-to-end metric %s was not measured" % m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise ValueError("%s reported in %s, BENCHMARK.json says %s"
                             % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def run_one(binary, spec, workload, seed, seconds, trace):
    """Runs one workload process; returns (exit code, contract result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work-dir", WORK_DIR]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("hetbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("hetbench: %s exited %d without a result" % (workload, proc.returncode))
        return proc.returncode or 1, None
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": {}}
    if proc.returncode != 0 or not raw["correct"]:
        result["correct"] = False
        return proc.returncode or 1, result
    try:
        result["metrics"] = select_metrics(spec, raw["metrics"], trace)
    except ValueError as e:
        log("hetbench:", e)
        return 1, None
    result["tails"] = raw.get("tails", {})
    return 0, result


def run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    for w in workloads:
        if w not in names:
            log("hetbench: unknown workload %r (known: %s)" % (w, ", ".join(names)))
            return 2
    binary = build()
    host = {"host": socket.gethostname(), "nproc": os.cpu_count(), "revision": revision()}
    status = 0
    for r in range(args.runs):
        for w in workloads:
            seed = args.seed + r
            code, result = run_one(binary, spec, w, seed, args.seconds, args.trace == 1)
            status = status or code
            if result is None:
                continue
            if args.out:
                record = dict(workload=w, seed=seed, trace=args.trace == 1, **host, **result)
                with open(args.out, "a") as f:
                    f.write(json.dumps(record) + "\n")
            result.pop("tails", None)
            print(json.dumps(result), flush=True)
    return status


# ------------------------------------------------------------ compare mode

def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"] and rec["correct"]:
                    runs.setdefault(rec["workload"], []).append(rec)
    return runs


def spread(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def classify(parent, change, better, bound):
    """One row of choosing-metrics section 8: improved needs >= 9/10 pair
    wins and a median gap wider than the parent's own quartile spread;
    a spread wider than the bound leaves the row unresolved unless every
    change run beats every parent run; otherwise the bound decides."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    pq1, pmed, pq3 = spread(parent)
    cq1, cmed, cq3 = spread(change)
    gain = sign * (cmed - pmed)
    worse = -gain / abs(pmed) if pmed else 0.0
    rel_spread = max((pq3 - pq1) / abs(pmed) if pmed else 0.0,
                     (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if pairs and wins >= 0.9 * len(pairs) and gain > (pq3 - pq1):
        label = "improved"
    elif rel_spread > bound and not all_better:
        label = "unresolved"
    elif worse > bound:
        label = "regressed"
    else:
        label = "unchanged"
    return label, wins, len(pairs), (pq1, pmed, pq3), (cq1, cmed, cq3), worse


def compare(parent_path, change_path):
    spec = load_spec()
    parent, change = load_runs(parent_path), load_runs(change_path)
    header = "%-14s %-18s %-30s %-30s %8s %6s %6s  %s" % (
        "workload", "metric", "parent q1/med/q3", "change q1/med/q3", "worse", "wins",
        "bound", "verdict")
    print(header)
    regressed = False
    for w in [w["name"] for w in spec["workloads"]]:
        if w not in parent or w not in change:
            print("%-14s (no runs on %s)" % (w, "parent" if w not in parent else "change"))
            continue
        for m in spec["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in parent[w]]
            c = [r["metrics"][m["name"]]["value"] for r in change[w]]
            label, wins, n, ps, cs, worse = classify(p, c, m["better"], m["bound"])
            regressed = regressed or label == "regressed"
            print("%-14s %-18s %-30s %-30s %7.1f%% %6s %5.0f%%  %s" % (
                w, m["name"], "%.4g/%.4g/%.4g" % ps, "%.4g/%.4g/%.4g" % cs, worse * 100,
                "%d/%d" % (wins, n), m["bound"] * 100, label))
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload or --compare is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
