#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It builds perfbench/perfbench.exe with
dune, runs one workload for S host seconds, checks the result line
against BENCHMARK.json and prints it as the last line of standard output:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set; with
--trace 1 its per_layer set.  --workload all runs every workload in turn
and prints one summary line.  The exit code is 0 only if every check
passed.  Traces, digests and one record per run are kept under
perfbench/results/.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
EXE = os.path.join("_build", "default", BENCH_DIR, "perfbench.exe")
RESULTS = os.path.join(BENCH_DIR, "results")
WORKLOADS = ["churn", "storm", "sweep"]
BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 175


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_id():
    """The commit, or a digest of the sources when there is no git."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha1()
    for top in ("lib", "bench", BENCH_DIR):
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "results")
            for name in sorted(files):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        out = subprocess.run(
            ["dune", "build", "--root", ".", "./" + EXE[len("_build/default/"):]],
            capture_output=True, text=True, env=env, timeout=BUILD_TIMEOUT_S,
        )
    except FileNotFoundError:
        fail("dune is not on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        fail("build failed")


def load_spec():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def validate(result, expected):
    """Problems with a result line, as a list of strings."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return ["result keys are %s" % sorted(result)]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(key + " is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        problems.append(
            "metrics %s differ from BENCHMARK.json's %s" % (sorted(metrics), sorted(expected))
        )
    for name, m in metrics.items():
        if sorted(m) != ["unit", "value"]:
            problems.append(name + ": keys " + str(sorted(m)))
            continue
        if name in expected and m["unit"] != expected[name]:
            problems.append("%s: unit %s, BENCHMARK.json says %s" % (name, m["unit"], expected[name]))
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append(name + ": value is not a finite number")
    return problems


def run_one(workload, seed, seconds, trace, commit, timeout):
    cmd = [
        EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--commit", commit,
    ]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %.0f s" % (workload, timeout))
    sys.stderr.write(out.stderr)
    lines = out.stdout.splitlines()
    if not lines:
        fail("%s printed nothing (exit %d)" % (workload, out.returncode))
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail("%s: the last line is not a result (exit %d)" % (workload, out.returncode))
    problems = validate(result, load_spec()[trace])
    if problems:
        fail("%s: malformed result: %s" % (workload, "; ".join(problems)))
    if result["correct"] != (out.returncode == 0):
        fail("%s: exit code %d disagrees with correct=%s"
             % (workload, out.returncode, result["correct"]))
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit, "nproc": os.cpu_count(),
        "OCAMLRUNPARAM": os.environ.get("OCAMLRUNPARAM", ""),
        "result": result, "stdout": lines[:-1],
    }
    name = "run-%s-seed%d-trace%d.json" % (workload, seed, trace)
    with open(os.path.join(RESULTS, name), "w") as f:
        json.dump(record, f, indent=1)
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, required=True, choices=[0, 1])
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)
    for need in ("dune-project", "lib", "bench", os.path.join(BENCH_DIR, "dune"), "BENCHMARK.json"):
        if not os.path.exists(need):
            fail("run from the root of a full checkout: %s is missing" % need, 2)
    start = time.monotonic()
    build()
    os.makedirs(RESULTS, exist_ok=True)
    commit = source_id()
    workloads = WORKLOADS if a.workload == "all" else [a.workload]
    results = {}
    for w in workloads:
        # Leave the run what remains of its deadline, but never less than
        # its budget plus a margin: the first run in a checkout spends
        # most of its time building.
        spent = time.monotonic() - start if w == workloads[0] else 0.0
        timeout = max(RUN_DEADLINE_S - spent, a.seconds + 60)
        results[w] = run_one(w, a.seed, a.seconds, a.trace, commit, timeout)
    if a.workload == "all":
        for w, r in results.items():
            print("%-14s correct=%s attempted=%d failed=%d" % (w, r["correct"], r["attempted"], r["failed"]))
            for name, m in r["metrics"].items():
                print("  %-36s %.6g %s" % (name, m["value"], m["unit"]))
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                "%s.%s" % (w, n): m for w, r in results.items() for n, m in r["metrics"].items()
            },
        }
        print(json.dumps(summary))
        sys.exit(0 if summary["correct"] else 1)
    result = results[a.workload]
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
