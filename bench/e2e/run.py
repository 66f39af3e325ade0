#!/usr/bin/env python3
"""Build and run the end-to-end benchmark, or compare two sets of results.

Run one workload (from the repository root):

    python3 bench/e2e/run.py --workload batch_select --seed 4242 --seconds 10 --trace 0

This configures and builds bench/e2e (a standalone CMake project) in
e2e-<key>/build under $CARGO_TARGET_DIR or .bench_build, where <key> is
derived from this checkout's path, so checkouts sharing the directory
never share a build; runs bench_e2e in the work directory e2e-<key>/work
next to it; and prints as the last line of standard output one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end metrics, with --trace 1 its per_layer ones.
Build and bench output go to standard error. The full result file stays in
the work directory (result-<workload>-<seed>-trace<0|1>.json), and the
Chrome trace of a traced run in its trace/ subdirectory.

Compare two sets of result files (the shared regression check):

    python3 bench/e2e/run.py --compare BASE_DIR NEW_DIR

For every (workload, end-to-end metric) it prints the base and new medians
over the untraced result files in each directory, the change, the bound
from BENCHMARK.json, and a verdict; it exits 1 when any metric got worse
by more than its bound.
"""

import argparse
import fcntl
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_base():
    """The build and work directories' parent, one per checkout."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = base if os.path.isabs(base) else os.path.join(ROOT, base)
    return os.path.join(base, "e2e-" + hashlib.sha1(ROOT.encode()).hexdigest()[:12])


def git_rev():
    """HEAD of this checkout, or "unknown" when it is not a git work tree
    of its own (a tree nested in another repository reports unknown)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def build(build_dir):
    """Configures and builds bench_e2e; returns its path, or None on failure."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per directory
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(ROOT, "bench", "e2e"), "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                return None
        cmd = ["cmake", "--build", build_dir, "--target", "bench_e2e",
               "-j", str(os.cpu_count() or 1)]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "bench_e2e")


def run_one(args, spec):
    if shutil.which("cmake") is None:
        log("run.py: cmake not found")
        return 1
    base = build_base()
    binary = build(os.path.join(base, "build"))
    if binary is None:
        log("run.py: build failed")
        return 1

    work = os.path.join(base, "work")
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", out, "--git-rev", git_rev()]
    if args.trace:
        cmd += ["--trace", os.path.join(work, "trace")]
    try:
        rc = subprocess.run(cmd, cwd=work, stdout=sys.stderr, timeout=BENCH_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run.py: bench_e2e exceeded {BENCH_TIMEOUT_S} s")
        return 1
    if not os.path.exists(out):
        log(f"run.py: bench_e2e exited {rc} without a result")
        return 1
    with open(out) as f:
        result = json.load(f)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result.get("layers" if args.trace else "metrics", {})
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None or got.get("value") is None or got.get("unit") != m["unit"]:
            log(f"run.py: metric {m['name']} missing or not in {m['unit']}: {got}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(result["correct"]) and rc == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def medians(directory, names):
    """{(workload, metric): median} over the untraced results in `directory`."""
    values = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            result = json.load(f)
        if result.get("provenance", {}).get("traced") is not False:
            continue
        for name in names:
            m = result.get("metrics", {}).get(name)
            if m is not None and m.get("value") is not None:
                values.setdefault((result["workload"], name), []).append(m["value"])
    return {k: statistics.median(v) for k, v in values.items()}


def compare(base_dir, new_dir, spec):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base = medians(base_dir, metrics)
    new = medians(new_dir, metrics)
    worse = 0
    print(f"{'workload':16} {'metric':14} {'base':>12} {'new':>12} {'delta':>8} {'bound':>6}  verdict")
    for key in sorted(set(base) | set(new)):
        workload, name = key
        m = metrics[name]
        if key not in base or key not in new:
            print(f"{workload:16} {name:14} {'missing in ' + ('base' if key not in base else 'new')}")
            worse += 1
            continue
        b, n = base[key], new[key]
        delta = (n - b) / b if b else 0.0
        loss = delta if m["better"] == "lower" else -delta
        verdict = "REGRESSION" if loss > m["bound"] else ("better" if loss < 0 else "ok")
        worse += verdict == "REGRESSION"
        print(f"{workload:16} {name:14} {b:12.6g} {n:12.6g} {delta:+8.1%} {m['bound']:6.0%}  {verdict}")
    return 1 if worse else 0


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=4242)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "NEW_DIR"))
    args = p.parse_args()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.workload is None:
        p.error("--workload is required")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
