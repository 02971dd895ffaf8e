#!/usr/bin/env python3
"""Whole-run checkpointing benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload long-n64 --seed 1 --seconds 20 --trace 0

builds perfbench/main.exe with dune, runs one simulation per child
process until --seconds have been spent, checks every result and prints
the medians.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  --trace 1 reports the
per-layer metrics of traced runs instead of the end-to-end ones.

    python3 perfbench/run.py --workload long-n64 --seed 1 --seconds 20 --trace 0 --repeat 10

repeats the whole measurement for seeds 1..10 and prints the median,
quartiles and relative spread of every metric (the steadiness check).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("wide-n512", "long-n64", "durable-cas")
BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
# this process's own store directories, removed when it ends
STORE_ROOT = os.path.join(".bench_build", "perfbench-stores", str(os.getpid()))
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "events_per_s": "1/s",
    "setup_s": "s",
    "alloc_words_per_event": "words",
    "peak_heap_mb": "MB",
    "retained_per_proc": "count",
    "check_pass_ratio": "ratio",
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root (no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    # dune from PATH, else through the active opam switch
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    proc = subprocess.run(
        dune + ["build", "--root", ".", "--build-dir",
                os.path.abspath(BUILD_DIR), "./perfbench/main.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed")


def child(args):
    """Runs main.exe; returns (JSON of its last line or None, other lines)."""
    try:
        proc = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, ["child timed out: " + " ".join(args)]
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None, lines + proc.stderr.splitlines()
    try:
        return json.loads(lines[-1]), lines[:-1]
    except ValueError:
        return None, lines


def source_digest():
    h = hashlib.sha256()
    for base, dirs, files in os.walk("lib"):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".ml", ".mli")) or name == "dune":
                path = os.path.join(base, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(".git"):
        return "none"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def host_block(seed):
    host, _ = child(["host"])
    host = host or {}
    host.update({
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "lib_source_sha256": source_digest(),
        "seed": seed,
    })
    return host


def iterate(mode, workload, seed, seconds, log):
    """Runs children until the time budget is spent; returns their results
    (None for a child that crashed or printed no result)."""
    results = []
    start = time.monotonic()
    last = 0.0
    os.makedirs(STORE_ROOT, exist_ok=True)
    while (len(results) < MIN_ITERATIONS
           or time.monotonic() - start + last <= seconds):
        t0 = time.monotonic()
        store = os.path.join(STORE_ROOT, str(len(results)))
        result, lines = child([mode, "--workload", workload, "--seed",
                               str(seed), "--store-root", store])
        shutil.rmtree(store, ignore_errors=True)
        for line in lines:
            log(line)
        results.append(result)
        last = time.monotonic() - t0
    return results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail(values):
    """Highest percentile (at most p99) with at least ten samples beyond
    it, or None when the sample is too small for any."""
    n = len(values)
    if n <= 10:
        return None
    p = min(99, 100 * (n - 10) // n)
    if p < 50:
        return None
    ranked = sorted(values)
    rank = -(-p * n // 100)
    return p, ranked[max(0, rank - 1)]


def describe(name, values, unit, log):
    med = statistics.median(values)
    lo, hi = quartiles(values)
    line = "%-34s median %.6g %s  q1 %.6g  q3 %.6g  (n=%d" % (
        name, med, unit, lo, hi, len(values))
    t = tail(values)
    if t:
        line += ", p%d %.6g" % t
    log(line + ")")
    return med


def failures_of(results):
    """Per child: its list of failure messages (a crash is one failure);
    a child whose summary digest differs from the first one's failed
    too — the run is a pure function of the seed."""
    digest = next((r["digest"] for r in results if r), None)
    out = []
    for r in results:
        if r is None:
            out.append(["child crashed or printed no result"])
        elif r["digest"] != digest:
            out.append(r["failures"] + ["nondeterministic summary"])
        else:
            out.append(r["failures"])
    return out


def end_to_end(results, log):
    ok = [r for r in results if r]
    samples = {
        "events_per_s": [r["events"] / r["run_s"] for r in ok],
        "setup_s": [s for r in ok for s in r["setup_s"]],
        "alloc_words_per_event": [r["alloc_words"] / r["events"] for r in ok],
        "peak_heap_mb": [r["peak_heap_mb"] for r in ok],
        "retained_per_proc": [r["retained_per_proc"] for r in ok],
    }
    failures = failures_of(results)
    passed = sum(1 for f in failures if not f)
    samples["check_pass_ratio"] = [passed / len(results)]
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        if samples[name]:
            value = describe(name, samples[name], unit, log)
            metrics[name] = {"value": value, "unit": unit}
    return metrics, failures


def per_layer(results, log):
    ok = [r for r in results if r]
    metrics = {}
    if ok:
        for name, m in ok[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in ok]
            value = describe(name, values, m["unit"], log)
            metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics, failures_of(results)


def measure(workload, seed, seconds, trace, log):
    mode = "trace" if trace else "once"
    results = iterate(mode, workload, seed, seconds, log)
    metrics, failures = (per_layer if trace else end_to_end)(results, log)
    for i, f in enumerate(failures):
        for msg in f:
            log("FAIL run %d: %s" % (i, msg))
    failed = sum(1 for f in failures if f)
    return {
        "correct": failed == 0 and len(metrics) > 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }


def repeat(args, log):
    per_metric = {}
    units = {}
    for i in range(args.repeat):
        seed = args.seed + i
        result = measure(args.workload, seed, args.seconds, args.trace,
                         lambda _line: None)
        log("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            " ".join("%s=%.6g" % (name, m["value"])
                     for name, m in result["metrics"].items())))
        for name, m in result["metrics"].items():
            per_metric.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    summary = {}
    for name, values in per_metric.items():
        med = statistics.median(values)
        lo, hi = quartiles(values)
        spread = (hi - lo) / med if med else 0.0
        log("%-34s median %.6g %s  q1 %.6g  q3 %.6g  spread %.2f%%" % (
            name, med, units[name], lo, hi, 100 * spread))
        summary[name] = {"median": med, "q1": lo, "q3": hi, "spread": spread}
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "metrics": summary}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="steadiness check: repeat for this many seeds")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    build()

    def log(line):
        print(line, flush=True)

    log(json.dumps({"host": host_block(args.seed)}))
    try:
        if args.repeat > 0:
            repeat(args, log)
        else:
            print(json.dumps(measure(args.workload, args.seed, args.seconds,
                                     args.trace, log)))
    finally:
        shutil.rmtree(STORE_ROOT, ignore_errors=True)


if __name__ == "__main__":
    main()
