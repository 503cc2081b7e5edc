#!/usr/bin/env python3
"""Benchmark entry point: build qmg from source, run one seeded workload,
check its answers, and print the result as the last stdout line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Workloads (see bench.cpp for what each one runs, METRICS.md for why):
    critical_single   Iso48 proxy couplings on a 4^3x16 lattice, 12 point
                      sources solved one at a time with MG
    critical_block12  the same 12 sources as one batched MG solve

A run has three rounds: each sets up the hierarchy, then solves the
propagator over and over for a third of --seconds seconds.

--trace 0 prints the end-to-end metrics.  --trace 1 first runs the same
workload and seed untraced with the BiCGStab baseline, then runs it with
bench-side spans, the baseline, per-layer probes and a short SolveQueue open
loop (the service probe), and prints the per-layer metrics.  The exact
counters of the two runs must be equal; the difference in their solve wall
time is reported as trace.overhead_s.  The spans are written as Chrome
trace-event JSON under the build directory.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root.  The kernel choices of a build are kept there, in a
tune-cache file named after the binary's digest: it starts as a copy of
perfbench/pinned.tune, untraced runs add what they had to tune, and every
run replays it.  Exit status is non-zero when the build fails, a run fails
or times out, or any answer is wrong.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_DEADLINE_S = 175  # whole run, build excluded


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (once) and build the perfbench binary; return its path."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=300).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", "perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=850).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(out, "perfbench")


def source_sha():
    """Git commit when available, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()


def run_binary(binary, args, deadline):
    """Run the bench binary; echo its report lines; return (json, host)."""
    remaining = deadline - time.monotonic()
    if remaining <= 5:
        sys.exit("perfbench: out of time before " + " ".join(args))
    try:
        proc = subprocess.run([binary] + args, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out: " + " ".join(args))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    host = None
    for line in lines[:-1]:
        if line.startswith("host "):
            host = json.loads(line[5:])
        else:
            print(line)
    if proc.returncode not in (0, 1) or not lines:
        sys.exit("perfbench: binary exited with %d" % proc.returncode)
    return json.loads(lines[-1]), host


def tune_cache(binary):
    """Tune-cache file of this binary: every run replays it and untraced
    runs add what they had to tune, so kernel choices (and the rounding
    they fix) are the same in every process.  It starts as a copy of
    pinned.tune, so that every build makes the same choices for the shapes
    that file holds."""
    h = hashlib.sha256()
    with open(binary, "rb") as f:
        h.update(f.read())
    d = os.path.join(build_dir(), "perfbench-tune")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, h.hexdigest()[:16] + ".tune")
    if not os.path.exists(path):
        tmp = "%s.tmp%d" % (path, os.getpid())
        shutil.copyfile(os.path.join(BENCH_DIR, "pinned.tune"), tmp)
        os.replace(tmp, path)
    return path


def common_args(args, trace, tune):
    return ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace),
            "--tune-cache", tune]


def selftest(binary, tune):
    """Determinism self-check: the binary checks a tiny config twice in one
    process; two processes must then print identical counters."""
    outs = []
    for _ in range(2):
        proc = subprocess.run([binary, "--selftest", "--tune-cache", tune],
                              capture_output=True, text=True, timeout=300)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return 1
        outs.append(proc.stdout)
    same = outs[0] == outs[1]
    print("cross-process counters identical: %s" % ("yes" if same else "NO"))
    return 0 if same else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    binary = build()
    tune = tune_cache(binary)
    if args.selftest:
        # Its own file: the tiny config's shapes stay out of the workloads'.
        return selftest(binary, tune.replace(".tune", ".selftest.tune"))
    if not args.workload:
        p.error("--workload is required")

    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.trace == 0:
        result, host = run_binary(binary, common_args(args, 0, tune), deadline)
        metrics = result["metrics"]
        correct = result["correct"]
    else:
        # The untraced twin runs first, back to back with the traced run,
        # and sets up once as the traced run does.
        base, _ = run_binary(binary, common_args(args, 0, tune) +
                             ["--setups", "1", "--baseline"], deadline)
        trace_dir = os.path.join(build_dir(), "perfbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(
            trace_dir, "%s-seed%s.json" % (args.workload, args.seed))
        result, host = run_binary(
            binary, common_args(args, 1, tune) + ["--trace-out", trace_file],
            deadline)
        metrics = dict(result["metrics"])
        same = result["exact"] == base["exact"]
        print("exact counters traced == untraced: %s"
              % ("yes" if same else "NO"))
        if not same:
            print("  untraced %s\n  traced   %s"
                  % (base["exact"], result["exact"]))
        overhead = result["solve_seconds"] - base["solve_seconds"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print("tracing overhead %.3f s on %.3f s of untraced solves"
              % (overhead, base["solve_seconds"]))
        print("spans written to %s" % trace_file)
        correct = result["correct"] and base["correct"] and same

    print("exact " + json.dumps(result["exact"], sort_keys=True))
    host = dict(host or {})
    host["source"] = source_sha()
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps({"correct": bool(correct),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
