#!/usr/bin/env python3
"""Performance ledger runner.

Builds bench_ledger from this checkout into .bench_build/ledger, then runs
one workload and relays its output; the last stdout line is the workload's
result object. Run it from the repository root:

  python3 ledger/run.py --workload serve_many --seed 3 --seconds 10 --trace 0
  python3 ledger/run.py                # every workload, untraced then traced
  python3 ledger/run.py --smoke        # the same at smoke scale (a few seconds)

--trace 1 reports the per-layer metrics instead of the end-to-end ones. The
exit status is non-zero when the build fails, a correctness check fails, or
the reported metrics differ from those BENCHMARK.json declares.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

LEDGER = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(LEDGER)
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
BINARY = os.path.join(BUILD, "bench_ledger")
JOBS = str(min(4, os.cpu_count() or 1))
SMOKE_SECONDS = 0.3
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures until it succeeds once, then lets CMake rebuild what changed."""
    generated = [os.path.join(BUILD, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        configure = ["cmake", "-S", LEDGER, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "bench_ledger", "-j", JOBS],
                   check=True, stdout=sys.stderr)


def run(workload, seed, seconds, trace, smoke):
    """Runs one workload; returns (exit status, stdout, parsed result or None)."""
    reports = os.path.join(BUILD, "reports")
    os.makedirs(reports, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--json", os.path.join(reports, f"{workload}-trace{trace}.json")]
    if trace:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, "", None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, proc.stdout, result


def problems(result, declared, trace):
    """What is wrong with a result line, judged against BENCHMARK.json."""
    if not isinstance(result, dict):
        return ["no result line"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys are {sorted(result)}"]
    found = []
    want = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    for name in sorted(set(want) - set(got)):
        found.append(f"missing metric {name}")
    for name in sorted(set(got) - set(want)):
        found.append(f"undeclared metric {name}")
    for name, metric in got.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"{name} is not a finite number")
        if name in want and metric.get("unit") != want[name]:
            found.append(f"{name} unit {metric.get('unit')} != {want[name]}")
    if result["correct"] is not True:
        found.append("a correctness check failed")
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="every workload in both modes at smoke scale")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"error: building bench_ledger failed: {e}")
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else declared["run_seconds"]

    if args.workload is not None:
        if args.workload not in workloads:
            log(f"error: --workload must be one of {', '.join(workloads)}")
            return 2
        plan = [(args.workload, args.trace or 0)]
    else:
        modes = (0, 1) if args.trace is None else (args.trace,)
        plan = [(w, t) for w in workloads for t in modes]

    failed = False
    for workload, trace in plan:
        status, stdout, result = run(workload, args.seed, seconds, trace, args.smoke)
        sys.stdout.write(stdout)
        sys.stdout.flush()
        found = problems(result, declared, trace)
        if status != 0 and not found:
            found = [f"bench_ledger exited with status {status}"]
        for p in found:
            log(f"error: {workload} (trace {trace}): {p}")
        failed = failed or bool(found)
        if len(plan) > 1:
            log(f"{workload} (trace {trace}): {'FAILED' if found else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
