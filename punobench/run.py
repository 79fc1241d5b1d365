#!/usr/bin/env python3
"""Build and run the repository benchmark (README.md beside this file).

    python3 punobench/run.py --workload stamp16 --seed 1 --seconds 40 --trace 0
    python3 punobench/run.py --selftest

Run from the repository root. Builds this directory (a standalone CMake
project over ../src) into .bench_build/punobench, runs the punobench binary,
checks that its last output line carries every metric BENCHMARK.json names
for the mode (end_to_end for --trace 0, per_layer for --trace 1) with the
same unit, and prints that line last, restricted to those metrics. Exits
non-zero without a result line when the build, the run or a check fails.

--selftest runs every workload at a tiny length in both modes, checks that
every metric is printed with its unit, and checks that the correctness gate
trips on an injected quota mismatch.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "punobench")
BINARY = os.path.join(BUILD, "punobench")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "arch", "cmp.hpp")):
        raise BenchError("simulator sources not found under " + ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError("build step failed: %s" % e)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            raise BenchError("build step failed: " + " ".join(cmd))


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read BENCHMARK.json: %s" % e)


def run_punobench(args):
    """Runs punobench; returns (exit code, stdout lines, parsed last line)."""
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("punobench failed: %s" % e)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def check_metrics(result, spec, trace):
    """Returns the result restricted to the metrics BENCHMARK.json names."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in got:
            raise BenchError("metric %s not printed" % name)
        if got[name].get("unit") != m["unit"]:
            raise BenchError("metric %s printed with unit %r, want %r" %
                             (name, got[name].get("unit"), m["unit"]))
        value = got[name].get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError("metric %s has no finite value" % name)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def bench(args):
    build()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError("unknown workload %r (have %s)" %
                         (args.workload, ", ".join(names)))
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        bench_args += ["--spans", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    code, lines, result = run_punobench(bench_args)
    for line in lines[:-1]:
        print(line)
    if result is None:
        raise BenchError("punobench exited %d without a result line" % code)
    if code != 0 or not result.get("correct"):
        raise BenchError("correctness check failed (exit %d): %s" %
                         (code, lines[-1]))
    print(json.dumps(check_metrics(result, spec, args.trace)))
    return 0


def selftest():
    build()
    spec = load_spec()
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            code, _, result = run_punobench(
                ["--workload", name, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--length", "0.05"])
            if code != 0 or result is None or not result["correct"]:
                raise BenchError("%s trace=%d: punobench exited %d" %
                                 (name, trace, code))
            check_metrics(result, spec, trace)
            print("selftest: %s trace=%d prints all %d metrics" %
                  (name, trace, len(result["metrics"])))
        code, lines, result = run_punobench(
            ["--workload", name, "--seed", "1", "--seconds", "0",
             "--trace", "0", "--length", "0.05", "--quota-skew", "1"])
        if (code != 1 or result is None or result["correct"]
                or result["failed"] != result["attempted"]):
            raise BenchError("%s: injected quota mismatch not caught "
                             "(exit %d)" % (name, code))
        print("selftest: %s injected quota mismatch trips the gate (%s)" %
              (name, next(l for l in lines if l.startswith("FAIL"))))
    code, _, _ = run_punobench(["--workload", "nosuch", "--seconds", "0"])
    if code != 2:
        raise BenchError("unknown workload exited %d, want 2" % code)
    print("selftest: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            parser.error("--workload is required")
        return bench(args)
    except BenchError as e:
        sys.stderr.write("punobench: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
