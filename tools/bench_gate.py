#!/usr/bin/env python3
"""Benchmark gate: simulated behaviour and host speed against recorded values.

    python3 tools/bench_gate.py

Run from anywhere; takes no flags. Builds punobench the way
punobench/run.py does, then makes two checks against tools/bench_gate.json:

1. Behaviour. Every BENCHMARK.json workload, on seeds 1 and 2, at the
   recorded short --length, must print the recorded simulated digest (the
   hash of every job's RunResult line and statistics).
2. Speed. One untraced run of the reference workload must leave every
   BENCHMARK.json end-to-end metric no worse than the recorded value by more
   than that metric's bound.

Before either, it feeds the comparison the reference with sim_cycles_per_s
halved and fails if that passes, so a gate that cannot trip is caught.

Exits 0 when everything matches, 1 otherwise. On a mismatch it prints the
observed values as a whole tools/bench_gate.json, so after an intended
change re-recording is a copy of that output.
"""
import copy
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GATE = os.path.join(HERE, "bench_gate.json")
SEEDS = (1, 2)

sys.dont_write_bytecode = True  # keep punobench/ free of __pycache__
sys.path.insert(0, os.path.join(ROOT, "punobench"))
from run import (BenchError, build, check_metrics, load_spec,  # noqa: E402
                 run_punobench)


def regressions(observed, reference, spec):
    """Describes each end-to-end metric worse than the reference by more
    than its BENCHMARK.json bound."""
    out = []
    for m in spec["end_to_end"]:
        name = m["name"]
        if name not in reference:
            out.append("%s: no recorded value" % name)
            continue
        ref = reference[name]["value"]
        got = observed[name]["value"]
        worse = ref - got if m["better"] == "higher" else got - ref
        if worse > m["bound"] * abs(ref):
            change = ("%+.1f%%" % (100.0 * (got - ref) / ref) if ref
                      else "from 0")
            out.append("%s: %.6g %s against the recorded %.6g (%s, "
                       "bound %.0f%%)" % (name, got, m["unit"], ref, change,
                                          100.0 * m["bound"]))
    return out


def run_checked(args):
    """Runs punobench and returns (stdout lines, result); raises when it
    exits non-zero or fails its own correctness gate."""
    code, lines, result = run_punobench(args)
    if code != 0 or result is None or not result.get("correct"):
        raise BenchError("punobench %s exited %d: %s" %
                         (" ".join(args), code, lines[-1] if lines else ""))
    return lines, result


def simulated_digest(workload, seed, length):
    lines, _ = run_checked(["--workload", workload, "--seed", str(seed),
                            "--seconds", "0", "--trace", "0",
                            "--length", str(length)])
    for line in lines:
        found = re.search(r"\bdigest ([0-9a-f]{16})\b", line)
        if found:
            return found.group(1)
    raise BenchError("%s seed %d: no digest line" % (workload, seed))


def gate():
    spec = load_spec()
    with open(GATE) as f:
        recorded = json.load(f)
    ref = recorded["reference"]

    halved = copy.deepcopy(ref["metrics"])
    halved["sim_cycles_per_s"]["value"] /= 2
    if not regressions(halved, ref["metrics"], spec):
        raise BenchError("self-check: a halved sim_cycles_per_s passes "
                         "the comparison, so the gate cannot trip")
    print("bench_gate: self-check: halved sim_cycles_per_s trips the gate")

    build()
    observed = copy.deepcopy(recorded)
    failures = []

    digests = recorded["digests"]
    for w in spec["workloads"]:
        name = w["name"]
        seen = observed["digests"].setdefault(name, {})
        for seed in SEEDS:
            got = simulated_digest(name, seed, digests["length"])
            want = digests.get(name, {}).get(str(seed))
            seen[str(seed)] = got
            status = "ok" if got == want else "MOVED from %s" % want
            print("bench_gate: digest %s seed %d: %s %s" %
                  (name, seed, got, status))
            if got != want:
                failures.append("digest of %s seed %d is %s, recorded %s" %
                                (name, seed, got, want))

    _, result = run_checked(["--workload", ref["workload"],
                             "--seed", str(ref["seed"]),
                             "--seconds", str(ref["seconds"]), "--trace", "0",
                             "--length", str(ref["length"])])
    metrics = check_metrics(result, spec, 0)["metrics"]
    observed["reference"]["metrics"] = metrics
    for name, m in metrics.items():
        rec = ref["metrics"].get(name)
        print("bench_gate: %s seed %d: %s = %.6g %s (recorded %s)" %
              (ref["workload"], ref["seed"], name, m["value"], m["unit"],
               "%.6g" % rec["value"] if rec else "none"))
    failures += regressions(metrics, ref["metrics"], spec)

    if failures:
        for f in failures:
            print("bench_gate: FAIL " + f)
        print("bench_gate: observed values, in %s's format:" %
              os.path.relpath(GATE, ROOT))
        print(json.dumps(observed, indent=2))
        return 1
    print("bench_gate: ok")
    return 0


def main():
    try:
        return gate()
    except (BenchError, OSError, ValueError, KeyError) as e:
        sys.stderr.write("bench_gate: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
