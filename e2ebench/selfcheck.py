#!/usr/bin/env python3
"""Quick self-check of the e2ebench benchmark.

Runs every workload named in BENCHMARK.json at a tiny size (--scale tiny)
with --trace 0 and with --trace 1, and checks that each run exits 0,
reports "correct": true, and prints exactly the end-to-end (trace 0) or
per-layer (trace 1) metrics of BENCHMARK.json, each with its unit, both in
the JSON result line and as a `name = value unit` line.  Run it from the
repository root:

    python3 e2ebench/selfcheck.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace):
    key = "per_layer" if trace else "end_to_end"
    label = f"{workload} --trace {trace}"
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-600:]}"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return [f"{label}: last line is not JSON: {lines[-1][:200]}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: not correct: {lines[-1][:200]}")
    wanted = {m["name"]: m["unit"] for m in spec[key]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}")
    printed = {}
    for line in lines[:-1]:
        words = line.split()
        if len(words) >= 4 and words[1] == "=":
            printed[words[0]] = words[3]
    for name, unit in wanted.items():
        if got.get(name, {}).get("unit") != unit:
            problems.append(f"{label}: {name} has unit "
                            f"{got.get(name, {}).get('unit')}, want {unit}")
        if not isinstance(got.get(name, {}).get("value"), (int, float)):
            problems.append(f"{label}: {name} has no numeric value")
        if printed.get(name) != unit:
            problems.append(f"{label}: no line '{name} = <value> {unit}'")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, workload["name"], trace)
            status = "FAIL" if found else "ok"
            print(f"{status:4} {workload['name']} --trace {trace}", flush=True)
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
