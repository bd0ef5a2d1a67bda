#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload at minimal length,
untraced and traced, and checks that each run passes its correctness
gates and prints every metric BENCHMARK.json names, with its unit, as
its JSON result; also checks that README.md documents every metric.

    python3 perfbench/selftest.py      # from the repository root, ~1 min
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace):
    """Runs one workload for one second; returns a list of problems."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    where = f"{workload} trace={trace}"
    if out.returncode != 0:
        return [f"{where}: exit {out.returncode}\n{out.stdout[-2000:]}{out.stderr[-2000:]}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(expected):
        problems.append(f"{where}: missing {sorted(set(expected) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(expected))}")
    for name, m in got.items():
        if name in expected and m.get("unit") != expected[name]:
            problems.append(f"{where}: {name} unit {m.get('unit')} != {expected[name]}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{where}: {name} value {m.get('value')}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "README.md")) as f:
        doc = f.read()
    problems = [f"README.md does not document {m['name']}"
                for m in spec["end_to_end"] + spec["per_layer"] if f"`{m['name']}`" not in doc]
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, w["name"], trace)
            print(f"ran {w['name']} trace={trace}", file=sys.stderr)
    for p in problems:
        print("FAIL:", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
