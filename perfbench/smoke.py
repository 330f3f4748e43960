"""Smoke test of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload named in BENCHMARK.json for one op at its smallest size,
untraced and traced, and checks that the last line of output is the result
object with every metric BENCHMARK.json names, each with its declared unit.
Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import numbers
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr.strip()}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        return f"attempted = {result['attempted']!r}"
    if not isinstance(result["failed"], int):
        return f"failed = {result['failed']!r}"
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        return f"missing {sorted(set(wanted) - set(got))}, unexpected {sorted(set(got) - set(wanted))}"
    for name, unit in wanted.items():
        value = got[name]
        if value.get("unit") != unit or not isinstance(value.get("value"), numbers.Real):
            return f"{name} printed as {value}, expected a number in {unit}"
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problem = check_run(spec, workload, trace)
            print(f"{workload} trace={trace}: {problem or 'ok'}", flush=True)
            problems += problem is not None
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
