"""Smoke-sized self-test of the benchmark.

usage: python3 bench/selftest.py   (from the root of a checkout)

Runs every workload of BENCHMARK.json at smoke size (tiny meshes and
grids, one-second runs), untraced and traced, and fails unless each run
exits 0, prints a last line with exactly the keys correct, attempted,
failed and metrics, passes its output checks, and reports every
end-to-end (untraced) or per-layer (traced) metric of BENCHMARK.json by
name with its unit.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            what = f"{workload} --trace {trace}"
            n_errors = len(errors)
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                errors.append(f"{what}: exit code {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{what}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{what}: {result['failed']} of {result['attempted']} tasks failed\n"
                              f"{proc.stderr}")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            for name, unit in wanted[trace].items():
                if name not in got:
                    errors.append(f"{what}: metric {name} missing")
                elif got[name] != unit:
                    errors.append(f"{what}: metric {name} in {got[name]}, expected {unit}")
            for name in sorted(set(got) - set(wanted[trace])):
                errors.append(f"{what}: metric {name} not in BENCHMARK.json")
            status = "ok  " if len(errors) == n_errors else "FAIL"
            print(f"{status} {what}: {len(got)} metrics, {result['attempted']} tasks", flush=True)
    for error in errors:
        print("FAIL", error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
