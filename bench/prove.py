"""Run the benchmark on several seeds and report each metric's spread.

usage: python3 bench/prove.py [--workloads a,b] [--seeds 1-10] [--trace 0|1] [--out FILE]

Runs bench/run.py once per (workload, seed), one at a time, from the
current directory (a checkout root).  For every metric it prints the
median over the seeds and the spread: the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median, which BENCHMARK.json's bounds are judged against.  --out writes
every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, summary, ok = [], {}, True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, **result})
            ok &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, json.dumps({k: round(v["value"], 6) for k, v in result["metrics"].items()}),
                  flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[workload][name] = {"median": med, "spread": spread}
            note = ""
            if name in bounds:
                note = f"bound {bounds[name]}, {'ok' if spread < bounds[name] / 3 else 'WIDE'}"
            print(f"  {workload:15s} {name:28s} median {med:.6g} spread {spread:.4f} {note}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seeds": args.seeds, "trace": args.trace, "summary": summary, "runs": runs},
                      fh, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
