"""surfint benchmark: time ``surfint <task>`` workloads from outside.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports ``src/surfint``).
Workloads (see workloads.py and BENCHMARK.json for why each exists):
fem-ladder, radial-sweep, interval-batch, compare-suite.

Set-up is timed in fresh interpreters that only import surfint.cli,
half of them before the workload and half after it, and in the workload
interpreter itself; setup_s is their median.  One fresh interpreter
(worker.py) runs the workload with SURFINT_THREADS removed from its
environment, so the default thread policy is measured, and its
artifacts go to a temporary directory under .bench_build/ that is
removed afterwards.  Nothing else runs concurrently.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics when --trace 0 and the per-layer metrics when --trace 1.  The
lines before it record the environment and every metric in readable
form, including failed_frac and the tail percentile with its sample
count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3  # before and again after the workload
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "task_p50_s": "s", "task_tail_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "fem2d.dense_bytes": "bytes_computed",
    "fem2d.n_reduced_max": "count",
    "radial.pencil_size_max": "count",
    "cli.bytes_written": "bytes",
}


def layer_unit(name):
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_speedup", "_per_solve")):
        return "ratio"
    return "count"


def child_env(root):
    env = dict(os.environ)
    env.pop("SURFINT_THREADS", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def probe_setup(env, deadline):
    """Seconds from interpreter start until surfint.cli is imported."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", "import surfint.cli, time; print(repr(time.monotonic()))"],
        env=env, capture_output=True, text=True, check=True, timeout=deadline - time.monotonic())
    return float(out.stdout.strip().splitlines()[-1]) - t0


def git_commit(root):
    """HEAD commit when the checkout is a git work tree, else None."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", *head[5:].split("/")), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def tail(latencies):
    """p99 from 1000 samples on, p90 from 100: the highest of the two with
    at least ten samples beyond it.

    Returns (value, percentile, samples), nearest-rank.  p99.9 is never
    used: a faster program completes more tasks in a run, and crossing
    10000 samples would switch it to a higher percentile.  Below 100
    samples no tail percentile exists and the maximum is reported as
    percentile 100.
    """
    lat = sorted(latencies)
    n = len(lat)
    pct = 99.0 if n >= 1000 else 90.0 if n >= 100 else 100.0
    return lat[max(0, math.ceil(pct / 100.0 * n) - 1)], pct, n


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny problem sizes, one set-up probe (self-test only)")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "surfint", "cli.py")):
        print("error: run from the root of a surfint checkout (src/surfint not found)",
              file=sys.stderr)
        return 2
    env = child_env(root)

    probes = 1 if args.smoke else SETUP_PROBES
    probe_setup(env, deadline)  # untimed: lets bytecode caches fill
    setup = [probe_setup(env, deadline) for _ in range(probes)]

    scratch = os.path.join(root, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="surfint-", dir=scratch)
    try:
        spawn = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
             repr(args.seconds), str(args.trace), str(int(args.smoke)), repr(spawn), out_dir],
            env=env, capture_output=True, text=True, timeout=deadline - time.monotonic())
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    setup.append(raw["setup_s"])
    setup += [probe_setup(env, deadline) for _ in range(probes)]

    attempted, failed = raw["attempted"], len(raw["failures"])
    for failure in raw["failures"]:
        print("FAILED", json.dumps(failure), file=sys.stderr)
    print("# env", json.dumps({
        "cpu_count": os.cpu_count(),
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "surfint_threads_was_set": "SURFINT_THREADS" in os.environ,
        "versions": raw["versions"],
        "git_commit": git_commit(root),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": raw["rounds"],
    }, sort_keys=True))

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(raw["layers"].items())}
    else:
        tail_s, tail_pct, samples = tail(raw["latencies"])
        values = {
            "wall_s": statistics.median(raw["walls"]),
            "task_p50_s": statistics.median(raw["latencies"]),
            "task_tail_s": tail_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"# task_tail_s is p{tail_pct:.2f} of {samples} task latencies"
              + (" (fewer than 100: maximum)" if tail_pct == 100.0 else ""))
        print(f"# failed_frac {failed / attempted:.6g} ({failed} of {attempted} tasks)")
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
