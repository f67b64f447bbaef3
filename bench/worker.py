"""One workload run in a fresh interpreter; started by run.py.

usage: worker.py WORKLOAD SEED SECONDS TRACE SMOKE SPAWN_TIME OUT_DIR

Imports surfint.cli first and records the time since SPAWN_TIME (the
parent's time.monotonic() just before it started this interpreter).
Then it starts rounds of the workload until SECONDS have passed, so the
last round ends after SECONDS and every run has at least one round.  Every task goes through cli.parse_config
and cli.run, the path of ``surfint <task>`` minus argparse, and writes
its artifacts under OUT_DIR.  Outputs are checked after each pass,
outside the timed region.

The i-th task of every round writes into the same directory, overwriting
the previous round's files; run.py removes OUT_DIR when the run ends.
Rounds of interval-batch hold thousands of sub-millisecond tasks, and
creating and deleting that many small files made later file creations
on the test machine (ext4 with online discard) up to three times slower,
run after run: that times the file system's backlog, not the program.
A check confirms that each report it reads carries the current config's
hash, so a stale file cannot pass for a new one.

With TRACE=1 each round runs twice on the same configs, once untraced
and once traced, alternating which goes first; the per-layer metrics
come from the traced passes and trace.overhead_s is the difference of
the two passes' median wall times.

Prints one JSON object with the raw measurements on its last line.
"""

import time

from surfint import cli  # noqa: E402  (first: its import time is set-up)

IMPORTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from checks import check_task  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import make_round  # noqa: E402


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(path) for f in files)


def run_pass(texts, out_root, tracer=None):
    """Run the tasks back to back; returns (wall, latencies, results).

    results[i] is (exit code or None, error text or None); a latency is
    the time of the cli.run call alone.
    """
    latencies, results = [], []
    t_start = time.perf_counter()
    for i, text in enumerate(texts):
        out_dir = os.path.join(out_root, f"t{i}")

        def task():
            cfg = cli.parse_config(text)
            t0 = time.perf_counter()
            try:
                return cli.run(cfg, out_dir)
            finally:
                latencies.append(time.perf_counter() - t0)

        try:
            code = tracer.run_task(task) if tracer else task()
            results.append((code, None))
        except Exception:  # a task that raises is a failed task, not a failed run
            results.append((None, traceback.format_exc(limit=3)))
    return time.perf_counter() - t_start, latencies, results


def main(argv):
    workload, seed, seconds, trace, smoke, spawn_time, out_root = argv
    seed, seconds = int(seed), float(seconds)
    trace, smoke = trace == "1", smoke == "1"
    setup_s = IMPORTED - float(spawn_time)

    slots = os.path.join(out_root, "slots")
    tracer = Tracer() if trace else None
    if trace:
        # warm lazy imports and first-call costs so the first traced and
        # untraced passes start alike (the overhead is their difference)
        run_pass([json.dumps(c) for c in make_round(workload, seed, 0, smoke=True)],
                 os.path.join(out_root, "warm"))
    walls = {False: [], True: []}
    latencies, failures = [], []
    attempted = bytes_written = 0
    t_begin = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - t_begin < seconds:
        cfgs = make_round(workload, seed, r, smoke)
        texts = [json.dumps(c) for c in cfgs]
        passes = ((False, True) if r % 2 == 0 else (True, False)) if trace else (False,)
        for traced in passes:
            if traced:
                tracer.install()
            try:
                wall, lat, results = run_pass(texts, slots, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            walls[traced].append(wall)
            if not traced:
                latencies += lat
            else:
                bytes_written += _dir_bytes(slots)
            for i, (cfg, text, (code, error)) in enumerate(zip(cfgs, texts, results)):
                attempted += 1
                problems = [error] if error else check_task(cfg, text, code, os.path.join(slots, f"t{i}"))
                if problems:
                    failures.append({"round": r, "traced": traced, "task": cfg["task"],
                                     "config": cfg, "problems": problems})
        r += 1

    out = {
        "rounds": r,
        "setup_s": setup_s,
        "walls": walls[False],
        "latencies": latencies,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "python": sys.version.split()[0]},
    }
    if trace:
        layers = layer_metrics(tracer.spans, r)
        layers["cli.bytes_written"] = bytes_written / r
        layers["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        out["layers"] = layers
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
