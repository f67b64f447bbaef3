"""Span tracer that times the package from outside.

``Tracer.install`` replaces each public function of the surfint modules
at the name its callers look up (the module attribute, which is also the
module global every internal call goes through), plus the foreign
callables as each module sees them: ``scipy.linalg.eigh`` and
``spla.eigsh`` inside fem2d, ``eig_banded`` inside radial, and the
``ThreadPoolExecutor`` of cli and harness.  ``uninstall`` puts the
originals back, so untraced passes run the unmodified program.

A span is (id, name, start, end, parent, thread, info).  Its parent is
the innermost open span of its thread; a pool thread starts from the
span that submitted the work, and any other thread from the open task.
Spans stay in memory; ``layer_metrics`` reduces them to the per-layer
metrics.  Self time is a span's duration minus the part of it covered by
the union of its children.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = ("core", "interval", "radial", "fem2d", "harness", "cli")


def _info_len(args, kwargs, result):
    return len(result)


# per-span extra data, taken from the call's arguments or result
INFO = {
    "fem2d.AssembledPencil.reduced": lambda a, kw, r: int(r[0].shape[0]),
    "fem2d.eigh": lambda a, kw, r: int(a[0].nbytes + a[1].nbytes),
    "fem2d.lowest_eigenpairs": _info_len,
    "fem2d.negative_spectrum_fem": lambda a, kw, r: int(r.N),
    "radial.eig_banded": lambda a, kw, r: (int(a[0].shape[1]), int(np.size(r))),
    "radial.radial_mode_eigenvalues": _info_len,
    "radial.radial_fd_spectrum": lambda a, kw, r: len(r.eigenvalues),
    "interval.negative_spectrum": lambda a, kw, r: int(r.diagnostics["scan_attempts"]),
    "interval.characteristic_scaled": lambda a, kw, r: int(np.size(a[0])),
}


class _Proxy:
    """Module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []
        self.task = None

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "base", None) or self.task

    def open(self, name):
        sid = next(self._ids)
        parent = self.current()
        self._stack().append(sid)
        return (sid, name, parent, time.perf_counter())

    def close(self, token, info=None):
        t1 = time.perf_counter()
        sid, name, parent, t0 = token
        self._stack().pop()
        self.spans.append((sid, name, t0, t1, parent, threading.get_ident(), info))

    def wrap(self, fn, name):
        extract = INFO.get(name)

        def traced(*args, **kwargs):
            token = self.open(name)
            info = None
            try:
                result = fn(*args, **kwargs)
                if extract is not None:
                    try:
                        info = extract(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        pass  # the call's shape changed: no extra data
                return result
            finally:
                self.close(token, info)

        traced.__wrapped__ = fn
        return traced

    def run_task(self, fn):
        """Run fn as the open task: threads with no open span parent to it."""
        token = self.open("bench.task")
        self.task = token[0]
        try:
            return fn()
        finally:
            self.task = None
            self.close(token)

    # -- installation -----------------------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _executor(self, name, base):
        tracer = self

        class TracedPool(base):
            def __enter__(self):
                self._span = tracer.open(f"{name}.pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._span)

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                item = tracer.wrap(fn, f"{name}.pool_item")

                def in_worker(*a, **kw):
                    tracer._local.base = parent
                    try:
                        return item(*a, **kw)
                    finally:
                        tracer._local.base = None

                return super().submit(in_worker, *args, **kwargs)

        return TracedPool

    def install(self):
        mods = {m: importlib.import_module(f"surfint.{m}") for m in MODULES}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    self._replace(mod, attr, self.wrap(obj, f"{short}.{attr}"))
        fem2d, radial = mods["fem2d"], mods["radial"]
        pencil = getattr(fem2d, "AssembledPencil", None)
        if pencil is not None and hasattr(pencil, "reduced"):
            self._replace(pencil, "reduced", self.wrap(pencil.reduced, "fem2d.AssembledPencil.reduced"))
        if hasattr(fem2d, "scipy"):
            linalg = fem2d.scipy.linalg
            self._replace(fem2d, "scipy", _Proxy(fem2d.scipy, linalg=_Proxy(
                linalg, eigh=self.wrap(linalg.eigh, "fem2d.eigh"))))
        if hasattr(fem2d, "spla"):
            self._replace(fem2d, "spla", _Proxy(fem2d.spla, eigsh=self.wrap(fem2d.spla.eigsh, "fem2d.eigsh")))
        if hasattr(radial, "eig_banded"):
            self._replace(radial, "eig_banded", self.wrap(radial.eig_banded, "radial.eig_banded"))
        for short in ("cli", "harness"):
            base = getattr(mods[short], "ThreadPoolExecutor", None)
            if base is not None:
                self._replace(mods[short], "ThreadPoolExecutor", self._executor(short, base))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _union_length(intervals, lo, hi):
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans, rounds):
    """Per-layer metrics from the spans of ``rounds`` traced rounds.

    Sums and counts are per round; maxima and ratios are over all rounds.
    """
    children = defaultdict(list)
    by_id = {}
    for span in spans:
        by_id[span[0]] = span
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    count = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    infos = defaultdict(list)
    for sid, name, t0, t1, parent, thread, info in spans:
        count[name] += 1
        total[name] += t1 - t0
        self_time[name] += (t1 - t0) - _union_length(children[sid], t0, t1)
        if info is not None:
            infos[name].append(info)

    def under(span, ancestor):
        while span[4] is not None:
            span = by_id.get(span[4])
            if span is None:
                return False
            if span[1] == ancestor:
                return True
        return False

    def prefixed(table, module):
        return sum(v for k, v in table.items() if k.startswith(module + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    # fem2d: the circle-fem ladder reports N of its pairs; every pair a
    # comparison computes is used
    pairs = infos["fem2d.lowest_eigenpairs"]
    fem_used = sum(infos["fem2d.negative_spectrum_fem"]) + sum(
        s[6] for s in spans if s[1] == "fem2d.lowest_eigenpairs" and s[6] is not None
        and not under(s, "fem2d.negative_spectrum_fem"))
    # radial: an FD spectrum keeps its negative eigenvalues; a direct
    # mode solve keeps the lowest `count` it returns
    banded = infos["radial.eig_banded"]
    radial_kept = sum(infos["radial.radial_fd_spectrum"]) + sum(
        s[6] for s in spans if s[1] == "radial.radial_mode_eigenvalues" and s[6] is not None
        and not under(s, "radial.radial_fd_spectrum"))
    interval_attempts = sum(infos["interval.negative_spectrum"])

    per_round = {
        "fem2d.mesh_s": total["fem2d.build_mesh"],
        "fem2d.assemble_s": total["fem2d.assemble"],
        "fem2d.reduce_s": total["fem2d.AssembledPencil.reduced"],
        "fem2d.solve_s": self_time["fem2d.lowest_eigenpairs"],
        "fem2d.dense_eigh_calls": count["fem2d.eigh"],
        "fem2d.dense_eigh_s": total["fem2d.eigh"],
        "fem2d.arpack_calls": count["fem2d.eigsh"],
        "fem2d.arpack_s": total["fem2d.eigsh"],
        "radial.mode_solves": count["radial.radial_mode_eigenvalues"],
        "radial.mode_solve_s": self_time["radial.radial_mode_eigenvalues"],
        "radial.eig_banded_s": total["radial.eig_banded"],
        "radial.modes_swept": count["radial.radial_fd_spectrum"],
        "radial.swave_s": total["radial.sphere_swave_matching"],
        "interval.solves": count["interval.negative_spectrum"],
        "interval.self_s": prefixed(self_time, "interval"),
        "interval.f_calls": count["interval.characteristic_scaled"],
        "interval.f_points": sum(infos["interval.characteristic_scaled"]),
        "interval.scan_attempts": interval_attempts,
        "core.calls": prefixed(count, "core"),
        "core.self_s": prefixed(self_time, "core"),
        "harness.cases": count["harness.compare_spectra"],
        "harness.case_s": total["harness.compare_spectra"],
        "harness.certify_s": total["harness.bound_state_certificate"],
        "harness.essential_s": total["harness.essential_bound_check"],
        "cli.tasks": count["cli.run"],
        "cli.parse_s": total["cli.parse_config"],
        "cli.self_s": self_time["cli.run"],
    }
    metrics = {k: v / rounds for k, v in per_round.items()}
    metrics.update({
        "fem2d.n_reduced_max": max(infos["fem2d.AssembledPencil.reduced"], default=0),
        "fem2d.dense_bytes": max(infos["fem2d.eigh"], default=0),
        "fem2d.useful_ratio": ratio(fem_used, sum(pairs)),
        "radial.pencil_size_max": max((n for n, _ in banded), default=0),
        "radial.useful_ratio": ratio(radial_kept, sum(m for _, m in banded)),
        "interval.attempts_per_solve": ratio(interval_attempts, count["interval.negative_spectrum"]),
        "harness.pool_speedup": ratio(total["harness.compare_spectra"], total["harness.run_suite"]),
        "cli.sweep_pool_speedup": ratio(total["cli.pool_item"], total["cli.pool"]),
    })
    return metrics
