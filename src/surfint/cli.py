"""Batch front-end: JSON config in, spectra and verdicts out.

Configuration format (strict JSON; unknown keys are rejected so typos
fail loudly):

    {
      "task": "interval",
      "coupling": {"alpha": 2.0, "beta": 0.0, "gamma": [0.0, 0.0]},
      "geometry": {"d": 10.0},
      "output": {"dir": "runs/delta"}
    }

gamma is always a [real, imag] pair; a bare number is a ParseError so a
complex strength is never silently real-coerced.  Tasks, with the blocks
and keys each accepts (* marks a required key; a block is required when
it has one).  Every task but compare takes coupling* (alpha*, beta*,
gamma*) and every task takes output (dir):

    interval       exact negative spectrum on the symmetric interval,
                   one eigenvalue per positive root of its secular
                   quadratic (twice for its double root), its k
                   solved to adjacent floats by bracketed Newton;
                   k_max is an optional window on k
                   geometry* d*;  solver: k_max
    sphere         radial FD mode sum on the 3-D sphere interface
                   geometry* R*, R_out;  solver: n_grid, outer_bc
    circle-fem     2-D interface FEM with an (h, R_out) refinement ladder
                   geometry* R*, R_out, h;  solver: eigen_count
    radial-oracle  the delta sphere's s-wave state, mode 0 of the exact
                   Dirichlet-to-Neumann census
                   geometry* R*
    m-infinity     flat-problem spectral bound + matched-strength check
                   solver: verify_interval
    compare        eigenvalue-ordering suite (built-in 20 cases or custom)
                   compare: cases, a list of {case_id*, alpha*, beta*,
                   gamma*, reference*, geometry*, params, k_count};
                   params holds only the keys of harness.PARAMS:
                   interval d (8); circle-fem R (1), R_out (3),
                   h (0.3); sphere-radial R (1), R_out (12),
                   n_grid (256), mode_max (2)
    certify        bound-state existence/nonexistence certificates
                   geometry* kind*, R*, R_out, n_grid
    sweep          one coupling/geometry parameter swept over a range;
                   each point is the interval solve, the exact
                   Dirichlet-to-Neumann census on a circle or sphere
                   (backend auto or exact), or with backend "grid" the
                   sphere task's FD mode sum (2-D on a circle), the only
                   reader of n_grid, outer_bc, R_out
                   geometry* d* (interval) or kind*, R*, R_out;
                   sweep* parameter*, start*, stop*, steps*;
                   solver: n_grid, eigen_count, outer_bc, backend
                   (an interval sweep refuses n_grid, outer_bc and
                   backend "grid")

The table TASKS below holds this spec and the rule of every key.

Artifacts, all written into the output directory:

    spectrum.csv   k_index,eigenvalue,k_value_if_interval,residual
    sweep.csv      value,lambda_1..lambda_n,N,m_A      (sweep task only)
    report.json    structured report; validates against the shipped
                   schemas/report.schema.json
    error.json     written instead of results when the run fails

Each artifact is rewritten in place and cut to its length; a write that
fails leaves an empty file.  A run removes the artifacts of earlier runs
that it does not write itself, so the directory holds only the last
run's artifacts.

Every artifact embeds the SHA-256 of the raw configuration text (CSV:
first comment line `# config_sha256=...`; JSON: a field).  Floats are
printed as shortest round-trip decimals, iteration orders are fixed and
nothing records a timestamp, so identical config + version reruns are
bit-identical.  Exit codes: 0 success, 2 solver or configuration
failure (error.json), 3 verdict failure from compare/certify (the
report is still written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field as dataclass_field
from hashlib import sha256

from . import core, harness, interval, radial
from .errors import CaseInapplicable, ParseError, SurfintError, ValidationError
from .report import _plain

VERSION = "0.1.0"


def _is_num(x):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # a JSON integer beyond the float range
        return False


# Rules: each takes one JSON value and returns (value, problem), problem
# being None or the text that follows the key's path in the message.

def _number(v):
    return (float(v), None) if _is_num(v) else (None, "must be a finite number")


def _positive(v):
    if not _is_num(v):
        return None, "must be a finite number"
    return (float(v), None) if v > 0 else (None, f"must be > 0, got {v}")


def _count(v, problem="must be a positive integer"):
    ok = isinstance(v, int) and not isinstance(v, bool) and v >= 1
    return (v, None) if ok else (None, problem)


def _steps(v):
    return _count(v, "must be an integer >= 1 (a nonempty range)")


def _choice(*options, said=None):
    said = said or f"{', '.join(map(repr, options[:-1]))} or {options[-1]!r}"
    return lambda v: (v, None) if v in options else (None, f"must be {said}, got {v!r}")


def _boolean(v):
    return (v, None) if isinstance(v, bool) else (None, "must be a boolean")


def _numbers(v):
    ok = isinstance(v, dict) and all(_is_num(x) for x in v.values())
    return (dict(v), None) if ok else (None, "must be an object of numbers")


def _text(v):
    return (v, None) if v is None or isinstance(v, str) else (None, "must be a string")


def _gamma(v):
    # a bare number is refused outright so a complex strength is never
    # silently real-coerced
    if not (isinstance(v, list) and len(v) == 2 and all(_is_num(x) for x in v)):
        raise ParseError("must be a [re, im] pair of numbers")
    return complex(float(v[0]), float(v[1])), None


def _any(v):
    return v, None


# Specs: {key: (rule, required)}; a block is required when one of its keys
# is.  A spec in place of a rule means a nonempty list of such objects.
_COUPLING = {"alpha": (_number, True), "beta": (_number, True), "gamma": (_gamma, True)}
_RADII = {"R": (_positive, True), "R_out": (_positive, False)}
_KIND = (_choice("circle", "sphere"), True)
_N_GRID = (_count, False)
_OUTER_BC = (_choice(*radial.OUTER_BCS), False)
_CASE = {
    "case_id": (_any, True),
    "alpha": (_number, True),
    "beta": (_number, True),
    "gamma": (_gamma, True),
    "reference": (_number, True),
    "geometry": (_any, True),
    "params": (_numbers, False),
    "k_count": (_count, False),
}
_OUTPUT = {"dir": (_text, False)}  # every task takes an output block

TASKS = {
    "interval": {
        "coupling": _COUPLING,
        "geometry": {"d": (_positive, True)},
        "solver": {"k_max": (_positive, False)},
    },
    "sphere": {
        "coupling": _COUPLING,
        "geometry": _RADII,
        "solver": {"n_grid": _N_GRID, "outer_bc": _OUTER_BC},
    },
    "circle-fem": {
        "coupling": _COUPLING,
        "geometry": {**_RADII, "h": (_positive, False)},
        "solver": {"eigen_count": (_count, False)},
    },
    "radial-oracle": {"coupling": _COUPLING, "geometry": {"R": (_positive, True)}},
    "m-infinity": {"coupling": _COUPLING, "solver": {"verify_interval": (_boolean, False)}},
    "compare": {"compare": {"cases": (_CASE, False)}},
    "certify": {"coupling": _COUPLING, "geometry": {"kind": _KIND, **_RADII, "n_grid": _N_GRID}},
    "sweep": {
        "coupling": _COUPLING,
        # an interval (geometry.d) or a circle or sphere
        "geometry": ({"d": (_positive, True)}, {"kind": _KIND, **_RADII}),
        "solver": {"n_grid": _N_GRID, "eigen_count": (_count, False), "outer_bc": _OUTER_BC,
                   "backend": (_choice("auto", "grid", "exact"), False)},
        "sweep": {
            "parameter": (_choice("alpha", "beta", "d", "R", said="one of alpha, beta, d, R"), True),
            "start": (_number, True),
            "stop": (_number, True),
            "steps": (_steps, True),
        },
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration plus the hash of its source text."""

    task: str
    coupling: tuple | None
    geometry: dict
    solver: dict
    sweep: dict
    cases: tuple
    out_dir: str | None
    sha256: str


def _walk(obj, spec, path, problems):
    """Check one JSON object against its spec; returns the values that pass.

    Problems come in a fixed order: unknown keys (sorted), missing
    required keys, then the rule of each present key in spec order.
    """
    problems += [f"unknown key {path}.{key}" for key in sorted(set(obj) - set(spec))]
    problems += [f"missing required field {path}.{key}"
                 for key, (_, required) in spec.items() if required and key not in obj]
    values = {}
    for key, (rule, _) in spec.items():
        if key not in obj:
            continue
        where = f"{path}.{key}"
        if isinstance(rule, dict):
            values[key] = _walk_list(obj[key], rule, where, problems)
            continue
        try:
            value, problem = rule(obj[key])
        except ParseError as exc:
            raise ParseError(f"{where} {exc}") from None
        if problem is None:
            values[key] = value
        else:
            problems.append(f"{where} {problem}")
    return values


def _walk_list(items, spec, path, problems):
    """Walk each object of a nonempty list with spec; null counts as absent."""
    if items is None:
        return []
    if not isinstance(items, list) or not items:
        problems.append(f"{path} must be a nonempty list of case objects")
        return []
    walked = []
    for i, item in enumerate(items):
        if isinstance(item, dict):
            walked.append(_walk(item, spec, f"{path}[{i}]", problems))
        else:
            problems.append(f"{path}[{i}] must be an object")
    return walked


def _check_sweep(geometry, values, problems):
    """Refuse a range whose width overflows; mark an interval sweep; tie
    the swept parameter and the radial solver keys to the geometry."""
    span = values.get("sweep", {})
    if "start" in span and "stop" in span and math.isinf(span["stop"] - span["start"]):
        problems.append(f"sweep.stop - sweep.start overflows: {span['stop']} - {span['start']}")
    if not isinstance(geometry, dict):
        return
    on_interval = "d" in geometry
    if on_interval:
        values["geometry"]["kind"] = "interval"
    param = values.get("sweep", {}).get("parameter")
    if param == "d" and not on_interval:
        problems.append("sweep.parameter 'd' needs interval geometry (geometry.d)")
    if param == "R" and on_interval:
        problems.append("sweep.parameter 'R' needs circle or sphere geometry")
    if on_interval:
        solver = values.get("solver", {})
        problems += [f"solver.{key} needs circle or sphere geometry"
                     for key in ("n_grid", "outer_bc") if key in solver]
        if solver.get("backend") == "grid":
            problems.append("solver.backend 'grid' needs circle or sphere geometry")


def parse_config(text):
    """Parse and validate a JSON run configuration.

    Raises ParseError on malformed JSON or a scalar gamma, and
    ValidationError listing every other violation at once.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")

    task = doc.get("task")
    if task is None:
        raise ValidationError(["missing required field task"])
    if not isinstance(task, str) or task not in TASKS:
        raise ValidationError([f"unknown task {task!r}; choose from {', '.join(TASKS)}"])

    blocks = {**TASKS[task], "output": _OUTPUT}
    allowed = {"task", *blocks}
    problems = [f"unknown key {key} (task {task} allows: {', '.join(sorted(allowed))})"
                for key in sorted(set(doc) - allowed)]
    values = {}
    for name, spec in blocks.items():
        block = doc.get(name)
        specs = spec if isinstance(spec, tuple) else (spec,)
        if block is None:
            if any(required for s in specs for _, required in s.values()):
                problems.append(f"missing required block {name}")
            continue
        if not isinstance(block, dict):
            problems.append(f"{name} must be an object")
            continue
        if isinstance(spec, tuple):  # the sweep geometry: interval if it has d
            spec = spec[0] if "d" in block else spec[1]
        got = values[name] = _walk(block, spec, name, problems)
        if "R" in got and "R_out" in got and got["R_out"] <= got["R"]:
            problems.append(f"geometry.R_out must exceed R, got {got['R_out']} <= {got['R']}")
    if "sweep" in blocks:
        _check_sweep(doc.get("geometry"), values, problems)

    if problems:
        raise ValidationError(problems)
    c = values.get("coupling")
    return RunConfig(
        task=task,
        coupling=(c["alpha"], c["beta"], c["gamma"]) if c else None,
        geometry=values.get("geometry", {}),
        solver=values.get("solver", {}),
        sweep=values.get("sweep", {}),
        cases=tuple(harness.ComparisonCase(**case)
                    for case in values.get("compare", {}).get("cases", ())),
        out_dir=values.get("output", {}).get("dir"),
        sha256=sha256(text.encode("utf-8")).hexdigest(),
    )


@dataclass
class TaskOutcome:
    results: dict
    tolerances: dict = dataclass_field(default_factory=dict)
    convergence: dict = dataclass_field(default_factory=dict)
    spectrum_rows: list | None = None
    sweep: dict | None = None
    verdict: bool | None = None


def _coupling_dict(alpha, beta, gamma):
    g = complex(gamma)
    return {"alpha": alpha, "beta": beta, "gamma": [g.real, g.imag]}


def _safe_m_infinity(alpha, beta, gamma):
    try:
        return core.m_infinity(alpha, beta, gamma)
    except SurfintError:
        return None


def _run_interval(cfg, verbose):
    a, b, g = cfg.coupling
    prob = interval.IntervalProblem(alpha=a, beta=b, gamma=g, d=cfg.geometry["d"])
    spec = interval.negative_spectrum(prob, cfg.solver.get("k_max"))
    diag = spec.diagnostics
    lams, ks = spec.expanded(), spec.expanded(spec.ks)  # N counts a double root twice
    rows = [(i, *row) for i, row in enumerate(zip(lams, ks, spec.expanded(diag["residuals"])), start=1)]
    results = {
        "d": cfg.geometry["d"],
        "eigenvalues": lams,
        "ks": ks,
        "N": spec.N,
        "m_interval": spec.m_interval,
        "m_infinity": _safe_m_infinity(a, b, g),
        "census_expected": diag["census_expected"],
        "degenerate": diag["degenerate"],
    }
    tolerances = {"bisect_tol": 0.0, "k_max": diag["k_max"]}
    return TaskOutcome(results, tolerances, spectrum_rows=rows)


def _mode_sum(cfg, dimension, coupling, R, n_grid):
    """Radial mode sum of a sphere task or a grid sweep point at radius R.

    R_out defaults to 8R and outer_bc to neumann; n_grid is the task's
    default when solver.n_grid is absent.
    """
    geom = radial.RadialGeometry(
        dimension=dimension,
        R=R,
        R_out=cfg.geometry.get("R_out", 8.0 * R),
        outer_bc=cfg.solver.get("outer_bc", "neumann"),
        mode=0,
    )
    return radial.assemble_mode_sum(geom, core.uniform_field(*coupling),
                                    cfg.solver.get("n_grid", n_grid))


def _spectrum_outcome(rep, coupling):
    """The outcome of a task that reports a SpectrumReport of a coupling."""
    rows = [(i, lam, None, None) for i, lam in enumerate(rep.eigenvalues, start=1)]
    results = {
        "eigenvalues": list(rep.eigenvalues),
        "N": rep.N,
        "m_infinity": _safe_m_infinity(*coupling),
    }
    return TaskOutcome(results, dict(rep.tolerances), dict(rep.convergence), rows)


def _run_sphere(cfg, verbose):
    return _spectrum_outcome(_mode_sum(cfg, 3, cfg.coupling, cfg.geometry["R"], 512), cfg.coupling)


def _run_circle_fem(cfg, verbose):
    from . import fem2d  # imported here: no other task loads scipy.sparse

    R = cfg.geometry["R"]
    rep = fem2d.negative_spectrum_fem(
        core.uniform_field(*cfg.coupling), R, cfg.geometry.get("R_out", 3.0 * R),
        cfg.geometry.get("h", 0.3 * R), count=cfg.solver.get("eigen_count", 6))
    return _spectrum_outcome(rep, cfg.coupling)


def _run_radial_oracle(cfg, verbose):
    a, b, g = cfg.coupling
    if b != 0.0 or complex(g) != 0:
        raise ValidationError(
            "radial-oracle needs a pure delta coupling "
            f"(beta = 0, gamma = 0), got beta={b}, gamma={g}")
    R = cfg.geometry["R"]
    count, lam = radial.sphere_swave_matching(a, R)
    rows = [(1, lam, None, None)] if count else []
    results = {
        "R": R,
        "threshold_product": a * R,
        "threshold_excess": (a * R - 1.0) + radial._product_error(a, R),  # its sign decides N
        "N": count,
        "eigenvalues": [lam] if count else [],
        "m_infinity": _safe_m_infinity(a, b, g),
    }
    return TaskOutcome(results, {"bisect_tol": radial.SWAVE_TOL}, {}, rows)


def _run_m_infinity(cfg, verbose):
    a, b, g = cfg.coupling
    m = core.m_infinity(a, b, g)
    try:
        matched = dict(harness.essential_bound_check(
            a, b, g, verify_interval=cfg.solver.get("verify_interval", True)))
        matched["applicable"] = True
    except CaseInapplicable as exc:
        matched = {"applicable": False, "reason": str(exc)}
    results = {
        "m_infinity": m,
        "matched_strength": matched,
    }
    return TaskOutcome(results)


def _run_compare(cfg, verbose):
    cases = list(cfg.cases) or harness.build_comparison_suite()
    verdicts = harness.run_suite(cases)
    all_ok = all(v.ordering_ok for v in verdicts)
    if verbose:
        for v in verdicts:
            state = "ok" if v.ordering_ok else "VIOLATED"
            print(f"{v.case_id}: margin {v.margin:+.3e} {state}", file=sys.stderr)
    results = {
        "n_cases": len(verdicts),
        "all_ordering_ok": all_ok,
        "cases": [v.to_dict() for v in verdicts],
    }
    tolerances = dict(harness.TOLERANCES)
    return TaskOutcome(results, tolerances, verdict=all_ok)


def _run_certify(cfg, verbose):
    rep = harness.bound_state_certificate(core.uniform_field(*cfg.coupling), dict(cfg.geometry))
    return TaskOutcome(rep, verdict=bool(rep["ok"]))


def _run_sweep(cfg, verbose):
    a0, b0, g0 = cfg.coupling
    param = cfg.sweep["parameter"]
    start, stop, steps = cfg.sweep["start"], cfg.sweep["stop"], cfg.sweep["steps"]
    n = cfg.solver.get("eigen_count", 3)
    kind = cfg.geometry["kind"]
    backend = cfg.solver.get("backend", "auto")

    if kind == "interval":
        backend_used = "interval-exact"
    elif backend == "grid":
        backend_used = "radial-grid"
    else:
        backend_used = "radial-exact"

    # numpy.linspace(start, stop, steps) bit for bit: start + i * step and
    # stop last, or start + (i / div) * delta where the step underflows to 0
    delta, div = stop - start, max(steps - 1, 1)
    step = delta / div
    grid = [start + (i * step if step else i / div * delta) for i in range(steps)]
    if steps > 1:
        grid[-1] = stop
    dimension = 2 if kind == "circle" else 3
    rows = []
    for value in grid:
        at = {"alpha": a0, "beta": b0, **cfg.geometry, param: value}  # this point's parameters
        a, b = at["alpha"], at["beta"]
        if backend_used == "interval-exact":
            spec = interval.negative_spectrum(interval.IntervalProblem(alpha=a, beta=b, gamma=g0, d=at["d"]))
            N, lams = spec.N, spec.expanded()
        elif backend_used == "radial-exact":
            N, levels = radial.dtn_census(dimension, core.uniform_field(a, b, g0), at["R"], n)
            lams = levels.expanded()
        else:
            rep = _mode_sum(cfg, dimension, (a, b, g0), at["R"], 256)
            N, lams = rep.N, rep.eigenvalues
        lams = list(lams[:n])
        rows.append((value, lams + [None] * (n - len(lams)), N, _safe_m_infinity(a, b, g0)))
    if verbose:
        print(f"sweep {param}: {steps} points via {backend_used}", file=sys.stderr)

    results = {
        "parameter": param,
        "start": start,
        "stop": stop,
        "steps": steps,
        "backend": backend_used,
        "points": [
            {"value": v, "eigenvalues": [x for x in lams if x is not None],
             "N": N, "m_A": mA}
            for v, lams, N, mA in rows
        ],
    }
    sweep_payload = {"parameter": param, "n": n, "rows": rows}
    return TaskOutcome(results, sweep=sweep_payload)


# task "circle-fem" runs _run_circle_fem, and so on
_DISPATCH = {task: globals()["_run_" + task.replace("-", "_")] for task in TASKS}


def _cell(x):
    return "" if x is None else repr(float(x))


def _write_text(path, text):
    """Write text as UTF-8 over path in place, then cut the file to its length.

    Opening without O_TRUNC rewrites a previous run's file where it lies:
    truncating first frees its blocks, which costs more than the write on
    a file system that discards them.  A write that raises cuts the file
    to length 0, so no file holds new bytes before an old tail, or an old
    artifact that looks current.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        data = text.encode("utf-8")
        done = 0
        while done < len(data):
            done += os.write(fd, data[done:])
        os.ftruncate(fd, done)
    except BaseException:
        os.ftruncate(fd, 0)
        raise
    finally:
        os.close(fd)


def _write_json(path, payload):
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_spectrum(path, sha, rows):
    lines = [f"# config_sha256={sha}",
             "k_index,eigenvalue,k_value_if_interval,residual"]
    for idx, lam, k, res in rows:
        lines.append(f"{idx},{_cell(lam)},{_cell(k)},{_cell(res)}")
    _write_text(path, "\n".join(lines) + "\n")


def _write_sweep(path, sha, payload):
    n = payload["n"]
    header = ["value"] + [f"lambda_{i}" for i in range(1, n + 1)] + ["N", "m_A"]
    lines = [f"# config_sha256={sha}",
             f"# parameter={payload['parameter']}",
             ",".join(header)]
    for value, lams, N, mA in payload["rows"]:
        cells = [_cell(value)] + [_cell(x) for x in lams] + [str(int(N)), _cell(mA)]
        lines.append(",".join(cells))
    _write_text(path, "\n".join(lines) + "\n")


_ARTIFACTS = ("report.json", "spectrum.csv", "sweep.csv", "error.json")


def _remove_stale(out_dir, written):
    """Unlink the artifacts of out_dir that this run did not write."""
    for name in _ARTIFACTS:
        if name not in written:
            try:
                os.unlink(os.path.join(out_dir, name))
            except FileNotFoundError:
                pass


def _fail(out_dir, sha, task, exc):
    """Write error.json, report the error and return exit code 2."""
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "error.json"), {
        "error": type(exc).__name__,
        "detail": str(exc),
        "task": task,
        "config_sha256": sha,
        "version": VERSION,
    })
    _remove_stale(out_dir, ("error.json",))
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 2


def run(cfg, out_dir, verbose=False):
    """Execute a validated config; write artifacts; return the exit code."""
    os.makedirs(out_dir, exist_ok=True)
    try:
        outcome = _DISPATCH[cfg.task](cfg, verbose)
    except SurfintError as exc:
        return _fail(out_dir, cfg.sha256, cfg.task, exc)
    if cfg.coupling is not None:
        outcome.results["coupling"] = _coupling_dict(*cfg.coupling)
    report = {
        "task": cfg.task,
        "version": VERSION,
        "config_sha256": cfg.sha256,
        "tolerances": _plain(outcome.tolerances),
        "results": _plain(outcome.results),
    }
    if outcome.convergence:
        report["convergence"] = _plain(outcome.convergence)
    if outcome.verdict is not None:
        report["verdict"] = "pass" if outcome.verdict else "fail"
    _write_json(os.path.join(out_dir, "report.json"), report)
    written = ["report.json"]
    if outcome.spectrum_rows is not None:
        _write_spectrum(os.path.join(out_dir, "spectrum.csv"), cfg.sha256,
                        outcome.spectrum_rows)
        written.append("spectrum.csv")
    if outcome.sweep is not None:
        _write_sweep(os.path.join(out_dir, "sweep.csv"), cfg.sha256, outcome.sweep)
        written.append("sweep.csv")
    _remove_stale(out_dir, written)
    if verbose:
        print(f"wrote {os.path.join(out_dir, 'report.json')}", file=sys.stderr)
    if outcome.verdict is False:
        print(f"verdict failure in task {cfg.task}", file=sys.stderr)
        return 3
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="surfint",
        description="spectra of Laplacians with singular interface couplings",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True,
                        help="path to a JSON run configuration")
    parser.add_argument("--out", default=None,
                        help="output directory (default: output.dir from the config, else .)")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
    except SurfintError as exc:
        return _fail(args.out or ".", sha256(text.encode("utf-8")).hexdigest(), args.task, exc)
    out_dir = args.out or cfg.out_dir or "."
    if cfg.task != args.task:
        return _fail(out_dir, cfg.sha256, args.task, ValidationError(
            f"config task {cfg.task!r} does not match the command {args.task!r}"))
    return run(cfg, out_dir, args.verbose)


if __name__ == "__main__":
    sys.exit(main())
