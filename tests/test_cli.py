"""Tests for the command line front-end: configs, artifacts, exit codes."""

import importlib.resources
import json
import os
import pathlib
import re
import stat
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from surfint import cli, core, radial
from surfint.errors import ParseError, ValidationError


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def run_cli(tmp_path, task, doc, out="out"):
    cfg = write_config(tmp_path, doc, name=f"{task}-{out}.json")
    out_dir = tmp_path / out
    code = cli.main([task, "--config", cfg, "--out", str(out_dir)])
    return code, out_dir


def load_schema():
    res = importlib.resources.files("surfint").joinpath("schemas/report.schema.json")
    return json.loads(res.read_text())


INTERVAL_DOC = {
    "task": "interval",
    "coupling": {"alpha": 2.0, "beta": 0.0, "gamma": [0.0, 0.0]},
    "geometry": {"d": 10.0},
}

SWEEP_DOC = {
    "task": "sweep",
    "coupling": {"alpha": 1.0, "beta": 0.0, "gamma": [0.0, 0.0]},
    "geometry": {"kind": "sphere", "R": 1.0},
    "sweep": {"parameter": "alpha", "start": 0.9, "stop": 1.1, "steps": 5},
}


def test_parse_minimal_interval_config():
    cfg = cli.parse_config(json.dumps(INTERVAL_DOC))
    assert cfg.task == "interval"
    assert cfg.coupling == (2.0, 0.0, 0j)
    assert cfg.geometry == {"d": 10.0}
    assert len(cfg.sha256) == 64


def test_parse_rejects_unknown_keys_all_at_once():
    doc = {
        "task": "interval",
        "coupling": {"alpha": 2.0, "beta": 0.0, "gamma": [0.0, 0.0], "extra": 1},
        "geometry": {"d": 10.0, "dd": 3.0},
        "typo_block": {},
    }
    with pytest.raises(ValidationError) as exc:
        cli.parse_config(json.dumps(doc))
    msg = str(exc.value)
    assert "coupling.extra" in msg
    assert "geometry.dd" in msg
    assert "typo_block" in msg


def test_parse_rejects_missing_geometry_field():
    doc = {"task": "interval",
           "coupling": {"alpha": 2.0, "beta": 0.0, "gamma": [0.0, 0.0]},
           "geometry": {}}
    with pytest.raises(ValidationError, match="geometry.d"):
        cli.parse_config(json.dumps(doc))


def test_parse_rejects_scalar_gamma():
    doc = {"task": "interval",
           "coupling": {"alpha": 2.0, "beta": 0.0, "gamma": 0.0},
           "geometry": {"d": 10.0}}
    with pytest.raises(ParseError, match=r"\[re, im\] pair"):
        cli.parse_config(json.dumps(doc))
    doc["coupling"]["gamma"] = [1.0, 2.0, 3.0]
    with pytest.raises(ParseError):
        cli.parse_config(json.dumps(doc))


def test_parse_reports_json_position():
    with pytest.raises(ParseError, match="line 1"):
        cli.parse_config('{"task": "interval",,}')
    with pytest.raises(ParseError, match="object"):
        cli.parse_config('[1, 2]')


def test_parse_rejects_unknown_task():
    with pytest.raises(ValidationError, match="unknown task"):
        cli.parse_config(json.dumps({"task": "eigensolve"}))
    with pytest.raises(ValidationError, match="task"):
        cli.parse_config(json.dumps({}))


def test_parse_validates_sweep_parameter_against_geometry():
    doc = {
        "task": "sweep",
        "coupling": {"alpha": 1.0, "beta": 0.0, "gamma": [0.0, 0.0]},
        "geometry": {"d": 6.0},
        "sweep": {"parameter": "R", "start": 0.5, "stop": 1.0, "steps": 3},
    }
    with pytest.raises(ValidationError, match="circle or sphere"):
        cli.parse_config(json.dumps(doc))
    doc["sweep"]["parameter"] = "volume"
    with pytest.raises(ValidationError, match="sweep.parameter"):
        cli.parse_config(json.dumps(doc))


COUPLING = {"alpha": 1.0, "beta": 0.0, "gamma": [0.0, 0.0]}
CASE = {"case_id": "alpha_direct", "alpha": 2.0, "beta": 0.0, "gamma": [0.0, 0.0],
        "reference": 1.0, "geometry": "interval", "params": {"d": 6.0}}

# Malformed configs with the exact problem list each must produce, in
# order: unknown top-level keys, then each block (unknown keys, missing
# required keys, then each value in spec order), then cross-block checks.
PROBLEM_CASES = [
    pytest.param(
        {"task": "interval", "extra": 1,
         "coupling": {"alpha": "x", "gamma": [0.0, 0.0], "zeta": 1},
         "geometry": {"d": 0},
         "solver": {"grid": 0, "k_max": "x", "tol": -1.5, "method": "scan"},
         "output": {"dir": 5, "fmt": "csv"}},
        ValidationError,
        ["unknown key extra (task interval allows: coupling, geometry, output, solver, task)",
         "unknown key coupling.zeta",
         "missing required field coupling.beta",
         "coupling.alpha must be a finite number",
         "geometry.d must be > 0, got 0",
         "unknown key solver.grid",
         "unknown key solver.method",
         "unknown key solver.tol",
         "solver.k_max must be a finite number",
         "unknown key output.fmt",
         "output.dir must be a string"],
        id="interval-every-block"),
    pytest.param(
        {"task": "interval", "coupling": [1], "geometry": 3.0, "solver": "fast", "output": []},
        ValidationError,
        ["coupling must be an object",
         "geometry must be an object",
         "solver must be an object",
         "output must be an object"],
        id="interval-blocks-not-objects"),
    pytest.param(
        {"task": "interval"},
        ValidationError,
        ["missing required block coupling", "missing required block geometry"],
        id="interval-missing-blocks"),
    pytest.param(
        {"task": "interval", "coupling": None, "geometry": None, "solver": None, "output": None},
        ValidationError,
        ["missing required block coupling", "missing required block geometry"],
        id="interval-null-blocks"),
    pytest.param(
        {"task": "interval",
         "coupling": {"alpha": float("nan"), "beta": float("inf"), "gamma": [0.0, 0.0]},
         "geometry": {"d": -2}, "solver": {"grid": True, "k_max": 0.0, "tol": 1e-9}},
        ValidationError,
        ["coupling.alpha must be a finite number",
         "coupling.beta must be a finite number",
         "geometry.d must be > 0, got -2",
         "unknown key solver.grid",
         "unknown key solver.tol",
         "solver.k_max must be > 0, got 0.0"],
        id="interval-nonfinite"),
    pytest.param(
        {"task": "sphere", "coupling": COUPLING,
         "geometry": {"R": -1, "R_out": "big", "h": 0.1},
         "solver": {"n_grid": 2.5, "modes": [], "outer_bc": "open"}},
        ValidationError,
        ["unknown key geometry.h",
         "geometry.R must be > 0, got -1",
         "geometry.R_out must be a finite number",
         "unknown key solver.modes",
         "solver.n_grid must be a positive integer",
         "solver.outer_bc must be 'neumann' or 'dirichlet', got 'open'"],
        id="sphere-rules"),
    pytest.param(
        {"task": "sphere", "coupling": COUPLING, "geometry": {"R": 2.0, "R_out": 2.0},
         "solver": {"modes": [0, -1], "outer_bc": None}},
        ValidationError,
        ["geometry.R_out must exceed R, got 2.0 <= 2.0",
         "unknown key solver.modes",
         "solver.outer_bc must be 'neumann' or 'dirichlet', got None"],
        id="sphere-radii-order"),
    pytest.param(
        {"task": "sphere", "coupling": COUPLING, "geometry": {"R_out": 3.0},
         "solver": {"modes": 2, "n_grid": "512"}},
        ValidationError,
        ["missing required field geometry.R",
         "unknown key solver.modes",
         "solver.n_grid must be a positive integer"],
        id="sphere-modes-not-list"),
    pytest.param(
        {"task": "sphere", "coupling": COUPLING, "geometry": {"R": 1.0},
         "solver": {"modes": [0, 1, 0]}},
        ValidationError,
        ["unknown key solver.modes"],
        id="sphere-modes-repeated"),
    pytest.param(
        {"task": "circle-fem", "coupling": COUPLING,
         "geometry": {"R": 1, "R_out": 0.5, "h": 0, "kind": "circle"},
         "solver": {"eigen_count": True, "n_grid": 64}},
        ValidationError,
        ["unknown key geometry.kind",
         "geometry.h must be > 0, got 0",
         "geometry.R_out must exceed R, got 0.5 <= 1.0",
         "unknown key solver.n_grid",
         "solver.eigen_count must be a positive integer"],
        id="circle-fem-rules"),
    pytest.param(
        {"task": "radial-oracle", "coupling": {"alpha": 2.0, "beta": 0.0},
         "geometry": {"R": 1.0, "R_out": 2.0}, "compare": {}},
        ValidationError,
        ["unknown key compare (task radial-oracle allows: coupling, geometry, output, task)",
         "missing required field coupling.gamma",
         "unknown key geometry.R_out"],
        id="radial-oracle-rules"),
    pytest.param(
        {"task": "m-infinity", "coupling": COUPLING,
         "solver": {"verify_interval": "yes", "grid": 4}},
        ValidationError,
        ["unknown key solver.grid", "solver.verify_interval must be a boolean"],
        id="m-infinity-rules"),
    pytest.param(
        {"task": "compare", "compare": [CASE]},
        ValidationError,
        ["compare must be an object"],
        id="compare-not-object"),
    pytest.param(
        {"task": "compare", "compare": {"cases": [], "suite": "all"}},
        ValidationError,
        ["unknown key compare.suite", "compare.cases must be a nonempty list of case objects"],
        id="compare-empty-cases"),
    pytest.param(
        {"task": "compare", "compare": {"cases": {"a": 1}}, "coupling": COUPLING},
        ValidationError,
        ["unknown key coupling (task compare allows: compare, output, task)",
         "compare.cases must be a nonempty list of case objects"],
        id="compare-cases-not-list"),
    pytest.param(
        {"task": "compare", "compare": {"cases": [
            1,
            dict(CASE, alpha="x", reference=float("inf"), note="n"),
            dict(CASE, params={"d": "six"}),
            dict(CASE, k_count=0),
            dict(CASE, params=None),
        ]}},
        ValidationError,
        ["compare.cases[0] must be an object",
         "unknown key compare.cases[1].note",
         "compare.cases[1].alpha must be a finite number",
         "compare.cases[1].reference must be a finite number",
         "compare.cases[2].params must be an object of numbers",
         "compare.cases[3].k_count must be a positive integer",
         "compare.cases[4].params must be an object of numbers"],
        id="compare-case-entries"),
    pytest.param(
        {"task": "certify", "coupling": COUPLING,
         "geometry": {"kind": "cube", "R_out": -1.0, "h": 0.3}},
        ValidationError,
        ["unknown key geometry.h",
         "missing required field geometry.R",
         "geometry.kind must be 'circle' or 'sphere', got 'cube'",
         "geometry.R_out must be > 0, got -1.0"],
        id="certify-rules"),
    pytest.param(
        {"task": "certify", "coupling": COUPLING, "geometry": {"R": 3.0, "R_out": 1.0}},
        ValidationError,
        ["missing required field geometry.kind",
         "geometry.R_out must exceed R, got 1.0 <= 3.0"],
        id="certify-radii-order"),
    pytest.param(
        {"task": "sweep", "coupling": COUPLING, "geometry": {"kind": "disk", "R": 1.0},
         "sweep": {"parameter": "volume", "start": "a", "steps": 0, "step": 1},
         "solver": {"backend": "fast", "eigen_count": 0, "n_grid": -3, "outer_bc": 1,
                    "modes": [0]}},
        ValidationError,
        ["geometry.kind must be 'circle' or 'sphere', got 'disk'",
         "unknown key solver.modes",
         "solver.n_grid must be a positive integer",
         "solver.eigen_count must be a positive integer",
         "solver.outer_bc must be 'neumann' or 'dirichlet', got 1",
         "solver.backend must be 'auto', 'grid' or 'exact', got 'fast'",
         "unknown key sweep.step",
         "missing required field sweep.stop",
         "sweep.parameter must be one of alpha, beta, d, R, got 'volume'",
         "sweep.start must be a finite number",
         "sweep.steps must be an integer >= 1 (a nonempty range)"],
        id="sweep-rules"),
    pytest.param(
        {"task": "sweep", "coupling": COUPLING, "geometry": {"d": 2.0, "kind": "sphere"},
         "sweep": {"parameter": "R", "start": 0.5, "stop": 1.0, "steps": 3}},
        ValidationError,
        ["unknown key geometry.kind", "sweep.parameter 'R' needs circle or sphere geometry"],
        id="sweep-interval-with-R"),
    pytest.param(
        {"task": "sweep", "coupling": COUPLING, "geometry": {"d": 2.0},
         "sweep": {"parameter": "alpha", "start": 0.5, "stop": 1.0, "steps": 3},
         "solver": {"backend": "grid", "n_grid": 512, "outer_bc": "dirichlet", "eigen_count": 2}},
        ValidationError,
        ["solver.n_grid needs circle or sphere geometry",
         "solver.outer_bc needs circle or sphere geometry",
         "solver.backend 'grid' needs circle or sphere geometry"],
        id="sweep-interval-radial-solver-keys"),
    pytest.param(
        {"task": "sweep", "coupling": COUPLING, "geometry": {"d": 2.0},
         "sweep": {"parameter": "R", "start": 0.5, "stop": 1.0, "steps": 3},
         "solver": {"n_grid": 0, "backend": "exact"}},
        ValidationError,
        ["solver.n_grid must be a positive integer",
         "sweep.parameter 'R' needs circle or sphere geometry"],
        id="sweep-interval-bad-n-grid"),
    pytest.param(
        {"task": "sweep", "coupling": COUPLING, "geometry": {"d": 2.0},
         "sweep": {"parameter": "alpha", "start": -1e308, "stop": 1e308, "steps": 3}},
        ValidationError,
        ["sweep.stop - sweep.start overflows: 1e+308 - -1e+308"],
        id="sweep-range-overflows"),
    pytest.param(
        {"task": "sweep", "coupling": COUPLING,
         "geometry": {"kind": "sphere", "R": 1.0, "R_out": 0.5},
         "sweep": {"parameter": "d", "start": 0.5, "stop": 1.0, "steps": 3.0}},
        ValidationError,
        ["geometry.R_out must exceed R, got 0.5 <= 1.0",
         "sweep.steps must be an integer >= 1 (a nonempty range)",
         "sweep.parameter 'd' needs interval geometry (geometry.d)"],
        id="sweep-radial-with-d"),
    pytest.param(
        {"task": "sweep", "coupling": COUPLING, "compare": None},
        ValidationError,
        ["unknown key compare (task sweep allows: coupling, geometry, output, solver, sweep, task)",
         "missing required block geometry",
         "missing required block sweep"],
        id="sweep-missing-blocks"),
    pytest.param(
        {"task": "sweep", "coupling": COUPLING, "geometry": [], "sweep": "alpha"},
        ValidationError,
        ["geometry must be an object", "sweep must be an object"],
        id="sweep-not-objects"),
    pytest.param(
        {"task": "m-infinity", "coupling": COUPLING, "output": {"dir": 3, "x": 1},
         "task2": 1, "a": 0},
        ValidationError,
        ["unknown key a (task m-infinity allows: coupling, output, solver, task)",
         "unknown key task2 (task m-infinity allows: coupling, output, solver, task)",
         "unknown key output.x",
         "output.dir must be a string"],
        id="output-rules"),
    pytest.param(
        {"task": "interval", "coupling": {"alpha": 1.0, "beta": 0.0, "gamma": 0.0},
         "geometry": {"d": 0}},
        ParseError,
        ["coupling.gamma must be a [re, im] pair of numbers"],
        id="scalar-gamma"),
    pytest.param(
        {"task": "compare",
         "compare": {"cases": [dict(CASE, alpha="x"), dict(CASE, gamma=[1.0])]}},
        ParseError,
        ["compare.cases[1].gamma must be a [re, im] pair of numbers"],
        id="case-gamma"),
    # each problem reported once, and one rule for a key in every block
    pytest.param(
        {"task": "m-infinity", "coupling": COUPLING, "geometry": {"d": 1.0}},
        ValidationError,
        ["unknown key geometry (task m-infinity allows: coupling, output, solver, task)"],
        id="geometry-on-m-infinity"),
    pytest.param(
        {"task": "interval", "coupling": COUPLING, "geometry": {"d": 1.0}, "sweep": {}},
        ValidationError,
        ["unknown key sweep (task interval allows: coupling, geometry, output, solver, task)"],
        id="sweep-on-interval"),
    pytest.param(
        {"task": "certify", "coupling": COUPLING, "geometry": {"kind": "circle", "R": 1.0},
         "solver": 3},
        ValidationError,
        ["unknown key solver (task certify allows: coupling, geometry, output, task)"],
        id="solver-on-certify"),
    pytest.param(
        {"task": "compare", "compare": {"cases": [dict(CASE, alpha="x", params=[1], k_count=0)]}},
        ValidationError,
        ["compare.cases[0].alpha must be a finite number",
         "compare.cases[0].params must be an object of numbers",
         "compare.cases[0].k_count must be a positive integer"],
        id="case-every-value"),
    pytest.param(
        {"task": "compare", "compare": {"cases": [
            {"case_id": "alpha_direct", "alpha": "x", "beta": 0.0, "gamma": [0.0, 0.0],
             "geometry": "interval", "k_count": 0}]}},
        ValidationError,
        ["missing required field compare.cases[0].reference",
         "compare.cases[0].alpha must be a finite number",
         "compare.cases[0].k_count must be a positive integer"],
        id="case-values-despite-missing-key"),
    pytest.param(
        {"task": "certify", "coupling": COUPLING,
         "geometry": {"kind": "circle", "R": 1.0, "n_grid": 0}},
        ValidationError,
        ["geometry.n_grid must be a positive integer"],
        id="certify-n-grid-zero"),
    pytest.param(
        {"task": "certify", "coupling": COUPLING,
         "geometry": {"kind": "circle", "R": 1.0, "n_grid": -64}},
        ValidationError,
        ["geometry.n_grid must be a positive integer"],
        id="certify-n-grid-negative"),
    pytest.param(
        {"task": "sweep", "coupling": COUPLING, "geometry": {"R": "x"},
         "sweep": {"parameter": "d", "start": 1.0, "stop": 2.0, "steps": 3}},
        ValidationError,
        ["missing required field geometry.kind",
         "geometry.R must be a finite number",
         "sweep.parameter 'd' needs interval geometry (geometry.d)"],
        id="sweep-d-on-radial-geometry"),
    pytest.param(
        {"task": "interval", "coupling": {"alpha": 10**400, "beta": 0.0, "gamma": [0.0, -10**400]},
         "geometry": {"d": 10**400}, "solver": {"k_max": -10**400}},
        ParseError,
        ["coupling.gamma must be a [re, im] pair of numbers"],
        id="integers-beyond-float-gamma"),
    pytest.param(
        {"task": "interval", "coupling": {"alpha": 10**400, "beta": 0.0, "gamma": [0.0, 0.0]},
         "geometry": {"d": 10**400}, "solver": {"k_max": -10**400}},
        ValidationError,
        ["coupling.alpha must be a finite number",
         "geometry.d must be a finite number",
         "solver.k_max must be a finite number"],
        id="integers-beyond-float"),
]


@pytest.mark.parametrize("doc, error, problems", PROBLEM_CASES)
def test_parse_reports_exact_problem_list(doc, error, problems):
    with pytest.raises(error) as exc:
        cli.parse_config(json.dumps(doc))
    found = exc.value.problems if error is ValidationError else [str(exc.value)]
    assert found == problems




@pytest.mark.parametrize("doc", [
    {"task": "certify", "coupling": COUPLING, "geometry": {"kind": None, "R": 1.0}},
    dict(SWEEP_DOC, geometry={"kind": None, "R": 1.0}),
    dict(SWEEP_DOC, sweep=dict(SWEEP_DOC["sweep"], parameter=None)),
], ids=["certify-kind", "sweep-kind", "sweep-parameter"])
def test_null_choice_is_a_validation_error(tmp_path, doc):
    with pytest.raises(ValidationError, match="got None"):
        cli.parse_config(json.dumps(doc))
    code, out = run_cli(tmp_path, doc["task"], doc)
    assert code == 2
    assert json.loads((out / "error.json").read_text())["error"] == "ValidationError"


def _documented_keys(spec, keys):
    """Add {key: required} of a spec, its alternatives and nested specs."""
    for alternative in spec if isinstance(spec, tuple) else (spec,):
        for key, (rule, required) in alternative.items():
            keys[key] = keys.get(key, False) or required
            if isinstance(rule, dict):
                _documented_keys(rule, keys)


def test_readme_task_table_matches_tasks():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    for task, blocks in cli.TASKS.items():
        row = next(line for line in readme.splitlines() if line.startswith(f"| `{task}` |"))
        documented = {key: star == "*" for key, star in
                      re.findall(r"`([^`]+)`(\*?)", row.split("|")[2])}
        expected = {}
        for name, spec in blocks.items():
            alternatives = spec if isinstance(spec, tuple) else (spec,)
            expected[name] = any(req for alt in alternatives for _, req in alt.values())
            _documented_keys(spec, expected)
        assert documented == expected, task


def test_readme_quick_start_runs():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_interval_run_writes_single_row_spectrum(tmp_path):
    code, out = run_cli(tmp_path, "interval", INTERVAL_DOC)
    assert code == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1] == "k_index,eigenvalue,k_value_if_interval,residual"
    assert len(lines) == 3
    cells = lines[2].split(",")
    lam = float(cells[1])
    assert cells[0] == "1"
    assert abs(lam + 1.0) <= 1e-8 and lam <= -1.0
    assert float(cells[3]) < 1e-10
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["N"] == 1
    assert rep["config_sha256"] == lines[0].split("=", 1)[1]


def test_interval_counts_the_degenerate_root_twice(tmp_path):
    # (2, 2, 0): alpha beta = 4 gives one root with a two-dimensional kernel
    doc = dict(INTERVAL_DOC, coupling={"alpha": 2.0, "beta": 2.0, "gamma": [0.0, 0.0]},
               geometry={"d": 3.0})
    code, out = run_cli(tmp_path, "interval", doc)
    assert code == 0
    res = json.loads((out / "report.json").read_text())["results"]
    assert res["N"] == 2 and res["census_expected"] == 1 and res["degenerate"]
    assert res["eigenvalues"] == [res["eigenvalues"][0]] * 2
    assert res["ks"] == [res["ks"][0]] * 2 and res["eigenvalues"][0] == -res["ks"][0] ** 2
    rows = (out / "spectrum.csv").read_text().splitlines()[2:]
    assert [r.split(",", 1)[0] for r in rows] == ["1", "2"]
    assert rows[0].split(",", 1)[1] == rows[1].split(",", 1)[1]
    sweep = {"task": "sweep", "coupling": doc["coupling"], "geometry": {"d": 3.0},
             "sweep": {"parameter": "alpha", "start": 1.0, "stop": 2.0, "steps": 2},
             "solver": {"eigen_count": 3}}
    points = sweep_points(tmp_path, sweep, "sweep")
    assert [p["N"] for p in points] == [2, 2]  # two distinct roots at alpha = 1, one double at 2
    assert points[1]["eigenvalues"] == res["eigenvalues"]


def test_reports_validate_against_shipped_schema(tmp_path):
    schema = load_schema()
    docs = [
        ("interval", INTERVAL_DOC),
        ("m-infinity", {"task": "m-infinity",
                        "coupling": {"alpha": 1.0, "beta": 4.0, "gamma": [0.0, 0.0]}}),
        ("radial-oracle", {"task": "radial-oracle",
                           "coupling": {"alpha": 2.0, "beta": 0.0, "gamma": [0.0, 0.0]},
                           "geometry": {"R": 1.0}}),
        ("certify", {"task": "certify",
                     "coupling": {"alpha": 0.0, "beta": 1.0, "gamma": [0.0, 0.0]},
                     "geometry": {"kind": "circle", "R": 1.0}}),
        ("sweep", SWEEP_DOC),
    ]
    for i, (task, doc) in enumerate(docs):
        code, out = run_cli(tmp_path, task, doc, out=f"out{i}")
        assert code == 0, (task, code)
        rep = json.loads((out / "report.json").read_text())
        jsonschema.validate(rep, schema)


def test_rerun_is_bit_identical(tmp_path):
    for doc, artifacts in ((INTERVAL_DOC, ("spectrum.csv", "report.json")),
                           (SWEEP_DOC, ("sweep.csv", "report.json"))):
        task = doc["task"]
        code1, out1 = run_cli(tmp_path, task, doc, out=f"{task}-a")
        code2, out2 = run_cli(tmp_path, task, doc, out=f"{task}-b")
        assert code1 == code2 == 0
        for name in artifacts:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_shorter_artifact_overwrites_longer_exactly(tmp_path):
    path = tmp_path / "report.json"
    cli._write_text(path, "a longer previous artifact\n" * 50)
    cli._write_text(path, "short\n")
    assert path.read_bytes() == b"short\n"


FAILING_DOC = dict(INTERVAL_DOC, geometry={})  # geometry.d is missing


def test_rewrite_into_the_same_directory_matches_a_fresh_one(tmp_path):
    grid_sweep = dict(SWEEP_DOC, solver={"backend": "grid", "n_grid": 64})
    for name, doc in (("interval", INTERVAL_DOC), ("grid-sweep", grid_sweep), ("failing", FAILING_DOC)):
        codes = [run_cli(tmp_path, doc["task"], doc, out=f"{name}-same")[0] for _ in range(2)]
        code, fresh = run_cli(tmp_path, doc["task"], doc, out=f"{name}-fresh")
        assert codes == [code, code] == ([2, 2] if name == "failing" else [0, 0]), name
        same = tmp_path / f"{name}-same"
        assert sorted(os.listdir(same)) == sorted(os.listdir(fresh)), name
        for artifact in os.listdir(fresh):
            assert (same / artifact).read_bytes() == (fresh / artifact).read_bytes(), (name, artifact)


def test_failed_write_leaves_an_empty_file(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("the previous run's report\n")
    with pytest.raises(UnicodeEncodeError):
        cli._write_text(path, "ok\ud800")  # a lone surrogate has no UTF-8 form
    assert path.read_bytes() == b""


def test_new_artifact_gets_the_mode_open_gives(tmp_path):
    previous = os.umask(0o022)
    try:
        for umask in (0o022, 0o077, 0o002):
            os.umask(umask)
            ours, reference = tmp_path / f"ours-{umask:o}", tmp_path / f"reference-{umask:o}"
            cli._write_text(ours, "x\n")
            with open(reference, "w") as fh:
                fh.write("x\n")
            assert stat.S_IMODE(ours.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode), oct(umask)
    finally:
        os.umask(previous)


def test_output_directory_holds_only_the_last_runs_artifacts(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("not an artifact\n")
    runs = [(INTERVAL_DOC, 0, ["notes.txt", "report.json", "spectrum.csv"]),
            (FAILING_DOC, 2, ["error.json", "notes.txt"]),
            (INTERVAL_DOC, 0, ["notes.txt", "report.json", "spectrum.csv"]),
            (SWEEP_DOC, 0, ["notes.txt", "report.json", "sweep.csv"]),
            ({"task": "m-infinity", "coupling": INTERVAL_DOC["coupling"]}, 0, ["notes.txt", "report.json"])]
    for doc, want_code, want_listing in runs:
        code, _ = run_cli(tmp_path, doc["task"], doc)
        assert (code, sorted(os.listdir(out))) == (want_code, want_listing), doc["task"]
    assert (out / "notes.txt").read_text() == "not an artifact\n"


def test_error_run_writes_error_json(tmp_path):
    doc = {"task": "interval",
           "coupling": {"alpha": 2.0, "beta": 0.0, "gamma": [0.0, 0.0]},
           "geometry": {}}
    code, out = run_cli(tmp_path, "interval", doc)
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValidationError"
    assert "geometry.d" in err["detail"]
    assert len(err["config_sha256"]) == 64
    assert not (out / "report.json").exists()


def test_integer_beyond_float_writes_error_json(tmp_path):
    doc = dict(INTERVAL_DOC, coupling=dict(INTERVAL_DOC["coupling"], alpha=10**400))
    code, out = run_cli(tmp_path, "interval", doc)
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValidationError"
    assert err["detail"] == "coupling.alpha must be a finite number"


@pytest.mark.parametrize("alpha, beta, detail", [
    (1.0, 1e-200, "eigenvalue -k^2 overflows"),
    (5e-324, 0.0, "a root of the secular quadratic leaves the float range"),
], ids=["eigenvalue-overflows", "root-underflows"])
def test_interval_beyond_float_range_writes_error_json(tmp_path, alpha, beta, detail):
    # beta = 1e-200 has a root k = 2e200, so -k^2 is -inf; alpha = 5e-324
    # has the root alpha / 2, which rounds to 0
    doc = dict(INTERVAL_DOC, coupling={"alpha": alpha, "beta": beta, "gamma": [0.0, 0.0]})
    code, out = run_cli(tmp_path, "interval", doc)
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValidationError"
    assert err["detail"].startswith(detail)
    assert not (out / "report.json").exists()


def test_radial_oracle_overflow_writes_error_json(tmp_path):
    # alpha R = 1e200 has k = 5e199, so -k^2 is -inf: no -Infinity in report.json
    doc = {"task": "radial-oracle", "coupling": {"alpha": 1e200, "beta": 0.0, "gamma": [0.0, 0.0]},
           "geometry": {"R": 1.0}}
    code, out = run_cli(tmp_path, "radial-oracle", doc)
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValidationError"
    assert "overflows" in err["detail"]
    assert not (out / "report.json").exists()


def test_m_infinity_overflow_writes_error_json(tmp_path):
    # m = -alpha^2 / 4 is -inf at alpha = 1e200; without the interval check
    # nothing else refuses it, so m_infinity itself must
    doc = {"task": "m-infinity", "coupling": {"alpha": 1e200, "beta": 0.0, "gamma": [0.0, 0.0]},
           "solver": {"verify_interval": False}}
    code, out = run_cli(tmp_path, "m-infinity", doc)
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValidationError"
    assert "overflows" in err["detail"]
    assert not (out / "report.json").exists()
    assert cli._safe_m_infinity(1e200, 0.0, 0.0) is None  # the other tasks report null


def test_circle_fem_reports_the_certified_count(tmp_path):
    # the free coupling (2, 1) has exactly six states on the finest mesh
    # (h = 0.15); eigen_count 4 reports the lowest four of them
    doc = {"task": "circle-fem", "coupling": {"alpha": 2.0, "beta": 1.0, "gamma": [0.0, 0.0]},
           "geometry": {"R": 1.0, "h": 0.6}}
    for eigen_count, truncated in ((4, True), (6, False)):
        code, out = run_cli(tmp_path, "circle-fem", dict(doc, solver={"eigen_count": eigen_count}),
                            out=f"count{eigen_count}")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["N"] == 6
        assert len(report["results"]["eigenvalues"]) == eigen_count
        assert report["convergence"]["truncated_count"] is truncated
        # every rung and the wide run solve the counted pairs only
        for values in (*report["convergence"]["raw"], report["convergence"]["wide_values"]):
            assert len(values) == eigen_count


def test_circle_fem_neumann_zero_mode_is_not_a_bound_state(tmp_path):
    from surfint import fem2d

    doc = {"task": "circle-fem", "coupling": {"alpha": 0.0, "beta": 0.0, "gamma": [0.0, 0.0]},
           "geometry": {"R": 1.0, "h": 0.6}}
    code, out = run_cli(tmp_path, "circle-fem", doc)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["N"] == 0
    assert report["results"]["eigenvalues"] == []
    assert report["convergence"]["raw"] == [[], [], []] and report["convergence"]["wide_values"] == []
    # the zero mode exists on the finest mesh (h = 0.15), and N leaves it out
    finest = fem2d.assemble(core.uniform_field(0.0, 0.0, 0.0), fem2d.build_mesh(1.0, 3.0, 0.15))
    assert abs(fem2d.lowest_eigenpairs(finest, 1)[0][0]) < 1e-10


def test_task_command_mismatch_exits_two(tmp_path):
    code, out = run_cli(tmp_path, "sphere", INTERVAL_DOC)
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert "does not match" in err["detail"]


def test_task_command_mismatch_writes_error_to_config_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, dict(INTERVAL_DOC, output={"dir": "from_config"}))
    assert cli.main(["sphere", "--config", cfg]) == 2
    err = json.loads((tmp_path / "from_config" / "error.json").read_text())
    assert "does not match" in err["detail"]
    assert not (tmp_path / "error.json").exists()


def real_coupling(alpha, beta):
    return {"alpha": alpha, "beta": beta, "gamma": [0.0, 0.0]}


def compare_case(geometry):
    return {"task": "compare", "compare": {"cases": [
        {"case_id": "alpha_direct", **real_coupling(1e300, 1.0), "reference": 1.0, "geometry": geometry}]}}


SOLVER_FAILURES = {  # name: (config, error type, detail fragment)
    "radial-oracle-not-delta": (
        {"task": "radial-oracle", "coupling": real_coupling(2.0, 1.0), "geometry": {"R": 1.0}},
        "ValidationError", "delta"),
    # the triangle areas overflow (R = 1e200) or underflow (R = 1e-200)
    "circle-fem-huge-R": (
        {"task": "circle-fem", "coupling": real_coupling(2.0, 0.0), "geometry": {"R": 1e200}},
        "ValidationError", "triangle areas leave the normal float range"),
    "circle-fem-tiny-R": (
        {"task": "circle-fem", "coupling": real_coupling(2.0, 0.0), "geometry": {"R": 1e-200}},
        "ValidationError", "triangle areas leave the normal float range"),
    # SuperLU finds an exactly zero pivot
    "circle-fem-tiny-beta": (
        {"task": "circle-fem", "coupling": real_coupling(2.0, 1e-300), "geometry": {"R": 1.0}},
        "ConvergenceFailure", "Factor is exactly singular"),
    # ARPACK stops with error -9 (starting vector is zero)
    "circle-fem-huge-alpha": (
        {"task": "circle-fem", "coupling": real_coupling(1e300, 0.0), "geometry": {"R": 1.0}},
        "ConvergenceFailure", "ARPACK error -9"),
    "compare-circle-fem-huge-alpha": (compare_case("circle-fem"), "ConvergenceFailure", "ARPACK error -9"),
    # stebz does not converge on the radial tridiagonal
    "certify-huge-alpha": (
        {"task": "certify", "coupling": real_coupling(1e300, 1.0), "geometry": {"kind": "circle", "R": 1.0}},
        "ConvergenceFailure", "stebz"),
    "grid-sweep-huge-alpha": (
        {"task": "sweep", "coupling": real_coupling(1e300, 1.0), "geometry": {"kind": "sphere", "R": 1.0},
         "solver": {"backend": "grid"}, "sweep": {"parameter": "R", "start": 0.5, "stop": 1.0, "steps": 2}},
        "ConvergenceFailure", "stebz"),
    "compare-sphere-radial-huge-alpha": (compare_case("sphere-radial"), "ConvergenceFailure", "stebz"),
}


def test_solver_failure_exits_two(tmp_path):
    # each failure is typed: exit 2 and an error.json, no traceback
    for name, (doc, error, detail) in SOLVER_FAILURES.items():
        code, out = run_cli(tmp_path, doc["task"], doc, out=name)
        assert code == 2, name
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == error and detail in err["detail"], (name, err)
        assert not (out / "report.json").exists()


def test_compare_suite_passes_and_exits_zero(tmp_path):
    code, out = run_cli(tmp_path, "compare", {"task": "compare"})
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["verdict"] == "pass"
    assert rep["results"]["n_cases"] == 20
    assert all(c["ordering_ok"] for c in rep["results"]["cases"])
    jsonschema.validate(rep, load_schema())


def test_interval_negative_alpha_runs_without_k_max(tmp_path):
    doc = dict(INTERVAL_DOC, coupling={"alpha": -1.0, "beta": 1.0, "gamma": [0.5, 0.0]})
    code, out = run_cli(tmp_path, "interval", doc)
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["N"] == rep["results"]["census_expected"] == 1
    assert set(rep["tolerances"]) == {"bisect_tol", "k_max"}
    assert rep["tolerances"]["k_max"] > rep["results"]["ks"][0]
    assert "convergence" not in rep
    jsonschema.validate(rep, load_schema())


def test_compare_custom_case(tmp_path):
    doc = {"task": "compare",
           "compare": {"cases": [{
               "case_id": "beta_reciprocal", "alpha": 1.0, "beta": 2.0,
               "gamma": [0.0, 0.0], "reference": 2.0, "geometry": "interval",
               "params": {"d": 6.0}}]}}
    code, out = run_cli(tmp_path, "compare", doc)
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["n_cases"] == 1


def test_compare_rejects_hypothesis_violation(tmp_path):
    doc = {"task": "compare",
           "compare": {"cases": [{
               "case_id": "alpha_direct", "alpha": 2.0, "beta": 1.0,
               "gamma": [0.0, 0.0], "reference": 5.0, "geometry": "interval",
               "params": {"d": 6.0}}]}}
    code, out = run_cli(tmp_path, "compare", doc)
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert "reference <= alpha" in err["detail"]


def test_compare_checks_the_shape_before_the_bound(tmp_path):
    # gamma = -2 is real, so the shape fails; the bound alpha/|1+gamma/2|^2
    # would divide by zero and is not evaluated
    doc = {"task": "compare",
           "compare": {"cases": [{
               "case_id": "alpha_gamma", "alpha": 1.0, "beta": 0.0,
               "gamma": [-2.0, 0.0], "reference": 0.5, "geometry": "interval"}]}}
    code, out = run_cli(tmp_path, "compare", doc)
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValidationError"
    assert err["detail"] == "gamma not purely imaginary"
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("geometry, params, detail", [
    ("interval", {"dd": 2.0}, "unknown params key 'dd' for geometry 'interval'"),
    ("circle-fem", {"R": 1.0, "n_grid": 64}, "unknown params key 'n_grid' for geometry 'circle-fem'"),
    ("sphere-radial", {"d": 6.0}, "unknown params key 'd' for geometry 'sphere-radial'"),
    ("sphere-radial", {"n_grid": 256.0}, "params n_grid must be an integer, got 256.0"),
    ("sphere-radial", {"mode_max": 2.0}, "params mode_max must be an integer >= 0, got 2.0"),
    ("sphere-radial", {"mode_max": -1}, "params mode_max must be an integer >= 0, got -1"),
], ids=["interval-typo", "circle-fem-key", "sphere-radial-key", "n-grid-float",
        "mode-max-float", "mode-max-negative"])
def test_compare_rejects_bad_case_params(tmp_path, geometry, params, detail):
    doc = {"task": "compare",
           "compare": {"cases": [{
               "case_id": "beta_reciprocal", "alpha": 1.0, "beta": 2.0,
               "gamma": [0.0, 0.0], "reference": 2.0, "geometry": geometry,
               "params": params}]}}
    code, out = run_cli(tmp_path, "compare", doc)
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ValidationError"
    assert err["detail"] == detail
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("alpha, level", [(0.1, -2.599e-9), (0.3, -1.6147e-3)])
def test_certify_weak_circle_binds_and_exits_zero(tmp_path, alpha, level):
    # the state decays far beyond the Dirichlet box at 8R, so the FD count
    # reads 0; the census binds it, and the prediction holds
    doc = {"task": "certify",
           "coupling": {"alpha": alpha, "beta": 0.0, "gamma": [0.0, 0.0]},
           "geometry": {"kind": "circle", "R": 1.0}}
    code, out = run_cli(tmp_path, "certify", doc)
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["verdict"] == "pass"
    assert rep["results"]["counts"] == {"N": 1, "N_dirichlet": 0, "dirichlet_at_most_N": True}
    assert rep["results"]["criteria"]["attractive_trace_2d"]["consistent"] is True
    levels = radial.dtn_census(2, core.uniform_field(alpha, 0.0, 0.0), 1.0, 1)[1]
    assert levels.eigenvalues[0] == pytest.approx(level, rel=1e-4)
    jsonschema.validate(rep, load_schema())


def test_certify_unconfirmed_existence_exits_three(tmp_path, monkeypatch):
    # a census that binds nothing contradicts the attractive-trace theorem
    monkeypatch.setattr(radial, "dtn_census", lambda *args: (0, None))
    doc = {"task": "certify",
           "coupling": {"alpha": 0.1, "beta": 0.0, "gamma": [0.0, 0.0]},
           "geometry": {"kind": "circle", "R": 1.0}}
    code, out = run_cli(tmp_path, "certify", doc)
    assert code == 3
    rep = json.loads((out / "report.json").read_text())
    assert rep["verdict"] == "fail"
    assert rep["results"]["criteria"]["attractive_trace_2d"]["consistent"] is False
    jsonschema.validate(rep, load_schema())


def test_sweep_threshold_transition_at_one(tmp_path):
    doc = {"task": "sweep",
           "coupling": {"alpha": 1.0, "beta": 0.0, "gamma": [0.0, 0.0]},
           "geometry": {"kind": "sphere", "R": 1.0},
           "sweep": {"parameter": "alpha", "start": 0.9, "stop": 1.1,
                     "steps": 21}}
    code, out = run_cli(tmp_path, "sweep", doc)
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1] == "# parameter=alpha"
    assert lines[2] == "value,lambda_1,lambda_2,lambda_3,N,m_A"
    counts = {}
    for row in lines[3:]:
        cells = row.split(",")
        counts[round(float(cells[0]), 10)] = int(cells[-2])
    assert counts[0.9] == 0 and counts[1.0] == 0
    assert counts[1.01] == 1 and counts[1.1] == 1
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["backend"] == "radial-exact"


def test_sphere_exact_sweep_reports_every_bound_mode(tmp_path):
    # alpha R = 4.4 > 3 binds the s-wave and the three p-wave states
    doc = {"task": "sweep",
           "coupling": {"alpha": 4.4, "beta": 0.0, "gamma": [0.0, 0.0]},
           "geometry": {"kind": "sphere", "R": 1.0},
           "sweep": {"parameter": "alpha", "start": 4.4, "stop": 4.4, "steps": 1},
           "solver": {"eigen_count": 5}}
    code, out = run_cli(tmp_path, "sweep", doc)
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[2] == "value,lambda_1,lambda_2,lambda_3,lambda_4,lambda_5,N,m_A"
    cells = lines[3].split(",")
    assert cells[1] == repr(radial.sphere_swave_matching(4.4, 1.0)[1])
    p_wave = [float(c) for c in cells[2:5]]
    assert p_wave[0] == p_wave[1] == p_wave[2] == pytest.approx(-2.418468, abs=1e-6)
    assert cells[5] == "" and cells[6] == "4"
    point = json.loads((out / "report.json").read_text())["results"]["points"][0]
    assert point["N"] == 4 and point["eigenvalues"] == [float(c) for c in cells[1:5]]


# A fresh interpreter runs the given tasks and prints the numpy and SciPy
# modules and surfint.fem2d it has loaded: a task loads only the solver
# layer it runs.  numpy's start-up alone costs more than an interval task,
# and SciPy's more again.
IMPORT_PROBE = """
import json, os, sys
from surfint import cli
for i, doc in enumerate(json.loads(sys.argv[1])):
    assert cli.run(cli.parse_config(json.dumps(doc)), os.path.join(sys.argv[2], str(i))) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.partition(".")[0] in ("numpy", "scipy") or m == "surfint.fem2d")))
"""


def loaded_after(tmp_path, docs):
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(docs), str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_cli_import_loads_no_scipy(tmp_path):
    assert loaded_after(tmp_path, []) == []


def test_interval_tasks_import_no_scipy(tmp_path):
    docs = [
        INTERVAL_DOC,
        {"task": "sweep", "coupling": INTERVAL_DOC["coupling"], "geometry": {"d": 4.0},
         "sweep": {"parameter": "alpha", "start": 0.5, "stop": 2.0, "steps": 4}},
        {"task": "m-infinity", "coupling": {"alpha": 2.0, "beta": 1.0, "gamma": [0.5, 0.0]}},
        {"task": "radial-oracle", "coupling": INTERVAL_DOC["coupling"], "geometry": {"R": 1.0}},
        {"task": "sweep", "coupling": INTERVAL_DOC["coupling"], "geometry": {"kind": "sphere", "R": 1.0},
         "sweep": {"parameter": "R", "start": 0.8, "stop": 1.6, "steps": 3}},  # the exact delta sphere
        *({"task": "sweep", "coupling": {"alpha": 2.0, "beta": 1.0, "gamma": [0.5, 0.5]},
           "geometry": {"kind": kind, "R": 1.0},
           "sweep": {"parameter": "alpha", "start": 1.0, "stop": 2.0, "steps": 3}}
          for kind in ("circle", "sphere")),  # the census of free couplings
    ]
    assert loaded_after(tmp_path, docs) == []


def test_radial_tasks_import_no_sparse_or_fem(tmp_path):
    coupling = {"alpha": 2.0, "beta": 1.0, "gamma": [0.0, 0.0]}
    docs = [
        {"task": "sphere", "coupling": coupling, "geometry": {"R": 1.0},
         "solver": {"n_grid": 64}},
        {"task": "certify", "coupling": coupling,
         "geometry": {"kind": "sphere", "R": 1.0, "n_grid": 64}},
        {"task": "sweep", "coupling": coupling, "geometry": {"kind": "sphere", "R": 1.0},
         "sweep": {"parameter": "alpha", "start": 1.0, "stop": 2.0, "steps": 2},
         "solver": {"n_grid": 64}},
    ]
    loaded = loaded_after(tmp_path, docs)
    assert "scipy.linalg" in loaded  # the tasks did run their solves
    assert [m for m in loaded if m.startswith("scipy.sparse") or m == "surfint.fem2d"] == []


def test_sweep_interval_backend(tmp_path):
    doc = {"task": "sweep",
           "coupling": {"alpha": 0.0, "beta": 1.0, "gamma": [0.0, 0.0]},
           "geometry": {"d": 6.0},
           "sweep": {"parameter": "alpha", "start": 0.0, "stop": 2.0,
                     "steps": 5},
           "solver": {"eigen_count": 2}}
    code, out = run_cli(tmp_path, "sweep", doc)
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[2] == "value,lambda_1,lambda_2,N,m_A"
    last = lines[-1].split(",")
    # alpha = 2, beta = 1 supports two negative eigenvalues at d = 6
    assert int(last[-2]) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["backend"] == "interval-exact"
    # the grid is numpy.linspace's, bit for bit, though cli loads no numpy
    for i, (start, stop, steps) in enumerate([(0.1, 1.7, 11), (1.9, 0.2, 13), (0.3, 1.9, 1),
                                               (1.25, 1.25, 4)]):
        grid = dict(doc, sweep={"parameter": "alpha", "start": start, "stop": stop, "steps": steps})
        values = [p["value"] for p in sweep_points(tmp_path, grid, f"grid{i}")]
        assert values == np.linspace(start, stop, steps).tolist()


def test_sweep_grid_backend_on_circle(tmp_path):
    doc = {"task": "sweep",
           "coupling": {"alpha": 0.0, "beta": 2.0, "gamma": [0.0, 0.0]},
           "geometry": {"kind": "circle", "R": 1.0, "R_out": 8.0},
           "sweep": {"parameter": "beta", "start": 1.0, "stop": 2.0,
                     "steps": 3},
           "solver": {"n_grid": 256, "eigen_count": 1, "backend": "grid"}}
    code, out = run_cli(tmp_path, "sweep", doc)
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["backend"] == "radial-grid"
    assert all(p["N"] >= 1 for p in rep["results"]["points"])


def test_sweep_exact_backend_runs_the_census(tmp_path):
    # backend "exact" is the census on any uniform coupling, as "auto" is;
    # the delta' circle binds in the modes m < 2R/beta, exactly none at m = 2R/beta
    doc = {"task": "sweep",
           "coupling": {"alpha": 0.0, "beta": 2.0, "gamma": [0.0, 0.0]},
           "geometry": {"kind": "circle", "R": 1.0},
           "sweep": {"parameter": "beta", "start": 1.0, "stop": 2.0,
                     "steps": 3},
           "solver": {"backend": "exact"}}
    code, out = run_cli(tmp_path, "sweep", doc)
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["backend"] == "radial-exact"
    assert [p["N"] for p in rep["results"]["points"]] == [3, 3, 1]
    assert rep["results"]["points"] == sweep_points(tmp_path, dict(doc, solver={}), "auto")


def sweep_points(tmp_path, doc, out):
    code, out_dir = run_cli(tmp_path, "sweep", doc, out=out)
    assert code == 0
    return json.loads((out_dir / "report.json").read_text())["results"]["points"]


def task_results(tmp_path, task, doc, out):
    code, out_dir = run_cli(tmp_path, task, dict(doc, task=task), out=out)
    assert code == 0
    return json.loads((out_dir / "report.json").read_text())["results"]


# every sweep point is the single-point solve of the same parameters
def test_interval_sweep_point_is_the_interval_task(tmp_path):
    coupling = {"alpha": 1.0, "beta": 1.5, "gamma": [0.25, -0.5]}
    doc = {"task": "sweep", "coupling": coupling, "geometry": {"d": 3.0},
           "sweep": {"parameter": "alpha", "start": -0.5, "stop": 2.5, "steps": 4}}
    for i, point in enumerate(sweep_points(tmp_path, doc, "sweep")):
        single = task_results(tmp_path, "interval", {
            "coupling": dict(coupling, alpha=point["value"]), "geometry": {"d": 3.0}}, f"p{i}")
        assert point["eigenvalues"] == single["eigenvalues"]
        assert point["N"] == single["N"]
        assert point["m_A"] == single["m_infinity"]


def test_sphere_grid_sweep_point_is_the_sphere_task(tmp_path):
    coupling = {"alpha": 1.5, "beta": 1.0, "gamma": [0.5, 0.0]}
    geometry = {"kind": "sphere", "R": 1.0, "R_out": 5.0}
    solver = {"n_grid": 128, "outer_bc": "dirichlet"}
    doc = {"task": "sweep", "coupling": coupling, "geometry": geometry,
           "sweep": {"parameter": "R", "start": 0.8, "stop": 1.6, "steps": 3},
           "solver": dict(solver, eigen_count=20, backend="grid")}
    for i, point in enumerate(sweep_points(tmp_path, doc, "sweep")):
        single = task_results(tmp_path, "sphere", {
            "coupling": coupling, "geometry": {"R": point["value"], "R_out": 5.0},
            "solver": solver}, f"p{i}")
        assert 1 <= point["N"] == single["N"] <= 20
        assert point["eigenvalues"] == single["eigenvalues"]
        assert point["m_A"] == single["m_infinity"]


def test_circle_grid_sweep_point_is_the_mode_sum(tmp_path):
    doc = {"task": "sweep", "coupling": {"alpha": 0.0, "beta": 2.0, "gamma": [0.0, 0.5]},
           "geometry": {"kind": "circle", "R": 1.0},
           "sweep": {"parameter": "beta", "start": 1.0, "stop": 3.0, "steps": 3},
           "solver": {"n_grid": 128, "eigen_count": 2, "backend": "grid"}}
    for point in sweep_points(tmp_path, doc, "sweep"):
        beta = point["value"]
        rep = radial.assemble_mode_sum(radial.RadialGeometry(2, 1.0, 8.0),
                                       core.uniform_field(0.0, beta, 0.5j), 128)
        assert point["eigenvalues"] == list(rep.eigenvalues[:2])
        assert point["N"] == rep.N
        assert point["m_A"] == core.m_infinity(0.0, beta, 0.5j)


@pytest.mark.parametrize("kind, coupling, param, start, stop", [
    ("circle", {"alpha": 1.3, "beta": 1.0, "gamma": [0.3, 0.4]}, "beta", 1.0, 2.5),
    ("sphere", {"alpha": 1.0, "beta": 1.0, "gamma": [0.2, 0.5]}, "alpha", 1.0, 2.5),
    ("circle", {"alpha": 0.5, "beta": 0.0, "gamma": [0.0, 0.0]}, "R", 0.5, 3.0),  # Simon's weak binding
    ("sphere", {"alpha": 4.4, "beta": 0.0, "gamma": [0.5, -0.5]}, "R", 0.5, 1.5),
    ("sphere", {"alpha": 2.0, "beta": 0.0, "gamma": [0.0, 0.0]}, "beta", -1.0, 1.0),
])
def test_auto_sweep_point_is_the_census(tmp_path, kind, coupling, param, start, stop):
    doc = {"task": "sweep", "coupling": coupling, "geometry": {"kind": kind, "R": 1.0},
           "sweep": {"parameter": param, "start": start, "stop": stop, "steps": 4},
           "solver": {"eigen_count": 4, "n_grid": 64, "outer_bc": "dirichlet"}}  # read by "grid" only
    code, out = run_cli(tmp_path, "sweep", doc)
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["backend"] == "radial-exact"
    g = complex(*coupling["gamma"])
    for point in rep["results"]["points"]:
        at = {**coupling, "R": 1.0, param: point["value"]}
        N, levels = radial.dtn_census(2 if kind == "circle" else 3,
                                      core.uniform_field(at["alpha"], at["beta"], g), at["R"], 4)
        assert point["N"] == N >= 1
        assert point["eigenvalues"] == levels.expanded()[:4]
        assert point["m_A"] == cli._safe_m_infinity(at["alpha"], at["beta"], g)


def test_exact_sphere_sweep_point_is_the_delta_spectrum(tmp_path):
    doc = {"task": "sweep", "coupling": {"alpha": 4.4, "beta": 0.0, "gamma": [0.0, 0.0]},
           "geometry": {"kind": "sphere", "R": 1.0},
           "sweep": {"parameter": "R", "start": 0.5, "stop": 1.5, "steps": 5},
           "solver": {"eigen_count": 5}}
    for point in sweep_points(tmp_path, doc, "sweep"):
        N, levels = radial.dtn_census(3, core.delta_field(4.4), point["value"], 5)
        assert point["eigenvalues"] == levels.expanded()[:5]
        assert point["N"] == N
        assert point["m_A"] == core.m_infinity(4.4, 0.0, 0.0)


def test_exact_sphere_sweep_through_a_repulsive_sphere(tmp_path):
    # alpha < 0 binds nothing, and the census says so
    doc = {"task": "sweep", "coupling": {"alpha": 1.0, "beta": 0.0, "gamma": [0.0, 0.0]},
           "geometry": {"kind": "sphere", "R": 1.0},
           "sweep": {"parameter": "alpha", "start": -1.0, "stop": 1.0, "steps": 3}}
    code, out = run_cli(tmp_path, "sweep", doc)
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["backend"] == "radial-exact"
    points = rep["results"]["points"]
    assert [p["N"] for p in points] == [0, 0, 0]
    assert [p["N"] for p in points] == [radial.dtn_census(3, core.delta_field(p["value"]), 1.0, 3)[0]
                                        for p in points]
    assert all(p["eigenvalues"] == [] for p in points)


def test_m_infinity_report(tmp_path):
    doc = {"task": "m-infinity",
           "coupling": {"alpha": 1.0, "beta": 4.0, "gamma": [0.0, 0.0]}}
    code, out = run_cli(tmp_path, "m-infinity", doc)
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["m_infinity"] == pytest.approx(-0.25, abs=1e-15)
    matched = rep["results"]["matched_strength"]
    assert matched["applicable"] is True
    assert matched["interval_check"]["status"] == "ok"
    assert not (out / "spectrum.csv").exists()


def test_radial_oracle_exact_value(tmp_path):
    doc = {"task": "radial-oracle",
           "coupling": {"alpha": 2.0, "beta": 0.0, "gamma": [0.0, 0.0]},
           "geometry": {"R": 1.0}}
    code, out = run_cli(tmp_path, "radial-oracle", doc)
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["N"] == 1
    assert rep["results"]["eigenvalues"][0] == pytest.approx(
        -0.6349095705463543, abs=1e-10)
    # the s-wave root is bisected to adjacent floats, i.e. with tol 0
    assert rep["tolerances"] == {"bisect_tol": 0.0}


@pytest.mark.parametrize("alpha, R, excess, N", [
    (1 + 2**-52, 1 - 2**-53, 2**-53 - 2**-105, 1),  # alpha R rounds to 1 but exceeds it
    (1.0, 1.0, 0.0, 0),
    (1 + 2**-52, 1 - 2**-52, -(2**-104), 0),  # rounds to 1 from below
])
def test_radial_oracle_reports_the_exact_threshold_excess(tmp_path, alpha, R, excess, N):
    results = task_results(tmp_path, "radial-oracle", {
        "coupling": {"alpha": alpha, "beta": 0.0, "gamma": [0.0, 0.0]}, "geometry": {"R": R}}, "out")
    assert results["threshold_product"] == 1.0
    assert results["threshold_excess"] == excess  # alpha R - 1 exactly; its sign decides N
    assert results["N"] == N


def test_sphere_task_matches_oracle(tmp_path):
    doc = {"task": "sphere",
           "coupling": {"alpha": 2.0, "beta": 0.0, "gamma": [0.0, 0.0]},
           "geometry": {"R": 1.0, "R_out": 12.0},
           "solver": {"n_grid": 512}}
    code, out = run_cli(tmp_path, "sphere", doc)
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["eigenvalues"][0] == pytest.approx(
        -0.6349095705463543, abs=1e-3)
    jsonschema.validate(rep, load_schema())


def test_output_dir_from_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = dict(INTERVAL_DOC)
    doc["output"] = {"dir": "from_config"}
    cfg = write_config(tmp_path, doc)
    code = cli.main(["interval", "--config", cfg])
    assert code == 0
    assert (tmp_path / "from_config" / "report.json").exists()


def test_missing_config_file_exits_two(tmp_path, capsys):
    code = cli.main(["interval", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err
