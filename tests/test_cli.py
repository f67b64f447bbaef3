"""Tests for the command line front-end: configs, artifacts, exit codes."""

import importlib.resources
import json
import pathlib
import re

import jsonschema
import pytest

from surfint import cli
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
         "unknown key solver.method",
         "solver.grid must be a positive integer",
         "solver.k_max must be a finite number",
         "solver.tol must be > 0, got -1.5",
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
         "solver.grid must be a positive integer",
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
         "solver.n_grid must be a positive integer",
         "solver.modes must be a nonempty list of mode indices >= 0",
         "solver.outer_bc must be 'neumann' or 'dirichlet', got 'open'"],
        id="sphere-rules"),
    pytest.param(
        {"task": "sphere", "coupling": COUPLING, "geometry": {"R": 2.0, "R_out": 2.0},
         "solver": {"modes": [0, -1], "outer_bc": None}},
        ValidationError,
        ["geometry.R_out must exceed R, got 2.0 <= 2.0",
         "solver.modes must be a nonempty list of mode indices >= 0",
         "solver.outer_bc must be 'neumann' or 'dirichlet', got None"],
        id="sphere-radii-order"),
    pytest.param(
        {"task": "sphere", "coupling": COUPLING, "geometry": {"R_out": 3.0},
         "solver": {"modes": 2, "n_grid": "512"}},
        ValidationError,
        ["missing required field geometry.R",
         "solver.n_grid must be a positive integer",
         "solver.modes must be a nonempty list of mode indices >= 0"],
        id="sphere-modes-not-list"),
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


def test_solver_failure_exits_two(tmp_path):
    doc = {"task": "radial-oracle",
           "coupling": {"alpha": 2.0, "beta": 1.0, "gamma": [0.0, 0.0]},
           "geometry": {"R": 1.0}}
    code, out = run_cli(tmp_path, "radial-oracle", doc)
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert "delta" in err["detail"]


def test_compare_suite_passes_and_exits_zero(tmp_path):
    code, out = run_cli(tmp_path, "compare", {"task": "compare"})
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["verdict"] == "pass"
    assert rep["results"]["n_cases"] == 20
    assert all(c["ordering_ok"] for c in rep["results"]["cases"])
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


def test_certify_unconfirmed_existence_exits_three(tmp_path):
    # the weak 2-D delta state is exponentially shallow, so the numeric
    # count cannot confirm the prediction and the verdict fails
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
    assert rep["results"]["backend"] == "sphere-delta-exact"


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


def test_sweep_grid_backend_on_circle(tmp_path):
    doc = {"task": "sweep",
           "coupling": {"alpha": 0.0, "beta": 2.0, "gamma": [0.0, 0.0]},
           "geometry": {"kind": "circle", "R": 1.0, "R_out": 8.0},
           "sweep": {"parameter": "beta", "start": 1.0, "stop": 2.0,
                     "steps": 3},
           "solver": {"n_grid": 256, "eigen_count": 1}}
    code, out = run_cli(tmp_path, "sweep", doc)
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["backend"] == "radial-grid"
    assert all(p["N"] >= 1 for p in rep["results"]["points"])


def test_sweep_exact_backend_refuses_mismatch(tmp_path):
    doc = {"task": "sweep",
           "coupling": {"alpha": 0.0, "beta": 2.0, "gamma": [0.0, 0.0]},
           "geometry": {"kind": "circle", "R": 1.0},
           "sweep": {"parameter": "beta", "start": 1.0, "stop": 2.0,
                     "steps": 3},
           "solver": {"backend": "exact"}}
    code, out = run_cli(tmp_path, "sweep", doc)
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert "backend" in err["detail"]


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
