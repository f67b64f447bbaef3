"""Output checks for benchmark tasks.

Each check reads the artifacts a task wrote and returns a list of
problems (empty when the output is correct).  The references are exact
root conditions, structural censuses or theorems about the operator, or
an independent solver (the radial 2-D solver for circle-fem), never
values copied from an earlier run, so any correct version of the program
passes them.  A task fails when it exits non-zero, raises, or fails its
check; failures are counted against the attempted tasks.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np
from scipy.optimize import brentq

from surfint import core, interval, radial

# circle-fem ground state vs the radial 2-D solver in the same Neumann
# box.  Both are second-order discretisations of one operator; with the
# h-ladder (0.3, 0.15, 0.075) the FEM polygonal interface leaves about
# 1e-3 on the free coupling and 1e-4 on the constrained one, so 1e-2
# relative (floor 1e-2 absolute) separates discretisation error from a
# wrong eigenvalue (a missed or spurious state moves it by O(0.1)).
FEM_RADIAL_TOL = 1e-2
# radial FD ground state vs the exact s-wave root, relative: the scheme
# is second order in h = R / n_grid with a relative error constant near
# 32 at alpha R ~ 4.4; the Dirichlet-box error is exponentially small.
SWAVE_TOL_CONSTANT = 100.0
# a delta-sphere mode whose threshold lies within this margin of alpha*R
# may be lost by a Dirichlet box or moved by the grid, so its count is
# only bounded, not matched
THRESHOLD_MARGIN = 0.5


def _gamma(c):
    return complex(c["gamma"][0], c["gamma"][1])


def _sorted_negative(values, what):
    vals = [float(v) for v in values]
    problems = []
    if any(not math.isfinite(v) or v >= 0.0 for v in vals):
        problems.append(f"{what}: non-negative or non-finite eigenvalue in {vals}")
    # degenerate angular pairs may differ by rounding in either order
    if any(b < a - 1e-9 * max(1.0, abs(a)) for a, b in zip(vals, vals[1:])):
        problems.append(f"{what}: eigenvalues not ascending")
    return problems


def _det(k, prob):
    """The 4x4 matching determinant as a complex number.  At a root its
    real part is rounding-sized, where determinant_oracle would reject
    the equally small imaginary part."""
    return complex(np.linalg.det(interval.matching_matrix(k, prob)))


def _root_problems(k, prob, what):
    """k must be a sign change of determinant_oracle, and the determinant
    at k must be small against its value at k +- w (the residual)."""
    w = min(1e-6 * max(1.0, k), 0.5 * k)
    lo, hi = interval.determinant_oracle(k - w, prob), interval.determinant_oracle(k + w, prob)
    mid = abs(_det(k, prob))
    if not all(math.isfinite(x) for x in (lo, mid, hi)):
        return [f"{what}: determinant not finite near k={k}"]
    if lo * hi >= 0.0:
        return [f"{what}: k={k} is not a sign change of the matching determinant"]
    if mid > 1e-3 * max(abs(lo), abs(hi)):
        return [f"{what}: determinant residual {mid / max(abs(lo), abs(hi)):.1e} at k={k}"]
    return []


def _sign_changes(prob, k_max, n=256):
    """Sign changes of the matching determinant on (0, k_max]: a lower
    bound on the number of negative eigenvalues there."""
    mats = np.array([interval.matching_matrix(k, prob) for k in np.linspace(k_max / n, k_max, n)])
    signs = np.sign(np.linalg.det(mats).real)
    return int(np.count_nonzero(signs[:-1] * signs[1:] < 0))


def _interval_point(prob, eigenvalues, n_reported, what, k_max=None):
    problems = _sorted_negative(eigenvalues, what)
    census = interval.expected_root_count(prob)
    if census is not None and n_reported != census:
        problems.append(f"{what}: N={n_reported}, structural count {census}")
    if census is None and k_max is not None:
        found = _sign_changes(prob, k_max)
        if n_reported < found:
            problems.append(f"{what}: N={n_reported} < {found} determinant sign changes")
    for lam in eigenvalues:
        problems += _root_problems(math.sqrt(-lam), prob, what)
    return problems


def check_interval(cfg, res):
    c, d = cfg["coupling"], cfg["geometry"]["d"]
    prob = interval.IntervalProblem(c["alpha"], c["beta"], _gamma(c), d)
    problems = []
    if len(res["eigenvalues"]) != res["N"] or len(res["ks"]) != res["N"]:
        problems.append("interval: N does not match the reported roots")
    for k, lam in zip(res["ks"], res["eigenvalues"]):
        if abs(lam + k * k) > 1e-12 * max(1.0, k * k):
            problems.append(f"interval: eigenvalue {lam} != -k^2 for k={k}")
    k_max = cfg.get("solver", {}).get("k_max")
    return problems + _interval_point(prob, res["eigenvalues"], res["N"], "interval", k_max)


def swave_root(alpha, R):
    """Exact s-wave bound state of the delta sphere, or None."""
    if alpha * R <= 1.0:
        return None
    k = brentq(lambda k: 0.5 * alpha * (1.0 - math.exp(-2.0 * k * R)) - k,
               1e-12 / R, 0.5 * alpha + 1.0, xtol=1e-15, rtol=1e-15)
    return -k * k


def delta_sphere_count(alpha, R):
    """Exact whole-space census of the delta sphere: mode l binds iff
    alpha R > 2l + 1 and carries multiplicity 2l + 1.  Also returns the
    distance of alpha R to the nearest threshold."""
    xi = alpha * R
    n, mode = 0, 0
    while xi > 2 * mode + 1:
        n += 2 * mode + 1
        mode += 1
    margin = min(abs(xi - (2 * l + 1)) for l in range(mode + 1))
    return n, margin


def _delta_sphere_point(alpha, R, n_grid, eigenvalues, n_reported, what):
    """Pure delta sphere in a Dirichlet box: the box only raises
    eigenvalues, so N <= exact; away from thresholds N == exact."""
    problems = _sorted_negative(eigenvalues, what)
    exact, margin = delta_sphere_count(alpha, R)
    if n_reported > exact or (margin >= THRESHOLD_MARGIN and n_reported != exact):
        problems.append(f"{what}: N={n_reported}, exact census {exact} (alpha R={alpha * R:.3f})")
    lam = swave_root(alpha, R)
    if lam is not None and alpha * R >= 1.0 + THRESHOLD_MARGIN:
        if not eigenvalues or abs(eigenvalues[0] - lam) > SWAVE_TOL_CONSTANT / n_grid**2 * abs(lam):
            got = eigenvalues[0] if eigenvalues else None
            problems.append(f"{what}: ground state {got}, exact s-wave {lam}")
    return problems


def _is_pure_delta(c):
    return c["beta"] == 0.0 and _gamma(c) == 0 and c["alpha"] > 0.0


def _binds(c):
    """Free traces everywhere and a positive interaction integral: at
    least one bound state exists, and a Neumann box only adds states."""
    return c["beta"] > 0.0 and abs(1.0 + _gamma(c) / 2.0) ** 2 / c["beta"] + c["alpha"] / 4.0 > 0.0


def _radial_point(kind, coupling, R, solver, eigenvalues, n_reported, what):
    """One sphere or circle spectrum from the radial grid solver."""
    bc = solver.get("outer_bc", "neumann")
    if kind == "sphere" and _is_pure_delta(coupling) and bc == "dirichlet":
        return _delta_sphere_point(coupling["alpha"], R, solver["n_grid"], eigenvalues, n_reported, what)
    problems = _sorted_negative(eigenvalues, what)
    if bc == "neumann" and _binds(coupling) and n_reported < 1:
        problems.append(f"{what}: no bound state although the interaction integral is positive")
    return problems


def check_sphere(cfg, res):
    problems = [] if len(res["eigenvalues"]) == res["N"] else ["sphere: N != len(eigenvalues)"]
    return problems + _radial_point("sphere", cfg["coupling"], cfg["geometry"]["R"],
                                    cfg.get("solver", {}), res["eigenvalues"], res["N"], "sphere")


def radial_ground_state_2d(c, R, R_out):
    """Mode-0 ground state of the 2-D problem in a Neumann box, from the
    radial solver, Richardson-extrapolated over n_grid 256, 512, 1024."""
    field = core.uniform_field(c["alpha"], c["beta"], _gamma(c))
    geom = radial.RadialGeometry(dimension=2, R=R, R_out=R_out, outer_bc="neumann", mode=0)
    ladder = [float(radial.radial_mode_eigenvalues(geom, field, n, count=1)[0])
              for n in (256, 512, 1024)]
    return radial.richardson(ladder)[0]


def check_circle_fem(cfg, res):
    c, geom = cfg["coupling"], cfg["geometry"]
    R = geom["R"]
    R_out = geom.get("R_out", 3.0 * R)
    # each index is Richardson-extrapolated on its own, so the reported
    # values need not be ascending; only the ground state is checked
    if not res["eigenvalues"] or not all(math.isfinite(v) for v in res["eigenvalues"]):
        return [f"circle-fem: eigenvalues {res['eigenvalues']}"]
    problems = []
    ref = radial_ground_state_2d(c, R, R_out)
    if abs(res["eigenvalues"][0] - ref) > FEM_RADIAL_TOL * max(1.0, abs(ref)):
        problems.append(f"circle-fem: ground state {res['eigenvalues'][0]}, radial 2-D solver {ref}")
    return problems


def check_radial_oracle(cfg, res):
    c, R = cfg["coupling"], cfg["geometry"]["R"]
    lam = swave_root(c["alpha"], R)
    want = 0 if lam is None else 1
    if res["N"] != want:
        return [f"radial-oracle: N={res['N']}, exact {want}"]
    # compare k = sqrt(-lambda): near the threshold k is tiny and a root
    # found to 1e-12 in k is far less accurate relative to lambda = -k^2
    if lam is not None and abs(math.sqrt(-res["eigenvalues"][0]) - math.sqrt(-lam)) > 1e-9:
        return [f"radial-oracle: {res['eigenvalues'][0]} != exact s-wave {lam}"]
    return []


def check_m_infinity(cfg, res):
    """Matched-strength identities of the paper: the shape's alpha_tilde
    and pinched value, identity holding exactly where the theorem says."""
    c = cfg["coupling"]
    a, b, g = c["alpha"], c["beta"], _gamma(c)
    matched = res["matched_strength"]
    if not matched.get("applicable"):
        return ["m-infinity: no matched-strength case although the coupling has one"]
    problems = []
    want = {}
    if g == 0 and b > 0:
        want["diag_saturation"] = (4.0 / b, a * b <= 4.0)
    if a == 0 and b > 0 and g.real == 0:
        want["beta_imaginary_gamma"] = ((4.0 + abs(g) ** 2) / b, True)
    if b == 0 and a > 0 and g.real == 0:
        want["alpha_imaginary_gamma"] = (a / abs(1.0 + g / 2.0) ** 2, True)
    got = {case["case"]: case for case in matched["cases"]}
    if set(got) != set(want):
        problems.append(f"m-infinity: cases {sorted(got)}, expected {sorted(want)}")
    for name, (alpha_tilde, holds) in want.items():
        case = got.get(name)
        if case is None:
            continue
        if abs(case["alpha_tilde"] - alpha_tilde) > 1e-12 * alpha_tilde:
            problems.append(f"m-infinity: {name} alpha_tilde {case['alpha_tilde']} != {alpha_tilde}")
        if case["identity_holds"] != holds:
            problems.append(f"m-infinity: {name} identity_holds={case['identity_holds']}")
    check = matched.get("interval_check", {})
    if check.get("status") != "ok":
        problems.append(f"m-infinity: interval check {check}")
    return problems


def check_compare(cfg, res):
    cases = cfg.get("compare", {}).get("cases")
    want = len(cases) if cases else 20
    problems = [] if res["n_cases"] == want else [f"compare: {res['n_cases']} cases, expected {want}"]
    bad = [case["case_id"] for case in res["cases"] if not case["ordering_ok"]]
    if bad or not res["all_ordering_ok"]:
        problems.append(f"compare: ordering violated in {bad}")
    return problems


def check_certify(cfg, res):
    return [] if res["ok"] else ["certify: certificate inconsistent"]


def check_sweep(cfg, res):
    c = cfg["coupling"]
    param = cfg["sweep"]["parameter"]
    geom = cfg["geometry"]
    problems = []
    if len(res["points"]) != cfg["sweep"]["steps"]:
        problems.append(f"sweep: {len(res['points'])} points, expected {cfg['sweep']['steps']}")
    for p in res["points"]:
        point = dict(c)
        if param in ("alpha", "beta"):
            point[param] = p["value"]
        what = f"sweep {param}={p['value']:.4g}"
        lams = p["eigenvalues"]
        if "d" in geom:
            d = p["value"] if param == "d" else geom["d"]
            prob = interval.IntervalProblem(point["alpha"], point["beta"], _gamma(point), d)
            problems += _interval_point(prob, lams, p["N"], what)
            continue
        R = p["value"] if param == "R" else geom["R"]
        problems += _radial_point(geom["kind"], point, R, cfg.get("solver", {}), lams, p["N"], what)
    return problems


CHECKS = {
    "interval": check_interval,
    "sphere": check_sphere,
    "circle-fem": check_circle_fem,
    "radial-oracle": check_radial_oracle,
    "m-infinity": check_m_infinity,
    "compare": check_compare,
    "certify": check_certify,
    "sweep": check_sweep,
}


def check_task(cfg, text, exit_code, out_dir):
    """Problems with one finished task run on config ``text``: it must
    exit 0 and write a report for this config that passes its check."""
    if exit_code != 0:
        return [f"{cfg['task']}: exit code {exit_code}"]
    try:
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"{cfg['task']}: unreadable report.json ({exc})"]
    if report.get("config_sha256") != hashlib.sha256(text.encode("utf-8")).hexdigest():
        return [f"{cfg['task']}: report.json is not from this config"]
    return CHECKS[cfg["task"]](cfg, report["results"])
