"""Executable verification of spectral orderings, bound-state criteria
and essential-spectrum pinching for the four-parameter interactions.

Comparison families (each pits the full coupling against a pure delta or
delta-prime reference of matched strength; in every case the quadratic
forms order once the traces are twisted by a diagonal unitary, so the
eigenvalue ordering lambda_k(lower) <= lambda_k(upper) holds for every
min-max index):

  alpha_direct       A = (alpha, 0; 0, beta), gamma = 0; needs
                     ref_strength <= alpha; the A-operator sits below
                     delta(ref_strength).
  beta_reciprocal    same A; needs ref_strength <= 4/beta.
  beta_gamma         A = (0, gamma; -conj(gamma), beta), gamma imaginary;
                     needs ref_strength <= (4 + |gamma|^2)/beta.
  alpha_gamma        A = (alpha, gamma; -conj(gamma), 0), gamma imaginary;
                     needs ref_strength <= alpha/|1 + gamma/2|^2.
  deltaprime_lower   A = (alpha, gamma; -conj(gamma), 0), gamma complex;
                     needs alpha <= 4/ref_strength; here delta-prime of
                     strength ref_strength sits BELOW the A-operator.

Geometries: "interval" uses the exact 1-D two-point solver (the same
form inequalities hold verbatim on the Neumann interval, reported as the
1-D analogue), "circle-fem" assembles both couplings on one shared mesh,
and "sphere-radial" compares per-mode banded FD spectra on one shared
grid; in the discrete settings the ordering transfers exactly because
the twisting unitaries act diagonally on nodal values, so violations
beyond round-off are real bugs, not discretization slack.

Certificates (bound_state_certificate) and essential-bound pinching
checks (essential_bound_check) evaluate closed-form predictions and
cross-check them against numerically certified eigenvalue counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from . import core, fem2d, interval, radial
from .errors import (
    CaseInapplicable,
    GeometryUnavailable,
    ScanTooCoarse,
    ValidationError,
)

CASE_IDS = (
    "alpha_direct",
    "beta_reciprocal",
    "beta_gamma",
    "alpha_gamma",
    "deltaprime_lower",
)
GEOMETRIES = ("interval", "circle-fem", "sphere-radial")

TOLERANCES = {"interval": 1e-10, "circle-fem": 1e-8, "sphere-radial": 1e-8}

def _mod2(z):
    """|z|^2 via components (no square root, exact at rational points)."""
    zc = complex(z)
    return zc.real * zc.real + zc.imag * zc.imag



@dataclass(frozen=True)
class ComparisonCase:
    """One eigenvalue-ordering check.

    reference is the matched strength of the comparison operator: a
    delta strength for the first four families, a delta-prime strength
    for deltaprime_lower.  params carries the geometry data: {"d": ...}
    for the interval, {"R", "R_out", "h"} for circle-fem,
    {"R", "R_out", "n_grid", "mode_max"} for sphere-radial.
    """

    case_id: str
    alpha: float
    beta: float
    gamma: complex
    reference: float
    geometry: str
    params: dict = dataclass_field(default_factory=dict)
    k_count: int = 3

    def left_coupling(self):
        return (self.alpha, self.beta, self.gamma)

    def reference_coupling(self):
        if self.case_id == "deltaprime_lower":
            return (0.0, self.reference, 0.0)
        return (self.reference, 0.0, 0.0)


def check_hypothesis(case):
    """Scalar hypothesis check; returns (ok, list of failed conditions)."""
    a, b, g = case.alpha, case.beta, complex(case.gamma)
    r = case.reference
    fails = []
    if case.case_id not in CASE_IDS:
        fails.append(f"unknown case_id {case.case_id!r}")
        return False, fails
    if case.geometry not in GEOMETRIES:
        fails.append(f"unknown geometry {case.geometry!r}")
    if case.k_count < 1:
        fails.append("k_count must be >= 1")

    if case.case_id in ("alpha_direct", "beta_reciprocal"):
        if g != 0:
            fails.append("gamma must be 0 for the diagonal coupling")
        if a < 0:
            fails.append(f"alpha must be >= 0, got {a}")
        if b <= 0:
            fails.append(f"beta must be > 0, got {b}")
        if case.case_id == "alpha_direct" and r > a:
            fails.append(f"needs reference <= alpha: {r} > {a}")
        if case.case_id == "beta_reciprocal" and b > 0 and r > 4.0 / b:
            fails.append(f"needs reference <= 4/beta: {r} > {4.0 / b}")
    elif case.case_id == "beta_gamma":
        if a != 0:
            fails.append(f"alpha must be 0, got {a}")
        if b <= 0:
            fails.append(f"beta must be > 0, got {b}")
        if g.real != 0:
            fails.append("gamma not purely imaginary")
        if b > 0 and r > (4.0 + _mod2(g)) / b:
            fails.append(f"needs reference <= (4+|gamma|^2)/beta: {r} > {(4.0 + _mod2(g)) / b}")
    elif case.case_id == "alpha_gamma":
        if b != 0:
            fails.append(f"beta must be 0, got {b}")
        if a < 0:
            fails.append(f"alpha must be >= 0, got {a}")
        if g.real != 0:
            fails.append("gamma not purely imaginary")
        lim = a / _mod2(1.0 + g / 2.0)
        if r > lim:
            fails.append(f"needs reference <= alpha/|1+gamma/2|^2: {r} > {lim}")
    elif case.case_id == "deltaprime_lower":
        if b != 0:
            fails.append(f"beta must be 0, got {b}")
        if a < 0:
            fails.append(f"alpha must be >= 0, got {a}")
        if r == 0:
            fails.append("delta-prime reference strength must be nonzero")
        elif a > 4.0 / r:
            fails.append(f"needs alpha <= 4/reference: {a} > {4.0 / r}")
    return not fails, fails


@dataclass(frozen=True)
class Verdict:
    """Outcome of one spectral-ordering check.

    pairs holds (lower_k, upper_k) for k = 1..k_count; margin is the
    minimum of upper_k - lower_k, so the ordering holds iff margin is
    above -tolerance.
    """

    case_id: str
    pairs: tuple
    ordering_ok: bool
    margin: float
    tolerance: float
    diagnostics: dict

    def to_dict(self):
        return {
            "case_id": self.case_id,
            "pairs": [[lo, up] for lo, up in self.pairs],
            "ordering_ok": bool(self.ordering_ok),
            "margin": float(self.margin),
            "tolerance": float(self.tolerance),
            "diagnostics": self.diagnostics,
        }


def _pad(values, k):
    """First k eigenvalues, padded with the essential-spectrum bottom 0.

    For indices past the computed negative spectrum the true min-max
    value is >= 0, so padding the LOWER side with 0 can only overstate
    its eigenvalues and padding the UPPER side with 0 can only
    understate them; a nonnegative margin on padded pairs is therefore
    still a sound verification.
    """
    out = [float(v) for v in values[:k]]
    n_pad = k - len(out)
    out.extend(0.0 for _ in range(n_pad))
    return out, n_pad


def _interval_eigenvalues(coupling, d, k):
    a, b, g = coupling
    prob = interval.IntervalProblem(alpha=a, beta=b, gamma=g, d=d)
    spec = interval.negative_spectrum(prob)
    return _pad(sorted(spec.eigenvalues), k)


def _fem_eigenvalues(coupling, mesh, k):
    field = core.uniform_field(*coupling)
    pairs = fem2d.lowest_eigenpairs(fem2d.assemble(field, mesh), k)
    return [lam for lam, _ in pairs], 0


def _radial_merged_eigenvalues(coupling, params, k):
    field = core.uniform_field(*coupling)
    geom = radial.RadialGeometry(
        dimension=3,
        R=params.get("R", 1.0),
        R_out=params.get("R_out", 12.0),
        outer_bc=params.get("outer_bc", "neumann"),
        mode=0,
    )
    n_grid = params.get("n_grid", 256)
    mode_max = params.get("mode_max", 2)
    merged = []
    for mode in range(mode_max + 1):
        lam = radial.radial_mode_eigenvalues(replace(geom, mode=mode), field, n_grid, count=k)
        merged.extend(float(v) for v in lam for _ in range(2 * mode + 1))
    merged.sort()
    return merged[:k], 0


def compare_spectra(case):
    """Evaluate one ordering case and return its Verdict.

    The hypothesis is checked, not assumed.  For deltaprime_lower the
    reference operator is the lower side; in every other family the full
    coupling is the lower side.
    """
    ok, fails = check_hypothesis(case)
    if not ok:
        raise ValidationError(fails)
    if case.geometry == "interval":
        d = case.params.get("d", 8.0)
        lower_c, upper_c = _sides(case)
        lower, pad_lo = _interval_eigenvalues(lower_c, d, case.k_count)
        upper, pad_up = _interval_eigenvalues(upper_c, d, case.k_count)
        diag = {"geometry": "interval", "d": d, "padded": [pad_lo, pad_up]}
    elif case.geometry == "circle-fem":
        R = case.params.get("R", 1.0)
        R_out = case.params.get("R_out", 3.0)
        h = case.params.get("h", 0.3)
        mesh = fem2d.build_mesh(R, R_out, h)
        lower_c, upper_c = _sides(case)
        lower, _ = _fem_eigenvalues(lower_c, mesh, case.k_count)
        upper, _ = _fem_eigenvalues(upper_c, mesh, case.k_count)
        diag = {
            "geometry": "circle-fem",
            "R": R,
            "R_out": R_out,
            "h": h,
            "n_vertices": mesh.n_vertices,
            "shared_mesh": True,
        }
    elif case.geometry == "sphere-radial":
        lower_c, upper_c = _sides(case)
        lower, _ = _radial_merged_eigenvalues(lower_c, case.params, case.k_count)
        upper, _ = _radial_merged_eigenvalues(upper_c, case.params, case.k_count)
        diag = {"geometry": "sphere-radial", "shared_grid": True, **case.params}
    else:
        raise GeometryUnavailable(f"no solver for geometry {case.geometry!r}")

    pairs = tuple(zip(lower, upper))
    margin = min(up - lo for lo, up in pairs)
    tol = TOLERANCES[case.geometry]
    diag["lower_is_reference"] = case.case_id == "deltaprime_lower"
    diag["gaps"] = [up - lo for lo, up in pairs]
    return Verdict(
        case_id=case.case_id,
        pairs=pairs,
        ordering_ok=bool(margin >= -tol),
        margin=float(margin),
        tolerance=tol,
        diagnostics=diag,
    )


def _sides(case):
    if case.case_id == "deltaprime_lower":
        return case.reference_coupling(), case.left_coupling()
    return case.left_coupling(), case.reference_coupling()


def build_comparison_suite():
    """Twenty hypothesis-satisfying cases, including boundary equalities.

    Twelve run on the exact interval solver, eight on shared-mesh circle
    FEM.  Several sit exactly on the hypothesis boundary (reference
    equal to its admissible maximum) where the ordering is non-strict.
    """
    iv = {"d": 8.0}
    fem = {"R": 1.0, "R_out": 3.0, "h": 0.3}
    cases = [
        ComparisonCase("alpha_direct", 2.0, 1.0, 0.0, 2.0, "interval", iv),
        ComparisonCase("alpha_direct", 2.0, 1.0, 0.0, 1.2, "interval", iv),
        ComparisonCase("alpha_direct", 3.0, 0.5, 0.0, 2.5, "interval", iv),
        ComparisonCase("beta_reciprocal", 1.0, 2.0, 0.0, 2.0, "interval", iv),
        ComparisonCase("beta_reciprocal", 0.0, 1.0, 0.0, 3.5, "interval", iv),
        ComparisonCase("beta_reciprocal", 2.0, 4.0, 0.0, 0.8, "interval", iv),
        ComparisonCase("beta_gamma", 0.0, 2.0, 1.0j, 2.5, "interval", iv),
        ComparisonCase("beta_gamma", 0.0, 1.0, 2.0j, 5.0, "interval", iv),
        ComparisonCase("alpha_gamma", 2.0, 0.0, 1.0j, 1.6, "interval", iv),
        ComparisonCase("alpha_gamma", 3.0, 0.0, 2.0j, 1.0, "interval", iv),
        ComparisonCase("deltaprime_lower", 1.0, 0.0, 0.5, 4.0, "interval", iv),
        ComparisonCase("deltaprime_lower", 2.0, 0.0, 1.0 + 1.0j, 1.5, "interval", iv),
        ComparisonCase("alpha_direct", 2.0, 1.0, 0.0, 2.0, "circle-fem", fem),
        ComparisonCase("alpha_direct", 2.5, 0.8, 0.0, 1.5, "circle-fem", fem),
        ComparisonCase("beta_reciprocal", 1.0, 2.0, 0.0, 2.0, "circle-fem", fem),
        ComparisonCase("beta_gamma", 0.0, 2.0, 1.0j, 2.5, "circle-fem", fem),
        ComparisonCase("beta_gamma", 0.0, 1.5, 1.0j, 2.0, "circle-fem", fem),
        ComparisonCase("alpha_gamma", 2.0, 0.0, 1.0j, 1.6, "circle-fem", fem),
        ComparisonCase("deltaprime_lower", 1.0, 0.0, 0.5, 4.0, "circle-fem", fem),
        ComparisonCase("deltaprime_lower", 1.5, 0.0, 1.0j, 2.0, "circle-fem", fem),
    ]
    return cases


def run_suite(cases):
    """Evaluate many cases in order."""
    return [compare_spectra(case) for case in cases]


def bound_state_certificate(field, geometry):
    """Closed-form bound-state predictions cross-checked numerically.

    geometry is a dict {"kind": "circle" | "sphere", "R": radius} plus
    optional "R_out" (default 8 R) and "n_grid" (default 512).  Three
    criteria are evaluated on the single-region coupling:

      interaction_integral     free traces everywhere: if the surface
                               integral of |1+gamma/2|^2/beta + alpha/4
                               is positive, at least one bound state
                               exists (any dimension).
      attractive_trace_2d      circle only, constrained traces, alpha
                               bounded below by a positive constant:
                               at least one bound state exists.
      delta_majorant           constrained traces: the spectrum is
                               dominated by a delta interaction of
                               strength alpha / min |1 +- gamma/2|^2; on
                               the sphere that operator binds nothing
                               iff its strength times R is <= 1, so the
                               full coupling binds nothing either.

    All numeric counts use a Dirichlet-truncated domain, which can only
    undercount (N_dirichlet <= N_true).  An existence prediction is
    confirmed when N_dirichlet >= 1 (sound: the true count is at least
    as large).  A nonexistence prediction is refuted by N_dirichlet >= 1
    and consistent when the count is 0; Neumann truncation is useless
    here because a constant trial function always picks up negative
    energy from the attractive surface term on a bounded domain, so a
    Neumann box reports a spurious bound state at every truncation.
    """
    kind = geometry["kind"]
    if kind not in ("circle", "sphere"):
        raise GeometryUnavailable(f"certificate geometry must be circle or sphere, got {kind!r}")
    R = float(geometry["R"])
    R_out = float(geometry.get("R_out", 8.0 * R))
    n_grid = int(geometry.get("n_grid", 512))
    rc = field.single
    dim = 2 if kind == "circle" else 3
    measure = 2.0 * np.pi * R if dim == 2 else 4.0 * np.pi * R * R
    g = complex(rc.gamma)

    criteria = {}
    if rc.kind == core.FREE:
        integrand = _mod2(1.0 + g / 2.0) / rc.beta + rc.alpha / 4.0
        integral = measure * integrand
        criteria["interaction_integral"] = {
            "applicable": True,
            "integral": float(integral),
            "prediction": "N >= 1" if integral > 0 else None,
        }
    else:
        criteria["interaction_integral"] = {
            "applicable": False,
            "reason": "needs free traces (beta != 0) on the whole surface",
        }

    if rc.kind == core.CONSTRAINED and dim == 2 and rc.alpha > 0:
        criteria["attractive_trace_2d"] = {
            "applicable": True,
            "alpha_min": float(rc.alpha),
            "prediction": "N >= 1",
        }
    else:
        criteria["attractive_trace_2d"] = {
            "applicable": False,
            "reason": "needs a circle, constrained traces and alpha > 0",
        }

    if rc.kind == core.CONSTRAINED:
        denom = min(_mod2(1.0 + g / 2.0), _mod2(1.0 - g / 2.0))
        entry = {"applicable": True, "denominator": float(denom)}
        if denom == 0.0:
            # gamma = +-2: the majorant strength diverges, no prediction
            entry["prediction"] = None
            entry["reason"] = "majorant strength diverges at gamma = +-2"
        else:
            alpha_tilde = rc.alpha / denom
            entry["alpha_tilde"] = float(alpha_tilde)
            if dim == 3:
                entry["prediction"] = "N == 0" if alpha_tilde * R <= 1.0 else None
                entry["threshold"] = float(alpha_tilde * R)
            else:
                # every positive-strength delta circle binds, so the
                # majorant only concludes for alpha_tilde == 0
                entry["prediction"] = "N == 0" if alpha_tilde == 0.0 else None
        criteria["delta_majorant"] = entry
    else:
        criteria["delta_majorant"] = {
            "applicable": False,
            "reason": "needs constrained traces (beta == 0)",
        }

    geom = radial.RadialGeometry(dimension=dim, R=R, R_out=R_out, outer_bc="dirichlet", mode=0)
    n_dirichlet = int(radial.assemble_mode_sum(geom, field, None, n_grid).N)

    ok = True
    for name, entry in criteria.items():
        pred = entry.get("prediction")
        if pred == "N >= 1":
            entry["numeric"] = n_dirichlet
            entry["consistent"] = n_dirichlet >= 1
        elif pred == "N == 0":
            entry["numeric"] = n_dirichlet
            entry["consistent"] = n_dirichlet == 0
        else:
            entry["consistent"] = None
        if entry["consistent"] is False:
            ok = False
    return {
        "geometry": {"kind": kind, "R": R, "R_out": R_out, "n_grid": n_grid},
        "criteria": criteria,
        "counts": {"N_dirichlet": n_dirichlet},
        "ok": ok,
    }


def essential_bound_check(alpha, beta, gamma, verify_interval=True):
    """Check the matched-strength pinching of the planar spectral bound.

    For three coupling shapes a delta strength alpha_tilde exists with
    m_A equal to -alpha_tilde^2/4 exactly:

      diag_saturation        gamma = 0, beta > 0, alpha_tilde = 4/beta;
                             the identity holds exactly when
                             alpha * beta <= 4 (equality included; at
                             alpha*beta = 4 the two closed-form branches
                             of m_A coincide) and fails beyond, which is
                             reported rather than asserted.
      beta_imaginary_gamma   alpha = 0, beta > 0, gamma imaginary,
                             alpha_tilde = (4 + |gamma|^2)/beta; exact.
      alpha_imaginary_gamma  beta = 0, alpha > 0, gamma imaginary,
                             alpha_tilde = alpha/|1 + gamma/2|^2; exact.

    Every applicable shape is evaluated; CaseInapplicable is raised when
    none matches.  With verify_interval=True the closed-form m_A is also
    cross-checked against the two-point interval solver at a separation
    large enough for the exponential convergence to exhaust double
    precision headroom.
    """
    if alpha < 0 or beta < 0:
        raise ValidationError(f"needs alpha >= 0 and beta >= 0, got ({alpha}, {beta})")
    g = complex(gamma)
    m_A = core.m_infinity(alpha, beta, gamma)
    cases = []
    if g == 0 and beta > 0:
        at = 4.0 / beta
        pinched = -(at * at) / 4.0
        holds = abs(m_A - pinched) <= 1e-12 * max(1.0, abs(m_A))
        cases.append(
            {
                "case": "diag_saturation",
                "alpha_tilde": at,
                "pinched": pinched,
                "m_A": m_A,
                "identity_holds": bool(holds),
                "validity_condition": "alpha * beta <= 4",
                "condition_met": bool(alpha * beta <= 4.0),
                "boundary_equality_admitted": True,
            }
        )
    if alpha == 0 and beta > 0 and g.real == 0:
        at = (4.0 + _mod2(g)) / beta
        pinched = -(at * at) / 4.0
        cases.append(
            {
                "case": "beta_imaginary_gamma",
                "alpha_tilde": at,
                "pinched": pinched,
                "m_A": m_A,
                "identity_holds": bool(abs(m_A - pinched) <= 1e-12 * max(1.0, abs(m_A))),
            }
        )
    if beta == 0 and alpha > 0 and g.real == 0:
        at = alpha / _mod2(1.0 + g / 2.0)
        pinched = -(at * at) / 4.0
        cases.append(
            {
                "case": "alpha_imaginary_gamma",
                "alpha_tilde": at,
                "pinched": pinched,
                "m_A": m_A,
                "identity_holds": bool(abs(m_A - pinched) <= 1e-12 * max(1.0, abs(m_A))),
            }
        )
    if not cases:
        raise CaseInapplicable(
            "no matched-strength case fits "
            f"(alpha={alpha}, beta={beta}, gamma={gamma}): needs gamma = 0 with "
            "beta > 0, or alpha = 0 with imaginary gamma, or beta = 0 with "
            "imaginary gamma"
        )

    report = {"m_A": float(m_A), "cases": cases}
    if verify_interval:
        report["interval_check"] = _interval_limit_check(alpha, beta, gamma, m_A)
    return report


def _interval_limit_check(alpha, beta, gamma, m_A):
    if m_A == 0.0:
        return {"status": "skipped", "reason": "m_A = 0 has no bound state to track"}
    k_hat = float(np.sqrt(-m_A))
    d = max(6.0, 20.0 / k_hat)
    prob = interval.IntervalProblem(alpha=alpha, beta=beta, gamma=gamma, d=d)
    try:
        lam = interval.negative_spectrum(prob).eigenvalues
    except ScanTooCoarse as exc:
        return {"status": "scan_too_coarse", "d": d, "detail": str(exc)}
    gap = abs(min(lam) - m_A) if lam else float("nan")
    return {
        "status": "ok" if lam and gap <= 1e-6 else "mismatch",
        "d": d,
        "m_interval": min(lam) if lam else None,
        "gap": gap,
    }
