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

FAMILIES states each family once: check_hypothesis, the compared sides
and essential_bound_check's matched strengths all read it.

Geometries: "interval" uses the exact 1-D two-point solver (the same
form inequalities hold verbatim on the Neumann interval, reported as the
1-D analogue), "circle-fem" assembles both couplings on one shared mesh,
and "sphere-radial" compares per-mode tridiagonal FD spectra on one shared
grid; in the discrete settings the ordering transfers exactly because
the twisting unitaries act diagonally on nodal values, so violations
beyond round-off are real bugs, not discretization slack.

Certificates (bound_state_certificate) judge closed-form bound-state
predictions against the exact Dirichlet-to-Neumann census, with a
Dirichlet FD count as the one-sided cross-check (it can only undercount).
Essential-bound pinching checks (essential_bound_check) evaluate
closed-form identities and cross-check them on the interval solver.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import asdict, dataclass, field as dataclass_field, replace

from . import core, interval, radial
from .errors import CaseInapplicable, GeometryUnavailable, ValidationError
from .report import Levels, _plain


def _mod2(z):
    """|z|^2 via components (no square root, exact at rational points)."""
    zc = complex(z)
    return zc.real * zc.real + zc.imag * zc.imag


# Conditions on the coupling: (message when it fails, holds(alpha, beta, gamma)).
_GAMMA_ZERO = ("gamma must be 0 for the diagonal coupling", lambda a, b, g: g == 0)
_GAMMA_IMAGINARY = ("gamma not purely imaginary", lambda a, b, g: g.real == 0)
_ALPHA_ZERO = ("alpha must be 0, got {a}", lambda a, b, g: a == 0)
_ALPHA_NONNEGATIVE = ("alpha must be >= 0, got {a}", lambda a, b, g: a >= 0)
_BETA_ZERO = ("beta must be 0, got {b}", lambda a, b, g: b == 0)
_BETA_POSITIVE = ("beta must be > 0, got {b}", lambda a, b, g: b > 0)


@dataclass(frozen=True)
class Family:
    """One comparison theorem: a coupling whose shape conditions all hold
    lies below the delta reference of strength at most
    bound(alpha, beta, gamma), stated as "reference <= bound_text".

    deltaprime_lower has no bound: its hypothesis is alpha <= 4/reference
    with a nonzero reference, and its delta-prime reference lies below.
    """

    shape: tuple
    bound_text: str | None
    bound: Callable[[float, float, complex], float] | None


FAMILIES = {
    "alpha_direct": Family((_GAMMA_ZERO, _ALPHA_NONNEGATIVE, _BETA_POSITIVE),
                           "alpha", lambda a, b, g: a),
    "beta_reciprocal": Family((_GAMMA_ZERO, _ALPHA_NONNEGATIVE, _BETA_POSITIVE),
                              "4/beta", lambda a, b, g: 4.0 / b),
    "beta_gamma": Family((_ALPHA_ZERO, _BETA_POSITIVE, _GAMMA_IMAGINARY),
                         "(4+|gamma|^2)/beta", lambda a, b, g: (4.0 + _mod2(g)) / b),
    "alpha_gamma": Family((_BETA_ZERO, _ALPHA_NONNEGATIVE, _GAMMA_IMAGINARY),
                          "alpha/|1+gamma/2|^2", lambda a, b, g: a / _mod2(1.0 + g / 2.0)),
    "deltaprime_lower": Family((_BETA_ZERO, _ALPHA_NONNEGATIVE), None, None),
}
CASE_IDS = tuple(FAMILIES)
# each geometry's params keys, with their defaults
PARAMS = {
    "interval": {"d": 8.0},
    "circle-fem": {"R": 1.0, "R_out": 3.0, "h": 0.3},
    "sphere-radial": {"R": 1.0, "R_out": 12.0, "n_grid": 256, "mode_max": 2},
}

TOLERANCES = {"interval": 1e-10, "circle-fem": 1e-8, "sphere-radial": 1e-8}

# The matched-strength shapes of essential_bound_check: (name, the family
# whose shape it takes and whose bound is alpha_tilde, further conditions).
# alpha > 0 keeps (0, 0, iy), whose alpha_tilde is 0, out.
_MATCHED_SHAPES = (
    ("diag_saturation", "beta_reciprocal", ()),
    ("beta_imaginary_gamma", "beta_gamma", ()),
    ("alpha_imaginary_gamma", "alpha_gamma",
     (("alpha must be > 0, got {a}", lambda a, b, g: a > 0),)),
)


def _failed(conditions, a, b, g):
    """The messages of the conditions that do not hold at (a, b, g)."""
    return [message.format(a=a, b=b) for message, holds in conditions if not holds(a, b, g)]


@dataclass(frozen=True)
class ComparisonCase:
    """One eigenvalue-ordering check.

    reference is the matched strength of the comparison operator: a
    delta strength for the first four families, a delta-prime strength
    for deltaprime_lower.  params carries the geometry data, under the
    keys PARAMS lists for the geometry.
    """

    case_id: str
    alpha: float
    beta: float
    gamma: complex
    reference: float
    geometry: str
    params: dict = dataclass_field(default_factory=dict)
    k_count: int = 3


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def check_hypothesis(case):
    """Scalar hypothesis check; returns (ok, list of failed conditions).

    Every failed shape condition of the family is reported; its bound is
    checked only once the shape holds.  The params of the case are
    checked too: only the keys its geometry reads, an integer n_grid and
    an integer mode_max >= 0.
    """
    a, b, g = case.alpha, case.beta, complex(case.gamma)
    r = case.reference
    fails = []
    if case.case_id not in FAMILIES:
        fails.append(f"unknown case_id {case.case_id!r}")
        return False, fails
    if case.geometry not in PARAMS:
        fails.append(f"unknown geometry {case.geometry!r}")
    else:
        fails += [f"unknown params key {key!r} for geometry {case.geometry!r}"
                  for key in sorted(set(case.params) - set(PARAMS[case.geometry]))]
    if not _is_int(case.params.get("n_grid", 0)):
        fails.append(f"params n_grid must be an integer, got {case.params['n_grid']!r}")
    mode_max = case.params.get("mode_max", 0)
    if not (_is_int(mode_max) and mode_max >= 0):
        fails.append(f"params mode_max must be an integer >= 0, got {mode_max!r}")
    if case.k_count < 1:
        fails.append("k_count must be >= 1")

    family = FAMILIES[case.case_id]
    shape_fails = _failed(family.shape, a, b, g)
    if shape_fails:
        fails += shape_fails
    elif case.case_id == "deltaprime_lower":
        if r == 0:
            fails.append("delta-prime reference strength must be nonzero")
        elif a > 4.0 / r:
            fails.append(f"needs alpha <= 4/reference: {a} > {4.0 / r}")
    elif r > (lim := family.bound(a, b, g)):
        fails.append(f"needs reference <= {family.bound_text}: {r} > {lim}")
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
        return _plain(asdict(self))


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
    return _pad(spec.expanded(), k)


def _fem_eigenvalues(coupling, mesh, k):
    from . import fem2d  # imported here: only circle-fem cases load scipy.sparse

    field = core.uniform_field(*coupling)
    pairs = fem2d.lowest_eigenpairs(fem2d.assemble(field, mesh), k)
    return [lam for lam, _ in pairs]


def _radial_merged_eigenvalues(coupling, params, k):
    """Lowest k eigenvalues of modes 0..mode_max, with multiplicity, in a
    Neumann box (the RadialGeometry default).  Raises ValidationError when
    the modes hold fewer than k."""
    field = core.uniform_field(*coupling)
    geom = radial.RadialGeometry(dimension=3, R=params["R"], R_out=params["R_out"])
    modes = []
    for mode in range(params["mode_max"] + 1):
        lam = radial.radial_mode_eigenvalues(replace(geom, mode=mode), field,
                                             params["n_grid"], count=k)
        modes.append(Levels(tuple(float(v) for v in lam), (radial.multiplicity(3, mode),) * len(lam)))
    levels = Levels.merged(modes)
    if levels.N < k:  # then every mode returned all its eigenvalues
        raise ValidationError(
            f"k_count {k} exceeds the {levels.N} eigenvalues (with multiplicity) of "
            f"modes 0..{params['mode_max']} at n_grid {params['n_grid']}")
    return levels.expanded()[:k]


def _sides(case):
    """(lower, upper) couplings: the full coupling lies below its delta
    reference, and for deltaprime_lower the delta-prime reference lies
    below the full coupling."""
    full = (case.alpha, case.beta, case.gamma)
    if case.case_id == "deltaprime_lower":
        return (0.0, case.reference, 0.0), full
    return full, (case.reference, 0.0, 0.0)


def compare_spectra(case):
    """Evaluate one ordering case and return its Verdict.

    The hypothesis is checked, not assumed.  For deltaprime_lower the
    reference operator is the lower side; in every other family the full
    coupling is the lower side.
    """
    ok, fails = check_hypothesis(case)
    if not ok:
        raise ValidationError(fails)
    params = {**PARAMS[case.geometry], **case.params}
    lower_c, upper_c = _sides(case)
    if case.geometry == "interval":
        d = params["d"]
        lower, pad_lo = _interval_eigenvalues(lower_c, d, case.k_count)
        upper, pad_up = _interval_eigenvalues(upper_c, d, case.k_count)
        diag = {"geometry": "interval", "d": d, "padded": [pad_lo, pad_up]}
    elif case.geometry == "circle-fem":
        from . import fem2d

        R, R_out, h = params["R"], params["R_out"], params["h"]
        mesh = fem2d.build_mesh(R, R_out, h)
        lower = _fem_eigenvalues(lower_c, mesh, case.k_count)
        upper = _fem_eigenvalues(upper_c, mesh, case.k_count)
        diag = {
            "geometry": "circle-fem",
            "R": R,
            "R_out": R_out,
            "h": h,
            "n_vertices": mesh.n_vertices,
            "shared_mesh": True,
        }
    else:  # sphere-radial: check_hypothesis has refused every other geometry
        lower = _radial_merged_eigenvalues(lower_c, params, case.k_count)
        upper = _radial_merged_eigenvalues(upper_c, params, case.k_count)
        # only the params the case gave
        diag = {"geometry": "sphere-radial", "shared_grid": True, **case.params}

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


def build_comparison_suite():
    """Twenty hypothesis-satisfying cases, including boundary equalities.

    Twelve run on the exact interval solver, eight on shared-mesh circle
    FEM.  Several sit exactly on the hypothesis boundary (reference
    equal to its admissible maximum) where the ordering is non-strict.
    """
    iv, fem = dict(PARAMS["interval"]), dict(PARAMS["circle-fem"])
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


def bound_state_certificate(rc, geometry):
    """Closed-form bound-state predictions judged against the exact count.

    geometry is a dict {"kind": "circle" | "sphere", "R": radius} plus
    optional "R_out" (default 8 R) and "n_grid" (default 512) for the
    cross-check.  Three criteria are evaluated on the coupling rc:

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

    A criterion predicts only where its hypothesis holds exactly, in
    Fraction on the float inputs (the sign of the integrand, alpha R <=
    min |1 +- gamma/2|^2 on the sphere, alpha == 0 on the circle); the
    reported integral and threshold are floats.  Every prediction is
    judged against the exact Dirichlet-to-Neumann census N
    (radial.dtn_census), which is also its "numeric".

    counts.N_dirichlet is a one-sided cross-check: an FD count in a
    Dirichlet box of radius R_out, which can only undercount, so
    N_dirichlet > N refutes N and N_dirichlet < N refutes nothing (a
    shallow state decays beyond the box).  ok is false when a prediction
    is inconsistent or when counts.dirichlet_at_most_N is.  A Neumann box
    would be no check at all: a constant trial function picks up negative
    energy from an attractive surface term on a bounded domain, so it
    reports a spurious bound state at every truncation.  The FD count
    runs before the census, so its errors come first.
    """
    kind = geometry["kind"]
    if kind not in ("circle", "sphere"):
        raise GeometryUnavailable(f"certificate geometry must be circle or sphere, got {kind!r}")
    R = float(geometry["R"])
    R_out = float(geometry.get("R_out", 8.0 * R))
    n_grid = int(geometry.get("n_grid", 512))
    dim = 2 if kind == "circle" else 3
    g = complex(rc.gamma)
    alpha, beta, exact_R, w_minus, w_plus = radial._exact_inputs(rc, R)

    criteria = {
        "interaction_integral": {"applicable": False,
                                 "reason": "needs free traces (beta != 0) on the whole surface"},
        "attractive_trace_2d": {"applicable": False,
                                "reason": "needs a circle, constrained traces and alpha > 0"},
        "delta_majorant": {"applicable": False, "reason": "needs constrained traces (beta == 0)"},
    }
    if rc.kind == core.FREE:
        measure = 2.0 * math.pi * R if dim == 2 else 4.0 * math.pi * R * R
        integral = measure * (_mod2(1.0 + g / 2.0) / rc.beta + rc.alpha / 4.0)
        binds = w_plus / beta + alpha / 4 > 0
        criteria["interaction_integral"] = {
            "applicable": True, "integral": float(integral), "prediction": "N >= 1" if binds else None}
    else:
        if dim == 2 and rc.alpha > 0:
            criteria["attractive_trace_2d"] = {
                "applicable": True, "alpha_min": float(rc.alpha), "prediction": "N >= 1"}
        denom = min(_mod2(1.0 + g / 2.0), _mod2(1.0 - g / 2.0))
        entry = criteria["delta_majorant"] = {"applicable": True, "denominator": float(denom)}
        if denom == 0.0:  # gamma = +-2
            entry.update(prediction=None, reason="majorant strength diverges at gamma = +-2")
        else:
            # a delta sphere binds nothing iff alpha_tilde R <= 1; every attractive delta circle binds
            alpha_tilde = rc.alpha / denom
            silent = alpha * exact_R <= min(w_minus, w_plus) if dim == 3 else alpha == 0
            entry.update(alpha_tilde=float(alpha_tilde), prediction="N == 0" if silent else None)
            if dim == 3:
                entry["threshold"] = float(alpha_tilde * R)

    geom = radial.RadialGeometry(dimension=dim, R=R, R_out=R_out, outer_bc="dirichlet", mode=0)
    n_dirichlet = int(radial.assemble_mode_sum(geom, rc, n_grid).N)
    N = radial.dtn_census(dim, rc, R, 0)[0]
    for entry in criteria.values():
        prediction = entry.get("prediction")
        if prediction is not None:
            entry["numeric"] = N
        entry["consistent"] = None if prediction is None else (N >= 1 if prediction == "N >= 1" else N == 0)
    counts = {"N": N, "N_dirichlet": n_dirichlet, "dirichlet_at_most_N": n_dirichlet <= N}
    return {
        "geometry": {"kind": kind, "R": R, "R_out": R_out, "n_grid": n_grid},
        "criteria": criteria,
        "counts": counts,
        "ok": counts["dirichlet_at_most_N"] and all(e["consistent"] is not False for e in criteria.values()),
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
    alpha, beta = core._real_pair(alpha, beta)
    g = complex(gamma)
    m_A = core.m_infinity(alpha, beta, gamma)  # refuses alpha < 0 or beta < 0
    cases = []
    for name, family_id, extra in _MATCHED_SHAPES:
        family = FAMILIES[family_id]
        if _failed(family.shape + extra, alpha, beta, g):
            continue
        at = family.bound(alpha, beta, g)
        pinched = -(at * at) / 4.0
        case = {
            "case": name,
            "alpha_tilde": at,
            "pinched": pinched,
            "m_A": m_A,
            "identity_holds": bool(abs(m_A - pinched) <= 1e-12 * max(1.0, abs(m_A))),
        }
        if name == "diag_saturation":
            case.update(validity_condition="alpha * beta <= 4",
                        condition_met=bool(alpha * beta <= 4.0),
                        boundary_equality_admitted=True)
        cases.append(case)
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
    k_hat = math.sqrt(-m_A)
    d = max(6.0, 20.0 / k_hat)
    prob = interval.IntervalProblem(alpha=alpha, beta=beta, gamma=gamma, d=d)
    lam = interval.negative_spectrum(prob).eigenvalues
    gap = abs(min(lam) - m_A) if lam else float("nan")
    return {
        "status": "ok" if lam and gap <= 1e-6 else "mismatch",
        "d": d,
        "m_interval": min(lam) if lam else None,
        "gap": gap,
    }
