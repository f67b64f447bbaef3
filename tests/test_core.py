"""Coupling validation, Theta matrix, band bottoms, form bounds, bisection."""

import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import surfint as si
from surfint import core, interval, radial
from surfint.errors import NonRealAlpha, ValidationError

finite = dict(allow_nan=False, allow_infinity=False)


def test_theta_frozen_example():
    # alpha=0, beta=1, gamma=2i collapses the diagonal to |1 +- i|^2 = 2
    th = si.theta_matrix(si.uniform_field(0.0, 1.0, 2j))
    expected = np.array([[2.0, -2j], [2j, 2.0]])
    assert np.allclose(th.entries, expected, atol=1e-14)
    assert np.allclose(th.eigenvalues(), [0.0, 4.0], atol=1e-12)


def test_theta_constrained_ignores_gamma():
    # on a constrained region gamma enters only through the trace constraint
    for g in [0.0, 1.0, 2j, -2.0, 1 + 1j]:
        th = si.theta_matrix(si.uniform_field(3.0, 0.0, g))
        assert th.kind == si.CONSTRAINED
        assert np.allclose(th.entries, 0.75 * np.ones((2, 2)), atol=1e-15)


@given(
    a=st.floats(-5, 5, **finite),
    b=st.floats(0.01, 10, **finite),
    gre=st.floats(-3, 3, **finite),
    gim=st.floats(-3, 3, **finite),
)
def test_theta_hermitian(a, b, gre, gim):
    th = si.theta_matrix(si.uniform_field(a, b, complex(gre, gim)))
    assert np.allclose(th.entries, th.entries.conj().T, atol=1e-13)


@given(a=st.floats(-5, 5, **finite), b=st.floats(0.01, 10, **finite), g=st.floats(-3, 3, **finite))
def test_theta_real_symmetric_for_real_gamma(a, b, g):
    th = si.theta_matrix(si.uniform_field(a, b, g))
    assert th.is_real_symmetric
    assert np.allclose(th.entries, th.entries.T, atol=1e-13)


def test_m_infinity_frozen_values():
    assert si.m_infinity(1, 4, 0) == pytest.approx(-0.25, abs=1e-15)
    assert si.m_infinity(0, 1, 2j) == pytest.approx(-16.0, abs=1e-12)
    assert si.m_infinity(2, 0, 0) == pytest.approx(-1.0, abs=1e-15)
    assert si.m_infinity(0, 2, 2j) == pytest.approx(-4.0, abs=1e-13)
    assert si.m_infinity(3, 0, 2j) == pytest.approx(-0.5625, abs=1e-15)
    assert si.m_infinity(0, 0, 5j) == 0.0


def test_m_infinity_gamma_zero_piecewise():
    # beta > 0, gamma = 0: m = -4/beta^2 while alpha*beta <= 4, then -alpha^2/4
    assert si.m_infinity(1, 2, 0) == pytest.approx(-1.0, abs=1e-14)
    assert si.m_infinity(2, 1, 0) == pytest.approx(-4.0, abs=1e-14)
    assert si.m_infinity(3, 4, 0) == pytest.approx(-2.25, abs=1e-14)  # alpha*beta = 12
    assert si.m_infinity(8, 1, 0) == pytest.approx(-16.0, abs=1e-13)  # -alpha^2/4
    # both branches coincide at the crossover alpha*beta = 4
    assert si.m_infinity(2, 2, 0) == pytest.approx(-1.0, abs=1e-14)


@given(
    a=st.floats(0, 10, **finite),
    b=st.floats(0, 10, **finite),
    gre=st.floats(-4, 4, **finite),
    gim=st.floats(-4, 4, **finite),
)
def test_m_infinity_defined_and_nonpositive(a, b, gre, gim):
    # the roots of the secular quadratic are real on the whole admissible
    # domain (its discriminant is a sum of squares), so m is refused only
    # where it overflows, that is where k ~ 1/beta does
    try:
        m = si.m_infinity(a, b, complex(gre, gim))
    except ValidationError as exc:
        assert "overflows" in str(exc) and 0.0 < b < 1e-150
        return
    assert math.isfinite(m) and m <= 0.0


@given(
    a=st.floats(0, 10, **finite),
    b=st.floats(0, 10, **finite),
    gre=st.floats(-4, 4, **finite),
    gim=st.floats(-4, 4, **finite),
)
@example(a=1.248347362273612, b=0.015625, gre=0.0, gim=0.0)
def test_m_infinity_monotone_in_alpha(a, b, gre, gim):
    g = complex(gre, gim)
    try:
        m1, m2 = si.m_infinity(a, b, g), si.m_infinity(a + 0.5, b, g)
    except ValidationError as exc:  # as in the test above
        assert "overflows" in str(exc) and 0.0 < b < 1e-150
        return
    # plus a few ulps: where m = -4/beta^2 does not depend on alpha, m1 and
    # m2 may still round apart, and at |m| ~ 1e4 one ulp exceeds 1e-12
    assert m2 <= m1 + 1e-12 + 4 * math.ulp(m1)


@pytest.mark.parametrize("excess", [1e-9, -1e-9, 1e-10, -1e-10])
def test_m_infinity_near_the_double_root_against_mpmath(excess):
    # at gamma = 0 and alpha beta = 4 the discriminant (4 + ab)^2 - 16ab
    # cancels; the roots of the secular quadratic must not
    beta = 2.0 * (1.0 + excess)
    with mpmath.workdps(50):
        a, b = mpmath.mpf(2), mpmath.mpf(beta)
        c = (4 + a * b) / 2
        s = (c + mpmath.sqrt(c * c - 4 * a * b)) / (2 * b)
        m_ref = float(-s * s)
    m = si.m_infinity(2.0, beta, 0.0)
    assert abs(m - m_ref) <= 4 * math.ulp(m_ref)


def test_m_infinity_rejects_bad_domain():
    with pytest.raises(ValidationError):
        si.m_infinity(-1.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        si.m_infinity(1.0, -1.0, 0.0)
    with pytest.raises(NonRealAlpha):
        si.m_infinity(1 + 1j, 1.0, 0.0)


def test_validate_coupling_partition_inference():
    assert si.uniform_field(1.0, 2.0, 1j).kind == si.FREE
    assert si.uniform_field(1.0, 0.0, 1j).kind == si.CONSTRAINED


def test_validate_coupling_lists_every_problem():
    with pytest.raises(NonRealAlpha) as exc:
        si.uniform_field(1 + 2j, 1j, 0.0)
    assert exc.value.problems == ["alpha must be real, got (1+2j)", "beta must be real, got 1j"]
    with pytest.raises(ValidationError) as exc:
        si.uniform_field(1.0, 2 + 1j, 0.0)
    assert type(exc.value) is ValidationError
    assert exc.value.problems == ["beta must be real, got (2+1j)"]


def test_constraint_coefficients_cover_gamma_two():
    # gamma = 2 forces the inner trace to vanish; gamma = -2 the outer one
    ci, ce = si.uniform_field(0.0, 0.0, 2.0).constraint_coefficients()
    assert ci == 0.0 and ce == 2.0
    ci, ce = si.uniform_field(0.0, 0.0, -2.0).constraint_coefficients()
    assert ci == 2.0 and ce == 0.0


def test_form_lower_bound_frozen():
    assert si.form_lower_bound(si.delta_field(2.0)).eta == pytest.approx(-1.0, abs=1e-12)
    assert si.form_lower_bound(si.delta_prime_field(1.0)).eta == pytest.approx(-2.0, abs=1e-12)
    # repulsive delta: Theta <= 0, eta clamps to a tiny negative value
    eta = si.form_lower_bound(si.delta_field(-2.0)).eta
    assert -1e-10 < eta < 0.0


def test_form_lower_bound_random_vectors():
    # -<Theta v, v> >= eta |v|^2 across couplings and 1000 random vectors
    rng = np.random.default_rng(20260817)
    fields = [
        si.delta_field(2.0),
        si.delta_prime_field(0.5),
        si.uniform_field(1.0, 2.0, 1 + 1j),
        si.uniform_field(3.0, 0.0, 2j),
        si.uniform_field(-1.0, 1.0, -0.5),
    ]
    for field in fields:
        eta = si.form_lower_bound(field).eta
        th = si.theta_matrix(field).entries
        v = rng.normal(size=(1000, 2)) + 1j * rng.normal(size=(1000, 2))
        surf = -np.einsum("ni,ij,nj->n", v.conj(), th, v).real
        assert np.all(surf >= eta * np.einsum("ni,ni->n", v.conj(), v).real - 1e-9)


def test_theta_scaling_with_beta():
    # the free-region matrix scales like 1/beta in its gamma block
    th1 = si.theta_matrix(si.uniform_field(0.0, 1.0, 1j)).entries
    th2 = si.theta_matrix(si.uniform_field(0.0, 2.0, 1j)).entries
    assert np.allclose(th1, 2.0 * th2, atol=1e-13)


def test_field_helpers():
    assert si.delta_field(1.5) == si.RegionCoupling(1.5, 0.0, 0j)
    assert si.delta_prime_field(2.0) == si.RegionCoupling(0.0, 2.0, 0j)
    assert si.uniform_field(1, 2, 1j).gamma == 1j


# ---------------------------------------------------------------- bisection


def test_bisect_halves_to_tol():
    root = core.bisect(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12)
    assert abs(root - math.sqrt(2.0)) <= 0.5e-12


def test_bisect_tol_zero_stops_at_adjacent_floats():
    root = core.bisect(lambda x: x * x - 2.0, 1.0, 2.0, 0.0)
    assert abs(root - math.sqrt(2.0)) <= 2.3e-16


def test_bisect_accepts_a_zero_at_either_end():
    assert core.bisect(lambda x: x - 1.0, 1.0, 3.0, 1e-12) == 1.0
    assert core.bisect(lambda x: x - 3.0, 1.0, 3.0, 1e-12) == 3.0
    assert core.bisect(lambda x: x - 2.0, 1.0, 3.0, 1e-12) == 2.0  # first midpoint


def test_bisect_rejects_a_broken_bracket():
    with pytest.raises(ValidationError):
        core.bisect(lambda x: x - 5.0, 1.0, 3.0, 1e-12)
    with pytest.raises(ValidationError):
        core.bisect(lambda x: 1.0 - x, 0.0, 2.0, 1e-12)  # decreasing
    with pytest.raises(ValidationError):
        core.bisect(lambda x: x - 2.0, 3.0, 1.0, 1e-12)  # lo > hi
    with pytest.raises(ValidationError):
        core.bisect(lambda x: math.nan, 1.0, 3.0, 1e-12)


SLOPES = {  # slopes bisect must survive: each call draws one from its own rng
    "zero": lambda rng, x, true: 0.0,
    "negative": lambda rng, x, true: -rng.uniform(0.1, 10.0),
    "nan": lambda rng, x, true: math.nan,
    "inf": lambda rng, x, true: math.inf,
    "random": lambda rng, x, true: rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, 8.0),
    "true": lambda rng, x, true: true(x),
}
RISING = [  # (f, f', lo, hi): each f nondecreasing in floats, with no zero at a dyadic point
    (lambda x: x * x - 2.0, lambda x: 2.0 * x, 0.0, 2.0),
    (lambda x: x * x * x - 3.0, lambda x: 3.0 * x * x, -1.0, 4.0),
    (lambda x: x - 1e-300 / 3.0, lambda x: 1.0, 0.0, 1.0),
    (lambda x: x * x * x - 1e20 / 3.0, lambda x: 3.0 * x * x, -1e10, 1e10),
    (lambda x: (x - 0.1) * (x - 0.1) * (x - 0.1), lambda x: 3.0 * (x - 0.1) ** 2, -5.0, 7.0),
]


def _sign_change(f, x):
    """f(x) == 0, or f changes sign between x and an adjacent float."""
    fx = f(x)
    up, down = math.nextafter(x, math.inf), math.nextafter(x, -math.inf)
    return fx == 0.0 or fx < 0.0 < f(up) or f(down) < 0.0 < fx


@pytest.mark.parametrize("kind", sorted(SLOPES))
@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_bisect_with_any_slope_takes_at_most_twice_plain_halving(kind, tol):
    rng = random.Random(kind)
    for f, df, lo, hi in RISING:
        plain, newton = [], []
        core.bisect(lambda x: plain.append(x) or f(x), lo, hi, tol)
        root = core.bisect(lambda x: newton.append(x) or (f(x), SLOPES[kind](rng, x, df)),
                           lo, hi, tol, slope=True)
        assert len(newton) <= 2 * len(plain) + 2, (kind, lo, hi, len(newton), len(plain))
        assert (f(root - tol) <= 0.0 <= f(root + tol)) if tol else _sign_change(f, root)


@pytest.mark.parametrize("kind", sorted(SLOPES))
def test_bisect_with_any_slope_keeps_the_contract(kind):
    rng = random.Random(kind)

    def with_slope(f):
        return lambda x: (f(x), SLOPES[kind](rng, x, lambda x: 1.0))

    assert core.bisect(with_slope(lambda x: x - 1.0), 1.0, 3.0, 0.0, slope=True) == 1.0
    assert core.bisect(with_slope(lambda x: x - 3.0), 1.0, 3.0, 0.0, slope=True) == 3.0
    for f, lo, hi in ((lambda x: x - 5.0, 1.0, 3.0), (lambda x: 1.0 - x, 0.0, 2.0),
                      (lambda x: x - 2.0, 3.0, 1.0), (lambda x: math.nan, 1.0, 3.0)):
        with pytest.raises(ValidationError):
            core.bisect(with_slope(f), lo, hi, 0.0, slope=True)


@pytest.fixture
def checked_roots(monkeypatch):
    """core.bisect that counts roots and residual evaluations, and records
    every root that is not a sign change of its residual between adjacent
    floats (checked at once: the callers' residuals close over loop variables)."""
    bisect, seen = core.bisect, {"roots": 0, "evals": 0, "bad": []}

    def checked(f, lo, hi, tol, slope=False, fhi=None):
        def counted(x):
            seen["evals"] += 1
            return f(x)

        root = bisect(counted, lo, hi, tol, slope=slope, fhi=fhi)
        seen["roots"] += 1
        if not _sign_change((lambda x: f(x)[0]) if slope else f, root):
            seen["bad"].append((lo, hi, root))
        return root

    monkeypatch.setattr(core, "bisect", checked)
    return seen


def test_every_exact_root_is_a_sign_change_of_its_residual(checked_roots):
    rng = random.Random(25)
    for i in range(40):
        gamma = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        beta = 0.0 if i % 2 else rng.uniform(0.3, 2.0)  # constrained and free in turn
        field = core.uniform_field(rng.uniform(0.5, 6.0), beta, gamma)
        radial.dtn_census(2 + i % 4 // 2, field, rng.uniform(0.5, 2.0), 12)
        a, b = rng.uniform(-2.0, 4.0), rng.uniform(-2.0, 4.0)
        interval.negative_spectrum(interval.IntervalProblem(a, b, gamma, rng.uniform(0.5, 8.0)))
        radial.dtn_census(3, core.delta_field(rng.uniform(1.0, 60.0)), rng.uniform(0.5, 2.0), 50)
    assert checked_roots["bad"] == []
    assert checked_roots["roots"] > 400 and checked_roots["evals"] < 8 * checked_roots["roots"]


def test_root_evaluation_counts(checked_roots):
    # residual evaluations for the whole census, the interval's root and
    # every delta-sphere mode; plain halving takes 161, 166, 52 and 1,017
    def count(solve):
        checked_roots.update(roots=0, evals=0)
        solve()
        return checked_roots["roots"], checked_roots["evals"]

    assert count(lambda: radial.dtn_census(2, core.uniform_field(2.0, 1.0, 0.0), 1.0, 10)) == (3, 16)
    assert count(lambda: radial.dtn_census(3, core.uniform_field(2.0, 1.0, 0.0), 1.0, 10)) == (3, 17)
    assert count(lambda: interval.negative_spectrum(interval.IntervalProblem(2.0, 2.0, 0.0, 3.0))) == (1, 6)
    assert count(lambda: radial.dtn_census(3, core.delta_field(40.0), 1.0, 400)) == (20, 94)
    assert checked_roots["bad"] == []
