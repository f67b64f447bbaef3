"""Interval solver: characteristic identities, census, frozen eigenvalues.

Frozen reference eigenvalues were generated by solving the raw
transcendental equation g(k) = h(k) j(k) with mpmath at 40 digits,
independently of the solver under test.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import surfint as si
from surfint import interval
from surfint.errors import ValidationError

finite = dict(allow_nan=False, allow_infinity=False)


def prob(a, b, g, d):
    return si.IntervalProblem(a, b, g, d)


# ---------------------------------------------------------------- identities


@given(
    a=st.floats(0, 4, **finite),
    b=st.floats(0, 4, **finite),
    gre=st.floats(-2, 2, **finite),
    gim=st.floats(-2, 2, **finite),
    d=st.floats(0.5, 6, **finite),
    k=st.floats(0.01, 4, **finite),
)
def test_scaled_characteristic_matches_raw(a, b, gre, gim, d, k):
    p = prob(a, b, complex(gre, gim), d)
    g, h, j = si.characteristic_ghj(k, p)
    F = si.characteristic_scaled(k, p)
    raw = (g - h * j) * math.exp(-4.0 * k * d)
    assert F == pytest.approx(raw, abs=1e-9 * (1 + abs(raw)))


def test_characteristic_at_zero_is_eight_alpha():
    for a in [0.0, 1.0, 3.5]:
        p = prob(a, 2.0, 1j, 3.0)
        assert si.characteristic_scaled(0.0, p) == pytest.approx(8 * a, abs=1e-13)


@given(k=st.floats(0.01, 20, **finite), d=st.floats(0.2, 10, **finite))
def test_free_case_characteristic_negative(k, d):
    # alpha = beta = gamma = 0: F(k) = 4k (e^{-4kd} - 1) < 0, no roots
    p = prob(0.0, 0.0, 0.0, d)
    F = si.characteristic_scaled(k, p)
    assert F < 0.0
    assert F == pytest.approx(4 * k * (math.exp(-4 * k * d) - 1.0), rel=1e-10)


def test_determinant_identity_random_sample():
    # det M(k) = -(1/2) e^{-2kd} k^2 (g - h j), relative 1e-10
    rng = np.random.default_rng(42)
    for _ in range(300):
        a = rng.uniform(0, 4)
        b = rng.uniform(0, 4)
        g = rng.uniform(0, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        d = rng.uniform(1, 8)
        k = rng.uniform(0.05, 4.0 / d)
        p = prob(a, b, g, d)
        det = si.determinant_oracle(k, p)
        gg, hh, jj = si.characteristic_ghj(k, p)
        rhs = -0.5 * math.exp(-2 * k * d) * k * k * (gg - hh * jj)
        assert abs(det - rhs) <= 1e-10 * max(abs(det), abs(rhs), 1e-30)


def secular_q(s, p):
    return p.beta * s * s - 0.5 * (4.0 + p.alpha * p.beta + abs(p.gamma) ** 2) * s + p.alpha


@given(
    a=st.floats(-4, 4, **finite),
    b=st.floats(-4, 4, **finite),
    gre=st.floats(-2, 2, **finite),
    gim=st.floats(-2, 2, **finite),
    d=st.floats(0.05, 6, **finite),
    k=st.floats(0.01, 4, **finite),
)
def test_characteristic_reduces_to_secular_quadratic(a, b, gre, gim, d, k):
    # F(k) = 2 (1 + e^{-2kd})^2 q(k tanh(kd)), i.e. F e^{2kd} = 8 cosh^2(kd) q
    p = prob(a, b, complex(gre, gim), d)
    F = si.characteristic_scaled(k, p)
    rhs = 2.0 * (1.0 + math.exp(-2.0 * k * d)) ** 2 * secular_q(k * math.tanh(k * d), p)
    g2 = gre * gre + gim * gim
    scale = (abs(a) + 2 * k) * (2 + abs(b) * k) + k * g2 + 4 * (abs(a) + abs(b) * k * k)
    assert abs(F - rhs) <= 1e-13 * scale


@given(
    a=st.floats(-4, 4, **finite),
    # |beta| >= 1e-3 keeps the deepest root (s ~ 1/beta) finite
    b=st.floats(-4, 4, **finite).filter(lambda x: x == 0.0 or abs(x) >= 1e-3),
    g=st.complex_numbers(max_magnitude=3, **finite),
)
@example(a=5e-324, b=0.0, g=0j)  # the root a / c rounds to 0: an error, not N = 0
def test_secular_roots_are_the_positive_roots_of_q(a, b, g):
    p = prob(a, b, g, 1.0)
    try:
        roots = interval.secular_roots(p)
    except ValidationError as exc:
        # the small root is a over a number in [2, 6.5]; only one below the
        # normal float range may raise
        assert "leaves the float range" in str(exc)
        assert 0.0 < abs(a) < 7.0 * np.finfo(float).tiny
        return
    assert list(roots) == sorted(roots, reverse=True)
    assert all(s > 0.0 for s in roots)
    c = 0.5 * (4.0 + a * b + abs(g) ** 2)
    for s in roots:
        # |q(s)| at rounding level of its terms
        assert abs(secular_q(s, p)) <= 1e-12 * (abs(b) * s * s + c * s + abs(a))
    # the count from the signs of the coefficients (Descartes, with a
    # discriminant that is never negative)
    if b == 0.0:
        want = int(a > 0.0)
    elif a == 0.0:
        want = int(b > 0.0)
    elif (a > 0.0) != (b > 0.0):
        want = 1
    elif a > 0.0:
        want = 1 if interval.is_degenerate(p) else 2
    else:
        want = 0
    assert len(roots) == want


def test_determinant_is_real():
    p = prob(1.0, 2.0, 1 + 1j, 3.0)
    det = np.linalg.det(si.matching_matrix(0.7, p))
    assert abs(det.imag) <= 1e-10 * abs(det)


# ---------------------------------------------------------------- spectra


def test_delta_frozen_eigenvalue():
    sp = si.negative_spectrum(prob(2.0, 0.0, 0.0, 10.0))
    assert len(sp.eigenvalues) == 1
    assert sp.eigenvalues[0] == pytest.approx(-1.000000008244614, abs=1e-12)
    assert sp.m_interval == sp.eigenvalues[0]


def test_delta_prime_frozen_eigenvalue():
    # beta = 2 at d = 10 lands on the same eigenvalue as alpha = 2 (dual pair)
    sp = si.negative_spectrum(prob(0.0, 2.0, 0.0, 10.0))
    assert len(sp.eigenvalues) == 1
    assert sp.eigenvalues[0] == pytest.approx(-1.000000008244614, abs=1e-12)


def test_degenerate_coupling_single_root():
    # gamma = 0, alpha*beta = 4: h and j share one zero, F touches the axis
    sp = si.negative_spectrum(prob(1.0, 4.0, 0.0, 8.0))
    assert sp.diagnostics["degenerate"]
    assert len(sp.eigenvalues) == 1
    assert sp.eigenvalues[0] == pytest.approx(-0.250333898623896, abs=1e-12)
    # the finite-d value sits 3.3e-4 below the flat limit -0.25 at d = 8 ...
    assert abs(sp.m_interval - (-0.25)) > 1e-4
    # ... and within 1e-6 of it by d = 16
    sp16 = si.negative_spectrum(prob(1.0, 4.0, 0.0, 16.0))
    assert sp16.eigenvalues[0] == pytest.approx(-0.2500001125347948, abs=1e-12)
    assert abs(sp16.m_interval - (-0.25)) < 1e-6


def test_degenerate_root_has_a_two_dimensional_kernel():
    # on the line alpha beta = 4 the one listed root carries multiplicity 2:
    # the matching matrix loses two ranks there, and nowhere else
    for a, b, d in ((2.0, 2.0, 3.0), (1.0, 4.0, 8.0), (4.0, 1.0, 2.0)):
        sp = si.negative_spectrum(prob(a, b, 0.0, d))
        assert len(sp.ks) == 1 and sp.multiplicities == (2,) and sp.N == 2
        assert sp.expanded() == [sp.eigenvalues[0]] * 2
        sv = np.linalg.svd(interval.matching_matrix(sp.ks[0], prob(a, b, 0.0, d)), compute_uv=False)
        assert sv[1] > 1.0 and sv[2] < 1e-14 * sv[0]
    sp = si.negative_spectrum(prob(2.0, 1.0, 0.0, 3.0))
    assert sp.multiplicities == (1, 1) and sp.expanded(sp.ks) == list(sp.ks)
    for k in sp.ks:
        sv = np.linalg.svd(interval.matching_matrix(k, prob(2.0, 1.0, 0.0, 3.0)), compute_uv=False)
        assert sv[2] > 1e-3


def test_two_root_coupling_frozen():
    sp = si.negative_spectrum(prob(2.0, 1.0, 0.0, 6.0))
    assert len(sp.eigenvalues) == 2
    assert sp.eigenvalues[0] == pytest.approx(-4.000000000604022, abs=1e-11)
    assert sp.eigenvalues[1] == pytest.approx(-1.000024573527988, abs=1e-11)
    assert sp.ks[0] > sp.ks[1] > 0


def test_imaginary_gamma_frozen():
    sp = si.negative_spectrum(prob(0.0, 1.0, 2j, 4.0))
    assert len(sp.eigenvalues) == 1
    assert sp.eigenvalues[0] == pytest.approx(-16.00000000000081, abs=1e-10)


def test_complex_gamma_frozen():
    sp = si.negative_spectrum(prob(1.0, 2.0, 1 + 1j, 5.0))
    assert len(sp.eigenvalues) == 2
    assert sp.eigenvalues[0] == pytest.approx(-2.914214011852997, abs=1e-11)
    assert sp.eigenvalues[1] == pytest.approx(-0.1012802016715941, abs=1e-11)


def test_census_small_grid():
    for a in [0.0, 0.5, 2.0, 8.0]:
        for b in [0.0, 0.5, 2.0, 8.0]:
            for g in [0.0, 1.0, 2j]:
                p = prob(a, b, g, 3.0)
                expected = si.expected_root_count(p)
                sp = si.negative_spectrum(p)
                assert len(sp.eigenvalues) == expected, (a, b, g)


def test_expected_root_count_table():
    assert si.expected_root_count(prob(0, 0, 0, 1)) == 0
    assert si.expected_root_count(prob(0, 0, 2j, 1)) == 0
    assert si.expected_root_count(prob(1, 0, 1j, 1)) == 1
    assert si.expected_root_count(prob(0, 3, 1j, 1)) == 1
    assert si.expected_root_count(prob(1, 1, 0, 1)) == 2
    assert si.expected_root_count(prob(1, 4, 0, 1)) == 1  # degenerate
    assert si.expected_root_count(prob(1, 4, 1j, 1)) == 2  # gamma lifts it
    # every sign regime has an exact count
    assert si.expected_root_count(prob(-1, 1, 0, 1)) == 1
    assert si.expected_root_count(prob(1, -1, 2j, 1)) == 1
    assert si.expected_root_count(prob(-1, -1, 1, 1)) == 0
    assert si.expected_root_count(prob(-1, 0, 1j, 1)) == 0
    assert si.expected_root_count(prob(0, -2, 0, 1)) == 0


def test_near_degenerate_coupling_has_two_roots():
    # roots split linearly in alpha*beta - 4; a 1e-10 offset is outside the
    # 1e-12 degenerate window, so both roots are reported
    p = prob(2.0, 2.0 + 1e-10, 0.0, 4.0)
    sp = si.negative_spectrum(p)
    assert not sp.diagnostics["degenerate"]
    assert len(sp.ks) == 2 == sp.diagnostics["census_expected"]
    assert 0.0 < sp.ks[0] - sp.ks[1] < 1e-9
    for k in sp.ks:
        assert abs(si.characteristic_scaled(k, p)) < 1e-12


def _det_sign(k, p):
    sign, _ = np.linalg.slogdet(si.matching_matrix(k, p))
    return np.sign(sign.real)


def test_roots_are_determinant_sign_changes():
    rng = np.random.default_rng(7)
    n_roots = 0
    for _ in range(25):
        a = rng.uniform(0.1, 4)
        b = rng.uniform(0.1, 4)
        if abs(a * b - 4.0) < 1e-3:
            b = b + 0.1
        g = rng.uniform(0, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        d = rng.uniform(1, 6)
        p = prob(a, b, g, d)
        for k in si.negative_spectrum(p).ks:
            w = min(1e-6 * max(1.0, k), 0.5 * k)
            assert _det_sign(k - w, p) * _det_sign(k + w, p) < 0, (a, b, g, d, k)
            n_roots += 1
    assert n_roots == 50


def test_count_matches_determinant_sign_changes_in_every_sign_regime():
    # N against the sign changes of the matching determinant on a fine k
    # grid up to the reported window, four draws for each sign of alpha
    # and of beta; |beta| >= 0.05 keeps the deepest root (k ~ c / beta)
    # resolved by the grid, and couplings within 0.05 of the double root
    # are redrawn
    rng = np.random.default_rng(11)
    for sa, sb in itertools.product((-1.0, 0.0, 1.0), repeat=2):
        drawn = 0
        while drawn < 4:
            a = sa * rng.uniform(0.1, 4)
            b = sb * rng.uniform(0.05, 4)
            g = rng.choice([0.0, 1.0]) * rng.uniform(0, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            if abs(a * b - 4.0) < 0.05 and abs(g) < 0.05:
                continue
            drawn += 1
            p = prob(a, b, g, rng.uniform(0.2, 6))
            sp = si.negative_spectrum(p)
            grid = np.linspace(0.0, sp.diagnostics["k_max"], 2001)[1:]
            sign, _ = np.linalg.slogdet(np.array([si.matching_matrix(k, p) for k in grid]))
            signs = np.sign(sign.real)
            changes = int(np.count_nonzero(signs[:-1] * signs[1:] < 0))
            assert len(sp.ks) == changes == sp.diagnostics["census_expected"], (a, b, g, p.d)


def test_root_where_tanh_rounds_to_one():
    # s d = 20 > 19: tanh(s d) == 1.0, so k tanh(kd) - s is exactly 0 at
    # the lower end of the bracket [s, s + 1/d], where the root is
    p = prob(2.0, 0.0, 0.0, 20.0)
    assert math.tanh(20.0) == 1.0
    sp = si.negative_spectrum(p)
    assert sp.ks == (1.0,)
    assert sp.eigenvalues == (-1.0,)
    assert sp.diagnostics["residuals"][0] < 1e-15


@pytest.mark.parametrize("alpha", [1e-6, 1e-12, 1e-20, 1e-30])
def test_shallow_state_keeps_relative_accuracy(alpha):
    # (alpha, 0, 0) on d = 1 binds at k tanh(k) = alpha / 2, so lambda is
    # about -alpha / 2: an absolute stopping rule on k would lose it
    lam = si.negative_spectrum(prob(alpha, 0.0, 0.0, 1.0)).eigenvalues[0]
    with mpmath.workdps(60):
        s = mpmath.mpf(alpha) / 2
        k = mpmath.findroot(lambda k: k * mpmath.tanh(k) - s, mpmath.sqrt(s))
        ref = -k * k
        assert abs((lam - ref) / ref) <= 1e-15


def test_k_max_is_a_window():
    p = prob(2.0, 1.0, 0.0, 6.0)  # k = 2.0000000002, 1.0000123
    full = si.negative_spectrum(p)
    assert full.diagnostics["k_max"] == pytest.approx(2.0 + 1.0 / 6.0)
    window = si.negative_spectrum(p, k_max=1.5)
    assert window.ks == full.ks[1:]
    assert window.diagnostics["k_max"] == 1.5
    assert window.diagnostics["census_expected"] == 2
    assert window.m_interval == full.eigenvalues[1]
    # the window applies to k, not to s: here s = 1 < k_max < k = 1.54
    narrow = prob(2.0, 0.0, 0.0, 0.5)
    assert 1.5 < si.negative_spectrum(narrow).ks[0] < 1.6
    assert si.negative_spectrum(narrow, k_max=1.2).ks == ()


@given(
    a=st.floats(0.1, 4, **finite),
    b=st.floats(0.1, 4, **finite),
    gmod=st.floats(0, 3, **finite),
    phase=st.floats(0, 2 * math.pi, **finite),
)
@settings(max_examples=40, deadline=None)
def test_spectrum_invariant_under_gamma_phase(a, b, gmod, phase):
    # everything depends on gamma through |gamma|^2 only
    if abs(a * b - 4.0) < 1e-3 and gmod < 1e-6:
        b += 0.5
    p0 = prob(a, b, gmod, 4.0)
    p1 = prob(a, b, gmod * complex(math.cos(phase), math.sin(phase)), 4.0)
    sp0 = si.negative_spectrum(p0)
    sp1 = si.negative_spectrum(p1)
    assert len(sp0.ks) == len(sp1.ks)
    for k0, k1 in zip(sp0.ks, sp1.ks):
        assert k0 == pytest.approx(k1, abs=1e-10)


@given(
    a=st.floats(0.2, 4, **finite),
    b=st.floats(0.2, 4, **finite),
    gim=st.floats(0, 2, **finite),
)
@settings(max_examples=30, deadline=None)
def test_m_interval_below_flat_limit_and_monotone_in_d(a, b, gim):
    if abs(a * b - 4.0) < 1e-3 and gim < 1e-6:
        b += 0.5
    m_inf = si.m_infinity(a, b, complex(0, gim))
    last = -math.inf
    for d in (1.0, 2.0, 4.0):
        m_d = si.m_interval(prob(a, b, complex(0, gim), d))
        assert m_d <= m_inf + 1e-9
        assert m_d >= last - 1e-9  # nondecreasing toward the flat limit
        last = m_d


def test_m_interval_perturbed_relaxes_to_zero():
    # the coupling (alpha/n, n beta) weakens the diagonal interaction
    values = [si.m_interval(prob(2.0 / n, 1.0 * n, 0.0, 6.0)) for n in (1, 4, 16, 64)]
    assert all(values[i] < values[i + 1] for i in range(3))
    assert abs(values[-1]) < 0.01


# ------------------------------------------------------------------ errors


def test_negative_alpha_needs_no_k_max():
    p = prob(-1.0, 0.0, 0.0, 3.0)
    for sp in (si.negative_spectrum(p), si.negative_spectrum(p, k_max=5.0)):
        assert sp.eigenvalues == ()
        assert sp.m_interval == 0.0
    # a repulsive delta with a delta' part binds one state
    sp = si.negative_spectrum(prob(-1.0, 1.0, 0.0, 3.0))
    assert len(sp.ks) == 1 == sp.diagnostics["census_expected"]
    assert sp.diagnostics["residuals"][0] < 1e-12


def test_invalid_problem_rejected():
    with pytest.raises(ValidationError):
        si.IntervalProblem(1 + 1j, 0.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        si.IntervalProblem(1.0, 0.0, 0.0, -1.0)
    with pytest.raises(ValidationError):
        si.negative_spectrum(prob(1, 0, 0, 1), k_max=0.0)
