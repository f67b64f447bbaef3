"""Radial solvers against independent matching/Bessel oracles."""

import math
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.linalg import eig_banded
from scipy.optimize import brentq
from scipy.special import iv, kv

import surfint as si
from surfint import radial, report
from surfint.errors import ValidationError


def geom2(R=1.0, R_out=12.0, bc="neumann", mode=0):
    return radial.RadialGeometry(2, R, R_out, bc, mode)


def geom3(R=1.0, R_out=20.0, bc="neumann", mode=0):
    return radial.RadialGeometry(3, R, R_out, bc, mode)


def delta_sphere(alpha_tilde, R, count):
    """N and the lowest ``count`` eigenvalues of the delta sphere, from the census."""
    N, levels = radial.dtn_census(3, si.delta_field(alpha_tilde), R, count)
    return N, levels.expanded()[:count]


def fd_ladder(geom, field, grids=(128, 256, 512)):
    vals = [radial.radial_fd_spectrum(geom, field, n).eigenvalues[0] for n in grids]
    return radial.richardson(vals)


# ------------------------------------------------------------- sphere matching


def test_sphere_matching_frozen():
    cnt, lam = radial.sphere_swave_matching(2.0, 1.0)
    assert cnt == 1
    # root of 1 - e^{-2k} = k
    assert lam == pytest.approx(-0.6349095705463543, abs=1e-11)


def test_sphere_matching_threshold_rule():
    assert radial.sphere_swave_matching(0.99, 1.0) == (0, None)
    assert radial.sphere_swave_matching(1.0, 1.0) == (0, None)  # marginal: no state
    cnt, lam = radial.sphere_swave_matching(1.01, 1.0)
    assert cnt == 1 and -1e-3 < lam < 0.0
    # the product alpha_tilde * R decides, not the factors separately
    assert radial.sphere_swave_matching(0.4, 2.0) == (0, None)
    assert radial.sphere_swave_matching(0.6, 2.0)[0] == 1


def _swave_k_reference(at, R):
    """The s-wave root k of (alpha/2)(1 - e^{-2kR}) = k for the same float
    alpha and R, to 60 digits, from the root's own scale."""
    with mpmath.workdps(60):
        xi, R_mp = mpmath.mpf(at) * mpmath.mpf(R), mpmath.mpf(R)
        x0 = xi - 1 if xi < 1.5 else xi / 2  # the first-order root near threshold
        x = mpmath.findroot(lambda x: xi * -mpmath.expm1(-2 * x) / 2 - x,
                            (x0 / 2, x0 * 1.01), solver="anderson")
        return float(x / R_mp)


@pytest.mark.parametrize("excess", [1e-3, 1e-6, 1e-9, 1e-12])
def test_sphere_matching_near_threshold_against_mpmath(excess):
    # 1 - e^{-2kR} cancels near threshold; the ratio form of the root
    # x coth x - 1 + x = alpha R - 1 keeps k exact to rounding, and so does
    # the exact product when alpha R rounds (R = 0.7, 3.0)
    for R in (1.0, 2.0, 0.7, 3.0):
        at = (1.0 + excess) / R
        cnt, lam = radial.sphere_swave_matching(at, R)
        assert cnt == 1
        k_ref = _swave_k_reference(at, R)
        assert abs(math.sqrt(-lam) - k_ref) <= 4e-16 * k_ref


def test_sphere_matching_on_a_draw_against_mpmath():
    # alpha R enters as an exact two-product, so no alpha R / (alpha R - 1)
    # amplification of its rounding reaches k
    rng = np.random.default_rng(20)
    for at, R in zip(rng.uniform(0.5, 6.0, 300), rng.uniform(0.5, 2.0, 300)):
        at, R = float(at), float(R)
        xi = at * R
        cnt, lam = radial.sphere_swave_matching(at, R)
        assert cnt == (xi > 1.0)
        if cnt:
            k_ref = _swave_k_reference(at, R)
            assert abs(math.sqrt(-lam) - k_ref) <= 2.0 ** -51 * k_ref


def test_sphere_matching_is_mode_zero_of_the_spectrum():
    rng = np.random.default_rng(21)
    for at, R in zip(rng.uniform(0.0, 40.0, 50), rng.uniform(0.1, 3.0, 50)):
        cnt, lam = radial.sphere_swave_matching(at, R)
        N, lams = delta_sphere(at, R, 1)
        assert (cnt, lam) == ((1, lams[0]) if N else (0, None))


@pytest.mark.parametrize("xi", [40.0, 100.0, 1e4])
def test_sphere_matching_root_at_upper_bracket_end(xi):
    # S(alpha_tilde / 2) rounds to exactly 0 for alpha_tilde R above about
    # 37; the true root is within rounding of alpha_tilde / 2
    at = xi
    assert 0.5 * at * -math.expm1(-at) - 0.5 * at == 0.0
    assert radial.sphere_swave_matching(at, 1.0) == (1, -((at / 2) ** 2))


def test_swave_threshold_localization():
    for R in (1.0, 2.0):
        xi = radial.swave_threshold(R=R, lo=0.9, hi=1.1, tol=1e-10)
        assert abs(xi - 1.0) < 1e-9


def test_swave_threshold_needs_bracket():
    with pytest.raises(ValidationError):
        radial.swave_threshold(R=1.0, lo=1.05, hi=1.1)


def test_fd_matches_sphere_matching():
    _, lam = radial.sphere_swave_matching(2.0, 1.0)
    ext, err_bar = fd_ladder(geom3(R_out=20.0), si.delta_field(2.0))
    assert abs(ext - lam) < 1e-6
    assert err_bar < 1e-5


@pytest.mark.parametrize("xi", [1.5, 3.5, 4.4, 12.0])
def test_delta_sphere_spectrum_against_fd_ladders(xi):
    # mode l binds iff xi = alpha R > 2l + 1, once, with multiplicity 2l + 1
    N, lams = delta_sphere(xi, 1.0, 1000)
    bound = [l for l in range(12) if xi > 2 * l + 1]
    assert N == len(lams) == sum(2 * l + 1 for l in bound)
    assert lams == sorted(lams)
    assert lams[0] == radial.sphere_swave_matching(xi, 1.0)[1]
    field = si.delta_field(xi)
    start = 0
    for l in bound:
        values = lams[start:start + 2 * l + 1]
        start += 2 * l + 1
        assert len(set(values)) == 1
        # a Dirichlet box at R_out = 20 lifts the shallowest state by < 1e-7
        ext, err_bar = fd_ladder(geom3(bc="dirichlet", mode=l), field, (256, 512, 1024))
        assert abs(ext - values[0]) <= err_bar + 1e-7
    fd = radial.assemble_mode_sum(geom3(bc="dirichlet"), field, 256)
    assert fd.N == N
    # only the lowest ``count`` are returned, and the census is unchanged
    assert delta_sphere(xi, 1.0, 2) == (N, lams[:2])


def _k_half(l, x):
    """K_{l+1/2}(x) in the current mpmath precision, from its closed form
    sqrt(pi / 2x) e^{-x} sum_k (l + k)! / (k! (l - k)! (2x)^k), whose
    terms are all positive (mpmath's besselk takes seconds at l ~ 760)."""
    x = mpmath.mpf(x)
    term, total = mpmath.mpf(1), mpmath.mpf(1)
    for k in range(l):
        term *= mpmath.mpf((l + k + 1) * (l - k)) / ((k + 1) * 2 * x)
        total += term
    return mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.exp(-x) * total


def _mode_root_reference(xi, l, x0):
    """The root x of xi I_nu(x) K_nu(x) = 1, nu = l + 1/2, to 40 digits,
    polished from x0."""
    with mpmath.workdps(40):
        nu = mpmath.mpf(l) + mpmath.mpf(1) / 2
        return mpmath.findroot(lambda x: mpmath.mpf(xi) * mpmath.besseli(nu, x) * _k_half(l, x) - 1, x0)


def test_delta_sphere_spectrum_brackets_where_the_product_is_finite():
    # alpha R = 400 binds l = 0..199; each bracket (0, k_{l-1}] holds
    # mode l's root, and no ratio of the residual overflows near kR = 0;
    # the high modes are exact to rounding (kve's ratio put them 1e-14 off)
    N, lams = delta_sphere(400.0, 1.0, 40000)
    assert N == len(lams) == 40000
    assert lams == sorted(lams) and all(math.isfinite(x) and x < 0.0 for x in lams)
    for l in (100, 150, 199):
        x = _mode_root_reference(400.0, l, math.sqrt(-lams[l * l]))
        assert abs(lams[l * l] + float(x * x)) <= 1e-15 * float(x * x)


def test_delta_sphere_mode_759_against_mpmath():
    # mode 759 of alpha R = 2000 sits at kR = 650.5; its bisection passes
    # kR = 325.8, where kve(759.5, x) overflowed, and the recurrence for
    # K_{nu-1}/K_nu does not
    N, lams = delta_sphere(2000.0, 1.0, 760 ** 2 + 1)
    assert N == 1000 ** 2 and len(lams) == 760 ** 2 + 1
    x = _mode_root_reference(2000.0, 759, math.sqrt(-lams[759 ** 2]))
    assert abs(lams[759 ** 2] + float(x * x)) <= 1e-15 * float(x * x)


@pytest.mark.parametrize("l", [0, 1, 2, 3, 10, 60, 200, 759])
def test_bessel_ratio_sum_against_mpmath(l):
    # the sum of the two ratios on each branch (closed form, continued
    # fraction and recurrence, large-x series from x = 32 max(nu, 2)) to
    # about an ulp; the K recurrence keeps some rounding of each step
    # where it barely contracts (l < x < 32 nu)
    nu = l + 0.5
    xs = [1e-9, 0.01, 0.3, 0.99, 1.0, 7.0, 0.5 * nu, nu, 4 * nu, 31.9 * nu, 32 * nu, 650.5, 1e6]
    with mpmath.workdps(40):
        nu_mp = mpmath.mpf(l) + mpmath.mpf(1) / 2
        for x in xs:
            i_ratio = mpmath.besseli(nu_mp + 1, x) / mpmath.besseli(nu_mp, x)
            k_ratio = _k_half(max(l - 1, 0), x) / _k_half(l, x)  # K_{-1/2} = K_{1/2}
            ref = x * (i_ratio + k_ratio)
            assert abs(sum(radial._ratios(nu, x)) - ref) <= 6e-16 * ref, x


@pytest.mark.parametrize("l", [0, 1, 3, 60])
def test_bessel_ratio_sum_slope_against_mpmath(l, monkeypatch):
    # the Riccati slope of the census's delta-sphere residual, read from
    # the residual it hands core.bisect for mode l, is what Newton steps
    # on; it need not be exact: it cancels for x >> nu, to about 1e-12
    residuals, bisect = [], si.core.bisect
    monkeypatch.setattr(si.core, "bisect", lambda f, *a, **kw: residuals.append(f) or bisect(f, *a, **kw))
    radial.dtn_census(3, si.delta_field(2 * l + 2), 1.0, (l + 1) ** 2)  # R = 1: k is x
    slope = residuals[l]
    nu = l + 0.5
    with mpmath.workdps(40):
        nu_mp = mpmath.mpf(l) + mpmath.mpf(1) / 2

        def F(x):
            return x * (mpmath.besseli(nu_mp + 1, x) / mpmath.besseli(nu_mp, x)
                        + _k_half(max(l - 1, 0), x) / _k_half(l, x))

        for x in (1e-6, 0.3, 1.0, 7.0, nu, 31.9 * nu, 32 * nu, 100 * nu):
            ref = mpmath.diff(F, mpmath.mpf(x))
            assert abs(slope(x)[1] - ref) <= 1e-12 * abs(ref), x


@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("eps", [1e-6, 1e-10, 1e-12, 1e-14])
def test_delta_sphere_mode_near_threshold_against_mpmath(l, eps):
    # alpha R I K = 1 cancels at the threshold alpha R = 2l + 1; the ratio
    # form of the root keeps its relative accuracy, and the exact product
    # keeps it when alpha R rounds (R = 0.7, 3.0)
    for R in (1.0, 0.7, 3.0):
        at = (2 * l + 1) * (1.0 + eps) / R
        N, lams = delta_sphere(at, R, (l + 1) ** 2)
        with mpmath.workdps(60):
            xi_mp, nu = mpmath.mpf(at) * mpmath.mpf(R), mpmath.mpf(l) + mpmath.mpf(1) / 2
            # started at the small-x root x^2 (1/(2nu + 2) + 1/(2nu - 2)) = xi - (2l + 1)
            x0 = mpmath.sqrt((xi_mp - (2 * l + 1)) / (1 / (2 * nu + 2) + 1 / (2 * nu - 2)))
            x = mpmath.findroot(lambda x: xi_mp * mpmath.besseli(nu, x) * mpmath.besselk(nu, x) - 1,
                                (0.9 * x0, 1.1 * x0), solver="anderson")
            lam_ref = float(-(x / R) ** 2)
        assert N == len(lams) and lams[l * l] == lams[-1]  # the (l + 1)^2 states end with mode l
        assert abs(lams[-1] - lam_ref) <= 1e-15 * abs(lam_ref)


@pytest.mark.parametrize("l", [0, 1, 2])
def test_delta_sphere_threshold_is_decided_by_the_exact_product(l):
    # where alpha R rounds to 2l + 1 itself, mode l binds iff the exact
    # product exceeds 2l + 1
    seen = set()
    for R in (0.7, 0.9, 1.1, 1.3, 3.0, 1.0 - 2.0 ** -53):
        at = (2 * l + 1) / R
        for _ in range(4):
            at = math.nextafter(at, 0.0)
        for _ in range(9):
            if at * R == 2 * l + 1:
                binds = Fraction(at) * Fraction(R) > 2 * l + 1
                N, lams = delta_sphere(at, R, (l + 1) ** 2)
                assert N == (l + binds) ** 2
                assert len(lams) == N and (not binds or -1e-15 < lams[-1] < 0.0)
                seen.add(binds)
            at = math.nextafter(at, math.inf)
    assert seen == {False, True}


@pytest.mark.parametrize("xi", [4.4, 12.0, 60.5, 400.0])
def test_delta_sphere_each_root_below_the_previous(xi):
    # I K falls in l, so mode l's root is strictly below mode l - 1's:
    # the premise of the bracket (0, k_{l-1})
    N, lams = delta_sphere(xi, 1.0, 10 ** 6)
    per_mode = [lams[l * l] for l in range(math.isqrt(N))]
    assert all(a < b for a, b in zip(per_mode, per_mode[1:]))


@pytest.mark.parametrize("xi", [5e8, 1e9, 1e10, 1e14])
def test_delta_sphere_roots_within_rounding_of_the_last(xi):
    # 1/(I K) = 2x + (nu^2 - 1/4)/x + O(x^-3) puts mode l at
    # lambda = -xi^2/4 + l(l + 1), within rounding of mode l - 1 at this
    # xi, where the bracket (0, k_{l-1}) need not change sign in floats;
    # past kR = 2.5e9, where scipy's ive is NaN, the large-x series holds
    N, lams = delta_sphere(xi, 1.0, 100)
    assert N == (math.ceil(xi) // 2) ** 2
    for l in range(10):
        expected = -xi * xi / 4 + l * (l + 1)
        assert abs(lams[l * l] - expected) <= 4 * math.ulp(expected)
    assert lams == sorted(lams)


# ------------------------------------------------------- 2-D Bessel references


def test_fd_delta_circle_vs_bessel():
    # continuity + jump with I0/K0 gives alpha * I0(kR) K0(kR) = 1/R
    k = brentq(lambda k: 2.0 * iv(0, k) * kv(0, k) - 1.0, 0.1, 5.0, xtol=1e-14)
    ext, _ = fd_ladder(geom2(), si.delta_field(2.0))
    assert abs(ext - (-k * k)) < 1e-6


def test_fd_delta_prime_circle_vs_bessel():
    # free traces with I0/K0 branches give beta k^2 R I1(kR) K1(kR) = 1
    k = brentq(lambda k: 2.0 * k * k * iv(1, k) * kv(1, k) - 1.0, 0.1, 5.0, xtol=1e-14)
    ext, _ = fd_ladder(geom2(), si.delta_prime_field(2.0))
    assert abs(ext - (-k * k)) < 1e-6


def test_fd_higher_mode_vs_bessel():
    # mode-1 states of the delta circle: alpha I1(kR) K1(kR) = 1/R
    k = brentq(lambda k: 6.0 * iv(1, k) * kv(1, k) - 1.0, 0.1, 30.0, xtol=1e-13)
    ext, _ = fd_ladder(geom2(mode=1, R_out=8.0), si.delta_field(6.0), (256, 512, 1024))
    assert abs(ext - (-k * k)) < 2e-5


# -------------------------------------------------- 3-D full-coupling secular


def _sphere_secular_free(field, R=1.0):
    theta = si.theta_matrix(field).entries + np.diag([1.0 / R, -1.0 / R])

    def f(k):
        sh, ch = np.sinh(k * R), np.cosh(k * R)
        det = (k * ch - theta[0, 0] * sh) * (theta[1, 1] - k) + theta[0, 1] * theta[1, 0] * sh
        return det.real

    return f


def test_fd_full_coupling_sphere_vs_secular():
    field = si.uniform_field(1.0, 2.0, 1j)
    f = _sphere_secular_free(field)
    ks = np.linspace(0.02, 8, 2000)
    vals = np.array([f(k) for k in ks])
    idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    lam_ref = min(-brentq(f, ks[i], ks[i + 1], xtol=1e-14) ** 2 for i in idx)
    ext, _ = fd_ladder(geom3(R_out=12.0), field, (256, 512, 1024))
    assert abs(ext - lam_ref) < 1e-6


def test_fd_constrained_gamma_sphere_vs_secular():
    # beta = 0 with gamma != 0: |c_i|^2 k coth(kR) + |c_e|^2 k = alpha + (|c_i|^2 - |c_e|^2)/R
    field = si.uniform_field(3.0, 0.0, 1j)
    ci, ce = field.constraint_coefficients()
    qc = 3.0 + (abs(ci) ** 2 - abs(ce) ** 2)
    k0 = brentq(
        lambda k: abs(ci) ** 2 * k / np.tanh(k) + abs(ce) ** 2 * k - qc, 1e-6, 50, xtol=1e-14
    )
    ext, _ = fd_ladder(geom3(R_out=15.0), field)
    assert abs(ext - (-k0 * k0)) < 1e-6


# ----------------------------------------------------------- structure, counts


def test_zero_coupling_has_no_negative_spectrum():
    for dim, g in ((2, geom2(R_out=8.0)), (3, geom3(R_out=8.0))):
        for bc in ("neumann", "dirichlet"):
            gg = radial.RadialGeometry(dim, 1.0, 8.0, bc, 0)
            sp = radial.radial_fd_spectrum(gg, si.delta_field(0.0), 128)
            assert sp.eigenvalues == ()


def test_dirichlet_truncation_raises_eigenvalues():
    field = si.delta_field(2.0)
    for dim in (2, 3):
        gn = radial.RadialGeometry(dim, 1.0, 10.0, "neumann", 0)
        gd = radial.RadialGeometry(dim, 1.0, 10.0, "dirichlet", 0)
        ln = radial.radial_fd_spectrum(gn, field, 256).eigenvalues[0]
        ld = radial.radial_fd_spectrum(gd, field, 256).eigenvalues[0]
        assert ld >= ln


@pytest.mark.parametrize("alpha", [1e19, 1e20, 1e100])
def test_fd_keeps_the_bound_state_past_the_absolute_margin(alpha):
    # |lo| ~ alpha: an absolute 1.0 off the Gershgorin bound rounds away,
    # and the lowest eigenvalue rounded onto the excluded end of (lo, hi]
    geom = radial.RadialGeometry(3, 1.0, 8.0, "dirichlet", 0)
    assert len(radial.radial_fd_spectrum(geom, si.delta_field(alpha), 256).eigenvalues) == 1


def test_mode_sum_multiplicities_and_sweep():
    # delta circle alpha=6: modes 0,1,2 bind, mode 3 is empty
    geom = radial.RadialGeometry(2, 1.0, 12.0, "dirichlet", 0)
    rep = radial.assemble_mode_sum(geom, si.delta_field(6.0), 256)
    assert rep.N == 5  # 1 + 2 + 2
    per_mode = rep.convergence["per_mode"]
    assert [len(per_mode[m]) for m in ("0", "1", "2", "3")] == [1, 1, 1, 0]
    assert list(rep.eigenvalues) == sorted(rep.eigenvalues)
    # the two mode-1 copies are adjacent duplicates
    assert rep.eigenvalues[1] == rep.eigenvalues[2]


def test_richardson_on_synthetic_ladder():
    h = np.array([1.0, 0.5, 0.25])
    vals = 3.0 + 2.0 * h**2 + 0.7 * h**4
    ext, err_bar = radial.richardson(vals)
    assert ext == pytest.approx(3.0, abs=1e-12)
    assert err_bar < 2e-2


def test_grid_convergence_is_second_order():
    field = si.delta_prime_field(2.0)
    vals = [
        radial.radial_fd_spectrum(geom2(), field, n).eigenvalues[0] for n in (128, 256, 512)
    ]
    e1, e2 = vals[1] - vals[0], vals[2] - vals[1]
    assert 3.0 < e1 / e2 < 5.0  # ratio 4 for a clean h^2 ladder


def test_validation_errors():
    with pytest.raises(ValidationError):
        radial.RadialGeometry(4, 1.0, 2.0)
    with pytest.raises(ValidationError):
        radial.RadialGeometry(2, 2.0, 1.0)
    with pytest.raises(ValidationError):
        radial.RadialGeometry(2, 1.0, 2.0, "robin")
    with pytest.raises(ValidationError):
        radial.radial_fd_spectrum(geom2(), si.delta_field(1.0), 32)


def test_kind_follows_beta():
    # the kind is derived from beta, so a free coupling with beta == 0,
    # whose interface stencil would be singular, cannot be built
    assert si.RegionCoupling(1.0, 0.0, 0.0).kind == si.CONSTRAINED


# ------------------------------------------- selective solves vs full oracle


def banded_eigenvalues(geom, field, n_grid):
    """Every eigenvalue of K x = lambda W x, by a full complex banded solve."""
    diag, off, weights = radial._assemble_radial(geom, field, n_grid)
    s = 1.0 / np.sqrt(weights)
    band = np.zeros((2, len(diag)), dtype=complex)
    band[1] = diag * s * s
    band[0, 1:] = off * s[:-1] * s[1:]
    return eig_banded(band, lower=False, eigvals_only=True)


@pytest.mark.parametrize("field", [
    si.uniform_field(2.0, 1.0, 0.5 + 0.3j),
    si.uniform_field(4.4, 0.0, 0.0),
    si.uniform_field(2.5, 0.0, 0.3j),
], ids=["free-complex", "delta", "constrained-complex"])
def test_selective_solves_match_full_banded_solve(field):
    for dim in (2, 3):
        for bc in radial.OUTER_BCS:
            for mode in (0, 1, 2):
                geom = radial.RadialGeometry(dim, 1.0, 8.0, bc, mode)
                full = banded_eigenvalues(geom, field, 256)
                scale = np.maximum(1.0, np.abs(full))
                lowest = radial.radial_mode_eigenvalues(geom, field, 256, count=6)
                assert np.all(np.abs(lowest - full[:6]) <= 1e-9 * scale[:6])
                neg = radial.radial_fd_spectrum(geom, field, 256)
                want = full[full < -radial.NEG_TOL]
                assert len(neg.eigenvalues) == len(want)
                assert np.all(np.abs(np.array(neg.eigenvalues) - want) <= 1e-9 * scale[: len(want)])
                assert len(radial._mode_tridiagonal(geom, field, 256)[0]) == len(full)


def test_selective_negative_count_on_a_fine_grid():
    # n_grid 2048: the count is exact and the values hold 1e-9 relative
    geom = radial.RadialGeometry(2, 1.0, 8.0, "neumann", 1)
    field = si.uniform_field(6.0, 1.0, 0.5j)
    full = banded_eigenvalues(geom, field, 2048)
    want = full[full < -radial.NEG_TOL]
    got = np.array(radial.radial_fd_spectrum(geom, field, 2048).eigenvalues)
    assert len(got) == len(want) >= 1
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))
    assert radial.radial_fd_spectrum(replace(geom, mode=0), si.delta_field(0.0), 2048).eigenvalues == ()


def test_sturm_tolerance_resolves_a_shallow_state():
    # a shallow s-wave state (-0.036) next to ||T|| ~ 1e7: the default
    # stebz tolerance eps * ||T||_1 is off by 8e-10, the full solve and
    # full-accuracy bisection agree to 6e-11
    geom = radial.RadialGeometry(3, 1.0, 20.0, "neumann", 0)
    field = si.delta_field(1.2)
    want = banded_eigenvalues(geom, field, 2048)[0]
    got = radial.radial_fd_spectrum(geom, field, 2048).eigenvalues
    assert len(got) == 1
    assert abs(got[0] - want) <= 2e-10


# ------------------------------------------- array assembly vs loop oracle


def loop_assembly(geom, rc, n_grid):
    """The pencil of _assemble_radial built face by face and cell by cell."""
    dim2 = geom.dimension == 2
    R, R_out, mode = geom.R, geom.R_out, geom.mode
    n1 = n2 = int(n_grid)
    h1 = R / n1
    h2 = (R_out - R) / n2
    c_cent = mode * mode if dim2 else mode * (mode + 1)
    keep_origin = dim2 and mode == 0
    r_in = h1 * np.arange(0 if keep_origin else 1, n1 + 1)
    keep_outer_end = geom.outer_bc == "neumann"
    r_out = R + h2 * np.arange(0, (n2 if keep_outer_end else n2 - 1) + 1)
    n_in, n_out = len(r_in), len(r_out)
    n = n_in + n_out
    diag = np.zeros(n)
    off = np.zeros(n - 1, dtype=complex)
    weights = np.zeros(n)

    def wface(r):
        return r if dim2 else 1.0

    def cell_mass(lo, hi):
        return 0.5 * (hi * hi - lo * lo) if dim2 else hi - lo

    if not keep_origin:
        diag[0] += wface(0.5 * h1) / h1
    for i in range(n_in - 1):
        f = wface(r_in[i] + 0.5 * h1) / h1
        diag[i] += f
        diag[i + 1] += f
        off[i] += -f
    for i in range(n_out - 1):
        f = wface(r_out[i] + 0.5 * h2) / h2
        ii = n_in + i
        diag[ii] += f
        diag[ii + 1] += f
        off[ii] += -f
    if not keep_outer_end:
        diag[n - 1] += wface(R_out - 0.5 * h2) / h2
    for i, r in enumerate(r_in):
        weights[i] = cell_mass(max(0.0, r - 0.5 * h1), min(R, r + 0.5 * h1))
    for i, r in enumerate(r_out):
        weights[n_in + i] = cell_mass(max(R, r - 0.5 * h2), min(R_out, r + 0.5 * h2))
    if c_cent:
        with np.errstate(divide="ignore"):
            diag += c_cent * weights / np.concatenate([r_in, r_out]) ** 2
    if not dim2 and keep_outer_end:
        diag[n - 1] -= 1.0 / R_out
    block = radial._coupling_block(rc, geom)
    ia, ib = n_in - 1, n_in
    diag[ia] -= block[0, 0].real
    diag[ib] -= block[1, 1].real
    off[ia] += -block[0, 1]
    if rc.kind == si.CONSTRAINED:
        diag, off, weights = radial._fold_constraint(diag, off, weights, ia, rc)
    return diag, off, weights


@pytest.mark.parametrize("field", [
    si.uniform_field(2.0, 1.0, 0.5 + 0.3j),
    si.delta_field(4.4),
    si.uniform_field(2.5, 0.0, 2.0),
    si.uniform_field(2.5, 0.0, -2.0),
], ids=["free-complex", "delta", "constrained-gamma-2", "constrained-gamma-minus-2"])
@pytest.mark.parametrize("n_grid", [64, 333, 2048])
def test_array_assembly_equals_loop_oracle(field, n_grid):
    for dim in (2, 3):
        for bc in radial.OUTER_BCS:
            for mode in (0, 1, 2, 17):
                geom = radial.RadialGeometry(dim, 1.3, 7.0, bc, mode)
                got = radial._assemble_radial(geom, field, n_grid)
                want = loop_assembly(geom, field, n_grid)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype
                    assert np.array_equal(g, w)


# ------------------------------------------- Dirichlet-to-Neumann census


@pytest.mark.parametrize("nu", [0, 1, 2, 5, 13, 40, 0.5, 1.5, 5.5, 20.5])
def test_bessel_ratios_against_mpmath(nu):
    # (x I_{nu+1}/I_nu, x K_{nu-1}/K_nu) to a few ulp on every branch:
    # Temme's series and Steed's CF2 for K_1/K_0 (crossing at x = 1), the
    # closed form at nu = 1/2, the fraction, the recurrence and the large-x
    # series from x = 32 max(nu, 2)
    xs = [1e-300, 1e-100, 1e-20, 1e-5, 0.01, 0.5, 0.999, 1.0, 1.7, 2.0, 5.0, 31.9, 63.9, 64.0, 200.0, 1e3]
    with mpmath.workdps(40):
        for x in xs:
            got = radial._ratios(nu, x)
            want = [x * mpmath.besseli(nu + 1, x) / mpmath.besseli(nu, x),
                    x * mpmath.besselk(nu - 1, x) / mpmath.besselk(nu, x)]
            for g, w in zip(got, want):
                assert abs(g - w) <= 4 * math.ulp(float(w)), (x, g, float(w))
    assert radial._ratios(nu, 0.0) == (0.0, 0.0)


def _dtn_sign_changes(dimension, field, R):
    """Bound states counted as the sign changes of det R(D(k) - Theta), or
    of c^H R(D(k) - Theta) c, on a fine grid of x = kR per mode, with the
    Bessel ratios from scipy.special: the roots the census should count."""
    from scipy.special import ive, kve

    theta = si.theta_matrix(field).entries * R
    s = max(si.core.line_roots(field.alpha, field.beta, field.gamma))
    total, mode = 0, 0
    while mode <= R * s + 1:
        p, q = (mode, mode) if dimension == 2 else (mode, mode + 1)
        nu = mode + 0.5 * (dimension - 2)
        low = 1e-300 if dimension == 2 and mode == 0 else 1e-6  # 2-D mode 0 binds as exp(-1/(alpha R))
        top = 4.0 * max(R * s, 1.0) + 1.0  # past every root
        x = np.concatenate([np.geomspace(low, 1e-2, 150), np.linspace(1e-2, top, 1500)])
        d11 = p + x * ive(nu + 1, x) / ive(nu, x)
        d22 = q + x * kve(nu - 1, x) / kve(nu, x)
        if field.kind == si.CONSTRAINED:
            ci, ce = field.constraint_coefficients()
            f = abs(ci) ** 2 * d11 + abs(ce) ** 2 * d22 - field.alpha * R
        else:
            f = (d11 - theta[0, 0].real) * (d22 - theta[1, 1].real) - abs(theta[0, 1]) ** 2
        assert np.isfinite(f).all()
        total += radial.multiplicity(dimension, mode) * int(np.count_nonzero(np.diff(np.sign(f))))
        mode += 1
    return total


def test_census_counts_the_roots_of_the_secular_equation():
    # 240 seeded couplings over both dimensions, free and constrained and
    # every sign regime of alpha and beta
    rng = np.random.default_rng(2026)
    regimes = set()
    for i in range(240):
        a, b = (rng.choice((-1.0, 0.0, 1.0)) * rng.uniform(0.2, 4.0) for _ in range(2))
        g = complex(*rng.uniform(-2.5, 2.5, 2)) if rng.random() < 0.8 else 0j
        field, R, dim = si.uniform_field(a, b, g), rng.uniform(0.5, 2.0), 2 + i % 2
        N, levels = radial.dtn_census(dim, field, R, 1)
        assert N == _dtn_sign_changes(dim, field, R), (dim, a, b, g, R)
        regimes.add((np.sign(a), np.sign(b), dim, N > 0))
    assert len(regimes) >= 19


def _exact_inertia(dimension, field, R):
    """N as the negative inertia of diag(p, q) - R Theta, or of its fold
    c^H (diag(p, q) - R Theta) c = |c_i|^2 p + |c_e|^2 q - alpha R on a
    constrained coupling, summed over the modes in Fraction on the float
    inputs, with Theta from its definition (core.theta_entries)."""
    a, b, R = Fraction(field.alpha), Fraction(field.beta), Fraction(R)
    g = complex(field.gamma)
    gr, gi = Fraction(g.real) / 2, Fraction(g.imag) / 2  # g/2
    if b:
        t11 = ((1 + gr) ** 2 + gi ** 2) / b + a / 4
        t22 = ((1 - gr) ** 2 + gi ** 2) / b + a / 4
        # Theta_12 = (conj(g)/2 - 1)(1 + g/2)/b + a/4
        re, im = (gr - 1) * (1 + gr) + gi * gi, (gr - 1) * gi - gi * (1 + gr)
        t12_sq = (re / b + a / 4) ** 2 + (im / b) ** 2
    total, mode = 0, 0
    while True:
        p, q = (mode, mode) if dimension == 2 else (mode, mode + 1)
        if b:
            A, C = p - R * t11, q - R * t22
            det, trace = A * C - R * R * t12_sq, A + C
            negative = 2 if det > 0 and trace < 0 else int(det < 0 or (det == 0 and trace < 0))
        else:  # c_i = 1 - conj(g)/2, c_e = 1 + conj(g)/2
            negative = int(((1 - gr) ** 2 + gi ** 2) * p + ((1 + gr) ** 2 + gi ** 2) * q - a * R < 0)
        if not negative:
            return total
        total += radial.multiplicity(dimension, mode) * negative
        mode += 1


def test_census_at_mode_thresholds_is_the_exact_inertia():
    # couplings within a few ulp of alpha, on either side, of the alpha at
    # which the constant term of one mode vanishes, in both dimensions,
    # free and constrained: rounding must not decide the mode
    rng = np.random.default_rng(27)
    placed = 0
    for i in range(80):
        dim, free = 2 + i % 2, i % 4 >= 2
        g = complex(*rng.uniform(-2.5, 2.5, 2))
        R = float(rng.uniform(0.5, 2.0))
        b = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 3.0)) if free else 0.0
        mode = int(rng.integers(1 if dim == 2 else 0, 7))  # 2-D mode 0 binds at every alpha > 0
        p, q = (mode, mode) if dim == 2 else (mode, mode + 1)
        w_minus, w_plus = abs(1 - g / 2) ** 2, abs(1 + g / 2) ** 2
        if free:  # det(diag(p, q) - R Theta) is linear in alpha
            at = (R * (p * w_minus + q * w_plus) / b - p * q) / (R * R / b - R * (p + q) / 4)
        else:
            at = (p * w_minus + q * w_plus) / R
        if not 0.0 < abs(at) < 100.0:
            continue
        placed += 1
        for _ in range(4):
            at = math.nextafter(at, -math.inf)
        for _ in range(9):
            field = si.uniform_field(at, b, g)
            assert radial.dtn_census(dim, field, R, 1)[0] == _exact_inertia(dim, field, R), (dim, at, b, g, R)
            at = math.nextafter(at, math.inf)
    assert placed >= 60
    # a rounded constant term decides a whole mode of these the wrong way (100 and 661)
    for dim, coupling, R, N in ((3, (9.835308358817532, 0.0, 0.25j), 1.962, 81),
                                (3, (49.48761061946903, 0.3, 0.5 + 0.2j), 1.0, 712)):
        field = si.uniform_field(*coupling)
        assert radial.dtn_census(dim, field, R, 1)[0] == N == _exact_inertia(dim, field, R)
    # the delta sphere binds modes 0..bound - 1, 2.5e11 and 2.5e27 states
    for alpha_R in (1e6, 1e14):
        bound = math.ceil(alpha_R) // 2
        assert radial.dtn_census(3, si.delta_field(alpha_R), 1.0, 1)[0] == bound ** 2


@pytest.mark.parametrize("dim, field, R", [
    (2, si.uniform_field(2.0, 1.0, 0.0), 1.0),
    (3, si.uniform_field(2.0, 1.0, 0.0), 1.0),
    (2, si.uniform_field(1.3, 1.2, 0.3 + 0.4j), 1.0),
    (3, si.uniform_field(1.0, 1.1, 0.2 + 0.5j), 1.3),
    (2, si.uniform_field(3.0, 0.0, 0.5 - 0.5j), 1.0),
    (3, si.uniform_field(4.4, 0.0, 0.5 - 0.5j), 1.0),
    (2, si.uniform_field(-1.0, 0.5, 1j), 0.8),
    (3, si.uniform_field(2.0, -1.0, 0.3), 1.0),
])
def test_census_agrees_with_dirichlet_fd_ladders(dim, field, R):
    # Richardson on n_grid 256, 512, 1024 in a Dirichlet box at 20R, which
    # only raises eigenvalues: the census lies below each extrapolated
    # value by at most the ladder's error bar plus the box's truncation,
    # below 8 |lambda| exp(-2k (R_out - R)) (it is 4e-6 relative for the
    # shallowest state here, at k = 0.33)
    N, levels = radial.dtn_census(dim, field, R, 10**6)
    reps = [radial.assemble_mode_sum(radial.RadialGeometry(dim, R, 20.0 * R, "dirichlet"), field, n)
            for n in (256, 512, 1024)]
    assert [rep.N for rep in reps] == [N] * 3
    for i, lam in enumerate(levels.expanded()):
        value, err = radial.richardson([rep.eigenvalues[i] for rep in reps])
        truncation = 8.0 * abs(lam) * math.exp(-2.0 * math.sqrt(-lam) * 19.0 * R)
        assert -err <= value - lam <= err + truncation, (i, lam, value, err)


def test_census_of_coupling_two_one_zero():
    # the whole-space spectrum of (2, 1, 0) at R = 1, each level with its
    # multiplicity; CI prints the same numbers
    N, levels = radial.dtn_census(2, si.uniform_field(2.0, 1.0, 0.0), 1.0, 10)
    assert N == 4 and levels.multiplicities == (1, 2, 1)
    assert levels.eigenvalues == pytest.approx((-5.26381, -3.41767, -0.74215), abs=1e-5)
    N, levels = radial.dtn_census(3, si.uniform_field(2.0, 1.0, 0.0), 1.0, 10)
    assert N == 5 and levels.multiplicities == (1, 3, 1)
    assert levels.eigenvalues == pytest.approx((-6.70963, -3.53255, -0.10841), abs=1e-5)


@pytest.mark.parametrize("alpha_R", [1.5, 4.4, 12.0, 40.0, 400.0])
def test_census_of_the_delta_sphere_is_the_delta_spectrum(alpha_R):
    # mode l binds iff the exact product alpha R exceeds 2l + 1, at the
    # root x of alpha R I_nu(x) K_nu(x) = 1: within 2 ulp of mpmath's at
    # R = 1, where x = k, and 3 ulp where x = kR rounds (alpha R = 400,
    # R = 3 takes them at mode 4)
    for R, ulps in ((1.0, 2), (0.7, 3), (3.0, 3)):
        at = alpha_R / R
        N, levels = radial.dtn_census(3, si.delta_field(at), R, 40)
        bound = math.isqrt(N)
        assert N == bound ** 2
        assert bound == sum(1 for l in range(400) if Fraction(at) * Fraction(R) > 2 * l + 1)
        assert levels.multiplicities == tuple(2 * l + 1 for l in range(len(levels.eigenvalues)))
        for l, lam in enumerate(levels.eigenvalues):
            with mpmath.workdps(40):
                x = _mode_root_reference(mpmath.mpf(at) * mpmath.mpf(R), l, math.sqrt(-lam) * R)
                want = float(-(x / R) ** 2)
            assert abs(lam - want) <= ulps * math.ulp(want), (l, lam, want)


def test_census_solves_only_the_counted_roots(monkeypatch):
    # (2, 1, 0) on the circle: -5.26 (mode 0), -3.42 twice (mode 1), then
    # mode 0's second root -0.74; its sign at the other roots skips it
    calls = []
    bisect = si.core.bisect
    monkeypatch.setattr(si.core, "bisect", lambda *a, **kw: calls.append(1) or bisect(*a, **kw))
    field = si.uniform_field(2.0, 1.0, 0.0)
    for count, solved in ((1, 1), (2, 2), (3, 2), (4, 3), (9, 3)):
        calls.clear()
        N, levels = radial.dtn_census(2, field, 1.0, count)
        assert N == 4 and len(calls) == solved and levels.N >= min(count, N)


@pytest.mark.parametrize("alpha_R", [0.3, 0.1, 0.05])
def test_census_weak_coupling_in_two_dimensions(alpha_R):
    # every attractive delta circle binds in mode 0, at I_0 K_0 (kR) =
    # 1/(alpha R): Simon's law kR ~ 2 exp(-1/(alpha R) - gamma_E), up to
    # O((kR)^2 log kR)
    N, levels = radial.dtn_census(2, si.delta_field(alpha_R), 1.0, 1)
    assert N == 1
    k = math.sqrt(-levels.eigenvalues[0])
    with mpmath.workdps(40):
        inv = 1 / mpmath.mpf(alpha_R)
        root = mpmath.findroot(lambda x: mpmath.besseli(0, x) * mpmath.besselk(0, x) - inv,
                               2 * mpmath.exp(-inv - mpmath.euler))
    assert abs(k - root) <= 4e-15 * root
    simon = 2.0 * math.exp(-1.0 / alpha_R - float(mpmath.euler))
    assert abs(k / simon - 1.0) <= k * k * abs(math.log(k)) + 4e-15
    expected = {0.3: -1.6147e-3, 0.1: -2.599e-9}.get(alpha_R)
    if expected:
        assert levels.eigenvalues[0] == pytest.approx(expected, rel=5e-4)


@pytest.mark.parametrize("alpha_R", [0.0027, 1e-4])
def test_census_refuses_an_eigenvalue_that_underflows(alpha_R):
    # k^2 leaves the normal range near alpha R = 2.7e-3, and k itself
    # rounds to 0 near 1.4e-3: a typed error, never -0.0
    with pytest.raises(ValidationError, match="normal float range"):
        radial.dtn_census(2, si.delta_field(alpha_R), 1.0, 1)


def test_census_validation():
    # a delta' circle of strength 1e-6 binds on one branch in the modes m
    # < R s = 2 / beta, modes 0..2e6 as the float beta lies below 1e-6:
    # 2 L - 1 states for L = 2e6 + 1, counted in closed form
    N, levels = radial.dtn_census(2, si.uniform_field(0.0, 1e-6, 0.0), 1.0, 1)
    assert N == 2 * 2_000_001 - 1 and levels.N >= 1
    for dim, R in ((2, 0.0), (3, -1.0), (4, 1.0), (2, math.inf)):
        with pytest.raises(ValidationError):
            radial.dtn_census(dim, si.delta_field(2.0), R, 1)
    assert radial.dtn_census(3, si.uniform_field(-1.0, -1.0, 0.5j), 1.0, 3) == (0, report.Levels((), ()))
