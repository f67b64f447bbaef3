"""Radially reduced spectra: sphere matching and finite differences.

Geometry: a disk (dimension 2) or ball (dimension 3) of radius R inside a
concentric outer boundary at R_out, with the interaction supported on the
circle/sphere r = R.  Separation of variables reduces the operator to one
radial problem per angular mode:

    dimension 2, mode m:   -psi'' - psi'/r + m^2/r^2 psi   (weight r)
    dimension 3, mode l:   -u'' + l(l+1)/r^2 u  with u = r psi (weight 1)

The discretization is a conservative control-volume scheme: stiffness is
sum_faces (w_face/h) |psi_{j+1} - psi_j|^2, assembled over arrays of all
faces, so the pencil (K, W) is Hermitian tridiagonal with diagonal
positive weight W.  W^{-1/2} K W^{-1/2} is unitarily similar to the real
symmetric tridiagonal with off-diagonal |K_{j,j+1}| / sqrt(W_j W_{j+1});
only the eigenvalues asked for are computed, by bisection on its Sturm
counts (LAPACK stebz): those below -NEG_TOL for a spectrum, the lowest
``count`` for a comparison.  The Sturm count certifies how many there
are.  The traces at r = R are two unknowns (inner a, outer b), and the
form loses w(R) <Theta_eff v, v>, where Theta_eff is the coupling matrix
(plus diag(1/R, -1/R) in the u variable, which absorbs the substitution's
boundary terms).  On a constrained coupling the traces are folded onto
the single unknown t via (a, b) = (c_i, c_e) t; the jump row reproduces

    (1 - gamma/2) psi'(R-) - (1 + gamma/2) psi'(R+) = (alpha/2)(a + b)

exactly, and its 3-D u-variant with the extra 1/R terms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

from . import core
from .errors import ConvergenceFailure, ValidationError
from .report import Levels, SpectrumReport

OUTER_BCS = ("neumann", "dirichlet")
NEG_TOL = 1e-10
# bisection to full accuracy; stebz's default tolerance eps * ||T||_1
# drifts by 1e-8 to 1e-7 on fine grids
STURM_TOL = 2.0 * sys.float_info.min
SWAVE_TOL = 0.0  # the s-wave root is solved until its bracket ends are adjacent floats


@dataclass(frozen=True)
class RadialGeometry:
    """Concentric geometry with the interface sphere/circle at radius R."""

    dimension: int
    R: float
    R_out: float
    outer_bc: str = "neumann"
    mode: int = 0

    def __post_init__(self):
        problems = []
        if self.dimension not in (2, 3):
            problems.append(f"dimension must be 2 or 3, got {self.dimension}")
        if not (0.0 < self.R < self.R_out):
            problems.append(f"need 0 < R < R_out, got R={self.R}, R_out={self.R_out}")
        if self.outer_bc not in OUTER_BCS:
            problems.append(f"outer_bc must be one of {OUTER_BCS}, got {self.outer_bc!r}")
        if self.mode < 0:
            problems.append(f"mode must be >= 0, got {self.mode}")
        if problems:
            raise ValidationError(problems)


def sphere_swave_matching(alpha_tilde, R):
    """Bound state of the delta sphere in 3-D, s-wave sector: mode 0 of
    dtn_census(3, delta_field(alpha_tilde), R, 1), which binds iff the
    exact product alpha_tilde R exceeds 1.  Returns (count, eigenvalue-or-
    None); raises as dtn_census does."""
    N, levels = dtn_census(3, core.delta_field(alpha_tilde), R, 1)
    return (1, levels.eigenvalues[0]) if N else (0, None)


def dtn_census(dimension, field, R, count):
    """Exact bound states of a uniform coupling on the circle (dimension 2)
    or sphere (3) r = R in the whole space: (N, Levels of the lowest
    ``count`` eigenvalues, the last level perhaps past count).

    Angular mode m binds -k^2 iff D(k) - Theta is singular (free coupling),
    or iff c^H (D(k) - Theta) c = 0, c = constraint_coefficients() and
    c^H Theta c = alpha (constrained coupling).  D is the Dirichlet-to-
    Neumann map of the two sides,

        R D(k) = diag(p + x I_{nu+1}/I_nu, q + x K_{nu-1}/K_nu)(x),   x = kR,

    with nu = m and (p, q) = (m, m) in 2-D, nu = m + 1/2 and (p, q) = (m,
    m + 1) in 3-D (_ratios).  D rises with k, so each eigenvalue branch of
    D(k) - Theta rises strictly with k: the mode binds as many states as
    R D(0+) - R Theta = diag(p, q) - R Theta has negative eigenvalues, and
    the root of each branch falls from mode to mode.  On the delta sphere
    (c = (1, 1)) mode l binds iff alpha R > 2l + 1, at the root of alpha R
    I_nu K_nu = 1.  The 2x2 determinant uses det Theta = alpha/beta, so a
    zero that is structural (2-D mode 0 at alpha = 0) stays exact.

    Count.  From mode to mode the eigenvalues of diag(p, q) - R Theta rise
    by exactly 1, so branch j binds in a run of modes 0..L_j - 1, and N is
    the sum of L_j^2 in 3-D, of 2 L_j - 1 over L_j >= 1 in 2-D.  L_j is
    found by halving the modes below floor(R s) + 2, s the largest root
    of core.line_roots (Theta's largest eigenvalue, or alpha/c for a
    constrained coupling), past which no mode binds.  A mode is decided by
    the sign of its constant term, c^H (diag(p, q) - R Theta) c or the
    determinant: in floats, or in Fraction on the float inputs where the
    float lies within a rounding bound of 0.  At an exact threshold the
    branch starts at 0, so the mode binds nothing there.

    Termination.  The lowest levels are taken one per pass, at most N
    passes, walking the runs lazily: the head of branch 0 (the deeper
    root of a mode) is solved, and the head of branch 1 only when its
    sign at that k says it lies deeper.  Each root is solved on (0, hi] to
    adjacent floats by core.bisect's Newton steps, about 7 residuals a
    root where plain halving takes 53 + log2(hi/k), and never more than
    twice that plus 2: hi is the root before it on its branch, the
    branch-0 root of its mode for branch 1, or 4 max(s, 1/R) for mode 0,
    past which both ratios exceed 3x/4 and D - Theta is positive definite.
    The slopes come from the Riccati equations d(x r)/dx = (x^2 - (x r)^2
    - 2 nu x r)/x and d(x q)/dx = ((x q)^2 + 2 nu x q - x^2)/x of the two
    ratios: w_i (x r)' + w_e (x q)' on the constrained fold, and the
    derivative mean' -+ (A - C)(A' - C') / (4 half) of the 2x2 eigenvalues
    mean -+ half on a free coupling.

    Raises ValidationError for R outside (0, inf), for an infinite or NaN
    x_top = 4 max(R s, 1) (or x_top^2 on a free coupling, whose
    determinant holds (R s)^2), and for an eigenvalue -k^2 to be reported
    that overflows or leaves the normal float range (it is never reported
    as -0.0 or -inf).
    """
    R = float(R)
    if not (dimension in (2, 3) and 0.0 < R < math.inf):
        raise ValidationError(f"need dimension 2 or 3 and 0 < R < inf, got ({dimension}, {R})")
    free = field.kind != core.CONSTRAINED
    s = max(core.line_roots(field.alpha, field.beta, field.gamma))
    k_top = 4.0 * max(s, 1.0 / R)
    x_top = R * k_top
    if not x_top * (x_top if free else 1.0) < math.inf:  # an infinite or NaN root included
        raise ValidationError(f"the coupling's scale R s = {R * s:.6g} is out of range")
    g = complex(field.gamma)
    w_minus, w_plus = abs(1.0 - g / 2.0) ** 2, abs(1.0 + g / 2.0) ** 2  # |c_i|^2, |c_e|^2
    if free:
        t11, t12, t22 = core.theta_entries(field)
        det_theta, b = field.alpha / field.beta, R * abs(t12)
        theta_scale = (w_plus + w_minus) / abs(field.beta) + 0.5 * abs(field.alpha)  # bounds |t11| + |t22|
    else:
        aR, aR_err = field.alpha * R, _product_error(field.alpha, R)  # alpha R = aR + aR_err exactly

    exact = {}  # a structural zero (2-D mode 0 at alpha = 0) takes the exact path at every x

    def constant(p, q):  # c^H R (D(0+) - Theta) c, or det R (D(0+) - Theta), exact to rounding near 0
        if free:
            value = p * q - R * (p * t22 + q * t11) + R * R * det_theta
            scale = (p + R * theta_scale) * (q + R * theta_scale)
        else:
            value, scale = (w_minus * p + w_plus * q - aR) - aR_err, w_minus * p + w_plus * q + abs(aR)
        if abs(value) > 2.0 ** -48 * scale:
            return value
        if (p, q) not in exact:
            exact[p, q] = float(_exact_constant(field, R, p, q))
        return exact[p, q]

    def branches(mode, x):  # (value, x-slope) of each eigenvalue of R (D - Theta), or of c^H R (D - Theta) c
        nu = mode + 0.5 * (dimension - 2)
        p, q = (mode, mode) if dimension == 2 else (mode, mode + 1)
        xr, xq = _ratios(nu, x)
        dr, dq = (math.nan, math.nan) if not x else (
            (x * x - xr * xr - 2.0 * nu * xr) / x, (xq * xq + 2.0 * nu * xq - x * x) / x)
        if not free:
            return ((constant(p, q) + (w_minus * xr + w_plus * xq), w_minus * dr + w_plus * dq),)
        P, Q = p - R * t11, q - R * t22
        A, C = P + xr, Q + xq
        det = constant(p, q) + xr * C + xq * P
        mean, half = 0.5 * (A + C), math.hypot(0.5 * (A - C), b)
        dmean, dhalf = 0.5 * (dr + dq), 0.25 * (A - C) * (dr - dq) / half if half else math.nan
        return ((mean - half if mean <= 0.0 else det / (mean + half), dmean - dhalf),
                (mean + half if mean >= 0.0 else det / (mean - half), dmean + dhalf))

    def run_length(j, hi):  # L_j: the first mode below hi in which branch j binds nothing
        lo = 0
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if branches(mid, 0.0)[j][0] < 0.0 else (lo, mid)
        return lo

    runs = [run_length(0, int(max(R * s, 0.0) * (1.0 + 2.0 ** -40)) + 2)]  # the margin covers R s's rounding
    if free:
        runs.append(run_length(1, runs[0]))
    N = sum(L * L if dimension == 3 else 2 * L - 1 for L in runs if L)
    found, last = {}, [k_top] * 2

    def solve(mode, j):  # the root of branch j in this mode
        hi = min(last[j], found.get((mode, 0), math.inf))

        def residual(k):
            value, slope = branches(mode, k * R)[j]
            return value, R * slope

        at_hi = residual(hi)  # at or below 0 where the root rounds to hi
        k = hi if at_hi[0] <= 0.0 else core.bisect(residual, 0.0, hi, 0.0, slope=True, fhi=at_hi)
        if not sys.float_info.min <= k * k < math.inf:
            what = "overflows" if k * k == math.inf else "leaves the normal float range"
            raise ValidationError(f"eigenvalue -k^2 {what} at k={k!r} (mode {mode})")
        found[mode, j] = last[j] = k
        return k

    levels, taken, heads = [], 0, [0, 0]
    while taken < count and (live := [j for j, L in enumerate(runs) if heads[j] < L]):
        j = live[0]
        mode = heads[j]
        k = found[mode, j] if (mode, j) in found else solve(mode, j)
        if len(live) == 2 and branches(heads[1], k * R)[1][0] < 0.0:  # branch 1's head lies deeper
            j, mode = 1, heads[1]
            k = solve(mode, 1)
        levels.append(Levels((-k * k,), (multiplicity(dimension, mode),)))
        taken, heads[j] = taken + multiplicity(dimension, mode), heads[j] + 1
    return N, Levels.merged(levels)


def _exact_inputs(field, R):
    """(alpha, beta, R, |1 - g/2|^2, |1 + g/2|^2) as Fractions of the float
    inputs, with |1 -+ g/2|^2 = (1 -+ Re g/2)^2 + (Im g/2)^2."""
    from fractions import Fraction  # imported here: it loads decimal, which start-up need not pay for

    g = complex(field.gamma)
    gr, gi = Fraction(g.real) / 2, Fraction(g.imag) / 2
    return (Fraction(field.alpha), Fraction(field.beta), Fraction(R),
            (1 - gr) ** 2 + gi ** 2, (1 + gr) ** 2 + gi ** 2)


def _exact_constant(field, R, p, q):
    """The constant term of dtn_census at (p, q), as a Fraction of the
    float inputs (_exact_inputs): |c_i|^2 p + |c_e|^2 q - alpha R, or
    p q - R (p Theta_22 + q Theta_11) + R^2 alpha/beta."""
    a, b, R, w_minus, w_plus = _exact_inputs(field, R)
    if not b:
        return w_minus * p + w_plus * q - a * R
    t11, t22 = w_plus / b + a / 4, w_minus / b + a / 4
    return p * q - R * (p * t22 + q * t11) + R * R * a / b


def _product_error(a, b):
    """a b - fl(a b), exact unless it is subnormal: Dekker's two-product
    (math.fma needs Python 3.13) of the mantissas, whose split cannot overflow."""
    (ma, ea), (mb, eb) = math.frexp(a), math.frexp(b)
    a1, b1 = (134217729.0 * m - (134217729.0 * m - m) for m in (ma, mb))
    a2, b2, p = ma - a1, mb - b1, ma * mb
    return math.ldexp(((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2, ea + eb)


def _ratios(nu, x):
    """(x I_{nu+1}/I_nu, x K_{nu-1}/K_nu)(x) for x >= 0 and nu an integer or
    half-integer >= 0, each to a few ulp (checked against mpmath for x from
    1e-300 to 1e3); both are 0 at x = 0.  For nu = 1/2 and x >= 1 they are
    x coth x - 1, from terms >= 0, and x.  From x = 32 max(nu, 2) on both
    are large-x series.  Below, the K ratio comes from the forward
    recurrence K_{nu+1} = K_{nu-1} + (2 nu / x) K_nu, from K_{-1/2} =
    K_{1/2} or from _k1_k0, and x times the I ratio from the continued
    fraction x^2 / (2(nu + 1) + x^2 / (2(nu + 2) + ...)), evaluated from
    the bottom; their terms are positive, so nothing cancels or overflows.
    Fraction level j damps the error below it by r_{nu+j}^2 <= (x / (nu + j
    + x))^2, r the I ratio, so the fraction stops at the first depth where
    the product of these bounds falls below 1e-18 (16 levels at x = 2.5,
    nu = 0).
    """
    if x == 0.0:
        return 0.0, 0.0
    if nu == 0.5 and x >= 1.0:
        return (x - 1.0) + 2.0 * x * math.exp(-2.0 * x) / -math.expm1(-2.0 * x), x
    if x >= 32.0 * max(nu, 2.0):
        return x * _large_x_series(nu, x), x * _large_x_series(-nu, -x)
    two_nu = int(2.0 * nu)
    q = 1.0 if two_nu % 2 else _k1_k0(x) / x  # K_{nu-1}/K_nu at the lowest nu, 1/2 or 0
    for b in range(two_nu % 2, two_nu, 2):  # b = 2 nu' for nu' = nu mod 1 .. nu - 1
        q = 1.0 / (q + b / x)
    depth, damping = 0, 1.0
    while damping > 1e-9:  # the square root of the damping bound
        depth += 1
        damping *= x / (nu + depth + x)
    xx, s = x * x, 0.0
    for b in range(two_nu + 2 * depth, two_nu, -2):  # b = 2(nu + j), j = depth..1
        s = xx / (b + s)
    return s, x * q


LN2_MINUS_EULER = 0.11593151565841244881  # ln 2 - Euler's gamma


def _k1_k0(x):
    """x K_1(x) / K_0(x) for 0 < x < 64, to about 2 ulp (checked against
    mpmath).  Below x = 1 it is Temme's series at order 0: K_0 = sum_i
    c_i f_i and x K_1 = 1 + 2 sum_{i>=1} c_i (p_i - i f_i), with c_i =
    (x^2/4)^i / i!, p_i = 1/(2 i!) and f_0 = ln(2/x) - gamma > 0.  Its
    terms fall like (x^2/4)^i / i!^2, below 1e-21 of the sums past i = 11.
    From x = 1 it is Steed's CF2, x K_1/K_0 = x + 1/2 - (1/4) / (2(x + 1)
    - (3/2)^2 / (2(x + 2) - (5/2)^2 / ...)), evaluated from the bottom with
    6 + 54/x levels; on 400 points from 1 to 64, five more levels leave
    its value unchanged.
    """
    if x < 1.0:
        f = LN2_MINUS_EULER - math.log(x)
        c, p, k0, k1, y = 1.0, 0.5, f, 0.5, 0.25 * x * x
        for i in range(1, 12):
            f = (i * f + 2.0 * p) / (i * i)
            c *= y / i
            p /= i
            k0 += c * f
            k1 += c * (p - i * f)
        return 2.0 * k1 / k0
    t, two_x = 0.0, 2.0 * x
    for i in range(6 + int(54.0 / x), 1, -1):
        t = (i - 0.5) * (0.5 - i) / (two_x + 2 * i + t)
    return x + 0.5 - 0.25 / (two_x + 2.0 + t)


def _large_x_series(nu, x):
    """sum_n c_n x^-n, the large-x series of I_{nu+1}(x) / I_nu(x), and at
    (-nu, -x) of K_{nu-1}(x) / K_nu(x), for x >= 32 |nu| and, for integer
    nu, x >= 64: r' = 1 - r^2 - (2 nu + 1) r / x gives c_0 = 1 and 2 c_{n+1} =
    (n - 2 nu - 1) c_n - sum_{i=1..n} c_i c_{n+1-i}.  For half-integer nu,
    |c_n| <= (4 |nu| / 3)^n (checked in exact arithmetic to n = 30), so 12
    terms leave below 1e-17, and the e^{-2x} part of I, which the series
    drops, is below 1e-41.  For integer nu the series is only asymptotic;
    from x = max(64, 32 |nu|) its 13th term is below 3e-19 (checked in exact
    arithmetic to |nu| = 80, and the sums against mpmath)."""
    c = [1.0]
    for n in range(12):
        c.append(((n - 2.0 * nu - 1.0) * c[n] - sum(c[i] * c[n + 1 - i] for i in range(1, n + 1))) / 2.0)
    return math.fsum(cn / x ** n for n, cn in enumerate(c))


def swave_threshold(R=1.0, lo=0.9, hi=1.1, tol=1e-10):
    """Localize the critical alpha_tilde*R where the sphere state appears.

    Bisection on the bound-state count as a function of the product
    xi = alpha_tilde * R; returns the transition abscissa to width tol.
    Raises ValidationError unless (lo, hi) brackets the transition.
    """
    return core.bisect(lambda xi: sphere_swave_matching(xi / R, R)[0] - 0.5, lo, hi, tol)


def _coupling_block(rc, geom):
    """w(R) * Theta_eff for the interface block of the form."""
    theta = core.theta_matrix(rc).entries.copy()
    if geom.dimension == 3:
        # u = r psi picks up boundary terms +(|b_u|^2 - |a_u|^2)/R
        theta[0, 0] += 1.0 / geom.R
        theta[1, 1] -= 1.0 / geom.R
        w_R = 1.0
    else:
        w_R = geom.R
    return w_R * theta


def radial_fd_spectrum(geom, field, n_grid):
    """Negative eigenvalues of one angular mode by tridiagonal FD.

    n_grid is the number of subintervals on EACH side of the interface,
    so doubling n_grid halves both mesh widths exactly (clean Richardson
    ladders).  Minimum 64.  Returns the Levels of geom.mode.

    Eigenvalues above -NEG_TOL are treated as nonnegative: a discrete
    kernel (e.g. the constant state of an uncoupled Neumann problem)
    reappears at the 1e-13 level in floating point and must not be
    counted as a bound state.  Only the eigenvalues in
    (Gershgorin lower bound, -NEG_TOL] are computed.
    """
    import numpy as np  # imported here: interval tasks load neither numpy nor SciPy

    d, e = _mode_tridiagonal(geom, field, n_grid)
    # Gershgorin bound, moved off it: stebz searches the half-open (lo, hi].
    # The margin is relative too: past |lo| ~ 1e16 an absolute 1.0 rounds
    # away and the lowest eigenvalue rounds onto lo, outside the range.
    lo = float(np.min(d - np.append(e, 0.0) - np.insert(e, 0, 0.0)))
    lo -= max(1.0, 1e-12 * abs(lo))
    neg = _sturm_eigenvalues(d, e, select="v", select_range=(lo, -NEG_TOL))
    return Levels(tuple(float(x) for x in neg), (multiplicity(geom.dimension, geom.mode),) * len(neg))


def radial_mode_eigenvalues(geom, field, n_grid, count):
    """Lowest ``count`` discrete eigenvalues (ascending) of one angular mode.

    The comparison harness needs positive eigenvalues as well as negative
    ones, because variational eigenvalue orderings hold for every index
    of the shared nodal space.  Only those ``count`` values are computed.
    """
    d, e = _mode_tridiagonal(geom, field, n_grid)
    last = min(int(count), len(d)) - 1
    return _sturm_eigenvalues(d, e, select="i", select_range=(0, last))


def _sturm_eigenvalues(d, e, **select):
    """Selected eigenvalues of the tridiagonal (d, e) by stebz bisection.

    ConvergenceFailure when stebz stops short, as on entries near the
    float range.
    """
    from scipy.linalg import LinAlgError, eigvalsh_tridiagonal

    try:
        return eigvalsh_tridiagonal(d, e, tol=STURM_TOL, **select)
    except LinAlgError as exc:
        raise ConvergenceFailure(f"no Sturm count: {exc}") from exc


def _mode_tridiagonal(geom, rc, n_grid):
    """Real symmetric tridiagonal (diag, offdiag) with the mode's spectrum."""
    import numpy as np

    if n_grid < 64:
        raise ValidationError(f"n_grid must be at least 64, got {n_grid}")
    diag, off, weights = _assemble_radial(geom, rc, n_grid)
    s = 1.0 / np.sqrt(weights)
    return diag * s * s, np.abs(off) * s[:-1] * s[1:]


def _assemble_radial(geom, rc, n_grid):
    """Hermitian tridiagonal pencil for one angular mode.

    Returns (diag, offdiag, weights) with offdiag[i] = K[i, i+1].
    Node layout: inner nodes (ascending radius, last one is the inner
    trace a), then outer nodes (first one is the outer trace b).
    """
    import numpy as np

    dim2 = geom.dimension == 2
    R, R_out, mode = geom.R, geom.R_out, geom.mode
    n1 = n2 = int(n_grid)
    h1 = R / n1
    h2 = (R_out - R) / n2
    c_cent = mode * mode if dim2 else mode * (mode + 1)

    # in 2-D only the axisymmetric mode keeps the origin node; in the u
    # variable (3-D) u(0) = 0 always
    keep_origin = dim2 and mode == 0
    r_in = h1 * np.arange(0 if keep_origin else 1, n1 + 1)
    keep_outer_end = geom.outer_bc == "neumann"
    r_out = R + h2 * np.arange(0, (n2 if keep_outer_end else n2 - 1) + 1)
    n_in = len(r_in)
    n = n_in + len(r_out)

    # face stiffness w(r_face)/h, zero between the traces a and b (they
    # share no face); the face to an eliminated origin node or Dirichlet
    # end node lands on the diagonal only
    if dim2:
        f_in, f_out = (r_in[:-1] + 0.5 * h1) / h1, (r_out[:-1] + 0.5 * h2) / h2
        f_origin, f_end = 0.5 * h1 / h1, (R_out - 0.5 * h2) / h2
    else:
        f_in, f_out = np.full(n_in - 1, 1.0 / h1), np.full(n - n_in - 1, 1.0 / h2)
        f_origin, f_end = 1.0 / h1, 1.0 / h2
    faces = np.concatenate([f_in, [0.0], f_out])
    diag = np.zeros(n)
    diag[0] = 0.0 if keep_origin else f_origin
    diag[:-1] += faces
    diag[1:] += faces
    diag[-1] += 0.0 if keep_outer_end else f_end
    off = (0.0 - faces).astype(complex)

    # control-cell masses: exact integrals of the weight (r in 2-D, 1 in 3-D)
    lo = np.concatenate([np.maximum(0.0, r_in - 0.5 * h1), np.maximum(R, r_out - 0.5 * h2)])
    hi = np.concatenate([np.minimum(R, r_in + 0.5 * h1), np.minimum(R_out, r_out + 0.5 * h2)])
    weights = 0.5 * (hi * hi - lo * lo) if dim2 else hi - lo

    # centrifugal term c/r^2, lumped on cells (skipped at the origin where
    # it only appears for modes that were eliminated by the r=0 condition)
    if c_cent:
        with np.errstate(divide="ignore"):
            diag += c_cent * weights / np.concatenate([r_in, r_out]) ** 2

    # outer natural condition in the u variable: the substitution leaves
    # -|u(R_out)|^2 / R_out in the form (psi'(R_out) = 0 becomes
    # u'(R_out) = u(R_out)/R_out)
    if not dim2 and keep_outer_end:
        diag[n - 1] -= 1.0 / R_out

    # interface block: subtract w(R) Theta_eff on the (a, b) unknowns
    block = _coupling_block(rc, geom)
    ia, ib = n_in - 1, n_in
    diag[ia] -= block[0, 0].real
    diag[ib] -= block[1, 1].real
    off[ia] += -block[0, 1]

    if rc.kind == core.CONSTRAINED:
        diag, off, weights = _fold_constraint(diag, off, weights, ia, rc)
    return diag, off, weights


def _fold_constraint(diag, off, weights, ia, rc):
    """Replace the trace pair (a, b) = (c_i, c_e) t by the single DOF t."""
    import numpy as np

    ci, ce = rc.constraint_coefficients()  # c_i + c_e = 2: never both zero
    ib = ia + 1
    # t takes row ia; row b and the (a, b) entry off[ia] drop out
    nd, no, nw = np.delete(diag, ib), np.delete(off, ia), np.delete(weights, ib)
    # t row: quadratic form of the (a, b) block under (a, b) = (ci, ce) t
    nd[ia] = abs(ci) ** 2 * diag[ia] + abs(ce) ** 2 * diag[ib] + 2.0 * (np.conj(ci) * off[ia] * ce).real
    nw[ia] = abs(ci) ** 2 * weights[ia] + abs(ce) ** 2 * weights[ib]
    if ia > 0:
        no[ia - 1] = off[ia - 1] * ci  # K[u_{last-1}, t]
    if ib < len(off):
        no[ia] = np.conj(ce) * off[ib]  # K[t, v_1]
    return nd, no, nw


def richardson(values, order=2, ratio=2.0):
    """Richardson extrapolation for a sequence on exactly-refining grids.

    values[i] corresponds to mesh width h / ratio**i; the error model is
    c1 h^order + c2 h^(order+2) + ...  Returns (extrapolated, error_bar)
    where the error bar is the change produced by the last table column.
    """
    vals = [float(v) for v in values]
    if len(vals) < 2:
        raise ValidationError("richardson needs at least two ladder values")
    table = [vals]
    p = order
    while len(table[-1]) > 1:
        prev = table[-1]
        fac = ratio**p
        table.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0) for i in range(len(prev) - 1)])
        p += 2
    best = table[-1][0]
    prev_best = table[-2][-1]
    return best, abs(best - prev_best)


def multiplicity(dimension, mode):
    """Angular multiplicity of a radial eigenvalue: 1 for the axisymmetric
    mode and 2 per mode m >= 1 in 2-D, 2l + 1 in 3-D."""
    if dimension == 2:
        return 1 if mode == 0 else 2
    return 2 * mode + 1


def assemble_mode_sum(geom, field, n_grid):
    """Merge per-mode negative spectra (Levels.merged) with angular multiplicities.

    Modes are swept upward until the first one with no negative
    eigenvalue (the centrifugal term is monotone in the mode, so higher
    modes are then empty too).
    """
    per_mode = []  # one Levels per mode, the last one empty
    while not per_mode or per_mode[-1].eigenvalues:
        if len(per_mode) > 256:
            raise ConvergenceFailure("mode sweep did not terminate by mode 256")
        per_mode.append(radial_fd_spectrum(replace(geom, mode=len(per_mode)), field, n_grid))
    levels = Levels.merged(per_mode)
    return SpectrumReport(
        eigenvalues=tuple(levels.expanded()),
        N=levels.N,
        tolerances={"n_grid": int(n_grid)},
        convergence={
            "per_mode": {str(m): list(v.eigenvalues) for m, v in enumerate(per_mode)},
            "outer_bc": geom.outer_bc,
            "R_out": geom.R_out,
            "dimension": geom.dimension,
        },
    )
