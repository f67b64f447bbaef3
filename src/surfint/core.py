"""Coupling data, closed-form spectral quantities and the root-finder.

Conventions used throughout the package
---------------------------------------

A singular interaction supported on a hypersurface is described by four
real parameters packed as (alpha, beta, gamma) with alpha, beta real and
gamma complex.  The coupling is uniform on the surface and of one of
two kinds:

``free``
    beta != 0; the inner and outer boundary traces are independent
    degrees of freedom.

``constrained``
    beta == 0; the traces are tied by the one-dimensional constraint
    (1 + conj(gamma)/2) f_inner = (1 - conj(gamma)/2) f_outer.

The quadratic form of the operator is the free Laplacian form minus the
surface term  integral_Sigma <Theta (f_i, f_e), (f_i, f_e)> dsigma, where
Theta is the 2x2 Hermitian matrix returned by :func:`theta_matrix`.

The classical point interactions are special cases: a delta interaction
of strength a is (alpha=a, beta=0, gamma=0); a delta' interaction of
strength b is (alpha=0, beta=b, gamma=0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonRealAlpha, ValidationError

FREE = "free"
CONSTRAINED = "constrained"


@dataclass(frozen=True)
class RegionCoupling:
    """The coupling, constant on the whole surface."""

    alpha: float
    beta: float
    gamma: complex

    @property
    def kind(self):
        """CONSTRAINED when beta == 0, FREE otherwise."""
        return CONSTRAINED if self.beta == 0.0 else FREE

    def constraint_coefficients(self):
        """Coefficients (c_i, c_e) of the trace constraint of a constrained
        coupling: the admissible traces are f_i = c_i * t, f_e = c_e * t.

        c_i = 1 - conj(gamma)/2 and c_e = 1 + conj(gamma)/2, so that
        (1 + conj(gamma)/2) f_i = (1 - conj(gamma)/2) f_e holds identically,
        including the degenerate endpoints gamma = +-2 where one trace is
        forced to vanish.
        """
        g = complex(self.gamma)
        return 1.0 - g.conjugate() / 2.0, 1.0 + g.conjugate() / 2.0


def _real_pair(alpha, beta):
    """(alpha, beta) as floats.  Raises NonRealAlpha when alpha is complex,
    else a ValidationError when beta is; both list every problem."""
    problems = [f"{what} must be real, got {x!r}"
                for what, x in (("alpha", alpha), ("beta", beta)) if complex(x).imag != 0.0]
    if problems:
        raise (NonRealAlpha if complex(alpha).imag != 0.0 else ValidationError)(problems)
    return float(complex(alpha).real), float(complex(beta).real)


def uniform_field(alpha, beta, gamma):
    """Validate coupling data and return its :class:`RegionCoupling`.

    Raises NonRealAlpha when alpha is complex and a ValidationError when
    only beta is; both list every problem.
    """
    a, b = _real_pair(alpha, beta)
    return RegionCoupling(a, b, complex(gamma))


def delta_field(alpha_tilde):
    """Coupling of a pure delta interaction of strength alpha_tilde."""
    return uniform_field(float(alpha_tilde), 0.0, 0.0)


def delta_prime_field(beta_tilde):
    """Coupling of a pure delta' interaction of strength beta_tilde."""
    return uniform_field(0.0, float(beta_tilde), 0.0)


@dataclass(frozen=True)
class ThetaMatrix:
    """Hermitian 2x2 surface-coupling matrix."""

    entries: "numpy.ndarray"
    kind: str

    def eigenvalues(self):
        import numpy as np

        return np.linalg.eigvalsh(self.entries)

    @property
    def is_real_symmetric(self):
        return not self.entries.imag.any()


def theta_entries(rc):
    """The three scalars (Theta_11, Theta_12, Theta_22) of the surface
    matrix of ``rc``; Theta_21 is conj(Theta_12).

    For a free coupling (beta != 0):

        Theta_11 = |1+g/2|^2/b + a/4,   Theta_22 = |1-g/2|^2/b + a/4,
        Theta_12 = (cg/2-1)(1+g/2)/b + a/4

    with a = alpha, b = beta, g = gamma, cg = conj(gamma), so that
    det Theta = a/b.  For a constrained coupling (beta == 0) every entry
    is alpha/4; gamma then acts only through the trace constraint.  The
    diagonal is real, Theta_12 complex.
    """
    a = rc.alpha
    if rc.kind == CONSTRAINED:
        return a / 4.0, complex(a / 4.0), a / 4.0
    g, b = complex(rc.gamma), rc.beta
    cg = g.conjugate()
    return (abs(1 + g / 2) ** 2 / b + a / 4,
            (cg / 2 - 1) * (1 + g / 2) / b + a / 4,
            abs(1 - g / 2) ** 2 / b + a / 4)


def theta_matrix(rc):
    """Surface-coupling matrix Theta of the coupling ``rc``, from
    :func:`theta_entries`.

    The result is Hermitian for any admissible coupling and real symmetric
    exactly when gamma is real.  Complex dtype is used throughout.
    """
    import numpy as np  # imported here: the interval tasks load no numpy

    t11, t12, t22 = theta_entries(rc)
    return ThetaMatrix(np.array([[t11, t12], [t12.conjugate(), t22]], dtype=complex), rc.kind)


def line_roots(alpha, beta, gamma):
    """Roots of q(s) = beta s^2 - c s + alpha = beta det(sI - Theta), with
    c = (4 + alpha beta + |gamma|^2) / 2, the larger in magnitude first:
    (0.5 t / beta, 2 alpha / t) with t = c + sign(c) sqrt(c^2 - 4 alpha
    beta), or (alpha / c,) when beta == 0.  The square root is taken as
    hypot(alpha beta + |gamma|^2 - 4, 4 |gamma|) / 2, which does not
    cancel; it is at least 4 when c = 0, so t != 0.
    """
    a, b, g = alpha, beta, abs(complex(gamma))
    c = 0.5 * (4.0 + a * b + g * g)
    if b == 0.0:
        return (a / c,)  # c = (4 + |gamma|^2)/2 > 0
    t = c + math.copysign(0.5 * math.hypot(a * b + g * g - 4.0, 4.0 * g), c)
    return (0.5 * t / b, 2.0 * a / t)


def m_infinity(alpha, beta, gamma):
    """Infimum of the essential spectrum band bottom for the flat problem.

    For alpha, beta >= 0 (gamma any complex number) m = -s^2, s the
    larger root of :func:`line_roots`.  Other sign regimes, and an m
    that overflows, are ValidationErrors.
    """
    a, b = _real_pair(alpha, beta)
    if a < 0 or b < 0:
        raise ValidationError(f"m_infinity requires alpha, beta >= 0, got ({a}, {b})")
    s = line_roots(a, b, gamma)[0]
    m = -(s * s)
    if not math.isfinite(m):
        raise ValidationError(
            f"m_infinity overflows at alpha={a}, beta={b}, |gamma|^2={abs(complex(gamma)) ** 2}")
    return m


@dataclass(frozen=True)
class FormBound:
    """Lower-bound constant for the surface term of the quadratic form.

    For every trace pair v the surface term satisfies
    -<Theta v, v> >= eta |v|^2 with eta < 0.
    """

    eta: float


def form_lower_bound(rc):
    """Best constant eta < 0 with -<Theta v, v> >= eta |v|^2.

    eta is minus the largest Theta eigenvalue when that is positive.
    Otherwise the surface term is already nonnegative, and eta is
    clamped to a tiny negative value so the strict-sign convention
    eta < 0 holds.
    """
    lam_max = float(theta_matrix(rc).eigenvalues()[-1])
    return FormBound(-lam_max if lam_max > 0.0 else -1e-12)


NEWTON_SPARE = 5  # Newton steps bisect may take before its first halving


def bisect(f, lo, hi, tol, slope=False, fhi=None):
    """Root of f on [lo, hi], given f(lo) <= 0 <= f(hi).

    Shrinks the bracket, keeping that sign pattern, until it is at most
    tol wide or its ends are adjacent floats (tol = 0 asks for the
    latter), and returns its midpoint.  A zero of f at either end or at a
    point it tries is returned as is.  Raises ValidationError when the
    ends break the sign pattern (a NaN included).  ``fhi`` is f(hi) when
    the caller has it already; f is then not evaluated at hi.

    Without ``slope`` every step halves the bracket.  With ``slope``, f
    returns (value, slope), and a step is Newton's from the end with the
    smaller |f|, or else from the other end, when that lands strictly
    inside the bracket; a Newton step that rounds to no move goes to the
    adjacent float instead, which closes a bracket Newton approached from
    one side.  The other steps
    halve [a, b], the bracket plain halving would hold: it holds [lo,
    hi], and it halves at no cost while [lo, hi] lies in one of its
    halves.

    Bound.  Let f be nondecreasing, n the evaluations plain halving
    makes inside its loop, h the halvings [a, b] has made and e the
    evaluations in this loop.  A Newton step is taken only while e < 2h
    + NEWTON_SPARE, and an evaluation at the middle of [a, b] lets it
    halve once more, so e <= 2h + NEWTON_SPARE + 1 holds throughout,
    whatever the slopes.  As f is nondecreasing, the half plain halving
    keeps is the one that holds [lo, hi], and a zero at its midpoint
    lies inside (lo, hi) until it is evaluated: [a, b] is plain
    halving's bracket after h of its steps.  Before the last evaluation
    neither loop had ended (the middle of a bracket holding a float is
    inside it, as long as a + b does not overflow), so h <= n - 1 there
    and e <= 2n + 4: with the two ends, at most twice plain halving's
    evaluations plus 2.
    """
    ends = (f(lo), f(hi) if fhi is None else fhi)
    (flo, dlo), (fhi, dhi) = ends if slope else ((ends[0], 0.0), (ends[1], 0.0))
    if not (lo <= hi and flo <= 0.0 <= fhi):
        raise ValidationError(
            f"[{lo}, {hi}] brackets no root: f(lo) = {flo}, f(hi) = {fhi}"
        )
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    a, b, halvings, evals = lo, hi, 0, 0
    while hi - lo > tol and lo < 0.5 * (lo + hi) < hi:
        ends = ((lo, flo, dlo, hi), (hi, fhi, dhi, lo))
        for x, fx, dx, other in ends if fhi > -flo else ends[::-1]:
            c = x - fx / dx if dx else math.nan  # no step from a zero slope, or without one
            if c == x:
                c = math.nextafter(x, other)
            if lo < c < hi:
                break
        if not (evals < 2 * halvings + NEWTON_SPARE and lo < c < hi):
            m = 0.5 * (a + b)
            while a < m < b and not lo < m < hi:  # [lo, hi] lies in one half
                a, b, halvings = (a, m, halvings + 1) if hi <= m else (m, b, halvings + 1)
                m = 0.5 * (a + b)
            if not (evals < 2 * halvings + NEWTON_SPARE and lo < c < hi):
                c = m if lo < m < hi else 0.5 * (lo + hi)
        evals += 1
        fc, dc = f(c) if slope else (f(c), 0.0)
        if fc == 0.0:
            return c
        if fc < 0.0:
            lo, flo, dlo = c, fc, dc
        else:
            hi, fhi, dhi = c, fc, dc
    return 0.5 * (lo + hi)
