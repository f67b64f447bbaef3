"""Exact negative spectrum of the interaction operator on an interval.

The operator acts as -psi'' on (-d, 0) u (0, d) with Neumann ends
psi'(+-d) = 0 and the four-parameter matching conditions at the origin
(psi_- denotes the left branch, psi_+ the right one, primes are one-sided
limits at 0):

    psi_-'(0) - psi_+'(0) = (alpha/2) (psi_-(0) + psi_+(0))
                            + (gamma/2) (psi_-'(0) + psi_+'(0))
    psi_-(0) - psi_+(0)   = -(conj(gamma)/2) (psi_-(0) + psi_+(0))
                            + (beta/2) (psi_-'(0) + psi_+'(0))

A negative eigenvalue lambda = -k^2 (k > 0) exists iff g(k) = h(k) j(k)
with

    g(k) = |gamma|^2 k (1 - e^{4kd})
    h(k) = (-2 alpha - 4 k) e^{-2kd} - 2 alpha + 4 k
    j(k) = e^{2kd} (1 + beta k / 2) + e^{4kd} (1 - beta k / 2)

The overflow-free rescaling F(k) = e^{-4kd} (g - h j) = A e^{-4kd}
+ B e^{-2kd} + C with polynomial coefficients (see
:func:`characteristic_scaled`) has the same zeros on k > 0, and it
reduces to one quadratic:

    F(k) e^{2kd} = 8 cosh^2(kd) q(k tanh(kd)),
    q(s) = beta s^2 - ((4 + alpha beta + |gamma|^2) / 2) s + alpha.

q is the secular quadratic of the whole line (d -> infinity), and its
discriminant, ((alpha beta + |gamma|^2 - 4)^2 + 16 |gamma|^2) / 4, is
never negative.  Since k -> k tanh(kd) rises strictly from 0 to infinity,
for every sign of alpha and beta:

    N, the number of negative eigenvalues, is the number of positive
    roots s of q: 0, 1 or 2;
    each root gives lambda = -k^2 with k tanh(kd) = s, and that k lies
    in [s, s + 1/d], since tanh(y + 1) > y / (y + 1) for y = s d >= 0.

When gamma == 0 and alpha beta == 4 (within DEGENERATE_TOL) q has a
double root: F touches the axis there without a sign change, and the
matching matrix has a two-dimensional kernel at its k.  The root is
listed once, as one level of multiplicity 2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ValidationError
from . import core
from .report import Levels

DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class IntervalProblem:
    """Interval (-d, d) with the four-parameter interaction at 0."""

    alpha: float
    beta: float
    gamma: complex
    d: float

    def __post_init__(self):
        problems = []
        if complex(self.alpha).imag != 0.0:
            problems.append(f"alpha must be real, got {self.alpha!r}")
        if complex(self.beta).imag != 0.0:
            problems.append(f"beta must be real, got {self.beta!r}")
        if not (self.d > 0.0):
            problems.append(f"half-width d must be positive, got {self.d!r}")
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "alpha", float(complex(self.alpha).real))
        object.__setattr__(self, "beta", float(complex(self.beta).real))
        object.__setattr__(self, "gamma", complex(self.gamma))
        object.__setattr__(self, "d", float(self.d))


@dataclass(frozen=True)
class IntervalSpectrum(Levels):
    """Negative spectrum of an interval problem: the Levels of its roots.

    eigenvalues: ascending (deepest first), one per distinct root;
    multiplicities: 2 on the degenerate line and 1 elsewhere; ks: the
    matching k > 0 values (descending, lambda_i = -ks_i^2); m_interval:
    min(0, lowest eigenvalue); diagnostics: the secular count of distinct
    roots (census_expected), the degeneracy flag, the k window (k_max) and
    the residuals |F(k)| at the roots.
    """

    ks: tuple
    m_interval: float
    diagnostics: dict


def characteristic_ghj(k, prob):
    """Raw factors (g, h, j) of the eigenvalue condition g = h*j at a real k.

    Grows like e^{4kd} and raises OverflowError once 4kd passes about 709;
    :func:`characteristic_scaled` does not overflow.
    """
    a, b, d = prob.alpha, prob.beta, prob.d
    g2 = abs(prob.gamma) ** 2
    g = g2 * k * (1.0 - math.exp(4.0 * k * d))
    h = (-2.0 * a - 4.0 * k) * math.exp(-2.0 * k * d) - 2.0 * a + 4.0 * k
    j = math.exp(2.0 * k * d) * (1.0 + b * k / 2.0) + math.exp(4.0 * k * d) * (1.0 - b * k / 2.0)
    return g, h, j


def characteristic_scaled(k, prob):
    """Overflow-free characteristic F(k) = e^{-4kd} (g - h j).

    F(k) = A(k) e^{-4kd} + B(k) e^{-2kd} + C(k) with

        A(k) = (alpha + 2k)(2 + beta k) + k |gamma|^2
        B(k) = 4 (alpha - beta k^2)
        C(k) = -(alpha - 2k)(-2 + beta k) - k |gamma|^2

    F(0) = 8 alpha; as k -> inf, F -> +inf when beta > 0 and -inf when
    beta == 0 (for alpha, |gamma| fixed).  Negative eigenvalues of the
    interval operator are exactly lambda = -k^2 with F(k) = 0, k > 0.
    """
    a, b, d = prob.alpha, prob.beta, prob.d
    g2 = abs(prob.gamma) ** 2
    A = (a + 2.0 * k) * (2.0 + b * k) + k * g2
    B = 4.0 * (a - b * k * k)
    C = -(a - 2.0 * k) * (-2.0 + b * k) - k * g2
    return A * math.exp(-4.0 * k * d) + B * math.exp(-2.0 * k * d) + C


def matching_matrix(k, prob):
    """4x4 complex matrix of the eigenvalue ansatz coefficients.

    Columns weight (A, B, C, D) in psi_-(x) = A e^{-kx} + B e^{kx} on
    (-d, 0) and psi_+(x) = C e^{-kx} + D e^{kx} on (0, d).  Rows: the two
    interaction conditions at 0, then the Neumann conditions at -d and d.
    lambda = -k^2 is an eigenvalue iff the determinant vanishes.
    """
    import numpy as np  # imported here: the interval tasks load no numpy

    a, b, d = prob.alpha, prob.beta, prob.d
    g = complex(prob.gamma)
    cg = g.conjugate()
    ekd = math.exp(k * d)
    emkd = math.exp(-k * d)
    return np.array(
        [
            [
                a / 2 + k * (1 - g / 2),
                a / 2 - k * (1 - g / 2),
                a / 2 - k * (1 + g / 2),
                a / 2 + k * (1 + g / 2),
            ],
            [
                -b * k / 2 - (1 + cg / 2),
                b * k / 2 - (1 + cg / 2),
                -b * k / 2 + (1 - cg / 2),
                b * k / 2 + (1 - cg / 2),
            ],
            [-k * ekd, k * emkd, 0.0, 0.0],
            [0.0, 0.0, -k * emkd, k * ekd],
        ],
        dtype=complex,
    )


def determinant_oracle(k, prob):
    """Determinant of :func:`matching_matrix`, returned as a real number.

    Satisfies det = -(1/2) e^{-2kd} k^2 (g - h j); in particular its sign
    changes exactly at the zeros of the characteristic.  The imaginary
    part is a rounding artifact and is checked to be negligible.
    """
    import numpy as np

    det = np.linalg.det(matching_matrix(k, prob))
    scale = abs(det) + 1e-300
    if abs(det.imag) > 1e-8 * scale:
        raise ValidationError(
            f"determinant at k={k} has unexpected imaginary part {det.imag!r}"
        )
    return float(det.real)


def secular_roots(prob):
    """Positive roots s of the secular quadratic q, descending.

    q is :func:`core.line_roots`'s quadratic (see the module docstring);
    a degenerate coupling has one double root.  A root of q is 0 only
    when alpha is; ValidationError when any other root is not a normal
    float, since a root that under- or overflowed would be miscounted.
    """
    a, b = prob.alpha, prob.beta
    roots = core.line_roots(a, b, prob.gamma)
    if is_degenerate(prob):
        roots = roots[:1]  # 0.5 t / beta, which is 0.5 c / beta when alpha beta == 4
    if any(not sys.float_info.min <= abs(s) < math.inf for s in roots if s != 0.0 or a != 0.0):
        raise ValidationError(
            f"a root of the secular quadratic leaves the float range: {roots} "
            f"at alpha={a}, beta={b}, |gamma|={abs(prob.gamma)}")
    return tuple(sorted((s for s in roots if s > 0.0), reverse=True))


def expected_root_count(prob):
    """Exact number of distinct negative eigenvalues (levels): the positive roots of q."""
    return len(secular_roots(prob))


def is_degenerate(prob):
    """True when gamma == 0 and alpha*beta == 4 (within 1e-12).

    There q has a double root and the characteristic touches the axis
    without a sign change; the root is one level of multiplicity 2.
    """
    return (
        prob.gamma == 0
        and prob.alpha > 0.0
        and prob.beta > 0.0
        and abs(prob.alpha * prob.beta - 4.0) <= DEGENERATE_TOL
    )


def negative_spectrum(prob, k_max=None):
    """All negative eigenvalues lambda = -k^2 with k <= k_max.

    Each positive root s of the secular quadratic gives one eigenvalue;
    its k solves k tanh(kd) = s inside [s, s + 1/d], by core.bisect's
    Newton steps with the slope tanh(kd) + kd sech^2(kd), until the
    bracket ends are adjacent floats, so a shallow state keeps its
    relative accuracy.  k_max is an optional window: only roots with
    k <= k_max are reported.  It defaults to the largest s plus 1/d,
    which holds every root.  The residuals |F(k)| of the characteristic
    check the reduction independently.
    """
    if k_max is not None and not (k_max > 0.0):
        raise ValidationError(f"k_max must be positive, got {k_max}")
    d = prob.d
    roots = secular_roots(prob)
    if k_max is None:
        k_max = (roots[0] if roots else 0.0) + 1.0 / d
    ks = []
    for s in roots:
        k = core.bisect(lambda k: _secular(k, d, s), s, s + 1.0 / d, 0.0, slope=True)
        if k <= k_max:
            if k * k == math.inf:
                raise ValidationError(f"eigenvalue -k^2 overflows at k={k}")
            ks.append(k)
    ks = tuple(ks)  # descending: deepest eigenvalue first
    eigenvalues = tuple(-k * k for k in ks)
    diagnostics = {
        "census_expected": len(roots),
        "degenerate": is_degenerate(prob),
        "k_max": float(k_max),
        "residuals": tuple(abs(characteristic_scaled(k, prob)) for k in ks),
    }
    m_d = eigenvalues[0] if eigenvalues else 0.0
    return IntervalSpectrum(eigenvalues, (1 + diagnostics["degenerate"],) * len(ks), ks, min(0.0, m_d), diagnostics)


def _secular(k, d, s):
    """k tanh(kd) - s and its k-slope tanh(kd) + kd sech^2(kd)."""
    t = math.tanh(k * d)
    return k * t - s, t + k * d * (1.0 - t * t)


def m_interval(prob):
    """min(0, lowest negative eigenvalue) on the interval (-d, d)."""
    return negative_spectrum(prob).m_interval
