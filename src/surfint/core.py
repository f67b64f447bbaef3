"""Coupling data, closed-form spectral quantities and the root-finder.

Conventions used throughout the package
---------------------------------------

A singular interaction supported on a hypersurface is described by four
real parameters packed as (alpha, beta, gamma) with alpha, beta real and
gamma complex.  The surface is partitioned into named regions of two
kinds:

``free``
    beta != 0 there; the inner and outer boundary traces are independent
    degrees of freedom.

``constrained``
    beta == 0 there; the traces are tied by the one-dimensional constraint
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

import numpy as np

from .errors import (
    BetaNonzeroOnSigmaZero,
    BetaZeroOnSigmaBeta,
    NegativeDiscriminant,
    NonRealAlpha,
    ValidationError,
)

FREE = "free"
CONSTRAINED = "constrained"

_KINDS = (FREE, CONSTRAINED)


@dataclass(frozen=True)
class RegionCoupling:
    """Constant coupling data on one named surface region."""

    alpha: float
    beta: float
    gamma: complex
    kind: str

    def constraint_coefficients(self):
        """Coefficients (c_i, c_e) of the trace constraint on a constrained
        region: the admissible traces are f_i = c_i * t, f_e = c_e * t.

        c_i = 1 - conj(gamma)/2 and c_e = 1 + conj(gamma)/2, so that
        (1 + conj(gamma)/2) f_i = (1 - conj(gamma)/2) f_e holds identically,
        including the degenerate endpoints gamma = +-2 where one trace is
        forced to vanish.
        """
        g = complex(self.gamma)
        return 1.0 - g.conjugate() / 2.0, 1.0 + g.conjugate() / 2.0


@dataclass(frozen=True)
class CouplingField:
    """Piecewise-constant coupling over named surface regions.

    ``regions`` is an ordered tuple of (name, RegionCoupling) pairs; order
    is preserved so that downstream output is deterministic.
    """

    regions: tuple

    def names(self):
        return tuple(name for name, _ in self.regions)

    def coupling(self, name):
        for rname, rc in self.regions:
            if rname == name:
                return rc
        raise KeyError(name)

    @property
    def single(self):
        """The unique region coupling; raises if the field has several."""
        if len(self.regions) != 1:
            raise ValidationError(
                "operation needs a single-region coupling field; got regions "
                f"{[name for name, _ in self.regions]}"
            )
        return self.regions[0][1]


def _as_real(x, what, problems):
    """Coerce x to float, recording a problem if it has an imaginary part."""
    xc = complex(x)
    if xc.imag != 0.0:
        problems.append(f"{what} must be real, got {x!r}")
        return 0.0
    return float(xc.real)


def validate_coupling(alpha, beta, gamma, partition=None):
    """Validate coupling data and return a :class:`CouplingField`.

    Scalar arguments build a single-region field named "interface".  For a
    multi-region field pass dicts keyed by region name for alpha, beta,
    gamma (all three sharing the same keys); ``partition`` may then be a
    dict of region kinds.  When ``partition`` is omitted the kind is
    inferred from beta (zero -> constrained, nonzero -> free).

    Raises NonRealAlpha for complex alpha, BetaZeroOnSigmaBeta /
    BetaNonzeroOnSigmaZero for partition-beta mismatches, and a generic
    ValidationError (listing every violation) otherwise.
    """
    if isinstance(alpha, dict) or isinstance(beta, dict) or isinstance(gamma, dict):
        if not (isinstance(alpha, dict) and isinstance(beta, dict) and isinstance(gamma, dict)):
            raise ValidationError("alpha, beta, gamma must all be dicts or all scalars")
        names = list(alpha.keys())
        if set(beta.keys()) != set(names) or set(gamma.keys()) != set(names):
            raise ValidationError("alpha, beta, gamma dicts must share the same region names")
        part = partition if partition is not None else {}
        if partition is not None and not isinstance(partition, dict):
            raise ValidationError("partition must be a dict when couplings are dicts")
        regions = []
        problems = []
        for name in names:
            rc = _validated_region(
                alpha[name], beta[name], gamma[name], part.get(name), name, problems
            )
            regions.append((name, rc))
        if problems:
            _raise_classified(problems)
        return CouplingField(tuple(regions))

    problems = []
    rc = _validated_region(alpha, beta, gamma, partition, "interface", problems)
    if problems:
        _raise_classified(problems)
    return CouplingField((("interface", rc),))


def _validated_region(alpha, beta, gamma, kind, name, problems):
    n0 = len(problems)
    a = _as_real(alpha, f"alpha[{name}]", problems)
    alpha_bad = len(problems) > n0
    b = _as_real(beta, f"beta[{name}]", problems)
    g = complex(gamma)
    if kind is None:
        kind = CONSTRAINED if b == 0.0 else FREE
    if kind not in _KINDS:
        problems.append(f"partition[{name}] must be one of {_KINDS}, got {kind!r}")
        kind = FREE
    if kind == FREE and b == 0.0:
        problems.append(f"region {name} is marked free but beta == 0")
    if kind == CONSTRAINED and b != 0.0:
        problems.append(f"region {name} is marked constrained but beta == {b}")
    if alpha_bad:
        # remember that the specific alpha error class applies
        problems.append("__non_real_alpha__")
    return RegionCoupling(a, b, g, kind)


def _raise_classified(problems):
    alpha_flag = "__non_real_alpha__" in problems
    problems = [p for p in problems if p != "__non_real_alpha__"]
    if alpha_flag:
        raise NonRealAlpha(problems)
    if any("marked free but beta" in p for p in problems):
        raise BetaZeroOnSigmaBeta(problems)
    if any("marked constrained but beta" in p for p in problems):
        raise BetaNonzeroOnSigmaZero(problems)
    raise ValidationError(problems)


def delta_field(alpha_tilde):
    """Coupling field of a pure delta interaction of strength alpha_tilde."""
    return validate_coupling(float(alpha_tilde), 0.0, 0.0)


def delta_prime_field(beta_tilde):
    """Coupling field of a pure delta' interaction of strength beta_tilde."""
    return validate_coupling(0.0, float(beta_tilde), 0.0)


def uniform_field(alpha, beta, gamma):
    """Single-region field with the full four-parameter coupling."""
    return validate_coupling(alpha, beta, gamma)


@dataclass(frozen=True)
class ThetaMatrix:
    """Hermitian 2x2 surface-coupling matrix on one region."""

    entries: np.ndarray
    kind: str

    def eigenvalues(self):
        return np.linalg.eigvalsh(self.entries)

    @property
    def is_real_symmetric(self):
        return bool(np.max(np.abs(self.entries.imag)) == 0.0)


def theta_matrix(field, region=None):
    """Surface-coupling matrix Theta on the given region of ``field``.

    On a free region (beta != 0):

        Theta = [[ |1+g/2|^2/b + a/4,  (cg/2-1)(1+g/2)/b + a/4 ],
                 [ (g/2-1)(1+cg/2)/b + a/4,  |1-g/2|^2/b + a/4 ]]

    with a = alpha, b = beta, g = gamma, cg = conj(gamma).  On a
    constrained region (beta == 0) the matrix collapses to (alpha/4) times
    the all-ones matrix; gamma then acts only through the trace
    constraint, not through Theta.

    The result is Hermitian for any admissible coupling and real symmetric
    exactly when gamma is real.  Complex dtype is used throughout.
    """
    if region is None:
        rc = field.single
    else:
        rc = field.coupling(region)
    a = rc.alpha
    g = complex(rc.gamma)
    cg = g.conjugate()
    if rc.kind == CONSTRAINED:
        ent = (a / 4.0) * np.ones((2, 2), dtype=complex)
        return ThetaMatrix(ent, rc.kind)
    b = rc.beta
    ent = np.array(
        [
            [abs(1 + g / 2) ** 2 / b + a / 4, (cg / 2 - 1) * (1 + g / 2) / b + a / 4],
            [(g / 2 - 1) * (1 + cg / 2) / b + a / 4, abs(1 - g / 2) ** 2 / b + a / 4],
        ],
        dtype=complex,
    )
    return ThetaMatrix(ent, rc.kind)


def m_infinity(alpha, beta, gamma):
    """Infimum of the essential spectrum band bottom for the flat problem.

    For alpha, beta >= 0 (gamma any complex number):

        beta == 0:  m = -4 alpha^2 / (4 + |gamma|^2)^2
        beta  > 0:  m = -(4 + D + sqrt((4 + D)^2 - 16 alpha beta))^2
                        / (16 beta^2),      D = alpha*beta + |gamma|^2

    Other sign regimes are rejected.  The discriminant is provably
    nonnegative on this domain ((4+D)^2 - 16ab = (ab + |g|^2 - 4)^2
    + 16|g|^2 >= 0); NegativeDiscriminant guards against rounding anomalies
    rather than a reachable mathematical case.
    """
    problems = []
    a = _as_real(alpha, "alpha", problems)
    b = _as_real(beta, "beta", problems)
    if problems and "alpha" in problems[0]:
        raise NonRealAlpha(problems)
    if problems:
        raise ValidationError(problems)
    if a < 0 or b < 0:
        raise ValidationError(f"m_infinity requires alpha, beta >= 0, got ({a}, {b})")
    g2 = abs(complex(gamma)) ** 2
    if b == 0.0:
        return -4.0 * a * a / (4.0 + g2) ** 2
    det_a = a * b + g2
    disc = (4.0 + det_a) ** 2 - 16.0 * a * b
    if disc < 0.0:
        raise NegativeDiscriminant(f"discriminant {disc} < 0 at alpha={a}, beta={b}, |gamma|^2={g2}")
    k0 = (4.0 + det_a + math.sqrt(disc)) / (4.0 * b)
    return -(k0 * k0)


@dataclass(frozen=True)
class FormBound:
    """Lower-bound constant for the surface term of the quadratic form.

    For every trace pair v the surface term satisfies
    -<Theta v, v> >= eta |v|^2 with eta < 0.
    """

    eta: float
    per_region: tuple


def form_lower_bound(field):
    """Best constant eta < 0 with -<Theta v, v> >= eta |v|^2 on every region.

    eta is minus the largest positive Theta eigenvalue over all regions.
    When no Theta eigenvalue is positive the surface term is already
    nonnegative; eta is then clamped to a tiny negative value so the
    strict-sign convention eta < 0 holds.
    """
    per_region = []
    worst = 0.0
    for name, _ in field.regions:
        lam_max = float(theta_matrix(field, name).eigenvalues()[-1])
        per_region.append((name, lam_max))
        worst = max(worst, lam_max)
    eta = -worst if worst > 0.0 else -1e-12
    return FormBound(eta, tuple(per_region))


def bisect(f, lo, hi, tol):
    """Root of f on [lo, hi], given f(lo) <= 0 <= f(hi).

    Halves the bracket, keeping that sign pattern, until it is at most
    tol wide or its ends are adjacent floats (tol = 0 asks for the
    latter), and returns its midpoint.  A zero of f at either end or at a
    midpoint is returned as is.  Every step halves the bracket, so the
    loop ends.  Raises ValidationError when the ends break the sign
    pattern (a NaN included).
    """
    flo, fhi = f(lo), f(hi)
    if not (lo <= hi and flo <= 0.0 <= fhi):
        raise ValidationError(
            f"[{lo}, {hi}] brackets no root: f(lo) = {flo}, f(hi) = {fhi}"
        )
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if fmid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
