"""Radially reduced spectra: sphere matching and finite differences.

Geometry: a disk (dimension 2) or ball (dimension 3) of radius R inside a
concentric outer boundary at R_out, with the interaction supported on the
circle/sphere r = R.  Separation of variables reduces the operator to one
radial problem per angular mode:

    dimension 2, mode m:   -psi'' - psi'/r + m^2/r^2 psi   (weight r)
    dimension 3, mode l:   -u'' + l(l+1)/r^2 u  with u = r psi (weight 1)

The discretization is a conservative control-volume scheme: stiffness is
assembled face by face as sum_faces (w_face/h) |psi_{j+1} - psi_j|^2, so
the matrix pencil (K, W) is Hermitian tridiagonal with diagonal positive
weight W, and scipy's banded solver returns every eigenvalue with a
guaranteed count.  The interface at r = R carries two trace unknowns
(inner a, outer b); the surface term subtracts w(R) <Theta_eff v, v> from
the form, where Theta_eff is the coupling matrix (plus diag(1/R, -1/R) in
the u variable, which absorbs the substitution's boundary terms).  On a
constrained region the traces are folded onto the single unknown t via
(a, b) = (c_i, c_e) t before solving; the resulting jump row reproduces

    (1 - gamma/2) psi'(R-) - (1 + gamma/2) psi'(R+) = (alpha/2)(a + b)

exactly, and its 3-D u-variant with the extra 1/R terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eig_banded

from . import core
from .errors import (
    ConvergenceFailure,
    SingularInterfaceStencil,
    ValidationError,
)
from .report import SpectrumReport

OUTER_BCS = ("neumann", "dirichlet")
NEG_TOL = 1e-10


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


@dataclass(frozen=True)
class RadialSpectrum:
    """Negative eigenvalues of one angular mode (no multiplicity applied)."""

    eigenvalues: tuple
    mode: int
    grid: dict


def sphere_swave_matching(alpha_tilde, R):
    """Bound state of the attractive delta sphere in 3-D, s-wave sector.

    The matching of u = r psi (sinh inside, decaying exponential outside)
    gives the secular equation

        S(k) = (alpha_tilde / 2) (1 - e^{-2kR}) - k = 0,   k > 0.

    S is concave with S(0) = 0 and S'(0) = alpha_tilde R - 1, so a
    positive root exists iff alpha_tilde * R > 1 and is then unique.
    Returns (count, eigenvalue-or-None); the root is bisected to 1e-12.
    """
    at = float(alpha_tilde)
    R = float(R)
    if at < 0 or R <= 0:
        raise ValidationError(f"need alpha_tilde >= 0 and R > 0, got ({at}, {R})")
    if at * R <= 1.0:
        return 0, None

    def S(k):
        return 0.5 * at * (1.0 - math.exp(-2.0 * k * R)) - k

    hi = 0.5 * at  # S(at/2) < 0 strictly
    lo = hi
    for _ in range(200):
        lo *= 0.5
        if S(lo) > 0.0:
            break
    else:
        raise ConvergenceFailure("no positive bracket for the sphere matching root")
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if S(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    k = 0.5 * (lo + hi)
    return 1, -k * k


def swave_threshold(R=1.0, lo=0.9, hi=1.1, tol=1e-10):
    """Localize the critical alpha_tilde*R where the sphere state appears.

    Bisection on the bound-state count as a function of the product
    xi = alpha_tilde * R; returns the transition abscissa to width tol.
    """
    if not (lo < hi):
        raise ValidationError(f"need lo < hi, got ({lo}, {hi})")

    def has_state(xi):
        return sphere_swave_matching(xi / R, R)[0] > 0

    if has_state(lo) or not has_state(hi):
        raise ValidationError(f"transition not bracketed by ({lo}, {hi})")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if has_state(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _coupling_block(rc, geom):
    """w(R) * Theta_eff for the interface block of the form."""
    field = core.CouplingField((("interface", rc),))
    theta = core.theta_matrix(field).entries.copy()
    if geom.dimension == 3:
        # u = r psi picks up boundary terms +(|b_u|^2 - |a_u|^2)/R
        theta[0, 0] += 1.0 / geom.R
        theta[1, 1] -= 1.0 / geom.R
        w_R = 1.0
    else:
        w_R = geom.R
    return w_R * theta


def _cell_mass(lo_edge, hi_edge, dim2):
    """Integral of the weight over one control cell (exact)."""
    if dim2:
        return 0.5 * (hi_edge * hi_edge - lo_edge * lo_edge)  # integral of r dr
    return hi_edge - lo_edge


def radial_fd_spectrum(geom, field, n_grid):
    """Negative eigenvalues of one angular mode by banded FD.

    n_grid is the number of subintervals on EACH side of the interface,
    so doubling n_grid halves both mesh widths exactly (clean Richardson
    ladders).  Minimum 64.  Returns a RadialSpectrum for geom.mode.

    Eigenvalues above -NEG_TOL are treated as nonnegative: a discrete
    kernel (e.g. the constant state of an uncoupled Neumann problem)
    reappears at the 1e-13 level in floating point and must not be
    counted as a bound state.
    """
    lam = radial_mode_eigenvalues(geom, field, n_grid)
    neg = tuple(float(x) for x in lam[lam < -NEG_TOL])
    return RadialSpectrum(
        neg,
        geom.mode,
        {
            "n_grid": int(n_grid),
            "h_inner": geom.R / n_grid,
            "h_outer": (geom.R_out - geom.R) / n_grid,
            "outer_bc": geom.outer_bc,
            "dimension": geom.dimension,
            "size": int(len(lam)),
        },
    )


def radial_mode_eigenvalues(geom, field, n_grid, count=None):
    """All discrete eigenvalues (ascending) of one angular mode.

    The comparison harness needs the full discrete spectrum, not just
    the negative part, because variational eigenvalue orderings hold for
    every index of the shared nodal space.  Returns the lowest ``count``
    values, or all of them when count is None.
    """
    if n_grid < 64:
        raise ValidationError(f"n_grid must be at least 64, got {n_grid}")
    rc = field.single
    if rc.kind == core.FREE and rc.beta == 0.0:
        raise SingularInterfaceStencil(
            "free-trace interface with beta == 0: the derivative elimination "
            "system is singular"
        )
    diag, off, weights = _assemble_radial(geom, rc, n_grid)
    lam = _banded_eigenvalues(diag, off, weights)
    return lam if count is None else lam[: int(count)]


def _assemble_radial(geom, rc, n_grid):
    """Hermitian tridiagonal pencil for one angular mode.

    Returns (diag, offdiag, weights) with offdiag[i] = K[i, i+1].
    Node layout: inner nodes (ascending radius, last one is the inner
    trace a), then outer nodes (first one is the outer trace b).
    """
    dim2 = geom.dimension == 2
    R, R_out, mode = geom.R, geom.R_out, geom.mode
    n1 = n2 = int(n_grid)
    h1 = R / n1
    h2 = (R_out - R) / n2
    c_cent = mode * mode if dim2 else mode * (mode + 1)

    # in 2-D only the axisymmetric mode keeps the origin node; in the u
    # variable (3-D) u(0) = 0 always
    keep_origin = dim2 and mode == 0
    j0 = 0 if keep_origin else 1
    r_in = h1 * np.arange(j0, n1 + 1)
    keep_outer_end = geom.outer_bc == "neumann"
    jN = n2 if keep_outer_end else n2 - 1
    r_out = R + h2 * np.arange(0, jN + 1)

    n_in, n_out = len(r_in), len(r_out)
    n = n_in + n_out
    diag = np.zeros(n)
    off = np.zeros(n - 1, dtype=complex)
    weights = np.zeros(n)

    def wface(r):
        return r if dim2 else 1.0

    # faces: inner side (including the face to the eliminated origin node
    # when psi(0) = 0 / u(0) = 0 holds: its stiffness lands on the diagonal)
    if not keep_origin:
        f = wface(0.5 * h1) / h1
        diag[0] += f
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
        f = wface(R_out - 0.5 * h2) / h2
        diag[n - 1] += f

    # control-cell masses (exact integrals of the weight)
    for i, r in enumerate(r_in):
        lo = max(0.0, r - 0.5 * h1)
        hi = min(R, r + 0.5 * h1)
        weights[i] = _cell_mass(lo, hi, dim2)
    for i, r in enumerate(r_out):
        lo = max(R, r - 0.5 * h2)
        hi = min(R_out, r + 0.5 * h2)
        weights[n_in + i] = _cell_mass(lo, hi, dim2)

    # centrifugal term c/r^2, lumped on cells (skipped at the origin where
    # it only appears for modes that were eliminated by the r=0 condition)
    if c_cent:
        with np.errstate(divide="ignore"):
            rads = np.concatenate([r_in, r_out])
            diag += c_cent * weights / rads**2

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
    ci, ce = rc.constraint_coefficients()  # c_i + c_e = 2: never both zero
    ib = ia + 1
    n = len(diag)
    nd = np.zeros(n - 1)
    no = np.zeros(n - 2, dtype=complex)
    nw = np.zeros(n - 1)
    nd[:ia] = diag[:ia]
    nd[ia + 1 :] = diag[ib + 1 :]
    nw[:ia] = weights[:ia]
    nw[ia + 1 :] = weights[ib + 1 :]
    no[: ia - 1] = off[: ia - 1]
    no[ia + 1 :] = off[ib + 1 :]
    # t row: quadratic form of the (a, b) block under (a, b) = (ci, ce) t
    q = (
        abs(ci) ** 2 * diag[ia]
        + abs(ce) ** 2 * diag[ib]
        + 2.0 * (np.conj(ci) * off[ia] * ce).real
    )
    nd[ia] = q
    nw[ia] = abs(ci) ** 2 * weights[ia] + abs(ce) ** 2 * weights[ib]
    if ia > 0:
        no[ia - 1] = off[ia - 1] * ci  # K[u_{last-1}, t]
    if ib < n - 1:
        no[ia] = np.conj(ce) * off[ib]  # K[t, v_1]
    return nd, no, nw


def _banded_eigenvalues(diag, off, weights):
    """All eigenvalues of K x = lambda W x via W^{-1/2} symmetrization."""
    s = 1.0 / np.sqrt(weights)
    band = np.zeros((2, len(diag)), dtype=complex)
    band[1] = diag * s * s
    band[0, 1:] = off * s[:-1] * s[1:]
    return eig_banded(band, lower=False, eigvals_only=True)


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


def assemble_mode_sum(geom, field, modes, n_grid):
    """Merge per-mode negative spectra with angular multiplicities.

    Multiplicity: 1 for the axisymmetric mode, 2 per mode m >= 1 in 2-D,
    2l + 1 in 3-D.  ``modes`` may be an explicit iterable or None, in
    which case modes are swept upward until the first one with no
    negative eigenvalue (the centrifugal term is monotone in the mode, so
    higher modes are then empty too).
    """
    per_mode = {}
    merged = []
    if modes is None:
        mode = 0
        while True:
            spec = radial_fd_spectrum(replace(geom, mode=mode), field, n_grid)
            per_mode[mode] = spec.eigenvalues
            if not spec.eigenvalues:
                break
            _merge(merged, spec.eigenvalues, mode, geom.dimension)
            mode += 1
            if mode > 256:
                raise ConvergenceFailure("mode sweep did not terminate by mode 256")
    else:
        for mode in modes:
            spec = radial_fd_spectrum(replace(geom, mode=int(mode)), field, n_grid)
            per_mode[int(mode)] = spec.eigenvalues
            _merge(merged, spec.eigenvalues, int(mode), geom.dimension)
    merged.sort()
    return SpectrumReport(
        eigenvalues=tuple(merged),
        N=len(merged),
        tolerances={"n_grid": int(n_grid)},
        convergence={
            "per_mode": {str(m): list(v) for m, v in per_mode.items()},
            "outer_bc": geom.outer_bc,
            "R_out": geom.R_out,
            "dimension": geom.dimension,
        },
    )


def _merge(merged, eigenvalues, mode, dimension):
    if dimension == 2:
        mult = 1 if mode == 0 else 2
    else:
        mult = 2 * mode + 1
    for lam in eigenvalues:
        merged.extend([lam] * mult)
