"""P1 finite elements on a disk + annulus with doubled interface traces.

The mesh is a structured polar triangulation of the disk r < R_out with a
polygonal interface ring at r = R.  Interface vertices carry TWO degrees
of freedom (inner trace, outer trace); triangles on the disk side
reference the inner copies, annulus triangles the outer copies, so the
function space is H^1 of the broken domain.  The quadratic form is

    sum_T int_T |grad f|^2  -  sum_edges int_e <Theta (f_i, f_e), (f_i, f_e)> ds

assembled with exact P1 edge mass (L/6) [[2, 1], [1, 2]] per interface
edge.  For a constrained coupling (beta == 0) the two traces are eliminated
through (1 + conj(g)/2) f_i = (1 - conj(g)/2) f_e, keeping whichever
trace has the larger constraint coefficient; the elimination is encoded
in a sparse map T with K_red = T^T K T, M_red = T^T M T.

Every pencil is real symmetric.  The phase of gamma only turns Theta_12
(free coupling) or the trace ratio (constrained coupling), and no
triangle touches both sides of the interface, so one unit phase
e^{i psi} on every exterior DOF leaves stiffness and mass unchanged and
removes that turn without moving the spectrum, as the radial layer's
real tridiagonal does.  The pencil is assembled in that gauge, and the
physical function of a reduced vector x is phase * (T x); psi = 0 for
real gamma.

Ring angular counts are powers of two, at least 8, clamped ring by ring
away from the interface so that the outer ring of two neighbours has one
to two times the count c of the inner one; a power of two in [c, 2c] is
c or 2c, so each strip is straight or doubling, and halving the target
width h roughly doubles every count.  The minimum triangle angle stays
above 20 degrees by construction and is measured, scale-free, not
assumed (MeshQualityFailure otherwise).
refine_mesh keeps the coarse vertex indices and appends the edge
midpoints, so coarse and refined P1 spaces nest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from . import core, radial
from .errors import ConvergenceFailure, MeshQualityFailure, ValidationError
from .report import SpectrumReport

ARPACK_SHIFT = -4.0  # default shift-invert target, deepened 4x until no eigenvalue is below it
MIN_ANGLE_DEG = 20.0


@dataclass(frozen=True)
class InterfaceMesh:
    """Triangulation with doubled vertices along the interface ring.

    vertices: (n, 2) coordinates (interface vertices appear twice, inner
    copy and outer copy at identical coordinates).
    triangles: (m, 3) vertex indices; triangles inside the interface use
    the inner copies, those outside the outer ones.
    interface_edges: (ne, 4) columns (i_inner, i_outer, j_inner, j_outer)
    for the edge from geometric node i to node j.
    outer_edges: (nb, 2) vertex indices on the outer boundary.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    interface_edges: np.ndarray
    outer_edges: np.ndarray

    @property
    def n_vertices(self):
        return self.vertices.shape[0]


def _pow2_count(ideal):
    """Closest power of two to ideal, at least 8."""
    return 8 if ideal <= 8 else 2 ** int(round(math.log2(ideal)))


def _ring_counts(radii, h, anchor, inward):
    """Power-of-two angular counts with ratios in {1, 2} between rings.

    anchor is the fixed count at the ring adjacent to the interface.  Every
    count is a power of two >= 8.  Inward, ring i gets between half and
    all of ring i + 1's count; outward, between all and twice ring i - 1's.
    """
    raw = [_pow2_count(2.0 * math.pi * r / h) for r in radii]
    counts = list(raw)
    if inward:
        counts[-1] = anchor
        for i in range(len(counts) - 2, -1, -1):
            # every count is >= 8, so none exceeds the next ring's
            c = min(counts[i], counts[i + 1])
            counts[i] = max(c, counts[i + 1] // 2, 8)
    else:
        counts[0] = anchor
        for i in range(1, len(counts)):
            c = max(counts[i], counts[i - 1])
            counts[i] = min(c, 2 * counts[i - 1])
    return counts


def _strip(a, b):
    """Triangles between the ring ids a and those of the next ring out, b.

    len(b) is len(a) or 2 len(a).  At each a0 (next a1) come (a0, b0, b1)
    and (a0, b1, a1), then (a1, b1, b2) when the count doubles.
    """
    s = len(b) // len(a)
    a1 = np.roll(a, -1)
    b0, b1, b2 = (np.roll(b, -k)[::s] for k in range(3))
    corners = [a, b0, b1, a, b1, a1] + ([a1, b1, b2] if s == 2 else [])
    return np.stack(corners, axis=1).reshape(-1, 3)


def build_mesh(R, R_out, h_target):
    """Structured polar mesh of the disk r < R_out with interface at r = R.

    Deterministic in its arguments.  Raises ValidationError when the
    triangle areas (about h_target**2 up to R_out**2) leave the normal
    float range, and MeshQualityFailure if any triangle angle falls below
    20 degrees (measured on the generated mesh, not assumed from the
    construction).
    """
    if not (0 < R < R_out):
        raise ValidationError(f"need 0 < R < R_out, got ({R}, {R_out})")
    if not (0 < h_target < R):
        raise ValidationError(f"need 0 < h_target < R, got {h_target}")
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    if not (tiny <= h_target * h_target and R_out * R_out <= huge):
        raise ValidationError(f"triangle areas leave the normal float range: need h_target**2 >= {tiny} "
                              f"and R_out**2 <= {huge}, got h_target={h_target}, R_out={R_out}")

    n_rad_in = max(2, round(R / h_target))
    n_rad_out = max(2, round((R_out - R) / h_target))
    radii_in = [R * j / n_rad_in for j in range(1, n_rad_in + 1)]
    radii_out = [R + (R_out - R) * j / n_rad_out for j in range(1, n_rad_out + 1)]
    n_interface = _pow2_count(2.0 * math.pi * R / h_target)
    counts_in = _ring_counts(radii_in, h_target, n_interface, inward=True)
    counts_out = _ring_counts([R] + radii_out, h_target, n_interface, inward=False)[1:]

    # the centre, then every ring as a run of indices; the outer copy of the
    # interface ring follows the inner one at the same coordinates
    rings = [*zip(radii_in, counts_in), (radii_in[-1], n_interface), *zip(radii_out, counts_out)]
    starts = np.cumsum([1] + [c for _, c in rings])
    ids = [np.arange(s, s + c) for s, (_, c) in zip(starts, rings)]
    angles = [2 * math.pi * np.arange(c) / c for _, c in rings]
    verts = [np.zeros((1, 2))] + [r * np.stack([np.cos(t), np.sin(t)], axis=1) for (r, _), t in zip(rings, angles)]

    fan = np.stack([np.zeros_like(ids[0]), ids[0], np.roll(ids[0], -1)], axis=1)
    n_in = len(radii_in)  # no strip joins the interface ring to its copy
    strips = [_strip(a, b) for j, (a, b) in enumerate(zip(ids, ids[1:])) if j != n_in - 1]
    inner, outer, last = ids[n_in - 1], ids[n_in], ids[-1]

    mesh = InterfaceMesh(
        vertices=np.concatenate(verts),
        triangles=np.concatenate([fan, *strips]).astype(np.int32),
        interface_edges=np.stack([inner, outer, np.roll(inner, -1), np.roll(outer, -1)], axis=1).astype(np.int32),
        outer_edges=np.stack([last, np.roll(last, -1)], axis=1).astype(np.int32),
    )
    q = min_angle_degrees(mesh)
    if not q >= MIN_ANGLE_DEG:
        raise MeshQualityFailure(f"minimum triangle angle {q:.2f} deg < {MIN_ANGLE_DEG}")
    return mesh


def min_angle_degrees(mesh):
    """Smallest triangle angle, measured on the vertices divided by their
    largest absolute coordinate, so the result does not depend on the
    mesh's scale; nan when they are all zero or one is not finite."""
    angles = []
    with np.errstate(all="ignore"):
        p = mesh.vertices[mesh.triangles] / np.max(np.abs(mesh.vertices))
        for i in range(3):
            u = p[:, (i + 1) % 3] - p[:, i]
            v = p[:, (i + 2) % 3] - p[:, i]
            cosang = np.einsum("ij,ij->i", u, v) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
            angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
    return float(np.min(angles))


def refine_mesh(mesh):
    """Uniform midpoint subdivision (each triangle into four).

    Midpoints are NOT snapped back to the circles, so the refined P1
    space contains the coarse one exactly; use this for nested-space
    (variational monotonicity) checks.  build_mesh at h/2 is the right
    tool when geometric accuracy matters.

    The coarse vertices keep their indices, so a coarse P1 vector is the
    head of its refined interpolant; the midpoints follow, one per coarse
    triangle edge, in the order the triangles first meet the edge.  Every
    interface and outer edge is a triangle edge and splits at its midpoint.
    """
    n = mesh.n_vertices
    tris = mesh.triangles.astype(np.int64)
    ends = np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)  # (a, b), (b, c), (c, a)
    keys, first, inverse = np.unique(ends[:, 0] * n + ends[:, 1], return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))  # edge index in order of first appearance
    lo, hi = ends[np.sort(first)].T
    verts = np.concatenate([mesh.vertices, 0.5 * (mesh.vertices[lo] + mesh.vertices[hi])])

    def mid(i, j):
        return n + rank[np.searchsorted(keys, np.minimum(i, j) * n + np.maximum(i, j))]

    a, b, c = tris.T
    ab, bc, ca = (n + rank[inverse]).reshape(-1, 3).T
    ii, io, ji, jo = mesh.interface_edges.astype(np.int64).T
    mi, mo = mid(ii, ji), mid(io, jo)
    i, j = mesh.outer_edges.astype(np.int64).T
    m = mid(i, j)
    return InterfaceMesh(
        vertices=verts,
        triangles=np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(-1, 3).astype(np.int32),
        interface_edges=np.stack([ii, io, mi, mo, mi, mo, ji, jo], axis=1).reshape(-1, 4).astype(np.int32),
        outer_edges=np.stack([i, m, m, j], axis=1).reshape(-1, 2).astype(np.int32),
    )


@dataclass(frozen=True)
class AssembledPencil:
    """Real stiffness/mass pair with the trace-constraint map and the gauge.

    K, M: full (doubled-trace) matrices, real symmetric CSR.
    T: real sparse map from reduced to full coefficients; identity for a
    free coupling.  The eigenvalue problem to solve is
    (T^T K T) x = lambda (T^T M T) x, which a diagonal unitary maps onto
    the reduced physical (Hermitian) pencil.
    phase: unit-modulus complex array over the full DOFs, 1 on the disk
    side and e^{i psi} on the annulus side (outer trace copies included),
    the gauge that makes the pencil real as radial makes its tridiagonal
    real; phase * (T x) is the physical function of x.
    """

    K: sp.csr_matrix
    M: sp.csr_matrix
    T: sp.csr_matrix
    phase: np.ndarray
    _reduced: list = dataclass_field(default_factory=list, init=False, repr=False, compare=False)

    @property
    def n_full(self):
        return self.K.shape[0]

    @property
    def n_reduced(self):
        return self.T.shape[1]

    def reduced(self):
        """(T^T K T, T^T M T), formed on the first call and kept."""
        if not self._reduced:
            self._reduced.extend((self.T.T @ A @ self.T).tocsr() for A in (self.K, self.M))
        return tuple(self._reduced)


def assemble(field, mesh):
    """Assemble the real quadratic-form pencil of the interaction operator."""
    n = mesh.n_vertices
    pts = mesh.vertices
    tris = mesh.triangles

    p = pts[tris]  # (m, 3, 2)
    x = p[..., 0]
    y = p[..., 1]
    bvec = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    cvec = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    det = bvec[:, 0] * cvec[:, 1] - bvec[:, 1] * cvec[:, 0]
    area = 0.5 * np.abs(det)
    if np.any(area <= 0):
        raise ValidationError("mesh contains degenerate triangles")

    k_loc = (
        np.einsum("ti,tj->tij", bvec, bvec) + np.einsum("ti,tj->tij", cvec, cvec)
    ) / (4.0 * area)[:, None, None]
    m_pat = (np.ones((3, 3)) + np.eye(3)) / 12.0
    m_loc = area[:, None, None] * m_pat

    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    K = sp.coo_matrix((k_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M = sp.coo_matrix((m_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()

    # the gauge e^{i psi} on the exterior DOFs turns r real: r is conj(Theta_12)
    # (free) or the trace ratio c_e / c_i (constrained; as conj(c_i / c_e), of
    # the same phase, when |c_e| > |c_i|); psi = 0 when r is real already
    theta = core.theta_matrix(field).entries
    if field.kind == core.CONSTRAINED:
        ci, ce = field.constraint_coefficients()
        keep_inner = abs(ci) >= abs(ce)
        r = ce / ci if keep_inner else (ci / ce).conjugate()
    else:
        r = theta[0, 1].conjugate()
    turn = r / abs(r) if r.imag != 0.0 else 1.0 + 0.0j
    theta = (theta * np.array([[1.0, turn], [turn.conjugate(), 1.0]])).real

    # interface term: K -= Theta[a, b] * edge mass on the trace pairs, with
    # entries in (edge, a, b, p, q) order and no block where Theta[a, b] = 0
    edges = mesh.interface_edges
    d = pts[edges[:, 2]] - pts[edges[:, 0]]
    s_edge = (np.sqrt(np.vecdot(d, d)) / 6.0)[:, None, None] * np.array([[2.0, 1.0], [1.0, 2.0]])
    dofs = edges.reshape(-1, 2, 2).transpose(0, 2, 1)  # [edge, a, p]: trace a at endpoint p
    shape = (len(edges), 2, 2, 2, 2)
    kv = -theta[None, :, :, None, None] * s_edge[:, None, None]
    kr = np.broadcast_to(dofs[:, :, None, :, None], shape)
    kc = np.broadcast_to(dofs[:, None, :, None, :], shape)
    nz = theta != 0
    if nz.any():
        coo = sp.coo_matrix((kv[:, nz].ravel(), (kr[:, nz].ravel(), kc[:, nz].ravel())), shape=(n, n))
        K = (K + coo.tocsr()).tocsr()

    T = sp.identity(n, format="csr")
    if field.kind == core.CONSTRAINED:
        T = _constraint_map(mesh, keep_inner, (r * turn.conjugate()).real)
    side = connected_components(M, directed=False)[1]  # no triangle spans the interface
    phase = np.where(np.isin(side, side[mesh.interface_edges[:, 1]]), turn, 1.0 + 0.0j)
    return AssembledPencil(K, M, T, phase)


def _constraint_map(mesh, keep_inner, ratio):
    """Sparse reduction map folding the constrained trace pairs.

    The kept DOF of each pair is the inner trace when keep_inner, else
    the outer one; the other one becomes ratio * kept.
    """
    n = mesh.n_vertices
    inner, outer = mesh.interface_edges.reshape(-1, 2).T  # (inner, outer) trace pairs
    dropped, kept = (outer, inner) if keep_inner else (inner, outer)
    keep = np.ones(n, dtype=bool)
    keep[dropped] = False
    col = np.cumsum(keep) - 1
    col[dropped] = col[kept]
    vals = np.where(keep, 1.0, ratio)
    return sp.coo_matrix((vals, (np.arange(n), col)), shape=(n, int(np.count_nonzero(keep)))).tocsr()


def shifted_inertia(K, M, s):
    """Number of eigenvalues of the pencil (K, M) below s, and the factor.

    Sylvester's law of inertia: with M positive definite, that number is
    the negative inertia of K - s M.  SuperLU factors it with diagonal
    pivots only, P (K - s M) P^T = L U, so diag(U) holds the pivots of an
    L D L^T factorization and their signs give the inertia.  Returns
    (count, SuperLU object).  Raises ConvergenceFailure when a pivot is
    zero or SuperLU had to leave the diagonal: the count is then unknown.
    """
    try:
        lu = spla.splu((K - s * M).tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU met an exactly zero pivot
        raise ConvergenceFailure(f"no inertia for K - s M at s={s}: {exc}") from exc
    pivots = lu.U.diagonal()
    if not np.array_equal(lu.perm_r, lu.perm_c) or np.any(pivots == 0.0):
        raise ConvergenceFailure(f"no inertia for K - s M at s={s}: off-diagonal or zero pivot")
    return int(np.count_nonzero(pivots < 0.0)), lu


def lowest_eigenpairs(pencil, count, shift=ARPACK_SHIFT, census=None):
    """Lowest eigenpairs of the reduced pencil, as physical full-DOF vectors.

    ARPACK shift-invert at a shift that shifted_inertia certifies is
    below every eigenvalue, reusing that factorization.  The shift starts
    at ``shift`` and moves to min(4 shift, ARPACK_SHIFT) while eigenvalues
    lie below it: always down, at least 4x deeper once negative, so the
    loop ends at the latest past the Gershgorin bound lambda_1 >=
    -||K||_inf / lambda_min(M), where lambda_min(M) >= min(lumped mass) / 4 for P1.

    A single Krylov start vector sees one copy of an exactly degenerate
    eigenvalue (the m = +-1 pairs of the circle), so ARPACK may skip the
    other.  The count below the top returned value (less a small delta)
    must therefore equal the number returned below it, and every pair
    must pass the residual check ||K x - lambda M x|| <= 1e-8 ||K x||.
    Otherwise the pairs below the top that pass are kept and the rest
    are solved again with those deflated, for at most count + 1 passes.
    census = (s, n) says n eigenvalues lie below s; when n == count,
    count converged pairs below s are all of them: no count at the top.
    ValidationError when count is not below n - 2 for n reduced unknowns.
    """
    K_r, M_r = pencil.reduced()
    nr = K_r.shape[0]
    if count >= nr - 2:
        raise ValidationError(f"ARPACK finds fewer than n - 2 = {nr - 2} eigenpairs, asked for {count}")
    lumped = pencil.T.power(2).T @ np.asarray(pencil.M.sum(axis=1)).ravel()
    floor = -4.0 * abs(K_r).sum(axis=1).max() / lumped.min()
    sigma = shift
    while True:
        n_below, lu = shifted_inertia(K_r, M_r, sigma)
        if n_below == 0:
            break
        if sigma < floor:
            raise ConvergenceFailure(
                f"{n_below} eigenvalues below the Gershgorin bound {floor:.3e}")
        sigma = min(4.0 * sigma, ARPACK_SHIFT)
    vals = np.empty(0)
    vecs = np.empty((nr, 0))
    guard = 0
    for _ in range(count + 1):
        new_vals, new_vecs = _deflated_arpack(K_r, M_r, sigma, lu, count + guard - len(vals), vecs)
        vals = np.concatenate([vals, new_vals])
        vecs = np.hstack([vecs, new_vecs])
        order = np.argsort(vals)[:count]
        vals, vecs = vals[order], vecs[:, order]
        top = vals[-1] - 1e-8 * max(1.0, abs(vals[-1]))
        below = vals < top
        converged = _relative_residuals(K_r, M_r, vals, vecs) <= 1e-8
        counted = census is not None and census[1] == count and vals[-1] < census[0]
        if converged.all() and (counted or shifted_inertia(K_r, M_r, top)[0] == np.count_nonzero(below)):
            break
        # keep what is certified; solve for the rest with it deflated and
        # one guard pair, since ARPACK can stop with a residual near 1e-8
        # on a wanted value whose degenerate twin is not wanted
        vals, vecs = vals[below & converged], vecs[:, below & converged]
        guard = 1
    else:
        raise ConvergenceFailure(f"ARPACK left eigenpairs below {top:.6e} uncertified")
    return [(float(lam), pencil.phase * (pencil.T @ vecs[:, i])) for i, lam in enumerate(vals)]


def _relative_residuals(K_r, M_r, vals, vecs):
    """||K x - lambda M x|| / (||K x|| + (1 + |lambda|) ||M x||) per pair.

    The mass-norm term keeps exact zero modes, where ||K x|| itself
    vanishes, from being divided by zero.
    """
    kx = K_r @ vecs
    mx = M_r @ vecs
    scale = np.linalg.norm(kx, axis=0) + (1.0 + np.abs(vals)) * np.linalg.norm(mx, axis=0)
    return np.linalg.norm(kx - mx * vals, axis=0) / scale


def _deflated_arpack(K_r, M_r, sigma, lu, k, found):
    """Lowest k eigenpairs M-orthogonal to the columns of ``found``.

    lu factors K - sigma M with sigma below the spectrum, so the largest
    eigenvalues of (K - sigma M)^-1 M are the lowest of the pencil.
    With no columns in found the projection is z - 0 = z, so lu.solve
    serves as it is.
    """
    rng = np.random.default_rng(0)  # deterministic, and without the mesh's symmetry
    matvec, v0 = lu.solve, rng.standard_normal(K_r.shape[0])
    if found.shape[1]:
        m_found = M_r @ found
        gram = found.T @ m_found

        def deflate(z):  # M-orthogonal projection onto the complement of found
            return z - found @ np.linalg.solve(gram, m_found.T @ z)

        matvec, v0 = lambda y: deflate(lu.solve(y)), deflate(v0)
    op_inv = spla.LinearOperator(K_r.shape, matvec=matvec, dtype=K_r.dtype)
    try:
        return spla.eigsh(K_r, k=k, M=M_r, sigma=sigma, which="LM", v0=v0, OPinv=op_inv, rng=rng)
    except spla.ArpackError as exc:  # ArpackNoConvergence among them
        raise ConvergenceFailure(f"ARPACK failed at sigma={sigma}: {exc}") from exc


def negative_spectrum_fem(field, R, R_out, h, count=6):
    """Negative FEM spectrum with an (h, R_out) refinement ladder.

    Counts first: N is the inertia count of the finest pencil below
    -radial.NEG_TOL, so a Neumann zero mode is not a bound state.  Rungs
    at widths (h, h/2, h/4) and a wide run at (h/2, 1.5 R_out), which
    measures the domain truncation, then solve k = min(N, count) pairs
    each, none when k = 0, from the shift lambda_1 - 0.1 max(1, |lambda_1|)
    of the run before (rung h from ARPACK_SHIFT); the count certifies the
    finest rung when k = N.  Values are Richardson extrapolated, and
    truncated_count says N > count.
    """
    finest = assemble(field, build_mesh(R, R_out, h / 4))
    n_neg = shifted_inertia(*finest.reduced(), -radial.NEG_TOL)[0]
    k = min(n_neg, count)
    runs, sizes, shift = [], [], ARPACK_SHIFT
    for lvl, r_out in ((0, R_out), (1, R_out), (2, R_out), (1, 1.5 * R_out)):
        pencil = finest if lvl == 2 else assemble(field, build_mesh(R, r_out, h / 2**lvl))
        vals = []
        if k:
            census = (-radial.NEG_TOL, n_neg) if pencil is finest else None
            vals = [lam for lam, _ in lowest_eigenpairs(pencil, k, shift, census)]
            shift = vals[0] - 0.1 * max(1.0, abs(vals[0]))
        runs.append(vals)
        sizes.append(pencil.n_reduced)
    ladders, wide = runs[:3], runs[3]
    fits = [radial.richardson([ladder[i] for ladder in ladders]) for i in range(k)]
    return SpectrumReport(
        eigenvalues=tuple(ext for ext, _ in fits),
        N=n_neg,
        tolerances={"h": h, "count": count},
        convergence={
            "h_ladder": [h, h / 2, h / 4],
            "raw": ladders,
            "reduced_sizes": sizes[:3],
            "R_out": R_out,
            "R_out_check": 1.5 * R_out,
            "wide_values": wide,
            "error_bars": [err + abs(wide[i] - ladders[1][i]) for i, (_, err) in enumerate(fits)],
            "truncated_count": bool(n_neg > count),
        },
    )
