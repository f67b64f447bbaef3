"""P1 finite elements on a disk + annulus with doubled interface traces.

The mesh is a structured polar triangulation of the disk r < R_out with a
polygonal interface ring at r = R.  Interface vertices carry TWO degrees
of freedom (inner trace, outer trace); triangles on the disk side
reference the inner copies, annulus triangles the outer copies, so the
function space is H^1 of the broken domain.  The quadratic form is

    sum_T int_T |grad f|^2  -  sum_edges int_e <Theta (f_i, f_e), (f_i, f_e)> ds

assembled with exact P1 edge mass (L/6) [[2, 1], [1, 2]] per interface
edge.  On constrained regions (beta == 0) the two traces are eliminated
through (1 + conj(g)/2) f_i = (1 - conj(g)/2) f_e, keeping whichever
trace has the larger constraint coefficient; the elimination is encoded
in a sparse map T with K_red = T^H K T, M_red = T^H M T, preserving
Hermiticity.

Ring angular counts are powers of two that double (at most) from one ring
to the next, so coarse-to-fine strips need only one transition pattern
and halving the target width h roughly doubles every count; the minimum
triangle angle stays above 20 degrees by construction and is measured,
not assumed (MeshQualityFailure otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import core
from .errors import (
    ConvergenceFailure,
    MeshQualityFailure,
    ParseError,
    UnknownRegionTag,
    ValidationError,
)
from .report import SpectrumReport

DENSE_LIMIT = 5000
ARPACK_SHIFT = -4.0  # first shift-invert target, deepened 4x while it crowds the bottom
MIN_ANGLE_DEG = 20.0


@dataclass(frozen=True)
class InterfaceMesh:
    """Triangulation with doubled vertices along the interface ring.

    vertices: (n, 2) coordinates (interface vertices appear twice, inner
    copy and outer copy at identical coordinates).
    triangles: (m, 3) vertex indices; tri_region[t] is "inner"/"outer".
    interface_edges: (ne, 4) columns (i_inner, i_outer, j_inner, j_outer)
    for the edge from geometric node i to node j; edge_region[e] names
    the coupling region of the edge.
    outer_edges: (nb, 2) vertex indices on the outer boundary.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    tri_region: tuple
    interface_edges: np.ndarray
    edge_region: tuple
    outer_edges: np.ndarray
    meta: dict

    @property
    def n_vertices(self):
        return self.vertices.shape[0]


def _pow2_count(ideal, lo=8):
    """Closest power of two to ideal, at least lo."""
    if ideal <= lo:
        return lo
    return max(lo, 2 ** int(round(math.log2(ideal))))


def _ring_counts(radii, h, anchor, inward):
    """Power-of-two angular counts with ratios in {1, 2} between rings.

    anchor is the fixed count at the ring adjacent to the interface.
    """
    raw = [_pow2_count(2.0 * math.pi * r / h) for r in radii]
    counts = list(raw)
    if inward:
        counts[-1] = anchor
        for i in range(len(counts) - 2, -1, -1):
            c = min(counts[i], counts[i + 1])
            counts[i] = max(c, counts[i + 1] // 2, 8)
            if counts[i] > counts[i + 1]:
                counts[i] = counts[i + 1]
    else:
        counts[0] = anchor
        for i in range(1, len(counts)):
            c = max(counts[i], counts[i - 1])
            counts[i] = min(c, 2 * counts[i - 1])
    return counts


def build_mesh(R, R_out, h_target, region="interface"):
    """Structured polar mesh of the disk r < R_out with interface at r = R.

    Deterministic in its arguments.  Raises MeshQualityFailure if any
    triangle angle falls below 20 degrees (measured on the generated
    mesh, not assumed from the construction).
    """
    if not (0 < R < R_out):
        raise ValidationError(f"need 0 < R < R_out, got ({R}, {R_out})")
    if not (0 < h_target < R):
        raise ValidationError(f"need 0 < h_target < R, got {h_target}")

    n_rad_in = max(2, round(R / h_target))
    n_rad_out = max(2, round((R_out - R) / h_target))
    radii_in = [R * j / n_rad_in for j in range(1, n_rad_in + 1)]
    radii_out = [R + (R_out - R) * j / n_rad_out for j in range(1, n_rad_out + 1)]
    n_interface = _pow2_count(2.0 * math.pi * R / h_target)
    counts_in = _ring_counts(radii_in, h_target, n_interface, inward=True)
    counts_out = _ring_counts([R] + radii_out, h_target, n_interface, inward=False)[1:]

    verts = [(0.0, 0.0)]
    ring_ids_in = []
    for r, c in zip(radii_in, counts_in):
        ids = list(range(len(verts), len(verts) + c))
        verts.extend(
            (r * math.cos(2 * math.pi * i / c), r * math.sin(2 * math.pi * i / c))
            for i in range(c)
        )
        ring_ids_in.append(ids)
    # outer copy of the interface ring: same coordinates, fresh indices
    inner_iface = ring_ids_in[-1]
    outer_iface = list(range(len(verts), len(verts) + n_interface))
    verts.extend(verts[i] for i in inner_iface)
    ring_ids_out = [outer_iface]
    for r, c in zip(radii_out, counts_out):
        ids = list(range(len(verts), len(verts) + c))
        verts.extend(
            (r * math.cos(2 * math.pi * i / c), r * math.sin(2 * math.pi * i / c))
            for i in range(c)
        )
        ring_ids_out.append(ids)

    tris = []
    regions = []

    def strip(inner_ids, outer_ids, tag):
        ci, co = len(inner_ids), len(outer_ids)
        if co == ci:
            for i in range(ci):
                a0, a1 = inner_ids[i], inner_ids[(i + 1) % ci]
                b0, b1 = outer_ids[i], outer_ids[(i + 1) % co]
                tris.append((a0, b0, b1))
                tris.append((a0, b1, a1))
                regions.extend([tag, tag])
        elif co == 2 * ci:
            for i in range(ci):
                a0, a1 = inner_ids[i], inner_ids[(i + 1) % ci]
                b0, b1, b2 = (
                    outer_ids[2 * i],
                    outer_ids[2 * i + 1],
                    outer_ids[(2 * i + 2) % co],
                )
                tris.append((a0, b0, b1))
                tris.append((a0, b1, a1))
                tris.append((a1, b1, b2))
                regions.extend([tag, tag, tag])
        else:
            raise ValidationError(
                f"ring counts {ci} -> {co} differ by more than a factor 2"
            )

    c1 = counts_in[0]
    for i in range(c1):
        tris.append((0, ring_ids_in[0][i], ring_ids_in[0][(i + 1) % c1]))
        regions.append("inner")
    for j in range(len(ring_ids_in) - 1):
        strip(ring_ids_in[j], ring_ids_in[j + 1], "inner")
    for j in range(len(ring_ids_out) - 1):
        strip(ring_ids_out[j], ring_ids_out[j + 1], "outer")

    iface_edges = [
        (
            inner_iface[i],
            outer_iface[i],
            inner_iface[(i + 1) % n_interface],
            outer_iface[(i + 1) % n_interface],
        )
        for i in range(n_interface)
    ]
    last = ring_ids_out[-1]
    outer_edges = [(last[i], last[(i + 1) % len(last)]) for i in range(len(last))]

    mesh = InterfaceMesh(
        vertices=np.asarray(verts, dtype=float),
        triangles=np.asarray(tris, dtype=np.int32),
        tri_region=tuple(regions),
        interface_edges=np.asarray(iface_edges, dtype=np.int32),
        edge_region=tuple(region for _ in iface_edges),
        outer_edges=np.asarray(outer_edges, dtype=np.int32),
        meta={"R": float(R), "R_out": float(R_out), "h_target": float(h_target)},
    )
    q = min_angle_degrees(mesh)
    if q < MIN_ANGLE_DEG:
        raise MeshQualityFailure(f"minimum triangle angle {q:.2f} deg < {MIN_ANGLE_DEG}")
    return mesh


def min_angle_degrees(mesh):
    p = mesh.vertices[mesh.triangles]
    angles = []
    for i in range(3):
        u = p[:, (i + 1) % 3] - p[:, i]
        v = p[:, (i + 2) % 3] - p[:, i]
        cosang = np.einsum("ij,ij->i", u, v) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        )
        angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
    return float(np.min(angles))


def refine_mesh(mesh):
    """Uniform midpoint subdivision (each triangle into four).

    Midpoints are NOT snapped back to the circles, so the refined P1
    space contains the coarse one exactly; use this for nested-space
    (variational monotonicity) checks.  build_mesh at h/2 is the right
    tool when geometric accuracy matters.
    """
    verts = [tuple(v) for v in mesh.vertices]
    midpoint = {}

    def mid(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoint:
            midpoint[key] = len(verts)
            verts.append(
                (
                    0.5 * (verts[i][0] + verts[j][0]),
                    0.5 * (verts[i][1] + verts[j][1]),
                )
            )
        return midpoint[key]

    tris = []
    regions = []
    for (a, b, c), tag in zip(mesh.triangles, mesh.tri_region):
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        tris.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
        regions.extend([tag] * 4)

    iface = []
    etags = []
    for (ii, io, ji, jo), tag in zip(mesh.interface_edges, mesh.edge_region):
        mi = mid(ii, ji)
        mo = mid(io, jo)
        iface.append((ii, io, mi, mo))
        iface.append((mi, mo, ji, jo))
        etags.extend([tag, tag])
    outer = []
    for i, j in mesh.outer_edges:
        m = mid(i, j)
        outer.append((i, m))
        outer.append((m, j))

    return InterfaceMesh(
        vertices=np.asarray(verts, dtype=float),
        triangles=np.asarray(tris, dtype=np.int32),
        tri_region=tuple(regions),
        interface_edges=np.asarray(iface, dtype=np.int32),
        edge_region=tuple(etags),
        outer_edges=np.asarray(outer, dtype=np.int32),
        meta={**mesh.meta, "refined": mesh.meta.get("refined", 0) + 1},
    )


@dataclass(frozen=True)
class AssembledPencil:
    """Stiffness/mass pair with the trace-constraint map.

    K, M: full (doubled-trace) matrices, Hermitian CSR.
    T: sparse map from reduced to full coefficients; identity when no
    region is constrained.  The eigenvalue problem to solve is
    (T^H K T) x = lambda (T^H M T) x.
    """

    K: sp.csr_matrix
    M: sp.csr_matrix
    T: sp.csr_matrix
    meta: dict

    @property
    def n_full(self):
        return self.K.shape[0]

    @property
    def n_reduced(self):
        return self.T.shape[1]

    def reduced(self):
        TH = self.T.conj().T
        return (TH @ self.K @ self.T).tocsr(), (TH @ self.M @ self.T).tocsr()


def assemble(field, mesh):
    """Assemble the quadratic-form pencil of the interaction operator."""
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
    K = sp.coo_matrix((k_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr().astype(complex)
    M = sp.coo_matrix((m_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr().astype(complex)

    # interface term: K -= Theta[a, b] * edge mass on the trace pairs
    names = set(field.names())
    kr, kc, kv = [], [], []
    for (ii, io, ji, jo), tag in zip(mesh.interface_edges, mesh.edge_region):
        if tag not in names:
            raise UnknownRegionTag(f"mesh edge region {tag!r} not in coupling field")
        theta = core.theta_matrix(field, tag).entries
        L = float(np.linalg.norm(pts[ji] - pts[ii]))
        s_edge = (L / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
        dofs = ((ii, io), (ji, jo))  # endpoint p -> (inner DOF, outer DOF)
        for a in (0, 1):
            for b in (0, 1):
                if theta[a, b] == 0:
                    continue
                for pp in (0, 1):
                    for qq in (0, 1):
                        kr.append(dofs[pp][a])
                        kc.append(dofs[qq][b])
                        kv.append(-theta[a, b] * s_edge[pp, qq])
    if kv:
        K = (K + sp.coo_matrix((kv, (kr, kc)), shape=(n, n)).tocsr()).tocsr()

    T = _constraint_map(field, mesh)
    return AssembledPencil(K, M, T, {"n_vertices": n, "regions": sorted(names)})


def _constraint_map(field, mesh):
    """Sparse reduction map folding constrained trace pairs.

    On a constrained region the admissible pairs are (f_i, f_e) =
    (c_i, c_e) t; the kept DOF is the trace with the larger coefficient,
    the other one becomes ratio * kept.
    """
    n = mesh.n_vertices
    pair_constraint = {}
    problems = []
    for (ii, io, ji, jo), tag in zip(mesh.interface_edges, mesh.edge_region):
        rc = field.coupling(tag)
        if rc.kind != core.CONSTRAINED:
            continue
        ci, ce = rc.constraint_coefficients()
        for pair in ((ii, io), (ji, jo)):
            old = pair_constraint.get(pair)
            if old is not None and old != (ci, ce):
                problems.append(
                    f"vertex pair {pair} receives conflicting constraints from "
                    "adjacent regions"
                )
            pair_constraint[pair] = (ci, ce)
    if problems:
        raise ValidationError(sorted(set(problems)))
    if not pair_constraint:
        return sp.identity(n, dtype=complex, format="csr")

    eliminated = {}
    for (vi, ve), (ci, ce) in pair_constraint.items():
        if abs(ci) >= abs(ce):
            eliminated[ve] = (vi, ce / ci)  # f_e = (c_e / c_i) f_i
        else:
            eliminated[vi] = (ve, ci / ce)  # f_i = (c_i / c_e) f_e
    kept = [v for v in range(n) if v not in eliminated]
    col_of = {v: j for j, v in enumerate(kept)}
    rows, cols, vals = [], [], []
    for v in kept:
        rows.append(v)
        cols.append(col_of[v])
        vals.append(1.0)
    for v, (w, ratio) in eliminated.items():
        rows.append(v)
        cols.append(col_of[w])
        vals.append(ratio)
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, len(kept)), dtype=complex).tocsr()


def lowest_eigenpairs(pencil, count):
    """Lowest eigenpairs of the reduced pencil, expanded to full DOFs.

    Dense generalized Hermitian solve up to DENSE_LIMIT reduced unknowns,
    ARPACK shift-invert beyond (deterministic start vector).  Residuals
    are checked: ||K x - lambda M x|| <= 1e-8 ||K x||.
    """
    K_r, M_r = pencil.reduced()
    if K_r.imag.count_nonzero() == 0:
        K_r, M_r = K_r.real, M_r.real
    nr = K_r.shape[0]
    count = min(count, nr)
    if nr <= DENSE_LIMIT:
        vals, vecs = scipy.linalg.eigh(
            K_r.toarray(), M_r.toarray(), subset_by_index=[0, count - 1]
        )
    else:
        vals, vecs = _sparse_lowest(K_r, M_r, count)
    out = []
    for i in range(count):
        x = vecs[:, i]
        kx = K_r @ x
        mx = M_r @ x
        r = kx - vals[i] * mx
        # scale includes a mass-norm floor so exact zero modes (where
        # ||K x|| itself vanishes) are not divided by zero
        scale = np.linalg.norm(kx) + (1.0 + abs(vals[i])) * np.linalg.norm(mx)
        if np.linalg.norm(r) > 1e-8 * scale:
            raise ConvergenceFailure(
                f"eigenpair {i} residual {np.linalg.norm(r) / scale:.2e} > 1e-08"
            )
        out.append((float(vals[i]), pencil.T @ x))
    return out


def _sparse_lowest(K_r, M_r, count):
    nr = K_r.shape[0]
    v0 = np.ones(nr)
    sigma = ARPACK_SHIFT
    for _ in range(6):
        try:
            vals, vecs = spla.eigsh(K_r, k=count, M=M_r, sigma=sigma, which="LM", v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceFailure(f"ARPACK did not converge at sigma={sigma}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        # if the deepest value crowds the shift, the true bottom may lie
        # below the window: deepen and retry
        if vals[0] > 0.7 * sigma:
            return vals, vecs
        sigma *= 4.0
    raise ConvergenceFailure("shift-invert window kept crowding the spectrum bottom")


def negative_spectrum_fem(field, R, R_out, h, count=6):
    """Negative FEM spectrum with an (h, R_out) refinement ladder.

    Runs meshes at widths (h, h/2, h/4) at the given R_out, Richardson
    extrapolates each tracked eigenvalue, and measures the domain
    truncation by an extra run at (h/2, 1.5 R_out).  Reported eigenvalues
    are the extrapolated negative ones; N counts negatives on the finest
    mesh.
    """
    from .radial import richardson  # local import avoids a cycle at module load

    ladders = []
    sizes = []
    for lvl in range(3):
        mesh = build_mesh(R, R_out, h / 2**lvl)
        pencil = assemble(field, mesh)
        pairs = lowest_eigenpairs(pencil, count)
        ladders.append([lam for lam, _ in pairs])
        sizes.append(pencil.n_reduced)
    mesh_w = build_mesh(R, 1.5 * R_out, h / 2)
    pairs_w = lowest_eigenpairs(assemble(field, mesh_w), count)
    wide = [lam for lam, _ in pairs_w]

    finest = ladders[-1]
    n_neg = sum(1 for lam in finest if lam < 0)
    eigenvalues = []
    error_bars = []
    for k in range(n_neg):
        ext, err = richardson([ladders[0][k], ladders[1][k], ladders[2][k]])
        trunc = abs(wide[k] - ladders[1][k]) if k < len(wide) else 0.0
        eigenvalues.append(ext)
        error_bars.append(err + trunc)
    return SpectrumReport(
        eigenvalues=tuple(eigenvalues),
        N=n_neg,
        tolerances={"h": h, "count": count},
        convergence={
            "h_ladder": [h, h / 2, h / 4],
            "raw": [list(l) for l in ladders],
            "reduced_sizes": sizes,
            "R_out": R_out,
            "R_out_check": 1.5 * R_out,
            "wide_values": list(wide),
            "error_bars": error_bars,
            "truncated_count": bool(n_neg == count),
        },
    )


def save_mesh(mesh, path):
    """Text format: `v x y`, `t i j k region`, `e i_in i_out j_in j_out region`."""
    with open(path, "w") as fh:
        for vx, vy in mesh.vertices:
            fh.write(f"v {float(vx)!r} {float(vy)!r}\n")
        for (i, j, k), tag in zip(mesh.triangles, mesh.tri_region):
            fh.write(f"t {i} {j} {k} {tag}\n")
        for (ii, io, ji, jo), tag in zip(mesh.interface_edges, mesh.edge_region):
            fh.write(f"e {ii} {io} {ji} {jo} {tag}\n")


def load_mesh(path):
    """Parse the text format written by save_mesh.

    Outer boundary edges are reconstructed as triangle edges that appear
    exactly once and are not interface edges.
    """
    verts, tris, regions, iface, etags = [], [], [], [], []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            try:
                if parts[0] == "v" and len(parts) == 3:
                    verts.append((float(parts[1]), float(parts[2])))
                elif parts[0] == "t" and len(parts) == 5:
                    tris.append(tuple(int(p) for p in parts[1:4]))
                    regions.append(parts[4])
                elif parts[0] == "e" and len(parts) == 6:
                    iface.append(tuple(int(p) for p in parts[1:5]))
                    etags.append(parts[5])
                else:
                    raise ValueError("unrecognized record")
            except ValueError as exc:
                raise ParseError(f"{path}:{ln}: {exc}: {line.rstrip()}") from exc
    if not verts or not tris:
        raise ParseError(f"{path}: no vertices or no triangles")

    edge_count = {}
    for a, b, c in tris:
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            edge_count[key] = edge_count.get(key, 0) + 1
    iface_pairs = set()
    for ii, io, ji, jo in iface:
        iface_pairs.add((min(ii, ji), max(ii, ji)))
        iface_pairs.add((min(io, jo), max(io, jo)))
    outer = [e for e, cnt in edge_count.items() if cnt == 1 and e not in iface_pairs]

    return InterfaceMesh(
        vertices=np.asarray(verts, dtype=float),
        triangles=np.asarray(tris, dtype=np.int32),
        tri_region=tuple(regions),
        interface_edges=np.asarray(iface, dtype=np.int32).reshape(-1, 4),
        edge_region=tuple(etags),
        outer_edges=np.asarray(sorted(outer), dtype=np.int32).reshape(-1, 2),
        meta={"loaded_from": str(path)},
    )
