"""Tests for the 2-D interface FEM: meshing, assembly, and spectra.

Reference values come from closed-form radial reductions that never touch
the FEM code: Bessel secular equations for the circle (scipy.special)
and the banded radial finite-difference solver.
"""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.special
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq
from scipy.sparse.csgraph import connected_components

from surfint import core, fem2d, radial
from surfint.errors import MeshQualityFailure, ValidationError


def circle_delta_eigenvalue(alpha_tilde, R=1.0):
    """Ground state of the delta circle: alpha I0(kR) K0(kR) = 1/R."""
    f = lambda k: alpha_tilde * scipy.special.i0(k * R) * scipy.special.k0(k * R) - 1.0 / R
    k = brentq(f, 1e-9, 80.0, xtol=1e-14)
    return -k * k


def circle_delta_prime_eigenvalue(beta_tilde, R=1.0):
    """Ground state of the delta-prime circle: beta k^2 R I1 K1 = 1."""
    f = lambda k: beta_tilde * k * k * R * scipy.special.i1(k * R) * scipy.special.k1(k * R) - 1.0
    k = brentq(f, 1e-9, 80.0, xtol=1e-14)
    return -k * k


def fem_ladder_ground_state(field, R_out=6.0, h=0.2):
    vals = []
    for lvl in range(3):
        mesh = fem2d.build_mesh(1.0, R_out, h / 2**lvl)
        vals.append(fem2d.lowest_eigenpairs(fem2d.assemble(field, mesh), 1)[0][0])
    return radial.richardson(vals)[0], vals


def radial_ground_state(field, R_out=6.0):
    geom = radial.RadialGeometry(dimension=2, R=1.0, R_out=R_out, outer_bc="neumann", mode=0)
    lad = [radial.radial_fd_spectrum(geom, field, n).eigenvalues[0] for n in (256, 512, 1024)]
    return radial.richardson(lad)[0]


def test_mesh_basic_structure():
    mesh = fem2d.build_mesh(1.0, 5.0, 0.2)
    n_iface = len(mesh.interface_edges)
    # interface ring is a power of two and doubled: inner/outer copies coincide
    assert n_iface & (n_iface - 1) == 0
    for ii, io, ji, jo in mesh.interface_edges:
        assert ii != io and ji != jo
        assert np.allclose(mesh.vertices[ii], mesh.vertices[io])
        assert np.allclose(mesh.vertices[ji], mesh.vertices[jo])
        assert np.isclose(np.hypot(*mesh.vertices[ii]), 1.0)
    for i, j in mesh.outer_edges:
        assert np.isclose(np.hypot(*mesh.vertices[i]), 5.0)
    assert fem2d.min_angle_degrees(mesh) >= fem2d.MIN_ANGLE_DEG
    # triangles inside the interface never use an outer trace copy, and
    # triangles outside never use an inner one
    cents = mesh.vertices[mesh.triangles].mean(axis=1)
    inside = np.hypot(cents[:, 0], cents[:, 1]) < 1.0
    inner, outer = mesh.interface_edges[:, 0], mesh.interface_edges[:, 1]
    assert not np.isin(mesh.triangles[inside], outer).any()
    assert not np.isin(mesh.triangles[~inside], inner).any()
    # each copy does belong to a triangle on its own side
    assert np.isin(inner, mesh.triangles[inside]).all()
    assert np.isin(outer, mesh.triangles[~inside]).all()


# ------------------------------------------ loop oracles of the array code

def loop_build_mesh(R, R_out, h_target):
    """build_mesh vertex by vertex and triangle by triangle, same ring counts."""
    n_rad_in = max(2, round(R / h_target))
    n_rad_out = max(2, round((R_out - R) / h_target))
    radii_in = [R * j / n_rad_in for j in range(1, n_rad_in + 1)]
    radii_out = [R + (R_out - R) * j / n_rad_out for j in range(1, n_rad_out + 1)]
    n_interface = fem2d._pow2_count(2.0 * math.pi * R / h_target)
    counts_in = fem2d._ring_counts(radii_in, h_target, n_interface, inward=True)
    counts_out = fem2d._ring_counts([R] + radii_out, h_target, n_interface, inward=False)[1:]

    verts = [(0.0, 0.0)]

    def ring(r, c):
        ids = list(range(len(verts), len(verts) + c))
        verts.extend((r * math.cos(2 * math.pi * i / c), r * math.sin(2 * math.pi * i / c)) for i in range(c))
        return ids

    rings_in = [ring(r, c) for r, c in zip(radii_in, counts_in)]
    inner_iface = rings_in[-1]
    outer_iface = list(range(len(verts), len(verts) + n_interface))
    verts.extend(verts[i] for i in inner_iface)
    rings_out = [outer_iface] + [ring(r, c) for r, c in zip(radii_out, counts_out)]

    c1 = counts_in[0]
    tris = [(0, rings_in[0][i], rings_in[0][(i + 1) % c1]) for i in range(c1)]
    for rings in (rings_in, rings_out):
        for inner_ids, outer_ids in zip(rings, rings[1:]):
            ci, co = len(inner_ids), len(outer_ids)
            assert co in (ci, 2 * ci)
            for i in range(ci):
                a0, a1 = inner_ids[i], inner_ids[(i + 1) % ci]
                if co == ci:
                    b0, b1 = outer_ids[i], outer_ids[(i + 1) % co]
                    tris += [(a0, b0, b1), (a0, b1, a1)]
                else:
                    b0, b1, b2 = outer_ids[2 * i], outer_ids[2 * i + 1], outer_ids[(2 * i + 2) % co]
                    tris += [(a0, b0, b1), (a0, b1, a1), (a1, b1, b2)]

    iface_edges = [
        (inner_iface[i], outer_iface[i], inner_iface[(i + 1) % n_interface], outer_iface[(i + 1) % n_interface])
        for i in range(n_interface)
    ]
    last = rings_out[-1]
    outer_edges = [(last[i], last[(i + 1) % len(last)]) for i in range(len(last))]
    return fem2d.InterfaceMesh(
        vertices=np.asarray(verts, dtype=float),
        triangles=np.asarray(tris, dtype=np.int32),
        interface_edges=np.asarray(iface_edges, dtype=np.int32),
        outer_edges=np.asarray(outer_edges, dtype=np.int32),
    )


def loop_refine_mesh(mesh):
    """refine_mesh with a midpoint dict, numbering midpoints as first met."""
    verts = [tuple(v) for v in mesh.vertices]
    midpoint = {}

    def mid(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoint:
            midpoint[key] = len(verts)
            verts.append((0.5 * (verts[i][0] + verts[j][0]), 0.5 * (verts[i][1] + verts[j][1])))
        return midpoint[key]

    tris = []
    for a, b, c in mesh.triangles:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        tris.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
    iface = []
    for ii, io, ji, jo in mesh.interface_edges:
        mi, mo = mid(ii, ji), mid(io, jo)
        iface.extend([(ii, io, mi, mo), (mi, mo, ji, jo)])
    outer = []
    for i, j in mesh.outer_edges:
        m = mid(i, j)
        outer.extend([(i, m), (m, j)])
    return fem2d.InterfaceMesh(
        vertices=np.asarray(verts, dtype=float),
        triangles=np.asarray(tris, dtype=np.int32),
        interface_edges=np.asarray(iface, dtype=np.int32),
        outer_edges=np.asarray(outer, dtype=np.int32),
    )


def loop_interface_term(mesh, theta):
    """-Theta[a, b] * P1 edge mass on the trace pairs, edge by edge, as CSR;
    None when every Theta[a, b] is zero."""
    n = mesh.n_vertices
    pts = mesh.vertices
    kr, kc, kv = [], [], []
    for ii, io, ji, jo in mesh.interface_edges:
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
    return sp.coo_matrix((kv, (kr, kc)), shape=(n, n)).tocsr() if kv else None


def loop_constraint_map(mesh, keep_inner, ratio):
    """The trace map of a constrained coupling, vertex by vertex."""
    n = mesh.n_vertices
    pairs = mesh.interface_edges.reshape(-1, 2)  # (inner, outer) trace pairs
    eliminated = dict((pairs[:, ::-1] if keep_inner else pairs).tolist())  # dropped DOF -> kept DOF
    kept = [v for v in range(n) if v not in eliminated]
    col_of = {v: j for j, v in enumerate(kept)}
    rows = kept + list(eliminated)
    cols = [col_of[v] for v in kept] + [col_of[w] for w in eliminated.values()]
    vals = [1.0] * len(kept) + [ratio] * len(eliminated)
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, len(kept))).tocsr()


def loop_assembly(field, mesh):
    """(K, M, T, phase) of fem2d.assemble, with the loop interface term and trace map."""
    n = mesh.n_vertices
    K, M = triangle_pencil(mesh)
    theta = core.theta_matrix(field).entries
    if field.kind == core.CONSTRAINED:
        ci, ce = field.constraint_coefficients()
        keep_inner = abs(ci) >= abs(ce)
        r = ce / ci if keep_inner else (ci / ce).conjugate()
    else:
        r = theta[0, 1].conjugate()
    turn = r / abs(r) if r.imag != 0.0 else 1.0 + 0.0j
    theta = (theta * np.array([[1.0, turn], [turn.conjugate(), 1.0]])).real
    term = loop_interface_term(mesh, theta)
    if term is not None:
        K = (K + term).tocsr()
    T = sp.identity(n, format="csr")
    if field.kind == core.CONSTRAINED:
        T = loop_constraint_map(mesh, keep_inner, (r * turn.conjugate()).real)
    side = connected_components(M, directed=False)[1]
    phase = np.where(np.isin(side, side[mesh.interface_edges[:, 1]]), turn, 1.0 + 0.0j)
    return K, M, T, phase


def assert_bit_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def mesh_arrays(mesh):
    return mesh.vertices, mesh.triangles, mesh.interface_edges, mesh.outer_edges


# (R, R_out, h) of real runs: the fem-ladder rungs and wide run, the smoke
# rungs from h = 0.6, the compare-suite widths, and Tier-1's largest mesh
RUN_MESHES = [
    (1.0, 3.0, 0.3), (1.0, 3.0, 0.15), (1.0, 3.0, 0.075), (1.0, 4.5, 0.15),
    (1.0, 3.0, 0.6), (1.0, 4.5, 0.3),
    (1.0, 3.0, 0.2), (1.0, 3.0, 0.25),
    (1.0, 6.0, 0.05),
]


def test_mesh_determinism():
    m1 = fem2d.build_mesh(1.0, 4.0, 0.17)
    m2 = fem2d.build_mesh(1.0, 4.0, 0.17)
    assert np.array_equal(m1.vertices, m2.vertices)
    assert np.array_equal(m1.triangles, m2.triangles)
    # the array construction reproduces the loops bit for bit
    for args in [(1.0, 4.0, 0.17), *RUN_MESHES]:
        assert_bit_identical(mesh_arrays(fem2d.build_mesh(*args)), mesh_arrays(loop_build_mesh(*args)))
    for args in ((1.0, 3.0, 0.35), (1.0, 3.0, 0.3), (1.3, 7.0, 0.21)):
        coarse = fem2d.build_mesh(*args)
        assert_bit_identical(mesh_arrays(fem2d.refine_mesh(coarse)), mesh_arrays(loop_refine_mesh(coarse)))


ORACLE_COUPLINGS = [
    (1.0, 2.0, 0.5 + 1.5j),  # free, complex gamma
    (2.0, 0.0, 0.5 + 0.5j),  # constrained with |c_i| < |c_e|: the outer trace is kept
    (2.0, 0.0, 0.0),  # delta
]


@pytest.mark.parametrize("args, refined", [(args, False) for args in RUN_MESHES] + [((1.0, 3.0, 0.35), True)])
def test_assembly_matches_the_loop_oracle(args, refined):
    mesh = fem2d.build_mesh(*args)
    if refined:
        mesh = fem2d.refine_mesh(mesh)
    for coupling in ORACLE_COUPLINGS:
        field = core.uniform_field(*coupling)
        pencil = fem2d.assemble(field, mesh)
        K, M, T, phase = loop_assembly(field, mesh)
        for got, want in ((pencil.K, K), (pencil.M, M), (pencil.T, T)):
            assert got.shape == want.shape
            assert_bit_identical((got.data, got.indices, got.indptr), (want.data, want.indices, want.indptr))
        assert_bit_identical((pencil.phase,), (phase,))


@settings(max_examples=25, deadline=None)
@given(
    R=st.floats(0.5, 3.0),
    ratio=st.floats(1.5, 6.0),
    frac=st.floats(0.05, 0.3),
)
def test_mesh_quality_across_parameters(R, ratio, frac):
    mesh = fem2d.build_mesh(R, ratio * R, frac * R)
    assert fem2d.min_angle_degrees(mesh) >= fem2d.MIN_ANGLE_DEG
    assert_bit_identical(mesh_arrays(mesh), mesh_arrays(loop_build_mesh(R, ratio * R, frac * R)))


def test_mesh_rejects_bad_geometry():
    with pytest.raises(ValidationError):
        fem2d.build_mesh(2.0, 1.0, 0.1)
    with pytest.raises(ValidationError):
        fem2d.build_mesh(1.0, 3.0, 1.5)
    # the triangle areas underflow or overflow: refused by name before any
    # angle is measured, and without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for R in (1e-200, 1e200):
            with pytest.raises(ValidationError, match="h_target=.*R_out="):
                fem2d.build_mesh(R, 3 * R, 0.3 * R)


def test_min_angle_does_not_depend_on_scale():
    # the mesh's shape does not depend on R, so neither does its minimum
    # angle, at scales whose squared coordinates would leave the float range
    angles = [fem2d.min_angle_degrees(fem2d.build_mesh(R, 3 * R, 0.3 * R)) for R in (1e-150, 1.0, 1e150)]
    assert max(angles) - min(angles) <= 1e-12, angles
    assert min(angles) >= fem2d.MIN_ANGLE_DEG


def test_mesh_gate_refuses_a_small_minimum_angle(monkeypatch):
    monkeypatch.setattr(fem2d, "MIN_ANGLE_DEG", 40.0)
    with pytest.raises(MeshQualityFailure, match="minimum triangle angle 33.59 deg < 40.0"):
        fem2d.build_mesh(1.0, 3.0, 0.3)


def test_min_angle_flags_slivers():
    mesh = fem2d.build_mesh(1.0, 3.0, 0.25)
    verts = np.vstack([mesh.vertices, [[50.0, 0.0]]])
    tris = np.vstack([mesh.triangles, [[0, 1, mesh.n_vertices]]]).astype(np.int32)
    bad = fem2d.InterfaceMesh(
        vertices=verts,
        triangles=tris,
        interface_edges=mesh.interface_edges,
        outer_edges=mesh.outer_edges,
    )
    assert fem2d.min_angle_degrees(bad) < fem2d.MIN_ANGLE_DEG


def test_delta_circle_against_bessel_oracle():
    lam_exact = circle_delta_eigenvalue(2.0)
    ext, ladder = fem_ladder_ground_state(core.delta_field(2.0))
    errs = [abs(v - lam_exact) for v in ladder]
    assert errs[0] > errs[1] > errs[2]
    assert abs(ext - lam_exact) < 2e-4


def test_delta_prime_circle_against_bessel_oracle():
    lam_exact = circle_delta_prime_eigenvalue(2.0)
    ext, ladder = fem_ladder_ground_state(core.delta_prime_field(2.0))
    errs = [abs(v - lam_exact) for v in ladder]
    assert errs[0] > errs[1] > errs[2]
    assert abs(ext - lam_exact) < 5e-5


def test_full_coupling_matches_radial_fd():
    field = core.uniform_field(1.0, 2.0, 1j)
    lam_fd = radial_ground_state(field)
    ext, _ = fem_ladder_ground_state(field)
    assert abs(ext - lam_fd) < 5e-5


def test_constrained_gamma_matches_radial_fd():
    field = core.uniform_field(2.0, 0.0, 1.0)
    lam_fd = radial_ground_state(field)
    ext, _ = fem_ladder_ground_state(field)
    assert abs(ext - lam_fd) < 5e-5


def test_constraint_map_reduces_interface_pairs():
    mesh = fem2d.build_mesh(1.0, 3.0, 0.25)
    pen_free = fem2d.assemble(core.delta_prime_field(1.0), mesh)
    assert pen_free.n_reduced == pen_free.n_full
    pen_con = fem2d.assemble(core.delta_field(1.0), mesh)
    assert pen_con.n_reduced == pen_con.n_full - len(mesh.interface_edges)
    # eliminated outer trace reproduces the inner one for gamma = 0
    lam, x = fem2d.lowest_eigenpairs(pen_con, 1)[0]
    for ii, io, ji, jo in mesh.interface_edges:
        assert abs(x[ii] - x[io]) < 1e-14
        assert abs(x[ji] - x[jo]) < 1e-14


def test_constraint_keeps_larger_coefficient_trace():
    # gamma = 2 forces the inner trace to vanish, so all weight sits outside
    mesh = fem2d.build_mesh(1.0, 4.0, 0.25)
    field = core.uniform_field(3.0, 0.0, 2.0)
    pen = fem2d.assemble(field, mesh)
    lam, x = fem2d.lowest_eigenpairs(pen, 1)[0]
    assert lam < 0
    for ii, io, ji, jo in mesh.interface_edges:
        assert abs(x[ii]) < 1e-13 * np.abs(x).max()
        assert abs(x[io]) > 0


def test_pencil_is_hermitian():
    mesh = fem2d.build_mesh(1.0, 3.0, 0.25)
    field = core.uniform_field(1.0, 2.0, 0.5 + 1.5j)
    pen = fem2d.assemble(field, mesh)
    K_r, M_r = pen.reduced()
    assert K_r.dtype == M_r.dtype == np.float64
    assert abs(K_r - K_r.conj().T).max() < 1e-12
    assert abs(M_r - M_r.conj().T).max() < 1e-14


def test_galerkin_nesting_monotone():
    # midpoint refinement without snapping nests the spaces, so every
    # variational eigenvalue can only go down
    field = core.delta_prime_field(1.5)
    m0 = fem2d.build_mesh(1.0, 3.0, 0.35)
    m1 = fem2d.refine_mesh(m0)
    p0 = fem2d.lowest_eigenpairs(fem2d.assemble(field, m0), 3)
    p1 = fem2d.lowest_eigenpairs(fem2d.assemble(field, m1), 3)
    for k in range(3):
        assert p1[k][0] <= p0[k][0] + 1e-12


def single_trace_delta_pencil(mesh, alpha):
    """Direct single-trace assembly of the delta circle for cross-checking.

    Outer interface copies are merged onto the inner ones and the boundary
    term -alpha * edge mass is added on the single trace.
    """
    n = mesh.n_vertices
    pts = mesh.vertices
    remap = np.arange(n)
    for ii, io, ji, jo in mesh.interface_edges:
        remap[io] = ii
        remap[jo] = ji
    kept = sorted(set(remap))
    col = {v: j for j, v in enumerate(kept)}
    cols = np.array([col[remap[v]] for v in range(n)])
    T = sp.coo_matrix((np.ones(n), (np.arange(n), cols)), shape=(n, len(kept))).tocsr()

    K = sp.lil_matrix((n, n))
    M = sp.lil_matrix((n, n))
    for a, b, c in mesh.triangles:
        P = pts[[a, b, c]]
        bv = np.array([P[1, 1] - P[2, 1], P[2, 1] - P[0, 1], P[0, 1] - P[1, 1]])
        cv = np.array([P[2, 0] - P[1, 0], P[0, 0] - P[2, 0], P[1, 0] - P[0, 0]])
        A = 0.5 * abs(bv[0] * cv[1] - bv[1] * cv[0])
        kl = (np.outer(bv, bv) + np.outer(cv, cv)) / (4 * A)
        ml = A * (np.ones((3, 3)) + np.eye(3)) / 12
        for i, vi in enumerate((a, b, c)):
            for j, vj in enumerate((a, b, c)):
                K[vi, vj] += kl[i, j]
                M[vi, vj] += ml[i, j]
    for ii, io, ji, jo in mesh.interface_edges:
        L = np.linalg.norm(pts[ji] - pts[ii])
        se = (L / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
        for p, vp in enumerate((ii, ji)):
            for q, vq in enumerate((ii, ji)):
                K[vp, vq] -= alpha * se[p, q]
    return (T.T @ K.tocsr() @ T).toarray(), (T.T @ M.tocsr() @ T).toarray()


def test_delta_consistency_with_single_trace_assembly():
    # for alpha delta coupling the doubled-trace pencil reduced by the
    # constraint must equal the classical one-trace assembly exactly
    alpha = 2.0
    mesh = fem2d.build_mesh(1.0, 2.5, 0.3)
    pen = fem2d.assemble(core.delta_field(alpha), mesh)
    K_r, M_r = pen.reduced()
    K1, M1 = single_trace_delta_pencil(mesh, alpha)
    assert np.max(np.abs(K_r.toarray().imag)) == 0.0
    assert np.max(np.abs(K_r.toarray().real - K1)) < 1e-12
    assert np.max(np.abs(M_r.toarray().real - M1)) < 1e-14


def test_negative_spectrum_report():
    rep = fem2d.negative_spectrum_fem(core.delta_field(2.0), 1.0, 6.0, 0.2, count=4)
    lam_exact = circle_delta_eigenvalue(2.0)
    assert rep.N >= 1
    assert abs(rep.eigenvalues[0] - lam_exact) < 2e-4
    assert rep.convergence["error_bars"][0] < 1e-3
    assert len(rep.convergence["raw"]) == 3
    assert not rep.convergence["truncated_count"]
    for values in (*rep.convergence["raw"], rep.convergence["wide_values"]):
        assert len(values) == min(rep.N, 4)


def dense_eigenvalues(pencil, count):
    K_r, M_r = pencil.reduced()
    return scipy.linalg.eigvalsh(K_r.toarray(), M_r.toarray(), subset_by_index=[0, count - 1])


SMALL_PENCILS = {
    "real-free": core.delta_prime_field(1.0),
    "complex-free": core.uniform_field(1.0, 2.0, 0.5 + 1.5j),
    "real-constrained": core.uniform_field(2.0, 0.0, 0.5),
    "complex-constrained": core.uniform_field(2.0, 0.0, 1j),
    "neumann": core.uniform_field(0.0, 0.0, 0.0),
}


@pytest.mark.parametrize("name", SMALL_PENCILS)
def test_inertia_count_matches_dense_count(name):
    pencil = fem2d.assemble(SMALL_PENCILS[name], fem2d.build_mesh(1.0, 3.0, 0.5))
    dense = dense_eigenvalues(pencil, pencil.n_reduced)
    K_r, M_r = pencil.reduced()
    for s in (-1e-10, 1e-10, -1.0, 2.0):
        assert fem2d.shifted_inertia(K_r, M_r, s)[0] == np.count_nonzero(dense < s)
    # constants span a kernel when alpha = 0 and gamma = 0 (the beta term
    # sees only normal derivatives); it sits between the two thresholds
    zero_modes = np.count_nonzero(np.abs(dense) < 1e-10)
    assert zero_modes == (1 if name in ("real-free", "neumann") else 0)


@pytest.mark.parametrize("field, h, resolve_k", [
    (core.delta_prime_field(1.0), 0.3, None),
    # here a single ARPACK run for k = 6 returns the 7th eigenvalue in
    # place of the 6th, the second copy of the pair at indices 4 and 5
    (core.uniform_field(2.3526287987466605, 1.122431433914267,
                        0.44566612065552236 + 0.33582222852599974j), 0.3, 6),
    # here a single ARPACK run for k = 3 stops with residual 6e-8 on the
    # first copy of the pair at indices 2 and 3
    (core.uniform_field(0.393215731299811, 2.220315515302655, 0.0), 0.2, 3),
], ids=["real", "skipped-copy", "stalled-residual"])
def test_lowest_eigenpairs_keep_both_copies_of_a_degenerate_pair(field, h, resolve_k, monkeypatch):
    mesh = fem2d.build_mesh(1.0, 3.0, h)
    pencil = fem2d.assemble(field, mesh)
    K, M, _ = complex_assembly(field, mesh)
    dense = dense_eigenvalues(pencil, 8)
    twins = [i for i in range(7) if abs(dense[i + 1] - dense[i]) < 1e-10]
    assert twins  # m = +-1, +-2, ... pairs of the circle
    assert pencil.n_reduced == pencil.n_full  # free couplings: vectors are reduced ones
    passes = []
    arpack = fem2d._deflated_arpack
    monkeypatch.setattr(fem2d, "_deflated_arpack", lambda *args: passes.append(args[4]) or arpack(*args))
    for k in range(1, 8):
        passes.clear()
        pairs = fem2d.lowest_eigenpairs(pencil, k)
        assert np.allclose([lam for lam, _ in pairs], dense[:k], rtol=0.0, atol=1e-9)
        for lam, x in pairs:
            kx, mx = K @ x, M @ x
            assert np.linalg.norm(kx - lam * mx) <= 1e-8 * (
                np.linalg.norm(kx) + (1.0 + abs(lam)) * np.linalg.norm(mx))
        if k == resolve_k:  # the guard's second pass ran
            assert len(passes) > 1


def test_lowest_eigenpairs_refuses_a_count_arpack_cannot_reach():
    pencil = fem2d.assemble(core.delta_field(1.0), fem2d.build_mesh(1.0, 3.0, 0.6))
    with pytest.raises(ValidationError, match="n - 2"):
        fem2d.lowest_eigenpairs(pencil, pencil.n_reduced - 2)


def test_negative_spectrum_skips_the_neumann_zero_mode():
    # a dense solve on the finest mesh (h = 0.15) finds 3 eigenvalues below
    # -1e-10; the fourth lowest is the zero mode at the 1e-13 level
    rep = fem2d.negative_spectrum_fem(core.delta_prime_field(1.0), 1.0, 3.0, 0.6)
    assert rep.N == 3
    finest = fem2d.assemble(core.delta_prime_field(1.0), fem2d.build_mesh(1.0, 3.0, 0.15))
    lams = [lam for lam, _ in fem2d.lowest_eigenpairs(finest, rep.N + 1)]
    assert lams[rep.N - 1] < -radial.NEG_TOL and abs(lams[rep.N]) < 1e-10
    assert len(rep.eigenvalues) == 3
    assert not rep.convergence["truncated_count"]
    for values in (*rep.convergence["raw"], rep.convergence["wide_values"]):
        assert len(values) == rep.N
    none = fem2d.negative_spectrum_fem(core.uniform_field(0.0, 0.0, 0.0), 1.0, 3.0, 0.6)
    assert none.N == 0 and none.eigenvalues == ()
    assert none.convergence["raw"] == [[], [], []] and none.convergence["wide_values"] == []


def test_arpack_without_deflation_is_the_projected_solve():
    # with nothing found the projection z - found (found^H M found)^-1 found^H M z
    # is z - 0 = z: lu.solve alone gives the same pairs bit for bit; with
    # pairs found, the solve still projects them out
    pencil = fem2d.assemble(core.uniform_field(2.0, 1.0, 0.5 + 0.5j), fem2d.build_mesh(1.0, 3.0, 0.4))
    K_r, M_r = pencil.reduced()
    n_below, lu = fem2d.shifted_inertia(K_r, M_r, -40.0)
    assert n_below == 0
    none = np.empty((K_r.shape[0], 0))
    vals, vecs = fem2d._deflated_arpack(K_r, M_r, -40.0, lu, 3, none)

    def project(z):
        return z - none @ np.linalg.solve(none.T @ (M_r @ none), (M_r @ none).T @ z)

    rng = np.random.default_rng(0)
    v0 = project(rng.standard_normal(K_r.shape[0]))
    op = fem2d.spla.LinearOperator(K_r.shape, matvec=lambda y: project(lu.solve(y)), dtype=K_r.dtype)
    ref_vals, ref_vecs = fem2d.spla.eigsh(K_r, k=3, M=M_r, sigma=-40.0, which="LM", v0=v0, OPinv=op, rng=rng)
    assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)
    more, more_vecs = fem2d._deflated_arpack(K_r, M_r, -40.0, lu, 2, vecs)
    assert np.allclose(np.sort(more), dense_eigenvalues(pencil, 5)[3:], rtol=0.0, atol=1e-9)
    assert np.abs(vecs.T @ (M_r @ more_vecs)).max() < 1e-10


def test_arpack_releases_its_operator_without_a_collection(monkeypatch):
    # the factor and the deflation basis go with the shift-invert operator
    # as soon as eigsh returns; no reference cycle waits for the collector
    refs = []
    eigsh = fem2d.spla.eigsh

    def spy(*args, OPinv, **kwargs):
        refs.append(weakref.ref(OPinv))
        return eigsh(*args, OPinv=OPinv, **kwargs)

    monkeypatch.setattr(fem2d.spla, "eigsh", spy)
    pencil = fem2d.assemble(core.uniform_field(1.0, 2.0, 0.5 + 1.5j), fem2d.build_mesh(1.0, 3.0, 0.4))
    gc.collect()
    gc.disable()
    try:
        fem2d.lowest_eigenpairs(pencil, 3)
        alive = [ref() is not None for ref in refs]
    finally:
        gc.enable()
    assert alive and not any(alive)


def counted_calls(monkeypatch, name):
    """Record each call of fem2d.spla.<name> in the returned list."""
    calls = []
    original = getattr(fem2d.spla, name)
    monkeypatch.setattr(fem2d.spla, name, lambda *args, **kwargs: calls.append(name) or original(*args, **kwargs))
    return calls


def test_ladder_solves_only_the_counted_pairs(monkeypatch):
    # a constrained coupling of the fem-ladder benchmark at the CLI defaults
    # has one state: one pair per run, and at most 8 factorizations (the
    # ladder that solved 6 pairs per run from the shift -4 made 9)
    splu = counted_calls(monkeypatch, "splu")
    field = core.uniform_field(1.6287179684031305, 0.0, -0.6190443992234256)
    rep = fem2d.negative_spectrum_fem(field, 1.0, 3.0, 0.3)
    assert rep.N == 1
    for values in (*rep.convergence["raw"], rep.convergence["wide_values"]):
        assert len(values) == 1
    assert len(splu) <= 8
    # no state: the count is the only factorization, and ARPACK never runs
    splu.clear()
    eigsh = counted_calls(monkeypatch, "eigsh")
    none = fem2d.negative_spectrum_fem(core.uniform_field(0.0, 0.0, 0.0), 1.0, 3.0, 0.6)
    assert none.N == 0 and len(splu) == 1 and not eigsh


def ladder_couplings():
    """Free and constrained couplings, real and complex gamma; at h = 0.6
    and count 3 their N lies above, at and below the count."""
    rng = np.random.default_rng(19)
    drawn = []
    for i in range(8):
        gamma = complex(rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(-np.pi, np.pi)))
        beta = 0.0 if i % 2 else rng.uniform(0.5, 1.5)
        drawn.append((rng.uniform(1.0, 3.0), beta, gamma.real if i % 3 == 0 else gamma))
    return drawn


def test_ladder_agrees_with_the_solve_from_the_default_shift():
    count, seen = 3, set()
    for coupling in ladder_couplings():
        field = core.uniform_field(*coupling)
        rep = fem2d.negative_spectrum_fem(field, 1.0, 3.0, 0.6, count=count)
        k = min(rep.N, count)
        seen.add((np.sign(rep.N - count), coupling[1] == 0.0))
        runs = ((0.6, 3.0), (0.3, 3.0), (0.15, 3.0), (0.3, 4.5))
        for (h, R_out), got in zip(runs, (*rep.convergence["raw"], rep.convergence["wide_values"])):
            pencil = fem2d.assemble(field, fem2d.build_mesh(1.0, R_out, h))
            want = [lam for lam, _ in fem2d.lowest_eigenpairs(pencil, count)]
            assert len(got) == k
            assert all(abs(a - b) <= 1e-12 * max(1.0, abs(b)) for a, b in zip(got, want))
            if h == 0.15:  # the finest rung: N agrees with the pairs below -NEG_TOL
                assert np.count_nonzero(np.array(want) < -radial.NEG_TOL) == k
        # a shift above the bottom of the spectrum deepens until it is below it
        up = [lam for lam, _ in fem2d.lowest_eigenpairs(pencil, count, 0.5)]
        assert all(abs(a - b) <= 1e-12 * max(1.0, abs(b)) for a, b in zip(up, want))
    assert seen == {(1, False), (0, True), (-1, True)}


# ------------------------------------- real gauge vs complex assembly oracle

def triangle_pencil(mesh):
    """Real P1 stiffness and mass of the triangles, as CSR."""
    n = mesh.n_vertices
    tris = mesh.triangles
    p = mesh.vertices[tris]
    x, y = p[..., 0], p[..., 1]
    bvec = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    cvec = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * np.abs(bvec[:, 0] * cvec[:, 1] - bvec[:, 1] * cvec[:, 0])
    k_loc = (
        np.einsum("ti,tj->tij", bvec, bvec) + np.einsum("ti,tj->tij", cvec, cvec)
    ) / (4.0 * area)[:, None, None]
    m_loc = area[:, None, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0)
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    K = sp.coo_matrix((k_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M = sp.coo_matrix((m_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return K, M


def complex_assembly(field, mesh):
    """(K, M, T) assembled in complex arithmetic, with gamma's phase left
    on Theta_12 and on the trace ratio: the pencil of the physical
    operator, of which fem2d.assemble's real pencil is a gauge."""
    K, M = (A.astype(complex) for A in triangle_pencil(mesh))
    term = loop_interface_term(mesh, core.theta_matrix(field).entries)
    if term is not None:
        K = (K + term).tocsr()
    if field.kind != core.CONSTRAINED:
        return K, M, sp.identity(mesh.n_vertices, dtype=complex, format="csr")
    ci, ce = field.constraint_coefficients()
    if abs(ci) >= abs(ce):
        return K, M, loop_constraint_map(mesh, True, ce / ci)  # f_e = (c_e / c_i) f_i
    return K, M, loop_constraint_map(mesh, False, ci / ce)  # f_i = (c_i / c_e) f_e


def gauge_couplings():
    """Every branch of the gauge, then a seeded draw of both kinds."""
    fixed = [
        (1.0, 2.0, 0.5), (2.0, 2.0, 0.0),  # free, real gamma; Theta_12 = 0 at alpha beta = 4
        (1.0, 2.0, 2.0), (1.0, 2.0, -2.0), (1.0, 0.5, 2.5 - 1.0j),  # gamma = +-2, |gamma| > 2
        (2.0, 0.0, 2.0), (2.0, 0.0, -2.0), (2.0, 0.0, 3.0),  # constrained, real gamma
        (2.0, 0.0, 0.5 + 0.5j), (2.0, 0.0, -3.0 + 0.5j),  # |c_i| < |c_e|, then |c_i| > |c_e|
        (2.0, 0.0, 2.0j), (0.0, 0.0, 1.0 + 1.0j),  # |c_i| = |c_e|; Theta = 0
    ]
    rng = np.random.default_rng(14)
    drawn = []
    for i in range(28):
        gamma = complex(rng.uniform(0.0, 3.0) * np.exp(1j * rng.uniform(-np.pi, np.pi)))
        beta = 0.0 if i % 2 else rng.uniform(0.3, 3.0)
        drawn.append((rng.uniform(-1.0, 4.0), beta, gamma.real if i % 3 == 0 else gamma))
    return fixed + drawn


GAUGE_MESH = fem2d.build_mesh(1.0, 2.5, 0.5)


@pytest.mark.parametrize("coupling", gauge_couplings())
def test_real_gauge_matches_the_complex_assembly(coupling):
    field = core.uniform_field(*coupling)
    pencil = fem2d.assemble(field, GAUGE_MESH)
    K, M, T = complex_assembly(field, GAUGE_MESH)
    assert pencil.K.dtype == pencil.M.dtype == pencil.T.dtype == np.float64
    assert np.allclose(np.abs(pencil.phase), 1.0, rtol=0.0, atol=1e-15)
    if complex(coupling[2]).imag == 0.0:  # no gauge: today's numbers bit for bit
        for got, want in ((pencil.K, K), (pencil.M, M), (pencil.T, T)):
            assert np.array_equal(got.toarray(), want.toarray())
        assert np.array_equal(pencil.phase, np.ones(pencil.n_full))
    TH = T.conj().T
    want = scipy.linalg.eigvalsh((TH @ K @ T).toarray(), (TH @ M @ T).toarray())
    got = scipy.linalg.eigvalsh(*(A.toarray() for A in pencil.reduced()))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    ci, ce = field.constraint_coefficients()
    inner, outer = GAUGE_MESH.interface_edges[:, 0], GAUGE_MESH.interface_edges[:, 1]
    for lam, x in fem2d.lowest_eigenpairs(pencil, 3):
        if field.kind == core.CONSTRAINED:  # (1 + conj(g)/2) f_i = (1 - conj(g)/2) f_e
            assert np.max(np.abs(ce * x[inner] - ci * x[outer])) <= 1e-13 * np.max(np.abs(x))
        # x = T y, so this is the residual of y in the reduced physical pencil
        kx, mx = TH @ (K @ x), TH @ (M @ x)
        assert np.linalg.norm(kx - lam * mx) <= 1e-8 * (
            np.linalg.norm(kx) + (1.0 + abs(lam)) * np.linalg.norm(mx))
