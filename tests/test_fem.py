"""Edge/P1 assembly, discrete exactness, splittings, and transfer operators."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from signfem import fem
from signfem.geometry import make_reference_domain
from signfem.materials import DrudeMaterial
from signfem.mesh import Mesh, refine_red
from signfem.meshgen import build_r_conform_coarse

REFERENCE = DrudeMaterial(mu_minus=10.0, eps_minus=10.0,
                          omega_mu_sq=4.0, omega_eps_sq=2.0)
# contrast -10 in both coefficients at lam = 1
CONTRAST_TEN = DrudeMaterial(mu_minus=0.1, eps_minus=10.0,
                             omega_mu_sq=2.0, omega_eps_sq=2.0)


@pytest.fixture(scope="module")
def coarse():
    return build_r_conform_coarse(make_reference_domain(), 0.2)


@pytest.fixture(scope="module")
def blocks(coarse):
    return fem.assemble_blocks(coarse)


def test_block_keys_and_exact_symmetry(blocks):
    for key in ("K_plus", "K_minus", "M_plus", "M_minus",
                "Ks_plus", "Ks_minus", "Ms_plus", "Ms_minus", "C", "MY"):
        assert key in blocks
    for key in ("K_plus", "K_minus", "M_plus", "M_minus",
                "Ks_plus", "Ks_minus", "Ms_plus", "Ms_minus"):
        B = blocks[key]
        assert abs(B - B.T).max() <= 1e-14


@pytest.mark.parametrize("level", [0, 1])
def test_blocks_of_one_form_match_the_default(coarse, level):
    mesh = refine_red(coarse) if level else coarse
    both = fem.assemble_blocks(mesh)
    edge = fem.assemble_blocks(mesh, (fem.EDGE,))
    scalar = fem.assemble_blocks(mesh, (fem.SCALAR,))
    assert set(edge) == {"K_plus", "K_minus", "M_plus", "M_minus", "C", "MY"}
    assert set(scalar) == {"Ks_plus", "Ks_minus", "Ms_plus", "Ms_minus", "Cs", "MYs"}
    assert len(both) == 12 and set(both) == set(edge) | set(scalar)
    for part in (edge, scalar):
        for key, B in part.items():
            ref = both[key]
            assert B.shape == ref.shape and B.dtype == ref.dtype
            for attr in ("indptr", "indices", "data"):
                assert getattr(B, attr).tobytes() == getattr(ref, attr).tobytes(), key


def test_mass_blocks_positive_definite_per_region(coarse, blocks):
    for name, sign in (("plus", 1), ("minus", -1)):
        sel = np.unique(coarse.tri_edges[coarse.region == sign])
        Msub = blocks[f"M_{name}"].toarray()[np.ix_(sel, sel)]
        assert np.linalg.eigvalsh(Msub).min() > 0
        vsel = np.unique(coarse.triangles[coarse.region == sign])
        Mssub = blocks[f"Ms_{name}"].toarray()[np.ix_(vsel, vsel)]
        assert np.linalg.eigvalsh(Mssub).min() > 0


def test_single_triangle_closed_forms():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = Mesh(vertices=verts, triangles=np.array([[0, 1, 2]]),
                region=np.array([1], dtype=np.int8),
                patch_kind=np.zeros(1, dtype=np.int8),
                patch_index=np.full(1, -1, dtype=np.int32))
    blocks = fem.assemble_blocks(mesh)
    K = (blocks["K_plus"] + blocks["K_minus"]).toarray()
    M = (blocks["M_plus"] + blocks["M_minus"]).toarray()

    # independent oracle: integrate the analytic edge functions with a dense
    # barycentric grid (degree >= 2 handled exactly by the trapezoid-free
    # summation below only in the limit, so use an exact degree-4 rule)
    g = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])  # barycentric grads
    pts = np.array([[0.108103018168070, 0.445948490915965, 0.445948490915965],
                    [0.445948490915965, 0.108103018168070, 0.445948490915965],
                    [0.445948490915965, 0.445948490915965, 0.108103018168070],
                    [0.816847572980459, 0.091576213509771, 0.091576213509771],
                    [0.091576213509771, 0.816847572980459, 0.091576213509771],
                    [0.091576213509771, 0.091576213509771, 0.816847572980459]])
    wts = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)
    area = 0.5
    edges = [(0, 1), (0, 2), (1, 2)]  # global low->high pairs
    Mref = np.zeros((3, 3))
    for lam, w in zip(pts, wts):
        W = [lam[a] * g[b] - lam[b] * g[a] for a, b in edges]
        for j in range(3):
            for k in range(3):
                Mref[j, k] += w * area * W[j] @ W[k]
    order = [tuple(e) for e in mesh.edges]
    perm = [order.index(e) for e in edges]
    assert np.allclose(M[np.ix_(perm, perm)], Mref, atol=1e-15)

    # curl of every edge function is +-1/area; edge (0,2) runs against the
    # triangle's traversal (2,0), so it picks up the minus sign
    signs = np.array([1.0, -1.0, 1.0])
    Kref = signs[:, None] * signs[None, :] / area
    assert np.allclose(K[np.ix_(perm, perm)], Kref, atol=1e-14)


def test_curl_of_gradient_vanishes_at_matrix_level(coarse, blocks):
    G = fem.gradient_map(coarse)
    K = blocks["K_plus"] + blocks["K_minus"]
    KG = K @ G
    assert KG.nnz == 0 or abs(KG).max() <= 1e-13
    rng = np.random.default_rng(7)
    for _ in range(5):
        w = rng.standard_normal(coarse.num_vertices) * rng.choice([1e-3, 1.0, 1e3])
        assert np.linalg.norm(KG @ w) <= 1e-13 * np.linalg.norm(w)


def test_gradient_map_matches_tangential_moments(coarse):
    G = fem.gradient_map(coarse)
    p = 2.0 * coarse.vertices[:, 0] + 3.0 * coarse.vertices[:, 1] - 0.25
    moments = fem.interpolate_edge(coarse, lambda x: np.broadcast_to([2.0, 3.0], x.shape))
    assert np.abs(G @ p - moments).max() <= 1e-12


def test_constant_field_patch_test(coarse, blocks):
    u = fem.interpolate_edge(coarse, lambda x: np.broadcast_to([1.0, 0.0], x.shape))
    K = blocks["K_plus"] + blocks["K_minus"]
    M = blocks["M_plus"] + blocks["M_minus"]
    area = float(coarse.areas.sum())
    assert abs(u @ (K @ u)) <= 1e-12
    assert u @ (M @ u) == pytest.approx(area, rel=1e-12)
    # the load of the same constant against the interpolant is again the area
    rhs = fem.assemble_rhs(coarse, lambda x: np.broadcast_to([1.0, 0.0], x.shape))
    assert rhs @ u == pytest.approx(area, rel=1e-12)


def test_operator_definiteness(coarse, blocks):
    space = fem.EdgeSpace(coarse)
    A = fem.assemble_A(blocks, REFERENCE, -1.0, space).toarray()
    assert np.abs(A - A.T).max() == 0.0
    sla.cholesky(A)  # raises if not positive definite

    # sign-changing contrast -10: indefinite, checked through the inertia of
    # a symmetric factorization
    A1 = fem.assemble_A(blocks, CONTRAST_TEN, 1.0, space).toarray()
    ev = np.linalg.eigvalsh(A1)
    assert (ev < 0).sum() > 50 and (ev > 0).sum() > 50

    # homogeneous limit (no dispersion, unit coefficients): symmetric PD
    homog = DrudeMaterial()
    Ah = fem.assemble_A(blocks, homog, -1.0, space)
    assert abs(Ah - Ah.T).max() == 0.0
    sla.cholesky(Ah.toarray())


def test_scalar_problem_shape_and_kernel(coarse, blocks):
    S, rhs = fem.assemble_scalar_problem(blocks, REFERENCE, 3.0, coarse,
                                         lambda x: x[..., 0] - x[..., 1])
    # natural boundary conditions: every vertex keeps its row
    assert S.shape == (coarse.num_vertices, coarse.num_vertices)
    assert rhs.shape == (coarse.num_vertices,)
    ones = np.ones(coarse.num_vertices)
    Ks = blocks["Ks_plus"] + blocks["Ks_minus"]
    assert np.abs(Ks @ ones).max() <= 1e-12
    # the load x1 - x2 integrates to a finite real vector
    assert np.isfinite(rhs).all()


def boundary_vertices(mesh):
    return np.unique(mesh.edges[mesh.boundary_edge])


def helmholtz_project(mesh, blocks, u_full):
    """L2-orthogonal splitting u = grad p + r against gradients of P1
    functions vanishing on the boundary: (p, grad p, r)."""
    G = fem.gradient_map(mesh)
    M = blocks["M_plus"] + blocks["M_minus"]
    Ks = blocks["Ks_plus"] + blocks["Ks_minus"]
    interior = np.setdiff1d(np.arange(mesh.num_vertices), boundary_vertices(mesh))
    rhs = (G.T @ (M @ u_full))[interior]
    Kii = Ks.tocsr()[interior][:, interior]
    p = np.zeros(mesh.num_vertices, dtype=u_full.dtype)
    p[interior] = spla.spsolve(Kii.tocsc(), rhs)
    grad = G @ p
    return SimpleNamespace(potential=p, gradient=grad, remainder=u_full - grad)


def test_helmholtz_projection(coarse, blocks):
    rng = np.random.default_rng(3)
    u = rng.standard_normal(coarse.num_edges)
    split = helmholtz_project(coarse, blocks, u)
    M = blocks["M_plus"] + blocks["M_minus"]
    unorm2 = u @ (M @ u)
    assert abs(split.remainder @ (M @ split.gradient)) <= 1e-10 * unorm2
    assert np.abs(split.gradient + split.remainder - u).max() <= 1e-14

    again = helmholtz_project(coarse, blocks, split.remainder)
    assert np.abs(again.gradient).max() <= 1e-12

    # a discrete gradient is reproduced with zero remainder
    G = fem.gradient_map(coarse)
    p0 = rng.standard_normal(coarse.num_vertices)
    p0[boundary_vertices(coarse)] = 0.0
    gsplit = helmholtz_project(coarse, blocks, G @ p0)
    assert np.abs(gsplit.remainder).max() <= 1e-12


def test_aux_space_spans_minus_curls(coarse, blocks):
    n_minus = int((coarse.region == -1).sum())
    assert blocks["C"].shape[0] == n_minus
    # C maps the edge space onto all of the piecewise-constant space
    assert np.linalg.matrix_rank(blocks["C"].toarray()) == n_minus


def test_cross_check_consistency(coarse):
    homog = DrudeMaterial()
    # affine v has a globally constant rotated gradient (1, 2)
    v = coarse.vertices[:, 1] - 2.0 * coarse.vertices[:, 0] + 0.5
    u = fem.interpolate_edge(coarse, lambda x: np.broadcast_to([1.0, 2.0], x.shape))
    assert fem.cross_error(coarse, homog, -1.0, u, v) <= 1e-12
    with pytest.raises(fem.FemError, match="vanishes"):
        fem.cross_error(coarse, homog, -1.0, u, np.zeros(coarse.num_vertices))


def test_prolongation_is_exact(coarse):
    fine = refine_red(coarse)
    rng = np.random.default_rng(11)
    uc = rng.standard_normal(coarse.num_edges)
    uf = fem.edge_prolongation(coarse, fine) @ uc
    # same function in the nested space: identical norms
    nc = fem.field_norms(coarse, uc)
    nf = fem.field_norms(fine, uf)
    assert nf.l2 == pytest.approx(nc.l2, rel=1e-10)
    assert nf.curl == pytest.approx(nc.curl, rel=1e-10)

    pc = rng.standard_normal(coarse.num_vertices)
    pf = fem.scalar_prolongation(coarse, fine) @ pc
    sc = fem.scalar_norms(coarse, pc)
    sf = fem.scalar_norms(fine, pf)
    assert sf.l2 == pytest.approx(sc.l2, rel=1e-12)
    assert sf.curl == pytest.approx(sc.curl, rel=1e-12)

    for build in (fem.edge_prolongation, fem.scalar_prolongation):
        with pytest.raises(fem.FemError, match="parent"):
            build(coarse, coarse)


def test_edge_prolongation_entries(coarse):
    fine = refine_red(coarse)
    P = fem.edge_prolongation(coarse, fine)
    assert P.shape == (fine.num_edges, coarse.num_edges)
    assert set(np.abs(P.data)) == {0.25, 0.5}
    assert np.diff(P.indptr).max() == 3
    Q = fem.scalar_prolongation(coarse, fine)
    assert Q.shape == (fine.num_vertices, coarse.num_vertices)
    assert set(Q.data) == {0.5, 1.0}


def test_prolongations_commute_with_gradient(coarse):
    # Hiptmair's commuting diagram for nested spaces, exact in floating point
    # because every entry is a short sum of +-1/4, +-1/2 and +-1
    meshes = [coarse, refine_red(coarse)]
    meshes.append(refine_red(meshes[-1]))
    for c, f in zip(meshes, meshes[1:]):
        lhs = fem.gradient_map(f) @ fem.scalar_prolongation(c, f)
        rhs = fem.edge_prolongation(c, f) @ fem.gradient_map(c)
        assert abs(lhs - rhs).max() == 0.0


def test_mass_gram_gives_l2_norm(coarse, blocks):
    # the midpoint rule is exact for products of two edge functions, so the
    # quadratic form of the mass blocks is field_norms' L2 norm
    rng = np.random.default_rng(5)
    u = rng.standard_normal(coarse.num_edges)
    M = blocks["M_plus"] + blocks["M_minus"]
    assert np.sqrt(u @ (M @ u)) == pytest.approx(fem.field_norms(coarse, u).l2,
                                                 rel=1e-13)
