"""Edge/P1 assembly, discrete exactness, splittings, and transfer operators."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from signfem import fem, materials as mats
from signfem.geometry import make_reference_domain
from signfem.materials import DrudeMaterial
from signfem.mesh import Mesh, refine_red
from signfem.meshgen import build_r_conform_coarse, square_mesh

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


@pytest.fixture(scope="module")
def scalar_blocks(coarse):
    return fem.assemble_blocks(coarse, fem.SCALAR)


def _block_fields(blocks):
    """(name, matrix) for every block of a Blocks, region pairs split."""
    return [("stiffness_plus", blocks.stiffness[0]),
            ("stiffness_minus", blocks.stiffness[1]),
            ("mass_plus", blocks.mass[0]), ("mass_minus", blocks.mass[1]),
            ("pairing", blocks.pairing), ("aux_mass", blocks.aux_mass)]


def _assert_same_bits(got, ref, what):
    assert got.shape == ref.shape and got.dtype == ref.dtype, what
    for attr in ("indptr", "indices", "data"):
        assert getattr(got, attr).tobytes() == getattr(ref, attr).tobytes(), what


def test_block_keys_and_exact_symmetry(blocks, scalar_blocks):
    for bl in (blocks, scalar_blocks):
        assert len(bl.stiffness) == len(bl.mass) == 2
        for B in bl.stiffness + bl.mass:
            assert abs(B - B.T).max() <= 1e-14


# The blocks of both rows on the reference domain (r = 0.3, h = 0.2), pinned:
# sha256 over indptr, indices (little-endian int32) and data (little-endian
# float64) of the six blocks in the order of _block_fields.
BLOCKS_GOLDEN = {
    (0, "edge"): "addc98ca09dd05dc3f560f2df79727d6550af58e2245641dd3b02eb76b7679bd",
    (0, "scalar"): "0840e1c3298e330c644af20c892a2ef4608d2010bb800a506644ba43a14119b5",
    (1, "edge"): "3b04577a925251909093d5952a16e98dc9b97e30a509a9b5ba6eea39546486f8",
    (1, "scalar"): "6c4174980b4e0e7834b83fc231dacb675e9b2ce783f8cc0d7a17cb3663b9e771",
}


@pytest.mark.parametrize("level, kind", sorted(BLOCKS_GOLDEN))
def test_blocks_golden(coarse, level, kind):
    form = {"edge": fem.EDGE, "scalar": fem.SCALAR}[kind]
    mesh = refine_red(coarse) if level else coarse
    h = hashlib.sha256()
    for what, B in _block_fields(fem.assemble_blocks(mesh, form)):
        assert (B.indptr.dtype, B.indices.dtype, B.data.dtype) == \
            (np.int32, np.int32, np.float64), what
        for a, dtype in ((B.indptr, "<i4"), (B.indices, "<i4"), (B.data, "<f8")):
            h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    assert h.hexdigest() == BLOCKS_GOLDEN[level, kind]


@pytest.mark.parametrize("level", [0, 1])
def test_blocks_of_one_form_match_the_default(coarse, level):
    # the default is the edge row; each row carries itself and sizes its
    # blocks by its own space
    mesh = refine_red(coarse) if level else coarse
    default = fem.assemble_blocks(mesh)
    edge = fem.assemble_blocks(mesh, fem.EDGE)
    scalar = fem.assemble_blocks(mesh, fem.SCALAR)
    assert default.form is edge.form is fem.EDGE and scalar.form is fem.SCALAR
    for (what, B), (_, ref) in zip(_block_fields(edge), _block_fields(default)):
        _assert_same_bits(B, ref, what)
    n_minus = int((mesh.region == -1).sum())
    for bl, n, n_aux in ((edge, mesh.num_edges, n_minus),
                         (scalar, mesh.num_vertices, 2 * n_minus)):
        assert bl.form.space(mesh).ndof == n
        for B in bl.stiffness + bl.mass:
            assert B.shape == (n, n)
        assert bl.pairing.shape == (n_aux, n)
        assert bl.aux_mass.shape == (n_aux, n_aux)


def test_mass_blocks_positive_definite_per_region(coarse, blocks, scalar_blocks):
    for k, sign in enumerate((1, -1)):
        sel = np.unique(coarse.tri_edges[coarse.region == sign])
        Msub = blocks.mass[k].toarray()[np.ix_(sel, sel)]
        assert np.linalg.eigvalsh(Msub).min() > 0
        vsel = np.unique(coarse.triangles[coarse.region == sign])
        Mssub = scalar_blocks.mass[k].toarray()[np.ix_(vsel, vsel)]
        assert np.linalg.eigvalsh(Mssub).min() > 0


def test_single_triangle_closed_forms():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = Mesh(vertices=verts, triangles=np.array([[0, 1, 2]]),
                region=np.array([1], dtype=np.int8),
                patch_kind=np.zeros(1, dtype=np.int8),
                patch_index=np.full(1, -1, dtype=np.int32))
    blocks = fem.assemble_blocks(mesh)
    K = (blocks.stiffness[0] + blocks.stiffness[1]).toarray()
    M = (blocks.mass[0] + blocks.mass[1]).toarray()

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
    K = blocks.stiffness[0] + blocks.stiffness[1]
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
    K = blocks.stiffness[0] + blocks.stiffness[1]
    M = blocks.mass[0] + blocks.mass[1]
    area = float(coarse.areas.sum())
    assert abs(u @ (K @ u)) <= 1e-12
    assert u @ (M @ u) == pytest.approx(area, rel=1e-12)
    # the load of the same constant against the interpolant is again the area
    rhs = fem.assemble_rhs(coarse, lambda x: np.broadcast_to([1.0, 0.0], x.shape))
    assert rhs @ u == pytest.approx(area, rel=1e-12)


def test_operator_definiteness(coarse, blocks):
    space = fem.EDGE.space(coarse)
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


def test_scalar_problem_shape_and_kernel(coarse, scalar_blocks):
    S = fem.assemble_A(scalar_blocks, REFERENCE, 3.0, fem.SCALAR.space(coarse))
    # the source (-1, -1) is Curl f0 of the potential f0 = x1 - x2
    rhs = fem.SCALAR.load(coarse, REFERENCE, 3.0, np.array([-1.0, -1.0]))
    # natural boundary conditions: every vertex keeps its row
    assert S.shape == (coarse.num_vertices, coarse.num_vertices)
    assert rhs.shape == (coarse.num_vertices,)
    ones = np.ones(coarse.num_vertices)
    Ks = scalar_blocks.stiffness[0] + scalar_blocks.stiffness[1]
    assert np.abs(Ks @ ones).max() <= 1e-12
    # the load x1 - x2 integrates to a finite real vector
    assert np.isfinite(rhs).all()


def boundary_vertices(mesh):
    return np.unique(mesh.edges[mesh.boundary_edge])


def helmholtz_project(mesh, blocks, scalar_blocks, u_full):
    """L2-orthogonal splitting u = grad p + r against gradients of P1
    functions vanishing on the boundary: (p, grad p, r)."""
    G = fem.gradient_map(mesh)
    M = blocks.mass[0] + blocks.mass[1]
    Ks = scalar_blocks.stiffness[0] + scalar_blocks.stiffness[1]
    interior = np.setdiff1d(np.arange(mesh.num_vertices), boundary_vertices(mesh))
    rhs = (G.T @ (M @ u_full))[interior]
    Kii = Ks.tocsr()[interior][:, interior]
    p = np.zeros(mesh.num_vertices, dtype=u_full.dtype)
    p[interior] = spla.spsolve(Kii.tocsc(), rhs)
    grad = G @ p
    return SimpleNamespace(potential=p, gradient=grad, remainder=u_full - grad)


def test_helmholtz_projection(coarse, blocks, scalar_blocks):
    rng = np.random.default_rng(3)
    u = rng.standard_normal(coarse.num_edges)
    split = helmholtz_project(coarse, blocks, scalar_blocks, u)
    M = blocks.mass[0] + blocks.mass[1]
    unorm2 = u @ (M @ u)
    assert abs(split.remainder @ (M @ split.gradient)) <= 1e-10 * unorm2
    assert np.abs(split.gradient + split.remainder - u).max() <= 1e-14

    again = helmholtz_project(coarse, blocks, scalar_blocks, split.remainder)
    assert np.abs(again.gradient).max() <= 1e-12

    # a discrete gradient is reproduced with zero remainder
    G = fem.gradient_map(coarse)
    p0 = rng.standard_normal(coarse.num_vertices)
    p0[boundary_vertices(coarse)] = 0.0
    gsplit = helmholtz_project(coarse, blocks, scalar_blocks, G @ p0)
    assert np.abs(gsplit.remainder).max() <= 1e-12


def test_aux_space_spans_minus_curls(coarse, blocks):
    n_minus = int((coarse.region == -1).sum())
    assert blocks.pairing.shape[0] == n_minus
    # C maps the edge space onto all of the piecewise-constant space
    assert np.linalg.matrix_rank(blocks.pairing.toarray()) == n_minus


def test_cross_check_consistency(coarse):
    homog = DrudeMaterial()
    # affine v has a globally constant rotated gradient (1, 2)
    v = coarse.vertices[:, 1] - 2.0 * coarse.vertices[:, 0] + 0.5
    u = fem.interpolate_edge(coarse, lambda x: np.broadcast_to([1.0, 2.0], x.shape))
    flux = fem.potential_flux(coarse, homog, -1.0, v)
    assert fem.cross_error(coarse, u, flux) <= 1e-12
    with pytest.raises(fem.FemError, match="vanishes"):
        fem.cross_error(coarse, u, np.zeros((coarse.num_triangles, 2)))


def _p1_prolongation(coarse):
    """Fine P1 coefficients of every coarse hat function on refine_red(coarse),
    one column each: coarse vertices keep their values, and each midpoint,
    vertex V + e of the fine mesh, gets the mean of coarse edge e's
    endpoints."""
    eye = sp.identity(coarse.num_vertices, format="csr")
    mid = 0.5 * (eye[coarse.edges[:, 0]] + eye[coarse.edges[:, 1]])
    return sp.vstack([eye, mid], format="csr")


def test_prolongation_is_exact(coarse):
    fine = refine_red(coarse)
    bc, bf = fem.assemble_blocks(coarse), fem.assemble_blocks(fine)
    rng = np.random.default_rng(11)
    uc = rng.standard_normal(coarse.num_edges)
    uf = fem.edge_prolongation(coarse, fine) @ uc
    # same function in the nested space: identical norms
    for field in ("mass", "stiffness"):
        assert fem.block_norm_sq(getattr(bf, field), uf) == pytest.approx(
            fem.block_norm_sq(getattr(bc, field), uc), rel=2e-10, abs=0)

    bc, bf = (fem.assemble_blocks(m, fem.SCALAR) for m in (coarse, fine))
    pc = rng.standard_normal(coarse.num_vertices)
    pf = _p1_prolongation(coarse) @ pc
    for field in ("mass", "stiffness"):
        assert fem.block_norm_sq(getattr(bf, field), pf) == pytest.approx(
            fem.block_norm_sq(getattr(bc, field), pc), rel=2e-12, abs=0)

    with pytest.raises(fem.FemError, match="parent"):
        fem.edge_prolongation(coarse, coarse)


def test_edge_prolongation_entries(coarse):
    fine = refine_red(coarse)
    P = fem.edge_prolongation(coarse, fine)
    assert P.shape == (fine.num_edges, coarse.num_edges)
    assert set(np.abs(P.data)) == {0.25, 0.5}
    assert np.diff(P.indptr).max() == 3
    Q = _p1_prolongation(coarse)
    assert Q.shape == (fine.num_vertices, coarse.num_vertices)
    assert set(Q.data) == {0.5, 1.0}


def test_prolongations_commute_with_gradient(coarse):
    # Hiptmair's commuting diagram for nested spaces, exact in floating point
    # because every entry is a short sum of +-1/4, +-1/2 and +-1
    meshes = [coarse, refine_red(coarse)]
    meshes.append(refine_red(meshes[-1]))
    for c, f in zip(meshes, meshes[1:]):
        lhs = fem.gradient_map(f) @ _p1_prolongation(c)
        rhs = fem.edge_prolongation(c, f) @ fem.gradient_map(c)
        assert abs(lhs - rhs).max() == 0.0


def _quadrature_norms_sq(mesh, u_full):
    """Squared L2 norm and curl seminorm of an edge field by quadrature of
    its values and elementwise curls."""
    l2sq = sum(w * float(fem._rowdot(vals, vals) @ mesh.areas)
               for w, _, vals in fem._edge_values(mesh, u_full, fem.MID_RULE))
    return l2sq, float((fem._edge_curls(mesh, u_full) ** 2) @ mesh.areas)


def test_mass_gram_gives_l2_norm(coarse, blocks):
    # the midpoint rule is exact for products of two edge functions, so the
    # quadratic form of the mass blocks is the quadrature's L2 norm
    rng = np.random.default_rng(5)
    u = rng.standard_normal(coarse.num_edges)
    M = blocks.mass[0] + blocks.mass[1]
    l2sq, curlsq = _quadrature_norms_sq(coarse, u)
    assert np.sqrt(u @ (M @ u)) == pytest.approx(np.sqrt(l2sq), rel=1e-13)
    # and block_norm_sq reads both from the region blocks
    assert fem.block_norm_sq(blocks.mass, u) == pytest.approx(l2sq, rel=1e-13, abs=0)
    assert fem.block_norm_sq(blocks.stiffness, u) == pytest.approx(curlsq, rel=1e-12,
                                                                   abs=0)


# Oracles for the element kernels: the per-triangle (T, 3, 2) gradients,
# np.einsum products and np.add.at scatters that the kernels replace, and the
# closed form of the edge mass.

def _oracle_grads(mesh):
    v = mesh.vertices[mesh.triangles]
    grads = np.empty((mesh.num_triangles, 3, 2))
    for j in range(3):
        opp = v[:, (j + 2) % 3] - v[:, (j + 1) % 3]
        grads[:, j, 0] = -opp[:, 1]
        grads[:, j, 1] = opp[:, 0]
    return grads / (2 * mesh.areas)[:, None, None]


def _oracle_whitney(grads, lam):
    return np.stack([lam[j] * grads[:, (j + 1) % 3] - lam[(j + 1) % 3] * grads[:, j]
                     for j in range(3)], axis=1)


def _oracle_edge_mass(mesh):
    """Midpoint-rule edge mass per triangle, before orientation signs."""
    grads = _oracle_grads(mesh)
    M = np.zeros((mesh.num_triangles, 3, 3))
    for lam, w in zip(*fem.MID_RULE):
        W = _oracle_whitney(grads, lam)
        M += w * np.einsum("tjd,tkd->tjk", W, W)
    return M * mesh.areas[:, None, None]


def _closed_form_edge_mass(mesh):
    """Edge mass per triangle, before orientation signs, in closed form: with
    g_ab = grad(lam_a) . grad(lam_b) and int_T lam_a lam_c = area (1 +
    delta_ac) / 12, local edges j = (a, b) and k = (c, d) give
    area/12 [(1+d_ac) g_bd - (1+d_ad) g_bc - (1+d_bc) g_ad + (1+d_bd) g_ac]."""
    grads = _oracle_grads(mesh)
    g = np.einsum("tad,tbd->tab", grads, grads)
    M = np.empty((mesh.num_triangles, 3, 3))
    for j in range(3):
        a, b = j, (j + 1) % 3
        for k in range(3):
            c, d = k, (k + 1) % 3
            M[:, j, k] = ((1 + (a == c)) * g[:, b, d] - (1 + (a == d)) * g[:, b, c]
                          - (1 + (b == c)) * g[:, a, d] + (1 + (b == d)) * g[:, a, c])
    return M * (mesh.areas / 12)[:, None, None]


def _oracle_blocks(mesh):
    """The blocks of both formulation rows, by row: each a list of (field,
    matrix) in the order of _block_fields."""
    grads = _oracle_grads(mesh)
    area = mesh.areas
    q = np.ldexp(np.round(np.ldexp(1.0 / area, 30)), -30)
    signs = mesh.tri_edge_signs.astype(float)
    Kel = (signs[:, :, None] * signs[:, None, :]) * q[:, None, None]
    Mel = _oracle_edge_mass(mesh) * (signs[:, :, None] * signs[:, None, :])
    Ksel = np.einsum("tjd,tkd->tjk", grads, grads) * area[:, None, None]
    Msel = np.zeros((mesh.num_triangles, 3, 3))
    for lam, w in zip(*fem.MID_RULE):
        Msel += w * np.einsum("j,k->jk", lam, lam)[None, :, :]
    Msel = Msel * area[:, None, None]
    out = {}
    for form, dofs, n, stems in (
            (fem.EDGE, mesh.tri_edges, mesh.num_edges,
             (("stiffness", Kel), ("mass", Mel))),
            (fem.SCALAR, mesh.triangles, mesh.num_vertices,
             (("stiffness", Ksel), ("mass", Msel)))):
        rows, cols = np.repeat(dofs, 3, axis=1), np.tile(dofs, (1, 3))
        out[form] = {}
        for stem, el in stems:
            for name, sign in (("plus", 1), ("minus", -1)):
                sel = mesh.region == sign
                out[form][f"{stem}_{name}"] = sp.coo_matrix(
                    (el[sel].ravel(), (rows[sel].ravel(), cols[sel].ravel())),
                    shape=(n, n)).tocsr()
    tm = np.flatnonzero(mesh.region == -1)
    out[fem.EDGE]["pairing"] = sp.coo_matrix(
        (signs[tm].ravel(), (np.repeat(np.arange(len(tm)), 3),
                             mesh.tri_edges[tm].ravel())),
        shape=(len(tm), mesh.num_edges)).tocsr()
    out[fem.EDGE]["aux_mass"] = sp.diags(area[tm]).tocsr()
    rows_s = np.repeat(2 * np.arange(len(tm)), 3)
    agrad = grads[tm] * area[tm, None, None]
    out[fem.SCALAR]["pairing"] = sp.coo_matrix(
        (np.concatenate([agrad[:, :, 0].ravel(), agrad[:, :, 1].ravel()]),
         (np.concatenate([rows_s, rows_s + 1]),
          np.tile(mesh.triangles[tm].ravel(), 2))),
        shape=(2 * len(tm), mesh.num_vertices)).tocsr()
    out[fem.SCALAR]["aux_mass"] = sp.diags(np.repeat(area[tm], 2)).tocsr()
    return {form: list(fields.items()) for form, fields in out.items()}


def _oracle_rhs(mesh, fun):
    v = mesh.vertices[mesh.triangles]
    grads = _oracle_grads(mesh)
    vals = None
    for lam, w in zip(*fem.MID_RULE):
        W = _oracle_whitney(grads, lam)
        f = np.asarray(fun(np.einsum("j,tjd->td", lam, v)), dtype=float)
        contrib = w * np.einsum("td,tjd->tj", f, W)
        vals = contrib if vals is None else vals + contrib
    vals = vals * mesh.areas[:, None] * mesh.tri_edge_signs.astype(float)
    out = np.zeros(mesh.num_edges)
    np.add.at(out, mesh.tri_edges.ravel(), vals.ravel())
    return out


def _oracle_scalar_rhs(mesh, mu_t, f0):
    v = mesh.vertices[mesh.triangles]
    vals = None
    for lam, w in zip(*fem.MID_RULE):
        f = np.asarray(f0(np.einsum("j,tjd->td", lam, v)), dtype=float)
        contrib = w * f[:, None] * lam[None, :]
        vals = contrib if vals is None else vals + contrib
    vals = vals * (mu_t * mesh.areas)[:, None]
    out = np.zeros(mesh.num_vertices)
    np.add.at(out, mesh.triangles.ravel(), vals.ravel())
    return out


@pytest.fixture(scope="module")
def kernel_meshes(coarse):
    fine = refine_red(coarse)
    return {"L0": coarse, "L1": fine, "L3": refine_red(refine_red(fine)),
            "square": square_mesh(4)}


@pytest.mark.parametrize("name", ["L0", "L1", "square"])
def test_edge_mass_matches_closed_form(kernel_meshes, name):
    mesh = kernel_meshes[name]
    grads, _ = fem._geometry(mesh)
    quad = fem._edge_mass(grads, mesh.areas)
    closed = _closed_form_edge_mass(mesh)
    assert np.all(quad == quad.transpose(0, 2, 1))
    # each entry against its Cauchy-Schwarz bound sqrt(M_jj M_kk): off-diagonal
    # entries can cancel to 1e-4 of it (or to zero on the square), so a
    # relative error on the entry itself would measure that cancellation
    diag = np.sqrt(np.diagonal(closed, axis1=1, axis2=2))
    bound = diag[:, :, None] * diag[:, None, :]
    assert np.all(np.abs(quad - closed) <= 2e-15 * bound)


@pytest.mark.parametrize("name", ["L0", "L1", "L3", "square"])
def test_blocks_and_loads_bit_identical_to_oracle(kernel_meshes, name):
    mesh = kernel_meshes[name]
    for form, oracle in _oracle_blocks(mesh).items():
        blocks = fem.assemble_blocks(mesh, form)
        assert blocks.form is form
        fields = _block_fields(blocks)
        assert [what for what, _ in fields] == [what for what, _ in oracle]
        for (what, got), (_, ref) in zip(fields, oracle):
            _assert_same_bits(got, ref, (form.kind, what))

    def load(x):
        return np.stack([np.sin(3 * x[..., 0]), x[..., 1] ** 2 - x[..., 0]], axis=-1)
    assert fem.assemble_rhs(mesh, load).tobytes() == _oracle_rhs(mesh, load).tobytes()

    assert fem.EDGE.load(mesh, REFERENCE, 3.0, load).tobytes() == \
        _oracle_rhs(mesh, load).tobytes()

    # the scalar row's constant source f is Curl f0 of f0 = f1 x2 - f2 x1
    f = np.array([2.0, -0.5])
    rhs = fem.SCALAR.load(mesh, REFERENCE, 3.0, f)
    f0 = lambda x: f[0] * x[..., 1] - f[1] * x[..., 0]
    mu_t = np.where(mesh.region == 1, float(mats.mu(REFERENCE, 3.0, "+")),
                    float(mats.mu(REFERENCE, 3.0, "-")))
    assert rhs.tobytes() == _oracle_scalar_rhs(mesh, mu_t, f0).tobytes()


def test_evaluation_runs_in_float64(coarse):
    rng = np.random.default_rng(9)
    u64 = rng.standard_normal(coarse.num_edges)
    v64 = rng.standard_normal(coarse.num_vertices)
    # longdouble vectors whose float64 rounding is u64 and v64
    u = u64.astype(np.longdouble) * (1 + np.longdouble(2.0) ** -60)
    v = v64.astype(np.longdouble) * (1 - np.longdouble(2.0) ** -60)
    assert np.any(u != u64) and np.array_equal(u.astype(float), u64)
    assert np.any(v != v64) and np.array_equal(v.astype(float), v64)

    flux = fem.potential_flux(coarse, REFERENCE, 1.0, v)
    assert flux.dtype == np.float64
    assert flux.tobytes() == fem.potential_flux(coarse, REFERENCE, 1.0, v64).tobytes()
    assert _quadrature_norms_sq(coarse, u) == _quadrature_norms_sq(coarse, u64)
    assert fem.cross_error(coarse, u, flux) == fem.cross_error(coarse, u64, flux)
