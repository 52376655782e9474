"""Lowest-order edge elements and P1 Lagrange elements on labeled meshes.

Edge basis functions follow the global low->high edge orientation stored in
the mesh: on a triangle the local function for edge (a,b), a<b, is
w = lam_a grad(lam_b) - lam_b grad(lam_a), with curl w = 2 grad(lam_a) x
grad(lam_b) constant.  Per-region blocks are assembled with the 3-point
midpoint rule (exact for the quadratic integrands that occur); smooth or
cutoff-weighted integrands use the 7-point degree-5 rule.

Per-triangle kernels hold component-major arrays, (3, 2, T) gradients and
(2, T) values, and write every contraction over the 2- or 3-wide local axes
as explicit products: no np.einsum.  einsum is slow over such short axes,
and the source study's thread pool overlaps only its SuperLU
factorizations, not NumPy work (experiments module docstring).  At L4 of that
study (189,440 triangles, one thread, best of 3) edge block assembly took
0.29 s with einsum and 0.13 s without, cross_error 0.16 and 0.03 s.  The
explicit sums keep einsum's order, a sum started from zero, so no -0.0
survives, and np.bincount adds in input order as np.add.at did: blocks and
load vectors keep their bits.

The edge mass stays the midpoint rule, written out.  Its closed form,
area/12 [(1+d_ac) g_bd - (1+d_ad) g_bc - (1+d_bc) g_ad + (1+d_bd) g_ac] for
local edges (a, b) and (c, d) with g_ab = grad(lam_a) . grad(lam_b), was
about 10 ms faster at L4 and differs only in rounding, by at most 2e-15 of
sqrt(M_jj M_kk).  Its one reason, a rounding that pushed the probe of the
factored pencil S - (4/3) T (section 5.2, L3) past 1e-10, is gone: inertia
comes from A(4/3) (solvers._negative_count), whose probe reads 3.2e-11 with
this rule and 1.2e-11 with the closed form in the order above.

assemble_blocks works region by region.  Each row's element kernel computes
the element matrices of one region's triangles only (Formulation.elements),
from that region's own geometry, and the stiffness array is let go before
the mass is scattered, so no element array of the whole mesh exists.  Every
block still comes out of scipy's COO->CSR conversion on the same input, bit
for bit (the tests pin their sha256).  The edge signs are applied in place,
one local edge after the other, which keeps the bits of the product with
the sign pairs: each factor is +-1.  Measured with tracemalloc at L4 of the
source study (189,440 triangles), the edge row peaks at 71 MB for 46 MB of
blocks, down from 121 MB, and the scalar row at 68 MB for 19 MB, down from
115 MB.  What is left is the scatter itself: the (T, 9) index arrays, one
element array and the CSR arrays it makes.  _edge_mass still builds the
edge functions at its three points at once (27 MB at L4): built one point
at a time they would lower the edge row's peak by 1 MB only, the kernel
being off the peak once it runs per region, and _edge_mass took 42 ms
instead of 36 ms.

Fields are evaluated in float64: _edge_values, _edge_curls and
potential_flux take their coefficients as float64 arrays, as every solve
returns them.  Geometry is recomputed per call (7 ms at L4), never cached on
the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
import scipy.sparse as sp

from . import materials as mats
from .mesh import RED_CHILDREN, Mesh

__all__ = [
    "Space", "FemError",
    "Formulation", "EDGE", "SCALAR", "Blocks", "assemble_blocks", "gradient_map",
    "assemble_A", "assemble_rhs", "block_norm_sq", "potential_flux",
    "cross_error", "eval_cellwise", "error_vs_exact", "interpolate_edge",
    "edge_prolongation",
    "MID_RULE", "STRANG_RULE",
]

# midpoint rule: degree 2
MID_RULE = (np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
            np.array([1 / 3, 1 / 3, 1 / 3]))
# Strang 7-point rule: degree 5, for cutoff-weighted and manufactured terms
_a, _b = 0.797426985353087, 0.101286507323456
_c, _d = 0.059715871789770, 0.470142064105115
STRANG_RULE = (
    np.array([[1 / 3, 1 / 3, 1 / 3],
              [_a, _b, _b], [_b, _a, _b], [_b, _b, _a],
              [_c, _d, _d], [_d, _c, _d], [_d, _d, _c]]),
    np.array([9 / 40] + [0.125939180544827] * 3 + [0.132394152788506] * 3),
)
# 3-point Gauss on [0,1] for tangential edge moments
_EDGE_T = np.array([0.5 - np.sqrt(15) / 10, 0.5, 0.5 + np.sqrt(15) / 10])
_EDGE_W = np.array([5 / 18, 8 / 18, 5 / 18])


class FemError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class Space:
    """The dofs of a formulation row on one mesh (Formulation.space): ndof in
    all, the free ones it solves for, restriction to them and expansion back."""

    ndof: int
    free: np.ndarray

    def restrict_matrix(self, A: sp.spmatrix) -> sp.csr_matrix:
        free = self.free
        return sp.csr_matrix(A.tocsr()[free][:, free])

    def restrict_vec(self, v: np.ndarray) -> np.ndarray:
        return v[self.free]

    def expand_vec(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros(self.ndof, dtype=v.dtype)
        out[self.free] = v
        return out


def _edge_space(mesh: Mesh) -> Space:
    """Lowest-order edge-element space on a perfectly conducting boundary:
    the tangential trace is eliminated, so the free dofs are the interior
    edges.  Every edge field of the package lives here, the manufactured
    fixture's too (its exact field has no tangential trace)."""
    return Space(mesh.num_edges, np.flatnonzero(~mesh.boundary_edge))


def _scalar_space(mesh: Mesh) -> Space:
    """P1 Lagrange space: natural boundary conditions keep every vertex free."""
    return Space(mesh.num_vertices, np.arange(mesh.num_vertices))


def _vertex_coords(mesh: Mesh, sel=None) -> np.ndarray:
    """Vertex coordinates per triangle, component-major: (3, 2, T) view; of
    the triangles sel only, if given."""
    tri = mesh.triangles if sel is None else mesh.triangles[sel]
    # np.take along axis 0 gathers rows several times faster than fancy
    # indexing does here
    return np.take(mesh.vertices, tri, axis=0).transpose(1, 2, 0)


def _geometry(mesh: Mesh, sel=None):
    """Per-triangle barycentric gradients, component-major (3, 2, T): row
    [j, d] holds component d of grad(lam_j) on every triangle; and the curl
    weights (T,) of the local edge functions (_curl_weights).  Of the
    triangles sel only, if given, each with the bits it has in the whole."""
    v = _vertex_coords(mesh, sel)
    area = mesh.areas if sel is None else mesh.areas[sel]
    two_area = 2 * area
    grads = np.empty((3, 2, len(area)))
    for j in range(3):
        k, l = (j + 1) % 3, (j + 2) % 3
        grads[j, 0] = -(v[l, 1] - v[k, 1]) / two_area
        grads[j, 1] = (v[l, 0] - v[k, 0]) / two_area
    return grads, _curl_weights(area)


def _curl_weights(area: np.ndarray) -> np.ndarray:
    """Curl of every local edge function, before orientation signs, on
    triangles of the given areas."""
    # 2 grad(lam_j) x grad(lam_{j+1}) = 1/area for every local edge of a
    # positively oriented triangle.  Snap the weight to a multiple of 2^-30:
    # stiffness entries are then short sums of exactly representable +-q and
    # curl-of-gradient cancellation is exact in floating point, while the
    # perturbation (< 2^-31 absolute) sits far below discretization error.
    return np.ldexp(np.round(np.ldexp(1.0 / area, 30)), -30)


def _whitney_at(grads, lam):
    """Local edge functions at one barycentric point: (3, 2, T)."""
    W = np.empty_like(grads)
    for j in range(3):
        k = (j + 1) % 3
        W[j] = lam[j] * grads[k] - lam[k] * grads[j]
    return W


def _lincomb(c, arr):
    """sum_j c_j arr_j over the local index j, left to right: c (3, T) or
    (3,), arr (3, 2, T) -> (2, T)."""
    return c[0] * arr[0] + c[1] * arr[1] + c[2] * arr[2]


def _rowdot(a, b):
    """Pointwise dot product of two component-major (2, N) fields: (N,)."""
    return a[0] * b[0] + a[1] * b[1]


def _edge_mass(grads, area):
    """Element mass matrices (T,3,3) of the local edge functions, before
    orientation signs, by the midpoint rule, which is exact at this degree
    (module docstring).  Entries are computed for j <= k and mirrored, so
    each matrix is exactly symmetric."""
    pts, wts = MID_RULE
    Ws = [_whitney_at(grads, lam) for lam in pts]
    Mel = np.empty((len(area), 3, 3))
    for j in range(3):
        for k in range(j, 3):
            m = 0.0
            for W, w in zip(Ws, wts):
                m = m + w * _rowdot(W[j], W[k])
            Mel[:, j, k] = Mel[:, k, j] = m * area
    return Mel


def _scatter(rows, cols, vals, shape):
    return sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                         shape=shape).tocsr()


@dataclass(frozen=True)
class Formulation:
    """One row of the formulation table: its space, its element and load
    kernels and whether mu and eps swap roles.

    A row reads the Drude laws of roles(mat): mu(lam)^-1 weights the
    stiffness and eps(lam) the mass, and omega_mu is the resonance that the
    auxiliary block linearizes.  space(mesh) gives the row's Space
    (_edge_space, _scalar_space); elements(mesh, sel) the dofs, stiffness
    and mass element matrices (len(sel), 3, 3) of the triangles sel
    (_edge_elements, _scalar_elements); aux(mesh, tm) its pairing and
    aux-mass blocks on the minus triangles tm (_edge_aux, _scalar_aux); and
    load(mesh, mat, lam, f) its load vector of the source f on every dof of
    its space (_edge_load, _scalar_load).  Assembled blocks carry their row
    (Blocks.form); kind only names it in messages.
    """

    kind: str        # "edge" | "scalar", for messages
    space: Callable
    elements: Callable
    aux: Callable
    load: Callable
    swap: bool

    def roles(self, mat: mats.DrudeMaterial) -> mats.DrudeMaterial:
        """The material as this row reads it."""
        if not self.swap:
            return mat
        return mats.DrudeMaterial(
            mu_plus=mat.eps_plus, mu_minus=mat.eps_minus, eps_plus=mat.mu_plus,
            eps_minus=mat.mu_minus, omega_mu_sq=mat.omega_eps_sq,
            omega_eps_sq=mat.omega_mu_sq)


def _edge_elements(mesh: Mesh, sel):
    """The edge row's dofs and element matrices (len(sel), 3, 3), stiffness
    and mass (_edge_mass), on the triangles sel."""
    grads, curls = _geometry(mesh, sel)
    Mel = _edge_mass(grads, mesh.areas[sel])
    del grads
    # each product with an orientation sign (+-1) is exact, so signing Mel
    # by one local edge after the other keeps the bits of one product with
    # the sign pairs
    signs = mesh.tri_edge_signs[sel].astype(float)
    Mel *= signs[:, :, None]
    Mel *= signs[:, None, :]
    # int_T (curl w_j)(curl w_k) = area * (1/area)^2; keep the snapped weight
    # as a single factor so element entries stay exactly +-q
    Kel = signs[:, :, None] * signs[:, None, :]
    Kel *= curls[:, None, None]
    return mesh.tri_edges[sel], Kel, Mel


def _edge_aux(mesh: Mesh, tm):
    """The edge row's pairing with the minus-region piecewise constants on
    the minus triangles tm, and their mass."""
    rows_c = np.repeat(np.arange(len(tm)), 3)
    cols_c = mesh.tri_edges[tm].ravel()
    # int_T curl w_e = area * (1/area): exactly the orientation sign
    vals_c = mesh.tri_edge_signs[tm].astype(float).ravel()
    C = sp.coo_matrix((vals_c, (rows_c, cols_c)),
                      shape=(len(tm), mesh.num_edges)).tocsr()
    MY = sp.diags(mesh.areas[tm]).tocsr()
    return C, MY


def _scalar_elements(mesh: Mesh, sel):
    """The scalar row's dofs and P1 element matrices (len(sel), 3, 3),
    stiffness and mass, on the triangles sel."""
    grads, _ = _geometry(mesh, sel)
    area = mesh.areas[sel]
    Ksel = np.empty((len(sel), 3, 3))
    for j in range(3):
        for k in range(j, 3):
            # + 0.0 turns a -0.0 product into +0.0, as a sum started from
            # zero does, so the P1 stiffness keeps the signs of its zeros
            g = _rowdot(grads[j], grads[k]) + 0.0
            Ksel[:, j, k] = Ksel[:, k, j] = g * area
    # int_T lam_j lam_k = area (1 + delta_jk) / 12
    Msel = area[:, None, None] * ((1 + np.eye(3)) / 12)
    return mesh.triangles[sel], Ksel, Msel


def _scalar_aux(mesh: Mesh, tm):
    """The scalar row's pairing Cs on the minus triangles tm, the two
    components of area * grad v per triangle, and their mass MYs; Cs^T
    MYs^-1 Cs is the minus-region stiffness."""
    area = mesh.areas[tm]
    rows_s = np.repeat(2 * np.arange(len(tm)), 3)
    rows_s = np.concatenate([rows_s, rows_s + 1])
    cols_s = np.tile(mesh.triangles[tm].ravel(), 2)
    agrad = _geometry(mesh, tm)[0] * area
    vals_s = np.concatenate([agrad[:, 0].T.ravel(), agrad[:, 1].T.ravel()])
    Cs = sp.coo_matrix((vals_s, (rows_s, cols_s)),
                       shape=(2 * len(tm), mesh.num_vertices)).tocsr()
    MYs = sp.diags(np.repeat(area, 2)).tocsr()
    return Cs, MYs


def _edge_load(mesh: Mesh, mat: mats.DrudeMaterial, lam, f) -> np.ndarray:
    """The edge row's load <f, w> (assemble_rhs), for a callable f or a
    constant vector f of shape (2,)."""
    return assemble_rhs(mesh, f if callable(f)
                        else lambda x: np.broadcast_to(f, x.shape))


def _scalar_load(mesh: Mesh, mat: mats.DrudeMaterial, lam, f) -> np.ndarray:
    """The scalar row's load <mu(lam) f0, w> for the constant vector source f,
    shape (2,), with f0 = f1 x2 - f2 x1 so that Curl f0 = (d2 f0, -d1 f0) =
    f, by the midpoint rule, which is exact for the affine f0."""
    v = _vertex_coords(mesh)
    mu_t = np.where(mesh.region == 1, float(mats.mu(mat, lam, "+")),
                    float(mats.mu(mat, lam, "-")))
    vals = None
    for lam_b, w in zip(*MID_RULE):
        x = _lincomb(lam_b, v)
        f0 = f[0] * x[1] - f[1] * x[0]
        contrib = w * f0[:, None] * lam_b[None, :]
        vals = contrib if vals is None else vals + contrib
    vals = vals * (mu_t * mesh.areas)[:, None]
    return np.bincount(mesh.triangles.ravel(), weights=vals.ravel(),
                       minlength=mesh.num_vertices)


# In 2D the scalar-potential problem is the edge problem with mu and eps
# exchanged, on P1 functions with natural boundary conditions.
EDGE = Formulation("edge", _edge_space, _edge_elements, _edge_aux, _edge_load,
                   swap=False)
SCALAR = Formulation("scalar", _scalar_space, _scalar_elements, _scalar_aux,
                     _scalar_load, swap=True)


@dataclass(frozen=True, eq=False)
class Blocks:
    """One formulation row's blocks on one mesh (assemble_blocks), and the row
    they belong to, which every routine that takes them reads from form."""

    form: Formulation
    stiffness: Tuple[sp.csr_matrix, sp.csr_matrix]
    mass: Tuple[sp.csr_matrix, sp.csr_matrix]
    pairing: sp.csr_matrix
    aux_mass: sp.csr_matrix


def assemble_blocks(mesh: Mesh, form: Formulation = EDGE) -> Blocks:
    """The blocks of one formulation row: stiffness and mass as (plus, minus)
    region pairs on every dof of its space, the pairing of the space with the
    minus-region auxiliary unknowns and their mass.

    EDGE: edge-element curl-curl and mass; the <curl u, q> pairing with the
    minus-region piecewise constants, whose mass is the diagonal of minus
    areas.  SCALAR: P1 stiffness and mass; the two components of area *
    grad v per minus triangle, and their mass."""
    n = form.space(mesh).ndof
    regions = []
    # region by region, so no element array of the whole mesh is built
    for sign in (1, -1):
        dofs, Sel, Mel = form.elements(mesh, np.flatnonzero(mesh.region == sign))
        rows, cols = np.repeat(dofs, 3, axis=1), np.tile(dofs, (1, 3))
        stiffness = _scatter(rows, cols, Sel, (n, n))
        del Sel
        regions.append((stiffness, _scatter(rows, cols, Mel, (n, n))))
    stiffness, mass = zip(*regions)
    pairing, aux_mass = form.aux(mesh, np.flatnonzero(mesh.region == -1))
    return Blocks(form, stiffness, mass, pairing, aux_mass)


def gradient_map(mesh: Mesh) -> sp.csr_matrix:
    """Coefficient map from P1 functions into the edge space: the tangential
    moment of a gradient along edge (a,b), a<b, is p(b) - p(a)."""
    E = mesh.num_edges
    rows = np.repeat(np.arange(E), 2)
    cols = mesh.edges.ravel()
    vals = np.tile([-1.0, 1.0], E)
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(E, mesh.num_vertices)).tocsr()


def assemble_A(blocks: Blocks, mat: mats.DrudeMaterial, lam,
               space: Space) -> sp.csr_matrix:
    """A(lam) = mu(lam)^-1-weighted stiffness minus lam eps(lam)-weighted
    mass of the blocks' row, on the free dofs of space.  For the edge
    problem that is curl-curl and mass on the interior edges; the scalar row
    reads the same law with mu and eps swapped."""
    m = blocks.form.roles(mat)
    k_p = 1.0 / float(mats.mu(m, lam, "+"))
    k_m = float(mats.mu_inv(m, lam, "-"))
    m_p = float(mats.eps(m, lam, "+"))
    m_m = float(mats.eps(m, lam, "-"))
    (K_p, K_m), (M_p, M_m) = blocks.stiffness, blocks.mass
    A = k_p * K_p + k_m * K_m - lam * (m_p * M_p + m_m * M_m)
    return space.restrict_matrix(A)


def _quadrature(grads, rule):
    """Walk a barycentric rule over every triangle: per point, its weight,
    the barycentric point and the local edge functions (3, 2, T)."""
    for lam, w in zip(*rule):
        yield w, lam, _whitney_at(grads, lam)


def _signed_coeffs(mesh: Mesh, u_full: np.ndarray) -> np.ndarray:
    """An edge field's coefficients per triangle, times the local orientation
    signs, in float64: (3, T)."""
    u = np.asarray(u_full, dtype=float)
    return u.take(mesh.tri_edges.T) * mesh.tri_edge_signs.T


def _edge_values(mesh: Mesh, u_full: np.ndarray, rule):
    """An edge field at the points of a barycentric rule: per point, its
    weight, the barycentric point and the field values (2, T)."""
    coef = _signed_coeffs(mesh, u_full)
    for w, lam, W in _quadrature(_geometry(mesh)[0], rule):
        yield w, lam, _lincomb(coef, W)


def _edge_curls(mesh: Mesh, u_full: np.ndarray) -> np.ndarray:
    """Elementwise curls (T,) of an edge field."""
    coef, q = _signed_coeffs(mesh, u_full), _curl_weights(mesh.areas)
    # summed as (0 + 2) + 1, the order np.einsum("tj,tj->t") takes, so the
    # curls of a float64 field keep their bits
    return (coef[0] * q + coef[2] * q) + coef[1] * q


def assemble_rhs(mesh: Mesh, fun: Callable) -> np.ndarray:
    """Edge-space load vector <f, w> for a vector-valued f(x) -> (…,2), by the
    midpoint rule."""
    v = _vertex_coords(mesh)
    vals = None
    for w, lam, W in _quadrature(_geometry(mesh)[0], MID_RULE):
        f = np.asarray(fun(_lincomb(lam, v).T), dtype=float)
        contrib = w * (f[:, 0] * W[:, 0] + f[:, 1] * W[:, 1])
        vals = contrib if vals is None else vals + contrib
    vals = vals * mesh.areas * mesh.tri_edge_signs.T
    # triangle by triangle, the order of the element loop
    return np.bincount(mesh.tri_edges.ravel(), weights=vals.T.ravel(),
                       minlength=mesh.num_edges)


def block_norm_sq(blocks: Tuple[sp.spmatrix, ...], u_full: np.ndarray) -> float:
    """u^T (B_1 + ... + B_k) u for a tuple of blocks, each applied to u: a
    (plus, minus) pair of region blocks (Blocks.stiffness, Blocks.mass), or
    one matrix (B,), as discrete_infsup's Rayleigh quotient takes it; there
    B may be the indefinite A(lam), so the form may be negative.
    Summed in longdouble, bit for bit as with a longdouble copy of B: the
    curl energy of a gradient-heavy field cancels in K u, and float64 lost
    up to 2.5e-12 of it on section 5.2 eigenvectors (r = 0.05, L1)."""
    u = np.asarray(u_full, dtype=np.longdouble)
    return float(sum(u @ (B @ u) for B in blocks))


def potential_flux(mesh: Mesh, mat: mats.DrudeMaterial, lam,
                   v: np.ndarray) -> np.ndarray:
    """eps(lam)^-1 Curl v per triangle, (T, 2), with Curl v = (d2 v, -d1 v)
    computed from the P1 field v, in float64."""
    v = np.asarray(v, dtype=float)
    gv = _lincomb(v.take(mesh.triangles.T), _geometry(mesh)[0])
    curl_v = np.column_stack([gv[1], -gv[0]])
    eps_t = np.where(mesh.region == 1,
                     float(mats.eps(mat, lam, "+")),
                     float(mats.eps(mat, lam, "-")))
    return curl_v / eps_t[:, None]


def cross_error(mesh: Mesh, u_full: np.ndarray, flux: np.ndarray) -> float:
    """Relative L2 distance between the edge field u and the elementwise
    constant field flux (T, 2): the potential_flux of the scalar solve."""
    # the flux is constant per triangle, so every quadrature point sees the
    # same norm R; w * R per point rounds exactly as a per-point sum would
    target = flux.T
    R = float(_rowdot(target, target) @ mesh.areas)
    err = ref = 0.0
    for w, _, uv in _edge_values(mesh, u_full, MID_RULE):
        d = uv - target
        err += w * float(_rowdot(d, d) @ mesh.areas)
        ref += w * R
    if ref == 0:
        raise FemError("reference field vanishes; relative error undefined")
    return float(np.sqrt(err / ref))


def eval_cellwise(mesh: Mesh, u_full: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Barycenter values (T, 2) and elementwise curls (T,) of an edge field."""
    barycenter = (np.array([[1 / 3, 1 / 3, 1 / 3]]), np.ones(1))
    (_, _, vals), = _edge_values(mesh, u_full, barycenter)
    return vals.T, _edge_curls(mesh, u_full)


def error_vs_exact(mesh: Mesh, u_full: np.ndarray, exact: Callable,
                   exact_curl: Callable) -> Tuple[float, float]:
    """Relative L2 and H(curl) errors of an edge field against a smooth exact
    field (values (..., 2)) with known scalar curl, by the degree-5 rule.

    Quadrature-based on purpose: comparing to the edge interpolant instead
    would report the superclose O(h^2) distance on uniform meshes and fake a
    convergence order.
    """
    v = _vertex_coords(mesh)
    curl_h = _edge_curls(mesh, u_full)
    errsq = refsq = cerrsq = crefsq = 0.0
    for w, lam_b, uh in _edge_values(mesh, u_full, STRANG_RULE):
        x = _lincomb(lam_b, v).T
        ue = np.asarray(exact(x), dtype=float).T
        ce = np.asarray(exact_curl(x), dtype=float)
        d = uh - ue
        errsq += w * float(_rowdot(d, d) @ mesh.areas)
        refsq += w * float(_rowdot(ue, ue) @ mesh.areas)
        cerrsq += w * float(((curl_h - ce) ** 2) @ mesh.areas)
        crefsq += w * float((ce ** 2) @ mesh.areas)
    if refsq + crefsq == 0:
        raise FemError("exact field vanishes; relative error undefined")
    l2 = np.sqrt(errsq / refsq)
    x = np.sqrt((errsq + cerrsq) / (refsq + crefsq))
    return float(l2), float(x)


def interpolate_edge(mesh: Mesh, fun: Callable) -> np.ndarray:
    """Edge dofs of a vector field: 3-point Gauss tangential moments."""
    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]
    d = b - a
    out = np.zeros(mesh.num_edges)
    for t, w in zip(_EDGE_T, _EDGE_W):
        x = a + t * d
        out += w * _rowdot(np.asarray(fun(x), dtype=float).T, d.T)
    return out


def _child_moments() -> np.ndarray:
    """(4, 3, 3) table: tangential moment of the parent's local edge function
    i along local edge j (vertex j to j+1) of child c of mesh.RED_CHILDREN,
    the table refine_red writes, whose points have the barycentric
    coordinates of the unit vectors and their cyclic means.  The function is
    linear, so the moment is its midpoint value times the
    edge vector, and grad(lam_i) . (q - p) is the barycentric difference:
    lam_i(m) D_k - lam_k(m) D_i with k = i+1.  Entries are 0, +-1/4, +-1/2."""
    unit = np.eye(3)
    bary = np.vstack([unit, 0.5 * (unit + np.roll(unit, -1, axis=0))])[RED_CHILDREN]
    p, q = bary, np.roll(bary, -1, axis=1)
    m, d = 0.5 * (p + q), q - p
    k = [1, 2, 0]
    return m * d[:, :, k] - m[:, :, k] * d


def edge_prolongation(coarse: Mesh, fine: Mesh) -> sp.csr_matrix:
    """Exact transfer (E_fine, E_coarse) of edge fields onto refine_red(coarse).

    The spaces are nested, so a fine dof is the tangential moment of the
    coarse field along the fine edge: a fixed local pattern per child, with
    at most three entries per row, each +-1/4 or +-1/2.  Built from
    parent_tri and the child numbering alone, without quadrature."""
    if (fine.parent_tri is None
            or fine.num_vertices != coarse.num_vertices + coarse.num_edges
            or not np.array_equal(fine.parent_tri,
                                  np.repeat(np.arange(coarse.num_triangles), 4))):
        raise FemError("fine mesh lacks parent metadata (not refine_red of coarse)")
    # any adjacent fine triangle for each fine edge, and its local edge index
    slot = np.empty(fine.num_edges, dtype=np.int64)
    slot[fine.tri_edges.ravel()] = np.arange(3 * fine.num_triangles)
    t, j = np.divmod(slot, 3)
    parent = fine.parent_tri[t]
    vals = _child_moments()[t % 4, j]                      # (E_fine, 3)
    vals *= fine.tri_edge_signs[t, j, None] * coarse.tri_edge_signs[parent]
    P = sp.csr_matrix((vals.ravel(), (np.repeat(np.arange(fine.num_edges), 3),
                                      coarse.tri_edges[parent].ravel())),
                      shape=(fine.num_edges, coarse.num_edges))
    P.eliminate_zeros()
    return P
