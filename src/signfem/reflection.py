"""Discrete reflection operators on locally R-conform meshes.

The operators are sparse transfer tables: on an R-conform mesh every patch
triangle maps onto a mesh triangle under the fold isometries, so reflecting
an FE coefficient vector is a matrix product with no interpolation anywhere.
The tables read their vertex images from mesh.fold_images, the one place
where fold images are matched to the mesh and each match is decided
(check_r_conformity reports the same decision); a table is built only when
every patch triangle's image is matched.  Scalar tables move vertex values
along the inverse compositions with the alternating fold signs; vector
tables move tangential edge moments, picking up the extra orientation sign
of the image edge, which the mesh finds (Mesh.edge_ids).  Outside the patch
the reflected field is extended by zero — every consumer weights with the
patch cut-off, so nothing beyond the patch is ever read.

Operator norms are estimated from the generalized eigenproblem of the
cut-off-weighted seminorm Grams, restricted away from the seminorm's null
directions.  The Grams are the stiffness element matrices of the rows
fem.SCALAR (gradient) and fem.EDGE (curl) on the triangles of each side,
each times the mean of the cut-off over its triangle: both integrands are
constant per triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from . import fem, geometry as geo
from .materials import critical_interval
from .mesh import Mesh, MeshError, fold_images

__all__ = [
    "ReflectionError", "DiscreteReflection", "NormEstimate",
    "build_reflection", "verify_trace_matching", "estimate_norm",
]


class ReflectionError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class DiscreteReflection:
    kind: str                 # "scalar" | "vector"
    direction: str            # "+": plus side onto minus; "-": the reverse
    pattern: Tuple[str, int]  # ("corner", n) | ("edge", n)
    matrix: sp.csr_matrix     # ndof x ndof; rows outside the target patch zero
    target_dofs: np.ndarray
    source_dofs: np.ndarray
    interface_dofs: np.ndarray
    target_triangles: np.ndarray  # the patch side it defines (FoldImages.defined)
    source_triangles: np.ndarray  # the side it reads (FoldImages.other)


@dataclass(frozen=True)
class NormEstimate:
    pattern: Tuple[str, int]
    kind: str
    direction: str
    measured_sup: float
    measured_sup_squared: float
    formula_value: float
    level_sups: Tuple[float, ...] = ()


def build_reflection(mesh: Mesh, domain: geo.DomainSpec,
                     pattern: Tuple[str, int], kind: str,
                     direction: str) -> DiscreteReflection:
    """Assemble the transfer table for one patch pattern.

    direction "+" defines the field on the minus side from plus-side data,
    "-" the reverse.  Raises ReflectionError when fold_images leaves the
    image of a patch triangle unmatched (non-conform mesh; the rows
    check_r_conformity reports), and for a corner whose sector counts are
    both even, which has no alternating fold.  Every vertex and edge of a
    matched image is a mesh vertex and edge.  A dof shared by two sectors is
    defined by the maps of the lower one.
    """
    if kind not in ("scalar", "vector"):
        raise ReflectionError(f"kind must be 'scalar' or 'vector', got {kind!r}")
    try:
        img = fold_images(mesh, domain, pattern, direction)
    except (MeshError, geo.GeometryError) as exc:
        # unknown pattern kind or direction; a corner with both counts even
        raise ReflectionError(str(exc)) from exc
    if not (len(img.defined) and len(img.other)):
        raise ReflectionError(f"pattern {pattern} has no triangles on both sides")
    if not img.matched.all():
        r = int(np.argmin(img.matched))
        raise ReflectionError(
            f"non-conform mesh: the image of triangle {img.tri[r]} under fold map "
            f"{img.map[r]} of pattern {pattern} is not a mesh triangle")
    sector = np.array([m.source_sector for m in img.maps])[img.map]
    sign = np.array([m.sign for m in img.maps], dtype=float)[img.map]

    # dof j of row r is vertex j (scalar) or local edge j, which joins
    # vertices j and j+1 (vector) of triangle tri[r]; each dof takes the maps
    # of its lowest sector, one row per map
    if kind == "scalar":
        ndof, dof, ends = mesh.num_vertices, mesh.triangles[img.tri], [0]
    else:
        ndof, dof, ends = mesh.num_edges, mesh.tri_edges[img.tri], [0, 1]
    owner = np.full(ndof, np.iinfo(np.int64).max)
    np.minimum.at(owner, dof.ravel(), np.repeat(sector, 3))
    r, j = np.nonzero(sector[:, None] == owner[dof])
    _, first = np.unique(dof[r, j].astype(np.int64) * len(img.maps) + img.map[r],
                         return_index=True)
    r, j = r[first], j[first]
    local = (j[:, None] + ends) % 3  # triangle-local vertices of each dof
    image = img.vertex[r[:, None], local]
    rows, vals = dof[r, j], sign[r]
    if kind == "scalar":
        cols = image[:, 0]
    else:
        cols = mesh.edge_ids(image)
        # the image edge's orientation against the mesh edge's, seen along
        # the local edge direction j -> j+1
        vals = (vals * mesh.tri_edge_signs[img.tri[r], j]
                * np.where(image[:, 0] < image[:, 1], 1.0, -1.0))
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(ndof, ndof)).tocsr()

    # interface dofs: edges shared by patch triangles of both regions
    iface = np.intersect1d(mesh.tri_edges[img.defined], mesh.tri_edges[img.other])
    if kind == "scalar":
        iface, src_dofs = np.unique(mesh.edges[iface]), img.other_vertices
    else:
        src_dofs = np.unique(mesh.tri_edges[img.other])
    return DiscreteReflection(kind, direction, pattern, matrix,
                              np.unique(rows), src_dofs, iface, img.defined, img.other)


def verify_trace_matching(mesh: Mesh, refl: DiscreteReflection,
                          trials: Optional[np.ndarray] = None) -> float:
    """Largest violation of the interface matching condition.

    Without trials, checks every basis field at once: the reflection minus the
    identity must vanish on the rows of the interface dofs.  With trials (one
    field per row), checks those fields only.
    """
    D = refl.matrix - sp.eye(refl.matrix.shape[0], format="csr")
    rows = D[refl.interface_dofs]
    if trials is not None:
        vals = rows @ np.atleast_2d(trials).T
        return float(np.abs(vals).max()) if vals.size else 0.0
    return float(np.abs(rows).max()) if rows.nnz else 0.0


def _weighted_gram(mesh: Mesh, tri_ids: np.ndarray, chi: geo.CutoffProfile,
                   kind: str, dofs: np.ndarray) -> np.ndarray:
    """Dense chi-weighted seminorm Gram on the sorted DOFS of the triangles
    TRI_IDS (module docstring); the cut-off's means take the degree-5 rule."""
    form = fem.SCALAR if kind == "scalar" else fem.EDGE
    conn, elem, _ = form.elements(mesh, tri_ids)
    v = mesh.vertices[mesh.triangles[tri_ids]]
    chi_mean = np.zeros(len(tri_ids))
    for lam, w in zip(*fem.STRANG_RULE):
        chi_mean += w * geo.cutoff_eval(chi, lam @ v)
    elem *= chi_mean[:, None, None]
    idx = np.searchsorted(dofs, conn)
    B = np.zeros((len(dofs), len(dofs)))
    # unbuffered and triangle-major: every entry sums its terms in triangle order
    np.add.at(B, (idx[:, :, None], idx[:, None, :]), elem)
    return B


def _patch_cutoff(domain: geo.DomainSpec, pattern: Tuple[str, int]):
    kind, n = pattern
    if kind == "corner":
        pat = domain.patterns[n]
        return geo.corner_cutoff(pat.corner, domain.patch_radius_corner)
    a, b = domain.edges[n]
    return geo.edge_cutoff(a, b, domain.patch_halfwidth_edge)


def estimate_norm(meshes: Sequence[Mesh], domain: geo.DomainSpec,
                  pattern: Tuple[str, int], kind: str,
                  direction: str) -> NormEstimate:
    """Discrete sup of the weighted Rayleigh quotient, per refinement level.

    Solves (R^T B_tgt R) x = sigma B_src x on the source patch dofs, with both
    Grams weighted by the patch cut-off and the quotient restricted to the
    complement of B_src's null directions.  measured_sup is sqrt(sigma) on the
    finest mesh; the squared value is reported alongside because the operator
    norm convention (sup vs sup squared) differs between sources, and the
    closed-form angle-ratio value matches the squared quantity.
    """
    cutoff = _patch_cutoff(domain, pattern)
    sups = []
    for mesh in meshes:
        refl = build_reflection(mesh, domain, pattern, kind, direction)
        S, T = refl.source_dofs, refl.target_dofs
        Bs = _weighted_gram(mesh, refl.source_triangles, cutoff, kind, S)
        Bt = _weighted_gram(mesh, refl.target_triangles, cutoff, kind, T)
        Rt = refl.matrix.tocsr()[T][:, S].toarray()
        N = Rt.T @ Bt @ Rt

        w, U = np.linalg.eigh(Bs)
        keep = w > 1e-10 * w.max()
        V = U[:, keep] * (1.0 / np.sqrt(w[keep]))
        sigma = float(np.linalg.eigvalsh(V.T @ N @ V).max())
        sups.append(np.sqrt(sigma))

    kindn, n = pattern
    formula = float(critical_interval([domain.patterns[n]])) if kindn == "corner" else 1.0
    return NormEstimate(pattern, kind, direction,
                        measured_sup=sups[-1], measured_sup_squared=sups[-1] ** 2,
                        formula_value=formula, level_sups=tuple(sups))
