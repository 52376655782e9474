"""Triangle mesh structure, red refinement, fold images and the
reflection-conformity check, and the plain-text mesh writer.

Triangles carry a region label (+1/-1) and a patch membership (none, corner n,
edge n); every triangle must lie entirely inside one region.  Edges are
deduplicated with global low->high orientation, which the edge-element
assembly relies on, and sorted by the key lo*V + hi, by which Mesh.edge_ids
finds them.  Red refinement writes its children from one table,
RED_CHILDREN, from which fem's edge prolongation also reads them.

fold_images is the one place where the images of patch triangles under the
corner fold maps and edge mirrors are matched to the mesh and each match is
decided: the nearest vertices of an image must form an other-side triangle,
each within 1e-10 * h_max.  The conformity check reports the unmatched
images and the reflection operators refuse them.  On a locally
reflection-conform mesh every image lands on a vertex up to rounding, so
the nearest vertex is an exact lookup of rounded coordinates in a sorted
key array, not a nearest-neighbour search.  Only an image whose key is not
that of exactly one vertex, which a conforming mesh does not produce, is
matched by scanning every candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import geometry as geo

PATCH_NONE, PATCH_CORNER, PATCH_EDGE = 0, 1, 2


class MeshError(ValueError):
    """Structurally invalid mesh."""


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable triangle mesh with region/patch labels and derived edge data.

    vertices: (V,2) float; triangles: (T,3) vertex ids, positively oriented;
    region: (T,) +1/-1; patch_kind/patch_index: (T,) patch membership.
    Derived in __post_init__: edges (E,2) with low<high, tri_edges (T,3)
    (local edge j joins vertices j and j+1 mod 3), tri_edge_signs (T,3),
    boundary_edge (E,), areas (T,), h_max.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    region: np.ndarray
    patch_kind: np.ndarray
    patch_index: np.ndarray
    parent_tri: Optional[np.ndarray] = None

    edges: np.ndarray = field(init=False)
    tri_edges: np.ndarray = field(init=False)
    tri_edge_signs: np.ndarray = field(init=False)
    boundary_edge: np.ndarray = field(init=False)
    areas: np.ndarray = field(init=False)
    h_max: float = field(init=False)

    def __post_init__(self):
        put = lambda k, v: object.__setattr__(self, k, v)
        put("vertices", np.ascontiguousarray(self.vertices, dtype=float))
        put("triangles", np.ascontiguousarray(self.triangles, dtype=np.int32))
        put("region", np.ascontiguousarray(self.region, dtype=np.int8))
        put("patch_kind", np.ascontiguousarray(self.patch_kind, dtype=np.int8))
        put("patch_index", np.ascontiguousarray(self.patch_index, dtype=np.int32))
        tri, ver = self.triangles, self.vertices
        if tri.size and (tri.min() < 0 or tri.max() >= len(ver)):
            raise MeshError("triangle references a missing vertex")
        if len({a.shape[0] for a in (tri, self.region, self.patch_kind, self.patch_index)}) != 1:
            raise MeshError("per-triangle arrays disagree in length")
        d1 = ver[tri[:, 1]] - ver[tri[:, 0]]
        d2 = ver[tri[:, 2]] - ver[tri[:, 0]]
        areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        # local edge j = (v_j, v_{j+1}); sign +1 when stored low->high
        pairs = np.stack([tri, np.roll(tri, -1, axis=1)], axis=2).reshape(-1, 2)
        signs = np.where(pairs[:, 0] < pairs[:, 1], 1, -1).astype(np.int8)
        nv = len(ver)
        key, inverse = np.unique(_edge_keys(pairs, nv), return_inverse=True)
        edges = np.stack([key // nv, key % nv], axis=1)
        put("edges", edges.astype(np.int32))
        put("tri_edges", inverse.reshape(-1, 3).astype(np.int32))
        put("tri_edge_signs", signs.reshape(-1, 3))
        counts = np.bincount(self.tri_edges.ravel(), minlength=len(edges))
        if counts.max(initial=0) > 2:
            raise MeshError("non-manifold edge (more than two adjacent triangles)")
        put("boundary_edge", counts == 1)
        put("areas", areas)
        lengths = np.linalg.norm(ver[edges[:, 1]] - ver[edges[:, 0]], axis=1)
        put("h_max", float(lengths.max(initial=0.0)))
        if np.any(areas <= 1e-14 * self.h_max**2):
            bad = int(np.argmin(areas))
            raise MeshError(f"degenerate or negatively oriented triangle {bad}")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def barycenters(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    def edge_ids(self, pairs: np.ndarray) -> np.ndarray:
        """Ids of the edges joining the vertex pairs (..., 2), in either
        order; every pair must be an edge of the mesh."""
        nv = self.num_vertices
        return np.searchsorted(_edge_keys(self.edges, nv), _edge_keys(pairs, nv))


def _edge_keys(pairs: np.ndarray, nv: int) -> np.ndarray:
    """Key lo*V + hi of the vertex pairs (..., 2), which sorts like the rows
    (lo, hi): the order of Mesh.edges.  int64 before the product, as V^2 >
    2^31 at L4 (NumPy 1.x keeps int32 * int64 scalar in int32)."""
    pairs = np.asarray(pairs, dtype=np.int64)
    return pairs.min(axis=-1) * nv + pairs.max(axis=-1)


# the children of triangle (a, b, c) in red refinement, over its points
# (a, b, c, m_ab, m_bc, m_ca): the vertices, then the local-edge midpoints
RED_CHILDREN = np.array([[0, 3, 5], [1, 4, 3], [2, 5, 4], [3, 4, 5]])


def refine_red(mesh: Mesh) -> Mesh:
    """Split every triangle into 4 congruent children through edge midpoints.

    Child c of triangle t is triangle 4t + c, with the points RED_CHILDREN[c]
    of t; the midpoint of edge e is vertex V + e.  Children inherit region
    and patch labels; parent_tri records provenance for intergrid transfer.
    h_max halves exactly and the minimum angle is preserved (children are
    similar to their parents).
    """
    V = mesh.num_vertices
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, mids])
    points = np.hstack([mesh.triangles, V + mesh.tri_edges])
    children = points[:, RED_CHILDREN].reshape(-1, 3)
    rep = lambda arr: np.repeat(arr, 4)
    return Mesh(vertices, children, rep(mesh.region), rep(mesh.patch_kind),
                rep(mesh.patch_index),
                parent_tri=rep(np.arange(mesh.num_triangles, dtype=np.int32)))


# ---------------------------------------------------------------------------
# fold images


_PATCH_KINDS = {"corner": PATCH_CORNER, "edge": PATCH_EDGE}


# fold-image keys round coordinates to a grid of _KEY_STEP times the extent
# of the candidates' bounding box, so each candidate's key is a pair of
# integers in [0, 1e9], whatever the mesh level
_KEY_STEP = 1e-9
_KEY_MAX = 2**30


def _nearest_rows(points: np.ndarray):
    """Matcher of query points (m, 2) to their nearest row of POINTS (n, 2).

    A query whose key, its coordinates rounded on the grid, is the key of
    exactly one row of POINTS lies within sqrt(2) grid steps of that row,
    which is then the nearest unless another row lies within 2 sqrt(2)
    steps, about 3e-9 times the extent: far closer than the vertices of any
    mesh the program builds.  The keys of POINTS are sorted once and each
    query key is found by binary search.  Every other query, which a
    reflection-conform mesh does not produce, is matched by _nearest_by_scan.
    """
    lo = points.min(axis=0)
    step = _KEY_STEP * float((points.max(axis=0) - lo).max())

    def key(p):
        # a query off the grid's range is clipped to a key no row of POINTS has
        q = np.clip(np.rint((p - lo) / step), -1, _KEY_MAX).astype(np.int64)
        return q[:, 0] * (2 * _KEY_MAX) + q[:, 1]

    keys = key(points)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    new = sorted_keys[1:] != sorted_keys[:-1]
    single = np.r_[True, new] & np.r_[new, True]

    def nearest(query: np.ndarray) -> np.ndarray:
        qk = key(query)
        at = np.minimum(np.searchsorted(sorted_keys, qk), len(points) - 1)
        rows = order[at]
        miss = np.flatnonzero((sorted_keys[at] != qk) | ~single[at])
        if len(miss):
            rows[miss] = _nearest_by_scan(points, query[miss])
        return rows

    return nearest


def _nearest_by_scan(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Row of POINTS nearest each row of QUERY, from every distance; the
    queries go in blocks of about 2**20 distances."""
    rows = np.empty(len(query), dtype=np.intp)
    block = max(1, 2**20 // len(points))
    for s in range(0, len(query), block):
        d = query[s:s + block, None, :] - points
        rows[s:s + block] = np.argmin(d[..., 0] ** 2 + d[..., 1] ** 2, axis=1)
    return rows


@dataclass(frozen=True, eq=False)
class FoldImages:
    """Where the defined-side triangles of one patch land under their maps.

    One row per (triangle, map of the triangle's sector), ordered by triangle
    and then map: vertex[r, j] is the other-side patch vertex nearest the
    image of vertex j of triangle tri[r] under maps[map[r]], dist[r, j] the
    distance between them.  other_vertices holds the sorted ids of all
    other-side patch vertices, the candidates of that search.  matched[r]
    says whether row r folds onto the mesh: vertex[r] is, up to order, a
    triangle of the other side, and every dist[r, j] is at most
    1e-10 * h_max.  This is the program's one conformity rule.

    The nearest vertex is found by _nearest_rows.  On a reflection-conform
    mesh every image lies on a candidate up to rounding, so a lookup of its
    rounded coordinates finds it and no nearest-neighbour structure (a
    KD-tree) is needed.  Only the images that find no single candidate,
    which a non-conforming mesh produces, are matched by scanning every
    candidate.  Either way vertex holds the nearest candidate.
    """

    maps: Tuple[geo.SectorMap, ...]
    defined: np.ndarray
    other: np.ndarray
    other_vertices: np.ndarray
    tri: np.ndarray
    map: np.ndarray
    vertex: np.ndarray
    dist: np.ndarray
    matched: np.ndarray


def fold_images(mesh: Mesh, domain: geo.DomainSpec, pattern: Tuple[str, int],
                direction: str) -> FoldImages:
    """Fold images of the patch pattern ("corner", n) or ("edge", n).

    Corner patterns use geo.fold_maps in the same direction, each map
    applied to the defined-side triangles of its source sector.  By its
    parity rule, the map of sector s onto sector t is the reflection across
    the half-ray (s+t+1)/2 * beta for t-s odd and the rotation by (t-s) * beta
    for t-s even, with the sign (-1)^(j+1) of the j-th map of s.  Edge
    patterns use the one mirror for every triangle.  An
    empty patch gives no maps; a patch with one side empty gives no rows.
    Raises geo.GeometryError for a corner whose sector counts are both even,
    MeshError for an unknown pattern kind or direction.
    """
    kind, n = pattern
    if kind not in _PATCH_KINDS:
        raise MeshError(f"unknown pattern kind {kind!r}")
    if direction not in ("+", "-"):
        raise MeshError(f"direction must be '+' or '-', got {direction!r}")
    # direction "+" defines the minus side from plus-side data, "-" the reverse
    in_patch = (mesh.patch_kind == _PATCH_KINDS[kind]) & (mesh.patch_index == n)
    side = -1 if direction == "+" else 1
    defined = np.flatnonzero(in_patch & (mesh.region == side))
    other = np.flatnonzero(in_patch & (mesh.region == -side))
    if not (len(defined) or len(other)):
        maps = ()
    elif kind == "corner":
        corner = domain.patterns[n]
        maps = geo.fold_maps(corner, direction)
        sector = corner.sector_of(mesh.vertices[mesh.triangles[defined]].mean(axis=1))
    else:
        maps = (geo.edge_reflection(*domain.edges[n]),)
        sector = np.full(len(defined), -1)
    other_vertices, local = np.unique(mesh.triangles[other], return_inverse=True)
    rows = [(np.empty(0, int), np.empty(0, int), np.empty((0, 3), int), np.empty((0, 3)),
             np.empty(0, bool))]
    if len(other):
        # a triple of candidates as one integer: their sorted positions in
        # other_vertices, raveled (raises rather than wraps if too large)
        dims = (len(other_vertices),) * 3
        key = lambda pos: np.ravel_multi_index(np.sort(pos, axis=1).T, dims)
        other_keys = key(local.reshape(-1, 3))
        tol = 1e-10 * mesh.h_max
        nearest = _nearest_rows(mesh.vertices[other_vertices])
        for k, m in enumerate(maps):
            t = defined[sector == m.source_sector]
            image = m(mesh.vertices[mesh.triangles[t]])
            pos = nearest(image.reshape(-1, 2)).reshape(-1, 3)
            ids = other_vertices[pos]
            dist = np.linalg.norm(mesh.vertices[ids] - image, axis=-1)
            rows.append((t, np.full(len(t), k), ids, dist,
                         np.isin(key(pos), other_keys) & (dist <= tol).all(axis=1)))
    tri, map_of, vertex, dist, matched = (np.concatenate(c) for c in zip(*rows))
    order = np.lexsort((map_of, tri))
    return FoldImages(tuple(maps), defined, other, other_vertices, tri[order],
                      map_of[order], vertex[order], dist[order], matched[order])


# ---------------------------------------------------------------------------
# reflection conformity (Definition-3 style checking)


@dataclass
class ConformityReport:
    passed: bool
    violations: List[Tuple[int, str, str]]  # (triangle id, map id, description)
    max_vertex_mismatch: float
    unchecked: List[Tuple[str, int]]  # ("corner", n) patterns with no fold maps

    def __bool__(self):
        return self.passed


def check_r_conformity(mesh: Mesh, domain: geo.DomainSpec) -> ConformityReport:
    """Check that every patch triangle maps exactly onto a patch triangle of
    the other region under the corner fold maps / edge mirrors.

    Reports the rows that fold_images leaves unmatched, so it passes exactly
    the meshes on which reflection.build_reflection builds every operator.
    Corners whose pattern admits no fold maps (p_+ and p_- both even) are
    checked through the edge mirrors only and listed in ``unchecked``;
    ``passed`` means no violation among the maps that exist.
    """
    violations: List[Tuple[int, str, str]] = []
    unchecked: List[Tuple[str, int]] = []
    worst = 0.0
    patterns = ([("corner", i) for i in range(len(domain.patterns))]
                + [("edge", n) for n in range(len(domain.edges))])
    for kind, n in patterns:
        pattern = (kind, n)
        for direction, label in zip("+-", (f"{kind}{n}:p2m", f"{kind}{n}:m2p")):
            try:
                img = fold_images(mesh, domain, pattern, direction)
            except geo.GeometryError:
                unchecked.append(pattern)  # no fold maps exist for this pattern
                break
            if not len(img.other):
                violations += [(int(t), label, "no target-side triangles in patch")
                               for t in img.defined]
                continue
            worst = max(worst, float(img.dist[img.matched].max(initial=0.0)))
            for r in np.flatnonzero(~img.matched):
                image = img.maps[img.map[r]](mesh.vertices[mesh.triangles[img.tri[r]]])
                violations.append(
                    (int(img.tri[r]), f"{label}[{img.map[r]}]",
                     f"image near {np.round(image.mean(axis=0), 6).tolist()} unmatched"))
    return ConformityReport(not violations, violations, worst, unchecked)


# ---------------------------------------------------------------------------
# text format


def mesh_write(mesh: Mesh, path) -> None:
    """Write the text format: header "signfem-mesh v1", "vertices V" and rows
    "i x y" (repr floats, exact), "triangles T" and rows "t v1 v2 v3 region
    patch".  The program writes this format and reads none."""
    patch = {PATCH_NONE: "none", PATCH_CORNER: "corner:{}", PATCH_EDGE: "edge:{}"}
    labels = [patch[k].format(n) for k, n in
              zip(mesh.patch_kind.tolist(), mesh.patch_index.tolist())]
    with open(path, "w") as fh:
        fh.write("signfem-mesh v1\n")
        fh.write(f"vertices {mesh.num_vertices}\n")
        fh.write("".join(map("{} {!r} {!r}\n".format, range(mesh.num_vertices),
                             *mesh.vertices.T.tolist())))
        fh.write(f"triangles {mesh.num_triangles}\n")
        fh.write("".join(map("{} {} {} {} {} {}\n".format, range(mesh.num_triangles),
                             *mesh.triangles.T.tolist(),
                             np.where(mesh.region > 0, "+", "-").tolist(), labels)))
