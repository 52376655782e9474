"""Coarse mesh construction honoring the reflection symmetries.

Corner patches are regular 2(p_+ + p_-)-gons: slice vertices on the sector
rays at the patch radius, each slice symmetrically bisected through its chord
midpoint, so sector reflections carry patch triangles onto patch triangles
exactly.  Edge patches are mirror-symmetric trapezoid strips anchored at the
hexagon chord midpoints (legs coincide with hexagon chord halves, so no
hanging nodes).  The leftover regions are ear-clipped, split to the target
size by longest-edge bisection, and smoothed with Delaunay edge flips.  Patch
triangles are frozen by their patch label: splits and flips skip every edge
beside one and the smoothing moves none of their vertices.

The builder appends every vertex to a plain list and merges none, since it
creates no point twice.  ``geometry.DomainSpec`` keeps the corners more than
2R apart, every corner more than R + half-width from each edge not incident
to it, and every patch disk strictly inside the rectangle, so the patch,
strip and rectangle vertices are distinct.  Strip stations lie strictly
inside their segments, the hole bridge ends on the rectangle's right side,
and a split adds a new midpoint.  ``tests/test_mesh.py`` checks on every
pinned mesh that no two vertices lie within 1e-3 of each other.

The leftover-region passes share one edge-to-triangle adjacency builder,
``_edge_triangles``.  Splitting updates that adjacency in place after each
bisection (Shewchuk's *Triangle* bookkeeping) instead of rebuilding it; the
ear clipper tests every ear against every remaining vertex in one batch; the
Lawson flips evaluate their in-circle and orientation tests batched.  The
smoothing's Gauss-Seidel sweep runs as a level schedule (Anderson and Saad,
1989): a vertex's level is one more than the highest level among its
earlier-ordered movable neighbors, so no two vertices of a level are
adjacent, and moving the levels in turn, each as one batch, reads exactly the
positions the one-vertex-at-a-time sweep reads.  Each pass still makes the
same decisions in the same order as the plain scalar loops (edges in order
of first occurrence, the sweep's vertex order), and the batched tests
reproduce the scalar arithmetic bit for bit, so the mesh is a pure function
of (domain, h_target); ``tests/test_mesh.py`` pins it by hash and checks the
ear clipper and the smoothing against the plain loops.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Tuple

import numpy as np

from . import geometry as geo
from .mesh import Mesh, MeshError, PATCH_CORNER, PATCH_EDGE, PATCH_NONE


def _add(pts: List[np.ndarray], point) -> int:
    """Append POINT to the vertex list PTS; its id."""
    pts.append(np.asarray(point, dtype=float))
    return len(pts) - 1


def _cross(o, a, b):
    """Orientation of the points (or the rows of the (..., 2) arrays) o, a, b."""
    return ((a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1])
            - (a[..., 1] - o[..., 1]) * (b[..., 0] - o[..., 0]))


def ear_clip(points: np.ndarray) -> List[Tuple[int, int, int]]:
    """Triangulate a counterclockwise (weakly) simple polygon by ear clipping.

    Accepts repeated vertices from hole-bridge cuts.  Each step clips the
    fattest available ear (the first one on a tie); a vertex on or inside a
    candidate ear blocks it, so collinear boundary chains never produce
    hanging nodes.  Each step tests every ear against every remaining vertex
    in one batch, with the arithmetic of the scalar tests.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 3:
        raise MeshError("polygon with fewer than 3 vertices")
    scale = float(np.ptp(pts, axis=0).max())
    eps2 = 1e-12 * scale * scale
    tol = 1e-12 * scale
    idx = list(range(n))
    tris: List[Tuple[int, int, int]] = []

    while len(idx) > 3:
        m = len(idx)
        b = pts[idx]
        a, c = np.roll(b, 1, axis=0), np.roll(b, -1, axis=0)
        cr = _cross(a, b, c)
        ear = np.flatnonzero(cr > eps2)
        # ear (a, b, c) against vertex v: blocked when v is on or inside it
        # and not within tol of a corner
        v = b[None]
        ea, eb, ec = a[ear, None], b[ear, None], c[ear, None]
        corner = ((np.abs(v - ea) < tol).all(-1) | (np.abs(v - eb) < tol).all(-1)
                  | (np.abs(v - ec) < tol).all(-1))
        inside = ((_cross(ea, eb, v) >= -eps2) & (_cross(eb, ec, v) >= -eps2)
                  & (_cross(ec, ea, v) >= -eps2))
        ear = ear[~(inside & ~corner).any(axis=1)]
        a, b, c = a[ear], b[ear], c[ear]
        q = np.zeros(m)
        q[ear] = cr[ear] / (_dot(b - a, b - a) + _dot(c - b, c - b) + _dot(a - c, a - c))
        pos = int(np.argmax(q))  # fat-ear preference
        if not q[pos] > 0.0:
            raise MeshError("ear clipping failed; polygon is not simple")
        tris.append((idx[pos - 1], idx[pos], idx[(pos + 1) % m]))
        del idx[pos]
    a, b, c = (pts[i] for i in idx)
    if _cross(a, b, c) <= eps2:
        raise MeshError("ear clipping left a degenerate final triangle")
    tris.append(tuple(idx))
    return tris


def _stations(pts: List[np.ndarray], a_id: int, b_id: int, m: int) -> List[int]:
    a, b = pts[a_id], pts[b_id]
    inner = [_add(pts, a + (t / m) * (b - a)) for t in range(1, m)]
    return [a_id] + inner + [b_id]


def _cut_hole(pts: List[np.ndarray], rect: List[int], hole_cw: List[int]) -> List[int]:
    """Merge a clockwise hole loop into the counterclockwise rectangle loop
    RECT (lower-left corner first) with a doubled bridge edge from the hole's
    rightmost vertex to the rectangle's right side, between the second and
    third corners; the hole lies strictly inside the rectangle."""
    start = max(range(len(hole_cw)), key=lambda j: tuple(pts[hole_cw[j]]))
    hole = hole_cw[start:] + hole_cw[:start]
    bridge = _add(pts, (pts[rect[1]][0], pts[hole[0]][1]))
    return rect[:2] + [bridge] + hole + [hole[0], bridge] + rect[2:]


def _edge_triangles(tris):
    """Edge-to-triangle adjacency of the triangle list TRIS.

    Returns (edges, first, second): the edges as sorted vertex pairs (n, 2) in
    order of first occurrence, scanning the triangles in order and each
    triangle (a, b, c) by its edges (a, b), (b, c), (c, a); and per edge the
    slot 3 t + j of that first occurrence and of the second one (-1 for a
    boundary edge).  Triangle t of slot s is s // 3.
    """
    key = _slot_keys(np.asarray(tris, dtype=np.int64))
    first, second = _occurrences(key)
    return np.column_stack([key[first] >> 32, key[first] & 0xFFFFFFFF]), first, second


def _slot_keys(T):
    """Per slot 3 t + j of the triangles T (n, 3), the key lo << 32 | hi of
    its edge T[t, j] -> T[t, j + 1]."""
    flat = T.ravel()
    nxt = T[:, [1, 2, 0]].ravel()
    return (np.minimum(flat, nxt) << 32) | np.maximum(flat, nxt)


def _occurrences(key):
    """Per distinct value of KEY, in order of first occurrence: the index of
    that first occurrence and of the second one (-1 if there is none)."""
    order = np.argsort(key, kind="stable")
    sk = key[order]
    head = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
    pair = np.r_[sk[1:] == sk[:-1], False][head]
    first = order[head]
    second = np.where(pair, order[np.minimum(head + 1, len(sk) - 1)], -1)
    by_first = np.argsort(first)
    return first[by_first], second[by_first]


def _dot(a, b):
    """Row-wise dot product of the 2-vectors in A and B (same shape (..., 2)).

    Batched matmul of 1x2 by 2x1 runs the same BLAS dot as a scalar np.dot
    (and np.linalg.norm), so it reproduces those bits; (a * b).sum(-1) does not.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _edge(a, b):
    return (a, b) if a < b else (b, a)


def _slot(tri, u, v):
    """Position j of the edge {u, v} in TRI, whose edge j is tri[j] -> tri[j+1]."""
    k = 0 if tri[0] != u and tri[0] != v else 1 if tri[1] != u and tri[1] != v else 2
    return (k + 1) % 3


def _split_to_size(pts, tris, region, pkind, pidx, h):
    """Longest-edge bisection of every edge above the target length that has
    no patch triangle beside it (patch triangles are frozen by their label).

    Always splits the globally longest oversized edge, so it is the longest
    edge of each adjacent triangle and shape quality stays bounded; both
    neighbors split through the shared midpoint, keeping the mesh conforming.
    Ties go to the edge that occurs first in the triangle list (slot 3 t + j
    of its lowest triangle).  The adjacency is updated in place after each
    split, and a heap keyed by (-length, slot) picks the next edge: a split
    only ever moves an old edge to a later slot, so a popped entry whose slot
    is stale is pushed back with the current one.
    """
    edges, first, second = _edge_triangles(tris)
    adj: Dict[Tuple[int, int], List[int]] = {
        e: [s1 // 3] if s2 < 0 else [s1 // 3, s2 // 3]
        for e, s1, s2 in zip(map(tuple, edges.tolist()), first.tolist(), second.tolist())}
    heap: List[Tuple[float, int, Tuple[int, int]]] = []

    def push(e, slot):
        if any(pkind[t] != PATCH_NONE for t in adj[e]):
            return
        L = float(np.linalg.norm(pts[e[0]] - pts[e[1]]))
        if L > h:
            heapq.heappush(heap, (-L, slot, e))

    def slot_of(e):
        return min(3 * t + _slot(tris[t], *e) for t in adj[e])

    for e, s1 in zip(adj, first.tolist()):
        push(e, s1)
    while heap:
        negL, slot, best = heapq.heappop(heap)
        now = slot_of(best)
        if now != slot:
            heapq.heappush(heap, (negL, now, best))
            continue
        u, v = best
        mid = _add(pts, 0.5 * (pts[u] + pts[v]))
        created = [_edge(u, mid), _edge(mid, v)]
        for t in sorted(adj.pop(best), reverse=True):
            j = _slot(tris[t], u, v)
            x, y, w = (tris[t][(j + k) % 3] for k in range(3))
            n = len(tris)
            tris[t] = [x, mid, w]
            tris.append([mid, y, w])
            for arr in (region, pkind, pidx):
                arr.append(arr[t])
            # (y, w) moves from t to n; the halves and the spoke (mid, w) are new
            ts = adj[_edge(y, w)]
            ts[ts.index(t)] = n
            adj.setdefault(_edge(x, mid), []).append(t)
            adj.setdefault(_edge(mid, y), []).append(n)
            adj.setdefault(_edge(mid, w), []).extend((t, n))
            created.append(_edge(mid, w))
        for e in created:
            push(e, slot_of(e))


def _corner_cos(X):
    """Cosine of every interior angle of the triangles X (m, 3, 2): (m, 3)."""
    u1 = X[:, [1, 2, 0]] - X
    u2 = X[:, [2, 0, 1]] - X
    return _dot(u1, u2) / (np.sqrt(_dot(u1, u1)) * np.sqrt(_dot(u2, u2)))


def _smooth(P, tris, region, pkind, rect):
    """Guarded Laplacian smoothing of leftover-region vertices, eight rounds,
    with Delaunay flips after each round.

    Vertices of patch triangles never move (the reflection symmetry lives
    there); outer-boundary vertices slide along their rectangle side toward
    the midpoint of their two boundary neighbors; interior vertices move
    toward their neighbor centroid.  A move is kept only when the smallest
    incident angle does not get worse, so the pass is monotone.  Vertices go
    in order of first appearance in the triangle list, each move seeing the
    earlier ones (Gauss-Seidel); that order, and the order in which each
    vertex's neighbor set was filled, fix the result bit for bit.

    Each round runs as a level schedule of that sweep.  A vertex's move
    reads only its own position and its neighbors', so it gets level 1 + the
    largest level of its earlier-ordered movable neighbors (0 if none).  No
    two vertices of one level share an edge, every earlier neighbor sits in a
    lower level and every later one in a higher level, so moving the levels
    in turn, each as one batch, reads exactly the positions the sequential
    sweep reads.  The batched arithmetic is elementwise, the centroid is
    summed column by column in neighbor-set order as ``mean(axis=0)`` sums
    it, and the angle guard still compares ``math.acos`` values, so every
    move and every decision is the sweep's.
    """
    for _ in range(8):
        sched = _smooth_schedule(P, tris, pkind, rect)
        moved = 0
        for v, nbr, has, count, fix_x, fix_y, T, owner, seg in sched:
            p = P[v]
            target = P[nbr[:, 0]]
            for k in range(1, nbr.shape[1]):
                np.add(target, P[nbr[:, k]], out=target, where=has[:, k, None])
            target /= count[:, None]
            target[fix_x, 0] = p[fix_x, 0]
            target[fix_y, 1] = p[fix_y, 1]
            new = p + 0.7 * (target - p)
            X = P[T]
            Y = X.copy()
            Y[T == v[owner, None]] = new[owner]
            # smallest angle per vertex, before and after: acos of the largest
            # cosine, where fmin maps a NaN cosine (zero-length side) to 1
            cos = np.fmin(_corner_cos(np.concatenate((X, Y))), 1.0).max(axis=1)
            m = len(T)
            worst = np.maximum(-1.0, np.concatenate((np.maximum.reduceat(cos[:m], seg),
                                                     np.maximum.reduceat(cos[m:], seg))))
            angle = [math.acos(c) for c in worst.tolist()]
            n = len(v)
            ok = np.array(angle[n:]) >= np.array(angle[:n])
            ok &= np.logical_and.reduceat(_cross(Y[:, 0], Y[:, 1], Y[:, 2]) > 0, seg)
            P[v[ok]] = new[ok]
            moved += int(ok.sum())
        _lawson_flips(P, tris, region, pkind)
        if not moved:
            return


def _smooth_schedule(P, tris, pkind, rect):
    """One ``_smooth`` round's movable vertices, batched by level.

    Returns per level (in level order) the vertex ids V; their neighbors
    NBR in the order the sweep sums them, padded, with the mask HAS and the
    COUNT; the masks FIX_X, FIX_Y of boundary vertices whose x or y stays;
    their incident triangles T (vertex ids, grouped by vertex in triangle
    order), the index OWNER into V of each row of T and the start SEG of
    each vertex's group.  Everything but the positions of the movable
    vertices is fixed within a round, so it is computed once, up front.
    """
    T = np.array(tris, dtype=np.int64)
    flat = T.ravel()
    nv = len(P)
    movable = np.ones(nv, dtype=bool)
    movable[T[np.asarray(pkind) != PATCH_NONE].ravel()] = False
    (x0, y0), (x1, y1) = rect
    on_x = (np.abs(P[:, 0] - x0) < 1e-12) | (np.abs(P[:, 0] - x1) < 1e-12)
    on_y = (np.abs(P[:, 1] - y0) < 1e-12) | (np.abs(P[:, 1] - y1) < 1e-12)
    movable &= ~(on_x & on_y)  # rectangle corners
    # a boundary vertex moves toward its two boundary-edge neighbors: rows
    # (vertex, neighbor), per vertex in boundary-edge order
    edges, _, second = _edge_triangles(T)
    bnd = edges[second < 0]
    ends = np.column_stack([bnd.ravel(), bnd[:, ::-1].ravel()])
    ends = ends[np.argsort(ends[:, 0], kind="stable")]
    ends_at = np.searchsorted(ends[:, 0], np.arange(nv + 1))
    side = on_x | on_y
    movable &= ~side | (np.diff(ends_at) == 2)
    # slots grouped by vertex, ascending within each group (so by triangle);
    # a triangle (a, b, c) adds neighbors b, c to a; a, c to b; b, a to c
    by_vertex = np.argsort(flat, kind="stable")
    starts = np.searchsorted(flat[by_vertex], np.arange(nv + 1))
    base = 3 * (by_vertex // 3)
    pos = by_vertex % 3
    nb = np.column_stack([flat[base + np.array([1, 0, 1])[pos]],
                          flat[base + np.array([2, 2, 0])[pos]]]).ravel().tolist()
    verts, seen = np.unique(flat, return_index=True)
    order = verts[np.argsort(seen)]
    order = order[movable[order]]
    if not len(order):
        return []
    rank = np.full(nv, -1)
    rank[order] = np.arange(len(order))

    # level = longest chain of earlier-ordered movable neighbors
    inner = edges[movable[edges].all(axis=1)]
    swap = rank[inner[:, 0]] > rank[inner[:, 1]]
    inner[swap] = inner[swap, ::-1]
    src, dst = inner.T
    level = np.zeros(nv, dtype=np.int64)
    while True:
        lift = np.zeros(nv, dtype=np.int64)
        np.maximum.at(lift, dst, level[src] + 1)
        if (lift <= level).all():
            break
        level = np.maximum(level, lift)

    order = order[np.argsort(level[order], kind="stable")]
    lists = [ends[ends_at[i]:ends_at[i + 1], 1].tolist() if side[i]
             else list(set(nb[2 * starts[i]:2 * starts[i + 1]]))
             for i in order.tolist()]
    width = max(map(len, lists))
    count = np.array([len(a) for a in lists], dtype=float)
    nbr = np.zeros((len(order), width), dtype=np.int64)
    has = np.arange(width) < count[:, None]
    nbr[has] = np.concatenate(lists)
    # incident triangles of each vertex, concatenated in schedule order
    deg = starts[order + 1] - starts[order]
    owner = np.repeat(np.arange(len(order)), deg)
    first_row = np.cumsum(deg) - deg
    slots = by_vertex[starts[order][owner] + np.arange(len(owner)) - first_row[owner]]
    corners = T[slots // 3]

    cuts = np.flatnonzero(np.diff(level[order])) + 1
    bounds = np.r_[0, cuts, len(order)]
    row_bounds = np.r_[first_row, len(owner)][bounds]
    sched = []
    for a, b, ra, rb in zip(bounds[:-1], bounds[1:], row_bounds[:-1], row_bounds[1:]):
        v = order[a:b]
        sched.append((v, nbr[a:b], has[a:b], count[a:b],
                      on_x[v], on_y[v] & ~on_x[v], corners[ra:rb], owner[ra:rb] - a,
                      first_row[a:b] - first_row[a]))
    return sched


def _lawson_flips(P, tris, region, pkind):
    """Delaunay edge flips restricted to interior edges between same-region,
    patch-free triangles: patch triangles are frozen by their label, as in
    _split_to_size, so no flip touches them.

    Each pass tests the edges in order of first occurrence and flips a pair
    only if neither triangle was flipped earlier in the pass.  An untouched
    triangle still has its pass-start vertices, so the in-circle and
    orientation tests of every candidate are evaluated up front, batched.
    Vertices do not move, so an edge whose two triangles a pass left alone
    tests the same in the next pass and does not flip; only the edges of
    the triangles a pass rewrote (among them every edge it skipped as
    dirty) are tested again, still in order of first occurrence.
    """
    region, pkind = np.asarray(region), np.asarray(pkind)
    T = np.array(tris, dtype=np.int64)
    key = _slot_keys(T)
    slots = np.arange(T.size)  # the slots of the edges to test, ascending
    for _ in range(100):
        first, second = _occurrences(key[slots])
        first, second = slots[first], np.where(second >= 0, slots[second], -1)
        t1, t2 = first // 3, np.maximum(second, 0) // 3
        ok = ((second >= 0) & (region[t1] == region[t2])
              & (pkind[t1] == PATCH_NONE) & (pkind[t2] == PATCH_NONE))
        first, second, t1, t2 = first[ok], second[ok], t1[ok], t2[ok]
        # t1 holds the directed edge u -> v; w1, w2 are the opposite vertices
        flat = T.ravel()
        u = flat[first]
        v = flat[3 * t1 + (first + 1) % 3]
        w1 = flat[3 * t1 + (first + 2) % 3]
        w2 = flat[3 * t2 + (second + 2) % 3]
        pu, pv, p1, p2 = P[u], P[v], P[w1], P[w2]
        # in-circle test: flip when w2 is strictly inside circumcircle(u,v,w1)
        rows = np.stack([pu, pv, p1], axis=1)
        mat = np.empty((len(u), 3, 3))
        mat[:, :, :2] = rows - p2[:, None, :]
        mat[:, :, 2] = _dot(rows, rows) - _dot(p2, p2)[:, None]
        det = np.linalg.det(mat)
        scale = np.maximum(np.sqrt(_dot(pu - pv, pu - pv)), np.sqrt(_dot(p1 - p2, p1 - p2)))
        # the flipped pair must stay positively oriented (convex quad)
        convex = (_cross(pu, p2, p1) > 0) & (_cross(pv, p1, p2) > 0)
        # a flip needs det > 1e-10 s^4 >= 0: only those edges enter the loop
        want = (det > 0) & convex
        dirty = set()
        for a, b, ua, va, wa, wb, d, s in zip(
                t1[want].tolist(), t2[want].tolist(), u[want].tolist(), v[want].tolist(),
                w1[want].tolist(), w2[want].tolist(), det[want].tolist(),
                scale[want].tolist()):
            if a in dirty or b in dirty:
                continue
            # scalar power: numpy's array power may differ in the last bit
            if d <= 1e-10 * s**4:
                continue
            T[a] = tris[a] = [ua, wb, wa]
            T[b] = tris[b] = [va, wa, wb]
            dirty.update((a, b))
        if not dirty:
            return
        key = _slot_keys(T)
        slots = np.flatnonzero(np.isin(key, _slot_keys(T[list(dirty)])))


def build_r_conform_coarse(domain: geo.DomainSpec, h_target: float) -> Mesh:
    """Build the coarse reflection-conforming mesh for DOMAIN.

    Patch triangulations are geometry-imposed: every corner-patch triangle
    has a side on a sector ray of length patch_radius_corner, so h_max is at
    least that radius whatever h_target is (0.3 on the reference domain at
    h_target = 0.2; h_target then only sizes the edge strips and the leftover
    regions).  Splitting brings every leftover edge to at most h_target; the
    flips and smoothing after it may lengthen some (up to 1.5 h_target on
    the reference domain at h_target = 0.1).
    """
    if not h_target > 0:
        raise MeshError("h_target must be positive")
    pts: List[np.ndarray] = []
    tris: List[List[int]] = []
    region: List[int] = []
    pkind: List[int] = []
    pidx: List[int] = []

    def add(a, b, c, reg, kind, index):
        if _cross(pts[a], pts[b], pts[c]) <= 0:
            raise MeshError("degenerate patch triangle (h_target or radius too small?)")
        tris.append([a, b, c])
        region.append(reg)
        pkind.append(kind)
        pidx.append(index)

    patterns = domain.patterns
    N = len(patterns)
    R = domain.patch_radius_corner

    # corner patches: bisected slices of the regular 2p-gon
    V = [[_add(pts, pat.ray_point(j, R)) for j in range(pat.p)] for pat in patterns]
    M = []
    for i, pat in enumerate(patterns):
        M.append([_add(pts, 0.5 * (pts[V[i][j]] + pts[V[i][(j + 1) % pat.p]]))
                  for j in range(pat.p)])
        ci = _add(pts, pat.corner)
        for j in range(pat.p):
            reg = 1 if j < pat.p_plus else -1
            add(ci, V[i][j], M[i][j], reg, PATCH_CORNER, i)
            add(ci, M[i][j], V[i][(j + 1) % pat.p], reg, PATCH_CORNER, i)

    # edge patches: mirror trapezoid strips between consecutive corner patches
    base_sta, mtop_sta, ptop_sta = [], [], []
    for n in range(N):
        i, k = n, (n + 1) % N
        pp = patterns[i].p_plus
        A, B = V[i][pp], V[k][0]
        TmA, TmB = M[i][pp], M[k][patterns[k].p - 1]
        TpA, TpB = M[i][pp - 1], M[k][0]
        lengths = [np.linalg.norm(pts[x] - pts[y])
                   for x, y in ((A, B), (TmA, TmB), (TpA, TpB))]
        m = max(1, math.ceil(max(lengths) / h_target - 1e-12))
        base = _stations(pts, A, B, m)
        mtop = _stations(pts, TmA, TmB, m)
        ptop = _stations(pts, TpA, TpB, m)
        base_sta.append(base)
        mtop_sta.append(mtop)
        ptop_sta.append(ptop)
        for t in range(m):
            add(base[t], base[t + 1], mtop[t + 1], -1, PATCH_EDGE, n)
            add(base[t], mtop[t + 1], mtop[t], -1, PATCH_EDGE, n)
            # plus side: exact mirror images, reordered to positive orientation
            add(base[t + 1], base[t], ptop[t + 1], 1, PATCH_EDGE, n)
            add(base[t], ptop[t], ptop[t + 1], 1, PATCH_EDGE, n)

    # leftover inclusion interior: bounded by trapezoid tops and hexagon chords
    loop = []
    for n in range(N):
        k = (n + 1) % N
        pat = patterns[k]
        loop += mtop_sta[n][:-1]
        seq = [M[k][pat.p - 1]]
        for j in range(pat.p - 1, pat.p_plus, -1):
            seq += [V[k][j], M[k][j - 1]]
        loop += seq[:-1]
    _add_clipped(pts, loop, tris, region, pkind, pidx, -1)

    # leftover exterior: rectangle with the patch-collar hole bridged open;
    # the collar runs counterclockwise, like the polygon it surrounds
    (x0, y0), (x1, y1) = domain.outer_rect
    rect = [_add(pts, p) for p in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))]
    hole = []
    for n in range(N):
        pat = patterns[n]
        seq = [M[n][0]]
        for j in range(1, pat.p_plus):
            seq += [V[n][j], M[n][j]]
        hole += seq
        hole += ptop_sta[n][1:-1]
    merged = _cut_hole(pts, rect, hole[::-1])
    _add_clipped(pts, merged, tris, region, pkind, pidx, 1)

    _split_to_size(pts, tris, region, pkind, pidx, h_target)
    P = np.array(pts, dtype=float)
    _lawson_flips(P, tris, region, pkind)
    _smooth(P, tris, region, pkind, domain.outer_rect)

    mesh = Mesh(P, np.array(tris, dtype=np.int32),
                np.array(region, dtype=np.int8), np.array(pkind, dtype=np.int8),
                np.array(pidx, dtype=np.int32))
    area = (x1 - x0) * (y1 - y0)
    if abs(mesh.areas.sum() - area) > 1e-9 * area:
        raise MeshError("triangulated area disagrees with the domain area")
    return mesh


def _add_clipped(pts, loop, tris, region, pkind, pidx, reg):
    """Ear-clip the counterclockwise LOOP of vertex ids into region REG."""
    for (a, b, c) in ear_clip(np.array([pts[i] for i in loop])):
        tris.append([loop[a], loop[b], loop[c]])
        region.append(reg)
        pkind.append(PATCH_NONE)
        pidx.append(-1)


def square_mesh(n: int) -> Mesh:
    """Uniform diagonal triangulation of the unit square, single '+' region."""
    if n < 1:
        raise MeshError("need at least one cell per side")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    vid = lambda i, j: i * (n + 1) + j
    tris = []
    for i in range(n):
        for j in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris += [[v00, v10, v11], [v00, v11, v01]]
    T = len(tris)
    return Mesh(vertices, np.array(tris, dtype=np.int32),
                np.ones(T, dtype=np.int8), np.zeros(T, dtype=np.int8),
                np.full(T, -1, dtype=np.int32))
