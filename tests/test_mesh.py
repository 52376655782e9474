"""Mesh construction, refinement, conformity checking, and the mesh writer."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from signfem import geometry as geo, mesh as mesh_mod
from signfem.mesh import (Mesh, MeshError, PATCH_CORNER, PATCH_EDGE, PATCH_NONE,
                          check_r_conformity, mesh_write, refine_red)
from signfem import meshgen
from signfem.meshgen import build_r_conform_coarse, ear_clip, square_mesh


@pytest.fixture(scope="module")
def domain():
    return geo.make_reference_domain()


@pytest.fixture(scope="module")
def coarse(domain):
    return build_r_conform_coarse(domain, 0.2)


def min_angles(mesh):
    v = mesh.vertices[mesh.triangles]
    per_corner = []
    for j in range(3):
        u1 = v[:, (j + 1) % 3] - v[:, j]
        u2 = v[:, (j + 2) % 3] - v[:, j]
        cos = (u1 * u2).sum(1) / np.linalg.norm(u1, axis=1) / np.linalg.norm(u2, axis=1)
        per_corner.append(np.arccos(np.clip(cos, -1, 1)))
    return np.min(per_corner, axis=0)


def test_coarse_builder_structure(domain, coarse):
    m = coarse
    # disc topology and exact area accounting
    assert m.num_vertices - m.num_edges + m.num_triangles == 1
    (x0, y0), (x1, y1) = domain.outer_rect
    assert m.areas.sum() == pytest.approx((x1 - x0) * (y1 - y0), rel=1e-12)
    poly_area = np.sqrt(3) / 4  # unit equilateral triangle
    assert m.areas[m.region == -1].sum() == pytest.approx(poly_area, rel=1e-12)
    # each corner patch is the bisected-slice polygon: 2p triangles, 2p+ plus
    for i, pat in enumerate(domain.patterns):
        sel = (m.patch_kind == PATCH_CORNER) & (m.patch_index == i)
        assert sel.sum() == 2 * pat.p
        assert (m.region[sel] == 1).sum() == 2 * pat.p_plus
    # edge patches exist on both sides with mirrored counts
    for n in range(3):
        sel = (m.patch_kind == PATCH_EDGE) & (m.patch_index == n)
        plus = (m.region[sel] == 1).sum()
        assert plus >= 2 and plus == (m.region[sel] == -1).sum()
    # boundary edges lie exactly on the rectangle sides
    bpts = m.vertices[np.unique(m.edges[m.boundary_edge])]
    on_side = (np.isclose(bpts[:, 0], x0) | np.isclose(bpts[:, 0], x1)
               | np.isclose(bpts[:, 1], y0) | np.isclose(bpts[:, 1], y1))
    assert on_side.all()
    assert np.degrees(min_angles(m).min()) >= 15.8


def test_coarse_builder_quality_fine(domain):
    m = build_r_conform_coarse(domain, 0.1)
    assert np.degrees(min_angles(m).min()) >= 10.5


def test_batched_geometry_matches_scalar_loops(coarse):
    # the mesher's batched adjacency and angle tests against the plain loops
    # they replace: same edge order, same triangles, same bits
    tris = coarse.triangles.tolist()
    adj = {}
    for t, (a, b, c) in enumerate(tris):
        for u, v in ((a, b), (b, c), (c, a)):
            adj.setdefault((min(u, v), max(u, v)), []).append(t)
    edges, first, second = meshgen._edge_triangles(tris)
    assert list(map(tuple, edges.tolist())) == list(adj)
    assert [[s // 3] + ([r // 3] if r >= 0 else []) for s, r in zip(first, second)] \
        == list(adj.values())
    X = coarse.vertices[coarse.triangles]
    ref = [[np.dot(p[(j + 1) % 3] - p[j], p[(j + 2) % 3] - p[j])
            / (np.linalg.norm(p[(j + 1) % 3] - p[j]) * np.linalg.norm(p[(j + 2) % 3] - p[j]))
            for j in range(3)] for p in X]
    assert np.array_equal(meshgen._corner_cos(X), np.array(ref))


SQUARE = geo.DomainSpec(((-1.0, -1.0), (2.0, 2.0)),
                        ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)), 0.3)
# the L-shape has a re-entrant (1,3) corner, the right isosceles triangle two
# (7,1) corners, the regular hexagon (4,2) corners
L_SHAPE = geo.DomainSpec(((-0.6, -0.6), (1.6, 1.6)),
                         ((0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)), 0.15)
RIGHT_TRIANGLE = geo.DomainSpec(((-0.6, -0.6), (1.6, 1.6)), ((0, 0), (1, 0), (0, 1)), 0.15)
HEXAGON = geo.DomainSpec(((-0.5, -0.5), (1.5, 1.5)),
                         tuple((0.5 + 0.5 * np.cos(k * np.pi / 3), 0.5 + 0.5 * np.sin(k * np.pi / 3))
                               for k in range(6)), 0.15)

# The coarse mesher's output, pinned: every split, flip and smoothing move
# must come out the same.  sha256 of each label array as little-endian int64
# and of the vertex coordinates as little-endian float64.
GOLDEN = {
    "reference r=0.3": (geo.make_reference_domain(0.3), 401, 740, {
        "triangles": "b3a39fe38106b05294b3ed010c145dfe04e25e8e22c5f188ad5ee5df438e229b",
        "region": "3b78e26c06f66b672367b29781f9ef1e4ec7591fe6eccbf47bab5c9b35d47793",
        "patch_kind": "7053b5abfd3d7645d0d333149ec16df1cf34d7d733edea19aacec964df107812",
        "patch_index": "bd2f3c877720b10a3b66a1b3cd37fdc0419aec45002ea352959254137fb62ecf",
        "vertices": "7e47eba4a737a061a14e33cb0b0bda8843cab8bdc00355ca9a2fe7351ad81b72",
    }, 0.2, 366.6757468378231, 483.55114041989066),
    "reference r=0.3, h=0.1": (geo.make_reference_domain(0.3), 1267, 2412, {
        "triangles": "b6993254612ccfc77a03b9322fab6eeb34fb72143f606d58beb397739d8d60e1",
        "region": "6ef16c6c8226be2ed25827c0fb1043fc31d07300bbfd12edd0f2d2f50a59c36c",
        "patch_kind": "5d96491d984be0e7f9c4ca3a7b25e69f5ba13aafda17dddeba29af87a2060972",
        "patch_index": "989a05ada5fb675982d10c5e8a452ae6a6f3c5e0ac7771647b8cf2cb5051242c",
        "vertices": "b754d6c27623a16c27460e110d800647788a8ed2722065b0661f3ab4d6f92489",
    }, 0.1, 1174.967970125675, 1519.4003214328468),
    "reference r=0.05": (geo.make_reference_domain(0.05), 601, 1140, {
        "triangles": "580c97c6cea76907469d317ba4d7ad4d84431a281fb0edc45d90c853f8dee95e",
        "region": "96c721709572d857e342f71896c31fe0e7888ea2a07c5622fc6bb59f60000b46",
        "patch_kind": "9951edb5d24a54abcb55dbb2450037202f36f41e3b635d9df27de5d22302e229",
        "patch_index": "d80fdde929cf340a06741e824dfee13b7a7c8ff3c26e049854e8147202ffed26",
        "vertices": "b717226dbd9cc58f78b42d238f05280238f8d7ab2145fde9710122a4d43ea9ea",
    }, 0.2, 478.94721195006, 545.8438088724428),
    "square": (SQUARE, 569, 1076, {
        "triangles": "89c0548a63649f7066d819012f1952a18e1f444ad625bdaa703a013711b34d53",
        "region": "69b84e6fb7c3bc653f05e9dde31101633a9b3eab7d4a83a5c3c936fc51fc06da",
        "patch_kind": "bc1e767e00bb937ddee750ba7741972f6cf199d8c78aadd49bd6f921d293171b",
        "patch_index": "ebad14c679ff8290de48b86d21d3e5450040feb7738793329568c87de356200f",
        "vertices": "ebadf6fe15f828aea1200e8cbe8a7eb46a206c7c1ff655ad763db3ecdd9571db",
    }, 0.25, 565.1660785412627, 1264.3287355277134),
    "L-shape": (L_SHAPE, 538, 1010, {
        "triangles": "dfa7b7106a8f75afe584608ff0a37e8514c5533b6be9f3f78fc5254ecaf78d55",
        "region": "de2f8b1e7349a33cee40e16075d49457aad5f85850d6f7f7bb2121c26e6f2f19",
        "patch_kind": "026af531d49a0c179487f3775974f80ca4998a854afa898312539d33ef25ce97",
        "patch_index": "eed1494d0c9c48c63a1faed50aae1183805c1bd027ce22ad61405faa7e73a7d3",
        "vertices": "096fb2e8e2b78d9cf92e10ed4993e910a8d8ecab18de41a08a5531aa9b2d435e",
    }, 0.2, 557.3260049024135, 761.0121754102659),
    "right triangle": (RIGHT_TRIANGLE, 619, 1173, {
        "triangles": "fb79636da4ed83ae6bf467b63b974ada4001172ad68911cb551ccf92e8c6e113",
        "region": "ef34ed1dbd4d5daa1fd8011f9dbbad176897e9fc6923969e1ed5b89c255b391f",
        "patch_kind": "84e3419411ed55831e3912d65f9cbdeefafa36dceb5b9bd0682a8cf4d4d14b74",
        "patch_index": "50a7c5eb60f21c9bd36a0e8eff60209908d3c9d864945718047f6af83cefbd2d",
        "vertices": "37225a2cb103292ac56b1d72ef92a561d7500c085354eea6096c7b0d2bb76bde",
    }, 0.2, 656.701007995739, 876.2343149593137),
    "hexagon": (HEXAGON, 678, 1290, {
        "triangles": "b29621c19b1dde7bfb5fed5e03b2ad911cc3f41a434088ca2bcd854d273e1c13",
        "region": "db334fecb24c110058b91ea927d95f994c49ca95e40119e13ca4887899d742ca",
        "patch_kind": "22ca20a32bf282b6a4c4067cf7a40585594afeb937bc6124ecf2cfca31272fc9",
        "patch_index": "cf65ee049f3e063be550738c397aceef7a6d282a9e3ec2b41c07afeeb46f0542",
        "vertices": "a3c94104301bb4f28874d08d4682c6d87c9afb33c6c6554eae7541bfe3daf35e",
    }, 0.2, 646.7726199874171, 845.2090230085587),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_coarse_builder_golden(case):
    domain, nv, nt, digests, h, vsum, vsq = GOLDEN[case]
    m = build_r_conform_coarse(domain, h)
    assert (m.num_vertices, m.num_triangles) == (nv, nt)
    for name, digest in digests.items():
        dtype = "<f8" if name == "vertices" else "<i8"
        data = np.ascontiguousarray(getattr(m, name), dtype=dtype).tobytes()
        assert hashlib.sha256(data).hexdigest() == digest, name
    assert m.vertices.sum() == pytest.approx(vsum, rel=1e-12)
    assert (m.vertices ** 2).sum() == pytest.approx(vsq, rel=1e-12)
    # no two vertices come near each other, so the builder never has a point
    # to merge
    dist, _ = cKDTree(m.vertices).query(m.vertices, k=2)
    assert dist[:, 1].min() >= 1e-3


def _smooth_reference(P, tris, region, pkind, rect, rounds=8):
    """The plain Gauss-Seidel sweep that meshgen._smooth runs as a level
    schedule: one vertex at a time, in order of first appearance."""
    def min_angle(cos):
        return math.acos(max(-1.0, float(np.fmin(cos, 1.0).max())))

    (x0, y0), (x1, y1) = rect
    for _ in range(rounds):
        T = np.array(tris, dtype=np.int64)
        flat = T.ravel()
        pinned = np.zeros(len(P), dtype=bool)
        pinned[T[np.asarray(pkind) != PATCH_NONE].ravel()] = True
        by_vertex = np.argsort(flat, kind="stable")
        starts = np.searchsorted(flat[by_vertex], np.arange(len(P) + 1))
        base = 3 * (by_vertex // 3)
        pos = by_vertex % 3
        nb = np.column_stack([flat[base + np.array([1, 0, 1])[pos]],
                              flat[base + np.array([2, 2, 0])[pos]]])
        edges, _, second = meshgen._edge_triangles(T)
        bnd_nbrs = {}
        for u, v in edges[second < 0].tolist():
            bnd_nbrs.setdefault(u, []).append(v)
            bnd_nbrs.setdefault(v, []).append(u)
        verts, seen = np.unique(flat, return_index=True)
        moved = 0
        for i in verts[np.argsort(seen)].tolist():
            if pinned[i]:
                continue
            p = P[i].copy()
            on_x = abs(p[0] - x0) < 1e-12 or abs(p[0] - x1) < 1e-12
            on_y = abs(p[1] - y0) < 1e-12 or abs(p[1] - y1) < 1e-12
            if on_x and on_y:
                continue
            lo, hi = starts[i], starts[i + 1]
            if on_x or on_y:
                two = bnd_nbrs.get(i, [])
                if len(two) != 2:
                    continue
                target = 0.5 * (P[two[0]] + P[two[1]])
                if on_x:
                    target[0] = p[0]
                else:
                    target[1] = p[1]
            else:
                around = set(nb[lo:hi].ravel().tolist())
                target = P[list(around)].mean(axis=0)
            new = p + 0.7 * (target - p)
            corners = T[by_vertex[lo:hi] // 3]
            X = P[corners]
            Y = X.copy()
            Y[corners == i] = new
            cos = meshgen._corner_cos(np.concatenate((X, Y)))
            m = len(corners)
            if (min_angle(cos[m:]) >= min_angle(cos[:m])
                    and (meshgen._cross(Y[:, 0], Y[:, 1], Y[:, 2]) > 0).all()):
                P[i] = new
                moved += 1
        meshgen._lawson_flips(P, tris, region, pkind)
        if not moved:
            return


def _ear_clip_reference(points):
    """meshgen.ear_clip with every ear tested on its own, vertex by vertex."""
    pts = np.asarray(points, dtype=float)
    scale = float(np.ptp(pts, axis=0).max())
    eps2 = 1e-12 * scale * scale
    cross = meshgen._cross
    idx = list(range(len(pts)))
    tris = []

    def blocked(a, b, c):
        for j in idx:
            v = pts[j]
            if any(abs(v[0] - w[0]) < 1e-12 * scale and abs(v[1] - w[1]) < 1e-12 * scale
                   for w in (a, b, c)):
                continue
            if cross(a, b, v) >= -eps2 and cross(b, c, v) >= -eps2 and cross(c, a, v) >= -eps2:
                return True
        return False

    while len(idx) > 3:
        m = len(idx)
        best, best_q = None, 0.0
        for pos in range(m):
            a, b, c = pts[idx[pos - 1]], pts[idx[pos]], pts[idx[(pos + 1) % m]]
            cr = cross(a, b, c)
            if cr <= eps2 or blocked(a, b, c):
                continue
            q = cr / (np.dot(b - a, b - a) + np.dot(c - b, c - b) + np.dot(a - c, a - c))
            if q > best_q:
                best_q, best = q, pos
        assert best is not None
        tris.append((idx[best - 1], idx[best], idx[(best + 1) % m]))
        del idx[best]
    tris.append(tuple(idx))
    return tris


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_batched_passes_match_plain_loops(case, monkeypatch):
    # the level-scheduled smoothing and the batched ear test against the
    # plain loops they replace, on the golden builds' own inputs and on
    # seeded jitters of their leftover vertices: same P, same tris, same ears
    domain, _, _, _, h, _, _ = GOLDEN[case]
    smooth_inputs, polygons = [], []
    smooth, clip = meshgen._smooth, meshgen.ear_clip

    def record_smooth(P, tris, region, pkind, rect):
        smooth_inputs.append((P.copy(), [t[:] for t in tris], region, pkind, rect))
        smooth(P, tris, region, pkind, rect)

    def record_clip(points):
        polygons.append(np.array(points))
        return clip(points)

    monkeypatch.setattr(meshgen, "_smooth", record_smooth)
    monkeypatch.setattr(meshgen, "ear_clip", record_clip)
    build_r_conform_coarse(domain, h)
    (P0, tris0, region, pkind, rect), = smooth_inputs
    assert len(polygons) == 2
    for pts in polygons:
        assert clip(pts) == _ear_clip_reference(pts)

    T = np.array(tris0)
    leftover = np.ones(len(P0), dtype=bool)
    leftover[T[np.asarray(pkind) != PATCH_NONE].ravel()] = False
    (x0, y0), (x1, y1) = rect
    leftover &= ((P0[:, 0] > x0) & (P0[:, 0] < x1) & (P0[:, 1] > y0) & (P0[:, 1] < y1))
    for seed in (None, 1):
        P = P0.copy()
        if seed is not None:
            rng = np.random.default_rng(seed)
            P[leftover] += rng.uniform(-0.1 * h, 0.1 * h, (leftover.sum(), 2))
        P_ref, tris_ref = P.copy(), [t[:] for t in tris0]
        _smooth_reference(P_ref, tris_ref, region, pkind, rect)
        tris = [t[:] for t in tris0]
        smooth(P, tris, region, pkind, rect)
        assert P.tobytes() == P_ref.tobytes(), seed
        assert tris == tris_ref, seed


def _lawson_reference(P, tris, region, pkind):
    """meshgen._lawson_flips with every pass testing every edge."""
    region, pkind = np.asarray(region), np.asarray(pkind)
    for _ in range(100):
        T = np.array(tris, dtype=np.int64)
        _, first, second = meshgen._edge_triangles(T)
        t1, t2 = first // 3, np.maximum(second, 0) // 3
        ok = ((second >= 0) & (region[t1] == region[t2])
              & (pkind[t1] == PATCH_NONE) & (pkind[t2] == PATCH_NONE))
        first, second, t1, t2 = first[ok], second[ok], t1[ok], t2[ok]
        flat = T.ravel()
        u, v = flat[first], flat[3 * t1 + (first + 1) % 3]
        w1, w2 = flat[3 * t1 + (first + 2) % 3], flat[3 * t2 + (second + 2) % 3]
        pu, pv, p1, p2 = P[u], P[v], P[w1], P[w2]
        rows = np.stack([pu, pv, p1], axis=1)
        mat = np.empty((len(u), 3, 3))
        mat[:, :, :2] = rows - p2[:, None, :]
        mat[:, :, 2] = meshgen._dot(rows, rows) - meshgen._dot(p2, p2)[:, None]
        det = np.linalg.det(mat).tolist()
        scale = np.maximum(np.sqrt(meshgen._dot(pu - pv, pu - pv)),
                           np.sqrt(meshgen._dot(p1 - p2, p1 - p2))).tolist()
        convex = ((meshgen._cross(pu, p2, p1) > 0)
                  & (meshgen._cross(pv, p1, p2) > 0)).tolist()
        dirty = set()
        for k, (a, b) in enumerate(zip(t1.tolist(), t2.tolist())):
            d, s = det[k], scale[k]
            if a in dirty or b in dirty or not (d > 0 and convex[k]) or d <= 1e-10 * s**4:
                continue
            tris[a] = [int(u[k]), int(w2[k]), int(w1[k])]
            tris[b] = [int(v[k]), int(w1[k]), int(w2[k])]
            dirty.update((a, b))
        if not dirty:
            return


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_incremental_flips_match_full_passes(case, monkeypatch):
    # _lawson_flips retests only the edges of the triangles the last pass
    # rewrote; the reference retests every edge.  Same flips, on the inputs
    # of every call in the golden build and on seeded jitters of them
    domain, _, _, _, h, _, _ = GOLDEN[case]
    calls = []
    flips = meshgen._lawson_flips

    def record(P, tris, region, pkind):
        calls.append((P.copy(), [t[:] for t in tris], region, pkind))
        flips(P, tris, region, pkind)

    monkeypatch.setattr(meshgen, "_lawson_flips", record)
    build_r_conform_coarse(domain, h)
    assert len(calls) > 1
    rng = np.random.default_rng(5)
    for P, tris, region, pkind in calls:
        for jitter in (0.0, 0.05 * h):
            Q = P + rng.uniform(-jitter, jitter, P.shape) if jitter else P
            got, want = [t[:] for t in tris], [t[:] for t in tris]
            flips(Q, got, region, pkind)
            _lawson_reference(Q, want, region, pkind)
            assert got == want


def test_region_purity(domain, coarse):
    # every triangle lies entirely inside one region: barycenter side agrees
    # with the label and no edge crosses the interface polygon
    poly = np.array(domain.interface_polygon)
    m = coarse

    def winding_inside(p):
        inside = False
        for k in range(len(poly)):
            a, b = poly[k], poly[(k + 1) % len(poly)]
            if (a[1] > p[1]) != (b[1] > p[1]):
                x = a[0] + (p[1] - a[1]) / (b[1] - a[1]) * (b[0] - a[0])
                if x > p[0]:
                    inside = not inside
        return inside

    for t in range(m.num_triangles):
        bary = m.vertices[m.triangles[t]].mean(axis=0)
        assert winding_inside(bary) == (m.region[t] == -1), f"triangle {t}"

    # interface edges: exactly the +/- adjacency set, total length = perimeter
    owner = {}
    for t in range(m.num_triangles):
        for e in m.tri_edges[t]:
            owner.setdefault(e, []).append(t)
    length = 0.0
    for e, ts in owner.items():
        if len(ts) == 2 and m.region[ts[0]] != m.region[ts[1]]:
            a, b = m.vertices[m.edges[e]]
            length += np.linalg.norm(b - a)
            for p in (a, b):
                dmin = min(_dist_to_segment(p, poly[k], poly[(k + 1) % 3])
                           for k in range(3))
                assert dmin < 1e-12
    assert length == pytest.approx(3.0, rel=1e-12)


def _dist_to_segment(p, a, b):
    d = b - a
    t = np.clip(np.dot(p - a, d) / np.dot(d, d), 0, 1)
    return np.linalg.norm(p - (a + t * d))


def test_conformity_coarse_and_refined(domain, coarse):
    for mesh in (coarse, refine_red(coarse), refine_red(refine_red(coarse))):
        rep = check_r_conformity(mesh, domain)
        assert rep.passed and not rep.violations and not rep.unchecked
        assert rep.max_vertex_mismatch <= 1e-10 * mesh.h_max


def test_conformity_lists_corners_without_fold_maps():
    # the hexagon's (4,2) corners admit no fold: only its edge mirrors are
    # checked, and the report says so
    m = build_r_conform_coarse(HEXAGON, 0.2)
    rep = check_r_conformity(m, HEXAGON)
    assert rep.unchecked == [("corner", n) for n in range(6)]
    assert rep.passed and not rep.violations
    assert 0 < rep.max_vertex_mismatch <= 1e-10 * m.h_max
    sel = (m.patch_kind == PATCH_EDGE) & (m.patch_index == 0)
    assert not check_r_conformity(_moved(m, sel, (1e-6, -1e-6)), HEXAGON).passed


def test_conformity_detects_tampering(domain, coarse):
    m = coarse
    patch_tri = int(np.flatnonzero(m.patch_kind == PATCH_CORNER)[0])
    vid = int(m.triangles[patch_tri][1])
    vertices = m.vertices.copy()
    vertices[vid] += (1e-6, -1e-6)
    tampered = Mesh(vertices, m.triangles, m.region, m.patch_kind, m.patch_index)
    rep = check_r_conformity(tampered, domain)
    assert not rep.passed
    assert rep.violations
    tri_ids = {v[0] for v in rep.violations}
    assert all(isinstance(v[1], str) and isinstance(v[2], str) for v in rep.violations)
    assert any(isinstance(t, int) for t in tri_ids)


def _moved(m, sel, shift):
    """M with vertex 1 of its first triangle in SEL moved by SHIFT."""
    vertices = m.vertices.copy()
    vertices[m.triangles[np.flatnonzero(sel)[0], 1]] += shift
    return Mesh(vertices, m.triangles, m.region, m.patch_kind, m.patch_index)


@pytest.fixture(scope="module")
def fold_cases():
    """(mesh, domain, conforming) for the fold-image oracle: the reference
    domain at r = 0.3 and 0.05 on L0-L3, the square, and two tampered
    meshes: the one of test_conformity_detects_tampering and the
    non-conform one of tests/test_reflection.py."""
    cases = {}
    for r in (0.3, 0.05):
        dom = geo.make_reference_domain(r)
        m = build_r_conform_coarse(dom, 0.2)
        for level in range(4):
            cases[f"r={r} L{level}"] = (m, dom, True)
            m = refine_red(m)
    cases["square"] = (build_r_conform_coarse(SQUARE, 0.25), SQUARE, True)
    m, dom, _ = cases["r=0.3 L0"]
    cases["tampered"] = (_moved(m, m.patch_kind == PATCH_CORNER, (1e-6, -1e-6)), dom, False)
    cases["bad"] = (_moved(m, (m.patch_kind == PATCH_CORNER) & (m.patch_index == 0)
                           & (m.region == 1), 1e-6), dom, False)
    return cases


FOLD_CASES = [f"r={r} L{level}" for r in (0.3, 0.05) for level in range(4)] + [
    "square", "tampered", "bad"]


def _all_fold_images(mesh, domain):
    out = []
    calls = ([("corner", i) for i in range(len(domain.patterns))]
             + [("edge", n) for n in range(len(domain.edges))])
    for pattern in calls:
        for direction in "+-":
            try:
                out.append(mesh_mod.fold_images(mesh, domain, pattern, direction))
            except geo.GeometryError:  # no fold maps for this corner
                break
    return out


@pytest.mark.parametrize("case", FOLD_CASES)
def test_fold_images_match_kdtree(case, fold_cases, monkeypatch):
    # the exact-key lookup against a KD-tree nearest-vertex query: every
    # array the same, bit for bit; only the tampered meshes scan.  matched
    # against a decision made here: KD-tree nearest vertices, their sorted
    # triple among the other side's triangles, every distance within
    # 1e-10 h_max
    mesh, domain, conforming = fold_cases[case]
    scanned = []
    scan = mesh_mod._nearest_by_scan

    def counted_scan(points, query):
        scanned.append(len(query))
        return scan(points, query)

    monkeypatch.setattr(mesh_mod, "_nearest_by_scan", counted_scan)
    got = _all_fold_images(mesh, domain)
    assert (sum(scanned) == 0) == conforming

    def kdtree_rows(points):
        return lambda query: cKDTree(points).query(query)[1]

    monkeypatch.setattr(mesh_mod, "_nearest_rows", kdtree_rows)
    want = _all_fold_images(mesh, domain)
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert len(a.maps) == len(b.maps)
        for name in ("defined", "other", "other_vertices", "tri", "map", "vertex", "dist",
                     "matched"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name
    all_matched = []
    for a in got:
        assert a.matched.dtype == bool and a.matched.shape == a.tri.shape
        want = np.zeros(len(a.tri), dtype=bool)
        if len(a.other):
            cand = np.unique(mesh.triangles[a.other])
            tree = cKDTree(mesh.vertices[cand])
            triangles = {tuple(t) for t in np.sort(mesh.triangles[a.other], axis=1).tolist()}
            for r, (t, k) in enumerate(zip(a.tri, a.map)):
                d, j = tree.query(a.maps[k](mesh.vertices[mesh.triangles[t]]))
                want[r] = (tuple(sorted(cand[j].tolist())) in triangles
                           and d.max() <= 1e-10 * mesh.h_max)
        assert a.matched.tolist() == want.tolist()
        all_matched.append(want.all())
    assert all(all_matched) == conforming


def test_nearest_rows_off_grid_and_merged():
    # rows 3 and 4 share a key and [5, -3] lies off the grid: those queries
    # are scanned, and every query still gets its nearest row
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0 + 1e-12]])
    query = np.array([[1.0, 1.0], [1.0, 1.0 + 2e-12], [5.0, -3.0], [0.0, 1.0 + 1e-15]])
    assert mesh_mod._nearest_rows(pts)(query).tolist() == [3, 4, 1, 2]


def test_import_leaves_scipy_spatial_unloaded():
    # the fold images need no KD-tree, so no signfem process pays for
    # importing scipy.spatial (and scipy.special with it)
    src = Path(mesh_mod.__file__).resolve().parents[1]
    code = "import sys, signfem.cli; sys.exit(int('scipy.spatial' in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_refine_red(coarse):
    m, r = coarse, refine_red(coarse)
    assert r.num_triangles == 4 * m.num_triangles
    assert r.h_max == pytest.approx(m.h_max / 2, rel=1e-14)
    assert r.num_vertices - r.num_edges + r.num_triangles == 1
    assert r.boundary_edge.sum() == 2 * m.boundary_edge.sum()
    # labels inherit and areas split exactly
    assert r.parent_tri is not None
    for child in range(r.num_triangles):
        parent = r.parent_tri[child]
        assert r.region[child] == m.region[parent]
        assert r.patch_kind[child] == m.patch_kind[parent]
        assert r.patch_index[child] == m.patch_index[parent]
    child_sums = np.bincount(r.parent_tri, weights=r.areas)
    assert np.allclose(child_sums, m.areas, rtol=1e-12)
    # similarity: the set of angles is preserved
    assert min_angles(r).min() == pytest.approx(min_angles(m).min(), rel=1e-9)


def test_refine_red_children_and_edge_ids(coarse):
    """Child k of triangle t is triangle 4t + k, on the parent's points
    (a, m_ab, m_ca), (b, m_bc, m_ab), (c, m_ca, m_bc), (m_ab, m_bc, m_ca);
    edge_ids finds every edge from its ends, in either order."""
    r = refine_red(coarse)
    a, b, c = (coarse.vertices[coarse.triangles[:, j]] for j in range(3))
    ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
    for k, pts in enumerate([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]):
        np.testing.assert_array_equal(r.vertices[r.triangles[k::4]], np.stack(pts, axis=1))
    for m in (coarse, r):
        ids = np.arange(m.num_edges)
        assert np.array_equal(m.edge_ids(m.edges), ids)
        assert np.array_equal(m.edge_ids(m.edges[:, ::-1]), ids)
        local = np.stack([m.triangles, np.roll(m.triangles, -1, axis=1)], axis=2)
        assert np.array_equal(m.edge_ids(local), m.tri_edges)


def _edge_reference(mesh):
    """Edge numbering by np.unique over the sorted (lo, hi) rows."""
    pairs = np.stack([mesh.triangles, np.roll(mesh.triangles, -1, axis=1)],
                     axis=2).reshape(-1, 2)
    edges, inverse = np.unique(np.sort(pairs, axis=1), axis=0, return_inverse=True)
    tri_edges = inverse.reshape(-1, 3)
    signs = np.where(pairs[:, 0] < pairs[:, 1], 1, -1).reshape(-1, 3)
    boundary = np.bincount(tri_edges.ravel(), minlength=len(edges)) == 1
    return edges, tri_edges, signs, boundary


def _renumbered(mesh, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.num_vertices)      # old vertex id -> new id
    order = rng.permutation(mesh.num_triangles)
    verts = np.empty_like(mesh.vertices)
    verts[perm] = mesh.vertices
    return Mesh(verts, perm[mesh.triangles[order]], mesh.region[order],
                mesh.patch_kind[order], mesh.patch_index[order])


def test_edge_numbering_matches_row_unique(coarse):
    meshes = [coarse, refine_red(coarse), refine_red(refine_red(coarse))]
    for m in meshes + [_renumbered(meshes[1], seed=3)]:
        edges, tri_edges, signs, boundary = _edge_reference(m)
        assert m.edges.dtype == m.tri_edges.dtype == np.int32
        assert np.array_equal(m.edges, edges)
        assert np.array_equal(m.tri_edges, tri_edges)
        assert np.array_equal(m.tri_edge_signs, signs)
        assert np.array_equal(m.boundary_edge, boundary)


def test_edge_numbering_past_int32_key():
    # a 2 x 25,000 vertex strip: lo*V + hi exceeds 2^31 on its last edges
    n = 25_000
    x = np.arange(n, dtype=float)
    verts = np.concatenate([np.stack([x, np.zeros(n)], axis=1),
                            np.stack([x, np.ones(n)], axis=1)])
    i = np.arange(n - 1)
    tris = np.concatenate([np.stack([i, i + 1, n + i + 1], axis=1),
                           np.stack([i, n + i + 1, n + i], axis=1)])
    m = Mesh(verts, tris, np.zeros(len(tris)), np.zeros(len(tris)),
             np.zeros(len(tris)))
    assert int(m.edges[:, 0].max()) * m.num_vertices > 2**31
    edges, tri_edges, signs, boundary = _edge_reference(m)
    assert np.array_equal(m.edges, edges)
    assert np.array_equal(m.tri_edges, tri_edges)
    assert np.array_equal(m.tri_edge_signs, signs)
    assert np.array_equal(m.boundary_edge, boundary)


def test_mesh_io_roundtrip(coarse, tmp_path):
    # the writer's rows, parsed here: every coordinate reads back as the
    # exact float, every triangle as its vertex ids, region and patch label
    path = tmp_path / "coarse.mesh"
    mesh_write(coarse, path)
    lines = path.read_text().splitlines()
    nv, nt = coarse.num_vertices, coarse.num_triangles
    assert lines[:2] == ["signfem-mesh v1", f"vertices {nv}"]
    assert lines[2 + nv] == f"triangles {nt}"
    assert len(lines) == 3 + nv + nt
    rows = [line.split() for line in lines[2:2 + nv]]
    assert [int(r[0]) for r in rows] == list(range(nv))
    back = np.array([[float(r[1]), float(r[2])] for r in rows])
    assert back.tobytes() == coarse.vertices.astype(float).tobytes()
    labels = {PATCH_NONE: "none", PATCH_CORNER: "corner", PATCH_EDGE: "edge"}
    kinds = set()
    for t, line in enumerate(lines[3 + nv:]):
        tid, v1, v2, v3, reg, patch = line.split()
        assert int(tid) == t
        assert [int(v1), int(v2), int(v3)] == coarse.triangles[t].tolist()
        assert reg == ("+" if coarse.region[t] == 1 else "-")
        kind = labels[int(coarse.patch_kind[t])]
        kinds.add(kind)
        want = kind if kind == "none" else f"{kind}:{coarse.patch_index[t]}"
        assert patch == want
    assert kinds == {"none", "corner", "edge"}


def _mesh_write_rows(mesh, path):
    """mesh_write as a loop that formats one vertex or triangle at a time."""
    with open(path, "w") as fh:
        fh.write("signfem-mesh v1\n")
        fh.write(f"vertices {mesh.num_vertices}\n")
        for i, (x, y) in enumerate(mesh.vertices):
            fh.write(f"{i} {float(x)!r} {float(y)!r}\n")
        fh.write(f"triangles {mesh.num_triangles}\n")
        for t in range(mesh.num_triangles):
            v1, v2, v3 = mesh.triangles[t]
            reg = "+" if mesh.region[t] > 0 else "-"
            kind = mesh.patch_kind[t]
            patch = ("none" if kind == PATCH_NONE else
                     f"{'corner' if kind == PATCH_CORNER else 'edge'}:{mesh.patch_index[t]}")
            fh.write(f"{t} {v1} {v2} {v3} {reg} {patch}\n")


def test_mesh_write_matches_row_writer(coarse, tmp_path):
    fine = refine_red(coarse)
    for m in (fine, refine_red(fine)):
        mesh_write(m, tmp_path / "joined.mesh")
        _mesh_write_rows(m, tmp_path / "rows.mesh")
        assert (tmp_path / "joined.mesh").read_bytes() == (tmp_path / "rows.mesh").read_bytes()


def test_mesh_validation_rejects_garbage():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    good = np.array([[0, 1, 2]])
    one = np.ones(1, dtype=np.int8)
    none = np.full(1, -1, dtype=np.int32)
    with pytest.raises(MeshError, match="missing vertex"):
        Mesh(v, np.array([[0, 1, 5]]), one, 0 * one, none)
    with pytest.raises(MeshError, match="degenerate"):
        Mesh(v, np.array([[0, 2, 1]]), one, 0 * one, none)  # negative orientation
    dup = np.array([[0, 1, 2], [0, 1, 2], [2, 1, 0]])
    with pytest.raises(MeshError, match="non-manifold"):
        Mesh(v, dup, np.ones(3, dtype=np.int8), np.zeros(3, dtype=np.int8),
             np.full(3, -1, dtype=np.int32))


def test_build_rejects_bad_size(domain):
    with pytest.raises(MeshError):
        build_r_conform_coarse(domain, 0.0)


def test_square_mesh_structure():
    m = square_mesh(4)
    assert m.num_triangles == 32
    assert m.num_vertices - m.num_edges + m.num_triangles == 1
    assert m.areas.sum() == pytest.approx(1.0, rel=1e-14)
    assert (m.region == 1).all()
    assert m.h_max == pytest.approx(np.sqrt(2) / 4, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(0.25, 1.0), st.floats(0.5, 1.5)),
                min_size=4, max_size=12))
def test_ear_clip_star_polygons(gaps_radii):
    gaps = np.array([g for g, _ in gaps_radii])
    radii = np.array([r for _, r in gaps_radii])
    theta = 2 * np.pi * np.cumsum(gaps) / gaps.sum()
    pts = np.column_stack([radii * np.cos(theta), radii * np.sin(theta)])
    tris = ear_clip(pts)
    assert tris == _ear_clip_reference(pts)
    assert len(tris) == len(pts) - 2
    shoelace = 0.5 * np.sum(pts[:, 0] * np.roll(pts[:, 1], -1)
                            - pts[:, 1] * np.roll(pts[:, 0], -1))
    total = 0.0
    used = set()
    for (a, b, c) in tris:
        u, v = pts[b] - pts[a], pts[c] - pts[a]
        cr = u[0] * v[1] - u[1] * v[0]
        assert cr > 0
        total += 0.5 * cr
        used.update((a, b, c))
    assert total == pytest.approx(abs(shoelace), rel=1e-9)
    assert used == set(range(len(pts)))


def test_square_domain_mesh():
    sq = SQUARE
    m = build_r_conform_coarse(sq, 0.25)
    assert m.num_vertices - m.num_edges + m.num_triangles == 1
    assert m.areas.sum() == pytest.approx(9.0, rel=1e-12)
    assert m.areas[m.region == -1].sum() == pytest.approx(1.0, rel=1e-12)
    assert check_r_conformity(m, sq).passed
