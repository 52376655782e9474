"""Mesh construction, refinement, conformity checking, and file format."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signfem import geometry as geo
from signfem.mesh import (Mesh, MeshError, PATCH_CORNER, PATCH_EDGE, PATCH_NONE,
                          check_r_conformity, mesh_read, mesh_write, refine_red)
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

# The coarse mesher's output, pinned: every split, flip and smoothing move
# must come out the same.  sha256 of each label array as little-endian int64.
GOLDEN = {
    "reference r=0.3": (geo.make_reference_domain(0.3), 401, 740, {
        "triangles": "b3a39fe38106b05294b3ed010c145dfe04e25e8e22c5f188ad5ee5df438e229b",
        "region": "3b78e26c06f66b672367b29781f9ef1e4ec7591fe6eccbf47bab5c9b35d47793",
        "patch_kind": "7053b5abfd3d7645d0d333149ec16df1cf34d7d733edea19aacec964df107812",
        "patch_index": "bd2f3c877720b10a3b66a1b3cd37fdc0419aec45002ea352959254137fb62ecf",
    }, 0.2, 366.6757468378231, 483.55114041989066),
    "reference r=0.05": (geo.make_reference_domain(0.05), 601, 1140, {
        "triangles": "580c97c6cea76907469d317ba4d7ad4d84431a281fb0edc45d90c853f8dee95e",
        "region": "96c721709572d857e342f71896c31fe0e7888ea2a07c5622fc6bb59f60000b46",
        "patch_kind": "9951edb5d24a54abcb55dbb2450037202f36f41e3b635d9df27de5d22302e229",
        "patch_index": "d80fdde929cf340a06741e824dfee13b7a7c8ff3c26e049854e8147202ffed26",
    }, 0.2, 478.94721195006, 545.8438088724428),
    "square": (SQUARE, 569, 1076, {
        "triangles": "89c0548a63649f7066d819012f1952a18e1f444ad625bdaa703a013711b34d53",
        "region": "69b84e6fb7c3bc653f05e9dde31101633a9b3eab7d4a83a5c3c936fc51fc06da",
        "patch_kind": "bc1e767e00bb937ddee750ba7741972f6cf199d8c78aadd49bd6f921d293171b",
        "patch_index": "ebad14c679ff8290de48b86d21d3e5450040feb7738793329568c87de356200f",
    }, 0.25, 565.1660785412627, 1264.3287355277134),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_coarse_builder_golden(case):
    domain, nv, nt, digests, h, vsum, vsq = GOLDEN[case]
    m = build_r_conform_coarse(domain, h)
    assert (m.num_vertices, m.num_triangles) == (nv, nt)
    for name, digest in digests.items():
        data = np.ascontiguousarray(getattr(m, name), dtype="<i8").tobytes()
        assert hashlib.sha256(data).hexdigest() == digest, name
    assert m.vertices.sum() == pytest.approx(vsum, rel=1e-12)
    assert (m.vertices ** 2).sum() == pytest.approx(vsq, rel=1e-12)


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
        assert rep.passed and not rep.violations
        assert rep.max_vertex_mismatch <= 1e-10 * mesh.h_max


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
    path = tmp_path / "coarse.mesh"
    mesh_write(coarse, path)
    back = mesh_read(path)
    assert np.array_equal(back.vertices, coarse.vertices)
    assert np.array_equal(back.triangles, coarse.triangles)
    assert np.array_equal(back.region, coarse.region)
    assert np.array_equal(back.patch_kind, coarse.patch_kind)
    assert np.array_equal(back.patch_index, coarse.patch_index)
    assert np.array_equal(back.edges, coarse.edges)
    assert back.h_max == coarse.h_max


@pytest.mark.parametrize("mutate, line_hint", [
    (lambda L: ["bogus v9"] + L[1:], "header"),
    (lambda L: L[:2] + ["0 0.0"] + L[3:], "vertex"),
    (lambda L: L[:1] + [L[1].replace("vertices", "verts")] + L[2:], "vertices"),
])
def test_mesh_io_malformed(coarse, tmp_path, mutate, line_hint):
    path = tmp_path / "broken.mesh"
    mesh_write(coarse, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(mutate(lines)) + "\n")
    with pytest.raises(MeshError, match="line"):
        mesh_read(path)


def test_mesh_io_bad_labels(coarse, tmp_path):
    path = tmp_path / "labels.mesh"
    mesh_write(coarse, path)
    lines = path.read_text().splitlines()
    nv = coarse.num_vertices
    row = lines[2 + nv + 1].split()
    row[4] = "?"
    lines[2 + nv + 1] = " ".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError, match="region"):
        mesh_read(path)


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
