"""Reflection transfer tables: trace matching, transform identities, norms."""

import dataclasses
import hashlib

import numpy as np
import pytest
from scipy.spatial import cKDTree

from signfem import fem, geometry as geo, reflection as refl
from signfem.geometry import make_reference_domain
from signfem.materials import critical_interval
from signfem.mesh import (PATCH_CORNER, PATCH_EDGE, Mesh, MeshError,
                          check_r_conformity, refine_red)
from signfem.meshgen import build_r_conform_coarse

PATTERNS = [("corner", i) for i in range(3)] + [("edge", i) for i in range(3)]


def _maps_and_targets(mesh, dom, pattern, direction):
    """Fold maps keyed by the sector of the triangle being defined (the edge
    mirror serves both directions, key None), the corner pattern (None for
    edges), and the ids of the patch triangles on the defined side."""
    kind, n = pattern
    if kind == "corner":
        by = {}
        for m in geo.fold_maps(dom.patterns[n], direction):
            by.setdefault(m.source_sector, []).append(m)
        cp, pk = dom.patterns[n], PATCH_CORNER
    else:
        by, cp, pk = {None: [geo.edge_reflection(*dom.edges[n])]}, None, PATCH_EDGE
    tgt_reg = -1 if direction == "+" else 1
    tgt = np.flatnonzero((mesh.patch_kind == pk) & (mesh.patch_index == n)
                         & (mesh.region == tgt_reg))
    return by, cp, tgt


@pytest.fixture(scope="module")
def dom():
    return make_reference_domain()


@pytest.fixture(scope="module")
def coarse(dom):
    return build_r_conform_coarse(dom, 0.2)


@pytest.fixture(scope="module")
def mesh_seq(coarse):
    seq = [coarse]
    for _ in range(3):
        seq.append(refine_red(seq[-1]))
    return seq


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("kind", ["scalar", "vector"])
@pytest.mark.parametrize("direction", ["+", "-"])
def test_trace_matching_full_basis(coarse, dom, pattern, kind, direction):
    r = refl.build_reflection(coarse, dom, pattern, kind, direction)
    assert len(r.interface_dofs) > 0
    assert refl.verify_trace_matching(coarse, r) <= 1e-12
    # with explicit trial fields the answer is the same
    rng = np.random.default_rng(1)
    trials = rng.standard_normal((4, r.matrix.shape[0]))
    assert refl.verify_trace_matching(coarse, r, trials) <= 1e-11


def test_flipped_fold_sign_detected(coarse, dom, monkeypatch):
    true_fold = geo.fold_maps

    def tampered(pattern, direction):
        maps = list(true_fold(pattern, direction))
        maps[1] = dataclasses.replace(maps[1], sign=-maps[1].sign)
        return tuple(maps)

    monkeypatch.setattr(geo, "fold_maps", tampered)
    r = refl.build_reflection(coarse, dom, ("corner", 0), "scalar", "+")
    assert refl.verify_trace_matching(coarse, r) >= 0.5


def test_constant_reflects_to_constant(coarse, dom):
    ones = np.ones(coarse.num_vertices)
    for pattern in PATTERNS:
        r = refl.build_reflection(coarse, dom, pattern, "scalar", "+")
        out = r.matrix @ ones
        assert np.abs(out[r.target_dofs] - 1.0).max() <= 1e-13
        # scalar weights are signed integers from the alternating fold
        assert np.allclose(r.matrix.data, np.round(r.matrix.data))


@pytest.mark.parametrize("pattern", [("corner", 0), ("edge", 1)])
@pytest.mark.parametrize("direction", ["+", "-"])
def test_pointwise_exactness(coarse, dom, pattern, direction):
    """The reflected FE function equals the signed pullback sum at interior
    points, not merely at dofs."""
    rng = np.random.default_rng(5)
    w = rng.standard_normal(coarse.num_vertices)
    r = refl.build_reflection(coarse, dom, pattern, "scalar", direction)
    rw = r.matrix @ w
    maps_by, cp, tgt = _maps_and_targets(coarse, dom, pattern, direction)
    bary = coarse.vertices[coarse.triangles].mean(axis=1)
    tree = cKDTree(bary)
    lamq = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [1 / 3, 1 / 3, 1 / 3]])

    def p1_eval(point, t):
        v = coarse.triangles[t]
        v0, d1, d2 = (coarse.vertices[v[0]], coarse.vertices[v[1]] - coarse.vertices[v[0]],
                      coarse.vertices[v[2]] - coarse.vertices[v[0]])
        det = d1[0] * d2[1] - d1[1] * d2[0]
        rel = point - v0
        l1 = (rel[0] * d2[1] - rel[1] * d2[0]) / det
        l2 = (d1[0] * rel[1] - d1[1] * rel[0]) / det
        return np.array([1 - l1 - l2, l1, l2]) @ w[v]

    worst = 0.0
    for t in tgt:
        pts = coarse.vertices[coarse.triangles[t]]
        sector = cp.sector_of(pts.mean(axis=0)) if cp is not None else None
        for lam in lamq:
            x = lam @ pts
            have = lam @ rw[coarse.triangles[t]]
            want = 0.0
            for m in maps_by[sector]:
                img = m(x)
                _, j = tree.query(img)
                want += m.sign * p1_eval(img, j)
            worst = max(worst, abs(have - want))
    assert worst <= 1e-12


def test_gradient_commutation(coarse, dom):
    rng = np.random.default_rng(2)
    w = rng.standard_normal(coarse.num_vertices)
    G = fem.gradient_map(coarse)
    for pattern in PATTERNS:
        for direction in ("+", "-"):
            rs = refl.build_reflection(coarse, dom, pattern, "scalar", direction)
            rv = refl.build_reflection(coarse, dom, pattern, "vector", direction)
            lhs = (rv.matrix @ (G @ w))[rv.target_dofs]
            rhs = (G @ (rs.matrix @ w))[rv.target_dofs]
            assert np.abs(lhs - rhs).max() <= 1e-12


def test_curl_transform_identity(coarse, dom):
    """Elementwise curl of the reflected field is the signed, det-F-weighted
    pullback of the source curl."""
    rng = np.random.default_rng(4)
    u = rng.standard_normal(coarse.num_edges)
    _, curls = fem._geometry(coarse)
    signs = coarse.tri_edge_signs

    def tri_curl(field):
        return np.einsum("tj,t->t", field[coarse.tri_edges] * signs, curls)

    cu = tri_curl(u)
    bary = coarse.vertices[coarse.triangles].mean(axis=1)
    tree = cKDTree(bary)
    for pattern in PATTERNS:
        for direction in ("+", "-"):
            rv = refl.build_reflection(coarse, dom, pattern, "vector", direction)
            cru = tri_curl(rv.matrix @ u)
            maps_by, cp, tgt = _maps_and_targets(coarse, dom, pattern, direction)
            for t in tgt:
                sector = cp.sector_of(bary[t]) if cp is not None else None
                want = 0.0
                for m in maps_by[sector]:
                    _, j = tree.query(m(bary[t]))
                    want += m.sign * m.orientation * cu[j]
                assert abs(cru[t] - want) <= 1e-12


def test_edge_mirror_is_involutive(coarse, dom):
    rp = refl.build_reflection(coarse, dom, ("edge", 0), "vector", "+")
    rm = refl.build_reflection(coarse, dom, ("edge", 0), "vector", "-")
    both = rm.matrix @ rp.matrix
    rng = np.random.default_rng(6)
    u = rng.standard_normal(coarse.num_edges)
    assert np.abs((both @ u - u)[rm.target_dofs]).max() <= 1e-13


@pytest.mark.parametrize("kind", ["scalar", "vector"])
@pytest.mark.parametrize("direction", ["+", "-"])
def test_norm_estimates_corner(mesh_seq, dom, kind, direction):
    est = refl.estimate_norm(mesh_seq, dom, ("corner", 0), kind, direction)
    assert est.formula_value == 5.0
    assert est.measured_sup > 0
    assert est.measured_sup_squared == pytest.approx(est.measured_sup ** 2)
    sups = np.array(est.level_sups)
    assert len(sups) == 4
    # monotone non-decreasing along refinement, up to roundoff
    assert (np.diff(sups) >= -1e-9).all()
    # stabilized: last two levels within 2 percent
    assert abs(sups[-1] - sups[-2]) <= 0.02 * sups[-1]
    # bracket spanning both norm conventions
    assert np.sqrt(5) - 0.05 <= est.measured_sup <= 5.0 + 0.05


@pytest.mark.parametrize("kind", ["scalar", "vector"])
def test_norm_estimates_edge(mesh_seq, dom, kind):
    for direction in ("+", "-"):
        est = refl.estimate_norm(mesh_seq[:3], dom, ("edge", 2), kind, direction)
        assert est.formula_value == 1.0
        assert est.measured_sup == pytest.approx(1.0, abs=1e-6)


def test_other_corners_match_formula(mesh_seq, dom):
    for n in (1, 2):
        est = refl.estimate_norm(mesh_seq[:2], dom, ("corner", n), "vector", "+")
        assert est.formula_value == 5.0
        assert np.sqrt(5) - 0.05 <= est.measured_sup <= 5.0 + 0.05


@pytest.fixture(scope="module")
def l_shape():
    """The L-shaped inclusion: five convex corners (3,1) and the re-entrant
    corner (1/2, 1/2) with pattern (1,3), so p_- > p_+ there."""
    dom = geo.DomainSpec(((-0.6, -0.6), (1.6, 1.6)),
                         ((0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)), 0.15)
    seq = [build_r_conform_coarse(dom, 0.2)]
    for _ in range(3):
        seq.append(refine_red(seq[-1]))
    return dom, seq


def test_reentrant_corner_conform(l_shape):
    dom, seq = l_shape
    assert critical_interval(dom) == 3
    assert ([(p.p_plus, p.p_minus) for p in dom.patterns]
            == [(3, 1)] * 3 + [(1, 3)] + [(3, 1)] * 2)
    for mesh in seq:
        assert check_r_conformity(mesh, dom).passed


@pytest.mark.parametrize("kind", ["scalar", "vector"])
@pytest.mark.parametrize("direction", ["+", "-"])
def test_reentrant_corner_norm_is_formula(l_shape, kind, direction):
    """At the (1,3) corner the squared sup is the ratio 3 on L0 and L1, to
    rounding."""
    dom, seq = l_shape
    est = refl.estimate_norm(seq[:2], dom, ("corner", 3), kind, direction)
    assert est.formula_value == 3.0
    for sup in est.level_sups:
        assert abs(sup ** 2 - 3.0) <= 1e-12


def test_build_rejects_bad_input(coarse, dom):
    with pytest.raises(refl.ReflectionError, match="kind"):
        refl.build_reflection(coarse, dom, ("corner", 0), "tensor", "+")
    with pytest.raises(refl.ReflectionError, match="direction"):
        refl.build_reflection(coarse, dom, ("corner", 0), "scalar", "up")
    with pytest.raises(refl.ReflectionError, match="triangles"):
        refl.build_reflection(coarse, dom, ("corner", 7), "scalar", "+")


def test_build_rejects_corner_with_both_counts_even():
    """A regular-hexagon inclusion has patterns (4,2) at every corner, and no
    alternating fold exists there: an input error like the others."""
    hexagon = tuple((0.5 + 0.5 * np.cos(k * np.pi / 3), 0.5 + 0.5 * np.sin(k * np.pi / 3))
                    for k in range(6))
    dom = geo.DomainSpec(((-0.5, -0.5), (1.5, 1.5)), hexagon, 0.15)
    assert [(p.p_plus, p.p_minus) for p in dom.patterns] == [(4, 2)] * 6
    mesh = build_r_conform_coarse(dom, 0.2)
    for kind in ("scalar", "vector"):
        for direction in ("+", "-"):
            with pytest.raises(refl.ReflectionError, match="both even"):
                refl.build_reflection(mesh, dom, ("corner", 0), kind, direction)


def _moved_corner0_plus_vertex(coarse, shift):
    """COARSE with vertex 1 of its first corner-0 plus-side triangle moved by
    SHIFT in both coordinates."""
    sel = (coarse.patch_kind == 1) & (coarse.patch_index == 0) & (coarse.region == 1)
    vid = int(coarse.triangles[np.flatnonzero(sel)[0], 1])
    verts = coarse.vertices.copy()
    verts[vid] += shift
    return Mesh(vertices=verts, triangles=coarse.triangles, region=coarse.region,
                patch_kind=coarse.patch_kind, patch_index=coarse.patch_index)


_DIRECTION = {"p2m": "+", "m2p": "-"}


def _flagged(rep):
    """The (pattern, direction) pairs the report names in a violation."""
    return {(pattern, _DIRECTION[d]) for pattern, d in
            (label.split("[")[0].split(":") for _, label, _ in rep.violations)}


def _assert_refusals_follow_report(mesh, dom, pattern="corner0"):
    """The check fails on MESH, and build_reflection refuses, for both kinds,
    exactly the (pattern, direction) pairs the check names in a violation;
    return them."""
    rep = check_r_conformity(mesh, dom)
    assert not rep.passed
    flagged = _flagged(rep)
    assert pattern in {p for p, _ in flagged}
    for kind in ("scalar", "vector"):
        refused = set()
        for (pk, n) in PATTERNS:
            for direction in ("+", "-"):
                try:
                    refl.build_reflection(mesh, dom, (pk, n), kind, direction)
                except refl.ReflectionError as exc:
                    assert "is not a mesh triangle" in str(exc)
                    refused.add((f"{pk}{n}", direction))
        assert refused == flagged, kind
    return flagged


def test_build_rejects_nonconform_mesh(coarse, dom):
    bad = _moved_corner0_plus_vertex(coarse, 1e-6)
    for kind in ("scalar", "vector"):
        with pytest.raises(refl.ReflectionError,
                           match="non-conform mesh: the image of triangle .* "
                                 "is not a mesh triangle"):
            refl.build_reflection(bad, dom, ("corner", 0), kind, "+")
    _assert_refusals_follow_report(bad, dom)


def test_build_rejects_move_below_old_operator_tolerance(coarse, dom):
    """A move of 5e-10 h_max is five times the conformity tolerance and half
    the 1e-9 h_max the operators once allowed their dof vertices: the check
    and both kinds of operator now refuse it alike."""
    bad = _moved_corner0_plus_vertex(coarse, 5e-10 * coarse.h_max)
    for kind in ("scalar", "vector"):
        with pytest.raises(refl.ReflectionError, match="is not a mesh triangle"):
            refl.build_reflection(bad, dom, ("corner", 0), kind, "+")
    _assert_refusals_follow_report(bad, dom)


def test_flipped_patch_edge_detected(coarse, dom):
    """Flipping the diagonal of two plus-side patch triangles keeps every
    vertex in place: vertex images still land, but some image triangles are
    no longer in the mesh, so the check and both kinds of operator refuse."""
    sel = np.flatnonzero((coarse.patch_kind == PATCH_CORNER)
                         & (coarse.patch_index == 0) & (coarse.region == 1))
    for e in np.unique(coarse.tri_edges[sel]):
        pair = sel[np.any(coarse.tri_edges[sel] == e, axis=1)]
        if len(pair) < 2:
            continue
        t1, t2 = pair
        j1 = list(coarse.tri_edges[t1]).index(e)
        j2 = list(coarse.tri_edges[t2]).index(e)
        a, b, c = np.roll(coarse.triangles[t1], -j1)
        d = np.roll(coarse.triangles[t2], -j2)[2]
        tris = coarse.triangles.copy()
        tris[t1], tris[t2] = (c, a, d), (d, b, c)
        try:
            bad = Mesh(coarse.vertices, tris, coarse.region, coarse.patch_kind,
                       coarse.patch_index)
        except MeshError:  # the quadrilateral is not convex
            continue
        break
    rep = check_r_conformity(bad, dom)
    assert not rep.passed
    assert {label.split("[")[0] for _, label, _ in rep.violations} == {
        "corner0:p2m", "corner0:m2p"}
    for kind in ("scalar", "vector"):
        with pytest.raises(refl.ReflectionError, match="not a mesh triangle"):
            refl.build_reflection(bad, dom, ("corner", 0), kind, "+")
    _assert_refusals_follow_report(bad, dom)


def _edge1_strip(mesh, region):
    return np.flatnonzero((mesh.patch_kind == PATCH_EDGE) & (mesh.patch_index == 1)
                          & (mesh.region == region))


@pytest.mark.parametrize("region", [1, -1])
def test_edge_violations_name_their_direction(coarse, dom, region):
    """Edge mirrors label their violations p2m ("+", which defines the minus
    side) and m2p ("-"), as corners do.  A vertex of one side's edge strip
    moved by 1e-6 breaks both directions, since the mirror is an involution;
    each label names only triangles of the side it defines.  Dropping one
    strip triangle of that side from the patch breaks only the direction
    that reads it, and build_reflection refuses exactly the flagged
    (pattern, direction) pairs."""
    strip, other = _edge1_strip(coarse, region), _edge1_strip(coarse, -region)
    vid = min(set(coarse.triangles[strip].ravel()) - set(coarse.triangles[other].ravel()))
    verts = coarse.vertices.copy()
    verts[vid] += 1e-6
    moved = Mesh(verts, coarse.triangles, coarse.region, coarse.patch_kind,
                 coarse.patch_index)
    assert {("edge1", "+"), ("edge1", "-")} <= _assert_refusals_follow_report(
        moved, dom, "edge1")
    for t, label, _ in check_r_conformity(moved, dom).violations:
        assert moved.region[t] == (-1 if ":p2m" in label else 1)

    kind = coarse.patch_kind.copy()
    kind[strip[len(strip) // 2]] = 0
    dropped = Mesh(coarse.vertices, coarse.triangles, coarse.region, kind,
                   coarse.patch_index)
    direction = "+" if region == 1 else "-"
    assert _assert_refusals_follow_report(dropped, dom, "edge1") == {("edge1", direction)}


def test_transfer_table_shape(coarse, dom):
    r = refl.build_reflection(coarse, dom, ("corner", 0), "vector", "+")
    m = r.matrix.tocsr()
    rows = np.flatnonzero(np.diff(m.indptr))
    assert sorted(rows) == sorted(int(i) for i in r.target_dofs)
    src = set(int(s) for s in r.source_dofs)
    for i in rows:
        entries = m.indices[m.indptr[i]:m.indptr[i + 1]]
        assert len(entries) and all(j in src for j in entries)


# sha256 (first 16 hex digits) of shape, indptr, indices, target_dofs,
# source_dofs, interface_dofs (as int64) and data (float64) of every operator
# on L0 and L1 of the reference ladder (r = 0.3, h = 0.2)
GOLDEN = {
    (('corner', 0), "scalar", "+"): ('92d9e78ea18b9217', 'a23fe0f9a3da4ad3'),
    (('corner', 0), "scalar", "-"): ('d09a1be9f3263210', '375efa384bc3a0b3'),
    (('corner', 0), "vector", "+"): ('54ead0cc3d3284aa', 'bb087763b2fb4d24'),
    (('corner', 0), "vector", "-"): ('6919e3a3e663ec6b', '7d8050ef447edddb'),
    (('corner', 1), "scalar", "+"): ('b7653540d14a97fb', '475792eb77a2b41e'),
    (('corner', 1), "scalar", "-"): ('bdbe7da9a60a89c9', '05cb06dcc6004d09'),
    (('corner', 1), "vector", "+"): ('2296b8282d407ef3', '36b1ee6e23f035e7'),
    (('corner', 1), "vector", "-"): ('d1a0f4a2a070e32d', '51ba63e0d15018dd'),
    (('corner', 2), "scalar", "+"): ('aac88d82f9e9eff8', '033bf20a212f6729'),
    (('corner', 2), "scalar", "-"): ('616c150a0f718931', '7368df802fe0f5fb'),
    (('corner', 2), "vector", "+"): ('c2a3ae68e437dcf7', '38aef1f1c6fafb81'),
    (('corner', 2), "vector", "-"): ('4b155f6cd853d362', 'c625120daeb6b313'),
    (('edge', 0), "scalar", "+"): ('4c236db046aec2ae', '7afd151ab5dff942'),
    (('edge', 0), "scalar", "-"): ('122915c4f40d2fa9', 'fb628bb9d900b1fc'),
    (('edge', 0), "vector", "+"): ('1a39cd6084113c3f', '02edffc49349e31c'),
    (('edge', 0), "vector", "-"): ('ad50260dc6fea85e', '4cd935f249c16788'),
    (('edge', 1), "scalar", "+"): ('67715534a0f47eb6', '68e98834ef3e9a96'),
    (('edge', 1), "scalar", "-"): ('012e963c74de5c1e', '6ce0dfaf6b37c2ee'),
    (('edge', 1), "vector", "+"): ('86c0499c0f851d35', '339a2649cc8a70bf'),
    (('edge', 1), "vector", "-"): ('a555596c4cda92b3', '8a4a882b64a650df'),
    (('edge', 2), "scalar", "+"): ('70992b784bbfaae5', '66c25528883a72de'),
    (('edge', 2), "scalar", "-"): ('5b5965a6afec2a9d', 'a3944dc71d3146cf'),
    (('edge', 2), "vector", "+"): ('5fc356bedc9c344e', '8619dcee3b238c20'),
    (('edge', 2), "vector", "-"): ('a55e6321effbd7bf', '0e380dbd556dc89b'),
}


def _digest(r):
    h = hashlib.sha256()
    m = r.matrix.tocsr()
    h.update(np.asarray(m.shape, dtype=np.int64).tobytes())
    for a in (m.indptr, m.indices, r.target_dofs, r.source_dofs, r.interface_dofs):
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(m.data, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def test_operators_golden(mesh_seq, dom):
    """All 24 operators are pinned bit for bit on L0 and L1."""
    got = {key: tuple(_digest(refl.build_reflection(m, dom, *key)) for m in mesh_seq[:2])
           for key in GOLDEN}
    assert got == GOLDEN


# level_sups of estimate_norm on L0-L2 (reference domain, r = 0.3, h = 0.2),
# for both kinds and all 12 (pattern, direction) pairs
GOLDEN_SUPS = {
    (('corner', 0), "scalar", "+"): (2.236067977499791, 2.2360679774997916, 2.236067977499799),
    (('corner', 0), "scalar", "-"): (2.2360679774997916, 2.2360679774997956, 2.236067977499803),
    (('corner', 1), "scalar", "+"): (2.2360679774997876, 2.2360679774997907, 2.2360679774997907),
    (('corner', 1), "scalar", "-"): (2.2360679774997947, 2.2360679774998027, 2.236067977499883),
    (('corner', 2), "scalar", "+"): (2.236067977499786, 2.2360679774997907, 2.2360679774997894),
    (('corner', 2), "scalar", "-"): (2.2360679774997956, 2.2360679774997974, 2.236067977499841),
    (('edge', 0), "scalar", "+"): (1.0000000000000044, 1.0000000000000164, 1.0000000000000724),
    (('edge', 0), "scalar", "-"): (1.000000000000001, 1.0000000000000022, 1.00000000000001),
    (('edge', 1), "scalar", "+"): (1.0000000000000029, 1.000000000000014, 1.0000000000000122),
    (('edge', 1), "scalar", "-"): (1.0000000000000029, 1.000000000000011, 1.0000000000001041),
    (('edge', 2), "scalar", "+"): (1.0000000000000056, 1.0000000000000193, 1.0000000000000708),
    (('edge', 2), "scalar", "-"): (1.0000000000000007, 1.00000000000001, 1.0000000000000873),
    (('corner', 0), "vector", "+"): (2.2360679774997902, 2.236067977499796, 2.236067977499808),
    (('corner', 0), "vector", "-"): (2.2360679774997894, 2.23606797749979, 2.2360679774998),
    (('corner', 1), "vector", "+"): (2.236067977499788, 2.2360679774997907, 2.236067977499793),
    (('corner', 1), "vector", "-"): (2.236067977499792, 2.2360679774997974, 2.236067977499882),
    (('corner', 2), "vector", "+"): (2.236067977499789, 2.236067977499794, 2.2360679774997942),
    (('corner', 2), "vector", "-"): (2.2360679774997907, 2.2360679774997956, 2.2360679774998835),
    (('edge', 0), "vector", "+"): (1.0000000000000047, 1.0000000000000173, 1.0000000000000615),
    (('edge', 0), "vector", "-"): (0.9999999999999997, 1.0000000000000018, 1.0000000000000304),
    (('edge', 1), "vector", "+"): (1.000000000000004, 1.0000000000000064, 1.0000000000000038),
    (('edge', 1), "vector", "-"): (1.0000000000000022, 1.000000000000012, 1.0000000000001825),
    (('edge', 2), "vector", "+"): (1.0000000000000058, 1.0000000000000204, 1.0000000000000584),
    (('edge', 2), "vector", "-"): (0.9999999999999998, 1.0000000000000007, 1.0000000000000087),
}


def test_level_sups_golden(mesh_seq, dom):
    """Every level sup on L0-L2 to 1e-12 relative."""
    for (pattern, kind, direction), want in GOLDEN_SUPS.items():
        est = refl.estimate_norm(mesh_seq[:3], dom, pattern, kind, direction)
        np.testing.assert_allclose(est.level_sups, want, rtol=1e-12, atol=0,
                                   err_msg=f"{pattern} {kind} {direction}")

