"""Corner patterns, fold maps, cutoffs, and domain validation."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signfem import geometry as geo

TWO_PI = 2.0 * math.pi

# apertures with even reduced denominator: the patterns the fold construction supports
FOLDABLE_Q = [Fraction(5, 6), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
              Fraction(1, 6), Fraction(7, 10), Fraction(3, 8), Fraction(5, 8),
              Fraction(9, 10), Fraction(7, 12), Fraction(11, 12)]

patterns_st = st.builds(
    geo.corner_pattern,
    st.sampled_from(FOLDABLE_Q),
    st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
    st.floats(-math.pi, math.pi),
)


def angdiff(x, y):
    return np.abs((np.asarray(x) - np.asarray(y) + math.pi) % TWO_PI - math.pi)


def ray_points(pat, j, radii):
    a = pat.ray_angle(j)
    return np.array(pat.corner) + np.outer(radii, [math.cos(a), math.sin(a)])


def cubic(coeffs):
    # bivariate polynomial of total degree <= 3 on (N,2) point arrays
    def w(pts):
        pts = np.atleast_2d(pts)
        x, y = pts[:, 0], pts[:, 1]
        out = np.zeros(len(pts))
        k = 0
        for i in range(4):
            for j in range(4 - i):
                out += coeffs[k] * x**i * y**j
                k += 1
        return out

    return w


CUBIC_DIM = sum(4 - i for i in range(4))


def grouped(maps):
    by = {}
    for m in maps:
        by.setdefault(m.source_sector, []).append(m)
    return by


def fold_sum(maps, w, pts):
    return sum(m.sign * w(m(pts)) for m in maps)


# ---------------------------------------------------------------------------
# patterns


def test_pattern_examples():
    assert geo.reduce_sector_counts(Fraction(5, 6)) == (5, 1)
    assert geo.reduce_sector_counts(Fraction(1, 2)) == (1, 1)
    assert geo.reduce_sector_counts(Fraction(1, 4)) == (1, 3)
    assert geo.reduce_sector_counts(Fraction(3, 4)) == (3, 1)
    assert geo.reduce_sector_counts(Fraction(1, 3)) == (2, 4)
    pat = geo.corner_pattern(Fraction(5, 6))
    assert (pat.p_plus, pat.p_minus) == (5, 1)
    assert pat.beta == pytest.approx(math.pi / 3, abs=1e-15)
    assert geo.corner_pattern(Fraction(1, 2)).beta == pytest.approx(math.pi)
    assert geo.corner_pattern(Fraction(1, 4)).beta == pytest.approx(math.pi / 2)


@given(st.integers(1, 60), st.integers(1, 60))
def test_pattern_minimal_even_and_idempotent(i, j):
    q = Fraction(i, i + j)
    pat = geo.corner_pattern(q)
    assert pat.p % 2 == 0
    assert Fraction(pat.p_plus, pat.p) == q
    # minimality: no smaller even sector count realizes q
    for p in range(2, pat.p, 2):
        assert (q * p).denominator != 1
    # doubling the counts reduces back to the same pattern
    again = geo.corner_pattern(Fraction(2 * pat.p_plus, 2 * pat.p))
    assert (again.p_plus, again.p_minus) == (pat.p_plus, pat.p_minus)


def test_pattern_rejects_bad_aperture():
    with pytest.raises(geo.GeometryError):
        geo.reduce_sector_counts(Fraction(0))
    with pytest.raises(geo.GeometryError):
        geo.reduce_sector_counts(Fraction(7, 6))
    with pytest.raises(geo.GeometryError):
        geo.CornerPattern((0, 0), Fraction(5, 6), 5, 2, 0.0)


@given(patterns_st, st.integers(0, 40))
def test_sector_of_matches_rays(pat, k):
    j = k % pat.p
    mid = np.array(pat.corner) + 0.7 * np.array(
        [math.cos(pat.ray_angle(j) + 0.5 * pat.beta),
         math.sin(pat.ray_angle(j) + 0.5 * pat.beta)]
    )
    assert pat.sector_of(mid) == j


# ---------------------------------------------------------------------------
# fold maps


def sector_points(pat, j):
    """Points of sector j at several radii, and their local angles."""
    thetas = np.linspace(j * pat.beta, (j + 1) * pat.beta, 9)
    a = pat.frame_angle + thetas
    r = np.linspace(0.2, 0.9, 9)[:, None]
    return np.array(pat.corner) + r * np.column_stack([np.cos(a), np.sin(a)]), thetas


def test_fold_equilateral_plus_to_minus_pinned():
    pat = geo.corner_pattern(Fraction(5, 6))
    maps = geo.fold_maps(pat, "+")
    assert len(maps) == 5
    assert [m.sign for m in maps] == [1, -1, 1, -1, 1]
    assert [m.source_sector for m in maps] == [5] * 5
    assert [m.target_sector for m in maps] == [4, 3, 2, 1, 0]
    b = pat.beta
    actions = [lambda t: 10 * b - t, lambda t: t - 2 * b, lambda t: 8 * b - t,
               lambda t: t - 4 * b, lambda t: 6 * b - t]
    x, thetas = sector_points(pat, 5)
    for m, act in zip(maps, actions):
        assert np.all(angdiff(pat.local_angle(m(x)), act(thetas)) < 1e-12)
    # the actions theta -> c*beta - theta are the reflections
    assert [m.orientation for m in maps] == [-1, 1, -1, 1, -1]


def test_fold_equilateral_minus_to_plus_pinned():
    pat = geo.corner_pattern(Fraction(5, 6))
    maps = geo.fold_maps(pat, "-")
    assert len(maps) == 5
    assert all(m.sign == 1 for m in maps)
    assert sorted(m.source_sector for m in maps) == [0, 1, 2, 3, 4]
    assert all(m.target_sector == 5 for m in maps)
    # each is the inverse of one '+' map
    fwd = geo.fold_maps(pat, "+")
    for m in maps:
        x, _ = sector_points(pat, m.source_sector)
        assert any(np.allclose(f(m(x)), x, atol=1e-13) for f in fwd)


def test_fold_flat_interface_is_single_mirror():
    pat = geo.corner_pattern(Fraction(1, 2), corner=(0.3, -0.1), frame_angle=0.4)
    for direction in "+-":
        (m,) = geo.fold_maps(pat, direction)
        assert m.sign == 1 and m.orientation == -1
        pts = np.array(pat.corner) + np.array([math.cos(0.4), math.sin(0.4)]) * 0.7
        assert np.allclose(m(pts), pts, atol=1e-14)  # interface line is fixed


def test_fold_rejects_doubled_even_patterns():
    pat = geo.corner_pattern(Fraction(1, 3))  # (2, 4)
    assert (pat.p_plus, pat.p_minus) == (2, 4)
    with pytest.raises(geo.GeometryError):
        geo.fold_maps(pat, "+")
    with pytest.raises(geo.GeometryError):
        geo.fold_maps(pat, "-")
    with pytest.raises(geo.GeometryError, match="direction"):
        geo.fold_maps(geo.corner_pattern(Fraction(5, 6)), "up")


# Every admissible pattern with p <= 12 (p_+ and p_- odd and coprime), at two
# corner and frame pairs.  sha256 over the maps in order of F and y as
# little-endian float64 and of (sign, source_sector, target_sector) as
# little-endian int64, and the number of maps, per direction.
FOLD_GOLDEN = {
    "+": (426, "49b589b804fcf137c76ddd1c173d348043929bf252874742e258d7f01cc95598"),
    "-": (426, "0e6ef6772e6e4b829035f3b1156d88e685fdd56cda6ce7e8c8d67b84580d086e"),
}


@pytest.mark.parametrize("direction", sorted(FOLD_GOLDEN))
def test_fold_maps_golden(direction):
    h, count = hashlib.sha256(), 0
    for p in range(2, 13, 2):
        for p_plus in range(1, p, 2):
            if math.gcd(p_plus, p) != 1:
                continue
            for corner, frame in (((0.0, 0.0), 0.0), ((0.3, -0.7), 1.1)):
                pat = geo.corner_pattern(Fraction(p_plus, p), corner, frame)
                for m in geo.fold_maps(pat, direction):
                    h.update(np.ascontiguousarray(m.F, dtype="<f8").tobytes())
                    h.update(np.ascontiguousarray(m.y, dtype="<f8").tobytes())
                    h.update(np.array([m.sign, m.source_sector, m.target_sector],
                                      dtype="<i8").tobytes())
                    count += 1
    assert (count, h.hexdigest()) == FOLD_GOLDEN[direction]


@settings(deadline=None, max_examples=60)
@given(patterns_st, st.sampled_from("+-"),
       st.lists(st.floats(-1, 1), min_size=CUBIC_DIM, max_size=CUBIC_DIM))
def test_fold_trace_and_continuity(pat, direction, coeffs):
    """Signed fold sums match the input trace on the interface rays and are
    continuous across every interior ray of the target cone (cubic inputs)."""
    w = cubic(coeffs)
    by = grouped(geo.fold_maps(pat, direction))
    radii = np.linspace(0.05, 1.0, 6)
    if direction == "+":
        sectors = list(range(pat.p_plus, pat.p))
        first_ray, last_ray = pat.p_plus, pat.p
    else:
        sectors = list(range(0, pat.p_plus))
        first_ray, last_ray = 0, pat.p_plus
    # trace matching on both interface rays
    pts = ray_points(pat, last_ray, radii)
    assert np.allclose(fold_sum(by[sectors[-1]], w, pts), w(pts), atol=1e-11)
    pts = ray_points(pat, first_ray, radii)
    assert np.allclose(fold_sum(by[sectors[0]], w, pts), w(pts), atol=1e-11)
    # continuity across interior rays of the target cone
    for s0, s1 in zip(sectors, sectors[1:]):
        pts = ray_points(pat, s1, radii)
        assert np.allclose(fold_sum(by[s0], w, pts), fold_sum(by[s1], w, pts),
                           atol=1e-11)


@settings(deadline=None, max_examples=60)
@given(patterns_st, st.sampled_from("+-"))
def test_fold_maps_are_exact_isometries_onto_sectors(pat, direction):
    rng = np.random.default_rng(7)
    R = 0.8
    for m in geo.fold_maps(pat, direction):
        assert np.max(np.abs(m.F.T @ m.F - np.eye(2))) < 1e-14
        x = rng.uniform(-1, 1, (5, 2))
        y = rng.uniform(-1, 1, (5, 2))
        assert np.allclose(np.linalg.norm(m(x) - m(y), axis=1),
                           np.linalg.norm(x - y, axis=1), atol=1e-13)
        # closed source sector wedge lands on the closed target sector wedge
        corner = np.array(pat.corner)
        assert np.allclose(m(corner), corner, atol=1e-13)
        src = [pat.ray_point(m.source_sector, R), pat.ray_point(m.source_sector + 1, R)]
        tgt = [pat.ray_point(m.target_sector, R), pat.ray_point(m.target_sector + 1, R)]
        images = m(np.array(src))
        for img in images:
            assert min(np.linalg.norm(img - t) for t in tgt) < 1e-12 * R


# ---------------------------------------------------------------------------
# edge mirrors


def test_edge_reflection_x_axis():
    m = geo.edge_reflection((0, 0), (1, 0))
    pts = np.array([[0.3, 0.2], [-1.0, -0.5], [2.0, 0.0]])
    assert np.allclose(m(pts), pts * [1, -1], atol=1e-15)
    assert m.sign == 1 and m.orientation == -1


@given(st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
       st.tuples(st.floats(-3, 3), st.floats(-3, 3)))
def test_edge_reflection_involution_and_fixed_line(a, b):
    if math.dist(a, b) < 1e-3:
        with pytest.raises(geo.GeometryError):
            geo.edge_reflection(a, a)
        return
    m = geo.edge_reflection(a, b)
    ts = np.linspace(-0.5, 1.5, 7)[:, None]
    on_line = np.asarray(a) + ts * (np.asarray(b) - np.asarray(a))
    assert np.allclose(m(on_line), on_line, atol=1e-12)
    pts = np.array([[0.1, 0.7], [-2.0, 1.3]])
    assert np.allclose(m(m(pts)), pts, atol=1e-12)


# ---------------------------------------------------------------------------
# cutoffs


def test_corner_cutoff_profile():
    prof = geo.corner_cutoff((1.0, 2.0), 0.3)
    assert prof.r1 == pytest.approx(0.15) and prof.r2 == pytest.approx(0.27)
    assert geo.cutoff_eval(prof, (1.0, 2.0)) == 1.0
    assert geo.cutoff_eval(prof, (1.0 + 0.14, 2.0)) == 1.0
    assert geo.cutoff_eval(prof, (1.0, 2.0 + 0.28)) == 0.0
    rs = np.linspace(0.0, 0.35, 200)
    vals = geo.cutoff_eval(prof, np.column_stack([1.0 + rs, np.full_like(rs, 2.0)]))
    assert np.all(np.diff(vals) <= 1e-15)  # monotone along the ray
    mid = geo.cutoff_eval(prof, (1.0 + 0.21, 2.0))
    assert 0.0 < mid < 1.0
    assert np.all((0.0 <= vals) & (vals <= 1.0))


def test_edge_cutoff_mirror_symmetric():
    a, b = (0.2, -0.4), (1.1, 0.9)
    prof = geo.edge_cutoff(a, b, 0.12)
    mirror = geo.edge_reflection(a, b)
    pts = np.random.default_rng(3).uniform(-0.5, 1.5, (40, 2))
    assert np.allclose(geo.cutoff_eval(prof, pts), geo.cutoff_eval(prof, mirror(pts)),
                       atol=1e-13)
    mid = 0.5 * (np.asarray(a) + np.asarray(b))
    assert geo.cutoff_eval(prof, mid) == 1.0
    normal = np.array([-(b[1] - a[1]), b[0] - a[0]])
    normal /= np.linalg.norm(normal)
    assert geo.cutoff_eval(prof, mid + 0.13 * normal) == 0.0


def test_cutoff_smoothness_at_knots():
    # C^2: second finite differences stay bounded through r1 and r2
    prof = geo.corner_cutoff((0.0, 0.0), 1.0)
    h = 1e-4
    for r0 in (prof.r1, prof.r2):
        rs = np.array([r0 - h, r0, r0 + h])
        v = geo.cutoff_eval(prof, np.column_stack([rs, np.zeros(3)]))
        assert abs(v[0] - 2 * v[1] + v[2]) < 5 * h**2  # no curvature jump blowup


# ---------------------------------------------------------------------------
# domains


def test_reference_domain_values():
    dom = geo.make_reference_domain()
    assert dom.outer_rect == ((-0.5, -0.5), (1.5, 1.3))
    assert dom.interface_polygon[2][0] == pytest.approx(0.5, abs=1e-15)
    assert dom.interface_polygon[2][1] == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
    for pat in dom.patterns:
        assert (pat.p_plus, pat.p_minus) == (5, 1)
        assert pat.q == Fraction(5, 6)
    assert dom.patch_radius_corner == 0.3
    assert dom.patch_halfwidth_edge == pytest.approx(0.15 * math.sin(math.pi / 3))


def test_square_inclusion_patterns():
    dom = geo.DomainSpec(((-1, -1), (2, 2)), ((0, 0), (1, 0), (1, 1), (0, 1)), 0.2)
    assert [(p.p_plus, p.p_minus) for p in dom.patterns] == [(3, 1)] * 4


def test_domain_validation_errors():
    with pytest.raises(geo.GeometryError):  # clockwise
        geo.DomainSpec(((-1, -1), (2, 2)), ((0, 0), (0, 1), (1, 1), (1, 0)), 0.2)
    with pytest.raises(geo.GeometryError):  # self-intersecting bowtie
        geo.DomainSpec(((-1, -1), (2, 2)), ((0, 0), (1, 1), (1, 0), (0, 1)), 0.1)
    with pytest.raises(geo.GeometryError):  # patches overlap
        geo.DomainSpec(((-1, -1), (2, 2)), ((0, 0), (1, 0), (0.5, 0.9)), 0.6)
    with pytest.raises(geo.GeometryError):  # patch leaves the rectangle
        geo.DomainSpec(((-0.1, -1), (2, 2)), ((0, 0), (1, 0), (0.5, 0.9)), 0.2)
    with pytest.raises(geo.GeometryError):  # irrational corner angle
        geo.DomainSpec(((-2, -2), (2, 2)),
                       ((0, 0), (1, 0), (math.cos(0.7), math.sin(0.7))), 0.05)
    with pytest.raises(geo.GeometryError, match=r"corner at \(0\.5, 0\.0\) is flat"):
        geo.DomainSpec(((-1, -1), (2, 2)), ((0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)), 0.15)
    ref = geo.make_reference_domain()
    with pytest.raises(TypeError):  # the half-width is derived, never given
        geo.DomainSpec(ref.outer_rect, ref.interface_polygon, 0.3, 0.15)


def notched(tip):
    """A 6 x 2 block with a 45-degree notch from the top whose tip is at
    height TIP above the bottom edge; R = 0.15, half-width 0.053."""
    w = 2 - tip
    return geo.DomainSpec(((-1, -1), (7, 3)),
                          ((0, 0), (6, 0), (6, 2), (3 + w, 2), (3, tip), (3 - w, 2), (0, 2)),
                          0.15)


@pytest.mark.parametrize("tip", [0.05, 0.12, 0.2])
def test_patch_reaching_a_far_edge_strip_is_rejected(tip):
    # the tip's patch disk overlaps the bottom edge's strip: at 0.12 the
    # leftover region could not be triangulated, at 0.2 a sliver triangle
    # was left, at 0.05 the notch sides also come within 2 * half-width of
    # the bottom edge
    with pytest.raises(geo.GeometryError,
                       match=rf"corner patch at \(3\.0, {tip}\) overlaps the strip of edge "
                             r"\(0\.0, 0\.0\)-\(6\.0, 0\.0\)"):
        notched(tip)


def test_patch_clear_of_far_edge_strips_is_accepted():
    dom = notched(0.4)
    assert dom.patch_halfwidth_edge == pytest.approx(0.075 * math.sin(math.pi / 4))
