"""Exact sector geometry at interface corners.

Rational corner patterns (p+, p-), the fold maps that build the corner
reflection operators, edge mirrors, C^2 cut-off profiles, and the domain
specification consumed by the mesh builder.  Sector bookkeeping is exact
(ints / Fractions); floats enter only when a map's matrix is formed.

The fold maps follow one parity rule.  With P = p_plus and beta = 2pi/p, the
map of sector s onto sector t crosses |t-s| rays: it is the reflection across
the half-ray (s+t+1)/2 * beta when t-s is odd and the rotation by (t-s) * beta
when t-s is even.  Direction '+' defines the minus sectors from the plus
cone, '-' the plus sectors from the minus cone; the j-th map of a sector
carries the sign (-1)^(j+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi


class GeometryError(ValueError):
    """Invalid geometric data (non-rational angle, bad polygon, map misuse)."""


# ---------------------------------------------------------------------------
# corner patterns


def reduce_sector_counts(q: Fraction) -> tuple[int, int]:
    """Minimal (p_plus, p_minus) with even sum for plus-cone aperture q = alpha/2pi.

    With q = a/b in lowest terms: b even gives (a, b-a) (both odd since
    gcd(a,b)=1); b odd forces the doubled pattern (2a, 2(b-a)).
    """
    if not 0 < q < 1:
        raise GeometryError(f"aperture fraction must lie in (0,1), got {q}")
    a, b = q.numerator, q.denominator
    if b % 2 == 0:
        return a, b - a
    return 2 * a, 2 * (b - a)


@dataclass(frozen=True)
class CornerPattern:
    """Rational sector pattern at one interface corner.

    The local frame puts theta = 0 on the first plus-side ray (along the
    incoming polygon edge); sector j covers local angles [j*beta, (j+1)*beta),
    j = 0..p_plus-1 in the plus cone and j = p_plus..p-1 in the minus cone.
    """

    corner: tuple[float, float]
    q: Fraction  # alpha / 2pi, exact
    p_plus: int
    p_minus: int
    frame_angle: float  # global direction of the theta=0 ray

    def __post_init__(self):
        if self.p_plus < 1 or self.p_minus < 1:
            raise GeometryError("sector counts must be positive")
        if (self.p_plus + self.p_minus) % 2:
            raise GeometryError("p_plus + p_minus must be even")
        if Fraction(self.p_plus, self.p_plus + self.p_minus) != self.q:
            raise GeometryError(
                f"sector counts ({self.p_plus},{self.p_minus}) do not realize q={self.q}"
            )

    @property
    def p(self) -> int:
        return self.p_plus + self.p_minus

    @property
    def beta(self) -> float:
        return TWO_PI / self.p

    def ray_angle(self, j: int) -> float:
        """Global direction of sector ray j (ray j bounds sectors j-1 | j)."""
        return self.frame_angle + j * self.beta

    def ray_point(self, j: int, radius: float) -> np.ndarray:
        a = self.ray_angle(j)
        return np.array(self.corner) + radius * np.array([math.cos(a), math.sin(a)])

    def local_angle(self, point):
        """Local angle of one point (2,) or many (N,2)."""
        d = np.asarray(point, dtype=float) - np.asarray(self.corner)
        return (np.arctan2(d[..., 1], d[..., 0]) - self.frame_angle) % TWO_PI

    def sector_of(self, point):
        """Sector index of one point (2,) or many (N,2), by local angle; the
        corner itself maps to 0."""
        return np.minimum((self.local_angle(point) / self.beta).astype(int), self.p - 1)


def corner_pattern(q, corner=(0.0, 0.0), frame_angle=0.0) -> CornerPattern:
    """Minimal even-sum sector pattern for a plus-cone aperture alpha = 2*pi*q."""
    q = Fraction(q)
    p_plus, p_minus = reduce_sector_counts(q)
    return CornerPattern(
        corner=(float(corner[0]), float(corner[1])),
        q=q,
        p_plus=p_plus,
        p_minus=p_minus,
        frame_angle=float(frame_angle),
    )


# ---------------------------------------------------------------------------
# fold maps


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _reflection(axis_angle: float) -> np.ndarray:
    c, s = math.cos(2.0 * axis_angle), math.sin(2.0 * axis_angle)
    return np.array([[c, s], [s, -c]])


@dataclass(frozen=True, eq=False)
class SectorMap:
    """Affine isometry x -> F x + y between two cones/strips at the interface.

    source_sector is the geometric domain (the cone on which the reflected
    field is being defined), target_sector the geometric image (the cone where
    the input field lives): reflection operators act by pullback,
    (R w)(x) = sum_m sign_m * w(F_m x + y_m) for x in the source sector.
    Edge mirrors carry source_sector = target_sector = -1.
    """

    F: np.ndarray
    y: np.ndarray
    sign: int
    source_sector: int
    target_sector: int

    def __call__(self, x):
        return np.asarray(x, dtype=float) @ self.F.T + self.y

    @property
    def orientation(self) -> int:
        return int(round(float(np.linalg.det(self.F))))


def fold_maps(pattern: CornerPattern, direction: str) -> tuple[SectorMap, ...]:
    """Sector maps of the corner reflection, in the order its operators use.

    Direction '+' defines the minus sectors s = P..p-1 (P = p_plus), each from
    the plus sectors t = P-j, j = 1..P; '-' defines the plus sectors
    s = P-1..0, each from the minus sectors t = P-1+j, j = 1..p_minus.  Each
    map follows the parity rule of the module docstring.  These accordion
    folds of one cone onto the other have signed sums that match the input
    trace on both interface rays and agree across every inner ray.  Patterns
    with p_plus and p_minus both even admit no such alternating fold (the
    trace condition on the second interface ray pins an unpaired coefficient
    to zero), so they are rejected.
    """
    if direction not in ("+", "-"):
        raise GeometryError(f"unknown fold direction {direction!r}")
    if pattern.p_plus % 2 == 0 and pattern.p_minus % 2 == 0:
        raise GeometryError(
            "no alternating fold exists for patterns with p_plus, p_minus both even"
        )
    P, p, beta = pattern.p_plus, pattern.p, pattern.beta
    if direction == "+":
        folds = [(s, P - j, j) for s in range(P, p) for j in range(1, P + 1)]
    else:
        folds = [(s, P - 1 + j, j) for s in range(P - 1, -1, -1)
                 for j in range(1, pattern.p_minus + 1)]
    corner = np.array(pattern.corner, dtype=float)
    out = []
    for s, t, j in folds:
        if (t - s) % 2:
            F = _reflection(pattern.frame_angle + 0.5 * ((s + t + 1) % p) * beta)
        else:
            F = _rotation(((t - s) % p) * beta)
        out.append(SectorMap(F, corner - F @ corner, (-1) ** (j + 1), s, t))
    return tuple(out)


def edge_reflection(a, b) -> SectorMap:
    """Reflection across the line through a and b (sign +1, involution)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    L = float(np.hypot(*d))
    if L < 1e-14:
        raise GeometryError("degenerate edge")
    F = _reflection(math.atan2(d[1], d[0]))
    return SectorMap(F=F, y=a - F @ a, sign=1, source_sector=-1, target_sector=-1)


# ---------------------------------------------------------------------------
# cut-off profiles (quintic C^2 transitions)


def _smoothstep(t):
    """Quintic step: 0 for t<=0, 1 for t>=1, C^2 at both knots."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (6.0 * t - 15.0))


@dataclass(frozen=True)
class CutoffProfile:
    """Radial (corner) or tensor (edge) C^2 bump.

    Value 1 inside r1, 0 outside r2, quintic in between.  Edge profiles decay
    the same way in the tangential coordinate at 0.5/0.9 of half_length.
    """

    kind: str  # "corner" | "edge"
    center: tuple[float, float]
    axis: tuple[float, float] = (0.0, 0.0)
    half_length: float = 0.0
    r1: float = 0.0
    r2: float = 1.0

    def __post_init__(self):
        if self.kind not in ("corner", "edge"):
            raise GeometryError(f"unknown cutoff kind {self.kind!r}")
        if not 0.0 < self.r1 < self.r2:
            raise GeometryError("cutoff radii must satisfy 0 < r1 < r2")


def corner_cutoff(center, patch_radius: float) -> CutoffProfile:
    """Radial profile: identically 1 up to 0.5*R, supported in 0.9*R."""
    return CutoffProfile(kind="corner", center=(float(center[0]), float(center[1])),
                         r1=0.5 * patch_radius, r2=0.9 * patch_radius)


def edge_cutoff(a, b, halfwidth: float) -> CutoffProfile:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    L = float(np.hypot(*d))
    if L < 1e-14:
        raise GeometryError("degenerate edge")
    mid = 0.5 * (a + b)
    return CutoffProfile(kind="edge", center=(mid[0], mid[1]),
                         axis=(d[0] / L, d[1] / L), half_length=0.5 * L,
                         r1=0.5 * halfwidth, r2=0.9 * halfwidth)


def cutoff_eval(profile: CutoffProfile, point):
    """Evaluate the bump at one point (2,) or many (N,2); values in [0,1]."""
    x = np.asarray(point, dtype=float)
    d = x - np.asarray(profile.center)
    if profile.kind == "corner":
        r = np.linalg.norm(d, axis=-1)
        return _smoothstep((profile.r2 - r) / (profile.r2 - profile.r1))
    ax = np.asarray(profile.axis)
    s = np.abs(d @ ax)
    n = np.abs(d @ np.array([-ax[1], ax[0]]))
    s1, s2 = 0.5 * profile.half_length, 0.9 * profile.half_length
    return (_smoothstep((profile.r2 - n) / (profile.r2 - profile.r1))
            * _smoothstep((s2 - s) / (s2 - s1)))


# ---------------------------------------------------------------------------
# domain specification


def _angle_fraction(theta: float) -> Fraction:
    q = Fraction(theta / TWO_PI).limit_denominator(192)
    if abs(float(q) * TWO_PI - theta) > 1e-9:
        raise GeometryError(
            f"corner angle {theta:.12g} is not a rational multiple of 2*pi "
            "(denominator <= 192, tolerance 1e-9)"
        )
    return q


def _segments_cross(p1, p2, p3, p4) -> bool:
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (v > 1e-14) - (v < -1e-14)

    o1, o2 = orient(p1, p2, p3), orient(p1, p2, p4)
    o3, o4 = orient(p3, p4, p1), orient(p3, p4, p2)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def _point_segment_distance(p, a, b) -> float:
    dx, dy = b[0] - a[0], b[1] - a[1]
    t = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / (dx * dx + dy * dy)
    t = min(1.0, max(0.0, t))
    return math.hypot(p[0] - a[0] - t * dx, p[1] - a[1] - t * dy)


@dataclass(frozen=True)
class DomainSpec:
    """Rectangle with a polygonal inclusion and interface-patch parameters.

    outer_rect = (lower-left, upper-right); interface_polygon lists the corners
    counterclockwise (enclosing the minus material).  patch_radius_corner is
    the circumradius R of the regular corner polygons.  patch_halfwidth_edge
    is derived, not given: it is the height of the edge strips, which the
    mesh builder anchors at the corner-patch chord midpoints, R*sin(beta)/2
    from their edge.  Where the corners' beta differ it is the smallest of
    these heights, so the edge cut-offs stay inside the strips that were
    meshed.

    Validation keeps the patches apart: corners more than 2R from each other,
    patch disks strictly inside the rectangle, and every corner more than
    R + half-width from each edge not incident to it.  The last rule also
    keeps non-adjacent edges more than 2 * half-width apart, since the
    distance of two disjoint segments is attained at an endpoint and
    2 * half-width <= R.
    """

    outer_rect: tuple[tuple[float, float], tuple[float, float]]
    interface_polygon: tuple[tuple[float, float], ...]
    patch_radius_corner: float
    patch_halfwidth_edge: float = field(init=False)
    patterns: tuple[CornerPattern, ...] = field(init=False)

    def __post_init__(self):
        (x0, y0), (x1, y1) = self.outer_rect
        if not (x1 > x0 and y1 > y0):
            raise GeometryError("outer rectangle has empty interior")
        poly = tuple((float(px), float(py)) for px, py in self.interface_polygon)
        object.__setattr__(self, "interface_polygon", poly)
        object.__setattr__(self, "outer_rect",
                           ((float(x0), float(y0)), (float(x1), float(y1))))
        n = len(poly)
        if n < 3:
            raise GeometryError("interface polygon needs at least 3 corners")

        area2 = sum(poly[i][0] * poly[(i + 1) % n][1] - poly[(i + 1) % n][0] * poly[i][1]
                    for i in range(n))
        if area2 <= 0:
            raise GeometryError("interface polygon must be counterclockwise")
        for i in range(n):
            a, b = poly[i], poly[(i + 1) % n]
            if math.hypot(b[0] - a[0], b[1] - a[1]) < 1e-14:
                raise GeometryError("interface polygon has a zero-length edge")
            for j in range(i + 1, n):
                if j in (i, (i + 1) % n) or (j + 1) % n == i:
                    continue
                if _segments_cross(a, b, poly[j], poly[(j + 1) % n]):
                    raise GeometryError("interface polygon is self-intersecting")

        R = float(self.patch_radius_corner)
        if R <= 0:
            raise GeometryError("patch_radius_corner must be positive")
        pats = []
        for i in range(n):
            c = poly[i]
            d_prev = np.array(poly[i - 1]) - np.array(c)
            d_next = np.array(poly[(i + 1) % n]) - np.array(c)
            a_prev = math.atan2(d_prev[1], d_prev[0])
            a_next = math.atan2(d_next[1], d_next[0])
            theta_int = (a_prev - a_next) % TWO_PI  # interior (minus) wedge
            q = 1 - _angle_fraction(theta_int)  # plus-cone aperture fraction
            if q == Fraction(1, 2):
                raise GeometryError(f"interface corner at {c} is flat (interior angle pi)")
            pats.append(corner_pattern(q, corner=c, frame_angle=a_prev))
            # patch disks must stay strictly inside the rectangle
            if min(c[0] - x0, x1 - c[0], c[1] - y0, y1 - c[1]) <= R:
                raise GeometryError(f"corner patch at {c} leaves the rectangle")
        for i in range(n):
            for j in range(i + 1, n):
                d = math.dist(poly[i], poly[j])
                if d <= 2.0 * R:
                    raise GeometryError(
                        f"corner patches at {poly[i]} and {poly[j]} overlap (2R >= {d:.6g})"
                    )
        object.__setattr__(self, "patterns", tuple(pats))
        hw = min(0.5 * R * math.sin(pat.beta) for pat in pats)
        object.__setattr__(self, "patch_halfwidth_edge", hw)
        # the patch disk of a corner (which bounds its patch polygon) against
        # the strip of an edge not incident to it
        for i in range(n):
            for j in range(n):
                if j in (i, (i - 1) % n):
                    continue
                a, b = poly[j], poly[(j + 1) % n]
                d = _point_segment_distance(poly[i], a, b)
                if d <= R + hw:
                    raise GeometryError(
                        f"corner patch at {poly[i]} overlaps the strip of edge {a}-{b} "
                        f"(R + half-width {R + hw:.6g} >= {d:.6g})"
                    )

    @property
    def edges(self) -> tuple[tuple[tuple[float, float], tuple[float, float]], ...]:
        poly = self.interface_polygon
        return tuple((poly[i], poly[(i + 1) % len(poly)]) for i in range(len(poly)))


def make_reference_domain(patch_radius: float = 0.3) -> DomainSpec:
    """The experiment domain: rectangle (-0.5,1.5)x(-0.5,1.3) around the
    equilateral triangle (0,0), (1,0), (cos pi/3, sin pi/3); every corner has
    plus-cone aperture 5*pi/3, i.e. pattern (5,1)."""
    tri = ((0.0, 0.0), (1.0, 0.0), (math.cos(math.pi / 3), math.sin(math.pi / 3)))
    return DomainSpec(outer_rect=((-0.5, -0.5), (1.5, 1.3)), interface_polygon=tri,
                      patch_radius_corner=patch_radius)
