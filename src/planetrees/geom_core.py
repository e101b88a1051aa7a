"""Points, predicates, the regular wheel configuration, and cyclic orders.

Coordinates are plain floats, and floats are exact dyadic rationals, so
orientation answers exactly: a static floating-point filter (Shewchuk,
"Adaptive Precision Floating-Point Arithmetic and Fast Robust Geometric
Predicates", DCG 1997) decides almost every call, and the rest (near-
collinear, underflowing, overflowing or non-finite input) go to an integer
evaluation via float.as_integer_ratio. There is no tolerance: COLLINEAR
means exactly collinear, and the callers that require general position
raise DegenerateInput instead of guessing.

A configuration tag is a claim, not a fact, and cyclic_order alone
decides it, once per PointSet with O(n) orientation calls: a wheel<n>
tag earns exact index arithmetic only when the coordinates confirm it
(make_wheel checks the points it computes the same way), and a set
without a wheel tag gets a cyclic order when a strict hull pass finds
every point on the hull. On such an order CyclicOrder.plane decides
whether an edge set is crossing-free in O(E log E); a set with no order
is left to the pairwise predicates. The order also settles
collinear_triple. Only this module knows the tag syntax and wheel labels.
"""
from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable

from .errors import DegenerateInput, InvalidParameter

Point = tuple[float, float]
GeomEdge = tuple[int, int]

# Shewchuk's ccwerrboundA, (3 + 16 eps) eps with eps = 2**-53: when
# |left - right| exceeds it times |left| + |right|, the float sign is the
# exact sign, unless a product underflowed; _UNDERFLOW (16 times the
# smallest subnormal) covers the absolute error of subnormal products.
_ERRBOUND = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53
_UNDERFLOW = 2.0 ** -1070

# PointSet.__dict__ key of the cached cyclic order (as halving's profile)
_ORDER_ATTR = "_cyclic_order"


@dataclass(frozen=True)
class PointSet:
    """Immutable indexed point set with a configuration tag.

    config_tag is "general", "convex", or "wheel<n>"; labels, when
    present, give one display name per point (the wheel constructor
    fills in v0..v_{2n-2} and x).
    """

    points: tuple[Point, ...]
    config_tag: str = "general"
    labels: tuple[str, ...] | None = None

    def __len__(self) -> int:
        return len(self.points)

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return f"v{i}"


class Orientation(enum.Enum):
    CCW = 1
    CW = -1
    COLLINEAR = 0


_CCW, _CW = Orientation.CCW, Orientation.CW


def edge(a: int, b: int) -> GeomEdge:
    """Normalized (small, large) index pair."""
    if a == b:
        raise InvalidParameter(f"degenerate edge ({a}, {b})")
    return (a, b) if a < b else (b, a)


def orientation(p: Point, q: Point, r: Point) -> Orientation:
    """Exact sign of the signed area of triangle pqr (CCW positive).

    Raises DegenerateInput on a non-finite coordinate.
    """
    px, py = p
    left = (q[0] - px) * (r[1] - py)
    right = (q[1] - py) * (r[0] - px)
    det = left - right
    # with any inf or nan about, det or bound is nan or inf and both
    # comparisons fail, so non-finite input always reaches _exact_orientation
    bound = _ERRBOUND * (abs(left) + abs(right)) + _UNDERFLOW
    if det > bound:
        return _CCW
    if det < -bound:
        return _CW
    return _exact_orientation(p, q, r)


def _exact_orientation(p: Point, q: Point, r: Point) -> Orientation:
    """orientation in integers: every float is n / 2**k, so scaling the six
    coordinates by their largest denominator makes them integers and keeps
    the sign."""
    coords = (*p, *q, *r)
    if not all(map(math.isfinite, coords)):
        raise DegenerateInput(f"non-finite coordinate in {(p, q, r)}")
    ratios = [c.as_integer_ratio() for c in coords]
    den = max(d for _, d in ratios)
    px, py, qx, qy, rx, ry = (n * (den // d) for n, d in ratios)
    det = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    return _CCW if det > 0 else _CW if det < 0 else Orientation.COLLINEAR


def segments_cross(e1: GeomEdge, e2: GeomEdge, ps: PointSet) -> bool:
    """True iff the open segments e1, e2 meet in an interior point.

    Edges sharing an endpoint never cross. Any collinear triple among
    the four endpoints makes the question ill-posed here and raises
    DegenerateInput.
    """
    a, b = e1
    c, d = e2
    for i in (a, b, c, d):
        if not 0 <= i < len(ps):
            raise InvalidParameter(f"point index {i} out of range")
    if a in (c, d) or b in (c, d):
        return False
    p, q, r, s = ps.points[a], ps.points[b], ps.points[c], ps.points[d]
    o1 = orientation(r, s, p)
    o2 = orientation(r, s, q)
    o3 = orientation(p, q, r)
    o4 = orientation(p, q, s)
    if Orientation.COLLINEAR in (o1, o2, o3, o4):
        raise DegenerateInput(
            f"three of the endpoints of {e1} and {e2} are collinear")
    return o1 != o2 and o3 != o4


def wheel_crossing(e1: GeomEdge, e2: GeomEdge, n: int) -> bool:
    """Exact crossing test on the wheel: 2n-1 circle points plus center.

    Index 2n-1 is the center. Two chords cross iff their endpoints
    interleave on the (2n-1)-cycle; a radial edge crosses a chord iff
    its circle endpoint lies strictly inside the chord's short arc
    (2n-1 is odd, so no chord passes through the center).
    """
    if n < 2:
        raise InvalidParameter(f"n must be >= 2, got {n}")
    m = 2 * n - 1
    center = 2 * n - 1
    for i in (*e1, *e2):
        if not 0 <= i <= center:
            raise InvalidParameter(f"index {i} invalid for a wheel on {2 * n} points")
    a, b = e1
    c, d = e2
    if a in (c, d) or b in (c, d):
        return False
    if center in e1 and center in e2:
        return False  # both radial, distinct spokes
    if center in e1 or center in e2:
        if center in e2:
            (a, b), (c, d) = (c, d), (a, b)
        spoke = a if b == center else b
        gap = (d - c) % m
        if gap < m - gap:
            return 0 < (spoke - c) % m < gap
        return 0 < (spoke - d) % m < m - gap
    inside_ab = 0 < (c - a) % m < (b - a) % m
    inside_ab_d = 0 < (d - a) % m < (b - a) % m
    return inside_ab != inside_ab_d


def make_wheel(n: int, radius: float = 1.0, seed_angle: float | None = None) -> PointSet:
    """Regular wheel: 2n-1 equally spaced circle points plus the center.

    The center always gets the last index 2n-1, so circle labels
    v_0..v_{2n-2} coincide with indices. seed_angle defaults to
    -pi/2 + pi/(2n-1), which roughly matches the usual drawn orientation.
    Raises InvalidParameter when the rounded points form no wheel.
    """
    if n < 2:
        raise InvalidParameter(f"n must be >= 2, got {n}")
    if not 0 < radius < math.inf:
        raise InvalidParameter(f"radius must be finite and positive, got {radius}")
    m = 2 * n - 1
    if seed_angle is None:
        seed_angle = -math.pi / 2 + math.pi / m
    pts = tuple(
        (radius * math.cos(seed_angle + 2 * math.pi * i / m),
         radius * math.sin(seed_angle + 2 * math.pi * i / m))
        for i in range(m)
    ) + ((0.0, 0.0),)
    if not _is_wheel(pts, n):
        raise InvalidParameter(f"radius {radius}, seed angle {seed_angle}: no wheel{n} in floats")
    ps = PointSet(points=pts, config_tag=f"wheel{n}", labels=wheel_labels(n))
    # checked above: storing the order spares cyclic_order the same check
    ps.__dict__[_ORDER_ATTR] = _wheel_order(n)
    return ps


def wheel_tag(tag: str) -> int | None:
    """The n of a wheel<n> tag (or CLI argument), else None."""
    m = re.fullmatch(r"wheel([0-9]+)", tag)
    return int(m.group(1)) if m else None


def wheel_labels(n: int) -> tuple[str, ...]:
    """Display names of a wheel's points: v0..v_{2n-2}, then the centre x."""
    return tuple(f"v{i}" for i in range(2 * n - 1)) + ("x",)


def wheel_n(ps: PointSet) -> int | None:
    """Wheel parameter n if ps carries a wheel tag of matching size, else None.

    Raises InvalidParameter on a wheel tag with n < 2, as make_wheel does."""
    n = wheel_tag(ps.config_tag)
    if n is not None and n < 2:
        raise InvalidParameter(f"config tag {ps.config_tag}: a wheel needs n >= 2")
    if n is not None and len(ps) != 2 * n:
        raise InvalidParameter(
            f"config tag {ps.config_tag} disagrees with point count {len(ps)}")
    return n


def collinear_triple(points: Iterable[Point] | PointSet) -> tuple[int, int, int] | None:
    """First collinear index triple (lexicographically), or None when in
    general position. A repeated point is collinear with any third point.

    A set with a cyclic order (a verified wheel, or strictly convex
    position) has no collinear triple: a PointSet takes its order's
    verdict, bare points cost one O(n log n) hull pass. Other sets are
    scanned triple by triple, O(n^3).
    """
    ps = points if isinstance(points, PointSet) else PointSet(tuple(points))
    return None if cyclic_order(ps) is not None else _scan_triples(ps.points)


def _scan_triples(pts: tuple[Point, ...]) -> tuple[int, int, int] | None:
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                if orientation(pts[i], pts[j], pts[k]) is Orientation.COLLINEAR:
                    return (i, j, k)
    return None


def convex_hull(ps: PointSet) -> list[int]:
    """Hull vertex indices, anticlockwise, starting at the lexicographic minimum.

    Requires at least 3 points in general position; a collinear triple
    anywhere in the set raises DegenerateInput (fail loudly rather than
    return a hull whose boundary classification is ambiguous).
    """
    if len(ps) < 3:
        raise InvalidParameter("convex hull needs at least 3 points")
    hull = _strict_hull(ps.points)
    bad = None if len(hull) == len(ps) else _scan_triples(ps.points)
    if bad is not None:
        raise DegenerateInput(f"collinear triple {bad}")
    return hull


def _strict_hull(points: tuple[Point, ...]) -> list[int]:
    """Monotone chain keeping only strict (CCW) turns: the vertices of the
    hull, anticlockwise from the lexicographic minimum. Points on a hull
    edge, or repeated, are left out."""
    order = sorted(range(len(points)), key=lambda i: points[i])

    def half(indices: list[int]) -> list[int]:
        out: list[int] = []
        for i in indices:
            while len(out) >= 2 and orientation(
                    points[out[-2]], points[out[-1]], points[i]) is not Orientation.CCW:
                out.pop()
            out.append(i)
        return out

    lower = half(order)
    upper = half(order[::-1])
    return lower[:-1] + upper[:-1]


@dataclass(frozen=True)
class CyclicOrder:
    """Positions of a PointSet's circle points around a strictly convex
    polygon, anticlockwise.

    On a verified wheel<n> set pos[i] == i for the 2n-1 circle points,
    the centre (index 2n-1) has pos -1, and wheel == n. On a set in
    convex position every point is on the circle and wheel is None.
    """

    pos: tuple[int, ...]
    size: int  # points on the circle
    wheel: int | None = None

    @property
    def kind(self) -> str:
        return "convex-order" if self.wheel is None else "wheel-index"

    def hull_edges(self, edges: Iterable[GeomEdge]) -> list[GeomEdge]:
        """The given edges whose ends are consecutive on the circle, in order."""
        pos, m, npts = self.pos, self.size, len(self.pos)
        steps = (1, m - 1)
        return [(a, b) for a, b in edges
                if 0 <= a < npts and 0 <= b < npts and pos[a] >= 0 and pos[b] >= 0
                and (pos[b] - pos[a]) % m in steps]

    def plane(self, edges: Iterable[GeomEdge]) -> bool:
        """True iff no two of the edges cross.

        Chords of a strictly convex polygon cross iff their position
        intervals interleave, so after sorting by (start, -end) a stack of
        open interval ends finds any pair that neither nests nor is
        disjoint. A spoke to circle point s (wheel only) crosses a chord
        iff s lies strictly inside the chord's short arc, the side away
        from the centre, and the same stack pass checks spokes too: a
        short chord lo..hi (2(hi - lo) < m) by a prefix count of spoke
        positions, a long one by the least and greatest spoke. Also False
        when an index is no point of the set or an edge is a loop, so
        that the caller's pairwise scan reports it.
        """
        pos, m = self.pos, self.size
        npts = len(pos)
        chords: list[tuple[int, int]] = []  # (start, -end)
        spokes: list[int] = []
        for a, b in edges:
            if not (0 <= a < npts and 0 <= b < npts) or a == b:
                return False
            pa, pb = pos[a], pos[b]
            if pa < 0 or pb < 0:
                spokes.append(max(pa, pb))
            else:
                chords.append((pa, -pb) if pa < pb else (pb, -pa))
        chords.sort()
        if spokes:
            mark = [0] * m
            for s in spokes:
                mark[s] = 1
            below = [0, *accumulate(mark)]  # below[i]: spoke positions < i
            least, most = min(spokes), max(spokes)
        ends: list[int] = []
        for lo, neg_hi in chords:
            hi = -neg_hi
            while ends and ends[-1] <= lo:
                ends.pop()
            if ends and ends[-1] < hi:
                return False
            ends.append(hi)
            if spokes and (below[hi] > below[lo + 1] if 2 * (hi - lo) < m
                           else least < lo or most > hi):
                return False
        return True


def cyclic_order(ps: PointSet) -> CyclicOrder | None:
    """The verified cyclic order of ps, built on first use and kept on ps.

    A wheel<n> tag yields a "wheel-index" order only when the coordinates
    confirm it (make_wheel checks its points and stores their order); a
    set without a wheel tag yields a "convex-order" order when every
    point is a strict hull vertex. Otherwise (a wheel tag the
    coordinates refute included) None. Raises InvalidParameter when a
    wheel tag disagrees with the point count.
    """
    if _ORDER_ATTR not in ps.__dict__:
        ps.__dict__[_ORDER_ATTR] = _build_order(ps)
    return ps.__dict__[_ORDER_ATTR]


def _wheel_order(n: int) -> CyclicOrder:
    m = 2 * n - 1
    return CyclicOrder(tuple(range(m)) + (-1,), m, n)


def _build_order(ps: PointSet) -> CyclicOrder | None:
    n = wheel_n(ps)
    if n is not None:
        return _wheel_order(n) if _is_wheel(ps.points, n) else None
    if len(ps) < 3:
        return None
    hull = _strict_hull(ps.points)
    if len(hull) != len(ps):
        return None
    pos = [0] * len(ps)
    for k, i in enumerate(hull):
        pos[i] = k
    return CyclicOrder(tuple(pos), len(ps))


def _is_wheel(points: tuple[Point, ...], n: int) -> bool:
    """The 2n-1 circle points are a strictly convex polygon wound once
    anticlockwise in index order, and the centre (last point) lies
    strictly on the long side of every chord.

    Every turn v_i v_{i+1} v_{i+2} and every fan triangle v_0 v_i v_{i+1}
    anticlockwise make the polygon strictly convex and wound once. The
    centre strictly left of every boundary edge and every near-diameter
    v_i v_{i+n-1} suffices for all chords: each chord's short side lies
    inside some near-diameter's short side.
    """
    m = 2 * n - 1
    circle, centre = points[:m], points[m]
    ccw = Orientation.CCW

    def left(p: Point, q: Point, r: Point) -> bool:
        return orientation(p, q, r) is ccw

    return (all(left(circle[i], circle[(i + 1) % m], circle[(i + 2) % m])
                for i in range(m))
            and all(left(circle[0], circle[i], circle[i + 1]) for i in range(1, m - 1))
            and all(left(circle[i], circle[(i + 1) % m], centre)
                    and left(circle[i], circle[(i + n - 1) % m], centre)
                    for i in range(m)))
