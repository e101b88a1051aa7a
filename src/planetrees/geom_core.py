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
decides it, once per PointSet. It first walks the points in their listed
order, one orientation call per point: a list that turns left at every
point and winds once is a strictly convex polygon, anticlockwise, and is
its own order. A wheel<n> tag needs no hull: it earns exact index
arithmetic when the 2n-1 circle points pass the walk in index order and
the centre lies strictly left of every near-diameter (make_wheel's own
points earn their tag the same way), and a failed walk refutes it. A set
without a wheel tag that the walk rejects gets one strict-hull pass
(Andrew's monotone chain, O(n log n)), and a cyclic order when the hull
holds every point. On such an order one stack pass,
CyclicOrder.plane_tree, reads a tree's sorted point pairs once and says
whether they are crossing-free, in O(E log E), and whether they are
also a spanning tree, by a union-find in the same pass; it is the only
planarity kernel here, and a set with no order is left to the pairwise
predicate segments_cross. The order also settles collinear_triple. Only this
module knows the tag syntax (wheel_tag) and wheel labels, and wheel_tag_n,
the order's verdict, is the one way to read a wheel's n that index
arithmetic may trust.
"""
from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import DegenerateInput, InvalidParameter, NotWheelConfig

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
    DegenerateInput. A loop (a, a) is no edge and raises InvalidParameter,
    as edge() does; it shares its point with the other edge or makes a
    collinear triple, so only those two paths test for one.
    """
    a, b = e1
    c, d = e2
    for i in (a, b, c, d):
        if not 0 <= i < len(ps):
            raise InvalidParameter(f"point index {i} out of range")
    if a in (c, d) or b in (c, d):
        if a == b or c == d:
            raise InvalidParameter(f"degenerate edge {(a, b) if a == b else (c, d)}")
        return False
    p, q, r, s = ps.points[a], ps.points[b], ps.points[c], ps.points[d]
    o1 = orientation(r, s, p)
    o2 = orientation(r, s, q)
    o3 = orientation(p, q, r)
    o4 = orientation(p, q, s)
    if Orientation.COLLINEAR in (o1, o2, o3, o4):
        if a == b or c == d:
            raise InvalidParameter(f"degenerate edge {(a, b) if a == b else (c, d)}")
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
    The points earn their tag as any wheel<n> set does, through
    cyclic_order's walk of the circle in index order, O(n), with no hull;
    InvalidParameter when the rounded points form no wheel.
    """
    if n < 2:
        raise InvalidParameter(f"n must be >= 2, got {n}")
    if not 0 < radius < math.inf:
        raise InvalidParameter(f"radius must be finite and positive, got {radius}")
    m = 2 * n - 1
    if seed_angle is None:
        seed_angle = -math.pi / 2 + math.pi / m
    if not math.isfinite(seed_angle):
        raise InvalidParameter(f"seed angle must be finite, got {seed_angle}")
    pts = tuple(
        (radius * math.cos(seed_angle + 2 * math.pi * i / m),
         radius * math.sin(seed_angle + 2 * math.pi * i / m))
        for i in range(m)
    ) + ((0.0, 0.0),)
    ps = PointSet(points=pts, config_tag=f"wheel{n}", labels=wheel_labels(n))
    if cyclic_order(ps) is None:
        raise InvalidParameter(f"radius {radius}, seed angle {seed_angle}: no wheel{n} in floats")
    return ps


def wheel_tag(tag: str) -> int | None:
    """The n of a wheel<n> tag (or CLI argument), else None."""
    m = re.fullmatch(r"wheel([0-9]+)", tag)
    return int(m.group(1)) if m else None


def wheel_labels(n: int) -> tuple[str, ...]:
    """Display names of a wheel's points: v0..v_{2n-2}, then the centre x."""
    return tuple(f"v{i}" for i in range(2 * n - 1)) + ("x",)


def collinear_triple(points: Iterable[Point] | PointSet) -> tuple[int, int, int] | None:
    """First collinear index triple (lexicographically), or None when in
    general position. A repeated point is collinear with any third point.

    A set with a cyclic order (a verified wheel, or strictly convex
    position) has no collinear triple: a PointSet takes its order's
    verdict, and bare points cost cyclic_order's walk of their listed
    order, O(n), plus one O(n log n) hull pass when the walk rejects them.
    Other sets are scanned triple by triple, O(n^3).
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

    A set with a cyclic order reads it: the circle, turned to start at
    its lexicographic minimum. Other sets run the strict hull. Requires
    at least 3 points in general position; a collinear triple anywhere in
    the set raises DegenerateInput (fail loudly rather than return a hull
    whose boundary classification is ambiguous).
    """
    if len(ps) < 3:
        raise InvalidParameter("convex hull needs at least 3 points")
    order = cyclic_order(ps)
    if order is not None:
        at = order.circle
        k = at.index(min(at, key=ps.points.__getitem__))
        return [*at[k:], *at[:k]]
    hull = _strict_hull(ps.points)
    bad = None if len(hull) == len(ps) else collinear_triple(ps)
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

    Built only by cyclic_order: from the walk of the listed order when
    the points pass it, which decides every wheel<n> tag, else from one
    strict-hull pass. On a verified wheel<n> set pos[i] == i for the 2n-1
    circle points, the centre (index 2n-1) has pos -1, and wheel == n. On
    a set in convex position every point is on the circle and wheel is
    None.
    """

    pos: tuple[int, ...]
    size: int  # points on the circle
    wheel: int | None = None

    @property
    def kind(self) -> str:
        return "convex-order" if self.wheel is None else "wheel-index"

    def hull_edges(self, edges: Iterable[GeomEdge]) -> list[GeomEdge]:
        """The given edges whose ends are consecutive on the circle, in order:
        one lookup each in _hull_pairs."""
        pairs = self._hull_pairs
        return [e for e in edges if e in pairs]

    @cached_property
    def circle(self) -> tuple[int, ...]:
        """The point at each circle position; built on first use and kept
        on the order, as the order is kept on its PointSet."""
        at = [0] * self.size
        for i, k in enumerate(self.pos):
            if k >= 0:
                at[k] = i
        return tuple(at)

    @cached_property
    def _hull_pairs(self) -> frozenset[GeomEdge]:
        """Every pair of point indices consecutive on the circle, both ways
        round."""
        at = self.circle
        steps = list(zip(at, at[1:] + at[:1]))
        return frozenset(steps + [(b, a) for a, b in steps])

    @cached_property
    def turned(self) -> bool:
        """True when the circle is the index order turned, s, s + 1, ...,
        size - 1, 0, ..., s - 1: every wheel-index order (the centre is then
        index size), and a convex set listed round its hull."""
        at = self.circle
        return at == (*range(at[0], self.size), *range(at[0]))

    def plane_tree(self, edges: Sequence[GeomEdge]) -> tuple[bool, bool]:
        """(plane, tree) for sorted point pairs a < b of indices 0..N-1:
        plane says that no two of the edges cross, tree that they are also
        a spanning tree of the N points. A GeomTree's edges are such
        pairs, as the tree checks where it is built; other input is
        outside the contract. The one stack pass of every planarity
        check on an order, reading each edge once; a crossing stops it at
        (False, False).

        Chords of a strictly convex polygon cross iff their intervals
        interleave, and interleaving does not change under a turn, so on a
        turned order the indices serve as positions (others map through
        pos). Sorted by start, then by end descending, a stack of open
        interval ends finds any pair that neither nests nor is disjoint;
        the stack's top is kept in a local, over the sentinel end m, which
        no chord reaches or starts past. A spoke (wheel only: a pair
        (s, m), m the centre) crosses a chord iff s lies strictly inside
        the chord's short arc, the side away from the centre: inside a
        short chord lo..hi (2(hi - lo) < m), outside a long one. Spoke s
        comes before every chord that starts at s or later, and after all
        that start before it, so the pass keeps three positions: the least
        spoke so far, which crosses a long chord that starts past it; the
        greatest end of a short chord so far, which a later spoke crosses
        when it lies before that end; and the least end of a long chord so
        far, which a later spoke crosses when it lies past that end.
        The same pass joins each edge's ends, spokes included, in a
        path-halving union-find: N - 1 edges that close no cycle span the
        N points.
        """
        m = self.size
        if not self.turned:  # a convex set: no centre
            pos = self.pos
            edges = sorted((pa, pb) if pa < pb else (pb, pa)
                           for pa, pb in ((pos[a], pos[b]) for a, b in edges))
        chords = sorted(reversed(edges), key=itemgetter(0))
        wheel, half = self.wheel, (m + 1) // 2  # a chord is short iff hi - lo < half
        parent = [*range(len(self.pos))]
        acyclic, top, ends = True, m, []  # ends: the open ends below top
        spoke, reach, close = m, 0, m  # least spoke, short end, long end so far
        for lo, hi in chords:
            if hi == m:  # a spoke
                if reach > lo or close < lo:
                    return False, False
                if lo < spoke:
                    spoke = lo
            else:
                while top <= lo:
                    top = ends.pop()
                if top < hi:
                    return False, False
                ends.append(top)
                top = hi
                if wheel:
                    if hi - lo < half:
                        if hi > reach:
                            reach = hi
                    elif spoke < lo:
                        return False, False
                    elif hi < close:
                        close = hi
            while lo != parent[lo]:  # path halving, on the chord's own ends
                parent[lo] = lo = parent[parent[lo]]
            while hi != parent[hi]:
                parent[hi] = hi = parent[parent[hi]]
            if lo == hi:
                acyclic = False
            parent[lo] = hi
        return True, acyclic and len(edges) == len(parent) - 1


def cyclic_order(ps: PointSet) -> CyclicOrder | None:
    """The verified cyclic order of ps, built on first use and kept on ps.

    A walk of the points in their listed order (_listed_start), one
    orientation call per point, comes first. A wheel<n> tag yields a
    "wheel-index" order only when the 2n-1 circle points pass the walk,
    a strictly convex polygon anticlockwise in index order, and the centre
    lies strictly left of every near-diameter v_i -> v_{i+n-1}: O(n), no
    hull. A set without a wheel tag yields a "convex-order" order when its
    points pass the walk, pos[i] = (i - s) mod N for s the lexicographic
    minimum, or else when one strict-hull pass, O(n log n), finds every
    point a strict hull vertex. Otherwise (a wheel tag the coordinates
    refute included) None. Raises InvalidParameter when a wheel tag names
    n < 2 or disagrees with the point count.
    """
    if _ORDER_ATTR not in ps.__dict__:
        ps.__dict__[_ORDER_ATTR] = _build_order(ps)
    return ps.__dict__[_ORDER_ATTR]


def wheel_tag_n(ps: PointSet) -> int:
    """The n of ps's wheel<n> tag once its cyclic order confirms it;
    NotWheelConfig without a tag or on one the coordinates refute. The one
    accessor of the wheel parameter that wheel index arithmetic may trust."""
    order = cyclic_order(ps)
    if order is None or order.wheel is None:
        claim = "not a wheel" if wheel_tag(ps.config_tag) is None else "refuted by the coordinates"
        raise NotWheelConfig(f"config tag {ps.config_tag!r} is {claim}")
    return order.wheel


def _build_order(ps: PointSet) -> CyclicOrder | None:
    n = wheel_tag(ps.config_tag)
    if n is not None:
        if n < 2:  # as make_wheel refuses it
            raise InvalidParameter(f"config tag {ps.config_tag}: a wheel needs n >= 2")
        if len(ps) != 2 * n:
            raise InvalidParameter(
                f"config tag {ps.config_tag} disagrees with point count {len(ps)}")
        # a circle that is a convex polygon in index order, with the centre
        # strictly left of every near-diameter v_i -> v_{i+n-1}: the centre is
        # then strictly inside, for the two near-diameters through the ends of
        # an edge v_j v_{j+1} cross inside the polygon, and the wedge left of
        # both lies strictly left of that edge
        m = 2 * n - 1
        circle, centre = ps.points[:m], ps.points[m]
        if _listed_start(circle) is not None and all(
                orientation(circle[i], circle[(i + n - 1) % m], centre) is _CCW
                for i in range(m)):
            return CyclicOrder(tuple(range(m)) + (-1,), m, n)
        return None
    if len(ps) < 3:
        return None
    count, s = len(ps), _listed_start(ps.points)
    if s is not None:  # pos[i] = (i - s) mod count
        return CyclicOrder((*range(count - s, count), *range(count - s)), count)
    hull = _strict_hull(ps.points)
    if len(hull) != count:
        return None
    pos = [0] * count
    for k, i in enumerate(hull):
        pos[i] = k
    return CyclicOrder(tuple(pos), count)


def _listed_start(points: Sequence[Point]) -> int | None:
    """The index of the lexicographic minimum when the points, in their
    listed order, are the vertices of a strictly convex polygon wound once
    anticlockwise, else None: one walk of len(points) >= 3 orientation
    calls, stopped at the first turn that is not a left turn.

    Every turn a left turn makes the directions of the edges p_i -> p_{i+1}
    turn anticlockwise by less than pi at each vertex, 2 pi k in all, for k
    windings. An edge is ascending when p_{i+1} > p_i as (x, y) tuples, a
    half-open half-plane of directions, so no turn steps over it or over its
    complement, and the walk enters it exactly k times: at the vertices
    below both neighbours. With k = 1 the polygon is strictly convex, and
    that one vertex is its lexicographic minimum.
    """
    start, a, b = None, points[-2], points[-1]
    for i, c in enumerate(points):
        if orientation(a, b, c) is not _CCW:
            return None
        if a > b < c:
            if start is not None:
                return None
            start = i - 1 if i else len(points) - 1
        a, b = b, c
    return start
