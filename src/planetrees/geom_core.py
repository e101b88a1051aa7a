"""Points, predicates, and the regular wheel configuration.

Coordinates are plain floats. The orientation predicate classifies a
near-zero determinant as collinear (tolerance scaled by the squared
coordinate magnitude) and the callers that require general position
raise DegenerateInput instead of guessing. Combinatorial questions on
wheel configurations are answered by wheel_crossing with exact integer
index arithmetic, so the numeric predicate is only needed for general
point sets and for cross-validation.
"""
from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from typing import Iterable

from .errors import DegenerateInput, InvalidParameter

Point = tuple[float, float]
GeomEdge = tuple[int, int]

ORIENTATION_TOL = 1e-9

_WHEEL_TAG = re.compile(r"^wheel([0-9]+)$")


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


def edge(a: int, b: int) -> GeomEdge:
    """Normalized (small, large) index pair."""
    if a == b:
        raise InvalidParameter(f"degenerate edge ({a}, {b})")
    return (a, b) if a < b else (b, a)


def orientation(p: Point, q: Point, r: Point) -> Orientation:
    """Sign of the signed area of triangle pqr (CCW positive)."""
    for pt in (p, q, r):
        if not (math.isfinite(pt[0]) and math.isfinite(pt[1])):
            raise DegenerateInput(f"non-finite coordinate in {pt}")
    det = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    scale = max(abs(q[0] - p[0]), abs(q[1] - p[1]),
                abs(r[0] - p[0]), abs(r[1] - p[1]), 1.0)
    if abs(det) < ORIENTATION_TOL * scale * scale:
        return Orientation.COLLINEAR
    return Orientation.CCW if det > 0 else Orientation.CW


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
    """
    if n < 2:
        raise InvalidParameter(f"n must be >= 2, got {n}")
    if not radius > 0:
        raise InvalidParameter(f"radius must be positive, got {radius}")
    m = 2 * n - 1
    if seed_angle is None:
        seed_angle = -math.pi / 2 + math.pi / m
    pts = tuple(
        (radius * math.cos(seed_angle + 2 * math.pi * i / m),
         radius * math.sin(seed_angle + 2 * math.pi * i / m))
        for i in range(m)
    ) + ((0.0, 0.0),)
    labels = tuple(f"v{i}" for i in range(m)) + ("x",)
    return PointSet(points=pts, config_tag=f"wheel{n}", labels=labels)


def wheel_n(ps: PointSet) -> int | None:
    """Wheel parameter n if ps carries a wheel tag of matching size, else None."""
    m = _WHEEL_TAG.match(ps.config_tag)
    if not m:
        return None
    n = int(m.group(1))
    if len(ps) != 2 * n:
        raise InvalidParameter(
            f"config tag {ps.config_tag} disagrees with point count {len(ps)}")
    return n


def collinear_triple(points: Iterable[Point]) -> tuple[int, int, int] | None:
    """First collinear index triple, or None when in general position."""
    pts = list(points)
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
    bad = collinear_triple(ps.points)
    if bad is not None:
        raise DegenerateInput(f"collinear triple {bad}")
    order = sorted(range(len(ps)), key=lambda i: ps.points[i])

    def half(indices: list[int]) -> list[int]:
        out: list[int] = []
        for i in indices:
            while len(out) >= 2 and orientation(
                    ps.points[out[-2]], ps.points[out[-1]], ps.points[i]) is not Orientation.CCW:
                out.pop()
            out.append(i)
        return out

    lower = half(order)
    upper = half(order[::-1])
    return lower[:-1] + upper[:-1]
