"""k-halving lines, h-labelings, and w-labelings.

A line through two points of a 2m-point set is k-halving when it splits
the remaining 2m-2 points into sizes m-1-k and m-1+k (0-halving lines
are called halving lines). The k of every pair comes from one
HalvingProfile per PointSet. On a set with a verified cyclic order
(geom_core.cyclic_order: a regular wheel, or a set in convex position)
every k is circle arithmetic, O(n^2) with no orientation call. Any other
set goes through the k-edge sweep (Edelsbrunner, Algorithms in
Combinatorial Geometry, 1987): about each point, sort the others by
angle and rotate a directed line through it, O(n^2 log n) in all. The
profile is cached on the PointSet, so the labelings, the hypothesis
checks and the constructions share one profile; HalvingProfile.path
says which way it was built. The same order spares the labelings their
orientation calls on wheels and convex sets. balance() counts one pair
by brute force and is the oracle both paths are tested against.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cmp_to_key

from .errors import (DegenerateInput, InvalidParameter, NoHLabeling,
                     NoWLabeling, OddPointCount)
from .geom_core import (CyclicOrder, Orientation, Point, PointSet, cyclic_order,
                        orientation)

# PointSet.__dict__ key of the cached HalvingProfile (as functools.cached_property does)
_PROFILE_ATTR = "_halving_profile"


@dataclass(frozen=True)
class HalvingLine:
    i: int
    j: int
    k: int


@dataclass(frozen=True)
class HLabeling:
    """relabeling[new] = original index of v_new; pairs in original indices."""

    pairs: tuple[tuple[int, int], ...]
    relabeling: tuple[int, ...]


@dataclass(frozen=True)
class WLabeling:
    """w in original indices; order[new] = original index of v_new over P-{w}."""

    w: int
    order: tuple[int, ...]


@dataclass(frozen=True)
class HypothesisReport:
    ok: bool
    witness: tuple[int, int] | None = None  # (point index, k)
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _side_split(ps: PointSet, i: int, j: int) -> tuple[list[int], list[int]]:
    """Indices strictly left / strictly right of the directed line i -> j."""
    left: list[int] = []
    right: list[int] = []
    p, q = ps.points[i], ps.points[j]
    for t in range(len(ps)):
        if t in (i, j):
            continue
        o = orientation(p, q, ps.points[t])
        if o is Orientation.COLLINEAR:
            raise DegenerateInput(f"point {t} lies on the line through {i}, {j}")
        (left if o is Orientation.CCW else right).append(t)
    return left, right


def balance(ps: PointSet, i: int, j: int) -> int:
    """The k for which the line through i, j is k-halving."""
    left, right = _side_split(ps, i, j)
    return abs(len(left) - len(right)) // 2


@dataclass(frozen=True)
class HalvingProfile:
    """The k of every point pair of one PointSet.

    ks[i * npts + j] == ks[j * npts + i] is the k of the line through
    points i and j, as balance(ps, min(i, j), max(i, j)) counts it; the
    diagonal holds -1. path is "wheel-index" or "convex-order" when the
    ks were read off the set's cyclic order, "sweep" when they were swept.
    Build it with halving_profile, which caches it.
    """

    npts: int
    ks: array
    path: str

    def k(self, i: int, j: int) -> int:
        return self.ks[i * self.npts + j]

    def incidence(self, k: int) -> list[int]:
        """Number of k-halving lines through each point."""
        n, ks = self.npts, self.ks
        return [ks[row:row + n].count(k) for row in range(0, n * n, n)]


def halving_profile(ps: PointSet) -> HalvingProfile:
    """The HalvingProfile of ps, built on first use and kept on ps itself.

    Raises DegenerateInput, naming a collinear triple, when some point
    lies on the line through two others.
    """
    profile = ps.__dict__.get(_PROFILE_ATTR)
    if profile is None:
        profile = _sweep(ps)
        ps.__dict__[_PROFILE_ATTR] = profile
    return profile


def _sweep(ps: PointSet) -> HalvingProfile:
    """The profile of ps: read off its cyclic order when it has one, else
    swept by _angular_sweep.

    On a strictly convex polygon the sides of a chord whose ends are d
    apart the short way round hold d - 1 and N - d - 1 of the N points,
    so k = |N - 2d| // 2, the floor balance takes, for odd N too. A
    verified wheel puts its centre strictly on the long side of every
    chord, which keeps the formula, and strictly between v_{i+n-1} and
    v_{i+n} as seen from v_i, so every spoke splits the rest n - 1 /
    n - 1 and has k = 0.
    """
    order = cyclic_order(ps)
    if order is None:
        return HalvingProfile(len(ps), _angular_sweep(ps), "sweep")
    return HalvingProfile(len(ps), _order_ks(order), order.kind)


def _order_ks(order: CyclicOrder) -> array:
    """HalvingProfile.ks from circle positions (a wheel's centre has pos -1)."""
    pos, size = order.pos, order.size
    npts = len(pos)
    # by_gap[g] == by_gap[-g]: the k of a chord g positions round the circle
    by_gap = [abs(npts - 2 * min(g, size - g)) // 2 for g in range(size)]
    by_gap[0] = -1
    ks = array("i")
    for pa in pos:
        if pa < 0:
            ks.extend([-1 if pb < 0 else 0 for pb in pos])
        else:
            ks.extend([0 if pb < 0 else by_gap[pb - pa] for pb in pos])
    return ks


def _angular_sweep(ps: PointSet) -> array:
    """HalvingProfile.ks: per pivot, sort the others by angle, then rotate
    a directed line through the pivot over them.

    For the direction at ring position a, ring[a+1 .. e-1] are the points
    strictly left of the line; e only moves forward, so a pivot costs
    O(n log n) for the sort and O(n) for the scan. The point at e is the
    first not strictly left: if it is on the line, the triple is
    degenerate. A point on the ray of the direction point itself is
    caught by the sort instead.
    """
    pts = ps.points
    npts = len(pts)
    ks = array("i", [-1]) * (npts * npts)
    off_line = npts - 2
    for i, p in enumerate(pts):
        ring = _ccw_order(ps, p, [j for j in range(npts) if j != i], pivot_index=i)
        size = len(ring)
        ring2 = ring + ring
        e = 1
        for a, j in enumerate(ring):
            e = max(e, a + 1)
            q = pts[j]
            while e < a + size:
                o = orientation(p, q, pts[ring2[e]])
                if o is not Orientation.CCW:
                    if o is Orientation.COLLINEAR:
                        raise _collinear(i, j, ring2[e])
                    break
                e += 1
            if j > i:
                ks[i * npts + j] = ks[j * npts + i] = abs(2 * (e - a - 1) - off_line) // 2
    return ks


def _collinear(i: int, j: int, t: int) -> DegenerateInput:
    return DegenerateInput(
        f"collinear triple ({i}, {j}, {t}): point {t} lies on the line through {i}, {j}")


def _ccw_order(ps: PointSet, pivot: Point, indices: list[int],
               pivot_index: int | None = None) -> list[int]:
    """Anticlockwise about pivot, starting at minimal angle from the +x axis.

    Angles in [0, pi) come before [pi, 2pi); within one half-plane the
    order is orientation's. When pivot is point pivot_index of ps, two
    points on one ray from it raise DegenerateInput. Any other pivot
    (the centroid) is no point of the set, and a pair collinear with it
    is no degeneracy: rounding can put both points of an antipodal pair
    in one half-plane, so such a pair is ordered by x, nearer the half's
    starting ray (+x, then -x) first.
    """
    pts = ps.points

    def by_angle(upper: bool):
        def cmp(a: int, b: int) -> int:
            o = orientation(pivot, pts[a], pts[b])
            if o is not Orientation.COLLINEAR:
                return -o.value
            if pivot_index is not None:
                raise _collinear(pivot_index, a, b)
            dx = pts[b][0] - pts[a][0]
            return (dx > 0) - (dx < 0) if upper else (dx < 0) - (dx > 0)
        return cmp_to_key(cmp)

    upper: list[int] = []
    lower: list[int] = []
    for t in indices:
        (upper if _upper(pts[t], pivot) else lower).append(t)
    return sorted(upper, key=by_angle(True)) + sorted(lower, key=by_angle(False))


def _upper(p: Point, pivot: Point) -> bool:
    """p is at an angle in [0, pi) about pivot."""
    return p[1] > pivot[1] or (p[1] == pivot[1] and p[0] > pivot[0])


def k_halving_lines(ps: PointSet, k: int) -> list[HalvingLine]:
    """All k-halving lines, lexicographic by (i, j)."""
    npts = len(ps)
    if npts % 2:
        raise OddPointCount(f"{npts} points; halving lines need an even count")
    m = npts // 2
    if not 0 <= k <= m - 1:
        raise InvalidParameter(f"k must be in 0..{m - 1}, got {k}")
    profile = halving_profile(ps)
    return [HalvingLine(i, j, k) for i in range(npts) for j in range(i + 1, npts)
            if profile.k(i, j) == k]


def h_labeling(ps: PointSet) -> HLabeling:
    """Labeling v_0..v_{2m-1} with halving lines exactly {v_i v_{i+m}}.

    Exists when the set has precisely m halving lines with every point on
    exactly one of them. The returned labeling additionally certifies that
    each side of h_i is the contiguous label range the constructions use.
    """
    npts = len(ps)
    if npts % 2:
        raise OddPointCount(f"{npts} points; h-labeling needs an even count")
    if not npts:
        raise NoHLabeling("an empty set has no halving lines")
    m = npts // 2
    profile = halving_profile(ps)
    incidence = profile.incidence(0)
    lines = sum(incidence) // 2
    if lines != m:
        raise NoHLabeling(f"expected {m} halving lines, found {lines}")
    bad = [i for i, c in enumerate(incidence) if c != 1]
    if bad:
        raise NoHLabeling(f"point {bad[0]} lies on {incidence[bad[0]]} halving lines")
    cx = sum(p[0] for p in ps.points) / npts
    cy = sum(p[1] for p in ps.points) / npts
    order = _ccw_order(ps, (cx, cy), list(range(npts)))
    pos = {orig: new for new, orig in enumerate(order)}
    for i in range(m):
        if profile.k(order[i], order[i + m]) != 0:
            raise NoHLabeling(
                f"halving lines do not pair angular antipodes (v{i} vs v{i + m})")
    # each side of h_i must be exactly one contiguous label range; on a
    # convex order that is so when the labels walk the circle
    if not _walks_circle(cyclic_order(ps), order):
        for i in range(m):
            left, right = _side_split(ps, order[i], order[i + m])
            want_one = {(i + 1 + t) % npts for t in range(m - 1)}
            got_one = {pos[x] for x in left}
            if got_one != want_one:
                got_one = {pos[x] for x in right}
            if got_one != want_one:
                raise NoHLabeling(
                    f"side of h_{i} is not the label range v{i + 1}..v{i + m - 1}")
    pairs = tuple((order[i], order[i + m]) for i in range(m))
    return HLabeling(pairs=pairs, relabeling=tuple(order))


def _walks_circle(co: CyclicOrder | None, ring: list[int]) -> bool:
    """ring steps one position anticlockwise at a time round a convex
    order: then the sides of each chord ring[i] ring[j] are the label
    ranges i+1..j-1 and j+1..i-1."""
    if co is None or co.wheel is not None:
        return False
    pos, size = co.pos, co.size
    return all((pos[b] - pos[a]) % size == 1 for a, b in zip(ring, ring[1:] + ring[:1]))


def _dominant_point(ps: PointSet) -> int:
    """The first point on all npts - 1 halving lines of an even set: the
    w of w_labeling and of check_theorem4_hypothesis. NoWLabeling when
    the set has not exactly npts - 1 halving lines or no such point."""
    npts = len(ps)
    if not npts:
        raise NoWLabeling("an empty set has no halving lines")
    incidence = halving_profile(ps).incidence(0)
    lines = sum(incidence) // 2
    if lines != npts - 1:
        raise NoWLabeling(f"expected {npts - 1} halving lines, found {lines}")
    candidates = [i for i, c in enumerate(incidence) if c == npts - 1]
    if not candidates:
        raise NoWLabeling("no point is incident to all halving lines")
    return candidates[0]


def w_labeling(ps: PointSet) -> WLabeling:
    """Point w on all halving lines, others ordered anticlockwise about it."""
    npts = len(ps)
    if npts % 2:
        raise OddPointCount(f"{npts} points; w-labeling needs an even count")
    w = _dominant_point(ps)
    co = cyclic_order(ps)
    if co is not None and co.wheel is not None:
        # w is the centre, about which the circle order is the angular one:
        # _ccw_order's ring is the circle rotated to its first point at an
        # angle in [0, pi)
        up = [_upper(p, ps.points[w]) for p in ps.points[:w]]
        start = next(i for i in range(w) if up[i] and not up[i - 1])
        return WLabeling(w=w, order=tuple(range(start, w)) + tuple(range(start)))
    order = _ccw_order(ps, ps.points[w], [i for i in range(npts) if i != w], pivot_index=w)
    return WLabeling(w=w, order=tuple(order))


def _hypothesis_args(ps: PointSet, r: int) -> int:
    """The point count, once it is even and 1 <= r <= n - 1."""
    npts = len(ps)
    if npts % 2:
        raise OddPointCount(f"{npts} points")
    if not 1 <= r <= npts // 2 - 1:
        raise InvalidParameter(f"r must be in 1..{npts // 2 - 1}, got {r}")
    return npts


def _incidence_scan(ps: PointSet, r: int, want: list[int],
                    want0: list[int] | None = None) -> HypothesisReport:
    """Each point i on want[i] k-halving lines for k = 1..r, and with
    want0 on want0[i] halving lines first; witness is the first (point, k)
    off its count. Whole lists are compared; only a mismatch is walked."""
    profile = halving_profile(ps)
    for k in range(1 if want0 is None else 0, r + 1):
        wanted = want0 if k == 0 else want
        counts = profile.incidence(k)
        if counts != wanted:
            i = next(i for i, (c, w) in enumerate(zip(counts, wanted)) if c != w)
            return HypothesisReport(
                ok=False, witness=(i, k),
                reason=f"point {i} on {counts[i]} {k}-halving lines, want {wanted[i]}")
    return HypothesisReport(ok=True)


def check_theorem3_hypothesis(ps: PointSet, r: int) -> HypothesisReport:
    """Each point on exactly one halving line and exactly two k-halving
    lines for every k = 1..r; witness is the first violating (point, k)."""
    npts = _hypothesis_args(ps, r)
    return _incidence_scan(ps, r, [2] * npts, want0=[1] * npts)


def check_theorem4_hypothesis(ps: PointSet, r: int) -> HypothesisReport:
    """A w on all 2n-1 halving lines; every other point on exactly two
    k-halving lines for k = 1..r. Those lines miss w: every line through
    it is halving, so w lies on no k-halving line for k >= 1."""
    npts = _hypothesis_args(ps, r)
    try:
        w = _dominant_point(ps)
    except NoWLabeling as exc:
        return HypothesisReport(ok=False, witness=None, reason=str(exc))
    want = [2] * npts
    want[w] = 0
    return _incidence_scan(ps, r, want)
