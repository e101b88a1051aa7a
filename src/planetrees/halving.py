"""k-halving lines, h-labelings, and w-labelings.

A line through two points of a 2m-point set is k-halving when it splits
the remaining 2m-2 points into sizes m-1-k and m-1+k (0-halving lines
are called halving lines). The k of every pair comes from one
HalvingProfile per PointSet, cached on it and shared by the labelings,
the hypothesis checks and the constructions; its path says how it was
built. On a verified cyclic order (geom_core.cyclic_order: a regular
wheel, or convex position) a pair's k depends only on how far apart its
points are round the circle, and every circle point sees the same
distances: k(i, j) is one lookup, and incidence, k_halving_lines, the
theorem 3 and 4 checks and both labelings read O(N) entries (and sort
at most O(N)), with no orientation call and no N^2 array. Any other set
goes through the k-edge sweep (Edelsbrunner, Algorithms in Combinatorial
Geometry, 1987): about each point, sort the others by angle and rotate
a directed line through it, O(n^2 log n) in all; h_labeling then sorts
the m halving lines by direction, and the hypothesis checks sort each
point's row once, O(n^2 log n) at any r. balance() counts one pair by
brute force and is the oracle both paths are tested against.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
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
    _check_pair(len(ps), i, j)
    left, right = _side_split(ps, i, j)
    return abs(len(left) - len(right)) // 2


def _check_pair(npts: int, i: int, j: int) -> None:
    if not (0 <= i < npts and 0 <= j < npts) or i == j:
        raise InvalidParameter(f"({i}, {j}) is not a pair of distinct points in 0..{npts - 1}")


def _check_k(npts: int, k: int) -> None:
    if not 0 <= k <= npts // 2 - 1:
        raise InvalidParameter(f"k must be in 0..{npts // 2 - 1}, got {k}")


@dataclass(frozen=True)
class HalvingProfile:
    """The k of every point pair of one PointSet.

    k(i, j) is the k of the line through points i and j, as
    balance(ps, min(i, j), max(i, j)) counts it. On path "sweep",
    swept[i * npts + j] == swept[j * npts + i] holds it, with -1 on the
    diagonal. On path "wheel-index" or "convex-order" the profile keeps
    the verified order and by_gap (by_gap[g] == by_gap[-g]: the k of a
    chord g positions round the circle; by_gap[0] == -1), reads every
    answer off them in O(N), and holds no N^2 array. Build it with
    halving_profile, which caches it.
    """

    npts: int
    path: str
    order: CyclicOrder | None = None
    by_gap: tuple[int, ...] = ()
    swept: array | None = None

    def k(self, i: int, j: int) -> int:
        _check_pair(self.npts, i, j)
        if self.order is None:
            return self.swept[i * self.npts + j]
        pa, pb = self.order.pos[i], self.order.pos[j]
        # a spoke, one end the wheel's centre (position -1), has k = 0
        return 0 if pa < 0 or pb < 0 else self.by_gap[pb - pa]

    def incidence(self, k: int) -> list[int]:
        """Number of k-halving lines through each point."""
        _check_k(self.npts, k)
        rows, row_of = self._rows()
        counts = [row.count(k) for row in rows]
        return [counts[r] for r in row_of]

    def _rows(self) -> tuple[Iterable[Sequence[int]], Sequence[int]]:
        """The distinct rows of k's as multisets, and the index of each
        point's row among them. On the sweep, each point's slice of swept.
        On a cyclic order, two rows: each circle point sees every gap
        once, plus on a wheel a spoke of k 0 (npts - size is 1 there, 0
        on a convex order); a wheel's centre sees only spokes."""
        n = self.npts
        if self.order is None:
            ks = self.swept
            return (ks[row:row + n] for row in range(0, n * n, n)), range(n)
        size = self.order.size
        circle = self.by_gap[1:] + (0,) * (n - size)
        return (circle, (0,) * size), [int(p < 0) for p in self.order.pos]


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
    """The profile of ps: its cyclic order and by_gap when it has an
    order, else swept by _angular_sweep.

    On a strictly convex polygon the sides of a chord whose ends are d
    apart the short way round hold d - 1 and N - d - 1 of the N points,
    so k = |N - 2d| // 2, the floor balance takes, for odd N too. A
    verified wheel puts its centre strictly on the long side of every
    chord, which keeps the formula, and strictly between v_{i+n-1} and
    v_{i+n} as seen from v_i, so every spoke splits the rest n - 1 /
    n - 1 and has k = 0.
    """
    order = cyclic_order(ps)
    npts = len(ps)
    if order is None:
        return HalvingProfile(npts, "sweep", swept=_angular_sweep(ps))
    size = order.size
    by_gap = tuple(abs(npts - 2 * min(g, size - g)) // 2 if g else -1 for g in range(size))
    return HalvingProfile(npts, order.kind, order, by_gap)


def _angular_sweep(ps: PointSet) -> array:
    """HalvingProfile.swept: per pivot, sort the others by angle, then rotate
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
               pivot_index: int) -> list[int]:
    """Anticlockwise about pivot, point pivot_index of ps, starting at
    minimal angle from the +x axis.

    Angles in [0, pi) come before [pi, 2pi); within one half-plane the
    order is orientation's. Two points on one ray from the pivot raise
    DegenerateInput.
    """
    pts = ps.points

    def cmp(a: int, b: int) -> int:
        o = orientation(pivot, pts[a], pts[b])
        if o is Orientation.COLLINEAR:
            raise _collinear(pivot_index, a, b)
        return -o.value

    upper: list[int] = []
    lower: list[int] = []
    for t in indices:
        (upper if _upper(pts[t], pivot) else lower).append(t)
    return sorted(upper, key=cmp_to_key(cmp)) + sorted(lower, key=cmp_to_key(cmp))


def _upper(p: Point, pivot: Point) -> bool:
    """p is at an angle in [0, pi) about pivot."""
    return p[1] > pivot[1] or (p[1] == pivot[1] and p[0] > pivot[0])


def k_halving_lines(ps: PointSet, k: int) -> list[HalvingLine]:
    """All k-halving lines, lexicographic by (i, j)."""
    npts = len(ps)
    if npts % 2:
        raise OddPointCount(f"{npts} points; halving lines need an even count")
    _check_k(npts, k)
    profile = halving_profile(ps)
    co = profile.order
    if co is None:
        ks = profile.swept
        # row i's entries right of the diagonal are the pairs (i, j), j > i
        return [HalvingLine(i, j, k) for i in range(npts)
                for j, kj in enumerate(ks[i * npts + i + 1:(i + 1) * npts], i + 1) if kj == k]
    # each point's partners are the points the gaps with this k away; every
    # chord comes up from both ends, kept from its lower index
    at = co.circle
    pairs = [(a, b) for g in range(1, co.size) if profile.by_gap[g] == k
             for a, b in zip(at, at[g:] + at[:g]) if a < b]
    if k == 0 and co.wheel is not None:
        pairs += [(a, npts - 1) for a in at]  # the spokes; the centre is the last point
    return [HalvingLine(i, j, k) for i, j in sorted(pairs)]


def h_labeling(ps: PointSet) -> HLabeling:
    """Labeling v_0..v_{2m-1} with halving lines exactly {v_i v_{i+m}}.

    Exists when the set has precisely m halving lines with every point on
    exactly one of them. The count decides both: a line turned half a
    round about any point meets a halving line through it, and m lines
    have just 2m ends. Each line is directed to its angle in [0, pi) and
    the m lines are sorted by that angle; the labels are the sorted start
    points, then their partners, begun at the first point at an angle in
    [0, pi) about the centroid that follows one that is not. On a convex
    order this reads the circle in O(N): each point's partner is its
    antipode, m positions round, and the line directions turn
    anticlockwise with the position, so the sorted lines are the circle
    order from the first position whose line is directed to [0, pi).

    Any two halving segments then cross. Were c and d on one side of ab,
    c nearer the line ab, a line through c turned half a round from cd
    would meet no other halving line of c, so its side away from d would
    never hold more than m - 1 points; yet parallel to ab that side holds
    a, b and the m - 1 points beyond ab. So line j ends left of line i
    exactly when its direction is anticlockwise of i's, one exact
    orientation test, and lines i+1..i+m-1 each start right of line i and
    end left of it: each side of h_i is a contiguous label range.
    """
    npts = len(ps)
    if npts % 2:
        raise OddPointCount(f"{npts} points; h-labeling needs an even count")
    if not npts:
        raise NoHLabeling("an empty set has no halving lines")
    m = npts // 2
    profile = halving_profile(ps)
    lines = sum(profile.incidence(0)) // 2
    if lines != m:
        raise NoHLabeling(f"expected {m} halving lines, found {lines}")
    pts = ps.points
    if profile.order is not None:
        # a convex order: a wheel has 2m - 1 halving lines
        at = profile.order.circle
        upward = [_upper(pts[at[p - m]], pts[at[p]]) for p in range(npts)]
        first = next(p for p in range(npts) if upward[p] and not upward[p - 1])
        ring = at[first:] + at[:first]
    else:
        ks = profile.swept
        # every point is on exactly one halving line: its row's one 0
        partner = [ks[row:row + npts].index(0) for row in range(0, npts * npts, npts)]
        starts = [a for a, b in enumerate(partner) if _upper(pts[b], pts[a])]
        starts.sort(key=cmp_to_key(
            lambda a, b: -orientation(pts[a], pts[partner[a]], pts[partner[b]]).value))
        ring = starts + [partner[a] for a in starts]
    centroid = (sum(p[0] for p in pts) / npts, sum(p[1] for p in pts) / npts)
    up = [_upper(pts[v], centroid) for v in ring]
    s = next((i for i in range(npts) if up[i] and not up[i - 1]), 0)
    order = ring[s:] + ring[:s]
    pairs = tuple((order[i], order[i + m]) for i in range(m))
    return HLabeling(pairs=pairs, relabeling=tuple(order))


def _dominant_point(incidence: list[int]) -> int:
    """The first point on all npts - 1 halving lines of an even set, from
    incidence(0): the w of w_labeling and of check_theorem4_hypothesis.
    NoWLabeling when the set has not exactly npts - 1 halving lines or no
    such point."""
    npts = len(incidence)
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
    if not npts:
        raise NoWLabeling("an empty set has no halving lines")
    profile = halving_profile(ps)
    w = _dominant_point(profile.incidence(0))
    co = profile.order
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


def _incidence_scan(profile: HalvingProfile, r: int) -> tuple[list[int], list[bool]]:
    """Per point, its number of halving lines and whether its k's in 1..r
    are 1, 1, 2, 2, ..., r, r: one sort of each distinct row of k's, then
    bisect and one list equality. O(N^2 log N) on the sweep, where
    incidence(k) for each k would read every row r + 1 times, O(r N^2);
    O(N log N) on a cyclic order, whose points share two rows."""
    two_each = [k for k in range(1, r + 1) for _ in (0, 1)]
    rows, row_of = profile._rows()
    scans = []
    for row in rows:
        got = sorted(row)
        lo, hi = bisect_left(got, 0), bisect_left(got, 1)
        scans.append((hi - lo, got[hi:bisect_right(got, r, hi)] == two_each))
    return [scans[i][0] for i in row_of], [scans[i][1] for i in row_of]


def _first_miss(profile: HalvingProfile, r: int, want: list[int],
                want0: list[int] | None = None) -> HypothesisReport:
    """The report of a failed check, walked k by k (from 0 with want0):
    the first k at which some point i is off want0[i] or want[i], and i."""
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
    profile = halving_profile(ps)
    on_halving, paired = _incidence_scan(profile, r)
    if all(paired) and on_halving == [1] * npts:
        return HypothesisReport(ok=True)
    return _first_miss(profile, r, [2] * npts, want0=[1] * npts)


def check_theorem4_hypothesis(ps: PointSet, r: int) -> HypothesisReport:
    """A w on all 2n-1 halving lines; every other point on exactly two
    k-halving lines for k = 1..r. Those lines miss w: every line through
    it is halving, so w lies on no k-halving line for k >= 1."""
    npts = _hypothesis_args(ps, r)
    profile = halving_profile(ps)
    on_halving, paired = _incidence_scan(profile, r)
    try:
        w = _dominant_point(on_halving)
    except NoWLabeling as exc:
        return HypothesisReport(ok=False, witness=None, reason=str(exc))
    if all(p or i == w for i, p in enumerate(paired)):
        return HypothesisReport(ok=True)
    return _first_miss(profile, r, [0 if i == w else 2 for i in range(npts)])
