"""Independent checking: report-style partition verification, the
Observation 1 side bounds, and a brute-force enumerator small enough to
trust by inspection.

The verifier imports no builder: Partition, cover_defect and the tree
checks come from tree_taxonomy, the predicates from geom_core.
verify_partition never raises on mathematically wrong input; it returns
a report naming the first failed check (coverage, then spanning, then
plane) with a concrete witness, and keeps it on the frozen Partition, so
each Partition is verified once. The report says which planarity
predicate ran: "wheel-index" on a verified wheel, "convex-order" on a
set in convex position (both the stack pass of the point set's cyclic
order, CyclicOrder.plane_tree, which takes each tree's sorted edges as
they are once the cover is accepted and says in one read whether the
tree is plane and spans), or "pairwise" coordinate tests. On an order
the verifier accepts when the pass accepts every tree; from the first
tree it rejects on, is_spanning_tree and then the crossing_pair scan
name the failure, so spanning is still reported before plane. Without
an order they are the checks themselves. A GeomTree holds only pairs of
point indices, so the checks judge only the mathematics.
The enumerator, exhaustive up to n = 4, fills its crossing table (one
int bitmask per edge) straight from segments_cross, so the ground truth
shares no code with the stack pass it checks, and places the edges of
K_2n in lexicographic order into tree slots held as edge bitmasks, with
first-free-slot symmetry breaking, so each unordered partition appears
exactly once. Observation 1 holds only on a verified wheel.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InvalidParameter, OddPointCount, TooLarge
from .geom_core import GeomEdge, PointSet, cyclic_order, segments_cross, wheel_tag_n
from .tree_taxonomy import (GeomTree, Partition, cover_defect, crossing_pair,
                            is_spanning_tree)


# Partition.__dict__ key of the kept VerifyReport (as geom_core's cyclic order)
_REPORT_ATTR = "_verify_report"


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    reason: str | None = None
    witness: object = None
    predicate: str | None = None  # None: the planarity check was not reached

    def __bool__(self) -> bool:
        return self.ok


def verify_partition(p: Partition) -> VerifyReport:
    """Coverage, spanning, planarity; first failure wins.

    The report is built on the first call and kept on p (every input to
    it is immutable), so later calls return that same object. Only this
    function writes it: no builder or parser hands in a verdict.
    """
    if _REPORT_ATTR not in p.__dict__:
        p.__dict__[_REPORT_ATTR] = _verify(p)
    return p.__dict__[_REPORT_ATTR]


def _verify(p: Partition) -> VerifyReport:
    npts, trees = len(p.ps), p.trees
    if npts % 2:
        return VerifyReport(False, "coverage", f"odd point count {npts}")
    defect = cover_defect(p.ps, trees)
    if len(trees) == npts // 2 and not any(defect.values()):
        return _verify_trees(p)
    return VerifyReport(False, "coverage", {"trees": len(trees), **defect})


def _verify_trees(p: Partition) -> VerifyReport:
    """Spanning, then plane, on trees that cover E(K) once. On an order
    the pass accepts trees until it rejects one; only from that tree on do
    is_spanning_tree and crossing_pair name the failure."""
    trees, order, start = p.trees, cyclic_order(p.ps), 0
    if order is not None:
        start = next((i for i, t in enumerate(trees) if not order.plane_tree(t.edges)[1]),
                     len(trees))
        if start == len(trees):
            return VerifyReport(True, predicate=order.kind)
    for i in range(start, len(trees)):
        if not is_spanning_tree(trees[i]):
            return VerifyReport(False, "spanning", i)
    predicate = "pairwise" if order is None else order.kind
    for i in range(start, len(trees)):
        bad = crossing_pair(p.ps, trees[i].edges)  # on an order, only to name the pair
        if bad is not None:
            return VerifyReport(False, "plane", (i, *bad), predicate)
    return VerifyReport(True, predicate=predicate)


def observation1_splits(t: GeomTree) -> list[tuple[GeomEdge, tuple[int, ...], tuple[int, ...]]]:
    """(edge, A, A(x)) for every non-radial edge; A is the small side."""
    m = 2 * wheel_tag_n(t.ps) - 1  # also the centre's index
    return [_split(a, b, m) for a, b in t.edges if m not in (a, b)]


def _split(a: int, b: int, m: int) -> tuple[GeomEdge, tuple[int, ...], tuple[int, ...]]:
    ccw = tuple((a + i) % m for i in range(1, (b - a) % m))
    cw = tuple((b + i) % m for i in range(1, (a - b) % m))
    small, big = sorted((ccw, cw), key=len)
    return ((a, b), small, big + (m,))


def check_observation1(t: GeomTree) -> VerifyReport:
    """Observation 1 for every non-radial edge of a wheel tree, with all
    the splits as the witness; NotWheelConfig on a refuted tag.

    It always holds: a GeomTree's ends lie below 2n, so a chord joins two
    of the 2n - 1 circle points and leaves ccw + cw = 2n - 3 of them on
    its two sides. The small side has at most n - 2, and the big one,
    with the centre, at least n.
    """
    return VerifyReport(True, witness=observation1_splits(t))


def brute_force_partitions(ps: PointSet, limit: int | None = 10_000) -> list[tuple[tuple, ...]]:
    """All partitions of E(K_2n) into n plane spanning trees, canonicalized.

    Exhaustive for n <= 4; larger n raises TooLarge, with or without a
    limit. Each partition is a sorted tuple of trees, each tree a sorted
    tuple of normalized edges; at most `limit` are returned, in search order.

    A tree slot is the bitmask of the edges it holds. It takes the next
    edge, in lexicographic order, when that edge's crossing row misses the
    mask and the slot's union-find finds no cycle. An acyclic slot on 2n
    points holds at most 2n - 1 edges, so once all n(2n - 1) edges are
    placed every slot is a spanning tree. One prune, from the definition
    of a spanning tree alone: once (a, 2n - 1), the last edge at a, is
    placed, every slot must hold an edge at a, for no later edge touches a.
    """
    if limit is not None and limit < 0:
        raise InvalidParameter(f"limit must be None or >= 0, got {limit}")
    npts = len(ps)
    if npts % 2:
        raise OddPointCount(f"need an even number of points, got {npts}")
    n = npts // 2
    if n >= 5:
        raise TooLarge(f"n={n}: enumeration is not tractable beyond n=4")

    edges = list(combinations(range(npts), 2))
    # cross[i]: the earlier edges that cross edge i; star[a]: the edges at a
    cross = [sum(1 << j for j, f in enumerate(edges[:i]) if segments_cross(f, e, ps))
             for i, e in enumerate(edges)]
    star = [sum(1 << i for i, e in enumerate(edges) if a in e) for a in range(npts)]
    masks = [0] * n
    parents = [list(range(npts)) for _ in range(n)]
    results: list[tuple[tuple, ...]] = []

    def find(par: list[int], x: int) -> int:
        while par[x] != x:
            x = par[x]
        return x

    def place(ei: int) -> bool:
        """Place edges ei, ei + 1, ...; True once `limit` results are in."""
        if limit is not None and len(results) >= limit:
            return True
        if ei == len(edges):
            results.append(tuple(sorted(
                tuple(e for i, e in enumerate(edges) if m >> i & 1) for m in masks)))
            return limit is not None and len(results) >= limit
        a, b = edges[ei]
        # first-free-slot symmetry breaking: each unordered partition once
        for slot in range(min(n - masks.count(0) + 1, n)):
            if masks[slot] & cross[ei]:
                continue
            par = parents[slot]
            ra, rb = find(par, a), find(par, b)
            if ra == rb:
                continue
            par[ra] = rb
            masks[slot] |= 1 << ei
            if (b < npts - 1 or all(m & star[a] for m in masks)) and place(ei + 1):
                return True
            par[ra] = ra
            masks[slot] ^= 1 << ei
        return False

    place(0)
    return results
