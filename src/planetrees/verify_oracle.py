"""Independent checking: report-style partition verification and a
brute-force enumerator small enough to trust by inspection.

verify_partition never raises on mathematically wrong input; it returns
a report naming the first failed check (coverage, then spanning, then
plane) with a concrete witness, and which planarity predicate ran:
"wheel-index" on a verified wheel, "convex-order" on a set in convex
position (both through the point set's cyclic order), or "pairwise"
coordinate tests. The enumerator assigns edges of K_2n to
tree slots in lexicographic order with first-free-slot symmetry
breaking, so each unordered partition appears exactly once.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .errors import OddPointCount, TooLarge
from .geom_core import PointSet, cyclic_order, segments_cross, wheel_crossing
from .tree_taxonomy import GeomTree, crossing_pair, is_spanning_tree
from .wheel_partition import Partition, observation1_violation, observation1_splits


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    reason: str | None = None
    witness: object = None
    predicate: str | None = None  # None: the planarity check was not reached

    def __bool__(self) -> bool:
        return self.ok


def verify_partition(p: Partition) -> VerifyReport:
    """Coverage, spanning, planarity; first failure wins."""
    npts = len(p.ps)
    if npts % 2:
        return VerifyReport(False, "coverage", f"odd point count {npts}")
    n = npts // 2
    want = sorted(combinations(range(npts), 2))
    got = sorted(e for t in p.trees for e in t.edges)
    if len(p.trees) != n or got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        dupes = sorted(e for e, c in Counter(got).items() if c > 1)
        return VerifyReport(False, "coverage",
                            {"trees": len(p.trees), "missing": missing,
                             "extra": extra, "duplicated": dupes})
    for i, t in enumerate(p.trees):
        if not is_spanning_tree(t):
            return VerifyReport(False, "spanning", i)
    order = cyclic_order(p.ps)
    predicate = "pairwise" if order is None else order.kind
    for i, t in enumerate(p.trees):
        bad = crossing_pair(p.ps, t.edges)
        if bad is not None:
            return VerifyReport(False, "plane", (i, *bad), predicate)
    return VerifyReport(True, predicate=predicate)


def check_observation1(t: GeomTree) -> VerifyReport:
    """Small-side bounds for every non-radial edge of a wheel tree."""
    viol = observation1_violation(t)
    if viol is not None:
        return VerifyReport(False, "observation1", viol)
    return VerifyReport(True, witness=observation1_splits(t))


def brute_force_partitions(ps: PointSet, limit: int | None = 10_000) -> list[tuple[tuple, ...]]:
    """All partitions of E(K_2n) into n plane spanning trees, canonicalized.

    Exhaustive for n <= 3; n == 4 demands an explicit cap because the
    search space is already enormous; larger n is refused outright.
    Each partition is a sorted tuple of trees, each tree a sorted tuple
    of normalized edges.
    """
    npts = len(ps)
    if npts % 2:
        raise OddPointCount(f"need an even number of points, got {npts}")
    n = npts // 2
    if n >= 5:
        raise TooLarge(f"n={n}: enumeration is not tractable beyond n=4")
    if n == 4 and limit is None:
        raise TooLarge("n=4 enumeration requires an explicit limit")

    edges = sorted(combinations(range(npts), 2))
    order = cyclic_order(ps)
    wheel = order.wheel if order is not None else None
    cross = [[False] * len(edges) for _ in edges]
    for i, e1 in enumerate(edges):
        for j in range(i + 1, len(edges)):
            e2 = edges[j]
            c = (wheel_crossing(e1, e2, wheel) if wheel is not None
                 else segments_cross(e1, e2, ps))
            cross[i][j] = cross[j][i] = c

    per_tree = npts - 1
    slots: list[list[int]] = [[] for _ in range(n)]
    counts = [0] * n
    parents = [list(range(npts)) for _ in range(n)]
    results: list[tuple[tuple, ...]] = []

    def find(par, x):
        while par[x] != x:
            x = par[x]
        return x

    def assign(ei: int, slot: int) -> int | None:
        a, b = edges[ei]
        par = parents[slot]
        ra, rb = find(par, a), find(par, b)
        if ra == rb:
            return None
        if any(cross[ei][other] for other in slots[slot]):
            return None
        par[ra] = rb
        slots[slot].append(ei)
        counts[slot] += 1
        return ra

    def undo(ei: int, slot: int, root: int) -> None:
        parents[slot][root] = root
        slots[slot].pop()
        counts[slot] -= 1

    def backtrack(ei: int) -> bool:
        if limit is not None and len(results) >= limit:
            return True
        if ei == len(edges):
            results.append(tuple(sorted(
                tuple(sorted(edges[i] for i in slot)) for slot in slots)))
            return limit is not None and len(results) >= limit
        opened = n - counts.count(0)
        tryable = min(opened + 1, n)
        for slot in range(tryable):
            if counts[slot] == per_tree:
                continue
            root = assign(ei, slot)
            if root is None:
                continue
            if backtrack(ei + 1):
                return True
            undo(ei, slot, root)
        return False

    backtrack(0)
    return results
