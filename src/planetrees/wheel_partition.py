"""Wheel partitions: build n plane spanning trees from a w-caterpillar,
and analyze arbitrary claimed partitions against the structural lemmas.

The builder places the designated 4-path u1u2u3u4 as x, v_1, v_{n+1}, v_2
(indices mod 2n-1), lays the component A of u3 on the arc that runs from
v_{n+1} down (Type 1) or up (Type 2), copies it onto the opposite arc
shifted by n-1 steps to realize B, rotates the resulting tree n-2 times,
and takes the complement as the final tree. A is laid by _place_slots,
the one graceful placement, which place_caterpillar_on_chain also uses
(anchor "last" reads its chain reversed): it gives A's edges pairwise
distinct arc gaps, which is exactly what makes the rotated copies
edge-disjoint; tree_taxonomy's partition_from_labels verifies
that, not assumes it, and names any edge two copies share. The builder
checks Theorem 1's claims on the complement's shape (caterpillar, one
boundary edge, n consecutive radials); verify_partition decides that
every tree is plane and spanning.

analyze_wheel_partition is no builder: it takes any claimed partition,
has verify_partition decide that it is one, then checks Lemmas 3-5 on
it. Partition (from tree_taxonomy) is re-exported here.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .errors import (InvalidParameter, NotAPartition, NotWCaterpillar,
                     NotWheelConfig, SizeMismatch, StructureViolation)
from .geom_core import GeomEdge, PointSet, edge, make_wheel, wheel_n
from .tree_taxonomy import (GeomTree, Partition, TreeIndex, TreeLike,
                            as_edges, boundary_edges, classify,
                            is_caterpillar_edges, partition_from_labels,
                            preferred_p4_witness, radial_edges, rotate_labels,
                            spine_walk, tree_canon, wheel_tag_n)
from .verify_oracle import verify_partition


class TreeStats(NamedTuple):
    boundary_count: int
    radial_count: int
    four_path: tuple[int, int, int, int] | None


@dataclass(frozen=True)
class WheelAnalysis:
    one_boundary_tree: int
    radial_run: tuple[GeomEdge, ...]
    per_tree: tuple[TreeStats, ...]


# ---------------------------------------------------------------------------
# caterpillar placement

def _place_slots(adj, head) -> dict[int, int]:
    """Greedy graceful placement on slots 0..N-1 with head at slot 0.

    Walk the spine from head; put each spine vertex's legs as a contiguous
    fan (outermost first) and then the next spine vertex innermost, at the
    high and low ends of the free slots alternately. Edge slot-distances
    come out pairwise distinct ({1..N-1}), so arc gaps are distinct after
    embedding.
    """
    seq = spine_walk(adj, head)
    if seq is None:
        raise InvalidParameter(f"vertex {head} does not start a spine walk")
    free = deque(range(1, len(adj)))
    take = (free.pop, free.popleft)  # the high end first
    pos = {head: 0}
    for j, s in enumerate(seq):
        nxt = seq[j + 1:j + 2]
        for v in sorted(v for v in adj[s] if v not in pos and v not in nxt) + nxt:
            pos[v] = take[j % 2]()
    if len(pos) != len(adj):
        raise InvalidParameter("placement did not cover the tree")
    return pos


def place_caterpillar_on_chain(c: TreeLike, ps: PointSet, chain: list[int],
                               anchor: str = "first",
                               head: int | None = None) -> GeomTree:
    """Plane drawing of caterpillar c on the convex chain of point indices.

    anchor picks which chain end receives the spine head. The drawing is
    graceful (edge chain-distances are exactly {1..N-1}); consequently it
    has exactly one chain-consecutive edge and, together with the always
    present end-to-end edge, exactly two boundary edges on the closed
    convex polygon of the chain.
    """
    edges = as_edges(c)
    adj = TreeIndex(edges).adj
    if len(chain) != len(adj):
        raise SizeMismatch(f"chain has {len(chain)} slots, tree has {len(adj)} vertices")
    if len(set(chain)) != len(chain) or not all(0 <= i < len(ps) for i in chain):
        raise InvalidParameter("chain must be distinct valid point indices")
    if anchor not in ("first", "last"):
        raise InvalidParameter(f"anchor must be 'first' or 'last', got {anchor!r}")
    if not is_caterpillar_edges(edges):
        raise InvalidParameter("input is not a caterpillar")
    if head is None:
        head = next(v for v in sorted(adj) if spine_walk(adj, v) is not None)
    if anchor == "last":
        chain = chain[::-1]
    pos = _place_slots(adj, head)
    return GeomTree(ps, tuple((chain[pos[a]], chain[pos[b]]) for a, b in edges))


# ---------------------------------------------------------------------------
# Theorem 1 converse

# the wheel of the last build: its points are immutable and all that is
# kept on them (cyclic order, halving profile) is derived from them
_wheel = lru_cache(maxsize=1)(make_wheel)


def rotate_tree(t: GeomTree, steps: int) -> GeomTree:
    """Rotate every circle index by steps (mod 2n-1); the center stays put."""
    return GeomTree(t.ps, tuple(rotate_labels(t.edges, steps, 2 * wheel_tag_n(t.ps) - 1)))


def build_wheel_partition(t: TreeLike, n: int,
                          four_path: tuple[int, int, int, int] | None = None) -> Partition:
    """Partition E(K_2n) on the wheel into n-1 copies of t plus a complement.

    t must be a w-caterpillar on 2n vertices. four_path optionally
    designates which P4-symmetry witness to place; it must be a witness
    compatible with the caterpillar clause. Output trees are T_1..T_n
    with T_i = T_1 rotated by i-1 and T_n the complement.
    """
    if n < 2:
        raise InvalidParameter(f"n must be >= 2, got {n}")
    index = TreeIndex(as_edges(t))
    if index.n != 2 * n:
        raise SizeMismatch(f"tree has {index.n} vertices, wheel needs {2 * n}")
    witness = preferred_p4_witness(index, four_path)
    if witness is None or not index.compatible(witness.path):
        if four_path is not None:
            raise NotWCaterpillar(
                f"designated 4-path {four_path} is not a compatible witness")
        raise NotWCaterpillar("input admits no w-caterpillar witness")
    u3 = witness.path[2]
    typ = witness.type or 1  # 4-vertex path: Type-1 geometry

    m = 2 * n - 1  # also the centre's index
    comp_a = set(witness.iso_witness)  # the component A of u3
    a_adj = {v: index.adj[v] & comp_a for v in comp_a}
    # A on the arc from v_{n+1} (u3) down to v_3 (Type 1) or up to v_0
    # (Type 2); B = A turned n-1 steps the other way
    d = -1 if typ == 1 else 1
    chain = [(n + 1 + d * i) % m for i in range(n - 1)]
    pos = _place_slots(a_adj, u3)
    a_edges = [(chain[pos[a]], chain[pos[b]]) for a in comp_a for b in a_adj[a] if a < b]
    first = [(m, 1), (1, (n + 1) % m), (2, (n + 1) % m)]
    first += a_edges + rotate_labels(a_edges, -d * (n - 1), m)
    # sorted once, so each rotated copy comes to GeomTree in a few sorted runs
    first = sorted(edge(a, b) for a, b in first)

    family = [rotate_labels(first, q, m) for q in range(n - 1)]
    used = {e for tr in family for e in tr}  # rotation leaves some pairs b < a
    rest = [(a, b) for a, b in combinations(range(2 * n), 2)
            if (a, b) not in used and (b, a) not in used]
    # rotated copies that overlap fail the cover check, which names the
    # shared edge; verify_partition decides spanning and planarity
    p = partition_from_labels(_wheel(n), family + [rest], "theorem1")
    last = p.trees[-1]
    radials = [e[0] for e in radial_edges(last)]
    if not (is_caterpillar_edges(last.edges) and len(boundary_edges(last)) == 1
            and len(radials) == n and _has_run(radials, m, n)):
        raise StructureViolation("theorem1-complement", last.edges)
    return p


def _has_run(labels: list[int], m: int, want: int) -> bool:
    """labels include want cyclically consecutive values mod m."""
    s = set(labels)
    return any(all((start + i) % m in s for i in range(want)) for start in s)


# ---------------------------------------------------------------------------
# analysis of claimed partitions

def _lemma5_four_path(edges: set[GeomEdge], i: int, n: int) -> tuple[int, int, int, int] | None:
    m = 2 * n - 1  # also the centre's index
    straight = (m, i, (i + n) % m, (i + 1) % m)
    mirrored = (m, i, (i + n - 1) % m, (i - 1) % m)
    for cand in (straight, mirrored):
        path_edges = {edge(cand[0], cand[1]), edge(cand[1], cand[2]), edge(cand[2], cand[3])}
        if path_edges <= edges:
            return cand
    return None


def analyze_wheel_partition(p: Partition) -> WheelAnalysis:
    """Validate p, then report and assert the Lemma 3-5 structure.

    Exactly one tree has a single boundary edge and its n radial edges
    form a consecutive run; every other tree has exactly two boundary
    edges, one radial edge, and a 4-path x v_i v_{i+n} v_{i+1} (possibly
    mirrored). Any deviation raises StructureViolation, which on a
    genuinely valid partition would contradict the structural results.
    Raises NotWheelConfig without a wheel tag, then NotAPartition for the
    first check verify_partition fails, then NotWheelConfig on a refuted tag.
    The verifier keeps its report on p, so a caller that verified p
    before or verifies it after pays for one verification in all; this
    function only reads that report and never writes it.

    Each tree's boundary and radial edges are read once. Observation 1
    needs no check: a verified partition's chords join two of the 2n - 1
    circle points and leave ccw + cw = 2n - 3 of them on their two sides,
    so the small side has at most n - 2, the big one with the centre at
    least n (check_observation1 spells the splits out for any tree).
    """
    n = wheel_n(p.ps)
    if n is None:
        raise NotWheelConfig(f"config tag {p.ps.config_tag!r} is not a wheel")
    report = verify_partition(p)
    if not report:
        w = report.witness
        if report.reason == "coverage":
            raise NotAPartition(f"{w['trees']} trees, expected {n}" if w["trees"] != n
                                else f"edge multiset differs from E(K_2n): {w}")
        if report.reason == "spanning":
            raise NotAPartition(f"tree {w} is not a spanning tree")
        raise NotAPartition(f"tree {w[0]} is not plane: {w[1]} crosses {w[2]}")
    m = 2 * wheel_tag_n(p.ps) - 1  # NotWheelConfig on a refuted tag
    stats: list[TreeStats] = []
    radials: list[list[GeomEdge]] = []
    one_boundary: list[int] = []
    for idx, t in enumerate(p.trees):
        b = boundary_edges(t)
        r = radial_edges(t)
        if len(b) < 1:
            raise StructureViolation("lemma3", (idx, t.edges))
        if len(r) < n and len(b) < 2:
            raise StructureViolation("proposition3", (idx, len(r), len(b)))
        if len(b) == 1:
            one_boundary.append(idx)
            run = [e[0] for e in r]
            if len(r) < n or not _has_run(run, m, n):
                raise StructureViolation("proposition2", (idx, r))
        stats.append(TreeStats(len(b), len(r), None))
        radials.append(r)
    if len(one_boundary) != 1:
        raise StructureViolation("lemma4", tuple(one_boundary))
    keeper = one_boundary[0]
    for idx, t in enumerate(p.trees):
        if idx == keeper:
            continue
        b, r, _ = stats[idx]
        if b != 2 or r != 1:
            raise StructureViolation("lemma4", (idx, b, r))
        spoke = radials[idx][0][0]
        four = _lemma5_four_path(set(t.edges), spoke, n)
        if four is None:
            raise StructureViolation("lemma5", (idx, spoke))
        stats[idx] = TreeStats(b, r, four)
    if stats[keeper].radial_count != n:  # its run was checked with proposition2
        raise StructureViolation("lemma4", (keeper, stats[keeper].radial_count))
    return WheelAnalysis(
        one_boundary_tree=keeper,
        radial_run=tuple(radials[keeper]),
        per_tree=tuple(stats),
    )


def check_note1(p: Partition) -> bool:
    """Both implications of the double-star note on this instance.

    If the n-1 rotated trees are isomorphic double stars, the complement
    tree must be isomorphic to them; if they are w-caterpillars but not
    double stars, it must not be isomorphic to any of them.
    """
    analysis = analyze_wheel_partition(p)
    keeper = analysis.one_boundary_tree
    others = [t for i, t in enumerate(p.trees) if i != keeper]
    canons = {tree_canon(t) for t in others}
    if len(canons) != 1:
        return True  # note's antecedents need isomorphic T_1..T_{n-1}
    keeper_canon = tree_canon(p.trees[keeper])
    rep = classify(others[0])
    if rep.double_star is not None:
        return keeper_canon in canons
    if rep.w_caterpillar:
        return keeper_canon not in canons
    return True
