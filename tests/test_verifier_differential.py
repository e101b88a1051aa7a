"""verify_partition, is_spanning_tree and the stack pass
CyclicOrder.plane_tree against test-local references.

The references share nothing with the library's fast paths: coverage is
a Counter over every held edge, spanning is networkx's is_tree over all
N points, planarity is the first pair of edges, in combinations order,
that segments_cross reports. Partitions start valid (wheel, convex and
fig5 constructions, on sets whose circle is the index order turned and
on one that is not) and are corrupted by moving, duplicating, dropping
or swapping edges, or by adding a pair that joins no two points, which
GeomTree must refuse where the tree is built.
"""
import random
import re
from collections import Counter
from functools import cache
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planetrees import (GeomTree, InvalidParameter, Partition, build_wheel_partition, cyclic_order,
                        is_spanning_tree, make_wheel, segments_cross,
                        theorem2_partition, theorem4_partition, verify_partition)
from planetrees.presets import builtin_tree, figure_pointset

from conftest import random_plane_convex_tree, regular_gon, shuffled_gon


@cache
def bases() -> tuple[tuple[Partition, str], ...]:
    """(valid partition, the planarity predicate it should report)."""
    out = []
    for n in range(2, 11):
        out.append((build_wheel_partition(builtin_tree("doublestar", n), n), "wheel-index"))
        out.append((theorem2_partition(regular_gon(2 * n), n % 2), "convex-order"))
    # a convex set off the index order; wheel trees with one spoke and with many
    out += [(theorem2_partition(shuffled_gon(12), t), "convex-order") for t in (0, 1)]
    out += [(theorem4_partition(make_wheel(n), r), "wheel-index")
            for n in (3, 5, 7) for r in range(2, n)]
    fig5 = figure_pointset("fig5")
    out += [(theorem2_partition(fig5, t), "pairwise") for t in (0, 1)]
    return tuple(out)


def reference(p: Partition, predicate: str):
    """(ok, reason, witness, predicate), as verify_partition should report."""
    npts = len(p.ps)
    count = Counter(e for t in p.trees for e in t.edges)
    defect = {"missing": [e for e in combinations(range(npts), 2) if e not in count],
              "extra": sorted(e for e in count if not 0 <= e[0] < e[1] < npts),
              "duplicated": sorted(e for e, c in count.items() if c > 1)}
    if len(p.trees) != npts // 2 or any(defect.values()):
        return False, "coverage", {"trees": len(p.trees), **defect}, None
    for i, t in enumerate(p.trees):
        if not spans(t.edges, npts):
            return False, "spanning", i, None
    for i, t in enumerate(p.trees):
        for e1, e2 in combinations(t.edges, 2):
            if segments_cross(e1, e2, p.ps):
                return False, "plane", (i, e1, e2), predicate
    return True, None, None, predicate


def spans(edges, npts: int) -> bool:
    g = nx.Graph()
    g.add_nodes_from(range(npts))
    g.add_edges_from(edges)
    return nx.is_tree(g)


def corrupt(data, trees: list[list[tuple[int, int]]], npts: int) -> None:
    """One random corruption of the edge lists, in place."""
    kind = data.draw(st.sampled_from(
        ["move", "duplicate", "drop", "swap", "exchange", "out-of-range"]))
    j = data.draw(st.integers(0, len(trees) - 1))
    if kind == "out-of-range":
        a = data.draw(st.integers(-2, npts + 2))
        b = data.draw(st.integers(npts, npts + 3) | st.integers(-3, -1))
        trees[j].append((a, b) if a != b else (a, b + 1))
        return
    i = data.draw(st.sampled_from([k for k, t in enumerate(trees) if t]))
    k = data.draw(st.integers(0, len(trees[i]) - 1))
    e = trees[i][k]
    if kind == "move":
        del trees[i][k]
        trees[j].append(e)
    elif kind == "duplicate":
        trees[j].append(e)
    elif kind == "drop":
        del trees[i][k]
    elif kind == "swap" and trees[j]:
        k2 = data.draw(st.integers(0, len(trees[j]) - 1))
        trees[i][k], trees[j][k2] = trees[j][k2], e
    elif kind == "exchange" and i != j:
        # the first swap, in a drawn order, that leaves both trees spanning:
        # such a partition fails on planarity if at all
        for k2 in data.draw(st.permutations(range(len(trees[j])))):
            ti = trees[i][:k] + trees[i][k + 1:] + [trees[j][k2]]
            tj = trees[j][:k2] + trees[j][k2 + 1:] + [e]
            if spans(ti, npts) and spans(tj, npts):
                trees[i], trees[j] = ti, tj
                return


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_partition_matches_reference(data):
    base, predicate = data.draw(st.sampled_from(bases()))
    trees = [list(t.edges) for t in base.trees]
    for _ in range(data.draw(st.integers(0, 3))):
        corrupt(data, trees, len(base.ps))
    trees = [refuse_far_pairs(base.ps, t) for t in trees]
    p = Partition(base.ps, tuple(GeomTree(base.ps, t) for t in trees))
    rep = verify_partition(p)
    assert (rep.ok, rep.reason, rep.witness, rep.predicate) == reference(p, predicate)


def refuse_far_pairs(ps, edges):
    """edges without the pairs that join no two points of ps, once
    GeomTree has refused edges, naming the first of them."""
    npts = len(ps)
    near = [e for e in edges if 0 <= min(e) and max(e) < npts]
    if len(near) < len(edges):
        far = next(e for e in edges if e not in near)
        with pytest.raises(InvalidParameter, match=re.escape(f"edge {far!r} is not")):
            GeomTree(ps, edges)
    return near


def test_verify_partition_matches_reference_on_valid_bases():
    for p, predicate in bases():
        rep = verify_partition(p)
        assert (rep.ok, rep.reason, rep.witness, rep.predicate) == reference(p, predicate)
        assert rep.ok and rep.predicate == predicate


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 12), st.data())
def test_is_spanning_tree_matches_networkx(npts, data):
    index = st.integers(-1, npts)  # one step past either end
    pairs = st.tuples(index, index).filter(lambda e: e[0] != e[1])
    size = data.draw(st.sampled_from([npts - 2, npts - 1, npts - 1, npts]))
    edges = data.draw(st.lists(pairs, min_size=size, max_size=size))
    if data.draw(st.booleans()) and edges:  # a repeated edge
        edges[-1] = edges[0][::-1]
    ps = regular_gon(npts)
    t = GeomTree(ps, refuse_far_pairs(ps, edges))
    want = (len(t.edges) == npts - 1
            and all(0 <= v < npts for e in t.edges for v in e)
            and spans(t.edges, npts))
    assert is_spanning_tree(t) is want


def plane(edges, ps) -> bool:
    return not any(segments_cross(e1, e2, ps) for e1, e2 in combinations(edges, 2))


def check_plane_tree(ps, edges) -> None:
    """The pass against the pairwise scan and networkx, on GeomTree edges."""
    edges = GeomTree(ps, edges).edges
    want = plane(edges, ps)
    got = cyclic_order(ps).plane_tree(edges)
    assert got == (want, want and spans(edges, len(ps))), (edges, got)


def test_plane_tree_matches_references_on_every_spanning_size_subset():
    # every 5 of the 15 pairs of K_6: wheel trees with no spoke and with
    # all five, convex ones, forests and cycles, plane or not
    for ps in (make_wheel(3), regular_gon(6)):
        every = list(combinations(range(6), 2))
        for edges in combinations(every, 5):
            check_plane_tree(ps, edges)


def test_plane_tree_matches_references_on_random_edge_sets():
    rng = random.Random(28)
    sets = [make_wheel(n) for n in range(4, 8)]
    sets += [regular_gon(m) for m in range(8, 15)] + [shuffled_gon(12)]
    for ps in sets:
        npts = len(ps)
        every = list(combinations(range(npts), 2))
        # plane spanning trees (a valid partition's, else greedy ones on the
        # circle, which is the index order there), and random spanning trees
        plane_trees = [list(t.edges) for p, _ in bases() if p.ps == ps for t in p.trees]
        plane_trees = plane_trees or [sorted(random_plane_convex_tree(npts, rng))
                                      for _ in range(5)]
        for _ in range(60):
            check_plane_tree(ps, rng.sample(every, rng.randint(0, npts + 1)))
            for tree in (rng.choice(plane_trees), random_spanning_tree(npts, rng)):
                check_plane_tree(ps, tree)
                swapped = list(tree)
                swapped[rng.randrange(len(tree))] = rng.choice(
                    [e for e in every if e not in tree])
                check_plane_tree(ps, swapped)


def random_spanning_tree(npts: int, rng: random.Random) -> list[tuple[int, int]]:
    """Kruskal on K_N in a random edge order."""
    every = list(combinations(range(npts), 2))
    rng.shuffle(every)
    g, tree = nx.utils.UnionFind(range(npts)), []
    for a, b in every:
        if g[a] != g[b]:
            g.union(a, b)
            tree.append((a, b))
    return tree
