"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ACCEPTANCE <k>: PASS/FAIL line so the suite
doubles as a checklist; run with -s (or read captured output) to see it.
"""
import functools
import random

import networkx as nx
import pytest

from planetrees import (ConstructionChoices, InvalidParameter, boundary_edges,
                        build_wheel_partition, check_observation1, classify,
                        h_labeling, is_plane, is_spanning_tree,
                        k_halving_lines, lemma6_tree, make_wheel,
                        segments_cross, theorem2_partition,
                        theorem3_partition, theorem4_partition, tree_canon,
                        verify_partition, w_labeling, wheel_crossing)
from planetrees.tree_taxonomy import GeomTree, adjacency
from planetrees.wheel_partition import Partition, analyze_wheel_partition
from planetrees.presets import (CHOICES_PRESETS, PRESET_RUNS, builtin_tree,
                                construction_pointset)

from conftest import random_cocircular, random_convex, random_plane_convex_tree, regular_gon
from test_properties import feasible_extends


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num} ({title}): FAIL")
                raise
            print(f"\nACCEPTANCE {num} ({title}): PASS")
        return wrapper
    return deco


def norm(edges):
    return tuple(sorted(tuple(sorted(e)) for e in edges))


# ---------------------------------------------------------------------------

@criterion(1, "wheel construction, all w-caterpillars n<=6")
def test_criterion_1_exhaustive_wheel_builds():
    expected_counts = {2: 1, 3: 2, 4: 4, 5: 8, 6: 16}
    for n in range(2, 7):
        cats = [tuple(g.edges()) for g in nx.nonisomorphic_trees(2 * n)
                if classify(tuple(g.edges())).w_caterpillar]
        assert len(cats) == expected_counts[n]
        for edges in cats:
            p = build_wheel_partition(edges, n)
            assert verify_partition(p).ok, (n, edges)
            family_canons = {tree_canon(t) for t in p.trees[:-1]}
            assert len(family_canons) == 1
            for t in p.trees[:-1]:
                assert classify(t).w_caterpillar
            last = p.trees[-1]
            assert classify(last).caterpillar
            assert len(boundary_edges(last)) == 1


@criterion(2, "figure reproduction, exact edge sets")
def test_criterion_2_figures():
    # 6-point wheel partition: 3 trees, 15 edges, transcribed edge lists
    p = build_wheel_partition(builtin_tree("fig2i", 3), 3)
    assert sum(len(t.edges) for t in p.trees) == 15
    assert p.trees[0].edges == norm([(5, 1), (1, 4), (4, 2), (4, 0), (2, 3)])
    assert p.trees[1].edges == norm([(5, 2), (0, 2), (0, 3), (3, 4), (0, 1)])
    assert p.trees[2].edges == norm([(5, 3), (5, 4), (5, 0), (1, 3), (1, 2)])

    # 8 cocircular points: 4 trees, 28 edges; the drawn partition is the
    # t=1 refinement and every tree is the double star with two spine
    # vertices inserted (S_2 with both star degrees 2)
    from planetrees.presets import figure_pointset
    p5 = theorem2_partition(figure_pointset("fig5"), 1)
    assert sum(len(t.edges) for t in p5.trees) == 28
    want5 = (
        [(4, 0), (4, 1), (0, 5), (5, 7), (5, 6), (1, 3), (1, 2)],
        [(5, 1), (5, 2), (1, 6), (2, 4), (2, 3), (6, 0), (6, 7)],
        [(2, 6), (6, 3), (2, 7), (7, 1), (7, 0), (3, 5), (3, 4)],
        [(3, 7), (3, 0), (7, 4), (4, 5), (4, 6), (0, 1), (0, 2)],
    )
    assert tuple(t.edges for t in p5.trees) == tuple(norm(w) for w in want5)
    for t in p5.trees:
        assert classify(t).s_k == (2, 2, 2)

    # 14-point wheel-like families, both zigzag cases
    goldens = {
        "fig7": (
            [(13, 6), (6, 0), (0, 7), (0, 8), (8, 9), (8, 10), (8, 11),
             (8, 12), (6, 1), (1, 2), (1, 3), (1, 4), (1, 5)],
            [(13, 12), (13, 0), (13, 1), (13, 2), (13, 3), (13, 4), (13, 5),
             (6, 12), (12, 7), (7, 8), (7, 9), (7, 10), (7, 11)],
        ),
        "fig8": (
            [(13, 6), (6, 0), (0, 7), (7, 12), (0, 5), (12, 8), (12, 9),
             (12, 10), (12, 11), (5, 1), (5, 2), (5, 3), (5, 4)],
            [(13, 12), (13, 0), (13, 1), (13, 2), (13, 3), (13, 4), (13, 5),
             (6, 12), (6, 11), (11, 7), (11, 8), (11, 9), (11, 10)],
        ),
    }
    from planetrees import rotate_tree
    for name, (t0, tlast) in goldens.items():
        theorem, r = PRESET_RUNS[name]
        assert theorem == 4
        pw = theorem4_partition(construction_pointset(name), r, CHOICES_PRESETS[name])
        assert pw.trees[0].edges == norm(t0), name
        assert pw.trees[-1].edges == norm(tlast), name
        for q in range(1, 6):
            assert pw.trees[q].edges == rotate_tree(pw.trees[0], q).edges, (name, q)


@criterion(3, "oracle partitions satisfy the structural results")
def test_criterion_3_oracle_structure(wheel3, wheel3_oracle):
    assert len(wheel3_oracle) == 20
    n = 3
    center = 2 * n - 1
    for trees in wheel3_oracle:
        p = Partition(wheel3, tuple(GeomTree(wheel3, t) for t in trees))
        # raises StructureViolation if any of the boundary/radial/4-path
        # facts fail; covers the one-boundary tree and its radial run
        analyze_wheel_partition(p)
        for t in p.trees:
            assert not classify(t).is_path
            # no boundary edges would force an all-radial tree
            if len(boundary_edges(t)) == 0:
                assert all(center in e for e in t.edges)
            assert check_observation1(t).ok


@criterion(4, "halving-line counts and labelings")
def test_criterion_4_halving_counts():
    rng = random.Random(404)
    for _ in range(100):
        m = rng.randint(2, 10)
        ps = random_convex(2 * m, rng)
        assert len(k_halving_lines(ps, 0)) == m
        lab = h_labeling(ps)
        assert len(lab.pairs) == m
    for n in range(2, 9):
        lab = w_labeling(make_wheel(n))
        assert lab.w == 2 * n - 1


@criterion(5, "double-star partitions on random h-labelable sets")
def test_criterion_5_theorem2_random():
    rng = random.Random(505)
    for _ in range(100):
        m = rng.randint(2, 10)
        ps = random_cocircular(2 * m, rng)
        for t in (0, 1):
            p = theorem2_partition(ps, t)
            assert verify_partition(p).ok, (m, t)
            for tree in p.trees:
                rep = classify(tree)
                if t == 0:
                    assert rep.double_star == (m - 1, m - 1)
                elif m == 2:
                    assert rep.double_star == (1, 1)
                else:
                    assert rep.s_k == (2, m - 2, m - 2)


@criterion(6, "zigzag partitions for all r and sampled choices")
def test_criterion_6_zigzag_constructions():
    rng = random.Random(606)
    for n in range(2, 7):
        ps = regular_gon(2 * n)
        for r in range(1, n):
            candidates = [(i, i + n - r) for i in range(r)]
            runs = [None]
            for _ in range(20):
                s, t = rng.choice(candidates)
                runs.append(ConstructionChoices(
                    star_side=rng.choice(("low", "high")), line=(s, t),
                    extend_side=feasible_extends(rng, s, t, 0, n, r - 1)))
            for choices in runs:
                p = theorem3_partition(ps, r, choices)
                assert verify_partition(p).ok, (n, r, choices)
                for tree in p.trees:
                    assert classify(tree).symmetric is not None

    for n in range(3, 7):
        ps = make_wheel(n)
        for r in range(2, n):
            for typ in ("Type1", "Type2"):
                if typ == "Type1":
                    lo, hi = n + 1, 2 * n - 1
                    candidates = [(i, i + n - r) for i in range(n + 1, n + r)]
                else:
                    lo, hi = n, 2 * n - 2
                    candidates = [(i, i + n - r) for i in range(n, n + r - 1)]
                runs = [ConstructionChoices(type4=typ)]
                for _ in range(20):
                    s, t = rng.choice(candidates)
                    runs.append(ConstructionChoices(
                        type4=typ, star_side=rng.choice(("low", "high")),
                        line=(s, t),
                        extend_side=feasible_extends(rng, s, t, lo, hi, r - 2)))
                for choices in runs:
                    p = theorem4_partition(ps, r, choices)
                    assert verify_partition(p).ok, (n, r, choices)
                    for tree in p.trees[:-1]:
                        assert classify(tree).w_caterpillar
                    assert classify(p.trees[-1]).caterpillar
        # r=1 leaves no admissible starting line in either case, so it is refused
        with pytest.raises(InvalidParameter):
            theorem4_partition(ps, 1)

    for name in ("fig7", "fig8"):
        theorem, r = PRESET_RUNS[name]
        p = theorem4_partition(construction_pointset(name), r, CHOICES_PRESETS[name])
        assert verify_partition(p).ok


@criterion(7, "exact wheel crossing agrees with the float predicate")
def test_criterion_7_predicate_cross_validation():
    for n in range(2, 9):
        ps = make_wheel(n)
        from itertools import combinations
        edges = list(combinations(range(2 * n), 2))
        for e1, e2 in combinations(edges, 2):
            assert wheel_crossing(e1, e2, n) == segments_cross(e1, e2, ps), (n, e1, e2)


# ---------------------------------------------------------------------------
# criterion 8: four randomized structural suites, 1000 trials each


def _convex_boundary_edges(tree, m):
    return {e for e in tree if (e[1] - e[0]) % m in (1, m - 1)}


def _random_plane_wheel_tree(n, rng):
    edges = [(i, j) for i in range(2 * n) for j in range(i + 1, 2 * n)]
    rng.shuffle(edges)
    parent = list(range(2 * n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for e in edges:
        ra, rb = find(e[0]), find(e[1])
        if ra == rb:
            continue
        if any(wheel_crossing(e, f, n) for f in chosen):
            continue
        parent[ra] = rb
        chosen.append(e)
        if len(chosen) == 2 * n - 1:
            return chosen
    raise AssertionError("greedy failed to span")


@criterion(8, "randomized structural suites, 1000 trials each")
def test_criterion_8_property_suites():
    # (a) an interior edge whose arc holds exactly one boundary edge
    # extends to exactly one of the two adjacent chords
    rng = random.Random(808)
    fired = 0
    for _ in range(1000):
        m = rng.randint(4, 12)
        tree = random_plane_convex_tree(m, rng)
        norm_tree = {tuple(sorted(e)) for e in tree}
        bnd = _convex_boundary_edges(norm_tree, m)
        for a, b in norm_tree - bnd:
            for i, j in ((a, b), (b, a)):
                arc = [(i + t) % m for t in range(((j - i) % m) + 1)]
                inside = sum(1 for k in arc[:-1]
                             if tuple(sorted((k, (k + 1) % m))) in bnd)
                if inside != 1:
                    continue
                fired += 1
                first = tuple(sorted((i, (j - 1) % m))) in norm_tree
                second = tuple(sorted((j, (i + 1) % m))) in norm_tree
                assert first != second, (m, sorted(norm_tree), (i, j))
    assert fired > 1000  # the hypothesis is not vacuous

    # (b) boundary edges are at least max(2, pendants of the leaf-free
    # residue); non-stars own two vertex-disjoint boundary edges
    rng = random.Random(809)
    for _ in range(1000):
        m = rng.randint(3, 12)
        tree = random_plane_convex_tree(m, rng)
        norm_tree = {tuple(sorted(e)) for e in tree}
        adj = adjacency(norm_tree)
        inner = {v for v, nb in adj.items() if len(nb) > 1}
        if len(inner) <= 1:
            k = 0
        else:
            k = sum(1 for v in inner if sum(1 for u in adj[v] if u in inner) == 1)
        bnd = _convex_boundary_edges(norm_tree, m)
        assert len(bnd) >= max(2, k), (m, sorted(norm_tree))
        if len(inner) > 1:
            assert any(not set(e) & set(f)
                       for e in bnd for f in bnd if e != f), (m, sorted(norm_tree))

    # (c) two halving lines spawn edge-disjoint plane spanning trees whose
    # overlaps with the 4-point complete graph are complementary triples
    rng = random.Random(810)
    for _ in range(1000):
        m = rng.randint(2, 8)
        ps = random_cocircular(2 * m, rng)
        a, b = rng.sample(range(m), 2)
        u1, u2 = a, a + m
        v1, v2 = b, b + m
        t1 = lemma6_tree(ps, (u2, u1), v1, v2)
        t2 = lemma6_tree(ps, (v1, v2), u1, u2)
        assert is_spanning_tree(t1) and is_plane(t1)
        assert is_spanning_tree(t2) and is_plane(t2)
        assert not set(t1.edges) & set(t2.edges)
        quad = {u1, u2, v1, v2}
        k4 = {tuple(sorted((x, y))) for x in quad for y in quad if x < y}
        e = lambda x, y: tuple(sorted((x, y)))
        assert set(t1.edges) & k4 == {e(u1, u2), e(u1, v2), e(u2, v1)}
        assert set(t2.edges) & k4 == {e(v1, v2), e(v1, u1), e(v2, u2)}

    # (d) every non-radial edge of a random plane wheel tree splits the
    # circle into a small side of at most n-2 points and a big side that
    # gains the center
    rng = random.Random(811)
    for _ in range(1000):
        n = rng.randint(3, 8)
        ps = make_wheel(n)
        t = GeomTree(ps, tuple(_random_plane_wheel_tree(n, rng)))
        rep = check_observation1(t)
        assert rep.ok
        for _, small, big in rep.witness:
            assert len(small) <= n - 2
            assert len(big) >= n
            assert len(small) < len(big)
            assert 2 * n - 1 in big
