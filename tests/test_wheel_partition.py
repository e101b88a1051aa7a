import random

import networkx as nx
import pytest

from planetrees import (GeomTree, InvalidParameter, NotAPartition, NotATree,
                        NotWCaterpillar, NotWheelConfig, Partition, PointSet,
                        SizeMismatch, StructureViolation,
                        analyze_wheel_partition, build_wheel_partition,
                        check_note1, check_observation1, classify, make_wheel,
                        observation1_splits, place_caterpillar_on_chain,
                        rotate_tree, theorem4_partition, verify_partition,
                        wheel_partition)
from planetrees.geom_core import cyclic_order
from planetrees.presets import builtin_tree, figure_pointset
from planetrees.tree_taxonomy import TreeIndex, spine_walk

from conftest import regular_gon

CHAIR = builtin_tree("fig2i", 3)


def norm(edges):
    return tuple(sorted(tuple(sorted(e)) for e in edges))


# ---------------------------------------------------------------------------
# caterpillar placement

def test_placement_is_graceful():
    ps = regular_gon(6)
    t = place_caterpillar_on_chain(CHAIR, ps, list(range(6)))
    gaps = sorted(abs(a - b) for a, b in t.edges)
    assert gaps == [1, 2, 3, 4, 5]


def test_placement_on_reversed_chain_mirrors():
    ps = regular_gon(6)
    first = place_caterpillar_on_chain(CHAIR, ps, list(range(6)))
    last = place_caterpillar_on_chain(CHAIR, ps, list(range(6))[::-1])
    mirrored = norm((5 - a, 5 - b) for a, b in first.edges)
    assert norm(last.edges) == mirrored


def test_placement_follows_chain_order():
    ps = regular_gon(6)
    chain = [2, 4, 0, 5, 1, 3]
    t = place_caterpillar_on_chain(CHAIR, ps, chain)
    slot = {p: s for s, p in enumerate(chain)}
    gaps = sorted(abs(slot[a] - slot[b]) for a, b in t.edges)
    assert gaps == [1, 2, 3, 4, 5]


def test_placement_head_choices():
    ps = regular_gon(6)
    t = place_caterpillar_on_chain(CHAIR, ps, list(range(6)), head=5)
    assert t.edges[0][0] == 0 or 0 in t.edges[0]  # head lands on slot 0
    with pytest.raises(InvalidParameter):
        place_caterpillar_on_chain(CHAIR, ps, list(range(6)), head=0)


def test_placement_errors():
    ps = regular_gon(6)
    with pytest.raises(SizeMismatch):
        place_caterpillar_on_chain(CHAIR, ps, [0, 1, 2])
    with pytest.raises(InvalidParameter):
        place_caterpillar_on_chain(CHAIR, ps, [0, 1, 2, 3, 4, 4])
    spider = ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6))
    with pytest.raises(InvalidParameter):
        place_caterpillar_on_chain(spider, regular_gon(7), list(range(7)))
    with pytest.raises(NotATree):
        place_caterpillar_on_chain(((0, 1), (1, 2), (0, 2)), ps, [0, 1, 2])


def test_placement_head_outside_the_tree():
    with pytest.raises(InvalidParameter, match="vertex 9 does not start a spine walk"):
        place_caterpillar_on_chain(((0, 1), (1, 2), (2, 3)), make_wheel(4), [0, 1, 2, 3], head=9)


def test_place_slots_covers_every_tree_gracefully():
    """Every head a spine walk starts from places the whole tree on
    distinct slots 0..N-1 with pairwise distinct edge gaps."""
    for size in range(1, 11):
        for g in nx.nonisomorphic_trees(size):
            adj = {v: set(g[v]) for v in g}
            for head in adj:
                if spine_walk(adj, head) is None:
                    continue
                pos = wheel_partition._place_slots(adj, head)
                assert sorted(pos) == sorted(adj) and sorted(pos.values()) == list(range(size))
                gaps = [abs(pos[a] - pos[b]) for a, b in g.edges()]
                assert len(set(gaps)) == len(gaps)


# ---------------------------------------------------------------------------
# wheel partition construction

def test_fig2i_partition():
    p = build_wheel_partition(CHAIR, 3)
    assert len(p.trees) == 3
    assert p.trees[0].edges == norm([(5, 1), (1, 4), (4, 2), (4, 0), (2, 3)])
    assert p.trees[1].edges == norm([(5, 2), (0, 2), (0, 3), (3, 4), (0, 1)])
    assert p.trees[2].edges == norm([(5, 3), (5, 4), (5, 0), (1, 3), (1, 2)])
    assert verify_partition(p).ok


def test_fig2ii_partition():
    p = build_wheel_partition(builtin_tree("doublestar", 3), 3)
    assert p.trees[0].edges == norm([(5, 1), (1, 4), (2, 4), (0, 1), (3, 4)])
    assert p.trees[1].edges == norm([(5, 2), (0, 2), (0, 3), (1, 2), (0, 4)])
    assert p.trees[2].edges == norm([(5, 3), (5, 4), (5, 0), (1, 3), (2, 3)])


def test_rotation_family():
    p = build_wheel_partition(CHAIR, 3)
    assert p.trees[1].edges == rotate_tree(p.trees[0], 1).edges
    assert rotate_tree(rotate_tree(p.trees[0], 3), 2).edges == p.trees[0].edges


def test_rotate_requires_wheel():
    t = GeomTree(figure_pointset("fig5"), ((0, 1),))
    with pytest.raises(NotWheelConfig):
        rotate_tree(t, 1)


FIG3_FIRST_TREES = (
    ((7, 1), (1, 5), (5, 2), (1, 6), (5, 3), (1, 0), (5, 4)),
    ((7, 1), (1, 5), (5, 2), (1, 6), (5, 3), (0, 6), (3, 4)),
    ((7, 1), (1, 5), (5, 2), (0, 5), (2, 4), (2, 3), (5, 6)),
    ((7, 1), (1, 5), (5, 2), (0, 5), (2, 4), (3, 4), (0, 6)),
)


@pytest.mark.parametrize("drawn", FIG3_FIRST_TREES)
def test_n4_constructions_reproduce_their_drawings(drawn):
    p = build_wheel_partition(drawn, 4)
    assert p.trees[0].edges == norm(drawn)
    assert verify_partition(p).ok


def test_n4_double_star_complement():
    p = build_wheel_partition(FIG3_FIRST_TREES[0], 4)
    want = norm([(7, 4), (7, 5), (7, 6), (7, 0), (1, 4), (2, 4), (3, 4)])
    assert p.trees[3].edges == want


def test_designated_four_path():
    default = build_wheel_partition(CHAIR, 3)
    assert build_wheel_partition(CHAIR, 3, four_path=(3, 2, 4, 1)).trees == default.trees
    # the chair's other witness differs by a tree automorphism only
    alt = build_wheel_partition(CHAIR, 3, four_path=(5, 1, 4, 2))
    assert verify_partition(alt).ok
    assert alt.trees == default.trees
    with pytest.raises(NotWCaterpillar):
        build_wheel_partition(CHAIR, 3, four_path=(0, 4, 1, 5))


@pytest.mark.parametrize("run", [
    lambda: build_wheel_partition(builtin_tree("doublestar", 6), 6),
    lambda: build_wheel_partition(CHAIR, 3, four_path=(5, 1, 4, 2)),
    lambda: classify(builtin_tree("doublestar", 6)),
])
def test_tree_index_built_once(monkeypatch, run):
    calls = []
    init = TreeIndex.__init__

    def counted(self, edges):
        calls.append(edges)
        init(self, edges)

    monkeypatch.setattr(TreeIndex, "__init__", counted)
    run()
    assert len(calls) == 1


def test_builder_errors():
    with pytest.raises(InvalidParameter):
        build_wheel_partition(((0, 1),), 1)
    with pytest.raises(SizeMismatch):
        build_wheel_partition(CHAIR, 4)
    with pytest.raises(NotWCaterpillar):
        build_wheel_partition(tuple((i, i + 1) for i in range(5)), 3)
    with pytest.raises(NotATree):
        build_wheel_partition(((0, 1), (1, 2), (2, 3), (3, 0)), 2)


def test_builder_names_an_edge_two_copies_share(monkeypatch):
    # the label tree, not the proof, is broken, and the cover check names
    # the shared edges before any complement check runs. With the head of
    # A (the star u3 and its two leaves) in the middle slot, A's two edges
    # have one gap, so the turns of one hold the other
    place = wheel_partition._place_slots

    def middle(adj, head):
        order = sorted(place(adj, head).items(), key=lambda kv: kv[1])
        return {v: (i + 1) % len(order) for i, (v, _) in enumerate(order)}

    monkeypatch.setattr(wheel_partition, "_place_slots", middle)
    with pytest.raises(StructureViolation, match="^theorem1-cover: ") as exc:
        build_wheel_partition(builtin_tree("doublestar", 4), 4)
    assert exc.value.witness == {"missing": [], "extra": [],
                                 "duplicated": [(0, 1), (0, 6), (1, 2), (4, 5), (5, 6)]}
    monkeypatch.undo()
    # with every pair of the label tree listed twice, each copy holds every
    # edge twice, the spoke 1-7 among them
    prove = wheel_partition.turned_partition
    monkeypatch.setattr(wheel_partition, "turned_partition",
                        lambda ps, edges, *args: prove(ps, [*edges, *edges], *args))
    with pytest.raises(StructureViolation, match="^theorem1-cover: ") as exc:
        build_wheel_partition(builtin_tree("doublestar", 4), 4)
    assert (1, 7) in exc.value.witness["duplicated"]
    assert exc.value.witness["missing"] == exc.value.witness["extra"] == []


def test_n2_path_partition():
    p = build_wheel_partition(tuple((i, i + 1) for i in range(3)), 2)
    assert len(p.trees) == 2
    assert verify_partition(p).ok
    a = analyze_wheel_partition(p)
    assert a.per_tree[a.one_boundary_tree] == (1, 2, None)


# ---------------------------------------------------------------------------
# analysis

def test_analyze_fig2i():
    a = analyze_wheel_partition(build_wheel_partition(CHAIR, 3))
    assert a.one_boundary_tree == 2
    assert a.radial_run == ((0, 5), (3, 5), (4, 5))
    assert a.per_tree == (
        (2, 1, (5, 1, 4, 2)),
        (2, 1, (5, 2, 0, 3)),
        (1, 3, None),
    )


def test_analyze_large_double_star():
    p = build_wheel_partition(builtin_tree("doublestar", 7), 7)
    a = analyze_wheel_partition(p)
    assert a.one_boundary_tree == 6
    assert len(a.radial_run) == 7
    for stats in a.per_tree[:6]:
        assert stats.boundary_count == 2
        assert stats.radial_count == 1
        assert stats.four_path is not None
    assert a.per_tree[6] == (1, 7, None)


def _lemma5_by_set(edges, i, n):
    """_lemma5_four_path as it read a set of the tree's edges."""
    m = 2 * n - 1
    held = set(edges)
    for cand in ((m, i, (i + n) % m, (i + 1) % m), (m, i, (i + n - 1) % m, (i - 1) % m)):
        if all(tuple(sorted(e)) in held for e in zip(cand, cand[1:])):
            return cand
    return None


def test_lemma5_four_path_reads_the_sorted_edges():
    # bisection on a GeomTree's sorted edges finds what a set finds: on
    # built trees (every 4-path found) and on random edge sets of a wheel
    rng = random.Random(5)
    trees = [t for n in (2, 3, 4, 7) for t in build_wheel_partition(builtin_tree("doublestar", n), n).trees]
    trees += build_wheel_partition(CHAIR, 3).trees
    for n in (2, 3, 5, 8):
        every = [(a, b) for a in range(2 * n) for b in range(a + 1, 2 * n)]
        trees += [GeomTree(make_wheel(n), rng.sample(every, rng.randrange(len(every) + 1)))
                  for _ in range(40)]
    found = 0
    for t in trees:
        n = len(t.ps) // 2
        for i in range(2 * n - 1):
            got = wheel_partition._lemma5_four_path(t.edges, i, n)
            assert got == _lemma5_by_set(t.edges, i, n), (t.edges, i)
            found += got is not None
    assert found > 100


def test_analyze_rejects_non_wheel():
    with pytest.raises(NotWheelConfig):
        analyze_wheel_partition(Partition(ps=figure_pointset("fig5"), trees=()))


def test_analyze_rejects_bad_partitions(wheel3):
    p = build_wheel_partition(CHAIR, 3)
    with pytest.raises(NotAPartition, match="2 trees"):
        analyze_wheel_partition(Partition(ps=p.ps, trees=p.trees[:2]))
    with pytest.raises(NotAPartition, match="edge multiset"):
        analyze_wheel_partition(
            Partition(ps=p.ps, trees=(p.trees[0], p.trees[0], p.trees[2])))
    # swap an edge between two trees: multiset fine, spanning broken
    t0 = set(p.trees[0].edges)
    t2 = set(p.trees[2].edges)
    t0b = GeomTree(p.ps, tuple(t0 - {(2, 3)} | {(1, 2)}))
    t2b = GeomTree(p.ps, tuple(t2 - {(1, 2)} | {(2, 3)}))
    with pytest.raises(NotAPartition, match="not a spanning tree"):
        analyze_wheel_partition(Partition(ps=p.ps, trees=(t0b, p.trees[1], t2b)))


def test_analyze_raises_in_the_documented_order():
    # no wheel tag, then a tag that disagrees with the point count (before
    # the verifier, which would call an empty partition no cover), then a
    # failed verification; a tag the coordinates refute comes last (see
    # test_analyze_refutes_tag_of_relabelled_valid_partition)
    square = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
    with pytest.raises(NotWheelConfig, match="'general' is not a wheel"):
        analyze_wheel_partition(Partition(PointSet(square), ()))
    with pytest.raises(InvalidParameter, match="wheel3 disagrees with point count 4"):
        analyze_wheel_partition(Partition(PointSet(square, "wheel3"), ()))
    with pytest.raises(InvalidParameter, match="n >= 2"):
        analyze_wheel_partition(Partition(PointSet(square[:2], "wheel1"), ()))
    refuted = PointSet(square, "wheel2")  # the centre lies outside the triangle
    assert cyclic_order(refuted) is None
    with pytest.raises(NotAPartition, match="0 trees, expected 2"):
        analyze_wheel_partition(Partition(refuted, ()))


def test_observation1_splits():
    p = build_wheel_partition(CHAIR, 3)
    red = p.trees[1]
    by_edge = {e: (small, big) for e, small, big in observation1_splits(red)}
    assert set(by_edge) == {(0, 1), (0, 2), (0, 3), (3, 4)}  # radial skipped
    assert by_edge[(0, 3)] == ((4,), (1, 2, 5))
    assert by_edge[(3, 4)] == ((), (0, 1, 2, 5))
    for small, big in by_edge.values():
        assert len(small) <= 1 and len(big) >= 3 and len(small) < len(big)


def listed_violation(t):
    """Observation 1's first violation, read off the listed splits."""
    n = len(t.ps) // 2
    return next(((e, small, big) for e, small, big in observation1_splits(t)
                 if not (len(small) < len(big) and len(small) <= n - 2
                         and len(big) >= n)), None)


def test_observation1_violation_witness():
    # only an index past the centre (here 6 = 1 + 5 on the 5-cycle) could
    # break the bound, and GeomTree refuses one where the tree is built, so
    # check_observation1 reports no violation on any tree
    with pytest.raises(InvalidParameter, match=r"edge \(1, 6\) is not two int ends"):
        GeomTree(make_wheel(3), ((0, 1), (1, 6), (2, 3), (3, 8)))
    for n in range(2, 9):
        for t in build_wheel_partition(builtin_tree("doublestar", n), n).trees:
            rep = check_observation1(t)
            assert rep.ok and rep.witness == observation1_splits(t)
            assert listed_violation(t) is None


def test_observation1_holds_on_built_partitions():
    parts = [build_wheel_partition(builtin_tree("doublestar", n), n) for n in range(2, 13)]
    for k in (4, 6, 8, 10):
        parts += [build_wheel_partition(t.edges, k // 2)
                  for t in nx.nonisomorphic_trees(k) if classify(t.edges).w_caterpillar]
    parts += [theorem4_partition(make_wheel(n), 2) for n in (4, 8, 12)]
    for p in parts:
        for t in p.trees:
            assert check_observation1(t).ok
            assert listed_violation(t) is None


def test_observation1_holds_for_every_in_range_edge():
    # why analyze_wheel_partition need not check it: a verified partition
    # has only edges between two of the 2n points
    for n in range(2, 65):
        ps = make_wheel(n)
        every = tuple((a, b) for a in range(2 * n) for b in range(a + 1, 2 * n))
        assert check_observation1(GeomTree(ps, every)).ok, n


def test_rotate_tree_equals_per_vertex_formula():
    trees = [t for n in (2, 3, 5, 8)
             for t in build_wheel_partition(builtin_tree("doublestar", n), n).trees]
    trees += theorem4_partition(make_wheel(6), 3).trees
    for t in trees:
        m = len(t.ps) - 1
        for steps in range(-m, 2 * m + 1):
            want = norm(tuple(v if v == m else (v + steps) % m for v in e) for e in t.edges)
            assert rotate_tree(t, steps).edges == want, (t.edges, steps)


def test_analyze_refutes_unearned_wheel_tag():
    p = build_wheel_partition(builtin_tree("doublestar", 4), 4)
    pts = list(p.ps.points)
    pts[0], pts[3] = pts[3], pts[0]
    ps = PointSet(tuple(pts), "wheel4")
    with pytest.raises(NotAPartition, match="tree 0 is not plane"):
        analyze_wheel_partition(Partition(ps, tuple(GeomTree(ps, t.edges) for t in p.trees)))


def test_analyze_refutes_tag_of_relabelled_valid_partition():
    # circle points 0 and 3 swapped and the edges relabelled to match: the
    # drawing and so the partition are unchanged, but the wheel4 tag no
    # longer describes the indices, so Lemmas 3-5 must not be checked
    p = build_wheel_partition(builtin_tree("doublestar", 4), 4)
    swap = {0: 3, 3: 0}
    pts = list(p.ps.points)
    pts[0], pts[3] = pts[3], pts[0]
    ps = PointSet(tuple(pts), "wheel4")
    q = Partition(ps, tuple(GeomTree(ps, tuple((swap.get(a, a), swap.get(b, b))
                                               for a, b in t.edges)) for t in p.trees))
    assert verify_partition(q).ok
    with pytest.raises(NotWheelConfig, match="refuted"):
        analyze_wheel_partition(q)


def test_observation1_requires_wheel():
    with pytest.raises(NotWheelConfig):
        observation1_splits(GeomTree(figure_pointset("fig5"), ((0, 1),)))


def test_note1_instances():
    assert check_note1(build_wheel_partition(CHAIR, 3))
    assert check_note1(build_wheel_partition(builtin_tree("doublestar", 3), 3))
    assert check_note1(build_wheel_partition(builtin_tree("doublestar", 5), 5))


def test_analyze_raises_for_each_verify_failure():
    p = build_wheel_partition(builtin_tree("doublestar", 4), 4)
    trees = [list(t.edges) for t in p.trees]
    dropped = [trees[0][1:]] + trees[1:]
    moved = [trees[0][1:], trees[1] + trees[0][:1]] + trees[2:]
    pts = list(p.ps.points)
    pts[0], pts[3] = pts[3], pts[0]
    swapped = PointSet(tuple(pts), "wheel4")
    seen = set()
    for ps, bad in ((p.ps, trees[:3]), (p.ps, dropped), (p.ps, moved), (swapped, trees)):
        claim = Partition(ps, tuple(GeomTree(ps, t) for t in bad))
        rep = verify_partition(claim)
        assert not rep
        seen.add(rep.reason)
        with pytest.raises(NotAPartition, match=f"tree {rep.witness[0]} is not plane"
                           if rep.reason == "plane" else
                           f"tree {rep.witness} is not a spanning tree"
                           if rep.reason == "spanning" else
                           "3 trees, expected 4" if rep.witness["trees"] == 3 else
                           "edge multiset"):
            analyze_wheel_partition(claim)
    assert seen == {"coverage", "spanning", "plane"}


def test_analysis_keeper_holds_n_radials():
    """The keeper's n radials follow from the other trees' one each."""
    builds = [(builtin_tree("doublestar", n), n) for n in range(2, 21)]
    builds += [(tuple(g.edges()), size // 2) for size in range(4, 13, 2)
               for g in nx.nonisomorphic_trees(size) if classify(tuple(g.edges())).w_caterpillar]
    for t, n in builds:
        a = analyze_wheel_partition(build_wheel_partition(t, n))
        assert [st.radial_count for st in a.per_tree] == [
            n if i == a.one_boundary_tree else 1 for i in range(n)]


def _has_run_by_definition(labels, m, want):
    return any(all((start + i) % m in labels for i in range(want)) for start in range(m))


def test_has_run_wrapped_and_unwrapped():
    has_run = wheel_partition._has_run
    for m in (3, 5, 9, 1023):
        for want in sorted({1, 2, m // 2, m - 1, m}):
            for start in sorted({0, 1, m - want, m - 1, (m - want // 2) % m}):
                run = [(start + i) % m for i in range(want)]  # wraps past 0 when start + want > m
                assert has_run(run, m, want)
                assert has_run(run[::-1], m, want)
                assert not has_run(run[1:], m, want)  # one short
    # the wrapped run {m - 256, ..., 255} at n = 512 and the same run unwrapped
    m = 1023
    assert has_run([(m - 256 + i) % m for i in range(512)], m, 512)
    assert has_run(list(range(512)), m, 512)
    assert not has_run([(m - 256 + i) % m for i in range(511)], m, 512)
    rng = random.Random(3)
    for _ in range(300):
        m = rng.randrange(3, 20)
        labels = rng.sample(range(m), rng.randrange(m + 1))
        for want in range(1, m + 1):
            assert has_run(labels, m, want) == _has_run_by_definition(set(labels), m, want), (
                labels, m, want)
