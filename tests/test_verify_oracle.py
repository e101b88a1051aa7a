import ast
import random
import re
from itertools import combinations, product, starmap
from pathlib import Path

import networkx as nx
import pytest

from planetrees import halving_partition, tree_taxonomy, verify_oracle
from planetrees import (GeomTree, OddPointCount, Partition, TooLarge,
                        analyze_wheel_partition, brute_force_partitions,
                        build_wheel_partition, check_observation1, classify,
                        collinear_triple, cyclic_order, is_plane, is_spanning_tree,
                        make_wheel, segments_cross, theorem2_partition, theorem3_partition,
                        theorem4_partition, tree_canon, verify_partition)
from planetrees.cli_io import emit_partition, load_pointset, parse_partition
from planetrees.errors import InvalidParameter
from planetrees.geom_core import CyclicOrder, PointSet
from planetrees.presets import builtin_tree, figure_pointset
from planetrees.tree_taxonomy import cover_defect, p4_witness_paths

from conftest import regular_gon


def square():
    return PointSet(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)), "convex")


# ---------------------------------------------------------------------------
# verify_partition

def test_verify_passes_construction():
    p = build_wheel_partition(builtin_tree("fig2i", 3), 3)
    rep = verify_partition(p)
    assert rep.ok and bool(rep) and rep.reason is None and rep.witness is None


def test_verify_coverage_missing_edge():
    p = build_wheel_partition(builtin_tree("fig2i", 3), 3)
    clipped = GeomTree(p.ps, p.trees[0].edges[1:])
    rep = verify_partition(Partition(p.ps, (clipped,) + p.trees[1:]))
    assert not rep
    assert rep.reason == "coverage"
    assert rep.witness["missing"] == [p.trees[0].edges[0]]
    assert rep.witness["extra"] == [] and rep.witness["duplicated"] == []


def test_verify_coverage_duplicate_edge():
    p = build_wheel_partition(builtin_tree("fig2i", 3), 3)
    doubled = GeomTree(p.ps, p.trees[0].edges + (p.trees[1].edges[0],))
    rep = verify_partition(Partition(p.ps, (doubled,) + p.trees[1:]))
    assert rep.reason == "coverage"
    assert rep.witness["duplicated"] == [p.trees[1].edges[0]]


def test_verify_spanning_failure():
    p = build_wheel_partition(builtin_tree("fig2i", 3), 3)
    t0 = set(p.trees[0].edges)
    t2 = set(p.trees[2].edges)
    bad0 = GeomTree(p.ps, tuple(t0 - {(2, 3)} | {(1, 2)}))
    bad2 = GeomTree(p.ps, tuple(t2 - {(1, 2)} | {(2, 3)}))
    rep = verify_partition(Partition(p.ps, (bad0, p.trees[1], bad2)))
    assert rep.reason == "spanning" and rep.witness == 0


def test_verify_names_a_later_spanning_failure_before_a_crossing():
    # on an order the pass rejects tree 0, which crosses but spans; the
    # fallback still checks spanning on every tree before it names a crossing
    p = build_wheel_partition(builtin_tree("doublestar", 4), 4)
    t0, t1, t2, t3 = (list(t.edges) for t in p.trees)

    def exchanged(i, j):
        return (GeomTree(p.ps, t0[:i] + t0[i + 1:] + [t1[j]]),
                GeomTree(p.ps, t1[:j] + t1[j + 1:] + [t0[i]]))

    bad0, bad1 = next(pair for pair in starmap(exchanged, product(range(7), repeat=2))
                      if all(map(is_spanning_tree, pair)) and not is_plane(pair[0]))
    crossing = Partition(p.ps, (bad0, bad1) + p.trees[2:])
    assert verify_partition(crossing).reason == "plane"
    later = Partition(p.ps, (bad0, bad1, GeomTree(p.ps, t2[1:]), GeomTree(p.ps, t3 + t2[:1])))
    rep = verify_partition(later)
    assert (rep.reason, rep.witness, rep.predicate) == ("spanning", 2, None)


def test_verify_names_a_non_int_end_as_extra():
    # a GeomTree refuses a pair with an end that is no int where it is
    # built, and names it, so the verifier never meets one and coverage's
    # "extra" is always empty; the in-range defects beside such a pair are
    # reported as before
    p = build_wheel_partition(builtin_tree("fig2i", 3), 3)
    t0, t1, t2 = (list(t.edges) for t in p.trees)
    assert (0, 4) in t0 and (2, 4) in t0 and (4, 5) in t2

    def report(*trees):
        rep = verify_partition(Partition(p.ps, tuple(GeomTree(p.ps, t) for t in trees)))
        return rep.reason, rep.witness

    def swap(edges, old, new):
        return [new if e == old else e for e in edges]

    def refused(ps, edges, bad):
        with pytest.raises(InvalidParameter, match=re.escape(f"edge {bad!r} is not two int ends")):
            GeomTree(ps, edges)

    for new in ((0, 4.5), (0, 4.0)):
        refused(p.ps, swap(t0, (0, 4), new), new)
    assert report([e for e in t0 if e != (0, 4)], t1, t2) == ("coverage", {
        "trees": 3, "missing": [(0, 4)], "extra": [], "duplicated": []})
    # past a tree the pass rejects (tree 0 lost (2, 4) to tree 1)
    short0 = [e for e in t0 if e != (2, 4)]
    refused(p.ps, swap(t2, (4, 5), (4, 5.5)), (4, 5.5))
    assert report(short0, t1 + [(2, 4)], t2) == ("spanning", 0)
    assert report(short0, t1 + [(2, 4)], [e for e in t2 if e != (4, 5)]) == (
        "coverage", {"trees": 3, "missing": [(4, 5)], "extra": [], "duplicated": []})
    # with no order: the pairwise path
    fig5 = figure_pointset("fig5")
    q = theorem2_partition(fig5, 0)
    a, b = q.trees[1].edges[0]
    refused(fig5, swap(q.trees[1].edges, (a, b), (a, b - 0.5)), (a, b - 0.5))
    # and cover_defect's listing, once its size test fails
    trees = ([e for e in t0 if e != (0, 4)], t1[1:], t2)
    assert cover_defect(p.ps, [GeomTree(p.ps, t) for t in trees]) == {
        "missing": [(0, 1), (0, 4)], "extra": [], "duplicated": []}


def test_verify_plane_failure_square_diagonals():
    ps = square()
    t0 = GeomTree(ps, ((0, 2), (1, 3), (0, 1)))
    t1 = GeomTree(ps, ((0, 3), (1, 2), (2, 3)))
    rep = verify_partition(Partition(ps, (t0, t1)))
    assert not rep
    assert rep.reason == "plane"
    assert rep.witness == (0, (0, 2), (1, 3))


def permuted_wheel4(tag: str) -> Partition:
    """A Wheel{4} partition with circle points 0 and 3 swapped."""
    p = build_wheel_partition(builtin_tree("doublestar", 4), 4)
    pts = list(p.ps.points)
    pts[0], pts[3] = pts[3], pts[0]
    ps = PointSet(tuple(pts), tag)
    return Partition(ps, tuple(GeomTree(ps, t.edges) for t in p.trees))


def test_verify_refutes_unearned_wheel_tag():
    # the wheel4 tag no longer matches the coordinates, so it must not
    # select index arithmetic: the verdict is the coordinates' verdict
    tagged = verify_partition(permuted_wheel4("wheel4"))
    general = verify_partition(permuted_wheel4("general"))
    assert not tagged and tagged.reason == "plane"
    assert tagged.witness == general.witness == (0, (0, 1), (2, 5))
    assert tagged.predicate == general.predicate == "pairwise"


def test_verify_reports_predicate():
    assert verify_partition(
        build_wheel_partition(builtin_tree("fig2i", 3), 3)).predicate == "wheel-index"
    convex = theorem2_partition(regular_gon(8), 1)
    assert verify_partition(convex).predicate == "convex-order"
    # a convex tag is not trusted either: these points are not in convex position
    dented = PointSet(convex.ps.points[:-1] + ((0.1, 0.05),), "convex")
    rep = verify_partition(Partition(dented, tuple(GeomTree(dented, t.edges)
                                                   for t in convex.trees)))
    assert rep.predicate == "pairwise"
    # square diagonals: a plane failure found on the convex order
    ps = square()
    rep = verify_partition(Partition(ps, (GeomTree(ps, ((0, 2), (1, 3), (0, 1))),
                                          GeomTree(ps, ((0, 3), (1, 2), (2, 3))))))
    assert rep.predicate == "convex-order" and rep.witness == (0, (0, 2), (1, 3))


def test_verify_predicate_none_before_planarity():
    p = build_wheel_partition(builtin_tree("fig2i", 3), 3)
    clipped = GeomTree(p.ps, p.trees[0].edges[1:])
    assert verify_partition(Partition(p.ps, (clipped,) + p.trees[1:])).predicate is None
    assert verify_partition(Partition(regular_gon(5), ())).predicate is None


def test_partition_refuses_trees_on_another_point_set():
    """verify_partition checks spanning on each tree's point set and cover
    and planarity on the partition's, so a Partition holds one point set:
    the same object, or an equal one."""
    p = build_wheel_partition(builtin_tree("fig2i", 3), 3)
    with pytest.raises(InvalidParameter, match="tree 0 is drawn on another point set"):
        Partition(p.ps, tuple(GeomTree(make_wheel(4), t.edges) for t in p.trees))
    with pytest.raises(InvalidParameter, match="tree 2 is drawn on another point set"):
        Partition(p.ps, p.trees[:2] + (GeomTree(make_wheel(4), p.trees[2].edges),))
    again = Partition(make_wheel(3), tuple(GeomTree(make_wheel(3), t.edges) for t in p.trees))
    assert verify_partition(again).ok


def test_verify_odd_point_count():
    ps = regular_gon(5)
    rep = verify_partition(Partition(ps, ()))
    assert rep.reason == "coverage" and "odd" in rep.witness


def test_analyze_then_verify_runs_each_check_once(monkeypatch):
    calls = {"cover": 0, "spanning": 0, "kernel": 0, "pairwise": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(verify_oracle, "cover_defect",
                        counted("cover", verify_oracle.cover_defect))
    monkeypatch.setattr(verify_oracle, "is_spanning_tree",
                        counted("spanning", verify_oracle.is_spanning_tree))
    monkeypatch.setattr(CyclicOrder, "plane_tree",
                        counted("kernel", CyclicOrder.plane_tree))
    monkeypatch.setattr(verify_oracle, "crossing_pair",
                        counted("pairwise", verify_oracle.crossing_pair))
    p = build_wheel_partition(builtin_tree("doublestar", 5), 5)
    analyze_wheel_partition(p)
    rep = verify_partition(p)
    assert rep.ok and rep.predicate == "wheel-index"
    assert calls == {"cover": 1, "spanning": 0, "kernel": 5, "pairwise": 0}
    assert verify_partition(p) is rep
    assert calls == {"cover": 1, "spanning": 0, "kernel": 5, "pairwise": 0}


def test_failed_report_is_kept_too():
    p = build_wheel_partition(builtin_tree("fig2i", 3), 3)
    bad = Partition(p.ps, (GeomTree(p.ps, p.trees[0].edges[1:]),) + p.trees[1:])
    rep = verify_partition(bad)
    assert rep.reason == "coverage" and verify_partition(bad) is rep


def test_built_and_parsed_partitions_hold_no_report():
    key = verify_oracle._REPORT_ATTR
    wheel = build_wheel_partition(builtin_tree("doublestar", 4), 4)
    built = [wheel,
             theorem2_partition(regular_gon(8), 1),
             theorem3_partition(regular_gon(8), 2),
             theorem4_partition(make_wheel(4), 2),
             parse_partition(emit_partition(wheel), wheel.ps)]
    for p in built:
        assert key not in p.__dict__
        rep = verify_partition(p)
        assert rep.ok and p.__dict__[key] is rep


def test_partition_keeps_trees_as_a_tuple():
    p = build_wheel_partition(builtin_tree("fig2i", 3), 3)
    again = Partition(p.ps, list(p.trees))
    assert isinstance(again.trees, tuple) and again == p


# ---------------------------------------------------------------------------
# observation bounds

def test_check_observation1_reports_splits():
    p = build_wheel_partition(builtin_tree("fig2i", 3), 3)
    rep = check_observation1(p.trees[1])
    assert rep.ok
    by_edge = {e: (a, ax) for e, a, ax in rep.witness}
    assert by_edge[(0, 3)] == ((4,), (1, 2, 5))


def test_check_observation1_bounds_every_chord():
    # the small-side bound is forced by wheel geometry: any chord leaves
    # at most n-2 points on its near side, the center always falls on
    # the far side
    for n in (3, 4, 5):
        ps = make_wheel(n)
        m = 2 * n - 1
        for a in range(m):
            for b in range(a + 1, m):
                rep = check_observation1(GeomTree(ps, ((a, b),)))
                assert rep.ok
                ((_, small, big),) = rep.witness
                assert len(small) <= n - 2
                assert len(big) >= n
                assert len(small) + len(big) == 2 * n - 2


# ---------------------------------------------------------------------------
# brute force enumeration

def test_wheel2_partitions():
    res = brute_force_partitions(make_wheel(2))
    assert len(res) == 6
    for part in res:
        assert len(part) == 2
        rep = verify_partition(Partition(make_wheel(2), tuple(
            GeomTree(make_wheel(2), t) for t in part)))
        assert rep.ok


def test_wheel3_partitions_exhaustive(wheel3, wheel3_oracle):
    assert len(wheel3_oracle) == 20
    assert len(set(wheel3_oracle)) == 20
    for part in wheel3_oracle:
        p = Partition(wheel3, tuple(GeomTree(wheel3, t) for t in part))
        assert verify_partition(p).ok


def test_wheel3_contains_constructions(wheel3, wheel3_oracle):
    canon = set(wheel3_oracle)
    for name in ("fig2i", "doublestar"):
        p = build_wheel_partition(builtin_tree(name, 3), 3)
        key = tuple(sorted(tuple(sorted(t.edges)) for t in p.trees))
        assert key in canon


def test_convex_hexagon_partitions():
    ps = regular_gon(6)
    res = brute_force_partitions(ps, limit=None)
    assert len(res) == 4
    for part in res:
        canons = {tree_canon(t) for t in part}
        assert len(canons) == 1
        for t in part:
            rep = classify(t)
            assert rep.caterpillar
            assert rep.symmetric is not None


def test_square_partitions():
    res = brute_force_partitions(square(), limit=None)
    # K_4 in convex position: the two diagonals must sit in different trees
    assert len(res) == 2
    for part in res:
        assert len(part) == 2
        assert sum((0, 2) in t for t in part) == 1
        assert sum((1, 3) in t for t in part) == 1
        assert not any((0, 2) in t and (1, 3) in t for t in part)


def test_limit_semantics():
    ps = make_wheel(3)
    assert len(brute_force_partitions(ps, limit=2)) == 2
    assert len(brute_force_partitions(ps, limit=50)) == 20
    some = brute_force_partitions(make_wheel(4), limit=3)
    assert len(some) == 3
    for part in some:
        p = Partition(make_wheel(4), tuple(GeomTree(make_wheel(4), t) for t in part))
        assert verify_partition(p).ok


def test_size_guards():
    with pytest.raises(TooLarge, match="n=5"):
        brute_force_partitions(make_wheel(5))
    assert len(brute_force_partitions(make_wheel(4), limit=None)) == 56
    with pytest.raises(OddPointCount):
        brute_force_partitions(regular_gon(5))


def test_oracle_and_witness_scan_run_no_kernel(monkeypatch):
    # the ground truth shares no code with the stack pass it checks, and
    # crossing_pair is the pairwise scan alone
    wheel4, gon8 = make_wheel(4), load_pointset("gon8")  # each builds its order

    def refuse(*args):
        raise AssertionError("the stack pass or an order lookup ran")

    monkeypatch.setattr(CyclicOrder, "plane_tree", refuse)
    monkeypatch.setattr(tree_taxonomy, "cyclic_order", refuse)
    monkeypatch.setattr(verify_oracle, "crossing_pair", refuse)
    assert not hasattr(CyclicOrder, "plane") and not hasattr(CyclicOrder, "plane_sorted")
    assert len(brute_force_partitions(wheel4, limit=None)) == 56
    assert len(brute_force_partitions(gon8, limit=None)) == 8
    crossing_pair = tree_taxonomy.crossing_pair
    assert crossing_pair(wheel4, [(0, 1), (2, 7), (1, 3), (0, 5), (4, 6)]) == ((2, 7), (1, 3))
    assert crossing_pair(wheel4, [(0, 1), (1, 2), (2, 7)]) is None
    assert crossing_pair(gon8, [(0, 1), (1, 2), (2, 6), (3, 7), (0, 4)]) == ((2, 6), (3, 7))
    assert crossing_pair(gon8, iter([(0, 1), (1, 2)])) is None


@pytest.mark.parametrize("limit", [None, 0, 1])
def test_n5_is_refused_at_any_limit(limit):
    with pytest.raises(TooLarge, match="n=5"):
        brute_force_partitions(make_wheel(5), limit=limit)


def reference_partitions(ps):
    """Every set of n disjoint plane spanning trees that covers E(K_2n),
    from all (2n - 1)-edge subsets: no search order, slots or pruning."""
    npts = len(ps)
    edges = list(combinations(range(npts), 2))
    trees = [frozenset(t) for t in combinations(edges, npts - 1)
             if len(g := nx.Graph(t)) == npts and nx.is_tree(g)
             and not any(segments_cross(e, f, ps) for e, f in combinations(t, 2))]

    def covers(rest):  # the tree holding the least uncovered edge, then the rest
        if not rest:
            yield ()
            return
        first = min(rest)
        for t in trees:
            if first in t and t <= rest:
                yield from ((t, *more) for more in covers(rest - t))

    return {tuple(sorted(tuple(sorted(t)) for t in part))
            for part in covers(frozenset(edges))}


def random_nonconvex(npts, seed):
    """npts integer points in general position, not in convex position."""
    rng = random.Random(seed)
    while True:
        pts = tuple((float(rng.randrange(20)), float(rng.randrange(20)))
                    for _ in range(npts))
        ps = PointSet(pts, "general")
        if len(set(pts)) == npts and collinear_triple(ps) is None and cyclic_order(ps) is None:
            return ps


@pytest.mark.parametrize("ps", [
    make_wheel(2), make_wheel(3), square(), regular_gon(6),
    PointSet(make_wheel(3).points, "general"),
    *(random_nonconvex(npts, seed) for npts in (4, 6) for seed in (1, 2)),
], ids=["wheel2", "wheel3", "square", "hexagon", "wheel3-general",
        "random4-1", "random4-2", "random6-1", "random6-2"])
def test_oracle_equals_reference(ps):
    found = brute_force_partitions(ps, limit=None)
    assert len(set(found)) == len(found)
    assert set(found) == reference_partitions(ps)
    for limit in (0, 1, 2, 5):
        assert brute_force_partitions(ps, limit=limit) == found[:limit]


@pytest.mark.parametrize("n, count", [(2, 6), (3, 20), (4, 56)])
def test_oracle_equals_builder_orbit(n, count):
    """Theorem 1 on Wheel{n} as an equality: the builder's partitions from
    every tree on 2n vertices and each of its p4_witness_paths (so every
    w-caterpillar), closed under the 2(2n - 1) rotations and reflections
    of the wheel (centre fixed), are exactly the oracle's partitions."""
    m = 2 * n - 1  # circle points 0 .. m - 1; m is the centre
    built = [build_wheel_partition(edges, n, four_path=path)
             for edges in (tuple(g.edges()) for g in nx.nonisomorphic_trees(2 * n))
             for _, path in p4_witness_paths(edges)]  # up to n = 4 it takes every one
    orbit = set()
    for p in built:
        for shift in range(m):
            for sign in (1, -1):
                f = [(sign * v + shift) % m for v in range(m)] + [m]
                moved = (sorted(tuple(sorted((f[a], f[b]))) for a, b in t.edges)
                         for t in p.trees)
                orbit.add(tuple(sorted(tuple(t) for t in moved)))
    assert orbit == set(brute_force_partitions(make_wheel(n), limit=None))
    assert len(orbit) == count


@pytest.mark.parametrize("m, count", [(6, 4), (8, 8)])
def test_convex_oracle_trees_are_symmetric(m, count):
    ps = regular_gon(m)
    found = brute_force_partitions(ps, limit=None)
    assert len(found) == count
    assert all(classify(GeomTree(ps, t)).symmetric is not None
               for part in found for t in part)


# ---------------------------------------------------------------------------
# independence from the builders

def test_verifier_and_halving_builder_import_no_wheel_builder():
    for module in (verify_oracle, halving_partition):
        tree = ast.parse(Path(module.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not any("wheel_partition" in name for name in imported), module.__name__


def test_brute_force_limit_must_not_be_negative():
    with pytest.raises(InvalidParameter, match="limit must be None or >= 0, got -1"):
        brute_force_partitions(make_wheel(2), limit=-1)
    assert brute_force_partitions(make_wheel(2), limit=0) == []


def test_an_end_that_does_not_compare_is_named():
    wheel = make_wheel(3)
    with pytest.raises(InvalidParameter, match=r"edge \('0', '4'\) is not two int ends"):
        GeomTree(wheel, [(0, 1), ("0", "4")])
    with pytest.raises(InvalidParameter, match=r"edge \(0, '4'\) is not two int ends"):
        GeomTree(wheel, [(0, "4")])


def test_is_plane_names_an_end_that_is_no_int():
    wheel, fig5 = make_wheel(3), figure_pointset("fig5")
    # on an order, and with none (the pairwise scan reads ends only in pairs)
    for ps, edges in ((wheel, [(0, 4.5)]), (wheel, [("0", "4")]), (fig5, [(0, 1), (2.0, 3)])):
        with pytest.raises(InvalidParameter, match=re.escape(f"edge {edges[-1]!r} is not")):
            is_plane(GeomTree(ps, edges))


def test_verify_reports_a_str_tree_as_extra():
    # a tree spelled in str ends, or holding an int pair out of range, is
    # refused where it is built, naming its first such pair; with an empty
    # tree in its place the verifier lists the pairs that are missing
    p = build_wheel_partition(builtin_tree("fig2i", 3), 3)
    t0, t1, t2 = (t.edges for t in p.trees)
    spelled = [(str(a), str(b)) for a, b in t0]
    with pytest.raises(InvalidParameter, match=re.escape(f"edge {spelled[0]!r} is not")):
        GeomTree(p.ps, spelled)
    with pytest.raises(InvalidParameter, match=re.escape("edge (0, 9) is not")):
        GeomTree(p.ps, [*t1[1:], (0, 9)])
    empty = GeomTree(p.ps, [])
    rep = verify_partition(Partition(p.ps, (empty, *p.trees[1:])))
    assert (rep.reason, rep.witness) == ("coverage", {
        "trees": 3, "missing": list(t0), "extra": [], "duplicated": []})
    rep = verify_partition(Partition(p.ps, (empty, GeomTree(p.ps, t1[1:]), p.trees[2])))
    assert rep.witness["missing"] == sorted([*t0, t1[0]])
