import math
import random
import re
from collections import namedtuple
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from planetrees import (GeomTree, InvalidParameter, NotATree, NotWheelConfig,
                        Partition, PointSet, StructureViolation,
                        analyze_wheel_partition, boundary_edges,
                        build_wheel_partition, check_observation1, classify,
                        is_plane, is_spanning_tree, make_wheel,
                        observation1_splits, radial_edges, rotate_tree,
                        segments_cross, theorem2_partition, theorem4_partition,
                        tree_canon, verify_partition, wheel_crossing)
from planetrees import geom_core
from planetrees.geom_core import cyclic_order, edge
from planetrees.presets import builtin_tree, figure_pointset
from planetrees.tree_taxonomy import (TreeIndex, adjacency, as_edges,
                                      cover_defect, crossing_pair,
                                      is_caterpillar_edges,
                                      p4_witness_paths, preferred_p4_witness,
                                      rooted_canon, rooted_iso_map,
                                      rotate_labels, turned_pairs,
                                      turned_partition)

from conftest import random_convex, random_plane_convex_tree, regular_gon

try:
    import numpy
except ImportError:
    numpy = None


def path_edges(k):
    return tuple((i, i + 1) for i in range(k - 1))


def test_classify_p4():
    rep = classify(path_edges(4))
    assert rep.is_path and rep.caterpillar and rep.w_caterpillar
    assert rep.double_star == (1, 1)
    assert rep.s_k == (0, 1, 1)
    assert rep.p4_symmetric is not None and rep.p4_symmetric.type is None
    assert rep.symmetric is not None


def test_classify_p6():
    rep = classify(path_edges(6))
    assert rep.is_path and rep.caterpillar
    assert rep.s_k == (2, 1, 1)
    assert rep.double_star is None
    assert rep.p4_symmetric is None         # deletion leaves trivial components
    assert not rep.w_caterpillar


def test_classify_star():
    rep = classify(((0, 1), (0, 2), (0, 3), (0, 4)))
    assert rep.is_star and rep.caterpillar and not rep.is_path
    assert rep.double_star is None and rep.s_k is None


def test_classify_double_star():
    edges = [(0, 1)] + [(0, i) for i in (2, 3, 4)] + [(1, i) for i in (5, 6, 7)]
    rep = classify(edges)
    assert rep.double_star == (3, 3)
    assert rep.s_k == (0, 3, 3)
    assert rep.caterpillar and not rep.is_path


def test_classify_s2_33():
    # two degree-2 vertices inserted into the central edge of S(3,3)
    edges = [(0, 8), (8, 9), (9, 1)]
    edges += [(0, i) for i in (2, 3, 4)] + [(1, i) for i in (5, 6, 7)]
    rep = classify(edges)
    assert rep.s_k == (2, 3, 3)
    assert rep.double_star is None
    assert rep.caterpillar


def test_classify_chair():
    rep = classify(builtin_tree("fig2i", 3))
    assert rep.caterpillar and rep.w_caterpillar and not rep.is_path
    assert rep.p4_symmetric is not None
    u1, u2, u3, u4 = rep.p4_symmetric.path
    iso = rep.p4_symmetric.iso_witness
    assert iso[u3] == (u2 if rep.p4_symmetric.type == 1 else u4)


def test_classify_rejects_non_trees():
    with pytest.raises(NotATree):
        classify(((0, 1), (1, 2), (0, 2)))
    with pytest.raises(NotATree):
        classify(((0, 1), (2, 3)))


def test_w_caterpillar_counts():
    expected = {2: 1, 3: 2, 4: 4, 5: 8, 6: 16}
    for n, want in expected.items():
        count = sum(1 for g in nx.nonisomorphic_trees(2 * n)
                    if classify(tuple(g.edges())).w_caterpillar)
        assert count == want, (n, count)


def test_w_caterpillar_needs_caterpillar_after_deletion():
    # spider on 7 vertices: three legs of length 2 from a hub
    spider = ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6))
    assert not is_caterpillar_edges(spider)
    assert not classify(spider).w_caterpillar


def test_tree_canon_is_label_invariant():
    e1 = ((0, 1), (1, 2), (2, 3), (2, 4))
    e2 = ((7, 3), (3, 9), (9, 0), (9, 5))   # same shape, different labels
    assert tree_canon(e1) == tree_canon(e2)
    assert tree_canon(e1) != tree_canon(path_edges(5))


def test_geomtree_normalizes_edges(wheel3):
    t = GeomTree(wheel3, ((4, 0), (5, 1)))
    assert t.edges == ((0, 4), (1, 5))


def test_geomtree_rejects_loop_edge(wheel3):
    for edges in (((3, 3),), ((0, 1), (3, 3), (2, 1))):
        with pytest.raises(InvalidParameter) as info:
            GeomTree(wheel3, edges)
        assert str(info.value) == "degenerate edge (3, 3)"


def test_spanning_and_plane_on_wheel(wheel3):
    t = GeomTree(wheel3, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)))
    assert is_spanning_tree(t)
    assert is_plane(t)
    crossing = GeomTree(wheel3, ((0, 2), (1, 3), (0, 1), (3, 4), (4, 5)))
    assert not is_plane(crossing)
    assert not is_spanning_tree(GeomTree(wheel3, ((0, 1), (0, 2), (1, 2), (3, 4), (4, 5))))


def test_boundary_and_radial_edges(wheel3):
    t = GeomTree(wheel3, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)))
    assert boundary_edges(t) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert radial_edges(t) == [(4, 5)]
    with pytest.raises(NotWheelConfig):
        radial_edges(GeomTree(figure_pointset("fig5"), ((0, 1),)))


def test_boundary_edges_general_positions():
    fig5 = figure_pointset("fig5")
    # hull of fig5 is [2, 5, 6, 1]; only hull-consecutive pairs count
    t = GeomTree(fig5, ((2, 5), (5, 6), (1, 2), (0, 1), (3, 4), (4, 6), (0, 7)))
    assert boundary_edges(t) == [(1, 2), (2, 5), (5, 6)]


def swapped_wheel4() -> PointSet:
    """make_wheel(4) with circle points 0 and 3 swapped, still tagged wheel4."""
    pts = list(make_wheel(4).points)
    pts[0], pts[3] = pts[3], pts[0]
    return PointSet(tuple(pts), "wheel4")


def test_boundary_edges_ignore_unearned_wheel_tag():
    ps = swapped_wheel4()
    assert cyclic_order(ps) is None
    # index 0 now sits between 2 and 4 on the hull, index 3 between 6 and 1
    t = GeomTree(ps, ((0, 1), (0, 2), (1, 3), (3, 4)))
    assert boundary_edges(t) == [(0, 2), (1, 3)]


@pytest.mark.parametrize("fact", [observation1_splits, check_observation1,
                                  radial_edges, lambda t: rotate_tree(t, 1)])
def test_wheel_facts_refute_unearned_wheel_tag(fact):
    t = GeomTree(swapped_wheel4(), ((0, 1), (0, 7), (1, 5)))
    with pytest.raises(NotWheelConfig, match="refuted by the coordinates"):
        fact(t)
    fact(GeomTree(make_wheel(4), t.edges))  # the same tree on the wheel itself


def test_boundary_edges_convex_order():
    ps = regular_gon(7)
    t = GeomTree(ps, ((0, 6), (1, 2), (2, 5), (3, 4), (4, 6), (0, 3)))
    assert cyclic_order(ps).kind == "convex-order"
    assert boundary_edges(t) == [(0, 6), (1, 2), (3, 4)]


def _hull_edges_by_formula(order, edges):
    """CyclicOrder.hull_edges by range tests and circle position arithmetic."""
    pos, m, npts = order.pos, order.size, len(order.pos)
    return [(a, b) for a, b in edges
            if 0 <= a < npts and 0 <= b < npts and pos[a] >= 0 and pos[b] >= 0
            and (pos[b] - pos[a]) % m in (1, m - 1)]


def _random_edge_list(npts, rng):
    """Edges in either orientation, with repeats, loops and the indices -1
    and npts among them (on a wheel, npts - 1 is the centre)."""
    ends = [-1, npts, npts - 1] + list(range(npts))
    return [(rng.choice(ends), rng.choice(ends)) for _ in range(rng.randrange(3 * npts))]


def _point_pairs(edges, npts):
    """The pairs of edges that a GeomTree on npts points takes: two
    distinct ends in 0..npts-1."""
    return [(a, b) for a, b in edges if a != b and 0 <= min(a, b) and max(a, b) < npts]


def test_hull_edges_match_the_position_formula():
    rng = random.Random(19)
    sets = [make_wheel(n) for n in range(2, 12)]
    sets += [make_wheel(n, seed_angle=rng.uniform(0, 2 * math.pi)) for n in (2, 5, 9)]
    sets += [regular_gon(m) for m in (3, 4, 7, 12)]
    sets += [random_convex(m, rng) for m in (3, 5, 8, 13)]
    for ps in sets:
        order = cyclic_order(ps)
        for _ in range(30):
            edges = _random_edge_list(len(ps), rng)
            assert order.hull_edges(edges) == _hull_edges_by_formula(order, edges), edges
            tree = GeomTree(ps, _point_pairs(edges, len(ps)))
            assert boundary_edges(tree) == _hull_edges_by_formula(order, tree.edges)
    # an unearned wheel tag has no order: boundary_edges takes the hull's pairs
    ps = swapped_wheel4()
    hull = [3, 1, 2, 0, 4, 5, 6]  # make_wheel(4)'s circle with 0 and 3 swapped
    pairs = {frozenset(p) for p in zip(hull, hull[1:] + hull[:1])}
    for _ in range(30):
        tree = GeomTree(ps, _point_pairs(_random_edge_list(len(ps), rng), len(ps)))
        assert boundary_edges(tree) == [e for e in tree.edges if frozenset(e) in pairs]


def test_wheel_tag_needs_centre_on_long_side():
    # the centre moved next to the edge v0 v1 is still inside the circle,
    # but on the short side of the near-diameter v6 v1
    base = make_wheel(4)
    (x0, y0), (x1, y1) = base.points[:2]
    pts = base.points[:7] + ((0.45 * (x0 + x1), 0.45 * (y0 + y1)),)
    ps = PointSet(pts, "wheel4")
    assert cyclic_order(ps) is None
    # the spoke to v0 now stays inside the cap that v6 v1 cuts off
    assert not is_plane(GeomTree(base, ((1, 6), (0, 7))))
    assert is_plane(GeomTree(ps, ((1, 6), (0, 7))))


def test_is_plane_refutes_unearned_wheel_tag():
    p = build_wheel_partition(builtin_tree("doublestar", 4), 4)
    ps = swapped_wheel4()
    assert is_plane(p.trees[0])
    assert not is_plane(GeomTree(ps, p.trees[0].edges))


def pairwise_crossing(ps, edges, wheel):
    """The crossing scan crossing_pair must agree with: first pair in
    combinations order, index arithmetic on a wheel."""
    for e1, e2 in combinations(edges, 2):
        if wheel_crossing(e1, e2, wheel) if wheel else segments_cross(e1, e2, ps):
            return (e1, e2)
    return None


def random_edge_sets(m, plane_trees, rng, count):
    """Random subsets of K_m, plus plane trees with and without one extra edge."""
    every = list(combinations(range(m), 2))
    for _ in range(count):
        yield rng.sample(every, rng.randint(0, min(len(every), m)))
        tree = list(rng.choice(plane_trees))
        rng.shuffle(tree)
        yield tree
        yield tree + [rng.choice(every)]


def test_crossing_pair_matches_pairwise_on_wheels():
    rng = random.Random(4)
    for n in range(2, 10):
        for _ in range(4):
            ps = make_wheel(n, seed_angle=rng.uniform(-math.pi, math.pi))
            assert cyclic_order(ps).kind == "wheel-index"
            trees = [t.edges for t in build_wheel_partition(
                builtin_tree("doublestar", n), n).trees]
            for edges in random_edge_sets(2 * n, trees, rng, 25):
                want = pairwise_crossing(ps, edges, n)
                assert crossing_pair(ps, edges) == want
                t = GeomTree(ps, edges)
                assert is_plane(t) is (want is None)
                assert cyclic_order(ps).plane_tree(t.edges)[0] is (want is None)


def test_plane_matches_pairwise_on_single_spoke_wheel_trees():
    # every other chord added to each one-spoke tree, and alone beside its
    # spoke: the kernel's comparison path, with the spoke on either side
    for n in range(3, 8):
        ps, m = make_wheel(n), 2 * n - 1
        order = cyclic_order(ps)
        partitions = [theorem4_partition(ps, r) for r in range(2, n)]
        partitions.append(build_wheel_partition(builtin_tree("doublestar", n), n))
        for t in (t for p in partitions for t in p.trees):
            spokes = [e for e in t.edges if e[1] == m]
            if len(spokes) != 1:
                continue
            spoke = spokes[0]
            for chord in combinations(range(m), 2):
                if chord in t.edges:
                    continue
                for edges in (t.edges + (chord,), (spoke, chord)):
                    want = pairwise_crossing(ps, edges, n) is None
                    drawn = GeomTree(ps, edges)
                    assert is_plane(drawn) is want, (edges, want)
                    assert order.plane_tree(drawn.edges)[0] is want, (edges, want)


def test_crossing_pair_matches_pairwise_on_convex_sets():
    rng = random.Random(5)
    for m in range(3, 15):
        for _ in range(3):
            base = random_convex(m, rng).points
            perm = list(range(m))
            rng.shuffle(perm)
            ps = PointSet(tuple(base[i] for i in perm), "general")
            assert cyclic_order(ps).kind == "convex-order"
            # plane trees in label space, mapped onto the shuffled labels
            where = {old: new for new, old in enumerate(perm)}
            trees = [[(where[a], where[b]) for a, b in random_plane_convex_tree(m, rng)]
                     for _ in range(3)]
            for edges in random_edge_sets(m, trees, rng, 25):
                want = pairwise_crossing(ps, edges, None)
                assert crossing_pair(ps, edges) == want
                t = GeomTree(ps, edges)
                assert is_plane(t) is (want is None)
                assert cyclic_order(ps).plane_tree(t.edges)[0] is (want is None)


def test_crossing_pair_matches_pairwise_without_order():
    rng = random.Random(6)
    fig5 = figure_pointset("fig5")
    assert cyclic_order(fig5) is None
    every = list(combinations(range(len(fig5)), 2))
    for _ in range(200):
        edges = rng.sample(every, rng.randint(0, len(fig5)))
        assert crossing_pair(fig5, edges) == pairwise_crossing(fig5, edges, None)


def test_crossing_pair_keeps_pairwise_errors():
    with pytest.raises(InvalidParameter):
        crossing_pair(make_wheel(3), [(0, 1), (2, 9)])
    with pytest.raises(InvalidParameter):
        crossing_pair(regular_gon(6), [(0, 1), (2, 9)])


def test_is_plane_leaves_an_index_past_the_points_to_the_scan():
    # a GeomTree refuses an end outside 0..N-1 where it is built, so no
    # tree that is_plane reads holds one; a bare edge list still reaches
    # the pairwise scan, which raises its InvalidParameter, or returns the
    # pair that crosses before the bad edge
    for ps in (make_wheel(3), regular_gon(6)):
        assert cyclic_order(ps) is not None
        for edges, bad in ((((0, 1), (2, 9)), (2, 9)), (((0, 1), (-1, 2)), (-1, 2)),
                           (((0, 6), (1, 2)), (0, 6)), (((0, 2), (1, 3), (4, 9)), (4, 9)),
                           (((0, 9),), (0, 9))):
            with pytest.raises(InvalidParameter, match=re.escape(f"edge {bad!r} is not")):
                GeomTree(ps, edges)
        for edges in (((0, 1), (2, 9)), ((0, 1), (-1, 2)), ((0, 6), (1, 2))):
            with pytest.raises(InvalidParameter, match="out of range"):
                crossing_pair(ps, edges)
        assert crossing_pair(ps, ((0, 2), (1, 3), (4, 9))) == ((0, 2), (1, 3))
        assert crossing_pair(ps, ((0, 9),)) is None  # one edge: no pair to test
        assert not is_plane(GeomTree(ps, ((0, 2), (1, 3), (4, 5))))
        assert is_plane(GeomTree(ps, ((0, 5),)))


def check_wheel_partition():
    built = build_wheel_partition(builtin_tree("fig2i", 3), 3)
    ps = PointSet(built.ps.points, "wheel3")  # a copy whose tag must be checked
    p = Partition(ps, tuple(GeomTree(ps, t.edges) for t in built.trees))
    analyze_wheel_partition(p)
    verify_partition(p)
    return ps


def check_convex_partition():
    p = theorem2_partition(regular_gon(10), 1)
    verify_partition(p)
    for t in p.trees:
        boundary_edges(t)
    return p.ps


@pytest.mark.parametrize("run", [check_wheel_partition, check_convex_partition])
def test_cyclic_order_built_once_per_point_set(monkeypatch, run):
    # make_wheel's own set earns its order through the same builder, unless
    # an earlier test left it cached: count builds per set, not in all
    calls = []
    build = geom_core._build_order

    def counted(ps):
        calls.append(ps)
        return build(ps)

    monkeypatch.setattr(geom_core, "_build_order", counted)
    ps = run()
    assert len({id(c) for c in calls}) == len(calls)
    assert sum(c is ps for c in calls) == 1


def test_classify_works_on_geomtrees(wheel3):
    t = GeomTree(wheel3, builtin_tree("fig2i", 3))
    assert classify(t).w_caterpillar


# ---------------------------------------------------------------------------
# the TreeIndex kernel against a brute-force copy of the definition

def _bf_component(adj, start, skip):
    seen, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen and frozenset((u, v)) not in skip:
                seen.add(u)
                stack.append(u)
    return seen


def _bf_canon(adj, v, parent, skip):
    return "(" + "".join(sorted(_bf_canon(adj, u, v, skip) for u in adj[v]
                                if u != parent and frozenset((u, v)) not in skip)) + ")"


def bf_p4_witnesses(edges):
    """Every (type, 4-path, component of u3): delete the three path edges,
    BFS the components, compare rooted canon strings."""
    adj = adjacency(edges)
    found = []
    for u1 in adj:
        if len(adj[u1]) != 1:
            continue
        (u2,) = adj[u1]
        for u3 in adj[u2] - {u1}:
            for u4 in adj[u3] - {u1, u2}:
                skip = {frozenset(e) for e in ((u1, u2), (u2, u3), (u3, u4))}
                c2, c3, c4 = (_bf_component(adj, u, skip) for u in (u2, u3, u4))
                path = (u1, u2, u3, u4)
                if len(adj) == 4:
                    if len(c2) == len(c3) == len(c4) == 1:
                        found.append((None, path, c3))
                    continue
                canon3 = _bf_canon(adj, u3, None, skip)
                if (len(c4) == 1 and len(c2) == len(c3) > 1
                        and canon3 == _bf_canon(adj, u2, None, skip)):
                    found.append((1, path, c3))
                if (len(c2) == 1 and len(c4) == len(c3) > 1
                        and canon3 == _bf_canon(adj, u4, None, skip)):
                    found.append((2, path, c3))
    return found


def bf_symmetric_edges(edges):
    adj = adjacency(edges)
    out = []
    for v, w in edges:
        skip = {frozenset((v, w))}
        if _bf_canon(adj, v, None, skip) == _bf_canon(adj, w, None, skip):
            out.append(((v, w), _bf_component(adj, v, skip), _bf_component(adj, w, skip)))
    return out


def bf_rank(edges, witness):
    typ, path, _ = witness
    compatible = (is_caterpillar_edges(edges)
                  or is_caterpillar_edges(e for e in edges if path[0] not in e))
    return (not compatible, typ == 2, path)


def assert_iso(edges, iso, domain, image, root, partner):
    """iso is a bijection domain -> image, root -> partner, edges onto edges."""
    es = set(edges)
    assert set(iso) == domain and set(iso.values()) == image
    assert iso[root] == partner
    inner = [(a, b) for a, b in edges if a in domain and b in domain]
    assert all(tuple(sorted((iso[a], iso[b]))) in es for a, b in inner)
    assert len(inner) == len(domain) - 1


def shuffled_trees(kmax, rng):
    for k in range(2, kmax + 1):
        for g in nx.nonisomorphic_trees(k):
            label = list(range(100, 100 + k))
            rng.shuffle(label)
            yield as_edges((label[a], label[b]) for a, b in g.edges())


def test_kernel_matches_brute_force_on_all_small_trees():
    rng = random.Random(7)
    for edges in shuffled_trees(12, rng):
        adj = adjacency(edges)
        brute = bf_p4_witnesses(edges)
        assert p4_witness_paths(edges) == sorted(
            ((typ, path) for typ, path, _ in brute), key=lambda w: w[1]), edges

        preferred = preferred_p4_witness(edges)
        assert classify(edges).w_caterpillar == any(not bf_rank(edges, w)[0] for w in brute)
        if not brute:
            assert preferred is None
        else:
            typ, path, comp = min(brute, key=lambda w: bf_rank(edges, w))
            assert (preferred.type, preferred.path) == (typ, path), edges
            u1, u2, u3, u4 = path
            partner = u4 if typ == 2 else u2
            skip = {frozenset(e) for e in ((u1, u2), (u2, u3), (u3, u4))}
            image = _bf_component(adj, partner, skip)
            assert_iso(edges, preferred.iso_witness, comp, image, u3, partner)

        index = TreeIndex(edges)
        for u1 in (v for v, nb in adj.items() if len(nb) == 1):
            (u2,) = adj[u1]
            for u3 in adj[u2] - {u1}:
                assert index.compatible((u1, u2, u3, None)) == (
                    is_caterpillar_edges(edges)
                    or is_caterpillar_edges(e for e in edges if u1 not in e))

        sym = classify(edges).symmetric
        brute_sym = bf_symmetric_edges(edges)
        assert (sym is not None) == bool(brute_sym), edges
        if sym is not None:
            (e, side_v, side_w), = brute_sym
            assert sym.edge == e
            assert_iso(edges, sym.iso_witness, side_v, side_w, *e)


def test_tree_canon_separates_small_trees():
    rng = random.Random(11)
    for k in range(2, 12):
        trees = [tuple(g.edges()) for g in nx.nonisomorphic_trees(k)]
        canons = [tree_canon(t) for t in trees]
        assert len(set(canons)) == len(trees), k
        for t, canon in zip(trees, canons):
            label = list(range(k))
            rng.shuffle(label)
            assert tree_canon([(label[a], label[b]) for a, b in t]) == canon


def test_designated_path_must_be_a_witness():
    chair = builtin_tree("fig2i", 3)
    for typ, path in p4_witness_paths(chair):
        w = preferred_p4_witness(chair, list(path))
        assert (w.type, w.path) == (typ, path)
    assert preferred_p4_witness(chair, (0, 4, 1, 5)) is None


def _index_by_sums(edges):
    """size and canon id of every directed edge, as TreeIndex once built
    them: a sum and a sort of the children at every vertex, bottom-up from
    a DFS, then a rerooting pass with the rest of each vertex re-sorted."""
    adj = adjacency(edges)
    ids, size, canon = {}, {}, {}

    def id_of(kids):
        return ids.setdefault(tuple(sorted(kids)), len(ids))

    root = edges[0][0]
    parent, order = {root: root}, [root]
    for v in order:
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    for v in reversed(order[1:]):
        p = parent[v]
        size[p, v] = 1 + sum(size[v, u] for u in adj[v] if u != p)
        canon[p, v] = id_of(canon[v, u] for u in adj[v] if u != p)
    for v in order:
        for c in adj[v]:
            if parent[c] == v:
                canon[c, v] = id_of(canon[v, u] for u in adj[v] if u != c)
                size[c, v] = len(adj) - size[v, c]
    return size, canon


def _classes(canon):
    """The directed edges grouped by canon id."""
    groups = {}
    for e, i in canon.items():
        groups.setdefault(i, set()).add(e)
    return {frozenset(g) for g in groups.values()}


def test_tree_index_matches_sums_and_sorts():
    rng = random.Random(23)
    trees = [path_edges(k) for k in range(2, 30)]
    trees += [tuple((0, i) for i in range(1, k)) for k in range(3, 30)]  # stars
    trees += [((0, 1),) + tuple((0, i) for i in range(2, 2 + a))
              + tuple((1, i) for i in range(2 + a, 2 + a + b))
              for a in range(6) for b in range(6)]  # double stars
    trees += [tuple((v, rng.randrange(v)) for v in range(1, k))
              for k in range(2, 60) for _ in range(5)]
    for t in trees:
        label = list(range(len(t) + 1))
        rng.shuffle(label)
        edges = as_edges([(label[a], label[b]) for a, b in t])
        index = TreeIndex(edges)
        size, canon = _index_by_sums(edges)
        # every directed side, read in a random order through the memo
        directed = list(size)
        rng.shuffle(directed)
        sides = {e: index.side(*e) for e in directed}
        assert {e: s for e, (s, _) in sides.items()} == size, edges
        got = {e: i for e, (_, i) in sides.items()}
        assert _classes(got) == _classes(canon), edges
        assert all(index.shapes[i] == tuple(sorted(index.side(v, w)[1] for w in index.adj[v]
                                                   if w != u))
                   for (u, v), i in got.items())
        far = next(((u, v) for u in index.adj for v in index.adj
                    if u != v and (u, v) not in size), None)
        if far is not None:  # a pair that is no edge has no side
            with pytest.raises(KeyError):
                index.side(*far)


def _reference_iso(adj, canon, a, b, cut):
    """rooted_iso_map on _index_by_sums' canon ids: children paired in
    order of (id, label), None when the roots' child ids differ."""
    def kids(v, drop):
        return sorted((canon[v, u], u) for u in adj[v] if u not in drop)

    if [i for i, _ in kids(a, cut)] != [i for i, _ in kids(b, cut)]:
        return None
    out, stack = {a: b}, [(x, a, y, b) for (_, x), (_, y) in zip(kids(a, cut), kids(b, cut))]
    while stack:
        x, px, y, py = stack.pop()
        out[x] = y
        stack.extend((u, x, w, y) for (_, u), (_, w) in zip(kids(x, (px,)), kids(y, (py,))))
    return out


def _spelled(adj, root):
    """The AHU string of the tree rooted at root, spelled vertex by vertex."""
    parent, order = {root: None}, [root]
    for v in order:
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    text = {}
    for v in reversed(order):
        text[v] = "(" + "".join(sorted(text[u] for u in adj[v] if u != parent[v])) + ")"
    return text[root]


def _reference_kernel(edges):
    """p4_witness_paths, preferred_p4_witness (type, path, iso map), the
    symmetric witness and tree_canon as the rerooting kernel found them:
    every directed side from _index_by_sums, Type-2 witnesses searched at
    every vertex, every centroid spelled."""
    adj = adjacency(edges)
    n = len(adj)
    size, canon = _index_by_sums(edges)

    def kid_ids(v, drop):
        return sorted(canon[v, u] for u in adj[v] if u not in drop)

    groups = []
    sym = next((e for e in edges if canon[e] == canon[e[::-1]]), None)
    if sym is not None and len(adj[sym[0]]) >= 3:
        for u2, u3 in (sym, sym[::-1]):
            u1s = sorted(u for u in adj[u2] if len(adj[u]) == 1)
            u4s = sorted(u for u in adj[u3] if len(adj[u]) == 1)
            if u1s:
                groups.append((1, u1s, u2, u3, u4s))
    if n % 2 == 0:
        for u3, nb in adj.items():
            for u4 in nb:
                for u2 in nb:
                    if (u2 != u4 and size[u3, u2] == 2 and size[u3, u4] == n // 2 - 1
                            and kid_ids(u3, (u2, u4)) == kid_ids(u4, (u3,))):
                        (u1,) = adj[u2] - {u3}
                        groups.append((2 if n > 4 else None, [u1], u2, u3, [u4]))
    paths = sorted(((typ, (a, u2, u3, b)) for typ, u1s, u2, u3, u4s in groups
                    for a in u1s for b in u4s), key=lambda w: w[1])

    def rank(group):
        typ, u1s, u2, u3, u4s = group
        cand = (u1s[0], u2, u3, u4s[0])
        compatible = (is_caterpillar_edges(edges)
                      or is_caterpillar_edges(e for e in edges if cand[0] not in e))
        return (not compatible, typ == 2, cand), typ

    preferred = None
    if groups:
        (_, _, cand), typ = min(map(rank, groups))
        partner = cand[3] if typ == 2 else cand[1]
        preferred = (typ, cand, _reference_iso(adj, canon, cand[2], partner, cand))

    canon_text = min(_spelled(adj, c) for c, nb in adj.items()
                     if max(size[c, u] for u in nb) <= n // 2)
    symmetric = None if sym is None else (sym, _reference_iso(adj, canon, *sym, sym))
    return paths, preferred, symmetric, canon_text


def _joined_copies(parent, rng):
    """A tree A on 0..k-1 (parent[v] < v, rooted at 0), its copy B on
    k..2k-1 and the 4-path u1 u2 u3 u4 joining them at their roots, for
    Type 1 (u1 at B's root, u4 at A's) or Type 2 (u2 a twig of A's root,
    u4 = B's root), chosen at random."""
    k = len(parent) + 1
    edges = [e for v in range(1, k) for e in ((parent[v - 1], v), (k + parent[v - 1], k + v))]
    if rng.random() < 0.5:
        return edges + [(k, 0), (2 * k, k), (2 * k + 1, 0)]
    return edges + [(0, k), (0, 2 * k), (2 * k, 2 * k + 1)]


def _caterpillar_parents(k, frac, rng):
    """A caterpillar on k vertices, rooted at a spine end, whose spine has
    1 + frac (k - 1) vertices; the rest are legs on random spine vertices."""
    spine = 1 + round(frac * (k - 1))
    return list(range(spine - 1)) + [rng.randrange(spine) for _ in range(spine, k)]


def test_kernel_matches_the_rerooting_reference():
    rng = random.Random(231)
    trees = [tuple((v, rng.randrange(v)) for v in range(1, k))
             for k in rng.sample(range(2, 201), 60) + list(range(2, 40))]
    # w-caterpillars, and copies of random trees (mostly no caterpillars)
    trees += [_joined_copies(_caterpillar_parents(k, frac, rng), rng)
              for k in (1, 2, 3, 4, 7, 12, 29, 63, 99)
              for frac in (0, 0.25, 0.5, 0.75, 1) for _ in range(3)]
    trees += [_joined_copies([rng.randrange(v) for v in range(1, k)], rng)
              for k in rng.sample(range(1, 100), 30)]
    trees += [((0, 1),) + tuple((0, i) for i in range(2, 2 + a))
              + tuple((1, i) for i in range(2 + a, 2 + a + b))
              for a, b in [(0, 0), (1, 1), (2, 2), (1, 3), (49, 49), (98, 98), (60, 70)]]
    trees += [path_edges(k) for k in (2, 3, 4, 5, 6, 7, 99, 100, 200)]
    for t in trees:
        label = rng.sample(range(3 * len(t) + 3), len(t) + 1)
        edges = as_edges([(label[a], label[b]) for a, b in t])
        paths, preferred, symmetric, canon_text = _reference_kernel(edges)
        index = TreeIndex(edges)
        assert p4_witness_paths(index) == paths, edges
        got = preferred_p4_witness(index)
        assert (None if got is None else (got.type, got.path, got.iso_witness)) == preferred, edges
        sym = classify(edges).symmetric
        assert (None if sym is None else (sym.edge, sym.iso_witness)) == symmetric, edges
        assert tree_canon(index) == canon_text, edges


def test_rooted_questions_at_any_root():
    # rooted_canon and rooted_iso_map at roots away from the centroid read
    # the sides that face it; the reference reads every side from the sums
    rng = random.Random(232)
    trees = [tuple((v, rng.randrange(v)) for v in range(1, k)) for k in range(2, 40)]
    trees += [_joined_copies([rng.randrange(v) for v in range(1, k)], rng) for k in range(1, 30)]
    trees += [path_edges(k) for k in (2, 5, 6, 31)]
    for t in trees:
        edges = as_edges(t)
        adj = adjacency(edges)
        _, canon = _index_by_sums(edges)
        index = TreeIndex(edges)
        roots = rng.sample(sorted(adj), min(len(adj), 8))
        for a in roots:
            assert rooted_canon(index, a) == _spelled(adj, a), (edges, a)
            for b in roots:
                assert rooted_iso_map(index, a, b, ()) == _reference_iso(adj, canon, a, b, ()), (
                    edges, a, b)


def test_tree_index_rejects_non_trees():
    for bad in ((), ((0, 1), (1, 2), (0, 2)), ((0, 1), (0, 1)), ((0, 1), (2, 3))):
        with pytest.raises(NotATree):
            TreeIndex(as_edges(bad))


# ---------------------------------------------------------------------------
# deep trees: nothing recurses

def test_tree_canon_on_a_long_path():
    canon = tree_canon(path_edges(1500))
    assert len(canon) == 2 * 1500 and canon.startswith("((")


def test_classify_on_a_long_path():
    rep = classify(path_edges(3000))
    assert rep.is_path and rep.caterpillar and rep.s_k == (2996, 1, 1)
    assert rep.p4_symmetric is None and not rep.w_caterpillar
    assert rep.symmetric is not None and rep.symmetric.edge == (1499, 1500)
    assert rep.symmetric.iso_witness[0] == 2999


def test_kernel_at_depth_1e5():
    n = 100_000
    index = TreeIndex(path_edges(n))
    deepest = index.side(0, 1)  # the whole path less an end, facing c
    assert deepest[0] == n - 1 and index.side(n - 1, n - 2) == deepest
    rep = classify(path_edges(n))
    assert rep.is_path and rep.symmetric.edge == (n // 2 - 1, n // 2)
    k = 50_000  # A is the path 0..k-1, B the path k..2k-1
    edges = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    edges += [(2 * k, k), (k, 0), (0, 2 * k + 1)]
    index = TreeIndex(as_edges(edges))
    assert index.side(k - 1, k - 2)[0] == 2 * k + 1
    rep = classify(edges)
    assert rep.w_caterpillar and rep.p4_symmetric.path == (2 * k, k, 0, 2 * k + 1)


# ---------------------------------------------------------------------------
# the partition model: one cover check, one spine walker

def sorted_multiset_defect(npts, trees):
    """Coverage defect by sorting the edge multiset against all pairs."""
    want = sorted(combinations(range(npts), 2))
    got = sorted(e for t in trees for e in t.edges)
    return {"missing": sorted(set(want) - set(got)),
            "extra": sorted(set(got) - set(want)),
            "duplicated": sorted(e for e in set(got) if got.count(e) > 1)}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cover_defect_matches_sorted_multiset(data):
    npts = data.draw(st.integers(min_value=2, max_value=10))
    ps = regular_gon(npts)
    edges = list(combinations(range(npts), 2))
    data.draw(st.randoms(use_true_random=False)).shuffle(edges)
    drop = data.draw(st.integers(min_value=0, max_value=3))
    edges = edges[drop:]
    index = st.integers(min_value=0, max_value=max(len(edges) - 1, 0))
    if edges:
        edges += [edges[i] for i in data.draw(st.lists(index, max_size=3))]
    end = st.integers(min_value=-2, max_value=npts + 2)
    far = st.tuples(end, end).filter(
        lambda e: e[0] != e[1] and not (0 <= min(e) and max(e) < npts))
    for e in data.draw(st.lists(far, max_size=3)):  # refused, so no cover holds one
        with pytest.raises(InvalidParameter, match=re.escape(f"edge {e!r} is not")):
            GeomTree(ps, [*edges[:2], e])
    cuts = sorted(data.draw(st.lists(st.integers(0, len(edges)), max_size=4)))
    bounds = [0] + cuts + [len(edges)]
    trees = [GeomTree(ps, tuple(edges[a:b])) for a, b in zip(bounds, bounds[1:])]
    defect = cover_defect(ps, trees)
    assert defect == sorted_multiset_defect(npts, trees)
    assert any(defect.values()) == (sorted(e for t in trees for e in t.edges)
                                    != list(combinations(range(npts), 2)))


def test_turned_partition_names_a_shared_edge():
    # one turn of a list that holds two label trees on the 4-cycle; they
    # share 0-1, so the pair 0-2 is left to no tree; relabelled, the labels
    # are reversed onto points 3..0
    trees = [[(0, 1), (1, 2), (2, 3)], [(0, 1), (0, 3), (1, 3)]]
    ps = make_wheel(2)
    with pytest.raises(StructureViolation, match="^demo-cover: ") as exc:
        turned_partition(ps, trees[0] + trees[1], range(4), 4, 1, "demo")
    assert exc.value.witness == {"missing": [(0, 2)], "extra": [], "duplicated": [(0, 1)]}
    with pytest.raises(StructureViolation) as exc:
        turned_partition(ps, trees[0] + trees[1], [3, 2, 1, 0], 4, 1, "demo")
    assert exc.value.witness == {"missing": [(1, 3)], "extra": [], "duplicated": [(2, 3)]}
    # round the centre 3, one turn of the first tree leaves the rest
    # 0-2, 0-3, 1-3 as the last tree
    p = turned_partition(ps, trees[0], range(4), 3, 1, "demo")
    assert [t.edges for t in p.trees] == [tuple(trees[0]), ((0, 2), (0, 3), (1, 3))]
    assert verify_partition(p).ok


def _label_pair(m, d, s, rng):
    """The label pair of class d (0: a spoke to the centre m) and start s,
    its ends in either order."""
    pair = (s, m) if d == 0 else (s, (s + d) % m)
    return pair if rng.random() < 0.5 else pair[::-1]


def _cover_by_point_pairs(ps, edges, point, m, k):
    """The path turned_partition replaces: the turned copies, with a centre
    the pairs none of them holds, and cover_defect over all of them."""
    family = turned_pairs(edges, point, m, range(k))
    if len(point) > m:
        family.append(set(combinations(range(len(point)), 2)).difference(*family))
    trees = [GeomTree(ps, tr) for tr in family]
    return trees, cover_defect(ps, trees)


def test_turned_partition_matches_the_point_pair_cover():
    # seeded label lists on cycles of m = 1..14 labels, with a centre (and
    # the rest as a last tree) or without, and k = 1..period + 1 turns:
    # starts spaced at least k apart in each class, so that some lists tile
    # and some leave gaps, then sometimes a pair listed twice (the other
    # way round) or three times, one more pair or one pair dropped; the
    # table is a random permutation of the points
    rng = random.Random(24)
    accepted, rejected = [0, 0], [0, 0]  # without, with a centre
    for m in range(1, 15):
        for centre in (m % 2 == 1, m % 2 == 0):
            npts = m + centre
            if npts < 2:
                continue
            ps = regular_gon(npts)
            classes = [(d, m // 2 if 2 * d == m else m) for d in range(1 - centre, m // 2 + 1)]
            for k in range(1, m + 2):
                for _ in range(4):
                    edges, tile = [], rng.random() < 0.5  # no gap, where k divides
                    for d, period in classes:
                        s = rng.randrange(period)
                        step = k if tile else k + rng.choice((0, 0, 0, 1))
                        for start in range(s, s + period - k + 1, step):
                            if tile or rng.random() < 0.9:
                                edges.append(_label_pair(m, d, start % period, rng))
                    change = rng.randrange(7)  # 0, 5 and 6 change nothing
                    if change == 1 and edges:
                        edges.append(rng.choice(edges)[::-1])
                    elif change == 4 and edges:
                        edges += [rng.choice(edges)] * 2
                    elif change == 2:
                        d, period = rng.choice(classes)
                        edges.append(_label_pair(m, d, rng.randrange(period), rng))
                    elif change == 3 and edges:
                        edges.pop(rng.randrange(len(edges)))
                    rng.shuffle(edges)
                    point = rng.sample(range(npts), npts)
                    trees, defect = _cover_by_point_pairs(ps, edges, point, m, k)
                    try:
                        p = turned_partition(ps, edges, point, m, k, "demo")
                    except StructureViolation as exc:
                        assert str(exc).startswith("demo-cover: ")
                        assert exc.witness == defect
                        assert any(defect.values()), (m, centre, k, edges, point)
                        rejected[centre] += 1
                    else:
                        assert not any(defect.values()), (m, centre, k, edges, point, defect)
                        assert p.ps is ps and [t.edges for t in p.trees] == [t.edges for t in trees]
                        accepted[centre] += 1
    assert min(accepted + rejected) > 25, (accepted, rejected)


def test_turned_partition_refuses_bad_labels_and_tables():
    # each raises InvalidParameter before any table lookup: no IndexError,
    # and no negative label read from the end of the table
    ps, wheel = regular_gon(6), make_wheel(3)
    for edges in ([(0, 6)], [(-1, 2)], [(0, 1), (2, -6)], [(3, 3)], [(0, 1), (1, 1)]):
        with pytest.raises(InvalidParameter, match="^demo: label pair"):
            turned_partition(ps, edges, range(6), 6, 3, "demo")
    for edges in ([(5, 6)], [(-1, 5)], [(5, 5)]):  # label 5 is the centre
        with pytest.raises(InvalidParameter, match="^demo: label pair"):
            turned_partition(wheel, edges, range(6), 5, 2, "demo")
    # a label that is no integer, or no pair of labels: no bare TypeError
    path = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    for bad in ((0, 1.0), (0, "1"), (None, 1), (0, 1, 2), (0,), 5):
        with pytest.raises(InvalidParameter, match="^demo: label pair " + re.escape(repr(bad))):
            turned_partition(ps, [bad, *path[1:]], range(6), 6, 1, "demo")
    for point, m in (([0, 1, 2, 3, 4, 4], 6), ([0, 1, 2, 3, 4, 6], 6), (range(5), 5),
                     (range(6), 4), (range(7), 6), ([0.0, 1, 2, 3, 4, 5], 6),
                     ([0, 1, 2, 3, 4, 5.0], 6), (["0", 1, 2, 3, 4, 5], 6), (None, 6)):
        with pytest.raises(InvalidParameter, match="^demo: the label table is no permutation"):
            turned_partition(ps, [(0, 1)], point, m, 1, "demo")
    with pytest.raises(InvalidParameter, match="k >= 1"):
        turned_partition(ps, [(0, 1)], range(6), 6, 0, "demo")

    # labels and a table of integers that are no ints (as a NumPy array
    # holds) give the trees of the same int labels: exact int ends, sorted
    class Label:
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    table, zigzag = [3, 1, 2, 0, 4, 5], [(0, 1), (1, 5), (5, 2), (2, 4), (4, 3)]
    got = turned_partition(ps, [(Label(a), Label(b)) for a, b in zigzag], [*map(Label, table)],
                           6, 3, "demo")
    assert got == turned_partition(ps, zigzag, table, 6, 3, "demo")
    for t in got.trees:
        assert t == GeomTree(ps, list(t.edges)) and list(t.edges) == sorted(t.edges)
        assert all(type(a) is type(b) is int and a < b for a, b in t.edges)
    # with a centre (label 5), the rest is written from the table too
    tree = [(0, 5), (2, 5), (0, 1), (2, 3), (4, 1)]
    got = turned_partition(wheel, [(Label(a), Label(b)) for a, b in tree], [*map(Label, range(6))],
                           5, 2, "demo")
    assert got == turned_partition(wheel, tree, range(6), 5, 2, "demo") and len(got.trees) == 3
    assert {type(v) for t in got.trees for e in t.edges for v in e} == {int}


def test_turned_pairs_is_rotate_then_look_up():
    # turned_pairs against the three passes it replaces: rotate_labels, a
    # per-label table lookup and GeomTree's normalization; on cycles of
    # 2m labels (no fixed label) and wheels of 2n - 1 (w or the centre at m)
    rng = random.Random(22)
    for mod, fixed in [(2 * k, False) for k in range(1, 9)] + [(2 * k - 1, True) for k in range(2, 9)]:
        labels = mod + fixed
        for _ in range(6):
            point = rng.sample(range(3 * labels), labels)  # a random label -> point table
            template = [tuple(rng.sample(range(labels), 2)) for _ in range(rng.randrange(1, 2 * labels))]
            if fixed:
                template += [(mod, rng.randrange(mod)), (rng.randrange(mod), mod)]
            turns = list(range(-mod, 2 * mod + 1))
            ps = regular_gon(3 * labels)  # a point for every index the table names
            for q, got in zip(turns, turned_pairs(template, point, mod, turns)):
                want = GeomTree(ps, [(point[a], point[b]) for a, b in rotate_labels(template, q, mod)])
                assert all(a < b for a, b in got)
                kept = GeomTree(ps, got)
                assert kept.edges == want.edges, (mod, template, q)
                # the normalized tuples are kept, not rebuilt
                assert sorted(map(id, kept.edges)) == sorted(map(id, got))
    assert turned_pairs([(0, 1)], [5, 6], 2, []) == []


def _normalized_by_rebuilding(edges, npts):
    """GeomTree's edges as every pair rebuilt: the reference for its keep
    path. In the listed order, a pair that is not two int ends in
    0..npts-1 is named, and a loop is a degenerate edge."""
    out = []
    for e in edges:
        if not (isinstance(e, (tuple, list)) and len(e) == 2
                and all(type(v) is int and 0 <= v < npts for v in e)):
            raise InvalidParameter(f"edge {e!r} is not two int ends in 0..{npts - 1}")
        out.append(edge(*e))
    return tuple(sorted(out))


def _outcome(make):
    try:
        return "ok", make()
    except Exception as exc:  # the type and text are what must match
        return "raised", type(exc), str(exc)


def test_geomtree_keeps_only_normalized_tuples():
    ps = make_wheel(3)
    pair = namedtuple("pair", "a b")
    cases = [[(3, 4), (0, 1), (1, 2)], [(4, 3), (0, 1)], [[0, 1], [2, 3]], [(0, 1), [2, 3]],
             [pair(0, 1), pair(1, 2)], [(0, 1), (2, 2)], [(1, 1)], [(0, 1), (1, 2, 3)],
             [(0, 1), (2,)], [(0, 1), 5], [(0, None)], [(0, 1), ("a", "b")], [], ["01", "23"]]
    for edges in cases:
        for given in (list(edges), tuple(edges), iter(edges)):
            got = _outcome(lambda: GeomTree(ps, given).edges)
            want = _outcome(lambda: _normalized_by_rebuilding(edges, len(ps)))
            assert got == want, edges
            assert got[0] == "raised" or all(type(e) is tuple for e in got[1])
    for a, b in [([0, 2, 1], [1, 3, 4]), ([0, 3], [1, 2]), ([0, 2], [0, 3])]:
        got = _outcome(lambda: GeomTree(ps, zip(a, b)).edges)
        assert got == _outcome(lambda: _normalized_by_rebuilding(zip(a, b), len(ps)))
    assert _outcome(lambda: GeomTree(ps, zip([0, 1], [1, 2], [2, 3]))) == (
        "raised", InvalidParameter, "edge (0, 1, 2) is not two int ends in 0..5")
    kept = [(2, 3), (0, 1)]
    assert [id(e) for e in GeomTree(ps, kept).edges] == [id(kept[1]), id(kept[0])]
    # one pair out of order: every pair is rebuilt, equal but not the same
    rebuilt = GeomTree(ps, [(0, 1), (3, 2)]).edges
    assert rebuilt == ((0, 1), (2, 3))


def test_geomtree_and_partition_refuse_what_is_no_point_set_or_tree():
    ps = make_wheel(3)
    for bad in (None, ps.points, 5):
        refusal = re.escape(f"ps must be a PointSet, got {bad!r}")
        with pytest.raises(InvalidParameter, match=refusal):
            GeomTree(bad, [(0, 1)])
        with pytest.raises(InvalidParameter, match=refusal):
            Partition(bad, ())
    tree = GeomTree(ps, [(0, 1)])
    for bad in (None, [(0, 1)], ((0, 1),), ps):
        with pytest.raises(InvalidParameter, match=re.escape(f"tree 1 is no GeomTree: {bad!r}")):
            Partition(ps, [tree, bad])


@pytest.mark.parametrize("bad", [None, 5])
def test_geomtree_and_partition_refuse_what_is_no_iterable(bad):
    ps = make_wheel(3)
    with pytest.raises(InvalidParameter, match=f"edges must be iterable, got {bad}$"):
        GeomTree(ps, bad)
    with pytest.raises(InvalidParameter, match=f"trees must be iterable, got {bad}$"):
        Partition(ps, bad)


@pytest.mark.parametrize("pair, refusal", [
    *(((pair, "edge " + re.escape(repr(pair)) + r" is not two int ends in 0\.\.5$")
      for pair in [(0, 4.5), (0, 4.0), ("0", "4"), (0, "4"), (0, None), (-1, 2), (0, 6),
                   (1, 2, 3), (2,), 5])),
    ((2, 2), r"^degenerate edge \(2, 2\)$"),
    pytest.param(numpy and (numpy.int64(4), numpy.int64(0)), None, id="numpy-int64",
                 marks=pytest.mark.skipif(numpy is None, reason="NumPy is absent")),
])
def test_geomtree_takes_only_pairs_of_point_indices(pair, refusal):
    # the one check of a pair: a tree holds point indices 0..N-1 or is
    # not built, whatever path (kept or rebuilt) its pairs take, and a
    # refusal names the first pair that is none
    ps = make_wheel(3)
    later = [] if refusal is None else [(2, 9)]
    for edges in ([pair], [(3, 4), pair], [(0, 1), pair, (1, 2), *later]):
        for given in (edges, tuple(edges), iter(edges)):
            if refusal is None:
                t = GeomTree(ps, given)
                assert (0, 4) in t.edges and all(type(v) is int for e in t.edges for v in e)
            else:
                with pytest.raises(InvalidParameter, match=refusal):
                    GeomTree(ps, given)


def stripped_reference(g):
    """caterpillar, s_k and double_star of a networkx tree, read off the
    tree minus its leaves."""
    inner = g.subgraph([v for v in g if g.degree(v) > 1])
    if any(d > 2 for _, d in inner.degree()):
        return False, None, None
    if inner.number_of_nodes() < 2:
        return True, None, None
    ends = [v for v, d in inner.degree() if d == 1]
    if any(g.degree(v) != 2 for v in inner if v not in ends):
        return True, None, None
    m, n = sorted(g.degree(v) - 1 for v in ends)
    k = inner.number_of_nodes() - 2
    return True, (k, m, n), (m, n) if k == 0 else None


def test_spine_matches_leaf_stripping_on_all_small_trees():
    rng = random.Random(6)
    for k in range(2, 13):
        for g in nx.nonisomorphic_trees(k):
            g = nx.relabel_nodes(g, dict(zip(g, rng.sample(range(3 * k), k))))
            rep = classify(tuple(g.edges))
            assert (rep.caterpillar, rep.s_k, rep.double_star) == stripped_reference(g)
