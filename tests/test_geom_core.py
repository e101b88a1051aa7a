import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from planetrees import geom_core
from planetrees import (DegenerateInput, GeomTree, InvalidParameter, NotWheelConfig,
                        Orientation, PointSet, collinear_triple, convex_hull,
                        cyclic_order, edge, is_plane, make_wheel, orientation,
                        segments_cross, wheel_crossing)
from planetrees.cli_io import emit_pointset, load_pointset, parse_pointset
from planetrees.presets import figure_pointset
from planetrees.tree_taxonomy import crossing_pair

from conftest import regular_gon, shuffled_gon


def test_orientation_signs():
    assert orientation((0, 0), (1, 0), (0, 1)) is Orientation.CCW
    assert orientation((0, 0), (0, 1), (1, 0)) is Orientation.CW
    assert orientation((0, 0), (1, 1), (2, 2)) is Orientation.COLLINEAR


def test_orientation_tolerance_scales_with_magnitude():
    # exact: a tiny offset is a turn at any magnitude
    assert orientation((0, 0), (1e8, 0), (2e8, 1e-4)) is Orientation.CCW
    assert orientation((0, 0), (1, 0), (2, 1e-4)) is Orientation.CCW


def test_orientation_rejects_non_finite():
    with pytest.raises(DegenerateInput):
        orientation((0, 0), (math.inf, 0), (0, 1))
    with pytest.raises(DegenerateInput):
        orientation((0, 0), (1, 0), (math.nan, 1))


coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(st.tuples(coord, coord), st.tuples(coord, coord), st.tuples(coord, coord))
def test_orientation_antisymmetric(p, q, r):
    assert orientation(p, q, r).value == -orientation(q, p, r).value


def exact_sign(p, q, r):
    """Sign of the determinant in rationals: the oracle orientation must match."""
    (px, py), (qx, qy), (rx, ry) = ((Fraction(x), Fraction(y)) for x, y in (p, q, r))
    det = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    return (det > 0) - (det < 0)


def ulp_nudge(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else -math.inf)
    return x


any_coord = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=-1e-153, max_value=1e-153),  # subnormal products
    st.floats(min_value=-4e-308, max_value=4e-308),  # subnormal coordinates
    st.floats(min_value=1e299, max_value=1.7e308).flatmap(
        lambda x: st.sampled_from((x, -x))),  # overflowing products and differences
)
point = st.tuples(any_coord, any_coord)


@settings(max_examples=600, deadline=None)
@given(point, point, point)
def test_orientation_is_exact_on_random_floats(p, q, r):
    assert orientation(p, q, r).value == exact_sign(p, q, r)


@settings(max_examples=600, deadline=None)
@given(point, point, st.floats(min_value=-3.0, max_value=4.0),
       st.integers(-2, 2), st.integers(-2, 2))
def test_orientation_is_exact_near_collinear(p, q, t, dx, dy):
    # r is the rounded point p + t (q - p), moved by up to two ulps per
    # coordinate: the filter cannot decide, and the exact path must
    r = tuple(ulp_nudge(a + t * (b - a), d) for a, b, d in zip(p, q, (dx, dy)))
    assume(all(map(math.isfinite, r)))
    assert orientation(p, q, r).value == exact_sign(p, q, r)


def test_orientation_exact_cases():
    tiny = 5e-324
    assert orientation((0.0, 0.0), (1.0, 1e-10), (2.0, 0.0)) is Orientation.CW
    assert orientation((0.0, 0.0), (tiny, 0.0), (0.0, tiny)) is Orientation.CCW
    assert orientation((0.0, 0.0), (2 * tiny, tiny), (4 * tiny, 2 * tiny)) is Orientation.COLLINEAR
    assert orientation((-1e308, 0.0), (1e308, 1.0), (1e308, -1.0)) is Orientation.CW
    assert orientation((-1e308, -1e308), (0.0, 0.0), (1e308, 1e308)) is Orientation.COLLINEAR
    # products in the subnormal range, where the relative bound alone misjudges
    p, q, r = ((5.743419748017356e-156, 2.0305419184542037e-154),
               (-2.969605658500053e-155, -7.567010986228774e-156),
               (-7.519556783210454e-156, 1.2423067752806718e-154))
    assert exact_sign(p, q, r) == -1
    assert orientation(p, q, r) is Orientation.CW
    one_up = math.nextafter(1.0, 2.0)
    assert orientation((0.0, 0.0), (1.0, 1.0), (one_up, one_up)) is Orientation.COLLINEAR
    assert orientation((0.0, 0.0), (1.0, 1.0), (one_up, 1.0)) is Orientation.CW
    assert orientation((0.1, 0.1), (0.2, 0.2), (0.3, 0.3)).value == exact_sign(
        (0.1, 0.1), (0.2, 0.2), (0.3, 0.3))


def test_edge_normalizes():
    assert edge(4, 1) == (1, 4)
    assert edge(1, 4) == (1, 4)
    with pytest.raises(InvalidParameter):
        edge(3, 3)


def test_segments_cross_wheel3_example(wheel3):
    assert segments_cross((1, 4), (0, 3), wheel3) is True
    assert segments_cross((0, 1), (2, 3), wheel3) is False


def test_segments_cross_shared_endpoint_never_crosses(wheel3):
    assert segments_cross((0, 1), (1, 3), wheel3) is False


def test_segments_cross_collinear_raises():
    ps = PointSet(((0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (1.0, 1.0)))
    with pytest.raises(DegenerateInput):
        segments_cross((0, 1), (2, 3), ps)


def test_segments_cross_refuses_a_loop(wheel3):
    # as edge() does, whether the loop shares its point with the other
    # edge or not; crossing_pair takes bare pairs, so it meets loops too
    for e1, e2 in (((0, 1), (3, 3)), ((3, 3), (0, 1)), ((3, 4), (3, 3)), ((3, 3), (3, 3))):
        with pytest.raises(InvalidParameter, match=r"degenerate edge \(3, 3\)"):
            segments_cross(e1, e2, wheel3)
    with pytest.raises(InvalidParameter, match=r"degenerate edge \(3, 3\)"):
        crossing_pair(wheel3, [(0, 1), (3, 3)])
    with pytest.raises(InvalidParameter, match=r"degenerate edge \(2, 2\)"):
        segments_cross((2, 2), (0, 1), regular_gon(6))


def test_segments_cross_validates_indices(wheel3):
    with pytest.raises(InvalidParameter):
        segments_cross((0, 9), (1, 2), wheel3)


def test_make_wheel_shape_and_labels():
    ps = make_wheel(3)
    assert len(ps) == 6
    assert ps.config_tag == "wheel3"
    assert ps.labels == ("v0", "v1", "v2", "v3", "v4", "x")
    assert ps.points[5] == (0.0, 0.0)
    radii = [math.hypot(x, y) for x, y in ps.points[:5]]
    assert all(abs(r - 1.0) < 1e-12 for r in radii)
    assert cyclic_order(ps).wheel == 3


def test_make_wheel_rejects_bad_parameters():
    with pytest.raises(InvalidParameter):
        make_wheel(1)
    with pytest.raises(InvalidParameter):
        make_wheel(3, radius=0.0)


def test_make_wheel_checks_its_coordinates():
    # make_wheel's own formula at radius 1e-322: every coordinate is a
    # small multiple of the least subnormal, and v0 v1 v2 round onto a line
    m, radius = 39, 1e-322
    seed = -math.pi / 2 + math.pi / m
    pts = tuple((radius * math.cos(seed + 2 * math.pi * i / m),
                 radius * math.sin(seed + 2 * math.pi * i / m)) for i in range(m))
    assert collinear_triple(pts + ((0.0, 0.0),)) == (0, 1, 2)
    with pytest.raises(InvalidParameter, match="no wheel20"):
        make_wheel(20, radius=1e-322)
    for radius in (math.inf, math.nan, -1.0):
        with pytest.raises(InvalidParameter, match="finite and positive"):
            make_wheel(3, radius=radius)
    for seed_angle in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidParameter, match="seed angle must be finite"):
            make_wheel(3, seed_angle=seed_angle)


def test_collinear_triple_takes_the_order_verdict(monkeypatch):
    scans = []
    scan = geom_core._scan_triples

    def counted(pts):
        scans.append(len(pts))
        return scan(pts)

    monkeypatch.setattr(geom_core, "_scan_triples", counted)
    wheel = make_wheel(5)
    assert collinear_triple(wheel) is None and scans == []
    # the same points untagged: the centre is off the hull, so no order
    assert collinear_triple(PointSet(wheel.points)) is None and scans == [10]
    assert collinear_triple(PointSet(((0, 0), (2, 1), (1, 3), (1, 1), (3, 3)))) == (0, 3, 4)


def test_convex_hull_on_a_wheel_reads_the_order(monkeypatch):
    scans = []
    scan = geom_core._scan_triples

    def counted(pts):
        scans.append(len(pts))
        return scan(pts)

    monkeypatch.setattr(geom_core, "_scan_triples", counted)
    for n in (2, 3, 8, 24):
        wheel = make_wheel(n, seed_angle=0.1 * n)
        # the same points untagged have no order: the centre is off the hull
        untagged = convex_hull(PointSet(wheel.points))
        assert scans == [2 * n]
        scans.clear()
        assert convex_hull(wheel) == untagged and scans == []
        assert sorted(untagged) == list(range(2 * n - 1))


def test_make_wheel_seed_angle():
    ps = make_wheel(4, seed_angle=0.0)
    assert ps.points[0] == (1.0, 0.0)


def test_wheel_n_rejects_count_mismatch():
    ps = PointSet(((0.0, 0.0), (1.0, 0.0)), "wheel3")
    with pytest.raises(InvalidParameter, match="disagrees with point count 2"):
        cyclic_order(ps)
    with pytest.raises(NotWheelConfig, match="'general' is not a wheel"):
        geom_core.wheel_tag_n(figure_pointset("fig5"))


def test_wheel_crossing_radial_pairs_never_cross():
    for n in range(2, 6):
        center = 2 * n - 1
        for i, j in combinations(range(2 * n - 1), 2):
            assert wheel_crossing((i, center), (j, center), n) is False


def test_wheel_crossing_matches_numeric_predicate_small():
    for n in range(2, 6):
        ps = make_wheel(n)
        edges = list(combinations(range(2 * n), 2))
        for e1, e2 in combinations(edges, 2):
            assert wheel_crossing(e1, e2, n) == segments_cross(e1, e2, ps), (n, e1, e2)


def test_convex_hull_square_anticlockwise_from_lex_min():
    ps = PointSet(((1.0, 1.0), (0.0, 0.0), (1.0, 0.01), (0.02, 1.0), (0.5, 0.4)))
    assert convex_hull(ps) == [1, 2, 0, 3]


def test_convex_hull_fig5():
    assert convex_hull(figure_pointset("fig5")) == [2, 5, 6, 1]


def test_convex_hull_rejects_collinear_and_tiny():
    with pytest.raises(DegenerateInput):
        convex_hull(PointSet(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (0.0, 5.0))))
    with pytest.raises(InvalidParameter):
        convex_hull(PointSet(((0.0, 0.0), (1.0, 1.0))))


def test_collinear_triple_finds_planted_triple():
    pts = [(0.0, 0.0), (1.0, 2.0), (2.0, 4.0), (3.0, 1.0)]
    assert collinear_triple(pts) == (0, 1, 2)
    assert collinear_triple([(0.0, 0.0), (1.0, 2.0), (2.0, 5.0)]) is None


def scan_triple(pts):
    """Reference for collinear_triple: the first collinear triple by brute force."""
    return next((t for t in combinations(range(len(pts)), 3)
                 if orientation(*(pts[i] for i in t)) is Orientation.COLLINEAR), None)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=3, max_size=10))
def test_collinear_triple_matches_scan_on_grids(cells):
    pts = [(float(x), float(y)) for x, y in cells]
    assert collinear_triple(pts) == scan_triple(pts)


def test_collinear_triple_matches_scan_on_convex_polygons():
    rng = random.Random(9)
    for m in range(3, 25):
        pts = [(math.cos(a) * r, math.sin(a) * r) for a, r in (
            (2 * math.pi * (i + rng.uniform(-0.2, 0.2)) / m, rng.uniform(0.9, 1.1))
            for i in range(m))]
        rng.shuffle(pts)
        a, b = rng.sample(range(m), 2)
        on_edge = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.0), (0.5, 1.0)]
        for case in (pts, pts + [pts[a]], [pts[a]] + pts,
                     pts + [((pts[a][0] + pts[b][0]) / 2, (pts[a][1] + pts[b][1]) / 2)],
                     on_edge + [(x + 3.0, y + 3.0) for x, y in pts]):
            assert collinear_triple(case) == scan_triple(case)
    square = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
    assert collinear_triple(square + [(1.0, 0.0)]) == (0, 1, 4)
    assert collinear_triple(square + [(2.0, 2.0)]) == (0, 2, 4)


def test_collinear_triple_on_a_convex_set_is_one_hull_pass(monkeypatch):
    calls = []
    exact = geom_core.orientation

    def counted(p, q, r):
        calls.append(1)
        return exact(p, q, r)

    monkeypatch.setattr(geom_core, "orientation", counted)
    pts = list(regular_gon(40).points)
    random.Random(3).shuffle(pts)
    assert collinear_triple(pts) is None
    # a strict hull pass: a few calls per point, far below C(40, 3) = 9880
    assert len(calls) <= 4 * len(pts)


@given(st.integers(min_value=2, max_value=9), st.floats(min_value=-math.pi, max_value=math.pi))
def test_wheel_labels_cover_circle(n, seed):
    ps = make_wheel(n, seed_angle=seed)
    hull = convex_hull(ps)
    assert sorted(hull) == list(range(2 * n - 1))


@given(st.integers(min_value=2, max_value=40), st.floats(min_value=-math.pi, max_value=math.pi))
def test_cyclic_order_earns_wheel_tag(n, seed):
    ps = make_wheel(n, seed_angle=seed)
    order = cyclic_order(PointSet(ps.points, ps.config_tag))
    assert order == cyclic_order(ps)
    assert order.kind == "wheel-index" and order.wheel == n
    assert order.pos == tuple(range(2 * n - 1)) + (-1,)


def test_make_wheel_carries_its_order():
    ps = make_wheel(4000)
    assert cyclic_order(ps).kind == "wheel-index"
    assert is_plane(GeomTree(ps, ((0, 1), (1, 2), (2, 3))))


def test_large_wheel_copy_earns_its_tag():
    # consecutive circle turns of make_wheel(3200) have determinants near
    # 1e-9; exact orientation confirms them, so a copy keeps the index path
    ps = PointSet(make_wheel(3200).points, "wheel3200")
    assert cyclic_order(ps).kind == "wheel-index"
    assert is_plane(GeomTree(ps, ((0, 1), (1, 2), (2, 3))))


def test_cyclic_order_refutes_wheel_tag():
    base = make_wheel(4).points
    # the {7/3} star: every turn is a left turn and the centre is left of
    # every edge and near-diameter, but the circle is wound three times
    star = tuple(base[3 * i % 7] for i in range(7)) + base[7:]
    assert cyclic_order(PointSet(star, "wheel4")) is None
    swapped = (base[3],) + base[1:3] + (base[0],) + base[4:]
    assert cyclic_order(PointSet(swapped, "wheel4")) is None
    # a wheel tag is never read as convex position, and must match the count
    assert cyclic_order(PointSet(base[:7] + ((9.0, 9.0),), "wheel4")) is None
    with pytest.raises(InvalidParameter):
        cyclic_order(PointSet(base[:6], "wheel4"))


def test_cyclic_order_convex_position():
    ps = PointSet(regular_gon(6).points[::-1], "general")
    order = cyclic_order(ps)
    assert order.kind == "convex-order" and order.wheel is None
    # positions run anticlockwise from the lexicographic minimum
    assert [order.pos[i] for i in convex_hull(ps)] == list(range(6))
    inside = PointSet(regular_gon(6).points + ((0.1, 0.05),), "convex")
    on_edge = PointSet(((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 1.0)), "convex")
    repeated = PointSet(((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0)), "convex")
    for ps in (inside, on_edge, repeated, PointSet(((0.0, 0.0), (1.0, 0.0)))):
        assert cyclic_order(ps) is None
    assert cyclic_order(figure_pointset("fig5")) is None


def test_cyclic_order_knows_a_turned_index_order():
    gon = load_pointset("gon8")
    turned = [make_wheel(2), make_wheel(5, seed_angle=2.0), gon,
              load_pointset("random8", seed=3), parse_pointset(emit_pointset(gon))]
    for ps in turned:
        assert cyclic_order(ps).turned, ps.points
    # labels shuffled, or listed clockwise: the same circle, off the index order
    for ps in (shuffled_gon(8), PointSet(gon.points[::-1], "convex")):
        order = cyclic_order(ps)
        assert order.kind == "convex-order" and not order.turned


def wheel_by_definition(pts, n):
    """Every circle point a strict hull vertex, anticlockwise in index
    order, and the centre strictly on the larger side of every chord:
    every other point strictly left of each edge v_i -> v_{i+1}, then
    every chord's sides counted point by point."""
    m = 2 * n - 1
    circle, centre = pts[:m], pts[m]
    for i in range(m):
        j = (i + 1) % m
        if any(orientation(circle[i], circle[j], p) is not Orientation.CCW
               for t, p in enumerate(pts) if t not in (i, j)):
            return False
    for i, j in combinations(range(m), 2):
        sides = [orientation(circle[i], circle[j], circle[t]) for t in range(m) if t not in (i, j)]
        larger = max((Orientation.CCW, Orientation.CW), key=sides.count)
        if orientation(circle[i], circle[j], centre) is not larger:
            return False
    return True


def moved_wheels(n, rng):
    """Wheel<n> candidates on integer coordinates (multiples of 4, so that
    midpoints and quarter points of chords are exact): the regular circle
    with its centre moved inside, outside, onto boundary edges and
    near-diameters and circle points; the circle clockwise, shuffled, and
    as every {m/k} star."""
    m = 2 * n - 1
    circle = [(4.0 * round(500 * math.cos(0.2 + 2 * math.pi * i / m)),
               4.0 * round(500 * math.sin(0.2 + 2 * math.pi * i / m))) for i in range(m)]

    def at(p, q, t):  # the point t/4 of the way from p to q
        return ((4 - t) * p[0] / 4 + t * q[0] / 4, (4 - t) * p[1] / 4 + t * q[1] / 4)

    centres = [(0.0, 0.0)] + [(float(rng.randint(-2500, 2500)), float(rng.randint(-2500, 2500)))
                              for _ in range(20)]
    for i in range(m):
        a, b, d = circle[i], circle[(i + 1) % m], circle[(i + n - 1) % m]
        centres += [a, (1.5 * a[0], 1.5 * a[1]), at(a, b, 2), at(a, b, 1), at(a, d, 2), at(a, d, 3)]
        centres += [at(at(a, d, 2), (0.0, 0.0), t) for t in (1, 2, 3)]  # nearer the centre
    sets = [tuple(circle) + (c,) for c in centres]
    sets.append(tuple(circle[::-1]) + ((0.0, 0.0),))
    for _ in range(5):
        shuffled = circle[:]
        rng.shuffle(shuffled)
        sets.append(tuple(shuffled) + ((0.0, 0.0),))
    sets += [tuple(circle[k * i % m] for i in range(m)) + ((0.0, 0.0),)
             for k in range(2, m - 1) if math.gcd(k, m) == 1]
    return sets


@pytest.mark.parametrize("n", range(2, 7))
def test_wheel_verdict_matches_the_definition(n):
    rng = random.Random(n)
    wheel = make_wheel(n)
    moved = [wheel.points[:-1] + ((rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)),)
             for _ in range(40)]
    verdicts = []
    for pts in moved_wheels(n, rng) + moved:
        order = cyclic_order(PointSet(pts, f"wheel{n}"))
        verdicts.append(order is not None)
        assert verdicts[-1] == wheel_by_definition(pts, n), pts
        assert order is None or order.pos == tuple(range(2 * n - 1)) + (-1,)
    assert True in verdicts and False in verdicts


def hull_order(ps):
    """cyclic_order by the strict hull alone, for every tag: a set without a
    wheel tag is ordered when every point is a hull vertex; a wheel<n> tag
    holds when the hull is the circle in index order, turned, and the centre
    is strictly left of every near-diameter."""
    n = geom_core.wheel_tag(ps.config_tag)
    if len(ps) < 3:
        return None
    hull = geom_core._strict_hull(ps.points)
    if n is None:
        if len(hull) != len(ps):
            return None
        pos = [0] * len(ps)
        for k, i in enumerate(hull):
            pos[i] = k
        return geom_core.CyclicOrder(tuple(pos), len(ps))
    m, s = 2 * n - 1, hull[0]
    circle, centre = ps.points[:m], ps.points[m]
    if hull == [*range(s, m), *range(s)] and all(
            orientation(circle[i], circle[(i + n - 1) % m], centre) is Orientation.CCW
            for i in range(m)):
        return geom_core.CyclicOrder(tuple(range(m)) + (-1,), m, n)
    return None


def listed_variants(pts, rng):
    """pts, a list in convex position anticlockwise, turned, clockwise,
    shuffled and wound more than once, then with a repeated point, a chord
    midpoint and an interior point put in at random places."""
    m = len(pts)
    k = rng.randrange(m)
    shuffled = pts[:]
    rng.shuffle(shuffled)
    out = [pts, pts[k:] + pts[:k], pts[::-1], shuffled]
    out += [[pts[w * i % m] for i in range(m)] for w in (2, 3) if math.gcd(w, m) == 1]
    a, b = rng.sample(range(m), 2)
    middle = ((pts[a][0] + pts[b][0]) / 2, (pts[a][1] + pts[b][1]) / 2)
    inner = (sum(x for x, _ in pts) / m, sum(y for _, y in pts) / m)
    for extra in (pts[a], middle, inner, (0.01, -0.02)):
        at = rng.randrange(m + 1)
        out.append(pts[:at] + [extra] + pts[at:])
    return out


def test_cyclic_order_matches_the_hull_order():
    rng = random.Random(29)
    sets = []
    for m in range(3, 25):
        gon = list(regular_gon(m, phase=rng.uniform(-math.pi, math.pi)).points)
        bumpy = [(math.cos(a) * r, math.sin(a) * r) for a, r in (
            (2 * math.pi * (i + rng.uniform(-0.2, 0.2)) / m, rng.uniform(0.9, 1.1))
            for i in range(m))]
        square = [(float(x), float(y)) for x, y in ((0, 0), (4, 0), (4, 4), (0, 4))]
        for pts in (gon, bumpy, square):
            sets += [(tuple(v), tag) for v in listed_variants(pts, rng)
                     for tag in ("convex", "general")]
    for n in range(2, 7):
        sets += [(pts, f"wheel{n}") for pts in moved_wheels(n, rng)]
    for n in range(2, 41):
        pts = make_wheel(n, seed_angle=rng.uniform(-math.pi, math.pi)).points
        m = 2 * n - 1
        j = rng.randrange(m)
        swapped = pts[:j] + pts[m:] + pts[j + 1:m] + pts[j:j + 1]
        sets += [(pts, f"wheel{n}"), (swapped, f"wheel{n}"), (pts, "general"),
                 (pts[:m], "convex"), (pts[m - 1::-1], "convex")]
    verdicts = set()
    for pts, tag in sets:
        order = cyclic_order(PointSet(pts, tag))
        assert order == hull_order(PointSet(pts, tag)), (pts, tag)
        verdicts.add(None if order is None else order.kind)
    assert verdicts == {None, "convex-order", "wheel-index"}


def test_a_listed_order_costs_one_walk(monkeypatch):
    calls, hulls = [], []
    exact, strict_hull = geom_core.orientation, geom_core._strict_hull

    def counted(p, q, r):
        calls.append(1)
        return exact(p, q, r)

    def counted_hull(points):
        hulls.append(len(points))
        return strict_hull(points)

    monkeypatch.setattr(geom_core, "orientation", counted)
    monkeypatch.setattr(geom_core, "_strict_hull", counted_hull)
    for m in (3, 16, 40):
        gon = regular_gon(m)
        calls.clear()
        assert cyclic_order(PointSet(gon.points, "convex")).turned
        assert (len(calls), hulls) == (m, [])
    for n in (2, 8, 40):
        wheel = make_wheel(n, seed_angle=0.1 * n)
        calls.clear()
        assert cyclic_order(PointSet(wheel.points, wheel.config_tag)).wheel == n
        assert (len(calls), hulls) == (2 * (2 * n - 1), [])
    assert cyclic_order(shuffled_gon(16)).kind == "convex-order"
    assert hulls == [16]
