import math
import random
import re
from array import array
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planetrees import (DegenerateInput, HalvingLine, HypothesisReport,
                        InvalidParameter, NoHLabeling, NoWLabeling,
                        OddPointCount, Orientation,
                        balance, check_theorem3_hypothesis,
                        check_theorem4_hypothesis, h_labeling, halving,
                        halving_profile, k_halving_lines, make_wheel,
                        orientation, theorem2_partition, theorem3_partition,
                        theorem4_partition, verify_partition, w_labeling)
from planetrees.geom_core import PointSet
from planetrees.presets import figure_pointset

from conftest import random_convex, regular_gon


def test_regular_8gon_levels():
    ps = regular_gon(8)
    assert k_halving_lines(ps, 0) == [HalvingLine(i, i + 4, 0) for i in range(4)]
    sides = {(hl.i, hl.j) for hl in k_halving_lines(ps, 3)}
    assert sides == {(i, (i + 1) % 8) if i < 7 else (0, 7) for i in range(8)}
    assert balance(ps, 0, 2) == 2
    assert balance(ps, 0, 3) == 1


def test_level_counts_partition_all_pairs():
    for ps in (regular_gon(8), make_wheel(3), figure_pointset("fig5")):
        npts = len(ps)
        total = sum(len(k_halving_lines(ps, k)) for k in range(npts // 2))
        assert total == npts * (npts - 1) // 2


def test_convex_has_exactly_m_halving_lines():
    rng = random.Random(7)
    for m in (2, 3, 5, 8):
        ps = random_convex(2 * m, rng)
        lines = k_halving_lines(ps, 0)
        assert len(lines) == m
        assert {(hl.i, hl.j) for hl in lines} == {(i, i + m) for i in range(m)}


def test_wheel_halving_lines_are_radials():
    for n in (2, 3, 4):
        ps = make_wheel(n)
        center = 2 * n - 1
        lines = k_halving_lines(ps, 0)
        assert [(hl.i, hl.j) for hl in lines] == [(i, center) for i in range(center)]


def test_wheel3_one_halving_lines():
    got = [(hl.i, hl.j) for hl in k_halving_lines(make_wheel(3), 1)]
    assert got == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]


def test_k_halving_argument_errors():
    with pytest.raises(OddPointCount):
        k_halving_lines(regular_gon(7), 0)
    with pytest.raises(InvalidParameter):
        k_halving_lines(regular_gon(8), 4)
    with pytest.raises(InvalidParameter):
        k_halving_lines(regular_gon(8), -1)


def test_balance_rejects_point_on_line():
    ps = PointSet(((0.0, 0.0), (4.0, 0.0), (2.0, 0.0), (1.0, 3.0)), "general")
    from planetrees import DegenerateInput
    with pytest.raises(DegenerateInput):
        balance(ps, 0, 1)


def test_h_labeling_fig5(fig5):
    lab = h_labeling(fig5)
    assert lab.pairs == ((0, 4), (1, 5), (2, 6), (3, 7))
    assert lab.relabeling == tuple(range(8))


def test_h_labeling_respects_rotation():
    # same shape as an h-labelable set but rotated start: relabeling undoes it
    rng = random.Random(13)
    ps = random_convex(10, rng)
    lab = h_labeling(ps)
    m = 5
    assert sorted(lab.relabeling) == list(range(10))
    for i in range(m):
        a, b = lab.relabeling[i], lab.relabeling[i + m]
        assert balance(ps, a, b) == 0


def test_h_labeling_rejects_wheel(wheel3):
    with pytest.raises(NoHLabeling, match="expected 3 halving lines, found 5"):
        h_labeling(wheel3)


def test_w_labeling_wheels():
    for n in (2, 3, 4, 5, 6):
        lab = w_labeling(make_wheel(n))
        assert lab.w == 2 * n - 1
        assert sorted(lab.order) == list(range(2 * n - 1))
    assert w_labeling(make_wheel(4)).order == (2, 3, 4, 5, 6, 0, 1)


def test_w_labeling_order_is_anticlockwise():
    lab = w_labeling(make_wheel(5))
    ps = make_wheel(5)
    wx, wy = ps.points[lab.w]
    angles = [math.atan2(ps.points[i][1] - wy, ps.points[i][0] - wx) % (2 * math.pi)
              for i in lab.order]
    assert angles == sorted(angles)


def test_w_labeling_fig7_identity():
    lab = w_labeling(figure_pointset("fig7"))
    assert lab.w == 13
    assert lab.order == tuple(range(13))


def test_w_labeling_rejects_convex():
    with pytest.raises(NoWLabeling, match="expected 7 halving lines, found 4"):
        w_labeling(regular_gon(8))


def test_theorem3_hypothesis_regular_gons():
    for n in (2, 3, 4, 5):
        ps = regular_gon(2 * n)
        for r in range(1, n):
            assert check_theorem3_hypothesis(ps, r)


def test_theorem3_hypothesis_fails_on_wheel(wheel3):
    rep = check_theorem3_hypothesis(wheel3, 1)
    assert not rep
    assert rep.witness == (5, 0)
    assert rep.reason == "point 5 on 5 0-halving lines, want 1"


def test_theorem4_hypothesis_wheels():
    for n in (2, 3, 4, 5):
        ps = make_wheel(n)
        for r in range(1, n):
            assert check_theorem4_hypothesis(ps, r)


def test_theorem4_hypothesis_fig7():
    ps = figure_pointset("fig7")
    assert check_theorem4_hypothesis(ps, 2)
    rep = check_theorem4_hypothesis(ps, 3)
    assert not rep
    assert rep.witness == (3, 3)
    assert rep.reason == "point 3 on 4 3-halving lines, want 2"


def test_theorem4_hypothesis_fails_without_w():
    rep = check_theorem4_hypothesis(regular_gon(8), 1)
    assert not rep and rep.witness is None
    assert "expected 7 halving lines" in rep.reason


def hypothesis_sets():
    """Seeded even sets of 4-10 points, 15 of each kind per size: uniform
    in the unit square, on a circle, on a circle with one point inside;
    then make_wheel(2..6)."""
    rng = random.Random(5)

    def circle(count):
        return [(math.cos(a), math.sin(a))
                for a in (rng.uniform(0, 2 * math.pi) for _ in range(count))]

    for size in (4, 6, 8, 10):
        for _ in range(15):
            yield PointSet(tuple((rng.random(), rng.random()) for _ in range(size)))
            yield PointSet(tuple(circle(size)))
            inside = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            yield PointSet(tuple(circle(size - 1)) + (inside,))
    for n in range(2, 7):
        yield make_wheel(n)


def brute_force_hypotheses(ps, r):
    """(ok, witness) of theorems 3 and 4, from k-halving lines counted by
    balance: the first failing k, then the least point off its count."""
    npts = len(ps)
    counts = [[0] * npts for _ in range(npts // 2)]
    for i, j in combinations(range(npts), 2):
        k = balance(ps, i, j)
        counts[k][i] += 1
        counts[k][j] += 1

    def first_miss(ks, want):
        for k in ks:
            for i in range(npts):
                if counts[k][i] != want(i, k):
                    return (False, (i, k))
        return (True, None)

    theorem3 = first_miss(range(r + 1), lambda i, k: 1 if k == 0 else 2)
    dominant = [i for i in range(npts) if counts[0][i] == npts - 1]
    if sum(counts[0]) != 2 * (npts - 1) or not dominant:
        theorem4 = (False, None)
    else:
        theorem4 = first_miss(range(1, r + 1), lambda i, k: 0 if i == dominant[0] else 2)
    return theorem3, theorem4


def test_hypothesis_checks_match_a_brute_force_count():
    outcomes = set()
    for ps in hypothesis_sets():
        for r in range(1, len(ps) // 2):
            want3, want4 = brute_force_hypotheses(ps, r)
            got3 = check_theorem3_hypothesis(ps, r)
            got4 = check_theorem4_hypothesis(ps, r)
            assert (got3.ok, got3.witness) == want3, (ps, r)
            assert (got4.ok, got4.witness) == want4, (ps, r)
            outcomes |= {(3, got3.ok), (4, got4.ok)}
    assert outcomes == {(3, True), (3, False), (4, True), (4, False)}


def test_hypothesis_r_range_errors(wheel3):
    for checker in (check_theorem3_hypothesis, check_theorem4_hypothesis):
        with pytest.raises(InvalidParameter):
            checker(wheel3, 0)
        with pytest.raises(InvalidParameter):
            checker(wheel3, 3)


@pytest.mark.parametrize("i, j", [(0, 6), (6, 0), (-1, 0), (0, 0)])
def test_balance_rejects_a_bad_pair(wheel3, i, j):
    with pytest.raises(InvalidParameter, match=r"distinct points in 0\.\.5"):
        balance(wheel3, i, j)


@pytest.mark.parametrize("i, j", [(0, 6), (6, 0), (-1, 0), (0, 0)])
def test_profile_k_rejects_a_bad_pair(wheel3, i, j):
    with pytest.raises(InvalidParameter, match=r"distinct points in 0\.\.5"):
        halving_profile(wheel3).k(i, j)


@pytest.mark.parametrize("k", [-1, 3])
def test_incidence_rejects_a_k_out_of_range(wheel3, k):
    with pytest.raises(InvalidParameter, match=r"k must be in 0\.\.2"):
        halving_profile(wheel3).incidence(k)


@pytest.mark.parametrize("ps, check", [
    (regular_gon(14), check_theorem3_hypothesis),
    (make_wheel(7), check_theorem4_hypothesis),
    (PointSet(make_wheel(7).points, "general"), check_theorem4_hypothesis),  # no cyclic order
])
def test_passing_hypothesis_checks_slice_each_row_once(ps, check):
    """On the sweep the checks slice each point's row of swept once; on a
    cyclic order the profile holds no N^2 table for them to read."""
    slices = 0

    class Counted(array):
        def __getitem__(self, i):
            nonlocal slices
            slices += isinstance(i, slice)
            return super().__getitem__(i)

    r = len(ps) // 2 - 1
    profile = halving_profile(ps)
    if profile.order is None:
        ps.__dict__[halving._PROFILE_ATTR] = replace(profile, swept=Counted("i", profile.swept))
        assert check(ps, r)
        assert slices == len(ps)
        return
    assert check(ps, r)
    assert profile.swept is None


def swept_rows(ps):
    """Each point's row of k's from the angular sweep, -1 on the diagonal."""
    npts = len(ps)
    ks = halving._angular_sweep(ps)
    return [list(ks[i * npts:(i + 1) * npts]) for i in range(npts)]


def reference_reports(rows, r):
    """Theorem 3 and 4 reports from the k-by-k scan of the swept rows:
    each k's whole incidence list against the wanted one, the first k
    that differs naming its first point off count. O(r N^2); the checks
    must agree."""
    npts = len(rows)

    def incidence(k):
        return [row.count(k) for row in rows]

    def scan(want, want0=None):
        for k in range(1 if want0 is None else 0, r + 1):
            wanted = want0 if k == 0 else want
            counts = incidence(k)
            if counts != wanted:
                i = next(i for i, (c, w) in enumerate(zip(counts, wanted)) if c != w)
                return HypothesisReport(
                    ok=False, witness=(i, k),
                    reason=f"point {i} on {counts[i]} {k}-halving lines, want {wanted[i]}")
        return HypothesisReport(ok=True)

    theorem3 = scan([2] * npts, [1] * npts)
    on_halving = incidence(0)
    lines = sum(on_halving) // 2
    dominant = [i for i, c in enumerate(on_halving) if c == npts - 1]
    if lines != npts - 1:
        theorem4 = HypothesisReport(
            ok=False, reason=f"expected {npts - 1} halving lines, found {lines}")
    elif not dominant:
        theorem4 = HypothesisReport(ok=False, reason="no point is incident to all halving lines")
    else:
        want = [2] * npts
        want[dominant[0]] = 0
        theorem4 = scan(want)
    return theorem3, theorem4


def elliptic(count, rng):
    ax, ay = rng.uniform(1, 2), rng.uniform(1, 2)
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(count))
    return PointSet(tuple((ax * math.cos(a), ay * math.sin(a)) for a in angles))


def on_grid(*xy):
    return PointSet(tuple((float(x), float(y)) for x, y in xy))


# theorem 3 holds at r = 1 and fails only at k = r = 2: point 4 on four
# 2-halving lines
FAILS_AT_R = on_grid((6, 20), (10, 1), (0, 0), (9, 19), (10, 14), (12, 10), (12, 2), (2, 10))
# every point on two 1-halving lines, but point 5 on three halving lines
FAILS_AT_0 = on_grid((10, 1), (2, 10), (-9, 5), (-7, -7), (4, -9), (4, -1))
# theorem 4 with w = 7 holds at r = 1 and fails at k = r = 2
THEOREM4_FAILS_AT_R = on_grid(
    (8, 18), (16, 19), (10, 4), (18, 5), (13, 9), (14, 7), (15, 12), (0, 16))


def test_fixed_sets_fail_where_they_claim():
    assert check_theorem3_hypothesis(FAILS_AT_R, 1)
    assert check_theorem3_hypothesis(FAILS_AT_R, 2).witness == (4, 2)
    assert check_theorem3_hypothesis(FAILS_AT_0, 1).witness == (5, 0)
    assert halving_profile(FAILS_AT_0).incidence(1) == [2] * 6
    assert check_theorem4_hypothesis(THEOREM4_FAILS_AT_R, 1)
    assert check_theorem4_hypothesis(THEOREM4_FAILS_AT_R, 2).witness == (5, 2)


def test_hypothesis_checks_match_the_k_by_k_scan():
    rng = random.Random(17)
    sets = [FAILS_AT_R, FAILS_AT_0, THEOREM4_FAILS_AT_R, figure_pointset("fig7")]
    for n in range(2, 13):
        sets += [random_convex(2 * n, rng) for _ in range(2)]
        sets += [elliptic(2 * n, rng) for _ in range(2)]
        sets += [make_wheel(n), make_wheel(n, seed_angle=rng.uniform(0, 2 * math.pi))]
    outcomes = set()
    for ps in sets:
        rows = swept_rows(ps)
        for r in range(1, len(ps) // 2):
            want3, want4 = reference_reports(rows, r)
            assert check_theorem3_hypothesis(ps, r) == want3, (ps, r)
            assert check_theorem4_hypothesis(ps, r) == want4, (ps, r)
            outcomes |= {(3, want3.ok), (4, want4.ok, want4.witness is None)}
    assert outcomes == {(3, True), (3, False), (4, True, True), (4, False, True),
                        (4, False, False)}


def assert_profile_matches_balance(ps):
    """The profile raises iff some pair's balance does, naming a collinear
    triple; otherwise every pair's k equals balance."""
    try:
        want = {(i, j): balance(ps, i, j) for i, j in combinations(range(len(ps)), 2)}
    except DegenerateInput:
        with pytest.raises(DegenerateInput, match=r"collinear triple") as exc:
            halving_profile(ps)
        a, b, c = map(int, re.search(r"\((\d+), (\d+), (\d+)\)", str(exc.value)).groups())
        assert len({a, b, c}) == 3
        assert orientation(ps.points[a], ps.points[b], ps.points[c]) is Orientation.COLLINEAR
        return
    profile = halving_profile(ps)
    assert {(i, j): profile.k(i, j) for i, j in want} == want
    assert all(profile.k(j, i) == k for (i, j), k in want.items())


grid_points = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                       min_size=4, max_size=10, unique=True)


@settings(max_examples=300, deadline=None)
@given(grid_points)
def test_profile_matches_balance_on_grids(cells):
    assert_profile_matches_balance(
        PointSet(tuple((float(x), float(y)) for x, y in cells), "general"))


def test_profile_matches_balance_on_jittered_polygons_and_wheels():
    rng = random.Random(5)
    for m in range(3, 17):
        for _ in range(3):
            pts = tuple((math.cos(a) * r, math.sin(a) * r) for a, r in (
                (2 * math.pi * (i + rng.uniform(-0.2, 0.2)) / m, rng.uniform(0.9, 1.1))
                for i in range(m)))
            assert_profile_matches_balance(PointSet(pts, "general"))
    for n in range(2, 13):
        assert_profile_matches_balance(make_wheel(n))


def test_profile_is_cached_on_the_point_set():
    ps = make_wheel(4)
    assert halving_profile(ps) is halving_profile(ps)
    assert halving_profile(make_wheel(4)) is not halving_profile(ps)


@pytest.mark.parametrize("build, ps", [
    (lambda ps: theorem2_partition(ps, 1), regular_gon(10)),
    (lambda ps: theorem3_partition(ps, 2), regular_gon(10)),
    (lambda ps: theorem4_partition(ps, 2), make_wheel(5)),
])
def test_construction_sweeps_once_per_point_set(monkeypatch, build, ps):
    calls = []
    sweep = halving._sweep

    def counted(ps):
        calls.append(ps)
        return sweep(ps)

    monkeypatch.setattr(halving, "_sweep", counted)
    build(ps)
    assert calls == [ps]
    build(ps)
    assert len(calls) == 1


def test_h_labeling_antipodes_collinear_with_centroid():
    # shuffled regular polygons with a vertex on the +x ray: rounding leaves
    # antipodal pairs and the centroid not quite collinear, and h_labeling
    # must still give a labeling that walks the polygon
    rng = random.Random(1)
    for m in (4, 6, 8, 10, 12, 16, 20):
        base = regular_gon(m, phase=0.0).points
        for _ in range(20):
            perm = list(range(m))
            rng.shuffle(perm)
            lab = h_labeling(PointSet(tuple(base[p] for p in perm), "convex"))
            polygon_order = [perm[v] for v in lab.relabeling]
            assert polygon_order == [(polygon_order[0] + i) % m for i in range(m)]


# ---------------------------------------------------------------------------
# halving structure read off a verified cyclic order

def wheels_at_seed_angles():
    rng = random.Random(11)
    for n in range(2, 17):
        yield make_wheel(n, seed_angle=rng.uniform(0, 2 * math.pi))
        yield make_wheel(n, seed_angle=0.0)  # v0 on the +x ray from the centre


def shuffled_convex_sets():
    rng = random.Random(17)
    for m in range(3, 21):
        base = random_convex(m, rng).points
        perm = list(range(m))
        rng.shuffle(perm)
        yield PointSet(tuple(base[p] for p in perm), "convex")


def balances(ps):
    return {(i, j): balance(ps, i, j) for i, j in combinations(range(len(ps)), 2)}


def refuse_orientation(monkeypatch):
    def refused(*args):
        raise AssertionError("halving.orientation called")
    monkeypatch.setattr(halving, "orientation", refused)


def test_ordered_profile_matches_balance_without_orientation(monkeypatch):
    cases = ([(ps, "wheel-index") for ps in wheels_at_seed_angles()]
             + [(ps, "convex-order") for ps in shuffled_convex_sets()])
    for ps, path in cases:
        want = balances(ps)
        with monkeypatch.context() as mp:
            refuse_orientation(mp)
            profile = halving_profile(ps)
        assert profile.path == path
        assert {pair: profile.k(*pair) for pair in want} == want
        assert all(profile.k(j, i) == k for (i, j), k in want.items())


def ordered_sets():
    """Even sets with a cyclic order: wheels at several seed angles, which
    fail theorem 3, and regular and random convex sets, which fail
    theorem 4, each also shuffled."""
    rng = random.Random(29)
    for n in range(2, 11):
        for seed_angle in (None, 0.0, rng.uniform(0, 2 * math.pi)):
            yield make_wheel(n, seed_angle=seed_angle)
    for m in range(4, 21, 2):
        for base in (regular_gon(m), regular_gon(m, phase=0.0), random_convex(m, rng)):
            yield base
            perm = list(range(m))
            rng.shuffle(perm)
            yield PointSet(tuple(base.points[p] for p in perm), "convex")
    # the centroid overflows to infinity, so h_labeling's start is the
    # first line of the direction order
    for phase in (0.3, 3.0):
        yield regular_gon(8, phase, radius=8e307)


def outcome(query, ps):
    """A labeling, or the type and message of what it raised."""
    try:
        return query(ps)
    except (NoHLabeling, NoWLabeling) as exc:
        return type(exc), str(exc)


def test_ordered_path_matches_the_sweep(monkeypatch):
    """Every answer read off a cyclic order equals the one from the swept
    rows of the same points: k, incidence and k_halving_lines for every
    k, both hypothesis reports for every r, and both labelings (from a
    copy of the set whose cached profile is the swept one)."""
    paths = set()
    for ps in ordered_sets():
        npts, m = len(ps), len(ps) // 2
        rows = swept_rows(ps)
        swept = PointSet(ps.points, ps.config_tag)
        swept.__dict__[halving._PROFILE_ATTR] = halving.HalvingProfile(
            npts, "sweep", swept=halving._angular_sweep(ps))
        with monkeypatch.context() as mp:
            refuse_orientation(mp)
            profile = halving_profile(ps)
            ks = [[profile.k(i, j) if i != j else -1 for j in range(npts)] for i in range(npts)]
            incidences = [profile.incidence(k) for k in range(m)]
            lines = [k_halving_lines(ps, k) for k in range(m)]
            reports = [(check_theorem3_hypothesis(ps, r), check_theorem4_hypothesis(ps, r))
                       for r in range(1, m)]
            labelings = outcome(h_labeling, ps), outcome(w_labeling, ps)
        paths.add(profile.path)
        assert ks == rows, ps
        assert incidences == [[row.count(k) for row in rows] for k in range(m)]
        assert lines == [[HalvingLine(i, j, k) for i in range(npts)
                          for j in range(i + 1, npts) if rows[i][j] == k] for k in range(m)]
        assert reports == [reference_reports(rows, r) for r in range(1, m)], ps
        assert labelings == (outcome(h_labeling, swept), outcome(w_labeling, swept)), ps
        assert profile.swept is None
    assert paths == {"wheel-index", "convex-order"}


def without_order(ps):
    """The same points with no cyclic order: an interior point added to a
    convex set; a wheel's circle points 0 and 1 swapped under its tag."""
    pts = ps.points
    if ps.config_tag == "convex":
        a, b, c = pts[:3]
        inner = tuple(0.31 * a[t] + 0.29 * b[t] + 0.4 * c[t] for t in range(2))
        return PointSet(pts + (inner,), "convex")
    return PointSet((pts[1], pts[0]) + pts[2:], ps.config_tag)


def test_sets_without_order_take_the_sweep():
    sets = [*wheels_at_seed_angles(), *shuffled_convex_sets()]
    sets = [without_order(ps) for ps in sets] + [
        PointSet(ps.points, "general") for ps in wheels_at_seed_angles()]
    for ps in sets:
        want = balances(ps)
        profile = halving_profile(ps)
        assert profile.path == "sweep"
        assert {pair: profile.k(*pair) for pair in want} == want


def test_w_labeling_on_wheels_reads_the_circle(monkeypatch):
    for ps in wheels_at_seed_angles():
        w = len(ps) - 1
        want = halving._ccw_order(ps, ps.points[w], list(range(w)), pivot_index=w)
        with monkeypatch.context() as mp:
            refuse_orientation(mp)
            lab = w_labeling(ps)
        assert lab == halving.WLabeling(w=w, order=tuple(want))


def test_h_labeling_on_a_convex_order_splits_no_sides(monkeypatch):
    calls = []
    side_split = halving._side_split

    def counted(ps, i, j):
        calls.append((i, j))
        return side_split(ps, i, j)

    monkeypatch.setattr(halving, "_side_split", counted)
    rng = random.Random(3)
    sets = (regular_gon(10), random_convex(12, rng), random_convex(16, rng))
    labelings = [h_labeling(ps) for ps in sets]
    assert calls == []
    h_labeling(figure_pointset("fig5"))  # no cyclic order: no side is split either
    assert calls == []
    for ps, lab in zip(sets, labelings):
        assert all(balance(ps, a, b) == 0 for a, b in lab.pairs)


def test_theorem4_partition_reads_the_w_labeling_once(monkeypatch):
    from planetrees import halving_partition
    calls = []
    original = halving.w_labeling

    def counted(ps):
        calls.append(ps)
        return original(ps)

    monkeypatch.setattr(halving, "w_labeling", counted)
    monkeypatch.setattr(halving_partition, "w_labeling", counted, raising=False)
    ps = make_wheel(5)
    theorem4_partition(ps, 2)
    assert calls == [ps]


def test_every_point_of_an_even_set_lies_on_a_halving_line():
    """A line turned half a round about a point meets a halving line
    through it, so h_labeling's line count decides the incidence."""
    rng = random.Random(15)
    sets = [make_wheel(n) for n in range(2, 9)]
    for size in range(2, 17, 2):
        for _ in range(30):
            sets.append(PointSet(tuple((rng.random(), rng.random()) for _ in range(size))))
        sets += [random_convex(size, rng) for _ in range(5) if size >= 4]
    checked = 0
    for ps in sets:
        try:
            incidence = halving_profile(ps).incidence(0)
        except DegenerateInput:
            continue
        assert min(incidence) >= 1
        checked += 1
    assert checked > 200


@pytest.mark.parametrize("n", range(2, 9))
def test_h_labeling_refuses_a_wheel_at_the_line_count(n):
    with pytest.raises(NoHLabeling, match=f"expected {n} halving lines, found {2 * n - 1}"):
        h_labeling(make_wheel(n))


# ---------------------------------------------------------------------------
# h_labeling against its definition

def is_h_labeling(ps, order):
    """Test-local check by brute force: each v_i v_{i+m} is halving, and one
    side of it is exactly the labels v_{i+1}..v_{i+m-1}."""
    npts = len(ps)
    m = npts // 2
    if sorted(order) != list(range(npts)):
        return False
    pos = {v: t for t, v in enumerate(order)}
    for i in range(m):
        if balance(ps, order[i], order[i + m]) != 0:
            return False
        want = {(i + 1 + t) % npts for t in range(m - 1)}
        left, right = halving._side_split(ps, order[i], order[i + m])
        if {pos[x] for x in left} != want and {pos[x] for x in right} != want:
            return False
    return True


def seeded_general_sets():
    rng = random.Random(23)
    for size in range(4, 15, 2):
        for _ in range(25):
            yield PointSet(tuple((rng.random(), rng.random()) for _ in range(size)))
            yield PointSet(tuple((rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(size)))
            grid = set()
            while len(grid) < size:
                grid.add((float(rng.randrange(24)), float(rng.randrange(24))))
            yield PointSet(tuple(sorted(grid)))


def test_h_labeling_matches_the_definition():
    labeled = refused = 0
    for ps in seeded_general_sets():
        try:
            halving_profile(ps)
        except DegenerateInput:
            continue
        m = len(ps) // 2
        halving_lines = sum(balance(ps, i, j) == 0 for i, j in combinations(range(len(ps)), 2))
        if halving_lines != m:
            with pytest.raises(NoHLabeling, match=f"expected {m} halving lines"):
                h_labeling(ps)
            refused += 1
            continue
        lab = h_labeling(ps)
        assert is_h_labeling(ps, lab.relabeling), ps.points
        assert lab.pairs == tuple((lab.relabeling[i], lab.relabeling[i + m]) for i in range(m))
        labeled += 1
    assert labeled >= 100 and refused >= 100


# a centroid-angle order pairs no antipodes on the first set, and splits
# h_0's side on the second; each has 12 h-labelings, all rotations and
# reflections of one
@pytest.mark.parametrize("points", [
    ((0, 0), (1, 1), (1, 5), (2, 1), (5, 3), (5, 4)),
    ((0, 0), (0, 6), (1, 5), (3, 4), (3, 5), (4, 4)),
])
def test_h_labeling_where_the_centroid_order_is_no_labeling(points):
    ps = PointSet(tuple((float(x), float(y)) for x, y in points), "general")
    lab = h_labeling(ps)
    assert is_h_labeling(ps, lab.relabeling)
    for t in (0, 1):
        assert verify_partition(theorem2_partition(ps, t)).ok
