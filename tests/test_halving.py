import math
import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planetrees import (DegenerateInput, HalvingLine, InvalidParameter,
                        NoHLabeling, NoWLabeling, OddPointCount, Orientation,
                        balance, check_theorem3_hypothesis,
                        check_theorem4_hypothesis, h_labeling, halving,
                        halving_profile, k_halving_lines, make_wheel,
                        orientation, theorem2_partition, theorem3_partition,
                        theorem4_partition, w_labeling)
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
    # regular polygons with a vertex on the +x ray, points shuffled: rounding
    # puts both points of an antipodal pair in one half-plane about the
    # centroid, and the sort compares them
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
    h_labeling(figure_pointset("fig5"))  # no cyclic order: every side is split
    assert len(calls) == 4
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
