import math
import random

import pytest

from planetrees import PointSet, brute_force_partitions, make_wheel
from planetrees.presets import figure_pointset


@pytest.fixture(scope="session")
def wheel3():
    return make_wheel(3)


@pytest.fixture(scope="session")
def fig5():
    return figure_pointset("fig5")


@pytest.fixture(scope="session")
def wheel3_oracle(wheel3):
    """Exhaustive partitions of K_6 on the wheel, shared across tests."""
    return brute_force_partitions(wheel3, limit=None)


def regular_gon(m: int, phase: float = 0.3, radius: float = 1.0) -> PointSet:
    pts = tuple((radius * math.cos(phase + 2 * math.pi * i / m),
                 radius * math.sin(phase + 2 * math.pi * i / m)) for i in range(m))
    return PointSet(pts, "convex")


def shuffled_gon(m: int, seed: int = 5) -> PointSet:
    """regular_gon(m) with its labels shuffled: in convex position, but
    its circle is not the index order turned."""
    perm = list(range(m))
    random.Random(seed).shuffle(perm)
    return PointSet(tuple(regular_gon(m).points[i] for i in perm), "convex")


COCIRCULAR_DRAWS = 1000


def random_cocircular(m: int, rng: random.Random) -> PointSet:
    """m points on the unit circle, anticlockwise, min gap bounded away from 0.

    Redraws until every gap exceeds 1e-3, at most COCIRCULAR_DRAWS times,
    then raises: a draw succeeds with probability about exp(-m^2 / 6283),
    so 300 points would almost never get one. Up to 20 points nearly
    every first draw succeeds."""
    for _ in range(COCIRCULAR_DRAWS):
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(m))
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(2 * math.pi - angles[-1] + angles[0])
        if min(gaps) > 1e-3:
            return PointSet(tuple((math.cos(a), math.sin(a)) for a in angles), "convex")
    raise ValueError(f"random_cocircular: no draw of m = {m} points has every gap "
                     f"above 1e-3 in {COCIRCULAR_DRAWS} draws")


CONVEX_DRAWS = 1000


def random_convex(m: int, rng: random.Random) -> PointSet:
    """Convex position with varying radii (still anticlockwise by angle).

    Redraws until every gap is at least pi/(4m) and the jittered points
    are in strict convex position, at most CONVEX_DRAWS times, then
    raises: every gap is that wide with probability (7/8)^(m-1), so 100
    points would almost never get a draw. Up to the suite's 24 points a
    draw succeeds with probability above 1/25, and all of them fail with
    probability below 1e-20."""
    from planetrees import collinear_triple, convex_hull
    for _ in range(CONVEX_DRAWS):
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(m))
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(2 * math.pi - angles[-1] + angles[0])
        if min(gaps) < math.pi / (4 * m):
            continue
        pts = []
        for i, a in enumerate(angles):
            # outward jitter below the sagitta of the narrower neighbor gap
            # keeps every point extremal
            slack = 1 - math.cos(0.5 * min(gaps[i - 1], gaps[i]))
            r = 1.0 + 0.4 * rng.random() * slack
            pts.append((r * math.cos(a), r * math.sin(a)))
        ps = PointSet(tuple(pts), "general")
        if collinear_triple(pts) is None and len(convex_hull(ps)) == m:
            return PointSet(tuple(pts), "convex")
    raise ValueError(f"random_convex: no draw of m = {m} points has every gap at least "
                     f"pi/(4m) and convex position in {CONVEX_DRAWS} draws")


def label_interleave(e1, e2, m: int) -> bool:
    """Crossing test in circular label space (convex position)."""
    a, b = e1
    c, d = e2
    if a in (c, d) or b in (c, d):
        return False

    def inside(x, lo, hi):
        return 0 < (x - lo) % m < (hi - lo) % m

    return inside(c, a, b) != inside(d, a, b)


def random_plane_convex_tree(m: int, rng: random.Random) -> set[tuple[int, int]]:
    """Uniformly shuffled greedy non-crossing spanning tree in label space."""
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen: list[tuple[int, int]] = []
    while len(chosen) < m - 1:
        rng.shuffle(edges)
        for e in edges:
            ra, rb = find(e[0]), find(e[1])
            if ra == rb:
                continue
            if any(label_interleave(e, f, m) for f in chosen):
                continue
            parent[ra] = rb
            chosen.append(e)
            if len(chosen) == m - 1:
                break
    return set(chosen)
