import random

from hypothesis import given, settings
from hypothesis import strategies as st

from planetrees import (ConstructionChoices, brute_force_partitions,
                        build_wheel_partition, classify, h_labeling,
                        k_halving_lines, make_wheel,
                        place_caterpillar_on_chain, theorem2_partition,
                        theorem3_partition, theorem4_partition,
                        verify_partition)
from planetrees.presets import builtin_tree

from conftest import random_cocircular, random_convex, regular_gon


def random_caterpillar(rng, nverts):
    """Random spine, random leg attachment; vertices are 0..nverts-1."""
    spine_len = rng.randint(1, nverts)
    edges = [(i, i + 1) for i in range(spine_len - 1)]
    for leg in range(spine_len, nverts):
        edges.append((rng.randrange(spine_len), leg))
    return edges


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.randoms(use_true_random=False))
def test_placement_always_graceful(nverts, rng):
    edges = random_caterpillar(rng, nverts)
    ps = regular_gon(max(nverts, 4))
    chain = list(range(nverts))
    rng.shuffle(chain)
    chain = chain[::rng.choice((1, -1))]
    t = place_caterpillar_on_chain(edges, ps, chain)
    slot = {p: s for s, p in enumerate(chain)}
    gaps = sorted(abs(slot[a] - slot[b]) for a, b in t.edges)
    assert gaps == list(range(1, nverts))


def test_halving_counts_partition_pairs():
    rng = random.Random(2024)
    for _ in range(8):
        m = rng.choice((3, 4, 5, 6))
        ps = random_convex(2 * m, rng)
        per_k = [len(k_halving_lines(ps, k)) for k in range(m)]
        assert sum(per_k) == m * (2 * m - 1)
        assert per_k[0] == m


def test_theorem2_on_random_cocircular():
    rng = random.Random(99)
    for trial in range(10):
        m = rng.choice((2, 3, 4, 5))
        ps = random_cocircular(2 * m, rng)
        for t in (0, 1):
            p = theorem2_partition(ps, t)
            assert verify_partition(p).ok, (trial, m, t)
            rep = classify(p.trees[0])
            if t == 0:
                assert rep.double_star == (m - 1, m - 1)
            elif m == 2:
                assert rep.double_star == (1, 1)
            else:
                assert rep.s_k == (2, m - 2, m - 2)


def feasible_extends(rng, s, t, lo, hi, steps):
    """A uniformly random left/right word the window can absorb."""
    out = []
    p, q = s, t
    for _ in range(steps):
        options = []
        if p - 1 >= lo:
            options.append("left")
        if q + 1 <= hi:
            options.append("right")
        side = rng.choice(options)
        out.append(side)
        if side == "left":
            p -= 1
        else:
            q += 1
    return tuple(out)


def test_theorem3_choice_independence():
    rng = random.Random(7)
    for n in (3, 4, 5):
        ps = regular_gon(2 * n)
        for r in range(1, n):
            candidates = [(i, i + n - r) for i in range(r)]
            for _ in range(6):
                s, t = rng.choice(candidates)
                choices = ConstructionChoices(
                    star_side=rng.choice(("low", "high")),
                    line=(s, t),
                    extend_side=feasible_extends(rng, s, t, 0, n, r - 1))
                p = theorem3_partition(ps, r, choices)
                assert verify_partition(p).ok, (n, r, choices)
                assert classify(p.trees[0]).symmetric is not None


def test_theorem4_choice_independence():
    rng = random.Random(11)
    for n in (3, 4, 5):
        ps = make_wheel(n)
        for r in range(2, n):
            for typ in ("Type1", "Type2"):
                if typ == "Type1":
                    lo, hi = n + 1, 2 * n - 1
                    candidates = [(i, i + n - r) for i in range(n + 1, n + r)]
                else:
                    lo, hi = n, 2 * n - 2
                    candidates = [(i, i + n - r) for i in range(n, n + r - 1)]
                for _ in range(6):
                    s, t = rng.choice(candidates)
                    choices = ConstructionChoices(
                        type4=typ,
                        star_side=rng.choice(("low", "high")),
                        line=(s, t),
                        extend_side=feasible_extends(rng, s, t, lo, hi, r - 2))
                    p = theorem4_partition(ps, r, choices)
                    assert verify_partition(p).ok, (n, r, typ, choices)
                    assert classify(p.trees[0]).w_caterpillar


def test_convex_six_count_is_position_independent():
    rng = random.Random(5)
    for _ in range(5):
        ps = random_convex(6, rng)
        assert len(brute_force_partitions(ps, limit=None)) == 4


def test_h_labeling_random_convex_certifies_sides():
    rng = random.Random(21)
    for _ in range(6):
        m = rng.choice((3, 4, 5, 7))
        ps = random_convex(2 * m, rng)
        lab = h_labeling(ps)
        assert len(lab.pairs) == m
        assert sorted(lab.relabeling) == list(range(2 * m))


def test_wheel_partition_random_double_stars():
    # double stars are w-caterpillars at every size; spot-check large builds
    for n in (5, 6, 8, 10):
        p = build_wheel_partition(builtin_tree("doublestar", n), n)
        assert verify_partition(p).ok
