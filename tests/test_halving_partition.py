import random

import pytest

from planetrees import (ConstructionChoices, DegenerateInput,
                        HypothesisViolated, InvalidChoices, InvalidParameter,
                        NoHLabeling, NotAHalvingLine, SideViolation,
                        check_theorem4_hypothesis, classify, h_labeling,
                        is_plane, is_spanning_tree, lemma6_tree, make_wheel,
                        theorem2_partition, theorem3_partition,
                        theorem4_partition, verify_partition, w_labeling)
from planetrees.geom_core import PointSet, edge
from planetrees.presets import (CHOICES_PRESETS, FIG4_ROLES,
                                construction_pointset, figure_pointset)
from planetrees.tree_taxonomy import rotate_labels

from conftest import regular_gon
from test_properties import feasible_extends


def norm(edges):
    return tuple(sorted(tuple(sorted(e)) for e in edges))


def test_choices_defaults():
    c = ConstructionChoices()
    assert (c.star_side, c.extend_side, c.type4, c.line) == ("low", None, "Type1", None)


# ---------------------------------------------------------------------------
# halving-line trees (one tree per line)

def test_lemma6_tree_fig4():
    ps = figure_pointset("fig4")
    t = lemma6_tree(ps, (FIG4_ROLES["u"], FIG4_ROLES["v"]),
                    FIG4_ROLES["w1"], FIG4_ROLES["w2"])
    assert t.edges == norm([(1, 7), (10, 1), (10, 0), (10, 11), (10, 9), (10, 8),
                            (5, 7), (5, 2), (5, 3), (5, 4), (5, 6)])
    assert is_spanning_tree(t) and is_plane(t)


def test_lemma6_tree_every_side_pick_works():
    ps = regular_gon(8)
    for w1 in (1, 2, 3):
        for w2 in (5, 6, 7):
            t = lemma6_tree(ps, (0, 4), w1, w2)
            assert is_spanning_tree(t) and is_plane(t)


def test_lemma6_tree_errors():
    ps = regular_gon(8)
    with pytest.raises(NotAHalvingLine):
        lemma6_tree(ps, (0, 1), 2, 3)
    with pytest.raises(SideViolation):
        lemma6_tree(ps, (0, 4), 1, 2)
    with pytest.raises(InvalidParameter):
        lemma6_tree(ps, (0, 4), 0, 5)
    with pytest.raises(InvalidParameter):
        lemma6_tree(ps, (0, 4), 1, 9)
    flat = PointSet(((0.0, 0.0), (4.0, 0.0), (2.0, 0.0), (1.0, 3.0)), "general")
    with pytest.raises(DegenerateInput):
        lemma6_tree(flat, (0, 1), 2, 3)


# ---------------------------------------------------------------------------
# double stars and their refinement

def test_theorem2_t0_fig5(fig5):
    p = theorem2_partition(fig5, 0)
    assert len(p.trees) == 4
    assert p.trees[0].edges == norm(
        [(0, 4), (0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)])
    assert verify_partition(p).ok
    for t in p.trees:
        assert classify(t).double_star == (3, 3)


def test_theorem2_t1_fig5(fig5):
    p = theorem2_partition(fig5, 1)
    want = (
        [(4, 0), (4, 1), (0, 5), (5, 7), (5, 6), (1, 3), (1, 2)],
        [(5, 1), (5, 2), (1, 6), (2, 4), (2, 3), (6, 0), (6, 7)],
        [(2, 6), (6, 3), (2, 7), (7, 1), (7, 0), (3, 5), (3, 4)],
        [(3, 7), (3, 0), (7, 4), (4, 5), (4, 6), (0, 1), (0, 2)],
    )
    assert tuple(t.edges for t in p.trees) == tuple(norm(w) for w in want)
    assert verify_partition(p).ok
    for t in p.trees:
        assert classify(t).s_k == (2, 2, 2)


def test_theorem2_consecutive_k4_overlap(fig5):
    # consecutive trees meet the complete graph on the two adjacent
    # halving lines in complementary perfect triples (t=0) or in exactly
    # one shared path edge against a singleton (t=1)
    relab = h_labeling(fig5).relabeling
    m = 4

    def k4(*labels):
        orig = [relab[x % (2 * m)] for x in labels]
        return {tuple(sorted((a, b))) for i, a in enumerate(orig) for b in orig[i + 1:]}

    for t in (0, 1):
        p = theorem2_partition(fig5, t)
        for i in range(m):
            u1, u2 = relab[i], relab[(i + m) % (2 * m)]
            if t == 0:
                v1, v2 = relab[(i + m + 1) % (2 * m)], relab[(i + 1) % (2 * m)]
            else:
                v1, v2 = relab[(i + 1) % (2 * m)], relab[(i + m + 1) % (2 * m)]
            quad = k4(i, i + m, i + 1, i + m + 1)
            mine = set(p.trees[i].edges) & quad
            nxt = set(p.trees[(i + 1) % m].edges) & quad
            e = lambda a, b: tuple(sorted((a, b)))
            assert mine == {e(u1, u2), e(u1, v2), e(u2, v1)}
            if t == 0:
                assert nxt == {e(v1, v2), e(v1, u1), e(v2, u2)}
            else:
                assert nxt == {e(v1, v2)}
                assert nxt < {e(v1, v2), e(v1, u1), e(v2, u2)}


def test_theorem2_errors(fig5, wheel3):
    with pytest.raises(InvalidParameter):
        theorem2_partition(fig5, 2)
    with pytest.raises(NoHLabeling):
        theorem2_partition(wheel3, 0)


def test_theorem2_t1_needs_two_halving_lines():
    # t = 1 hangs its stars off labels 1 and m + 1, which 2 points lack
    ps = PointSet(((0, 0), (1, 0)), "general")
    assert verify_partition(theorem2_partition(ps, 0)).ok
    with pytest.raises(InvalidParameter, match=r"^t = 1 needs m >= 2 halving lines, got m = 1$"):
        theorem2_partition(ps, 1)


# ---------------------------------------------------------------------------
# zigzag construction, doubly-symmetric case

def test_theorem3_fig6_golden():
    ps = construction_pointset("fig6")
    p = theorem3_partition(ps, 2, CHOICES_PRESETS["fig6"])
    t0 = [(0, 6), (6, 1), (1, 5), (5, 2), (5, 4), (5, 3),
          (0, 7), (7, 11), (11, 8), (11, 10), (11, 9)]
    assert len(p.trees) == 6
    assert p.trees[0].edges == norm(t0)
    for q in (1, 2):
        shifted = [((a + q) % 12, (b + q) % 12) for a, b in t0]
        assert p.trees[q].edges == norm(shifted)
    assert verify_partition(p).ok
    sym = classify(p.trees[0]).symmetric
    assert sym is not None and sym.edge == (0, 6)


def test_theorem3_same_side_gaps_distinct():
    ps = regular_gon(10)
    n = 5
    for r in range(1, n):
        p = theorem3_partition(ps, r)
        relab = h_labeling(ps).relabeling
        back = {orig: lab for lab, orig in enumerate(relab)}
        lab_edges = [tuple(sorted((back[a], back[b]))) for a, b in p.trees[0].edges]
        left = [b - a for a, b in lab_edges if b <= n and (a, b) != (0, n)]
        right = [b - a for a, b in lab_edges if a >= n]
        assert len(set(left)) == len(left)
        assert len(set(right)) == len(right)
        assert sorted(left) == sorted(right)


def test_theorem3_choice_plumbing():
    ps = regular_gon(8)
    p = theorem3_partition(ps, 2, ConstructionChoices(line=(0, 2), extend_side=("right",)))
    assert verify_partition(p).ok
    p2 = theorem3_partition(ps, 2, ConstructionChoices(star_side="high"))
    assert verify_partition(p2).ok
    assert p2.trees[0].edges != theorem3_partition(ps, 2).trees[0].edges


def test_theorem3_invalid_choices():
    ps = regular_gon(8)
    with pytest.raises(InvalidChoices, match="not among candidates"):
        theorem3_partition(ps, 2, ConstructionChoices(line=(0, 3)))
    with pytest.raises(InvalidChoices, match="exactly 2 entries"):
        theorem3_partition(ps, 3, ConstructionChoices(extend_side=("left",)))
    with pytest.raises(InvalidChoices, match="leaves window"):
        theorem3_partition(ps, 3, ConstructionChoices(extend_side=("right", "right")))
    with pytest.raises(InvalidChoices, match="leaves window"):
        theorem3_partition(ps, 2, ConstructionChoices(line=(0, 2)))
    with pytest.raises(InvalidChoices, match="star_side"):
        theorem3_partition(ps, 2, ConstructionChoices(star_side="middle"))
    with pytest.raises(InvalidChoices, match="'left' or 'right'"):
        theorem3_partition(ps, 2, ConstructionChoices(extend_side=("up",)))


def test_theorem3_hypothesis_gate(wheel3):
    with pytest.raises(HypothesisViolated, match="point 5 on 5 0-halving lines"):
        theorem3_partition(wheel3, 1)


# ---------------------------------------------------------------------------
# zigzag construction, dominant-point case

def test_theorem4_fig7_golden():
    ps = construction_pointset("fig7")
    p = theorem4_partition(ps, 3, CHOICES_PRESETS["fig7"])
    assert len(p.trees) == 7
    assert p.trees[0].edges == norm(
        [(13, 6), (6, 0), (0, 7), (0, 8), (8, 9), (8, 10), (8, 11), (8, 12),
         (6, 1), (1, 2), (1, 3), (1, 4), (1, 5)])
    assert p.trees[1].edges == norm(
        [(1, 7), (1, 8), (7, 13), (1, 9), (9, 10), (9, 11), (9, 12), (9, 0),
         (7, 2), (2, 3), (2, 4), (2, 5), (2, 6)])
    assert p.trees[6].edges == norm(
        [(13, 12), (13, 0), (13, 1), (13, 2), (13, 3), (13, 4), (13, 5),
         (6, 12), (12, 7), (7, 8), (7, 9), (7, 10), (7, 11)])
    assert verify_partition(p).ok


def test_theorem4_fig8_golden():
    ps = construction_pointset("fig8")
    p = theorem4_partition(ps, 3, CHOICES_PRESETS["fig8"])
    assert p.trees[0].edges == norm(
        [(13, 6), (6, 0), (0, 7), (7, 12), (0, 5), (12, 8), (12, 9), (12, 10),
         (12, 11), (5, 1), (5, 2), (5, 3), (5, 4)])
    assert p.trees[1].edges == norm(
        [(1, 7), (1, 8), (7, 13), (8, 0), (0, 9), (0, 10), (0, 11), (0, 12),
         (1, 6), (6, 2), (6, 3), (6, 4), (6, 5)])
    assert p.trees[6].edges == norm(
        [(13, 12), (13, 0), (13, 1), (13, 2), (13, 3), (13, 4), (13, 5),
         (6, 12), (6, 11), (11, 7), (11, 8), (11, 9), (11, 10)])
    assert verify_partition(p).ok


def test_theorem4_families_on_drawn_coordinates():
    # the hand-drawn 14-point set satisfies the hypothesis up to r=2
    ps = figure_pointset("fig7")
    for typ in ("Type1", "Type2"):
        p = theorem4_partition(ps, 2, ConstructionChoices(type4=typ))
        assert verify_partition(p).ok


def test_theorem4_default_choices_and_classes():
    for n in (3, 4, 5):
        ps = make_wheel(n)
        for r in range(2, n):
            for typ in ("Type1", "Type2"):
                p = theorem4_partition(ps, r, ConstructionChoices(type4=typ))
                assert verify_partition(p).ok
                rep = classify(p.trees[0])
                assert rep.w_caterpillar
                assert classify(p.trees[-1]).caterpillar


def test_theorem4_r1_has_no_lines():
    # the candidates range(lo, lo + r - 1) are empty at r = 1, so r is
    # refused before any choice or hypothesis is read
    for r in (1, 0, -3):
        with pytest.raises(InvalidParameter, match=rf"^theorem 4 needs r in 2\.\.3, got {r}$"):
            theorem4_partition(make_wheel(4), r)
    with pytest.raises(InvalidParameter, match=r"r in 2\.\.3, got 1"):
        theorem4_partition(make_wheel(4), 1, ConstructionChoices(type4="Type2"))
    with pytest.raises(InvalidParameter, match=r"r in 2\.\.7, got 1"):
        theorem4_partition(make_wheel(8), 1, ConstructionChoices(type4="Type9", line=(0, 1)))
    assert check_theorem4_hypothesis(make_wheel(4), 1)  # the hypothesis keeps r = 1


def _theorem4_choices(rng, n, r, typ):
    """Seeded choices of theorem 4's free parameters: a candidate line, a
    star side and a zigzag word its window absorbs."""
    lo = n + 1 if typ == "Type1" else n
    s, t = rng.choice([(i, i + n - r) for i in range(lo, lo + r - 1)])
    return ConstructionChoices(type4=typ, star_side=rng.choice(("low", "high")), line=(s, t),
                               extend_side=feasible_extends(rng, s, t, lo, lo + n - 2, r - 2))


def test_theorem4_last_tree_is_the_papers():
    # T_{n-1} is computed as the pairs no turn of T_0 holds; it is the
    # paper's: w's spokes to v_{n-1}..v_{2n-2} and T_0's edges among
    # v_0..v_{n-1}, all turned by n - 1
    rng = random.Random(4)
    for n in range(3, 13):
        ps = make_wheel(n)
        lab = w_labeling(ps)
        m = 2 * n - 1
        table = (*lab.order, lab.w)
        label = {x: i for i, x in enumerate(table)}
        for r in range(2, n):
            for typ in ("Type1", "Type2"):
                runs = [ConstructionChoices(type4=typ)]
                runs += [_theorem4_choices(rng, n, r, typ) for _ in range(3)]
                for choices in runs:
                    p = theorem4_partition(ps, r, choices)
                    t0 = [(label[a], label[b]) for a, b in p.trees[0].edges]
                    last = [(m, z) for z in range(n - 1, m)]
                    last += [(a, b) for a, b in t0 if m not in (a, b) and max(a, b) <= n - 1]
                    want = sorted(edge(table[a], table[b])
                                  for a, b in rotate_labels(last, n - 1, m))
                    assert list(p.trees[-1].edges) == want, (n, r, choices)


def test_theorem4_bad_choices():
    ps = make_wheel(4)
    with pytest.raises(InvalidChoices, match="type4"):
        theorem4_partition(ps, 2, ConstructionChoices(type4="Type3"))
    with pytest.raises(InvalidChoices, match="not among candidates"):
        theorem4_partition(ps, 2, ConstructionChoices(line=(1, 2)))


def test_theorem4_hypothesis_gate():
    with pytest.raises(HypothesisViolated, match="point 3 on 4 3-halving lines"):
        theorem4_partition(figure_pointset("fig7"), 3)
    with pytest.raises(HypothesisViolated, match="expected 7 halving lines"):
        theorem4_partition(regular_gon(8), 2)
