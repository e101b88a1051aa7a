"""Partitions of K_2n driven by halving-line structure.

Theorems 3 and 4 start alike, in one step: pick a starting line among
the theorem's candidates, check that it is r-halving on the set, star
one of its endpoints over the labels between them, and extend by a
zigzag that swallows one more label on the left or right at a time
inside the theorem's window. Each theorem keeps only its candidates,
window and label map, mirrors the result onto the antipodal labels and
rotates. The per-step choices (which candidate line, which endpoint
carries the star, the left/right extension order) are surfaced in
ConstructionChoices so every drawn variant is reproducible.

Each theorem draws T_0 on labels, turns it with
tree_taxonomy.rotate_labels, and hands the trees and its labeling to
tree_taxonomy.partition_from_labels, which checks the cover; spanning
and planarity are verify_partition's to decide.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import (HypothesisViolated, InvalidChoices, InvalidParameter,
                     NotAHalvingLine, SideViolation)
from .geom_core import PointSet, edge
from .halving import (_side_split, check_theorem3_hypothesis,
                      check_theorem4_hypothesis, h_labeling, halving_profile,
                      w_labeling)
from .tree_taxonomy import (GeomTree, Partition, partition_from_labels,
                            rotate_labels)


@dataclass(frozen=True)
class ConstructionChoices:
    """Free choices left open by the zigzag constructions.

    line: starting r-halving line as a label pair, or None for the
        largest candidate (which always admits the default extension).
    star_side: "low" stars the smaller label of the line, "high" the larger.
    extend_side: explicit left/right sequence for the zigzag, or None
        for all-left.
    type4: which of the two wheel-like cases theorem4_partition builds.
    """
    star_side: str = "low"
    extend_side: tuple[str, ...] | None = None
    type4: str = "Type1"
    line: tuple[int, int] | None = None


def _check_star_side(choices: ConstructionChoices) -> None:
    if choices.star_side not in ("low", "high"):
        raise InvalidChoices(f"star_side must be 'low' or 'high', got {choices.star_side!r}")


def _start(ps: PointSet, r: int, choices: ConstructionChoices,
           candidates: list[tuple[int, int]], what: str, point: Callable[[int], int],
           lo: int, hi: int, steps: int) -> list[tuple[int, int]]:
    """The start of T_0 shared by theorems 3 and 4: the chosen line (s, t)
    of the candidates (the last by default), checked to be r-halving once
    point reads its labels as points, then the star over s..t from the
    end star_side names and the zigzag of steps steps inside [lo, hi]."""
    if not candidates:
        raise InvalidChoices(f"{what} has no admissible starting lines: {candidates}")
    line = candidates[-1] if choices.line is None else tuple(choices.line)
    if line not in candidates:
        raise InvalidChoices(f"line {line} not among candidates {candidates}")
    s, t = line
    if halving_profile(ps).k(point(s), point(t)) != r:
        raise HypothesisViolated(f"label line ({s},{t}) is not {r}-halving on this set")
    if choices.star_side == "low":
        star = [(s, x) for x in range(s + 1, t + 1)]
    else:
        star = [(t, y) for y in range(s, t)]
    return star + _zigzag(s, t, lo, hi, steps, choices.extend_side)


def _zigzag(s: int, t: int, lo: int, hi: int, steps: int,
            extends: tuple[str, ...] | None) -> list[tuple[int, int]]:
    """Edges appended while widening (s, t) by one label a step, steps times.

    Each "left" step adds edge (q, p-1), each "right" adds (p, q+1); the
    window [lo, hi] bounds the labels the zigzag may absorb.
    """
    if extends is None:
        extends = ("left",) * steps
    if len(extends) != steps:
        raise InvalidChoices(f"extend_side needs exactly {steps} entries, got {len(extends)}")
    edges = []
    p, q = s, t
    for side in extends:
        if side not in ("left", "right"):
            raise InvalidChoices(f"extension steps must be 'left' or 'right', got {side!r}")
        if p - 1 < lo if side == "left" else q + 1 > hi:
            raise InvalidChoices(f"{side} step from ({p},{q}) leaves window [{lo},{hi}]")
        if side == "left":
            p -= 1
            edges.append((q, p))
        else:
            q += 1
            edges.append((p, q))
    return edges


def lemma6_tree(ps: PointSet, hl: tuple[int, int], w1: int, w2: int) -> GeomTree:
    """Plane spanning tree from a halving line uv and one pick per side.

    Edges: the path w1-u-v-w2 plus stars from w1 over its own side and
    from w2 over the other side, matching the drawn construction.
    """
    u, v = hl
    npts = len(ps)
    for idx in (u, v, w1, w2):
        if not 0 <= idx < npts:
            raise InvalidParameter(f"index {idx} out of range")
    if len({u, v, w1, w2}) != 4:
        raise InvalidParameter("u, v, w1, w2 must be four distinct points")
    left, right = _side_split(ps, u, v)
    if len(left) != len(right):
        raise NotAHalvingLine(f"line ({u},{v}) splits {len(left)}/{len(right)}")
    if (w1 in left) == (w2 in left):
        raise SideViolation(f"w1={w1} and w2={w2} lie on the same side of ({u},{v})")
    p1, p2 = (left, right) if w1 in left else (right, left)
    edges = [edge(w1, u), edge(u, v), edge(v, w2)]
    edges += [edge(w1, x) for x in p1 if x != w1]
    edges += [edge(w2, y) for y in p2 if y != w2]
    return GeomTree(ps, tuple(edges))


# ---------------------------------------------------------------------------
# Theorem 2: double stars (t=0) / their zigzag refinement (t=1)

def _t2_label_tree(t: int, m: int) -> list[tuple[int, int]]:
    """T_0 on labels 0..2m-1, hung off the halving line v_0 v_m."""
    if t == 0:
        edges = [(0, m)]
        edges += [(0, d) for d in range(1, m)]
        edges += [(m, m + d) for d in range(1, m)]
    else:
        edges = [(0, m), (0, m + 1), (m, 1)]
        edges += [(1, d) for d in range(2, m)]
        edges += [(m + 1, m + d) for d in range(2, m)]
    return edges


def theorem2_partition(ps: PointSet, t: int) -> Partition:
    """m plane spanning trees hung off the m halving lines of a 2m set.

    t=0 turns each halving line v_i v_{i+m} into a double star; t=1
    shifts both stars one label over, yielding a longer spine.
    """
    if t not in (0, 1):
        raise InvalidParameter(f"t must be 0 or 1, got {t}")
    relab = h_labeling(ps).relabeling
    m = len(ps) // 2
    t0 = _t2_label_tree(t, m)
    return partition_from_labels(ps, [rotate_labels(t0, i, 2 * m) for i in range(m)],
                                 "theorem2", relab.__getitem__)


# ---------------------------------------------------------------------------
# Theorem 3: zigzag trees on doubly-covered convex-like sets

def theorem3_partition(ps: PointSet, r: int, choices: ConstructionChoices | None = None) -> Partition:
    """n plane spanning trees from an r-halving line, rotated n times.

    T_0 is the central edge v_0 v_n, a star over one side of the chosen
    r-halving line, a zigzag absorbing the rest of the window [0, n],
    and a mirror copy of everything but the central edge shifted by n.
    """
    choices = choices or ConstructionChoices()
    _check_star_side(choices)
    n = len(ps) // 2
    hyp = check_theorem3_hypothesis(ps, r)
    if not hyp:
        raise HypothesisViolated(hyp.reason)
    relab = h_labeling(ps).relabeling
    # every label lies in the window [0, n]; the mirror skips v_0 v_n
    side = _start(ps, r, choices, [(i, i + n - r) for i in range(r)], f"theorem3 with r={r}",
                  relab.__getitem__, 0, n, r - 1)
    t0 = [(0, n)] + side + rotate_labels(side, n, 2 * n)
    return partition_from_labels(ps, [rotate_labels(t0, q, 2 * n) for q in range(n)],
                                 "theorem3", relab.__getitem__)


# ---------------------------------------------------------------------------
# Theorem 4: zigzag trees on wheel-like sets (one dominant point w)

def theorem4_partition(ps: PointSet, r: int, choices: ConstructionChoices | None = None) -> Partition:
    """n plane spanning trees on a set whose halving lines all pass through w.

    Both cases start from the 4-path w v_{n-1} v_0 v_n. Type1 zigzags
    inside the window [n+1, 2n-1] (the top label standing for v_0),
    Type2 inside [n, 2n-2]; copies are shifted by -n, the first n-1
    trees are rotations of T_0, and T_{n-1} is the complement.
    """
    choices = choices or ConstructionChoices()
    _check_star_side(choices)
    if choices.type4 not in ("Type1", "Type2"):
        raise InvalidChoices(f"type4 must be 'Type1' or 'Type2', got {choices.type4!r}")
    n = len(ps) // 2
    hyp = check_theorem4_hypothesis(ps, r)
    if not hyp:
        raise HypothesisViolated(hyp.reason)
    lab = w_labeling(ps)
    m = 2 * n - 1
    orig = (*lab.order, lab.w).__getitem__  # labels 0..m-1, then w as m
    # the window is [lo, lo + n - 2]: [n+1, 2n-1] for Type1, [n, 2n-2] for Type2
    lo = n + 1 if choices.type4 == "Type1" else n
    candidates = [(i, i + n - r) for i in range(lo, lo + r - 1)]
    # Type1's window top 2n-1 is v_0 in disguise, so labels are reduced
    # mod m: rotate_labels would hold 2n-1 = m fixed as w
    step2 = [(a % m, b % m) for a, b in _start(
        ps, r, choices, candidates, f"theorem4 {choices.type4} with r={r}",
        lambda label: orig(label % m), lo, lo + n - 2, r - 2)]
    t0 = [(m, n - 1), (n - 1, 0), (0, n)] + step2 + rotate_labels(step2, -n, m)
    label_trees = [rotate_labels(t0, q, m) for q in range(n - 1)]
    last = [(m, 2 * n - 2)] + [(m, z) for z in range(n - 1)]
    small = [(a, b) for a, b in t0 if m not in (a, b) and a <= n - 1 and b <= n - 1]
    last += rotate_labels(small, n - 1, m)
    # the cover check also makes last the complement of the others
    label_trees.append(last)
    return partition_from_labels(ps, label_trees, "theorem4", orig)
