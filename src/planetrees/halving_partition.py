"""Partitions of K_2n driven by halving-line structure.

Three constructions share a pattern: pick a k-halving line, star one of
its endpoints over the points between them, extend by a zigzag that
alternately swallows one more point on the left or right until the
window is exhausted, mirror the result onto the antipodal labels, and
rotate. The per-step choices (which candidate line, which endpoint
carries the star, the left/right extension order) are surfaced in
ConstructionChoices so every drawn variant is reproducible.

Each theorem draws T_0 on labels, turns it with
tree_taxonomy.rotate_labels, and hands the trees and its labeling to
tree_taxonomy.partition_from_labels, which checks the cover; spanning
and planarity are verify_partition's to decide.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def _pick_line(choices: ConstructionChoices, candidates: list[tuple[int, int]],
               what: str) -> tuple[int, int]:
    if not candidates:
        raise InvalidChoices(f"{what} has no admissible starting lines: {candidates}")
    if choices.line is None:
        return candidates[-1]
    line = tuple(choices.line)
    if line not in candidates:
        raise InvalidChoices(f"line {line} not among candidates {candidates}")
    return line


def _zigzag(s: int, t: int, lo: int, hi: int, steps: int,
            extends: tuple[str, ...] | None) -> list[tuple[int, int]]:
    """Edges appended while widening (s,t) to gap hi-lo-? one unit a step.

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
        if side == "left":
            if p - 1 < lo:
                raise InvalidChoices(f"left step from ({p},{q}) leaves window [{lo},{hi}]")
            edges.append((q, p - 1))
            p -= 1
        elif side == "right":
            if q + 1 > hi:
                raise InvalidChoices(f"right step from ({p},{q}) leaves window [{lo},{hi}]")
            edges.append((p, q + 1))
            q += 1
        else:
            raise InvalidChoices(f"extension steps must be 'left' or 'right', got {side!r}")
    return edges


def _star(s: int, t: int, star_side: str) -> list[tuple[int, int]]:
    if star_side == "low":
        return [(s, x) for x in range(s + 1, t + 1)]
    return [(t, y) for y in range(s, t)]


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
    lab = h_labeling(ps)
    relab = lab.relabeling
    candidates = [(i, i + n - r) for i in range(r)]
    s, t = _pick_line(choices, candidates, f"theorem3 with r={r}")
    if halving_profile(ps).k(relab[s], relab[t]) != r:
        raise HypothesisViolated(f"label line ({s},{t}) is not {r}-halving on this set")
    # every label lies in the window [0, n]; the mirror skips v_0 v_n
    side = _star(s, t, choices.star_side) + _zigzag(s, t, 0, n, r - 1, choices.extend_side)
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
    order = lab.order
    m = 2 * n - 1

    def orig(label: int) -> int:
        return lab.w if label == m else order[label % m]

    if choices.type4 == "Type1":
        lo_raw, hi_raw = n + 1, 2 * n - 1
        candidates = [(i, i + n - r) for i in range(n + 1, n + r)]
    else:
        lo_raw, hi_raw = n, 2 * n - 2
        candidates = [(i, i + n - r) for i in range(n, n + r - 1)]
    s, t = _pick_line(choices, candidates, f"theorem4 {choices.type4} with r={r}")
    # candidate t may be the window top 2n-1, which is v_0 in disguise
    if halving_profile(ps).k(orig(s % m), orig(t % m)) != r:
        raise HypothesisViolated(f"label line ({s},{t}) is not {r}-halving on this set")
    # reduced mod m before rotating: the window's top label 2n-1 is v_0,
    # which rotate_labels would hold fixed as the centre m
    step2 = [(a % m, b % m) for a, b in _star(s, t, choices.star_side)
             + _zigzag(s, t, lo_raw, hi_raw, r - 2, choices.extend_side)]
    t0 = [(m, n - 1), (n - 1, 0), (0, n)] + step2 + rotate_labels(step2, -n, m)
    label_trees = [rotate_labels(t0, q, m) for q in range(n - 1)]
    last = [(m, 2 * n - 2)] + [(m, z) for z in range(n - 1)]
    small = [(a, b) for a, b in t0 if m not in (a, b) and a <= n - 1 and b <= n - 1]
    last += rotate_labels(small, n - 1, m)
    # the cover check also makes last the complement of the others
    label_trees.append(last)
    return partition_from_labels(ps, label_trees, "theorem4", orig)
