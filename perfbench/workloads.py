"""Seeded inputs and timed instances for the benchmark workloads.

An instance is the public-call sequence of one CLI subcommand:

- wheel construction:   build_wheel_partition -> analyze_wheel_partition
                        -> verify_partition -> emit_partition
- halving construction: theorem{2,3,4}_partition -> verify_partition
                        -> emit_partition
- file check:           parse_pointset -> parse_partition -> verify_partition

Workload "wheel" runs wheel constructions; "halving-check" runs halving
constructions and file checks.

Set-up generates every input from the seed and validates it with the
library (classify for trees, the theorem hypotheses for point sets).
Library calls go through module attributes, looked up at call time, so
the tracer's wrappers see them. Every output is checked afterwards, and
outside the timed region, by the independent oracle.

Cocircular and elliptic sets are jittered regular polygons: neighbouring
points stay at least pi/N apart in angle. With uniform angles, close
triples fall under orientation's 1e-9 collinearity tolerance (a known
defect of the float predicate) and fail at random, seed by seed.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from planetrees import (ConstructionChoices, PointSet, cli_io, halving,
                        halving_partition, tree_taxonomy, verify_oracle,
                        wheel_partition)
from planetrees.geom_core import make_wheel
from planetrees.tree_taxonomy import GeomTree

import oracle
from oracle import CONVEX, WHEEL, KnownDefect


TRUSTED_WHEEL_TAG = "verify_partition trusts the wheel<n> tag (ROADMAP item 2)"


@dataclass
class Instance:
    group: str
    n: int
    prepare: Callable[[], tuple]      # fresh arguments, outside timing
    execute: Callable[..., object]    # the timed call sequence
    check: Callable[[object], str | None]  # error message (maybe a KnownDefect), or None


@dataclass
class Workload:
    regular: list[Instance]   # one pass; passes repeat until time is up
    large: Instance

    def warmup(self) -> None:
        seen = set()
        for inst in self.regular:
            if inst.group not in seen:
                seen.add(inst.group)
                inst.execute(*inst.prepare())


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    wl = {"wheel": _wheel, "halving-check": _halving_check}[name](rng)
    wl.warmup()
    return wl


# ---------------------------------------------------------------------------
# generators

def w_caterpillar(n: int, frac: float, rng: random.Random) -> tuple[tuple[int, int], ...]:
    """Random w-caterpillar on 2n vertices with the given spine fraction.

    A is a caterpillar on n-1 vertices whose spine has 1 + frac*(n-2)
    vertices, rooted at a spine end, legs hung on random spine vertices.
    B is a copy of A; the 4-path u1 u2 u3 u4 joins B's root u2 to A's
    root u3, with u1 and u4 pendant. frac 0 gives a double star, frac 1
    a long path. Labels are shuffled.
    """
    k = n - 1
    spine = 1 + round(frac * (k - 1))
    parent = [-1] + list(range(spine - 1))
    parent += [rng.randrange(spine) for _ in range(spine, k)]
    edges = [(k, 0), (2 * k, k), (2 * k + 1, 0)]
    for v in range(1, k):
        edges += [(parent[v], v), (k + parent[v], k + v)]
    label = list(range(2 * n))
    rng.shuffle(label)
    return tuple((label[a], label[b]) for a, b in edges)


def _angles(count: int, rng: random.Random) -> list[float]:
    phase = rng.uniform(0, 2 * math.pi)
    return [phase + 2 * math.pi * (i + 0.5 * rng.random()) / count for i in range(count)]


def cocircular(count: int, rng: random.Random) -> PointSet:
    return PointSet(tuple((math.cos(a), math.sin(a)) for a in _angles(count, rng)), "convex")


def elliptic(count: int, rng: random.Random) -> PointSet:
    ax, ay = rng.uniform(1, 2), rng.uniform(1, 2)
    return PointSet(tuple((ax * math.cos(a), ay * math.sin(a))
                          for a in _angles(count, rng)), "convex")


def wheel_set(n: int, rng: random.Random) -> PointSet:
    return make_wheel(n, seed_angle=rng.uniform(0, 2 * math.pi))


def _extends(rng, s, t, lo, hi, steps) -> tuple[str, ...]:
    """A random left/right zigzag word that stays inside the window [lo, hi]."""
    out = []
    for _ in range(steps):
        side = rng.choice([x for x, ok in (("left", s > lo), ("right", t < hi)) if ok])
        out.append(side)
        s, t = (s - 1, t) if side == "left" else (s, t + 1)
    return tuple(out)


def theorem3_choices(n: int, r: int, rng) -> ConstructionChoices:
    s, t = rng.choice([(i, i + n - r) for i in range(r)])
    return ConstructionChoices(star_side=rng.choice(("low", "high")), line=(s, t),
                               extend_side=_extends(rng, s, t, 0, n, r - 1))


def theorem4_choices(n: int, r: int, type4: str, rng) -> ConstructionChoices:
    if type4 == "Type1":
        lo, hi, starts = n + 1, 2 * n - 1, range(n + 1, n + r)
    else:
        lo, hi, starts = n, 2 * n - 2, range(n, n + r - 1)
    s, t = rng.choice([(i, i + n - r) for i in starts])
    return ConstructionChoices(type4=type4, star_side=rng.choice(("low", "high")),
                               line=(s, t), extend_side=_extends(rng, s, t, lo, hi, r - 2))


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"generated input fails validation: {what}")


# ---------------------------------------------------------------------------
# output check shared by the construction instances

def _check_built(p, ps_points, kind: str, report, text: str) -> str | None:
    trees = [t.edges for t in p.trees]
    reason = oracle.check_partition(ps_points, kind, trees)
    if reason is not None:
        return f"built partition fails the independent {reason} check"
    if not report.ok:
        return f"verify_partition rejected a valid partition: {report.reason}"
    if oracle.parse_partition_text(text) != [sorted(t) for t in trees]:
        return "emitted partition text differs from the partition"
    return None


def _degrees(edges) -> list[int]:
    deg = Counter(v for e in edges for v in e)
    return sorted(deg.values())


# ---------------------------------------------------------------------------
# wheel

def _wheel_instance(edges, n: int) -> Instance:
    want_degrees = _degrees(edges)

    def execute(edges, n):
        p = wheel_partition.build_wheel_partition(edges, n)
        analysis = wheel_partition.analyze_wheel_partition(p)
        report = verify_oracle.verify_partition(p)
        return p, analysis, report, cli_io.emit_partition(p)

    def check(out) -> str | None:
        p, analysis, report, text = out
        err = _check_built(p, p.ps.points, WHEEL, report, text)
        if err is not None:
            return err
        if any(_degrees(t.edges) != want_degrees for t in p.trees[:-1]):
            return "a rotated copy does not have the input tree's degrees"
        if analysis.one_boundary_tree != n - 1 or len(analysis.radial_run) != n:
            return f"analysis names tree {analysis.one_boundary_tree} as the complement"
        return None

    return Instance("wheel", n, lambda: (edges, n), execute, check)


def _wheel(rng) -> Workload:
    trees = []
    for n in (8, 12, 16, 20):
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            for _ in range(2):
                trees.append((w_caterpillar(n, frac, rng), n))
    large = (w_caterpillar(40, 0.0, rng), 40)
    for edges, n in trees + [large]:
        _require(tree_taxonomy.classify(edges).w_caterpillar, f"w-caterpillar n={n}")
    regular = [_wheel_instance(e, n) for e, n in trees]
    return Workload(regular, _wheel_instance(*large))


# ---------------------------------------------------------------------------
# halving

def _halving_instance(group: str, template: PointSet, kind: str, construct) -> Instance:
    def prepare():
        return (PointSet(template.points, template.config_tag, template.labels),)

    def execute(ps):
        p = construct(ps)
        return ps, p, verify_oracle.verify_partition(p), cli_io.emit_partition(p)

    def check(out) -> str | None:
        ps, p, report, text = out
        if p.ps is not ps:
            return "partition is not drawn on the input point set"
        return _check_built(p, ps.points, kind, report, text)

    return Instance(group, len(template) // 2, prepare, execute, check)


def _theorem(name: str, *args):
    """Construction looked up at call time, so a traced wrapper is seen."""
    return lambda ps: getattr(halving_partition, name)(ps, *args)


def _halving(rng) -> tuple[list[Instance], Instance]:
    regular = []
    for n in (8, 12, 16, 20):
        ps = cocircular(2 * n, rng)
        halving.h_labeling(ps)  # theorem 2's hypothesis; raises when absent
        for t in (0, 1):
            construct = _theorem("theorem2_partition", t)
            regular.append(_halving_instance("theorem2", ps, CONVEX, construct))
    for n in (6, 8, 10):
        ps = elliptic(2 * n, rng)
        _require(halving.check_theorem3_hypothesis(ps, n - 1).ok, f"theorem 3, n={n}")
        for r in range(1, n):
            construct = _theorem("theorem3_partition", r, theorem3_choices(n, r, rng))
            regular.append(_halving_instance("theorem3", ps, CONVEX, construct))
    for n in (6, 8, 10):
        ps = wheel_set(n, rng)
        _require(halving.check_theorem4_hypothesis(ps, n - 1).ok, f"theorem 4, n={n}")
        for r in range(2, n):
            for type4 in ("Type1", "Type2"):
                construct = _theorem("theorem4_partition", r, theorem4_choices(n, r, type4, rng))
                regular.append(_halving_instance("theorem4", ps, WHEEL, construct))
    n, r = 40, 20
    ps = wheel_set(n, rng)
    _require(halving.check_theorem4_hypothesis(ps, r).ok, f"theorem 4, n={n}")
    large = _halving_instance("theorem4", ps, WHEEL, _theorem(
        "theorem4_partition", r, theorem4_choices(n, r, "Type1", rng)))
    return regular, large


# ---------------------------------------------------------------------------
# check

def _check_instance(points, tag: str, kind: str, trees, expect: str | None,
                    witness: tuple[str, list] | None, known: str | None = None) -> Instance:
    """A file check; known names the defect that makes the library accept it."""
    ps = PointSet(tuple(points), tag)
    point_text = cli_io.emit_pointset(ps)
    part_text = cli_io.emit_partition(
        wheel_partition.Partition(ps, tuple(GeomTree(ps, t) for t in trees)))
    _require(oracle.check_partition(points, kind, trees) == expect,
             f"corruption does not produce {expect}")

    def execute(point_text, part_text):
        ps = cli_io.parse_pointset(point_text)
        return verify_oracle.verify_partition(cli_io.parse_partition(part_text, ps))

    def check(report) -> str | None:
        if expect is None:
            if not report.ok:
                return f"valid {tag} file rejected: {report.reason}"
            return None
        if report.ok:
            err = f"{tag} file failing {expect} accepted"
            return err if known is None else KnownDefect(f"{err}: {known}")
        if report.reason != expect:
            return f"{tag} file failing {expect} rejected for {report.reason}"
        if witness is not None and report.witness[witness[0]] != witness[1]:
            return f"{witness[0]} witness {report.witness[witness[0]]}, want {witness[1]}"
        return None

    return Instance(f"check-{tag.rstrip('0123456789')}", len(points) // 2,
                    lambda: (point_text, part_text), execute, check)


def _check(rng) -> list[Instance]:
    def trees_of(p):
        return [list(t.edges) for t in p.trees]

    def pick(trees):
        i = rng.randrange(len(trees))
        return i, trees[i][rng.randrange(len(trees[i]))]

    def other(i, n):
        return (i + 1 + rng.randrange(n - 1)) % n

    def moved(trees, n):
        """An edge moved to another tree: cover holds, one tree falls short."""
        trees = [list(t) for t in trees]
        i, e = pick(trees)
        trees[i].remove(e)
        trees[other(i, n)].append(e)
        return trees, "spanning", None

    def duplicated(trees, n):
        trees = [list(t) for t in trees]
        i, e = pick(trees)
        trees[other(i, n)].append(e)
        return trees, "coverage", ("duplicated", [e])

    def dropped(trees, n):
        trees = [list(t) for t in trees]
        i, e = pick(trees)
        trees[i].remove(e)
        return trees, "coverage", ("missing", [e])

    def permuted(points, trees):
        """Circle points shuffled under the unchanged wheel<n> tag: the
        drawing is no longer plane, but the tag still claims the wheel."""
        m = len(points) - 1
        while True:
            perm = list(range(m))
            rng.shuffle(perm)
            shuffled = [points[j] for j in perm] + [points[m]]
            if oracle.check_partition(shuffled, WHEEL, trees) == "plane":
                return shuffled

    regular = []
    for n in (8, 12, 16, 20):
        tag = f"wheel{n}"
        cps, eps, wps = cocircular(2 * n, rng), elliptic(2 * n, rng), wheel_set(n, rng)
        rt = max(2, n // 2)
        star = trees_of(halving_partition.theorem2_partition(cps, 0))
        zig = trees_of(halving_partition.theorem2_partition(cps, 1))
        sym = trees_of(halving_partition.theorem3_partition(eps, rt))
        cat = wheel_partition.build_wheel_partition(w_caterpillar(n, 0.5, rng), n)
        cat_points, cat = cat.ps.points, trees_of(cat)
        zig4 = trees_of(halving_partition.theorem4_partition(
            wps, rt, ConstructionChoices(type4="Type2")))
        files = [(cps.points, "convex", CONVEX, star, None, None),
                 (eps.points, "convex", CONVEX, sym, None, None),
                 (cat_points, tag, WHEEL, cat, None, None),
                 (wps.points, tag, WHEEL, zig4, None, None)]
        files += [(cps.points, "convex", CONVEX, *moved(zig, n)),
                  (cat_points, tag, WHEEL, *moved(cat, n)),
                  (wps.points, tag, WHEEL, *duplicated(zig4, n)),
                  (eps.points, "convex", CONVEX, *duplicated(sym, n)),
                  (eps.points, "convex", CONVEX, *dropped(sym, n)),
                  (cps.points, "convex", CONVEX, *dropped(star, n)),
                  (permuted(cat_points, cat), tag, WHEEL, cat, "plane", None,
                   TRUSTED_WHEEL_TAG),
                  (permuted(wps.points, zig4), tag, WHEEL, zig4, "plane", None,
                   TRUSTED_WHEEL_TAG)]
        regular += [_check_instance(*f) for f in files]
    return regular


def _halving_check(rng) -> Workload:
    """Constructions and file checks share the coordinate predicates; they
    are one workload so that each run can measure for longer."""
    regular, large = _halving(rng)
    return Workload(regular + _check(rng), large)
