"""Independent partition check, sharing no code with planetrees.

The benchmark knows how it made every point set: either points in convex
position (cocircular or on an ellipse), or a regular (2n-1)-gon plus its
centre. For both, crossing is decided combinatorially from the circular
order of the points, which is read off the coordinates here with atan2:

- two chords cross iff their endpoints interleave on the circle, tested
  for a whole tree at once by matching chord ends like parentheses;
- a spoke (centre, s) crosses a chord iff s lies strictly inside the
  chord's short arc, because the centre of an odd regular polygon lies on
  the long-arc side of every chord.

check_partition returns the first failing check in the order coverage,
spanning, plane, or None for a valid partition; it never raises on a
wrong partition.
"""
from __future__ import annotations

import math
from itertools import combinations

CONVEX = "convex"
WHEEL = "wheel"


class KnownDefect(str):
    """A wrong output caused by a defect the library is known to have.

    It counts as failed, like any other wrong output, but does not make
    the run incorrect: the benchmark keeps the input so that the defect
    shows in `failed` and ok_frac until it is fixed.
    """


def circle_positions(points, kind: str) -> list[int | None]:
    """Circular position of every point; None marks a wheel's centre."""
    npts = len(points)
    if kind == WHEEL:
        cx = sum(x for x, _ in points) / npts
        cy = sum(y for _, y in points) / npts
        centre = min(range(npts), key=lambda i: math.dist(points[i], (cx, cy)))
        cx, cy = points[centre]
        radii = [math.dist(p, (cx, cy)) for i, p in enumerate(points) if i != centre]
        if max(radii) - min(radii) > 1e-9 * max(radii):
            raise ValueError("wheel circle points are not equidistant from the centre")
    elif kind == CONVEX:
        centre = None
        cx = sum(x for x, _ in points) / npts
        cy = sum(y for _, y in points) / npts
    else:
        raise ValueError(f"unknown point-set kind {kind!r}")
    ring = sorted((i for i in range(npts) if i != centre),
                  key=lambda i: math.atan2(points[i][1] - cy, points[i][0] - cx))
    pos: list[int | None] = [None] * npts
    for p, i in enumerate(ring):
        pos[i] = p
    return pos


def _spanning(npts: int, edges) -> bool:
    if len(edges) != npts - 1:
        return False
    root = list(range(npts))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        root[ra] = rb
    return True


def _plane(pos: list[int | None], edges) -> bool:
    m = sum(p is not None for p in pos)
    chords = []
    spoke = [0] * m
    for a, b in edges:
        pa, pb = pos[a], pos[b]
        if pa is None or pb is None:
            spoke[pb if pa is None else pa] = 1
        else:
            chords.append((pa, pb) if pa < pb else (pb, pa))
    # parenthesis matching: at each position close every chord ending
    # there (each must be on top of the stack), then open the chords
    # starting there, longest first
    closing = [0] * m
    for _, q in chords:
        closing[q] += 1
    chords.sort(key=lambda c: (c[0], -c[1]))
    stack: list[int] = []
    k = 0
    for x in range(m):
        for _ in range(closing[x]):
            if stack.pop() != x:
                return False
        while k < len(chords) and chords[k][0] == x:
            stack.append(chords[k][1])
            k += 1
    if not any(spoke):
        return True
    before = [0]
    for s in spoke:
        before.append(before[-1] + s)
    total = before[-1]
    for p, q in chords:
        inner = q - p - 1
        if inner < m - 2 - inner:
            if before[q] - before[p + 1]:
                return False
        elif total - before[q + 1] + before[p]:
            return False
    return True


def check_partition(points, kind: str, trees) -> str | None:
    """First failed check ("coverage", "spanning", "plane"), or None.

    trees is a sequence of edge sequences; edges are (a, b) index pairs.
    """
    npts = len(points)
    got = [(a, b) if a < b else (b, a) for t in trees for a, b in t]
    if (npts % 2 or len(trees) != npts // 2 or len(got) != len(set(got))
            or set(got) != set(combinations(range(npts), 2))):
        return "coverage"
    if not all(_spanning(npts, t) for t in trees):
        return "spanning"
    pos = circle_positions(points, kind)
    if not all(_plane(pos, t) for t in trees):
        return "plane"
    return None


def parse_partition_text(text: str) -> list[list[tuple[int, int]]]:
    """Trees of an emitted partition file, read without planetrees."""
    trees: list[list[tuple[int, int]]] = []
    for line in text.splitlines()[1:]:
        a, b = line.split()
        if a == "tree":
            trees.append([])
        else:
            trees[-1].append((int(a), int(b)))
    return trees
