"""The partition model and the tree kernel.

A GeomTree is an edge set drawn on a PointSet: sorted pairs a < b of
point indices, checked once where the tree is built, so every reader
of a tree (the cover, spanning and plane checks, the file writer) takes
them as such. Two makers hold pairs they have already proved and build
through _proved_tree, which only sorts: turned_partition, whose ends are
entries of a table of exact ints checked to be a permutation of the
point indices, each pair written with x < y, and cli_io's bulk reader,
which reads every end from a table of the ints 0..N-1 and takes a tree
only when each of its pairs has a < b. A Partition is the trees claimed
to split E(K_2n) on one PointSet, and cover_defect, the verifier's cover
check, says how a set of trees fails to hold every edge exactly once.
Every builder draws one tree on labels and makes its Partition in
turned_partition, which proves on the labels alone, in O(n log n), that
the tree's turns hold each pair at most once, takes the pairs none holds
as the last tree round a fixed centre and refuses them without one, and
writes each turned copy once as point pairs (turned_pairs). Builders and
verify_oracle both take these types from here, so the verifier needs
nothing from the builders it checks.

Tree recognizers and witnesses: paths, stars, double stars, S_k(m,n),
caterpillars, P4-symmetric trees, w-caterpillars, and symmetric trees.
All classification is purely combinatorial; geometry enters only through
is_plane / boundary_edges / radial_edges, which read the point set's
verified cyclic order (geom_core.cyclic_order; is_plane takes the
planarity answer of its stack pass, CyclicOrder.plane_tree), and
crossing_pair, the pairwise segments_cross scan that names a crossing.
is_spanning_tree is the union-find alone, for a set with no order and
for naming the first tree that does not span. Wheel index
arithmetic (radial_edges) runs only after the coordinates have confirmed
the wheel<n> tag: it reads n from geom_core.wheel_tag_n, which raises
NotWheelConfig on a tag they refute, and a set without an order falls
back to coordinate predicates. Functions
accepting a tree take a GeomTree, a bare iterable of index pairs (the
wheel builder works on abstract trees) or, to ask several questions of
one tree, its TreeIndex.

A TreeIndex roots the tree at a centroid and names every subtree by its
AHU canon id, so a rooted-isomorphism question is an integer comparison.
A P4-symmetry witness is an ordered 4-path u1u2u3u4 with u1 pendant such
that deleting the three path edges leaves u1 and u_i isolated (i in
{2,4}) plus two non-trivial components A (containing u3) and B with a
rooted isomorphism phi: A -> B, phi(u3) = u_{6-i}. i=4 gives Type-1, i=2
gives Type-2; on 4-vertex trees both "components" are trivial and the
witness is reported untyped. The witnesses are read off the centroid
(TreeIndex says why), not searched for. A w-caterpillar additionally
needs T, or T minus the witness' u1, to be a caterpillar. Nothing here
recurses.
"""
from __future__ import annotations

import operator
from bisect import insort
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Collection, Iterable, Sequence, Union

from .errors import InvalidParameter, NotATree, StructureViolation
from .geom_core import (GeomEdge, PointSet, convex_hull, cyclic_order, edge,
                        segments_cross, wheel_tag_n)


@dataclass(frozen=True)
class GeomTree:
    """Edge set drawn on a point set: sorted pairs (a, b) of point indices,
    0 <= a < b < N = len(ps), checked here once so that no reader of a
    tree checks them again. The caller's pairs are kept, and only sorted,
    when each is such a tuple of two ints; else each is rebuilt from
    operator.index of its ends, so a NumPy integer is stored as an int.
    InvalidParameter names the first pair that is not two point indices
    (a float, str or None end, an end outside 0..N-1, a non-pair), and a
    loop is a degenerate edge, as edge() says; a ps that is no PointSet
    and edges that are no iterable at all are InvalidParameter too.

    turned_partition and cli_io's bulk reader skip this scan through
    _proved_tree, as their pairs are such tuples by construction (the
    module docstring says why); every other caller builds here."""

    ps: PointSet
    edges: tuple[GeomEdge, ...]

    def __post_init__(self):
        if not isinstance(self.ps, PointSet):
            raise InvalidParameter(f"ps must be a PointSet, got {self.ps!r}")
        try:
            pairs = list(self.edges)
        except TypeError:  # None, an int: no iterable at all
            raise InvalidParameter(f"edges must be iterable, got {self.edges!r}") from None
        npts = len(self.ps)
        try:  # a tuple of another length raises ValueError; _point_pair names it
            keep = (list(map(type, pairs)).count(tuple) == len(pairs)
                    and all(type(a) is type(b) is int and -1 < a < b < npts for a, b in pairs))
        except ValueError:
            keep = False
        if not keep:
            pairs = [_point_pair(pair, npts) for pair in pairs]
        pairs.sort()
        object.__setattr__(self, "edges", tuple(pairs))


def _point_pair(pair, npts: int) -> GeomEdge:
    """pair as a normalized pair of point indices 0..npts-1, each end read
    by operator.index; InvalidParameter naming pair when it is none."""
    try:
        a, b = map(operator.index, pair)
    except (TypeError, ValueError):  # no pair, or an end that is no integer
        a = b = -1
    if not (-1 < a < npts and -1 < b < npts):
        raise InvalidParameter(f"edge {pair!r} is not two int ends in 0..{npts - 1}")
    return edge(a, b)


def _proved_tree(ps: PointSet, pairs: list[GeomEdge]) -> GeomTree:
    """GeomTree(ps, pairs) without its per-pair scan, for a maker that has
    proved each pair a tuple (a, b) of ints 0 <= a < b < len(ps): only
    turned_partition and cli_io's bulk reader. pairs is sorted in place."""
    pairs.sort()
    tree = object.__new__(GeomTree)
    object.__setattr__(tree, "ps", ps)
    object.__setattr__(tree, "edges", tuple(pairs))
    return tree


@dataclass(frozen=True)
class Partition:
    """Trees claimed to split E(K_2n) on ps; verify_partition checks the claim.

    trees is stored as a tuple, so a Partition never changes, and
    verify_partition keeps its report on it: one verification per
    Partition, written only by the verifier. Every tree is drawn on ps
    (that object, or one equal to it); InvalidParameter otherwise, when
    ps is no PointSet, when trees is no iterable, and when a tree is no
    GeomTree.
    """

    ps: PointSet
    trees: tuple[GeomTree, ...]

    def __post_init__(self):
        if not isinstance(self.ps, PointSet):
            raise InvalidParameter(f"ps must be a PointSet, got {self.ps!r}")
        try:
            trees = tuple(self.trees)
        except TypeError:
            raise InvalidParameter(f"trees must be iterable, got {self.trees!r}") from None
        for i, t in enumerate(trees):
            if not isinstance(t, GeomTree):
                raise InvalidParameter(f"tree {i} is no GeomTree: {t!r}")
            if t.ps is not self.ps and t.ps != self.ps:
                raise InvalidParameter(f"tree {i} is drawn on another point set")
        object.__setattr__(self, "trees", trees)


def cover_defect(ps: PointSet, trees: Iterable[GeomTree]) -> dict[str, list[GeomEdge]]:
    """How the trees' edges fail to hold each edge of K on ps exactly once,
    in sorted lists, all empty exactly when they cover E(K) once:
    "missing", point pairs no tree holds, in combinations order, and
    "duplicated", pairs held more than once. "extra" is always empty, as
    a GeomTree holds only point pairs.

    A cover is accepted by its size: C(N, 2) distinct point pairs, as
    many as the trees hold, are E(K) once each. Only when that test fails
    are the defects listed, in O(E log E).
    """
    npts = len(ps)
    edge_sets = [t.edges for t in trees]
    distinct = set(chain.from_iterable(edge_sets))
    if len(distinct) == sum(map(len, edge_sets)) == npts * (npts - 1) // 2:
        return {"missing": [], "extra": [], "duplicated": []}
    count = Counter(chain.from_iterable(edge_sets))
    return {"missing": [e for e in combinations(range(npts), 2) if e not in count], "extra": [],
            "duplicated": sorted(e for e, c in count.items() if c > 1)}


def rotate_labels(edges: Iterable[tuple[int, int]], q: int, m: int) -> list[tuple[int, int]]:
    """edges with every label a < m moved to (a + q) mod m; label m, the
    wheel's centre, stays put (on a 2n-cycle m = 2n and no label is m)."""
    return [(a if a == m else (a + q) % m, b if b == m else (b + q) % m) for a, b in edges]


def turned_pairs(edges: Sequence[tuple[int, int]], point: Sequence[int], m: int,
                 turns: Iterable[int]) -> list[list[GeomEdge]]:
    """rotate_labels(edges, q, m) for each q in turns, read through the
    label -> point table point (m + 1 entries when label m, the wheel's
    centre or w, stays put) as normalized pairs: one O(m) table per turn,
    a slice of point[:m] doubled, and one pass over edges."""
    double, fixed = [*point[:m]] * 2, [*point[m:]]
    return [[(x, y) if (x := at[a]) < (y := at[b]) else (y, x) for a, b in edges]
            for at in (double[q % m:q % m + m] + fixed for q in turns)]


def turned_partition(ps: PointSet, edges: Sequence[tuple[int, int]], point: Sequence[int],
                     m: int, k: int, what: str) -> Partition:
    """The Partition of the turns 0..k-1 of the label tree edges, written
    by turned_pairs, once the labels alone prove that they cover E(K) on
    ps once. With a centre, the label pairs no turn holds are the last
    tree (the rest); without one, there must be none. Else
    StructureViolation (what + "-cover") with cover_defect's witness: the
    pairs held twice, and, without a centre, the pairs no tree holds.

    Why this is exact:
    - Labels 0..m-1 lie on a cycle. Label m (the wheel's centre, or w) is
      fixed when the table point has m + 1 entries.
    - A chord {a, b} has class d, its short gap, and its start is the end
      from which the other end lies d steps on. A diameter (2d = m) has
      period m/2; every other class has period m. A spoke {a, m} has its
      own class, start a and period m.
    - Turn q adds q to the start, modulo the period, so the turns of one
      edge hold an arc of k starts.
    - The copies are pairwise edge-disjoint iff, in every class, the
      sorted starts lie at least k apart cyclically. That also rejects a
      pair that edges lists twice, and any k larger than the period.
    - The pairs no turn holds are the gaps between the arcs. As every
      arc holds k starts, a start is held twice iff two cyclically
      consecutive arcs both hold it, so a witness, too, is read off
      neighbouring arcs. The cost is O(|edges| log |edges| + m + |rest|),
      plus the witness on a rejection.
    - The proof carries over to point pairs only because point is checked
      to be a permutation of range(len(ps)). It is read once through
      operator.index, so its entries are exact ints, and turned_pairs and
      the rest write each pair (x, y) with x < y: every pair is already a
      GeomTree's, and each tree is built through _proved_tree, without a
      second scan.

    The four builders: Theorem 1 has m = 2n - 1, k = n - 1 and the centre,
    and its rest is n spokes plus one chord per class; Theorems 2 and 3
    have m = 2n, k = n, no centre and so no rest; Theorem 4 has m = 2n - 1,
    k = n - 1 and w as the centre. InvalidParameter on a table that is no
    permutation, on k < 1, and on a label pair that is no two labels.
    """
    try:
        point = [*map(operator.index, point)]
    except TypeError:  # an entry that is no integer
        point = None
    npts = len(ps)
    if point is None or not m <= npts <= m + 1 or sorted(point) != [*range(npts)]:
        raise InvalidParameter(f"{what}: the label table is no permutation of "
                               f"range({npts}) with {m} labels on the cycle")
    if k < 1:
        raise InvalidParameter(f"{what}: needs k >= 1 turns, got {k}")
    centre = npts > m  # label m is fixed
    starts: list[list[int]] = [[] for _ in range(m // 2 + 1)]  # class 0: spokes
    for labels in edges:
        try:
            a, b = map(operator.index, labels)
        except (TypeError, ValueError):  # no pair, or a label that is no integer
            a = b = -1
        if a == b or not (0 <= a < npts and 0 <= b < npts):
            raise InvalidParameter(f"{what}: label pair {labels!r} is not two of "
                                   f"the labels 0..{npts - 1}")
        if m in (a, b):
            starts[0].append(a + b - m)
            continue
        gap = (b - a) % m
        if 2 * gap < m:
            starts[gap].append(a)
        elif 2 * gap > m:
            starts[m - gap].append(b)
        else:
            starts[gap].append(a % gap)
    gaps, doubles = [], []  # label pairs, as class * m + start
    for d in range(not centre, len(starts)):  # class 0, the spokes, needs a centre
        period, arcs, base = m // 2 if 2 * d == m else m, sorted(starts[d]), d * m
        if not arcs:
            gaps += range(base, base + period)
            continue
        # each arc s and the next t (the first one a period on): the gap
        # between them, or the starts both hold
        for s, t in zip(arcs, [*arcs[1:], arcs[0] + period]):
            if t > s + k:  # wraps past the period at most once
                gaps += range(base + s + k, base + min(t, period))
                gaps += range(base + max(s + k, period) - period, base + t - period)
            elif t < s + k:
                doubles += [base + x % period for x in range(t, s + k)]

    def pair(key: int) -> GeomEdge:
        d, s = divmod(key, m)
        x, y = point[s], point[(s + d) % m if d else m]
        return (x, y) if x < y else (y, x)

    if doubles or (gaps and not centre):
        raise StructureViolation(f"{what}-cover", {
            "missing": [] if centre else sorted(map(pair, gaps)), "extra": [],
            "duplicated": sorted(map(pair, set(doubles)))})
    trees = [_proved_tree(ps, tr) for tr in turned_pairs(edges, point, m, range(k))]
    if centre:  # the rest
        trees.append(_proved_tree(ps, [*map(pair, gaps)]))
    return Partition(ps, tuple(trees))


TreeLike = Union[GeomTree, Iterable[tuple[int, int]]]


@dataclass(frozen=True)
class P4Witness:
    """4-path witnessing P4-symmetry.

    type is 1, 2, or None (untyped, only on 4-vertex trees). iso_witness
    maps the component of u3 onto its partner; the partner of u3 itself is
    u2 for Type-1 and u4 for Type-2. The caterpillar clause of a
    w-caterpillar deletes the 4-path's u1, path[0].
    """

    type: int | None
    path: tuple[int, int, int, int]
    iso_witness: dict[int, int]


@dataclass(frozen=True)
class SymmetricWitness:
    edge: GeomEdge
    iso_witness: dict[int, int]


@dataclass(frozen=True)
class TreeClassReport:
    is_path: bool
    is_star: bool
    double_star: tuple[int, int] | None
    s_k: tuple[int, int, int] | None
    caterpillar: bool
    p4_symmetric: P4Witness | None
    w_caterpillar: bool
    symmetric: SymmetricWitness | None


# ---------------------------------------------------------------------------
# plumbing on abstract edge lists

def as_edges(t: TreeLike) -> tuple[GeomEdge, ...]:
    if isinstance(t, GeomTree):
        return t.edges
    return tuple(sorted(edge(a, b) for a, b in t))


def adjacency(edges: Iterable[GeomEdge]) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def _parents(adj: dict[int, set[int]], root: int) -> dict[int, int]:
    """DFS parent of every vertex reachable from root (root's is root),
    inserted parents first, so the keys are a top-down order."""
    parent = {root: root}
    stack = [root]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                stack.append(u)
    return parent


class TreeIndex:
    """One tree rooted at a centroid c, with the AHU canon id of every subtree.

    One DFS sums subtree sizes and finds c, the first vertex bottom-up
    whose subtree holds half the tree or more. The parents on the path up
    from c turn over, so parent and sub describe the tree rooted at c;
    one bottom-up pass names every subtree (ids; a leaf costs no sort).
    c2 is the other centroid, or None. Canon ids name rooted shapes (Aho,
    Hopcroft & Ullman, 1974), equal exactly for isomorphic ones, private
    to the index; shapes[i] is the sorted tuple of id i's child ids, all
    smaller than i. side(a, b) is the size and id of b's side of the edge
    ab, rooted at b. Raises NotATree unless the edges form a tree.

    With N > 4 vertices, the P4 witnesses are read off c:
    - a side of under N / 2 vertices holds no centroid, so it is a
      subtree below c, named by the id of its root;
    - Type 1 (u1 u2 u3 u4): both sides of u2u3 hold N / 2, so u2 and u3
      are the two centroids and u2u3 is the symmetric edge;
    - Type 2: deleting u3 leaves B (N / 2 - 1), {u1, u2} (2) and A's
      other branches (N / 2 - 2 in all), each under N / 2, so u3 = c is
      the one centroid and every side the test compares is below c.
    N <= 4 is its own case: P4 has two untyped witnesses, the star none.
    The sides facing c (rooted_canon at another root, tree_canon at c2)
    are named on demand: iteratively, memoised, O(N) in all.
    """

    def __init__(self, edges: tuple[GeomEdge, ...]):
        adj = adjacency(edges)
        n = len(adj)
        self.edges, self.adj, self.n = edges, adj, n
        parent = _parents(adj, edges[0][0]) if edges else {}
        # with n - 1 edges, connected implies acyclic and free of duplicates
        if len(edges) != n - 1 or len(parent) != n:
            raise NotATree(f"{len(edges)} edges do not form a tree")
        sub = dict.fromkeys(parent, 1)
        for v in reversed([*parent][1:]):
            sub[parent[v]] += sub[v]
        # its children's subtrees hold under half the tree, the rest at most half
        c = self.c = next(v for v in reversed(parent) if 2 * sub[v] >= n)
        path = [c]  # up to the DFS root, whose parents and sizes turn over
        while parent[path[-1]] != path[-1]:
            path.append(parent[path[-1]])
        for a, b in reversed([*zip(path, path[1:])]):
            parent[b], sub[b] = a, n - sub[a]
        parent[c], sub[c] = None, n
        self.c2 = next((u for u in adj[c] if 2 * sub[u] == n), None)
        self.parent, self.sub, self.ids, self._facing = parent, sub, {}, {}
        self.shapes, self._known = [()], {(): 0}  # id 0 names a leaf
        ids, name, turned = self.ids, self._id, set(path)
        for v in [u for u in reversed(sub) if u not in turned] + path[::-1]:
            p, nb = parent[v], adj[v]
            ids[v] = 0 if len(nb) == 1 and p is not None else name(
                sorted([ids[u] for u in nb if u != p]))
        self._overfull = _overfull(adj)

    def _id(self, kids: list[int]) -> int:
        key = tuple(kids)
        i = self._known.setdefault(key, len(self.shapes))
        if i == len(self.shapes):
            self.shapes.append(key)
        return i

    def side(self, a: int, b: int) -> tuple[int, int]:
        """(size, canon id) of b's side of the edge ab, rooted at b;
        KeyError unless ab is an edge."""
        parent, ids, facing = self.parent, self.ids, self._facing
        if parent[b] == a:
            return self.sub[b], ids[b]
        if parent[a] != b:
            raise KeyError((a, b))
        chain, v = [], a  # up to c or a side named before, then name down
        while v != self.c and (parent[v], ids[v]) not in facing:
            chain.append(v)
            v = parent[v]
        for v in reversed(chain):  # p's side of the edge v p: all of p's sides but v's
            p = parent[v]
            kids = list(self.shapes[ids[p]])
            if p != self.c:
                insort(kids, facing[parent[p], ids[p]])
            kids.remove(ids[v])
            facing[p, ids[v]] = self._id(kids)
        return self.n - self.sub[a], facing[b, ids[a]]

    def symmetric_edge(self) -> GeomEdge | None:
        """The edge with isomorphic rooted sides (n / 2 each, so c c2), or None."""
        c2 = self.c2
        same = c2 is not None and self.side(c2, self.c)[1] == self.ids[c2]
        return edge(self.c, c2) if same else None

    def compatible(self, path: tuple[int, int, int, int]) -> bool:
        """T, or T minus the leaf path[0], is a caterpillar.

        Deleting the leaf changes inner degrees only when u2 = path[1] has
        degree 2: u2 becomes a leaf and u3 = path[2] loses an inner neighbour.
        """
        if not self._overfull:
            return True
        u2, u3 = path[1], path[2]
        adj = self.adj
        return (len(adj[u2]) == 2 and self._overfull == [u3]
                and sum(1 for u in adj[u3] if len(adj[u]) > 1) == 3)


def tree_index(t: TreeLike | TreeIndex) -> TreeIndex:
    """t itself when it is an index already, else the index of its edges."""
    return t if isinstance(t, TreeIndex) else TreeIndex(as_edges(t))


def rooted_canon(index: TreeIndex, root: int) -> str:
    """AHU canonical string of the tree rooted at root.

    A vertex is spelled "(" + its children's strings, sorted + ")"; each
    canon id below root is spelled once, children before parents.
    """
    top = index._id(sorted(index.side(root, u)[1] for u in index.adj[root]))
    need, stack = set(), [top]
    while stack:
        i = stack.pop()
        if i not in need:
            need.add(i)
            stack.extend(index.shapes[i])
    spelled: dict[int, str] = {}
    for i in sorted(need):
        spelled[i] = "(" + "".join(sorted(spelled[c] for c in index.shapes[i])) + ")"
    return spelled[top]


def tree_canon(t: TreeLike | TreeIndex) -> str:
    """Unrooted AHU canonical form: root at the centroid (min over the two)."""
    index = tree_index(t)
    return min(rooted_canon(index, c) for c in (index.c, index.c2) if c is not None)


def rooted_iso_map(index: TreeIndex, a: int, b: int,
                   cut: Collection[int]) -> dict[int, int] | None:
    """Explicit vertex map realizing a rooted isomorphism from a to b, or None.

    The roots' neighbours in cut are cut off with all behind them. Below
    the roots, children paired in order of canon id always match.
    """
    adj, parent, ids, side = index.adj, index.parent, index.ids, index.side

    def kids(v, drop):
        return sorted([(ids[u] if parent[u] == v else side(v, u)[1], u)
                       for u in adj[v] if u not in drop])

    kids_a, kids_b = kids(a, cut), kids(b, cut)
    if [i for i, _ in kids_a] != [i for i, _ in kids_b]:
        return None
    out = {a: b}
    stack = [(x, a, y, b) for (_, x), (_, y) in zip(kids_a, kids_b)]
    while stack:
        x, px, y, py = stack.pop()
        out[x] = y  # a leaf has nothing below it
        if len(adj[x]) == 2:  # one child, so y has one too: no ids, no sort
            (u,), (w,) = adj[x] - {px}, adj[y] - {py}
            stack.append((u, x, w, y))
        elif len(adj[x]) > 2:
            stack.extend((u, x, w, y) for (_, u), (_, w)
                         in zip(kids(x, (px,)), kids(y, (py,))))
    return out


def _overfull(adj: dict[int, set[int]]) -> list[int]:
    """The vertices with more than two inner (non-leaf) neighbours; such a
    vertex is inner itself. A tree minus its leaves is a subtree, and a
    path exactly when this is empty."""
    return [v for v, nb in adj.items()
            if len(nb) > 2 and len([u for u in nb if len(adj[u]) > 1]) > 2]


def is_caterpillar_edges(edges: Iterable[GeomEdge]) -> bool:
    """Caterpillar test: the tree minus its leaves is a path."""
    return not _overfull(adjacency(edges))


def _p4_families(index: TreeIndex) -> list[tuple[int | None, list[int], int, int, list[int]]]:
    """Every P4-symmetry witness, as groups (type, u1s, u2, u3, u4s) that
    stand for (type, (a, u2, u3, b)) with a in sorted u1s, b in sorted u4s.

    Read off the centroid c (see TreeIndex), in O(deg c) past the index.
    Type-1: u2u3 is the symmetric edge, u1 and u4 leaves and deg(u2) >= 3;
    a double star has O(n^2) of them in two groups. Type-2: u3 = c,
    u2 a child of c with a leaf below it (subtree size 2), u4 a child of
    c with subtree size (n - 2) / 2 whose child ids equal those of c's
    other children. On 4 vertices P4 has its two untyped witnesses.
    """
    adj, n, c = index.adj, index.n, index.c
    if n <= 4:
        ends = sorted(v for v, nb in adj.items() if len(nb) == 1)
        if n < 4 or len(ends) != 2:
            return []
        (a, b), (d, e) = ((v, *adj[v]) for v in ends)
        return [(None, [a], b, e, [d]), (None, [d], e, b, [a])]
    out = []
    sym = index.symmetric_edge()
    if sym is not None and len(adj[sym[0]]) >= 3:
        for u2, u3 in (sym, sym[::-1]):
            u1s = sorted(u for u in adj[u2] if len(adj[u]) == 1)
            u4s = sorted(u for u in adj[u3] if len(adj[u]) == 1)
            if u1s:  # the sides are isomorphic, so u4s is non-empty too
                out.append((1, u1s, u2, u3, u4s))
    if n % 2:
        return out
    sub, ids, nb = index.sub, index.ids, adj[c]
    twigs = [u2 for u2 in nb if sub[u2] == 2]  # u2 of degree 2 with a leaf u1
    for u4 in (nb if twigs else ()):
        u2s = [u2 for u2 in twigs if u2 != u4] if sub[u4] == n // 2 - 1 else []
        # every twig has the same id, so the test holds for all or none of them
        if u2s and index.shapes[ids[u4]] == tuple(sorted(
                ids[x] for x in nb if x not in (u2s[0], u4))):
            out.extend((2, [*adj[u2] - {c}], u2, c, [u4]) for u2 in u2s)
    return out


def p4_witness_paths(t: TreeLike | TreeIndex) -> list[tuple[int | None, tuple[int, int, int, int]]]:
    """All (type, 4-path) pairs satisfying the definition, sorted by path."""
    return sorted(((typ, (a, u2, u3, b))
                   for typ, u1s, u2, u3, u4s in _p4_families(tree_index(t))
                   for a in u1s for b in u4s), key=lambda w: w[1])


def preferred_p4_witness(t: TreeLike | TreeIndex,
                         path: tuple[int, int, int, int] | None = None) -> P4Witness | None:
    """The witness the wheel builder uses.

    Preference: caterpillar-compatible Type-1 (or untyped), then
    compatible Type-2, then any Type-1, then any Type-2; ties broken by
    the 4-path tuple. Compatibility means T, or T minus the witness' u1,
    is a caterpillar, i.e. the witness also certifies the w-caterpillar
    property; it is the same across a group, so only its least path
    competes. Given path: that 4-path's witness, or None if it is none.
    """
    index = tree_index(t)
    path = None if path is None else tuple(path)
    best = None
    for typ, u1s, u2, u3, u4s in _p4_families(index):
        if path is None:
            cand = (u1s[0], u2, u3, u4s[0])
        elif len(path) == 4 and path[1:3] == (u2, u3) and path[0] in u1s and path[3] in u4s:
            cand = path
        else:
            continue
        rank = (not index.compatible(cand), typ == 2, cand)
        if best is None or rank < best[0]:
            best = (rank, typ)
    if best is None:
        return None
    (_, _, cand), typ = best
    partner = cand[3] if typ == 2 else cand[1]
    iso = rooted_iso_map(index, cand[2], partner, cand)
    assert iso is not None  # canon equality guaranteed it
    return P4Witness(type=typ, path=cand, iso_witness=iso)


def spine_walk(adj: dict[int, set[int]], head: int) -> list[int] | None:
    """Walk from head, at each step to the one non-leaf neighbour not just
    left; None where there are two. From an end of the inner path (the
    tree minus its leaves) the walk is that path, and it is None exactly
    when the inner vertices form no path."""
    seq, prev = [head], None
    while True:
        nxt = [u for u in adj[seq[-1]] if u != prev and len(adj[u]) > 1]
        if len(nxt) > 1:
            return None
        if not nxt:
            return seq
        prev = seq[-1]
        seq.append(nxt[0])


# ---------------------------------------------------------------------------
# public operations

def is_spanning_tree(t: GeomTree) -> bool:
    """Connected, acyclic, and covering every point of t.ps: N - 1 edges
    that close no cycle in a union-find over the point indices, which is
    all a GeomTree holds."""
    npts = len(t.ps)
    if len(t.edges) != npts - 1:
        return False
    parent = list(range(npts))
    for a, b in t.edges:
        while a != parent[a]:  # path halving
            parent[a] = a = parent[parent[a]]
        while b != parent[b]:
            parent[b] = b = parent[parent[b]]
        if a == b:
            return False
        parent[a] = b
    return True


def crossing_pair(ps: PointSet, edges) -> tuple[GeomEdge, GeomEdge] | None:
    """The first two edges, in combinations order, that cross; None if none do.

    The pairwise segments_cross scan, exact on every set and O(E^2): the
    witness scan, run once a plane check has failed, or as the check
    itself where is_plane finds no cyclic order.
    """
    return next(((e1, e2) for e1, e2 in combinations(edges, 2)
                 if segments_cross(e1, e2, ps)), None)


def is_plane(t: GeomTree) -> bool:
    """No two edges cross. On a cyclic order (geom_core.cyclic_order),
    the planarity answer of the stack pass CyclicOrder.plane_tree,
    O(E log E), the pass verify_partition runs; otherwise the
    crossing_pair scan."""
    order = cyclic_order(t.ps)
    if order is not None:
        return order.plane_tree(t.edges)[0]
    return crossing_pair(t.ps, t.edges) is None


def classify(t: TreeLike) -> TreeClassReport:
    """Full recognizer report; raises NotATree on non-trees."""
    index = TreeIndex(as_edges(t))
    adj, nverts = index.adj, index.n
    degs = {v: len(nb) for v, nb in adj.items()}
    ends = [v for v, nb in adj.items()
            if len(nb) > 1 and sum(1 for u in nb if len(adj[u]) > 1) <= 1]
    spine = spine_walk(adj, min(ends)) if ends else []
    s_k = double_star = None
    if spine is not None and len(spine) >= 2 and all(degs[v] == 2 for v in spine[1:-1]):
        m, n = sorted((degs[spine[0]] - 1, degs[spine[-1]] - 1))
        s_k = (len(spine) - 2, m, n)
        if len(spine) == 2:
            double_star = (m, n)
    p4 = preferred_p4_witness(index)
    sym_edge = index.symmetric_edge()
    sym = None if sym_edge is None else SymmetricWitness(
        edge=sym_edge, iso_witness=rooted_iso_map(index, *sym_edge, sym_edge))
    most = max(degs.values())
    return TreeClassReport(
        is_path=most <= 2, is_star=nverts >= 3 and most == nverts - 1,
        double_star=double_star, s_k=s_k, caterpillar=spine is not None, p4_symmetric=p4,
        w_caterpillar=p4 is not None and index.compatible(p4.path), symmetric=sym)


def boundary_edges(t: GeomTree) -> list[GeomEdge]:
    """Edges of t joining consecutive hull vertices of t's point set."""
    order = cyclic_order(t.ps)
    if order is not None:
        return order.hull_edges(t.edges)
    hull = convex_hull(t.ps)
    hull_pairs = {edge(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))}
    return [e for e in t.edges if e in hull_pairs]


def radial_edges(t: GeomTree) -> list[GeomEdge]:
    """Center-incident edges, ordered by circle endpoint index: the
    centre is the greatest index, so t's sorted edges hold them in order."""
    center = 2 * wheel_tag_n(t.ps) - 1
    return [e for e in t.edges if center in e]
