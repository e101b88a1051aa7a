"""The partition model and the tree kernel.

A GeomTree is an edge set drawn on a PointSet; a Partition is the trees
claimed to split E(K_2n) on one PointSet, and cover_defect says how a
set of trees fails to hold every edge exactly once. Every builder
writes the turned copies of a tree on labels as point pairs
(turned_pairs) and checks them in partition_from_labels. Builders and
verify_oracle both take these types from here, so the verifier needs
nothing from the builders it checks.

Tree recognizers and witnesses: paths, stars, double stars, S_k(m,n),
caterpillars, P4-symmetric trees, w-caterpillars, and symmetric trees.
All classification is purely combinatorial; geometry enters only through
crossing_pair / is_plane / boundary_edges / radial_edges, and all four
read the point set's verified cyclic order (geom_core.cyclic_order):
wheel index arithmetic runs only after the coordinates have confirmed
the wheel<n> tag (wheel_tag_n raises NotWheelConfig on a tag they
refute), and a set without an order falls back to coordinate
predicates. Functions accepting a tree take a GeomTree, a bare
iterable of index pairs (the wheel builder works on abstract trees) or,
to ask several questions of one tree, its TreeIndex.

A TreeIndex holds the size and AHU canon id of the far side of every
directed edge, so a rooted-isomorphism question is an integer comparison.
A P4-symmetry witness is an ordered 4-path u1u2u3u4 with u1 pendant such
that deleting the three path edges leaves u1 and u_i isolated (i in
{2,4}) plus two non-trivial components A (containing u3) and B with a
rooted isomorphism phi: A -> B, phi(u3) = u_{6-i}. i=4 gives Type-1, i=2
gives Type-2; on 4-vertex trees both "components" are trivial and the
witness is reported untyped. The witnesses are read off the index, not
searched for. A w-caterpillar additionally needs T, or T minus the
witness' u1, to be a caterpillar. Nothing here recurses.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, starmap
from operator import itemgetter, lt
from typing import Collection, Iterable, Sequence, Union

from .errors import (InvalidParameter, NotATree, NotWheelConfig,
                     StructureViolation)
from .geom_core import (GeomEdge, PointSet, convex_hull, cyclic_order, edge,
                        segments_cross, wheel_n)


@dataclass(frozen=True)
class GeomTree:
    """Edge set drawn on a point set; edges are normalized sorted pairs.
    The caller's pairs are kept, and only sorted, when each is a tuple
    (a, b) with a < b (a zip's items are tuples); else all are rebuilt."""

    ps: PointSet
    edges: tuple[GeomEdge, ...]

    def __post_init__(self):
        pairs = list(self.edges)
        try:  # a pair of another length, or with no order, raises again below
            keep = (type(self.edges) is zip or list(map(type, pairs)).count(tuple)
                    == len(pairs)) and all(starmap(lt, pairs))
        except TypeError:
            keep = False
        if not keep:  # edge() runs only to raise on a loop
            pairs = [(a, b) if a < b else (b, a) if a > b else edge(a, b) for a, b in pairs]
        pairs.sort()
        object.__setattr__(self, "edges", tuple(pairs))


@dataclass(frozen=True)
class Partition:
    """Trees claimed to split E(K_2n) on ps; verify_partition checks the claim.

    trees is stored as a tuple, so a Partition never changes, and
    verify_partition keeps its report on it: one verification per
    Partition, written only by the verifier.
    """

    ps: PointSet
    trees: tuple[GeomTree, ...]

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))


def cover_defect(ps: PointSet, trees: Iterable[GeomTree]) -> dict[str, list[GeomEdge]]:
    """How the trees' edges fail to hold each edge of K on ps exactly once.

    "missing": point pairs no tree holds, in combinations order; "extra":
    edges that join no two points of ps; "duplicated": edges held more
    than once. Every list is sorted, and all are empty exactly when the
    trees cover E(K) once.

    A cover is accepted by its size: GeomTree edges are int pairs a < b,
    so with the least a >= 0 and the greatest b < N = len(ps) they lie in
    E(K), and C(N, 2) distinct ones, as many as the trees hold, are E(K)
    once each. A GeomTree's edges are sorted, so the least a is some
    tree's first. Only when that test (a set, a min, a max, all in C)
    fails are the edges counted and the defects listed, O(E log E).
    """
    npts = len(ps)
    trees = tuple(trees)
    held = list(chain.from_iterable(t.edges for t in trees))
    distinct = set(held)
    if (len(distinct) == len(held) == npts * (npts - 1) // 2
            and (not held or (min(t.edges[0][0] for t in trees if t.edges) >= 0
                              and max(map(itemgetter(1), distinct)) < npts))):
        return {"missing": [], "extra": [], "duplicated": []}
    count = Counter(held)
    return {"missing": [e for e in combinations(range(npts), 2) if e not in count],
            "extra": sorted(e for e in count if not 0 <= e[0] < e[1] < npts),
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


def partition_from_labels(ps: PointSet, trees: Iterable[Iterable[tuple[int, int]]],
                          what: str) -> Partition:
    """The Partition whose trees are these point pairs (turned_pairs'
    lists), once they are checked to cover E(K) exactly once; else
    StructureViolation (what + "-cover") with cover_defect's witness.
    Every builder makes its Partition here; GeomTree sorts the edges."""
    trees = tuple(GeomTree(ps, tr) for tr in trees)
    defect = cover_defect(ps, trees)
    if any(defect.values()):
        raise StructureViolation(f"{what}-cover", defect)
    return Partition(ps=ps, trees=trees)


TreeLike = Union[GeomTree, Iterable[tuple[int, int]]]


@dataclass(frozen=True)
class P4Witness:
    """4-path witnessing P4-symmetry.

    type is 1, 2, or None (untyped, only on 4-vertex trees). iso_witness
    maps the component of u3 onto its partner; the partner of u3 itself is
    u2 for Type-1 and u4 for Type-2. deleted_vertex records which vertex
    the caterpillar clause removed (always the 4-path's u1 here).
    """

    type: int | None
    path: tuple[int, int, int, int]
    iso_witness: dict[int, int]

    @property
    def deleted_vertex(self) -> int:
        return self.path[0]


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
    """Size and AHU canon id of both sides of every edge of one tree.

    size[a, b] and canon[a, b] describe the component of b after deleting
    the edge ab, rooted at b. Canon ids name rooted shapes (Aho, Hopcroft
    & Ullman, 1974), equal exactly for isomorphic ones, and are private to
    the index; shapes[i] is the sorted tuple of id i's child ids, all
    smaller than i. A DFS fills the sides facing away from its root
    bottom-up, then a rerooting pass fills the rest top-down, both in
    plain loops: a leaf's side gets size 1 and the leaf id 0 with no sum
    or sort, and each distinct child id's rest of v is made once. Raises
    NotATree unless the edges form a tree.
    """

    def __init__(self, edges: tuple[GeomEdge, ...]):
        adj = adjacency(edges)
        n = len(adj)
        self.edges, self.adj, self.n = edges, adj, n
        self.size: dict[tuple[int, int], int] = {}
        self.canon: dict[tuple[int, int], int] = {}
        self.shapes: list[tuple[int, ...]] = []
        self._ids: dict[tuple[int, ...], int] = {}
        parent = _parents(adj, edges[0][0]) if edges else {}
        # with n - 1 edges, connected implies acyclic and free of duplicates
        if len(edges) != n - 1 or len(parent) != n:
            raise NotATree(f"{len(edges)} edges do not form a tree")
        order = list(parent)
        size, canon = self.size, self.canon
        leaf = self._id([])  # the shape of a leaf, id 0
        for v in reversed(order[1:]):
            p, nb = parent[v], adj[v]
            if len(nb) == 1:
                size[p, v], canon[p, v] = 1, leaf
                continue
            below, kids = 1, []
            for u in nb:
                if u != p:
                    below += size[v, u]
                    kids.append(canon[v, u])
            kids.sort()
            size[p, v], canon[p, v] = below, self._id(kids)
        for v in order:
            nb = adj[v]
            ids = sorted([canon[v, u] for u in nb])
            without: dict[int, int] = {}  # a child's id -> id of the rest of v
            for c in nb:
                if parent[c] != v:
                    continue
                x = canon[v, c]
                rest = without.get(x)
                if rest is None:
                    i = bisect_left(ids, x)
                    rest = without[x] = self._id(ids[:i] + ids[i + 1:])
                canon[c, v] = rest
                size[c, v] = n - size[v, c]
        # vertices with more than two inner neighbours; none in a caterpillar
        self._overfull = [v for v, nb in adj.items()
                          if len(nb) > 2 and len([u for u in nb if len(adj[u]) > 1]) > 2]

    def _id(self, kids: list[int]) -> int:
        key = tuple(kids)
        i = self._ids.setdefault(key, len(self.shapes))
        if i == len(self.shapes):
            self.shapes.append(key)
        return i

    def symmetric_edge(self) -> GeomEdge | None:
        """The edge with isomorphic rooted sides (n / 2 each, so unique), or None."""
        return next((e for e in self.edges
                     if self.canon[e] == self.canon[e[1], e[0]]), None)

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
    top = index._id(sorted(index.canon[root, u] for u in index.adj[root]))
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
    return min(rooted_canon(index, c) for c, nb in index.adj.items()
               if max(index.size[c, u] for u in nb) <= index.n // 2)


def rooted_iso_map(index: TreeIndex, a: int, b: int,
                   cut: Collection[int]) -> dict[int, int] | None:
    """Explicit vertex map realizing a rooted isomorphism from a to b, or None.

    The roots' neighbours in cut are cut off with all behind them. Below
    the roots, children paired in order of canon id always match.
    """
    adj, canon = index.adj, index.canon

    def kids(v, drop):
        return sorted((canon[v, u], u) for u in adj[v] if u not in drop)

    kids_a, kids_b = kids(a, cut), kids(b, cut)
    if [i for i, _ in kids_a] != [i for i, _ in kids_b]:
        return None
    out = {a: b}
    stack = [(x, a, y, b) for (_, x), (_, y) in zip(kids_a, kids_b)]
    while stack:
        x, px, y, py = stack.pop()
        out[x] = y
        stack.extend((u, x, w, y) for (_, u), (_, w)
                     in zip(kids(x, (px,)), kids(y, (py,))))
    return out


def is_caterpillar_edges(edges: Iterable[GeomEdge]) -> bool:
    """Caterpillar test: the tree minus its leaves is a path."""
    adj = adjacency(edges)
    if len(adj) <= 2:
        return True
    inner = {v for v, nb in adj.items() if len(nb) > 1}
    # removing all leaves of a tree leaves a subtree; a path iff max degree 2
    return all(sum(1 for u in adj[v] if u in inner) <= 2 for v in inner)


def _p4_families(index: TreeIndex) -> list[tuple[int | None, list[int], int, int, list[int]]]:
    """Every P4-symmetry witness, as groups (type, u1s, u2, u3, u4s) that
    stand for (type, (a, u2, u3, b)) with a in sorted u1s, b in sorted u4s.

    Type-1: u1 and u4 are leaves, deg(u2) >= 3 and canon[u2, u3] ==
    canon[u3, u2] (B and A plus the leaves u1 and u4); a double star
    has O(n^2) of them in two groups. Type-2: deg(u2) == 2, size[u3, u4]
    == (n - 2) / 2 and u3's children other than u2 and u4 match u4's
    children. On 4 vertices that test accepts just P4, both ways, untyped.
    """
    adj, size, canon, n = index.adj, index.size, index.canon, index.n
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
    half = n // 2 - 1  # |A| = |B| = (n - 2) / 2 for Type-2
    for u3, nb in adj.items():
        twigs = [u2 for u2 in nb if size[u3, u2] == 2]  # u2 of degree 2 with a leaf u1
        for u4 in nb:
            u2s = [u2 for u2 in twigs if u2 != u4] if size[u3, u4] == half else []
            if not u2s:
                continue
            # every twig has the same id, so the test holds for all or none of them
            rest = tuple(sorted(canon[u3, x] for x in nb if x not in (u2s[0], u4)))
            if rest != index.shapes[canon[u3, u4]]:
                continue
            for u2 in u2s:
                (u1,) = adj[u2] - {u3}
                out.append((2 if n > 4 else None, [u1], u2, u3, [u4]))
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


def is_w_caterpillar(t: TreeLike | TreeIndex) -> bool:
    index = tree_index(t)
    witness = preferred_p4_witness(index)
    return witness is not None and index.compatible(witness.path)


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
    """Connected, acyclic, and covering every point of t.ps."""
    npts = len(t.ps)
    if len(t.edges) != npts - 1:
        return False
    parent = list(range(npts))
    for a, b in t.edges:  # a < b, as GeomTree keeps them
        if a < 0 or b >= npts:
            return False
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

    On a PointSet with a cyclic order (geom_core.cyclic_order) a
    crossing-free edge set is recognised in O(E log E). The pairwise
    segments_cross scan, exact on every set, runs only without an order
    or to name the first crossing pair.
    """
    edges = tuple(edges)
    order = cyclic_order(ps)
    if order is not None and order.plane(edges):
        return None
    return next(((e1, e2) for e1, e2 in combinations(edges, 2)
                 if segments_cross(e1, e2, ps)), None)


def is_plane(t: GeomTree) -> bool:
    """No two edges cross."""
    return crossing_pair(t.ps, t.edges) is None


def classify(t: TreeLike) -> TreeClassReport:
    """Full recognizer report; raises NotATree on non-trees."""
    index = TreeIndex(as_edges(t))
    adj = index.adj
    nverts = index.n
    degs = {v: len(nb) for v, nb in adj.items()}

    is_path = all(d <= 2 for d in degs.values())
    is_star = nverts >= 3 and sorted(degs.values())[-1] == nverts - 1

    ends = [v for v, nb in adj.items()
            if len(nb) > 1 and sum(1 for u in nb if len(adj[u]) > 1) <= 1]
    spine = spine_walk(adj, min(ends)) if ends else []
    caterpillar = spine is not None

    s_k = None
    double_star = None
    if spine is not None and len(spine) >= 2:
        interior_clean = all(degs[v] == 2 for v in spine[1:-1])
        if interior_clean:
            m, n = sorted((degs[spine[0]] - 1, degs[spine[-1]] - 1))
            s_k = (len(spine) - 2, m, n)
            if len(spine) == 2:
                double_star = (m, n)

    p4 = preferred_p4_witness(index)
    w_cat = p4 is not None and index.compatible(p4.path)
    sym_edge = index.symmetric_edge()
    sym = None if sym_edge is None else SymmetricWitness(
        edge=sym_edge, iso_witness=rooted_iso_map(index, *sym_edge, sym_edge))

    return TreeClassReport(
        is_path=is_path,
        is_star=is_star,
        double_star=double_star,
        s_k=s_k,
        caterpillar=caterpillar,
        p4_symmetric=p4,
        w_caterpillar=w_cat,
        symmetric=sym,
    )


def boundary_edges(t: GeomTree) -> list[GeomEdge]:
    """Edges of t joining consecutive hull vertices of t's point set."""
    order = cyclic_order(t.ps)
    if order is not None:
        return order.hull_edges(t.edges)
    hull = convex_hull(t.ps)
    hull_pairs = {edge(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))}
    return [e for e in t.edges if e in hull_pairs]


def wheel_tag_n(ps: PointSet) -> int:
    """The n of ps's wheel<n> tag once its cyclic order confirms it;
    NotWheelConfig without a tag or on one the coordinates refute."""
    order = cyclic_order(ps)
    if order is None or order.wheel is None:
        claim = "not a wheel" if wheel_n(ps) is None else "refuted by the coordinates"
        raise NotWheelConfig(f"config tag {ps.config_tag!r} is {claim}")
    return order.wheel


def radial_edges(t: GeomTree) -> list[GeomEdge]:
    """Center-incident edges, ordered by circle endpoint index: the
    centre is the greatest index, so t's sorted edges hold them in order."""
    center = 2 * wheel_tag_n(t.ps) - 1
    return [e for e in t.edges if center in e]


def unique_path(t: GeomTree | TreeIndex, u: int, v: int) -> list[int]:
    """Vertex sequence of the unique u-v path in the tree; NotATree if t
    is none."""
    adj = tree_index(t).adj
    if u not in adj or v not in adj:
        raise InvalidParameter(f"vertex {u if u not in adj else v} not in tree")
    parent = _parents(adj, u)
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    return path[::-1]
