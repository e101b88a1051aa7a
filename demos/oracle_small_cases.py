"""Exhaustive ground truth for the smallest configurations.

Enumerate every partition of the complete graph into plane spanning
trees for 4 convex points and the 4-, 6- and 8-point wheels, then poke
at the structure the larger constructions rely on.
"""
from collections import Counter

from planetrees import (boundary_edges, brute_force_partitions,
                        check_observation1, classify, make_wheel,
                        tree_canon, verify_partition)
from planetrees.geom_core import PointSet
from planetrees.tree_taxonomy import GeomTree
from planetrees.wheel_partition import Partition

square = PointSet(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)), "convex")
res = brute_force_partitions(square)
print(f"square: {len(res)} partitions into 2 plane spanning trees")
for part in res:
    print("  ", part)

for n in (2, 3, 4):
    wheel = make_wheel(n)
    res = brute_force_partitions(wheel, limit=None)
    print(f"\nwheel n={n}: {len(res)} partitions")
    shapes = Counter()
    paths = 0
    for part in res:
        trees = [GeomTree(wheel, t) for t in part]
        assert verify_partition(Partition(wheel, tuple(trees))).ok
        for t in trees:
            paths += classify(t).is_path
            shapes[tree_canon(t)] += 1
            assert check_observation1(t).ok
            assert len(boundary_edges(t)) >= 1
    if n >= 3:
        # 4 points cannot avoid a path tree; 6 and 8 points always do
        assert paths == 0
    print(f"  tree shapes used: {len(shapes)} | path trees: {paths}")
