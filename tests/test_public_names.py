"""The names other code reaches into planetrees by: the package namespace,
and the functions perfbench's tracer wraps by name."""
import ast
import importlib
from pathlib import Path

import planetrees

PUBLIC = [
    "ConstructionChoices", "CyclicOrder", "DegenerateInput", "GeomTree", "HLabeling",
    "HalvingLine", "HalvingProfile", "HypothesisReport", "HypothesisViolated",
    "InvalidChoices", "InvalidParameter", "InvariantViolation", "NoHLabeling",
    "NoWLabeling", "NotAHalvingLine", "NotAPartition", "NotATree", "NotWCaterpillar",
    "NotWheelConfig", "OddPointCount", "Orientation", "P4Witness", "ParseError",
    "Partition", "PlaneTreesError", "Point", "PointSet", "SideViolation", "SizeMismatch",
    "StructureViolation", "SymmetricWitness", "TooLarge", "TreeClassReport", "TreeStats",
    "VerifyReport", "WLabeling", "WheelAnalysis", "analyze_wheel_partition", "balance",
    "boundary_edges", "brute_force_partitions", "build_wheel_partition", "check_note1",
    "check_observation1", "check_theorem3_hypothesis", "check_theorem4_hypothesis",
    "classify", "collinear_triple", "convex_hull", "cyclic_order", "edge", "errors",
    "geom_core", "h_labeling", "halving", "halving_partition", "halving_profile",
    "is_plane", "is_spanning_tree", "k_halving_lines", "lemma6_tree", "make_wheel",
    "observation1_splits", "orientation", "place_caterpillar_on_chain", "radial_edges",
    "rotate_tree", "segments_cross", "theorem2_partition", "theorem3_partition",
    "theorem4_partition", "tree_canon", "tree_taxonomy", "verify_oracle",
    "verify_partition", "w_labeling", "wheel_crossing", "wheel_partition",
]


def test_public_namespace_is_pinned():
    """A name leaves planetrees.__all__, or joins it, only by editing this list."""
    assert sorted(planetrees.__all__) == PUBLIC


def test_every_traced_function_exists():
    """perfbench/spans.py wraps LAYERS' functions by name; read its LAYERS
    literal without importing it, and find each in its module."""
    spans = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    layers = next(ast.literal_eval(node.value) for node in ast.parse(spans.read_text()).body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"])
    missing = [f"{layer}.{name}" for layer, names in layers.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"planetrees.{layer}"),
                                       name, None))]
    assert layers and not missing, missing


def test_every_imported_name_is_used():
    """A module under src/planetrees (the package's __init__ aside, which
    imports to re-export) uses every name it imports."""
    src = Path(__file__).resolve().parent.parent / "src" / "planetrees"
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert not unused, unused
