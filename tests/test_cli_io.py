import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planetrees
from planetrees import (ConstructionChoices, GeomTree, InvalidParameter, InvariantViolation,
                        NoHLabeling, NoWLabeling, ParseError, Partition,
                        PlaneTreesError, PointSet, build_wheel_partition,
                        cli_io, convex_hull, cyclic_order, geom_core,
                        h_labeling, make_wheel, theorem2_partition,
                        theorem3_partition, theorem4_partition,
                        verify_partition, w_labeling, wheel_partition)
from planetrees.cli_io import (emit_edgelist, emit_partition, emit_pointset,
                               load_pointset, main,
                               parse_edgelist, parse_partition, parse_pointset,
                               render_svg)
from planetrees.presets import (CHOICES_PRESETS, POINT_PRESETS, PRESET_RUNS,
                                builtin_tree, construction_pointset, figure_pointset)

from conftest import regular_gon, shuffled_gon

FIG2I_SVG_SHA = "9c03434cb3dccd8479ea11221b4579437343a91ec6d495a21d99706e8ac379da"


def fig2i_partition():
    return build_wheel_partition(builtin_tree("fig2i", 3), 3)


# ---------------------------------------------------------------------------
# text formats

def test_pointset_round_trip(wheel3):
    again = parse_pointset(emit_pointset(wheel3))
    assert again.points == wheel3.points
    assert again.config_tag == wheel3.config_tag
    assert again.labels == ("v0", "v1", "v2", "v3", "v4", "x")


def test_pointset_parse_example():
    text = """# four corners
pointset 4 general
0.0 0.0
1.0 0.0   # comments may trail
0.25 1.0
1.25 1.0
"""
    ps = parse_pointset(text)
    assert len(ps) == 4 and ps.config_tag == "general"
    assert ps.points[3] == (1.25, 1.0)


def test_pointset_parse_errors():
    with pytest.raises(ParseError) as exc:
        parse_pointset("")
    assert exc.value.line == 1
    with pytest.raises(ParseError, match="bad header"):
        parse_pointset("points 4 general\n")
    with pytest.raises(ParseError, match="promises 2 points"):
        parse_pointset("pointset 2 general\n0 0\n")
    with pytest.raises(ParseError, match="want 'x y'"):
        parse_pointset("pointset 1 general\n0 0 0\n")
    with pytest.raises(ParseError) as exc:
        parse_pointset("pointset 1 general\nzero 0\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError, match="unknown config tag") as exc:
        parse_pointset("pointset 2 blob\n0 0\n1 1\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError, match="unknown config tag") as exc:
        parse_pointset("# tagged below\npointset 2 blob\n0 0\n1 1\n")
    assert exc.value.line == 2  # the header's line, not the last point's


def test_pointset_invariants():
    with pytest.raises(InvariantViolation, match="duplicate point"):
        parse_pointset("pointset 2 general\n1 1\n1 1\n")
    with pytest.raises(InvariantViolation, match="collinear triple"):
        parse_pointset("pointset 3 general\n0 0\n1 1\n2 2\n")
    with pytest.raises(InvariantViolation, match="wheel3 needs 6 points"):
        parse_pointset("pointset 2 wheel3\n0 0\n1 1\n")


@pytest.mark.parametrize("text, message", [
    ("pointset 0 general\n", "at least one point"),
    ("pointset 0 wheel0\n", "at least one point"),
    ("pointset 2 wheel1\n0 0\n1 0\n", "wheel1: a wheel needs n >= 2"),
])
def test_pointset_rejects_empty_sets_and_small_wheels(text, message):
    with pytest.raises(InvariantViolation, match=message):
        parse_pointset(text)


def test_empty_and_small_wheel_sets_raise_library_errors():
    empty = PointSet(())
    with pytest.raises(NoHLabeling):
        h_labeling(empty)
    with pytest.raises(NoHLabeling):
        theorem2_partition(empty, 0)
    with pytest.raises(NoWLabeling):
        w_labeling(empty)
    with pytest.raises(InvalidParameter, match="empty"):
        render_svg(Partition(empty, ()))
    with pytest.raises(InvalidParameter, match="n >= 2"):
        cyclic_order(PointSet((), "wheel0"))
    with pytest.raises(InvalidParameter, match="n >= 2"):
        cyclic_order(PointSet(((0.0, 0.0), (1.0, 0.0)), "wheel1"))


def test_partition_round_trip(wheel3):
    p = fig2i_partition()
    again = parse_partition(emit_partition(p), wheel3)
    assert tuple(t.edges for t in again.trees) == tuple(t.edges for t in p.trees)
    assert verify_partition(again).ok


def test_partition_parse_errors(wheel3):
    with pytest.raises(ParseError, match="bad header"):
        parse_partition("tree 0\n0 1\n", wheel3)
    with pytest.raises(ParseError, match="on 4 points"):
        parse_partition("partition 4 2\n", wheel3)
    with pytest.raises(ParseError, match="expected 'tree 0'"):
        parse_partition("partition 6 3\ntree 1\n0 1\n", wheel3)
    with pytest.raises(ParseError, match="before any 'tree'"):
        parse_partition("partition 6 3\n0 1\n", wheel3)
    with pytest.raises(ParseError, match=r"edge \(0, 9\) invalid"):
        parse_partition("partition 6 1\ntree 0\n0 9\n", wheel3)
    with pytest.raises(ParseError, match="promises 3 trees") as info:
        parse_partition("partition 6 3\ntree 0\n0 1\n", wheel3)
    assert info.value.line == 1
    with pytest.raises(ParseError, match="promises 3 trees") as info:
        parse_partition("\n# counted\npartition 6 3\ntree 0\n0 1\n", wheel3)
    assert info.value.line == 3  # the header's line, not the last edge's


@pytest.mark.parametrize("index", ["\u00b2", "\u0663", "+0"])
def test_partition_tree_index_takes_ascii_digits(index):
    # "\u00b2" (superscript two) passes str.isdigit but not int
    text = f"partition 4 2\ntree {index}\n0 1\n"
    with pytest.raises(ParseError, match="bad tree header") as info:
        parse_partition(text, make_wheel(2))
    assert info.value.line == 2


@pytest.mark.parametrize("command", [["verify"], ["render", "--out", "{tmp}/out.svg"]])
def test_cli_bad_tree_index_exits_2_without_traceback(tmp_path, command):
    part = tmp_path / "partition.txt"
    part.write_text("partition 4 2\ntree \u00b2\n0 1\n", encoding="utf-8")
    res = subprocess.run(
        [sys.executable, "-m", "planetrees.cli_io", *(a.format(tmp=tmp_path) for a in command),
         "--input", "wheel2", "--partition", str(part)],
        capture_output=True, text=True, encoding="utf-8")
    assert res.returncode == 2, res.stderr
    assert res.stderr.splitlines() == ["ParseError: line 2: bad tree header 'tree \u00b2'"]
    assert res.stdout == ""


def test_cli_theorem2_t1_on_two_points_exits_2_without_traceback(tmp_path):
    points = tmp_path / "two.points"
    points.write_text("pointset 2 general\n0 0\n1 0\n")
    res = subprocess.run(
        [sys.executable, "-m", "planetrees.cli_io", "halving-partition", "--input", str(points),
         "--theorem", "2", "--t", "1", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, encoding="utf-8")
    assert res.returncode == 2, res.stderr
    assert res.stderr.splitlines() == ["InvalidParameter: t = 1 needs m >= 2 halving lines, got m = 1"]
    assert res.stdout == ""


def test_edgelist_round_trip():
    edges = ((2, 3), (0, 5), (1, 4))
    assert parse_edgelist(emit_edgelist(edges)) == ((0, 5), (1, 4), (2, 3))
    with pytest.raises(ParseError, match="bad edge"):
        parse_edgelist("0 x\n")


@pytest.mark.parametrize("fmt, text, line", [
    # int() takes other scripts' digits, a sign and underscores
    pytest.param("partition", "partition 4 2\ntree 0\n\u0660 1\n0 +2\n2 3\ntree 1\n", 3,
                 id="partition-arabic-indic-zero"),
    pytest.param("partition", "partition 4 2\ntree 0\n0 +2\n", 3, id="partition-sign"),
    pytest.param("partition", "partition 4 2\ntree 0\n0 1_0\n", 3, id="partition-underscore"),
    pytest.param("partition", "partition \u0664 2\ntree 0\n", 1, id="partition-count-digit"),
    pytest.param("partition", "partition 4 +2\ntree 0\n", 1, id="partition-count-sign"),
    pytest.param("edgelist", "0 1_0\n", 1, id="edgelist-underscore"),
    pytest.param("edgelist", "0 1\n1 -2\n", 2, id="edgelist-sign"),
    pytest.param("edgelist", "\u0663 1\n", 1, id="edgelist-arabic-indic-three"),
    pytest.param("edgelist", "0 \u00b2\n", 1, id="edgelist-superscript-two"),
    pytest.param("pointset", "pointset \u0663 general\n0 0\n1 0\n0 1\n", 1,
                 id="pointset-count-digit"),
    pytest.param("pointset", "pointset +3 general\n0 0\n1 0\n0 1\n", 1,
                 id="pointset-count-sign"),
])
def test_integer_fields_take_ascii_digits(fmt, text, line):
    parse = {"partition": lambda t: parse_partition(t, make_wheel(2)),
             "edgelist": parse_edgelist, "pointset": parse_pointset}[fmt]
    with pytest.raises(ParseError, match="bad") as info:
        parse(text)
    assert info.value.line == line


@pytest.mark.parametrize("text, line", [
    pytest.param("pointset 3 general\n\u0660 0\n1 0\n0 1\n", 2, id="arabic-indic-zero"),
    pytest.param("pointset 3 general\n0 0\n1_0 0\n0 1\n", 3, id="underscore"),
])
def test_coordinates_take_ascii_without_underscores(text, line):
    # float() alone reads these as 0.0 and 10.0
    with pytest.raises(ParseError, match="bad coordinate") as info:
        parse_pointset(text)
    assert info.value.line == line


def test_parse_partition_reads_each_line_once(monkeypatch):
    visits = 0

    class Counted(list):
        def __iter__(self):
            nonlocal visits
            for item in super().__iter__():
                visits += 1
                yield item

        def __getitem__(self, i):
            nonlocal visits
            visits += 1
            return super().__getitem__(i)

    content_lines = cli_io._content_lines
    monkeypatch.setattr(cli_io, "_content_lines", lambda text: Counted(content_lines(text)))
    p = build_wheel_partition(builtin_tree("doublestar", 16), 16)
    assert parse_partition(emit_partition(p), p.ps) == p
    nlines = 1 + 16 * 32  # header, then a 'tree' line and 31 edges per tree
    assert visits <= 2 * nlines
    assert visits == 0  # an emitted file is read in bulk
    # a comment line and CRLF endings send the same file to the line reader
    text = "# doublestar, n = 16\n" + emit_partition(p).replace("\n", "\r\n")
    assert parse_partition(text, p.ps) == p
    assert nlines <= visits <= 2 * nlines


def _built_partitions() -> list[Partition]:
    """Partitions from every builder on n <= 8, as the CLI writes them."""
    built = [fig2i_partition()]
    built += [build_wheel_partition(builtin_tree("doublestar", n), n) for n in (2, 5, 8)]
    built += [theorem2_partition(regular_gon(2 * n), t) for n in (2, 5, 8) for t in (0, 1)]
    for name, (theorem, r) in PRESET_RUNS.items():
        build = theorem3_partition if theorem == 3 else theorem4_partition
        built.append(build(construction_pointset(name), r, CHOICES_PRESETS[name]))
    return built


BUILT = _built_partitions()


def test_emitted_partitions_take_the_bulk_reader():
    for p in BUILT:
        assert cli_io._emitted_trees(emit_partition(p), len(p.ps)) is not None
        assert parse_partition(emit_partition(p), p.ps) == p


def _spell_by_fstring(npts: int, edge_sets) -> str:
    """emit_partition's spelling of edge_sets on npts points, one f-string
    per line."""
    out = [f"partition {npts} {len(edge_sets)}"]
    for i, edges in enumerate(edge_sets):
        out.append(f"tree {i}")
        out += [f"{a} {b}" for a, b in edges]
    return "\n".join(out) + "\n"


def test_emit_partition_spells_each_line_as_the_fstring():
    for p in BUILT:  # theorems 1 to 4
        text = emit_partition(p)
        assert text == _spell_by_fstring(len(p.ps), [t.edges for t in p.trees])
        read = cli_io._emitted_trees(text, len(p.ps))
        assert [list(edges) for edges in read] == [list(t.edges) for t in p.trees]
    # labels below 0 and at or past N are refused where the tree is built,
    # so emit_partition never spells one; a file that does is left by the
    # bulk reader to the line reader, which rejects it
    ps = make_wheel(3)
    good = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))
    for bad in (((-1, 2), (0, 1)), ((0, 6), (1, 2)), ((-3, 9),), ((-2, -1), (5, 7))):
        with pytest.raises(InvalidParameter, match=re.escape(f"edge {bad[0]!r} is not")):
            GeomTree(ps, bad)
        text = _spell_by_fstring(len(ps), [good, bad, good])
        assert cli_io._emitted_trees(text, len(ps)) is None
        with pytest.raises(ParseError):
            parse_partition(text, ps)


def _assert_checked_tree(t: GeomTree):
    """t is what the public GeomTree makes of its pairs: sorted pairs
    a < b of exact ints."""
    assert t == GeomTree(t.ps, list(t.edges))
    assert all(type(a) is type(b) is int and a < b for a, b in t.edges)
    assert list(t.edges) == sorted(t.edges)


def test_proved_trees_equal_checked_trees():
    # the builders (Theorems 1-4) and the bulk reader skip GeomTree's scan
    for p in BUILT:
        read = parse_partition(emit_partition(p), p.ps)
        for t in p.trees + read.trees:
            _assert_checked_tree(t)
        assert read == p


def test_a_reversed_pair_takes_the_line_reader():
    for p in BUILT:
        (a, b), *rest = p.trees[0].edges
        edge_sets = [[(b, a), *rest]] + [t.edges for t in p.trees[1:]]
        text = _spell_by_fstring(len(p.ps), edge_sets)
        assert cli_io._emitted_trees(text, len(p.ps)) is None
        read = parse_partition(text, p.ps)
        assert read == p
        _assert_checked_tree(read.trees[0])


def test_builders_and_bulk_reader_scan_no_pair(monkeypatch):
    # built and bulk-read partitions never reach GeomTree's per-pair scan
    from planetrees import tree_taxonomy

    def scanned(*args):
        raise AssertionError("a proved tree took the per-pair scan")

    texts = [emit_partition(p) for p in BUILT]
    monkeypatch.setattr(tree_taxonomy, "_point_pair", scanned)
    monkeypatch.setattr(tree_taxonomy.GeomTree, "__post_init__", scanned)
    assert _built_partitions() == BUILT
    assert [parse_partition(text, p.ps) for p, text in zip(BUILT, texts)] == BUILT


# sha256 of emit_partition's text for fixed builds, recorded before the
# builders wrote their turned copies in one pass (turned_pairs)
PINNED_BUILDS = {
    "theorem2 t=0 gon8": (lambda: theorem2_partition(regular_gon(8), 0),
                          "2b4c2f43727ddbb4e92fbae010b2d9b0cd8e8877f654468e96005ca14b48f5df"),
    "theorem2 t=1 gon8": (lambda: theorem2_partition(regular_gon(8), 1),
                          "d44ae9a57041e5c56b41d7d4806b74254a789caf6c1ba24c4f3fc22a0d07a732"),
    "theorem3 r=3 gon10": (lambda: theorem3_partition(regular_gon(10), 3),
                           "b18397f1121b8e112cc4af88936f749f953ef89d6c9acab76a6c78407f01426e"),
    "theorem4 r=3 Type1 wheel6": (
        lambda: theorem4_partition(make_wheel(6), 3, ConstructionChoices(type4="Type1")),
        "75ee2563e218e7f4d3f0e820430c09fdff453f230fc62e2f20855a447063f70d"),
    "theorem4 r=3 Type2 wheel6": (
        lambda: theorem4_partition(make_wheel(6), 3, ConstructionChoices(type4="Type2")),
        "37593f495c5977601b24f9f517da72983aeea4b5c963d3c2222c48d54ce790ce"),
    "theorem1 doublestar n=5": (
        lambda: build_wheel_partition(builtin_tree("doublestar", 5), 5),
        "05059a3f64d171ae1784ef405d3fe036765e078aea132743403ea8f0bb0e3f1c"),
}


@pytest.mark.parametrize("name", PINNED_BUILDS)
def test_built_partitions_emit_their_pinned_text(name):
    build, sha = PINNED_BUILDS[name]
    p = build()
    assert verify_partition(p).ok
    assert hashlib.sha256(emit_partition(p).encode()).hexdigest() == sha


def _read_both_ways(text: str, ps: PointSet) -> tuple:
    """parse_partition's outcome (the Partition, or the error's type, text
    and line) with and without the bulk reader."""
    def outcome():
        try:
            return parse_partition(text, ps)
        except PlaneTreesError as exc:
            return type(exc), str(exc), getattr(exc, "line", None)

    fast = outcome()
    with mock.patch.object(cli_io, "_emitted_trees", lambda text, npts: None):
        return fast, outcome()


MUTATIONS = ("crlf", "comment", "blank", "tab", "leading-zero", "index-npts", "loop",
             "swapped-trees", "header-off-by-one", "no-final-newline", "extra-field",
             "random-byte")
_EDGE_REWRITES = {"tab": "{a}\t{b}", "leading-zero": "0{a} {b}", "index-npts": "{a} {npts}",
                  "loop": "{a} {a}", "extra-field": "{a} {b} {a}"}


def _mutate(text: str, mutation: str, npts: int, rng) -> str:
    """text (as emit_partition writes it) with one mutation applied."""
    if mutation == "crlf":
        return text.replace("\n", "\r\n")
    if mutation == "no-final-newline":
        return text[:-1]
    if mutation == "random-byte":
        i = rng.randrange(len(text))
        return text[:i] + chr(rng.randrange(256)) + text[i + 1:]
    lines = text.splitlines()
    if mutation in ("comment", "blank"):
        row = "# a comment" if mutation == "comment" else rng.choice(("", "  "))
        lines.insert(rng.randrange(len(lines) + 1), row)
    elif mutation == "swapped-trees":
        i, j = rng.sample([k for k, line in enumerate(lines) if line.startswith("tree")], 2)
        lines[i], lines[j] = lines[j], lines[i]
    elif mutation == "header-off-by-one":
        word, points, trees = lines[0].split()
        lines[0] = f"{word} {points} {int(trees) + rng.choice((-1, 1))}"
    else:
        i = rng.choice([k for k, line in enumerate(lines) if line[:1].isdigit()])
        a, b = lines[i].split()
        lines[i] = _EDGE_REWRITES[mutation].format(a=a, b=b, npts=npts)
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(BUILT), st.sampled_from(MUTATIONS), st.randoms(use_true_random=False))
def test_bulk_reader_agrees_with_the_line_reader(p, mutation, rng):
    text = _mutate(emit_partition(p), mutation, len(p.ps), rng)
    fast, slow = _read_both_ways(text, p.ps)
    assert fast == slow, (mutation, text)


@pytest.mark.parametrize("text", [
    # block 0 ends in a digit run glued to the next 'tree': the token count
    # still matches, but line 3 holds one field
    "partition 4 2\ntree 0\n 1\n2 3\n0tree 1\n0 2\n1 3\n",
    # one field on a line: every line still has its one space
    "partition 4 2\ntree 0\n 1\n0 2\n0 3\ntree 1\n1 2\n1 3\n2 3\n",
    "partition 4 2\ntree 0\n0 1\n0 2\n0 \ntree 1\n1 2\n1 3\n2 3\n",
    "partition 4 2\ntree 0\n0 1\n0 2\n0 3\ntree 1\n1 2\n1 3\n2 3",
    "partition 4 2\ntree 0\n0 1\n0 2\n0 3\ntree 1\n1 2\n1 3\n2 3\n\n",
    "partition 4 2\ntree 0\n0 1\n0 2\n0 3\ntree 1\n1 2\n1 3\n2\x0b3\n",
    "partition 4 2\ntree 0\n00 1\n0 2\n0 3\ntree 1\n1 2\n1 3\n2 3\n",
    "partition 4 2\ntree 0\ntree 1\n0 1\n",
    "partition 4 0\n",
    "partition 04 1\ntree 0\n0 1\n",
    "partition 4 1\ntree 00\n0 1\n",
    "partition 4 2\ntree 0\n0 1\ntree 1\ntree 2\n",
    "partition 4 2\ntree 0\n0 1\n0 1 \n",
    "",
])
def test_bulk_reader_near_misses(text):
    fast, slow = _read_both_ways(text, make_wheel(2))
    assert fast == slow


def test_edgelist_checked_against_a_point_count():
    assert parse_edgelist("5 0\n1 2\n", 6) == ((0, 5), (1, 2))
    assert parse_edgelist("7 9\n") == ((7, 9),)  # abstract labels, no point set
    for text, line in (("0 1\n2 9\n", 2), ("3 3\n", 1)):
        with pytest.raises(ParseError, match="invalid on 6 points") as info:
            parse_edgelist(text, 6)
        assert info.value.line == line
    with pytest.raises(ParseError, match="bad edge 'tree 0'"):
        parse_edgelist("0 1\ntree 0\n")


@pytest.mark.parametrize("command", [["classify"], ["render", "--out", "{tmp}/out.svg"]])
@pytest.mark.parametrize("text, message", [
    pytest.param("0 1\n2 9\n", "ParseError: line 2: edge (2, 9) invalid on 6 points",
                 id="past-the-end"),
    pytest.param("0 1\n1 -2\n", "ParseError: line 2: bad edge '1 -2'", id="negative"),
])
def test_cli_tree_outside_the_point_set_exits_2(tmp_path, command, text, message):
    tree = tmp_path / "t.edges"
    tree.write_text(text)
    res = subprocess.run(
        [sys.executable, "-m", "planetrees.cli_io", *(a.format(tmp=tmp_path) for a in command),
         "--input", "wheel3", "--tree", str(tree)],
        capture_output=True, text=True)
    assert res.returncode == 2, res.stderr
    assert res.stderr.splitlines() == [message]
    assert res.stdout == "" and not (tmp_path / "out.svg").exists()


def test_cli_wheel_partition_tree_keeps_abstract_labels(tmp_path, capsys):
    tree = tmp_path / "chair.edges"
    tree.write_text(emit_edgelist((a + 10, b + 10) for a, b in builtin_tree("fig2i", 3)))
    assert run_cli("wheel-partition", "--n", "3", "--tree", str(tree),
                   "--out", str(tmp_path / "out")) == 0


# ---------------------------------------------------------------------------
# packaged data and input resolution

def test_packaged_presets_match_programmatic():
    for name in POINT_PRESETS:
        packaged = load_pointset(name)
        built = figure_pointset(name)
        assert packaged.config_tag == built.config_tag, name
        assert packaged.points == built.points, name


def test_preset_names_resolve_with_their_labels():
    for name in POINT_PRESETS:
        assert load_pointset(name).labels == figure_pointset(name).labels, name
    assert load_pointset("fig4").label(1) == "u"


def test_parsed_convex_file_runs_a_hull_pass_only_when_shuffled(monkeypatch):
    sizes = []
    strict_hull = geom_core._strict_hull

    def counted(points):
        sizes.append(len(points))
        return strict_hull(points)

    monkeypatch.setattr(geom_core, "_strict_hull", counted)
    # a gon listed round its hull: the walk of the listed order is its order
    ps = parse_pointset(emit_pointset(regular_gon(16)))
    assert ps.config_tag == "convex"
    assert verify_partition(theorem2_partition(ps, 0)).predicate == "convex-order"
    assert len(convex_hull(regular_gon(16))) == 16
    assert sizes == []
    # the same points shuffled: the walk fails and one hull pass orders them
    ps = parse_pointset(emit_pointset(shuffled_gon(16)))
    assert cyclic_order(ps).kind == "convex-order" and len(convex_hull(ps)) == 16
    assert sizes == [16]


def test_parsed_general_file_runs_one_hull_pass(monkeypatch):
    sizes = []
    strict_hull = geom_core._strict_hull

    def counted(points):
        sizes.append(len(points))
        return strict_hull(points)

    monkeypatch.setattr(geom_core, "_strict_hull", counted)
    ps = parse_pointset(emit_pointset(figure_pointset("fig5")))
    assert ps.config_tag == "general"
    assert sizes == [8]


def test_wheel_tag_syntax_lives_in_geom_core():
    for path in Path(geom_core.__file__).parent.glob("*.py"):
        if path.name != "geom_core.py":
            text = path.read_text()
            assert "wheel([0-9]+)" not in text and '("x",)' not in text, path.name


def test_load_pointset_wheel_and_file(tmp_path, wheel3):
    assert load_pointset("wheel4").points == make_wheel(4).points
    f = tmp_path / "ps.txt"
    f.write_text(emit_pointset(wheel3))
    assert load_pointset(str(f)).points == wheel3.points
    with pytest.raises(ParseError, match="neither a file"):
        load_pointset("no-such-thing")


# ---------------------------------------------------------------------------
# rendering

def test_render_svg_partition():
    svg = render_svg(fig2i_partition())
    assert svg.count("<line ") == 15
    strokes = {part.split('"')[0] for part in svg.split('stroke="')[1:]}
    assert strokes == {"#d62728", "#1f77b4", "#2ca02c"}
    assert svg.count("<circle") == 6
    assert hashlib.sha256(svg.encode()).hexdigest() == FIG2I_SVG_SHA


def test_render_svg_deterministic_and_styled():
    p = fig2i_partition()
    assert render_svg(p) == render_svg(p)
    assert render_svg(p.trees[0]).count("<line ") == 5


# ---------------------------------------------------------------------------
# command line

def run_cli(*argv):
    return main(list(argv))


def test_cli_generate_and_halving(tmp_path, capsys):
    out = tmp_path / "w3.points"
    assert run_cli("generate", "--config", "wheel3", "--out", str(out)) == 0
    ps = parse_pointset(out.read_text())
    assert ps.config_tag == "wheel3"
    assert run_cli("halving", "--input", str(out)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [f"{i} 5 0" for i in range(5)]


def test_cli_generate_usage_error(capsys):
    """--config is required, and names every source, presets included."""
    with pytest.raises(SystemExit) as exc:
        main(["generate"])
    assert exc.value.code == 2
    assert "required: --config" in capsys.readouterr().err
    assert run_cli("generate", "--config", "fig5") == 0
    assert parse_pointset(capsys.readouterr().out).points == figure_pointset("fig5").points


def test_cli_halving_collinear_general_file(tmp_path, capsys):
    points = tmp_path / "line.points"
    points.write_text("pointset 4 general\n0 0\n1 1\n2 2\n0 3\n")
    assert run_cli("halving", "--input", str(points)) == 2
    assert "InvariantViolation: collinear triple (0, 1, 2)" in capsys.readouterr().err


def test_cli_halving_near_collinear_general_file(tmp_path, capsys):
    # (1, 1e-10) lies just above the line through (0, 0) and (2, 0); a
    # collinearity tolerance would read the first three points as collinear
    points = tmp_path / "thin.points"
    points.write_text("pointset 4 general\n0 0\n1 1e-10\n2 0\n1 1\n")
    assert run_cli("halving", "--input", str(points)) == 0
    # (1, 1e-10) and (1, 1) lie on the same side of the line through 0 and 2
    assert capsys.readouterr().out.split("\n")[:-1] == ["0 1 0", "1 2 0", "1 3 0"]


@pytest.mark.parametrize("coord", ["inf", "-inf", "nan"])
def test_cli_non_finite_coordinate(tmp_path, capsys, coord):
    points = tmp_path / "far.points"
    points.write_text(f"pointset 4 general\n0 0\n1 0\n0 {coord}\n1 1\n")
    with pytest.raises(ParseError, match="non-finite coordinate") as exc:
        parse_pointset(points.read_text())
    assert exc.value.line == 4
    assert run_cli("halving", "--input", str(points)) == 2
    assert "ParseError: line 4: non-finite coordinate" in capsys.readouterr().err


def test_cli_halving_labelings(capsys):
    assert run_cli("halving", "--input", "wheel3", "--labeling", "w") == 0
    assert capsys.readouterr().out.splitlines()[0] == "w 5"
    assert run_cli("halving", "--input", "wheel3", "--labeling", "h") == 1
    assert "NoHLabeling" in capsys.readouterr().err


def test_cli_classify(tmp_path, capsys):
    tree = tmp_path / "chair.edges"
    tree.write_text(emit_edgelist(builtin_tree("fig2i", 3)))
    assert run_cli("classify", "--input", "wheel3", "--tree", str(tree)) == 0
    out = capsys.readouterr().out
    assert "w_caterpillar: True" in out
    assert run_cli("classify", "--input", "wheel3", "--tree", str(tree), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["w_caterpillar"] is True
    assert payload["p4_symmetric"]["type"] == 2


def test_cli_classify_long_path(tmp_path, capsys):
    tree = tmp_path / "p3000.edges"
    tree.write_text(emit_edgelist(tuple((i, i + 1) for i in range(2999))))
    assert run_cli("classify", "--input", "wheel1500", "--tree", str(tree), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_path"] is True and payload["symmetric"] == {"edge": [1499, 1500]}


def test_cli_seed_belongs_to_generate(capsys):
    texts = []
    for _ in range(2):
        assert run_cli("generate", "--config", "random8", "--seed", "3") == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and texts[0].startswith("pointset 8 convex")
    with pytest.raises(SystemExit) as exc:
        main(["halving", "--input", "wheel3", "--seed", "3"])
    assert exc.value.code == 2


def test_cli_wheel_partition(tmp_path, wheel3, capsys):
    out = tmp_path / "parts"
    code = run_cli("wheel-partition", "--n", "3", "--tree", "builtin:fig2i",
                   "--out", str(out), "--svg")
    assert code == 0
    assert sorted(f.name for f in out.iterdir()) == ["analysis.txt", "partition.svg",
                                                     "partition.txt"]
    assert (out / "partition.svg").read_text().startswith("<svg")
    analysis = (out / "analysis.txt").read_text().splitlines()
    assert analysis[0] == "verify: pass"
    assert analysis[1] == "one_boundary_tree: 2"
    p = parse_partition((out / "partition.txt").read_text(), wheel3)
    assert verify_partition(p).ok


def test_cli_wheel_partition_rejects_path(tmp_path, capsys):
    tree = tmp_path / "p6.edges"
    tree.write_text(emit_edgelist(tuple((i, i + 1) for i in range(5))))
    code = run_cli("wheel-partition", "--n", "3", "--tree", str(tree),
                   "--out", str(tmp_path / "x"))
    assert code == 2
    assert "NotWCaterpillar" in capsys.readouterr().err


def test_cli_wheel_partition_verifies_once(tmp_path, monkeypatch, capsys):
    calls = []

    def counted(p):
        calls.append(p)
        return verify_partition(p)

    monkeypatch.setattr(wheel_partition, "verify_partition", counted)
    monkeypatch.setattr(cli_io, "verify_partition", counted)
    assert run_cli("wheel-partition", "--n", "4", "--tree", "builtin:doublestar",
                   "--out", str(tmp_path / "parts"), "--json") == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["verify"] is True


def test_cli_halving_partition(tmp_path, capsys):
    out = tmp_path / "t2"
    assert run_cli("halving-partition", "--input", "fig5", "--theorem", "2",
                   "--t", "1", "--out", str(out), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trees"] == 4 and payload["verify"] is True

    assert run_cli("halving-partition", "--input", "wheel3", "--theorem", "3",
                   "--r", "1", "--out", str(tmp_path / "t3")) == 1
    assert "HypothesisViolated" in capsys.readouterr().err

    assert run_cli("halving-partition", "--input", "wheel3", "--theorem", "3",
                   "--out", str(tmp_path / "t3b")) == 2
    assert "requires --r" in capsys.readouterr().err

    assert run_cli("halving-partition", "--input", "wheel7", "--theorem", "4",
                   "--r", "3", "--choices", "fig8", "--out", str(tmp_path / "t4")) == 0


def test_cli_choices_json(tmp_path, capsys):
    good = tmp_path / "choices.json"
    good.write_text(json.dumps({"star_side": "high", "extend_side": ["right"],
                                "line": [1, 5]}))
    out = tmp_path / "t3"
    assert run_cli("halving-partition", "--input", "fig6", "--theorem", "3",
                   "--r", "2", "--choices", str(good), "--out", str(out)) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"star": "high"}))
    assert run_cli("halving-partition", "--input", "fig6", "--theorem", "3",
                   "--r", "2", "--choices", str(bad), "--out", str(out)) == 2
    assert "unknown choices keys" in capsys.readouterr().err

    # inline JSON literal, no file needed
    assert run_cli("halving-partition", "--input", "wheel4", "--theorem", "4",
                   "--r", "2", "--choices", '{"type4": "Type2"}',
                   "--out", str(tmp_path / "t4")) == 0
    assert run_cli("halving-partition", "--input", "fig6", "--theorem", "3",
                   "--r", "2", "--choices", '{"line": [1, 5',
                   "--out", str(out)) == 2
    assert "bad choices JSON" in capsys.readouterr().err


def test_cli_verify_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "parts"
    run_cli("wheel-partition", "--n", "3", "--tree", "builtin:fig2i", "--out", str(out))
    capsys.readouterr()
    part = out / "partition.txt"
    assert run_cli("verify", "--input", "wheel3", "--partition", str(part)) == 0
    assert capsys.readouterr().out.strip() == "pass"
    assert run_cli("verify", "--input", "wheel3", "--partition", str(part), "--json") == 0
    assert json.loads(capsys.readouterr().out)["predicate"] == "wheel-index"

    broken = tmp_path / "broken.txt"
    text = part.read_text().splitlines()
    # swap one edge between two trees: coverage holds, spanning breaks
    i23 = text.index("2 3")
    i12 = text.index("1 2")
    text[i23], text[i12] = text[i12], text[i23]
    broken.write_text("\n".join(text) + "\n")
    assert run_cli("verify", "--input", "wheel3", "--partition", str(broken),
                   "--json") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False and payload["reason"] == "spanning"
    assert payload["predicate"] is None

    garbled = tmp_path / "garbled.txt"
    garbled.write_text("partition nope\n")
    assert run_cli("verify", "--input", "wheel3", "--partition", str(garbled)) == 2
    assert "ParseError" in capsys.readouterr().err


def test_cli_verify_refutes_unearned_wheel_tag(tmp_path, capsys):
    p = build_wheel_partition(builtin_tree("doublestar", 4), 4)
    pts = list(p.ps.points)
    pts[0], pts[3] = pts[3], pts[0]
    points = tmp_path / "swapped.points"
    points.write_text(emit_pointset(PointSet(tuple(pts), "wheel4")))
    part = tmp_path / "partition.txt"
    part.write_text(emit_partition(p))
    assert run_cli("verify", "--input", str(points), "--partition", str(part),
                   "--json") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["reason"] == "plane" and payload["witness"] == [0, [0, 1], [2, 5]]
    assert payload["predicate"] == "pairwise"


@pytest.mark.parametrize("argv", [
    ["verify", "--input", "wheel4", "--partition", "{tmp}/missing.txt"],
    ["classify", "--input", "wheel4", "--tree", "{tmp}/missing.edges"],
    ["render", "--input", "wheel4", "--tree", "{tmp}"],
    ["halving-partition", "--input", "wheel4", "--theorem", "4", "--r", "2",
     "--choices", '{{"extend_side": 5}}', "--out", "{tmp}/t4"],
    ["halving-partition", "--input", "wheel4", "--theorem", "4", "--r", "2",
     "--choices", '{{"line": 5}}', "--out", "{tmp}/t4"],
    ["halving-partition", "--input", "wheel4", "--theorem", "4", "--r", "2",
     "--choices", "{tmp}/number.json", "--out", "{tmp}/t4"],
    ["generate", "--config", "gon8", "--radius", "inf"],
    ["generate", "--config", "random8", "--radius", "0"],
    ["halving-partition", "--input", "wheel8", "--theorem", "4", "--r", "1", "--out", "{tmp}/t4"],
])
def test_cli_bad_input_exits_2_without_traceback(tmp_path, argv):
    (tmp_path / "number.json").write_text("5\n")
    res = subprocess.run(
        [sys.executable, "-m", "planetrees.cli_io", *(a.format(tmp=tmp_path) for a in argv)],
        capture_output=True, text=True)
    assert res.returncode == 2, res.stderr
    assert len(res.stderr.splitlines()) == 1, res.stderr
    assert res.stderr.startswith(("ParseError: ", "InvalidParameter: ")), res.stderr
    assert res.stdout == ""


_EMPTY_SET_COMMANDS = [
    ["halving", "--labeling", "h"],
    ["halving", "--labeling", "w"],
    ["halving-partition", "--theorem", "2", "--out", "{tmp}/t2"],
    ["render", "--partition", "{tmp}/empty.txt", "--out", "{tmp}/out.svg"],
]


@pytest.mark.parametrize("tag, argv", [("general", argv) for argv in _EMPTY_SET_COMMANDS]
                         + [("wheel0", argv) for argv in _EMPTY_SET_COMMANDS]
                         + [("wheel0", ["verify", "--partition", "{tmp}/empty.txt"])])
def test_cli_empty_point_set_exits_2_without_traceback(tmp_path, tag, argv):
    points = tmp_path / "points.txt"
    points.write_text(f"pointset 0 {tag}\n")
    (tmp_path / "empty.txt").write_text("partition 0 0\n")
    res = subprocess.run(
        [sys.executable, "-m", "planetrees.cli_io", *(a.format(tmp=tmp_path) for a in argv),
         "--input", str(points)],
        capture_output=True, text=True)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    name = res.stderr.partition(":")[0]
    assert issubclass(getattr(planetrees, name, type(None)), PlaneTreesError), res.stderr


def test_cli_generate_random_applies_radius(capsys):
    assert run_cli("generate", "--config", "random8", "--seed", "3", "--radius", "2.5") == 0
    ps = parse_pointset(capsys.readouterr().out)
    assert all(abs(math.hypot(x, y) - 2.5) < 1e-12 for x, y in ps.points)


def test_cli_generate_random_draws_once():
    # the angles are drawn once, with no minimum gap: 2,000 of them still
    # come out in strictly convex position
    res = subprocess.run(
        [sys.executable, "-m", "planetrees.cli_io", "generate", "--config", "random2000",
         "--seed", "1"],
        capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    ps = parse_pointset(res.stdout)
    assert len(ps) == 2000 and ps.config_tag == "convex"


def test_cli_oracle(tmp_path, capsys):
    out = tmp_path / "oracle"
    assert run_cli("oracle", "--input", "wheel2", "--out", str(out), "--json") == 0
    assert json.loads(capsys.readouterr().out)["count"] == 6
    blocks = (out / "partitions.txt").read_text().split("partition 4 2")
    assert len([b for b in blocks if b.strip()]) == 6


def test_cli_render(tmp_path, capsys):
    tree = tmp_path / "chair.edges"
    tree.write_text(emit_edgelist(builtin_tree("fig2i", 3)))
    out = tmp_path / "t.svg"
    assert run_cli("render", "--input", "wheel3", "--tree", str(tree),
                   "--out", str(out)) == 0
    assert out.read_text().startswith("<svg")
    assert run_cli("render", "--input", "wheel3") == 2
    assert "InvalidParameter" in capsys.readouterr().err


def test_cli_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_module_entrypoint(tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "planetrees.cli_io", "halving", "--input", "wheel2"],
        capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stdout.strip().splitlines() == [f"{i} 3 0" for i in range(3)]


def test_convex_tag_is_checked():
    with pytest.raises(InvariantViolation,
                       match=r"^point 3 is not a strict hull vertex under tag 'convex'$"):
        parse_pointset("pointset 4 convex\n0 0\n4 0\n0 4\n1 1\n")
    # the collinear triple is named first
    with pytest.raises(InvariantViolation, match=r"^collinear triple \(0, 1, 2\)"):
        parse_pointset("pointset 4 convex\n0 0\n1 1\n2 2\n0 3\n")
    assert parse_pointset("pointset 4 general\n0 0\n4 0\n0 4\n1 1\n").config_tag == "general"


def test_cli_generate_checks_its_convex_points(tmp_path):
    out = tmp_path / "r40.points"
    res = subprocess.run(
        [sys.executable, "-m", "planetrees.cli_io", "generate", "--config", "random40",
         "--seed", "1", "--radius", "1e-321", "--out", str(out)],
        capture_output=True, text=True)
    assert res.returncode == 2, res.stderr
    assert len(res.stderr.splitlines()) == 1, res.stderr
    assert res.stderr.startswith("InvalidParameter: "), res.stderr
    assert not out.exists()


@pytest.mark.parametrize("source, path", [
    ("wheel4", "wheel-index"), ("gon8", "convex-order"), ("fig5", "sweep")])
def test_cli_halving_json_reports_the_profile_path(tmp_path, capsys, source, path):
    if source.startswith("gon"):
        assert run_cli("generate", "--config", source, "--out", str(tmp_path / "p")) == 0
        source = str(tmp_path / "p")
    assert run_cli("halving", "--input", source, "--json") == 0
    assert json.loads(capsys.readouterr().out)["path"] == path


# ---------------------------------------------------------------------------
# one resolver, one printer

@pytest.mark.parametrize("argv", [
    ["generate", "--config", "gon8", "--out", "{tmp}/gon8.points"],
    ["halving", "--input", "gon8"],
    ["classify", "--input", "wheel3", "--tree", "{tmp}/chair.edges"],
    ["wheel-partition", "--n", "3", "--tree", "builtin:fig2i", "--out", "{tmp}/w3"],
    ["halving-partition", "--input", "fig5", "--theorem", "2", "--out", "{tmp}/t2"],
    ["verify", "--input", "wheel3", "--partition", "{tmp}/fig2i.txt"],
    ["oracle", "--input", "wheel2", "--limit", "2", "--out", "{tmp}/oracle"],
    ["render", "--input", "wheel3", "--tree", "{tmp}/chair.edges", "--out", "{tmp}/t.svg"],
])
def test_cli_json_stdout_is_one_object(tmp_path, capsys, argv):
    (tmp_path / "chair.edges").write_text(emit_edgelist(builtin_tree("fig2i", 3)))
    (tmp_path / "fig2i.txt").write_text(emit_partition(fig2i_partition()))
    assert run_cli(*(a.format(tmp=tmp_path) for a in argv), "--json") == 0
    assert isinstance(json.loads(capsys.readouterr().out), dict)


@pytest.mark.parametrize("argv", [
    ["generate", "--config", "gon8"],
    ["render", "--input", "wheel3", "--tree", "{tmp}/chair.edges"],
])
def test_cli_json_without_out_exits_2(tmp_path, capsys, argv):
    (tmp_path / "chair.edges").write_text(emit_edgelist(builtin_tree("fig2i", 3)))
    assert run_cli(*(a.format(tmp=tmp_path) for a in argv), "--json") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"InvalidParameter: {argv[0]} --json needs --out"), err


@pytest.mark.parametrize("argv", [
    ["generate", "--config", "wheel3", "--out", "{tmp}"],
    ["render", "--input", "wheel3", "--tree", "{tmp}/chair.edges", "--out", "{tmp}"],
    ["wheel-partition", "--n", "3", "--tree", "builtin:fig2i", "--out", "{tmp}/chair.edges"],
    ["halving-partition", "--input", "gon8", "--theorem", "2",
     "--out", "{tmp}/chair.edges/sub"],
    ["oracle", "--input", "wheel2", "--out", "{tmp}/chair.edges"],
])
def test_cli_out_that_cannot_be_written_exits_2(tmp_path, capsys, argv):
    # a directory where a file goes, a file where a directory goes, and a
    # file on the way to one: the OS reason, named against --out
    (tmp_path / "chair.edges").write_text(emit_edgelist(builtin_tree("fig2i", 3)))
    assert run_cli(*(a.format(tmp=tmp_path) for a in argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("InvalidParameter: --out '"), err


def test_cli_input_takes_every_generated_name(capsys):
    assert run_cli("halving", "--input", "gon8", "--json") == 0
    assert json.loads(capsys.readouterr().out)["path"] == "convex-order"
    assert run_cli("halving", "--input", "random8", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["path"] == "convex-order" and len(payload["lines"]) == 4
    assert run_cli("generate", "--config", "gon8") == 0
    assert load_pointset("gon8").points == parse_pointset(capsys.readouterr().out).points
    assert run_cli("generate", "--config", "random8", "--seed", "3") == 0
    drawn = parse_pointset(capsys.readouterr().out)
    assert load_pointset("random8", seed=3).points == drawn.points
    assert load_pointset("random8").config_tag == "convex"
    with pytest.raises(ParseError, match="gon<m> or random<m>"):
        load_pointset("gon")


def test_cli_oracle_rejects_a_negative_limit(tmp_path, capsys):
    out = tmp_path / "oracle"
    assert run_cli("oracle", "--input", "wheel2", "--limit", "-5", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("InvalidParameter: limit must be")
    assert not (out / "partitions.txt").exists()
    assert run_cli("oracle", "--input", "wheel2", "--limit", "0", "--out", str(out)) == 0
    assert capsys.readouterr().out.startswith("0 partitions")


@pytest.mark.parametrize("argv", [
    ["halving-partition", "--input", "fig5", "--theorem", "2", "--r", "7",
     "--out", "{tmp}/t2"],
    ["halving-partition", "--input", "fig5", "--theorem", "2", "--choices", "fig7",
     "--out", "{tmp}/t2"],
    ["halving-partition", "--input", "gon8", "--theorem", "3", "--r", "2", "--t", "1",
     "--out", "{tmp}/t2"],
    ["halving-partition", "--input", "wheel4", "--theorem", "4", "--r", "2", "--t", "1",
     "--out", "{tmp}/t2"],
    ["halving", "--input", "wheel4", "--labeling", "w", "--k", "3"],
    ["generate", "--config", "fig5", "--radius", "2", "--out", "{tmp}/t2"],
    ["generate", "--config", "fig5", "--radius", "1", "--out", "{tmp}/t2"],
    ["generate", "--config", "fig5", "--radius", "inf", "--out", "{tmp}/t2"],
    ["generate", "--config", "fig5", "--seed", "3", "--out", "{tmp}/t2"],
    ["generate", "--config", "{tmp}/gon8.points", "--radius", "1", "--out", "{tmp}/t2"],
    ["generate", "--config", "{tmp}/gon8.points", "--seed", "3", "--out", "{tmp}/t2"],
    ["generate", "--config", "wheel4", "--seed", "3", "--out", "{tmp}/t2"],
    ["generate", "--config", "gon8", "--seed", "3", "--out", "{tmp}/t2"],
])
def test_cli_rejects_flags_it_would_ignore(tmp_path, capsys, argv):
    (tmp_path / "gon8.points").write_text(emit_pointset(load_pointset("gon8")))
    assert run_cli(*(a.format(tmp=tmp_path) for a in argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("InvalidParameter: "), err
    assert not (tmp_path / "t2").exists()
