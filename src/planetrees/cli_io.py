"""File formats, SVG rendering, and the command-line front end.

Formats:
  pointset   header ``pointset <count> <config_tag>`` then one ``x y``
             line per point; ``#`` starts a comment.
  partition  header ``partition <points> <trees>`` then ``tree <i>``
             blocks (0-based) of ``a b`` edge lines; emit_partition's exact
             spelling is read in bulk, others line by line, to the same result.
  edgelist   bare ``a b`` lines.

Exit codes: 0 success, 1 a check or construction failed mathematically,
2 malformed invocation or input. Every subcommand takes --json, under
which stdout holds exactly one JSON object; generate and render then
need --out for their file.
"""
from __future__ import annotations

import argparse
import json
import math
import operator
import random
import re
import sys
from pathlib import Path

from . import presets
from .errors import (HypothesisViolated, InvalidParameter, InvariantViolation,
                     NoHLabeling, NotAHalvingLine, NoWLabeling, ParseError,
                     PlaneTreesError, SideViolation, StructureViolation)
from .geom_core import (PointSet, _strict_hull, collinear_triple, cyclic_order,
                        make_wheel, wheel_labels, wheel_tag)
from .halving import h_labeling, halving_profile, k_halving_lines, w_labeling
from .halving_partition import (ConstructionChoices, theorem2_partition,
                                theorem3_partition, theorem4_partition)
from .tree_taxonomy import GeomTree, Partition, _proved_tree, classify
from .verify_oracle import brute_force_partitions, verify_partition
from .wheel_partition import analyze_wheel_partition, build_wheel_partition

_DRAWN_ARG = re.compile(r"^(gon|random)([0-9]+)$")

# config failures the math can legitimately report on good input
_CHECK_FAILURES = (NoHLabeling, NoWLabeling, HypothesisViolated,
                   StructureViolation, NotAHalvingLine, SideViolation)


# ---------------------------------------------------------------------------
# pointset format

def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, text) of every line left non-empty once its comment is cut."""
    return [(lineno, line) for lineno, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.partition("#")[0].strip())]


def _digits(field: str) -> bool:
    """The one form of an integer field: ASCII digits only (int() alone
    also takes a sign, underscores and other scripts' digits)."""
    return field.isascii() and field.isdigit()


def _coordinate(field: str) -> float:
    """float() of an ASCII field with no underscore: every repr of a float
    (emit_pointset's form) passes, while other scripts' digits and digit
    grouping, which float() alone also takes, raise ValueError."""
    if not field.isascii() or "_" in field:
        raise ValueError(field)
    return float(field)


def parse_pointset(text: str) -> PointSet:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty pointset file", line=1)
    head, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "pointset":
        raise ParseError(f"bad header {header!r}, want 'pointset <count> <tag>'", line=head)
    if not _digits(parts[1]):
        raise ParseError(f"bad point count {parts[1]!r}", line=head)
    count = int(parts[1])
    tag = parts[2]
    rows = lines[1:]
    if len(rows) != count:
        raise ParseError(f"header promises {count} points, file has {len(rows)}", line=head)
    pts = []
    for lineno, line in rows:
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"want 'x y', got {line!r}", line=lineno)
        try:
            pt = (_coordinate(fields[0]), _coordinate(fields[1]))
        except ValueError:
            raise ParseError(f"bad coordinate in {line!r}", line=lineno) from None
        if not (math.isfinite(pt[0]) and math.isfinite(pt[1])):
            raise ParseError(f"non-finite coordinate in {line!r}", line=lineno)
        pts.append(pt)
    if len(set(pts)) != len(pts):
        seen = set()
        dup = next(p for p in pts if p in seen or seen.add(p))
        raise InvariantViolation(f"duplicate point {dup}")
    n = wheel_tag(tag)
    if n is None and tag not in ("general", "convex"):
        raise ParseError(f"unknown config tag {tag!r}", line=head)
    if count == 0:
        raise InvariantViolation("a point set needs at least one point")
    if n is not None and n < 2:
        raise InvariantViolation(f"tag wheel{n}: a wheel needs n >= 2")
    if n is not None and count != 2 * n:
        raise InvariantViolation(f"tag wheel{n} needs {2 * n} points, file has {count}")
    ps = PointSet(tuple(pts), tag, None if n is None else wheel_labels(n))
    # collinear_triple reads the order kept on ps; a wheel tag is left to
    # cyclic_order, which checks it before anything relies on it
    triple = None if n is not None else collinear_triple(ps)
    if triple is not None:
        raise InvariantViolation(f"collinear triple {triple} under tag {tag!r}")
    if tag == "convex" and cyclic_order(ps) is None:
        if count < 3:
            raise InvariantViolation(f"tag 'convex' needs at least 3 points, file has {count}")
        hull = set(_strict_hull(ps.points))
        off = next(i for i in range(count) if i not in hull)
        raise InvariantViolation(f"point {off} is not a strict hull vertex under tag 'convex'")
    return ps


def emit_pointset(ps: PointSet) -> str:
    out = [f"pointset {len(ps)} {ps.config_tag}"]
    out += [f"{x!r} {y!r}" for x, y in ps.points]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# partition and edge-list formats

def _emitted_trees(text: str, npts: int) -> list[list[tuple[int, int]]] | None:
    """Each tree's (a, b) edges, as a list of tuples, if text is spelled
    exactly as emit_partition writes a partition on npts points, else None
    (never an error): a few C-level passes per tree block, no step per line.
    Every end is read from a table of the ints 0..npts-1 and every pair
    has a < b, so each list is a GeomTree's pairs as they are; a loop or a
    reversed pair leaves the file to the line reader."""
    header, *blocks = text.split("tree ")
    if header != f"partition {npts} {len(blocks)}\n":
        return None
    index = {str(i): i for i in range(npts)}  # no leading zero, none >= npts
    no_digits = str.maketrans("", "", "0123456789")
    trees = []
    for i, block in enumerate(blocks):
        body, nlines = block[len(str(i)) + 1:], block.count("\n") - 1
        if (not (block.startswith(f"{i}\n") and block.endswith("\n"))
                or body.translate(no_digits) != " \n" * nlines):
            return None
        try:
            ints = list(map(index.__getitem__, body.split()))
        except KeyError:
            return None
        a, b = ints[0::2], ints[1::2]
        if len(ints) != 2 * nlines or not all(map(operator.lt, a, b)):
            return None
        trees.append([*zip(a, b)])
    return trees


def parse_partition(text: str, ps: PointSet) -> Partition:
    if (trees := _emitted_trees(text, len(ps))) is not None:
        return Partition(ps=ps, trees=tuple(_proved_tree(ps, t) for t in trees))
    lines = _content_lines(text)  # any other spelling; every ParseError is raised here
    if not lines:
        raise ParseError("empty partition file", line=1)
    head, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "partition":
        raise ParseError(f"bad header {header!r}, want 'partition <points> <trees>'",
                         line=head)
    if not (_digits(parts[1]) and _digits(parts[2])):
        raise ParseError(f"bad counts in {header!r}", line=head)
    npts, ntrees = int(parts[1]), int(parts[2])
    if npts != len(ps):
        raise ParseError(f"partition is on {npts} points, point set has {len(ps)}",
                         line=head)
    trees = []
    k = 1
    while k < len(lines):
        lineno, line = lines[k]
        fields = line.split()
        if fields[0] != "tree":  # _edges stops only at a 'tree' line, so k == 1
            raise ParseError(f"edge line {line!r} before any 'tree' header", line=lineno)
        if len(fields) != 2 or not _digits(fields[1]):
            raise ParseError(f"bad tree header {line!r}", line=lineno)
        if int(fields[1]) != len(trees):
            raise ParseError(f"expected 'tree {len(trees)}', got {line!r}", line=lineno)
        edges, k = _edges(lines, k + 1, npts)
        trees.append(edges)
    if len(trees) != ntrees:
        raise ParseError(f"header promises {ntrees} trees, file has {len(trees)}", line=head)
    return Partition(ps=ps, trees=tuple(GeomTree(ps, t) for t in trees))


def emit_partition(p: Partition) -> str:
    # _emitted_trees reads exactly this spelling in bulk, each end through
    # the inverse str(i) table, and parse_partition hands its a < b pairs to
    # _proved_tree without a second scan; change all three together.
    # Each line is spelled from one str(i) table per partition (heads[a] is
    # "a "), which holds every end, as a GeomTree's are point indices
    npts = len(p.ps)
    names = [str(i) for i in range(npts)]
    heads = [s + " " for s in names]
    out = [f"partition {npts} {len(p.trees)}"]
    for i, t in enumerate(p.trees):
        out.append(f"tree {i}")
        out += [heads[a] + names[b] for a, b in t.edges]
    return "\n".join(out) + "\n"


def parse_edgelist(text: str, npts: int | None = None) -> tuple[tuple[int, int], ...]:
    """Normalized edges of an edge-list file; with npts, each line must
    name two distinct indices of an npts-point set."""
    lines = _content_lines(text)
    edges, k = _edges(lines, 0, npts)
    if k < len(lines):
        raise ParseError(f"bad edge {lines[k][1]!r}", line=lines[k][0])
    return tuple((a, b) if a < b else (b, a) for a, b in edges)


def _edges(lines: list[tuple[int, str]], k: int,
           npts: int | None) -> tuple[list[tuple[int, int]], int]:
    """The edges of the 'a b' lines from lines[k] on, up to the first
    'tree' line, and that line's index (len(lines) if there is none): the
    one reader of edge lines, for partition and edge-list files alike.
    Both indices must pass _digits and, with npts, be distinct and below
    npts. An edge keeps its line's order of a and b (GeomTree normalizes).
    """
    edges = []
    for i in range(k, len(lines)):
        lineno, line = lines[i]
        try:
            x, y = line.split()
        except ValueError:
            x = y = ""  # not two fields
        xy = x + y
        if not (xy.isascii() and xy.isdigit()):  # _digits(x + y), inlined per line
            if line.split()[0] == "tree":
                return edges, i
            raise ParseError(f"bad edge {line!r}" if y else f"want 'a b', got {line!r}",
                             line=lineno)
        a, b = int(x), int(y)
        if npts is not None and (a == b or a >= npts or b >= npts):
            raise ParseError(f"edge ({a}, {b}) invalid on {npts} points", line=lineno)
        edges.append((a, b))
    return edges, len(lines)


def emit_edgelist(edges) -> str:
    return "\n".join(f"{a} {b}" for a, b in sorted(edges)) + "\n"


# ---------------------------------------------------------------------------
# SVG rendering

PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#e377c2", "#17becf", "#bcbd22", "#7f7f7f", "#aec7e8", "#98df8a")
SVG_SIZE = 640
STROKE_WIDTH = 1.6
VERTEX_RADIUS = 4.0
FONT_SIZE = 12.0


def render_svg(p: Partition | GeomTree) -> str:
    """Deterministic SVG: one color per tree, filled vertices, labels."""
    trees = p.trees if isinstance(p, Partition) else (p,)
    ps = p.ps
    if not ps.points:
        raise InvalidParameter("nothing to render: the point set is empty")
    xs = [pt[0] for pt in ps.points]
    ys = [pt[1] for pt in ps.points]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    margin = 0.05 * span
    x0, y0 = min(xs) - margin, min(ys) - margin
    side = span + 2 * margin
    scale = SVG_SIZE / side

    def sx(x: float) -> str:
        return f"{(x - x0) * scale:.3f}"

    def sy(y: float) -> str:
        # flip y so the drawing matches the usual mathematical orientation
        return f"{SVG_SIZE - (y - y0) * scale:.3f}"

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}"'
           f' height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">']
    for i, t in enumerate(trees):
        color = PALETTE[i % len(PALETTE)]
        for a, b in sorted(t.edges):
            pa, pb = ps.points[a], ps.points[b]
            out.append(f'<line x1="{sx(pa[0])}" y1="{sy(pa[1])}" x2="{sx(pb[0])}"'
                       f' y2="{sy(pb[1])}" stroke="{color}"'
                       f' stroke-width="{STROKE_WIDTH}"/>')
    for i, (x, y) in enumerate(ps.points):
        out.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" r="{VERTEX_RADIUS}"'
                   f' fill="black"/>')
        out.append(f'<text x="{float(sx(x)) + 6:.3f}" y="{float(sy(y)) - 6:.3f}"'
                   f' font-size="{FONT_SIZE}">{ps.label(i)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# input resolution

def _read(value: str, flag: str) -> str:
    """Text of the file an option names; ParseError when it cannot be read."""
    try:
        return Path(value).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{flag} {value!r}: {getattr(exc, 'strerror', None) or exc}") from None


def _write_out(value: str, text: str, name: str | None = None) -> None:
    """text into the file --out names or, given name, into the file of
    that name in the directory --out names, made if need be;
    InvalidParameter when it cannot be written."""
    path = Path(value)
    try:
        if name is not None:
            path.mkdir(parents=True, exist_ok=True)
            path /= name
        path.write_text(text)
    except OSError as exc:
        raise InvalidParameter(f"--out {value!r}: {exc.strerror or exc}") from None


def load_pointset(value: str, flag: str = "--input", radius: float | None = None,
                  seed: int | None = None) -> PointSet:
    """The point set a name stands for: a pointset file, a packaged preset,
    wheel<n>, gon<m> (m points evenly on a circle) or random<m> (m points
    at uniform random angles on a circle, drawn once from seed; None draws
    afresh).
    radius is the circle's (None: 1); flag names the option in error
    messages. InvalidParameter when the name would ignore radius or seed:
    a file or preset takes neither, and only random<m> takes a seed."""
    is_file = Path(value).is_file()
    if is_file or value in presets.POINT_PRESETS:
        if radius is not None or seed is not None:
            raise InvalidParameter(f"{flag} {value} takes neither --radius nor --seed")
        return parse_pointset(_read(value, flag)) if is_file else presets.figure_pointset(value)
    if seed is not None and not value.startswith("random"):
        raise InvalidParameter(f"{flag} {value} takes no --seed: only random<m> does")
    radius = 1.0 if radius is None else radius
    if not 0 < radius < math.inf:
        raise InvalidParameter(f"--radius must be finite and positive, got {radius}")
    if (n := wheel_tag(value)) is not None:
        return make_wheel(n, radius=radius)
    if (m := _DRAWN_ARG.match(value)) is None:
        raise ParseError(f"{flag} {value!r} is neither a file, a preset,"
                         " nor wheel<n>, gon<m> or random<m>")
    kind, count = m.group(1), int(m.group(2))
    if count % 2 or count < 4:
        raise InvalidParameter(f"{kind}<m> needs even m >= 4, got {count}")
    if kind == "gon":
        angles = [0.3 + 2 * math.pi * i / count for i in range(count)]
    else:
        rng = random.Random(seed)
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(count))
    ps = PointSet(tuple((radius * math.cos(a), radius * math.sin(a)) for a in angles), "convex")
    if cyclic_order(ps) is None:
        raise InvalidParameter(f"{flag} {value} --radius {radius}:"
                               " the points are not in strictly convex position in floats")
    return ps


def _load_choices(value: str | None) -> ConstructionChoices | None:
    if value is None:
        return None
    if value in presets.CHOICES_PRESETS:
        return presets.CHOICES_PRESETS[value]
    text = value if value.lstrip().startswith("{") else _read(value, "--choices")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad choices JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError(f"choices JSON must be an object, got {type(raw).__name__}")
    allowed = {"star_side", "extend_side", "type4", "line"}
    unknown = set(raw) - allowed
    if unknown:
        raise ParseError(f"unknown choices keys {sorted(unknown)}")
    for key in ("extend_side", "line"):
        if raw.get(key) is not None:
            if not isinstance(raw[key], list):
                raise ParseError(f"choices key {key!r} must be a list, got {raw[key]!r}")
            raw[key] = tuple(raw[key])
    return ConstructionChoices(**raw)


def _write(args, text: str) -> None:
    """text into --out, else onto stdout, which --json keeps for its object."""
    if args.out is not None:
        _write_out(args.out, text)
    elif args.json:
        raise InvalidParameter(f"{args.command} --json needs --out:"
                               " stdout holds only the JSON object")
    else:
        sys.stdout.write(text)


def _report(args, payload: dict, human: str | None = None) -> None:
    """The one printer of a subcommand's result: the payload as one JSON
    object under --json, else the human text, if any."""
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    elif human is not None:
        print(human)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_generate(args) -> int:
    ps = load_pointset(args.config, "--config", args.radius, args.seed)
    _write(args, emit_pointset(ps))
    _report(args, {"count": len(ps), "config_tag": ps.config_tag, "points": list(ps.points)})
    return 0


def _cmd_halving(args) -> int:
    if args.labeling is not None and args.k is not None:
        raise InvalidParameter("--labeling takes no --k")
    ps = load_pointset(args.input)
    if args.labeling == "h":
        lab = h_labeling(ps)
        payload = {"pairs": list(lab.pairs), "relabeling": list(lab.relabeling)}
        human = "\n".join(f"{i} {j}" for i, j in lab.pairs)
    elif args.labeling == "w":
        lab = w_labeling(ps)
        payload = {"w": lab.w, "order": list(lab.order)}
        human = f"w {lab.w}\norder {' '.join(map(str, lab.order))}"
    else:
        k = args.k or 0
        lines = k_halving_lines(ps, k)
        payload = {"k": k, "lines": [[l.i, l.j] for l in lines]}
        human = "\n".join(f"{l.i} {l.j} {l.k}" for l in lines)
    payload["path"] = halving_profile(ps).path
    _report(args, payload, human)
    return 0


def _cmd_classify(args) -> int:
    ps = load_pointset(args.input)
    edges = parse_edgelist(_read(args.tree, "--tree"), len(ps))
    rep = classify(GeomTree(ps, edges))
    payload = {
        "is_path": rep.is_path,
        "is_star": rep.is_star,
        "double_star": rep.double_star,
        "s_k": rep.s_k,
        "caterpillar": rep.caterpillar,
        "p4_symmetric": None if rep.p4_symmetric is None else {
            "type": rep.p4_symmetric.type, "path": rep.p4_symmetric.path},
        "w_caterpillar": rep.w_caterpillar,
        "symmetric": None if rep.symmetric is None else {
            "edge": rep.symmetric.edge},
    }
    human = "\n".join(f"{k}: {v}" for k, v in payload.items())
    _report(args, payload, human)
    return 0


def _write_partition_dir(args, p: Partition, extra: dict, files: dict[str, str]) -> None:
    """files (name -> text), partition.txt and, under --svg, partition.svg
    into --out, each written as soon as its text is made."""
    for name, text in files.items():
        _write_out(args.out, text, name)
    _write_out(args.out, emit_partition(p), "partition.txt")
    if args.svg:
        _write_out(args.out, render_svg(p), "partition.svg")
    out = Path(args.out)
    _report(args, {"out": str(out), "trees": len(p.trees), **extra},
            f"wrote {len(p.trees)} trees to {out}")


def _cmd_wheel_partition(args) -> int:
    if args.tree.startswith("builtin:"):
        edges = presets.builtin_tree(args.tree.removeprefix("builtin:"), args.n)
    else:
        edges = parse_edgelist(_read(args.tree, "--tree"))
    p = build_wheel_partition(edges, args.n)
    # analyze_wheel_partition runs verify_partition and raises unless it passes
    analysis = analyze_wheel_partition(p)
    lines = ["verify: pass",
             f"one_boundary_tree: {analysis.one_boundary_tree}",
             f"radial_run: {' '.join(f'{a}-{b}' for a, b in analysis.radial_run)}"]
    for i, st in enumerate(analysis.per_tree):
        lines.append(f"tree {i}: boundary={st.boundary_count} radial={st.radial_count}"
                     f" four_path={st.four_path}")
    _write_partition_dir(args, p, {"verify": True,
                                   "one_boundary_tree": analysis.one_boundary_tree},
                         {"analysis.txt": "\n".join(lines) + "\n"})
    return 0


def _cmd_halving_partition(args) -> int:
    ps = load_pointset(args.input)
    if args.theorem == 2:
        if args.r is not None or args.choices is not None:
            raise InvalidParameter("--theorem 2 takes neither --r nor --choices")
        p = theorem2_partition(ps, args.t or 0)
    elif args.t is not None:
        raise InvalidParameter(f"--theorem {args.theorem} takes no --t")
    elif args.r is None:
        raise InvalidParameter(f"--theorem {args.theorem} requires --r")
    else:
        build = theorem3_partition if args.theorem == 3 else theorem4_partition
        p = build(ps, args.r, _load_choices(args.choices))
    report = verify_partition(p)
    _write_partition_dir(args, p, {"verify": report.ok, "theorem": args.theorem}, {})
    return 0 if report.ok else 1


def _cmd_verify(args) -> int:
    ps = load_pointset(args.input)
    p = parse_partition(_read(args.partition, "--partition"), ps)
    report = verify_partition(p)
    payload = {"ok": report.ok, "reason": report.reason, "witness": report.witness,
               "predicate": report.predicate}
    human = "pass" if report.ok else f"fail: {report.reason} ({report.witness})"
    _report(args, payload, human)
    return 0 if report.ok else 1


def _cmd_oracle(args) -> int:
    ps = load_pointset(args.input)
    found = brute_force_partitions(ps, limit=args.limit)
    _write_out(args.out, "\n".join(
        emit_partition(Partition(ps, tuple(GeomTree(ps, t) for t in trees)))
        for trees in found), "partitions.txt")
    out = Path(args.out)
    _report(args, {"count": len(found), "out": str(out)},
            f"{len(found)} partitions -> {out}/partitions.txt")
    return 0


def _cmd_render(args) -> int:
    ps = load_pointset(args.input)
    if args.partition:
        target: Partition | GeomTree = parse_partition(
            _read(args.partition, "--partition"), ps)
    elif args.tree:
        target = GeomTree(ps, parse_edgelist(_read(args.tree, "--tree"), len(ps)))
    else:
        raise InvalidParameter("render needs --partition or --tree")
    svg = render_svg(target)
    _write(args, svg)
    _report(args, {"bytes": len(svg.encode())})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    parser = argparse.ArgumentParser(
        prog="planetrees",
        description="Partitions of complete geometric graphs into plane spanning trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common],
                       help="emit a point set (wheel<n>, gon<m>, random<m>, or preset)")
    p.add_argument("--config", required=True,
                   help=" | ".join(("wheel<n>", "gon<m>", "random<m>", *presets.POINT_PRESETS)))
    p.add_argument("--radius", type=float,
                   help="circle radius for wheel<n>, gon<m> and random<m>; default 1")
    p.add_argument("--seed", type=int, help="RNG seed for random<m>")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("halving", parents=[common], help="k-halving lines / labelings")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, help="default 0; not with --labeling")
    p.add_argument("--labeling", choices=("h", "w"))
    p.set_defaults(fn=_cmd_halving)

    p = sub.add_parser("classify", parents=[common], help="classify a geometric tree")
    p.add_argument("--input", required=True)
    p.add_argument("--tree", required=True, help="edge-list file")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("wheel-partition", parents=[common],
                       help="build the wheel partition from a w-caterpillar")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tree", required=True,
                   help="edge-list file, builtin:fig2i, or builtin:doublestar")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(fn=_cmd_wheel_partition)

    p = sub.add_parser("halving-partition", parents=[common],
                       help="build a halving-line partition (theorems 2-4)")
    p.add_argument("--input", required=True)
    p.add_argument("--theorem", type=int, choices=(2, 3, 4), required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--t", type=int, choices=(0, 1), help="theorem 2 only; default 0")
    p.add_argument("--choices", help="preset name or JSON file")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(fn=_cmd_halving_partition)

    p = sub.add_parser("verify", parents=[common], help="verify a partition file")
    p.add_argument("--input", required=True)
    p.add_argument("--partition", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("oracle", parents=[common],
                       help="brute-force enumerate partitions (small n)")
    p.add_argument("--input", required=True)
    p.add_argument("--limit", type=int, default=10_000)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("render", parents=[common], help="render to SVG")
    p.add_argument("--input", required=True)
    p.add_argument("--partition")
    p.add_argument("--tree")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_render)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PlaneTreesError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, _CHECK_FAILURES) else 2


if __name__ == "__main__":
    sys.exit(main())
