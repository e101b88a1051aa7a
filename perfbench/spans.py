"""In-memory span tracing of planetrees' public functions, from outside.

Tracer.install replaces each listed function, in every planetrees module
namespace that holds it, with a wrapper that records one span (name,
start, end, parent span) per call. Callers inside the library look their
callees up in those namespaces at call time, so calls between modules
(halving -> orientation) and within one (classify -> p4_witness_paths)
are both seen. Spans live in flat arrays until the run ends; counters
that need the call's arguments or result come from per-function hooks.
"""
from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# layer (module) -> public functions wrapped at their import sites
LAYERS = {
    "geom_core": ("orientation", "segments_cross", "wheel_crossing",
                  "collinear_triple", "make_wheel"),
    "halving": ("balance", "k_halving_lines", "h_labeling", "w_labeling",
                "check_theorem3_hypothesis", "check_theorem4_hypothesis"),
    "halving_partition": ("theorem2_partition", "theorem3_partition",
                          "theorem4_partition"),
    "tree_taxonomy": ("classify", "p4_witness_paths", "rooted_canon",
                      "tree_canon", "is_plane", "boundary_edges"),
    "wheel_partition": ("build_wheel_partition", "analyze_wheel_partition"),
    "verify_oracle": ("verify_partition",),
    "cli_io": ("parse_pointset", "parse_partition", "emit_partition"),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.instance = 0
        self.io_bytes = 0
        self.balance_keys: set = set()
        self.p4_keys: set = set()
        self.verify_ok: dict[int, bool] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, qualname: str, fn, hook):
        nid = len(self.names)
        self.names.append(qualname)
        name, parent, start, end, stack = (self.name, self.parent, self.start,
                                           self.end, self._stack)

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(idx, args, result)
            return result

        return traced

    def _hooks(self) -> dict:
        def balance(idx, args, result):
            ps, i, j = args
            self.balance_keys.add((self.instance, id(ps), min(i, j), max(i, j)))

        def p4(idx, args, result):
            t = args[0]
            edges = getattr(t, "edges", t)
            self.p4_keys.add(tuple(sorted((min(a, b), max(a, b)) for a, b in edges)))

        def parsed(idx, args, result):
            self.io_bytes += len(args[0])

        def emitted(idx, args, result):
            self.io_bytes += len(result)

        def verified(idx, args, result):
            self.verify_ok[idx] = bool(result.ok)

        return {
            "halving.balance": balance,
            "tree_taxonomy.p4_witness_paths": p4,
            "cli_io.parse_pointset": parsed,
            "cli_io.parse_partition": parsed,
            "cli_io.emit_partition": emitted,
            "verify_oracle.verify_partition": verified,
        }

    def install(self) -> None:
        """Wrap every LAYERS function wherever a planetrees module binds it."""
        hooks = self._hooks()
        modules = [m for k, m in sys.modules.items()
                   if k == "planetrees" or k.startswith("planetrees.")]
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"planetrees.{layer}"]
            for fname in funcs:
                qualname = f"{layer}.{fname}"
                original = getattr(home, fname)
                wrapper = self._wrap(qualname, original, hooks.get(qualname))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far."""
        ids = {q: i for i, q in enumerate(self.names)}
        nnames = len(self.names)
        calls = Counter(self.name)
        total = [0.0] * nnames
        self_time = [0.0] * nnames
        name, parent, start, end = self.name, self.parent, self.start, self.end
        verify = ids["verify_oracle.verify_partition"]
        crossing = {ids["geom_core.wheel_crossing"], ids["geom_core.segments_cross"]}
        crossing_tests = 0
        for i in range(len(name)):
            d = end[i] - start[i]
            nid = name[i]
            total[nid] += d
            self_time[nid] += d
            p = parent[i]
            if p >= 0:
                self_time[name[p]] -= d
                if nid in crossing and name[p] == verify:
                    crossing_tests += 1
        ok_s = sum(end[i] - start[i] for i, ok in self.verify_ok.items() if ok)
        fail_s = sum(end[i] - start[i] for i, ok in self.verify_ok.items() if not ok)

        def c(q):
            return calls[ids[q]]

        def s(q):
            return self_time[ids[q]]

        def t(q):
            return total[ids[q]]

        def layer_self(layer):
            return sum(s(f"{layer}.{f}") for f in LAYERS[layer])

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "geom_core.orientation.calls": c("geom_core.orientation"),
            "geom_core.orientation.self_s": s("geom_core.orientation"),
            "geom_core.segments_cross.calls": c("geom_core.segments_cross"),
            "geom_core.wheel_crossing.calls": c("geom_core.wheel_crossing"),
            "geom_core.wheel_crossing.self_s": s("geom_core.wheel_crossing"),
            "geom_core.collinear_triple.s": t("geom_core.collinear_triple"),
            "cli_io.parse_pointset.s": t("cli_io.parse_pointset"),
            "cli_io.parse_partition.s": t("cli_io.parse_partition"),
            "cli_io.bytes": self.io_bytes,
            "halving.balance.calls": c("halving.balance"),
            "halving.balance.repeat_ratio": ratio(c("halving.balance"),
                                                  len(self.balance_keys)),
            "halving.self_s": layer_self("halving"),
            "halving_partition.self_s": layer_self("halving_partition"),
            "tree_taxonomy.p4_witness_paths.calls": c("tree_taxonomy.p4_witness_paths"),
            "tree_taxonomy.p4_witness_paths.repeat_ratio": ratio(
                c("tree_taxonomy.p4_witness_paths"), len(self.p4_keys)),
            "tree_taxonomy.p4_witness_paths.self_s": s("tree_taxonomy.p4_witness_paths"),
            "tree_taxonomy.rooted_canon.calls": c("tree_taxonomy.rooted_canon"),
            "tree_taxonomy.self_s": layer_self("tree_taxonomy"),
            "wheel_partition.build_wheel_partition.self_s":
                s("wheel_partition.build_wheel_partition"),
            "wheel_partition.analyze_wheel_partition.self_s":
                s("wheel_partition.analyze_wheel_partition"),
            "verify_oracle.verify_partition.ok_s": ok_s,
            "verify_oracle.verify_partition.fail_s": fail_s,
            "verify_oracle.crossing_tests": crossing_tests,
            "cli_io.emit_partition.s": t("cli_io.emit_partition"),
        }
        for layer in LAYERS:
            out[f"{layer}.share"] = layer_self(layer) / traced_wall
        out["trace.overhead_frac"] = traced_wall / untraced_wall - 1
        return out

    def dump(self, path: Path) -> None:
        """Write every span: a JSON header line, then the four raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self.name),
                  "arrays": [["name", "i"], ["parent", "q"], ["start", "d"], ["end", "d"]],
                  "byteorder": sys.byteorder}
        with gzip.open(path, "wb", compresslevel=1) as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                f.write(arr.tobytes())
