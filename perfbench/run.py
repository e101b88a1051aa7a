"""planetrees benchmark: one closed-loop caller, in-process, single-threaded.

One workload per process:

    python3 perfbench/run.py --workload wheel --seed 1 --seconds 50 --trace 0

runs from the root of a source checkout and imports planetrees from its
src/ directory. With --trace 0 it sets the workload up three times
(setup_s is the median), then repeats rounds of one pass over the
workload's fixed instance list plus its single large instance until
--seconds have passed. With --trace 1 it runs one round with spans
recorded around every public planetrees function (see spans.py), between
two untraced rounds, and reports per-layer metrics.

Times are taken against a yardstick. The shared host runs the same
Python code at anything from full speed to well under half speed,
changing within a second and sometimes staying slow for minutes, and
the slowdown shows as CPU time, not as steal or scheduler wait. So every
timed instance and set-up is bracketed by timings of reference(), a
fixed pure-Python loop that shares no code with planetrees. A time is
divided by the mean of its two brackets, which gives it in reference
loops, and is reported in seconds as that count times REF_S. The
human-readable lines also print plain wall-clock figures.

Every instance's output is checked by an oracle that shares no code with
planetrees (oracle.py), outside the timed region. An instance fails when
it raises or its output fails that check; `failed` counts them and
ok_frac is the share that passed. `correct` is true only when every
failure is a KnownDefect: a wrong output that the library is known to
give (the permuted-wheel files), kept so that the defect shows.

The last line of standard output is one JSON object: correct, attempted,
failed, and metrics as {name: {value, unit}}.

All workloads, each in a fresh interpreter, with environment and commit:

    python3 perfbench/run.py --all --seed 1 --seconds 50 --out perfbench/baseline.json
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from oracle import KnownDefect  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("wheel", "halving-check")
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# about reference()'s median time over seven minutes on the host the
# baseline was measured on (Intel Xeon, 2 vCPUs, Python 3.11.7); it fixes
# the scale of every reported time, not their ratios
REF_S = 0.0011


def reference() -> int:
    """Fixed interpreter work, independent of planetrees: the yardstick."""
    acc = 0
    seen = {}
    for i in range(2000):
        x, y = (i * 7919) % 1009, (i * 104729) % 1013
        acc += (x - y) * (y + 1) - x * y
        seen[(x, y)] = acc
    return acc


def reference_s(repeats: int = 1) -> float:
    """Median wall time of reference(), i.e. the host's current speed."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_library():
    """Import planetrees from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import planetrees
    except ImportError as exc:
        sys.exit(f"cannot import planetrees from {src}: {exc}")
    if Path(planetrees.__file__).resolve().parent.parent != src:
        sys.exit(f"planetrees was imported from {planetrees.__file__}, not {src}")
    import workloads
    return workloads


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []  # wrong outputs, known defects included
        self.unexpected = 0          # errors that are not a KnownDefect

    def run(self, inst, tracer=None) -> tuple[float, float]:
        """Time one instance, then check its output outside the timing.

        Returns the wall time and the mean reference_s() around it.
        """
        args = inst.prepare()
        before = reference_s()
        start = time.perf_counter()
        try:
            out = inst.execute(*args)
            err = None
        except Exception as exc:  # an instance that raises counts as failed
            err = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        ref = (before + reference_s()) / 2
        if tracer is not None:
            tracer.instance += 1
        if err is None:
            err = inst.check(out)
        self.attempted += 1
        if err is not None:
            known = isinstance(err, KnownDefect)
            self.unexpected += not known
            self.errors.append(f"{'known defect, ' if known else ''}{inst.group} n={inst.n}: {err}")
        return elapsed, ref


def timed_run(wl, seconds: float, setup_s: float, tally: Tally) -> tuple[dict, list[str]]:
    """Rounds of one pass plus the large instance, until time is up.

    An instance's time is the median over rounds of its wall time over its
    reference brackets, times REF_S: of the statistics compared in
    README.md, the only one that stayed steady for the large instance too.
    """
    batch = wl.regular + [wl.large]
    ratios: list[list[float]] = [[] for _ in batch]
    walls: list[list[float]] = [[] for _ in batch]
    refs: list[float] = []
    deadline = time.perf_counter() + seconds
    while not ratios[0] or time.perf_counter() < deadline:
        gc.collect()
        for inst, ratio, wall in zip(batch, ratios, walls):
            elapsed, ref = tally.run(inst)
            ratio.append(elapsed / ref)
            wall.append(elapsed)
            refs.append(ref)
    times = [REF_S * statistics.median(r) for r in ratios]
    best = sorted(times[:-1])
    count = len(best)
    metrics = {
        "setup_s": setup_s,
        "instances_per_s": count / sum(best),
        "instance_p50_s": statistics.median(best),
        "instance_tail_s": best[count - 1 - TAIL_BEYOND],
        "large_s": times[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - len(tally.errors) / tally.attempted,
    }
    wall_times = sorted(statistics.median(w) for w in walls[:-1])
    notes = [
        f"{len(walls[0])} rounds of {count} instances plus the large one (n={wl.large.n});"
        f" each time is its median over rounds in reference loops, times REF_S = {REF_S}s",
        f"instance_tail_s is p{100 * (count - TAIL_BEYOND) / count:.1f}:"
        f" {TAIL_BEYOND} of {count} instances beyond it",
        f"wall clock, median over rounds: instances_per_s {count / sum(wall_times):.4g},"
        f" instance_p50_s {statistics.median(wall_times):.4g}, large_s {statistics.median(walls[-1]):.4g};"
        f" reference() took {1e3 * statistics.median(refs):.3f} ms (median)",
    ]
    return metrics, notes


def traced_run(wl, tally: Tally, dump_path: Path) -> tuple[dict, list[str]]:
    """One traced round between two untraced ones; spans come from the traced one."""
    from spans import Tracer

    batch = wl.regular + [wl.large]

    def round_times(tracer=None) -> list[float]:
        gc.collect()
        return [tally.run(inst, tracer)[0] for inst in batch]

    before = round_times()
    tracer = Tracer()
    tracer.install()
    try:
        traced = sum(round_times(tracer))
    finally:
        tracer.uninstall()
    untraced = sum(map(min, before, round_times()))
    metrics = tracer.metrics(traced, untraced)
    tracer.dump(dump_path)
    notes = [f"one round of {len(wl.regular)} instances plus the large one: traced {traced:.3f}s,"
             f" untraced {untraced:.3f}s (per instance, the faster of the rounds before and"
             f" after); {len(tracer.name)} spans written to {dump_path.relative_to(ROOT)}"]
    return metrics, notes


def run_one(args) -> int:
    workloads = import_library()
    import_s = time.perf_counter() - T_START
    setups = []  # in reference loops, like every reported time
    before = reference_s(5)
    import_refs = import_s / before
    for _ in range(1 if args.trace else SETUP_REPEATS):
        start = time.perf_counter()
        wl = workloads.build(args.workload, args.seed)
        elapsed = time.perf_counter() - start
        after = reference_s(5)
        setups.append(elapsed / ((before + after) / 2))
        before = after
    tally = Tally()
    if args.trace:
        dump = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.spans.gz"
        metrics, notes = traced_run(wl, tally, dump)
    else:
        metrics, notes = timed_run(wl, args.seconds,
                                   REF_S * (import_refs + statistics.median(setups)), tally)
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        sys.exit(f"measured metrics differ from BENCHMARK.json: {set(units) ^ set(metrics)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace};"
          f" python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}")
    for line in notes:
        print(line)
    for err, count in Counter(tally.errors).items():
        print(f"FAILED x{count}: {err}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_all(args) -> int:
    """Every workload, untraced and traced, each in a fresh interpreter."""
    results = {}
    for name in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(out.stdout)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                return out.returncode
            results.setdefault(name, {})["traced" if trace else "untraced"] = json.loads(
                out.stdout.strip().splitlines()[-1])
    record = {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": results,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --all: write the results here as JSON")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
