"""The ajcable benchmark: one client, closed loop, in-process CLI calls.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 25 --trace 0

Each operation calls ``ajcable.cli.main(argv)`` with stdout and stderr
captured (the unknot controls of the minimality workload call
``search_bounded_annihilator`` instead, since the CLI takes only cables).
``clear_caches()`` runs before every operation, so each one starts as cold
as a fresh CLI process.  Each operation's exit code and ``results`` (the
JSON without ``meta``) are checked against recorded digests outside the
timed region.

``setup_s`` is the median of a few set-ups, each timed inside a fresh
interpreter (``setup_probe.py``), so it includes the import of ``ajcable``
and numpy that a CLI process pays.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
operation twice, untraced and with boundary spans, prints the per-layer
metrics and the tracing overhead (traced minus untraced time of the same
operations), and writes the spans to ``perfbench/_work``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
DIGESTS = HERE / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_PROBES = 7
PROGRAM_MODULES = ("ajcable", "ajcable.algebra", "ajcable.qtorus", "ajcable.jones", "ajcable.aj",
                   "ajcable.degrees", "ajcable.minimality", "ajcable.cli")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program, wrong environment)."""


def import_program():
    """Import ajcable from this checkout's ``src``, dropping any copy already
    loaded, and return {module name: module}."""
    if not (SRC / "ajcable" / "__init__.py").is_file():
        raise SetupError(f"no ajcable package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "ajcable" or m.startswith("ajcable.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(name) for name in PROGRAM_MODULES}
    origin = Path(modules["ajcable"].__file__).resolve()
    if SRC not in origin.parents:
        raise SetupError(f"ajcable was imported from {origin}, not from {SRC}")
    return modules


def setup(workload, seed):
    """Import the program, generate the rounds and write the grid files."""
    modules = import_program()
    rounds = workloads.generate(workload, seed, grid_dir=str(WORK))
    WORK.mkdir(exist_ok=True)
    for op in (op for ops in rounds for op in ops):
        if op.grid_text is not None:
            Path(op.argv[1]).write_text(op.grid_text)
    return modules, rounds


def probe_setup_s(workload, seed):
    """Median seconds of ``SETUP_PROBES`` set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def execute(modules, op):
    """Run one operation cold; returns (seconds, exit code, results list)."""
    modules["ajcable"].clear_caches()
    if op.argv is None:
        minimality = modules["ajcable.minimality"]
        bounds = minimality.default_search_bounds(None, l_degree=op.tuples[0][1])
        start = time.perf_counter()
        report = minimality.search_bounded_annihilator(None, bounds)
        seconds = time.perf_counter() - start
        return seconds, 0, [json.loads(json.dumps(report))]
    out, err = io.StringIO(), io.StringIO()
    cli = modules["ajcable.cli"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        seconds = time.perf_counter() - start
    text = out.getvalue()
    results = json.loads(text)["results"] if text.strip() else None
    return seconds, rc, results


class Pass:
    """Outcome of the operations run in one mode (untraced or traced)."""

    def __init__(self):
        self.times = []  # (op index, seconds) of every operation that returned
        self.tuples_ok = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.grid_wall_s = 0.0

    def run(self, modules, op, index, digests, tracer=None):
        """Run one operation, time it and gate its output."""
        self.attempted += 1
        try:
            if tracer is None:
                op_s, rc, records = execute(modules, op)
            else:
                op_s, rc, records = tracer.run_op(index, lambda: execute(modules, op))
            self.times.append((index, op_s))
            if op.workload == "grid":
                self.grid_wall_s += op_s
            problems = workloads.check(op, rc, records, digests[op.workload])
        except Exception as exc:  # a crashing operation is a failed one
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.append((index, problems))
        else:
            self.tuples_ok += len(op.tuples)


def run_pass(modules, rounds, seconds, digests, tracer=None):
    """Run whole rounds, cycling through ``rounds``, until ``seconds`` have
    passed; returns the (untraced, traced) passes.

    A run stops only at a round boundary, so every run has the same mix of
    cells; it measures at least one round and may run one round longer than
    ``seconds``.  With a ``tracer``, each operation also runs with the tracer
    installed, alternately after and before its untraced run, so the two
    modes see the same host conditions.
    """
    plain, traced = Pass(), Pass()
    modes = (False, True) if tracer is not None else (False,)
    start = time.perf_counter()
    index = 0
    for count in itertools.count():
        if count and time.perf_counter() - start >= seconds:
            break
        for op in rounds[count % len(rounds)]:
            for with_tracer in (modes if index % 2 == 0 else modes[::-1]):
                if not with_tracer:
                    plain.run(modules, op, index, digests)
                    continue
                tracer.install(modules)
                try:
                    traced.run(modules, op, index, digests, tracer)
                finally:
                    tracer.uninstall()
            index += 1
    return plain, traced


def tail(values, per_round, top=1):
    """(value, percentile): the median of the ``top * (len(values) // per_round)``
    slowest ``values``, the nearest-rank percentile 100 (1 - top / (2 per_round)).

    A run is whole rounds of ``per_round`` operations, one per cell, so this
    is the typical cost of the ``top`` slowest cells whatever the number of
    rounds.
    A percentile fixed by a sample count instead (say, ten samples beyond
    it) moves between cells as a change makes the run hold more rounds.
    """
    ordered = sorted(values)
    slowest = ordered[-top * max(1, len(ordered) // per_round):]
    return statistics.median(slowest), 100.0 * (1 - top / (2 * per_round))


def end_to_end(result, setup_s, per_round, top=1):
    """({metric: value}, note) of one untraced pass."""
    times = [s for _, s in result.times]
    if not times:
        raise SetupError("no operation returned; nothing to measure")
    tail_s, tail_pct = tail(times, per_round, top)
    beyond = sum(t > tail_s for t in times)
    return {
        "tuples_per_s": result.tuples_ok / sum(times),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, f"op_s.tail is p{tail_pct:.1f} of N={len(times)} operations ({beyond} beyond it)"


def declared(kind):
    """{name: unit} of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())[kind]}


def environment():
    def version(name):
        try:
            return importlib.import_module(name).__version__
        except ImportError:
            return "absent"

    return (f"nproc={os.cpu_count()} python={platform.python_version()} numpy={version('numpy')} "
            f"gmpy2={version('gmpy2')} python-flint={version('flint')}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if "AJCABLE_THREADS" in os.environ:
        raise SetupError("AJCABLE_THREADS is set; the benchmark runs the program with its defaults")
    digests = json.loads(DIGESTS.read_text())
    modules, rounds = setup(args.workload, args.seed)
    print(f"# {environment()}")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} rounds_generated={len(rounds)}")

    if args.trace == 0:
        setup_s = probe_setup_s(args.workload, args.seed)
        gc.collect()
        result, _ = run_pass(modules, rounds, args.seconds, digests)
        passes = [result]
        values, note = end_to_end(result, setup_s, len(rounds[0]), workloads.TAIL_OPS[args.workload])
        metrics = {name: (values[name], unit) for name, unit in declared("end_to_end").items()}
        lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
        lines.append(f"{note}; setup_s is the median of {SETUP_PROBES} set-ups in fresh interpreters")
    else:
        tracer = spans.Tracer()
        plain, traced = run_pass(modules, rounds, args.seconds, digests, tracer)
        passes = [plain, traced]
        untraced_by_op = dict(plain.times)
        pairs = [(untraced_by_op[i], s) for i, s in traced.times if i in untraced_by_op]
        if not pairs:
            raise SetupError("no operation returned in both modes; nothing to measure")
        layer_units = declared("per_layer")
        values = tracer.metrics(layer_units, traced.grid_wall_s)
        metrics = {name: (values[name], unit) for name, unit in layer_units.items()}
        lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
        untraced_s = sum(a for a, _ in pairs)
        traced_s = sum(b for _, b in pairs)
        lines.append(f"tracing overhead: {len(pairs)} operations took {untraced_s:.4f} s untraced and "
                     f"{traced_s:.4f} s traced ({100 * (traced_s / untraced_s - 1):+.1f}%); "
                     f"op_s.p50 {statistics.median(a for a, _ in pairs):.4f} -> "
                     f"{statistics.median(b for _, b in pairs):.4f} s")
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        lines.append(f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for line in lines:
        print(line)
    print(f"fail_frac = {failed / attempted if attempted else 1.0:.6g} ({failed}/{attempted} operations)")
    for p in passes:
        for index, problems in p.problems[:5]:
            print(f"FAILED op {index}: {'; '.join(problems)}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (SetupError, OSError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
