"""Record the expected-output table and per-cell costs for the benchmark.

    python3 perfbench/record_digests.py [workload ...]

Runs every tuple each generator can draw, one operation per tuple, through
the same in-process path as ``run.py``, and writes the sha256 of each
``results`` record to ``perfbench/digests.json`` (merged with the table
already there).  Prints each cell's cost as min / median / max seconds.
Only run it on a commit whose outputs are known to be right: the table is
what every later run is checked against.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

import run
import workloads


def single_ops(workload):
    """One operation per drawable tuple (and per control)."""
    for p, q, r, s in workloads.drawable_tuples(workload):
        if workload == "grid":
            yield workloads.grid_op([(p, q, r, s)], str(run.WORK / f"digest-{p}_{q}_{r}_{s}.txt"))
        else:
            yield workloads.single_op(workload, (p, q, r, s))
    if workload == "minimality":
        for order in workloads.CONTROL_ORDERS:
            yield workloads.single_op(workload, ("unknot", order))


def main(names):
    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    modules = run.import_program()
    run.WORK.mkdir(exist_ok=True)
    for workload in names:
        digests = {}
        costs = defaultdict(list)
        for op in single_ops(workload):
            if op.grid_text is not None:
                with open(op.argv[1], "w") as fh:
                    fh.write(op.grid_text)
            seconds, rc, results = run.execute(modules, op)
            item = op.tuples[0]
            if rc != 0 or not results:
                sys.exit(f"{workload} {item}: exit code {rc}; not recording a failing output")
            digests[workloads.label(item)] = workloads.digest(results[0])
            problems = workloads.check(op, rc, results, digests)
            if problems:
                sys.exit(f"{workload} {item}: {problems}")
            cell = "unknot" if item[0] == "unknot" else f"({item[0]},{item[1]},s={item[3]})"
            costs[cell].append(seconds)
        table[workload] = dict(sorted(digests.items()))
        for cell, secs in costs.items():
            print(f"{workload:<10} {cell:<16} n={len(secs):<3} "
                  f"{min(secs):.3f} / {statistics.median(secs):.3f} / {max(secs):.3f} s")
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:] or list(workloads.WORKLOADS))
