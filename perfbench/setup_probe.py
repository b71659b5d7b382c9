"""Time one benchmark set-up in this fresh interpreter and print its seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

``run.py`` starts it a few times per run and reports the median as
``setup_s``.  The clock covers what a fresh CLI process pays before its
first operation: the import of ``ajcable`` from ``src/`` (numpy included),
plus the benchmark's input generation and grid-file writing.  The
benchmark's own modules are imported before the clock starts.
"""

import sys
import time

import run

start = time.perf_counter()
run.setup(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - start))
