"""Span tracing at ajcable's module boundaries, installed from outside the program.

Each module imports the names it uses from the others (``from .algebra
import poly_mul``), so a span has to sit on the name each caller looks up:
``install`` replaces every module-level reference to a traced function in
every loaded ``ajcable`` module with one wrapper, named after the module
that defines the function.  ``RationalTM.__init__`` is wrapped on the
class.  Private helpers (``_build_matrix``, ``_rref_mod``, ``_div2``) are
not traced.

Each span records its name, start, end, parent span, operation id and
thread id.  The span stack is per thread, because ``ajcable grid`` runs
its tuples on a thread pool; a pool thread's outermost span takes the
operation's root span as its parent.  Spans stay in memory until the run
ends.

The per-layer metric names and units are those of ``BENCHMARK.json``;
README.md says which end-to-end metric each should move, on which workload.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import defaultdict
from time import perf_counter

TRACED = {
    "cli": ("main",),
    "aj": ("build_annihilator", "build_ab", "evaluate_annihilator_at_minus1",
           "compare_aj", "determinant_check", "verify_tuple"),
    "qtorus": ("skew_multiply", "check_annihilation", "apply_operator"),
    "jones": ("cabled_jones", "torus_jones", "identity_suite"),
    "algebra": ("poly_mul", "poly_exact_div", "limit_t_minus1"),
    "degrees": ("audit_degrees",),
    "minimality": ("search_bounded_annihilator",),
}
RATIONAL = "algebra.RationalTM"
ROOT = "bench.op"
SPAN_NAMES = frozenset({RATIONAL} | {f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns})
_FIELDS = {"calls": 0, "s": 1, "self_s": 2}


class Tracer:
    """Collects spans and boundary counts for the operations of one run."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, self_s, outermost, op_id, thread_id)
        self.counts = defaultdict(int)
        self.op_id = None
        self.ops = 0
        self._root = None
        self._ids = iter(range(1, 1 << 62))
        self._local = threading.local()
        self._lock = threading.Lock()
        self._requested = set()
        self._restore = []

    # -- spans ------------------------------------------------------------

    def _thread_state(self):
        state = self._local.__dict__
        if "stack" not in state:
            state["stack"] = []
            state["active"] = defaultdict(int)
        return state["stack"], state["active"]

    def _open(self, name):
        stack, active = self._thread_state()
        parent = stack[-1][0] if stack else self._root
        # [id, time covered by children, parent, outermost of its name, start]
        frame = [next(self._ids), 0.0, parent, active[name] == 0, 0.0]
        active[name] += 1
        stack.append(frame)
        frame[4] = perf_counter()
        return frame

    def _close(self, name, frame):
        end = perf_counter()
        stack, active = self._thread_state()
        stack.pop()
        active[name] -= 1
        duration = end - frame[4]
        if stack:
            stack[-1][1] += duration
        self.spans.append((frame[0], frame[2], name, frame[4], end, duration - frame[1],
                           frame[3], self.op_id, threading.get_ident()))

    def wrap(self, name, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, frame)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def run_op(self, op_id, fn):
        """Run one operation under a root span; returns ``fn()``."""
        self.op_id = op_id
        self.ops += 1
        self._requested = set()
        frame = self._open(ROOT)
        self._root = frame[0]
        try:
            return fn()
        finally:
            self._close(ROOT, frame)
            self._root = None
            self.op_id = None

    # -- boundary counts --------------------------------------------------

    def _add(self, **deltas):
        with self._lock:
            for key, value in deltas.items():
                self.counts[key] += value

    def _on_rational(self, args, kwargs, _result):
        obj, den = args[0], (args[2] if len(args) > 2 else kwargs.get("den"))
        if den is not None and len(den.d) > 1:
            self._add(rational_nonunit=1, rational_cancelled=int(obj.is_poly()))

    def _on_build(self, _args, _kwargs, bundle):
        terms = sum(len(c.num.d) + len(c.den.d) for c in bundle.P.coeffs.values())
        self._add(p_terms=terms)

    def _on_check(self, args, _kwargs, report):
        n_lo, n_hi = args[2], args[3]
        last = n_hi if report["pass"] else report["first_failure_n"]
        self._add(colours=last - n_lo + 1)

    def _on_cabled(self, args, _kwargs, value):
        key = (args[0], args[1])
        with self._lock:
            if key in self._requested:
                self.counts["cabled_repeats"] += 1
            else:
                self._requested.add(key)
                self.counts["value_terms"] += len(value.d)

    def _search_observer(self, first_prime):
        def observe(_args, _kwargs, report):
            self._add(searches=1, unknowns=report["unknowns"], rows=report.get("rows", 0),
                      equations=report["equations"],
                      first_prime=int(report.get("prime") == first_prime))
        return observe

    # -- installation -----------------------------------------------------

    def install(self, modules):
        """Wrap the traced functions in every module of ``modules``
        (name -> module object, the ``ajcable`` package and its submodules)."""
        observers = {
            "aj.build_annihilator": self._on_build,
            "qtorus.check_annihilation": self._on_check,
            "jones.cabled_jones": self._on_cabled,
            "minimality.search_bounded_annihilator":
                self._search_observer(modules["ajcable.minimality"].PRIMES[0]),
        }
        for layer, names in TRACED.items():
            home = modules[f"ajcable.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                name = f"{layer}.{fname}"
                wrapper = self.wrap(name, orig, observers.get(name))
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, orig))
        cls = modules["ajcable.algebra"].RationalTM
        self._restore.append((cls, "__init__", cls.__init__))
        cls.__init__ = self.wrap(RATIONAL, cls.__init__, self._on_rational)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def totals(self):
        """{span name: [calls, inclusive seconds (outermost spans), self seconds]}."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for _sid, _parent, name, start, end, self_s, outermost, _op, _tid in self.spans:
            row = out[name]
            row[0] += 1
            row[2] += self_s
            if outermost:
                row[1] += end - start
        return out

    def metrics(self, names, grid_wall_s):
        """{name: value} of the per-layer metrics ``names``; ``grid_wall_s``
        is the summed wall time of the traced ``grid`` operations (0 when
        the workload has none).  Every value is per traced operation, except
        ratios and the per-search minimality figures."""
        tot = self.totals()
        c = self.counts
        ops = max(self.ops, 1)

        def ratio(num, den):
            return num / den if den else 0.0

        derived = {
            "algebra.RationalTM.cancel_ratio": ratio(c["rational_cancelled"], c["rational_nonunit"]),
            "aj.P_terms": c["p_terms"] / ops,
            "qtorus.colours_checked": c["colours"] / ops,
            "jones.cabled_jones.repeat_ratio": ratio(c["cabled_repeats"], tot["jones.cabled_jones"][0]),
            "jones.value_terms": c["value_terms"] / ops,
            "cli.grid.busy_ratio": ratio(tot["aj.verify_tuple"][1], grid_wall_s),
            "minimality.unknowns": ratio(c["unknowns"], c["searches"]),
            "minimality.rows": ratio(c["rows"], c["searches"]),
            "minimality.equations": ratio(c["equations"], c["searches"]),
            "minimality.first_prime_ratio": ratio(c["first_prime"], c["searches"]),
        }
        values = {}
        for metric in names:
            head, _, field = metric.rpartition(".")
            if metric in derived:
                values[metric] = derived[metric]
            elif head in SPAN_NAMES and field in _FIELDS:
                values[metric] = tot[head][_FIELDS[field]] / ops
            else:
                raise KeyError(f"no per-layer metric {metric!r}")
        return values

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, self_s, outermost, op_id, tid in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start,
                                     "end": end, "self_s": self_s, "outermost": outermost,
                                     "op": op_id, "thread": tid}) + "\n")

