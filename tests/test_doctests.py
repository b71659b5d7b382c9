"""Package-wide checks: every docstring example runs, every export and every
name the benchmark reads resolves."""

import doctest
import importlib
import importlib.util
from pathlib import Path

import pytest

import ajcable
import ajcable.aj
import ajcable.algebra
import ajcable.degrees
import ajcable.jones
import ajcable.minimality
import ajcable.qtorus

MODULES = (
    ajcable.algebra,
    ajcable.qtorus,
    ajcable.jones,
    ajcable.aj,
    ajcable.degrees,
    ajcable.minimality,
)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{module.__name__}: {result.failed} doctest failures"
    assert result.attempted > 0, f"{module.__name__}: no doctests collected"


def test_every_export_resolves_once():
    names = ajcable.__all__
    assert len(names) == len(set(names)), sorted({n for n in names if names.count(n) > 1})
    missing = [n for n in names if not hasattr(ajcable, n)]
    assert not missing, missing


def _benchmark_spans():
    """``perfbench/spans.py``, which imports nothing of the program."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_reads_resolves():
    """The benchmark wraps each name in ``TRACED`` wherever a module holds the
    same function object, wraps ``RationalTM.__init__``, and calls or reads
    the rest: a deleted or rebound name would fail only its own run."""
    missing = [f"{layer}.{name}" for layer, names in _benchmark_spans().TRACED.items() for name in names
               if not callable(getattr(importlib.import_module(f"ajcable.{layer}"), name, None))]
    assert not missing, missing
    assert callable(ajcable.algebra.RationalTM.__init__)
    assert callable(ajcable.clear_caches)
    assert ajcable.minimality.PRIMES
    assert callable(ajcable.minimality.default_search_bounds)
    assert callable(ajcable.minimality.search_bounded_annihilator)
    assert callable(ajcable.minimality.SearchBounds.box_size)
    assert ajcable.aj.check_annihilation is ajcable.qtorus.check_annihilation
