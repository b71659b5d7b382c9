"""Package-wide checks: every docstring example runs, every export resolves."""

import doctest

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
