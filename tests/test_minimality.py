"""Bounded searches below the constructed order, plus unknot controls."""

import pytest

from ajcable.algebra import IntLaurent2
from ajcable.jones import CablingParams, unknot_sequence
from ajcable.minimality import (
    PRIMES,
    SearchBounds,
    SystemTooSmall,
    default_search_bounds,
    search_bounded_annihilator,
)
from ajcable.qtorus import SkewOperator, check_annihilation


def test_default_bounds():
    b = default_search_bounds(CablingParams(3, 2, 13, 2))
    assert b == SearchBounds(l_degree=2, t_span=10, m_span=2, n_lo=1, n_hi=12, seed=7)
    b = default_search_bounds(CablingParams(5, 3, 76, 5))
    assert b.l_degree == 4  # one below the constructed order 5
    b = default_search_bounds(None)
    assert (b.l_degree, b.t_span, b.m_span, b.n_hi) == (2, 4, 0, 10)
    assert default_search_bounds((3, 2)).l_degree == 2


# --- unknot controls -----------------------------------------------------------

def test_unknot_second_order_found():
    report = search_bounded_annihilator(None)
    assert report["verdict"] == "found annihilator within bounds"
    assert report["found"] == "(1)*L^0 + (-t^2 - t^-2)*L^1 + (1)*L^2"
    # the recovered operator annihilates the quantum integers well past
    # the search window
    op = SkewOperator(
        {
            0: IntLaurent2.one(),
            1: IntLaurent2({(2, 0): -1, (-2, 0): -1}),
            2: IntLaurent2.one(),
        }
    )
    assert check_annihilation(op, unknot_sequence(), 1, 20)["pass"]


def test_unknot_first_order_none_over_m_free_box():
    report = search_bounded_annihilator(None, default_search_bounds(None, l_degree=1))
    assert report["verdict"] == "no annihilator within bounds"
    assert report["nullity"] == 0


def test_unknot_first_order_exists_once_m_coefficients_allowed():
    # why the control box is M-free: with M-dependent coefficients the
    # quantum integers do admit a first-order annihilator
    op = SkewOperator(
        {
            0: IntLaurent2({(-4, -1): 1, (0, 1): -1}),
            1: IntLaurent2({(-2, 1): 1, (-2, -1): -1}),
        }
    )
    assert check_annihilation(op, unknot_sequence(), 1, 20)["pass"]
    report = search_bounded_annihilator(
        None, SearchBounds(l_degree=1, t_span=4, m_span=1, n_lo=1, n_hi=10)
    )
    assert report["verdict"] == "found annihilator within bounds"


# --- cable and torus searches below the constructed order -------------------------

def test_cable_none_below_constructed_order():
    report = search_bounded_annihilator(CablingParams(3, 2, 13, 2))
    assert report["verdict"] == "no annihilator within bounds"
    assert report["L_degree_searched"] == 2
    assert report["nullity"] == 0
    assert report["prime"] in PRIMES
    assert report["equations"] >= 2 * report["unknowns"]
    assert report["rows"] >= report["unknowns"]
    assert report["params"] == {"p": 3, "q": 2, "r": 13, "s": 2}


def test_torus_pair_search_runs_with_default_bounds():
    report = search_bounded_annihilator((3, 2))
    assert report["verdict"] == "no annihilator within bounds"
    assert report["params"] == {"p": 3, "q": 2}
    assert report["L_degree_searched"] == 2


@pytest.mark.parametrize("fields", [
    {"l_degree": 0},
    {"l_degree": 2, "t_span": -1},
    {"l_degree": 2, "m_span": -1},
    {"l_degree": 2, "n_lo": 5, "n_hi": 4},
])
def test_search_bounds_validated(fields):
    with pytest.raises(ValueError):
        SearchBounds(**fields)


def test_system_too_small():
    with pytest.raises(SystemTooSmall):
        search_bounded_annihilator(
            None, SearchBounds(l_degree=2, t_span=4, m_span=0, n_lo=1, n_hi=1)
        )
