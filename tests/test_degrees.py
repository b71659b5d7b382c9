"""Degree predictions against exact extreme exponents."""

import pytest

from ajcable.algebra import degree_bounds
from ajcable.degrees import (
    DegreePrediction,
    audit_degrees,
    predicted_cable_degrees,
    predicted_torus_degrees,
)
from ajcable.jones import BadParams, CablingParams, cabled_jones, numerator_window, torus_jones


# --- frozen worked examples ------------------------------------------------

def test_torus_examples():
    assert predicted_torus_degrees(3, 2, 2) == DegreePrediction(n=2, lowest=-18, highest=-2)
    assert predicted_torus_degrees(3, 2, 3) == DegreePrediction(n=3, lowest=-48, highest=-4)
    assert predicted_torus_degrees(-5, 3, 3) == DegreePrediction(n=3, lowest=28, highest=120)


def test_cable_examples():
    # r above p*q*s: only the lowest side has a formula
    assert predicted_cable_degrees(CablingParams(3, 2, 13, 2), 2) == DegreePrediction(
        n=2, lowest=-78, highest=None
    )
    # negative r on a positive torus knot: both sides
    assert predicted_cable_degrees(CablingParams(3, 2, -1, 2), 2) == DegreePrediction(
        n=2, lowest=-46, highest=6
    )
    # positive r on a negative torus knot: lowest side present
    pred = predicted_cable_degrees(CablingParams(-5, 3, 1, 2), 3)
    assert pred.lowest == -16


def test_no_formula_ranges_raise():
    with pytest.raises(BadParams):
        predicted_torus_degrees(3, 2, 0)
    with pytest.raises(BadParams):
        predicted_torus_degrees(2, 3, 2)  # 0 < p <= q: no closed form
    with pytest.raises(BadParams):
        predicted_cable_degrees(CablingParams(2, 3, -1, 2), 2)


def test_absent_sides_are_not_reported():
    pred = predicted_cable_degrees(CablingParams(3, 2, 13, 2), 2)
    assert pred.sides() == {"lowest": -78}
    pred = predicted_cable_degrees(CablingParams(-5, 3, -7, 3), 2)
    assert "lowest" not in pred.sides() and "highest" in pred.sides()


# --- exact audits -------------------------------------------------------------

def assert_all_match(rows):
    bad = [row for row in rows if not row["match"]]
    assert not bad, bad


def test_torus_audits_to_20():
    for pq in ((3, 2), (5, 3), (-5, 3), (-3, 2), (7, 3)):
        assert_all_match(audit_degrees(pq, 2, 20))


def test_cable_audits():
    assert_all_match(audit_degrees(CablingParams(3, 2, 13, 2), 2, 12))
    assert_all_match(audit_degrees(CablingParams(5, 3, 76, 5), 2, 10))
    assert_all_match(audit_degrees(CablingParams(-5, 3, -7, 3), 2, 10))
    assert_all_match(audit_degrees(CablingParams(3, 2, -1, 2), 2, 12))
    assert_all_match(audit_degrees(CablingParams(-5, 3, 1, 2), 2, 10))
    # p < -q and r < pqs: the mirror of (3, 2, 13, 2)
    assert_all_match(audit_degrees(CablingParams(-3, 2, -13, 2), 2, 12))


def test_audit_rows_shape():
    rows = audit_degrees(CablingParams(3, 2, 13, 2), 2, 4)
    assert {row["n"] for row in rows} == {2, 3, 4}
    # r > pqs on a positive knot: one (lowest) row per color
    assert all(row["side"] == "lowest" for row in rows)
    assert all(row["params"] == {"p": 3, "q": 2, "r": 13, "s": 2} for row in rows)


def test_audit_rejects_empty_window():
    with pytest.raises(ValueError, match="empty color window"):
        audit_degrees((3, 2), 2, 1)


def test_predictions_against_direct_degree_bounds():
    # spot-check the plumbing audit_degrees relies on
    lo, hi = degree_bounds(torus_jones(3, 2, 2))
    assert (lo, hi) == (-18, -2)
    lo, hi = degree_bounds(cabled_jones(CablingParams(3, 2, 13, 2), 2))
    assert lo == -78


def _rows_from_values(params, n_lo, n_hi):
    """The audit rows computed the direct way, from the values themselves."""
    rows = []
    for n in range(n_lo, n_hi + 1):
        if isinstance(params, CablingParams):
            label, pred = params.as_dict(), predicted_cable_degrees(params, n)
            value = cabled_jones(params, n)
        else:
            label, pred = {"p": params[0], "q": params[1]}, predicted_torus_degrees(*params, n)
            value = torus_jones(*params, n)
        actual = dict(zip(("lowest", "highest"), degree_bounds(value)))
        rows += [{"params": label, "n": n, "side": side, "predicted": predicted,
                  "actual": actual[side], "match": predicted == actual[side]}
                 for side, predicted in pred.sides().items()]
    return rows


@pytest.mark.parametrize("params", [
    CablingParams(3, 2, 13, 2),   # S_EQ_2
    CablingParams(5, 3, 121, 4),  # S_EVEN_GT2
    CablingParams(3, 2, -1, 3),   # S_ODD_Q2, both sides
    CablingParams(-5, 3, 76, 5),  # S_ODD_QGT2, mirrored
    (3, 2),
    (-5, 3),
], ids=str)
def test_numerator_audit_matches_the_value_audit(params):
    """Degrees read from the numerators ``N = (t^2 - t^-2) J``, moved in by
    2 on each side, are those of the values, at colours 2..16."""
    expected = _rows_from_values(params, 2, 16)
    assert len(expected) >= 15
    assert audit_degrees(params, 2, 16) == expected
    # the same rows from a window built elsewhere, as ``verify`` hands it in
    assert audit_degrees(params, 2, 16, numerator_window(params, 1, 18)) == expected
