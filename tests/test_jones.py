"""Colored Jones values: frozen examples, dual oracles, recurrence checks."""

import functools
import importlib.resources
import re
from collections import defaultdict
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ajcable.jones as jones
from ajcable.cli import _read_grid_file
from ajcable.degrees import audit_degrees
from ajcable.algebra import (
    IntLaurent1,
    IntLaurent2,
    NotDivisible,
    div_qint_den,
    poly_exact_div,
    poly_mul,
    realized_terms,
    shifted_sum,
    substitute_M,
)
from ajcable.jones import (
    QINT_DEN,
    BadParams,
    CablingParams,
    cabled_jones,
    peel,
    quantum_integer,
    symbolic_delta,
    torus_jones,
    value_window,
    applicable_identities,
    identity_suite,
)
from oracles import delta_term, torus_jones_via_step

GRID_PQ = ((3, 2), (5, 2), (5, 3), (7, 3), (-3, 2), (-5, 3))


def tpow(e, coeff=1):
    return IntLaurent1({e: coeff})


# --- unknot / quantum integers ----------------------------------------------

def test_unknot_small_colors():
    assert quantum_integer(0) == IntLaurent1()
    assert quantum_integer(1) == IntLaurent1({0: 1})
    assert quantum_integer(2) == IntLaurent1({2: 1, -2: 1})
    assert quantum_integer(3).text() == "t^4 + 1 + t^-4"
    assert jones.unknot_sequence() is quantum_integer


def test_unknot_odd_extension():
    assert quantum_integer(-3) == -quantum_integer(3)
    assert quantum_integer(-3).text() == "-t^4 - 1 - t^-4"
    for n in range(1, 9):
        assert quantum_integer(-n) == -quantum_integer(n)


def test_quantum_integer_matches_ratio_form():
    for m in range(1, 12):
        num = tpow(2 * m) - tpow(-2 * m)
        assert quantum_integer(m) == poly_exact_div(num, QINT_DEN)


# --- torus values -------------------------------------------------------------

def test_torus_color_one_is_one():
    for p, q in GRID_PQ:
        assert torus_jones(p, q, 1) == IntLaurent1({0: 1})


def test_torus_3_2_frozen():
    assert torus_jones(3, 2, 2).text() == "t^-2 + t^-6 + t^-10 - t^-18"
    assert (
        torus_jones(3, 2, 3).text()
        == "t^-4 + t^-8 + t^-12 + t^-16 + t^-20 - t^-32 - t^-36 - t^-40 + t^-48"
    )


def test_torus_zero_and_odd_extension():
    for p, q in GRID_PQ:
        assert torus_jones(p, q, 0) == IntLaurent1()
        for n in range(1, 7):
            assert torus_jones(p, q, -n) == -torus_jones(p, q, n)


def test_torus_rejects_non_coprime_and_degenerate():
    with pytest.raises(BadParams):
        torus_jones(4, 2, 2)
    with pytest.raises(BadParams):
        torus_jones(4, 2, 0)  # checked before the colour-0 shortcut
    with pytest.raises(BadParams):
        value_window((4, 2), 1, 2)
    with pytest.raises(BadParams):
        torus_jones(3, 1, 2)
    with pytest.raises(BadParams):
        torus_jones(3, -2, 2)


def test_torus_dual_oracle_direct_vs_step():
    # Two independent routes to the same sequence must agree exactly.
    for p, q in GRID_PQ:
        for n in range(1, 21):
            assert torus_jones(p, q, n) == torus_jones_via_step(p, q, n), (p, q, n)


def test_value_window_matches_step_oracle_and_one_colour_reads():
    """One window of values equals the step recurrence on every companion
    and the one-colour reads on one cable per regime, at colours 1..16."""
    for p, q in GRID_PQ:
        window = value_window((p, q), 1, 16)
        assert window == {n: torus_jones_via_step(p, q, n) for n in range(1, 17)}, (p, q)
    for params in (CablingParams(3, 2, 13, 2), CablingParams(5, 3, -1, 4),
                   CablingParams(3, 2, -1, 3), CablingParams(5, 3, -1, 5)):
        window = value_window(params, 1, 16)
        assert window == {n: cabled_jones(params, n) for n in range(1, 17)}, params
    assert list(value_window((3, 2), 4, 6)) == [4, 5, 6]


# --- cable values --------------------------------------------------------------

def test_cable_3_2_13_2_frozen():
    params = CablingParams(3, 2, 13, 2)
    got = cabled_jones(params, 2)
    expected = (
        "t^-30 + t^-34 + t^-38 + t^-42 + t^-46"
        " - t^-58 - t^-62 - t^-66 + t^-74 - t^-78"
    )
    assert got.text() == expected


def test_cable_color_one_zero_and_symmetry():
    for params in (
        CablingParams(3, 2, 13, 2),
        CablingParams(5, 3, 76, 5),
        CablingParams(-5, 3, -7, 3),
    ):
        assert cabled_jones(params, 1) == IntLaurent1({0: 1})
        assert cabled_jones(params, 0) == IntLaurent1()
        for n in range(1, 5):
            assert cabled_jones(params, -n) == -cabled_jones(params, n)


def test_cable_via_torus_reindexing():
    # s = 2 cable of the trefoil: color 2 equals a shifted color-3 torus
    # value minus one extra monomial.
    params = CablingParams(3, 2, 13, 2)
    expected = poly_mul(tpow(-26), torus_jones(3, 2, 3)) - tpow(-78)
    assert cabled_jones(params, 2) == expected


def test_cabling_params_validation():
    with pytest.raises(BadParams):
        CablingParams(4, 2, 13, 2)
    with pytest.raises(BadParams):
        CablingParams(3, 2, 13, 1)
    with pytest.raises(BadParams):
        CablingParams(3, 2, 12, 2)  # r must be coprime to s via odd r


# --- step inhomogeneity ---------------------------------------------------------

def test_delta_term_frozen():
    assert delta_term(3, 2, 0).text() == "t^10 + t^6 + t^2 - t^-6"
    assert (
        delta_term(3, 2, 1).text()
        == "t^20 + t^16 + t^12 + t^8 + t^4 - t^-8 - t^-12 - t^-16"
    )


def test_delta_term_symmetry_and_center():
    # invariant under j+1 -> -(j+1), and equals 2 at the center j = -1
    for p, q in GRID_PQ:
        assert delta_term(p, q, -1) == IntLaurent1({0: 2})
        for j in range(0, 6):
            assert delta_term(p, q, j) == delta_term(p, q, -j - 2)


def test_symbolic_delta_frozen_and_realize():
    num = symbolic_delta(3, 2, 2, 1)
    assert num.text() == "t^-18*M^-10 - t^-6*M^-2 - t^2*M^2 + t^22*M^10"
    for p, q in GRID_PQ:
        for a, b in ((1, 0), (2, 1), (3, -1), (2, 5)):
            num = symbolic_delta(p, q, a, b)
            for n in range(0, 11):
                assert div_qint_den(substitute_M(num, n)) == delta_term(p, q, a * n + b), (p, q, a, b, n)


# --- peel sums: symbolic realization vs direct summation oracles ----------------

def direct_full_peel_sum(p, q, s, n):
    acc = IntLaurent1()
    for k in range(1, s + 1):
        e = (2 * p * q * s - 4 * p * q * s * k) * n + 4 * p * q * k * k - 12 * p * q * s * k + 6 * p * q * s
        acc = acc + poly_mul(tpow(e), delta_term(p, q, s * (n + 3) - 1 - 2 * k))
    return acc


def direct_alternating_peel_sum(p, s, n):
    acc = IntLaurent1()
    for k in range(1, s + 1):
        sign = 1 if k % 2 == 1 else -1
        e = (2 * p * s - 4 * p * s * k) * n + 2 * p * k * k - 8 * p * s * k + 2 * p * k + 4 * p * s
        core = tpow(4 * s * n + 8 * s - 2 - 4 * k) - tpow(-4 * s * n - 8 * s + 2 + 4 * k)
        acc = acc + poly_mul(tpow(e, sign), poly_exact_div(core, QINT_DEN))
    return acc


def direct_half_peel_sum(p, q, s, n):
    acc = IntLaurent1()
    for k in range(1, s // 2 + 1):
        e = (2 * p * q * s - 4 * p * q * s * k) * n + 4 * p * q * k * k - 8 * p * q * s * k + 4 * p * q * s
        acc = acc + poly_mul(tpow(e), delta_term(p, q, s * (n + 2) - 1 - 2 * k))
    return acc


def test_symbolic_full_peel_sum_matches_direct():
    for p, q, s in ((3, 2, 3), (5, 3, 2), (-5, 3, 4), (7, 3, 5)):
        num = peel("S", p, q, s)[1]
        for n in range(0, 11):
            assert div_qint_den(substitute_M(num, n)) == direct_full_peel_sum(p, q, s, n), (p, q, s, n)


def test_symbolic_alternating_peel_sum_matches_direct():
    for p, s in ((3, 3), (5, 5), (-3, 2), (5, 4)):
        num = peel("U", p, 2, s)[1]
        for n in range(0, 11):
            assert div_qint_den(substitute_M(num, n)) == direct_alternating_peel_sum(p, s, n), (p, s, n)


def test_symbolic_half_peel_sum_matches_direct():
    for p, q, s in ((3, 2, 2), (5, 3, 4), (-5, 3, 2), (7, 3, 6)):
        num = peel("V", p, q, s)[1]
        for n in range(0, 11):
            assert div_qint_den(substitute_M(num, n)) == direct_half_peel_sum(p, q, s, n), (p, q, s, n)


def test_symbolic_sum_guards():
    with pytest.raises(BadParams):
        peel("U", 5, 3, 2)  # alternating form needs q = 2
    with pytest.raises(BadParams):
        peel("V", 3, 2, 3)  # half form needs even s
    with pytest.raises(BadParams):
        peel("S", 3, 2, 1)
    with pytest.raises(BadParams):
        peel("X", 3, 2, 2)


def test_peel_coefficients_are_beta_eta_nu():
    """The peel coefficients are the paper's displayed monomials beta, -eta, nu."""
    for p, q in GRID_PQ:
        pq = p * q
        for s in (2, 3, 4, 5):
            beta = IntLaurent2.monomial(1, -8 * pq * s * s + 4 * pq * s, -2 * pq * s * s)
            assert peel("S", p, q, s)[0] == beta, (p, q, s)
            if q == 2 and s % 2:
                eta = IntLaurent2.monomial(1, 4 * p * s - 6 * p * s * s, -2 * p * s * s)
                assert peel("U", p, q, s)[0] == -eta, (p, q, s)
            if s % 2 == 0:
                nu = IntLaurent2.monomial(1, -3 * pq * s * s + 2 * pq * s, -pq * s * s)
                assert peel("V", p, q, s)[0] == nu, (p, q, s)


# --- recurrence identity checks ---------------------------------------------------

IDENTITY_IDS = ("TORUS_STEP", "Q2_STEP", "CABLE_STEP", "PEEL", "PEEL_S", "Q2_PEEL", "Q2_PEEL_S", "HALF_PEEL",
                "S2_STEP")


def check_one(identity_id, params, n_lo, n_hi, m=None):
    """The report of one identity, from the evaluation ``identity_suite``
    runs, over the colours ``n_lo..n_hi``."""
    cp, p, q = jones._as_params(params)
    return jones._check_relations([(identity_id, m)], cp, p, q, jones._colours(n_lo, n_hi))[0]


def test_torus_step_identity():
    for pq in ((3, 2), (-5, 3)):
        report = check_one("TORUS_STEP", pq, 0, 15)
        assert report["pass"], report["failures"]


def test_cable_step_identity():
    report = check_one("CABLE_STEP", CablingParams(3, 2, 13, 2), 1, 10)
    assert report["pass"], report["failures"]


def test_peel_identities_with_depth():
    for m in (1, 2, 3):
        report = check_one("PEEL", (3, 2), 1, 8, m=m)
        assert report["pass"], (m, report["failures"])
        assert report["m"] == m


def test_q2_peel_s_gating():
    for params in (CablingParams(3, 2, 13, 2), CablingParams(5, 3, 76, 5)):  # even s; q != 2
        assert ("Q2_PEEL_S", None) not in applicable_identities(params)
        assert "Q2_PEEL_S" not in [report["id"] for report in identity_suite(params, 1, 5)]
    assert ("Q2_PEEL_S", None) in applicable_identities(CablingParams(3, 2, 31, 3))
    report = check_one("Q2_PEEL_S", CablingParams(3, 2, 31, 3), 1, 6)
    assert report["pass"], report["failures"]


def test_peel_sum_identities_fail_on_a_wrong_coefficient(monkeypatch):
    real = jones.peel

    def wrong_coefficient(*args):
        c, total = real(*args)
        return c * IntLaurent2.monomial(1, 2, 0), total

    monkeypatch.setattr(jones, "peel", wrong_coefficient)
    for identity_id, params in (
        ("PEEL_S", CablingParams(5, 3, 76, 5)),
        ("Q2_PEEL_S", CablingParams(3, 2, 31, 3)),
        ("HALF_PEEL", CablingParams(5, 3, 121, 4)),
    ):
        report = check_one(identity_id, params, 1, 3)
        assert not report["pass"] and len(report["failures"]) == 3, identity_id


@pytest.mark.parametrize("identity_id, params", [
    ("TORUS_STEP", (3, 2)),
    ("PEEL_S", CablingParams(3, 2, 13, 2)),
])
def test_verify_identity_rejects_empty_window(identity_id, params):
    with pytest.raises(ValueError, match="empty color window"):
        check_one(identity_id, params, 5, 2)


def test_identity_suite_rejects_empty_window():
    with pytest.raises(ValueError, match="empty color window"):
        identity_suite(CablingParams(3, 2, 13, 2), 3, 0)


def test_applicable_identity_counts_by_case():
    # q = 2, s = 2 activates every q2/even-s/s=2 branch: 14 checks
    assert len(applicable_identities(CablingParams(3, 2, 13, 2))) == 14
    # q > 2, odd s: only the generic torus/cable checks remain: 7
    assert len(applicable_identities(CablingParams(5, 3, 76, 5))) == 7


def test_identity_suite_all_pass_smoke():
    for params in (CablingParams(3, 2, 13, 2), CablingParams(5, 3, 76, 5)):
        for report in identity_suite(params, 1, 6):
            assert report["pass"], (report["id"], report["failures"])


# --- the closed formulas against a copy of the former dict implementation ------

def reference_torus(p, q, n):
    """Closed summation formula accumulated term by term in a dict."""
    if n < 0:
        return {e: -c for e, c in reference_torus(p, q, -n).items()}
    pq = p * q
    acc = {}
    for m in range(-(n - 1), n, 2):
        w = m * q + 1
        if w == 0:
            continue
        e0 = -pq * (n * n - 1) + pq * m * m + 2 * p * m
        sign = 1 if w > 0 else -1
        for i in range(abs(w)):
            e = e0 + 2 * (abs(w) - 1) - 4 * i
            acc[e] = acc.get(e, 0) + sign
    return {e: c for e, c in acc.items() if c}


def reference_cable(params, n, torus):
    """The cabling formula over the torus dicts ``torus(k)``, accumulated
    term by term in a dict."""
    if n < 0:
        return {e: -c for e, c in reference_cable(params, -n, torus).items()}
    rs = params.r * params.s
    acc = defaultdict(int)
    for m in range(-(n - 1), n, 2):
        e0 = -rs * (n * n - 1) + rs * m * m + 2 * params.r * m
        for e, c in torus(m * params.s + 1).items():
            acc[e + e0] += c
    return {e: c for e, c in acc.items() if c}


def _one_tuple_per_cell():
    """One tuple of each of the 24 stock (companion, s) cells: the least |r|
    for even s and the largest for odd s, so that every companion has r on
    both sides of the end pqs of its band."""
    cells = {}
    for c in _read_grid_file(importlib.resources.files("ajcable") / "data" / "default_grid.txt"):
        cells.setdefault((c.p, c.q, c.s), []).append(c)
    out = []
    for (_p, _q, s), tuples in cells.items():
        by_size = sorted(tuples, key=lambda c: abs(c.r))
        out.append(by_size[-1] if s % 2 else by_size[0])
    return out


STOCK_CELLS = _one_tuple_per_cell()


@pytest.mark.parametrize("params", STOCK_CELLS)
def test_dense_values_match_dict_formula(params):
    torus = functools.cache(functools.partial(reference_torus, params.p, params.q))
    for n in range(-3, 15):
        assert torus_jones(params.p, params.q, n).d == torus(n)
        value = cabled_jones(params, n)
        assert value.d == reference_cable(params, n, torus)
        if value.c.size > 1:
            assert value.step % 4 == 0  # values live on every fourth exponent


@pytest.mark.parametrize("p, q", [(13, 6), (-9, 7)])
def test_large_torus_values_match_dict_formula(p, q):
    for n in range(-3, 41):
        assert torus_jones(p, q, n).d == reference_torus(p, q, n)


def test_corrupted_numerator_is_not_divisible(monkeypatch):
    """Values are exact quotients by t^2 - t^-2: a numerator with one term
    flipped must raise NotDivisible, for torus and cable values alike."""
    qint = jones._qint_numerators

    def corrupted(ks):
        owner, exps, coeffs = qint(ks)
        coeffs = coeffs.copy()
        coeffs[-1] = -coeffs[-1]
        return owner, exps, coeffs

    monkeypatch.setattr(jones, "_qint_numerators", corrupted)
    with pytest.raises(NotDivisible):
        torus_jones(3, 2, 5)
    with pytest.raises(NotDivisible):
        cabled_jones(CablingParams(3, 2, 13, 2), 4)


@pytest.mark.parametrize("value", [
    lambda: torus_jones(2**61 + 1, 2, 2),
    lambda: cabled_jones(CablingParams(3, 2, 2**61, 3), 2),
    lambda: check_one("TORUS_STEP", (2**61 + 1, 2), 1, 3),
    lambda: identity_suite(CablingParams(3, 2, 2**61, 3), 1, 2),
    lambda: torus_jones(3, 2, 99999999999999999999),
    lambda: audit_degrees((3, 2), 2, 99999999999999999999),
])
def test_exponents_beyond_int64_are_refused(value):
    """Exponents are int64: parameters or colours that would overflow them
    raise BadParams instead of wrapping around, and a colour window is
    refused before any of its arrays is built."""
    with pytest.raises(BadParams, match="exponents beyond 2\\^62"):
        value()


@pytest.mark.parametrize("a, b, inner", [
    (3, 2, jones._qint_numerators),
    (-5, 3, jones._qint_numerators),
    (13, 2, jones._torus_numerators(3, 2)),
    (-1, 3, jones._torus_numerators(3, 2)),
    (7, 5, jones._torus_numerators(-5, 3)),
])
def test_window_terms_count_the_arrays(a, b, inner):
    """The closed-form term count of a cabling sum equals the length of its
    arrays, colour by colour for n = 1..8 and over a whole window."""
    for n in range(1, 9):
        ns = np.array([n])
        assert jones._window_terms(b, inner, ns) == jones._cabling_numerator(a, b, inner, ns)[1].size
    ns = np.array([2, 3, 5, 8, 13])
    assert jones._window_terms(b, inner, ns) == jones._cabling_numerator(a, b, inner, ns)[1].size


def _physical_memory(monkeypatch, nbytes):
    sizes = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": nbytes}
    monkeypatch.setattr(jones, "os", SimpleNamespace(sysconf=sizes.__getitem__))


@pytest.mark.parametrize("window, what", [
    (lambda: jones.numerator_window((3, 2), 500000000, 500000000),
     "the (3, 2)-cabling sum of at least 1000000000 terms up to colour 500000000 needs at least 77000000000 bytes"),
    (lambda: jones.numerator_window(CablingParams(3, 2, 13, 2), 1, 3000),
     "the (13, 2)-cabling sum of at least 18009001000 terms up to colour 3000 needs at least 1386693077000 bytes"),
    (lambda: jones._cabling_numerator(13, 2, jones._torus_numerators(3, 2), np.array([3, 100000])),
     "the (13, 2)-cabling sum of at least 20000000000 terms up to colour 100000 needs at least 1540000000000 bytes"),
], ids=["torus", "cable", "cable-top-colour"])
def test_window_beyond_memory_is_refused_before_its_arrays(window, what, monkeypatch):
    """A window whose term arrays cannot fit in (here 8 GiB of) physical
    memory raises MemoryError before the cabling sum repeats anything; a
    broken guard would reach ``np.repeat`` and fail the test, not allocate.
    A top colour too large alone is refused by its own count."""
    _physical_memory(monkeypatch, 8 << 30)

    def no_repeat(*_args, **_kwargs):
        raise AssertionError("a window array built before the memory guard")

    monkeypatch.setattr(jones.np, "repeat", no_repeat)
    with pytest.raises(MemoryError, match=f"^{re.escape(what)}, more than physical memory$"):
        window()


def test_window_within_memory_is_built(monkeypatch):
    """The guard refuses by the measured bytes per term, and no fewer: a
    window of 2n terms at colour n is built with exactly that much memory."""
    _physical_memory(monkeypatch, jones._BYTES_PER_TERM * 2 * 40)
    assert jones.numerator_window((3, 2), 40, 40)[40] == torus_jones(3, 2, 40) * QINT_DEN
    _physical_memory(monkeypatch, jones._BYTES_PER_TERM * 2 * 40 - 1)
    with pytest.raises(MemoryError):
        jones.numerator_window((3, 2), 40, 40)


# --- the identity suite against a per-colour reference on values ----------------

def _reference_residue(identity_id, p, q, cp, m):
    """One identity's residue as a function of the colour: its left side
    minus its right side on values, one shifted_sum per colour."""
    J = functools.partial(torus_jones, p, q)
    pq = p * q
    if identity_id == "TORUS_STEP":
        return lambda n: shifted_sum(((0, 1, J(n + 2)), (-4 * pq * (n + 1), -1, J(n)),
                                      (-2 * pq * (n + 1), -1, delta_term(p, q, n))))
    if identity_id == "Q2_STEP":
        return lambda n: shifted_sum(((0, 1, J(n + 1)), (-(4 * n + 2) * p, 1, J(n)),
                                      (-2 * p * n, -1, quantum_integer(2 * n + 1))))
    if identity_id == "CABLE_STEP":
        coeffs = jones.cable_step_coefficients(cp)

        def residue(n):
            idx = cp.s * (n + 1) - 1
            return shifted_sum([(0, 1, cabled_jones(cp, n + 2))]
                               + realized_terms(coeffs["step"], n, cabled_jones(cp, n), -1)
                               + realized_terms(coeffs["torus"], n, J(idx), -1)
                               + realized_terms(coeffs["delta"], n, delta_term(p, q, idx), -1))

        return residue
    if identity_id == "S2_STEP":
        r = cp.r

        def residue(n):  # the second relation only where the first holds
            first = shifted_sum(((0, 1, cabled_jones(cp, n + 1)), (-2 * r * n, -1, J(2 * n + 1)),
                                 (-4 * r * n - 2 * r, 1, cabled_jones(cp, n))))
            return first or shifted_sum(((0, 1, J(2 * n + 3)), (-8 * pq * (n + 1), -1, J(2 * n + 1)),
                                         (-4 * pq * (n + 1), -1, delta_term(p, q, 2 * n + 1))))

        return residue
    # a peel: J(k) - c(n)*J(k - drop) - total(n)/(t^2 - t^-2) at the index k(n)
    if identity_id == "PEEL":
        index, drop, (c, total) = (lambda n: n), 2 * m, jones._two_step_peels(p, q, m, 1, 0)[-1]
    elif identity_id == "Q2_PEEL":
        index, drop, (c, total) = (lambda n: n), m, jones._single_step_peels(p, m, 1, 0)[-1]
    else:
        kind = {"PEEL_S": "S", "Q2_PEEL_S": "U", "HALF_PEEL": "V"}[identity_id]
        k, s = jones.PEEL_STEP[kind], cp.s
        index, drop, (c, total) = (lambda n: s * (n + 1 + k) - 1), k * s, jones.peel(kind, p, q, s)
    return lambda n: shifted_sum([(0, 1, J(index(n))), (0, -1, div_qint_den(substitute_M(total, n)))]
                                 + realized_terms(c, n, J(index(n) - drop), -1))


def reference_report(identity_id, params, n_lo, n_hi, m=None):
    """One identity's report, as :func:`check_one` gives it, from the value
    residues colour by colour."""
    cp = params if isinstance(params, CablingParams) else None
    p, q = (cp.p, cp.q) if cp is not None else params
    residue = _reference_residue(identity_id, p, q, cp, m)
    failures = [{"n": n, "residue": res.text()} for n in range(n_lo, n_hi + 1) if (res := residue(n))]
    report = {"id": identity_id, "params": cp.as_dict() if cp is not None else {"p": p, "q": q},
              "n_lo": n_lo, "n_hi": n_hi, "pass": not failures, "failures": failures}
    if m is not None:
        report["m"] = m
    return report


def reference_suite(params, n_lo, n_hi):
    return [reference_report(identity_id, params, n_lo, n_hi, m)
            for identity_id, m in applicable_identities(params)]


@pytest.mark.parametrize("params", STOCK_CELLS)
def test_identity_suite_matches_value_reference(params):
    """Negative colours read the odd extension of both sequences.  The
    suite's shared reads give the reports of the one-identity checks."""
    for n_lo, n_hi in ((1, 12), (-4, 3)):
        suite = identity_suite(params, n_lo, n_hi)
        assert suite == reference_suite(params, n_lo, n_hi)
        assert suite == [check_one(identity_id, params, n_lo, n_hi, m)
                         for identity_id, m in applicable_identities(params)]


def test_identity_suite_makes_each_read_once(monkeypatch):
    """Identities that read the same numerators share one read, and the
    reads of each sequence come from one table: for (3, 2, -1, 2) at colours
    1..12 the 14 identities make 12 distinct torus reads and 3 cable reads
    in one call, from one torus cabling sum and one cable cabling sum (which
    runs the torus sum inside it once)."""
    calls, sums = [], []
    reads, cabling = jones._reads, jones._cabling_numerator
    monkeypatch.setattr(jones, "_reads", lambda keys, *rest: calls.append(keys) or reads(keys, *rest))
    monkeypatch.setattr(jones, "_cabling_numerator",
                        lambda a, b, *rest: sums.append((a, b)) or cabling(a, b, *rest))
    params = CablingParams(3, 2, -1, 2)
    assert all(report["pass"] for report in identity_suite(params, 1, 12))
    assert len(calls) == 1
    assert [seq for seq, _, _ in calls[0]].count("T") == 12
    assert [seq for seq, _, _ in calls[0]].count("C") == 3
    assert sorted(sums) == [(-1, 2), (3, 2), (3, 2)]


@pytest.mark.parametrize("pq", GRID_PQ)
def test_torus_identity_suite_matches_value_reference(pq):
    assert identity_suite(pq, 0, 15) == reference_suite(pq, 0, 15)


D_MULTIPLE = IntLaurent2({(4, 1): 1, (0, 1): -1})  # M(t^4 - 1) = t^2 M (t^2 - t^-2)


def test_perturbed_cable_step_fails_like_the_reference(monkeypatch):
    real = jones.cable_step_coefficients

    def perturbed(params):
        return {**real(params), "torus": real(params)["torus"] + D_MULTIPLE}

    monkeypatch.setattr(jones, "cable_step_coefficients", perturbed)
    for params in (CablingParams(3, 2, 13, 2), CablingParams(5, 3, 76, 5)):
        report = check_one("CABLE_STEP", params, -4, 6)
        assert report == reference_report("CABLE_STEP", params, -4, 6)
        assert len(report["failures"]) == 11, params


@pytest.mark.parametrize("r", [2**50 + 1, 2**51 - 1])
def test_suite_holds_where_the_key_leaves_int64(r, monkeypatch):
    """The suite's one sort key spans groups * colours * width; past int64
    it is a Python int, so no window is refused for it.  At r = 2^50 + 1
    (int64 per group before, Python ints now) and r = 2^51 - 1 (refused
    before with "identity terms span too many exponents for int64 keys")
    every identity passes.  A torus coefficient of CABLE_STEP off by
    t^2 M (t^2 - t^-2) then fails every colour n with the residue
    -t^(2n + 2) N_T(3n + 2), N_T the torus numerator: no wrong verdict."""
    cp = CablingParams(3, 2, r, 3)
    assert all(report["pass"] for report in identity_suite(cp, 1, 12))
    for identity_id, m in applicable_identities(cp):
        assert check_one(identity_id, cp, 1, 12, m)["pass"], identity_id
    real = jones.cable_step_coefficients
    monkeypatch.setattr(jones, "cable_step_coefficients",
                        lambda params: {**real(params), "torus": real(params)["torus"] + D_MULTIPLE})
    torus = jones.numerator_window((3, 2), 5, 38)
    assert check_one("CABLE_STEP", cp, 1, 12)["failures"] == [
        {"n": n, "residue": poly_mul(tpow(2 * n + 2, -1), torus[3 * n + 2]).text()} for n in range(1, 13)]


def test_perturbed_peel_total_fails_like_the_reference(monkeypatch):
    real = jones._two_step_peels

    def perturbed(*args):
        return [(c, total + D_MULTIPLE) for c, total in real(*args)]

    monkeypatch.setattr(jones, "_two_step_peels", perturbed)
    for identity_id, params, m in (
        ("PEEL", (3, 2), 2),
        ("PEEL", (-5, 3), 3),
        ("PEEL_S", CablingParams(5, 3, 76, 5), None),
        ("HALF_PEEL", CablingParams(3, 2, 13, 2), None),
    ):
        report = check_one(identity_id, params, -4, 6, m)
        assert report == reference_report(identity_id, params, -4, 6, m)
        assert len(report["failures"]) == 11, identity_id


NOT_DIVISIBLE = "the sum of the terms is not divisible by t^2 - t^-2"


def test_non_divisible_peel_total_is_not_divisible(monkeypatch):
    """A total that is not a multiple of t^2 - t^-2 has no quotient: the
    value reference raises, and the check reports every colour as failing
    with a residue that says the sum is not divisible."""
    real = jones._two_step_peels

    def perturbed(*args):
        return [(c, total + IntLaurent2.monomial(1, 0, 1)) for c, total in real(*args)]

    monkeypatch.setattr(jones, "_two_step_peels", perturbed)
    with pytest.raises(NotDivisible):
        reference_report("PEEL", (3, 2), 1, 4, 1)
    report = check_one("PEEL", (3, 2), 1, 4, 1)
    assert not report["pass"]
    assert report["failures"] == [{"n": n, "residue": NOT_DIVISIBLE} for n in range(1, 5)]


def test_non_divisible_identity_sum_is_reported_not_raised(monkeypatch):
    """A peel sum off by a term that is not a multiple of t^2 - t^-2 fails
    PEEL_S and Q2_PEEL_S at every colour, and the rest of the suite still
    passes: the suite reports, it does not raise."""
    real = jones.peel

    def perturbed(*args):
        c, total = real(*args)
        return c, total + IntLaurent2.monomial(1, 0, 0)

    monkeypatch.setattr(jones, "peel", perturbed)
    for report in identity_suite(CablingParams(3, 2, 13, 3), 1, 4):
        failing = report["id"] in ("PEEL_S", "Q2_PEEL_S")
        assert report["pass"] is not failing, report["id"]
        if failing:
            assert report["failures"] == [{"n": n, "residue": NOT_DIVISIBLE} for n in range(1, 5)]


def test_corrupted_numerator_fails_the_divisibility_guard(monkeypatch):
    """The suite never divides a numerator it reads, so it checks that each
    is divisible by t^2 - t^-2: one flipped term of the unknot's numerators
    is refused by that guard, before any residue is formed."""
    qint = jones._qint_numerators

    def corrupted(ks):
        owner, exps, coeffs = qint(ks)
        coeffs = coeffs.copy()
        coeffs[-1] = -coeffs[-1]
        return owner, exps, coeffs

    monkeypatch.setattr(jones, "_qint_numerators", corrupted)
    for params in ((3, 2), CablingParams(3, 2, 13, 2)):
        with pytest.raises(NotDivisible, match="a numerator is not divisible"):
            identity_suite(params, 1, 12)


# --- the one-pass evaluator against a copy of the per-group one -----------------
# The former evaluator made each read on its own (one cabling sum and one
# divisibility check per read) and sorted each group's terms on its own.  It
# is kept here as the oracle, with the fix that a group sum not divisible by
# t^2 - t^-2 is reported rather than raised.

def _per_group_read(seq, slope, const, p, q, cp, ns):
    if seq == "1":
        return np.arange(ns.size), np.zeros(ns.size, dtype=np.int64), np.ones(ns.size, dtype=np.int64)
    ks = const + slope * ns
    nz = np.flatnonzero(ks)
    if not nz.size:
        return nz, nz, nz
    inner = (jones._torus_numerators(p, q) if seq == "T" else jones._cable_numerators(cp) if seq == "C"
             else jones._qint_numerators)
    owner, exps, coeffs = inner(np.abs(ks[nz]))
    sums = np.zeros(4 * nz.size, dtype=np.int64)
    np.add.at(sums, 4 * owner + (exps & 3), coeffs)
    if sums.any():
        raise NotDivisible("a numerator is not divisible by t^2 - t^-2")
    slot = nz[owner]
    return slot, exps, np.where(ks[slot] < 0, -coeffs, coeffs)


def _per_group_nonzero_slots(slot, exps, coeffs):
    if not exps.size:
        return []
    lo = int(exps.min())
    width = int(exps.max()) - lo + 1
    keys = slot * width + (exps - lo)
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    sums = np.add.reduceat(coeffs[order], starts)
    return np.unique(keys[starts[sums != 0]] // width).tolist()


def per_group_reports(identities, params, n_lo, n_hi):
    """The reports of ``identities``, each group of each identity read and
    summed on its own."""
    cp = params if isinstance(params, CablingParams) else None
    p, q = (cp.p, cp.q) if cp is not None else params
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    peels = jones._depth_peels(identities, p, q)
    reads, reports = {}, []
    for identity_id, m in identities:
        residues = {}
        for group in jones._relation(identity_id, p, q, cp, m, peels):
            slots, exps, coeffs = [], [], []
            for seq, slope, const, f in group:
                if (seq, slope, const) not in reads:
                    reads[seq, slope, const] = _per_group_read(seq, slope, const, p, q, cp, ns)
                slot, e, c = reads[seq, slope, const]
                for (a, b), k in f.d.items():
                    slots.append(slot)
                    exps.append(e + (a + 2 * b * ns)[slot])
                    coeffs.append(k * c)
            slot, e, c = (np.concatenate(x) for x in (slots, exps, coeffs))
            for i in _per_group_nonzero_slots(slot, e, c):
                if i not in residues:
                    mine = slot == i
                    try:
                        residues[i] = div_qint_den(IntLaurent1.from_terms(e[mine], c[mine])).text()
                    except NotDivisible:
                        residues[i] = NOT_DIVISIBLE
        failures = [{"n": n_lo + i, "residue": residues[i]} for i in sorted(residues)]
        report = {"id": identity_id, "params": cp.as_dict() if cp is not None else {"p": p, "q": q},
                  "n_lo": n_lo, "n_hi": n_hi, "pass": not failures, "failures": failures}
        if m is not None:
            report["m"] = m
        reports.append(report)
    return reports


def perturbed_relation(target, change):
    """``jones._relation`` with one term of one group of the identity
    ``target`` changed by ``change(term)``."""
    real = jones._relation
    identity_id, group_index, term_index = target

    def relation(iid, *args):
        groups = real(iid, *args)
        if iid == identity_id:
            group = groups[group_index % len(groups)]
            t = term_index % len(group)
            group[t] = change(group[t])
        return groups

    return relation


D_POLY = IntLaurent2({(2, 0): 1, (-2, 0): -1})  # t^2 - t^-2


@st.composite
def perturbations(draw):
    """None, or a target term and a change to it: a monomial added to its
    coefficient, times t^2 - t^-2 or not, or its read (not the constant 1)
    moved by a few colours."""
    if draw(st.booleans()):
        return None
    target = (draw(st.sampled_from(IDENTITY_IDS)), draw(st.integers(0, 1)), draw(st.integers(0, 3)))
    if draw(st.booleans()):
        shift = draw(st.sampled_from((-2, -1, 1, 2)))
        return target, lambda term: term if term[0] == "1" else (*term[:2], term[2] + shift, term[3])
    extra = IntLaurent2.monomial(draw(st.sampled_from((-2, -1, 1, 2))), draw(st.integers(-8, 8)),
                                 draw(st.integers(-3, 3)))
    if draw(st.booleans()):
        extra = extra * D_POLY
    return target, lambda term: (*term[:3], term[3] + extra)


@given(params=st.sampled_from(STOCK_CELLS + list(GRID_PQ)),
       window=st.sampled_from(((1, 12), (-4, 3))),
       perturbation=perturbations())
@settings(max_examples=60, deadline=None)
def test_one_pass_suite_matches_the_per_group_evaluator(params, window, perturbation):
    relation = jones._relation if perturbation is None else perturbed_relation(*perturbation)
    with mock.patch.object(jones, "_relation", relation):
        expected = per_group_reports(applicable_identities(params), params, *window)
        assert identity_suite(params, *window) == expected
        for report, (identity_id, m) in zip(expected, applicable_identities(params)):
            if not report["pass"]:
                assert check_one(identity_id, params, *window, m) == report


def test_first_failing_group_reports_the_residue():
    """Both S2_STEP groups fail at every colour, with different residues:
    each colour reports the first group's, as when it alone fails."""
    params = CablingParams(3, 2, -1, 2)

    def add(extra):
        return lambda term: (*term[:3], term[3] + extra)

    first = perturbed_relation(("S2_STEP", 0, 0), add(D_MULTIPLE))
    second = perturbed_relation(("S2_STEP", 1, 0), add(-D_MULTIPLE))

    def both(iid, *args):
        return second(iid, *args) if iid != "S2_STEP" else [
            first(iid, *args)[0], second(iid, *args)[1]]

    reports = {}
    for name, relation in (("first", first), ("second", second), ("both", both)):
        with mock.patch.object(jones, "_relation", relation):
            reports[name] = check_one("S2_STEP", params, 1, 6)
            assert reports[name] == per_group_reports([("S2_STEP", None)], params, 1, 6)[0]
    assert len(reports["both"]["failures"]) == 6
    assert reports["both"] == reports["first"] != reports["second"]
    assert all(a["residue"] != b["residue"]
               for a, b in zip(reports["first"]["failures"], reports["second"]["failures"]))

