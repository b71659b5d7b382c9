import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ajcable.algebra as algebra
from ajcable.algebra import (
    DivByZero,
    IntLaurent1,
    IntLaurent2,
    NotDivisible,
    PoleAtMinusOne,
    RationalM,
    RationalTM,
    ZeroPolynomial,
    degree_bounds,
    limit_t_minus1,
    poly_exact_div,
    poly_mul,
    shift_M,
    substitute_M,
)

T2_MINUS = IntLaurent2({(2, 0): 1, (-2, 0): -1})  # t^2 - t^-2


def L1(d):
    return IntLaurent1(d)


def L2(d):
    return IntLaurent2(d)


# --- exact division -------------------------------------------------------

def test_exact_div_simple():
    num = L2({(2, 0): 1, (-2, 0): -1})
    den = L2({(1, 0): 1, (-1, 0): -1})
    assert poly_exact_div(num, den) == L2({(1, 0): 1, (-1, 0): 1})


def test_exact_div_delta_numerator():
    # the j=0 inhomogeneity numerator for companion (3,2)
    num = L2({(12, 0): 1, (-8, 0): 1, (-4, 0): -1, (0, 0): -1})
    out = poly_exact_div(num, T2_MINUS)
    assert out == L2({(10, 0): 1, (6, 0): 1, (2, 0): 1, (-6, 0): -1})


def test_exact_div_not_divisible():
    with pytest.raises(NotDivisible):
        poly_exact_div(L2({(1, 0): 1, (0, 0): 1}), L2({(1, 0): 1, (0, 0): -1}))


def test_exact_div_by_zero():
    with pytest.raises(DivByZero):
        poly_exact_div(L2({(1, 0): 1}), L2({}))


# --- substitution and twist ----------------------------------------------

def test_substitute_single_monomial():
    assert substitute_M(L2({(3, 2): 1}), 2) == L1({11: 1})


def test_substitute_collapses_at_zero():
    assert substitute_M(L2({(0, 1): 1, (0, -1): -1}), 0) == L1({})


def test_substitute_four_term():
    f = L2({(22, 10): 1, (-18, -10): 1, (-6, -2): -1, (2, 2): -1})
    assert substitute_M(f, 1) == L1({42: 1, -38: 1, -10: -1, 6: -1})


def test_shift_monomial():
    assert shift_M(L2({(0, 1): 1}), 1) == L2({(2, 1): 1})


def test_shift_fixes_m_free():
    assert shift_M(L2({(3, 0): 1}), 5) == L2({(3, 0): 1})


def test_shift_two_terms():
    assert shift_M(L2({(0, 2): 1, (0, -1): 1}), 2) == L2({(8, 2): 1, (-4, -1): 1})


# --- limits at t = -1 ------------------------------------------------------

def test_limit_common_monomial_factor():
    f = RationalTM(L2({(1, 1): 1, (-1, 1): -1}), L2({(1, 0): 1, (-1, 0): -1}))
    assert limit_t_minus1(f) == RationalM.monomial(e=1)


def test_limit_after_cancelling_t_plus_1():
    num = L2({(1, 1): 1, (0, 1): 1, (1, 0): 1, (0, 0): 1})  # (t+1)M + (t+1)
    den = L2({(1, 1): 1, (0, 1): 1})  # (t+1)M
    out = limit_t_minus1(RationalTM(num, den))
    assert out == RationalM({1: 1, 0: 1}, {1: 1})


def test_limit_pole_detected():
    f = RationalTM(L2({(0, 0): 1}), L2({(1, 0): 1, (0, 0): 1}))  # 1/(t+1)
    with pytest.raises(PoleAtMinusOne):
        limit_t_minus1(f)


# --- degree bounds ---------------------------------------------------------

def test_degree_bounds_symmetric():
    assert degree_bounds(L1({2: 1, -2: 1})) == (-2, 2)


def test_degree_bounds_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        degree_bounds(L1({}))


def test_text_golden():
    f = L1({-2: 1, -6: 1, -10: 1, -18: -1})
    assert f.text() == "t^-2 + t^-6 + t^-10 - t^-18"


# --- randomized ring properties -------------------------------------------

coeffs = st.integers(min_value=-9, max_value=9)
exps = st.integers(min_value=-6, max_value=6)


@st.composite
def polys2(draw, max_terms=5, nonzero=False):
    n = draw(st.integers(min_value=1 if nonzero else 0, max_value=max_terms))
    d = {}
    for _ in range(n):
        d[(draw(exps), draw(exps))] = draw(coeffs)
    f = IntLaurent2(d)
    if nonzero and not f:
        f = IntLaurent2({(0, 0): 1})
    return f


@given(polys2(), polys2(), polys2())
@settings(max_examples=60, deadline=None)
def test_mul_associative_and_commutative(f, g, h):
    assert poly_mul(poly_mul(f, g), h) == poly_mul(f, poly_mul(g, h))
    assert poly_mul(f, g) == poly_mul(g, f)


@given(polys2(), polys2(), polys2())
@settings(max_examples=60, deadline=None)
def test_mul_distributes(f, g, h):
    assert poly_mul(f, g + h) == poly_mul(f, g) + poly_mul(f, h)


@given(polys2(), polys2(nonzero=True))
@settings(max_examples=60, deadline=None)
def test_exact_div_round_trip(f, g):
    assert poly_exact_div(poly_mul(f, g), g) == f


# --- _div2 against the plain long division ----------------------------------

def reference_div2(num, den):
    """Lex long division of two-variable Laurent dicts with no evaluation
    pre-test: the reference the certified ``_div2`` must agree with."""
    if not den:
        raise DivByZero("division by zero polynomial")
    if not num:
        return {}
    nt = min(t for t, _ in num)
    nm = min(m for _, m in num)
    dt = min(t for t, _ in den)
    dm = min(m for _, m in den)
    a = {(t - nt, m - nm): c for (t, m), c in num.items()}
    b = {(t - dt, m - dm): c for (t, m), c in den.items()}
    lead_b = max(b, key=lambda k: (k[1], k[0]))
    cb = b[lead_b]
    r = dict(a)
    q = {}
    while r:
        lead_r = max(r, key=lambda k: (k[1], k[0]))
        ca = r[lead_r]
        qe = (lead_r[0] - lead_b[0], lead_r[1] - lead_b[1])
        if qe[0] < 0 or qe[1] < 0 or ca % cb:
            raise NotDivisible("reference")
        qc = ca // cb
        q[qe] = qc
        for (t, m), c in b.items():
            k = (t + qe[0], m + qe[1])
            v = r.get(k, 0) - qc * c
            if v:
                r[k] = v
            else:
                del r[k]
    off = (nt - dt, nm - dm)
    return {(t + off[0], m + off[1]): c for (t, m), c in q.items()}


def div2_outcome(div, num, den):
    try:
        return div(num, den)
    except NotDivisible:
        return NotDivisible


def assert_div2_matches_reference(num, den):
    expected = div2_outcome(reference_div2, num, den)
    assert div2_outcome(algebra._div2, num, den) == expected, (num, den)
    return expected


@st.composite
def dividend_divisor(draw):
    """(a, b) with a an arbitrary polynomial, a multiple of b, or a multiple
    of b plus a perturbation."""
    b = draw(polys2(nonzero=True))
    f = draw(polys2())
    kind = draw(st.sampled_from(("free", "product", "perturbed")))
    if kind == "free":
        return f, b
    a = poly_mul(f, b)
    if kind == "perturbed":
        a = a + draw(polys2())
    return a, b


@given(dividend_divisor())
@settings(max_examples=300, deadline=None)
def test_div2_matches_reference_long_division(pair):
    a, b = pair
    assert_div2_matches_reference(a.d, b.d)


# b(2, 3) = 0: the evaluation says nothing and the long division decides
ZERO_AT_2_3 = (
    {(1, 0): 1, (0, 0): -2},            # t - 2
    {(0, 1): 1, (0, 0): -3},            # M - 3
    {(1, 1): 1, (0, 0): -6},            # t*M - 6
    {(-2, 4): 1, (-3, 3): -6},          # t^-3 M^3 (t*M - 6), offset divisor
)


@pytest.mark.parametrize("den", ZERO_AT_2_3)
def test_div2_divisor_vanishing_at_2_3(den):
    f = {(3, -1): 2, (0, 2): -1, (-1, 0): 5}
    dt, dm = min(t for t, _ in den), min(m for _, m in den)
    assert algebra._eval_at_2_3({(t - dt, m - dm): c for (t, m), c in den.items()}) == 0
    product = poly_mul(L2(f), L2(den)).d
    assert assert_div2_matches_reference(product, den) == f
    # f itself is not a multiple of den
    assert assert_div2_matches_reference(f, den) is NotDivisible


def test_div2_quotient_rational_not_integral():
    # (t + 1) / (2t + 2) = 1/2: values 3 and 6, rejected by the evaluation
    assert assert_div2_matches_reference({(1, 0): 1, (0, 0): 1},
                                         {(1, 0): 2, (0, 0): 2}) is NotDivisible
    # (2t + 2) / (4t + 2): also a non-integral quotient over Q(t)
    assert assert_div2_matches_reference({(1, 0): 2, (0, 0): 2},
                                         {(1, 0): 4, (0, 0): 2}) is NotDivisible


def test_div2_evaluation_passes_but_division_fails():
    # (t + 4) / (t + 1): 6 is divisible by 3, yet there is no quotient
    assert assert_div2_matches_reference({(1, 0): 1, (0, 0): 4},
                                         {(1, 0): 1, (0, 0): 1}) is NotDivisible


def test_div2_negative_exponent_offsets():
    num = poly_mul(L2({(-4, -3): 3, (-2, -1): -1}), L2({(-1, -2): 1, (1, -2): 1, (0, 1): -2}))
    den = {(-1, -2): 1, (1, -2): 1, (0, 1): -2}
    assert assert_div2_matches_reference(num.d, den) == {(-4, -3): 3, (-2, -1): -1}
    assert assert_div2_matches_reference({(-7, 5): 1, (-9, 4): 1}, den) is NotDivisible


def test_div2_rejection_skips_long_division(monkeypatch):
    """A quotient ruled out by the values is rejected before the lex loop."""

    def no_long_division(_key):
        raise AssertionError("long division ran")

    monkeypatch.setattr(algebra, "_lex_key", no_long_division)
    with pytest.raises(NotDivisible):
        algebra._div2({(1, 0): 1, (0, 0): 1}, {(1, 0): 2, (0, 0): 2})


@given(polys2(), polys2(), st.integers(min_value=-4, max_value=4))
@settings(max_examples=60, deadline=None)
def test_substitution_is_ring_map(f, g, n):
    lhs = substitute_M(poly_mul(f, g), n)
    rhs = substitute_M(f, n) * substitute_M(g, n)
    assert lhs == rhs


@given(polys2(), st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4))
@settings(max_examples=60, deadline=None)
def test_shift_composes_and_commutes_with_substitution(f, i, j):
    assert shift_M(shift_M(f, i), j) == shift_M(f, i + j)
    assert substitute_M(shift_M(f, j), i) == substitute_M(f, i + j)


@given(polys2(), polys2(nonzero=True))
@settings(max_examples=40, deadline=None)
def test_limit_agrees_with_cross_multiplication(f, g):
    frac = RationalTM(f, g)
    try:
        lim = limit_t_minus1(frac)
    except PoleAtMinusOne:
        return
    # f/g -> lim means f*lim.den - lim.num*g vanishes at t = -1
    num = IntLaurent2({(0, b): c for b, c in lim.num.items()})
    den = IntLaurent2({(0, b): c for b, c in lim.den.items()})
    residue = poly_mul(frac.num, den) - poly_mul(num, frac.den)
    assert not residue.eval_t_minus1()


@given(polys2(), polys2(nonzero=True))
@settings(max_examples=40, deadline=None)
def test_rational_tm_canonical_idempotent(f, g):
    frac = RationalTM(f, g)
    again = RationalTM(frac.num, frac.den)
    assert again.num == frac.num and again.den == frac.den


@given(polys2(), polys2(nonzero=True), polys2(nonzero=True))
@settings(max_examples=40, deadline=None)
def test_rational_tm_equality_is_projective(f, g, h):
    assert RationalTM(poly_mul(f, h), poly_mul(g, h)) == RationalTM(f, g)


def test_rational_m_reduces_to_canonical_form():
    # (M^2 - 1)/(M - 1) == M + 1 structurally after reduction
    a = RationalM({2: 1, 0: -1}, {1: 1, 0: -1})
    assert a == RationalM({1: 1, 0: 1})
    assert hash(a) == hash(RationalM({1: 1, 0: 1}))


def test_rational_m_arithmetic():
    m = RationalM.monomial(e=1)
    one = RationalM.from_int(1)
    assert (m - one) * (m + one) == RationalM({2: 1, 0: -1})
    assert (m / (m + one)) + (one / (m + one)) == one
