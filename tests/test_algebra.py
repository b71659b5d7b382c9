import random
from math import gcd

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_zz_heu_gcd
from sympy.polys.polyerrors import HeuristicGCDFailed

import ajcable.algebra as algebra
from ajcable.aj import LPolynomialOverM
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
    div_qint_den,
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
    """Lex long division of two-variable Laurent dicts with no certificate
    and a scan of the whole remainder for each leading term: the reference
    the certified, heap-ordered ``_div2`` must agree with."""
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
    """A quotient ruled out by the values is rejected before the long division."""

    def no_long_division(_heap):
        raise AssertionError("long division ran")

    monkeypatch.setattr(algebra, "heapify", no_long_division)
    # equal spans, values 3 and 6: the evaluation rejects
    with pytest.raises(NotDivisible):
        algebra._div2({(1, 0): 1, (0, 0): 1}, {(1, 0): 2, (0, 0): 2})
    # the spy is live: a division the certificates pass reaches the loop
    with pytest.raises(AssertionError, match="long division ran"):
        algebra._div2({(2, 0): 1, (0, 0): -1}, {(1, 0): 1, (0, 0): 1})


def spans(d):
    ts, ms = zip(*d)
    return max(ts) - min(ts), max(ms) - min(ms)


def test_div2_unequal_spans_rejected_without_evaluating(monkeypatch):
    def no_evaluation(_d):
        raise AssertionError("evaluated")

    monkeypatch.setattr(algebra, "_eval_at_2_3", no_evaluation)
    den = {(0, 0): 1, (3, 0): 1, (-1, 2): 1}                 # spans (4, 2)
    for num in (
        {(0, 0): 1, (2, 0): 5, (1, 2): 1, (3, 1): -2},         # t-span 3
        {(-9, -3): 1, (7, -2): 4},                             # M-span 1
    ):
        assert spans(num)[0] < 4 or spans(num)[1] < 2
        with pytest.raises(NotDivisible):
            algebra._div2(num, den)


@given(polys2(nonzero=True), polys2(nonzero=True))
@settings(max_examples=200, deadline=None)
def test_div2_span_test_never_rejects_a_product(f, g):
    a = poly_mul(f, g).d
    assert spans(a) == tuple(x + y for x, y in zip(spans(f.d), spans(g.d)))
    assert algebra._div2(a, g.d) == f.d


def test_div2_key_cancelled_and_recreated(monkeypatch):
    """t^4 + t^2 + 1 = (t^2 + t + 1)(t^2 - t + 1): the remainder's t^2 term
    cancels at the first step and is created again at the second, so its
    key is in the heap twice and the stale entry is skipped."""
    pushed = []
    heapify, heappush = algebra.heapify, algebra.heappush
    monkeypatch.setattr(algebra, "heapify", lambda h: (pushed.extend(h), heapify(h)))
    monkeypatch.setattr(algebra, "heappush", lambda h, k: (pushed.append(k), heappush(h, k)))
    num = {(4, 0): 1, (2, 0): 1, (0, 0): 1}
    den = {(2, 0): 1, (1, 0): -1, (0, 0): 1}
    assert assert_div2_matches_reference(num, den) == {(2, 0): 1, (1, 0): 1, (0, 0): 1}
    assert pushed.count((0, -2)) == 2                     # the key of t^2
    assert assert_div2_matches_reference({**num, (3, 1): 1}, den) is NotDivisible


def random_poly2(rng, terms):
    """``terms`` monomials of the size met in the annihilator construction:
    t-exponents over about 120, M-exponents over about 10, some big
    coefficients."""
    d = {}
    while len(d) < terms:
        c = rng.choice((1, -1, 2, -3, 7, rng.randint(-10**12, 10**12) or 1))
        d[(rng.randint(-60, 60), rng.randint(-2, 8))] = c
    return d


@pytest.mark.parametrize("den_terms, quo_terms", [(1, (40, 250)), (2, (20, 125)), (9, (5, 27))])
@pytest.mark.parametrize("seed", range(4))
def test_div2_construction_scale_matches_reference(den_terms, quo_terms, seed):
    rng = random.Random(1000 * seed + den_terms)
    den = random_poly2(rng, den_terms)
    f = random_poly2(rng, rng.randint(*quo_terms))
    product = poly_mul(L2(f), L2(den)).d
    assert 40 <= len(product) <= 250
    assert assert_div2_matches_reference(product, den) == f
    # perturbed products: one coefficient moved, one term added
    for k in (rng.choice(sorted(product)), (rng.randint(-70, 70), rng.randint(-3, 9))):
        assert_div2_matches_reference((L2(product) + L2({k: 1})).d, den)


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
    inverse = RationalM({0: 1}, {1: 1, 0: 1})  # 1 / (M + 1)
    assert (m + RationalM.from_int(-1)) * (m + one) == RationalM({2: 1, 0: -1})
    assert m * inverse + inverse == one
    assert 2 * inverse * (m + one) == RationalM.from_int(2)


# --- RationalM against sympy ----------------------------------------------------

MVAR = sympy.Symbol("M")


def m_expr(terms):
    return sum((c * MVAR**e for e, c in terms), sympy.Integer(0))


def frac_expr(f):
    return m_expr(f.num.items()) / m_expr(f.den.items())


@st.composite
def m_fractions(draw, g):
    """``(num, den)`` dicts: polynomials in ``M^g``, each times its own
    power of M, and half of the time sharing a planted factor in ``M^g``."""

    def poly(nonzero):
        off = draw(st.integers(-3, 3))
        cs = draw(st.lists(st.integers(-4, 4), min_size=1 if nonzero else 0, max_size=4))
        d = {off + g * i: c for i, c in enumerate(cs) if c}
        return d or ({off: draw(st.sampled_from((1, -1, 2)))} if nonzero else {})

    num, den, common = poly(False), poly(True), poly(True)
    if draw(st.booleans()):
        num, den = reference_mul1(num, common), reference_mul1(den, common)
    return num, den


def assert_canonical(f):
    """Denominator min exponent 0 with positive lowest coefficient, content
    1, and no common factor of positive degree."""
    num, den = dict(f.num.items()), dict(f.den.items())
    assert min(den) == 0 and den[0] > 0
    content = 0
    for c in list(num.values()) + list(den.values()):
        content = gcd(content, c)
    assert content == 1
    if num:
        shifted = m_expr((e - min(num), c) for e, c in num.items())
        assert sympy.degree(sympy.gcd(shifted, m_expr(den.items())), MVAR) == 0
    else:
        assert den == {0: 1}


@given(st.integers(1, 4).flatmap(lambda g: st.tuples(m_fractions(g), m_fractions(g), st.integers(1, 4))),
       st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_rational_m_matches_sympy_cancel(operands, k):
    (an, ad), (bn, bd), power = operands
    a, b = RationalM(an, ad), RationalM(bn, bd)
    ea, eb = m_expr(an.items()) / m_expr(ad.items()), m_expr(bn.items()) / m_expr(bd.items())
    results = [(a, ea), (b, eb), (a + b, ea + eb), (a + b * -1, ea - eb), (a * b, ea * eb), (a * k, ea * k)]
    if bn:  # the quotient, as compare_aj forms its ratio
        results.append((RationalM(a.num * b.den, a.den * b.num), ea / eb))
    lifted = LPolynomialOverM({0: a}).substitute_M_power(power).coeffs.get(0, RationalM({}))
    results.append((lifted, ea.subs(MVAR, MVAR**power)))
    for f, expected in results:
        assert sympy.cancel(frac_expr(f) - expected) == 0, (f, expected)
        assert_canonical(f)
        # the same value written with a common factor is the same object
        factor = {e + power: c * k or 1 for e, c in bd.items()}
        again = RationalM(reference_mul1(dict(f.num.items()), factor), reference_mul1(dict(f.den.items()), factor))
        assert again == f and hash(again) == hash(f)


# --- the dense one-variable kernels against the dict kernels and sympy --------
#
# reference_merge, reference_mul1 and reference_div1 are test-local copies of
# the dict kernels that IntLaurent1, and later RationalM, used before they
# became array-backed; the package no longer has a one-variable dict kernel.


def reference_merge(a, b, sign=1):
    r = dict(a)
    for k, c in b.items():
        v = r.get(k, 0) + sign * c
        if v:
            r[k] = v
        else:
            r.pop(k, None)
    return r


def reference_mul1(a, b):
    r = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            k = ea + eb
            v = r.get(k, 0) + ca * cb
            if v:
                r[k] = v
            else:
                del r[k]
    return r


def reference_div1(num, den):
    if not den:
        raise DivByZero("division by zero polynomial")
    if not num:
        return {}
    eb = max(den)
    cb = den[eb]
    q_lo = min(num) - min(den)
    r = dict(num)
    q = {}
    while r:
        ea = max(r)
        ca = r[ea]
        qe = ea - eb
        if qe < q_lo or ca % cb:
            raise NotDivisible("reference")
        qc = ca // cb
        q[qe] = qc
        for e, c in den.items():
            k = e + qe
            v = r.get(k, 0) - qc * c
            if v:
                r[k] = v
            else:
                del r[k]
    return q


def outcome(fn, *args):
    try:
        return fn(*args)
    except NotDivisible:
        return NotDivisible


X = sympy.Symbol("x")


def sympy_terms(expr):
    """{exponent: coefficient} of a Laurent polynomial expression in x."""
    expr = sympy.expand(expr)
    if expr == 0:
        return {}
    low = min(term.as_coeff_exponent(X)[1] for term in sympy.Add.make_args(expr))
    poly = sympy.Poly(sympy.expand(expr * X ** -low), X)
    return {int(m[0]) + int(low): int(c) for m, c in zip(poly.monoms(), poly.coeffs())}


def to_sympy(f):
    return sum((sympy.Integer(c) * X ** e for e, c in f.items()), sympy.Integer(0))


BIG = 1 << 62
dense_coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=BIG - 9, max_value=BIG + 9),        # near 2^62
    st.integers(min_value=-(1 << 63) + 1, max_value=-(1 << 63) + 9),  # at the int64 edge
    st.integers(min_value=1 << 64, max_value=(1 << 64) + 9),  # needs Python ints
)


@st.composite
def dense1(draw, nonzero=False, coeffs=dense_coeffs):
    """An IntLaurent1 built from a raw array with a drawn offset and stride,
    and the dict of its terms."""
    off = draw(st.integers(min_value=-30, max_value=30))
    step = draw(st.sampled_from((1, 2, 3, 4, 8)))
    cs = draw(st.lists(st.one_of(st.just(0), coeffs), min_size=1 if nonzero else 0, max_size=10))
    if nonzero and not any(cs):
        cs[-1] = 1
    fits = all(abs(c) < 1 << 63 for c in cs)
    f = IntLaurent1.from_array(off, step, np.array(cs, dtype=np.int64 if fits else object))
    return f, {off + step * i: c for i, c in enumerate(cs) if c}


@given(dense1(), dense1())
@settings(max_examples=150, deadline=None)
def test_dense_sum_and_difference_match_dict_kernel(fa, fb):
    (a, da), (b, db) = fa, fb
    assert a.d == da and b.d == db
    assert (a + b).d == reference_merge(da, db, 1)
    assert (a - b).d == reference_merge(da, db, -1)
    assert (-a).d == {e: -c for e, c in da.items()}


@given(dense1(), dense1())
@settings(max_examples=120, deadline=None)
def test_dense_product_matches_dict_kernel_and_sympy(fa, fb):
    (a, da), (b, db) = fa, fb
    product = poly_mul(a, b)
    assert product.d == reference_mul1(da, db)
    assert product.d == sympy_terms(to_sympy(da) * to_sympy(db))
    assert (a * b) == product == poly_mul(b, a)


@given(dense1(), st.integers(min_value=-40, max_value=40),
       st.one_of(st.integers(min_value=-3, max_value=3), st.just(BIG), st.just(-(1 << 70))))
@settings(max_examples=100, deadline=None)
def test_dense_scalar_and_monomial_products(fa, e, c):
    a, da = fa
    expected = {k + e: v * c for k, v in da.items() if v * c}
    assert a.mul_tpow(e, c).d == expected
    assert (a * c).mul_tpow(e).d == expected


@given(dense1(), st.sampled_from((0, 1, 2, 3)), st.integers(min_value=-20, max_value=20))
@settings(max_examples=150, deadline=None)
def test_div_qint_den_exact(fa, shift, e):
    """Products with t^2 - t^-2 divide back, for every stride and offset."""
    a, da = fa
    a = a.mul_tpow(e + shift)
    da = {k + e + shift: c for k, c in da.items()}
    product = reference_mul1(da, {2: 1, -2: -1})
    quotient = div_qint_den(IntLaurent1(product))
    assert quotient.d == da == reference_div1(product, {2: 1, -2: -1})


@given(dense1(nonzero=True), dense1(nonzero=True))
@settings(max_examples=150, deadline=None)
def test_div_qint_den_matches_dict_long_division(fa, fb):
    """Arbitrary dividends, mostly not multiples: the same outcome as the
    dict long division, NotDivisible included."""
    (a, da), (b, db) = fa, fb
    for f, d in ((a, da), (a + b, reference_merge(da, db)),
                 (poly_mul(b, QINT) + a, reference_merge(reference_mul1(db, QINT.d), da))):
        expected = outcome(reference_div1, d, QINT.d)
        got = outcome(div_qint_den, f)
        assert (got if got is NotDivisible else got.d) == expected


@given(dense1(), dense1(nonzero=True, coeffs=st.integers(min_value=-5, max_value=5)), dense1())
@settings(max_examples=150, deadline=None)
def test_dense_long_division_matches_dict_kernel(fa, fb, fc):
    (a, da), (b, db), (c, dc) = fa, fb, fc
    product = poly_mul(a, b)
    assert poly_exact_div(product, b) == a
    perturbed = product + c
    expected = outcome(reference_div1, perturbed.d, db)
    got = outcome(poly_exact_div, perturbed, b)
    assert (got if got is NotDivisible else got.d) == expected


QINT = L1({2: 1, -2: -1})


def test_div_qint_den_rejects_a_nonzero_top_partial_sum():
    # t^4 - 1 over t^2 - t^-2 is t^2; t^4 - 2 leaves a remainder in one class
    assert div_qint_den(L1({4: 1, 0: -1})) == L1({2: 1})
    with pytest.raises(NotDivisible):
        div_qint_den(L1({4: 1, 0: -2}))
    # span below 4: no nonzero multiple of t^4 - 1 fits
    with pytest.raises(NotDivisible):
        div_qint_den(L1({1: 1, 0: -1}))
    assert not div_qint_den(L1({}))


def test_int64_bound_selects_the_dtype():
    # products: ||a||_1 * ||b||_inf < 2^63 stays int64, 2^63 itself does not
    a = IntLaurent1.from_array(0, 4, np.array([1 << 61, 1 << 61], dtype=np.int64))
    b = IntLaurent1.from_array(3, 1, np.array([1, -1], dtype=np.int64))
    fits = poly_mul(a, b.mul_tpow(0, 1))
    assert fits.c.dtype == np.int64
    assert fits.d == reference_mul1(a.d, b.d)
    wide = poly_mul(a, b * 2)
    assert wide.c.dtype == object
    assert wide.d == reference_mul1(a.d, (b * 2).d)
    # sums: |a| + |b| near 2^63 overflows int64 but not the object path
    edge = L1({0: (1 << 63) - 1})
    assert edge.c.dtype == np.int64
    total = edge + edge
    assert total.c.dtype == object and total.d == {0: (1 << 64) - 2}
    # an object-path value that becomes small again computes in int64
    assert (total - edge - edge).d == {} and (total - edge).c.dtype == object
    # division: each partial sum is bounded by len(c) * max|c|
    top = (1 << 62) + 1
    f = IntLaurent1.from_array(0, 1, np.array([top, 0, 0, 0, -top], dtype=np.int64))
    assert f.c.size * f.max_abs() >= 1 << 63
    quotient = div_qint_den(f)
    assert quotient.c.dtype == object and quotient.d == reference_div1(f.d, QINT.d)


def test_same_polynomial_on_different_strides():
    fine = IntLaurent1.from_array(-4, 2, np.array([1, 0, 3, 0, -2], dtype=np.int64))
    coarse = IntLaurent1.from_array(-4, 4, np.array([1, 3, -2], dtype=object))
    assert fine == coarse and hash(fine) == hash(coarse)
    assert fine.text() == coarse.text() == "-2*t^4 + 3 + t^-4"
    assert degree_bounds(fine) == degree_bounds(coarse) == (-4, 4)
    assert fine != coarse.mul_tpow(2)
    assert hash(L1({5: 7, -1: 2})) == hash(frozenset({(5, 7), (-1, 2)}))
    # trimming: zero ends never count, and zero is falsy
    padded = IntLaurent1.from_array(0, 3, np.array([0, 0, 5, 0], dtype=np.int64))
    assert padded == L1({6: 5}) and (padded.off, padded.step) == (6, 0)
    assert not IntLaurent1.from_array(7, 2, np.zeros(4, dtype=np.int64))


# --- the heuristic gcd with cofactors against the PRS and sympy -----------------
#
# reference_prim, reference_prem and reference_gcd_dense are copies of the
# primitive pseudo-remainder gcd that RationalM used before GCDHEU.


def reference_deg(u):
    for i in range(len(u) - 1, -1, -1):
        if u[i]:
            return i
    return -1


def reference_prim(u):
    g = 0
    for c in u:
        g = gcd(g, c)
        if g == 1:
            break
    if g > 1:
        u = [c // g for c in u]
    d = reference_deg(u)
    if d >= 0 and u[d] < 0:
        u = [-c for c in u]
    return u[: d + 1] if d >= 0 else []


def reference_prem(u, v):
    dv = reference_deg(v)
    lv = v[dv]
    r = list(u)
    dr = reference_deg(r)
    while dr >= dv:
        lead = r[dr]
        r = [c * lv for c in r]
        shift = dr - dv
        for i in range(dv + 1):
            r[i + shift] -= lead * v[i]
        dr = reference_deg(r)
    return r


def reference_gcd_dense(u, v):
    u = reference_prim(u)
    v = reference_prim(v)
    if not u:
        return v or [1]
    if not v:
        return u
    if reference_deg(u) < reference_deg(v):
        u, v = v, u
    while v:
        r = reference_prim(reference_prem(u, v))
        u, v = v, r
    return u


def dense_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def sympy_gcd(u, v):
    """Primitive part of sympy's gcd (dup lists run high-to-low)."""
    try:
        h = dup_zz_heu_gcd(u[::-1], v[::-1], ZZ)[0]
    except HeuristicGCDFailed:
        h = sympy.Poly(u[::-1], X).gcd(sympy.Poly(v[::-1], X)).all_coeffs()
    return reference_prim([int(c) for c in h[::-1]])


gcd_coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),  # above 2^64
)


@st.composite
def dense_polys(draw, max_len=5):
    """A nonzero dense polynomial (top coefficient nonzero), low-to-high."""
    cs = draw(st.lists(gcd_coeffs, min_size=1, max_size=max_len))
    if not cs[-1]:
        cs[-1] = draw(st.sampled_from((1, -1, 3)))
    return cs


@st.composite
def gcd_pairs(draw):
    """(u, v): free (mostly coprime), a planted common factor, one dividing
    the other, or equal; each scaled by an integer content of either sign
    and sometimes shifted by a power of x."""
    f, g, h = draw(dense_polys()), draw(dense_polys()), draw(dense_polys())
    kind = draw(st.sampled_from(("free", "common", "divides", "equal")))
    if kind == "free":
        u, v = f, g
    elif kind == "common":
        u, v = dense_mul(f, h), dense_mul(g, h)
    elif kind == "divides":
        u, v = dense_mul(f, h), h
    else:
        u = v = dense_mul(f, h)
    contents = st.one_of(st.sampled_from((1, -1, 2, -6, 12)), st.integers(1, 1 << 66))
    ku, kv = draw(contents), draw(contents)
    su, sv = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    return [0] * su + [c * ku for c in u], [0] * sv + [c * kv for c in v]


def assert_gcd_with_cofactors(u, v):
    g, cu, cv = algebra._gcd_dense(u, v)
    assert g == reference_gcd_dense(u, v) == sympy_gcd(u, v), (u, v)
    assert g[-1] > 0
    assert dense_mul(g, cu) == u and dense_mul(g, cv) == v, (u, v)


@given(gcd_pairs())
@settings(max_examples=300, deadline=None)
def test_heuristic_gcd_matches_prs_and_sympy(pair):
    assert_gcd_with_cofactors(*pair)


@given(gcd_pairs())
@settings(max_examples=100, deadline=None)
def test_prs_completion_matches_reference(pair):
    # with no evaluation point the PRS and the long division decide alone
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_HEU_TRIES", 0)
        assert_gcd_with_cofactors(*pair)


@given(gcd_pairs())
@settings(max_examples=100, deadline=None)
def test_every_evaluation_point_meets_the_bound(pair):
    u, v = pair
    widths = []
    real = algebra._heu_candidate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_heu_candidate", lambda gamma, w: widths.append(w) or real(gamma, w))
        algebra._gcd_dense(u, v)
    bound = 2 * max(abs(c) for c in u + v) + 2
    assert all(1 << 8 * w >= bound for w in widths), (widths, bound)


# (x^2 + 1)(x - 3) and (x^2 + 1)(2x + 5), and products with coefficients
# beyond 2^64 and negative leading coefficients
GCD_CASES = (
    ([-3, 1, -3, 1], [5, 2, 5, 2], [1, 0, 1]),
    (dense_mul([3, -(1 << 70), 5], [(1 << 66) - 1, 7, 1]),
     dense_mul([1, 1 << 65, -4], [(1 << 66) - 1, 7, 1]), [(1 << 66) - 1, 7, 1]),
    (dense_mul([-2, 0, -(1 << 64)], [4, -9]), [-12, 27], [-4, 9]),
)


@pytest.mark.parametrize("u, v, expected", GCD_CASES)
def test_heuristic_decides_at_its_first_point(monkeypatch, u, v, expected):
    """Ordinary inputs are settled by one evaluation; the PRS is a
    completion, not the common path."""
    points = []
    real = algebra._heu_candidate
    monkeypatch.setattr(algebra, "_heu_candidate", lambda gamma, w: points.append(w) or real(gamma, w))
    monkeypatch.setattr(algebra, "_gcd_prs", None)
    g, cu, cv = algebra._gcd_dense(u, v)
    assert g == expected and len(points) == 1
    assert dense_mul(g, cu) == u and dense_mul(g, cv) == v


def test_rejected_candidates_fall_back_to_the_prs(monkeypatch):
    """A candidate that divides neither input is rejected at every point,
    and the PRS gives the gcd."""
    wrong = [1, 1, 0, 1]  # x^3 + x + 1
    monkeypatch.setattr(algebra, "_heu_candidate", lambda gamma, w: (wrong, algebra._pack(wrong, w)))
    prs_calls = []
    real_prs = algebra._gcd_prs
    monkeypatch.setattr(algebra, "_gcd_prs", lambda a, b: prs_calls.append(1) or real_prs(a, b))
    u, v, expected = GCD_CASES[0]
    g, cu, cv = algebra._gcd_dense(u, v)
    assert g == expected and prs_calls == [1]
    assert dense_mul(g, cu) == u and dense_mul(g, cv) == v


def test_value_quotient_accepts_only_what_the_digits_prove():
    # (x + 1)(100x - 100): at xi = 2^8 the digits give the right quotient,
    # but g q could carry a coefficient of 2 * 100 >= xi/2, so no proof
    u, g, q = [-100, 0, 100], [1, 1], [-100, 100]
    assert dense_mul(g, q) == u
    for w, expected in ((1, None), (2, q)):
        xi = 1 << 8 * w
        assert algebra._value_quotient(algebra._pack(u, w), 100, g, xi + 1, w) == expected
    # a remainder at xi rejects: x + 2 does not divide x^2 + 1
    assert algebra._value_quotient(algebra._pack([1, 0, 1], 1), 1, [2, 1], 258, 1) is None


@given(st.integers(min_value=1, max_value=10), st.data())
@settings(max_examples=80, deadline=None)
def test_pack_and_unpack_invert_each_other(w, data):
    half = 1 << (8 * w - 1)
    digit = st.one_of(st.integers(-half, half - 1), st.sampled_from((-half, half - 1, 0)))
    u = data.draw(st.lists(digit, min_size=1, max_size=8))
    value = algebra._pack(u, w)
    assert value == sum(c << (8 * w * i) for i, c in enumerate(u))
    trimmed = u[: reference_deg(u) + 1]
    assert algebra._unpack(value, w) == trimmed
