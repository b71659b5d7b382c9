import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ajcable.algebra import IntLaurent1, IntLaurent2, NotDivisible, RationalTM
from ajcable.jones import CablingParams, cable_step_coefficients, unknot_sequence
from ajcable.qtorus import (
    DiscreteSequence,
    SkewOperator,
    apply_operator,
    check_annihilation,
    clear_denominators,
    skew_multiply,
)

L = SkewOperator.l_power(1)
M_OP = SkewOperator({0: IntLaurent2({(0, 1): 1})})
ONE = SkewOperator.identity()


def quantum_integer_op():
    # 1 - (t^2 + t^-2) L + L^2, the order-two recurrence of the quantum integers
    return SkewOperator(
        {0: IntLaurent2({(0, 0): 1}),
         1: IntLaurent2({(2, 0): -1, (-2, 0): -1}),
         2: IntLaurent2({(0, 0): 1})}
    )


# --- the twist -------------------------------------------------------------

def test_twist_relation():
    lm = skew_multiply(L, M_OP)
    ml = skew_multiply(M_OP, L)
    t2 = SkewOperator({0: IntLaurent2({(2, 0): 1})})
    assert lm == skew_multiply(t2, ml)
    assert lm.coeffs[1] == RationalTM.from_poly(IntLaurent2({(2, 1): 1}))


def test_constant_coefficients_commute():
    a = L - ONE
    b = L + ONE
    assert skew_multiply(a, b) == SkewOperator({0: IntLaurent2({(0, 0): -1}),
                                                2: IntLaurent2({(0, 0): 1})})


def test_l_squared_twists_twice():
    f = SkewOperator({0: IntLaurent2({(0, 1): 1, (0, -1): -1})})
    out = skew_multiply(SkewOperator.l_power(2), f)
    assert out.coeffs[2] == RationalTM.from_poly(
        IntLaurent2({(4, 1): 1, (-4, -1): -1})
    )


# --- the action ------------------------------------------------------------

def test_m_action_scales_by_t_2n():
    ju = unknot_sequence()
    assert apply_operator(M_OP, ju, 2) == IntLaurent1({6: 1, 2: 1})


def test_l_action_shifts_color():
    ju = unknot_sequence()
    assert apply_operator(L, ju, 1) == IntLaurent1({2: 1, -2: 1})


def test_quantum_integer_recurrence_annihilates():
    ju = unknot_sequence()
    op = quantum_integer_op()
    for n in range(1, 11):
        assert not apply_operator(op, ju, n)


# --- denominator clearing --------------------------------------------------

def test_clear_denominators_binomial():
    # (1/(M-1)) L + 1: the multiplier is the canonical associate 1 - M of
    # the lone denominator, and every cleared coefficient is polynomial.
    m_minus_1 = IntLaurent2({(0, 1): 1, (0, 0): -1})
    p = SkewOperator({1: RationalTM(IntLaurent2({(0, 0): 1}), m_minus_1),
                      0: IntLaurent2({(0, 0): 1})})
    pc, c = clear_denominators(p)
    assert c == IntLaurent2({(0, 0): 1, (0, 1): -1})
    assert pc == SkewOperator({1: IntLaurent2({(0, 0): -1}),
                               0: IntLaurent2({(0, 0): 1, (0, 1): -1})})
    assert skew_multiply(SkewOperator({0: c}), p) == pc


def test_clear_denominators_polynomial_is_identity():
    p = quantum_integer_op()
    pc, c = clear_denominators(p)
    assert pc == p
    assert c == IntLaurent2.one()


def test_clear_denominators_cable_step_factor():
    # a^-1 (L^2 - gamma) for (3,2,13,2).  The stored denominator of a^-1 is
    # the canonical associate 1 - t^4 M^2 of a = -t^-78 M^-39 (1 - t^4 M^2),
    # so that associate is the multiplier; the cleared operator keeps the
    # matching unit monomials on each coefficient.
    params = CablingParams(3, 2, 13, 2)
    coeffs = cable_step_coefficients(params)
    a = coeffs["torus"]
    gamma = coeffs["step"]
    assert a == IntLaurent2({(-74, -37): 1, (-78, -39): -1})
    assert gamma == IntLaurent2({(-104, -52): 1})
    a_inv = RationalTM(IntLaurent2({(0, 0): 1}), a)
    p = SkewOperator({2: a_inv, 0: a_inv * RationalTM.from_poly(-gamma)})
    pc, c = clear_denominators(p)
    assert c == IntLaurent2({(0, 0): 1, (4, 2): -1})
    assert pc == SkewOperator({2: IntLaurent2({(78, 39): -1}),
                               0: IntLaurent2({(-26, -13): 1})})
    assert skew_multiply(SkewOperator({0: c}), p) == pc
    # c is a unit multiple of a itself: their ratio is a single monomial.
    ratio = RationalTM(c, a)
    assert len(ratio.num.d) == 1 and ratio.den == IntLaurent2.one()


# --- annihilation reports ---------------------------------------------------

def test_check_annihilation_pass():
    report = check_annihilation(quantum_integer_op(), unknot_sequence(), 1, 12)
    assert report["pass"]
    assert report["first_failure_n"] is None


def test_check_annihilation_failure_records_residue():
    report = check_annihilation(L - ONE, unknot_sequence(), 1, 3)
    assert not report["pass"]
    assert report["first_failure_n"] == 1
    assert report["residue"] == IntLaurent1({2: 1, -2: 1, 0: -1}).text()


def test_check_annihilation_rejects_empty_window():
    with pytest.raises(ValueError, match="empty color window"):
        check_annihilation(quantum_integer_op(), unknot_sequence(), 1, 0)


# --- randomized operator properties -----------------------------------------

coeffs = st.integers(min_value=-5, max_value=5)
exps = st.integers(min_value=-3, max_value=3)
ldeg = st.integers(min_value=0, max_value=2)


@st.composite
def operators(draw):
    terms = {}
    for i in range(draw(ldeg) + 1):
        n = draw(st.integers(min_value=0, max_value=2))
        d = {(draw(exps), draw(exps)): draw(coeffs) for _ in range(n)}
        poly = IntLaurent2(d)
        if poly:
            terms[i] = poly
    if not terms:
        terms[0] = IntLaurent2({(0, 0): 1})
    return SkewOperator(terms)


@given(operators(), operators(), operators())
@settings(max_examples=40, deadline=None)
def test_skew_multiply_associative(a, b, c):
    assert skew_multiply(skew_multiply(a, b), c) == skew_multiply(a, skew_multiply(b, c))


@given(operators(), operators(), st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_action_respects_composition(a, b, n):
    ju = unknot_sequence()
    composed = apply_operator(skew_multiply(a, b), ju, n)
    inner = {}
    lo = min(a.coeffs) if a.coeffs else 0
    hi = max(a.coeffs) if a.coeffs else 0
    for k in range(n + min(lo, 0), n + hi + 1):
        inner[k] = apply_operator(b, ju, k)
    staged = IntLaurent1({})
    for i, coeff in a.coeffs.items():
        from ajcable.algebra import substitute_M

        num = substitute_M(coeff.num, n)
        den = substitute_M(coeff.den, n)
        assert den == IntLaurent1({0: 1})  # polynomial-coefficient operators only
        staged = staged + num * inner[n + i]
    assert composed == staged


@given(operators())
@settings(max_examples=30, deadline=None)
def test_clear_denominators_is_left_multiplication(p):
    pc, c = clear_denominators(p)
    assert skew_multiply(SkewOperator({0: c}), p) == pc


@given(operators(), st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_rational_coefficients_take_the_division_path(p, n):
    """Dividing every coefficient by 1 + t^2 and multiplying the sequence by
    it leaves the action unchanged; the fractions run through the long
    division instead of the shifted sum."""
    den = IntLaurent2({(2, 0): 1, (0, 0): 1})
    divided = SkewOperator({i: c * RationalTM(IntLaurent2.one(), den) for i, c in p.coeffs.items()})
    # a p whose coefficients are all multiples of 1 + t^2 (e.g. t - t^-3)
    # stays polynomial and would not take the division path
    assume(p.is_zero() or not divided.has_polynomial_coeffs())
    ju = unknot_sequence()
    scaled = DiscreteSequence(lambda k: IntLaurent1({2: 1, 0: 1}) * ju(k))
    assert apply_operator(divided, scaled, n) == apply_operator(p, ju, n)
    with pytest.raises(NotDivisible):
        apply_operator(SkewOperator({0: RationalTM(IntLaurent2.one(), den)}), ju, n)
