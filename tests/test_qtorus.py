import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ajcable.algebra import IntLaurent1, IntLaurent2, NotDivisible, RationalTM, substitute_M
from ajcable.jones import unknot_sequence
from ajcable.qtorus import SkewOperator, apply_operator, check_annihilation, skew_multiply


def l_power(i):
    return SkewOperator({i: IntLaurent2.one()})


L = l_power(1)
M_OP = SkewOperator({0: IntLaurent2({(0, 1): 1})})
L_MINUS_ONE = SkewOperator({1: IntLaurent2.one(), 0: -IntLaurent2.one()})
L_PLUS_ONE = SkewOperator({1: IntLaurent2.one(), 0: IntLaurent2.one()})


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
    assert lm.coeffs[1] == IntLaurent2({(2, 1): 1})


def test_constant_coefficients_commute():
    assert skew_multiply(L_MINUS_ONE, L_PLUS_ONE) == SkewOperator({0: IntLaurent2({(0, 0): -1}),
                                                2: IntLaurent2({(0, 0): 1})})


def test_l_squared_twists_twice():
    f = SkewOperator({0: IntLaurent2({(0, 1): 1, (0, -1): -1})})
    out = skew_multiply(l_power(2), f)
    assert out.coeffs[2] == IntLaurent2({(4, 1): 1, (-4, -1): -1})


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


# --- annihilation reports ---------------------------------------------------

def test_check_annihilation_pass():
    report = check_annihilation(quantum_integer_op(), unknot_sequence(), 1, 12)
    assert report["pass"]
    assert report["first_failure_n"] is None


def test_check_annihilation_failure_records_residue():
    report = check_annihilation(L_MINUS_ONE, unknot_sequence(), 1, 3)
    assert not report["pass"]
    assert report["first_failure_n"] == 1
    assert report["residue"] == IntLaurent1({2: 1, -2: 1, 0: -1}).text()


def test_check_annihilation_rejects_empty_window():
    with pytest.raises(ValueError, match="empty color window"):
        check_annihilation(quantum_integer_op(), unknot_sequence(), 1, 0)


def test_check_annihilation_reads_below_the_window():
    # L^-1 (1 - (t^2 + t^-2) L + L^2) reads colours n - 1 .. n + 1; at n = 1
    # that is colour 0, where the odd extension puts 0
    shifted = skew_multiply(l_power(-1), quantum_integer_op())
    assert min(shifted.coeffs) == -1
    assert check_annihilation(shifted, unknot_sequence(), 1, 12)["pass"]
    assert check_annihilation([l_power(-1), quantum_integer_op()],
                              unknot_sequence(), 1, 12)["pass"]


# --- checks through a relation ------------------------------------------------
# [quantum_integer_op(), L] annihilates [n] because L carries [n] to [n + 1],
# which the left factor annihilates; that left factor reads colours n .. n + 2.

def _next_quantum_integer(n):
    return unknot_sequence()(n + 1)


def test_check_through_relation_passes():
    report = check_annihilation([quantum_integer_op(), L], unknot_sequence(), 1, 5,
                                through=_next_quantum_integer)
    assert report["pass"] and report["first_failure_n"] is None
    assert report["relation"] == "chain[1:] f = through at colors [1, 7]"
    # a chain of one: f itself is compared with ``through``
    assert check_annihilation(quantum_integer_op(), unknot_sequence(), 1, 5,
                              through=unknot_sequence())["pass"]


def test_check_through_relation_reads_exactly_the_left_window():
    """A ``through`` that is wrong only at the top colour the left factor
    reads (n_hi + 2) fails there; one wrong only just above it passes."""
    bump = IntLaurent1({0: 1})

    def wrong_at(k):
        return lambda n: _next_quantum_integer(n) + (bump if n == k else IntLaurent1())

    ju = unknot_sequence()
    report = check_annihilation([quantum_integer_op(), L], ju, 1, 5, through=wrong_at(7))
    assert not report["pass"]
    assert report["first_failure_n"] == 7
    assert report["residue"] == "-1"
    assert report["relation"] == "chain[1:] f = through at colors [1, 7]"
    assert check_annihilation([quantum_integer_op(), L], ju, 1, 5, through=wrong_at(8))["pass"]
    assert not check_annihilation([quantum_integer_op(), L], ju, 1, 5, through=wrong_at(1))["pass"]


def test_check_through_a_missing_quotient_fails():
    def through(n):
        if n == 3:
            raise NotDivisible("no quotient")
        return _next_quantum_integer(n)

    report = check_annihilation([quantum_integer_op(), L], unknot_sequence(), 1, 5, through=through)
    assert not report["pass"] and report["first_failure_n"] == 3
    assert report["residue"] == "through(3) is not a Laurent polynomial: no quotient"


def test_rational_coefficients_are_refused():
    half = SkewOperator({1: RationalTM(IntLaurent2.one(), IntLaurent2({(0, 1): 1, (0, 0): -1})),
                         0: IntLaurent2.one()})
    with pytest.raises(TypeError, match="L\\^1 is not a polynomial"):
        apply_operator(half, unknot_sequence(), 2)
    with pytest.raises(TypeError, match="L\\^1 is not a polynomial"):
        check_annihilation(half, unknot_sequence(), 1, 4)
    with pytest.raises(TypeError, match="L\\^1 is not a polynomial"):
        check_annihilation([quantum_integer_op(), half], unknot_sequence(), 1, 4)


# --- randomized operator properties -----------------------------------------

coeffs = st.integers(min_value=-5, max_value=5)
exps = st.integers(min_value=-3, max_value=3)
ldeg = st.integers(min_value=0, max_value=2)
lshift = st.integers(min_value=-2, max_value=1)


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


@st.composite
def shifted_operators(draw):
    """Operators whose L-exponents start anywhere in -2..1."""
    return skew_multiply(l_power(draw(lshift)), draw(operators()))


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
        assert isinstance(coeff, IntLaurent2)  # polynomial-coefficient operators only
        staged = staged + substitute_M(coeff, n) * inner[n + i]
    assert composed == staged


@given(shifted_operators(), shifted_operators(), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_chain_check_matches_the_product(a, b, lo, width):
    """The staged chain check of ``[a, b]`` reports exactly what the check
    of the product ``a b`` reports, residue text included."""
    ju = unknot_sequence()
    hi = lo + width
    assert check_annihilation([a, b], ju, lo, hi) == check_annihilation(skew_multiply(a, b), ju, lo, hi)
