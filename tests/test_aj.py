"""Annihilator construction, closed forms at t = -1, and the A-polynomial match."""

import dataclasses
import importlib.resources
from math import gcd

import pytest

import ajcable.aj as aj
from ajcable.algebra import (
    IntLaurent1,
    IntLaurent2,
    PoleAtMinusOne,
    RationalM,
    RationalTM,
    div_qint_den,
    limit_t_minus1,
    poly_mul,
    shift_M,
    substitute_M,
)
from ajcable.aj import (
    LPolynomialOverM,
    b_minus1_closed_form,
    build_ab,
    build_annihilator,
    cabled_a_polynomial,
    cabled_a_polynomial_factors,
    case_l_degree,
    case_tag,
    compare_aj,
    default_grid,
    determinant_check,
    determinant_closed_form,
    evaluate_annihilator_at_minus1,
    f_poly,
    g_poly,
    verify_tuple,
)
from ajcable.jones import (
    PEEL_STEP,
    BadParams,
    CablingParams,
    cable_sequence,
    cable_step_coefficients,
    peel,
    symbolic_delta,
)
from ajcable.qtorus import SkewOperator, apply_operator, check_annihilation, skew_multiply

# one representative tuple per construction regime
REPRESENTATIVES = {
    "S_EQ_2": CablingParams(3, 2, 13, 2),
    "S_EVEN_GT2": CablingParams(5, 3, 121, 4),
    "S_ODD_Q2": CablingParams(3, 2, 31, 3),
    "S_ODD_QGT2": CablingParams(5, 3, 76, 5),
}

NEGATIVE_P = (
    CablingParams(-5, 3, -1, 2),
    CablingParams(-3, 2, -1, 3),
    CablingParams(-3, 2, -7, 4),
    CablingParams(-5, 3, -7, 3),
)


def mono(c, e):
    return RationalM.monomial(c, e)


def lp(d):
    return LPolynomialOverM(
        {i: c if isinstance(c, RationalM) else RationalM.from_int(c) for i, c in d.items()}
    )


def monic(f):
    lead = f.coeffs[f.l_degree()]
    return LPolynomialOverM({i: c / lead for i, c in f.coeffs.items()})


# --- case dispatch -----------------------------------------------------------

def test_case_tags():
    assert case_tag(CablingParams(3, 2, 13, 2)) == "S_EQ_2"
    assert case_tag(CablingParams(5, 3, 121, 4)) == "S_EVEN_GT2"
    assert case_tag(CablingParams(3, 2, 31, 3)) == "S_ODD_Q2"
    assert case_tag(CablingParams(5, 3, 76, 5)) == "S_ODD_QGT2"
    assert case_tag(CablingParams(-5, 3, -7, 3)) == "S_ODD_QGT2"


def test_case_l_degrees():
    assert case_l_degree("S_EQ_2") == 3
    assert case_l_degree("S_EVEN_GT2") == 4
    assert case_l_degree("S_ODD_Q2") == 4
    assert case_l_degree("S_ODD_QGT2") == 5


# --- classical A-polynomial factors -------------------------------------------

def test_f_poly_frozen():
    assert f_poly(3, 2) == lp({1: mono(1, 6), 0: 1})
    assert f_poly(-3, 2) == lp({1: 1, 0: mono(1, 6)})
    assert f_poly(5, 3) == lp({2: mono(1, 30), 0: -1})
    assert f_poly(-5, 3) == lp({2: 1, 0: mono(-1, 30)})


def test_g_poly_frozen():
    assert g_poly(3, 2) == lp({1: mono(1, 6), 0: -1})
    assert g_poly(-3, 2) == lp({1: 1, 0: mono(-1, 6)})
    assert g_poly(5, 3) == lp({1: mono(1, 15), 0: -1})


def test_fg_poly_guards():
    with pytest.raises(BadParams):
        f_poly(4, 2)
    with pytest.raises(BadParams):
        g_poly(0, 3)
    with pytest.raises(BadParams):
        f_poly(3, 1)


def test_cabled_a_polynomial_frozen():
    expected = lp({1: 1, 0: -1}) * lp({1: mono(1, 26), 0: 1}) * lp({1: mono(1, 24), 0: -1})
    assert cabled_a_polynomial(CablingParams(3, 2, 13, 2)) == expected

    expected = lp({1: 1, 0: -1}) * lp({2: mono(1, 186), 0: -1}) * lp({1: mono(1, 54), 0: 1})
    assert cabled_a_polynomial(CablingParams(3, 2, 31, 3)) == expected

    expected = lp({1: 1, 0: -1}) * lp({1: 1, 0: mono(1, 2)}) * lp({1: mono(1, 60), 0: -1})
    assert cabled_a_polynomial(CablingParams(5, 3, -1, 2)) == expected


def test_cabled_a_polynomial_factor_shapes():
    facs = cabled_a_polynomial_factors(CablingParams(5, 3, 76, 5))
    assert len(facs) == 3
    assert facs[0] == lp({1: 1, 0: -1})
    # odd s: the companion factor is the two-step torus factor at M^(s^2)
    assert facs[2] == lp({2: mono(1, 750), 0: -1})


# --- the composed relation's coefficients ---------------------------------------

def test_build_ab_frozen_s2():
    a, b = build_ab(CablingParams(3, 2, 13, 2))
    assert a == IntLaurent2({(-74, -37): 1, (-78, -39): -1})
    assert b.den == IntLaurent2.one()
    assert b.num == IntLaurent2(
        {(-42, -22): 1, (-30, -14): -1, (-22, -10): -1, (-2, -2): 1}
    )
    # value at t = -1: every t-exponent is even, so signs survive unchanged
    assert limit_t_minus1(b) == RationalM({-22: 1, -14: -1, -10: -1, -2: 1})


def test_b_limit_matches_closed_form_everywhere():
    for params in list(REPRESENTATIVES.values()) + list(NEGATIVE_P):
        b = build_ab(params)[1]
        value = limit_t_minus1(b)
        assert value == b_minus1_closed_form(params), params
        assert not value.is_zero(), params


def test_a_regular_nonzero_at_minus1():
    for params in REPRESENTATIVES.values():
        a = build_ab(params)[0]
        value = limit_t_minus1(RationalTM.from_poly(a))
        assert not value.is_zero(), params


# --- bundle structure and annihilation ---------------------------------------

@pytest.mark.parametrize("tag", sorted(REPRESENTATIVES))
def test_bundle_structure_and_annihilation(tag):
    params = REPRESENTATIVES[tag]
    bundle = build_annihilator(params)
    assert bundle.case_tag == tag
    assert bundle.P.l_degree() == case_l_degree(tag)
    # the recorded factors multiply out (skew product) to P
    prod = bundle.factors[0]
    for fac in bundle.factors[1:]:
        prod = skew_multiply(prod, fac)
    assert prod == bundle.P
    # the denominator-free chain annihilates the cable sequence exactly
    report = check_annihilation(bundle.cleared_chain(), cable_sequence(params), 1, 12)
    assert report["pass"], report


def test_negative_p_annihilation():
    for params in NEGATIVE_P:
        bundle = build_annihilator(params)
        report = check_annihilation(bundle.cleared_chain(), cable_sequence(params), 1, 8)
        assert report["pass"], (params, report)


def _relation_rhs(bundle):
    """h(n) = cleared_rhs(t, t^(2n)) / (t^2 - t^-2), the sequence the left
    factor of the cleared chain annihilates."""
    return lambda n: div_qint_den(substitute_M(bundle.cleared_rhs, n))


@pytest.mark.parametrize("tag", sorted(REPRESENTATIVES))
def test_left_factor_annihilates_the_relation_rhs(tag):
    """The lemma behind the relation check: (y L - y(t, t^2 M)) h = 0."""
    bundle = build_annihilator(REPRESENTATIVES[tag])
    left, h = bundle.cleared_chain()[0], _relation_rhs(bundle)
    for n in range(1, 13):
        assert not apply_operator(left, h, n), (tag, n)


@pytest.mark.parametrize("tag", sorted(REPRESENTATIVES))
def test_relation_check_agrees_with_the_chain(tag):
    """The cleared body carries the cable values to h on the colours the
    left factor reads, and the relation's verdict is the whole chain's."""
    params = REPRESENTATIVES[tag]
    bundle = build_annihilator(params)
    chain, seq = bundle.cleared_chain(), cable_sequence(params)
    report = check_annihilation(chain, seq, 1, 12, _relation_rhs(bundle))
    assert report["pass"], report
    assert report["relation"] == "chain[1:] f = through at colors [1, 13]"
    assert check_annihilation(chain, seq, 1, 12)["pass"]


def _bump(poly, t_shift=0, c=1):
    """``poly`` with its first term moved by t^t_shift and scaled by c + 1."""
    (te, me), coeff = next(iter(poly.d.items()))
    return poly - IntLaurent2({(te, me): coeff}) + IntLaurent2({(te + t_shift, me): coeff * (c + 1)})


def _perturbed_body(body, bump=_bump):
    i = min(body.coeffs)
    coeffs = dict(body.coeffs)
    coeffs[i] = bump(coeffs[i])
    return SkewOperator(coeffs)


# (M - t^2)(M - t^4) realizes to zero at colours 1 and 2 only
LATE_BUMP = IntLaurent2({(0, 2): 1, (2, 1): -1, (4, 1): -1, (6, 0): 1})


# (id, perturbation of the bundle, first colour at which the relation fails)
PERTURBATIONS = [
    # h(n) is then not divisible by t^2 - t^-2 at any colour
    ("rhs-coefficient", lambda b: dataclasses.replace(b, cleared_rhs=_bump(b.cleared_rhs)), 1),
    # a term times t^4: h(n) stays a Laurent polynomial but moves
    ("rhs-exponent", lambda b: dataclasses.replace(b, cleared_rhs=_bump(b.cleared_rhs, t_shift=4, c=0)), 1),
    ("body-coefficient", lambda b: dataclasses.replace(b, cleared_body=_perturbed_body(b.cleared_body)), 1),
    ("body-from-colour-3",
     lambda b: dataclasses.replace(b, cleared_body=_perturbed_body(b.cleared_body, LATE_BUMP.__add__)), 3),
]


@pytest.mark.parametrize("tag", sorted(REPRESENTATIVES))
@pytest.mark.parametrize("perturb", [p for _, p, _ in PERTURBATIONS], ids=[i for i, _, _ in PERTURBATIONS])
def test_perturbed_cleared_form_fails_annihilation(monkeypatch, tag, perturb):
    real = aj.build_annihilator
    monkeypatch.setattr(aj, "build_annihilator", lambda params: perturb(real(params)))
    record = verify_tuple(REPRESENTATIVES[tag], nmax=4)
    assert record["annihilates"] is False and record["pass"] is False


@pytest.mark.parametrize("tag", sorted(REPRESENTATIVES))
@pytest.mark.parametrize(("perturb", "first"), [(p, n) for _, p, n in PERTURBATIONS],
                         ids=[i for i, _, _ in PERTURBATIONS])
def test_numerator_relation_fails_at_the_value_relation_colour(monkeypatch, tag, perturb, first):
    """``verify_tuple`` checks ``body N = y`` on the numerators ``N = D J``;
    on a perturbed form it fails at the colour where the value relation
    ``body J = y / D`` does, since D is a nonzero element of a domain."""
    params = REPRESENTATIVES[tag]
    bundle = perturb(build_annihilator(params))
    reports = []

    def spy(*args, **kwargs):
        reports.append(check_annihilation(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(aj, "build_annihilator", lambda _params: bundle)
    monkeypatch.setattr(aj, "check_annihilation", spy)
    verify_tuple(params, nmax=4)
    by_values = check_annihilation(bundle.cleared_chain(), cable_sequence(params), 1, 4, _relation_rhs(bundle))
    assert len(reports) == 1
    assert reports[0]["first_failure_n"] == by_values["first_failure_n"] == first


# --- determinant checks -----------------------------------------------------

def test_determinant_check_all_cases():
    for params in list(REPRESENTATIVES.values()) + list(NEGATIVE_P):
        report = determinant_check(params)
        assert report["pass"], (params, report)
        assert report["b_matches_closed_form"] and report["b_nonzero"]
        if report["case_tag"] == "S_EQ_2":
            assert report["determinant_applicable"] is False
        else:
            assert report["determinant_applicable"] is True
            assert report["determinant_matches"] and report["determinant_nonzero"]


@pytest.mark.parametrize("name, field", [
    ("_b_minus1_products", "b_matches_closed_form"),
    ("_determinant_products", "determinant_matches"),
])
def test_determinant_check_rejects_perturbed_closed_form(monkeypatch, name, field):
    """The cross-multiplied comparison sees a closed form off by a factor
    that does not cancel (M + 1 on top) and one off by a unit (M)."""
    params = REPRESENTATIVES["S_ODD_QGT2"]
    real = getattr(aj, name)
    for factor in (IntLaurent1({1: 1, 0: 1}), IntLaurent1({1: 1})):
        monkeypatch.setattr(aj, name, lambda p: (real(p)[0] * factor, real(p)[1]))
        report = determinant_check(params)
        assert report[field] is False and report["pass"] is False
    monkeypatch.setattr(aj, name, real)
    assert determinant_check(params)[field] is True


def test_determinant_check_reuses_given_b():
    for params in REPRESENTATIVES.values():
        assert determinant_check(params, build_annihilator(params)) == determinant_check(params)


def determinant_definitional(params):
    """The paper's 2x2 elimination, regime by regime (reference copy).

    Returns a numerator-form polynomial still carrying one factor of
    ``t^2 - t^-2``.
    """
    p, q, s = params.p, params.q, params.s
    pq = p * q
    pqs = pq * s
    tag = case_tag(params)
    step = cable_step_coefficients(params)
    gamma, a, mu1 = step["step"], step["torus"], step["delta"]

    def dnum(b_const):
        return symbolic_delta(p, q, s, b_const)

    if tag == "S_ODD_QGT2":
        beta = IntLaurent2.monomial(1, -8 * pq * s * s + 4 * pqs, -2 * pq * s * s)
        a4 = shift_M(a, 2)
        gamma4 = shift_M(gamma, 2)
        mu3 = shift_M(mu1, 2)
        s_num = peel("S", p, q, s)[1]
        a22 = a
        a24 = poly_mul(a4, beta) + poly_mul(gamma4, a)
        b02 = poly_mul(mu1, dnum(s - 1))
        b04 = (
            poly_mul(poly_mul(gamma4, mu1), dnum(s - 1))
            + poly_mul(mu3, dnum(3 * s - 1))
            + poly_mul(a4, s_num)
        )
        return poly_mul(a22, b04) - poly_mul(a24, b02)
    if tag == "S_ODD_Q2":
        eta = IntLaurent2.monomial(1, 4 * p * s - 6 * p * s * s, -2 * p * s * s)
        a2 = shift_M(a, 1)
        mu2p = shift_M(mu1, 1)
        u_num = peel("U", p, q, s)[1]
        alpha2 = a
        alpha3 = -poly_mul(eta, a2)
        beta2 = poly_mul(mu1, dnum(s - 1))
        beta3 = poly_mul(a2, u_num) + poly_mul(mu2p, dnum(2 * s - 1))
        return poly_mul(alpha3, beta2) - poly_mul(alpha2, beta3)
    if tag == "S_EVEN_GT2":
        nu = IntLaurent2.monomial(1, -3 * pq * s * s + 2 * pqs, -pq * s * s)
        a2 = shift_M(a, 1)
        mu2 = shift_M(mu1, 1)
        v_num = peel("V", p, q, s)[1]
        c3 = poly_mul(a2, nu)
        c2 = a
        e2 = poly_mul(mu1, dnum(s - 1))
        e3 = poly_mul(mu2, dnum(2 * s - 1)) + poly_mul(a2, v_num)
        return poly_mul(c3, e2) - poly_mul(c2, e3)
    raise BadParams("no determinant in the s = 2 regime")


def test_determinant_is_signed_cleared_rhs():
    """On every stock tuple with s > 2 the 2x2 elimination's determinant is
    the table's sign times the cleared inhomogeneity y."""
    checked = 0
    for params in default_grid():
        tag = case_tag(params)
        if tag == "S_EQ_2":
            continue
        sign = aj.PEEL_REGIMES[tag][1]
        assert determinant_definitional(params) == build_annihilator(params).cleared_rhs * sign, params
        checked += 1
    assert checked == 66


def test_determinant_closed_form_s2_unavailable():
    with pytest.raises(BadParams):
        determinant_closed_form(CablingParams(3, 2, 13, 2))


# --- AJ comparison ------------------------------------------------------------

NAMED_MATCHES = (
    CablingParams(3, 2, 31, 3),
    CablingParams(5, 3, 76, 5),
    CablingParams(5, 3, 121, 4),
    CablingParams(3, 2, 13, 2),
    CablingParams(-5, 3, -7, 4),
)


def test_compare_aj_named_tuples():
    for params in NAMED_MATCHES:
        report = compare_aj(params)
        assert report["pass"], (params, report)
        assert report["projective_match"] and report["zero_pattern_equal"]
        assert report["ratio"] is not None


def test_compare_aj_negative_control(monkeypatch):
    # flipping one sign in the classical polynomial must break the match
    real = cabled_a_polynomial

    def perturbed(params):
        f = real(params)
        flipped = dict(f.coeffs)
        low = min(flipped)
        flipped[low] = RationalM.from_int(0) - flipped[low]
        return LPolynomialOverM(flipped)

    monkeypatch.setattr(aj, "cabled_a_polynomial", perturbed)
    report = compare_aj(CablingParams(3, 2, 13, 2))
    assert not report["pass"]
    assert not report["projective_match"]
    assert report["zero_pattern_equal"] and report["ratio"] is None


def test_minus1_shapes_by_case():
    # the evaluated operator is a rational multiple of an explicit product
    shapes = {
        "S_EQ_2": lp({1: 1, 0: -1})
        * lp({1: 1, 0: mono(-1, -24)})
        * lp({1: 1, 0: mono(1, -26)}),
        "S_ODD_Q2": lp({1: 1, 0: -1})
        * lp({1: 1, 0: mono(1, -54)})
        * lp({2: 1, 0: mono(-1, -186)}),
        "S_EVEN_GT2": lp({1: 1, 0: -1})
        * lp({1: 1, 0: mono(-1, -240)})
        * lp({2: 1, 0: mono(-1, -968)}),
        "S_ODD_QGT2": lp({1: 1, 0: -1})
        * lp({2: 1, 0: mono(-1, -750)})
        * lp({2: 1, 0: mono(-1, -760)}),
    }
    for tag, params in REPRESENTATIVES.items():
        evaluated = evaluate_annihilator_at_minus1(build_annihilator(params))
        assert monic(evaluated) == monic(shapes[tag]), tag


def test_minus1_shape_matches_classical_polynomial_monically():
    for params in REPRESENTATIVES.values():
        evaluated = evaluate_annihilator_at_minus1(build_annihilator(params))
        assert monic(evaluated) == monic(cabled_a_polynomial(params)), params


# --- per-tuple pipeline and the stock grid --------------------------------------

def test_verify_tuple_record():
    record = verify_tuple(CablingParams(3, 2, 13, 2), nmax=6)
    for key in (
        "params",
        "case_tag",
        "L_degree",
        "annihilates",
        "n_checked",
        "b_at_minus1",
        "aj_match",
        "determinant_ok",
        "theorem_applies",
        "identities_pass",
        "identities",
        "pass",
    ):
        assert key in record, key
    assert record["pass"]
    assert record["case_tag"] == "S_EQ_2"
    assert record["L_degree"] == 3
    assert record["n_checked"] == [1, 6]
    assert record["theorem_applies"] is True  # r = 13 lies above pqs = 12


@pytest.mark.parametrize("nmax", [0, -1])
def test_verify_tuple_rejects_empty_window(nmax):
    with pytest.raises(ValueError, match="nmax must be at least 1"):
        verify_tuple(CablingParams(3, 2, 13, 2), nmax=nmax)


def test_verify_tuple_builds_once(monkeypatch):
    """verify_tuple hands its bundle to determinant_check, so the
    construction runs once per tuple."""
    calls = []
    real = aj.build_annihilator
    monkeypatch.setattr(aj, "build_annihilator", lambda params: calls.append(params) or real(params))
    assert verify_tuple(CablingParams(3, 2, 13, 2), nmax=3)["pass"]
    assert len(calls) == 1


@pytest.mark.parametrize("tag", sorted(REPRESENTATIVES))
def test_verify_tuple_never_expands_P(monkeypatch, tag):
    """verify_tuple reads the L-degree from the factors and evaluates them
    at t = -1 one by one: the only skew products are the polynomial cleared
    body's, one for s > 2 and two for s = 2."""
    built, operands = [], []
    real_build, real_multiply = aj.build_annihilator, aj.skew_multiply

    def multiply(p, q):
        operands.extend((p, q))
        return real_multiply(p, q)

    monkeypatch.setattr(aj, "build_annihilator", lambda params: built.append(real_build(params)) or built[-1])
    monkeypatch.setattr(aj, "skew_multiply", multiply)
    record = verify_tuple(REPRESENTATIVES[tag], nmax=3)
    assert record["pass"] and record["L_degree"] == case_l_degree(tag)
    (bundle,) = built
    assert not {"P", "b", "factors"} & vars(bundle).keys()
    body_products = 2 if tag == "S_EQ_2" else 1
    assert len(operands) == 2 * body_products
    assert all(isinstance(c, IntLaurent2) for op in operands for c in op.coeffs.values())
    # P is still there on first read, and its degree is the one reported
    assert bundle.P.l_degree() == record["L_degree"]
    assert len(operands) == 2 * (body_products + len(bundle.factors) - 1)


def test_cleared_body_is_the_cleared_rational_product():
    """On every stock tuple the polynomial cleared body equals the factors
    after ``(L - 1) b^-1`` multiplied out over rational functions, times
    ``scale = a_k a`` (1 for s = 2)."""
    for params in default_grid():
        bundle = build_annihilator(params)
        if bundle.case_tag == "S_EQ_2":
            scale = IntLaurent2.one()
        else:
            k = PEEL_STEP[aj.PEEL_REGIMES[bundle.case_tag][0]]
            scale = poly_mul(shift_M(bundle.a, k), bundle.a)
        reference = aj._multiply([SkewOperator({0: RationalTM.from_poly(scale)})] + bundle.factors[2:])
        assert all(c.is_poly() for c in reference.coeffs.values()), params
        assert bundle.cleared_body == SkewOperator({i: c.num for i, c in reference.coeffs.items()}), params
        assert all(isinstance(c, IntLaurent2) for c in bundle.cleared_body.coeffs.values()), params


def test_cleared_rhs_vanishing_at_minus1_raises():
    """A bundle whose cleared_rhs vanishes at t = -1 (so b^-1 has a pole
    there) makes the evaluation and the comparison raise; they never return
    a value."""
    params = REPRESENTATIVES["S_EQ_2"]
    bundle = build_annihilator(params)
    t_plus_1 = IntLaurent2({(1, 0): 1, (0, 0): 1})
    bad = dataclasses.replace(bundle, cleared_rhs=poly_mul(bundle.cleared_rhs, t_plus_1))
    assert not bad.cleared_rhs.eval_t_minus1()
    with pytest.raises(PoleAtMinusOne):
        evaluate_annihilator_at_minus1(bad)
    with pytest.raises(PoleAtMinusOne):
        compare_aj(params, bad)


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == 88
    assert len(set(grid)) == 88
    assert sum(1 for g in grid if g.p > 0) == 48
    assert sum(1 for g in grid if g.p < 0) == 40
    applicable = [g for g in grid if g.theorem_applies]
    assert len(applicable) == 72


def test_default_grid_file_matches_programmatic():
    text = importlib.resources.files("ajcable").joinpath("data/default_grid.txt").read_text()
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        p, q, r, s = map(int, line.split())
        rows.append(CablingParams(p, q, r, s))
    assert rows == default_grid()


SWEEP_COMPANIONS = ((3, 2), (5, 2), (7, 2), (5, 3), (7, 3), (7, 4), (9, 4), (7, 5), (11, 5), (7, 6),
                    (13, 6), (9, 7))
SWEEP_S = (2, 3, 4, 5, 7, 9)


def _sweep_rule():
    """The extended grid's tuples, from the rule in its header."""
    rows = []
    for p, q in SWEEP_COMPANIONS + tuple((-p, q) for p, q in SWEEP_COMPANIONS):
        for s in SWEEP_S:
            pqs = p * q * s
            mid = -(-pqs // 2)  # ceil(pqs / 2)
            while gcd(mid, s) != 1:
                mid += 1
            below, above = (-1, pqs + 1) if pqs > 0 else (pqs - 1, 1)
            rows += [CablingParams(p, q, r, s) for r in (below, mid, above)]
    return rows


def test_extended_grid_file_follows_its_rule():
    text = importlib.resources.files("ajcable").joinpath("data/extended_grid.txt").read_text()
    rows = [CablingParams(*map(int, line.split())) for line in text.splitlines()
            if not line.startswith("#")]
    assert rows == _sweep_rule()
    assert len(rows) == len(set(rows)) == 432
    assert sum(1 for g in rows if not g.theorem_applies) == 144
