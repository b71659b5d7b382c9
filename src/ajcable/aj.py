"""Annihilators of cabled colored Jones sequences and the AJ comparison.

For an (r, s)-cable over the (p, q) torus knot this module constructs an
explicit operator ``P(t, M, L)`` that annihilates the cabled sequence,
dispatched over four parameter regimes:

* ``S_ODD_QGT2``  -- s odd, q > 2:   (L-1) b^-1 (L^2 - beta) a^-1 (L^2 - gamma)
* ``S_ODD_Q2``    -- s odd, q = 2:   (L-1) b^-1 (L + eta)    a^-1 (L^2 - gamma)
* ``S_EVEN_GT2``  -- s even, s > 2:  (L-1) b^-1 (L - nu)     a^-1 (L^2 - gamma)
* ``S_EQ_2``      -- s = 2:          (L-1) b^-1 (L - w) M^r (L + v)

where ``a`` is the torus-term coefficient of the cable two-step relation,
``b`` the relation's inhomogeneous part after composing with the matching
peel of the torus index, and the inner monomials are fixed by the regime.

Everything needed to certify the construction is exposed: the cleared
form used for fast exact annihilation checks, the evaluation at t = -1,
the classical A-polynomial of the cable, the projective comparison
between the two, and the determinant-style nonvanishing checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .algebra import (
    IntLaurent2,
    RationalM,
    RationalTM,
    _mul1,
    limit_t_minus1,
    poly_mul,
    shift_M,
)
from .jones import (
    BadParams,
    CablingParams,
    cable_sequence,
    cable_step_coefficients,
    identity_suite,
    symbolic_delta,
    symbolic_sum,
)
from .qtorus import SkewOperator, check_annihilation, skew_multiply



class BZero(ArithmeticError):
    """The inhomogeneous term vanished; the construction cannot proceed."""


CASE_TAGS = ("S_EQ_2", "S_EVEN_GT2", "S_ODD_Q2", "S_ODD_QGT2")


def case_tag(params):
    """Which construction regime a parameter tuple falls in."""
    if params.s == 2:
        return "S_EQ_2"
    if params.s % 2 == 0:
        return "S_EVEN_GT2"
    if params.q == 2:
        return "S_ODD_Q2"
    return "S_ODD_QGT2"


def case_l_degree(tag):
    return {"S_EQ_2": 3, "S_EVEN_GT2": 4, "S_ODD_Q2": 4, "S_ODD_QGT2": 5}[tag]


# ---------------------------------------------------------------------------
# L-polynomials over rational functions of M (the classical, commutative side)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LPolynomialOverM:
    """Commutative polynomial in L with RationalM coefficients."""

    coeffs: dict

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", {i: c for i, c in self.coeffs.items() if not c.is_zero()}
        )

    def l_degree(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no L-degree")
        return max(self.coeffs)

    def support(self):
        return sorted(self.coeffs)

    def __mul__(self, other):
        out = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                k = i + j
                v = a * b
                if k in out:
                    v = out[k] + v
                if v.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = v
        return LPolynomialOverM(out)

    def substitute_M_power(self, k):
        """Replace M by M^k (k >= 1)."""
        return LPolynomialOverM(
            {
                i: RationalM({e * k: v for e, v in c.num.items()}, {e * k: v for e, v in c.den.items()})
                for i, c in self.coeffs.items()
            }
        )

    def text(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({self.coeffs[i].text()})*L^{i}" for i in sorted(self.coeffs))

    def __repr__(self):
        return f"LPolynomialOverM({self.text()})"


def _lp(pairs):
    return LPolynomialOverM({i: c if isinstance(c, RationalM) else RationalM.from_int(c) for i, c in pairs.items()})


def _check_fg(p, q):
    if q < 2 or p == 0 or gcd(p, q) != 1:
        raise BadParams(f"invalid companion-factor parameters ({p}, {q})")


def f_poly(p, q):
    """Nonabelian A-polynomial factor of the (p, q) torus knot.

    >>> f_poly(3, 2).text()
    '(1)*L^0 + (M^6)*L^1'
    >>> f_poly(-3, 2).text()
    '(M^6)*L^0 + (1)*L^1'
    >>> f_poly(5, 3).text()
    '(-1)*L^0 + (M^30)*L^2'
    """
    _check_fg(p, q)
    if q == 2:
        if p > 0:
            return _lp({1: RationalM.monomial(1, 2 * p), 0: 1})
        return _lp({1: 1, 0: RationalM.monomial(1, -2 * p)})
    if p > 0:
        return _lp({2: RationalM.monomial(1, 2 * p * q), 0: -1})
    return _lp({2: 1, 0: RationalM.monomial(-1, -2 * p * q)})


def g_poly(p, q):
    """Even-cabling companion factor for the (p, q) torus knot.

    >>> g_poly(3, 2).text()
    '(-1)*L^0 + (M^6)*L^1'
    """
    _check_fg(p, q)
    if p > 0:
        return _lp({1: RationalM.monomial(1, p * q), 0: -1})
    return _lp({1: 1, 0: RationalM.monomial(-1, -p * q)})


def cabled_a_polynomial_factors(params):
    """The three factors: (L - 1), the cabling-torus factor in M, and the
    companion factor evaluated at M^(s^2)."""
    p, q, r, s = params.p, params.q, params.r, params.s
    l_minus_1 = _lp({1: 1, 0: -1})
    companion = f_poly(p, q) if s % 2 else g_poly(p, q)
    return [l_minus_1, f_poly(r, s), companion.substitute_M_power(s * s)]


def cabled_a_polynomial(params):
    """Expanded classical A-polynomial of the cable (commutative product).

    >>> cabled_a_polynomial(CablingParams(5, 3, -1, 2)).support()
    [0, 1, 2, 3]
    """
    out = _lp({0: 1})
    for fac in cabled_a_polynomial_factors(params):
        out = out * fac
    return out


# ---------------------------------------------------------------------------
# the annihilator construction
# ---------------------------------------------------------------------------


@dataclass
class AnnihilatorBundle:
    """Constructed annihilator and every intermediate needed to check it.

    ``factors`` multiply out (skew product, in order) to ``P``.  ``a`` is
    the torus-term coefficient of the cable two-step relation; ``b`` the
    composed relation's inhomogeneous term.  ``cleared_rhs`` (= scale * b,
    a polynomial) and ``cleared_body`` give the denominator-free form
    ``(cleared_rhs(t,M) L - cleared_rhs(t,t^2 M)) * cleared_body``, whose
    action on a sequence matches P up to the nonzero left multiplier
    ``cleared_rhs(t,t^2 M) * cleared_rhs(t,M)``.
    """

    params: CablingParams
    case_tag: str
    factors: list
    a: IntLaurent2
    b: RationalTM
    P: SkewOperator
    scale: IntLaurent2
    cleared_rhs: IntLaurent2
    cleared_body: SkewOperator

    def l_degree(self):
        return self.P.l_degree()

    def cleared_chain(self):
        """Denominator-free factored chain (apply right factor first)."""
        y = self.cleared_rhs
        left = SkewOperator({1: y, 0: -shift_M(y, 1)})
        return [left, self.cleared_body]


def _mono(c, t, m):
    return IntLaurent2.monomial(c, t, m)


def _construction(params):
    """All case data: monomials, scale A, cleared rhs Y, cleared body W."""
    p, q, r, s = params.p, params.q, params.r, params.s
    pq = p * q
    pqs = pq * s
    tag = case_tag(params)

    step = cable_step_coefficients(params)
    gamma = step["step"]
    a = step["torus"]
    mu1 = step["delta"]
    one = IntLaurent2.one()

    right = SkewOperator({2: one, 0: -gamma})
    a_inv = SkewOperator({0: RationalTM(one, a)})

    dnum = lambda b_const: symbolic_delta(p, q, s, b_const).num  # noqa: E731

    if tag == "S_ODD_QGT2":
        beta = _mono(1, -8 * pq * s * s + 4 * pqs, -2 * pq * s * s)
        a4 = shift_M(a, 2)
        scale = poly_mul(a4, a)
        mu3 = shift_M(mu1, 2)
        mu1m = poly_mul(beta, mu1)
        s_num = symbolic_sum("S", p, q, s).num
        y = (
            poly_mul(scale, s_num)
            + poly_mul(poly_mul(a, mu3), dnum(3 * s - 1))
            - poly_mul(poly_mul(a4, mu1m), dnum(s - 1))
        )
        middle = SkewOperator({2: one, 0: -beta})
    elif tag == "S_ODD_Q2":
        eta = _mono(1, 4 * p * s - 6 * p * s * s, -2 * p * s * s)
        a2 = shift_M(a, 1)
        scale = poly_mul(a2, a)
        mu2p = shift_M(mu1, 1)
        mu1pp = poly_mul(eta, mu1)
        u_num = symbolic_sum("U", p, q, s).num
        y = (
            poly_mul(scale, u_num)
            + poly_mul(poly_mul(a, mu2p), dnum(2 * s - 1))
            + poly_mul(poly_mul(a2, mu1pp), dnum(s - 1))
        )
        middle = SkewOperator({1: one, 0: eta})
    elif tag == "S_EVEN_GT2":
        nu = _mono(1, -3 * pq * s * s + 2 * pqs, -pq * s * s)
        a2 = shift_M(a, 1)
        scale = poly_mul(a2, a)
        mu2 = shift_M(mu1, 1)
        mu1ppp = poly_mul(nu, mu1)
        v_num = symbolic_sum("V", p, q, s).num
        y = (
            poly_mul(scale, v_num)
            + poly_mul(poly_mul(a, mu2), dnum(2 * s - 1))
            - poly_mul(poly_mul(a2, mu1ppp), dnum(s - 1))
        )
        middle = SkewOperator({1: one, 0: -nu})
    else:  # S_EQ_2
        w = _mono(1, -8 * pq, -4 * pq)
        v = _mono(1, -2 * r, -2 * r)
        scale = one
        y = poly_mul(_mono(1, -4 * pq, -2 * pq), symbolic_delta(p, q, 2, 1).num)
        m_r = SkewOperator({0: _mono(1, 0, r)})
        left_fac = SkewOperator({1: one, 0: -w})
        right_fac = SkewOperator({1: one, 0: v})
        body = skew_multiply(skew_multiply(left_fac, m_r), right_fac)
        b = RationalTM.from_poly(y)
        if b.is_zero():
            raise BZero("inhomogeneous term is zero")
        l_minus_1 = SkewOperator({1: one, 0: -one})
        b_inv = SkewOperator({0: b.inverse()})
        factors = [l_minus_1, b_inv, left_fac, m_r, right_fac]
        return {
            "tag": tag,
            "a": a,
            "b": b,
            "scale": scale,
            "y": y,
            "body": body,
            "factors": factors,
        }

    b = RationalTM(y, scale)
    if b.is_zero():
        raise BZero("inhomogeneous term is zero")
    body = skew_multiply(
        SkewOperator({0: RationalTM.from_poly(scale)}),
        skew_multiply(middle, skew_multiply(a_inv, right)),
    )
    if not body.has_polynomial_coeffs():
        raise ArithmeticError("cleared body failed to cancel to polynomial coefficients")
    l_minus_1 = SkewOperator({1: one, 0: -one})
    b_inv = SkewOperator({0: b.inverse()})
    factors = [l_minus_1, b_inv, middle, a_inv, right]
    return {
        "tag": tag,
        "a": a,
        "b": b,
        "scale": scale,
        "y": y,
        "body": body,
        "factors": factors,
    }


def build_ab(params):
    """The cable relation's torus coefficient and composed inhomogeneity.

    Returns ``(a, b)``; ``a`` is a two-term polynomial in (t, M), ``b``
    a rational function regular and nonzero at t = -1.  For s = 2 the
    construction does not consume ``a``, but it is still the well-defined
    coefficient of the two-step relation.
    """
    c = _construction(params)
    return c["a"], c["b"]


def build_annihilator(params):
    """Construct the annihilating operator bundle for one cable."""
    c = _construction(params)
    op = c["factors"][0]
    for fac in c["factors"][1:]:
        op = skew_multiply(op, fac)
    body = c["body"]
    return AnnihilatorBundle(
        params=params,
        case_tag=c["tag"],
        factors=c["factors"],
        a=c["a"],
        b=c["b"],
        P=op,
        scale=c["scale"],
        cleared_rhs=c["y"],
        cleared_body=SkewOperator({i: v for i, v in body.coeffs.items()}),
    )


def evaluate_annihilator_at_minus1(bundle):
    """Coefficient-wise value of P at t = -1 (regular there by construction)."""
    out = {}
    for i, coeff in bundle.P.coeffs.items():
        v = limit_t_minus1(coeff)
        if not v.is_zero():
            out[i] = v
    return LPolynomialOverM(out)


# ---------------------------------------------------------------------------
# closed forms at t = -1
# ---------------------------------------------------------------------------


def _mm(e, c=1):
    return RationalM({e: c})


def _binom(e1, c1, e2, c2):
    return RationalM({e1: c1, e2: c2} if e1 != e2 else {e1: c1 + c2})


def b_minus1_closed_form(params):
    """Displayed closed form of b at t = -1 for each regime."""
    p, q, r, s = params.p, params.q, params.r, params.s
    pq = p * q
    rs = r * s
    pqs = pq * s
    tag = case_tag(params)
    if tag == "S_ODD_QGT2":
        num = (
            _binom(pqs - r - rs, -1, r - rs + pqs, 1)
            * _binom(0, 1, -2 * pq * s * s, -1)
            * _binom(p * s, 1, -p * s, -1)
            * _binom(q * s, 1, -q * s, -1)
        )
        den = _binom(2 * pqs, 1, 0, -1) * _binom(r - rs - 2 * pqs, 1, -r - rs, -1)
        return num / den
    if tag == "S_ODD_Q2":
        num = (
            _binom(2 * s, 1, -2 * s, -1)
            * _binom(0, 1, -2 * p * s * s, 1)
            * _mm(-rs - p * s)
            * _binom(r, 1, -r, -1)
        )
        den = _binom(0, 1, -2 * p * s, 1) * _binom(r - rs - 4 * p * s, 1, -r - rs, -1)
        return num / den
    if tag == "S_EVEN_GT2":
        num = (
            _binom(0, 1, -pq * s * s, -1)
            * _mm(-rs - pqs)
            * _binom(r, 1, -r, -1)
            * _binom(p * s, 1, -p * s, -1)
            * _binom(q * s, 1, -q * s, -1)
        )
        den = _binom(0, 1, -2 * pqs, -1) * _binom(r - rs - 2 * pqs, 1, -r - rs, -1)
        return num / den
    # S_EQ_2
    u, w = p + q, q - p
    return _mm(-2 * pq) * RationalM(
        {2 * u: 1, -2 * u: 1, 2 * w: -1, -2 * w: -1}
    )


def determinant_closed_form(params):
    """Displayed closed form of the case determinant (regimes with s > 2)."""
    p, q, r, s = params.p, params.q, params.r, params.s
    pq = p * q
    rs = r * s
    pqs = pq * s
    tag = case_tag(params)
    if tag == "S_ODD_QGT2":
        return (
            _binom(r - 2 * pqs, 1, -r, -1)
            / _binom(2 * pqs, 1, 0, -1)
            * _binom(p * s, 1, -p * s, -1)
            * _binom(q * s, 1, -q * s, -1)
            * _binom(-2 * pq * s * s, 1, 0, -1)
            * _binom(-r - 2 * rs + pqs, 1, r - 2 * rs + pqs, -1)
        )
    if tag == "S_ODD_Q2":
        return (
            RationalM({0: -1})
            / _binom(p * s, 1, -p * s, 1)
            * _binom(r - rs - 4 * p * s, 1, -r - rs, -1)
            * _binom(-2 * p * s * s, 1, 0, 1)
            * _binom(2 * s, 1, -2 * s, -1)
            * _binom(r - rs, 1, -r - rs, -1)
        )
    if tag == "S_EVEN_GT2":
        return (
            _binom(r - rs - 2 * pqs, 1, -r - rs, -1)
            / _binom(0, 1, -2 * pqs, -1)
            * _binom(-pq * s * s, 1, 0, -1)
            * _binom(r - rs - pqs, 1, -r - rs - pqs, -1)
            * _binom(p * s, 1, -p * s, -1)
            * _binom(q * s, 1, -q * s, -1)
        )
    raise BadParams("no determinant closed form in the s = 2 regime")


def _determinant_definitional(params):
    """The determinant assembled from the defining elimination, before t -> -1.

    Returns a numerator-form polynomial still carrying one factor of
    ``t^2 - t^-2``.
    """
    p, q, r, s = params.p, params.q, params.r, params.s
    pq = p * q
    pqs = pq * s
    tag = case_tag(params)
    step = cable_step_coefficients(params)
    gamma, a, mu1 = step["step"], step["torus"], step["delta"]
    dnum = lambda b_const: symbolic_delta(p, q, s, b_const).num  # noqa: E731

    if tag == "S_ODD_QGT2":
        beta = _mono(1, -8 * pq * s * s + 4 * pqs, -2 * pq * s * s)
        a4 = shift_M(a, 2)
        gamma4 = shift_M(gamma, 2)
        mu3 = shift_M(mu1, 2)
        s_num = symbolic_sum("S", p, q, s).num
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
        eta = _mono(1, 4 * p * s - 6 * p * s * s, -2 * p * s * s)
        a2 = shift_M(a, 1)
        mu2p = shift_M(mu1, 1)
        u_num = symbolic_sum("U", p, q, s).num
        alpha2 = a
        alpha3 = -poly_mul(eta, a2)
        beta2 = poly_mul(mu1, dnum(s - 1))
        beta3 = poly_mul(a2, u_num) + poly_mul(mu2p, dnum(2 * s - 1))
        return poly_mul(alpha3, beta2) - poly_mul(alpha2, beta3)
    if tag == "S_EVEN_GT2":
        nu = _mono(1, -3 * pq * s * s + 2 * pqs, -pq * s * s)
        a2 = shift_M(a, 1)
        mu2 = shift_M(mu1, 1)
        v_num = symbolic_sum("V", p, q, s).num
        c3 = poly_mul(a2, nu)
        c2 = a
        e2 = poly_mul(mu1, dnum(s - 1))
        e3 = poly_mul(mu2, dnum(2 * s - 1)) + poly_mul(a2, v_num)
        return poly_mul(c3, e2) - poly_mul(c2, e3)
    raise BadParams("no determinant in the s = 2 regime")


def determinant_check(params, b=None):
    """Compare the defining determinant at t = -1 to its closed form.

    ``b`` is the composed inhomogeneity of ``params`` when the caller
    already holds it (``bundle.b``); by default it is built here.

    The determinant is assembled at numerator level (one overall factor
    of t^2 - t^-2 cleared from the column that is linear in the summed
    step terms) and then evaluated at t = -1 directly.

    For s = 2 there is no determinant; the check degrades to the
    nonvanishing of b at t = -1 (which the closed-form route verifies).
    """
    tag = case_tag(params)
    if b is None:
        b = build_ab(params)[1]
    b_limit = limit_t_minus1(b)
    b_closed = b_minus1_closed_form(params)
    b_ok = (b_limit == b_closed) and not b_limit.is_zero()
    report = {
        "params": params.as_dict(),
        "case_tag": tag,
        "b_at_minus1": b_limit.text(),
        "b_matches_closed_form": b_limit == b_closed,
        "b_nonzero": not b_limit.is_zero(),
    }
    if tag == "S_EQ_2":
        report.update(
            {
                "determinant_applicable": False,
                "determinant_matches": None,
                "determinant_nonzero": None,
                "pass": b_ok,
            }
        )
        return report
    det_value = limit_t_minus1(RationalTM.from_poly(_determinant_definitional(params)))
    det_closed = determinant_closed_form(params)
    det_ok = (det_value == det_closed) and not det_value.is_zero()
    report.update(
        {
            "determinant_applicable": True,
            "determinant_matches": det_value == det_closed,
            "determinant_nonzero": not det_value.is_zero(),
            "determinant": det_value.text(),
            "pass": b_ok and det_ok,
        }
    )
    return report


# ---------------------------------------------------------------------------
# AJ comparison
# ---------------------------------------------------------------------------


def compare_aj(params, bundle=None):
    """Projective comparison of P(-1, M, L) with the cable's A-polynomial.

    Both sides are L-polynomials over rational functions of M; the check
    is cross-multiplicative equality of all coefficient pairs plus equal
    L-degree and matching zero patterns.  The common ratio is recorded.
    """
    if bundle is None:
        bundle = build_annihilator(params)
    lhs = evaluate_annihilator_at_minus1(bundle)
    rhs = cabled_a_polynomial(params)
    support_equal = lhs.support() == rhs.support()
    degree_equal = bool(lhs.coeffs) and bool(rhs.coeffs) and lhs.l_degree() == rhs.l_degree()
    projective = support_equal
    if support_equal:
        # raw cross-multiplication (no re-canonicalization):
        # (n_i/d_i)(u_j/v_j) == (n_j/d_j)(u_i/v_i)
        # iff n_i u_j d_j v_i == n_j u_i d_i v_j
        keys = lhs.support()
        for x in range(len(keys)):
            for y in range(x + 1, len(keys)):
                li, rj = lhs.coeffs[keys[x]], rhs.coeffs[keys[y]]
                lj, ri = lhs.coeffs[keys[y]], rhs.coeffs[keys[x]]
                left = _mul1(_mul1(li.num, rj.num), _mul1(lj.den, ri.den))
                right = _mul1(_mul1(lj.num, ri.num), _mul1(li.den, rj.den))
                if left != right:
                    projective = False
                    break
            if not projective:
                break
    ratio = None
    if projective and degree_equal:
        d = lhs.l_degree()
        ratio = (lhs.coeffs[d] / rhs.coeffs[d]).text()
    report = {
        "params": params.as_dict(),
        "case_tag": bundle.case_tag,
        "L_degree": bundle.P.l_degree(),
        "degrees_equal": degree_equal,
        "zero_pattern_equal": support_equal,
        "projective_match": projective,
        "ratio": ratio,
        "theorem_applies": params.theorem_applies,
        "pass": bool(degree_equal and support_equal and projective),
    }
    return report


# ---------------------------------------------------------------------------
# the default parameter grid and the per-tuple pipeline
# ---------------------------------------------------------------------------


def default_grid():
    """The stock verification grid over both torus chiralities.

    For p > 0 the r-choices are {-1, -7, pqs+1} (pqs+1 is coprime to s, so
    it is the nearest admissible value above pqs).  For p < 0 those all
    land strictly between pqs and 0, so mirrored out-of-band choices
    {1, 7, pqs-1} are added to keep theorem-applicable tuples of both
    signs in the grid.
    """
    grid = []
    for p, q in ((3, 2), (5, 2), (5, 3), (7, 3), (-3, 2), (-5, 3)):
        for s in (2, 3, 4, 5):
            pqs = p * q * s
            if p > 0:
                r_choices = (-1, -7, pqs + 1)
            else:
                r_choices = (-1, -7, 1, 7, pqs - 1)
            for r in r_choices:
                grid.append(CablingParams(p, q, r, s))
    return grid


def verify_tuple(params, nmax=12, with_identities=False):
    """Build, check annihilation, compare at t = -1; one report per tuple.

    Colors ``1..nmax`` are checked; ``nmax < 1`` raises :class:`ValueError`.
    """
    if nmax < 1:
        raise ValueError(f"nmax must be at least 1, got {nmax}")
    bundle = build_annihilator(params)
    seq = cable_sequence(params)
    ann = check_annihilation(bundle.cleared_chain(), seq, 1, nmax)
    det = determinant_check(params, bundle.b)
    aj = compare_aj(params, bundle)
    record = {
        "params": params.as_dict(),
        "case_tag": bundle.case_tag,
        "L_degree": bundle.P.l_degree(),
        "annihilates": ann["pass"],
        "n_checked": [1, nmax],
        "b_at_minus1": det["b_at_minus1"],
        "aj_match": aj["pass"],
        "determinant_ok": det["pass"],
        "theorem_applies": params.theorem_applies,
    }
    if with_identities:
        reports = identity_suite(params, 1, nmax)
        record["identities_pass"] = all(rep["pass"] for rep in reports)
        record["identities"] = reports
    record["pass"] = bool(
        record["annihilates"]
        and record["aj_match"]
        and record["determinant_ok"]
        and record["L_degree"] == case_l_degree(bundle.case_tag)
        and record.get("identities_pass", True)
    )
    return record
