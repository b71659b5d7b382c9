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
The three regimes with s > 2 share one construction: ``PEEL_REGIMES``
names each one's peel, whose step k and torus coefficient beta, -eta or
nu give the middle factor ``L^k - c``.

Everything needed to certify the construction is exposed: the cleared
form used for fast exact annihilation checks, the evaluation at t = -1,
the classical A-polynomial of the cable, the projective comparison
between the two, and the determinant-style nonvanishing checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .algebra import (
    IntLaurent1,
    IntLaurent2,
    PoleAtMinusOne,
    RationalM,
    RationalTM,
    poly_mul,
    shift_M,
    substitute_M,
)
from .jones import (
    _EXPONENT_LIMIT,
    PEEL_STEP,
    BadParams,
    CablingParams,
    cable_step_coefficients,
    identity_suite,
    numerator_window,
    peel,
    symbolic_delta,
)
from .qtorus import SkewOperator, check_annihilation, skew_multiply


class BZero(ArithmeticError):
    """The inhomogeneous term vanished; the construction cannot proceed."""


CASE_TAGS = ("S_EQ_2", "S_EVEN_GT2", "S_ODD_Q2", "S_ODD_QGT2")

# The regimes with s > 2 differ only in the peel of the torus index that
# composes the cable two-step relation: regime -> (peel-sum kind, sign).
# The middle factor is L^k - c with k = PEEL_STEP[kind] and c the peel's
# torus coefficient (beta, -eta, nu); the paper's 2x2 elimination has
# determinant sign * y, y the cleared inhomogeneity.
PEEL_REGIMES = {
    "S_ODD_QGT2": ("S", 1),
    "S_ODD_Q2": ("U", -1),
    "S_EVEN_GT2": ("V", -1),
}


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
        def lift(f):
            return IntLaurent1.from_array(f.off * k, f.step * k, f.c)

        return LPolynomialOverM({i: RationalM(lift(c.num), lift(c.den)) for i, c in self.coeffs.items()})

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
    companion factor evaluated at M^(s^2).

    Their M-exponents, and those of their product, are bounded by
    ``2|r|s + 2|pq|s^2``; parameters that reach 2^62 are refused before
    any factor is built.
    """
    p, q, r, s = params.p, params.q, params.r, params.s
    if 2 * abs(r) * s + 2 * abs(p * q) * s * s >= _EXPONENT_LIMIT:
        raise BadParams(f"the A-polynomial of the ({p}, {q}, {r}, {s}) cable has exponents beyond 2^62")
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

    Every field after ``case_tag`` is a polynomial or a polynomial
    operator.  ``a`` is the torus-term coefficient of the cable two-step
    relation; ``cleared_rhs`` (``y``) is ``scale * b``, ``b`` the composed
    relation's inhomogeneous term; ``tail`` holds the polynomial factors
    after ``(L - 1) b^-1``.
    Only the operator text needs fractions, so ``b = y / scale``,
    ``factors`` (with ``a^-1`` after the tail's first factor for s > 2) and
    their skew product ``P`` are built on first read.  ``(y L - y(t, t^2
    M)) * cleared_body`` is the denominator-free form, whose action matches
    P up to the nonzero left multiplier ``y(t, t^2 M) * y(t, M)``.

    The left factor ``A = y L - y_1`` (``y_1 = y(t, t^2 M)``) annihilates
    ``h(n) = y(t, t^(2n)) / D``, ``D = t^2 - t^-2``:
    ``(A h)(n) = y(n) y(n+1) / D - y(n+1) y(n) / D = 0``.  The construction
    makes the body carry the cable values to ``h`` (``cleared_body J = h``).
    D lies in ``Z[t^+-1]``, so it commutes with ``M`` and ``L``, and
    ``Z[t^+-1]`` is a domain: with ``N = D J`` the cable numerators,
    ``body N = y`` holds exactly when ``body J = y / D``.  So
    :func:`verify_tuple` checks ``body N = y(t, t^(2n))``, with no division,
    and never applies ``A`` (see :func:`check_annihilation`'s ``through``).

    ``scale`` is ``a_k a``, ``a_k = shift_M(a, k)``, for s > 2 and 1 for
    s = 2; ``cleared_body`` is scale times the factors after
    ``(L - 1) b^-1``.  For s > 2, ``L^k a^-1 = a_k^-1 L^k`` makes it the
    product of two polynomial operators, ``(a L^k - a_k c) (L^2 - gamma)``;
    for s = 2 those factors are polynomial already.  The twist is the
    identity at t = -1, so ``scale(-1) = a(-1)^2``, nonzero as ``a(-1) =
    M^(r-rs-2pqs) - M^(-r-rs)`` and ``r != pqs``: ``b(-1) = y(-1) / scale(-1)``.
    """

    params: CablingParams
    case_tag: str
    a: IntLaurent2
    scale: IntLaurent2
    cleared_rhs: IntLaurent2
    cleared_body: SkewOperator
    tail: list

    @cached_property
    def b(self):
        return RationalTM(self.cleared_rhs, self.scale)

    @cached_property
    def factors(self):
        # RationalTM coefficients in the leftmost factor make every product
        # in P's expansion promote its polynomial right operand
        one = RationalTM.one()
        tail = list(self.tail)
        if self.case_tag != "S_EQ_2":
            tail.insert(1, SkewOperator({0: RationalTM(IntLaurent2.one(), self.a)}))
        return [SkewOperator({1: one, 0: -one}), SkewOperator({0: self.b.inverse()})] + tail

    @cached_property
    def P(self):
        return _multiply(self.factors)

    def l_degree(self):
        """L-degree of ``P = (y y_1)^-1 (y L - y_1) cleared_body``, without
        building it: over a domain, the twist keeps the body's leading
        coefficient nonzero, and ``y`` times it is nonzero."""
        return 1 + self.cleared_body.l_degree()

    def cleared_chain(self):
        """Denominator-free factored chain (apply right factor first)."""
        y = self.cleared_rhs
        left = SkewOperator({1: y, 0: -shift_M(y, 1)})
        return [left, self.cleared_body]


def _multiply(ops):
    """Skew product of ``ops`` in order."""
    out = ops[0]
    for op in ops[1:]:
        out = skew_multiply(out, op)
    return out


def build_annihilator(params):
    """Construct the annihilating operator bundle for one cable.

    The only skew products are those of the polynomial ``cleared_body``;
    ``b``, the factors and ``P`` are built when first read (see
    :class:`AnnihilatorBundle`).
    """
    p, q, r, s = params.p, params.q, params.r, params.s
    pq = p * q
    tag = case_tag(params)
    step = cable_step_coefficients(params)
    a, mu = step["torus"], step["delta"]
    one = IntLaurent2.one()

    def dnum(b_const):
        return symbolic_delta(p, q, s, b_const)

    if tag == "S_EQ_2":
        scale = one
        y = poly_mul(IntLaurent2.monomial(1, -4 * pq, -2 * pq), dnum(1))
        tail = [
            SkewOperator({1: one, 0: IntLaurent2.monomial(-1, -8 * pq, -4 * pq)}),
            SkewOperator({0: IntLaurent2.monomial(1, 0, r)}),
            SkewOperator({1: one, 0: IntLaurent2.monomial(1, -2 * r, -2 * r)}),
        ]
        body = _multiply(tail)
    else:
        kind = PEEL_REGIMES[tag][0]
        k = PEEL_STEP[kind]
        c, total = peel(kind, p, q, s)
        a_k = shift_M(a, k)
        scale = poly_mul(a_k, a)
        y = (
            poly_mul(scale, total)
            + poly_mul(poly_mul(a, shift_M(mu, k)), dnum((k + 1) * s - 1))
            - poly_mul(poly_mul(a_k, poly_mul(c, mu)), dnum(s - 1))
        )
        two_step = SkewOperator({2: one, 0: -step["step"]})
        tail = [SkewOperator({k: one, 0: -c}), two_step]
        body = skew_multiply(SkewOperator({k: a, 0: -poly_mul(a_k, c)}), two_step)
    if not y:
        raise BZero("inhomogeneous term is zero")
    return AnnihilatorBundle(
        params=params,
        case_tag=tag,
        a=a,
        scale=scale,
        cleared_rhs=y,
        cleared_body=body,
        tail=tail,
    )


def build_ab(params):
    """The cable relation's torus coefficient and composed inhomogeneity.

    Returns ``(a, b)``; ``a`` is a two-term polynomial in (t, M), ``b``
    a rational function regular and nonzero at t = -1.  For s = 2 the
    construction does not consume ``a``, but it is still the well-defined
    coefficient of the two-step relation.
    """
    bundle = build_annihilator(params)
    return bundle.a, bundle.b


_M_ZERO = IntLaurent1()


def _cleared_at_minus1(bundle):
    """``(coeffs, y1)`` with ``P(-1, M, L) = sum_i coeffs[i] L^i / y1``:
    polynomials in M (:class:`IntLaurent1`), ``coeffs`` those of
    ``(L - 1) body(-1)`` without zeros and ``y1 = y(-1)``, ``y = cleared_rhs``.

    Why (Garoufalidis 2004; Frohman, Gelca and Lofaro 2002): the rational
    functions of (t, M) regular at t = -1 form a ring, and t -> -1 is a
    ring homomorphism from it onto Q(M).  The twist M -> t^2 M maps that
    ring to itself and becomes the identity at t = -1.  So on operators
    with such coefficients, evaluating at t = -1 is a ring homomorphism
    onto the commutative Q(M)[L]: ``f L^a * g L^b = f g(t, t^(2a) M)
    L^(a+b)`` goes to ``f(-1) g(-1) L^(a+b)``.  In the cleared form
    ``P = (y y_1)^-1 (y L - y_1) body`` every factor but the first is
    polynomial, and ``y_1(-1) = y(-1)``, so
    ``P(-1) = (L - 1) body(-1) / y(-1)`` whenever ``y(-1) != 0``.

    ``y(-1) = 0`` exactly when ``b(-1) = 0``: ``b = y / (a_k a)`` (``a_k a
    = 1`` for s = 2), and ``a(-1) = M^(r-rs-2pqs) - M^(-r-rs)`` never
    vanishes, as ``r != pqs``.  Then ``b^-1`` has a pole at t = -1 and
    :class:`PoleAtMinusOne` is raised.
    """
    y1 = bundle.cleared_rhs.eval_t_minus1()
    if not y1:
        raise PoleAtMinusOne("cleared_rhs vanishes at t = -1: b^-1 has a pole there")
    coeffs = {}
    for i, c in bundle.cleared_body.coeffs.items():
        v = c.eval_t_minus1()
        coeffs[i + 1] = coeffs.get(i + 1, _M_ZERO) + v
        coeffs[i] = coeffs.get(i, _M_ZERO) - v
    return {i: v for i, v in coeffs.items() if v}, y1



def evaluate_annihilator_at_minus1(bundle):
    """Value of P at t = -1, from the cleared form (:func:`_cleared_at_minus1`):
    each coefficient of ``(L - 1) body(-1)`` divided by ``y(-1)``.  Raises
    :class:`PoleAtMinusOne` when ``y(-1) = 0``."""
    coeffs, y1 = _cleared_at_minus1(bundle)
    return LPolynomialOverM({i: RationalM(v, y1) for i, v in coeffs.items()})


# ---------------------------------------------------------------------------
# closed forms at t = -1
# ---------------------------------------------------------------------------


def _binom(e1, c1, e2, c2):
    """``c1 M^e1 + c2 M^e2``."""
    return IntLaurent1([(e1, c1), (e2, c2)])


def _products(num, den=(), c=1, e=0):
    """``c M^e prod(num) / prod(den)`` as its numerator and denominator
    products, unreduced: exact polynomial products, so one gcd reduces the
    whole fraction, and a reduced value is compared with it by
    cross-multiplication (:func:`_matches`)."""
    top = IntLaurent1({e: c})
    for f in num:
        top = poly_mul(top, f)
    bottom = IntLaurent1.one()
    for f in den:
        bottom = poly_mul(bottom, f)
    return top, bottom


def _matches(value, products):
    """``value == top / bottom`` for a ``RationalM`` value: ``num * bottom ==
    den * top``, exact products in the domain Z[M^±1] with nonzero
    denominators, so no gcd is needed."""
    top, bottom = products
    return value.num * bottom == value.den * top


def _b_minus1_products(params):
    """The closed form of b at t = -1 for each regime, as unreduced products."""
    p, q, r, s = params.p, params.q, params.r, params.s
    pq = p * q
    rs = r * s
    pqs = pq * s
    tag = case_tag(params)
    if tag == "S_ODD_QGT2":
        return _products(
            [
                _binom(pqs - r - rs, -1, r - rs + pqs, 1),
                _binom(0, 1, -2 * pq * s * s, -1),
                _binom(p * s, 1, -p * s, -1),
                _binom(q * s, 1, -q * s, -1),
            ],
            [_binom(2 * pqs, 1, 0, -1), _binom(r - rs - 2 * pqs, 1, -r - rs, -1)],
        )
    if tag == "S_ODD_Q2":
        return _products(
            [_binom(2 * s, 1, -2 * s, -1), _binom(0, 1, -2 * p * s * s, 1), _binom(r, 1, -r, -1)],
            [_binom(0, 1, -2 * p * s, 1), _binom(r - rs - 4 * p * s, 1, -r - rs, -1)],
            e=-rs - p * s,
        )
    if tag == "S_EVEN_GT2":
        return _products(
            [
                _binom(0, 1, -pq * s * s, -1),
                _binom(r, 1, -r, -1),
                _binom(p * s, 1, -p * s, -1),
                _binom(q * s, 1, -q * s, -1),
            ],
            [_binom(0, 1, -2 * pqs, -1), _binom(r - rs - 2 * pqs, 1, -r - rs, -1)],
            e=-rs - pqs,
        )
    # S_EQ_2
    u, w = p + q, q - p
    return _products([IntLaurent1({2 * u: 1, -2 * u: 1, 2 * w: -1, -2 * w: -1})], e=-2 * pq)


def _determinant_products(params):
    """The closed form of the case determinant (regimes with s > 2), as
    unreduced products."""
    p, q, r, s = params.p, params.q, params.r, params.s
    pq = p * q
    rs = r * s
    pqs = pq * s
    tag = case_tag(params)
    if tag == "S_ODD_QGT2":
        return _products(
            [
                _binom(r - 2 * pqs, 1, -r, -1),
                _binom(p * s, 1, -p * s, -1),
                _binom(q * s, 1, -q * s, -1),
                _binom(-2 * pq * s * s, 1, 0, -1),
                _binom(-r - 2 * rs + pqs, 1, r - 2 * rs + pqs, -1),
            ],
            [_binom(2 * pqs, 1, 0, -1)],
        )
    if tag == "S_ODD_Q2":
        return _products(
            [
                _binom(r - rs - 4 * p * s, 1, -r - rs, -1),
                _binom(-2 * p * s * s, 1, 0, 1),
                _binom(2 * s, 1, -2 * s, -1),
                _binom(r - rs, 1, -r - rs, -1),
            ],
            [_binom(p * s, 1, -p * s, 1)],
            c=-1,
        )
    if tag == "S_EVEN_GT2":
        return _products(
            [
                _binom(r - rs - 2 * pqs, 1, -r - rs, -1),
                _binom(-pq * s * s, 1, 0, -1),
                _binom(r - rs - pqs, 1, -r - rs - pqs, -1),
                _binom(p * s, 1, -p * s, -1),
                _binom(q * s, 1, -q * s, -1),
            ],
            [_binom(0, 1, -2 * pqs, -1)],
        )
    raise BadParams("no determinant closed form in the s = 2 regime")


def b_minus1_closed_form(params):
    """Displayed closed form of b at t = -1 for each regime."""
    return RationalM(*_b_minus1_products(params))


def determinant_closed_form(params):
    """Displayed closed form of the case determinant (regimes with s > 2)."""
    return RationalM(*_determinant_products(params))


def determinant_check(params, bundle=None):
    """Compare b and the case determinant at t = -1 to their closed forms.

    ``bundle`` is the annihilator bundle of ``params`` when the caller
    already holds it; by default the construction runs here.

    The determinant of the paper's 2x2 elimination, at numerator level,
    is ``sign * cleared_rhs`` with the sign from ``PEEL_REGIMES``: its
    gamma-terms cancel.  It still carries one factor of t^2 - t^-2 and,
    being a polynomial, is evaluated at t = -1 directly, with no limit.
    So is ``b(-1) = y(-1) / scale(-1)``: ``scale(-1) = a(-1)^2`` is nonzero
    (see :class:`AnnihilatorBundle`).

    For s = 2 there is no determinant; the check degrades to the
    nonvanishing of b at t = -1 (which the closed-form route verifies).

    Only b(-1) and the determinant are reduced, for their texts; each is
    compared with its closed form's unreduced products by
    cross-multiplication (:func:`_matches`).
    """
    tag = case_tag(params)
    if bundle is None:
        bundle = build_annihilator(params)
    y1 = bundle.cleared_rhs.eval_t_minus1()
    b_value = RationalM(y1, bundle.scale.eval_t_minus1())
    report = {
        "params": params.as_dict(),
        "case_tag": tag,
        "b_at_minus1": b_value.text(),
        "b_matches_closed_form": _matches(b_value, _b_minus1_products(params)),
        "b_nonzero": not b_value.is_zero(),
        "determinant_applicable": tag != "S_EQ_2",
        "determinant_matches": None,
        "determinant_nonzero": None,
    }
    if report["determinant_applicable"]:
        det_value = RationalM(PEEL_REGIMES[tag][1] * y1)
        report["determinant_matches"] = _matches(det_value, _determinant_products(params))
        report["determinant_nonzero"] = not det_value.is_zero()
        report["determinant"] = det_value.text()
    verdicts = ("b_matches_closed_form", "b_nonzero", "determinant_matches", "determinant_nonzero")
    report["pass"] = all(report[key] is not False for key in verdicts)  # None: not applicable
    return report


# ---------------------------------------------------------------------------
# AJ comparison
# ---------------------------------------------------------------------------


def compare_aj(params, bundle=None):
    """Projective comparison of P(-1, M, L) with the cable's A-polynomial.

    Both sides are L-polynomials over rational functions of M; the check
    is equal L-degree, matching zero patterns, and ``lhs = c * rhs``
    coefficient by coefficient, where ``c`` is the ratio of the leading
    coefficients.  ``P(-1) = sum_i N_i L^i / y1`` (:func:`_cleared_at_minus1`)
    and ``rhs_i = R_i / S_i``, so with ``d`` the common L-degree,
    ``lhs_i = c rhs_i`` is ``N_i R_d S_i == N_d R_i S_d``: exact products
    of polynomials in M, which is a domain, with no fraction reduced.  The
    ratio ``c = N_d S_d / (y1 R_d)`` is reduced once, for its text, which
    is that of the reduced fraction, as ``RationalM`` is canonical.
    """
    if bundle is None:
        bundle = build_annihilator(params)
    lhs, y1 = _cleared_at_minus1(bundle)
    rhs = cabled_a_polynomial(params).coeffs
    support_equal = sorted(lhs) == sorted(rhs)
    degree_equal = bool(lhs) and bool(rhs) and max(lhs) == max(rhs)
    projective, ratio = support_equal, None
    if support_equal and degree_equal:
        d = max(lhs)
        n_d, r_d = lhs[d], rhs[d]
        projective = all(
            lhs[i] * r_d.num * rhs[i].den == n_d * rhs[i].num * r_d.den for i in lhs
        )
        if projective:
            ratio = RationalM(n_d * r_d.den, y1 * r_d.num).text()
    report = {
        "params": params.as_dict(),
        "case_tag": bundle.case_tag,
        "L_degree": bundle.l_degree(),
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


def verify_tuple(params, nmax=12, numerators=None):
    """Build, check annihilation, compare at t = -1; one report per tuple.

    Colors ``1..nmax`` are checked; ``nmax < 1`` raises :class:`ValueError`.
    Annihilation is checked through the construction's relation on the cable
    numerators ``N(n) = D J(n)``, ``D = t^2 - t^-2``: the cleared body applied
    to N equals ``y(t, t^(2n))`` (``y = cleared_rhs``) at every colour the
    left factor ``y L - y(t, t^2 M)`` reads, ``1..nmax + 1``.  That is the
    relation ``body J = h``, ``h(n) = y(t, t^(2n)) / D``: D is a nonzero
    element of the domain ``Z[t^+-1]`` and commutes with the operators, so
    ``body N = y <=> body J = y / D``.  The left factor annihilates ``h``
    (see :class:`AnnihilatorBundle`), so the cleared chain, and hence ``P``,
    annihilates the values at ``1..nmax``.  A failure is one of the
    relation; ``annihilates`` is then false.

    The numerators come from one :func:`numerator_window` over the colours
    the body reads.  ``numerators``, a dict, receives them when given, so
    that a caller can audit degrees on the same window.
    """
    if nmax < 1:
        raise ValueError(f"nmax must be at least 1, got {nmax}")
    bundle = build_annihilator(params)
    body, y = bundle.cleared_body, bundle.cleared_rhs
    window = numerator_window(params, 1 + min(body.coeffs), nmax + 1 + max(body.coeffs))
    if numerators is not None:
        numerators.update(window)
    # the relation cleared_body N = y, through which the chain annihilates
    ann = check_annihilation(bundle.cleared_chain(), window.__getitem__, 1, nmax,
                             through=lambda n: substitute_M(y, n))
    det = determinant_check(params, bundle)
    aj = compare_aj(params, bundle)
    record = {
        "params": params.as_dict(),
        "case_tag": bundle.case_tag,
        "L_degree": bundle.l_degree(),
        "annihilates": ann["pass"],
        "n_checked": [1, nmax],
        "b_at_minus1": det["b_at_minus1"],
        "aj_match": aj["pass"],
        "determinant_ok": det["pass"],
        "theorem_applies": params.theorem_applies,
    }
    reports = identity_suite(params, 1, nmax)
    record["identities_pass"] = all(rep["pass"] for rep in reports)
    record["identities"] = reports
    record["pass"] = bool(
        record["annihilates"]
        and record["aj_match"]
        and record["determinant_ok"]
        and record["L_degree"] == case_l_degree(bundle.case_tag)
        and record["identities_pass"]
    )
    return record
