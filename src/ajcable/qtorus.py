"""Skew Laurent operators acting on color-indexed sequences.

The ring is generated by ``M`` and ``L`` over integer Laurent polynomials
in ``t``, with the commutation rule ``L M = t^2 M L``.  Acting on a
sequence ``f`` of one-variable Laurent polynomials indexed by the color
``n``:

* ``(M f)(n) = t^(2n) f(n)``  -- so a coefficient ``g(t, M)`` realizes to
  ``g(t, t^(2n))`` at color ``n``;
* ``(L f)(n) = f(n + 1)``.

An operator is stored with all ``M``-coefficients moved to the left of the
``L``-powers.  Multiplying two such normal forms twists the right factor:
``f(t,M) L^a * g(t,M) L^b = f(t,M) g(t, t^(2a) M) L^(a+b)``.
"""

from __future__ import annotations

from .algebra import (
    IntLaurent1,
    IntLaurent2,
    NotDivisible,
    RationalTM,
    poly_exact_div,
    poly_mul,
    realized_terms,
    shift_M,
    shifted_sum,
)


class DenominatorVanishes(ArithmeticError):
    """An operator coefficient's denominator realizes to zero at some color."""

    def __init__(self, n, message=None):
        self.n = n
        super().__init__(message or f"coefficient denominator vanishes at n = {n}")


class DiscreteSequence:
    """Memoized sequence of one-variable Laurent polynomials.

    Wraps a plain evaluation function.  The memo is an ordinary dict:
    CPython dict writes are atomic, so concurrent workers at worst
    recompute a value, never observe a torn one.
    """

    __slots__ = ("_fn", "_memo", "name")

    def __init__(self, fn, name=""):
        self._fn = fn
        self._memo = {}
        self.name = name

    def __call__(self, n):
        v = self._memo.get(n)
        if v is None:
            v = self._fn(n)
            self._memo[n] = v
        return v

    def __repr__(self):
        return f"DiscreteSequence({self.name or self._fn!r})"


def _coerce_coeff(c):
    if isinstance(c, RationalTM):
        return c
    if isinstance(c, IntLaurent2):
        return RationalTM.from_poly(c)
    raise TypeError(f"operator coefficient must be IntLaurent2 or RationalTM, got {type(c).__name__}")


class SkewOperator:
    """Finite sum ``sum_i  c_i(t, M) L^i`` with left coefficients.

    ``coeffs`` maps the L-exponent to a :class:`RationalTM`.  Plain
    polynomial coefficients may be passed in and are wrapped.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = {}
        for i, c in coeffs.items():
            c = _coerce_coeff(c)
            if not c.is_zero():
                self.coeffs[i] = c

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def identity(cls):
        return cls({0: RationalTM.one()})

    @classmethod
    def l_power(cls, i):
        return cls({i: RationalTM.one()})

    def is_zero(self):
        return not self.coeffs

    def l_degree(self):
        if not self.coeffs:
            raise ValueError("zero operator has no L-degree")
        return max(self.coeffs)

    def has_polynomial_coeffs(self):
        return all(c.is_poly() for c in self.coeffs.values())

    def __eq__(self, other):
        if not isinstance(other, SkewOperator):
            return NotImplemented
        if self.coeffs.keys() != other.coeffs.keys():
            return False
        return all(self.coeffs[i] == other.coeffs[i] for i in self.coeffs)

    def __add__(self, other):
        keys = self.coeffs.keys() | other.coeffs.keys()
        out = {}
        for i in keys:
            a = self.coeffs.get(i)
            b = other.coeffs.get(i)
            c = b if a is None else (a if b is None else a + b)
            if not c.is_zero():
                out[i] = c
        return SkewOperator(out)

    def __neg__(self):
        return SkewOperator({i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return skew_multiply(self, other)

    def text(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in sorted(self.coeffs):
            parts.append(f"({self.coeffs[i].text()})*L^{i}")
        return " + ".join(parts)

    def __repr__(self):
        return f"SkewOperator({self.text()})"


def skew_multiply(P, Q):
    """Product in the skew ring: the right factor's coefficients are twisted.

    ``f L^a * g L^b = f * g(t, t^(2a) M) * L^(a+b)``.

    >>> from .algebra import IntLaurent2
    >>> L = SkewOperator.l_power(1)
    >>> M = SkewOperator({0: IntLaurent2({(0, 1): 1})})
    >>> skew_multiply(L, M).text()          # L M = t^2 M L
    '(t^2*M)*L^1'
    """
    out = {}
    for i, c in P.coeffs.items():
        for j, d in Q.coeffs.items():
            k = i + j
            term = c * shift_M(d, i)
            prev = out.get(k)
            v = term if prev is None else prev + term
            if v.is_zero():
                out.pop(k, None)
            else:
                out[k] = v
    return SkewOperator(out)


def apply_operator(P, f, n):
    """Apply an operator to a sequence at one color: ``(P f)(n)``.

    Coefficients are realized at ``M = t^(2n)``; the result must be a
    Laurent polynomial (always true for polynomial coefficients).  Raises
    :class:`DenominatorVanishes` if a realized denominator is zero and
    :class:`NotDivisible` if the rational sum fails to be polynomial.
    """
    if P.has_polynomial_coeffs():
        return shifted_sum(term for i, c in P.coeffs.items() for term in realized_terms(c.num, n, f(n + i)))
    num_parts = []  # (realized numerator * f(n+i), realized denominator)
    for i, c in P.coeffs.items():
        cn, cd = c.realize(n)
        if not cd:
            raise DenominatorVanishes(n)
        num_parts.append((poly_mul(cn, f(n + i)), cd))
    common = IntLaurent1.one()
    for _, d in num_parts:
        common = poly_mul(common, d)
    total = IntLaurent1()
    for g, d in num_parts:
        total = total + poly_mul(g, poly_exact_div(common, d))
    return poly_exact_div(total, common)


def clear_denominators(P):
    """Left multiplier that makes every coefficient polynomial.

    Returns ``(Pc, c)`` with ``Pc = c * P`` where ``c(t, M)`` is the
    product of the distinct coefficient denominators.  When all
    denominators already equal one, ``c = 1`` and ``Pc`` equals ``P``.
    """
    seen = {}
    for i, coeff in P.coeffs.items():
        key = frozenset(coeff.den.d.items())
        seen.setdefault(key, coeff.den)
    c = IntLaurent2.one()
    for den in seen.values():
        c = poly_mul(c, den)
    c_frac = RationalTM.from_poly(c)
    out = {}
    for i, coeff in P.coeffs.items():
        v = c_frac * coeff
        if not v.is_poly():
            # distinct-denominator products always clear; guard anyway
            raise NotDivisible(f"clearing failed at L^{i}")
        out[i] = v
    return SkewOperator(out), c


def _sequence_applied(P, f):
    """The sequence ``n -> (P f)(n)`` for a polynomial-coefficient operator."""
    return DiscreteSequence(lambda n: apply_operator(P, f, n), name="applied")


def check_annihilation(P, f, n_lo, n_hi):
    """Exact annihilation check of an operator (or factored chain) on ``f``.

    ``P`` may be one :class:`SkewOperator` (denominators are cleared
    first; the cleared operator is applied) or a list of operators
    representing an already-cleared composition, applied right to left.
    Every color in ``[n_lo, n_hi]`` is tested exactly; the report records
    the first failure if any.  An empty window raises :class:`ValueError`:
    checking no color must not read as a pass.
    """
    if n_hi < n_lo:
        raise ValueError(f"empty color window [{n_lo}, {n_hi}]")
    if isinstance(P, SkewOperator):
        cleared, _ = clear_denominators(P)
        chain = [cleared]
    else:
        chain = list(P)
        if not chain:
            raise ValueError("empty operator chain")
    seq = f
    for op in reversed(chain):
        seq = _sequence_applied(op, seq)
    report = {
        "n_lo": n_lo,
        "n_hi": n_hi,
        "pass": True,
        "first_failure_n": None,
        "residue": None,
    }
    for n in range(n_lo, n_hi + 1):
        residue = seq(n)
        if residue:
            report["pass"] = False
            report["first_failure_n"] = n
            report["residue"] = residue.text()
            break
    return report
