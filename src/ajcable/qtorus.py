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

Coefficients are :class:`~ajcable.algebra.IntLaurent2`; only the factors of
the annihilator ``P`` hold fractions, :class:`~ajcable.algebra.RationalTM`.
Operators are built from their coefficients and multiplied with
:func:`skew_multiply`; no command adds or negates one.  A relation is
checked by applying a chain of them to a sequence
(:func:`check_annihilation`).
"""

from __future__ import annotations

from .algebra import IntLaurent2, NotDivisible, realized_terms, shift_M, shifted_sum


class SkewOperator:
    """Finite sum ``sum_i  c_i(t, M) L^i`` with left coefficients.

    ``coeffs`` maps the L-exponent to the nonzero coefficient as given.  A
    product that mixes polynomials and fractions needs the fraction on the
    left, whose arithmetic promotes the polynomial.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = {i: c for i, c in coeffs.items() if c}

    @classmethod
    def identity(cls):
        return cls({0: IntLaurent2.one()})

    def l_degree(self):
        if not self.coeffs:
            raise ValueError("zero operator has no L-degree")
        return max(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, SkewOperator):
            return NotImplemented
        if self.coeffs.keys() != other.coeffs.keys():
            return False
        return all(self.coeffs[i] == other.coeffs[i] for i in self.coeffs)

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
    >>> L = SkewOperator({1: IntLaurent2.one()})
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
            if not v:
                out.pop(k, None)
            else:
                out[k] = v
    return SkewOperator(out)


def _operator_terms(P, f, n):
    """The :func:`shifted_sum` terms of ``(P f)(n)``: each coefficient
    realized at ``M = t^(2n)`` times the shifted value ``f(n + i)``.  A
    coefficient that is not an :class:`IntLaurent2` raises
    :class:`TypeError`; the chains of :meth:`AnnihilatorBundle.cleared_chain`
    are denominator-free."""
    terms = []
    for i, c in P.coeffs.items():
        if not isinstance(c, IntLaurent2):
            raise TypeError(f"operator coefficient of L^{i} is not a polynomial")
        terms += realized_terms(c, n, f(n + i))
    return terms


def apply_operator(P, f, n):
    """Apply a polynomial-coefficient operator to a sequence at one color:
    ``(P f)(n)``, one :func:`shifted_sum` of :func:`_operator_terms`."""
    return shifted_sum(_operator_terms(P, f, n))


def check_annihilation(P, f, n_lo, n_hi, through=None):
    """Exact annihilation check of a chain of operators on ``f``.

    ``P`` is a list of polynomial-coefficient operators standing for their
    composition, applied right to left; a lone :class:`SkewOperator` is a
    chain of one.  An operator with L-exponents ``lo..hi`` evaluated at
    colors ``[a, b]`` reads its input at ``[a + lo, b + hi]``, so the
    values of ``f``, then of each partial product, are computed once each
    over the colors the operators to their left read.  Every color in
    ``[n_lo, n_hi]`` is then tested exactly; the report records the first
    failure if any.  An empty window or chain raises :class:`ValueError`:
    checking nothing must not read as a pass.

    ``through`` is a sequence ``h`` that the leftmost operator ``A`` is
    known to annihilate.  Then the rest of the chain, ``B``, is checked
    to give ``(B f)(n) == h(n)`` at every color ``A`` reads at
    ``[n_lo, n_hi]``, and ``A`` is never applied: ``(A B f)(n)`` reads
    ``B f`` only at those colors, where it equals ``h``, so it is
    ``(A h)(n) = 0``.  A pass therefore proves the annihilation; a failure
    is one of the relation ``B f = h``, so the report's ``relation`` names
    it with its window, and ``first_failure_n`` and ``residue`` are the
    relation's (``B f - h``), not the chain's; ``B`` is the identity for
    a chain of one.  ``h(n)`` may raise :class:`NotDivisible` when it is an
    exact quotient that does not exist; no value of ``B f`` equals it, so
    the relation fails there.  Either way, the leftmost operator checked is
    never applied on its own: its residue at each colour is one
    :func:`shifted_sum` of its terms and the target's (0, or ``-h(n)``).
    """
    if n_hi < n_lo:
        raise ValueError(f"empty color window [{n_lo}, {n_hi}]")
    chain = [P] if isinstance(P, SkewOperator) else list(P)
    if not chain:
        raise ValueError("empty operator chain")
    report = {
        "n_lo": n_lo,
        "n_hi": n_hi,
        "pass": True,
        "first_failure_n": None,
        "residue": None,
    }
    lo, hi = n_lo, n_hi
    if through is not None:
        lo, hi = lo + min(chain[0].coeffs, default=0), hi + max(chain[0].coeffs, default=0)
        report["relation"] = f"chain[1:] f = through at colors [{lo}, {hi}]"
        chain = chain[1:] or [SkewOperator.identity()]
    # windows[k]: the colors chain[k] is evaluated at; windows[-1]: those of f
    windows = [(lo, hi)]
    for op in chain:
        w_lo, w_hi = windows[-1]
        windows.append((w_lo + min(op.coeffs, default=0), w_hi + max(op.coeffs, default=0)))
    w_lo, w_hi = windows[-1]
    values = {k: f(k) for k in range(w_lo, w_hi + 1)}
    for k in range(len(chain) - 1, 0, -1):
        w_lo, w_hi = windows[k]
        values = {n: apply_operator(chain[k], values.__getitem__, n) for n in range(w_lo, w_hi + 1)}

    def fail(n, text):
        report.update({"pass": False, "first_failure_n": n, "residue": text})
        return report

    for n in range(lo, hi + 1):
        terms = _operator_terms(chain[0], values.__getitem__, n)
        if through is not None:
            try:
                terms.append((0, -1, through(n)))
            except NotDivisible as exc:
                return fail(n, f"through({n}) is not a Laurent polynomial: {exc}")
        residue = shifted_sum(terms)
        if residue:
            return fail(n, residue.text())
    return report
