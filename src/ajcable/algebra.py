"""Exact Laurent-polynomial arithmetic over the integers.

Two polynomial shapes cover everything in this package:

* one variable -- invariant values at a fixed color in ``t``, and the
  numerators and denominators of fractions in ``M``.  An
  :class:`IntLaurent1` is dense along an arithmetic progression of
  exponents: ``sum_i c[i] * t^(off + step*i)`` with a numpy coefficient
  array ``c``.  Colored Jones values use every fourth exponent, so the
  stride keeps the arrays about four times shorter than their t-span;
* two variables ``t, M`` -- operator coefficients and symbolic-in-color
  data, stored sparsely as ``{(t_exponent, M_exponent): coefficient}``;
  the raw-dict kernels below serve this shape only.

The one-variable side has one kernel, :func:`shifted_sum`
(``sum k * t^e * v``, one shifted, scaled vector add per term), behind
sums, products, the cable sum and operator application, and one exact
division, :func:`div_qint_den`, by ``t^2 - t^-2``.  Coefficient arrays are
int64 when an a-priori bound on every value the operation can produce is
below 2^63, and object arrays of Python ints otherwise, through the same
code.

On top of these sit two fraction types: :class:`RationalTM` (numerator and
denominator in ``t, M``; reduced opportunistically, compared by
cross-multiplication) and :class:`RationalM` (numerator and denominator
:class:`IntLaurent1` values in ``M``; fully reduced and canonical, compared
structurally).

Everything is exact integer arithmetic; no floats anywhere.

>>> f = IntLaurent1({2: 1, -2: 1})
>>> g = IntLaurent1({2: 1, -2: -1})
>>> (f * g).text()
't^4 - t^-4'
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

import numpy as np


class DivByZero(ZeroDivisionError):
    """Division by the zero polynomial."""


class NotDivisible(ArithmeticError):
    """Exact division requested but the quotient is not in the same ring."""


class PoleAtMinusOne(ArithmeticError):
    """A t-rational function has a genuine pole at t = -1."""


class ZeroPolynomial(ValueError):
    """Degree bounds requested for the zero polynomial."""


# ---------------------------------------------------------------------------
# raw-dict kernels of the sparse two-variable shape (IntLaurent2, RationalTM)
# ---------------------------------------------------------------------------


def _merge(a, b, sign=1):
    """Return a + sign*b for exponent->coefficient dicts."""
    r = dict(a)
    for k, c in b.items():
        v = r.get(k, 0) + sign * c
        if v:
            r[k] = v
        else:
            r.pop(k, None)
    return r


def _mul2(a, b):
    if len(a) > len(b):
        a, b = b, a
    r = {}
    for (ta, ma), ca in a.items():
        for (tb, mb), cb in b.items():
            k = (ta + tb, ma + mb)
            v = r.get(k, 0) + ca * cb
            if v:
                r[k] = v
            else:
                del r[k]
    return r


def _eval_at_2_3(d):
    """Integer value of a polynomial dict (non-negative exponents) at (t, M) = (2, 3)."""
    pow3 = {}
    s = 0
    for (t, m), c in d.items():
        x = pow3.get(m)
        if x is None:
            x = pow3[m] = 3**m
        s += (c * x) << t
    return s


def _div2(num, den):
    """Exact quotient of two-variable Laurent dicts; raises NotDivisible.

    After the unit monomials are stripped, two certificates reject most
    impossible divisions before the long division; both only ever reject.
    The long division decides the rest, as it does every quotient returned.

    * Degree certificate.  A quotient q, if one exists, is an honest
      polynomial in Z[t, M] (see the evaluation certificate), and in the
      domain Z[t, M] the highest and lowest exponents in each variable add
      under multiplication.  So span_t(a) = span_t(q) + span_t(b) for
      a = q*b, and likewise for M: a dividend with a smaller t- or M-span
      than the divisor has no quotient.  This costs no big-integer
      arithmetic.
    * Evaluation certificate at (t, M) = (2, 3), stated in the code below.

    The long division reduces in the monomial order "M-exponent first, then
    t".  The remainder is a dict; a min-heap holds its keys as (-M, -t), so
    each step finds the leading term in O(log n) instead of scanning the
    remainder.  A key is pushed when it enters the remainder, so a key that
    cancels and is created again is pushed twice; a popped key no longer in
    the dict is skipped.  The order is compatible with multiplication, so
    every update of a step lands strictly below the leading term it
    eliminates: a key processed as the leading term never comes back.  The
    steps are those of the lex long division that takes the maximum of the
    remainder at each step, so every quotient and every rejection is the
    same (an exact quotient is unique in any case).
    """
    if not den:
        raise DivByZero("division by zero polynomial")
    if not num:
        return {}
    nts, nms = zip(*num)
    dts, dms = zip(*den)
    nt, nm, dt, dm = min(nts), min(nms), min(dts), min(dms)
    if max(nts) - nt < max(dts) - dt or max(nms) - nm < max(dms) - dm:
        raise NotDivisible("quotient is not an integer Laurent polynomial")
    # strip unit monomials so both operands are honest polynomials with
    # per-variable minimum exponent 0; the offset is a unit, restored at the end
    a = {(t - nt, m - nm): c for (t, m), c in num.items()}
    b = {(t - dt, m - dm): c for (t, m), c in den.items()}
    # Evaluation certificate of non-divisibility.  Suppose a = q*b with q an
    # integer Laurent polynomial.  Z[t, M] is a domain, so lowest t- and
    # M-exponents add under multiplication: min_t(q) = min_t(a) - min_t(b) = 0,
    # and likewise for M.  So q is an honest polynomial in Z[t, M], q(2, 3) is
    # an integer, and a(2, 3) = q(2, 3) * b(2, 3).  Hence b(2, 3) != 0 with
    # b(2, 3) not dividing a(2, 3) proves that no quotient exists.  The test
    # only ever rejects; when b(2, 3) = 0 it says nothing and the long
    # division below decides.
    vb = _eval_at_2_3(b)
    if vb and _eval_at_2_3(a) % vb:
        raise NotDivisible("quotient is not an integer Laurent polynomial")
    r = {(-m, -t): c for (t, m), c in a.items()}
    heap = list(r)
    heapify(heap)
    bk = {(-m, -t): c for (t, m), c in b.items()}
    lm, lt = lead = min(bk)
    cb = bk.pop(lead)
    # the divisor's other terms, as key offsets from its leading term
    rest = [(km - lm, kt - lt, c) for (km, kt), c in bk.items()]
    ot, om = nt - dt, nm - dm
    q = {}
    while r:
        key = heappop(heap)
        ca = r.pop(key, 0)
        if not ca:
            continue
        km, kt = key
        if km > lm or kt > lt or ca % cb:
            raise NotDivisible("quotient is not an integer Laurent polynomial")
        qc = ca // cb
        q[(lt - kt + ot, lm - km + om)] = qc
        for dkm, dkt, c in rest:
            k = (km + dkm, kt + dkt)
            v = r.get(k)
            if v is None:
                r[k] = -qc * c
                heappush(heap, k)
            elif v == qc * c:
                del r[k]
            else:
                r[k] = v - qc * c
    return q


def _content(coeffs):
    g = 0
    for c in coeffs:
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------


def _pow_text(var, e):
    if e == 0:
        return ""
    if e == 1:
        return var
    return f"{var}^{e}"


def _terms_text(pairs):
    """Render [(coefficient, factor_text), ...] as ``a + b - c`` style text."""
    if not pairs:
        return "0"
    out = []
    for i, (c, fac) in enumerate(pairs):
        mag = abs(c)
        if fac and mag == 1:
            body = fac
        elif fac:
            body = f"{mag}*{fac}"
        else:
            body = str(mag)
        if i == 0:
            out.append(body if c > 0 else "-" + body)
        else:
            out.append((" + " if c > 0 else " - ") + body)
    return "".join(out)


# ---------------------------------------------------------------------------
# polynomial classes
# ---------------------------------------------------------------------------


# Coefficient arrays.  int64 represents exactly the integers of magnitude
# below 2^63 (-2^63 itself never occurs, so negation is safe).  Every
# operation below first bounds, in Python ints, the magnitude of every
# value it can produce -- partial sums included, since they are sums of a
# subset of the same terms -- and computes in int64 when that bound is
# below 2^63, and in an object array of Python ints otherwise.  The code
# path is the same; only the dtype differs.
_INT64_LIMIT = 1 << 63


def _dtype_for(bound):
    return np.int64 if bound < _INT64_LIMIT else object


_NO_COEFFS = np.zeros(0, dtype=np.int64)


def _scatter(exps, coeffs):
    """``(off, step, c)`` for the terms ``coeffs[i] * t^exps[i]`` (non-empty
    arrays): ``c``, of the dtype of ``coeffs``, sums the coefficients that
    share an exponent on the progression of stride ``step`` from ``off``."""
    off = int(exps.min())
    step = int(np.gcd.reduce(exps - off))
    idx = (exps - off) // (step or 1)
    c = np.zeros(int(idx.max()) + 1, dtype=coeffs.dtype)
    np.add.at(c, idx, coeffs)
    return off, step, c


class IntLaurent1:
    """Integer Laurent polynomial in ``t``, dense along a progression.

    The value is ``sum_i c[i] * t^(off + step*i)`` for a numpy array ``c``
    (int64, or object holding Python ints).  ``c`` is trimmed: it is empty
    for zero, and otherwise its first and last entries are nonzero, so
    ``off`` is the lowest exponent.  ``step`` divides every difference of
    two exponents in the support but need not be the largest such number;
    it is 0 exactly when there is at most one term, so that a monomial
    never narrows the stride of a sum it takes part in.
    Instances are immutable; their arrays are shared and never written.

    >>> IntLaurent1({-2: 1, -6: 1, -10: 1, -18: -1}).text()
    't^-2 + t^-6 + t^-10 - t^-18'
    """

    __slots__ = ("off", "step", "c", "_max_abs")

    def __init__(self, terms=None):
        """From a dict ``{exponent: coefficient}`` or an iterable of
        ``(exponent, coefficient)`` pairs, whose repeated exponents add up."""
        pairs = list(terms.items() if isinstance(terms, dict) else terms or ())
        if not pairs:
            self._set(0, 0, _NO_COEFFS)
            return
        coeffs = [c for _, c in pairs]
        # a coefficient is a sum of some of the given ones
        self._set(*_scatter(np.array([e for e, _ in pairs], dtype=np.int64),
                            np.array(coeffs, dtype=_dtype_for(sum(abs(x) for x in coeffs)))))

    def _set(self, off, step, c):
        if not (c.size and c[0] and c[-1]):
            nz = np.flatnonzero(c)
            if nz.size:
                lo, hi = int(nz[0]), int(nz[-1])
                off, c = off + step * lo, c[lo:hi + 1]
            else:
                off, c = 0, _NO_COEFFS
        if c.size <= 1:
            step = 0
        self.off, self.step, self.c, self._max_abs = off, step, c, None

    @classmethod
    def from_array(cls, off, step, c):
        """``sum_i c[i] * t^(off + step*i)``; ``c`` is trimmed, not copied.

        ``c`` is int64 with every entry of magnitude below 2^63, or object."""
        out = cls.__new__(cls)
        out._set(off, step, c)
        return out

    @classmethod
    def from_terms(cls, exps, coeffs):
        """``sum_i coeffs[i] * t^exps[i]`` from two int64 arrays, with
        repeated exponents adding up, in one scatter.  The sum of
        ``|coeffs|`` must be below 2^63: it bounds every coefficient."""
        out = cls.__new__(cls)
        out._set(*_scatter(exps, coeffs) if exps.size else (0, 0, _NO_COEFFS))
        return out

    @classmethod
    def one(cls):
        return cls({0: 1})

    def max_abs(self):
        """Largest coefficient magnitude, as a Python int (0 for zero)."""
        if self._max_abs is None:
            self._max_abs = int(np.abs(self.c).max()) if self.c.size else 0
        return self._max_abs

    def nonzero(self):
        """``(exponents, coefficients)`` of the nonzero terms as arrays,
        exponents ascending."""
        idx = np.flatnonzero(self.c)
        return self.off + self.step * idx, self.c[idx]

    def items(self):
        """``(exponent, coefficient)`` pairs of the nonzero terms as Python
        ints, exponents ascending."""
        exps, coeffs = self.nonzero()
        return list(zip(exps.tolist(), coeffs.tolist()))

    @property
    def d(self):
        """The terms as a fresh ``{exponent: coefficient}`` dict."""
        return dict(self.items())

    def __bool__(self):
        return bool(self.c.size)

    def __eq__(self, other):
        if not isinstance(other, IntLaurent1):
            return False
        if self.step != other.step and self.c.size > 1 and other.c.size > 1:
            return self.d == other.d
        return self.off == other.off and self.c.size == other.c.size and bool(np.array_equal(self.c, other.c))

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __neg__(self):
        return IntLaurent1.from_array(self.off, self.step, -self.c)

    def __add__(self, other):
        return shifted_sum(((0, 1, self), (0, 1, other)))

    def __sub__(self, other):
        return shifted_sum(((0, 1, self), (0, -1, other)))

    def __mul__(self, other):
        if isinstance(other, int):
            return shifted_sum(((0, other, self),))
        return poly_mul(self, other)

    __rmul__ = __mul__

    def mul_tpow(self, e, c=1):
        """Multiply by ``c * t**e``; for c = 1 only the offset moves."""
        if c == 1:
            return IntLaurent1.from_array(self.off + e, self.step, self.c)
        return shifted_sum(((e, c, self),))

    def text(self):
        return _terms_text([(c, _pow_text("t", e)) for e, c in reversed(self.items())])

    def __repr__(self):
        return f"IntLaurent1({self.text()})"


def shifted_sum(terms):
    """``sum k * t^e * v`` over ``terms``, an iterable of ``(e, k, v)``
    with integers e, k and :class:`IntLaurent1` values v.

    The one-variable kernel: one shifted, scaled vector add per term into a
    single output array.  Its stride is the gcd of the strides and of the
    differences of the terms' lowest exponents, so every term lands on it.
    The dtype comes from the bound on the output noted in the loop below.
    """
    terms = [(e + v.off, k, v) for e, k, v in terms if k and v.c.size]
    if not terms:
        return IntLaurent1()
    start = terms[0][0]
    lo, hi, step, bound = start, start, 0, 0
    for first, k, v in terms:
        step = gcd(step, v.step, first - start)
        lo = min(lo, first)
        hi = max(hi, first + v.step * (v.c.size - 1))
        # every output coefficient, and every partial sum of one, is a sum
        # of k * c over some terms: at most sum |k| * max|v| in magnitude
        bound += abs(k) * v.max_abs()
    step = step or 1
    dtype = _dtype_for(bound)
    out = np.zeros((hi - lo) // step + 1, dtype=dtype)
    for first, k, v in terms:
        c = v.c if v.c.dtype == dtype else v.c.astype(dtype)
        i, j = (first - lo) // step, v.step // step or 1
        view = out[i:i + j * (c.size - 1) + 1:j]
        if k == 1:
            view += c
        elif k == -1:
            view -= c
        else:
            view += k * c
    return IntLaurent1.from_array(lo, step, out)


def realized_terms(f, n, v, k=1):
    """The product ``k * f(t, t^(2n)) * v`` of an :class:`IntLaurent2` f and
    an :class:`IntLaurent1` v, as a list of :func:`shifted_sum` terms."""
    two_n = 2 * n
    return [(a + two_n * b, k * c, v) for (a, b), c in f.d.items()]


def _spread(f, step):
    """The coefficients of ``f`` on the finer stride ``step`` (which divides
    ``f.step``), as a list of Python ints, low to high."""
    j = f.step // step or 1
    out = [0] * (j * (f.c.size - 1) + 1)
    out[::j] = f.c.tolist()
    return out


def div_qint_den(f):
    """Exact quotient ``f / (t^2 - t^-2)``; raises :class:`NotDivisible`.

    ``t^2 - t^-2 = t^-2 (t^4 - 1)``, so ``f = q (t^2 - t^-2)`` means
    ``t^-2 q = -f (1 + t^4 + t^8 + ...)``: along each residue class of
    exponents mod 4, the coefficients of ``t^-2 q`` are the negated partial
    sums of those of ``f``.  ``q`` is a Laurent polynomial exactly when
    every class sums to zero, i.e. when the top four partial sums vanish.

    >>> div_qint_den(IntLaurent1({12: 1, -8: 1, -4: -1, 0: -1})).text()
    't^10 + t^6 + t^2 - t^-6'
    """
    if not f:
        return f
    step = gcd(f.step, 4)
    k, j = 4 // step, f.step // step or 1
    rows = -(-(j * (f.c.size - 1) + 1) // k)
    # each partial sum is bounded by sum |c| <= len(c) * max|c|
    dtype = _dtype_for(f.c.size * f.max_abs())
    a = np.zeros(rows * k, dtype=dtype)
    a[:j * (f.c.size - 1) + 1:j] = f.c
    sums = a.reshape(rows, k)
    np.cumsum(sums, axis=0, out=sums)
    if sums[-1].any():
        raise NotDivisible("quotient by t^2 - t^-2 is not a Laurent polynomial")
    q = a[:-k]
    np.negative(q, out=q)
    return IntLaurent1.from_array(f.off + 2, step, q)


def _div_dense1(a, b):
    """Exact quotient of one-variable polynomials by long division."""
    if not b:
        raise DivByZero("division by zero polynomial")
    if not a:
        return a
    # With g = gcd of the strides and zeta a g-th root of unity, a(zeta t) =
    # zeta^a.off a(t) and likewise for b, so a quotient q satisfies q(zeta t)
    # = zeta^(a.off - b.off) q(t): its exponents lie on a.off - b.off + gZ,
    # starting at a.off - b.off (lowest exponents add in a domain).  The
    # coefficients are Python ints: the quotient of a long division has no
    # simple a-priori bound.
    step = gcd(a.step, b.step) or 1
    q = _div_dense(_spread(a, step), _spread(b, step))
    return IntLaurent1.from_array(a.off - b.off, step, np.array(q, dtype=object))


class IntLaurent2:
    """Integer Laurent polynomial in ``t`` and ``M``.

    Keys are ``(t_exponent, M_exponent)``.  Term order for text is
    ascending M-exponent, then descending t-exponent.

    >>> IntLaurent2({(22, 10): 1, (-18, -10): 1, (-6, -2): -1, (2, 2): -1}).text()
    't^-18*M^-10 - t^-6*M^-2 - t^2*M^2 + t^22*M^10'
    """

    __slots__ = ("d",)

    def __init__(self, terms=None):
        if terms is None:
            self.d = {}
        elif isinstance(terms, dict):
            self.d = {k: c for k, c in terms.items() if c}
        else:
            d = {}
            for k, c in terms:
                v = d.get(k, 0) + c
                if v:
                    d[k] = v
                else:
                    d.pop(k, None)
            self.d = d

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, c=1, t=0, m=0):
        return cls({(t, m): c} if c else {})

    def __bool__(self):
        return bool(self.d)

    def __eq__(self, other):
        return isinstance(other, IntLaurent2) and self.d == other.d

    def __hash__(self):
        return hash(frozenset(self.d.items()))

    def __neg__(self):
        return IntLaurent2({k: -c for k, c in self.d.items()})

    def __add__(self, other):
        return IntLaurent2(_merge(self.d, other.d, 1))

    def __sub__(self, other):
        return IntLaurent2(_merge(self.d, other.d, -1))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntLaurent2({k: c * other for k, c in self.d.items()} if other else {})
        return IntLaurent2(_mul2(self.d, other.d))

    __rmul__ = __mul__

    def eval_t_minus1(self):
        """Substitute t = -1; returns an :class:`IntLaurent1` whose variable
        stands for ``M``."""
        return IntLaurent1([(me, c if te % 2 == 0 else -c) for (te, me), c in self.d.items()])

    def text(self):
        items = sorted(self.d.items(), key=lambda kv: (kv[0][1], -kv[0][0]))
        out = []
        for (te, me), c in items:
            tt = _pow_text("t", te)
            mm = _pow_text("M", me)
            fac = f"{tt}*{mm}" if tt and mm else (tt or mm)
            out.append((c, fac))
        return _terms_text(out)

    def __repr__(self):
        return f"IntLaurent2({self.text()})"


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def poly_mul(a, b):
    """Exact product; both operands must be the same polynomial type."""
    if isinstance(a, IntLaurent1) and isinstance(b, IntLaurent1):
        if b.c.size == 1:
            a, b = b, a
        if a.c.size == 1:  # a monomial factor: a shift, scaled unless it is 1
            return b.mul_tpow(a.off, int(a.c[0]))
        # iterate the factor with fewer terms: one vector add per term
        if np.count_nonzero(a.c) > np.count_nonzero(b.c):
            a, b = b, a
        return shifted_sum((e, c, b) for e, c in a.items())
    if isinstance(a, IntLaurent2) and isinstance(b, IntLaurent2):
        return IntLaurent2(_mul2(a.d, b.d))
    raise TypeError(f"poly_mul: mismatched operand types {type(a).__name__}, {type(b).__name__}")


def poly_exact_div(a, b):
    """Exact quotient a / b in the same Laurent ring.

    Raises :class:`NotDivisible` when the quotient has non-integer
    coefficients or is not a Laurent polynomial, and :class:`DivByZero`
    when ``b`` is zero.

    >>> num = IntLaurent1({12: 1, -8: 1, -4: -1, 0: -1})
    >>> den = IntLaurent1({2: 1, -2: -1})
    >>> poly_exact_div(num, den).text()
    't^10 + t^6 + t^2 - t^-6'
    """
    if isinstance(a, IntLaurent1) and isinstance(b, IntLaurent1):
        return _div_dense1(a, b)
    if isinstance(a, IntLaurent2) and isinstance(b, IntLaurent2):
        return IntLaurent2(_div2(a.d, b.d))
    raise TypeError(f"poly_exact_div: mismatched operand types {type(a).__name__}, {type(b).__name__}")


def substitute_M(f, n):
    """Realize M at color n: each ``t^a M^b`` becomes ``t^(a + 2nb)``.

    >>> f = IntLaurent2({(22, 10): 1, (-18, -10): 1, (-6, -2): -1, (2, 2): -1})
    >>> substitute_M(f, 1).text()
    't^42 - t^6 - t^-10 + t^-38'
    """
    two_n = 2 * n
    return IntLaurent1([(a + two_n * b, c) for (a, b), c in f.d.items()])


def shift_M(f, j):
    """Conjugate by j steps of color shift: ``t^a M^b -> t^(a+2jb) M^b``.

    >>> shift_M(IntLaurent2({(0, 2): 1, (0, -1): 1}), 2).text()
    't^-4*M^-1 + t^8*M^2'
    """
    if isinstance(f, RationalTM):
        return RationalTM(shift_M(f.num, j), shift_M(f.den, j))
    two_j = 2 * j
    return IntLaurent2({(a + two_j * b, b): c for (a, b), c in f.d.items()})


def degree_bounds(f):
    """(lowest, highest) t-exponent of a nonzero polynomial.

    >>> degree_bounds(IntLaurent1({-2: 1, -18: -1}))
    (-18, -2)
    """
    if isinstance(f, IntLaurent1):
        if not f:
            raise ZeroPolynomial("zero polynomial has no degree bounds")
        return (f.off, f.off + f.step * (f.c.size - 1))
    if isinstance(f, IntLaurent2):
        if not f.d:
            raise ZeroPolynomial("zero polynomial has no degree bounds")
        ts = [t for t, _ in f.d]
        return (min(ts), max(ts))
    raise TypeError(f"degree_bounds: unsupported type {type(f).__name__}")


# ---------------------------------------------------------------------------
# fraction in t, M
# ---------------------------------------------------------------------------


class RationalTM:
    """Fraction of integer Laurent polynomials in ``t, M``.

    Canonical form: the denominator is unit-normalized (minimum t- and
    M-exponent zero, the stripped unit monomial absorbed into the
    numerator, which may remain a genuine Laurent polynomial); the common
    integer content is removed; the denominator's leading term in
    (M ascending, t descending) order has positive coefficient.  Reduction
    beyond that is opportunistic: a trial exact division of the numerator
    by the whole denominator (``_div2``), also tried across the two factors
    of a product.  Most trials that fail never reach the long division.
    Spans add under multiplication in the domain Z[t, M], so a numerator
    with a smaller t- or M-span than the denominator is rejected from its
    exponents alone; after the unit monomials are stripped a quotient would
    be a polynomial, so one whose value at (t, M) = (2, 3) the
    denominator's value does not divide is rejected next.  A trial that
    passes both runs the long division in heap order.  Equality is
    therefore decided by cross-multiplication, not structurally.

    >>> f = RationalTM(IntLaurent2({(1, 1): 1, (-1, 1): -1}), IntLaurent2({(1, 0): 1, (-1, 0): -1}))
    >>> f.text()
    'M'
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = IntLaurent2.one()
        if not den:
            raise DivByZero("zero denominator")
        nd, dd = num.d, den.d
        if not nd:
            self.num = IntLaurent2()
            self.den = IntLaurent2.one()
            return
        # absorb the denominator's unit monomial into the numerator
        ts, ms = zip(*dd)
        dt, dm = min(ts), min(ms)
        if dt or dm:
            dd = {(t - dt, m - dm): c for (t, m), c in dd.items()}
            nd = {(t - dt, m - dm): c for (t, m), c in nd.items()}
        # strip common integer content
        g = gcd(_content(nd.values()), _content(dd.values()))
        if g > 1:
            nd = {k: c // g for k, c in nd.items()}
            dd = {k: c // g for k, c in dd.items()}
        # opportunistic cancellation of the whole denominator
        if dd != {(0, 0): 1}:
            try:
                nd = _div2(nd, dd)
                dd = {(0, 0): 1}
            except NotDivisible:
                pass
        # sign normalization on the denominator's canonical-first term:
        # lowest M-exponent (0 by now), then highest t-exponent
        first = max(k for k in dd if not k[1])
        if dd[first] < 0:
            nd = {k: -c for k, c in nd.items()}
            dd = {k: -c for k, c in dd.items()}
        self.num = IntLaurent2(nd)
        self.den = IntLaurent2(dd)

    @classmethod
    def from_poly(cls, p):
        return cls(p, IntLaurent2.one())

    @classmethod
    def one(cls):
        return cls(IntLaurent2.one())

    def is_poly(self):
        return self.den.d == {(0, 0): 1}

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, RationalTM):
            return NotImplemented
        return _mul2(self.num.d, other.den.d) == _mul2(other.num.d, self.den.d)

    def __hash__(self):
        raise TypeError("RationalTM is unhashable (equality is by cross-multiplication)")

    def __neg__(self):
        return RationalTM(-self.num, self.den)

    def __add__(self, other):
        if isinstance(other, IntLaurent2):
            other = RationalTM.from_poly(other)
        if self.den == other.den:
            return RationalTM(self.num + other.num, self.den)
        return RationalTM(
            poly_mul(self.num, other.den) + poly_mul(other.num, self.den),
            poly_mul(self.den, other.den),
        )

    def __mul__(self, other):
        if isinstance(other, IntLaurent2):
            other = RationalTM.from_poly(other)
        # cancel across the product first: it keeps intermediate sizes down
        a_num, a_den = self.num, self.den
        b_num, b_den = other.num, other.den
        try:
            a_num = IntLaurent2(_div2(a_num.d, b_den.d))
            b_den = IntLaurent2.one()
        except NotDivisible:
            pass
        try:
            b_num = IntLaurent2(_div2(b_num.d, a_den.d))
            a_den = IntLaurent2.one()
        except NotDivisible:
            pass
        return RationalTM(poly_mul(a_num, b_num), poly_mul(a_den, b_den))

    def inverse(self):
        if not self.num:
            raise DivByZero("inverting zero")
        return RationalTM(self.den, self.num)

    def text(self):
        if self.is_poly():
            return self.num.text()
        return f"({self.num.text()}) / ({self.den.text()})"

    def __repr__(self):
        return f"RationalTM({self.text()})"


# ---------------------------------------------------------------------------
# fraction in M alone (fully reduced, canonical)
# ---------------------------------------------------------------------------


def _deg(u):
    for i in range(len(u) - 1, -1, -1):
        if u[i]:
            return i
    return -1


def _prim(u):
    g = _content(u)
    if g > 1:
        u = [c // g for c in u]
    d = _deg(u)
    if d >= 0 and u[d] < 0:
        u = [-c for c in u]
    return u[: d + 1] if d >= 0 else []


def _prem(u, v):
    """Pseudo-remainder of dense integer polynomials (lists, low-to-high)."""
    dv = _deg(v)
    lv = v[dv]
    r = list(u)
    dr = _deg(r)
    while dr >= dv:
        lead = r[dr]
        r = [c * lv for c in r]
        shift = dr - dv
        for i in range(dv + 1):
            r[i + shift] -= lead * v[i]
        dr = _deg(r)
    return r


def _gcd_prs(a, b):
    """gcd of nonzero primitive ``a``, ``b`` by a primitive pseudo-remainder
    sequence."""
    if _deg(a) < _deg(b):
        a, b = b, a
    while b:
        a, b = b, _prim(_prem(a, b))
    return a


def _norm(u):
    return max(map(abs, u), default=0)


def _halves(n, w):
    """``B/2`` in each of ``n`` digit places of base ``B = 2^(8w)``."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def _pack(u, w):
    """Value of dense ``u`` at ``B = 2^(8w)``; every coefficient in
    [-B/2, B/2).  The coefficients plus B/2 are the bytes of the value plus
    :func:`_halves`; numpy lays them out while they fit in int64."""
    half = 1 << (8 * w - 1)
    if w < 8:
        raw = (np.array(u, dtype="<i8") + half).view(np.uint8).reshape(-1, 8)[:, :w].tobytes()
    else:
        raw = b"".join((c + half).to_bytes(w, "little") for c in u)
    return int.from_bytes(raw, "little") - _halves(len(u), w)


def _unpack(x, w):
    """The dense polynomial whose value at ``B = 2^(8w)`` is ``x`` and whose
    coefficients are the balanced B-adic digits of ``x``, in [-B/2, B/2):
    the inverse of :func:`_pack`."""
    n = x.bit_length() // (8 * w) + 2
    raw = (x + _halves(n, w)).to_bytes(n * w, "little")
    half = 1 << (8 * w - 1)
    if w < 8:
        d = np.zeros((n, 8), np.uint8)
        d[:, :w] = np.frombuffer(raw, np.uint8).reshape(n, w)
        out = (d.view("<i8").ravel() - half).tolist()
    else:
        out = [int.from_bytes(raw[i : i + w], "little") - half for i in range(0, n * w, w)]
    return out[: _deg(out) + 1]


# GCDHEU gives up after this many evaluation points and runs the PRS.
_HEU_TRIES = 4


def _gcd_dense(u, v):
    """Gcd ``g`` of the primitive parts of nonzero dense ``u``, ``v`` (lists,
    low-to-high), with the cofactors: returns ``(g, u / g, v / g)``.

    ``g`` has positive leading coefficient.  It is found by the heuristic
    gcd GCDHEU (Char, Geddes and Gonnet 1989) at ``xi = 2^(8w)``: take
    ``gamma = igcd(u(xi), v(xi))``, read the candidate ``g`` as the
    primitive part of the balanced xi-adic digits of ``gamma``, and accept
    it only if it divides ``u`` and ``v`` exactly; the quotients are the
    cofactors.  If no candidate is accepted after ``_HEU_TRIES`` points, the
    PRS and long division decide.

    Why an accepted candidate is the gcd (Geddes, Czapor and Labahn,
    Thm 7.7).  Let a, b be the primitive parts, G = gcd(a, b),
    xi >= 2 ||a||_inf + 2, and write gamma = c g(xi) with c the content of
    the digit polynomial, so 0 < |c| <= xi/2 (u(xi) != 0: xi is above every
    root of u).  If g divides u and v then (Gauss) g | G: G = g h with h in
    Z[x].  G(xi) divides u(xi) and v(xi), hence gamma, so h(xi) divides c.
    Every root z of h is a root of a, so |z| < 1 + ||a||_inf (Cauchy); if h
    is not constant, |h(xi)| >= prod |xi - z| > xi - 1 - ||a||_inf >= xi/2
    >= |c|, which a divisor of c cannot be.  So h = +-1 and g = G.

    How "divides exactly" is decided, at the same xi (:func:`_value_quotient`).
    ``g | u`` implies ``g(xi) | u(xi)``, so a remainder there rejects.
    Otherwise the cofactor ``q`` is read from the balanced digits of
    ``u(xi) / g(xi)``; ``g q`` and ``u`` agree at xi, and if every
    coefficient of both is below xi/2 in absolute value they are equal
    (balanced digits are unique).  A candidate that cannot be proved so is
    rejected.  The check also gives xi > 2 ||u||_inf, hence, xi and
    2 ||u||_inf being even, xi >= 2 ||u||_inf + 2 >= 2 ||a||_inf + 2: the
    bound of the argument above holds at every accepting point.
    """
    du, dv = _deg(u), _deg(v)
    if du == 0 or dv == 0:
        return [1], u, v
    nu, nv = _norm(u), _norm(v)
    # the first xi = 2^(8w) meets xi >= 2 max(||u||, ||v||) + 2 with room for
    # the cofactor check when the gcd and the cofactors have coefficients up
    # to 2^8 times the inputs'
    w0 = ((min(du, dv) + 1) * max(nu, nv) ** 2 << 17).bit_length() // 8 + 1
    for w in range(w0, w0 + _HEU_TRIES):
        pu, pv = _pack(u, w), _pack(v, w)
        g, pg = _heu_candidate(gcd(pu, pv), w)
        cu = _value_quotient(pu, nu, g, pg, w)
        cv = cu and _value_quotient(pv, nv, g, pg, w)
        if cv:
            return g, cu, cv
    g = _gcd_prs(_prim(u), _prim(v))
    return g, _div_dense(u, g), _div_dense(v, g)


def _heu_candidate(gamma, w):
    """The candidate read from ``gamma`` at ``xi = 2^(8w)``: the primitive
    part ``g`` of its balanced digit polynomial ``c g``, and ``g(xi)``."""
    digits = _unpack(gamma, w)
    g = _prim(digits)
    return g, gamma // (digits[-1] // g[-1])


def _value_quotient(pu, nu, g, pg, w):
    """``u / g`` from ``pu = u(xi)``, ``nu = ||u||_inf`` and ``pg = g(xi)``
    at ``xi = 2^(8w)``, or None when the values do not prove that ``g``
    divides ``u`` (see :func:`_gcd_dense`)."""
    qb, rb = divmod(pu, pg)
    if rb:
        return None
    q = _unpack(qb, w)
    if 2 * max(nu, min(len(q), len(g)) * _norm(g) * _norm(q)) >= 1 << 8 * w:
        return None
    return q


class RationalM:
    """Reduced fraction of integer Laurent polynomials in ``M``.

    Numerator and denominator are :class:`IntLaurent1` values; their
    variable is named ``M`` only in :meth:`text`.  Fully canonical: common
    polynomial factors are removed (heuristic gcd with cofactors,
    :func:`_gcd_dense`), the denominator is monomial- and sign-normalized
    (minimum exponent 0; lowest-exponent coefficient positive), and the
    shared integer content is 1.  Equality is structural.

    The gcd runs on the common stride ``g`` of the two sides.  Why that is
    sound: ``M^off`` is a unit, so once it is stripped both sides are
    polynomials in ``x = M^g``.  Division with remainder of polynomials in
    ``x`` leaves quotient and remainder in ``Q[x]``, so Euclid's algorithm
    on them never leaves ``Q[x]``, and their gcd in ``Z[M]`` is their gcd
    in ``Z[x]`` with ``M^g`` put back.  The form above is canonical, so the
    result is the fraction a gcd on stride 1 gives.

    >>> RationalM({1: 1, 0: 1}, {2: 1, 1: 1}).text()
    'M^-1'
    >>> RationalM({6: 1, 0: -1}, {3: 1, 0: -1}).text()
    '1 + M^3'
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        """From :class:`IntLaurent1` values or ``{exponent: coefficient}``
        dicts (or pairs, whose repeated exponents add up)."""
        if den is None:
            den = _M_ONE
        num, den = (f if isinstance(f, IntLaurent1) else IntLaurent1(f) for f in (num, den))
        if not den:
            raise DivByZero("zero denominator")
        if not num:
            self.num, self.den = num, _M_ONE
            return
        # unit-normalize the denominator
        if den.off:
            num, den = num.mul_tpow(-den.off), den.mul_tpow(-den.off)
        if den.c.size > 1:
            step = gcd(num.step, den.step)
            g, nu, de = _gcd_dense(_spread(num, step), _spread(den, step))
            if len(g) > 1:
                num = IntLaurent1.from_array(num.off, step, np.array(nu, dtype=object))
                den = IntLaurent1.from_array(0, step, np.array(de, dtype=object))
        cg = _content(den.c.tolist() + num.c.tolist())
        if cg > 1:
            num = IntLaurent1.from_array(num.off, num.step, num.c // cg)
            den = IntLaurent1.from_array(0, den.step, den.c // cg)
        if den.c[0] < 0:
            num, den = -num, -den
        self.num, self.den = num, den

    @classmethod
    def from_int(cls, c):
        return cls({0: c})

    @classmethod
    def monomial(cls, c=1, e=0):
        return cls({e: c})

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, RationalM):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return RationalM(-self.num, self.den)

    def __add__(self, other):
        if self.den == other.den:
            return RationalM(self.num + other.num, self.den)
        return RationalM(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return RationalM(self.num * other, self.den)
        return RationalM(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not other.num:
            raise DivByZero("dividing by zero")
        return RationalM(self.num * other.den, self.den * other.num)

    def text(self):
        nt = _terms_text([(c, _pow_text("M", e)) for e, c in self.num.items()])
        if self.den == _M_ONE:
            return nt
        dt = _terms_text([(c, _pow_text("M", e)) for e, c in self.den.items()])
        return f"({nt}) / ({dt})"

    def __repr__(self):
        return f"RationalM({self.text()})"


_M_ONE = IntLaurent1.one()


def _div_dense(u, v):
    """Exact quotient ``u / v`` of dense integer polynomials (lists,
    low-to-high, ``v`` nonzero) by long division; raises
    :class:`NotDivisible` if ``v`` does not divide ``u`` in Z[x].  It gives
    the cofactors of the PRS gcd in :func:`_gcd_dense` and, on a common
    stride, the one-variable Laurent quotients of :func:`poly_exact_div`."""
    du, dv = _deg(u), _deg(v)
    q = [0] * (du - dv + 1)
    r = list(u)
    for k in range(du - dv, -1, -1):
        c, rem = divmod(r[dv + k], v[dv])
        if rem:
            raise NotDivisible("quotient coefficient is not an integer")
        if c:
            q[k] = c
            r[k:k + dv + 1] = [x - c * y for x, y in zip(r[k:k + dv + 1], v)]
    if any(r):
        raise NotDivisible("division left a remainder")
    return q


def limit_t_minus1(f):
    """Value of a t-rational function at t = -1, as a reduced RationalM.

    Shared factors of (t + 1) are cancelled first; a genuine pole raises
    :class:`PoleAtMinusOne`.

    >>> num = IntLaurent2({(1, 1): 1, (-1, 1): -1})
    >>> den = IntLaurent2({(1, 0): 1, (-1, 0): -1})
    >>> limit_t_minus1(RationalTM(num, den)).text()
    'M'
    """
    num, den = f.num.d, f.den.d
    if not num:
        return RationalM({})
    t_plus_1 = {(1, 0): 1, (0, 0): 1}
    while True:
        d1 = IntLaurent2(den).eval_t_minus1()
        if d1:
            n1 = IntLaurent2(num).eval_t_minus1()
            return RationalM(n1, d1)
        n1 = IntLaurent2(num).eval_t_minus1()
        if n1:
            raise PoleAtMinusOne("denominator vanishes at t = -1 but numerator does not")
        num = _div2(num, t_plus_1)
        den = _div2(den, t_plus_1)
