"""Colored Jones sequences of torus knots and their cables.

Values are exact one-variable Laurent polynomials in ``t``.  Sequences are
normalized so the unknot value at color ``n`` is the quantum integer
``[n]``, the value at color 0 is 0, and negative colors carry the odd
extension ``f(-n) = -f(n)``.  Torus and cable values come from one
cabling formula, applied twice: the (p, q) torus knot is the (p, q)-cable
of the unknot.  The formula is evaluated on numerators, the values times
``t^2 - t^-2``, which are sparse sums of +-1 monomials: a value is its
numerator's terms scattered into one array and divided exactly by
``t^2 - t^-2``.  ``numerator_window`` gives the numerators of a colour
window undivided, for the relation check and the degree audit, which
need no value; ``value_window`` gives the values of a window.  No value
or numerator is memoized: each call computes its window afresh.
``torus_jones_via_step`` is an independent second route to the torus
values.

The module also builds the symbolic-in-color data that the recurrences
are assembled from: the step inhomogeneity ``delta``, and three families
of peel sums (full, alternating, half), each stored as the numerator of a
quotient by ``t^2 - t^-2``, a two-variable polynomial in ``(t, M)`` with
``M`` standing for ``t^(2n)``.

Every recurrence this package relies on is stated once, as data: in
``_relation``, a list of terms ``f(t, t^(2n)) * X(slope*n + const)``
summing to zero, with ``X`` the torus, cable or quantum-integer
numerators or the constant 1 (the shape q-holonomicity predicts;
Garoufalidis-Le, Geom. Topol. 9, 2005).  One evaluator checks them for
``verify_identity`` and ``identity_suite`` exactly, on the same
numerators: the reads of one call come from one numerator table per
sequence, and the terms of all groups and colors of a window are sorted
once and summed, with no values formed except the residue of a failing
color.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd

import numpy as np

from .algebra import (
    _INT64_LIMIT,
    IntLaurent1,
    IntLaurent2,
    NotDivisible,
    _dtype_for,
    div_qint_den,
    poly_mul,
)

QINT_DEN = IntLaurent1({2: 1, -2: -1})  # t^2 - t^-2


class BadParams(ValueError):
    """Parameters outside the valid cabling/torus range."""


class OddMCoefficient(ValueError):
    """A color-linear t-exponent whose slope is odd cannot become an M-power."""


def quantum_integer(m):
    """The quantum integer [m] = (t^(2m) - t^(-2m)) / (t^2 - t^-2).

    >>> quantum_integer(3).text()
    't^4 + 1 + t^-4'
    >>> quantum_integer(-2).text()
    '-t^2 - t^-2'
    """
    a = abs(m)
    return IntLaurent1.from_array(-2 * (a - 1), 4, np.full(a, 1 if m > 0 else -1, dtype=np.int64))


def unknot_jones(n):
    """Colored Jones value of the unknot at color n (the quantum integer)."""
    return quantum_integer(n)


def unknot_sequence():
    """The unknot's values as a function of the color."""
    return unknot_jones


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def _check_torus(p, q):
    if q < 2 or abs(p) <= q or gcd(p, q) != 1:
        raise BadParams(f"invalid torus parameters ({p}, {q}): need q >= 2, |p| > q, gcd = 1")


@dataclass(frozen=True)
class CablingParams:
    """An (r, s)-cable over the (p, q) torus knot.

    Requires gcd(p, q) = 1 with |p| > q >= 2, and gcd(r, s) = 1 with
    s >= 2.  ``theorem_applies`` is true when r lies outside the open
    interval between 0 and p*q*s, the regime in which the constructed
    annihilator's minimality argument operates; the annihilator itself
    and the AJ comparison are built for every valid tuple.
    """

    p: int
    q: int
    r: int
    s: int

    def __post_init__(self):
        _check_torus(self.p, self.q)
        if self.s < 2 or gcd(self.r, self.s) != 1:
            raise BadParams(
                f"invalid cabling parameters (r={self.r}, s={self.s}): need s >= 2, gcd(r, s) = 1"
            )

    @property
    def pqs(self):
        return self.p * self.q * self.s

    @property
    def theorem_applies(self):
        lo, hi = sorted((0, self.pqs))
        return not (lo < self.r < hi)

    def as_dict(self):
        return {"p": self.p, "q": self.q, "r": self.r, "s": self.s}


# ---------------------------------------------------------------------------
# torus-knot values
# ---------------------------------------------------------------------------


# Numerators are ragged int64 arrays ``(owner, exps, coeffs)`` holding the
# numerators ``(t^2 - t^-2) * J(k)`` at several colours k: term i is
# ``coeffs[i] * t^exps[i]`` of the colour with index ``owner[i]``, and
# ``owner`` is ascending, so each colour's terms are one slice.  Every
# coefficient is +-1, so a sum of some of them, which is what every
# coefficient and partial sum of a value is, is bounded by the term count,
# far below 2^63.  ``_cabling_numerator`` bounds every exponent below 2^62
# in Python ints before computing it, so exponents and their differences
# are exact in int64; a value reaching further could not be allocated.
_EXPONENT_LIMIT = 1 << 62


def _qint_numerators(ks):
    """The numerators ``t^(2k) - t^(-2k)`` of the quantum integers at the
    colours ``ks``, the unknot's numerators."""
    exps = np.repeat(2 * ks, 2)
    exps[1::2] *= -1
    coeffs = np.ones_like(exps)
    coeffs[1::2] = -1
    return np.repeat(np.arange(ks.size), 2), exps, coeffs


def _check_reach(reach, a, b, n):
    if reach >= _EXPONENT_LIMIT:
        raise BadParams(f"the ({a}, {b})-cabling sum at colour {n} has exponents beyond 2^62")


def _cabling_reach(a, b, n):
    """``|ab| n^2 + 2|a| n``, which bounds ``|ab(m^2 - n^2 + 1) + 2am|`` and
    ``|mb + 1|`` over the (a, b)-cabling sum at colour n, refused at 2^62."""
    reach = abs(a * b) * n ** 2 + 2 * abs(a) * n
    _check_reach(reach, a, b, n)
    return reach


def _cabling_numerator(a, b, inner, ns):
    """The numerators of the (a, b)-cable of a knot at the colours ``ns``
    (an int64 array, entries >= 1), where ``inner(ks)`` gives the knot's
    numerators at the colours ``ks``.

    The cabling formula (Morton, Math. Proc. Camb. Phil. Soc. 117, 1995)
    ``J(n) = sum t^(ab(m^2 - n^2 + 1) + 2am) J_inner(mb + 1)`` over
    ``m = 1-n, 3-n, .., n-1`` is linear in the inner values, so it holds for
    the numerators too.  ``mb + 1`` is never 0 (b >= 2); a negative one
    reads the inner numerator at ``|mb + 1|`` negated, the odd extension.
    The m's are laid out colour by colour, so the result's ``owner`` is
    ascending when ``inner``'s is.  The (p, q) torus knot is the
    (p, q)-cable of the unknot:

    >>> _, exps, coeffs = _cabling_numerator(3, 2, _qint_numerators, np.array([2]))
    >>> div_qint_den(IntLaurent1.from_terms(exps, coeffs)).text()
    't^-2 + t^-6 + t^-10 - t^-18'
    """
    colour_of = np.repeat(np.arange(ns.size), ns)  # index in ns of each m's colour
    first = np.cumsum(ns) - ns
    n = ns[colour_of]
    m = 2 * (np.arange(colour_of.size) - first[colour_of]) + 1 - n
    n_max = int(ns.max())
    reach = _cabling_reach(a, b, n_max)
    k = m * b + 1
    m_of, exps, coeffs = inner(np.abs(k))  # index in m of each term's m
    _check_reach(reach + int(np.abs(exps).max()), a, b, n_max)
    shift = a * b * (m * m - n * n + 1) + 2 * a * m
    return colour_of[m_of], exps + shift[m_of], np.where((k < 0)[m_of], -coeffs, coeffs)


def _torus_numerators(p, q):
    """The (p, q) torus knot's numerators: the (p, q)-cable of the unknot."""
    return functools.partial(_cabling_numerator, p, q, _qint_numerators)


def _cable_numerators(params):
    """The cable's numerators: the (r, s)-cable of the torus numerators."""
    return functools.partial(_cabling_numerator, params.r, params.s, _torus_numerators(params.p, params.q))


def torus_jones(p, q, n):
    """Colored Jones value of the (p, q) torus knot at color n.

    Computed by the cabling formula over the unknot, one
    :func:`value_window` of one colour per call; nothing is memoized.

    >>> torus_jones(3, 2, 2).text()
    't^-2 + t^-6 + t^-10 - t^-18'
    """
    _check_torus(p, q)
    if n == 0:
        return IntLaurent1()
    if n < 0:
        return -torus_jones(p, q, -n)
    return value_window((p, q), n, n)[n]


def torus_jones_via_step(p, q, n):
    """Same value by iterating the two-step recurrence from colors 0 and 1.

    Independent route kept for cross-checking the cabling formula.
    """
    _check_torus(p, q)
    if n == 0:
        return IntLaurent1()
    neg = n < 0
    n = abs(n)
    pq = p * q
    vals = [IntLaurent1(), IntLaurent1.one()]  # colors 0, 1
    for k in range(0, n - 1):
        nxt = vals[k].mul_tpow(-4 * pq * (k + 1)) + delta_term(p, q, k).mul_tpow(-2 * pq * (k + 1))
        vals.append(nxt)
    return -vals[n] if neg else vals[n]


def torus_sequence(p, q):
    """The (p, q) torus knot's values as a function of the color."""
    return lambda n: torus_jones(p, q, n)


# ---------------------------------------------------------------------------
# cabled values
# ---------------------------------------------------------------------------

def cabled_jones(params, n):
    """Colored Jones value of the (r, s)-cable over the (p, q) torus knot,
    one :func:`value_window` of one colour per call.

    >>> cabled_jones(CablingParams(3, 2, 13, 2), 2).text()
    't^-30 + t^-34 + t^-38 + t^-42 + t^-46 - t^-58 - t^-62 - t^-66 + t^-74 - t^-78'
    """
    if n == 0:
        return IntLaurent1()
    if n < 0:
        return -cabled_jones(params, -n)
    return value_window(params, n, n)[n]


def cable_sequence(params):
    """The cable's values as a function of the color."""
    return lambda n: cabled_jones(params, n)


def numerator_window(params, lo, hi):
    """The numerators ``N(n) = (t^2 - t^-2) J(n)`` at the colours
    ``lo..hi`` (``lo >= 1``), as ``{n: IntLaurent1}``, of the cable
    ``params`` (a :class:`CablingParams`) or of the torus knot ``params =
    (p, q)``.

    One vectorised :func:`_cabling_numerator` call covers the window, then
    one scatter per colour; nothing is divided, and no numerator or value
    is memoized: each call computes its window afresh.
    Readers that need ``J`` only up to the factor ``D = t^2 - t^-2`` use
    these: ``Z[t^+-1]`` is a domain and D commutes with ``M`` and ``L``, so
    ``body N = y`` holds exactly when ``body J = y / D``, and the extreme
    exponents of N are those of J moved out by 2.

    >>> numerator_window((3, 2), 2, 2)[2].text()
    '1 - t^-12 - t^-16 + t^-20'
    """
    cp, p, q = _as_params(params)
    a, b, inner = (p, q, _qint_numerators) if cp is None else (cp.r, cp.s, _torus_numerators(p, q))
    if lo < 1 or hi < lo:
        raise ValueError(f"numerator window [{lo}, {hi}] must be non-empty and start at colour 1 or above")
    _cabling_reach(a, b, hi)  # refused before any array of the window is built
    owner, exps, coeffs = _cabling_numerator(a, b, inner, np.arange(lo, hi + 1, dtype=np.int64))
    cuts = np.searchsorted(owner, np.arange(1, hi - lo + 1))  # owner is ascending
    return {lo + i: IntLaurent1.from_terms(e, c)
            for i, (e, c) in enumerate(zip(np.split(exps, cuts), np.split(coeffs, cuts)))}


def value_window(params, lo, hi):
    """The values ``J(n)`` at the colours ``lo..hi`` (``lo >= 1``), as
    ``{n: IntLaurent1}``, of the cable or torus knot ``params`` (as for
    :func:`numerator_window`): each numerator divided exactly by
    ``t^2 - t^-2`` (:class:`NotDivisible` otherwise).

    >>> value_window((3, 2), 2, 2)[2].text()
    't^-2 + t^-6 + t^-10 - t^-18'
    """
    return {n: div_qint_den(N) for n, N in numerator_window(params, lo, hi).items()}


def clear_caches():
    """Does nothing: no value or numerator is memoized.  Kept public for
    the callers that still call it."""


# ---------------------------------------------------------------------------
# step inhomogeneity and symbolic peel sums
# ---------------------------------------------------------------------------


def _delta_terms(p, q):
    """The four numerator terms of the step inhomogeneity at index j, as
    ``(slope, const, sign)``: the term ``sign * t^(slope*(j + 1) + const)``."""
    _check_torus(p, q)
    u = p + q
    w = q - p
    return ((2 * u, 2, 1), (-2 * u, 2, 1), (2 * w, -2, -1), (-2 * w, -2, -1))


def delta_term(p, q, j):
    """The inhomogeneous term of the torus two-step recurrence at index j.

    A four-term quotient by ``t^2 - t^-2``; symmetric under
    ``j + 1 -> -(j + 1)``, with value 2 at j = -1.

    >>> delta_term(3, 2, 0).text()
    't^10 + t^6 + t^2 - t^-6'
    """
    j1 = j + 1
    return div_qint_den(IntLaurent1([(slope * j1 + const, sign) for slope, const, sign in _delta_terms(p, q)]))


def _affine_monomial(slope, const, coeff=1):
    """Monomial whose realized t-exponent is ``slope*n + const``.

    The slope turns into an M-power, so it must be even.
    """
    if slope % 2:
        raise OddMCoefficient(f"t-exponent slope {slope} is odd; cannot express as an M-power")
    return IntLaurent2.monomial(coeff, const, slope // 2)


def symbolic_delta(p, q, a, b):
    """Numerator form of the step inhomogeneity at index ``j = a*n + b``:
    realized at color n, divided by ``t^2 - t^-2``, it is ``delta_term``.

    >>> symbolic_delta(3, 2, 2, 1).text()
    't^-18*M^-10 - t^-6*M^-2 - t^2*M^2 + t^22*M^10'
    """
    b1 = b + 1
    acc = IntLaurent2()
    for slope, const, sign in _delta_terms(p, q):
        acc = acc + _affine_monomial(slope * a, slope * b1 + const, sign)
    return acc


def _two_step_peels(p, q, m, a, b):
    """Peels of the torus index a*n + b by 1..m two-steps, in M-form, each
    total built on the one before.

    Entry j - 1 is ``(c, total)`` with J(a*n+b) = c*J(a*n+b-2j) + total/(t^2 - t^-2).
    """
    pq = p * q
    out, total = [], IntLaurent2()
    for j in range(1, m + 1):
        pref = _affine_monomial((2 - 4 * j) * pq * a, (2 - 4 * j) * pq * b + 4 * pq * j * (j - 1) + 2 * pq)
        total = total + poly_mul(pref, symbolic_delta(p, q, a, b - 2 * j))
        out.append((_affine_monomial(-4 * pq * j * a, 4 * pq * j * (j - b)), total))
    return out


def _single_step_peels(p, m, a, b):
    """Peels of the torus index a*n + b by 1..m steps of the q = 2
    recurrence, in M-form, each total built on the one before.

    Entry j - 1 is ``(c, total)`` with J(a*n+b) = c*J(a*n+b-j) + total/(t^2 - t^-2).
    """
    out, total = [], IntLaurent2()
    for j in range(1, m + 1):
        sign = 1 if j % 2 else -1
        pref = _affine_monomial((2 - 4 * j) * p * a, ((2 - 4 * j) * b + 2 * j * j - 2 * j + 2) * p, sign)
        core = _affine_monomial(4 * a, 4 * b + 2 - 4 * j) - _affine_monomial(-4 * a, -4 * b - 2 + 4 * j)
        total = total + poly_mul(pref, core)
        out.append((_affine_monomial(-4 * p * j * a, (2 * j * j - 4 * j * b) * p, (-1) ** j), total))
    return out


# Each peel-sum kind peels the torus index from s(n+1+k)-1 down to s(n+1)-1:
# "S" and "V" (even s) by k*s/2 two-steps, "U" (q = 2) by k*s single steps.
PEEL_STEP = {"S": 2, "U": 1, "V": 1}


def peel(kind, p, q, s):
    """The peel J(s(n+1+k)-1) = c*J(s(n+1)-1) + total/(t^2 - t^-2), k = PEEL_STEP[kind].

    Kind "S" peels s two-steps (the full sum), "U" s single steps (the
    alternating sum, q = 2) and "V" s/2 two-steps (the half sum, s even).
    Returns ``(c, total)`` in M-form; the torus coefficient c is beta for
    "S", -eta for "U" and nu for "V".

    >>> peel("V", 3, 2, 2)[0].text()
    't^-48*M^-24'
    """
    _check_torus(p, q)
    if s < 2:
        raise BadParams(f"peel sums need s >= 2, got {s}")
    if kind not in PEEL_STEP:
        raise BadParams(f"unknown peel sum kind {kind!r}; expected S, U or V")
    if kind == "U" and q != 2:
        raise BadParams("alternating peel sum is specific to q = 2")
    if kind == "V" and s % 2:
        raise BadParams("half peel sum needs even s")
    k = PEEL_STEP[kind]
    if kind == "U":
        return _single_step_peels(p, k * s, s, (k + 1) * s - 1)[-1]
    return _two_step_peels(p, q, k * s // 2, s, (k + 1) * s - 1)[-1]


def cable_step_coefficients(params):
    """Coefficients of the cable two-step relation, symbolic in the color.

    Returns ``{"step": ..., "torus": ..., "delta": ...}`` such that at
    every color n::

        JC(n+2) = step(n)*JC(n) + torus(n)*JT(s(n+1)-1) + delta(n)*DELTA(s(n+1)-1)

    where realization substitutes M = t^(2n).
    """
    p, q, r, s = params.p, params.q, params.r, params.s
    rs = r * s
    pqs = p * q * s
    step = IntLaurent2.monomial(1, -4 * rs, -2 * rs)
    torus = IntLaurent2.monomial(1, 2 * r - 2 * rs - 4 * pqs, r - rs - 2 * pqs) - IntLaurent2.monomial(
        1, -2 * rs - 2 * r, -r - rs
    )
    delta = IntLaurent2.monomial(1, 2 * r - 2 * rs - 2 * pqs, r - rs - pqs)
    return {"step": step, "torus": torus, "delta": delta}


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

IDENTITY_IDS = (
    "TORUS_STEP",
    "Q2_STEP",
    "CABLE_STEP",
    "PEEL",
    "PEEL_S",
    "Q2_PEEL",
    "Q2_PEEL_S",
    "HALF_PEEL",
    "S2_STEP",
)


def _as_params(params):
    """``(cp, p, q)`` for a :class:`CablingParams` ``cp``, ``(None, p, q)``
    for a valid torus pair ``(p, q)``."""
    if isinstance(params, CablingParams):
        return params, params.p, params.q
    if isinstance(params, tuple) and len(params) == 2:
        _check_torus(*params)
        return None, *params
    raise BadParams(f"expected CablingParams or a (p, q) pair, got {params!r}")


def verify_identity(identity_id, params, n_lo, n_hi, m=None):
    """Exactly check one recurrence over colors ``n_lo..n_hi``.

    ``params`` is a :class:`CablingParams` (cable identities need r, s) or
    a plain ``(p, q)`` pair for the torus-only identities.  ``m`` is the
    peel depth for the iterated-peel identities.

    Every identity is stated once, in :func:`_relation`, as groups of
    terms ``f(t, t^(2n)) * X(slope*n + const)``: with ``D = t^2 - t^-2``,
    each group sums to D times one residue of the identity at every color.
    ``X`` is read through its numerators ``D*X`` (the torus and cable
    values, the quantum integers) or is the constant 1, whose ``f`` is
    already a numerator (the four terms of ``D*delta``, the peel totals).
    One evaluator, shared with :func:`identity_suite`, takes every read
    ``(X, slope, const)`` of a call from one numerator table per sequence
    and checks all groups and colors at once: their terms are sorted once
    by (group, color, exponent) and summed.  This is sound: ``Z[t^+-1]``
    is a domain and D is not zero, so a residue is zero exactly when D
    times it is.  The residue reported for a failing color, that of its
    first nonzero group, is the exact quotient of its terms by D, i.e. the
    residue itself; a sum that D does not divide has no residue, and the
    color is reported failing with a text saying so.  Every torus and
    cable numerator read must be divisible by D, as its value requires;
    :class:`NotDivisible` is raised otherwise.

    The report lists every failing color with the nonzero residue.  An
    empty color window raises :class:`ValueError`: checking no color must
    not read as a pass.
    """
    ns = _colours(n_lo, n_hi)
    if identity_id not in IDENTITY_IDS:
        raise BadParams(f"unknown identity {identity_id!r}")
    cp, p, q = _as_params(params)
    if identity_id in ("PEEL", "Q2_PEEL") and (m is None or m < 1):
        raise BadParams(f"{identity_id} needs a peel depth m >= 1")
    if identity_id not in {i for i, _ in applicable_identities(params)}:
        raise BadParams(f"{identity_id} does not apply to {params!r}; see applicable_identities")
    return _check_relations([(identity_id, m)], cp, p, q, ns)[0]


def _colours(n_lo, n_hi):
    """The int64 array of the colors ``n_lo..n_hi``; an empty window raises."""
    if n_hi < n_lo:
        raise ValueError(f"empty color window [{n_lo}, {n_hi}]")
    return np.arange(n_lo, n_hi + 1, dtype=np.int64)


def _relation(identity_id, p, q, cp, m, depth_peels):
    """The identity ``identity_id`` as a list of term groups, each summing
    to D times one residue of the identity at every color n.  A term
    ``(seq, slope, const, f)`` is ``f(t, t^(2n)) * X(slope*n + const)``,
    f an :class:`IntLaurent2` in ``(t, M)``, where ``X`` is read through
    its numerators ``D*X`` for ``seq`` "T" (the torus values), "C" (the
    cable values) and "Q" (the quantum integers), and is the constant 1
    for ``seq`` "1" (slope and const 0; f is then itself a numerator).
    PEEL and Q2_PEEL take their peel at depth m from ``depth_peels`` (see
    :func:`_depth_peels`)."""
    mono, one = IntLaurent2.monomial, IntLaurent2.one()
    pq = p * q
    if identity_id == "TORUS_STEP":  # J(n+2) = t^(-4pq(n+1)) J(n) + t^(-2pq(n+1)) delta(n)
        return [[("T", 1, 2, one), ("T", 1, 0, mono(-1, -4 * pq, -2 * pq)),
                 ("1", 0, 0, mono(-1, -2 * pq, -pq) * symbolic_delta(p, q, 1, 0))]]
    if identity_id == "Q2_STEP":  # J(n+1) = -t^(-(4n+2)p) J(n) + t^(-2pn) [2n+1]
        return [[("T", 1, 1, one), ("T", 1, 0, mono(1, -2 * p, -2 * p)), ("Q", 2, 1, mono(-1, 0, -p))]]
    if identity_id == "CABLE_STEP":  # see cable_step_coefficients
        c, s = cable_step_coefficients(cp), cp.s
        return [[("C", 1, 2, one), ("C", 1, 0, -c["step"]), ("T", s, s - 1, -c["torus"]),
                 ("1", 0, 0, -c["delta"] * symbolic_delta(p, q, s, s - 1))]]
    if identity_id == "S2_STEP":  # the cable and torus relations through J(2n + 1)
        r = cp.r
        return [[("C", 1, 1, one), ("T", 2, 1, mono(-1, 0, -r)), ("C", 1, 0, mono(1, -2 * r, -2 * r))],
                [("T", 2, 3, one), ("T", 2, 1, mono(-1, -8 * pq, -4 * pq)),
                 ("1", 0, 0, mono(-1, -4 * pq, -2 * pq) * symbolic_delta(p, q, 2, 1))]]
    # a peel J(k) = c(n)*J(k - drop) + total(n)/(t^2 - t^-2) at k = slope*n + const
    if identity_id in ("PEEL", "Q2_PEEL"):
        slope, const, (c, total) = 1, 0, depth_peels[identity_id][m - 1]
        drop = 2 * m if identity_id == "PEEL" else m
    else:  # a peel sum: J(s(n+1+k)-1) = c(n)*J(s(n+1)-1) + sum(n)
        kind = {"PEEL_S": "S", "Q2_PEEL_S": "U", "HALF_PEEL": "V"}[identity_id]
        k, s = PEEL_STEP[kind], cp.s
        slope, const, drop, (c, total) = s, s * (1 + k) - 1, k * s, peel(kind, p, q, s)
    return [[("T", slope, const, one), ("T", slope, const - drop, -c), ("1", 0, 0, -total)]]


def _depth_peels(identities, p, q):
    """The peels of the PEEL and Q2_PEEL entries of ``identities``, as
    ``{identity_id: [(c, total) at depths 1..m]}`` for the largest depth m
    asked for: each total is built once, on the one before it."""
    depth = {}
    for identity_id, m in identities:
        if identity_id in ("PEEL", "Q2_PEEL"):
            depth[identity_id] = max(depth.get(identity_id, 0), m)
    return {identity_id: _two_step_peels(p, q, m, 1, 0) if identity_id == "PEEL"
            else _single_step_peels(p, m, 1, 0) for identity_id, m in depth.items()}


def _check_relations(identities, cp, p, q, ns):
    """The reports of ``identities``, ``(identity_id, m)`` pairs that apply
    to the parameters, at the colors ``ns``, from one pass over all their
    groups.

    The reads of every group are taken from one numerator table per
    sequence (:func:`_reads`).  Every term is tagged with its group and
    color, and all terms are sorted once by the key (group, color,
    exponent) and each run of equal keys summed.  The key is an int64 when
    ``groups * colors * width`` is below 2^63, ``width`` bounding the span
    of the terms' exponents (see :func:`_pieces`), and a Python int
    otherwise, so no window is refused for its key: exponents below 2^62
    (bounded in :func:`_cabling_reach` and :func:`_pieces`) are the only
    bound.
    A color reports, per identity, the residue of its first nonzero group:
    the exact quotient of the group's summed terms by D, or, when that
    quotient does not exist, a text saying so.
    """
    peels = _depth_peels(identities, p, q)
    groups = [(index, group) for index, (identity_id, m) in enumerate(identities)
              for group in _relation(identity_id, p, q, cp, m, peels)]
    reads = _reads({term[:3] for _, group in groups for term in group}, p, q, cp, ns)
    keys, coeffs, lo, width = _pieces(groups, reads, ns)
    residues = [{} for _ in identities]
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))  # keys are >= 0
    sums = np.add.reduceat(coeffs[order], starts)
    keys, sums = keys[starts[sums != 0]], sums[sums != 0]  # the nonzero runs, by key
    gslot = keys // width
    cuts = np.flatnonzero(np.diff(gslot, prepend=-1)).tolist() + [keys.size]
    for a, b in zip(cuts, cuts[1:]):
        g, i = divmod(int(gslot[a]), ns.size)
        mine = residues[groups[g][0]]
        if i not in mine:  # a colour reports its first nonzero group
            mine[i] = _residue_text((keys[a:b] - gslot[a] * width + lo).astype(np.int64), sums[a:b])
    n_lo = int(ns[0])
    reports = []
    for (identity_id, m), mine in zip(identities, residues):
        failures = [{"n": n_lo + i, "residue": mine[i]} for i in sorted(mine)]
        report = {
            "id": identity_id,
            "params": cp.as_dict() if cp is not None else {"p": p, "q": q},
            "n_lo": n_lo,
            "n_hi": int(ns[-1]),
            "pass": not failures,
            "failures": failures,
        }
        if m is not None:
            report["m"] = m
        reports.append(report)
    return reports


def _residue_text(exps, coeffs):
    """The text of ``sum coeffs[i] t^exps[i]`` divided by ``t^2 - t^-2``, or
    of why it has no such quotient."""
    try:
        return div_qint_den(IntLaurent1.from_terms(exps, coeffs)).text()
    except NotDivisible:
        return "the sum of the terms is not divisible by t^2 - t^-2"


def _affine(const, slope, ns):
    """The int64 array ``const + slope * ns`` (``ns`` ascending), bounded
    below 2^62 in Python ints first."""
    ends = (const, const + slope * int(ns[0]), const + slope * int(ns[-1]))
    if max(map(abs, ends)) >= _EXPONENT_LIMIT:
        raise BadParams(f"identity terms at colours {int(ns[0])}..{int(ns[-1])} have exponents beyond 2^62")
    return const + slope * ns


def _ranges(first, count):
    """The indices ``first[i] .. first[i] + count[i] - 1`` of every i, concatenated."""
    ends = np.cumsum(count)
    return np.arange(int(ends[-1]) if ends.size else 0) + np.repeat(first - ends + count, count)


def _reads(keys, p, q, cp, ns):
    """The reads ``keys``, each ``(seq, slope, const)`` of :func:`_relation`,
    as ``(span, slot, exps, coeffs)``: a read's terms are the entries
    ``span[key][0]:span[key][1]`` of the three arrays, the terms ``coeffs[i]
    * t^exps[i]`` of its numerators at the signed colours ``k = slope*n +
    const``, n = ``ns[slot[i]]``, every coefficient +-1.  A negative colour
    reads the numerator at ``-k`` negated, the odd extension; colour 0 has
    none.  The read ``("1", 0, 0)``, always made, is the term 1 at every
    colour.

    Each sequence's numerators come from one table: one cabling sum over
    the union of the colours its reads need, in the order T, C, Q.  The
    torus table bounds ``|pq| k^2`` below 2^62 for the colours ``k = n + 1``
    of Q2_STEP, so the exponents ``+-2(2n + 1)`` of its quantum integers
    are far below it too.  Every numerator of a table must be divisible by
    ``t^2 - t^-2``, as its value requires: per colour, the coefficients of
    each exponent class mod 4 sum to zero, the criterion of
    :func:`div_qint_den`.  Otherwise :class:`NotDivisible` is raised."""
    span, parts, offset = {}, [], 0
    for seq in ("T", "C", "Q"):
        mine = sorted(key for key in keys if key[0] == seq)
        if not mine:
            continue
        ks = np.stack([_affine(const, slope, ns) for _, slope, const in mine]).ravel()
        colours = np.unique(np.abs(ks))
        colours = colours[colours > 0]  # not empty: no identity reads a sequence at colour 0 alone
        inner = (_torus_numerators(p, q) if seq == "T" else _cable_numerators(cp) if seq == "C"
                 else _qint_numerators)
        owner, exps, coeffs = inner(colours)  # owner ascending
        sums = np.zeros(4 * colours.size, dtype=np.int64)  # +-1 terms: bounded by their count
        np.add.at(sums, 4 * owner + (exps & 3), coeffs)
        if sums.any():
            raise NotDivisible("a numerator is not divisible by t^2 - t^-2")
        bounds = np.searchsorted(owner, np.arange(colours.size + 1))
        cell = np.flatnonzero(ks)  # read j's colours are ks[j * ns.size:(j + 1) * ns.size]
        row = np.searchsorted(colours, np.abs(ks[cell]))
        count = bounds[row + 1] - bounds[row]
        idx = _ranges(bounds[row], count)
        cell = np.repeat(cell, count)
        cuts = (offset + np.searchsorted(cell, np.arange(len(mine) + 1) * ns.size)).tolist()
        span.update(zip(mine, zip(cuts, cuts[1:])))
        parts.append((cell % ns.size, exps[idx], np.where(ks[cell] < 0, -coeffs[idx], coeffs[idx])))
        offset += idx.size
    span["1", 0, 0] = (offset, offset + ns.size)
    parts.append((np.arange(ns.size), np.zeros(ns.size, dtype=np.int64), np.ones(ns.size, dtype=np.int64)))
    return span, *(np.concatenate(arrays) for arrays in zip(*parts))


def _pieces(groups, reads, ns):
    """Every term of every group in ``groups`` (``(identity index, group)``
    pairs, the groups of :func:`_relation`) at the colours ``ns``, as
    ``(keys, coeffs, lo, width)``: the term ``coeffs[i] * t^e`` of group g
    at the colour ``ns[j]`` has the key ``(g * ns.size + j) * width + e -
    lo``, with ``lo <= e < lo + width`` for every term.  A piece is one
    monomial ``k t^a M^b`` of a term's f times its read (see
    :func:`_reads`); each realized exponent ``a + 2bn`` is bounded below
    2^62 in Python ints first, so every e, a read's exponent plus that, is
    exact in int64.  ``width`` is the span of the reads' exponents plus that
    of the realized ones; the keys are int64 when ``groups * colours *
    width`` is below 2^63, Python ints otherwise.  Every sum of
    coefficients is bounded by the sum of ``|k|`` over the pieces' terms:
    the coefficients are int64 below 2^63, object arrays otherwise."""
    span, slot, exps, coeffs = reads
    size, n_lo, n_hi = ns.size, int(ns[0]), int(ns[-1])
    pieces, bound = [], 0
    for g, (_, group) in enumerate(groups):
        for seq, slope, const, f in group:
            start, stop = span[seq, slope, const]
            if start == stop:
                continue
            for (a, b), k in f.d.items():
                if max(abs(a), abs(a + 2 * b * n_lo), abs(a + 2 * b * n_hi)) >= _EXPONENT_LIMIT:
                    raise BadParams(f"identity terms at colours {n_lo}..{n_hi} have exponents beyond 2^62")
                pieces.append((g, a, b, k, start, stop - start))
                bound += abs(k) * (stop - start)
    g, a, b, k, first, count = zip(*pieces)
    count = np.array(count)
    piece = np.repeat(np.arange(count.size), count)
    idx = _ranges(np.array(first), count)
    shift = np.array(a)[:, None] + 2 * np.array(b)[:, None] * ns  # realized exponents, (piece, colour)
    lo = int(exps.min()) + int(shift.min())
    width = int(exps.max()) + int(shift.max()) - lo + 1
    dtype = _dtype_for(len(groups) * size * width)
    base = (np.array(g)[:, None] * size + np.arange(size)).astype(dtype) * width + (shift.astype(dtype) - lo)
    keys = base.ravel()[piece * size + slot[idx]] + exps[idx]
    return keys, np.array(k, dtype=_dtype_for(bound))[piece] * coeffs[idx], lo, width


def applicable_identities(params):
    """Which identities apply to one parameter tuple, PEEL and Q2_PEEL at
    the peel depths 1..4."""
    cp = params if isinstance(params, CablingParams) else None
    q = cp.q if cp is not None else params[1]
    out = [("TORUS_STEP", None)]
    out += [("PEEL", m) for m in range(1, 5)]
    if q == 2:
        out.append(("Q2_STEP", None))
        out += [("Q2_PEEL", m) for m in range(1, 5)]
    if cp is not None:
        out.append(("CABLE_STEP", None))
        out.append(("PEEL_S", None))
        if q == 2 and cp.s % 2 == 1:
            out.append(("Q2_PEEL_S", None))
        if cp.s % 2 == 0:
            out.append(("HALF_PEEL", None))
        if cp.s == 2:
            out.append(("S2_STEP", None))
    return out


def identity_suite(params, n_lo, n_hi):
    """Run every applicable identity check; returns the list of reports,
    as :func:`verify_identity` gives them, from one evaluation: one
    numerator table per sequence and one sort of all the suite's terms.

    An empty color window raises :class:`ValueError`.
    """
    ns = _colours(n_lo, n_hi)
    cp, p, q = _as_params(params)
    return _check_relations(applicable_identities(params), cp, p, q, ns)
