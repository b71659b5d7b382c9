"""Bounded search for lower-order annihilators, with sound verdicts.

The search space is explicit: an operator ``D = sum_i D_i(t, M) L^i`` of
given L-degree whose coefficient ``D_i`` lives in a finite monomial box
(a rectangle of (t, M)-exponents centered per i so that the realized
supports of the candidate terms overlap the invariant values).  Requiring
``(D J)(n) = 0`` for every color in a window is a homogeneous linear
system over the rationals in the box coefficients.

Verdicts are certificates, never guesses:

* ``no annihilator within bounds`` -- the system's coefficient matrix has
  full column rank modulo a prime.  Any nonzero rational solution could
  be scaled primitive-integer, and would reduce to a nonzero mod-p kernel
  vector; full rank rules that out.  The rank comes from forward
  elimination alone, blocked over F_p: panels of columns are eliminated
  pivot by pivot, the panel's pivot rows are solved by one product with
  a small solve matrix, and the rest of the matrix is updated by one
  more product.  These products, and the few that build the solve
  matrix, are the only place floats appear: float64 BLAS products of
  16-bit limbs, used as an exact integer accumulator whose sums stay
  below 2^53 (see the note above ``_draw_taus``).  A first elimination
  of the leading rows alone often settles full rank; the kernel is
  computed only when it is nonzero.
* ``found annihilator within bounds`` -- a candidate was lifted from the
  mod-p kernel and then verified by exact symbolic application.
* ``inconclusive`` -- every system tried was rank-deficient mod p and no
  lift verified.

The evaluation matrix has one row per random point tau in F_p and color
n: the equation ``(D J)(n) = 0`` at t = tau.  Its value residues come
from the cabling formula of :mod:`.jones` read mod p, the unknot's
quantum integers cabled by (p, q) and then by (r, s): the same formula
that gives the exact values.

The evaluation matrix is tried at each prime in turn.  When both are
rank-deficient and nothing lifts, the last prime's system grows by
batches of fresh points, each through the same elimination and lift,
until its rank is full, a lift verifies, or a batch adds no rank.  Too
few points can make a system of full rank look deficient: for the unknot
one point's rows span at most two dimensions per M-power, as the quantum
integers satisfy a two-term recurrence.  Every certificate, batch or
not, is the full column rank of evaluation rows mod p argued above.

Nothing here ever claims minimality outright: the result is always
relative to the stated boxes and color window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .algebra import IntLaurent2
from .jones import BadParams, CablingParams, _refuse_beyond_memory, unknot_sequence, value_window
from .degrees import predicted_cable_degrees, predicted_torus_degrees
from .qtorus import SkewOperator, check_annihilation

PRIMES = (2147483647, 2147483629)  # both prime, products stay int64-safe


class SystemTooSmall(ValueError):
    """Fewer than twice as many equations as unknowns, counted by the upper
    bound of ``_equation_count``: refuse to search."""


@dataclass(frozen=True)
class SearchBounds:
    """Box sizes and color window for a bounded annihilator search.

    ``t_span`` and ``m_span`` are half-widths: each coefficient box holds
    ``(2*t_span+1) * (2*m_span+1)`` monomials around its computed center.
    """

    l_degree: int
    t_span: int = 10
    m_span: int = 2
    n_lo: int = 1
    n_hi: int = 12
    seed: int = 7

    def __post_init__(self):
        if self.l_degree < 1:
            raise ValueError(f"L-degree must be at least 1, got {self.l_degree}")
        if self.t_span < 0 or self.m_span < 0:
            raise ValueError(f"box half-widths must be non-negative, got "
                             f"t_span={self.t_span}, m_span={self.m_span}")
        if self.n_lo < 1:
            raise ValueError(f"colors start at 1, got n_lo={self.n_lo}")
        if self.n_lo > self.n_hi:
            raise ValueError(f"empty color window [{self.n_lo}, {self.n_hi}]")

    def box_size(self):
        return (2 * self.t_span + 1) * (2 * self.m_span + 1)


def default_search_bounds(params, l_degree=None):
    """Stock bounds: cable boxes 21 x 5 over colors 1..12; unknot 9 x 1.

    The unknot space is deliberately M-free (m_span = 0): the quantum
    integers admit a first-order annihilator once M-dependent
    coefficients are allowed, e.g. (t^-4 M^-1 - M) + t^-2 (M - M^-1) L,
    so the instructive pair of controls (order two found, order one
    ruled out) only exists over the M-free lattice.

    >>> from .jones import CablingParams
    >>> default_search_bounds(CablingParams(5, 3, 76, 5)).l_degree
    4
    >>> default_search_bounds(None).m_span
    0
    """
    if params is None:
        return SearchBounds(l_degree=2 if l_degree is None else l_degree,
                            t_span=4, m_span=0, n_lo=1, n_hi=10)
    if l_degree is None:
        if isinstance(params, CablingParams):
            from .aj import case_l_degree, case_tag

            l_degree = case_l_degree(case_tag(params)) - 1
        else:
            # torus pair: one below the homogenized two-step relation
            l_degree = 2
    return SearchBounds(l_degree=l_degree)


# ---------------------------------------------------------------------------
# box centering from the degree predictions
# ---------------------------------------------------------------------------


def _growth_law(params):
    """Quadratic fit (A, B) with extreme exponent ~ A n^2 + B n + C.

    Uses whichever predicted side exists for the parameters: the lowest
    exponent for positive companions, the highest for negative ones.
    Sampling colors of one parity keeps the parity bump in C.
    """
    if params is None:
        return (0, -2)  # unknot: lowest exponent of the value is -2n + 2
    if isinstance(params, CablingParams):
        side = "lowest" if params.p > 0 else "highest"
        vals = {n: getattr(predicted_cable_degrees(params, n), side) for n in (2, 4, 6)}
    else:
        p, q = params
        side = "lowest" if p > 0 else "highest"
        vals = {n: getattr(predicted_torus_degrees(p, q, n), side) for n in (2, 4, 6)}
    if any(v is None for v in vals.values()):
        raise BadParams("no degree growth law available for these parameters")
    a8 = vals[6] - 2 * vals[4] + vals[2]
    if a8 % 8:
        raise BadParams("degree growth is not quadratic over integers")
    A = a8 // 8
    B = (vals[6] - vals[2] - 32 * A) // 4
    return (A, B)


def _box_centers(params, l_degree):
    """Per-i box centers (t_i, m_i) aligning realized supports across i.

    If the candidate term D_i L^i is to land on the same t-exponents as
    the i = 0 term, then with extreme exponent ~ A n^2 + B n + C the
    M-center must walk as -A i and the t-center as -(A i^2 + B i).
    """
    A, B = _growth_law(params)
    return [(-(A * i * i + B * i), -A * i) for i in range(l_degree + 1)]


def _columns(bounds, centers):
    cols = []
    for i, (tc, mc) in enumerate(centers):
        for b in range(mc - bounds.m_span, mc + bounds.m_span + 1):
            for a in range(tc - bounds.t_span, tc + bounds.t_span + 1):
                cols.append((i, a, b))
    return cols


# ---------------------------------------------------------------------------
# an upper bound on the exact system's row count (the feasibility guard)
# ---------------------------------------------------------------------------


def _support_intervals(exps, lo, hi):
    """Minkowski sum of a sorted exponent array with [lo, hi], as merged
    (start, end) intervals."""
    if exps.size == 0:
        return []
    width = hi - lo
    gaps = np.nonzero(np.diff(exps) > width)[0]
    starts = np.concatenate(([0], gaps + 1))
    ends = np.concatenate((gaps, [exps.size - 1]))
    return [(int(exps[s]) + lo, int(exps[e]) + hi) for s, e in zip(starts, ends)]


def _merge_intervals(intervals):
    total = 0
    cur = None
    for st, en in sorted(intervals):
        if cur is None:
            cur = [st, en]
        elif st <= cur[1] + 1:
            cur[1] = max(cur[1], en)
        else:
            total += cur[1] - cur[0] + 1
            cur = [st, en]
    if cur is not None:
        total += cur[1] - cur[0] + 1
    return total


def _equation_count(values, bounds, centers):
    """An upper bound on the number of (color, t-exponent) rows of the
    exact linear system.

    At color n the rows of L-power i are the exponents of ``values(n + i)``
    plus the box's realized exponents ``a + 2nb``.  This counts the value
    exponents plus the whole interval ``[lo, hi]`` the box spans.  Once
    ``2n > 2*t_span + 1`` the box's M-slices leave gaps in that interval,
    and the count can exceed the rows: with the default bounds, 179594
    against 179592 rows for (5,3,-1,3) and 163539 against 163536 for
    (-3,2,1,5).
    """
    total = 0
    for n in range(bounds.n_lo, bounds.n_hi + 1):
        intervals = []
        for i, (tc, mc) in enumerate(centers):
            exps = values(n + i).nonzero()[0]
            lo = tc - bounds.t_span + 2 * n * (mc - bounds.m_span)
            hi = tc + bounds.t_span + 2 * n * (mc + bounds.m_span)
            intervals.extend(_support_intervals(exps, lo, hi))
        total += _merge_intervals(intervals)
    return total


# ---------------------------------------------------------------------------
# fast evaluation of the invariant values at t = tau over F_p
# ---------------------------------------------------------------------------
#
# Everything below works on int64 residues in [0, p) with p < 2^31, so the
# product of two residues is below 2^62 and a sum of two such products
# below 2^63: every product is reduced mod p before it is added to another.
# A color of the cabling sum (``_cabling_sum_mod``) adds at most n_max
# residues below 2^31 before its reduction, less than 2^63 for any
# n_max below 2^32.
#
# The one exception is the matrix product of the blocked elimination
# (``_sub_product``), a sum of k <= _PANEL products F[i, j] U[j, l] of
# residues.  It serves the k x k products that build a panel's solve
# matrix and the product that applies it to the pivot rows
# (``_solve_pivot_rows``), and the trailing update of the rows below.
# It runs on float64 BLAS as exact integer arithmetic, not as an
# approximation with a tolerance.  F is split into 16-bit limbs,
# F = hi * 2^16 + lo with hi, lo <= 2^16 - 1, and each limb product
# hi @ U, lo @ U is a sum of k non-negative integer terms below
# (2^16 - 1)(p - 1).  With p < 2^31 and k <= 64 every partial sum is a
# non-negative integer below 2^53, which float64 holds exactly, so the
# product is exact in any summation order, with or without FMA.  Back in
# int64, hi @ U is reduced mod p and
#   lo @ U + (hi @ U mod p) * 2^16 < 2^53 + 2^47,
# so T - F @ U is exact in int64 before its reduction, for T in [0, p).


def _draw_taus(rng, count, prime):
    """``count`` distinct evaluation points in [2, p - 2]: the smallest
    ``count`` of ``count + 8`` draws, topped up by further draws when
    duplicates or rejections leave too few.

    Points with tau^4 = 1 (mod p) are rejected.  The values are evaluated
    through quantum integers (t^(2n) - t^(-2n)) / (t^2 - t^-2), whose
    denominator vanishes exactly there and has no modular inverse, so no
    row can be built at that point.  Such points exist for p = 1 (mod 4)
    (the square roots of -1), e.g. for 2147483629.
    """

    def ok(t):
        return pow(t, 4, prime) != 1

    taus = sorted(t for t in {rng.randrange(2, prime - 1) for _ in range(count + 8)} if ok(t))
    taus = taus[:count]
    while len(taus) < count:
        t = rng.randrange(2, prime - 1)
        if ok(t) and t not in taus:
            taus.append(t)
    return taus


def _pow_table(bases, exps, prime):
    """``bases[j] ** exps[k] mod prime`` as a (len(bases), len(exps)) array.

    Array square-and-multiply over ``|exps[k]|``, from the inverse bases
    where an exponent is negative, so the rounds grow with the largest
    ``|exps[k]|``.  A base without an inverse mod ``prime`` raises
    ``ValueError`` when some exponent is negative.
    """
    bases = np.asarray(bases, dtype=np.int64).reshape(-1, 1)
    e = np.asarray(exps, dtype=np.int64)
    base = bases
    if (e < 0).any():
        inverses = np.array([[pow(b, -1, prime)] for b in bases[:, 0].tolist()], dtype=np.int64)
        base = np.where(e < 0, inverses, bases)
    e = np.abs(e)
    out = np.ones((bases.shape[0], e.shape[0]), dtype=np.int64)
    while e.any():
        out = np.where(e & 1, out * base % prime, out)
        base = base * base % prime
        e = e >> 1
    return out


def _unknot_evals_mod(n_max, taus, prime):
    """The quantum integers [n] = (tau^(2n) - tau^(-2n)) / (tau^2 - tau^-2)
    at colors 0..n_max (n_max >= 1), one row per tau.  The denominator is
    the numerator at color 1; it is nonzero by the guard in
    :func:`_draw_taus`.
    """
    e = np.arange(0, 2 * n_max + 1, 2)
    powers = _pow_table(taus, np.concatenate((e, -e)), prime)
    num = (powers[:, : e.size] - powers[:, e.size :]) % prime
    return num * _pow_table(num[:, 1], [-1], prime) % prime


def _cabling_sum_mod(a, b, inner, n_max, taus, prime):
    """The cabling formula of :func:`.jones._cabling_numerator`, on values
    rather than numerators, over F_prime at colors 0..n_max, one row per
    tau; ``inner`` holds the inner knot's residues at colors
    0..(n_max - 1) * b + 1.

    The summand ``tau^(ab m^2 + 2am) inner(mb + 1)`` does not depend on the
    color, so it is computed once per m in -(n_max-1)..n_max-1, and color n
    gathers its n summands m = -(n-1), -(n-3), .., n-1.
    """
    ab = a * b
    m = np.arange(-(n_max - 1), n_max, dtype=np.int64)
    ns = np.arange(1, n_max + 1, dtype=np.int64)
    powers = _pow_table(taus, np.concatenate((ab * m * m + 2 * a * m, -ab * (ns * ns - 1))), prime)
    c = m * b + 1  # negative colors carry the odd extension
    summand = powers[:, : m.size] * (inner[:, np.abs(c)] * np.where(c < 0, -1, 1) % prime) % prime
    # color n's summands sit at m + n_max - 1 = n_max - n, .., n_max + n - 2;
    # gathered, its block starts at n(n-1)/2
    gather = np.concatenate([np.arange(n_max - n, n_max + n - 1, 2) for n in range(1, n_max + 1)])
    acc = np.add.reduceat(summand[:, gather], ns * (ns - 1) // 2, axis=1) % prime
    out = np.zeros((len(taus), n_max + 1), dtype=np.int64)
    out[:, 1:] = powers[:, m.size :] * acc % prime
    return out


def _value_evals(params, n_max, taus, prime):
    """Residues of the values at colors 0..n_max (n_max >= 1), one row per
    tau: as in :mod:`.jones`, the unknot's quantum integers cabled by
    (p, q) for a torus pair, and then by (r, s) for a cable."""
    if params is None:
        return _unknot_evals_mod(n_max, taus, prime)
    if isinstance(params, CablingParams):
        torus = _value_evals((params.p, params.q), (n_max - 1) * params.s + 1, taus, prime)
        return _cabling_sum_mod(params.r, params.s, torus, n_max, taus, prime)
    p, q = params
    unknot = _unknot_evals_mod((n_max - 1) * q + 1, taus, prime)
    return _cabling_sum_mod(p, q, unknot, n_max, taus, prime)


# ---------------------------------------------------------------------------
# modular linear algebra
# ---------------------------------------------------------------------------


def _build_matrix(params, bounds, centers, taus, prime):
    """Evaluation-compressed system: one row per (tau, color), tau-major.

    The column (i, a, b) of row (tau, n) holds tau^a * tau^(2nb) * J(n+i)
    evaluated at tau, with a running fastest within a block.
    """
    ts, ms = bounds.t_span, bounds.m_span
    n = np.arange(bounds.n_lo, bounds.n_hi + 1, dtype=np.int64)
    evals = _value_evals(params, bounds.n_hi + bounds.l_degree, taus, prime)
    blocks = []
    for i, (tc, mc) in enumerate(centers):
        a = np.arange(tc - ts, tc + ts + 1, dtype=np.int64)
        b = np.arange(mc - ms, mc + ms + 1, dtype=np.int64)
        table = _pow_table(taus, np.concatenate((a, (2 * n[:, None] * b).ravel())), prime)
        a_pow = table[:, : a.size]
        m_pow = table[:, a.size :].reshape(len(taus), n.size, b.size)
        mfac = m_pow * evals[:, n + i, None] % prime
        blocks.append(
            (mfac[..., None] * a_pow[:, None, None, :] % prime).reshape(
                len(taus) * n.size, b.size * a.size
            )
        )
    return np.concatenate(blocks, axis=1)


def _reduce(x, prime, scratch=None):
    """``x %= prime`` in place for an int64 array of residue differences
    and products (|x| < 2^63); ``scratch``, an int64 array of ``x``'s
    shape, holds the quotients instead of a new array.

    numpy floor-divides an integer array by a scalar with a multiply and
    a shift, but computes the remainder with a hardware division, so
    ``x - (x // p) * p`` takes about half the time of ``x % p``.
    """
    q = np.floor_divide(x, prime, out=scratch)
    q *= prime
    x -= q


# Columns per panel of the blocked elimination: of 16, 24, 32 and 48, 32
# eliminated a 533 x 525 system fastest.  The float64 limb products are
# exact only while k * (2^16 - 1) * (p - 1) < 2^53 (see the note above
# ``_draw_taus``).
_PANEL = 32
assert _PANEL * (2**16 - 1) * (max(PRIMES) - 1) < 2**53
# Rows per block of the product: its buffers hold _ROWS rows, not copies
# of the trailing matrix.
_ROWS = 64


def _sub_product(T, F, U, prime):
    """``T = (T - F @ U) mod prime`` in place for residue arrays ``T``
    and ``F`` (int64) and ``U`` (float64), exact by the limb split (see the
    note above ``_draw_taus``).

    Runs over blocks of ``_ROWS`` rows of ``T``; one float64 product
    buffer and two int64 buffers of one block hold both limb products and
    every quotient."""
    shape = (min(_ROWS, T.shape[0]), T.shape[1])
    P = np.empty(shape)
    S, H = np.empty((2, *shape), dtype=np.int64)
    for r0 in range(0, T.shape[0], _ROWS):
        t, f = T[r0 : r0 + _ROWS], F[r0 : r0 + _ROWS]
        prod, s, h = P[: t.shape[0]], S[: t.shape[0]], H[: t.shape[0]]
        np.matmul((f >> 16).astype(np.float64), U, out=prod)
        np.copyto(s, prod, casting="unsafe")
        _reduce(s, prime, h)
        s <<= 16
        np.matmul((f & 0xFFFF).astype(np.float64), U, out=prod)
        np.copyto(h, prod, casting="unsafe")
        s += h
        t -= s
        _reduce(t, prime, s)


def _solve_pivot_rows(U, F, inverses, prime):
    """The triangular solve of a panel's k pivot rows, in place: in row
    order, ``U[i] = (U[i] - F[i, :i] @ U[:i]) * inverses[i] mod prime``,
    where ``F`` is the (k, k) block of the pivot rows' panel entries and
    only its strictly lower part, the multipliers, is read.

    With D = diag(inverses) and N = tril(F, -1) D, the rows before scaling
    are V = (I + N)^-1 T for the incoming rows T, and U = D V.  N is
    strictly lower triangular, so N^k = 0 and
    (I + N)^-1 = (I - N)(I + N^2)(I + N^4)...(I + N^(2^(r-1))) for
    2^r >= k.  Each factor is one stacked ``_sub_product``,
    ``[X; 0] - [X; P] @ (-P) = [X (I + P); P^2]``, so the solve matrix
    S = D (I + N)^-1 takes ceil(log2 k) products of k terms, and
    ``U = T - (I - S) @ T`` one more.
    """
    k = len(inverses)
    d = np.array(inverses, dtype=np.int64)
    X = np.eye(k, dtype=np.int64)
    P = -np.tril(F, -1) * d % prime
    for _ in range((k - 1).bit_length()):
        XP = np.concatenate((X, np.zeros_like(P)))
        _sub_product(XP, np.concatenate((X, P)), (-P % prime).astype(np.float64), prime)
        X, P = XP[:k], XP[k:]
    M = (np.eye(k, dtype=np.int64) - X * d[:, None]) % prime
    _sub_product(U, M, U.astype(np.float64), prime)


def _echelon_mod(A, prime):
    """Forward elimination over F_prime, in place; returns the pivot
    columns, whose count is the rank.

    Leaves the first ``rank`` rows of ``A`` in row echelon form with unit
    pivots and the rows below them zero.  The pivot of each column is the
    first row with a nonzero entry there, columns in order.

    The elimination is blocked, right-looking: a panel of ``_PANEL``
    columns is eliminated pivot by pivot, each step updating only the
    panel's columns and keeping the multipliers in place of the zeros it
    makes (rows are swapped whole, multipliers with them).  The pivot rows'
    trailing parts ``U`` are then brought up to date by a triangular solve,
    one product with the panel's solve matrix (``_solve_pivot_rows``), and
    every row below them by one product ``T -= F @ U`` (``_sub_product``,
    on a float64 copy of ``U``), after which the multipliers are cleared.
    Over a field the echelon form reached with a given row order is
    unique, and pivots are chosen on up-to-date columns, so ``A`` and the
    pivots are exactly what the per-pivot loop would leave.
    """
    rows, cols = A.shape
    pivots = []
    row = 0
    for c0 in range(0, cols, _PANEL):
        c1 = min(c0 + _PANEL, cols)
        top = row
        inverses = []
        for col in range(c0, c1):
            if row == rows:
                break
            nz = np.flatnonzero(A[row:, col])
            if nz.size == 0:
                continue
            pr = row + int(nz[0])
            if pr != row:
                A[[row, pr], c0:] = A[[pr, row], c0:]
            inv = pow(int(A[row, col]), -1, prime)
            head = A[row, col:c1]
            head *= inv
            _reduce(head, prime)
            below = A[row + 1 :, col + 1 : c1]
            below -= A[row + 1 :, col : col + 1] * head[1:]
            _reduce(below, prime)
            inverses.append(inv)
            pivots.append(col)
            row += 1
        panel = pivots[len(pivots) - len(inverses) :]
        if panel and c1 < cols:
            U = A[top:row, c1:]
            _solve_pivot_rows(U, A[top:row, panel], inverses, prime)
            if row < rows:
                _sub_product(A[row:, c1:], A[row:, panel], U.astype(np.float64), prime)
        for i, col in enumerate(panel):
            A[top + i + 1 :, col] = 0
    return pivots


def _nullspace_mod(E, pivots, prime):
    """Null-space basis (list of int lists) from the echelon form ``E``
    and pivot columns left by :func:`_echelon_mod`.

    Back-substitution on the pivot rows, in place, gives the reduced row
    echelon form; it is unique, so the basis (free column set to 1, the
    others to 0) is independent of the elimination order.
    """
    R = E[: len(pivots)]
    for k in range(len(pivots) - 1, 0, -1):
        pc = pivots[k]
        above = R[:k, pc:]
        above -= above[:, :1] * R[k, pc:]
        _reduce(above, prime)
    pivot_set = set(pivots)
    basis = []
    for f in range(E.shape[1]):
        if f in pivot_set:
            continue
        v = [0] * E.shape[1]
        v[f] = 1
        for pc, x in zip(pivots, (-R[:, f] % prime).tolist()):
            v[pc] = x
        basis.append(v)
    return basis


def _symmetric_lift(vec, prime, k):
    half = prime // 2
    out = []
    for x in vec:
        y = x * k % prime
        out.append(y - prime if y > half else y)
    return out


def _candidate_operator(vec, cols):
    terms = {}
    for (i, a, b), c in zip(cols, vec):
        if c:
            terms.setdefault(i, {})[(a, b)] = c
    return SkewOperator({i: IntLaurent2(d) for i, d in terms.items()})


def _certify(matrix, prime, cols, seq, bounds):
    """``(nullity, operator or None)`` for one residue system over F_prime.

    When the matrix has more than ``len(cols) + 8`` rows, a copy of its
    first ``len(cols) + 8`` rows is eliminated first: full column rank of
    those rows is full column rank of the whole matrix, and the answer is
    ``(0, None)``.  Otherwise the whole matrix is eliminated, so pivots,
    nullity and kernel are those of the whole system.

    The nullity comes from forward elimination alone.  Only when it is
    above 0 is the kernel back-substituted; each of its first 24 basis
    vectors is scaled by the first k in 1..64 that brings every entry's
    symmetric lift within 2^25, and the lift is returned only if it
    annihilates ``seq`` exactly over the color window.  The free column
    of a basis vector holds k, nonzero mod p, so no lift is zero.
    """
    head = len(cols) + 8
    if matrix.shape[0] > head and len(_echelon_mod(matrix[:head].copy(), prime)) == len(cols):
        return 0, None
    pivots = _echelon_mod(matrix, prime)
    nullity = len(cols) - len(pivots)
    if nullity:
        for v in _nullspace_mod(matrix, pivots, prime)[:24]:
            for k in range(1, 65):
                lifted = _symmetric_lift(v, prime, k)
                if max(abs(x) for x in lifted) > 1 << 25:
                    continue
                op = _candidate_operator(lifted, cols)
                if check_annihilation(op, seq, bounds.n_lo, bounds.n_hi)["pass"]:
                    return nullity, op
                break
    return nullity, None


def _sequence_for(params, bounds):
    """The values a search reads, as a function of the color: the unknot's
    quantum integers, or one :func:`.jones.value_window` over
    ``[n_lo, n_hi + l_degree]``, every color that ``_equation_count`` and
    the lift check read."""
    if params is None:
        return unknot_sequence()
    return value_window(params, bounds.n_lo, bounds.n_hi + bounds.l_degree).__getitem__


def _params_label(params):
    if params is None:
        return {"knot": "unknot"}
    if isinstance(params, CablingParams):
        return params.as_dict()
    return {"p": params[0], "q": params[1]}


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------


def search_bounded_annihilator(params, bounds=None):
    """Search the bounded operator space for annihilators of the value
    sequence of ``params`` (a :class:`CablingParams`, a ``(p, q)`` pair,
    or ``None`` for the unknot).

    Raises :class:`SystemTooSmall` unless ``equations``, an upper bound on
    the exact system's row count (``_equation_count``), is at least twice
    the number of unknowns, and :class:`MemoryError` when the evaluation
    matrix, at least ``unknowns + 48`` rows of ``unknowns`` 8-byte
    entries, cannot fit in physical memory.  Both are refused before the
    unknowns are listed; a batch of added points is refused the same way
    before its rows are built.  See the module docstring for the three
    possible verdicts.

    ``prime`` and ``rows`` describe the last prime's first system, before
    any batch of added points; ``nullity`` is that of the last system
    eliminated.
    """
    if bounds is None:
        bounds = default_search_bounds(params)
    centers = _box_centers(params, bounds.l_degree)
    unknowns = bounds.box_size() * (bounds.l_degree + 1)
    seq = _sequence_for(params, bounds)
    equations = _equation_count(seq, bounds, centers)
    if equations < 2 * unknowns:
        raise SystemTooSmall(
            f"{equations} equations for {unknowns} unknowns (need at least twice as many)"
        )
    what = f"the evaluation matrix of {unknowns} unknowns"
    _refuse_beyond_memory(8 * unknowns * (unknowns + 48), what)
    cols = _columns(bounds, centers)
    report = {
        "params": _params_label(params),
        "L_degree_searched": bounds.l_degree,
        "unknowns": unknowns,
        "equations": equations,
        "nullity": None,
        "verdict": None,
    }
    n_count = bounds.n_hi - bounds.n_lo + 1
    rows_target = max(unknowns + 48, (unknowns * 6) // 5)
    tau_count = -(-rows_target // n_count)
    rng = random.Random(bounds.seed)

    for prime in PRIMES:
        taus = _draw_taus(rng, tau_count, prime)
        matrix = _build_matrix(params, bounds, centers, taus, prime)
        report["prime"] = prime
        report["rows"] = matrix.shape[0]
        nullity, op = _certify(matrix, prime, cols, seq, bounds)
        if nullity == 0 or op is not None:
            break
    else:
        # both primes rank-deficient and no lift verified: add batches of
        # points at the last prime; the nullity falls with every batch that
        # adds rank, so at most nullity + 1 batches run
        while True:
            _refuse_beyond_memory(8 * unknowns * (len(taus) + tau_count) * n_count, what)
            drawn = set(taus)
            taus = taus + [t for t in _draw_taus(rng, tau_count, prime) if t not in drawn]
            matrix = _build_matrix(params, bounds, centers, taus, prime)
            before = nullity
            nullity, op = _certify(matrix, prime, cols, seq, bounds)
            if nullity in (0, before) or op is not None:
                break
    report["nullity"] = nullity
    if op is not None:
        report["verdict"] = "found annihilator within bounds"
        report["found"] = op.text()
    elif nullity == 0:
        report["verdict"] = "no annihilator within bounds"
    else:
        report["verdict"] = "inconclusive"
    return report
