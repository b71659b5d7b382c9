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
  vector; full rank rules that out.
* ``found annihilator within bounds`` -- a candidate was lifted from the
  mod-p kernel and then verified by exact symbolic application.
* ``inconclusive`` -- the mod-p system was rank-deficient but no lift
  verified and the exact system was too large to eliminate directly.

Nothing here ever claims minimality outright: the result is always
relative to the stated boxes and color window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .algebra import IntLaurent2
from .jones import (
    BadParams,
    CablingParams,
    cable_sequence,
    torus_jones,
    torus_sequence,
    unknot_sequence,
)
from .degrees import predicted_cable_degrees, predicted_torus_degrees
from .qtorus import SkewOperator, check_annihilation

PRIMES = (2147483647, 2147483629)  # both prime, products stay int64-safe


class SystemTooSmall(ValueError):
    """Fewer than twice as many equations as unknowns: refuse to search."""


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
# the exact system's row count (used for the feasibility guard)
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
    """Number of (color, t-exponent) rows in the exact linear system."""
    total = 0
    for n in range(bounds.n_lo, bounds.n_hi + 1):
        intervals = []
        for i, (tc, mc) in enumerate(centers):
            exps = np.fromiter(values(n + i).d.keys(), dtype=np.int64)
            exps.sort()
            lo = tc - bounds.t_span + 2 * n * (mc - bounds.m_span)
            hi = tc + bounds.t_span + 2 * n * (mc + bounds.m_span)
            intervals.extend(_support_intervals(exps, lo, hi))
        total += _merge_intervals(intervals)
    return total


# ---------------------------------------------------------------------------
# fast evaluation of the invariant values at t = tau over F_p
# ---------------------------------------------------------------------------


def _modpow(tau, e, prime):
    return pow(tau, e % (prime - 1), prime)


def _qint_mod(c, tau, prime, inv_den):
    return (_modpow(tau, 2 * c, prime) - _modpow(tau, -2 * c, prime)) * inv_den % prime


def _delta_mod(p, q, j, tau, prime, inv_den):
    u, w = p + q, q - p
    num = (
        _modpow(tau, 2 * u * (j + 1) + 2, prime)
        + _modpow(tau, -2 * u * (j + 1) + 2, prime)
        - _modpow(tau, 2 * w * (j + 1) - 2, prime)
        - _modpow(tau, -2 * w * (j + 1) - 2, prime)
    )
    return num * inv_den % prime


def _torus_evals_mod(p, q, c_max, tau, prime):
    """J at colors 0..c_max for the (p, q) torus knot, as residues.

    Computed by the two-step recurrence seeded at colors 1 and 2 -- one
    modular exponentiation per step instead of per term.
    """
    inv_den = pow((_modpow(tau, 2, prime) - _modpow(tau, -2, prime)) % prime, prime - 2, prime)
    vals = [0] * (c_max + 1)
    if c_max >= 1:
        vals[1] = 1
    if c_max >= 2:
        vals[2] = sum(
            c * _modpow(tau, e, prime) for e, c in torus_jones(p, q, 2).d.items()
        ) % prime
    for c in range(1, c_max - 1):
        step = _modpow(tau, -4 * p * q * (c + 1), prime)
        inhom = _modpow(tau, -2 * p * q * (c + 1), prime)
        vals[c + 2] = (step * vals[c] + inhom * _delta_mod(p, q, c, tau, prime, inv_den)) % prime
    return vals, inv_den


def _cable_evals_mod(params, n_max, tau, prime):
    """Cable values at colors 1..n_max as residues, via the double sum."""
    p, q, r, s = params.p, params.q, params.r, params.s
    rs = r * s
    c_max = s * (n_max - 1) + 1
    torus_vals, _ = _torus_evals_mod(p, q, max(c_max, 2), tau, prime)

    def jt(c):
        if c >= 0:
            return torus_vals[c]
        return (-torus_vals[-c]) % prime

    out = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        acc = 0
        for k in range(-(n - 1), n, 2):
            acc += _modpow(tau, rs * k * k + 2 * r * k, prime) * jt(k * s + 1)
        out[n] = _modpow(tau, -rs * (n * n - 1), prime) * (acc % prime) % prime
    return out


def _unknot_evals_mod(n_max, tau, prime):
    inv_den = pow((_modpow(tau, 2, prime) - _modpow(tau, -2, prime)) % prime, prime - 2, prime)
    return [0] + [_qint_mod(n, tau, prime, inv_den) for n in range(1, n_max + 1)]


def _value_evals(params, n_max, tau, prime):
    if params is None:
        return _unknot_evals_mod(n_max, tau, prime)
    if isinstance(params, CablingParams):
        return _cable_evals_mod(params, n_max, tau, prime)
    p, q = params
    vals, _ = _torus_evals_mod(p, q, max(n_max, 2), tau, prime)
    return vals


# ---------------------------------------------------------------------------
# modular linear algebra
# ---------------------------------------------------------------------------


def _build_matrix(params, bounds, centers, taus, prime):
    """Evaluation-compressed system: one row per (tau, color)."""
    n_lo, n_hi = bounds.n_lo, bounds.n_hi
    d = bounds.l_degree
    n_max = n_hi + d
    evals = {tau: _value_evals(params, n_max, tau, prime) for tau in taus}
    n_count = n_hi - n_lo + 1
    width = sum((2 * bounds.t_span + 1) * (2 * bounds.m_span + 1) for _ in centers)
    rows = np.zeros((len(taus) * n_count, width), dtype=np.int64)
    ridx = 0
    for tau in taus:
        vals = evals[tau]
        for n in range(n_lo, n_hi + 1):
            row = []
            for i, (tc, mc) in enumerate(centers):
                jval = vals[n + i]
                tau_step = tau
                base = _modpow(tau, tc - bounds.t_span, prime)
                a_powers = []
                acc = base
                for _ in range(2 * bounds.t_span + 1):
                    a_powers.append(acc)
                    acc = acc * tau_step % prime
                for b in range(mc - bounds.m_span, mc + bounds.m_span + 1):
                    mfac = _modpow(tau, 2 * n * b, prime) * jval % prime
                    row.extend(ap * mfac % prime for ap in a_powers)
            rows[ridx] = row
            ridx += 1
    return rows


def _rref_mod(A, prime):
    """In-place reduced row echelon form over F_prime; returns pivot columns."""
    rows, cols = A.shape
    pivots = []
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        nz = np.nonzero(A[row:, col])[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            A[[row, pr]] = A[[pr, row]]
        inv = pow(int(A[row, col]), prime - 2, prime)
        A[row] = A[row] * inv % prime
        others = np.nonzero(A[:, col])[0]
        others = others[others != row]
        if others.size:
            A[others] = (A[others] - A[others, col : col + 1] * A[row]) % prime
        pivots.append(col)
        row += 1
    return pivots


def _nullspace_mod(A, prime):
    """Pivot columns and a null-space basis (list of int lists) of A."""
    work = A.copy()
    pivots = _rref_mod(work, prime)
    cols = A.shape[1]
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = []
    for f in free:
        v = [0] * cols
        v[f] = 1
        for r, pc in enumerate(pivots):
            v[pc] = int(-work[r, f]) % prime
        basis.append(v)
    return pivots, basis


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
    if not terms:
        return None
    return SkewOperator({i: IntLaurent2(d) for i, d in terms.items()})


def _sequence_for(params):
    if params is None:
        return unknot_sequence()
    if isinstance(params, CablingParams):
        return cable_sequence(params)
    p, q = params
    return torus_sequence(p, q)


def _params_label(params):
    if params is None:
        return {"knot": "unknot"}
    if isinstance(params, CablingParams):
        return params.as_dict()
    return {"p": params[0], "q": params[1]}


# ---------------------------------------------------------------------------
# exact fallback on the uncompressed system
# ---------------------------------------------------------------------------

_EXACT_LIMIT_COLS = 90
_EXACT_LIMIT_ROWS = 2500


def _exact_rows(params, bounds, centers, cols):
    """The exact sparse system, one row per (color, t-exponent)."""
    seq = _sequence_for(params)
    col_index = {c: k for k, c in enumerate(cols)}
    rows = []
    for n in range(bounds.n_lo, bounds.n_hi + 1):
        by_exp = {}
        for i, (tc, mc) in enumerate(centers):
            val = seq(n + i)
            for b in range(mc - bounds.m_span, mc + bounds.m_span + 1):
                shift = 2 * n * b
                for a in range(tc - bounds.t_span, tc + bounds.t_span + 1):
                    k = col_index[(i, a, b)]
                    off = a + shift
                    for e, c in val.d.items():
                        cell = by_exp.setdefault(off + e, {})
                        cell[k] = cell.get(k, 0) + c
        for row in by_exp.values():
            row = {k: c for k, c in row.items() if c}
            if row:
                rows.append(row)
    return rows


def _exact_nullspace(rows, width):
    """Dense fraction Gauss-Jordan; returns a null-space basis over Q."""
    mat = [[Fraction(0)] * width for _ in range(len(rows))]
    for ri, row in enumerate(rows):
        for k, c in row.items():
            mat[ri][k] = Fraction(c)
    pivots = []
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(width) if c not in set(pivots)]
    basis = []
    for f in free:
        v = [Fraction(0)] * width
        v[f] = Fraction(1)
        for rr, pc in enumerate(pivots):
            v[pc] = -mat[rr][f]
        basis.append(v)
    return basis


def _integerize(vec):
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return ints


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------


def search_bounded_annihilator(params, bounds=None):
    """Search the bounded operator space for annihilators of the value
    sequence of ``params`` (a :class:`CablingParams`, a ``(p, q)`` pair,
    or ``None`` for the unknot).

    Raises :class:`SystemTooSmall` unless the exact system has at least
    twice as many equations as unknowns.  See the module docstring for
    the three possible verdicts.
    """
    if bounds is None:
        bounds = default_search_bounds(params)
    centers = _box_centers(params, bounds.l_degree)
    cols = _columns(bounds, centers)
    unknowns = len(cols)
    seq = _sequence_for(params)
    equations = _equation_count(seq, bounds, centers)
    if equations < 2 * unknowns:
        raise SystemTooSmall(
            f"{equations} equations for {unknowns} unknowns (need at least twice as many)"
        )
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
        taus = sorted({rng.randrange(2, prime - 1) for _ in range(tau_count + 8)})[:tau_count]
        while len(taus) < tau_count:
            t = rng.randrange(2, prime - 1)
            if t not in taus:
                taus.append(t)
        matrix = _build_matrix(params, bounds, centers, taus, prime)
        pivots, basis = _nullspace_mod(matrix, prime)
        nullity = unknowns - len(pivots)
        report["nullity"] = nullity
        report["prime"] = prime
        report["rows"] = matrix.shape[0]
        if nullity == 0:
            report["verdict"] = "no annihilator within bounds"
            return report
        for v in basis[:24]:
            for k in range(1, 65):
                lifted = _symmetric_lift(v, prime, k)
                if max(abs(x) for x in lifted) > 1 << 25:
                    continue
                op = _candidate_operator(lifted, cols)
                if op is None:
                    continue
                if check_annihilation(op, seq, bounds.n_lo, bounds.n_hi)["pass"]:
                    report["verdict"] = "found annihilator within bounds"
                    report["found"] = op.text()
                    return report
                break
    # both primes rank-deficient and no lift verified: go exact if feasible
    if unknowns <= _EXACT_LIMIT_COLS and equations <= _EXACT_LIMIT_ROWS:
        rows = _exact_rows(params, bounds, centers, cols)
        basis = _exact_nullspace(rows, unknowns)
        report["nullity"] = len(basis)
        if not basis:
            report["verdict"] = "no annihilator within bounds"
            return report
        vec = _integerize(basis[0])
        op = _candidate_operator(vec, cols)
        if op is not None and check_annihilation(op, seq, bounds.n_lo, bounds.n_hi)["pass"]:
            report["verdict"] = "found annihilator within bounds"
            report["found"] = op.text()
            return report
        report["verdict"] = "inconclusive"
        return report
    report["verdict"] = "inconclusive"
    return report
