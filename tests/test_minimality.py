"""Bounded searches below the constructed order, plus unknot controls."""

import dataclasses
import functools
import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

import ajcable.jones as jones
import ajcable.minimality as minimality
from ajcable.algebra import IntLaurent2
from ajcable.jones import CablingParams, cable_sequence, torus_jones, unknot_sequence
from ajcable.minimality import (
    PRIMES,
    SearchBounds,
    SystemTooSmall,
    default_search_bounds,
    search_bounded_annihilator,
)
from ajcable.qtorus import SkewOperator, check_annihilation


def test_default_bounds():
    b = default_search_bounds(CablingParams(3, 2, 13, 2))
    assert b == SearchBounds(l_degree=2, t_span=10, m_span=2, n_hi=12)
    assert [f.name for f in dataclasses.fields(SearchBounds)] == ["l_degree", "t_span", "m_span", "n_hi"]
    b = default_search_bounds(CablingParams(5, 3, 76, 5))
    assert b.l_degree == 4  # one below the constructed order 5
    b = default_search_bounds(None)
    assert (b.l_degree, b.t_span, b.m_span, b.n_hi) == (2, 4, 0, 10)
    assert default_search_bounds(None, l_degree=1).l_degree == 1


# --- unknot controls -----------------------------------------------------------

def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(minimality, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(minimality, name, spy)
    return calls


def test_unknot_second_order_found(monkeypatch):
    back_substitutions = _count_calls(monkeypatch, "_nullspace_mod")
    report = search_bounded_annihilator(None)
    assert len(back_substitutions) == 1  # the mod-p kernel is lifted
    assert report["verdict"] == "found annihilator within bounds"
    assert report["found"] == "(1)*L^0 + (-t^2 - t^-2)*L^1 + (1)*L^2"
    # the recovered operator annihilates the quantum integers well past
    # the search window
    op = SkewOperator(
        {
            0: IntLaurent2.one(),
            1: IntLaurent2({(2, 0): -1, (-2, 0): -1}),
            2: IntLaurent2.one(),
        }
    )
    assert check_annihilation(op, unknot_sequence(), 1, 20)["pass"]


def test_unknot_first_order_none_over_m_free_box(monkeypatch):
    builds = _count_calls(monkeypatch, "_build_matrix")
    report = search_bounded_annihilator(None, default_search_bounds(None, l_degree=1))
    assert report["verdict"] == "no annihilator within bounds"
    assert report["nullity"] == 0
    # both primes are rank-deficient here (7 points, each adding at most
    # rank 2): one batch of 7 fresh points at the last prime settles it
    assert [(len(taus), prime) for *_, taus, prime in builds] == [
        (7, PRIMES[0]), (7, PRIMES[1]), (14, PRIMES[1]),
    ]
    first, batch = builds[1][3], builds[2][3]
    assert batch[:7] == first and len(set(batch)) == 14
    # the report describes the last prime's first system
    assert (report["prime"], report["rows"]) == (PRIMES[1], 70)


def test_unknot_first_order_exists_once_m_coefficients_allowed():
    # why the control box is M-free: with M-dependent coefficients the
    # quantum integers do admit a first-order annihilator
    op = SkewOperator(
        {
            0: IntLaurent2({(-4, -1): 1, (0, 1): -1}),
            1: IntLaurent2({(-2, 1): 1, (-2, -1): -1}),
        }
    )
    assert check_annihilation(op, unknot_sequence(), 1, 20)["pass"]
    report = search_bounded_annihilator(
        None, SearchBounds(l_degree=1, t_span=4, m_span=1, n_hi=10)
    )
    assert report["verdict"] == "found annihilator within bounds"


# --- cable and torus searches below the constructed order -------------------------

def test_cable_none_below_constructed_order(monkeypatch):
    def no_back_substitution(*args):
        raise AssertionError("full rank is decided without back-substitution")

    monkeypatch.setattr(minimality, "_nullspace_mod", no_back_substitution)
    report = search_bounded_annihilator(CablingParams(3, 2, 13, 2))
    assert report["verdict"] == "no annihilator within bounds"
    assert report["L_degree_searched"] == 2
    assert report["nullity"] == 0
    assert report["prime"] in PRIMES
    assert report["equations"] >= 2 * report["unknowns"]
    assert report["rows"] >= report["unknowns"]
    assert report["params"] == {"p": 3, "q": 2, "r": 13, "s": 2}


GOLDEN_MINIMALITY = Path(__file__).resolve().parent / "data" / "golden_minimality.json"


@pytest.mark.parametrize("params, expected", [
    (CablingParams(3, 2, 13, 2), None),  # the golden entry
    (CablingParams(7, 4, -1, 2), {"params": {"p": 7, "q": 4, "r": -1, "s": 2}, "L_degree_searched": 2,
                                  "unknowns": 315, "equations": 96674, "nullity": 0,
                                  "verdict": "no annihilator within bounds", "prime": PRIMES[0], "rows": 384}),
])
def test_search_reads_one_value_window(monkeypatch, params, expected):
    """A search computes its values once, as one window over every color it
    reads, and never through the one-color value functions."""
    windows = _count_calls(monkeypatch, "value_window")

    def no_values(*args):
        raise AssertionError(f"a one-color value was computed: {args!r}")

    for name in ("cabled_jones", "torus_jones"):
        monkeypatch.setattr(jones, name, no_values)
    report = search_bounded_annihilator(params)
    bounds = default_search_bounds(params)
    assert windows == [(params, 1, bounds.n_hi + bounds.l_degree)]
    if expected is None:
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == json.loads(GOLDEN_MINIMALITY.read_text())["3,2,13,2"]
    else:
        assert report == expected


@pytest.mark.parametrize("fields", [
    {"l_degree": 0},
    {"l_degree": 2, "t_span": -1},
    {"l_degree": 2, "m_span": -1},
    {"l_degree": 2, "n_hi": 0},  # colors start at 1: the window 1..0 is empty
])
def test_search_bounds_validated(fields):
    with pytest.raises(ValueError):
        SearchBounds(**fields)


def test_system_too_small():
    with pytest.raises(SystemTooSmall):
        search_bounded_annihilator(
            None, SearchBounds(l_degree=2, t_span=4, m_span=0, n_hi=1)
        )


def test_system_too_small_before_listing_the_unknowns(monkeypatch):
    """The guard needs only the unknown count: a box of 8e10 unknowns is
    refused without building its column list."""
    def no_columns(*_args):
        raise AssertionError("columns built before the SystemTooSmall guard")

    monkeypatch.setattr(minimality, "_columns", no_columns)
    bounds = SearchBounds(l_degree=1, t_span=100000, m_span=100000)
    with pytest.raises(SystemTooSmall, match="equations for 80000800002 unknowns"):
        search_bounded_annihilator(CablingParams(3, 2, -1, 2), bounds)


def _exact_row_count(params, bounds):
    """Rows of the exact system: per color n, the distinct exponents
    a + 2nb + e over every column (i, a, b) and exponent e of the value at
    color n + i."""
    seq = minimality._sequence_for(params, bounds)
    centers = minimality._box_centers(params, bounds.l_degree)
    total = 0
    for n in range(1, bounds.n_hi + 1):
        exps = []
        for i, (tc, mc) in enumerate(centers):
            box = np.array([a + 2 * n * b
                            for b in range(mc - bounds.m_span, mc + bounds.m_span + 1)
                            for a in range(tc - bounds.t_span, tc + bounds.t_span + 1)])
            exps.append(np.add.outer(box, seq(n + i).nonzero()[0]).ravel())
        total += np.unique(np.concatenate(exps)).size
    return total


UNKNOT_BOXES = [
    default_search_bounds(None),
    default_search_bounds(None, l_degree=1),
    SearchBounds(l_degree=1, t_span=4, m_span=1, n_hi=10),
]


@pytest.mark.parametrize("params, bounds, excess", [
    (CablingParams(5, 3, -1, 3), None, 2),
    (CablingParams(-3, 2, 1, 5), None, 3),
    (CablingParams(3, 2, -1, 2), None, 0),
    (CablingParams(3, 2, 13, 2), None, 0),
    (CablingParams(5, 2, -1, 2), None, 0),
] + [(None, b, 0) for b in UNKNOT_BOXES])
def test_equation_count_bounds_the_exact_rows(params, bounds, excess):
    """``equations`` counts each box as a whole exponent interval: it is
    never below the exact row count, and exceeds it where the box's
    M-slices leave gaps (2n > 2*t_span + 1 with m_span > 0)."""
    if bounds is None:
        bounds = default_search_bounds(params)
    centers = minimality._box_centers(params, bounds.l_degree)
    count = minimality._equation_count(minimality._sequence_for(params, bounds), bounds, centers)
    assert count - _exact_row_count(params, bounds) == excess


# --- evaluation points ------------------------------------------------------------

# A square root of -1 modulo the second prime: tau^2 - tau^-2 vanishes there.
BAD_TAU = 1518275076


class _ScriptedRng:
    def __init__(self, values):
        self.values = iter(values)

    def randrange(self, lo, hi):
        v = next(self.values)
        assert lo <= v < hi
        return v


def _draw_taus_reference(rng, count, prime):
    """The draw before points with tau^4 = 1 were rejected."""
    taus = sorted({rng.randrange(2, prime - 1) for _ in range(count + 8)})[:count]
    while len(taus) < count:
        t = rng.randrange(2, prime - 1)
        if t not in taus:
            taus.append(t)
    return taus


def test_draw_taus_rejects_fourth_roots_of_unity():
    prime = PRIMES[1]
    assert pow(BAD_TAU, 4, prime) == 1
    assert (pow(BAD_TAU, 2, prime) - pow(BAD_TAU, -2, prime)) % prime == 0
    # the hazard: the quantum-integer denominator has no inverse there, so
    # the unknot's values cannot be evaluated at all
    with pytest.raises(ValueError, match="not invertible"):
        minimality._unknot_evals_mod(1, [BAD_TAU], prime)
    # count + 8 = 9 first draws: the bad point, duplicates, then refills
    script = [BAD_TAU, 5, 5, 5, 5, 5, 5, 5, 5, BAD_TAU, 5, 9]
    assert minimality._draw_taus(_ScriptedRng(script), 1, prime) == [5]
    assert minimality._draw_taus(_ScriptedRng(script), 2, prime) == [5, 9]


def test_draw_taus_unchanged_on_stock_draws():
    for count in (7, 8, 53):
        new, old = random.Random(7), random.Random(7)
        for prime in PRIMES:
            assert minimality._draw_taus(new, count, prime) == _draw_taus_reference(
                old, count, prime
            )


# --- modular evaluation against the exact values ---------------------------------------


def _residue(poly, tau, prime):
    return sum(c * pow(tau, e % (prime - 1), prime) for e, c in poly.d.items()) % prime


EVAL_TAUS = {prime: [2, 1234567, prime - 2] for prime in PRIMES}
# the stock window of (-5, 3, 1, 5): its torus colors reach 5 * 15 + 1 = 76
EVAL_N_MAX = {CablingParams(-5, 3, 1, 5): 16}


@pytest.mark.parametrize("params", [
    CablingParams(3, 2, 13, 2),
    CablingParams(5, 3, -7, 3),
    CablingParams(-5, 3, 1, 4),
    CablingParams(3, 2, 31, 3),
    CablingParams(5, 3, 76, 5),
    (3, 2),
    (-5, 3),
    CablingParams(-5, 3, 1, 5),
    (7, 4),
    None,
])
def test_value_evals_match_exact_values(params):
    if params is None:
        seq = unknot_sequence()
    elif isinstance(params, CablingParams):
        seq = cable_sequence(params)
    else:
        seq = functools.partial(torus_jones, *params)
    n_max = EVAL_N_MAX.get(params, 7)
    for prime, taus in EVAL_TAUS.items():
        evals = minimality._value_evals(params, n_max, taus, prime)
        assert evals.dtype == np.int64
        expected = [[_residue(seq(n), tau, prime) for n in range(n_max + 1)] for tau in taus]
        assert evals.tolist() == expected


# --- the vectorised build against the per-entry build ---------------------------------


def _build_matrix_reference(evals, bounds, centers, taus, prime):
    """The per-entry build; ``evals`` has one row of residues per tau."""
    n_hi = bounds.n_hi
    width = sum((2 * bounds.t_span + 1) * (2 * bounds.m_span + 1) for _ in centers)
    rows = np.zeros((len(taus) * n_hi, width), dtype=np.int64)
    ridx = 0
    for tau, vals in zip(taus, evals.tolist()):
        for n in range(1, n_hi + 1):
            row = []
            for i, (tc, mc) in enumerate(centers):
                jval = vals[n + i]
                base = pow(tau, (tc - bounds.t_span) % (prime - 1), prime)
                a_powers = []
                acc = base
                for _ in range(2 * bounds.t_span + 1):
                    a_powers.append(acc)
                    acc = acc * tau % prime
                for b in range(mc - bounds.m_span, mc + bounds.m_span + 1):
                    mfac = pow(tau, (2 * n * b) % (prime - 1), prime) * jval % prime
                    row.extend(ap * mfac % prime for ap in a_powers)
            rows[ridx] = row
            ridx += 1
    return rows


def _benchmark_workloads():
    """``perfbench/workloads.py``, which imports nothing of the program."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _drawable_searches():
    """Every search the benchmark's ``minimality`` workload can draw, as
    (params, bounds) parameters: its cables with the default bounds, and
    the unknot controls."""
    workloads = _benchmark_workloads()
    searches = [pytest.param(CablingParams(*t), None, id="drawable-{},{},{},{}".format(*t))
                for t in workloads.drawable_tuples("minimality")]
    return searches + [pytest.param(None, default_search_bounds(None, l_degree=k), id=f"drawable-unknot-{k}")
                       for k in workloads.CONTROL_ORDERS]


@pytest.mark.parametrize("params, bounds", [
    (CablingParams(3, 2, 13, 2), None),
    (CablingParams(5, 3, 121, 4), None),
    (CablingParams(3, 2, 31, 3), None),
    (CablingParams(-5, 3, 1, 5), None),
    (CablingParams(7, 4, -1, 2), None),
    (None, None),
    (None, SearchBounds(l_degree=2, t_span=0, m_span=1, n_hi=10)),
] + _drawable_searches())
def test_build_matrix_matches_per_entry_build(params, bounds):
    """The factored build, expanded as ``G[k, n, u] * tau_k^j``, against
    the per-entry build, also on every search the benchmark draws."""
    bounds = bounds or default_search_bounds(params)
    centers = minimality._box_centers(params, bounds.l_degree)
    rng = random.Random(3)
    for prime in PRIMES:
        taus = minimality._draw_taus(rng, 3, prime)
        evals = minimality._value_evals(params, bounds.n_hi + bounds.l_degree, taus, prime)
        G = minimality._build_matrix(params, bounds, centers, taus, prime)
        built = minimality._expand(G, taus, 2 * bounds.t_span + 1, prime)
        assert G.dtype == built.dtype == np.int64
        assert np.array_equal(built, _build_matrix_reference(evals, bounds, centers, taus, prime))


# --- forward elimination against the reduced row echelon form ------------------------


def _rref_reference(A, prime):
    """In-place Gauss-Jordan reduction over F_prime; returns pivot columns."""
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


def _echelon_unblocked(A, prime):
    """The per-pivot forward elimination the blocked one replaced: one
    rank-1 update of the rows below per pivot, in place."""
    rows, cols = A.shape
    pivots = []
    row = 0
    for col in range(cols):
        if row == rows:
            break
        nz = np.flatnonzero(A[row:, col])
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            A[[row, pr], col:] = A[[pr, row], col:]
        pivot = A[row, col:]
        pivot[:] = pivot * pow(int(pivot[0]), prime - 2, prime) % prime
        below = A[row + 1 :, col:]
        below[:] = (below - below[:, :1] * pivot) % prime
        pivots.append(col)
        row += 1
    return pivots


def _nullspace_reference(A, prime):
    work = A.copy()
    pivots = _rref_reference(work, prime)
    basis = []
    for f in range(A.shape[1]):
        if f in pivots:
            continue
        v = [0] * A.shape[1]
        v[f] = 1
        for r, pc in enumerate(pivots):
            v[pc] = int(-work[r, f]) % prime
        basis.append(v)
    return pivots, basis


@st.composite
def matrices(draw):
    """Full-rank, rank-deficient, zero-column and wider-than-tall matrices
    over F_p, entries from a seeded generator."""
    prime = draw(st.sampled_from(PRIMES))
    kind = draw(st.sampled_from(("full", "deficient", "zero_columns", "wide")))
    cols = draw(st.integers(min_value=1, max_value=12))
    if kind == "wide":
        rows = draw(st.integers(min_value=1, max_value=cols))
    else:
        rows = draw(st.integers(min_value=cols, max_value=cols + 6))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    # small residues and their negatives make exact cancellations likely
    pool = np.array([0, 1, 2, 3, prime - 1, prime - 2, 1 << 30, prime - (1 << 30)])
    if draw(st.booleans()):
        A = gen.integers(0, prime, size=(rows, cols), dtype=np.int64)
    else:
        A = gen.choice(pool, size=(rows, cols))
    if kind == "deficient":
        k = draw(st.integers(min_value=0, max_value=cols - 1))
        left = gen.choice(pool, size=(rows, k))
        right = gen.choice(pool, size=(k, cols))
        A = np.zeros((rows, cols), dtype=np.int64)
        for j in range(k):
            A = (A + left[:, j : j + 1] * right[j] % prime) % prime
    elif kind == "zero_columns":
        A[:, gen.random(cols) < 0.4] = 0
    return A.astype(np.int64), prime


def _check_elimination(A, prime):
    ref_pivots, ref_basis = _nullspace_reference(A, prime)
    R = A.copy()
    assert _echelon_unblocked(R, prime) == ref_pivots
    E = A.copy()
    pivots = minimality._echelon_mod(E, prime)
    assert pivots == ref_pivots
    assert np.array_equal(E, R)
    assert not E[len(pivots):].any()
    assert minimality._nullspace_mod(E, pivots, prime) == ref_basis
    for v in ref_basis:
        assert not (A @ np.array(v, dtype=object) % prime).any()
    return pivots


@given(matrices(), st.integers(min_value=1, max_value=12))
@settings(max_examples=300, deadline=None)
def test_echelon_and_back_substitution_match_rref(case, panel):
    # panels of 1 to 12 columns put panel boundaries, and so the triangular
    # solve and the trailing product, inside a 12-column draw; a panel of 5
    # to 8 pivots takes three doubling rounds of the solve matrix
    A, prime = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minimality, "_PANEL", panel)
        _check_elimination(A, prime)


def _edge_case(name, prime):
    """(panel width, matrix, expected pivots) for one panel edge case."""
    gen = np.random.default_rng(11)
    if name == "panel_without_pivot":
        A = gen.integers(0, prime, size=(6, 8), dtype=np.int64)
        A[:, 2:4] = 0
        return 2, A, [0, 1, 4, 5, 6, 7]
    if name == "rows_run_out_mid_panel":
        return 4, gen.integers(0, prime, size=(5, 9), dtype=np.int64), [0, 1, 2, 3, 4]
    assert name == "rank_deficient_panel"
    A = gen.integers(0, prime, size=(7, 8), dtype=np.int64)
    A[:, 2] = (A[:, 0] + (prime - 1) * A[:, 1]) % prime
    A[:, 5] = (2 * A[:, 4]) % prime
    return 4, A, [0, 1, 3, 4, 6, 7]


@pytest.mark.parametrize("prime", PRIMES)
@pytest.mark.parametrize("name", ["panel_without_pivot", "rows_run_out_mid_panel", "rank_deficient_panel"])
def test_blocked_elimination_edge_cases(name, prime, monkeypatch):
    panel, A, expected = _edge_case(name, prime)
    monkeypatch.setattr(minimality, "_PANEL", panel)
    assert _check_elimination(A, prime) == expected


@pytest.mark.parametrize("prime", PRIMES)
def test_blocked_elimination_at_the_limb_extremes(prime):
    # the stock panel width, so the trailing products sum _PANEL terms; most
    # entries, the first column's multipliers among them, are p - 1
    # (hi = 2^15 - 1, lo = 2^16 - 2) or 2^30 (lo = 0)
    gen = np.random.default_rng(9)
    A = gen.choice(np.array([prime - 1, 1 << 30, 1, prime - 2]), size=(130, 110))
    mask = gen.random(A.shape) < 0.3
    A[mask] = gen.integers(0, prime, size=int(mask.sum()))
    A[:, 60] = (A[:, 3] + A[:, 50]) % prime  # a dependent column in the second panel
    assert len(_check_elimination(A, prime)) == 109


def test_panel_width_keeps_the_limb_split_exact():
    # the bound in the float64 note of ajcable.minimality: every limb
    # product sums at most _PANEL terms below (2^16 - 1)(p - 1), below 2^53
    assert minimality._PANEL >= 1
    assert minimality._PANEL * (2**16 - 1) * (max(PRIMES) - 1) < 2**53
    assert all(p < 1 << 31 for p in PRIMES)


@pytest.mark.parametrize("prime", PRIMES)
@pytest.mark.parametrize("rows", [1, 131])
def test_sub_product_is_exact_at_the_worst_case(prime, rows):
    # 64 terms, each at the largest limb (0x7FFEFFFF has lo = 2^16 - 1)
    # or the largest residue, times U = p - 1: the sums reach
    # 64 (2^16 - 1)(p - 1), just below 2^53
    k, width = 64, 37
    gen = np.random.default_rng(rows + prime % 97)
    F = gen.choice(np.array([0x7FFEFFFF, prime - 1]), size=(rows, k))
    F[0] = 0x7FFEFFFF
    F[-1] = prime - 1
    U = np.full((k, width), prime - 1, dtype=np.int64)
    T = gen.integers(0, prime, size=(rows, width), dtype=np.int64)
    expected = ((T.astype(object) - F.astype(object) @ U.astype(object)) % prime).tolist()
    minimality._sub_product(T, F, U.astype(np.float64), prime)
    assert T.tolist() == expected


def _solve_pivot_rows_reference(U, F, inverses, prime):
    """The row-by-row triangular solve, in Python ints."""
    U = U.astype(object)
    for i, inv in enumerate(inverses):
        U[i] = (U[i] - F[i, :i].astype(object) @ U[:i]) * inv % prime
    return U.tolist()


@pytest.mark.parametrize("prime", PRIMES)
@pytest.mark.parametrize("k", [1, 2, 3, 5, minimality._PANEL])
def test_solve_pivot_rows_matches_the_row_by_row_solve(prime, k):
    # multipliers, inverses and rows at the largest limb (0x7FFEFFFF has
    # lo = 2^16 - 1) or the largest residue; the upper part of F, which the
    # solve must not read, is random
    gen = np.random.default_rng(k + prime % 97)
    worst = np.array([0x7FFEFFFF, prime - 1])
    F = np.triu(gen.integers(0, prime, size=(k, k)))
    F += np.tril(gen.choice(worst, size=(k, k)), -1)
    U = gen.choice(worst, size=(k, 37))
    inverses = gen.choice(worst, size=k).tolist()
    expected = _solve_pivot_rows_reference(U, F, inverses, prime)
    minimality._solve_pivot_rows(U, F, inverses, prime)
    assert U.tolist() == expected


@pytest.mark.parametrize("prime", PRIMES)
def test_pow_table_matches_builtin_pow(prime):
    bases = [2, 3, 1234567, prime - 2, prime - 1]
    exps = [0, 1, -1, 2, -2, 37, -37, prime - 2, -(prime - 2),
            (1 << 20) + 3, -((1 << 21) + 5), (1 << 30) + 1, -(1 << 30)]
    table = minimality._pow_table(bases, exps, prime)
    assert table.tolist() == [[pow(b, e, prime) for e in exps] for b in bases]
    assert minimality._pow_table(bases, [5, 0, 9], prime).tolist() == [
        [pow(b, e, prime) for e in (5, 0, 9)] for b in bases
    ]


# --- the exact system over Q against the search's verdicts -------------------------------


def _exact_system_sympy(params, bounds, centers, cols):
    """The exact system, expanded in sympy's sparse ring Z[t, x_k]: the
    coefficient of each power of t in sum_k x_k t^(a + 2nb) J(n + i), one
    row per color and power."""
    ring, t, *xs = sympy.ring(["t"] + [f"x{k}" for k in range(len(cols))], sympy.ZZ)
    seq = minimality._sequence_for(params, bounds)
    rows = []
    for n in range(1, bounds.n_hi + 1):
        terms = [seq(n + i).items() for i in range(len(centers))]
        # every power is shifted so that the ring sees no negative exponent
        lows = [items[0][0] for items in terms]
        values = [
            sum((c * t ** (e - lo) for e, c in items), ring.zero)
            for items, lo in zip(terms, lows)
        ]
        shifts = [a + 2 * n * b + lows[i] for i, a, b in cols]
        low = min(shifts)
        expr = sum(
            (x * t ** (sh - low) * values[i] for x, sh, (i, _, _) in zip(xs, shifts, cols)),
            ring.zero,
        )
        by_power = {}
        for monom, c in expr.terms():
            by_power.setdefault(monom[0], [0] * len(cols))[monom[1:].index(1)] = int(c)
        rows.extend(by_power.values())
    return rows


def _exact_rows(params, bounds):
    centers = minimality._box_centers(params, bounds.l_degree)
    cols = minimality._columns(bounds, centers)
    return _exact_system_sympy(params, bounds, centers, cols), cols


def _mod(rows, prime):
    return np.array([[c % prime for c in row] for row in rows], dtype=np.int64)


@pytest.mark.parametrize("params, bounds", [
    (None, default_search_bounds(None)),
    (None, default_search_bounds(None, l_degree=1)),
    (None, SearchBounds(l_degree=1, t_span=4, m_span=1, n_hi=10)),
    (CablingParams(3, 2, 13, 2), SearchBounds(l_degree=1, t_span=2, m_span=1, n_hi=5)),
])
def test_exact_matrix_rank_matches_sympy(params, bounds):
    """Elimination mod each search prime keeps the rank over Q of the
    exact system."""
    rows, _ = _exact_rows(params, bounds)
    rank = DomainMatrix.from_list(rows, sympy.QQ).rank()
    for prime in PRIMES:
        assert len(minimality._echelon_mod(_mod(rows, prime), prime)) == rank


def test_exact_matrix_certifies_the_unknot_second_order_operator():
    """The shared certificate, given the exact system mod p, lifts an
    operator that annihilates the unknot."""
    bounds = default_search_bounds(None)
    prime = PRIMES[-1]
    rows, cols = _exact_rows(None, bounds)
    nullity, op = minimality._certify(_mod(rows, prime), prime, cols, unknot_sequence(), bounds)
    assert nullity > 0
    assert op is not None
    assert check_annihilation(op, unknot_sequence(), 1, 20)["pass"]


FOUND = "found annihilator within bounds"
NONE = "no annihilator within bounds"


@pytest.mark.parametrize("params, bounds, nullity, verdict", [
    (None, default_search_bounds(None), 5, FOUND),
    (None, default_search_bounds(None, l_degree=1), 0, NONE),
    (None, SearchBounds(l_degree=1, t_span=4, m_span=1, n_hi=10), 5, FOUND),
    (CablingParams(3, 2, 13, 2), SearchBounds(l_degree=1, t_span=2, m_span=1, n_hi=5), 0, NONE),
], ids=["unknot-order-2", "unknot-m-free", "unknot-m-box", "cable"])
def test_search_verdict_agrees_with_the_exact_system_over_q(params, bounds, nullity, verdict):
    """The verdict from evaluation rows mod p against the nullity over Q of
    the exact system: "none" exactly where that nullity is 0."""
    rows, cols = _exact_rows(params, bounds)
    assert len(cols) - DomainMatrix.from_list(rows, sympy.QQ).rank() == nullity
    assert search_bounded_annihilator(params, bounds)["verdict"] == verdict


@pytest.mark.parametrize("bounds", UNKNOT_BOXES)
def test_exact_row_count_matches_the_exact_matrix(bounds):
    """The row count behind ``test_equation_count_bounds_the_exact_rows``
    against the exact system as sympy expands it."""
    centers = minimality._box_centers(None, bounds.l_degree)
    cols = minimality._columns(bounds, centers)
    assert _exact_row_count(None, bounds) == len(_exact_system_sympy(None, bounds, centers, cols))


@pytest.mark.parametrize("bounds, points", [
    (default_search_bounds(None), [8, 8, 16, 24]),
    (SearchBounds(l_degree=1, t_span=4, m_span=1, n_hi=10), [11, 11, 22, 33]),
], ids=["unknot-order-2", "unknot-m-box"])
def test_batches_stop_when_a_batch_adds_no_rank(bounds, points, monkeypatch):
    """With the lift disabled, the controls that have annihilators add
    batches until the nullity settles at that of the exact system over Q
    (5, see above), then stop one batch later: inconclusive."""
    monkeypatch.setattr(minimality, "check_annihilation", lambda *args: {"pass": False})
    builds = _count_calls(monkeypatch, "_build_matrix")
    report = search_bounded_annihilator(None, bounds)
    assert (report["verdict"], report["nullity"]) == ("inconclusive", 5)
    assert [len(taus) for *_, taus, _ in builds] == points
    assert (report["prime"], report["rows"]) == (PRIMES[1], points[0] * 10)


def test_batch_drops_points_already_drawn(monkeypatch):
    """A batch point equal to one already drawn adds no row: the M-free
    control's batch, its first three points made repeats, keeps 4 of 7."""
    real, draws = minimality._draw_taus, []

    def draw_with_repeats(rng, count, prime):
        draws.append(real(rng, count, prime))
        if len(draws) == 3:
            draws[2][:3] = draws[1][:3]
        return list(draws[-1])

    monkeypatch.setattr(minimality, "_draw_taus", draw_with_repeats)
    builds = _count_calls(monkeypatch, "_build_matrix")
    report = search_bounded_annihilator(None, default_search_bounds(None, l_degree=1))
    assert [taus for *_, taus, _ in builds][2:] == [draws[1] + draws[2][3:]]
    assert (report["verdict"], report["nullity"]) == (NONE, 0)  # 11 points suffice


def test_batch_beyond_physical_memory_is_refused_before_its_rows(monkeypatch):
    """A batch is refused like the first system: the M-free control's first
    batch (14 points, 140 x 18) needs 20160 bytes, the first systems 70 x 18."""
    builds = _count_calls(monkeypatch, "_build_matrix")
    sizes = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 20159}
    monkeypatch.setattr(jones, "os", SimpleNamespace(sysconf=sizes.__getitem__))
    with pytest.raises(MemoryError, match="18 unknowns needs at least 20160 bytes"):
        search_bounded_annihilator(None, default_search_bounds(None, l_degree=1))
    assert [len(taus) for *_, taus, _ in builds] == [7, 7]


# --- the rank certificate ----------------------------------------------------------


def _record_eliminations(monkeypatch):
    """Spy on ``_echelon_mod`` and ``_certify``: a copy of every matrix
    eliminated, and per certificate the eliminations it made, its matrix
    (copied before elimination) and its answer."""
    eliminated, certified = [], []
    echelon, certify = minimality._echelon_mod, minimality._certify

    def echelon_spy(A, prime):
        eliminated.append(A.copy())
        return echelon(A, prime)

    def certify_spy(matrix, prime, cols, seq, bounds):
        start, before = len(eliminated), matrix.copy()
        result = certify(matrix, prime, cols, seq, bounds)
        certified.append((eliminated[start:], before, prime, cols, result))
        return result

    monkeypatch.setattr(minimality, "_echelon_mod", echelon_spy)
    monkeypatch.setattr(minimality, "_certify", certify_spy)
    return certified


def _direct_certificate(A, prime, cols, seq, bounds):
    """(nullity, operator text or None) from eliminating all of ``A``: the
    k-scan lift of ``_certify`` over the kernel of the whole matrix."""
    E = A.copy()
    pivots = minimality._echelon_mod(E, prime)
    nullity = len(cols) - len(pivots)
    for v in minimality._nullspace_mod(E, pivots, prime)[:24] if nullity else []:
        for k in range(1, 65):
            lifted = minimality._symmetric_lift(v, prime, k)
            if max(abs(x) for x in lifted) <= 1 << 25:
                op = minimality._candidate_operator(lifted, cols)
                if check_annihilation(op, seq, 1, bounds.n_hi)["pass"]:
                    return nullity, op.text()
                break
    return nullity, None


def _record_head_nullities(monkeypatch):
    """Spy on ``_head_nullity``: its answer for every system of a search."""
    answers, real = [], minimality._head_nullity

    def spy(*args):
        answers.append(real(*args))
        return answers[-1]

    monkeypatch.setattr(minimality, "_head_nullity", spy)
    return answers


def test_full_rank_is_certified_from_the_head_rows(monkeypatch):
    """(5,3,-1,3): of the first 525 + 8 rows, 21 points x 12 colours are
    interpolation nodes, and each node block, of rank 12, leaves 25 - 12
    kernel columns.  One elimination of the reduced 281 x 273 system
    settles full rank; the whole matrix is never expanded."""
    builds, shapes = [], []
    build, echelon = minimality._build_matrix, minimality._echelon_mod

    def build_spy(*args):
        builds.append((args, build(*args)))
        return builds[-1][1]

    def echelon_spy(A, prime):
        shapes.append(A.shape)
        return echelon(A, prime)

    def no_expansion(*_args):
        raise AssertionError("the whole matrix is expanded")

    monkeypatch.setattr(minimality, "_build_matrix", build_spy)
    monkeypatch.setattr(minimality, "_echelon_mod", echelon_spy)
    monkeypatch.setattr(minimality, "_expand", no_expansion)
    report = search_bounded_annihilator(CablingParams(5, 3, -1, 3))
    monkeypatch.undo()
    assert (report["rows"], report["unknowns"], report["nullity"]) == (636, 525, 0)
    assert shapes == [(281, 273)]
    # the head it stands for, eliminated directly, has full rank too
    [((*_, taus, prime), G)] = builds
    assert G.shape == (53, 12, 25)
    assert len(minimality._echelon_mod(minimality._expand(G, taus, 21, prime)[:533], prime)) == 525


@pytest.mark.parametrize("bounds", UNKNOT_BOXES)
def test_unknot_controls_fall_back_to_the_whole_matrix(bounds, monkeypatch):
    # the first len(cols) + 8 rows touch fewer than 2 * 4 + 1 = 9 points,
    # so no reduced system stands for them: the whole matrix at once
    heads = _record_head_nullities(monkeypatch)
    certified = _record_eliminations(monkeypatch)
    search_bounded_annihilator(None, bounds)
    monkeypatch.undo()
    assert heads == [None] * len(certified)
    eliminated, matrix, prime, cols, (nullity, op) = certified[0]  # the first prime
    assert -(-(len(cols) + 8) // 10) < 9
    assert [E.shape for E in eliminated] == [matrix.shape]
    assert np.array_equal(eliminated[0], matrix)
    text = op.text() if op is not None else None
    assert (nullity, text) == _direct_certificate(matrix, prime, cols, unknot_sequence(), bounds)


def test_m_free_batch_is_eliminated_whole(monkeypatch):
    heads = _record_head_nullities(monkeypatch)
    certified = _record_eliminations(monkeypatch)
    bounds = default_search_bounds(None, l_degree=1)
    assert search_bounded_annihilator(None, bounds)["nullity"] == 0
    monkeypatch.undo()
    # both primes' systems go to the whole matrix; so does the batch, whose
    # first 18 + 8 rows touch three points, under the 9 nodes a reduced
    # system needs
    assert heads == [None, None, None]
    assert [[E.shape for E in e] for e, *_ in certified] == [[(70, 18)], [(70, 18)], [(140, 18)]]
    # the batch appends rows to the last prime's system
    (_, first, *_), (_, batch, prime, cols, result) = certified[1:]
    assert np.array_equal(batch[:70], first)
    assert (prime, result) == (PRIMES[1], (0, None))
    assert _direct_certificate(batch, prime, cols, unknot_sequence(), bounds) == (0, None)


@pytest.mark.parametrize("extra", [0, 8])
def test_no_head_step_without_more_rows_than_unknowns_plus_8(extra, monkeypatch):
    # the first 18 + extra rows of the M-free control's first system, rank
    # deficient: eliminated once, whole
    bounds = default_search_bounds(None, l_degree=1)
    certified = _record_eliminations(monkeypatch)
    search_bounded_annihilator(None, bounds)
    _, matrix, prime, cols, _ = certified[0]
    matrix = matrix[: len(cols) + extra]
    del certified[:]
    nullity, op = minimality._certify(matrix.copy(), prime, cols, unknot_sequence(), bounds)
    monkeypatch.undo()
    [(eliminated, _, _, _, _)] = certified
    assert [E.shape for E in eliminated] == [matrix.shape]
    text = op.text() if op is not None else None
    assert nullity > 0
    assert (nullity, text) == _direct_certificate(matrix, prime, cols, unknot_sequence(), bounds)


def _kronecker_blocks(gen, kind, prime, taus, width, n_count, box_rows):
    """Factors G of shape (len(taus), n_count, box_rows): random blocks;
    blocks of random rank, zero included (``"deficient"``); or blocks
    orthogonal at every point to x(tau_k) for a planted X != 0, which then
    lies in the kernel of every head (``"planted"``)."""
    G = gen.integers(0, prime, size=(len(taus), n_count, box_rows)).astype(object)
    if kind == "deficient":
        for k in range(len(taus)):
            rank = int(gen.integers(0, min(n_count, box_rows) + 1))
            left = gen.integers(0, prime, size=(n_count, rank)).astype(object)
            G[k] = left @ gen.integers(0, prime, size=(rank, box_rows)).astype(object) % prime
    elif kind == "planted":
        X = gen.integers(1, prime, size=(box_rows, width)).astype(object)
        for k, tau in enumerate(taus):
            x = X @ np.array([pow(tau, j, prime) for j in range(width)], dtype=object) % prime
            nz = np.flatnonzero(x)
            if nz.size:
                u = nz[0]
                others = G[k] @ x - G[k][:, u] * x[u]
                G[k][:, u] = -others * pow(int(x[u]), -1, prime) % prime
    return G.astype(np.int64)


def _kronecker_case(seed, kind, prime, width, n_count, box_rows, points, head=None):
    gen = np.random.default_rng(seed)
    taus = [int(t) for t in gen.choice(np.arange(1, 1 << 20), size=points, replace=False)]
    G = _kronecker_blocks(gen, kind, prime, taus, width, n_count, box_rows)
    return G, taus, width, points * n_count if head is None else head, prime


@st.composite
def kronecker_heads(draw):
    """(G, taus, width, head, prime): factors of an evaluation matrix and a
    head of its rows, often all of them.  Enough points for the head to
    reach the unknown count, so that a planted kernel vector is often the
    only one."""
    prime = draw(st.sampled_from(PRIMES))
    width = draw(st.integers(min_value=1, max_value=5))
    box_rows = draw(st.integers(min_value=1, max_value=40))
    n_count = draw(st.integers(min_value=1, max_value=12))
    points = draw(st.integers(min_value=1, max_value=width + -(-box_rows * width // n_count) + 2))
    head = draw(st.one_of(st.just(points * n_count), st.integers(min_value=1, max_value=points * n_count)))
    taus = draw(st.lists(st.integers(min_value=1, max_value=prime - 1),
                         min_size=points, max_size=points, unique=True))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    kind = draw(st.sampled_from(("random", "deficient", "planted")))
    return _kronecker_blocks(gen, kind, prime, taus, width, n_count, box_rows), taus, width, head, prime


@given(kronecker_heads())
# planted kernels over two panels of box rows (33 and 40 > _PANEL), one of
# them with a partial last block
@example(_kronecker_case(1, "planted", PRIMES[0], 3, 12, 40, 14))
@example(_kronecker_case(2, "planted", PRIMES[1], 5, 7, 33, 31, head=24 * 7 + 1))
@settings(max_examples=200, deadline=None)
def test_reduced_nullity_is_the_nullity_of_the_expanded_head(case):
    G, taus, width, head, prime = case
    E = minimality._expand(G, taus, width, prime)[:head].copy()
    nullity = E.shape[1] - len(minimality._echelon_mod(E, prime))
    reduced = minimality._head_nullity(G, taus, width, head, prime)
    if -(-head // G.shape[1]) < width:
        assert reduced is None and nullity > 0
    else:
        assert reduced == nullity
