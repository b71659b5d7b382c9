"""Acceptance gate: seven exact criteria over the stock parameter grid.

Every check is exact (integer/polynomial equality, zero tolerance).  One
test per criterion; each prints its own pass line (visible with -s, and
mirrored by the test name under -v).
"""

import hashlib
import json
import time
from pathlib import Path

import pytest

import ajcable.aj as aj
import ajcable.cli as cli
import ajcable.jones as jones
from ajcable.algebra import (
    IntLaurent1,
    IntLaurent2,
    RationalM,
    RationalTM,
    div_qint_den,
    limit_t_minus1,
    poly_exact_div,
    poly_mul,
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
    evaluate_annihilator_at_minus1,
    verify_tuple,
)
from ajcable.cli import main
from ajcable.degrees import audit_degrees
from ajcable.jones import (
    QINT_DEN,
    CablingParams,
    cable_sequence,
    delta_term,
    identity_suite,
    peel,
    symbolic_delta,
    torus_jones,
    torus_jones_via_step,
    unknot_sequence,
)
from ajcable.minimality import SearchBounds, default_search_bounds, search_bounded_annihilator
from ajcable.qtorus import SkewOperator, check_annihilation

GRID = default_grid()
APPLICABLE = [g for g in GRID if g.theorem_applies]
GRID_PQ = ((3, 2), (5, 2), (5, 3), (7, 3), (-3, 2), (-5, 3))

CASE_EXEMPLARS = {
    "S_EQ_2": CablingParams(3, 2, 13, 2),
    "S_EVEN_GT2": CablingParams(5, 3, 121, 4),
    "S_ODD_Q2": CablingParams(3, 2, 31, 3),
    "S_ODD_QGT2": CablingParams(5, 3, 76, 5),
}


@pytest.fixture(scope="module")
def bundles():
    return {params: build_annihilator(params) for params in GRID}


def test_criterion_1_identity_suite():
    t0 = time.time()
    failures = []
    for params in GRID:
        for report in identity_suite(params, 1, 12):
            if not report["pass"]:
                failures.append((params, report["id"], report["failures"][:1]))
    elapsed = time.time() - t0
    assert not failures, failures
    assert elapsed < 60.0, f"identity suite took {elapsed:.1f}s (budget 60s)"
    print(
        f"\nPASS criterion 1: identity suite exact on all {len(GRID)} grid tuples, "
        f"n in [1,12], {elapsed:.1f}s"
    )


def test_criterion_2_annihilation(bundles):
    failures = []
    for params in GRID:
        bundle = bundles[params]
        tag = case_tag(params)
        if bundle.case_tag != tag or bundle.P.l_degree() != case_l_degree(tag):
            failures.append((params, "wrong case tag or L-degree"))
            continue
        report = check_annihilation(bundle.cleared_chain(), cable_sequence(params), 1, 12)
        if not report["pass"]:
            failures.append((params, report))
    assert not failures, failures
    print(
        f"\nPASS criterion 2: constructed operator annihilates exactly, n in [1,12], "
        f"correct case tag and L-degree, all {len(GRID)} tuples"
    )


def test_criterion_3_aj_match(bundles):
    failures = []
    for params in APPLICABLE:
        report = compare_aj(params, bundles[params])
        if not report["pass"]:
            failures.append((params, report))
    assert not failures, failures

    # explicit shapes, one per regime (projective equality via monic forms)
    def lp(d):
        return LPolynomialOverM(
            {i: c if isinstance(c, RationalM) else RationalM.from_int(c) for i, c in d.items()}
        )

    def mono(c, e):
        return RationalM.monomial(c, e)

    def monic(f):
        lead = f.coeffs[f.l_degree()]
        return LPolynomialOverM({i: c / lead for i, c in f.coeffs.items()})

    shapes = {
        "S_ODD_QGT2": lp({1: 1, 0: -1})
        * lp({2: 1, 0: mono(-1, -750)})
        * lp({2: 1, 0: mono(-1, -760)}),
        "S_ODD_Q2": lp({1: 1, 0: -1})
        * lp({1: 1, 0: mono(1, -54)})
        * lp({2: 1, 0: mono(-1, -186)}),
        "S_EVEN_GT2": lp({1: 1, 0: -1})
        * lp({1: 1, 0: mono(-1, -240)})
        * lp({2: 1, 0: mono(-1, -968)}),
        "S_EQ_2": lp({1: 1, 0: -1})
        * lp({1: 1, 0: mono(-1, -24)})
        * lp({1: 1, 0: mono(1, -26)}),
    }
    for tag, params in CASE_EXEMPLARS.items():
        evaluated = evaluate_annihilator_at_minus1(build_annihilator(params))
        assert monic(evaluated) == monic(shapes[tag]), tag
        assert compare_aj(params)["pass"], params
    print(
        f"\nPASS criterion 3: P(-1,M,L) matches the classical A-polynomial "
        f"projectively on all {len(APPLICABLE)} applicable tuples + 4 explicit shapes"
    )


def test_criterion_4_closed_forms():
    failures = []
    for params in GRID:
        b_limit = limit_t_minus1(build_ab(params)[1])
        if b_limit != b_minus1_closed_form(params) or b_limit.is_zero():
            failures.append((params, "b mismatch or zero"))
            continue
        # the limit of the rational b checks the report's direct quotient
        # y(-1) / scale(-1)
        report = determinant_check(params)
        if not report["pass"] or report["b_at_minus1"] != b_limit.text():
            failures.append((params, report))
    assert not failures, failures
    print(
        f"\nPASS criterion 4: b(-1) and determinant closed forms exact and nonzero "
        f"on all {len(GRID)} tuples"
    )


GOLDEN_DEGREES = Path(__file__).resolve().parent / "data" / "golden_degrees.json"


def degree_audits():
    """The ``audit_degrees`` rows of every torus companion (n in [2, 20]) and
    every stock tuple (n in [2, 12]), keyed as in
    ``tests/data/golden_degrees.json``."""
    audits = {f"{p},{q}": audit_degrees((p, q), 2, 20) for p, q in GRID_PQ}
    for params in GRID:
        audits[_golden_key(params)] = audit_degrees(params, 2, 12)
    return audits


def test_criterion_5_degrees():
    audits = degree_audits()
    failures = [row for rows in audits.values() for row in rows if not row["match"]]
    assert not failures, failures[:5]

    # every row (which sides are predicted, and their values) is pinned
    expected = json.loads(GOLDEN_DEGREES.read_text())
    assert sorted(expected) == sorted(audits)
    mismatches = [key for key, rows in audits.items() if report_digest(rows) != expected[key]]
    assert not mismatches, mismatches
    print(
        f"\nPASS criterion 5: predicted degrees integer-exact, torus n in [2,20], "
        f"cables n in [2,12], all {len(GRID)} tuples both chiralities; "
        f"{len(audits)} audits match their golden digests"
    )


GOLDEN_MINIMALITY = Path(__file__).resolve().parent / "data" / "golden_minimality.json"

# order two (found), M-free order one (none) and order one over an M-box (found)
UNKNOT_CONTROLS = {
    "unknot,order2": default_search_bounds(None),
    "unknot,order1": default_search_bounds(None, l_degree=1),
    "unknot,order1,m_box": SearchBounds(l_degree=1, t_span=4, m_span=1, n_lo=1, n_hi=10),
}


def minimality_reports():
    """The full search report of every applicable stock tuple and of the
    unknot controls, keyed as in ``tests/data/golden_minimality.json``."""
    reports = {_golden_key(params): search_bounded_annihilator(params) for params in APPLICABLE}
    for key, bounds in UNKNOT_CONTROLS.items():
        reports[key] = search_bounded_annihilator(None, bounds)
    return reports


def report_digest(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def test_criterion_6_minimality():
    t0 = time.time()
    reports = minimality_reports()
    failures = [
        (params, reports[_golden_key(params)]["verdict"])
        for params in APPLICABLE
        if reports[_golden_key(params)]["verdict"] != "no annihilator within bounds"
    ]
    assert not failures, failures

    # unknot positive control: the second-order operator is recovered
    found = reports["unknot,order2"]
    assert found["verdict"] == "found annihilator within bounds"
    assert found["found"] == "(1)*L^0 + (-t^2 - t^-2)*L^1 + (1)*L^2"
    recovered = SkewOperator(
        {
            0: IntLaurent2.one(),
            1: IntLaurent2({(2, 0): -1, (-2, 0): -1}),
            2: IntLaurent2.one(),
        }
    )
    assert check_annihilation(recovered, unknot_sequence(), 1, 20)["pass"]

    # unknot negative control: nothing at first order over the M-free box,
    # but a first-order operator once M-coefficients are allowed
    assert reports["unknot,order1"]["verdict"] == "no annihilator within bounds"
    assert reports["unknot,order1,m_box"]["verdict"] == "found annihilator within bounds"

    # every report field (sizes, prime, nullity, verdict, operator) is pinned
    expected = json.loads(GOLDEN_MINIMALITY.read_text())
    assert sorted(expected) == sorted(reports)
    mismatches = [key for key, report in reports.items() if report_digest(report) != expected[key]]
    assert not mismatches, mismatches
    elapsed = time.time() - t0
    print(
        f"\nPASS criterion 6: no lower-order annihilator within default bounds for all "
        f"{len(APPLICABLE)} applicable tuples; unknot controls behave; "
        f"{len(reports)} reports match their golden digests, {elapsed:.1f}s"
    )


def expanded_at_minus1(P):
    """Coefficient-wise value at t = -1 of the expanded operator: the route
    ``evaluate_annihilator_at_minus1`` took before it went factor-wise, kept
    as an oracle."""
    out = {}
    for i, coeff in P.coeffs.items():
        v = limit_t_minus1(coeff)
        if not v.is_zero():
            out[i] = v
    return LPolynomialOverM(out)


def factorwise_at_minus1(bundle):
    """The commutative product of the factors' values at t = -1: the route
    ``evaluate_annihilator_at_minus1`` took before it read the cleared form,
    kept as an oracle.  t -> -1 is a ring homomorphism on operators whose
    coefficients are regular there, and the twist becomes the identity.
    The fraction coefficients go through the limit, the polynomial ones
    are evaluated."""
    def at_minus1(c):
        if isinstance(c, IntLaurent2):
            return RationalM(c.eval_t_minus1())
        return limit_t_minus1(c)

    out = LPolynomialOverM({0: RationalM.from_int(1)})
    for op in bundle.factors:
        out = out * LPolynomialOverM({i: at_minus1(c) for i, c in op.coeffs.items()})
    return out


def test_criterion_7_dual_oracles(bundles):
    # the value at t = -1 three ways: from the cleared form, as the product
    # of the factors' values, and from the expanded P; the L-degree of P
    # against the sum of the factors'
    for params in GRID:
        bundle = bundles[params]
        cleared = evaluate_annihilator_at_minus1(bundle)
        assert cleared == factorwise_at_minus1(bundle), params
        assert cleared == expanded_at_minus1(bundle.P), params
        assert bundle.l_degree() == bundle.P.l_degree(), params

    # two independent torus evaluations
    for p, q in GRID_PQ:
        for n in range(1, 21):
            assert torus_jones(p, q, n) == torus_jones_via_step(p, q, n), (p, q, n)

    # symbolic realizations against direct summation
    def tpow(e, coeff=1):
        return IntLaurent1({e: coeff})

    def realize(num, n):
        return div_qint_den(substitute_M(num, n))

    for p, q in GRID_PQ:
        for a, b in ((1, 0), (2, 1), (3, -1)):
            num = symbolic_delta(p, q, a, b)
            for n in range(0, 11):
                assert realize(num, n) == delta_term(p, q, a * n + b), ("delta", p, q, a, b, n)

    for p, q in GRID_PQ:
        for s in (2, 3, 4, 5):
            num = peel("S", p, q, s)[1]
            for n in range(0, 11):
                direct = IntLaurent1()
                for k in range(1, s + 1):
                    e = (2 * p * q * s - 4 * p * q * s * k) * n + 4 * p * q * k * k - 12 * p * q * s * k + 6 * p * q * s
                    direct = direct + poly_mul(tpow(e), delta_term(p, q, s * (n + 3) - 1 - 2 * k))
                assert realize(num, n) == direct, ("S", p, q, s, n)

    for p, q in GRID_PQ:
        if q != 2:
            continue
        for s in (2, 3, 4, 5):
            num = peel("U", p, q, s)[1]
            for n in range(0, 11):
                direct = IntLaurent1()
                for k in range(1, s + 1):
                    sign = 1 if k % 2 == 1 else -1
                    e = (2 * p * s - 4 * p * s * k) * n + 2 * p * k * k - 8 * p * s * k + 2 * p * k + 4 * p * s
                    core = tpow(4 * s * n + 8 * s - 2 - 4 * k) - tpow(-4 * s * n - 8 * s + 2 + 4 * k)
                    direct = direct + poly_mul(tpow(e, sign), poly_exact_div(core, QINT_DEN))
                assert realize(num, n) == direct, ("U", p, s, n)

    for p, q in GRID_PQ:
        for s in (2, 4):
            num = peel("V", p, q, s)[1]
            for n in range(0, 11):
                direct = IntLaurent1()
                for k in range(1, s // 2 + 1):
                    e = (2 * p * q * s - 4 * p * q * s * k) * n + 4 * p * q * k * k - 8 * p * q * s * k + 4 * p * q * s
                    direct = direct + poly_mul(tpow(e), delta_term(p, q, s * (n + 2) - 1 - 2 * k))
                assert realize(num, n) == direct, ("V", p, q, s, n)

    print(
        "\nPASS criterion 7: cleared, factor-wise and expanded P(-1, M, L) and L-degrees "
        f"agree on all {len(GRID)} tuples; dual torus oracles agree n in [1,20]; "
        "symbolic realizations equal direct summation for the step term and all "
        "three peel sums, n in [0,10]"
    )


# --- golden digests of the construction ------------------------------------------

GOLDEN_DIGESTS = Path(__file__).resolve().parent / "data" / "golden_annihilators.json"


def annihilator_record(params, bundle):
    """The ``results`` record of ``ajcable annihilator --eval-t-neg1``."""
    return {
        "kind": "annihilator",
        "params": params.as_dict(),
        "case_tag": bundle.case_tag,
        "L_degree": bundle.P.l_degree(),
        "theorem_applies": params.theorem_applies,
        "factors": [f.text() for f in bundle.factors],
        "operator": bundle.P.text(),
        "at_minus1": evaluate_annihilator_at_minus1(bundle).text(),
    }


def golden_digest(params, bundle):
    """sha256 of the annihilator record and the determinant report together."""
    payload = {"annihilator": annihilator_record(params, bundle), "determinant": determinant_check(params)}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _golden_key(params):
    return f"{params.p},{params.q},{params.r},{params.s}"


def test_golden_annihilator_digests(bundles, capsys):
    """Factors, operator, value at t = -1 and determinant report of every
    stock tuple hash to the digests recorded in ``tests/data``."""
    expected = json.loads(GOLDEN_DIGESTS.read_text())
    assert sorted(expected) == sorted(_golden_key(params) for params in GRID)
    mismatches = [
        params for params in GRID if golden_digest(params, bundles[params]) != expected[_golden_key(params)]
    ]
    assert not mismatches, mismatches

    # the record above is the one the CLI prints
    for params in CASE_EXEMPLARS.values():
        argv = ["annihilator", "-p", str(params.p), "-q", str(params.q), "-r", str(params.r),
                "-s", str(params.s), "--eval-t-neg1", "--format", "json"]
        assert main(argv) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results == [annihilator_record(params, build_annihilator(params))], params


GOLDEN_COMPARE_AJ = Path(__file__).resolve().parent / "data" / "golden_compare_aj.json"


def test_golden_compare_aj_digests(bundles):
    """The full ``compare_aj`` report of every stock tuple (ratio, zero
    pattern and projective verdict included) hashes to the digest recorded
    in ``tests/data``; grid records keep only its pass flag."""
    expected = json.loads(GOLDEN_COMPARE_AJ.read_text())
    assert sorted(expected) == sorted(_golden_key(params) for params in GRID)
    mismatches = [
        params for params in GRID
        if report_digest(compare_aj(params, bundles[params])) != expected[_golden_key(params)]
    ]
    assert not mismatches, mismatches


GOLDEN_APOLY = Path(__file__).resolve().parent / "data" / "golden_apoly.json"


def apoly_record(params):
    """The ``results`` record of ``ajcable apoly``."""
    return {
        "kind": "apoly",
        "params": params.as_dict(),
        "factors": [f.text() for f in cabled_a_polynomial_factors(params)],
        "expanded": cabled_a_polynomial(params).text(),
    }


def test_golden_apoly_digests(capsys):
    """The A-polynomial record (factors and expanded text) of every stock
    tuple hashes to the digest recorded in ``tests/data``."""
    expected = json.loads(GOLDEN_APOLY.read_text())
    assert sorted(expected) == sorted(_golden_key(params) for params in GRID)
    mismatches = [params for params in GRID if report_digest(apoly_record(params)) != expected[_golden_key(params)]]
    assert not mismatches, mismatches

    # the record above is the one the CLI prints
    for params in CASE_EXEMPLARS.values():
        argv = ["apoly", "-p", str(params.p), "-q", str(params.q), "-r", str(params.r),
                "-s", str(params.s), "--format", "json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["results"] == [apoly_record(params)], params


# --- golden verification records and a failing check ------------------------------

GOLDEN_VERIFY = Path(__file__).resolve().parent / "data" / "golden_verify.json"


def test_golden_verify_tuple_digests():
    """The full ``verify_tuple`` record, identity reports included, of one
    tuple per regime hashes to the digest recorded in ``tests/data``."""
    expected = json.loads(GOLDEN_VERIFY.read_text())["verify_tuple"]
    assert sorted(expected) == sorted(CASE_EXEMPLARS)
    for tag, params in CASE_EXEMPLARS.items():
        record = verify_tuple(params, 12)
        assert record["pass"], tag
        digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
        assert digest == expected[tag], tag


def test_verify_and_grid_read_no_cable_value(monkeypatch, tmp_path, capsys):
    """No stage of ``verify`` or ``grid`` computes a colored Jones value:
    with the value builders raising, the pipeline still passes one tuple per
    regime of each chirality, and the positive ones give the golden records."""
    def no_values(*args):
        raise AssertionError(f"a value was computed: {args!r}")

    for name in ("value_window", "cabled_jones", "torus_jones"):
        monkeypatch.setattr(jones, name, no_values)
    expected = json.loads(GOLDEN_VERIFY.read_text())["verify_tuple"]
    for tag, params in CASE_EXEMPLARS.items():
        record = cli._verify_pipeline(params, 12)
        assert record.pop("degrees_ok") and record.pop("degree_mismatches") == [], tag
        digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
        assert digest == expected[tag], tag
    mirrored = [CablingParams(-3, 2, -1, 2), CablingParams(-5, 3, -1, 4),
                CablingParams(-3, 2, -1, 3), CablingParams(-5, 3, -1, 5)]
    assert sorted(case_tag(params) for params in mirrored) == sorted(CASE_EXEMPLARS)
    grid_file = tmp_path / "mirrored.txt"
    grid_file.write_text("".join(f"{c.p} {c.q} {c.r} {c.s}\n" for c in mirrored))
    assert main(["grid", str(grid_file), "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)["results"]
    assert [record["params"] for record in records] == [c.as_dict() for c in mirrored]
    assert all(record["pass"] and record["degrees_ok"] for record in records)


def test_verify_pipeline_builds_no_fraction(monkeypatch):
    """``verify`` reads only the polynomial cleared form: the pipeline of
    one stock tuple per regime constructs no ``RationalTM``, and the bundle
    it built still gives the golden annihilator record from ``P`` and its
    factors."""
    built, fractions = [], []
    real_build, real_init = aj.build_annihilator, RationalTM.__init__

    def init(self, *args, **kwargs):
        fractions.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(aj, "build_annihilator", lambda params: built.append(real_build(params)) or built[-1])
    monkeypatch.setattr(RationalTM, "__init__", init)
    expected = json.loads(GOLDEN_DIGESTS.read_text())
    stock = [CablingParams(3, 2, -1, 2), CablingParams(3, 2, -1, 4),
             CablingParams(3, 2, -1, 3), CablingParams(5, 3, -1, 3)]
    assert sorted(case_tag(params) for params in stock) == sorted(CASE_EXEMPLARS)
    for params in stock:
        built.clear()
        fractions.clear()
        assert cli._verify_pipeline(params, 12)["pass"], params
        assert not fractions, params
        (bundle,) = built
        assert golden_digest(params, bundle) == expected[_golden_key(params)], params
        assert fractions, params  # the spy sees the fractions of P's factors


def test_golden_perturbed_chain_failure():
    """A perturbed cleared chain fails at the recorded colour with the
    recorded residue: the annihilation check cannot pass vacuously."""
    expected = json.loads(GOLDEN_VERIFY.read_text())["perturbed"]
    params = CASE_EXEMPLARS["S_EQ_2"]
    left, body = build_annihilator(params).cleared_chain()
    # (M - t^2)(M - t^4) realizes to zero at colours 1 and 2 only, so the
    # left factor (which reads colours n and n + 1) first sees it at n = 2
    bump = IntLaurent2({(0, 2): 1, (2, 1): -1, (4, 1): -1, (6, 0): 1})
    coeffs = dict(body.coeffs)
    coeffs[0] = coeffs[0] + bump
    report = check_annihilation([left, SkewOperator(coeffs)], cable_sequence(params), 1, 12)
    assert not report["pass"]
    assert report["first_failure_n"] == expected["first_failure_n"] == 2
    assert report["residue"] == expected["residue"]
