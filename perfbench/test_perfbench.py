"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MODULES = run.import_program()
CablingParams = MODULES["ajcable.jones"].CablingParams
aj = MODULES["ajcable.aj"]
BENCHMARK = json.loads(run.BENCHMARK.read_text())
DIGESTS = json.loads(run.DIGESTS.read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_operations(workload, tmp_path):
    first = workloads.generate(workload, 11, grid_dir=str(tmp_path))
    again = workloads.generate(workload, 11, grid_dir=str(tmp_path))
    other = workloads.generate(workload, 12, grid_dir=str(tmp_path))
    assert first == again
    assert [op.tuples for ops in first for op in ops] != [op.tuples for ops in other for op in ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_tuples_come_from_the_fixed_cells(workload, tmp_path):
    table = workloads.cells(workload)
    for ops in workloads.generate(workload, 5, grid_dir=str(tmp_path)):
        items = [item for op in ops for item in op.tuples]
        cables = [item for item in items if item[0] != "unknot"]
        per_cell = 2 if workload == "grid" else 1
        assert sorted((p, q, s) for p, q, _, s in cables) == sorted(list(table) * per_cell)
        assert all(r in table[(p, q, s)] for p, q, r, s in cables)
        if workload == "minimality":
            assert sorted(item for item in items if item[0] == "unknot") == [("unknot", 1), ("unknot", 2)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_drawable_tuple_is_valid_and_recorded(workload):
    for p, q, r, s in workloads.drawable_tuples(workload):
        params = CablingParams(p, q, r, s)
        tag = aj.case_tag(params)
        assert workloads.case_l_degree(p, q, r, s) == aj.case_l_degree(tag)
        if workload == "construct":
            assert tag in ("S_EVEN_GT2", "S_ODD_Q2") and r > 0
        else:
            assert params.theorem_applies
        assert workloads.label((p, q, r, s)) in DIGESTS[workload]


def test_grid_covers_every_regime_in_both_chiralities():
    seen = {(aj.case_tag(CablingParams(*t)), t[0] > 0) for t in workloads.drawable_tuples("grid")}
    assert seen == {(tag, sign) for tag in aj.CASE_TAGS for sign in (True, False)}
    rounds = workloads.generate("grid", 3)
    # the seed draws only the order of a grid round
    assert [sorted(op.tuples for op in ops) for ops in rounds] == \
        [sorted(op.tuples for op in ops) for ops in workloads.generate("grid", 4)]
    for ops in rounds:
        # one tuple per file (one pool thread); per cell one mirrored pair
        assert len(ops) == 48 and all(len(op.tuples) == 1 for op in ops)
        drawn = {}
        for (p, q, r, s), in (op.tuples for op in ops):
            drawn.setdefault((p, q, s), []).append(r)
        for (p, q, s), rs in drawn.items():
            near, far = sorted(rs, key=abs)
            assert abs(near) < abs(p * q * s) < abs(far)
            assert (near, far) in workloads.grid_pairs(p, q, s)


def test_minimality_strata_match_the_default_box_widths():
    minimality = MODULES["ajcable.minimality"]
    for (p, q, s), width in workloads.MINIMALITY_CELLS:
        r = workloads.cells("minimality")[(p, q, s)][0]
        bounds = minimality.default_search_bounds(CablingParams(p, q, r, s))
        assert bounds.box_size() * (bounds.l_degree + 1) == width


def test_metric_names_are_valid_and_computed():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(pattern.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    result = run.Pass()
    result.times = [(0, 1.0)]
    result.tuples_ok = 1
    values, _ = run.end_to_end(result, 0.5, 1)
    assert set(values) == set(run.declared("end_to_end"))
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


# Seconds per operation of each cell of one round, from the per-cell costs
# in README.md: the sharply separated tiers a tail percentile must not
# straddle.
ROUND_COSTS = {
    "construct": [0.64, 0.66, 0.79, 0.81, 0.93, 1.20, 2.33],
    "minimality": [0.008, 0.054, 0.42, 0.45, 0.9, 1.0, 1.05, 1.1, 1.9, 2.0],
}


@pytest.mark.parametrize("workload", sorted(ROUND_COSTS))
def test_tail_stays_on_the_slowest_cell_for_any_number_of_rounds(workload):
    costs = ROUND_COSTS[workload]
    top_tier = [c for c in costs if c >= 1.5]
    for rounds in range(1, 16):
        # a little jitter per round, so no two samples are equal
        values = [c * (1 + 0.001 * i) for i in range(rounds) for c in costs]
        value, pct = run.tail(values, len(costs))
        assert min(top_tier) <= value <= 1.02 * max(top_tier), rounds
        assert pct == pytest.approx(100 * (1 - 1 / (2 * len(costs))))
        # a uniform 1.4x speed-up that fits three times the rounds reads as 1.4x
        faster, _ = run.tail([v / 1.4 for v in values * 3], len(costs))
        assert faster == pytest.approx(value / 1.4, rel=0.02), rounds


def _controls():
    return [[workloads.single_op("minimality", ("unknot", order)) for order in workloads.CONTROL_ORDERS]]


def test_gate_passes_recorded_outputs():
    result, traced = run.run_pass(MODULES, _controls(), 0, DIGESTS)
    assert (result.attempted, result.failed, result.tuples_ok) == (2, 0, 2)
    assert traced.attempted == 0


def test_tampered_digest_fails_the_gate():
    tampered = json.loads(json.dumps(DIGESTS))
    tampered["minimality"]["unknot,2"] = "0" * 64
    result, _ = run.run_pass(MODULES, _controls(), 0, tampered)
    assert result.failed == 1
    assert result.failed / result.attempted > 0
    assert "digest" in result.problems[0][1][0]


def test_traced_grid_self_times_are_never_negative(tmp_path):
    op = workloads.grid_op([(3, 2, -1, 2), (5, 2, -1, 2), (-3, 2, 1, 2), (5, 3, -1, 3)],
                           str(tmp_path / "small.txt"))
    (tmp_path / "small.txt").write_text(op.grid_text)
    tracer = spans.Tracer()
    plain, result = run.run_pass(MODULES, [[op]], 0, DIGESTS, tracer)
    assert (plain.attempted, plain.failed, result.attempted, result.failed) == (1, 0, 1, 0)
    assert not hasattr(MODULES["ajcable.cli"].main, "__wrapped__")
    assert not hasattr(MODULES["ajcable.aj"].check_annihilation, "__wrapped__")
    threads = {tid for *_, tid in tracer.spans}
    assert len(threads) > 1
    assert all(self_s >= 0 for _, _, _, _, _, self_s, *_ in tracer.spans)
    by_id = {sid: (parent, name) for sid, parent, name, *_ in tracer.spans}
    roots = [sid for sid, (parent, name) in by_id.items() if name == spans.ROOT]
    assert len(roots) == 1
    verify = [parent for parent, name in by_id.values() if name == "aj.verify_tuple"]
    assert len(verify) == 4 and set(verify) == set(roots)
    values = tracer.metrics(run.declared("per_layer"), result.grid_wall_s)
    assert values["aj.verify_tuple.calls"] == 4
    assert values["qtorus.colours_checked"] == 4 * 12
    assert values["cli.grid.busy_ratio"] > 0
    assert values["aj.verify_tuple.s"] >= values["qtorus.check_annihilation.s"] > 0
