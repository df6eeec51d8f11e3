"""Checks of the benchmark itself: seeded inputs and the failure counter.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS + inputs.DEFECT_PROBES)
def test_seed_fixes_inputs(workload):
    first = json.dumps(inputs.make_inputs(workload, 7))
    again = json.dumps(inputs.make_inputs(workload, 7))
    other = json.dumps(inputs.make_inputs(workload, 8))
    assert first == again
    assert first != other


def test_points_are_distinct():
    ops = [op for block in inputs.make_inputs("points", 3)["blocks"] for op in block]
    keys = {(op["group"], tuple(map(str, op["point"]))) for op in ops}
    assert len(keys) == len(ops)


def test_points_blocks_do_the_same_work():
    blocks = inputs.make_inputs("points", 3)["blocks"]
    mix = {tuple(sorted((op["group"], op["kind"], tuple(op["weight"])) for op in block))
           for block in blocks}
    assert len(mix) == 1


def test_timed_workloads_leave_out_defect_inputs():
    ops = [op for block in inputs.make_inputs("points", 3)["blocks"] for op in block]
    assert {op["kind"] for op in ops} == {"regular", "singular"}
    probe = inputs.make_inputs("ill_conditioned", 3)["blocks"]
    assert {op["kind"] for block in probe for op in block} == set(inputs.PROBE_KINDS)


def test_regular_points_are_well_conditioned():
    from weylchar import rootsys

    rng = inputs.random.Random(0)
    for name in ("F4", "B4", "D5"):
        rs = rootsys.build_root_system(name)
        for small in (False, True):
            for _ in range(20):
                coords = [inputs.Fraction(c) for c in inputs._regular_exact(rs, rng, small)]
                den = inputs._weyl_denominator(rs, coords)
                assert den > 0
                assert (den < inputs.MIN_WEYL_DENOMINATOR) == small


def _points_records(n):
    doc = inputs.make_inputs("points", 0)
    doc["blocks"] = [doc["blocks"][0][:n]]
    wl = worker.Points(doc)
    wl.setup()
    return wl, [(block, [{"value": 2.0 + 1j, "reference": 2.0 + 1j, "error": None}
                         for _ in block]) for block in wl.units()]


def test_tally_counts_planted_wrong_value():
    wl, records = _points_records(4)
    recs = records[0][1]
    recs[1]["value"] += 1.0 * 10**6  # off by far more than POINTS_TOL * dim
    recs[2]["error"] = "SnapError: planted"
    tally = worker.Tally()
    wl.check(records, tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (4, 2, 1)


def test_tally_counts_planted_non_finite_value():
    wl, records = _points_records(2)
    records[0][1][0]["value"] = complex("nan")
    tally = worker.Tally()
    wl.check(records, tally)
    assert (tally.failed, tally.wrong) == (1, 1)


def test_sweep_check_catches_ratio_above_one():
    wl = worker.Sweep({"chunk": 2, "ks": [1, 2]})
    wl.omega = (0,) * 6
    records = [([4, 5], {"rows": [(4, 10**9, 0.5), (5, 10**9, 1.5)]})]
    tally = worker.Tally()
    wl.check(records, tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)


def test_cli_check_uses_exit_code_traceback_and_schema():
    wl = worker.Cli({})
    ok_error = json.dumps({"error": {"code": "ConfigError", "message": "m", "field": None}})
    traceback = "Traceback (most recent call last):"
    planted = json.dumps({"result": "planted"})  # exit 0, but not a dim document
    records = [(None, [
        ({"sub": "error", "argv": ["dim"]}, (2, ok_error, "", 0.1, 0.1, 30.0)),
        ({"sub": "error", "argv": ["dim"]}, (1, "", traceback, 0.1, 0.1, 30.0)),
        ({"sub": "dim", "argv": ["dim"]}, (0, planted, "", 0.1, 0.1, 30.0)),
    ])]
    tally = worker.Tally()
    wl.check(records, tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 2, 1)
    assert wl.schema_valid_ratio == pytest.approx(1 / 3)


def test_benchmark_json_matches_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
