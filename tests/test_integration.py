"""End-to-end runs that cross module boundaries, driven by the shipped
example model files."""

import json
import math
import pathlib

import numpy as np
import pytest

import dirinfo as di
from dirinfo.cli import parse_config, run

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "models"

HALF_LN2 = 0.5 * math.log(2.0)


def test_shipped_models_parse_and_check():
    for name in ("scalar_stable.json", "scalar_unstable.json",
                 "mimo_stable.json", "memory_order2.json"):
        code, report = run(parse_config(["check", "--model", str(DOCS / name)]))
        assert code == 0, name
        assert report["result"]["valid"], name


def test_memory_model_capacity_equals_memoryless_waterfill():
    # stable channel, Q = 0: output memory cannot change the capacity, so the
    # augmented order-2 model must land exactly on the memoryless value
    code, report = run(parse_config(["capacity", "--model", str(DOCS / "memory_order2.json")]))
    assert code == 0
    assert report["model"]["augmented"] is True
    res = report["result"]
    assert res["capacity_nats"] == pytest.approx(HALF_LN2, abs=1e-6)
    assert res["regime"] == "stable_no_feedback"
    assert np.abs(np.array(res["gain"])).max() <= 1e-9
    assert abs(res["achieved_cost"] - 1.0) <= 1e-6 * 2


def test_memory_model_monte_carlo_agrees_with_solved_rate():
    mem = di.memory_model([0.5, 0.25], 1.0, 1.0, 1.0, None, 1.0, 0, cost_memory=1)
    m = di.augment_memory(mem)
    sol, rate = di.feedback_capacity(m)
    assert rate == pytest.approx(HALF_LN2, abs=1e-8)
    strat = di.stationary_strategy(sol.gain, sol.KZ)
    traces = di.simulate_batch(m, strat, 20_000, range(4))
    assert m.kv_regularized
    for tr in traces:
        assert abs(tr.terminal_rate - rate) <= 0.05
        assert abs(tr.terminal_cost - 1.0) <= 0.1


def test_mimo_file_capacity_matches_symmetric_waterfill():
    code, report = run(parse_config(["capacity", "--model", str(DOCS / "mimo_stable.json")]))
    assert code == 0
    assert report["result"]["capacity_nats"] == pytest.approx(math.log(2.0), abs=1e-7)
    # no oracle block for MIMO models
    assert "oracle" not in report


def test_unstable_file_full_report_shape():
    code, report = run(parse_config(["capacity", "--model", str(DOCS / "scalar_unstable.json"),
                                     "--units", "bits"]))
    assert code == 0
    res = report["result"]
    assert res["capacity"] == pytest.approx(res["capacity_nats"] / math.log(2.0), rel=1e-12)
    assert report["oracle"]["max_delta"] < 1e-6
    assert report["tolerances"]["tol_are"] == 1e-11
    assert report["version"] == di.__version__


def test_time_varying_ftfi_constraint_activity():
    m = di.channel_model(
        [[[0.9]], [[0.5]], [[1.1]], [[0.7]]],
        [[[1.0]], [[1.0]], [[1.0]], [[1.0]]],
        [[[1.0]], [[0.8]], [[1.2]], [[1.0]]],
        [[[1.0]], [[1.0]], [[1.0]], [[1.0]]],
        [[[0.1]], [[0.0]], [[0.2]], [[0.0]]],
        2.0, 3, time_invariant=False)
    sol, c = di.ftfi_capacity(m)
    assert abs(sol.achieved_cost - 2.0) <= 1e-6 * 3
    assert c > 0
    # the directed-information value matches the returned strategy
    from dirinfo.capacity import information_rate
    assert c == pytest.approx(information_rate(m, sol.strategy, 4) / 4, rel=1e-12)
