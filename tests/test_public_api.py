"""The package's public surface, pinned: adding or removing a name, or a field
that a caller could read, is a deliberate edit of this file."""

import dataclasses
import importlib
import inspect

import pytest

import dirinfo as di
import oracles

PUBLIC = [
    "AreSolution", "ChannelModel", "ConvergenceError", "DimensionError", "DirinfoError",
    "FiniteHorizonSolution", "InfeasibleError", "MemoryJModel", "ModelValidationError",
    "PreconditionError", "ScalarView", "SimulationTrace", "SpectrumReport", "StabilityReport",
    "StationarySolution", "Strategy", "UnboundedError", "WaterfillProblem", "__version__",
    "augment_memory", "channel_model", "feedback_capacity", "finite_horizon_dp", "ftfi_capacity",
    "gradient", "innovation_from_uniform", "is_controllable", "is_detectable", "is_observable",
    "is_stabilizable", "kappa_min", "lyapunov_step", "memory_model", "nofeedback_capacity_q0",
    "normal_quantile", "optimal_gain", "riccati_backward_step", "sample_trajectory",
    "scalar_feedback_capacity", "scalar_model", "scalar_view", "simulate_batch", "solve",
    "solve_are", "solve_lyapunov", "spectral_radius", "stability_report", "stationary_solve",
    "stationary_strategy", "strategy", "trace_to_csv", "validate_model",
]

# reference implementations that only the tests call: they live in tests/oracles.py
TEST_ORACLES = [("waterfill", "objective"), ("waterfill", "scalar_solve"),
                ("simulate", "info_density_step"), ("riccati", "classify_are"),
                ("riccati", "AreClassification"), ("model", "lift_strategy"),
                ("model", "psd_tolerance"), ("simulate", "trace_csv_reference")]


def test_public_names_are_the_pinned_list():
    assert sorted(di.__all__) == PUBLIC


def test_every_public_name_resolves():
    assert [name for name in PUBLIC if not hasattr(di, name)] == []


@pytest.mark.parametrize("module, name", TEST_ORACLES)
def test_test_oracle_lives_beside_the_tests_only(module, name):
    assert not hasattr(importlib.import_module(f"dirinfo.{module}"), name)
    assert not hasattr(di, name)
    assert callable(getattr(oracles, name))


def test_fields_that_nothing_read_stay_removed():
    assert [f.name for f in dataclasses.fields(di.SpectrumReport)] == ["spectral_radius", "stable"]
    assert list(inspect.signature(di.scalar_feedback_capacity).parameters) == [
        "C", "D", "KV", "kappa", "R"]
    for cls in (di.StationarySolution, di.FiniteHorizonSolution, di.SimulationTrace):
        assert "meta" not in {f.name for f in dataclasses.fields(cls)}
    # the finite-horizon cost comes from the Riccati value identity: no forward K_B pass
    assert "KB_seq" not in {f.name for f in dataclasses.fields(di.FiniteHorizonSolution)}
    assert not hasattr(importlib.import_module("dirinfo.stability"), "_lyapunov_step")
