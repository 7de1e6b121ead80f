"""Named failures and edge values of the public layers that no other test reaches:
each call must end in its error type with its text, or in its documented value."""

import numpy as np
import pytest

import dirinfo as di
from dirinfo import capacity, riccati, stability, waterfill
from dirinfo.errors import DimensionError, ModelValidationError, PreconditionError
from dirinfo.linalg import logdet_pd
from dirinfo.simulate import innovation_from_uniform

EYE2 = np.eye(2)


def _time_varying():
    return di.channel_model([2.0, 2.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0],
                            1.0, 1, time_invariant=False)


FAILURES = [
    ("validate_model, negative horizon",
     lambda: di.validate_model(di.channel_model(2.0, 1.0, 1.0, 1.0, 0.0, 1.0, -1)),
     ModelValidationError, "horizon negative"),
    ("stationary_solve, time-varying model",
     lambda: capacity.stationary_solve(_time_varying(), 1.0),
     PreconditionError, "stationary solve requires a time-invariant model"),
    ("scalar_feedback_capacity, D = 0",
     lambda: capacity.scalar_feedback_capacity(2.0, 0.0, 1.0, 1.0),
     PreconditionError, "D must be nonzero"),
    ("scalar_feedback_capacity, K_V = 0",
     lambda: capacity.scalar_feedback_capacity(2.0, 1.0, 0.0, 1.0),
     PreconditionError, "KV must be positive"),
    ("scalar_feedback_capacity, R = 0",
     lambda: capacity.scalar_feedback_capacity(2.0, 1.0, 1.0, 1.0, R=0.0),
     PreconditionError, "R must be positive"),
    ("scalar_feedback_capacity, kappa < 0",
     lambda: capacity.scalar_feedback_capacity(2.0, 1.0, 1.0, -1.0),
     PreconditionError, "negative kappa"),
    ("WaterfillProblem, K_V shape",
     lambda: waterfill.WaterfillProblem(EYE2, np.eye(3), EYE2),
     DimensionError, "KV shape mismatch"),
    ("WaterfillProblem, weight shape",
     lambda: waterfill.WaterfillProblem(EYE2, EYE2, np.eye(3)),
     DimensionError, "weight shape mismatch"),
    ("WaterfillProblem, indefinite weight",
     lambda: waterfill.WaterfillProblem(EYE2, EYE2, -EYE2),
     PreconditionError, "weight must be symmetric PSD"),
    ("WaterfillProblem, singular K_V",
     lambda: waterfill.WaterfillProblem(EYE2, np.diag([1.0, 0.0]), EYE2),
     PreconditionError, "KV must be positive definite"),
    ("water_level, negative budget",
     lambda: waterfill.water_level(np.array([1.0]), -1.0),
     PreconditionError, "negative water-fill budget"),
    ("innovation_from_uniform, length mismatch",
     lambda: innovation_from_uniform([0.5], EYE2),
     DimensionError, "uniform vector length does not match covariance"),
    ("is_observable, column mismatch",
     lambda: di.is_observable(np.ones((1, 3)), EYE2),
     DimensionError, "C has 3 columns, expected 2"),
    ("lyapunov_step, shape mismatch",
     lambda: di.lyapunov_step(np.eye(3), EYE2, EYE2),
     DimensionError, "lyapunov_step: shape mismatch"),
    ("smith_doubling, shape mismatch",
     lambda: stability.smith_doubling(EYE2 / 2, np.eye(3)),
     DimensionError, "W shape mismatch"),
    ("riccati_backward_step, D = R = 0",
     lambda: riccati.riccati_backward_step([[1.0]], [[2.0]], [[0.0]], [[0.0]], [[0.0]], 1.0),
     PreconditionError, "H22 numerically singular"),
    ("logdet_pd, -I (determinant 1)",
     lambda: logdet_pd(-EYE2),
     PreconditionError, "matrix not positive definite in logdet"),
    ("logdet_pd, diag(-1, -2) (determinant 2)",
     lambda: logdet_pd(np.diag([-1.0, -2.0])),
     PreconditionError, "matrix not positive definite in logdet"),
    ("strategy, lengths differ",
     lambda: di.strategy([[[1.0]], [[1.0]]], [[[1.0]]]),
     DimensionError, "gains and innovations lengths differ"),
    ("strategy, no steps",
     lambda: di.strategy([], []),
     DimensionError, "a strategy needs at least one step"),
    ("strategy, rank-3 gain",
     lambda: di.strategy([np.zeros((1, 1, 1))], [[[1.0]]]),
     ModelValidationError, "dimension mismatch: gains[0] is (1, 1, 1), expected (1, 1)"),
    ("strategy, gain rows other than the innovations' size",
     lambda: di.stationary_strategy([[-1.5]], EYE2),
     ModelValidationError, "dimension mismatch: gains[0] is (1, 1), expected (2, 1)"),
    ("strategy, gain with the wrong row count",
     lambda: di.strategy([[[1.0, 0.0]], np.zeros((2, 2))], [[[1.0]], [[1.0]]]),
     ModelValidationError, "dimension mismatch: gains[1] is (2, 2), expected (1, 2)"),
]


@pytest.mark.parametrize("call, error, text", [row[1:] for row in FAILURES],
                         ids=[row[0] for row in FAILURES])
def test_named_failure(call, error, text):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert text in str(info.value)


def _noise_for_inversion(model):
    kv, padded = model.noise_for_inversion(0)
    return kv.tolist(), padded


VALUES = [
    ("nofeedback_capacity_q0 at kappa = 0",
     lambda: di.nofeedback_capacity_q0(di.channel_model(0.5, 1.0, 1.0, 1.0, 0.0, 0.0, 0)),
     0.0),
    ("noise_for_inversion, augmented model whose K_V has no zero diagonal",
     lambda: _noise_for_inversion(di.channel_model(EYE2 / 2, EYE2, np.diag([2.0, 3.0]), EYE2,
                                                   0 * EYE2, 1.0, 0, augmented=True)),
     ([[2.0, 0.0], [0.0, 3.0]], False)),
]


@pytest.mark.parametrize("call, value", [row[1:] for row in VALUES], ids=[row[0] for row in VALUES])
def test_edge_value(call, value):
    assert call() == value
