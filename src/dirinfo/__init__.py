"""Feedback capacity of MIMO Gaussian linear channel models with memory.

Solver library + CLI: Riccati recursions for the control part of the
optimal strategy, water-filling for the innovations part, a closed-form
water level for the power constraint, and Monte Carlo validation of the
resulting directed-information rates.
"""

__version__ = "0.1.0"

from .capacity import (FiniteHorizonSolution, StationarySolution, feedback_capacity,
                       finite_horizon_dp, ftfi_capacity, kappa_min,
                       nofeedback_capacity_q0, scalar_feedback_capacity,
                       stationary_solve)
from .errors import (ConvergenceError, DimensionError, DirinfoError, InfeasibleError,
                     ModelValidationError, PreconditionError, UnboundedError)
from .model import (ChannelModel, MemoryJModel, ScalarView, Strategy, augment_memory,
                    channel_model, memory_model, scalar_model, scalar_view,
                    stationary_strategy, strategy, validate_model)
from .riccati import AreSolution, optimal_gain, riccati_backward_step, solve_are
from .simulate import (SimulationTrace, StabilityReport, innovation_from_uniform,
                       normal_quantile, sample_trajectory, simulate_batch,
                       stability_report, trace_to_csv)
from .stability import (SpectrumReport, is_controllable, is_detectable, is_observable,
                        is_stabilizable, lyapunov_step, solve_lyapunov, spectral_radius)
from .waterfill import WaterfillProblem, gradient, solve

__all__ = [
    "__version__",
    "ChannelModel", "MemoryJModel", "Strategy", "ScalarView",
    "channel_model", "scalar_model", "memory_model", "augment_memory",
    "scalar_view", "validate_model", "strategy", "stationary_strategy",
    "SpectrumReport", "spectral_radius", "is_controllable", "is_observable",
    "is_stabilizable", "is_detectable", "lyapunov_step", "solve_lyapunov",
    "AreSolution", "riccati_backward_step", "optimal_gain", "solve_are",
    "WaterfillProblem", "gradient", "solve",
    "FiniteHorizonSolution", "StationarySolution", "finite_horizon_dp", "ftfi_capacity",
    "stationary_solve", "feedback_capacity", "kappa_min", "scalar_feedback_capacity",
    "nofeedback_capacity_q0",
    "SimulationTrace", "StabilityReport", "normal_quantile", "innovation_from_uniform",
    "sample_trajectory", "simulate_batch", "stability_report",
    "trace_to_csv",
    "DirinfoError", "ModelValidationError", "DimensionError", "PreconditionError",
    "ConvergenceError", "UnboundedError", "InfeasibleError",
]
