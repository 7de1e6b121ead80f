"""Concave maximization over the innovations covariance on the PSD cone.

Objective (nats):

    f(K_Z) = 0.5 logdet(D K_Z D^T + K_V) - 0.5 logdet(K_V) - trace(weight K_Z)

``weight`` (W) aggregates sR + D^T P D from the callers.  The congruence
K_Z = W^{-1/2} Y W^{-1/2}, on range(W) when W is singular, turns the penalty
into trace(Y) and the log-det term into that of H = K_V^{-1/2} D W^{-1/2}.
With H = U diag(sigma_j) V^T the problem splits into parallel subchannels of
gain sigma_j^2, and the optimum is the water-fill

    K_Z = W^{-1/2} V diag((mu - sigma_j^{-2})_+) V^T W^{-1/2},    mu = 1/2.

Scaling the weight by s divides every sigma_j^2 by s, so a weight s W_1 has
level mu = 1/(2s) over the gains of W_1, and spends
trace(W_1 K_Z) = sum_j (mu - sigma_j^{-2})_+; ``water_level`` inverts that
map for a power budget.

One kernel, ``subchannels`` then ``fill``, serves every caller on a stack
of weights, one per step: ``solve`` runs it on one validated problem, and
the capacity module on weights R + D^T P D, positive definite because R is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PreconditionError, UnboundedError
from .linalg import sym
from .model import _PSD, TOL_PSD, _check_rows, min_eigenvalue, psd_tolerance

TOL_WF = 1e-9       # subchannels with mu sigma_j^2 - 1 <= TOL_WF stay dry


@dataclass(frozen=True)
class WaterfillProblem:
    D: np.ndarray        # p x q
    KV: np.ndarray       # p x p, PD
    weight: np.ndarray   # q x q, symmetric PSD

    def __post_init__(self):
        object.__setattr__(self, "D", np.atleast_2d(np.asarray(self.D, dtype=float)))
        object.__setattr__(self, "KV", np.atleast_2d(np.asarray(self.KV, dtype=float)))
        object.__setattr__(self, "weight", np.atleast_2d(np.asarray(self.weight, dtype=float)))
        p, q = self.D.shape
        if self.KV.shape != (p, p):
            raise DimensionError("KV shape mismatch")
        if self.weight.shape != (q, q):
            raise DimensionError("weight shape mismatch")
        if _check_rows([("weight", (self.weight,), (q, q), _PSD, "")]):
            raise PreconditionError("weight must be symmetric PSD")
        if min_eigenvalue(self.KV) <= 0:
            raise PreconditionError("KV must be positive definite")


def gradient(problem: WaterfillProblem, KZ) -> np.ndarray:
    """0.5 D^T (D K_Z D^T + K_V)^{-1} D - weight, symmetrized."""
    KZ = sym(np.atleast_2d(np.asarray(KZ, dtype=float)))
    M = problem.D @ KZ @ problem.D.T + problem.KV
    X = np.linalg.solve(M, problem.D)
    return sym(0.5 * problem.D.T @ X - problem.weight)


def subchannels(D, KV, weight):
    """(sigma, W^{-1/2} V) for a (k, q, q) stack of symmetric PSD weights, unchecked:
    sigma (k, r) are the singular values of H = K_V^{-1/2} D W^{-1/2} (W^{-1/2} on
    range(W)), zero below the SVD's rounding, and W^{-1/2} V (k, q, r) their input
    directions.  D and K_V (PD) are single matrices or stacks of k."""
    w, U = np.linalg.eigh(weight)
    null = w <= TOL_PSD * np.maximum(1.0, np.abs(w).max(axis=-1, keepdims=True))
    Wih = U / np.sqrt(np.where(null, np.inf, w))[..., None, :]
    H = np.linalg.solve(np.linalg.cholesky(KV), D @ Wih)
    _, sigma, Vt = np.linalg.svd(H, full_matrices=False)
    live = sigma > sigma.max(axis=-1, keepdims=True) * max(H.shape[-2:]) * np.finfo(float).eps
    return np.where(live, sigma, 0.0), Wih @ Vt.swapaxes(-1, -2)


def fill(sigma, V, mu: float):
    """(K_Z, rate, spent) per slice of `subchannels` at water level mu: K_Z (k, q, q),
    the rate 0.5 sum_j log(1 + sigma_j^2 d_j) and the power trace(W K_Z) = sum_j d_j,
    with depths d_j = (mu - sigma_j^{-2})_+."""
    wet = mu * sigma * sigma - 1.0 > TOL_WF
    depth = np.where(wet, mu - np.where(wet, sigma, 1.0) ** -2.0, 0.0)
    KZ = sym((V * depth[..., None, :]) @ V.swapaxes(-1, -2))
    return KZ, 0.5 * np.log1p(sigma * sigma * depth).sum(axis=-1), depth.sum(axis=-1)


def water_level(gains, budget: float) -> float:
    """The level mu with sum_j (mu - gains_j^{-2})_+ = budget, by sort and scan.

    Zero gains stay dry.  A zero budget gives the lowest level at which every
    subchannel is dry, 1 / max(gains)^2.
    """
    if budget < 0.0:
        raise PreconditionError("negative water-fill budget")
    gains = np.asarray(gains, dtype=float)
    floors = np.sort(gains[gains > 0] ** -2.0)
    if floors.size == 0:
        raise PreconditionError("no subchannel carries information: the budget cannot be spent")
    levels = (budget + np.cumsum(floors)) / np.arange(1, floors.size + 1)
    return float(levels[np.flatnonzero(levels >= floors)[-1]])


def solve(problem: WaterfillProblem):
    """Maximize over the PSD cone; returns (KZ, value), the water-fill at level 1/2.
    UnboundedError iff the weight annihilates a direction that D does not."""
    W = sym(problem.weight)
    w, U = np.linalg.eigh(W)
    null = w <= psd_tolerance(W)
    if null.any() and np.linalg.norm(problem.D @ U[:, null]) > 1e-12 * (1 + np.linalg.norm(problem.D)):
        raise UnboundedError(
            "objective unbounded: weight has a null direction the channel matrix does not kill")
    KZ, rate, spent = fill(*subchannels(problem.D, problem.KV, W[None]), 0.5)
    return KZ[0], float(rate[0] - spent[0])
