"""Backward Riccati recursion, the algebraic Riccati equation, gain extraction.

The control part of the optimal strategy comes from

    P(i) = C^T P(i+1) C + sQ - C^T P(i+1) D (D^T P(i+1) D + sR)^{-1} (C^T P(i+1) D)^T

iterated backward from the terminal weight, and its fixed point for the
stationary problem.  The gain is Gamma = -(D^T P D + sR)^{-1} D^T P C.

The fixed point is found by Newton's method (Kleinman 1968, Hewer 1971) from a
stabilizing gain, found by doubling value iteration on a Q = cI equation.  With R > 0
and (C, D) stabilizable the iterates stay stabilizing and fall monotonically,
quadratically at the end, to the stabilizing solution, which exists unless
(Q^{1/2}, C) has an unobservable unit-circle mode (Q = 0: |eig C| = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stability
from .errors import ConvergenceError, PreconditionError
from .linalg import sym
from .model import min_eigenvalue

TOL_ARE = 1e-11
_MAX_ITER = 100         # Newton steps, and doublings of the start


@dataclass(frozen=True)
class RiccatiStepBlocks:
    H11: np.ndarray   # C^T P+ C + sQ
    H12: np.ndarray   # C^T P+ D
    H22: np.ndarray   # D^T P+ D + sR
    X: np.ndarray     # H22^{-1} H12^T


@dataclass(frozen=True)
class AreSolution:
    P: np.ndarray
    gain: np.ndarray
    closed_loop: np.ndarray
    stabilizing: bool
    residual: float
    iterations: int


def check_multiplier(s) -> None:
    """PreconditionError unless the multiplier s is positive and finite."""
    if not 0.0 < s < np.inf:
        raise PreconditionError(f"multiplier s must be positive and finite (got {s:g})")


def riccati_backward_step(Pnext, C, D, Q, R, s: float):
    """One backward step; returns (P, blocks) with blocks exposed for the gain."""
    Pnext = sym(np.atleast_2d(np.asarray(Pnext, dtype=float)))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    check_multiplier(s)
    return _backward_step(Pnext, C, D, Q, R, s)


def _backward_step(Pnext, C, D, Q, R, s: float):
    """`riccati_backward_step` on 2-D float arrays, Pnext symmetric and s checked."""
    H11 = sym(C.T @ Pnext @ C + s * Q)
    H12 = C.T @ Pnext @ D
    H22 = sym(D.T @ Pnext @ D + s * R)
    try:
        X = np.linalg.solve(H22, H12.T)
    except np.linalg.LinAlgError as exc:
        raise PreconditionError("H22 numerically singular") from exc
    P = sym(H11 - H12 @ X)
    return P, RiccatiStepBlocks(H11=H11, H12=H12, H22=H22, X=X)


def optimal_gain(blocks: RiccatiStepBlocks) -> np.ndarray:
    """Gamma = -H22^{-1} H12^T, from the solve the backward step already made."""
    return -blocks.X


def _stabilizing_gain(C, D, R, s):
    """(gain, doublings): the first stabilizing gain of value iteration from P = 0 on
    Q = cI, c = |R| / |D|^2, among its steps 1, 2, 3, 5, 9, ..., 2^k + 1.  The doubling of
    Chu, Fan and Lin (2005) maps H = P_N to P_2N, so a weakly actuated or nearly
    uncontrollable mode that needs N steps costs log2 N doublings.  A stable C takes
    step 1's zero gain before c is formed, so D = 0 is allowed there."""
    gain = np.zeros((D.shape[1], C.shape[0]))                                 # step 1's gain
    if stability.spectral_radius(C).stable:
        return gain, 0
    c = np.linalg.norm(R, 2) / np.linalg.norm(D, 2) ** 2     # D != 0: (C, D) is stabilizable
    A, G, H = C, D @ np.linalg.solve(s * R, D.T), s * c * np.eye(C.shape[0])   # H = P_1
    for k in range(1, _MAX_ITER):
        gain = optimal_gain(riccati_backward_step(H, C, D, np.zeros_like(C), R, s)[1])
        if stability.spectral_radius(C + D @ gain).stable:
            return gain, k
        W = np.eye(C.shape[0]) + G @ H
        WA, WG = np.linalg.solve(W, A), np.linalg.solve(W, G)
        A, G, H = A @ WA, sym(G + A @ WG @ A.T), sym(H + A.T @ H @ WA)
    raise ConvergenceError(f"no stabilizing gain in {_MAX_ITER} doublings of Q = cI value iteration")


def solve_are(C, D, Q, R, s: float) -> AreSolution:
    """Stabilizing fixed point by Newton's method from `_stabilizing_gain`;
    requires R > 0 and (C, D) stabilizable.  P_k is the cost of the current gain,
    a Smith-doubling Lyapunov solve that the ARE residual gates instead of TOL_LYAP.
    Stops when its residual (the move of one backward step) is within TOL_ARE and
    the Newton step |P_k - P_{k-1}| is below TOL_ARE |P_k| or has stopped shrinking;
    returns P_k with that step's gain and residual.  A closed loop on the unit
    circle raises PreconditionError.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    check_multiplier(s)
    if min_eigenvalue(R) <= 0:
        raise PreconditionError("R not positive definite")
    if not stability.is_stabilizable(C, D):
        raise PreconditionError("stabilizability test failed for (C, D)")

    gain, start = _stabilizing_gain(C, D, R, s)
    P, move, resid = np.full_like(C, np.nan), np.nan, np.inf   # no step yet: nan fails both tests
    for k in range(1, _MAX_ITER + 1):
        P_prev, move_prev = P, move
        try:
            P = stability.smith_doubling((C + D @ gain).T, s * Q + gain.T @ (s * R) @ gain)[0]
        except PreconditionError as exc:
            raise PreconditionError(
                f"Newton step {k}: {exc}; last ARE residual {resid:.3e}") from exc
        Pn, blocks = riccati_backward_step(P, C, D, Q, R, s)
        resid = float(np.linalg.norm(Pn - P) / (1.0 + np.linalg.norm(P)))
        gain = optimal_gain(blocks)
        move = float(np.linalg.norm(P - P_prev))
        if resid <= TOL_ARE and (move <= TOL_ARE * np.linalg.norm(P) or move >= move_prev):
            closed = C + D @ gain
            return AreSolution(
                P=P, gain=gain, closed_loop=closed,
                stabilizing=stability.spectral_radius(closed).stable,
                residual=resid, iterations=start + k,
            )
    raise ConvergenceError(f"{_MAX_ITER} Newton steps did not converge (last residual {resid:.3e})")
