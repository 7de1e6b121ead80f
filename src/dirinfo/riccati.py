"""Backward Riccati recursion, the algebraic Riccati equation, gain extraction.

The control part of the optimal strategy comes from

    P(i) = C^T P(i+1) C + sQ - C^T P(i+1) D (D^T P(i+1) D + sR)^{-1} (C^T P(i+1) D)^T

iterated backward from the terminal weight, and its fixed point for the
stationary problem.  The gain is Gamma = -(D^T P D + sR)^{-1} D^T P C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stability
from .errors import ConvergenceError, PreconditionError
from .linalg import sym, sym_sqrt
from .model import min_eigenvalue, psd_tolerance

TOL_ARE = 1e-11
MAX_ITER = 100_000


@dataclass(frozen=True)
class RiccatiStepBlocks:
    H11: np.ndarray   # C^T P+ C + sQ
    H12: np.ndarray   # C^T P+ D
    H22: np.ndarray   # D^T P+ D + sR


@dataclass(frozen=True)
class AreSolution:
    P: np.ndarray
    gain: np.ndarray
    closed_loop: np.ndarray
    stabilizing: bool
    residual: float
    iterations: int


@dataclass(frozen=True)
class AreClassification:
    psd: bool
    min_eigenvalue: float
    stabilizing: bool
    uniqueness: str            # "unique" | "conditional" | "none"
    stabilizable: bool
    detectable: bool
    kv_controllable: bool      # (closed loop, K_V^{1/2}) controllable: output covariance is unique PD


def riccati_backward_step(Pnext, C, D, Q, R, s: float):
    """One backward step; returns (P, blocks) with blocks exposed for the gain."""
    Pnext = sym(np.atleast_2d(np.asarray(Pnext, dtype=float)))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if s <= 0:
        raise PreconditionError("multiplier s must be positive")
    H11 = sym(C.T @ Pnext @ C + s * Q)
    H12 = C.T @ Pnext @ D
    H22 = sym(D.T @ Pnext @ D + s * R)
    try:
        X = np.linalg.solve(H22, H12.T)
    except np.linalg.LinAlgError as exc:
        raise PreconditionError("H22 numerically singular") from exc
    P = sym(H11 - H12 @ X)
    return P, RiccatiStepBlocks(H11=H11, H12=H12, H22=H22)


def optimal_gain(blocks: RiccatiStepBlocks) -> np.ndarray:
    """Gamma = -H22^{-1} H12^T."""
    try:
        return -np.linalg.solve(blocks.H22, blocks.H12.T)
    except np.linalg.LinAlgError as exc:
        raise PreconditionError("H22 numerically singular") from exc


def _iterate(P0, C, D, Q, R, s, tol, max_iter):
    """Value iteration until a step moves P by at most tol relative to 1 + |P|.

    Returns (P, blocks, residual, steps): the iterate the last step started
    from, that step's blocks, and its move, which is the ARE residual of P.
    """
    P = sym(P0)
    for k in range(1, max_iter + 1):
        Pn, blocks = riccati_backward_step(P, C, D, Q, R, s)
        resid = float(np.linalg.norm(Pn - P) / (1.0 + np.linalg.norm(P)))
        if resid <= tol:
            return P, blocks, resid, k
        P = Pn
    raise ConvergenceError(f"Riccati value iteration did not converge in {max_iter} steps")


def _finish(C, D, Q, R, s, P, blocks, resid, iterations):
    """The solution at P; a stabilizing P first takes one Newton (Hewer) step.

    Value iteration stops on the size of its last step, but its remaining
    error is that step over 1 - rho(closed loop)^2, large near the unit
    circle.  The Newton step replaces P by the exact cost of its gain, a
    Lyapunov solve, which squares the error; one more backward step then
    measures the residual of the new P and gives its gain.
    """
    gain = optimal_gain(blocks)
    closed = C + D @ gain
    if stability.spectral_radius(closed).stable:
        P = stability.solve_lyapunov(closed.T, s * Q + gain.T @ (s * R) @ gain)
        Pn, blocks = riccati_backward_step(P, C, D, Q, R, s)
        resid = float(np.linalg.norm(Pn - P) / (1.0 + np.linalg.norm(P)))
        gain = optimal_gain(blocks)
        closed = C + D @ gain
    return AreSolution(
        P=P, gain=gain, closed_loop=closed,
        stabilizing=stability.spectral_radius(closed).stable,
        residual=resid, iterations=iterations,
    )


def solve_are(C, D, Q, R, s: float, tol: float = TOL_ARE, max_iter: int = MAX_ITER) -> AreSolution:
    """Stabilizing fixed point of the backward step, by value iteration from sQ
    and one Newton step.

    Requires (C, D) stabilizable.  Under detectability of (G, C), Q = G^T G,
    the iteration from the terminal value sQ converges to the unique
    stabilizing PSD solution.  When detectability fails (Q = 0 with an
    unstable channel is the canonical case) and the terminal branch is not
    stabilizing, the stabilizing branch is searched by iterating from the
    identity; the fixed point is accepted only if the closed loop is stable.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if s <= 0:
        raise PreconditionError("multiplier s must be positive (s=0 degenerates the Lagrangian)")
    if min_eigenvalue(R) <= 0:
        raise PreconditionError("R not positive definite")
    if not stability.is_stabilizable(C, D):
        raise PreconditionError("stabilizability test failed for (C, D)")
    G = sym_sqrt(Q)
    detectable = stability.is_detectable(G, C)

    P, blocks, resid, iters = _iterate(s * Q, C, D, Q, R, s, tol, max_iter)
    sol = _finish(C, D, Q, R, s, P, blocks, resid, iters)
    if sol.stabilizing or detectable:
        return sol

    # detectability fails and the terminal branch does not stabilize:
    # search the stabilizing branch from the interior of the PSD cone
    P, blocks, resid, iters2 = _iterate(np.eye(C.shape[0]), C, D, Q, R, s, tol, max_iter)
    alt = _finish(C, D, Q, R, s, P, blocks, resid, iters + iters2)
    if alt.stabilizing:
        return alt
    raise PreconditionError(
        "detectability test failed for (G, C) and no stabilizing fixed point was found")


def classify_are(solution: AreSolution, C, D, Q, R, s: float, KV) -> AreClassification:
    """Report PSD-ness, stability, and the uniqueness certificate for a solution.

    Uniqueness: "unique" under stabilizability + detectability; otherwise
    "conditional" when the solution is stabilizing and the inner block is
    positive definite (at most one such solution exists); "none" otherwise.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    KV = np.atleast_2d(np.asarray(KV, dtype=float))
    P = sym(np.atleast_2d(np.asarray(solution.P, dtype=float)))
    lo = min_eigenvalue(P)
    psd = lo >= -psd_tolerance(P)
    stabilizable = stability.is_stabilizable(C, D)
    detectable = stability.is_detectable(sym_sqrt(Q), C)
    if stabilizable and detectable:
        uniqueness = "unique"
    elif solution.stabilizing:
        uniqueness = "conditional"
    else:
        uniqueness = "none"
    kv_ctrb = stability.is_controllable(solution.closed_loop, sym_sqrt(KV))
    return AreClassification(
        psd=bool(psd), min_eigenvalue=lo, stabilizing=solution.stabilizing,
        uniqueness=uniqueness, stabilizable=stabilizable, detectable=detectable,
        kv_controllable=kv_ctrb,
    )
