"""Backward Riccati recursion, the algebraic Riccati equation, gain extraction.

The control part of the optimal strategy comes from

    P(i) = C^T P(i+1) C + sQ - C^T P(i+1) D (D^T P(i+1) D + sR)^{-1} (C^T P(i+1) D)^T

iterated backward from the terminal weight, and its fixed point for the
stationary problem.  The gain is Gamma = -(D^T P D + sR)^{-1} D^T P C.

With Q = 0 the stabilizing fixed point is solved directly.  It vanishes on the
stable invariant subspace of C; on the orthogonal complement V of that subspace
it is Y^{-1}, where the minimum-energy stabilization Gramian Y solves the Stein
equation T Y T^H - Y = B (sR)^{-1} B^H, T = V^H C V, B = V^H D (Elia, "When
Bode meets Shannon", 2004).  One complex Schur form of C with its eigenvalues in
ascending modulus gives both: its leading columns span the stable subspace, the
rest are V, and T is its trailing triangular block, in which the Stein equation
is solved by substitution (Bartels & Stewart 1972).  Y's conditioning decides
stabilizability.  With Q != 0, Newton's method (Kleinman 1968, Hewer 1971)
runs from the direct Q = 0 gain of a scaled pair, which stabilizes C; the
stabilizing solution exists unless (Q^{1/2}, C) has an unobservable unit-circle
mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stability
from .errors import ConvergenceError, PreconditionError
from .linalg import sym
from .model import min_eigenvalue

TOL_ARE = 1e-11
TOL_FORWARD = 1e-7      # Q = 0: solves from C and from C moved by an ulp differ by more: declined
TOL_GRAMIAN = 1e-13     # Y's smallest / largest eigenvalue at or below it: unstabilizable
_MAX_ITER = 100         # Newton steps
_BETA = 1.1             # the Q != 0 start scales (C, D) by at most this
_EPS = np.finfo(float).eps


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
    iterations: int     # Newton steps: 0 for a direct Q = 0 answer


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


def _schur(T):
    """(U, S): the complex Schur form T = U S U^H, S upper triangular with its
    eigenvalues in ascending modulus.  Each round orthonormalizes the eigenvectors
    of the trailing block (QR) and keeps the leading columns whose part below the
    diagonal is within 16 eps |T|; a cluster whose eigenvectors QR cannot separate
    starts the next round."""
    n, tol = len(T), 16 * _EPS * np.linalg.norm(T)
    S, U, j = T.astype(complex), np.eye(n, dtype=complex), 0
    while j < n - 1:
        w, V = np.linalg.eig(S[j:, j:])
        Z = np.linalg.qr(V[:, np.argsort(np.abs(w), kind="stable")])[0]
        S[j:] = Z.conj().T @ S[j:]
        S[:, j:] = S[:, j:] @ Z
        U[:, j:] = U[:, j:] @ Z
        below = [np.linalg.norm(S[k + 1:, k]) > tol for k in range(j + 1, n - 1)]
        j = j + 1 + below.index(True) if True in below else n - 1
    return U, np.triu(S)


def _stein(S, G):
    """Y with S Y S^H - Y = G, S upper triangular: back substitution by columns,
    and one step of iterative refinement with the residual formed in extended
    precision (np.clongdouble).  Y's small entries carry P = Y^{-1}, and the
    substitution alone leaves them only about 1e-11 relative."""
    n = len(S)
    Minv = np.linalg.inv(np.conj(np.diag(S))[:, None, None] * S - np.eye(n))   # column j's system

    def substitute(G):
        Y = np.zeros((n, n), dtype=complex)
        for j in range(n - 1, -1, -1):
            Y[:, j] = Minv[j] @ (G[:, j] - S @ (Y[:, j + 1:] @ S[j, j + 1:].conj()))
        return Y

    Y = substitute(G)
    Sx, Yx = S.astype(np.clongdouble), Y.astype(np.clongdouble)
    Y = (Yx + substitute((G - Sx @ Yx @ Sx.conj().T + Yx).astype(complex))).astype(complex)
    return 0.5 * (Y + Y.conj().T)


def _direct_q0(C, D, R, s, n_s):
    """The stabilizing Q = 0 solution P = V Y^{-1} V^H for a C with n_s stable
    eigenvalues, at least one outside the unit circle and none on it.  U S U^H is
    the Schur form of C, so V = U[:, n_s:] spans the orthogonal complement of the
    stable subspace and S_2 = S[n_s:, n_s:] = V^H C V; Y solves the Stein equation
    S_2 Y S_2^H - Y = B (sR)^{-1} B^H, B = V^H D.  A |diag S| that does not split at
    n_s, or Y's smallest / largest eigenvalue within TOL_GRAMIAN (an unstabilizable
    mode), is a PreconditionError."""
    U, S = _schur(C)
    modulus = np.abs(np.diag(S))
    if not ((modulus[:n_s] < 1.0).all() and (modulus[n_s:] > 1.0).all()):
        raise PreconditionError(
            f"Schur form of C does not split at its {n_s} stable eigenvalues")
    V, S = U[:, n_s:], S[n_s:, n_s:]
    B = V.conj().T @ D
    Y = _stein(S, B @ np.linalg.solve(s * R, B.conj().T))
    w = np.linalg.eigvalsh(Y)
    if not w[-1] > 0.0 or w[0] <= TOL_GRAMIAN * w[-1]:
        raise PreconditionError(
            "stabilizability test failed for (C, D): the stabilization Gramian's smallest "
            f"/ largest eigenvalue is {w[0] / w[-1] if w[-1] > 0.0 else 0.0:.3e}")
    return sym((V @ np.linalg.solve(Y, V.conj().T)).real)


def _q0_solution(C, D, R, s, checked=True):
    """P of the Q = 0 equation; P = 0 if C is stable, else `_direct_q0`.
    `checked` solves again from C moved by about an ulp in each entry (a fixed
    +-eps checkerboard), and the two must agree within TOL_FORWARD |P|; else the
    equation is declined as too ill-conditioned to answer."""
    modulus = np.abs(np.linalg.eigvals(C))
    if not (modulus >= 1.0 - stability.TOL_SPEC).any():
        return np.zeros_like(C)
    if (np.abs(modulus - 1.0) <= stability.TOL_SPEC).any():
        raise PreconditionError(
            "Q = 0 and C has an eigenvalue on the unit circle: no stabilizing solution")
    n_s = int((modulus < 1.0).sum())
    P = _direct_q0(C, D, R, s, n_s)
    if not checked:
        return P
    signs = np.where(np.add.outer(np.arange(len(C)), np.arange(len(C))) % 2, -1.0, 1.0)
    P2 = _direct_q0(C * (1.0 + signs * _EPS), D, R, s, n_s)
    differ = np.linalg.norm(P - P2) / np.linalg.norm(P)
    if not differ <= TOL_FORWARD:
        raise PreconditionError(
            f"ill-conditioned Riccati equation: solves from C and from C moved by one ulp "
            f"differ by {differ:.3e} of |P|, more than {TOL_FORWARD:g}")
    return P


def solve_are(C, D, Q, R, s: float) -> AreSolution:
    """Stabilizing fixed point; requires R > 0 and (C, D) stabilizable.

    Q = 0: the direct solution (`_q0_solution`), and one backward step from it
    gives the residual and the gain.  If the residual exceeds TOL_ARE, Newton's
    method continues from that gain, and must land within TOL_FORWARD of it.
    Q != 0: Newton's method from the direct Q = 0 gain of (beta C, beta D),
    beta = min(_BETA, 2 / (1 + rho_s)), rho_s the largest modulus among C's stable
    eigenvalues (beta = 1 if rho_s is within 4 TOL_SPEC of 1).  That gain's closed
    loop has spectral radius below 1 / beta, and no stable mode of C needs to be
    controllable.  Newton's P_k is the cost of the
    current gain, a Smith-doubling Lyapunov solve that the ARE residual gates
    instead of TOL_LYAP.  It stops when the residual (the move of one backward
    step) is within TOL_ARE and |P_k - P_{k-1}| is below TOL_ARE |P_k| or stops
    shrinking.  Returns P with that step's gain and residual; `iterations` counts
    Newton steps only, 0 for a direct Q = 0 answer.  An eigenvalue of C on the unit circle
    (Q = 0), an unstabilizable mode, an ill-conditioned equation or a closed loop
    on the unit circle raises PreconditionError.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    check_multiplier(s)
    if min_eigenvalue(R) <= 0:
        raise PreconditionError("R not positive definite")
    try:
        if Q.any():
            modulus = np.abs(np.linalg.eigvals(C))
            rho_s = modulus[modulus < 1.0 - stability.TOL_SPEC].max(initial=0.0)
            # beta rho_s must stay inside the circle by TOL_SPEC; near 1 only beta = 1 does
            beta = 1.0 if rho_s > 1.0 - 4 * stability.TOL_SPEC else min(_BETA, 2.0 / (1.0 + rho_s))
            try:
                P = _q0_solution(beta * C, beta * D, R, s, checked=False)
            except PreconditionError as exc:
                raise PreconditionError(f"Newton start, Q = 0 at beta = {beta:.6g}: {exc}") from exc
            gain = optimal_gain(_backward_step(P, beta * C, beta * D, Q, R, s)[1])
            return _newton(C, D, Q, R, s, gain)
        P = _q0_solution(C, D, R, s)
        Pn, blocks = _backward_step(P, C, D, Q, R, s)
        resid = float(np.linalg.norm(Pn - P) / (1.0 + np.linalg.norm(P)))
        if resid <= TOL_ARE:
            return _solution(C, D, P, optimal_gain(blocks), resid, 0)
        sol = _newton(C, D, Q, R, s, optimal_gain(blocks))
    except np.linalg.LinAlgError as exc:
        raise PreconditionError(f"Riccati solve: {exc}") from exc
    if not np.linalg.norm(sol.P - P) <= TOL_FORWARD * np.linalg.norm(P):
        raise PreconditionError(
            f"ill-conditioned Riccati equation: Newton's method from the direct solution "
            f"(ARE residual {resid:.3e}) moved P by more than {TOL_FORWARD:g} of |P|")
    return sol


def _solution(C, D, P, gain, resid, iterations) -> AreSolution:
    closed = C + D @ gain
    return AreSolution(P=P, gain=gain, closed_loop=closed,
                       stabilizing=stability.spectral_radius(closed).stable,
                       residual=resid, iterations=iterations)


def _newton(C, D, Q, R, s, gain) -> AreSolution:
    """Newton's method (Kleinman 1968, Hewer 1971) from a stabilizing gain (see `solve_are`)."""
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
            return _solution(C, D, P, gain, resid, k)
    raise ConvergenceError(f"{_MAX_ITER} Newton steps did not converge (last residual {resid:.3e})")
