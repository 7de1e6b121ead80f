"""Backward Riccati recursion, the algebraic Riccati equation, gain extraction.

The control part of the optimal strategy comes from

    P(i) = C^T P(i+1) C + sQ - C^T P(i+1) D (D^T P(i+1) D + sR)^{-1} (C^T P(i+1) D)^T

iterated backward from the terminal weight, and its fixed point for the
stationary problem.  The gain is Gamma = -(D^T P D + sR)^{-1} D^T P C.  The entry
points apply s once, as sQ and sR; the private functions solve that unit problem.

With Q = 0 the stabilizing fixed point is solved directly.  It vanishes on the
stable invariant subspace of C; on the orthogonal complement V of that subspace
it is Y^{-1}, where the minimum-energy stabilization Gramian Y solves the Stein
equation T Y T^H - Y = B R^{-1} B^H, T = V^H C V, B = V^H D (Elia, "When
Bode meets Shannon", 2004).  One complex Schur form of C with its eigenvalues in
ascending modulus gives both: its leading columns span the stable subspace, the
rest are V, and T is its trailing triangular block, in which the Stein equation
is solved by substitution (Bartels & Stewart 1972).  Y's conditioning decides
stabilizability.  The Gramian and that Schur-form Stein kernel live in
`stability` (`_stabilization_gramian`, `_schur`, `_stein`), whose
`is_stabilizable` runs the same test; the certificate takes the kernel from
there too.  With Q != 0, Newton's method (Kleinman 1968, Hewer 1971) runs
from the direct Q = 0 gain of a scaled pair, which stabilizes C; the stabilizing
solution exists unless (Q^{1/2}, C) has an unobservable unit-circle mode.
`solve_are` takes C's spectrum once and picks the route; one certificate ends
both: the ARE residual, or else the cost of the answer's own gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stability
from .errors import ModelValidationError, PreconditionError
from .linalg import sym
from .model import _MISMATCH, _PD, _PSD, _check_rows

TOL_ARE = 1e-11
TOL_FORWARD = 1e-7      # P and its check (ulp-moved C, or its gain's cost) differ by more: declined
_MAX_ITER = 100         # Newton steps
_BETA = 1.1             # the Q != 0 start scales (C, D) by at most this


@dataclass(frozen=True)
class RiccatiStepBlocks:
    H11: np.ndarray   # C^T P+ C + sQ
    H12: np.ndarray   # C^T P+ D
    H22: np.ndarray   # D^T P+ D + sR
    X: np.ndarray     # H22^{-1} H12^T


@dataclass(frozen=True)
class AreSolution:
    """A `solve_are` answer.  `stabilizing` is not stored: it is taken from the
    closed loop's spectrum each time it is read, which no capacity path does."""
    P: np.ndarray
    gain: np.ndarray
    closed_loop: np.ndarray
    residual: float     # above TOL_ARE only where the cost of the answer's gain certified it
    iterations: int     # Newton steps: 0 for Q = 0, which never iterates

    @property
    def stabilizing(self) -> bool:
        """Whether the closed loop's spectral radius is below 1 - TOL_SPEC."""
        return stability.spectral_radius(self.closed_loop).stable


def check_multiplier(s) -> None:
    """PreconditionError unless the multiplier s is positive and finite."""
    if not 0.0 < s < np.inf:
        raise PreconditionError(f"multiplier s must be positive and finite (got {s:g})")


def riccati_backward_step(Pnext, C, D, Q, R, s: float):
    """One backward step; returns (P, blocks) with blocks exposed for the gain."""
    Pnext, C, D, Q, R = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (Pnext, C, D, Q, R))
    check_multiplier(s)
    return _backward_step(sym(Pnext), C, D, s * Q, s * R)


def _backward_step(Pnext, C, D, Q, R):
    """The unit-problem step (s applied as sQ, sR) on 2-D float arrays, Pnext symmetric."""
    CtP = C.T @ Pnext
    H11 = sym(CtP @ C + Q)
    H12 = CtP @ D
    H22 = sym(D.T @ Pnext @ D + R)
    try:
        X = np.linalg.solve(H22, H12.T)
    except np.linalg.LinAlgError as exc:
        raise PreconditionError("H22 numerically singular") from exc
    P = sym(H11 - H12 @ X)
    return P, RiccatiStepBlocks(H11=H11, H12=H12, H22=H22, X=X)


def optimal_gain(blocks: RiccatiStepBlocks) -> np.ndarray:
    """Gamma = -H22^{-1} H12^T, from the solve the backward step already made."""
    return -blocks.X


def _q0_solution(C, D, R, modulus):
    """P of the Q = 0 equation, C's eigenvalue moduli given: 0 if C is stable, else the
    direct solution P = V Y^{-1} V^H from the stabilization Gramian Y of C's anti-stable
    part and the basis V of that part (`stability._stabilization_gramian`).  A unit-circle
    eigenvalue, a Schur form that does not split, or a declined Gramian: PreconditionError."""
    if not (modulus >= 1.0 - stability.TOL_SPEC).any():
        return np.zeros_like(C)
    if (np.abs(modulus - 1.0) <= stability.TOL_SPEC).any():
        raise PreconditionError(
            "Q = 0 and C has an eigenvalue on the unit circle: no stabilizing solution")
    V, Y, ratio = stability._stabilization_gramian(C, D, R, int((modulus < 1.0).sum()))
    if Y is None:
        raise PreconditionError("stabilizability test failed for (C, D): the stabilization "
                                f"Gramian's smallest / largest eigenvalue is {ratio:.3e}")
    return sym((V @ np.linalg.solve(Y, V.conj().T)).real)


def _check_close(P, P2, text: str) -> None:
    """PreconditionError, the equation too ill-conditioned to answer, unless P2 is within
    TOL_FORWARD |P| of P; `text` names the two, with {differ} = |P2 - P| / |P| and {tol}."""
    differ, size = np.linalg.norm(P2 - P), np.linalg.norm(P)
    if not differ <= TOL_FORWARD * size:
        raise PreconditionError("ill-conditioned Riccati equation: "
                                + text.format(differ=differ / size, tol=TOL_FORWARD))


def _certify(P, closed, W, resid) -> None:
    """Certify P, whose ARE residual is `resid`: the cost of its gain, sum_k (closed^T)^k W
    closed^k = U Y U^H with closed^T = U S U^H and S Y S^H - Y = -U^H W U (infinite for
    an unstable loop), must be within TOL_FORWARD |P| of P."""
    U, S = stability._schur(closed.T)
    stable = np.abs(np.diag(S)).max(initial=0.0) < 1.0 - stability.TOL_SPEC
    cost = (sym((U @ stability._stein(S, -(U.conj().T @ W @ U)) @ U.conj().T).real) if stable
            else P + np.inf)
    _check_close(P, cost, f"the ARE residual is {resid:.3e}, and the cost of P's own gain differs "
                 "from P by {differ:.3e} of |P|, more than {tol:g}")


def solve_are(C, D, Q, R, s: float) -> AreSolution:
    """Stabilizing fixed point; requires R > 0 and (C, D) stabilizable.

    C, D, Q and R are judged by the model's row rule (shape, finiteness, symmetry, Q PSD,
    R PD): a violation is a ModelValidationError naming it.  s is applied once, as sQ
    and sR, and one spectrum of C serves either route.  Q = 0: the direct solution
    (`_q0_solution`), which a solve from C moved by about an ulp per entry (a +-eps
    checkerboard) must match within TOL_FORWARD |P|.  Q != 0: `_newton` from the direct
    Q = 0 gain of (beta C, beta D), beta = min(_BETA, 2 / (1 + rho_s)), rho_s the largest
    stable modulus of C (beta = 1 if rho_s is within 4 TOL_SPEC of 1): its closed loop
    has spectral radius below 1 / beta, and no stable mode of C needs to be controllable.
    One certificate ends both routes: the answer P, with the gain and residual of one
    backward step from it, stands if that residual is within TOL_ARE, else (its rounding
    grows as eps |C|^2) if the cost of its own gain is within TOL_FORWARD |P|
    (`_certify`), which judges Newton's iterate at its step cap whatever its residual.
    `iterations` counts Newton steps.  The answer's `stabilizing` flag takes the closed
    loop's spectrum when it is read, not here.  A unit-circle eigenvalue of C with Q = 0,
    an unstabilizable mode, an ill-conditioned equation, an unstable loop or a declined
    answer: PreconditionError.
    """
    C, D, Q, R = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (C, D, Q, R))
    check_multiplier(s)
    p, q = len(C), D.shape[1]
    errors = _check_rows([("C", (C,), (p, p), None, _MISMATCH),
                          ("D", (D,), (p, q), None, _MISMATCH),
                          ("Q", (Q,), (p, p), _PSD, _MISMATCH),
                          ("R", (R,), (q, q), _PD, _MISMATCH)])
    if errors:
        raise ModelValidationError(errors)
    Q, R = s * Q, s * R
    try:
        modulus = np.abs(np.linalg.eigvals(C))
        if Q.any():
            rho_s = modulus[modulus < 1.0 - stability.TOL_SPEC].max(initial=0.0)
            # beta rho_s must stay inside the circle by TOL_SPEC; near 1 only beta = 1 does
            beta = 1.0 if rho_s > 1.0 - 4 * stability.TOL_SPEC else min(_BETA, 2.0 / (1.0 + rho_s))
            try:
                P = _q0_solution(beta * C, beta * D, R, beta * modulus)
            except PreconditionError as exc:
                raise PreconditionError(f"Newton start, Q = 0 at beta = {beta:.6g}: {exc}") from exc
            P, gain, resid, iterations = _newton(
                C, D, Q, R, optimal_gain(_backward_step(P, beta * C, beta * D, Q, R)[1]))
        else:
            P, iterations = _q0_solution(C, D, R, modulus), 0
            moved = C * (1.0 + (-1.0) ** np.indices(C.shape).sum(axis=0) * stability._EPS)
            _check_close(P, _q0_solution(moved, D, R, modulus), "solves from C and from C "
                         "moved by one ulp differ by {differ:.3e} of |P|, more than {tol:g}")
            gain, resid = _step(P, _backward_step(P, C, D, Q, R))
        closed = C + D @ gain
        if not resid <= TOL_ARE or iterations == _MAX_ITER:
            _certify(P, closed, Q + gain.T @ R @ gain, resid)
    except np.linalg.LinAlgError as exc:
        raise PreconditionError(f"Riccati solve: {exc}") from exc
    return AreSolution(P=P, gain=gain, closed_loop=closed, residual=resid, iterations=iterations)


def _step(P, step):
    """(gain, ARE residual |Ric(P) - P| / (1 + |P|)) of `step` = (Ric(P), blocks) from P."""
    return optimal_gain(step[1]), float(np.linalg.norm(step[0] - P) / (1.0 + np.linalg.norm(P)))


def _newton(C, D, Q, R, gain):
    """Newton's method (Kleinman 1968, Hewer 1971) from a stabilizing gain, P_k the cost of
    the current gain (Smith doubling): (P_k, `_step` of P_k, k) at its stop or its step cap."""
    P, move, resid = np.full_like(C, np.nan), np.nan, np.inf   # no step yet: nan fails every test
    for k in range(1, _MAX_ITER + 1):
        P_prev, move_prev = P, move
        try:
            P = stability.smith_doubling((C + D @ gain).T, Q + gain.T @ R @ gain)[0]
        except PreconditionError as exc:
            raise PreconditionError(
                f"Newton step {k}: {exc}; last ARE residual {resid:.3e}") from exc
        gain, resid = _step(P, riccati_backward_step(P, C, D, Q, R, 1.0))
        move, size = float(np.linalg.norm(P - P_prev)), np.linalg.norm(P)
        stalled = move >= move_prev     # the move has stopped shrinking: at its rounding floor
        if stalled and move <= TOL_FORWARD * size or resid <= TOL_ARE and (
                stalled or move <= TOL_ARE * size):
            return P, gain, resid, k
    return P, gain, resid, _MAX_ITER
