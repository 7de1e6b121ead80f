"""Linear-systems substrate: spectra, PBH tests, discrete Lyapunov equations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PreconditionError

TOL_SPEC = 1e-9          # stability margin on the unit circle
TOL_RANK = 1e-9          # PBH rank cutoff, relative to the pencil and to |lam|
TOL_LYAP = 1e-10         # residual tolerance for the algebraic Lyapunov solve
_MAX_DOUBLINGS = 64      # Smith doublings: 2^64 terms of the Lyapunov series
_MAX_PASSES = 3          # Smith passes: the solve, then refinements on its residual


@dataclass(frozen=True)
class SpectrumReport:
    spectral_radius: float
    stable: bool


def _square(A) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"matrix is {A.shape}, expected square")
    return A


def spectral_radius(A) -> SpectrumReport:
    """Spectral radius and the open-unit-disc stability flag."""
    eigs = np.linalg.eigvals(_square(A))
    radius = float(np.abs(eigs).max()) if eigs.size else 0.0
    return SpectrumReport(spectral_radius=radius, stable=radius < 1.0 - TOL_SPEC)


def _pbh(A, B, margin: float) -> bool:
    """PBH test: rank [A - lam*I, B] = n at every eigenvalue with |lam| >= margin.
    (The Krylov matrix [B, AB, ...] loses rank numerically as n grows; Paige 1981.)

    A singular value counts above TOL_RANK times the larger of the pencil's
    largest one and |lam|.  As |[A, B]| <= |[A - lam*I, B]| + |lam|, that is the
    size of [A, B] up to a factor 2, so a pencil that is only the rounding in A - lam*I
    (A = lam*I up to rounding, B = 0) has rank 0."""
    A = _square(A)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    if B.shape[0] != n:
        raise DimensionError(f"B has {B.shape[0]} rows, expected {n}")
    for lam in np.linalg.eigvals(A):
        if abs(lam) < margin or lam.imag < 0:     # at conj(lam) the pencil is the conjugate
            continue
        sv = np.linalg.svd(np.hstack([A - lam * np.eye(n), B]).astype(complex), compute_uv=False)
        if sv[-1] <= TOL_RANK * max(sv[0], abs(lam)):
            return False
    return True


def is_controllable(A, B) -> bool:
    """PBH test at every eigenvalue of A."""
    return _pbh(A, B, 0.0)


def is_observable(C, A) -> bool:
    """Dual of controllability: (C, A) observable iff (A^T, C^T) controllable."""
    A = _square(A)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if C.shape[1] != A.shape[0]:
        raise DimensionError(f"C has {C.shape[1]} columns, expected {A.shape[0]}")
    return is_controllable(A.T, C.T)


def is_stabilizable(A, B) -> bool:
    """PBH test at every eigenvalue with |lam| >= 1 - TOL_SPEC."""
    return _pbh(A, B, 1.0 - TOL_SPEC)


def is_detectable(G, A) -> bool:
    """Dual of stabilizability: (G, A) detectable iff (A^T, G^T) stabilizable."""
    A = _square(A)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    if G.shape[1] != A.shape[0]:
        raise DimensionError(f"G has {G.shape[1]} columns, expected {A.shape[0]}")
    return is_stabilizable(A.T, G.T)


def lyapunov_step(Kprev, Acl, W) -> np.ndarray:
    """One step of K <- Acl K Acl^T + W, symmetrized."""
    Kprev = np.atleast_2d(np.asarray(Kprev, dtype=float))
    Acl = _square(Acl)
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if Kprev.shape != Acl.shape or W.shape != Acl.shape:
        raise DimensionError("lyapunov_step: shape mismatch")
    K = Acl @ Kprev @ Acl.T + W
    return 0.5 * (K + K.T)


def solve_lyapunov(Acl, W) -> np.ndarray:
    """Unique solution of Sigma = Acl Sigma Acl^T + W for exponentially stable Acl.

    Smith doubling, O(p^3) per step: Sigma <- Sigma + A Sigma A^T, A <- A^2
    from Sigma = W, A = Acl, until |A|^2 <= eps, which is also the stability test;
    repeated on the residual while it exceeds TOL_LYAP (squaring loses accuracy on
    non-normal Acl).  PreconditionError if A never vanishes or the residual stays above.
    """
    Sigma, resid = smith_doubling(Acl, W)
    if not resid <= TOL_LYAP:
        raise PreconditionError(f"Lyapunov solve residual too large ({resid:.3e} relative to 1 + |W|)")
    return Sigma


def smith_doubling(Acl, W):
    """(Sigma, |W - Sigma + Acl Sigma Acl^T| / (1 + |W|)): `solve_lyapunov` without its
    residual gate, for iterations that gate their own result (`riccati.solve_are`).
    Unless Acl's last power vanishes (|Acl^(2^k)|^2 <= eps; Smith 1968), PreconditionError
    names Acl's spectral radius if it is 1 - TOL_SPEC or more, else the power that overflowed."""
    Acl = _square(Acl)
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if W.shape != Acl.shape:
        raise DimensionError("W shape mismatch")
    Wsym = 0.5 * (W + W.T)
    powers, eps = [Acl], np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):   # overflow is judged below
        while len(powers) < _MAX_DOUBLINGS and np.linalg.norm(powers[-1]) ** 2 > eps:
            powers.append(powers[-1] @ powers[-1])
        if not np.linalg.norm(powers[-1]) ** 2 <= eps:   # inf and nan fail it too
            rep = spectral_radius(Acl)
            raise PreconditionError(
                f"Lyapunov solve: power {2 ** (len(powers) - 1)} of the closed loop is not finite"
                if rep.stable else
                f"closed loop not exponentially stable (spectral radius {rep.spectral_radius:.6g})")
        Sigma, E = np.zeros_like(Wsym), Wsym
        for _ in range(_MAX_PASSES):
            for A in powers:
                E = E + A @ E @ A.T
            Sigma = Sigma + 0.5 * (E + E.T)
            E = Wsym - Sigma + Acl @ Sigma @ Acl.T
            if np.linalg.norm(E) <= TOL_LYAP * (1.0 + np.linalg.norm(Wsym)):
                break
        if not np.isfinite(Sigma).all():
            raise PreconditionError("Lyapunov solve: the solution is not finite")
    return Sigma, float(np.linalg.norm(E) / (1.0 + np.linalg.norm(Wsym)))
