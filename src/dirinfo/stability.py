"""Linear-systems substrate: spectra, the controllability staircase, the stabilization
Gramian, discrete Lyapunov and Stein equations.

Controllability and observability are decided by the orthogonal staircase form, one
SVD rank decision per block and no eigenvalues (`is_controllable`).  Stabilizability and
detectability are decided by the minimum-energy stabilization Gramian (Elia,
"When Bode meets Shannon", 2004), the same test that the direct Q = 0 Riccati
solve runs (`riccati._q0_solution`): one complex Schur form of A with its
eigenvalues in ascending modulus (`_schur`) splits off the anti-stable block T,
the Gramian solves the Stein equation T Y T^H - Y = B R^{-1} B^H in it by
substitution (`_stein`; Bartels & Stewart 1972), and Y's conditioning decides.  A mode
within TOL_SPEC of the circle, which the Q = 0 solve declines, is moved off it by scaling A,
and Y is then judged with each mode scaled by its own fully actuated Gramian.
Lyapunov equations of exponentially stable loops go by Smith doubling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PreconditionError

TOL_SPEC = 1e-9          # stability margin on the unit circle
TOL_RANK = 1e-9          # staircase rank cutoff, relative to max(|A|_2, |B|_2)
TOL_LYAP = 1e-10         # residual tolerance for the algebraic Lyapunov solve
TOL_GRAMIAN = 1e-13      # Y's smallest / largest eigenvalue at or below it: unstabilizable
_MAX_DOUBLINGS = 64      # Smith doublings: 2^64 terms of the Lyapunov series
_MAX_PASSES = 3          # Smith passes: the solve, then refinements on its residual
_EPS = np.finfo(float).eps


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


def _pair(A, B):
    """(A, B) as float arrays, A square with as many rows as B."""
    A = _square(A)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.shape[0] != A.shape[0]:
        raise DimensionError(f"B has {B.shape[0]} rows, expected {A.shape[0]}")
    return A, B


def is_controllable(A, B) -> bool:
    """Controllability staircase (Van Dooren 1981; Paige 1981): no eigenvalues, and
    not the Krylov matrix [B, AB, ...], which loses rank numerically as n grows.
    The SVD U S W^T of the input block B counts its r singular values above
    TOL_RANK max(|A|_2, |B|_2); U^T A U splits off those r reachable directions,
    and the coupling block of the rest to them is the next input.  (A, B) is
    controllable when the reached dimensions add up to n, and not at an r = 0."""
    A, B = _pair(A, B)
    tol = TOL_RANK * max(np.linalg.norm(A, 2), np.linalg.norm(B, 2))
    while len(A):
        U, sv, _ = np.linalg.svd(B)
        r = int((sv > tol).sum())
        if r == 0:
            return False
        A = U.T @ A @ U
        A, B = A[r:, r:], A[r:, :r]
    return True


def is_observable(C, A) -> bool:
    """Dual of controllability: (C, A) observable iff (A^T, C^T) controllable."""
    A = _square(A)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if C.shape[1] != A.shape[0]:
        raise DimensionError(f"C has {C.shape[1]} columns, expected {A.shape[0]}")
    return is_controllable(A.T, C.T)


def is_stabilizable(A, B) -> bool:
    """Every mode of A with |lam| >= 1 - TOL_SPEC reachable from B (`_stabilizable`).
    A Schur form of A that does not split at its stable eigenvalues is a
    PreconditionError, with the text of the direct Riccati solve's."""
    return _stabilizable(*_pair(A, B), "C")


def is_detectable(G, A) -> bool:
    """Dual of stabilizability: (G, A) detectable iff (A^T, G^T) stabilizable.  A Schur
    form that does not split is a PreconditionError naming C^T, the matrix it was taken of."""
    A = _square(A)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    if G.shape[1] != A.shape[0]:
        raise DimensionError(f"G has {G.shape[1]} columns, expected {A.shape[0]}")
    return _stabilizable(A.T, G.T, "C^T")


def _stabilizable(A, B, name: str) -> bool:
    """Whether the modes of A with |lam| >= 1 - TOL_SPEC are reachable from B, by the
    stabilization Gramian (`_stabilization_gramian`, R = I; `name` names A in a split
    error).  True at once if A has no such mode; False at once if B = 0, whose Gramian is
    0 in any basis (detectability with Q = 0).  With no mode within TOL_SPEC of the
    circle, this is the direct Q = 0 solve's own test.  A mode within it would make the
    Stein equation singular, so A is first scaled by beta = 2 / (rho_s + rho_u), rho_s
    the largest modulus below 1 - TOL_SPEC and rho_u the smallest at or above it, which
    puts the circle midway between them.  No solve inverts that Gramian, and a mode so
    near the circle would dwarf the others in it, so it is judged `relative`."""
    modulus = np.abs(np.linalg.eigvals(A))
    must = modulus >= 1.0 - TOL_SPEC
    if not must.any():
        return True
    if not B.any():
        return False
    marginal = bool((modulus[must] <= 1.0 + TOL_SPEC).any())
    beta = 2.0 / (modulus[~must].max(initial=0.0) + modulus[must].min()) if marginal else 1.0
    return _stabilization_gramian(beta * A, B, np.eye(B.shape[1]), int((~must).sum()),
                                  name, relative=marginal)[1] is not None


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


def _stabilization_gramian(C, D, R, n_s, name="C", relative=False):
    """(V, Y, ratio) for a C with n_s eigenvalues inside the unit circle and none on it.
    U S U^H is the Schur form of C, so V = U[:, n_s:] spans the orthogonal complement of
    the stable subspace and S_2 = S[n_s:, n_s:] = V^H C V; the minimum-energy stabilization
    Gramian Y solves the Stein equation S_2 Y S_2^H - Y = B R^{-1} B^H, B = V^H D, and
    ratio is its smallest / largest eigenvalue (0 if the largest is not positive).  Y is
    None where that ratio is at or below TOL_GRAMIAN: an unstabilizable mode.  With
    `relative`, the ratio is that of Y scaled to unit diagonal by the fully actuated
    Gramian (S_2 Y S_2^H - Y = I): each mode against its own distance from the circle,
    which the input's rounding cannot shift.  A |diag S| that does not split at n_s is a
    PreconditionError naming C as `name`."""
    U, S = _schur(C)
    modulus = np.abs(np.diag(S))
    if not ((modulus[:n_s] < 1.0).all() and (modulus[n_s:] > 1.0).all()):
        raise PreconditionError(
            f"Schur form of {name} does not split at its {n_s} stable eigenvalues")
    V, S = U[:, n_s:], S[n_s:, n_s:]
    B = V.conj().T @ D
    Y = _stein(S, B @ np.linalg.solve(R, B.conj().T))
    d = 1.0 / np.sqrt(np.diag(_stein(S, np.eye(len(S)))).real) if relative else np.ones(len(S))
    w = np.linalg.eigvalsh(d[:, None] * Y * d)
    ratio = w[0] / w[-1] if w[-1] > 0.0 else 0.0
    if not w[-1] > 0.0 or w[0] <= TOL_GRAMIAN * w[-1]:
        Y = None
    return V, Y, ratio


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
