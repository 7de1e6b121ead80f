"""Reference implementations that only the tests call.

Each one is an independent, unbatched statement of a quantity that the
library computes another way: the water-fill objective and its scalar
closed form, the normal quantile on whole arrays with np.polyval, the
Monte Carlo scan's time-major buffer layout by swapaxes and transpose, the
per-step directed-information density, the trace CSV one row at a time,
the uniqueness certificate of a
Riccati solution, the stabilizing Riccati solution in 50-digit arithmetic
(closed form for Q = 0, Kleinman's iteration for Q != 0) with the seeded
random channels it is checked on, the embedding of a first-order gain into
memory-augmented coordinates, model validation one row at a time, and the
canonical report serialization one element at a time.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from dirinfo import stability
from dirinfo.errors import PreconditionError
from dirinfo.linalg import logdet_pd, sym, sym_sqrt
from dirinfo.model import TOL_PSD, Strategy, min_eigenvalue, strategy
from dirinfo.riccati import AreSolution
from dirinfo.simulate import _A, _B, _C, _D, _E, _F, _gaussian_logpdf_terms
from dirinfo.waterfill import WaterfillProblem


# ---------------------------------------------------------------------------
# water-fill


def objective(problem: WaterfillProblem, KZ) -> float:
    KZ = sym(np.atleast_2d(np.asarray(KZ, dtype=float)))
    M = problem.D @ KZ @ problem.D.T + problem.KV
    return 0.5 * (logdet_pd(M) - logdet_pd(problem.KV)) - float(np.trace(problem.weight @ KZ))


def scalar_solve(D: float, KV: float, weight: float):
    """Closed-form scalar optimum: kz = max(0, 1/(2 weight) - KV/D^2).

    Serves as the independent oracle for ``solve`` on 1x1 problems.  The
    optimum is +inf when weight = 0 (and D != 0).
    """
    if KV <= 0:
        raise PreconditionError("KV must be positive")
    if weight < 0:
        raise PreconditionError("weight must be nonnegative")
    if D == 0.0:
        if weight == 0.0:
            raise PreconditionError("D = 0 with zero weight: objective identically 0, no optimum scale")
        return 0.0, 0.0
    if weight == 0.0:
        return math.inf, math.inf
    kz = max(0.0, 1.0 / (2.0 * weight) - KV / (D * D))
    value = 0.5 * math.log((D * D * kz + KV) / KV) - weight * kz
    return kz, value


# ---------------------------------------------------------------------------
# Monte Carlo


def normal_quantile(u):
    """AS241 on the whole array at once, by np.polyval and masks: the
    reference whose bits the blocked, in-place library quantile keeps."""
    u = np.asarray(u, dtype=float)
    if u.size and not (u.min() > 0.0 and u.max() < 1.0):
        raise PreconditionError("uniform sample on the boundary of (0, 1)")
    flat = u.reshape(-1)
    upper = flat > 0.5
    w = np.where(upper, 1.0 - flat, flat)
    x = w - 0.5
    mid = x >= -0.425
    tail = ~mid
    c = x[mid]
    r = 0.180625 - c * c
    x[mid] = c * np.polyval(_A, r) / np.polyval(_B, r)
    r = np.sqrt(-np.log(w[tail]))
    near = r <= 5.0
    t = np.where(near, r - 1.6, r - 5.0)
    x[tail] = -np.where(near, np.polyval(_C, t) / np.polyval(_D, t),
                         np.polyval(_E, t) / np.polyval(_F, t))
    np.negative(x, out=x, where=upper)
    return x.reshape(u.shape)[()]


def time_major(paths, chunk: int):
    """(S, steps, d) paths in the scan's (chunk, S*K, d) layout, K = ceil(steps / chunk)
    chunks per seed, zero past `steps`: row s*K + k of slab j is step k*chunk + j of
    seed s.  Written a seed at a time by swapaxes on (steps, d) float rows."""
    S, steps, d = paths.shape
    K = -(-steps // chunk)
    whole, tail = divmod(steps, chunk)
    buf = np.zeros((chunk, S * K, d))
    for s, x in enumerate(paths):
        row = s * K
        buf[:, row:row + whole] = x[:steps - tail].reshape(whole, chunk, d).swapaxes(0, 1)
        if tail:
            buf[:tail, row + whole] = x[steps - tail:]
    return buf


def seed_major(X, S: int):
    """A (chunk, S*K, d) time-major buffer as (S, K*chunk, d), by one transpose."""
    chunk, SK, d = X.shape
    return X.reshape(chunk, S, SK // S, d).transpose(1, 2, 0, 3).reshape(S, -1, d)


def rowwise(M, X):
    """Row i of X times M(i)^T by matmul alone, whatever the inner dimension:
    the 2-D product for a stack of one, stacked matmul for a per-row stack."""
    return X @ M[0].T if len(M) == 1 else np.matmul(M, X[:, :, None])[:, :, 0]


def info_density_step(b_prev, a, b, C, D, KV, gain, KZ) -> float:
    """Per-step directed-information density (nats).

    log N(b; C b_prev + D a, K_V) - log N(b; (C + D gain) b_prev, D K_Z D^T + K_V).
    """
    b_prev = np.atleast_1d(np.asarray(b_prev, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    KV = np.atleast_2d(np.asarray(KV, dtype=float))
    gain = np.atleast_2d(np.asarray(gain, dtype=float))
    KZ = np.atleast_2d(np.asarray(KZ, dtype=float))
    KVi, ldKV = _gaussian_logpdf_terms(KV)
    Mbig = D @ KZ @ D.T + KV
    Mi, ldM = _gaussian_logpdf_terms(Mbig)
    r1 = b - C @ b_prev - D @ a
    # same association as r1 so the densities cancel exactly when a = gain b
    r2 = b - C @ b_prev - D @ (gain @ b_prev)
    return float(-0.5 * (ldKV + r1 @ KVi @ r1) + 0.5 * (ldM + r2 @ Mi @ r2))


def trace_csv_reference(trace) -> str:
    """`trace_to_csv` by a Python loop over the rows, formatting one element at a time."""
    p = trace.B_path.shape[1]
    q = trace.A_path.shape[1]
    buf = io.StringIO()
    header = (["step"] + [f"b{j}" for j in range(p)] + [f"a{j}" for j in range(q)]
              + ["info_density", "cost", "running_rate"])
    buf.write(",".join(header) + "\n")
    for i in range(trace.steps):
        row = [str(i)]
        row += [f"{x:.12g}" for x in trace.B_path[i]]
        row += [f"{x:.12g}" for x in trace.A_path[i]]
        row += [f"{trace.info_density_path[i]:.12g}", f"{trace.cost_path[i]:.12g}",
                f"{trace.running_rate[i]:.12g}"]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Riccati


@dataclass(frozen=True)
class AreClassification:
    psd: bool
    min_eigenvalue: float
    stabilizing: bool
    uniqueness: str            # "unique" | "conditional" | "none"
    stabilizable: bool
    detectable: bool
    kv_controllable: bool      # (closed loop, K_V^{1/2}) controllable: output covariance is unique PD


def psd_tolerance(a: np.ndarray) -> float:
    """Absolute eigenvalue slack for PSD checks, scaled to the matrix."""
    scale = float(np.abs(np.linalg.eigvalsh(0.5 * (a + a.T))).max(initial=0.0))
    return TOL_PSD * max(1.0, scale)


def classify_are(solution: AreSolution, C, D, Q, R, s: float, KV) -> AreClassification:
    """Report PSD-ness, stability, and the uniqueness certificate for a solution.

    Uniqueness: "unique" under stabilizability + detectability; otherwise
    "conditional" when the solution is stabilizing and the inner block is
    positive definite (at most one such solution exists); "none" otherwise.
    """
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


def stabilizing_are_q0(C, D, R, s: float = 1.0, digits: int = 50) -> np.ndarray:
    """The stabilizing solution of the Q = 0 equation in `digits`-digit arithmetic.

    Over the left eigenvectors L (rows, l_i C = lam_i l_i) of the eigenvalues with
    |lam_i| > 1 it is P = L^H Y^{-1} L, with the Cauchy-like Gramian
    Y_ij = (L G L^H)_ij / (lam_i conj(lam_j) - 1), G = D (sR)^{-1} D^T: the
    minimum-energy stabilization identity, with no Schur form and no iteration.
    C is taken exactly as its binary value.
    """
    C, D, R = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (C, D, R))
    with mpmath.workdps(digits):
        lam, EL = mpmath.eig(mpmath.matrix(C.tolist()), left=True, right=False)
        G = mpmath.matrix(D.tolist()) * (s * mpmath.matrix(R.tolist())) ** -1 \
            * mpmath.matrix(D.T.tolist())
        unstable = [i for i in range(len(lam)) if abs(lam[i]) > 1]
        if not unstable:
            return np.zeros_like(C)
        L = mpmath.matrix([[EL[i, j] for j in range(C.shape[0])] for i in unstable])
        LGL = L * G * L.H
        k = len(unstable)
        Y = mpmath.matrix(k, k)
        for a in range(k):
            for b in range(k):
                Y[a, b] = LGL[a, b] / (lam[unstable[a]] * mpmath.conj(lam[unstable[b]]) - 1)
        P = L.H * Y ** -1 * L
        return np.array([[float(mpmath.re(P[i, j])) for j in range(C.shape[0])]
                         for i in range(C.shape[0])])


def stabilizing_are_kleinman(C, D, Q, R, s: float = 1.0, digits: int = 50) -> np.ndarray:
    """The stabilizing solution of the equation with Q in `digits`-digit arithmetic, by
    Kleinman's iteration (1968): from the gain of `stabilizing_are_q0`, which stabilizes
    C, each step solves the closed loop's Lyapunov equation P = A^T P A + sQ + G^T sR G
    in its Kronecker form (p^2 unknowns; meant for p <= 5) and takes the next gain
    G = -(D^T P D + sR)^{-1} D^T P C, until P moves by less than 10^(-digits/2) |P|;
    the quadratic convergence puts it about that move squared from the answer.  C has
    no eigenvalue on the unit circle."""
    C, D, Q, R = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (C, D, Q, R))
    p = C.shape[0]
    with mpmath.workdps(digits):
        Cm, Dm = mpmath.matrix(C.tolist()), mpmath.matrix(D.tolist())
        Qm, Rm = s * mpmath.matrix(Q.tolist()), s * mpmath.matrix(R.tolist())

        def gain(P):
            return -(Dm.T * P * Dm + Rm) ** -1 * Dm.T * P * Cm

        P = mpmath.matrix(stabilizing_are_q0(C, D, R, s, digits).tolist())
        G = gain(P)
        for _ in range(100):
            A = Cm + Dm * G
            W = Qm + G.T * Rm * G
            # vec(P) - (A^T kron A^T) vec(P) = vec(W), vec by rows
            K = mpmath.matrix(p * p, p * p)
            for i in range(p):
                for j in range(p):
                    for k in range(p):
                        for m in range(p):
                            K[i * p + j, k * p + m] = (i == k and j == m) - A[k, i] * A[m, j]
            x = mpmath.lu_solve(K, mpmath.matrix([W[i, j] for i in range(p) for j in range(p)]))
            P_next = mpmath.matrix(p, p)
            for i in range(p):
                for j in range(p):
                    P_next[i, j] = (x[i * p + j] + x[j * p + i]) / 2
            moved = mpmath.mnorm(P_next - P, "f")
            P, G = P_next, gain(P_next)
            if moved <= mpmath.mpf(10) ** (-digits / 2) * mpmath.mnorm(P, "f"):
                return np.array([[float(P[i, j]) for j in range(p)] for i in range(p)])
    raise RuntimeError("Kleinman's iteration did not settle in 100 steps")


SWEEP_SCALES = (10, 100, 1e3, 1e4, 1e6)


def are_sweep(scales=SWEEP_SCALES):
    """(index, scale, C, D) for 200 random channels at each |C| scale of `scales`, in the
    order of SWEEP_SCALES, from one `default_rng(1)` stream: p in 1..5, q in 1..p,
    C ~ N(0, 1) scale / sqrt(p), D ~ N(0, 1) 10^U(-3, 3); R = I.  Models at a scale not
    in `scales` are drawn and skipped, so an index names the same model in every subset.
    CHANGES.md counts the answers of the whole sweep with Q = 0, I and e_1 e_1^T."""
    rng = np.random.default_rng(1)
    for position, scale in enumerate(SWEEP_SCALES):
        for k in range(200):
            p = int(rng.integers(1, 6))
            q = int(rng.integers(1, p + 1))
            C = rng.normal(size=(p, p)) * scale / np.sqrt(p)
            D = rng.normal(size=(p, q)) * 10 ** rng.uniform(-3, 3)
            if scale in scales:
                yield position * 200 + k, scale, C, D


# ---------------------------------------------------------------------------
# memory augmentation


def lift_strategy(strat: Strategy, p: int, order: int) -> Strategy:
    """Embed gains acting on (B_{i-1},...,B_{i-J}) blocks into augmented coordinates.

    Gains already sized q x (J*p) pass through; gains sized q x p are padded
    with zeros on the older blocks.
    """
    if order == 1:
        return strat
    gains = []
    for g in strat.gains:
        if g.shape[1] == order * p:
            gains.append(g)
        else:
            gains.append(np.hstack([g, np.zeros((g.shape[0], order * p - g.shape[1]))]))
    return strategy(gains, strat.innovations)


# ---------------------------------------------------------------------------
# model validation


def check_rows(rows) -> list:
    """`model._check_rows` one row at a time: the violations of each
    (name, sequence, shape, kind, mismatch) row, with one isfinite and one
    eigvalsh per row, on the stack of that row's matrices."""
    errors = []
    for name, seq, shape, kind, mismatch in rows:
        found = {i: mismatch.format(name=name, i=i, shape=m.shape, want=shape)
                 for i, m in enumerate(seq) if m.shape != shape}
        idx = [i for i in range(len(seq)) if i not in found]
        if idx:
            A = np.stack([seq[i] for i in idx])
            finite = np.isfinite(A).reshape(len(idx), -1).all(axis=1)
            if not finite.all():
                found.update((i, f"{name}[{i}] has a non-finite entry")
                             for i, ok in zip(idx, finite) if not ok)
                idx, A = [i for i, ok in zip(idx, finite) if ok], A[finite]
        if kind is not None and idx:
            asym_text, fail_text, definite = kind
            AT = A.swapaxes(1, 2)
            atol = 1e-12 * (1 + np.abs(A).max(axis=(1, 2), initial=0.0))
            asym = (np.abs(A - AT) > atol[:, None, None] + 1e-5 * np.abs(AT)).any(axis=(1, 2))
            w = np.linalg.eigvalsh(0.5 * (A + AT))
            lo = w.min(axis=1, initial=np.inf)
            slack = TOL_PSD * np.maximum(1.0, np.abs(w).max(axis=1, initial=0.0))
            fails = ~asym & ((lo <= slack) if definite else (lo < -slack))
            for j in np.flatnonzero(asym | fails):
                if asym[j] and asym_text:
                    found[idx[j]] = asym_text.format(name=name, i=idx[j])
                elif fails[j]:
                    found[idx[j]] = fail_text.format(name=name, i=idx[j], lo=lo[j])
        errors.extend(found[i] for i in sorted(found))
    return errors


# ---------------------------------------------------------------------------
# report serialization


def canon(value, exact: bool = False) -> str:
    """`cli._canon` one element at a time: sorted keys, %.12g floats,
    "inf"/"nan" strings, and with `exact` the digits that read a float back
    equal where %.12g would round it; an array is written by its `tolist`."""
    if value is None or value is True or value is False:   # bools before ints
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            return json.dumps(str(value))
        text = f"{float(value):.12g}"
        return repr(float(value)) if exact and float(text) != value else text
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        return canon(value.tolist(), exact)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(canon(v, exact) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {canon(value[k], exact)}"
                               for k in sorted(value)) + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")
