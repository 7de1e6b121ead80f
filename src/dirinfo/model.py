"""Channel/cost model types: validation, memory augmentation, scalar view.

A model describes the linear recursion

    B_i = C_i B_{i-1} + D_i A_i + V_i,    V_i ~ N(0, K_{V_i}),

with quadratic per-step cost <A_i, R_i A_i> + <B_{i-1}, Q_i B_{i-1}> and
average power budget kappa.  Higher-order output memory (``MemoryJModel``)
is lowered to this first-order form by block-companion augmentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, ModelValidationError

TOL_PSD = 1e-10      # relative slack for "PSD" eigenvalue checks
EPS_REG = 1e-12      # diagonal padding used when a singular K_V must be inverted


def _as_matrix(x, rows=None, cols=None) -> np.ndarray:
    a = np.atleast_2d(np.asarray(x, dtype=float))
    if rows is not None and cols is not None and a.shape != (rows, cols):
        raise DimensionError(f"dimension mismatch: expected {rows}x{cols}, got {a.shape}")
    return a


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def min_eigenvalue(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (a + a.T)).min())


def psd_tolerance(a: np.ndarray) -> float:
    """Absolute eigenvalue slack for PSD checks, scaled to the matrix."""
    scale = float(np.abs(np.linalg.eigvalsh(0.5 * (a + a.T))).max(initial=0.0))
    return TOL_PSD * max(1.0, scale)


class ScalarView(NamedTuple):
    C: float
    D: float
    KV: float
    R: float
    Q: float
    kappa: float


@dataclass(frozen=True)
class ChannelModel:
    """First-order Gaussian linear channel model with quadratic cost.

    Sequences hold one entry per step (``horizon + 1`` entries) or a single
    shared entry when ``time_invariant``.  ``terminal_Q`` is the output
    weight applied at the final step in place of the running Q.
    ``initial_mean``/``initial_cov`` describe the initial output B_{-1};
    a deterministic initial output has zero covariance.
    """

    horizon: int
    output_dim: int
    input_dim: int
    C_seq: tuple
    D_seq: tuple
    KV_seq: tuple
    R_seq: tuple
    Q_seq: tuple
    terminal_Q: np.ndarray
    kappa: float
    initial_mean: np.ndarray
    initial_cov: np.ndarray
    time_invariant: bool
    augmented: bool = False     # noise covariance may be PSD-singular (memory lift)
    meta: dict = field(default_factory=dict)

    # -- per-step accessors (broadcast the single entry of TI models) --

    def _at(self, seq, i):
        return seq[0] if self.time_invariant else seq[i]

    def C(self, i: int) -> np.ndarray:
        return self._at(self.C_seq, i)

    def D(self, i: int) -> np.ndarray:
        return self._at(self.D_seq, i)

    def KV(self, i: int) -> np.ndarray:
        return self._at(self.KV_seq, i)

    def R(self, i: int) -> np.ndarray:
        return self._at(self.R_seq, i)

    def Q(self, i: int) -> np.ndarray:
        """Output weight at step i; the final step uses ``terminal_Q``."""
        if i == self.horizon:
            return self.terminal_Q
        return self._at(self.Q_seq, i)

    def initial_second_moment(self) -> np.ndarray:
        m = self.initial_mean
        return self.initial_cov + np.outer(m, m)

    def noise_for_inversion(self, i: int) -> tuple[np.ndarray, bool]:
        """K_V at step i, padded with EPS_REG on zero diagonal rows if singular.

        Returns (matrix, regularized-flag).  Only augmented models carry a
        singular K_V; padding keeps logdet ratios and density differences
        exact because the padded rows are deterministic under both laws.
        """
        kv = self.KV(i)
        if not self.augmented:
            return kv, False
        dead = np.diag(kv) == 0.0
        if not dead.any():
            return kv, False
        kv = kv.copy()
        kv[dead, dead] = EPS_REG
        return kv, True


@dataclass(frozen=True)
class MemoryJModel:
    """Channel whose output depends on the previous M outputs.

    ``C_blocks`` holds C_{i,i-1}, ..., C_{i,i-M}.  The cost weight ``Q_K``
    acts on the last ``cost_memory`` outputs stacked newest-first,
    (B_{i-1}, ..., B_{i-K}).  ``initial_history`` stacks the J initial
    outputs newest-first as rows.
    """

    horizon: int
    output_dim: int
    input_dim: int
    C_blocks: tuple
    D: np.ndarray
    KV: np.ndarray
    R: np.ndarray
    Q_K: np.ndarray
    memory: int          # M >= 1
    cost_memory: int     # K >= 0
    kappa: float
    initial_history: np.ndarray

    @property
    def order(self) -> int:
        """J = max(M, K)."""
        return max(self.memory, self.cost_memory)


def channel_model(C, D, KV, R, Q, kappa, horizon, terminal_Q=None,
                  initial_mean=None, initial_cov=None, time_invariant=True,
                  augmented=False, meta=None) -> ChannelModel:
    """Build a ChannelModel from matrices or scalars (broadcast if TI)."""
    def to_seq(x, rows, cols):
        if time_invariant:
            return (_freeze(_as_matrix(x, rows, cols)),)
        return tuple(_freeze(_as_matrix(m, rows, cols)) for m in x)

    C0 = _as_matrix(C if time_invariant else C[0])
    p = C0.shape[0]
    D0 = _as_matrix(D if time_invariant else D[0])
    q = D0.shape[1]
    C_seq = to_seq(C, p, p)
    D_seq = to_seq(D, p, q)
    KV_seq = to_seq(KV, p, p)
    R_seq = to_seq(R, q, q)
    Q_seq = to_seq(Q, p, p)
    tq = Q_seq[-1] if terminal_Q is None else _freeze(_as_matrix(terminal_Q, p, p))
    mean = np.zeros(p) if initial_mean is None else np.asarray(initial_mean, dtype=float).reshape(p)
    cov = np.zeros((p, p)) if initial_cov is None else _as_matrix(initial_cov, p, p)
    return ChannelModel(
        horizon=int(horizon), output_dim=p, input_dim=q,
        C_seq=C_seq, D_seq=D_seq, KV_seq=KV_seq, R_seq=R_seq, Q_seq=Q_seq,
        terminal_Q=tq, kappa=float(kappa),
        initial_mean=_freeze(mean), initial_cov=_freeze(cov),
        time_invariant=bool(time_invariant), augmented=bool(augmented),
        meta=dict(meta or {}),
    )


def scalar_model(C, D, KV, R, Q, kappa, horizon=0, terminal_Q=None, **kw) -> ChannelModel:
    """Convenience constructor for time-invariant 1x1 models."""
    return channel_model(C, D, KV, R, Q, kappa, horizon, terminal_Q=terminal_Q, **kw)


def memory_model(C_blocks, D, KV, R, Q_K, kappa, horizon, memory=None,
                 cost_memory=None, initial_history=None) -> MemoryJModel:
    blocks = tuple(_freeze(_as_matrix(c)) for c in C_blocks)
    p = blocks[0].shape[0]
    M = len(blocks) if memory is None else int(memory)
    D = _freeze(_as_matrix(D))
    q = D.shape[1]
    K = int(cost_memory) if cost_memory is not None else 1
    qk_dim = max(K * p, 0)
    if Q_K is None or qk_dim == 0:
        Q_K = np.zeros((qk_dim, qk_dim))
    J = max(M, K)
    hist = np.zeros((J, p)) if initial_history is None else np.asarray(initial_history, float).reshape(J, p)
    return MemoryJModel(
        horizon=int(horizon), output_dim=p, input_dim=q,
        C_blocks=blocks, D=D, KV=_freeze(_as_matrix(KV, p, p)),
        R=_freeze(_as_matrix(R, q, q)), Q_K=_freeze(_as_matrix(Q_K, qk_dim, qk_dim)),
        memory=M, cost_memory=K, kappa=float(kappa), initial_history=_freeze(hist),
    )


@dataclass(frozen=True)
class Strategy:
    """Per-step feedback gains and innovations covariances.

    A single-entry strategy is stationary and broadcasts over steps.
    """

    gains: tuple
    innovations: tuple

    def gain(self, i: int) -> np.ndarray:
        return self.gains[0] if len(self.gains) == 1 else self.gains[i]

    def KZ(self, i: int) -> np.ndarray:
        return self.innovations[0] if len(self.innovations) == 1 else self.innovations[i]

    @property
    def steps(self) -> int:
        return max(len(self.gains), len(self.innovations))


def strategy(gains, innovations) -> Strategy:
    g = tuple(_freeze(_as_matrix(x)) for x in gains)
    kz = tuple(_freeze(_as_matrix(x)) for x in innovations)
    q = len(kz[0]) if kz else 0
    errors = _check_rows([("innovations", kz, (q, q), _INNOVATIONS, _INNOVATIONS[0])])
    if errors:
        raise ModelValidationError(errors[:1])
    if len(g) != len(kz):
        raise DimensionError("gains and innovations lengths differ")
    return Strategy(gains=g, innovations=kz)


def stationary_strategy(gain, KZ) -> Strategy:
    return strategy([gain], [KZ])


# ---------------------------------------------------------------------------
# validation


# A kind of square-matrix check: (text when not symmetric, text when not
# (semi)definite, definite), formatted with name, index i and min eig lo.
_ASYM = "{name}[{i}] not symmetric"
_PD = (_ASYM, "{name}[{i}] not positive definite", True)
_PSD = (_ASYM, "{name}[{i}] not positive semidefinite (min eig {lo:.3e})", False)
_NOISE = (_ASYM, "noise covariance not positive definite ({name}[{i}])", True)
_INNOVATIONS = ("innovations covariance not symmetric", "innovations covariance not PSD", False)
_MISMATCH = "dimension mismatch: {name}[{i}] is {shape}, expected {want}"


def _check_rows(rows) -> list:
    """The violations of each (name, sequence, shape, kind, mismatch) row.

    Per matrix, in index order, the first of: a shape other than `shape`
    (the `mismatch` text), a non-finite entry, and for a `kind` asymmetry
    (allclose(A, A^T) at atol 1e-12 (1 + max|A|)) or a smallest eigenvalue
    at most `psd_tolerance` (definite) or below -`psd_tolerance`
    (semidefinite).  One eigvalsh per row, on the stack of its finite
    matrices.
    """
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


def validate_model(model):
    """Return the model unchanged if every invariant holds, else raise.

    Raises ModelValidationError listing every violated invariant with the
    offending index, non-finite entries and kappa included.  Idempotent.
    """
    if isinstance(model, MemoryJModel):
        return _validate_memory(model)
    errors = []
    n, p, q = model.horizon, model.output_dim, model.input_dim
    if n < 0:
        errors.append("horizon negative")
    if not 0 <= model.kappa < np.inf:
        errors.append("negative kappa" if model.kappa < 0 else "kappa not finite")
    rows = [("C", model.C_seq, (p, p), None, _MISMATCH),
            ("D", model.D_seq, (p, q), None, _MISMATCH),
            ("KV", model.KV_seq, (p, p), _PSD if model.augmented else _NOISE, _MISMATCH),
            ("R", model.R_seq, (q, q), _PD, _MISMATCH),
            ("Q", model.Q_seq, (p, p), _PSD, _MISMATCH)]
    want = 1 if model.time_invariant else n + 1
    errors.extend(f"{name} sequence length {len(seq)} != {want}"
                  for name, seq, *_ in rows if len(seq) != want)
    errors += _check_rows(rows + [
        ("terminal_Q", (model.terminal_Q,), (p, p), _PSD,
         "dimension mismatch: terminal_Q is {shape}"),
        ("initial_mean", (model.initial_mean,), (p,), None, "dimension mismatch: initial mean"),
        ("initial_cov", (model.initial_cov,), (p, p), _PSD, "dimension mismatch: initial covariance"),
    ])
    if errors:
        raise ModelValidationError(errors)
    return model


def _validate_memory(model: MemoryJModel) -> MemoryJModel:
    errors = []
    p, q = model.output_dim, model.input_dim
    if model.memory < 1:
        errors.append("memory order M must be >= 1")
    if model.cost_memory < 0:
        errors.append("cost memory K must be >= 0")
    if not 0 <= model.kappa < np.inf:
        errors.append("negative kappa" if model.kappa < 0 else "kappa not finite")
    if len(model.C_blocks) != model.memory:
        errors.append(f"expected {model.memory} channel blocks, got {len(model.C_blocks)}")
    kp = model.cost_memory * p
    errors += _check_rows([
        ("C_blocks", model.C_blocks, (p, p), None, "dimension mismatch: C_blocks[{i}] is {shape}"),
        ("D", (model.D,), (p, q), None, "dimension mismatch: D"),
        # an asymmetric K_V is left to the augmented model's check
        ("KV", (model.KV,), (p, p), (None, "noise covariance not positive definite", True),
         "dimension mismatch: KV"),
        ("R", (model.R,), (q, q), _PD, "dimension mismatch: R"),
        ("Q_K", (model.Q_K,), (kp, kp), _PSD if kp else None,
         "dimension mismatch: Q_K is {shape}, expected {want}"),
        ("initial_history", (model.initial_history,), (model.order, p), None,
         "dimension mismatch: initial history"),
    ])
    if errors:
        raise ModelValidationError(errors)
    return model


# ---------------------------------------------------------------------------
# memory augmentation


def augment_memory(model: MemoryJModel) -> ChannelModel:
    """Lower an order-J model to first-order block-companion form.

    The augmented state stacks the last J outputs newest-first.  The top
    block row carries C_{i,i-1..i-M}; identity blocks shift history down.
    D and V drive only the top block, so the augmented noise covariance is
    singular by construction (lower diagonal exactly zero); the returned
    model is flagged ``augmented`` and downstream inversions pad it.
    """
    _validate_memory(model)
    p, q, M, K = model.output_dim, model.input_dim, model.memory, model.cost_memory
    J = model.order
    if J == 1:
        Q = model.Q_K if K == 1 else np.zeros((p, p))
        return channel_model(
            model.C_blocks[0], model.D, model.KV, model.R, Q,
            model.kappa, model.horizon,
            initial_mean=model.initial_history[0],
            meta={"augmentation_order": 1},
        )
    pj = J * p
    C_aug = np.zeros((pj, pj))
    for j, c in enumerate(model.C_blocks):
        C_aug[:p, j * p:(j + 1) * p] = c
    for j in range(J - 1):
        C_aug[(j + 1) * p:(j + 2) * p, j * p:(j + 1) * p] = np.eye(p)
    D_aug = np.zeros((pj, q))
    D_aug[:p, :] = model.D
    KV_aug = np.zeros((pj, pj))
    KV_aug[:p, :p] = model.KV
    Q_aug = np.zeros((pj, pj))
    kp = K * p
    if kp:
        Q_aug[:kp, :kp] = model.Q_K
    mean = model.initial_history.reshape(pj)
    return channel_model(
        C_aug, D_aug, KV_aug, model.R, Q_aug, model.kappa, model.horizon,
        initial_mean=mean, augmented=True,
        meta={"augmentation_order": J, "base_output_dim": p,
              "kv_padding_when_inverted": EPS_REG},
    )


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


def scalar_view(model: ChannelModel) -> ScalarView:
    """Extract (C, D, K_V, R, Q, kappa) from a time-invariant 1x1 model."""
    if model.output_dim != 1 or model.input_dim != 1:
        raise DimensionError("model is not scalar (p=q=1 required)")
    if not model.time_invariant:
        raise ModelValidationError(["model is not time-invariant"])
    return ScalarView(
        C=float(model.C_seq[0][0, 0]), D=float(model.D_seq[0][0, 0]),
        KV=float(model.KV_seq[0][0, 0]), R=float(model.R_seq[0][0, 0]),
        Q=float(model.Q_seq[0][0, 0]), kappa=model.kappa,
    )
