"""Channel/cost model types: validation, memory augmentation, scalar view.

A model describes the linear recursion

    B_i = C_i B_{i-1} + D_i A_i + V_i,    V_i ~ N(0, K_{V_i}),

with quadratic per-step cost <A_i, R_i A_i> + <B_{i-1}, Q_i B_{i-1}> and
average power budget kappa.  Higher-order output memory (``MemoryJModel``)
is lowered to this first-order form by block-companion augmentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, ModelValidationError

TOL_PSD = 1e-10      # relative slack for "PSD" eigenvalue checks
EPS_REG = 1e-12      # diagonal padding used when a singular K_V must be inverted


def _as_matrix(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=float))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _own(x) -> np.ndarray:
    """A read-only float copy of x, at least 2-D: the model's own array, so the
    caller's stays writable and no later write to it reaches a validated model."""
    return _freeze(np.array(x, dtype=float, ndmin=2))


def min_eigenvalue(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (a + a.T)).min())


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

    @property
    def kv_regularized(self) -> bool:
        """Whether `noise_for_inversion` pads K_V at some step."""
        return any(self.noise_for_inversion(i)[1] for i in range(len(self.KV_seq)))


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
                  augmented=False) -> ChannelModel:
    """A ChannelModel from matrices or scalars (broadcast if TI); validation judges shapes.
    Every array is the model's own read-only copy: the caller's arrays stay writable."""
    def to_seq(x):
        return (_own(x),) if time_invariant else tuple(map(_own, x))

    C_seq, D_seq, KV_seq, R_seq, Q_seq = map(to_seq, (C, D, KV, R, Q))
    p, q = C_seq[0].shape[0], D_seq[0].shape[1]
    tq = Q_seq[-1] if terminal_Q is None else _own(terminal_Q)
    mean = np.zeros(p) if initial_mean is None else np.array(initial_mean, dtype=float).reshape(-1)
    cov = np.zeros((p, p)) if initial_cov is None else _own(initial_cov)
    return ChannelModel(
        horizon=int(horizon), output_dim=p, input_dim=q,
        C_seq=C_seq, D_seq=D_seq, KV_seq=KV_seq, R_seq=R_seq, Q_seq=Q_seq,
        terminal_Q=tq, kappa=float(kappa),
        initial_mean=_freeze(mean), initial_cov=_freeze(cov),
        time_invariant=bool(time_invariant), augmented=bool(augmented),
    )


def scalar_model(C, D, KV, R, Q, kappa, horizon=0, terminal_Q=None, **kw) -> ChannelModel:
    """Convenience constructor for time-invariant 1x1 models."""
    return channel_model(C, D, KV, R, Q, kappa, horizon, terminal_Q=terminal_Q, **kw)


def memory_model(C_blocks, D, KV, R, Q_K, kappa, horizon, memory=None,
                 cost_memory=None, initial_history=None) -> MemoryJModel:
    """A MemoryJModel; like `channel_model`, it holds read-only copies of the caller's arrays."""
    blocks = tuple(map(_own, C_blocks))
    p = blocks[0].shape[0]
    M = len(blocks) if memory is None else int(memory)
    D = _own(D)
    q = D.shape[1]
    K = int(cost_memory) if cost_memory is not None else 1
    qk_dim = max(K * p, 0)
    if Q_K is None or qk_dim == 0:
        Q_K = np.zeros((qk_dim, qk_dim))
    J = max(M, K, 0)
    hist = np.zeros((J, p)) if initial_history is None else np.array(initial_history, float)
    if hist.size == J * p:      # else validation names the mismatch
        hist = hist.reshape(J, p)
    return MemoryJModel(
        horizon=int(horizon), output_dim=p, input_dim=q,
        C_blocks=blocks, D=D, KV=_own(KV), R=_own(R), Q_K=_own(Q_K),
        memory=M, cost_memory=K, kappa=float(kappa), initial_history=_freeze(hist),
    )


@dataclass(frozen=True)
class Strategy:
    """Per-step feedback gains (m, q, p) and innovations covariances (m, q, q) as
    read-only stacks; a single-entry strategy (m = 1) is stationary and broadcasts."""

    gains: np.ndarray
    innovations: np.ndarray

    def gain(self, i: int) -> np.ndarray:
        return self.gains[0] if len(self.gains) == 1 else self.gains[i]

    def KZ(self, i: int) -> np.ndarray:
        return self.innovations[0] if len(self.innovations) == 1 else self.innovations[i]

    @property
    def steps(self) -> int:
        return max(len(self.gains), len(self.innovations))


def strategy(gains, innovations) -> Strategy:
    """A Strategy of checked entries, each sequence stacked and frozen once.  Every
    innovations covariance must be (q, q), q the first axis of the first one, and every
    gain a (q, p) matrix, p the last axis of the first gain; a model whose (q, p)
    differ is judged by `simulate_batch`."""
    g, kz = [_as_matrix(x) for x in gains], [_as_matrix(x) for x in innovations]
    if not (g and kz):
        raise DimensionError("a strategy needs at least one step")
    q = len(kz[0])
    errors = _check_rows([("gains", g, (q, g[0].shape[-1]), None, _MISMATCH),
                          ("innovations", kz, (q, q), _INNOVATIONS, _INNOVATIONS[0])])
    if errors:
        raise ModelValidationError(errors[:1])
    if len(g) != len(kz):
        raise DimensionError("gains and innovations lengths differ")
    return Strategy(gains=_freeze(np.stack(g)), innovations=_freeze(np.stack(kz)))


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
    at most TOL_PSD max(1, max|eigenvalue|) (definite) or below minus that
    (semidefinite).  The matrices of every row that have one shape are
    stacked, those without a kind first, and judged on a short path that the
    per-row rule (`tests/oracles.check_rows`) only reaches when a test fails:
    one isfinite over the whole stack (per matrix only if it finds a
    non-finite entry), a bitwise A == A^T over the stack of the finite
    matrices that have a kind (the allclose test only where the bits differ),
    and one eigvalsh, whose ascending rows give the smallest eigenvalue w[0]
    and max|eigenvalue| = max(-w[0], w[-1]); a 0 x 0 matrix passes.  Only a
    failed test is looked up by index.  The errors come row by row.
    """
    found = [{} for _ in rows]
    by_shape = {}       # shape -> ([(row, index)] without a kind, [(row, index)] with one)
    for r, (name, seq, shape, kind, mismatch) in enumerate(rows):
        for i, m in enumerate(seq):
            if m.shape != shape:
                found[r][i] = mismatch.format(name=name, i=i, shape=m.shape, want=shape)
            else:
                by_shape.setdefault(shape, ([], []))[kind is not None].append((r, i))
    for plain, members in by_shape.values():
        A = np.array([rows[r][1][i] for r, i in plain + members])
        if np.isfinite(A).all():
            A = A[len(plain):]
        else:
            finite = np.isfinite(A).reshape(len(A), -1).all(axis=1)
            for (r, i), ok in zip(plain + members, finite):
                if not ok:
                    found[r][i] = f"{rows[r][0]}[{i}] has a non-finite entry"
            kept = finite[len(plain):]
            A, members = A[len(plain):][kept], [m for m, k in zip(members, kept) if k]
        if not members or not A.shape[-1]:
            continue
        AT = A.swapaxes(1, 2)
        if (A == AT).all():
            asym = None
        else:
            atol = 1e-12 * (1 + np.abs(A).max(axis=(1, 2)))
            asym = (np.abs(A - AT) > atol[:, None, None] + 1e-5 * np.abs(AT)).any(axis=(1, 2))
        w = np.linalg.eigvalsh(0.5 * (A + AT))
        lo = w[:, 0]
        slack = TOL_PSD * np.maximum(1.0, np.maximum(-lo, w[:, -1]))
        definite = np.array([rows[r][3][2] for r, _ in members])
        bad = np.where(definite, lo <= slack, lo < -slack)
        if asym is not None:
            bad |= asym
        if not bad.any():
            continue
        for j in np.flatnonzero(bad):
            r, i = members[j]
            name, asym_text, fail_text = rows[r][0], *rows[r][3][:2]
            if asym is not None and asym[j]:
                if asym_text:
                    found[r][i] = asym_text.format(name=name, i=i)
            else:
                found[r][i] = fail_text.format(name=name, i=i, lo=lo[j])
    return [row[i] for row in found for i in sorted(row)]


_VALIDATED = "_validated"     # instance attribute, not a field: `dataclasses.replace` drops it


def _read_only(model) -> bool:
    """Whether every array of the model is read-only, so a past judgement still holds."""
    if isinstance(model, MemoryJModel):
        arrays = (*model.C_blocks, model.D, model.KV, model.R, model.Q_K, model.initial_history)
    else:
        arrays = (*model.C_seq, *model.D_seq, *model.KV_seq, *model.R_seq, *model.Q_seq,
                  model.terminal_Q, model.initial_mean, model.initial_cov)
    return not any(a.flags.writeable for a in arrays)


def validate_model(model):
    """Return the model unchanged if every invariant holds, else raise.

    Raises ModelValidationError listing every violated invariant with the
    offending index, non-finite entries and kappa included.  Idempotent.
    A model that passes keeps a mark, and a later call returns it at once
    while its arrays stay read-only; a `dataclasses.replace` copy (a new
    object) or a copy with writable arrays is judged afresh.
    """
    if model.__dict__.get(_VALIDATED) and _read_only(model):
        return model
    if isinstance(model, MemoryJModel):
        _validate_memory(model)
    else:
        _validate_channel(model)
    object.__setattr__(model, _VALIDATED, True)
    return model


def _validate_channel(model: ChannelModel) -> None:
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


def _validate_memory(model: MemoryJModel) -> None:
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
        ("C_blocks", model.C_blocks, (p, p), None, _MISMATCH),
        ("D", (model.D,), (p, q), None, _MISMATCH),
        # an asymmetric K_V is left to the augmented model's check
        ("KV", (model.KV,), (p, p), (None, "noise covariance not positive definite", True),
         _MISMATCH),
        ("R", (model.R,), (q, q), _PD, _MISMATCH),
        ("Q_K", (model.Q_K,), (kp, kp), _PSD if kp else None,
         "dimension mismatch: Q_K is {shape}, expected {want}"),
        ("initial_history", (model.initial_history,), (model.order, p), None,
         "dimension mismatch: initial history is {shape}, expected {want}"),
    ])
    if errors:
        raise ModelValidationError(errors)


# ---------------------------------------------------------------------------
# memory augmentation


def augment_memory(model: MemoryJModel) -> ChannelModel:
    """Lower an order-J model to first-order block-companion form.

    The augmented state stacks the last J outputs newest-first.  The top
    block row carries C_{i,i-1..i-M}; identity blocks shift history down.
    D and V drive only the top block, so for J > 1 the augmented noise
    covariance is singular by construction (lower diagonal exactly zero); the
    returned model is flagged ``augmented`` when J > 1, and downstream
    inversions pad it.
    """
    _validate_memory(model)
    p, q, K = model.output_dim, model.input_dim, model.cost_memory
    J = model.order
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
        initial_mean=mean, augmented=J > 1)


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
