"""Feedback-capacity characterizations: finite-horizon DP, stationary solve,
closed-form budget match, scalar closed forms, and the no-feedback comparator.

The control part (gains) comes from the Riccati module, the innovations
part from the water-fill module, and the stationary output covariance, which
only the report reads, from the Lyapunov solver; this module wires them
together.

The power budget is matched in closed form.  The Riccati map is positively
homogeneous in the multiplier s, so P(s) = s P_1 and the gain does not
depend on s: each entry point makes one ARE solve, or one backward pass, at
s = 1, and the solution at a fixed s is a view of it, with innovations filled
at level 1/(2s) by one stacked water-fill kernel call.  At that gain P_1
solves the adjoint of the closed-loop Lyapunov equation, so a strategy with
innovations K_Z costs trace(W_1 K_Z) + trace(P_1 K_V), with
W_1 = R + D^T P_1 D (the finite horizon sums the same terms over the steps).
trace(P_1 K_V) is the cost floor, and the water-fill at multiplier s spends
trace(W_1 K_Z) = sum_j (1/(2s) - sigma_j^{-2})_+ over the subchannel gains
sigma_j of W_1.  One water level mu for the budget above the floor gives
s* = 1/(2 mu).

One cost identity, the LQ cost-to-go, serves both horizons, so no output
second moment enters a cost.  The finite horizon has no forward pass: a
strategy at the s = 1 gains costs the floor
trace(P_1(0) K_{B_{-1}}) + sum_{i<n} trace(P_1(i+1) K_V(i)) plus the
water-fill spend of every step.  `ftfi_capacity` makes that one backward
pass, matches the budget on it and hands it to
`finite_horizon_dp(model, s*, unit)`, as `feedback_capacity` hands its one
ARE solve to `_view`, whose output covariance K_B only the report reads
(None, with the reason in `KB_declined`, where its Lyapunov solve fails).

The unit solution does not depend on kappa, so a kappa sweep
(`sweep --param kappa`, `_kappa_cells`) makes one ARE solve and one
water-fill decomposition for its whole grid, and matches each cell's budget
on it (`_match_budget`); each cell still validates its own kappa.

The finite-horizon backward pass stops at its exact repeats.  On a
time-invariant model every step applies one map to P_1(i+1), so once P_1(i)
equals a later P_1(i+k) bit for bit, the earlier steps repeat the k steps
after i: those steps are copied, bit-identical to stepping n times, with no
tolerance.  A fixed point is k = 1; a pass may also settle into a cycle of
k > 1 bit patterns.  A Q = 0 model with terminal_Q = 0 takes one step
(P_1 = 0); a time-varying model never repeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import riccati, stability, waterfill
from .errors import DirinfoError, InfeasibleError, PreconditionError
from .linalg import logdet_pd, sym
from .model import ChannelModel, Strategy, _freeze, validate_model
from .stability import solve_lyapunov

REGIME_STABLE_NO_FEEDBACK = "stable_no_feedback"
REGIME_UNSTABLE_STABILIZED = "unstable_stabilized"
REGIME_ZERO_RATE = "zero_rate"

COST_TOL = 1e-9          # budget below the cost floor by more than COST_TOL * (1 + kappa): infeasible


@dataclass(frozen=True)
class FiniteHorizonSolution:
    """The per-step fields are read-only stacks over the n + 1 steps."""
    s: float
    P_seq: np.ndarray          # (n+1, p, p)
    r_seq: np.ndarray          # (n+1,)
    strategy: Strategy         # gains (n+1, q, p), innovations (n+1, q, q)
    achieved_cost: float       # per-unit-time average
    value_nats: float          # -E<b, P(0) b> + r(0)
    rate_nats: float           # directed information of the strategy over the n + 1 steps


@dataclass(frozen=True)
class StationarySolution:
    s: float
    P: np.ndarray
    gain: np.ndarray
    KZ: np.ndarray
    KB: np.ndarray | None      # None where its Lyapunov solve is declined
    KB_declined: str | None    # the reason K_B is None, else None
    rate_nats: float
    achieved_cost: float
    regime: str
    are_residual: float


def information_rate(model: ChannelModel, strat: Strategy, steps: int) -> float:
    """Total directed-information value of a strategy over `steps` steps (nats)."""
    total = 0.0
    for i in range(steps):
        D = model.D(min(i, model.horizon))
        kv, _ = model.noise_for_inversion(min(i, model.horizon))
        M = D @ strat.KZ(i) @ D.T + kv
        total += 0.5 * (logdet_pd(M) - logdet_pd(kv))
    return total


# ---------------------------------------------------------------------------
# finite horizon


def _stacks(model: ChannelModel):
    """(C, D, K_V, R, Q) as (n+1, ., .) stacks, built by indexing the model's
    sequences (a time-invariant model's one entry at every step)."""
    n = model.horizon
    steps = np.zeros(n + 1, dtype=np.intp) if model.time_invariant else np.arange(n + 1)
    return tuple(np.asarray(seq)[steps] for seq in
                 (model.C_seq, model.D_seq, model.KV_seq, model.R_seq, model.Q_seq))


def _riccati_pass(model: ChannelModel):
    """(P_1, gains, sigma, V, floor, K_V): the backward pass at s = 1 from
    P_1(n) = terminal_Q (terminal gain zero) over the model's `_stacks`, as
    (n+1, ., .) stacks, the subchannels of every step's weight
    R(i) + D(i)^T P_1(i+1) D(i), its step's H22 block (R(n) at the last),
    the cost floor trace(P_1(0) K_{B_{-1}}) + sum_{i<n} trace(P_1(i+1) K_V(i)),
    and the K_V stack, which `finite_horizon_dp` reads at any multiplier.

    Exact repeats: on a time-invariant model every step i < n applies the same
    map to P_1(i+1), so once P_1(i) equals any later P_1(i+k) bit for bit (a map
    from the hash of each P_1's bytes to its step finds it, the bytes confirm it),
    every earlier step m repeats step i + (m - i) mod k's P_1, gain and weight bit
    for bit; the P_1 and gain are copied instead of stepped, and the subchannels
    of the weights from step i on indexed.  A Q = 0 model with terminal_Q = 0
    stops after one step (P_1 = 0).  A time-varying model steps n times, even
    where its matrices repeat.  A P_1
    that is not finite raises PreconditionError naming its step, before it
    reaches a solve or an SVD.

    Each step is one `riccati._backward_step` (the step-count tests count it),
    fed the P_1 it returned last; its gain, `riccati.optimal_gain`'s -X, is
    written into the gain stack in place, and its weight is its H22 block.
    """
    C, D, KV, R, Q = _stacks(model)
    n = model.horizon
    P = np.empty_like(C)
    gains = np.empty((n + 1, model.input_dim, model.output_dim))
    weights = np.empty_like(R)
    P[n], gains[n], weights[n] = sym(model.terminal_Q), 0.0, sym(R[n])
    src = np.arange(n + 1)       # the step whose P_1, gain and weight each step repeats
    first = 0                    # the steps before it repeat later ones; their weights stay unset
    seen = {hash(P[n].tobytes()): n}    # the hash of a P_1's bytes (-0.0 != 0.0) -> its step
    P1 = P[n]                    # the last step's P_1, the next step's input
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite P_1 is raised below
        for i in range(n - 1, -1, -1):
            P1, blocks = riccati._backward_step(P1, C[i], D[i], Q[i], R[i])
            if not np.isfinite(P1).all():
                raise PreconditionError(
                    f"backward pass: P_1({i}) is not finite at step {i} of {n}: "
                    "the cost-to-go overflows over this horizon")
            P[i], weights[i] = P1, blocks.H22
            np.negative(blocks.X, out=gains[i])     # riccati.optimal_gain, in place
            if not model.time_invariant:
                continue
            key = P1.tobytes()
            j = seen.get(hash(key))
            if j is not None and key == P[j].tobytes():     # P_1(i) = P_1(j): period j - i
                first, src[:i] = i, i + (np.arange(i) - i) % (j - i)
                P[:i], gains[:i] = P[src[:i]], gains[src[:i]]
                break
            seen[hash(key)] = i
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite floor is raised below
        floor = float(np.trace(P[0] @ model.initial_second_moment()) + _traces(P[1:], KV[:n]).sum())
    if not np.isfinite(floor):
        raise PreconditionError(
            f"backward pass: the cost floor trace(P_1(0) K_B(-1)) + sum_i trace(P_1(i+1) K_V(i)) "
            f"is not finite over {n} steps: the cost-to-go overflows over this horizon")
    # one K_V per entry of the model's sequence: a stack of one broadcasts over the steps
    kv = np.stack([model.noise_for_inversion(i)[0] for i in range(len(model.KV_seq))])
    sigma, V = waterfill.subchannels(D[first:], kv, weights[first:])
    return P, gains, sigma[src - first], V[src - first], floor, KV


def _traces(A, B) -> np.ndarray:
    """trace(A[i] @ B[i]) for each i of two stacks."""
    return np.einsum("kij,kji->k", A, B)


def _fill(sigma, V, s: float):
    """`waterfill.fill` at level 1/(2s), with PreconditionError naming s when the
    level, an innovations covariance, the total rate or the total spend is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite fill is raised below
        KZ, rate, spent = waterfill.fill(sigma, V, 0.5 / s)
        finite = np.isfinite(KZ).all() and np.isfinite(rate.sum() + spent.sum())
    if not finite:
        raise PreconditionError(
            f"multiplier s = {s:.12g}: the water-fill at level 1/(2s) is not finite: "
            "the innovations overflow")
    return KZ, rate, spent


def _matched_multiplier(sigma, budget: float, kappa: float) -> float:
    """s* = 1/(2 mu) for the water level mu over the gains sigma that spends `budget`;
    PreconditionError naming kappa when s* is not positive and finite."""
    with np.errstate(over="ignore"):     # an overflowing level is raised below
        s = 0.5 / waterfill.water_level(sigma, budget)
    if not 0.0 < s < np.inf:
        raise PreconditionError(
            f"power budget kappa = {kappa:.12g}: the water level that spends it is not "
            "finite, so no multiplier s* = 1/(2 mu) matches it")
    return s


def finite_horizon_dp(model: ChannelModel, s: float, unit=None) -> FiniteHorizonSolution:
    """Backward DP at a fixed multiplier; there is no forward pass.

    Backward: the pass at s = 1 scaled, P(i) = s P_1(i) with the same gains
    (zero at the terminal step); K_Z(i) fills step i at level 1/(2s), and r(i)
    accumulates the per-step water-fill values minus trace(P(i+1) K_V(i)).
    `unit` is that pass, `_riccati_pass(model)`, when the caller has made it
    (`ftfi_capacity` matches the budget on it), or None to make it here with the
    same bits; it is read, not written, and its gain stack, frozen, is the strategy's.
    The pass stops at its exact repeats (`_riccati_pass`): a time-invariant
    model stops stepping once P_1 repeats a later step's bits and copies the
    steps of that period into the earlier ones, bit-identical to n steps; a
    Q = 0 model with terminal_Q = 0 takes one step; a time-varying model never
    repeats.
    The achieved cost is the LQ cost-to-go identity at the s = 1 gains: the
    pass's cost floor plus the water-fill spend sum_i trace(W_1(i) K_Z(i)),
    per unit time, so no output second moment K_B is propagated.  A P = s P_1
    that is not finite raises PreconditionError naming its step.
    """
    validate_model(model)
    riccati.check_multiplier(s)
    n = model.horizon
    P1, G, sigma, V, floor, KV = _riccati_pass(model) if unit is None else unit
    KZ, rates, spent = _fill(sigma, V, s)
    values = rates - s * spent
    with np.errstate(over="ignore"):     # a non-finite P is raised below
        P = s * P1
    bad = np.flatnonzero(~np.isfinite(P).all(axis=(1, 2)))
    if bad.size:
        i = bad[-1]
        raise PreconditionError(
            f"fixed multiplier s = {s:.12g}: P({i}) = s P_1({i}) is not finite at step {i} "
            f"of {n}: the cost-to-go overflows over this horizon")
    # r(i) = r(i+1) + values(i) - trace(P(i+1) K_V(i)), one cumsum in the recursion's order
    steps = np.stack([values[:n], -_traces(P[1:], KV[:n])], axis=1)[::-1].ravel()
    r = np.cumsum(np.append(values[n] + s * (n + 1) * model.kappa, steps))[::-2]

    # built here, PSD by construction: wrapped without the caller-input checks
    strat = Strategy(gains=_freeze(G), innovations=_freeze(KZ))
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite value is raised below
        value = -float(np.trace(P[0] @ model.initial_second_moment())) + float(r[0])
    if not np.isfinite(value):
        raise PreconditionError(
            f"fixed multiplier s = {s:.12g}: value_nats = -E<b, P(0) b> + r(0) is not finite "
            f"over {n} steps: the cost-to-go overflows over this horizon")
    return FiniteHorizonSolution(
        s=float(s), P_seq=_freeze(P), r_seq=_freeze(r), strategy=strat,
        achieved_cost=float(floor + spent.sum()) / (n + 1), value_nats=value,
        rate_nats=float(rates.sum()),
    )


def ftfi_capacity(model: ChannelModel):
    """Multiplier matched to the power budget; returns (solution, capacity).

    One backward pass at s = 1 gives the cost floor
    trace(P_1(0) K_{B_{-1}}) + sum_{i<n} trace(P_1(i+1) K_V(i)) and one water
    level over the subchannel gains of every step.  The gains do not depend on
    s, so `finite_horizon_dp` at the matched s* reuses that pass and only fills
    the innovations.  Capacity is the per-unit-time directed-information value
    of the solved strategy.
    """
    validate_model(model)
    n = model.horizon
    kappa = model.kappa
    unit = _riccati_pass(model)
    _, _, sigma, _, floor, _ = unit
    budget = (n + 1) * kappa - floor
    if budget < -COST_TOL * (1.0 + kappa) * (n + 1):
        raise InfeasibleError(
            f"ftfi_capacity: power budget {kappa} below the achievable cost floor "
            f"{floor / (n + 1):.12g}", kappa_stab=floor / (n + 1))
    sol = finite_horizon_dp(model, _matched_multiplier(sigma, max(budget, 0.0), kappa), unit)
    return sol, sol.rate_nats / (n + 1)


# ---------------------------------------------------------------------------
# stationary / infinite horizon


def _ti_matrices(model: ChannelModel):
    if not model.time_invariant:
        raise PreconditionError("stationary solve requires a time-invariant model")
    # the running Q, never the terminal weight
    return model.C(0), model.D(0), model.KV(0), model.R(0), model.Q_seq[0]


def _unit_solution(model: ChannelModel):
    """The stationary solution at s = 1: (ARE solution, sigma, V), the subchannels
    of W_1 = R + D^T P_1 D as a stack of one."""
    validate_model(model)
    C, D, _, R, Q = _ti_matrices(model)
    are = riccati.solve_are(C, D, Q, R, 1.0)
    kv_eff, _ = model.noise_for_inversion(0)
    return (are, *waterfill.subchannels(D, kv_eff, sym(R + D.T @ are.P @ D)[None]))


def _view(model: ChannelModel, unit, s: float) -> StationarySolution:
    """The stationary solution at multiplier s as a view of the one at s = 1: P = s P_1,
    the same gain, K_Z filled at level 1/(2s).  The ARE residual |Ric(P) - P| / (1 + |P|)
    is P_1's with the move and |P| scaled by s.

    The achieved cost is the identity `finite_horizon_dp` uses, the floor
    trace(P_1 K_V) plus the water-fill spend trace(W_1 K_Z), so it needs no
    output covariance.  K_B = Acl K_B Acl^T + D K_Z D^T + K_V is solved for the
    report only.  Where that solve fails on a loop of spectral radius below
    1 - TOL_SPEC, K_B is None and `KB_declined` names the failure; a loop that
    is not exponentially stable (the identity needs K_B's series to converge)
    and an overflowing |D K_Z D^T + K_V| raise PreconditionError."""
    _, D, KV, _, _ = _ti_matrices(model)
    are, sigma, V = unit
    KZ, rate, spent = _fill(sigma, V, s)
    KZ = KZ[0]
    Acl = are.closed_loop
    W = D @ KZ @ D.T + KV
    with np.errstate(over="ignore"):     # an overflowing norm is raised below
        finite = np.isfinite(np.linalg.norm(W))
    if not finite:      # the Lyapunov residual is gated against |W|
        raise PreconditionError(
            f"multiplier s = {s:.12g}: the output covariance overflows: |D K_Z D^T + K_V| "
            f"is not finite at water level 1/(2s) = {0.5 / s:.6g}")
    K, declined = None, None
    try:
        K = solve_lyapunov(Acl, W)
    except PreconditionError as exc:
        rep = stability.spectral_radius(Acl)
        declined = (f"output-covariance Lyapunov equation: {exc}; closed-loop spectral radius "
                    f"{rep.spectral_radius:.6g}")
        if not rep.stable:
            raise PreconditionError(declined) from exc
    g = are.gain
    if not g.any():     # the Q = 0 route returns exact zeros for a stable C
        regime = REGIME_STABLE_NO_FEEDBACK
    elif not KZ.any():      # `waterfill.fill` writes exact zeros where no subchannel is wet
        regime = REGIME_ZERO_RATE
    else:
        regime = REGIME_UNSTABLE_STABILIZED
    norm_P = float(np.linalg.norm(are.P))
    return StationarySolution(
        s=float(s), P=s * are.P, gain=g, KZ=KZ, KB=K, KB_declined=declined,
        rate_nats=float(rate[0]), achieved_cost=cost_floor(model, are.P) + float(spent[0]),
        regime=regime, are_residual=are.residual * s * (1.0 + norm_P) / (1.0 + s * norm_P),
    )


def stationary_solve(model: ChannelModel, s: float) -> StationarySolution:
    """Stationary solution at a fixed multiplier: one ARE solve at s = 1, viewed at s."""
    riccati.check_multiplier(s)
    return _view(model, _unit_solution(model), s)


def cost_floor(model: ChannelModel, P, s: float = 1.0) -> float:
    """kappa_min from a stationary ARE solution P at multiplier s.

    P = s P_1 by homogeneity, so the floor is trace(P K_V) / s.  It is exactly
    zero when the channel needs no feedback and carries no output cost: the
    Q = 0 solve returns P = 0 for a stable C.
    """
    KV = _ti_matrices(model)[2]
    return float(np.trace(P @ KV)) / s


def kappa_min(model: ChannelModel) -> float:
    """Minimum average power: trace(P_1 K_V), the cost of the stabilizing
    strategy with K_Z = 0, where P_1 solves the ARE at s = 1.

    Reproduces (C^2-1) K_V / D^2 on scalar models.
    """
    are = _unit_solution(model)[0]
    return cost_floor(model, are.P)


def feedback_capacity(model: ChannelModel):
    """Infinite-horizon feedback capacity; returns (solution, capacity_nats).

    One ARE solve at s = 1 gives the cost floor trace(P_1 K_V) and the
    subchannel gains of W_1 = R + D^T P_1 D; the water level of the budget
    above the floor fixes the multiplier.  When the budget cannot cover the
    floor: models with Q = 0 fall into the zero-rate regime (capacity 0, at
    the smallest multiplier whose water-fill is empty); models with Q != 0
    are infeasible and the floor is reported as the stabilization cost.
    """
    return _match_budget(model, _unit_solution(model))


def _match_budget(model: ChannelModel, unit):
    """`feedback_capacity` on `unit`, the `_unit_solution` of a model that differs from
    `model` at most in kappa: the infeasible check, the matched multiplier and its
    `_view`."""
    are, sigma, _ = unit
    kappa = model.kappa
    floor = cost_floor(model, are.P)
    if model.Q_seq[0].any() and kappa < floor - COST_TOL * (1.0 + kappa):
        raise InfeasibleError(
            f"power budget {kappa} below minimum stabilization cost {floor:.12g}",
            kappa_stab=floor)
    sol = _view(model, unit, _matched_multiplier(sigma, max(kappa - floor, 0.0), kappa))
    return sol, sol.rate_nats


def _kappa_cells(model: ChannelModel, kappas) -> list:
    """The cells of a kappa sweep: for each v, (variant, solution, capacity_nats) with
    variant = `dataclasses.replace(model, kappa=v)`, exactly as `feedback_capacity(variant)`
    gives them, or the DirinfoError that cell raises.  The unit solution does not depend
    on kappa, so one serves the grid.  A cell whose kappa fails validation (negative, not
    finite) carries that error; otherwise, where the unit solve failed, its error."""
    try:
        unit = _unit_solution(model)
    except DirinfoError as exc:
        unit = exc
    cells = []
    for v in kappas:
        try:
            variant = validate_model(replace(model, kappa=v))
            cells.append(unit if isinstance(unit, DirinfoError)
                         else (variant, *_match_budget(variant, unit)))
        except DirinfoError as exc:
            cells.append(exc)
    return cells


# ---------------------------------------------------------------------------
# scalar closed form and the no-feedback comparator


def scalar_feedback_capacity(C: float, D: float, KV: float, kappa: float, R: float = 1.0):
    """Three-branch closed form for the time-invariant scalar channel with Q = 0.

    Returns (capacity_nats, gain, KZ, regime).  General scalar R > 0 is
    handled by exact input rescaling (which leaves the gain and the capacity
    expression unchanged and scales KZ by 1/R).
    """
    if D == 0.0:
        raise PreconditionError("D must be nonzero")
    if KV <= 0.0:
        raise PreconditionError("KV must be positive")
    if R <= 0.0:
        raise PreconditionError("R must be positive")
    if kappa < 0.0:
        raise PreconditionError("negative kappa")
    if abs(abs(C) - 1.0) <= stability.TOL_SPEC:
        raise PreconditionError("|C| within tolerance of 1: boundary indeterminacy")
    Deff = D / math.sqrt(R)      # cost normalized to A^2
    if abs(C) < 1.0:
        kz = kappa / R
        cap = 0.5 * math.log((Deff * Deff * kappa + KV) / KV)
        return cap, 0.0, kz, REGIME_STABLE_NO_FEEDBACK
    gain = -(C * C - 1.0) / (C * D)
    kmin = (C * C - 1.0) * KV / (Deff * Deff)
    if kappa < kmin:
        return 0.0, gain, 0.0, REGIME_ZERO_RATE
    kz_eff = (Deff * Deff * kappa + KV * (1.0 - C * C)) / (C * C * Deff * Deff)
    cap = 0.5 * math.log((Deff * Deff * kz_eff + KV) / KV)
    kz = kz_eff / R
    if kz_eff <= 0.0:
        return 0.0, gain, 0.0, REGIME_ZERO_RATE
    return cap, gain, kz, REGIME_UNSTABLE_STABILIZED


def scalar_kappa_min(C: float, D: float, KV: float, R: float = 1.0) -> float:
    """(C^2 - 1) K_V R / D^2 for unstable scalars, else 0."""
    if abs(C) < 1.0:
        return 0.0
    return (C * C - 1.0) * KV * R / (D * D)


def nofeedback_capacity_q0(model: ChannelModel) -> float:
    """No-feedback capacity of a time-invariant Q = 0 model.

    Stable channels: water-fill under trace(R K_Z) <= kappa (one water level
    over the subchannel gains of the weight R).  Unstable channels: 0.
    """
    validate_model(model)
    C, D, _, R, Q = _ti_matrices(model)
    if Q.any():
        raise PreconditionError("no-feedback comparator defined for Q = 0 only")
    if not stability.spectral_radius(C).stable:
        return 0.0
    kappa = model.kappa
    if kappa <= 0.0:
        return 0.0
    sigma, V = waterfill.subchannels(D, model.noise_for_inversion(0)[0], sym(R)[None])
    return float(waterfill.fill(sigma, V, waterfill.water_level(sigma, kappa))[1][0])
