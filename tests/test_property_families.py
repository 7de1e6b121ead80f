"""Two property families at the edges of the input space.

The power budget at and around kappa_min, the paper's critical power level:
kappa_min is the power of the stabilizing strategy with no innovations.  With
Q = 0 a budget at or below it leaves nothing to water-fill, so the capacity is
0; with Q != 0 a budget below it by more than COST_TOL (1 + kappa) is
infeasible.  Above it the matched strategy spends the budget.

Memory-J models lowered by `augment_memory`: for J > 1 the lowered noise
covariance K_V is singular off the top block, and the solvers pad it.  Every
such model must answer through `feedback_capacity` and `ftfi_capacity` with
the budget spent, or be infeasible.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dirinfo as di
from dirinfo import capacity, cli
from dirinfo.errors import DirinfoError, InfeasibleError
from conftest import random_spd

OFFSETS = (-1e-9, -1e-12, 0.0, 1e-12, 1e-9)     # kappa - kappa_min, relative to 1 + kappa_min


def _channel(seed, p, q, radius, output_cost):
    """(C, D, K_V, R, Q): C ~ N(0, 1) at spectral radius `radius`, D ~ N(0, 1), Q = 0
    or SPD."""
    rng = np.random.default_rng(seed)
    C = rng.normal(size=(p, p))
    C *= radius / max(abs(np.linalg.eigvals(C)))
    D = rng.normal(size=(p, q))
    Q = random_spd(rng, p, floor=0.1) if output_cost else np.zeros((p, p))
    return C, D, random_spd(rng, p, floor=0.3), random_spd(rng, q, floor=0.3), Q


def _check_budget_at(C, D, KV, R, Q, kmin, kappa):
    """feedback_capacity at budget `kappa` near kmin: infeasible exactly where the
    library's rule says so (Q != 0 only), else capacity 0 at the floor's cost when
    kappa <= kmin, and the budget spent when kappa > kmin."""
    m = di.channel_model(C, D, KV, R, Q, kappa, 0)
    if Q.any() and kappa < kmin - capacity.COST_TOL * (1.0 + kappa):
        with pytest.raises(InfeasibleError):
            di.feedback_capacity(m)
        return
    sol, cap = di.feedback_capacity(m)
    if kappa <= kmin:
        assert cap == 0.0
        assert abs(sol.achieved_cost - kmin) <= 1e-8 * (1.0 + kmin)
    else:
        assert abs(sol.achieved_cost - kappa) <= 1e-8 * (1.0 + kappa)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 4), q_frac=st.floats(0.0, 1.0),
       radius=st.floats(0.2, 2.0), output_cost=st.booleans())
def test_budget_at_and_around_kappa_min(seed, p, q_frac, radius, output_cost):
    C, D, KV, R, Q = _channel(seed, p, 1 + int(q_frac * (p - 1)), radius, output_cost)
    assume(di.is_stabilizable(C, D))
    try:
        kmin = di.kappa_min(di.channel_model(C, D, KV, R, Q, 0.0, 0))
    except DirinfoError:
        assume(False)
    for offset in OFFSETS:
        kappa = kmin + offset * (1.0 + kmin)
        if kappa >= 0.0:
            _check_budget_at(C, D, KV, R, Q, kmin, kappa)


def test_q0_budget_at_kappa_min_on_a_non_normal_closed_loop():
    # |C| 1.8, closed-loop spectral radius 0.805: the residual relative to 1 + |W|
    # is 3.9e-10 at kappa_min, yet kappa_min + (1 + kappa_min) answers
    C, D, KV, R, Q = _channel(67, 2, 1, 1.8, False)
    kmin = di.kappa_min(di.channel_model(C, D, KV, R, Q, 0.0, 0))
    di.feedback_capacity(di.channel_model(C, D, KV, R, Q, 2.0 * kmin + 1.0, 0))
    _check_budget_at(C, D, KV, R, Q, kmin, kmin)


def test_cli_at_kappa_min_reports_the_declined_output_covariance(tmp_path):
    # the model above at kappa_min: `capacity` answers with K_B null and its reason;
    # `simulate` and `sweep` read no K_B, so they answer too
    C, D, KV, R, Q = _channel(67, 2, 1, 1.8, False)
    kmin = di.kappa_min(di.channel_model(C, D, KV, R, Q, 0.0, 0))
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"type": "channel", "C": C.tolist(), "D": D.tolist(),
                                 "KV": KV.tolist(), "R": R.tolist(), "Q": Q.tolist(),
                                 "kappa": kmin}))

    def report(*argv):
        out = tmp_path / "r.json"
        assert cli.main([*argv, "--model", str(model), "--output", str(out)]) == 0
        return json.loads(out.read_text())

    res = report("capacity")["result"]
    assert res["KB"] is None and res["residuals"]["lyapunov"] is None
    assert "Lyapunov solve residual too large" in res["KB_declined"]
    assert res["capacity_nats"] == 0.0
    report("simulate", "--steps", "1000", "--seeds", "2")
    rows = report("sweep", "--param", "kappa", "--grid", f"{kmin!r},{2.0 * kmin + 1.0!r}")["rows"]
    assert len(rows) == 2 and not any("error" in row for row in rows)


def _memory_model(seed, p, memory, cost_memory, radius):
    """A memory-J model, J = max(M, K), lowered to first order: C blocks ~ N(0, 1) with
    block j scaled by c^j, which puts the lowered C at spectral radius `radius`; Q_K PSD
    of random rank; a horizon of 1 to 39 steps and a random initial history.  kappa is
    kappa_min f + g, f ~ U(1, 3) with Q = 0 (never below the floor), U(0.5, 3) with
    Q != 0, and g ~ U(0, 2)."""
    rng = np.random.default_rng(seed)
    q, J = int(rng.integers(1, p + 1)), max(memory, cost_memory)
    blocks = [rng.normal(size=(p, p)) for _ in range(memory)]
    C = di.augment_memory(di.memory_model(blocks, np.ones((p, 1)), np.eye(p), [[1.0]], None,
                                          0.0, 0)).C(0)
    c = radius / max(abs(np.linalg.eigvals(C)))
    blocks = [b * c ** (j + 1) for j, b in enumerate(blocks)]
    D = rng.normal(size=(p, q))
    KV, R = random_spd(rng, p, floor=0.3), random_spd(rng, q, floor=0.3)
    QK = None
    if cost_memory:
        X = rng.normal(size=(cost_memory * p, int(rng.integers(1, cost_memory * p + 1))))
        QK = X @ X.T
    horizon, history = int(rng.integers(1, 40)), rng.normal(size=(J, p))

    def lowered(kappa):
        return di.augment_memory(di.memory_model(blocks, D, KV, R, QK, kappa, horizon,
                                                 cost_memory=cost_memory,
                                                 initial_history=history))

    f = rng.uniform(0.5 if cost_memory else 1.0, 3.0)
    return lowered(di.kappa_min(lowered(0.0)) * f + rng.uniform(0.0, 2.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 2), memory=st.integers(1, 16),
       cost_memory=st.integers(0, 16), radius=st.sampled_from([0.3, 0.6, 0.9, 1.1, 1.3, 1.5]))
def test_memory_models_with_singular_lowered_noise_spend_the_budget_or_are_infeasible(
        seed, p, memory, cost_memory, radius):
    m = _memory_model(seed, p, memory, cost_memory, radius)
    if max(memory, cost_memory) > 1:
        assert np.linalg.matrix_rank(m.KV(0)) == p < len(m.KV(0))
    for solve in (di.feedback_capacity, di.ftfi_capacity):
        try:
            sol, _ = solve(m)
        except InfeasibleError:
            continue
        assert abs(sol.achieved_cost - m.kappa) <= 1e-7 * (1.0 + m.kappa), solve.__name__
