"""Independent oracles for the closed-form budget match.

The multiplier s* that feedback_capacity / ftfi_capacity compute from one
water level is checked against Brent's method on the fixed-multiplier
views, the water-fill against its KKT conditions, and the cost floor
trace(P_1 K_V) against the Lyapunov cost of the K_Z = 0 strategy.
"""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov
from scipy.optimize import brentq

import dirinfo as di
from dirinfo import capacity as cap
from dirinfo import riccati
from dirinfo import waterfill as wf
from dirinfo.linalg import sym
import oracles
from conftest import random_spd


def random_channel(rng, p, q, radius, output_cost):
    """Stabilizable time-invariant model with spectral radius `radius`, kappa = 0."""
    while True:
        C = rng.normal(size=(p, p))
        C *= radius / max(abs(np.linalg.eigvals(C)))
        D = rng.normal(size=(p, q))
        if di.is_stabilizable(C, D):
            break
    Q = random_spd(rng, p, floor=0.1) if output_cost else np.zeros((p, p))
    return di.channel_model(C, D, random_spd(rng, p, floor=0.3), random_spd(rng, q, floor=0.3),
                            Q, 0.0, 0)


def with_kappa(m, kappa):
    return dataclasses.replace(m, kappa=float(kappa))


def brent_multiplier(cost, kappa):
    """Root of cost(s) = kappa, cost decreasing in s, bracketed by doubling from s = 1."""
    lo = hi = 1.0
    while cost(hi) > kappa:
        hi *= 2.0
    while cost(lo) < kappa:
        lo *= 0.5
    return brentq(lambda s: cost(s) - kappa, lo, hi, xtol=1e-15, rtol=1e-14)


def stationary_cases():
    rng = np.random.default_rng(11)
    cases = []
    for p, q, radius, output_cost in [(2, 2, 0.7, False), (3, 2, 0.8, True),
                                      (2, 1, 1.4, False), (3, 3, 1.3, True),
                                      (4, 2, 1.2, False), (4, 3, 0.9, True)]:
        m = random_channel(rng, p, q, radius, output_cost)
        cases.append(with_kappa(m, di.kappa_min(m) + rng.uniform(0.5, 5.0)))
    # memory J = 3 lowered to first order: K_V is singular off the top block
    mem = di.memory_model([[[0.9]], [[0.6]], [[-0.5]]], [[1.0]], [[0.8]], [[1.0]],
                          [[0.3]], 0.0, 0, cost_memory=1)
    aug = di.augment_memory(mem)
    assert np.linalg.matrix_rank(aug.KV(0)) == 1
    cases.append(with_kappa(aug, di.kappa_min(aug) + 2.0))
    return cases


@pytest.mark.parametrize("m", stationary_cases())
def test_stationary_multiplier_matches_brent_root(m):
    sol, c = di.feedback_capacity(m)
    s_ref = brent_multiplier(lambda s: cap.stationary_solve(m, s).achieved_cost, m.kappa)
    assert sol.s == pytest.approx(s_ref, rel=1e-8)
    assert abs(c - cap.stationary_solve(m, s_ref).rate_nats) <= 1e-9
    assert abs(sol.achieved_cost - m.kappa) <= cap.COST_TOL * (1.0 + m.kappa)


def ftfi_cases():
    rng = np.random.default_rng(12)
    n = 6
    Cs = [rng.normal(size=(2, 2)) * 0.6 for _ in range(n + 1)]
    Ds = [rng.normal(size=(2, 1)) for _ in range(n + 1)]
    KVs = [random_spd(rng, 2, floor=0.3) for _ in range(n + 1)]
    Rs = [random_spd(rng, 1, floor=0.5) for _ in range(n + 1)]
    Qs = [random_spd(rng, 2, floor=0.0) * 0.2 for _ in range(n + 1)]
    tv = di.channel_model(Cs, Ds, KVs, Rs, Qs, 0.0, n, time_invariant=False,
                          initial_cov=random_spd(rng, 2, floor=0.1))
    ti = di.channel_model(np.diag([1.5, 0.4]), rng.normal(size=(2, 2)), random_spd(rng, 2),
                          random_spd(rng, 2), np.zeros((2, 2)), 0.0, 40, terminal_Q=np.eye(2))
    # memory J = 3 with 2 outputs lowered to first order: K_V is singular off the
    # top block, so every step's water-fill inverts the EPS_REG-padded K_V
    mem = di.memory_model([rng.normal(size=(2, 2)) * 0.4 for _ in range(3)],
                          rng.normal(size=(2, 1)), random_spd(rng, 2), [[1.3]],
                          random_spd(rng, 4, floor=0.1) * 0.2, 0.0, 8, cost_memory=2,
                          initial_history=rng.normal(size=(3, 2)))
    aug = di.augment_memory(mem)
    assert np.linalg.matrix_rank(aug.KV(0)) == 2
    return [tv, ti, aug]


@pytest.mark.parametrize("m", ftfi_cases())
def test_ftfi_multiplier_matches_brent_root(m):
    # the cost at a huge multiplier is the floor the budget must clear
    floor = cap.finite_horizon_dp(m, 1e9).achieved_cost
    m = with_kappa(m, floor + 1.5)
    sol, c = di.ftfi_capacity(m)
    s_ref = brent_multiplier(lambda s: cap.finite_horizon_dp(m, s).achieved_cost, m.kappa)
    assert sol.s == pytest.approx(s_ref, rel=1e-8)
    ref = cap.finite_horizon_dp(m, s_ref)
    c_ref = cap.information_rate(m, ref.strategy, m.horizon + 1) / (m.horizon + 1)
    assert abs(c - c_ref) <= 1e-9


@pytest.mark.parametrize("m", ftfi_cases())
@pytest.mark.parametrize("s", [1e-2, 1.0, 1e2])
def test_finite_horizon_steps_match_the_per_step_water_fill(m, s):
    # the stacked kernel at s = 1, filled at level 1/(2s), against one validated
    # water-fill per step at weight sR(i) + D(i)^T P(i+1) D(i), the DP values
    # r(i) it accumulates, and the log-det rate of the strategy
    sol = cap.finite_horizon_dp(m, s)
    assert sol.rate_nats == pytest.approx(cap.information_rate(m, sol.strategy, m.horizon + 1),
                                          rel=1e-12, abs=1e-300)
    n = m.horizon
    r_ref = 0.0
    for i in range(n, -1, -1):
        D = m.D(i)
        weight = s * m.R(i) + (D.T @ sol.P_seq[i + 1] @ D if i < n else 0.0)
        KZ, value = wf.solve(wf.WaterfillProblem(D, m.noise_for_inversion(i)[0], sym(weight)))
        assert np.linalg.norm(sol.strategy.KZ(i) - KZ) <= 1e-12 * np.linalg.norm(KZ)
        if i == n:
            r_ref = value + s * (n + 1) * m.kappa
        else:
            r_ref = r_ref + value - float(np.trace(sol.P_seq[i + 1] @ m.KV(i)))
        assert sol.r_seq[i] == pytest.approx(r_ref, rel=1e-12, abs=0.0)


def test_capacity_ends_in_one_fixed_multiplier_solve(monkeypatch):
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("stationary_solve", "finite_horizon_dp"):
        counted(cap, name)
    counted(riccati, "solve_are")
    di.feedback_capacity(di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.0, 9.0))
    assert calls == ["solve_are"]
    calls.clear()
    di.ftfi_capacity(di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.0, 9.0, horizon=50, terminal_Q=1.0))
    assert calls == ["finite_horizon_dp"]


def test_one_are_solve_and_no_per_step_water_fill(monkeypatch):
    calls = []

    def counted(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name) or original(*a, **k))

    for module, name in ((riccati, "solve_are"), (wf, "solve"), (wf, "WaterfillProblem")):
        counted(module, name)
    m = di.channel_model(np.diag([1.5, 0.4]), [[1.0, 0.2], [0.3, 1.0]], np.eye(2), np.eye(2),
                         np.zeros((2, 2)), 9.0, 30)
    for run in (lambda: di.feedback_capacity(m), lambda: cap.stationary_solve(m, 0.3),
                lambda: di.kappa_min(m)):
        calls.clear()
        run()
        assert calls == ["solve_are"]
    calls.clear()
    cap.finite_horizon_dp(m, 0.3)
    di.ftfi_capacity(m)
    assert calls == []


def kkt_residuals(prob, KZ):
    """(largest eigenvalue of the gradient, |KZ grad|, smallest eigenvalue of KZ)."""
    g = wf.gradient(prob, KZ)
    return (float(np.linalg.eigvalsh(g).max()), float(np.linalg.norm(KZ @ g)),
            float(np.linalg.eigvalsh(KZ).min()))


def test_kkt_certificate_on_random_rectangular_problems():
    rng = np.random.default_rng(13)
    active = 0
    for _ in range(60):
        p, q = (int(x) for x in rng.integers(1, 5, size=2))
        prob = wf.WaterfillProblem(D=rng.normal(size=(p, q)) * rng.uniform(0.3, 3.0),
                                   KV=random_spd(rng, p, floor=0.2),
                                   weight=random_spd(rng, q, floor=0.01) * rng.uniform(0.01, 1.0))
        KZ, value = wf.solve(prob)
        top, comp, low = kkt_residuals(prob, KZ)
        scale = 1.0 + np.linalg.norm(prob.weight)
        assert top <= 1e-9 * scale
        assert comp <= 1e-9 * scale * (1.0 + np.linalg.norm(KZ))
        assert low >= -1e-12 * (1.0 + np.linalg.norm(KZ))
        assert value == pytest.approx(oracles.objective(prob, KZ), abs=1e-11)
        active += bool(KZ.any())
    assert active >= 30


def test_kkt_certificate_with_singular_bounded_weight():
    rng = np.random.default_rng(14)
    for _ in range(30):
        q = int(rng.integers(2, 5))
        r = int(rng.integers(1, q))
        p = int(rng.integers(1, 4))
        B = rng.normal(size=(r, q))
        weight = B.T @ B                              # rank r < q
        _, _, Vt = np.linalg.svd(B)
        rowspace = Vt[:r].T @ Vt[:r]
        prob = wf.WaterfillProblem(D=rng.normal(size=(p, q)) @ rowspace,
                                   KV=random_spd(rng, p, floor=0.2), weight=weight)
        KZ, _ = wf.solve(prob)
        top, comp, low = kkt_residuals(prob, KZ)
        scale = 1.0 + np.linalg.norm(weight)
        assert top <= 1e-9 * scale
        assert comp <= 1e-9 * scale * (1.0 + np.linalg.norm(KZ))
        assert low >= -1e-12 * (1.0 + np.linalg.norm(KZ))
        # the flat don't-care directions are left empty
        assert np.linalg.norm(KZ @ Vt[r:].T) <= 1e-12 * (1.0 + np.linalg.norm(KZ))


def test_water_level_spends_the_budget():
    rng = np.random.default_rng(15)
    for _ in range(50):
        gains = rng.uniform(0.05, 5.0, size=int(rng.integers(1, 8)))
        budget = float(rng.uniform(0.0, 20.0))
        mu = wf.water_level(gains, budget)
        spent = np.clip(mu - gains ** -2.0, 0.0, None).sum()
        assert spent == pytest.approx(budget, abs=1e-12 * (1.0 + mu))
    assert wf.water_level([0.5, 2.0], 0.0) == pytest.approx(0.25)


def test_kappa_min_is_lyapunov_cost_of_zero_innovations():
    rng = np.random.default_rng(16)
    for p, q, radius, output_cost in [(2, 1, 1.3, False), (3, 2, 1.5, True),
                                      (2, 2, 0.8, True), (4, 2, 1.1, False)]:
        m = random_channel(rng, p, q, radius, output_cost)
        C, D, KV, R, Q = m.C(0), m.D(0), m.KV(0), m.R(0), m.Q_seq[0]
        are = di.solve_are(C, D, Q, R, 1.0)
        K0 = solve_discrete_lyapunov(are.closed_loop, KV)
        cost = float(np.trace(R @ are.gain @ K0 @ are.gain.T) + np.trace(Q @ K0))
        assert di.kappa_min(m) == pytest.approx(cost, rel=1e-9)
        assert di.kappa_min(m) == pytest.approx(float(np.trace(are.P @ KV)), rel=1e-14)


def test_solve_are_reports_the_residual_of_the_returned_iterate():
    # random stabilizable models, p = 2..5: the residual is the move of one
    # more step from the returned P, is within TOL_ARE, and the gain is that
    # step's
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = int(rng.integers(2, 6))
        q = int(rng.integers(1, p + 1))
        m = random_channel(rng, p, q, rng.uniform(0.3, 1.6), rng.random() < 0.5)
        C, D, Q, R = m.C(0), m.D(0), m.Q_seq[0], m.R(0)
        sol = di.solve_are(C, D, Q, R, 1.0)
        Pn, blocks = riccati.riccati_backward_step(sol.P, C, D, Q, R, 1.0)
        move = float(np.linalg.norm(Pn - sol.P) / (1.0 + np.linalg.norm(sol.P)))
        assert sol.residual == pytest.approx(move, rel=1e-12, abs=1e-300)
        assert sol.residual <= riccati.TOL_ARE
        np.testing.assert_array_equal(sol.gain, riccati.optimal_gain(blocks))
