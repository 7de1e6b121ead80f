"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

import dirinfo as di
from dirinfo import capacity as cap
from dirinfo import cli, riccati, waterfill as wf
from dirinfo.linalg import sym_sqrt
from dirinfo.simulate import _draw_noise
import oracles
from conftest import random_spd, random_stable

HALF_LN2 = 0.5 * math.log(2.0)
HALF_LN25 = 0.5 * math.log(2.5)


def _cli_capacity(tmp_path, name, **fields):
    import json
    doc = {"type": "channel", "horizon": 0, "time_invariant": True,
           "C": 2.0, "D": 1.0, "KV": 1.0, "R": 1.0, "Q": 0.0, "kappa": 9.0}
    doc.update(fields)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    cfg = cli.parse_config(["capacity", "--model", str(path)])
    t0 = time.monotonic()
    code, report = cli.run(cfg)
    return code, report, time.monotonic() - t0


def test_criterion_1_scalar_closed_form_reproduction(tmp_path):
    code, rep, dt = _cli_capacity(tmp_path, "stable.json", C=0.5, kappa=1.0)
    assert code == 0 and dt < 1.0
    assert abs(rep["result"]["capacity_nats"] - HALF_LN2) <= 1e-6

    code, rep, dt2 = _cli_capacity(tmp_path, "unstable.json", C=2.0, kappa=9.0)
    assert code == 0 and dt2 < 1.0
    res = rep["result"]
    assert abs(res["capacity_nats"] - HALF_LN25) <= 1e-6
    assert abs(res["gain"][0][0] - (-1.5)) <= 1e-6
    assert abs(res["KZ"][0][0] - 1.5) <= 1e-6
    assert abs(res["s_star"] - 0.05) <= 1e-6

    code, rep, dt3 = _cli_capacity(tmp_path, "starved.json", C=2.0, kappa=2.0)
    assert code == 0 and dt3 < 1.0
    assert rep["result"]["capacity_nats"] == 0.0
    assert abs(rep["result"]["kappa_min"] - 3.0) <= 1e-9
    print(f"\nACCEPTANCE 1 PASS: scalar closed forms reproduced "
          f"(runtimes {dt:.2f}/{dt2:.2f}/{dt3:.2f} s)")


def test_criterion_2_riccati_fixed_point_reproduction():
    worst = 0.0
    for C in (1.5, 2.0, 3.0):
        for s in (0.05, 0.2, 1.0):
            sol = di.solve_are([[C]], [[1.0]], [[0.0]], [[1.0]], s)
            want = s * (C * C - 1.0)
            worst = max(worst, abs(sol.P[0, 0] - want))
            assert abs(sol.P[0, 0] - want) <= 1e-9
            assert sol.stabilizing
            rep = oracles.classify_are(sol, [[C]], [[1.0]], [[0.0]], [[1.0]], s, [[1.0]])
            assert rep.stabilizing
    for C in (0.3, 0.9, -0.5):
        sol = di.solve_are([[C]], [[1.0]], [[0.0]], [[1.0]], 0.7)
        assert sol.P[0, 0] == 0.0
    print(f"\nACCEPTANCE 2 PASS: ARE closed form on the grid (worst |dP| = {worst:.2e})")


def test_criterion_3_finite_to_infinite_horizon_convergence():
    cases = [(2.0, 0.0, 1.0, 0.05), (0.5, 0.0, 0.0, 0.25), (0.8, 0.3, 0.3, 0.4)]
    slowest = 0.0
    for C, Q, termQ, s in cases:
        m = di.scalar_model(C, 1.0, 1.0, 1.0, Q, 1.0, horizon=500, terminal_Q=termQ)
        t0 = time.monotonic()
        sol = cap.finite_horizon_dp(m, s)
        dt = time.monotonic() - t0
        slowest = max(slowest, dt)
        assert dt < 1.0
        are = di.solve_are([[C]], [[1.0]], [[Q]], [[1.0]], s)
        assert abs(sol.P_seq[0][0, 0] - are.P[0, 0]) <= 1e-6
        assert abs(sol.strategy.gains[0][0, 0] - are.gain[0, 0]) <= 1e-6
    print(f"\nACCEPTANCE 3 PASS: n=500 backward pass reaches the ARE "
          f"(slowest DP {slowest:.2f} s)")


def test_criterion_4_feedback_vs_no_feedback(rng):
    worst = 0.0
    for C in (0.2, 0.5, 0.9):
        for kappa in (0.5, 1.0, 3.0):
            m = di.scalar_model(C, 1.0, 1.0, 1.0, 0.0, kappa)
            _, fb = di.feedback_capacity(m)
            nofb = di.nofeedback_capacity_q0(m)
            worst = max(worst, abs(fb - nofb))
            assert abs(fb - nofb) <= 1e-8
    for _ in range(2):
        C = random_stable(rng, 2, radius=rng.uniform(0.4, 0.8))
        D = rng.normal(size=(2, 2)) + 1.5 * np.eye(2)
        KV = random_spd(rng, 2, floor=0.5)
        R = random_spd(rng, 2, floor=0.5)
        m = di.channel_model(C, D, KV, R, np.zeros((2, 2)), 3.0, 0)
        _, fb = di.feedback_capacity(m)
        nofb = di.nofeedback_capacity_q0(m)
        worst = max(worst, abs(fb - nofb))
        assert abs(fb - nofb) <= 1e-8
    for C in (1.5, 2.0, 3.0):
        m = di.scalar_model(C, 1.0, 1.0, 1.0, 0.0, 5.0)
        assert di.nofeedback_capacity_q0(m) == 0.0
    print(f"\nACCEPTANCE 4 PASS: feedback == no-feedback on stable Q=0 models "
          f"(worst gap {worst:.2e}); unstable no-feedback capacity is 0")


def test_criterion_5_constraint_activity_and_cost_identity(rng):
    instances = [di.scalar_model(0.5, 1.0, 1.0, 1.0, 0.0, 1.0),
                 di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.0, 9.0),
                 di.scalar_model(3.0, 2.0, 1.5, 1.0, 0.0, 12.0),
                 di.scalar_model(0.7, 1.0, 1.0, 1.0, 0.4, 4.0)]
    C2 = random_stable(rng, 2, radius=0.6)
    instances.append(di.channel_model(C2, np.eye(2), np.eye(2), np.eye(2),
                                      np.zeros((2, 2)), 2.0, 0))
    worst_gap = worst_id = 0.0
    for m in instances:
        sol, _ = di.feedback_capacity(m)
        gap = abs(sol.achieved_cost - m.kappa)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-6 * (1 + m.kappa)
        # independent recomputation of the cost from a re-derived covariance
        C, D = m.C(0), m.D(0)
        R, Q = m.R(0), m.Q_seq[0]
        Acl = C + D @ sol.gain
        W = D @ sol.KZ @ D.T + m.KV(0)
        K = np.zeros_like(W)
        for _ in range(800):
            K = di.lyapunov_step(K, Acl, W)
        cost = float(np.trace(R @ sol.gain @ K @ sol.gain.T) + np.trace(R @ sol.KZ)
                     + np.trace(Q @ K))
        worst_id = max(worst_id, abs(cost - sol.achieved_cost))
        assert cost == pytest.approx(sol.achieved_cost, abs=1e-8)
    print(f"\nACCEPTANCE 5 PASS: |cost - kappa| <= 1e-6(1+kappa) "
          f"(worst {worst_gap:.2e}); cost identity to {worst_id:.2e}")


def test_criterion_6_waterfill_oracle_equivalence(rng):
    worst = 0.0
    for w in (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0):
        for KV in (0.1, 0.3, 0.5, 1.0, 2.0, 3.0, 5.0):
            kz, _ = wf.solve(wf.WaterfillProblem(D=[[1.0]], KV=[[KV]], weight=[[w]]))
            kz_o, _ = oracles.scalar_solve(1.0, KV, w)
            worst = max(worst, abs(kz[0, 0] - kz_o))
            assert abs(kz[0, 0] - kz_o) <= 1e-8
    for _ in range(10):
        d = rng.uniform(0.5, 2.0, size=2)
        kv = rng.uniform(0.3, 3.0, size=2)
        w = rng.uniform(0.05, 5.0, size=2)
        kz, _ = wf.solve(wf.WaterfillProblem(D=np.diag(d), KV=np.diag(kv), weight=np.diag(w)))
        for i in range(2):
            want, _ = oracles.scalar_solve(d[i], kv[i], w[i])
            assert abs(kz[i, i] - want) <= 1e-7
    h = 1e-6
    for _ in range(20):
        D = rng.normal(size=(2, 2))
        prob = wf.WaterfillProblem(D=D, KV=random_spd(rng, 2, floor=0.3),
                                   weight=random_spd(rng, 2, floor=0.05))
        K = random_spd(rng, 2, floor=0.1)
        g = wf.gradient(prob, K)
        for i in range(2):
            for j in range(i, 2):
                E = np.zeros((2, 2))
                E[i, j] = E[j, i] = 1.0
                fd = (oracles.objective(prob, K + h * E) - oracles.objective(prob, K - h * E)) / (2 * h)
                assert float(np.tensordot(g, E)) == pytest.approx(fd, rel=1e-5, abs=1e-7)
    print(f"\nACCEPTANCE 6 PASS: water-fill solver matches closed forms "
          f"(worst scalar gap {worst:.2e}); gradients match finite differences")


def test_criterion_7_lyapunov_stability_suite(rng):
    worst = 0.0
    for _ in range(50):
        Acl = random_stable(rng, 3, radius=rng.uniform(0.1, 0.9))
        W = random_spd(rng, 3)
        Sigma = di.solve_lyapunov(Acl, W)
        resid = np.linalg.norm(Sigma - Acl @ Sigma @ Acl.T - W)
        worst = max(worst, resid)
        assert resid <= 1e-10
        if di.is_controllable(Acl, sym_sqrt(W)):
            assert np.linalg.eigvalsh(Sigma).min() > 0
    for _ in range(50):
        A = rng.normal(size=(3, 3))
        B = rng.normal(size=(3, rng.integers(1, 3)))
        C = rng.normal(size=(rng.integers(1, 3), 3))
        assert di.is_detectable(C, A) == di.is_stabilizable(A.T, C.T)
        assert di.is_observable(C, A) == di.is_controllable(A.T, C.T)
    print(f"\nACCEPTANCE 7 PASS: Lyapunov residuals <= 1e-10 (worst {worst:.2e}), "
          f"two-of-three positivity, controllability duality on 50 instances")


def test_criterion_8_monte_carlo_information_stability():
    t0 = time.monotonic()
    m = di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.0, 9.0)
    sol, rate = di.feedback_capacity(m)
    strat = di.stationary_strategy(sol.gain, sol.KZ)
    long_traces = di.simulate_batch(m, strat, 100_000, range(8))
    for tr in long_traces:
        assert abs(tr.terminal_rate - 0.458145) <= 0.02
        assert abs(tr.terminal_cost - 9.0) <= 0.45
    long_rep = di.stability_report(long_traces, HALF_LN25, 9.0, 0.02, cost_epsilon=0.45)
    short_traces = di.simulate_batch(m, strat, 10_000, range(8))
    short_rep = di.stability_report(short_traces, HALF_LN25, 9.0, 0.02, cost_epsilon=0.45)
    assert short_rep.violation_fraction >= long_rep.violation_fraction
    dt = time.monotonic() - t0
    assert dt < 30.0
    print(f"\nACCEPTANCE 8 PASS: 8 seeds x 1e5 steps concentrate "
          f"(fractions {short_rep.violation_fraction:.3f} >= "
          f"{long_rep.violation_fraction:.3f}; {dt:.1f} s)")


def test_criterion_9_memory_augmentation_behavior_preservation():
    mem = di.memory_model([0.6, 0.2], 1.0, 1.0, 1.0, None, 1.0, 10, cost_memory=1,
                          initial_history=[[0.25], [-0.15]])
    m = di.augment_memory(mem)
    strat = oracles.lift_strategy(di.stationary_strategy([[-0.4, 0.05]], [[0.7]]), 1, 2)
    C, D = m.C(0), m.D(0)
    g = strat.gains[0]
    for seed in range(10):
        tr = di.sample_trajectory(m, strat, 10, seed=seed)
        b0, Z, V = _draw_noise(m, strat, 10, seed)
        hist = [float(b0[1]), float(b0[0])]
        for i in range(10):
            lag = np.array([hist[-1], hist[-2]])
            a = g @ lag + Z[i]
            step = C @ lag + D @ a + V[i]
            assert tr.B_path[i, 0] == step[0]
            assert tr.B_path[i, 1] == hist[-1]
            hist.append(float(step[0]))
    print("\nACCEPTANCE 9 PASS: augmented B-paths match the direct order-2 "
          "recursion bit-exactly on 10 seeds")


def test_criterion_10_lower_bound_guardrail(tmp_path):
    # unstable scalar reports carry the discrepancy note
    code, rep, _ = _cli_capacity(tmp_path, "m.json", C=2.0, kappa=9.0)
    lb = rep["lower_bound"]
    assert "lower bound" in lb["note"]
    assert lb["applies_from_kappa"] == pytest.approx(15.0)
    assert lb["applies"] is False and lb["satisfied"] is None

    # the bound itself holds on the grid, only inside the supported region
    for C in (1.5, 2.0, 3.0):
        threshold = C ** 4 - 1.0
        code, rep, _ = _cli_capacity(tmp_path, "m2.json", C=C, kappa=threshold * 1.25)
        lb = rep["lower_bound"]
        assert lb["applies"] is True
        assert lb["satisfied"] is True
        assert rep["result"]["capacity_nats"] >= math.log(C) - 1e-9
    print("\nACCEPTANCE 10 PASS: discrepancy note present; ln|C| bound asserted "
          "only on the supported region and holds there")
