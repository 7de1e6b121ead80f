import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import dirinfo as di
from dirinfo import capacity as cap
from dirinfo.cli import load_model
from dirinfo.errors import InfeasibleError, PreconditionError
import oracles
from conftest import random_spd, random_stable

HALF_LN2 = 0.5 * math.log(2.0)
HALF_LN25 = 0.5 * math.log(2.5)


# -- finite horizon ----------------------------------------------------------

def test_dp_single_step_matches_scalar_calculus_and_grid_search():
    s, kappa = 0.2, 1.0
    m = di.scalar_model(0.7, 1.0, 1.0, 1.0, 0.0, kappa, horizon=0)
    sol = cap.finite_horizon_dp(m, s)
    predicted = 0.5 * math.log(1.0 / (2 * s)) + s * kappa - (0.5 - s * 1.0)
    assert sol.value_nats == pytest.approx(predicted, abs=1e-12)
    # independent grid search over the single innovations variance
    grid = np.arange(0.0, 50.0, 1e-5)
    best = (0.5 * np.log(1.0 + grid) + s * kappa - s * grid).max()
    assert sol.value_nats == pytest.approx(best, abs=1e-9)
    assert sol.P_seq[0][0, 0] == 0.0
    assert sol.strategy.gains[0][0, 0] == 0.0


def test_dp_terminal_value_is_s_times_terminal_q():
    m = di.scalar_model(0.9, 1.0, 1.0, 1.0, 0.2, 1.0, horizon=7, terminal_Q=0.8)
    sol = cap.finite_horizon_dp(m, 0.4)
    assert sol.P_seq[7][0, 0] == 0.4 * 0.8


def test_dp_backward_pass_converges_to_stationary_solution():
    m = di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.0, 9.0, horizon=200, terminal_Q=1.0)
    sol = cap.finite_horizon_dp(m, 0.05)
    assert sol.P_seq[0][0, 0] == pytest.approx(0.15, abs=1e-9)
    assert sol.strategy.gains[0][0, 0] == pytest.approx(-1.5, abs=1e-9)


def test_dp_separation_principle_p_and_gain_ignore_noise_and_budget():
    a = cap.finite_horizon_dp(di.scalar_model(0.8, 1.0, 1.0, 1.0, 0.3, 1.0, horizon=20), 0.4)
    b = cap.finite_horizon_dp(di.scalar_model(0.8, 1.0, 3.0, 1.0, 0.3, 7.0, horizon=20), 0.4)
    for Pa, Pb in zip(a.P_seq, b.P_seq):
        np.testing.assert_array_equal(Pa, Pb)
    for ga, gb in zip(a.strategy.gains, b.strategy.gains):
        np.testing.assert_array_equal(ga, gb)


def test_dp_cost_identity_against_direct_path_recursion():
    m = di.scalar_model(0.8, 1.0, 1.2, 1.0, 0.3, 2.0, horizon=30)
    sol = cap.finite_horizon_dp(m, 0.4)
    KB = m.initial_second_moment()
    total = 0.0
    for i in range(31):
        g = sol.strategy.gains[i][0, 0]
        kz = sol.strategy.innovations[i][0, 0]
        total += g * g * KB[0, 0] + kz + m.Q(i)[0, 0] * KB[0, 0]
        acl = 0.8 + g
        KB = np.array([[acl * KB[0, 0] * acl + kz + 1.2]])
    assert sol.achieved_cost == pytest.approx(total / 31, rel=1e-12)


def test_ftfi_stable_reaches_memoryless_waterfill():
    m = di.scalar_model(0.5, 1.0, 1.0, 1.0, 0.0, 1.0, horizon=500)
    sol, c = cap.ftfi_capacity(m)
    assert c == pytest.approx(HALF_LN2, abs=1e-9)
    assert sol.achieved_cost == pytest.approx(1.0, abs=1e-8)


def test_ftfi_infeasible_budget_reports_cost_floor():
    # with an output cost the achievable cost is bounded away from zero
    m = di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.5, 0.01, horizon=10, terminal_Q=0.5)
    with pytest.raises(InfeasibleError):
        cap.ftfi_capacity(m)


def test_ftfi_zero_budget_is_zero_rate():
    m = di.scalar_model(0.5, 1.0, 1.0, 1.0, 0.0, 0.0, horizon=10)
    sol, c = cap.ftfi_capacity(m)
    assert c == 0.0
    assert not sol.strategy.innovations[0].any()


def test_ftfi_unstable_converges_to_stationary_closed_form_as_horizon_grows():
    # the per-unit-time value carries a Theta(1/n) surplus from the terminal
    # water-fill step; frozen values below were computed with the scalar
    # closed-form water-fill oracle before this module existed
    devs = {}
    for n in (100, 500, 2000):
        m = di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.0, 9.0, horizon=n, terminal_Q=1.0)
        _, c = cap.ftfi_capacity(m)
        devs[n] = abs(c - HALF_LN25)
    assert devs[100] == pytest.approx(1.23e-2, abs=2e-3)
    assert devs[500] == pytest.approx(2.48e-3, abs=4e-4)
    assert devs[100] > devs[500] > devs[2000]
    assert devs[2000] <= 1e-3


def test_dp_time_varying_two_step_manual_arithmetic():
    # n=1 with distinct per-step matrices, checked against hand recursion
    s = 0.3
    c0, c1 = 0.6, 1.2
    q0 = 0.2
    tq = 0.5
    kv0, kv1 = 1.0, 2.0
    m = di.channel_model([[[c0]], [[c1]]], [[[1.0]], [[1.0]]], [[[kv0]], [[kv1]]],
                         [[[1.0]], [[1.0]]], [[[q0]], [[0.0]]], 1.5, 1,
                         terminal_Q=tq, time_invariant=False)
    sol = cap.finite_horizon_dp(m, s)
    P1 = s * tq
    P0 = c0 * P1 * c0 + s * q0 - (c0 * P1) ** 2 / (P1 + s)
    assert sol.P_seq[1][0, 0] == pytest.approx(P1, abs=1e-15)
    assert sol.P_seq[0][0, 0] == pytest.approx(P0, abs=1e-12)
    kz1, v1 = oracles.scalar_solve(1.0, kv1, s * 1.0)
    kz0, v0 = oracles.scalar_solve(1.0, kv0, s * 1.0 + P1)
    r1 = v1 + s * 2 * 1.5
    r0 = r1 + v0 - P1 * kv0
    assert sol.r_seq[1] == pytest.approx(r1, abs=1e-9)
    assert sol.r_seq[0] == pytest.approx(r0, abs=1e-9)
    assert sol.strategy.innovations[0][0, 0] == pytest.approx(kz0, abs=1e-8)
    assert sol.strategy.innovations[1][0, 0] == pytest.approx(kz1, abs=1e-8)
    assert sol.value_nats == pytest.approx(r0, abs=1e-9)   # zero initial output


def test_per_unit_time_convergence_to_are_at_n500():
    cases = [
        (2.0, 0.0, 1.0, 0.05),
        (0.5, 0.0, 0.0, 0.25),
        (0.7, 0.4, 0.4, 0.3),
    ]
    for C, Q, termQ, s in cases:
        m = di.scalar_model(C, 1.0, 1.0, 1.0, Q, 1.0, horizon=500, terminal_Q=termQ)
        sol = cap.finite_horizon_dp(m, s)
        are = di.solve_are([[C]], [[1.0]], [[Q]], [[1.0]], s)
        assert abs(sol.P_seq[0][0, 0] - are.P[0, 0]) <= 1e-6
        assert abs(sol.strategy.gains[0][0, 0] - are.gain[0, 0]) <= 1e-6


# -- stationary --------------------------------------------------------------

def test_stationary_solve_unstable_chain():
    m = di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.0, 9.0)
    sol = cap.stationary_solve(m, 0.05)
    assert sol.P[0, 0] == pytest.approx(0.15, abs=1e-10)
    assert sol.gain[0, 0] == pytest.approx(-1.5, abs=1e-9)
    assert sol.KZ[0, 0] == pytest.approx(1.5, abs=1e-9)
    assert sol.KB[0, 0] == pytest.approx(10.0 / 3.0, abs=1e-8)
    assert sol.achieved_cost == pytest.approx(9.0, abs=1e-7)
    assert sol.rate_nats == pytest.approx(HALF_LN25, abs=1e-9)
    assert sol.regime == cap.REGIME_UNSTABLE_STABILIZED


def test_stationary_solve_stable_branch():
    m = di.scalar_model(0.5, 1.0, 1.0, 1.0, 0.0, 1.0)
    sol = cap.stationary_solve(m, 0.25)
    assert sol.P[0, 0] == 0.0
    assert sol.gain[0, 0] == 0.0
    assert sol.KZ[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert sol.achieved_cost == pytest.approx(1.0, abs=1e-9)
    assert sol.rate_nats == pytest.approx(HALF_LN2, abs=1e-9)
    assert sol.regime == cap.REGIME_STABLE_NO_FEEDBACK


def test_stationary_solve_zero_rate_branch():
    m = di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.0, 9.0)
    sol = cap.stationary_solve(m, 1.0)
    assert not sol.KZ.any()
    assert sol.regime == cap.REGIME_ZERO_RATE
    assert sol.gain[0, 0] == pytest.approx(-1.5, abs=1e-9)
    assert sol.rate_nats == 0.0


def test_feedback_capacity_stable():
    sol, c = di.feedback_capacity(di.scalar_model(0.5, 1.0, 1.0, 1.0, 0.0, 1.0))
    assert c == pytest.approx(HALF_LN2, abs=1e-9)
    assert sol.gain[0, 0] == 0.0
    assert sol.KZ[0, 0] == pytest.approx(1.0, abs=1e-8)


def test_feedback_capacity_unstable():
    sol, c = di.feedback_capacity(di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.0, 9.0))
    assert c == pytest.approx(HALF_LN25, abs=1e-9)
    assert sol.s == pytest.approx(0.05, abs=1e-8)
    assert sol.gain[0, 0] == pytest.approx(-1.5, abs=1e-9)
    assert sol.KZ[0, 0] == pytest.approx(1.5, abs=1e-8)


def test_feedback_capacity_below_stabilization_budget():
    sol, c = di.feedback_capacity(di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.0, 2.0))
    assert c == 0.0
    assert sol.regime == cap.REGIME_ZERO_RATE
    assert di.kappa_min(di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.0, 2.0)) == pytest.approx(3.0, abs=1e-9)


def test_feedback_capacity_infeasible_with_output_cost():
    # Q != 0 has no zero-rate fallback: the budget must cover stabilization
    m = di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.5, 0.1)
    with pytest.raises(InfeasibleError) as exc:
        di.feedback_capacity(m)
    assert exc.value.kappa_stab > 0.1


def test_constraint_activity_on_solved_instances():
    for C, kappa in [(0.5, 1.0), (2.0, 9.0), (0.9, 3.0), (3.0, 20.0)]:
        m = di.scalar_model(C, 1.0, 1.0, 1.0, 0.0, kappa)
        sol, _ = di.feedback_capacity(m)
        assert abs(sol.achieved_cost - kappa) <= 1e-6 * (1 + kappa)


def test_cost_identity_against_independent_covariance_recursion():
    m = di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.0, 9.0)
    sol, _ = di.feedback_capacity(m)
    # recompute the stationary output covariance by iterating the one-step map
    acl = 2.0 + sol.gain[0, 0]
    w = sol.KZ[0, 0] + 1.0
    K = np.zeros((1, 1))
    for _ in range(400):
        K = di.lyapunov_step(K, [[acl]], [[w]])
    cost = sol.gain[0, 0] ** 2 * K[0, 0] + sol.KZ[0, 0]
    assert cost == pytest.approx(sol.achieved_cost, abs=1e-8)


def test_kappa_min_examples():
    assert di.kappa_min(di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.0, 1.0)) == pytest.approx(3.0, abs=1e-9)
    assert di.kappa_min(di.scalar_model(0.5, 1.0, 1.0, 1.0, 0.0, 1.0)) == 0.0
    assert di.kappa_min(di.scalar_model(3.0, 2.0, 1.0, 1.0, 0.0, 1.0)) == pytest.approx(2.0, abs=1e-9)


def test_zero_information_identity():
    m = di.scalar_model(0.5, 1.0, 1.0, 1.0, 0.0, 0.0)
    sol, c = di.feedback_capacity(m)
    assert not sol.KZ.any()
    assert c == 0.0


def test_mimo_output_cost_chain_self_consistency(rng):
    # Q != 0: the gain also shapes the output, every returned quantity must
    # satisfy its defining equation at the returned multiplier
    from dirinfo import waterfill as wf
    C = rng.normal(size=(2, 2)) * 1.1
    D = rng.normal(size=(2, 2)) + 0.5 * np.eye(2)
    KV = random_spd(rng, 2, floor=0.5)
    R = random_spd(rng, 2, floor=0.5)
    Q = random_spd(rng, 2, floor=0.2)
    floor = di.kappa_min(di.channel_model(C, D, KV, R, Q, 0.0, 0))
    kappa = 2.0 * floor + 3.0
    m = di.channel_model(C, D, KV, R, Q, kappa, 0)
    sol, c = di.feedback_capacity(m)
    assert abs(sol.achieved_cost - kappa) <= 1e-6 * (1 + kappa)
    # ARE fixed point
    Pn, blocks = di.riccati_backward_step(sol.P, C, D, Q, R, sol.s)
    assert np.linalg.norm(Pn - sol.P) <= 1e-9 * (1 + np.linalg.norm(sol.P))
    np.testing.assert_allclose(sol.gain, di.optimal_gain(blocks), atol=1e-10)
    # water-fill KKT at the returned innovations covariance
    prob = wf.WaterfillProblem(D=D, KV=KV, weight=sol.s * R + D.T @ sol.P @ D)
    g = wf.gradient(prob, sol.KZ)
    assert np.linalg.eigvalsh(g).max() <= 1e-8
    assert abs(float(np.tensordot(sol.KZ, g))) <= 1e-8
    # output covariance solves its stationary equation
    Acl = C + D @ sol.gain
    W = D @ sol.KZ @ D.T + KV
    assert np.linalg.norm(sol.KB - Acl @ sol.KB @ Acl.T - W) <= 1e-9 * (1 + np.linalg.norm(W))
    # rate formula
    assert sol.rate_nats == pytest.approx(
        0.5 * (np.linalg.slogdet(W)[1] - np.linalg.slogdet(KV)[1]), abs=1e-10)
    assert c == sol.rate_nats


def test_mimo_unstable_q0_feedback_capacity_positive(rng):
    # mixed stable/unstable modes, Q = 0: enough budget buys a positive rate
    C = np.diag([1.3, 0.4])
    m = di.channel_model(C, np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)), 8.0, 0)
    kmin = di.kappa_min(m)
    assert kmin == pytest.approx(1.3 ** 2 - 1.0, abs=1e-8)
    sol, c = di.feedback_capacity(m)
    assert c > 0
    assert sol.regime == "unstable_stabilized"
    assert abs(sol.achieved_cost - 8.0) <= 1e-6 * 9.0
    # below the stabilization cost the rate collapses to zero
    starved = di.channel_model(C, np.eye(2), np.eye(2), np.eye(2),
                               np.zeros((2, 2)), 0.5 * kmin, 0)
    sol0, c0 = di.feedback_capacity(starved)
    assert c0 == 0.0 and sol0.regime == "zero_rate"


def test_tiny_stabilizing_gain_is_unstable_stabilized():
    # C = 1 + 1e-6 is stabilized by a gain of about -2e-10: the regime follows
    # a nonzero gain, whatever its size, as the closed form's does
    sol, _ = di.feedback_capacity(di.scalar_model(1.0 + 1e-6, 1e4, 1.0, 1.0, 0.0, 5.0))
    *_, regime = di.scalar_feedback_capacity(1.0 + 1e-6, 1e4, 1.0, 5.0)
    assert sol.regime == regime == "unstable_stabilized"
    assert sol.gain[0, 0] < 0.0


def test_scalar_chain_fuzz_against_closed_form(rng):
    # random (C, D, KV, R, kappa) cells, general R, both D signs
    for _ in range(40):
        C = float(rng.uniform(0.05, 3.5))
        if abs(C - 1.0) < 0.03:
            continue
        D = float(rng.uniform(0.2, 3.0)) * (1 if rng.random() < 0.5 else -1)
        KV = float(rng.uniform(0.1, 4.0))
        R = float(rng.uniform(0.2, 5.0))
        kappa = float(rng.uniform(0.05, 40.0))
        sol, c = di.feedback_capacity(di.scalar_model(C, D, KV, R, 0.0, kappa))
        c_o, g_o, kz_o, _ = di.scalar_feedback_capacity(C, D, KV, kappa, R=R)
        assert abs(c - c_o) <= 1e-6
        assert abs(sol.gain[0, 0] - g_o) <= 1e-6
        assert abs(sol.KZ[0, 0] - kz_o) <= 1e-6


# -- scalar closed form ------------------------------------------------------

def test_scalar_closed_form_examples():
    assert di.scalar_feedback_capacity(0.5, 1, 1, 1) == (HALF_LN2, 0.0, 1.0, "stable_no_feedback")
    c, g, kz, regime = di.scalar_feedback_capacity(2, 1, 1, 9)
    assert (c, g, kz, regime) == (pytest.approx(HALF_LN25), -1.5, 1.5, "unstable_stabilized")
    assert di.scalar_feedback_capacity(2, 1, 1, 3) == (0.0, -1.5, 0.0, "zero_rate")


def test_scalar_closed_form_boundary_is_indeterminate():
    with pytest.raises(PreconditionError, match="boundary"):
        di.scalar_feedback_capacity(1.0, 1, 1, 1)


def test_scalar_closed_form_general_r_rescaling():
    # cost R A^2 with R=4 is the R=1 channel with D halved
    c, g, kz, regime = di.scalar_feedback_capacity(2.0, 1.0, 1.0, 9.0, R=4.0)
    c2, g2, kz2, _ = di.scalar_feedback_capacity(2.0, 0.5, 1.0, 9.0)
    assert c == pytest.approx(c2, abs=1e-12)
    assert g == pytest.approx(-(4 - 1) / (2 * 1))
    assert kz == pytest.approx(kz2 / 4.0, abs=1e-12)


def test_closed_form_agreement_grid():
    for C in (0.2, 0.5, 0.9, 1.5, 2.0, 3.0):
        for kappa in (0.5, 1.0, 3.0, 5.0, 9.0, 20.0):
            m = di.scalar_model(C, 1.0, 1.0, 1.0, 0.0, kappa)
            sol, c = di.feedback_capacity(m)
            c_o, g_o, kz_o, _ = di.scalar_feedback_capacity(C, 1.0, 1.0, kappa)
            assert abs(c - c_o) <= 1e-6
            assert abs(sol.gain[0, 0] - g_o) <= 1e-6
            assert abs(sol.KZ[0, 0] - kz_o) <= 1e-6


def test_universal_lower_bound_on_supported_region():
    for C in (1.5, 2.0, 3.0):
        threshold = (C ** 4 - 1.0)   # (C^4-1) K_V / D^2 with K_V = D = 1
        for kappa in (threshold, 1.5 * threshold):
            _, c = di.feedback_capacity(di.scalar_model(C, 1.0, 1.0, 1.0, 0.0, kappa))
            assert c >= math.log(C) - 1e-9


# -- no-feedback comparator --------------------------------------------------

def test_nofeedback_matches_feedback_on_stable_scalar():
    m = di.scalar_model(0.5, 1.0, 1.0, 1.0, 0.0, 1.0)
    assert di.nofeedback_capacity_q0(m) == pytest.approx(HALF_LN2, abs=1e-9)


def test_nofeedback_zero_for_unstable():
    assert di.nofeedback_capacity_q0(di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.0, 5.0)) == 0.0


def test_nofeedback_symmetric_mimo_split():
    m = di.channel_model(0.5 * np.eye(2), np.eye(2), np.eye(2), np.eye(2),
                         np.zeros((2, 2)), 2.0, 0)
    got = di.nofeedback_capacity_q0(m)
    assert got == pytest.approx(math.log(2.0), abs=1e-8)
    # grid-search oracle over diagonal power splits
    best = max(0.5 * math.log(1 + k1) + 0.5 * math.log(1 + (2.0 - k1))
               for k1 in np.arange(0.0, 2.0001, 1e-3))
    assert got == pytest.approx(best, abs=1e-6)


def test_nofeedback_rejects_nonzero_q():
    m = di.scalar_model(0.5, 1.0, 1.0, 1.0, 0.4, 1.0)
    with pytest.raises(PreconditionError, match="Q = 0"):
        di.nofeedback_capacity_q0(m)


def test_feedback_dominates_nofeedback_and_ties_when_stable(rng):
    for C in (0.2, 0.5, 0.9):
        for kappa in (0.5, 1.0, 3.0):
            m = di.scalar_model(C, 1.0, 1.0, 1.0, 0.0, kappa)
            _, fb = di.feedback_capacity(m)
            nofb = di.nofeedback_capacity_q0(m)
            assert fb >= nofb - 1e-9
            assert abs(fb - nofb) <= 1e-8
    for _ in range(2):
        C = random_stable(rng, 2, radius=rng.uniform(0.3, 0.8))
        D = rng.normal(size=(2, 2)) + np.eye(2)
        KV = random_spd(rng, 2, floor=0.5)
        R = random_spd(rng, 2, floor=0.5)
        m = di.channel_model(C, D, KV, R, np.zeros((2, 2)), 2.5, 0)
        _, fb = di.feedback_capacity(m)
        nofb = di.nofeedback_capacity_q0(m)
        assert fb >= nofb - 1e-9
        assert abs(fb - nofb) <= 1e-8


@pytest.mark.parametrize("s", [float("nan"), float("inf"), 0.0, -1.0])
def test_fixed_multiplier_entry_points_reject_non_finite_or_nonpositive_s(s):
    m = di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.0, 9.0, horizon=5)
    with pytest.raises(PreconditionError, match="positive and finite"):
        cap.stationary_solve(m, s)
    with pytest.raises(PreconditionError, match="positive and finite"):
        cap.finite_horizon_dp(m, s)


def _unactuated():
    # a stable channel whose input does not reach the output (D = 0): it
    # validates and is stabilizable, and the zero gain already stabilizes it
    return di.scalar_model(0.5, 0.0, 1.0, 1.0, 0.0, 2.0)


def test_unactuated_stable_channel_needs_no_power():
    assert di.kappa_min(_unactuated()) == 0.0


def test_unactuated_stable_channel_solves_without_feedback():
    sol = cap.stationary_solve(_unactuated(), 1.0)
    assert sol.regime == "stable_no_feedback"
    assert not sol.gain.any() and not sol.KZ.any()
    assert sol.rate_nats == 0.0


def test_unactuated_stable_channel_capacity_is_a_named_precondition():
    with pytest.raises(PreconditionError, match="no subchannel carries information"):
        di.feedback_capacity(_unactuated())


# -- extreme but finite budgets and multipliers ---------------------------------

@pytest.mark.parametrize("kappa", [1e150, 1e160])
def test_feedback_capacity_at_a_huge_budget_answers_or_names_the_overflow(kappa):
    # |D K_Z D^T + K_V| overflows above about 1e154: a named failure, not a numpy
    # warning or a Lyapunov error that blames the closed loop
    m = di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.0, kappa)
    if kappa < 1e154:
        ref = cap.scalar_feedback_capacity(2.0, 1.0, 1.0, kappa)[0]
        assert di.feedback_capacity(m)[1] == pytest.approx(ref, rel=1e-12)
        return
    with pytest.raises(PreconditionError, match=r"^multiplier s = 5e-161: the output covariance"):
        di.feedback_capacity(m)


def test_ftfi_budget_beyond_the_largest_float_names_kappa():
    # (n + 1) kappa overflows, and so does the water level that would spend it
    m = di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.0, 1e307, horizon=30)
    with pytest.raises(PreconditionError, match=r"^power budget kappa = 1e\+307: the water level"):
        cap.ftfi_capacity(m)


@pytest.mark.parametrize("s", [1e-300, 1e-308, 1e-320])
def test_tiny_fixed_multiplier_answers_or_names_s(s):
    # each of the 4 steps spends about 1/(2s): at 1e-308 the total overflows, and
    # at 1e-320 the level itself; the stationary output covariance overflows first
    m = di.scalar_model(0.5, 1.0, 1.0, 1.0, 0.0, 1.0, horizon=3)
    if s == 1e-300:
        assert math.isfinite(cap.finite_horizon_dp(m, s).value_nats)
        return
    with pytest.raises(PreconditionError, match=rf"^multiplier s = {s:.12g}: the water-fill"):
        cap.finite_horizon_dp(m, s)
    with pytest.raises(PreconditionError, match=rf"^multiplier s = {s:.12g}: the "):
        cap.stationary_solve(dataclasses.replace(m, horizon=0), s)


# -- the closed-loop spectrum is taken only when read --------------------------

DOCS = Path(__file__).resolve().parent.parent / "docs" / "models"

SPECTRUM_FREE = {
    **{name: (lambda name=name: load_model(str(DOCS / f"{name}.json")))
       for name in ("scalar_unstable", "scalar_stable", "mimo_stable", "memory_order2")},
    "scalar_q_nonzero": lambda: di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.5, 30.0),
    "mimo_q_eye": lambda: di.channel_model([[1.2, 0.3], [0.0, 0.5]], [[1.0], [0.6]], np.eye(2),
                                           1.0, np.eye(2), 30.0, 0),
}


@pytest.mark.parametrize("name", sorted(SPECTRUM_FREE))
def test_capacity_paths_take_no_closed_loop_spectrum(monkeypatch, name):
    m = SPECTRUM_FREE[name]()
    radius, calls = di.stability.spectral_radius, []

    def counted(A):
        calls.append(1)
        return radius(A)

    monkeypatch.setattr(di.stability, "spectral_radius", counted)
    sol, _ = cap.feedback_capacity(m)
    cap.stationary_solve(m, sol.s)
    cells = cap._kappa_cells(m, [0.5 * m.kappa, m.kappa, 2.0 * m.kappa])
    assert sol.KB is not None and all(not isinstance(c, Exception) for c in cells)
    assert calls == []
    are = cap._unit_solution(m)[0]
    assert are.stabilizing == radius(are.closed_loop).stable and calls == [1]
