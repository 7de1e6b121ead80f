"""Newton's method for the ARE and Smith doubling for the Lyapunov equation.

Near-marginal scalar channels are checked against the closed forms,
random stabilizable MIMO models (also with modes near the unit circle and
weakly actuated input directions) against scipy's ARE solver, and the
Lyapunov solve against scipy's at p = 32 and at spectral radius 1 - 1e-6.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_are, solve_discrete_lyapunov

import dirinfo as di
from dirinfo import capacity, cli, riccati, stability, waterfill
from dirinfo.errors import DirinfoError, PreconditionError
from dirinfo.linalg import sym
from conftest import random_spd, random_stable
import oracles

MARGINS = (1e-2, 1e-4, 1e-5, 1e-6, 1e-8)
NEAR_MARGINAL = [sign * (1.0 + side * margin)
                 for margin in MARGINS for side in (1.0, -1.0) for sign in (1.0, -1.0)]


@pytest.mark.parametrize("C", NEAR_MARGINAL)
def test_solve_are_near_marginal_scalar_matches_closed_form(C):
    s = 0.7
    sol = di.solve_are([[C]], [[1.0]], [[0.0]], [[1.0]], s)
    a = abs(C)
    # s (C^2 - 1) without the cancellation of forming C^2 first; the ARE
    # itself loses about eps / (|C| - 1) relative accuracy
    ref = s * (a - 1.0) * (a + 1.0) if a > 1.0 else 0.0
    assert sol.stabilizing
    assert sol.residual <= riccati.TOL_ARE
    assert sol.P[0, 0] == pytest.approx(ref, rel=1e-14 / abs(a - 1.0), abs=0.0)
    assert sol.iterations <= 50


@pytest.mark.parametrize("C", NEAR_MARGINAL)
def test_feedback_capacity_near_marginal_scalar_matches_closed_form(C):
    m = di.channel_model(C, 1.0, 1.0, 1.0, 0.0, 2.0, 0)
    sol, cap = di.feedback_capacity(m)
    ref_cap, ref_gain, ref_kz, ref_regime = capacity.scalar_feedback_capacity(C, 1.0, 1.0, 2.0)
    assert cap == pytest.approx(ref_cap, abs=1e-12)
    assert sol.gain[0, 0] == pytest.approx(ref_gain, abs=1e-12)
    assert sol.KZ[0, 0] == pytest.approx(ref_kz, abs=1e-12)
    assert sol.regime == ref_regime


@pytest.mark.parametrize("C", [1.0, -1.0])
def test_unit_circle_is_a_named_precondition_failure(C):
    with pytest.raises(PreconditionError, match=r"Q = 0 and C has an eigenvalue on the unit circle"):
        di.solve_are([[C]], [[1.0]], [[0.0]], [[1.0]], 1.0)
    with pytest.raises(PreconditionError):
        di.feedback_capacity(di.channel_model(C, 1.0, 1.0, 1.0, 0.0, 2.0, 0))


@pytest.mark.parametrize("C", [1.001, 1.5, 50.0])
@pytest.mark.parametrize("R", [1e-6, 1.0, 1e6])
def test_solve_are_start_does_not_depend_on_the_scale_of_r(C, R):
    sol = di.solve_are([[C]], [[1.0]], [[0.0]], [[R]], 1.0)
    assert sol.P[0, 0] == pytest.approx(R * (C - 1.0) * (C + 1.0), rel=1e-10)
    assert sol.iterations <= 30


def test_newton_cap_hands_its_last_iterate_to_the_certificate(monkeypatch):
    # Q = 0 takes no Newton step; with Q != 0 Newton runs from the zero gain of a stable C.
    # Three steps leave the residual at 2.8e-4, and the cost of the gain declines it
    monkeypatch.setattr(riccati, "_MAX_ITER", 3)
    with pytest.raises(PreconditionError, match=r"^ill-conditioned Riccati equation: the ARE "
                       r"residual is 2\.8\d*e-04, and the cost of P's own gain differs"):
        di.solve_are([[0.9]], [[1.0]], [[1.0]], [[1.0]], 1.0)


def test_newton_cap_iterate_is_certified_whatever_its_residual(monkeypatch):
    # at five steps the residual is within TOL_ARE but the move has not stopped
    # shrinking: the cap, not the stop rule, ends Newton, so the certificate judges
    certify, calls = riccati._certify, []
    monkeypatch.setattr(riccati, "_certify", lambda *a: calls.append(a[3]) or certify(*a))
    sol = di.solve_are([[0.9]], [[1.0]], [[1.0]], [[1.0]], 1.0)
    assert (sol.iterations, calls) == (6, [])      # the stop rule ends it: no certificate
    monkeypatch.setattr(riccati, "_MAX_ITER", 5)
    capped = di.solve_are([[0.9]], [[1.0]], [[1.0]], [[1.0]], 1.0)
    assert capped.iterations == 5
    assert capped.residual <= riccati.TOL_ARE
    assert calls == [capped.residual]
    assert capped.P[0, 0] == pytest.approx(sol.P[0, 0], rel=1e-14)


def _stabilizable_model(seed, p, q, radius, output_cost):
    rng = np.random.default_rng(seed)
    C = rng.normal(size=(p, p))
    C *= radius / max(abs(np.linalg.eigvals(C)))
    D = rng.normal(size=(p, q))
    Q = random_spd(rng, p, floor=0.1) if output_cost else np.zeros((p, p))
    return C, D, Q, random_spd(rng, q, floor=0.3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 8), q_frac=st.floats(0.0, 1.0),
       radius=st.floats(0.2, 2.0), output_cost=st.booleans(), s=st.floats(0.05, 5.0))
def test_solve_are_matches_scipy_on_random_stabilizable_models(seed, p, q_frac, radius,
                                                              output_cost, s):
    q = 1 + int(q_frac * (p - 1))
    C, D, Q, R = _stabilizable_model(seed, p, q, radius, output_cost)
    assume(di.is_stabilizable(C, D))
    if not output_cost:
        # Q = 0: the stabilizing solution needs every mode of C off the unit
        # circle, and its conditioning degrades as a mode approaches it
        assume(np.abs(np.abs(np.linalg.eigvals(C)) - 1.0).min() > 0.05)
    sol = di.solve_are(C, D, Q, R, s)
    ref = solve_discrete_are(C, D, s * Q, s * R)
    assert sol.stabilizing
    assert sol.residual <= riccati.TOL_ARE
    np.testing.assert_allclose(sol.P, ref, rtol=0, atol=1e-8 * (1.0 + np.linalg.norm(ref)))


@pytest.mark.parametrize("weak", [1e-3, 1e-5])
@pytest.mark.parametrize("output_cost", [0.0, 1.0])
def test_solve_are_weakly_actuated_direction_matches_scipy(weak, output_cost):
    # value iteration from P = 0 takes about 170 steps (weak = 1e-3) and 400
    # (weak = 1e-5) before its gain stabilizes the second mode
    C = 1.02 * np.eye(2)
    D = np.diag([1.0, weak])
    Q = output_cost * np.eye(2)
    R = np.eye(2)
    sol = di.solve_are(C, D, Q, R, 1.0)
    ref = solve_discrete_are(C, D, Q, R)
    assert sol.stabilizing
    assert sol.residual <= riccati.TOL_ARE
    assert sol.iterations <= 40
    np.testing.assert_allclose(sol.P, ref, rtol=0, atol=1e-9 * (1.0 + np.linalg.norm(ref)))


def _near_marginal_model(seed, p, q, output_cost):
    """Modes 1e-4 to 0.5 from the unit circle in a random orthonormal basis; D with
    singular values down to 1e-3 of its largest, in random input and output bases."""
    rng = np.random.default_rng(seed)

    def orthonormal(n):
        return np.linalg.qr(rng.normal(size=(n, n)))[0]

    T = orthonormal(p)
    sign, side = rng.choice([-1.0, 1.0], size=(2, p))
    C = (T * sign * (1.0 + side * 10 ** rng.uniform(-4, -0.3, p))) @ T.T
    sv = np.sort(10 ** rng.uniform(-3, 0, q))[::-1]
    sv[0] = 1.0
    D = (orthonormal(p)[:, :q] * sv) @ orthonormal(q) * 10 ** rng.uniform(-1, 1)
    R = random_spd(rng, q, floor=0.3)
    Q = random_spd(rng, p, floor=0.1) if output_cost else np.zeros((p, p))
    return C, D, Q, R


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 6), q_frac=st.floats(0.0, 1.0),
       output_cost=st.booleans(), s=st.floats(0.05, 5.0))
def test_solve_are_matches_scipy_near_the_unit_circle(seed, p, q_frac, output_cost, s):
    q = 1 + int(q_frac * (p - 1))
    C, D, Q, R = _near_marginal_model(seed, p, q, output_cost)
    assume(di.is_stabilizable(C, D))
    sol = di.solve_are(C, D, Q, R, s)
    ref = solve_discrete_are(C, D, s * Q, s * R)
    assert sol.stabilizing
    assert sol.residual <= riccati.TOL_ARE
    np.testing.assert_allclose(sol.P, ref, rtol=0, atol=1e-6 * (1.0 + np.linalg.norm(ref)))


def test_newton_steps_are_gated_by_the_are_residual_not_by_tol_lyap():
    # modes at 0.9998 and 1.0054, one input: the closed loop of the start gain is
    # so far from normal that the residual of its cost misses TOL_LYAP relative
    # to 1 + |W|, yet Newton reaches an ARE residual within TOL_ARE
    C, D, Q, R = _near_marginal_model(973002648, 2, 1, True)
    sol = di.solve_are(C, D, Q, R, 1.0)
    ref = solve_discrete_are(C, D, Q, R)
    assert sol.stabilizing
    assert sol.residual <= riccati.TOL_ARE
    np.testing.assert_allclose(sol.P, ref, rtol=0, atol=1e-7 * (1.0 + np.linalg.norm(ref)))


def test_smith_doubling_reports_the_residual_that_solve_lyapunov_gates():
    # |A^k| grows to about 2e5 before it decays and |Sigma| reaches 1.6e12 against
    # |W| = 2: the solution is accurate to rounding, but its residual, measured
    # against 1 + |W|, misses TOL_LYAP
    A = 0.9 * np.eye(4) + 10.0 * np.eye(4, k=1)
    W = np.eye(4)
    ref = solve_discrete_lyapunov(A, W)
    Sigma, resid = stability.smith_doubling(A, W)
    np.testing.assert_allclose(Sigma, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    assert resid > stability.TOL_LYAP
    with pytest.raises(PreconditionError, match=r"residual too large \(8\.\d+e-05"):
        di.solve_lyapunov(A, W)


@pytest.mark.parametrize("radius", [0.5, 0.9, 0.99, 0.999])
def test_solve_lyapunov_matches_scipy_at_p32(radius, rng):
    A = random_stable(rng, 32, radius=radius)
    W = random_spd(rng, 32)
    ref = solve_discrete_lyapunov(A, W)
    ours = di.solve_lyapunov(A, W)
    np.testing.assert_array_equal(ours, ours.T)
    np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-10 * np.abs(ref).max())


@pytest.mark.parametrize("p", [1, 2, 8, 32])
def test_solve_lyapunov_matches_scipy_at_radius_one_minus_1e6(p, rng):
    # an orthogonal eigenbasis keeps the residual gate within reach: the
    # solution grows like 1 / (1 - rho^2) = 5e5 along the slow mode
    U, _ = np.linalg.qr(rng.normal(size=(p, p)))
    lam = rng.uniform(-0.9, 0.9, size=p)
    lam[0] = 1.0 - 1e-6
    A = (U * lam) @ U.T
    W = random_spd(rng, p)
    ref = solve_discrete_lyapunov(A, W)
    np.testing.assert_allclose(di.solve_lyapunov(A, W), ref, rtol=0,
                               atol=1e-8 * np.abs(ref).max())


def test_solve_lyapunov_refines_on_a_non_normal_closed_loop():
    # |A| = 10 at spectral radius 0.5: one pass of squaring misses TOL_LYAP
    A = 0.5 * np.eye(4) + 10.0 * np.eye(4, k=1)
    W = np.eye(4)
    ref = solve_discrete_lyapunov(A, W)
    np.testing.assert_allclose(di.solve_lyapunov(A, W), ref, rtol=0,
                               atol=1e-12 * np.abs(ref).max())


def test_capacity_report_takes_kappa_min_from_the_solution_in_hand(monkeypatch):
    calls = []
    solve_are = riccati.solve_are
    monkeypatch.setattr(riccati, "solve_are", lambda *a: calls.append(a) or solve_are(*a))
    model = Path(__file__).resolve().parents[1] / "docs" / "models" / "scalar_unstable.json"
    code, report = cli.run(cli.parse_config(["capacity", "--model", str(model)]))
    assert code == 0
    # one solve at s = 1 gives the floor, and the strategy at s* is a view of it
    assert len(calls) == 1
    assert report["result"]["kappa_min"] == pytest.approx(3.0, rel=1e-12)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 6), q_frac=st.floats(0.0, 1.0),
       radius=st.floats(0.2, 2.0), output_cost=st.booleans(), log_s=st.floats(-3.0, 3.0))
def test_stationary_solve_is_the_unit_multiplier_solution_scaled(seed, p, q_frac, radius,
                                                                 output_cost, log_s):
    # one ARE solve at s = 1 serves every multiplier over six decades: P = s P_1,
    # the water-fill at weight sR + D^T P D, and the residual of the returned P
    q = 1 + int(q_frac * (p - 1))
    C, D, Q, R = _stabilizable_model(seed, p, q, radius, output_cost)
    assume(di.is_stabilizable(C, D))
    if not output_cost:
        assume(np.abs(np.abs(np.linalg.eigvals(C)) - 1.0).min() > 0.05)
    KV = random_spd(np.random.default_rng(seed + 1), p, floor=0.3)
    s = 10.0 ** log_s
    sol = capacity.stationary_solve(di.channel_model(C, D, KV, R, Q, 1.0, 0), s)
    ref = solve_discrete_are(C, D, s * Q, s * R)
    np.testing.assert_allclose(sol.P, ref, rtol=0, atol=1e-8 * (1.0 + np.linalg.norm(ref)))
    KZ, _ = waterfill.solve(waterfill.WaterfillProblem(D, KV, sym(s * R + D.T @ sol.P @ D)))
    assert np.linalg.norm(sol.KZ - KZ) <= 1e-12 * (1.0 + np.linalg.norm(KZ))
    Pn, _ = riccati.riccati_backward_step(sol.P, C, D, Q, R, s)
    resid = float(np.linalg.norm(Pn - sol.P) / (1.0 + np.linalg.norm(sol.P)))
    assert sol.are_residual <= riccati.TOL_ARE
    assert resid <= riccati.TOL_ARE
    assert abs(sol.are_residual - resid) <= 1e-13


def _solve_or_error(*args):
    try:
        return di.solve_are(*args)
    except DirinfoError as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 6), q_frac=st.floats(0.0, 1.0),
       radius=st.floats(0.2, 2.0), output_cost=st.booleans(), log_s=st.floats(-3.0, 3.0))
def test_solve_are_applies_the_multiplier_as_s_q_and_s_r(seed, p, q_frac, radius, output_cost,
                                                         log_s):
    # the equation depends on s only through sQ and sR: the same bits either way,
    # or the same named failure
    q = 1 + int(q_frac * (p - 1))
    C, D, Q, R = _stabilizable_model(seed, p, q, radius, output_cost)
    s = 10.0 ** log_s
    sol = _solve_or_error(C, D, Q, R, s)
    ref = _solve_or_error(C, D, s * Q, s * R, 1.0)
    if isinstance(ref, tuple):
        assert sol == ref
        return
    assert sol.P.tobytes() == ref.P.tobytes()
    assert sol.gain.tobytes() == ref.gain.tobytes()
    assert (sol.residual, sol.iterations) == (ref.residual, ref.iterations)


def test_output_covariance_failure_names_the_lyapunov_residual():
    # the gain is zero and the closed loop C has spectral radius 0.9, but
    # |Sigma| >> |W| puts the Lyapunov residual above TOL_LYAP (see above)
    C = 0.9 * np.eye(4) + 10.0 * np.eye(4, k=1)
    m = di.channel_model(C, np.eye(4), np.eye(4), np.eye(4), np.zeros((4, 4)), 4.0, 0)
    sol, cap = di.feedback_capacity(m)
    assert cap == pytest.approx(di.nofeedback_capacity_q0(m), rel=1e-12)
    assert cap == pytest.approx(2 * np.log(2.0), rel=1e-12)
    # the capacity and its cost need no K_B: it is absent, with the decline as its reason
    assert sol.KB is None
    assert "Lyapunov solve residual too large" in sol.KB_declined
    assert "spectral radius 0.9" in sol.KB_declined


@pytest.mark.parametrize("C,Q", [(0.5, 0.0), (2.0, 0.0), (0.5, 0.3), (1.5, 0.2)])
def test_cost_floor_at_any_multiplier_matches_kappa_min(C, Q):
    m = di.channel_model(C, 1.0, 1.3, 0.8, Q, 20.0, 0)
    for s in (0.05, 1.0, 3.0):
        sol = capacity.stationary_solve(m, s)
        assert capacity.cost_floor(m, sol.P, sol.s) == pytest.approx(
            capacity.kappa_min(m), rel=1e-12, abs=0.0)


def test_kappa_min_of_an_unstable_channel_with_a_tiny_gain_is_the_closed_form():
    # the gain, -2e-10, is below the regime's zero-gain threshold, yet C is unstable
    C, D = 1.0 + 1e-6, 1e4
    m = di.channel_model(C, D, 1.0, 1.0, 0.0, 5.0, 0)
    assert capacity.kappa_min(m) == pytest.approx(capacity.scalar_kappa_min(C, D, 1.0),
                                                  rel=1e-9, abs=0.0)


def test_finite_horizon_strategy_is_frozen_and_valid():
    m = di.channel_model(2.0, 1.0, 1.0, 1.0, 0.0, 9.0, 20)
    strat = capacity.finite_horizon_dp(m, 0.1).strategy
    for a in (*strat.gains, *strat.innovations):
        assert not a.flags.writeable
    checked = di.strategy(strat.gains, strat.innovations)
    for a, b in zip(checked.innovations, strat.innovations):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("p, c", [(24, 1e8), (32, 1e12), (8, 1e40)])
@pytest.mark.parametrize("solve", [stability.smith_doubling, stability.solve_lyapunov])
def test_lyapunov_solve_raises_when_squaring_overflows(p, c, solve):
    # stable (spectral radius 0.99) but so non-normal that a power of A or
    # Sigma overflows; the nan residual must not pass the gate
    A = 0.99 * np.eye(p) + c * np.eye(p, k=1)
    with pytest.raises(PreconditionError, match="not finite"):
        solve(A, np.eye(p))


@pytest.mark.parametrize("solve", [stability.smith_doubling, stability.solve_lyapunov])
def test_lyapunov_solve_of_a_stable_loop_takes_no_spectrum(solve, rng, monkeypatch):
    # the doubling's own powers judge the loop; its spectrum is taken only on failure
    A = random_stable(rng, 32, radius=0.99)
    W = random_spd(rng, 32)
    ref = solve_discrete_lyapunov(A, W)

    def no_spectrum(_):
        raise AssertionError("spectral_radius called on a stable loop")

    monkeypatch.setattr(stability, "spectral_radius", no_spectrum)
    ours = solve(A, W)
    ours = ours[0] if solve is stability.smith_doubling else ours
    np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-10 * np.abs(ref).max())


@pytest.mark.parametrize("A", [[[0.0, -1.0], [1.0, 0.0]], [[1.0 + 1e-12]]],
                         ids=["rotation", "1+1e-12"])
@pytest.mark.parametrize("solve", [stability.smith_doubling, stability.solve_lyapunov])
def test_lyapunov_solve_names_a_loop_on_the_unit_circle(A, solve):
    with pytest.raises(PreconditionError) as info:
        solve(A, np.eye(len(A)))
    assert str(info.value) == "closed loop not exponentially stable (spectral radius 1)"


@pytest.mark.parametrize("C", [1.0 + 1e-10, 1.0 - 1e-10, -(1.0 + 5e-10)])
def test_q_nonzero_channel_at_the_circle_answers_the_kleinman_oracle(C):
    # Newton's closed loops lie within TOL_SPEC of the unit circle (about 1 - 1.4e-10):
    # the doubling solves them, and the ARE residual judges the answer
    sol = di.solve_are([[C]], [[1.0]], [[1e-20]], [[1.0]], 1.0)
    ref = oracles.stabilizing_are_kleinman([[C]], [[1.0]], [[1e-20]], [[1.0]])
    np.testing.assert_allclose(sol.P, ref, rtol=1e-6, atol=0.0)
    kappa = 5.0
    fb, _ = di.feedback_capacity(di.channel_model(C, 1.0, 1.0, 1.0, 1e-20, kappa, 0))
    assert abs(fb.achieved_cost - kappa) <= capacity.COST_TOL * (1.0 + kappa)
