import re

import numpy as np
import pytest

import dirinfo as di
from dirinfo import riccati
from dirinfo.errors import ModelValidationError, PreconditionError
import oracles
from conftest import random_spd, random_stable


def test_backward_step_fixed_point_of_unstable_scalar():
    # P = s (C^2 - 1)/D^2 = 3 is a fixed point for C=2, D=1, Q=0, R=1, s=1
    P, _ = riccati.riccati_backward_step([[3.0]], [[2.0]], [[1.0]], [[0.0]], [[1.0]], 1.0)
    assert P[0, 0] == pytest.approx(3.0, abs=1e-14)


def test_backward_step_zero_propagates_with_zero_q():
    P, _ = riccati.riccati_backward_step([[0.0]], [[1.7]], [[1.0]], [[0.0]], [[1.0]], 1.0)
    assert P[0, 0] == 0.0


def test_backward_step_scalar_arithmetic():
    P, _ = riccati.riccati_backward_step([[1.0]], [[0.5]], [[1.0]], [[0.0]], [[1.0]], 1.0)
    assert P[0, 0] == pytest.approx(0.125)


def test_optimal_gain_examples():
    _, blocks = riccati.riccati_backward_step([[3.0]], [[2.0]], [[1.0]], [[0.0]], [[1.0]], 1.0)
    assert riccati.optimal_gain(blocks)[0, 0] == pytest.approx(-1.5)
    _, blocks = riccati.riccati_backward_step([[0.0]], [[2.0]], [[1.0]], [[0.0]], [[1.0]], 1.0)
    assert riccati.optimal_gain(blocks)[0, 0] == 0.0
    _, blocks = riccati.riccati_backward_step([[0.15]], [[0.5]], [[1.0]], [[0.0]], [[1.0]], 0.05)
    assert riccati.optimal_gain(blocks)[0, 0] == pytest.approx(-0.375)


def test_solve_are_unstable_scalar_returns_stabilizing_branch():
    sol = di.solve_are([[2.0]], [[1.0]], [[0.0]], [[1.0]], 1.0)
    assert sol.P[0, 0] == pytest.approx(3.0, abs=1e-9)
    assert sol.gain[0, 0] == pytest.approx(-1.5, abs=1e-9)
    assert sol.closed_loop[0, 0] == pytest.approx(0.5, abs=1e-9)
    assert sol.stabilizing


def test_solve_are_stable_scalar_zero_solution():
    sol = di.solve_are([[0.5]], [[1.0]], [[0.0]], [[1.0]], 0.3)
    assert sol.P[0, 0] == 0.0
    assert sol.gain[0, 0] == 0.0
    assert sol.stabilizing


def test_solve_are_memoryless_returns_sq():
    Q = np.array([[0.7, 0.1], [0.1, 0.4]])
    sol = di.solve_are(np.zeros((2, 2)), np.eye(2), Q, np.eye(2), 0.6)
    np.testing.assert_allclose(sol.P, 0.6 * Q, atol=1e-12)
    np.testing.assert_allclose(sol.gain, 0.0, atol=1e-12)


def test_solve_are_rejects_nonpositive_s():
    with pytest.raises(PreconditionError, match="positive"):
        di.solve_are([[0.5]], [[1.0]], [[0.0]], [[1.0]], 0.0)


@pytest.mark.parametrize("s", [float("nan"), float("inf"), 0.0, -1.0])
def test_riccati_entry_points_reject_non_finite_or_nonpositive_s(s):
    with pytest.raises(PreconditionError, match="positive and finite"):
        di.solve_are([[2.0]], [[1.0]], [[0.0]], [[1.0]], s)
    with pytest.raises(PreconditionError, match="positive and finite"):
        riccati.riccati_backward_step([[1.0]], [[2.0]], [[1.0]], [[0.0]], [[1.0]], s)


_UNSTABLE_2X1 = dict(C=[[1.2, 0.3], [0.0, 0.6]], D=[[1.0], [0.5]], Q=np.diag([0.3, 0.2]),
                    R=[[1.0]])


@pytest.mark.parametrize("change, error", [
    ({"D": np.ones((3, 1))}, "dimension mismatch: D[0] is (3, 1), expected (2, 1)"),
    ({"Q": np.eye(3)}, "dimension mismatch: Q[0] is (3, 3), expected (2, 2)"),
    ({"R": np.eye(2)}, "dimension mismatch: R[0] is (2, 2), expected (1, 1)"),
    ({"Q": [[0.3, 0.1], [0.0, 0.2]]}, "Q[0] not symmetric"),
    ({"Q": np.diag([0.3, -0.2])}, "Q[0] not positive semidefinite (min eig -2.000e-01)"),
    ({"D": np.eye(2), "R": [[1.0, 0.5], [0.0, 1.0]]}, "R[0] not symmetric"),
    ({"D": np.eye(2), "R": np.diag([1.0, 1e-13])}, "R[0] not positive definite"),
], ids=["D-shape", "Q-shape", "R-shape", "Q-asymmetric", "Q-indefinite", "R-asymmetric",
        "R-nearly-singular"])
def test_solve_are_judges_its_matrices_by_the_model_rule(change, error):
    # the rule `validate_model` applies to a model's rows, with its texts: a wrong
    # shape was a bare numpy error, an asymmetric Q was answered, and an indefinite Q
    # or an asymmetric R ended in a Newton failure
    args = {**_UNSTABLE_2X1, **change}
    with pytest.raises(ModelValidationError) as info:
        di.solve_are(args["C"], args["D"], args["Q"], args["R"], 1.0)
    assert info.value.errors == [error]
    if "R" in change and "shape" not in error:
        with pytest.raises(ModelValidationError, match=re.escape(error)):
            di.validate_model(di.channel_model(args["C"], args["D"], np.eye(2), args["R"],
                                               args["Q"], 1.0, 0))


def test_solve_are_reports_stabilizability_failure():
    with pytest.raises(PreconditionError, match=r"stabilizability test failed"):
        di.solve_are([[2.0, 0.0], [0.0, 0.5]], [[0.0], [1.0]], np.zeros((2, 2)), [[1.0]], 1.0)


@pytest.mark.parametrize("C,s", [(c, s) for c in (1.5, 2.0, 3.0) for s in (0.05, 0.2, 1.0)])
def test_solve_are_scalar_closed_form_grid(C, s):
    sol = di.solve_are([[C]], [[1.0]], [[0.0]], [[1.0]], s)
    assert sol.P[0, 0] == pytest.approx(s * (C * C - 1.0), abs=1e-9)
    assert sol.gain[0, 0] == pytest.approx(-(C * C - 1.0) / C, abs=1e-9)
    assert sol.stabilizing


def test_fixed_point_residual_contract():
    sol = di.solve_are([[2.0]], [[1.0]], [[0.0]], [[1.0]], 0.05)
    Pn, _ = riccati.riccati_backward_step(sol.P, [[2.0]], [[1.0]], [[0.0]], [[1.0]], 0.05)
    assert np.linalg.norm(Pn - sol.P) <= riccati.TOL_ARE * (1 + np.linalg.norm(sol.P))


def test_monotone_psd_iterates_from_terminal_value(rng):
    C = rng.normal(size=(2, 2))
    D = rng.normal(size=(2, 2))
    Q = random_spd(rng, 2, floor=0.0)
    R = random_spd(rng, 2)
    s = 0.7
    P = s * Q
    for _ in range(50):
        P, _ = riccati.riccati_backward_step(P, C, D, Q, R, s)
        assert np.linalg.eigvalsh(P).min() >= -1e-10 * max(1.0, np.linalg.norm(P))


def test_gain_riccati_consistency():
    sol = di.solve_are([[2.0]], [[1.0]], [[0.0]], [[1.0]], 0.4)
    _, blocks = riccati.riccati_backward_step(sol.P, [[2.0]], [[1.0]], [[0.0]], [[1.0]], 0.4)
    recomposed = blocks.H11 + blocks.H12 @ sol.gain
    np.testing.assert_allclose(recomposed, sol.P, atol=1e-10)


@pytest.mark.parametrize("n", [2, 3])
def test_stabilization_on_random_detectable_instances(n, rng):
    # Q positive definite makes (G, C) observable hence detectable; D square
    # random is almost surely full rank hence (C, D) controllable
    for _ in range(10):
        C = rng.normal(size=(n, n)) * 1.5
        D = rng.normal(size=(n, n))
        Q = random_spd(rng, n)
        R = random_spd(rng, n)
        s = float(rng.uniform(0.05, 2.0))
        sol = di.solve_are(C, D, Q, R, s)
        assert sol.stabilizing
        assert di.spectral_radius(sol.closed_loop).spectral_radius < 1.0


def test_solve_are_cross_checked_against_scipy(rng):
    from scipy.linalg import solve_discrete_are
    for _ in range(10):
        C = rng.normal(size=(2, 2)) * 1.4
        D = rng.normal(size=(2, 2))
        Q = random_spd(rng, 2, floor=0.3)
        R = random_spd(rng, 2, floor=0.3)
        s = float(rng.uniform(0.1, 2.0))
        ours = di.solve_are(C, D, Q, R, s)
        ref = solve_discrete_are(C, D, s * Q, s * R)
        np.testing.assert_allclose(ours.P, ref, atol=1e-8)


def test_solve_lyapunov_cross_checked_against_scipy(rng):
    from scipy.linalg import solve_discrete_lyapunov
    for _ in range(10):
        Acl = random_stable(rng, 3, radius=rng.uniform(0.2, 0.9))
        W = random_spd(rng, 3)
        np.testing.assert_allclose(di.solve_lyapunov(Acl, W),
                                   solve_discrete_lyapunov(Acl, W), atol=1e-10)


def test_solve_are_degenerate_path_on_mixed_stability_diagonal():
    # Q = 0 with one unstable and one stable mode: detectability fails but
    # the stabilizing branch exists and decouples per coordinate
    C = np.diag([1.2, 0.5])
    sol = di.solve_are(C, np.eye(2), np.zeros((2, 2)), np.eye(2), 0.8)
    assert sol.stabilizing
    assert sol.P[0, 0] == pytest.approx(0.8 * (1.2 ** 2 - 1.0), abs=1e-9)
    assert sol.P[1, 1] == pytest.approx(0.0, abs=1e-9)
    assert abs(sol.closed_loop[0, 0]) == pytest.approx(1 / 1.2, abs=1e-9)


def test_classify_unstable_scalar_conditional_uniqueness():
    sol = di.solve_are([[2.0]], [[1.0]], [[0.0]], [[1.0]], 1.0)
    rep = oracles.classify_are(sol, [[2.0]], [[1.0]], [[0.0]], [[1.0]], 1.0, [[1.0]])
    assert rep.stabilizing and rep.psd
    assert rep.uniqueness == "conditional"
    assert not rep.detectable
    # brute force: the quadratic P(P + s(1-C^2)) = 0 has roots {0, 3}; only 3 stabilizes
    for root in (0.0, 3.0):
        Pn, blocks = riccati.riccati_backward_step([[root]], [[2.0]], [[1.0]], [[0.0]],
                                                   [[1.0]], 1.0)
        assert Pn[0, 0] == pytest.approx(root, abs=1e-12)
        loop = 2.0 + riccati.optimal_gain(blocks)[0, 0]
        assert (abs(loop) < 1.0) == (root == 3.0)


def test_classify_stable_scalar_unique():
    sol = di.solve_are([[0.5]], [[1.0]], [[0.0]], [[1.0]], 1.0)
    rep = oracles.classify_are(sol, [[0.5]], [[1.0]], [[0.0]], [[1.0]], 1.0, [[1.0]])
    assert rep.uniqueness == "unique"
    assert rep.stabilizing and rep.psd and rep.kv_controllable


def test_classify_flags_negative_candidate():
    fake = riccati.AreSolution(P=np.array([[-1.0]]), gain=np.zeros((1, 1)),
                               closed_loop=np.array([[0.5]]), residual=0.0, iterations=0)
    rep = oracles.classify_are(fake, [[0.5]], [[1.0]], [[0.0]], [[1.0]], 1.0, [[1.0]])
    assert not rep.psd
