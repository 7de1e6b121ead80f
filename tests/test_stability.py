import numpy as np
import pytest

import dirinfo as di
from dirinfo.errors import DimensionError, PreconditionError
from conftest import random_spd, random_stable


def test_spectral_radius_scalar_stable():
    rep = di.spectral_radius([[0.5]])
    assert rep.spectral_radius == pytest.approx(0.5)
    assert rep.stable


def test_spectral_radius_scalar_unstable():
    rep = di.spectral_radius([[2.0]])
    assert rep.spectral_radius == pytest.approx(2.0)
    assert not rep.stable


def test_spectral_radius_double_eigenvalue():
    # characteristic polynomial lambda^2 - lambda + 0.25 = (lambda - 0.5)^2
    rep = di.spectral_radius([[0.0, 1.0], [-0.25, 1.0]])
    assert rep.spectral_radius == pytest.approx(0.5, abs=1e-8)


def test_spectral_radius_rejects_nonsquare():
    with pytest.raises(DimensionError):
        di.spectral_radius(np.zeros((2, 3)))


def test_controllable_examples():
    assert di.is_controllable([[1, 1], [0, 1]], [[0], [1]])
    assert not di.is_controllable(np.eye(2), [[1], [0]])
    assert di.is_controllable([[0.0]], [[1.0]])


def test_observable_examples():
    assert di.is_observable([[1, 0]], [[1, 1], [0, 1]])
    assert not di.is_observable([[0, 0]], [[1, 1], [0, 1]])
    assert di.is_observable([[1.0]], [[2.0]])


def test_stabilizable_examples():
    assert di.is_stabilizable([[2.0]], [[1.0]])
    assert not di.is_stabilizable([[2, 0], [0, 0.5]], [[0], [1]])
    assert di.is_stabilizable([[0.5, 0.1], [0, 0.3]], np.zeros((2, 1)))


@pytest.mark.parametrize("a", [1.0, -1.0, 1.0 - 5e-10, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 + 2e-9])
def test_a_mode_from_the_stability_margin_on_must_be_reachable(a):
    # |lam| >= 1 - TOL_SPEC counts as unstable, on the circle too, where the
    # Gramian's Stein equation would be singular if A were not scaled first
    assert not di.is_stabilizable([[a]], [[0.0]])
    assert di.is_stabilizable([[a]], [[1.0]])
    assert not di.is_stabilizable(np.diag([a, 0.5]), [[0.0], [1.0]])
    assert di.is_stabilizable(np.diag([a, 0.5]), [[1.0], [0.0]])


def test_a_rotation_on_the_circle_must_be_reachable():
    A = np.zeros((3, 3))
    A[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
    A[2, 2] = 0.5
    assert di.is_stabilizable(A, [[1.0], [0.0], [0.0]])
    assert not di.is_stabilizable(A, [[0.0], [0.0], [1.0]])


def test_a_mode_inside_the_stability_margin_needs_no_input():
    assert di.is_stabilizable([[1.0 - 2e-9]], [[0.0]])
    assert di.is_stabilizable(np.diag([1.0 - 2e-9, 2.0]), [[0.0], [1.0]])
    # beside a mode on the circle too, which the scaling moves out but not this one
    assert di.is_stabilizable(np.diag([1.0, 1.0 - 1.5e-9]), [[1.0], [0.0]])


def _rotated(A, B, seed):
    U = np.linalg.qr(np.random.default_rng(seed).normal(size=np.shape(A)))[0]
    return U @ A @ U.T, U @ B


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_a_mode_on_the_circle_does_not_hide_a_large_unstable_one(seed):
    # the circle's mode has a Gramian some 1e8 times the mode at 300's; each is
    # judged against its own distance from the circle, so both count as reached
    rotate = (lambda A, B: (A, B)) if seed is None else (lambda A, B: _rotated(A, B, seed))
    for diag, B, answer in ((np.diag([1.0, 300.0]), np.eye(2), True),
                            (np.diag([1.0 - 2e-9, 1.0, 300.0]), np.eye(3), True),
                            (np.diag([1.0, 300.0]), np.eye(2)[:, :1], False),
                            (np.diag([1.0, 300.0]), np.eye(2)[:, 1:], False),
                            (np.eye(2), np.eye(2)[:, :1], False)):
        assert di.is_stabilizable(*rotate(diag, B)) is answer


PAIRS = [([[2.0]], [[1.0]]), ([[1, 1], [0, 1]], [[0], [1]]), (np.eye(2), np.eye(2)),
         (np.diag([1.0, 300.0]), np.eye(2)), (np.diag([-1.0, 300.0, 0.5]), np.eye(3)),
         (np.diag([1.0 - 2e-9, 1.0, 300.0]), np.eye(3)), ([[0.0, -1.0], [1.0, 0.0]], np.eye(2)),
         (np.diag([1.0 + 1e-9, 50.0]), [[1.0], [1.0]]), ([[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]])]


@pytest.mark.parametrize("A, B", PAIRS)
def test_a_controllable_pair_is_stabilizable(A, B):
    assert di.is_controllable(A, B)
    assert di.is_stabilizable(A, B)


def test_detectable_examples():
    # zero observation is fine when the dynamics are already stable
    assert di.is_detectable([[0.0]], [[0.5]])
    assert not di.is_detectable([[0.0]], [[2.0]])
    assert di.is_detectable(np.eye(3), random_stable(np.random.default_rng(0), 3, 1.7))


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError):
        di.is_controllable(np.eye(2), np.zeros((3, 1)))
    with pytest.raises(DimensionError):
        di.is_detectable(np.zeros((1, 3)), np.eye(2))


def test_duality_on_random_instances(rng):
    for _ in range(50):
        A = rng.normal(size=(3, 3))
        B = rng.normal(size=(3, rng.integers(1, 3)))
        C = rng.normal(size=(rng.integers(1, 3), 3))
        assert di.is_detectable(C, A) == di.is_stabilizable(A.T, C.T)
        assert di.is_observable(C, A) == di.is_controllable(A.T, C.T)


def test_controllable_implies_stabilizable_and_dual(rng):
    for _ in range(50):
        A = rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 2))
        C = rng.normal(size=(2, 3))
        if di.is_controllable(A, B):
            assert di.is_stabilizable(A, B)
        if di.is_observable(C, A):
            assert di.is_detectable(C, A)


def test_lyapunov_step_from_zero_is_the_drive():
    np.testing.assert_array_equal(di.lyapunov_step(np.zeros((2, 2)),
                                                   [[0.3, 1.0], [0, 0.1]], np.eye(2)),
                                  np.eye(2))


def test_lyapunov_step_scalar():
    assert di.lyapunov_step([[1.0]], [[0.5]], [[2.0]])[0, 0] == pytest.approx(2.25)


def test_lyapunov_step_fixed_point():
    out = di.lyapunov_step([[8.0 / 3.0]], [[0.5]], [[2.0]])
    assert out[0, 0] == pytest.approx(8.0 / 3.0, abs=1e-14)


def test_solve_lyapunov_scalar_closed_form():
    assert di.solve_lyapunov([[0.5]], [[2.0]])[0, 0] == pytest.approx(8.0 / 3.0, abs=1e-12)


def test_solve_lyapunov_zero_loop_returns_drive(rng):
    W = random_spd(rng, 3)
    np.testing.assert_allclose(di.solve_lyapunov(np.zeros((3, 3)), W), W, atol=1e-14)


def test_solve_lyapunov_rejects_unstable():
    with pytest.raises(PreconditionError, match="not exponentially stable"):
        di.solve_lyapunov([[1.1]], [[1.0]])


def test_solve_lyapunov_matches_iterated_step(rng):
    for _ in range(10):
        Acl = random_stable(rng, 3, radius=rng.uniform(0.2, 0.9))
        W = random_spd(rng, 3)
        direct = di.solve_lyapunov(Acl, W)
        K = np.zeros((3, 3))
        for _ in range(2000):
            K = di.lyapunov_step(K, Acl, W)
        np.testing.assert_allclose(direct, K, atol=1e-8)


def test_solve_lyapunov_two_of_three_positivity(rng):
    # stable loop + controllable (Acl, W^{1/2}) forces a positive definite solution
    from dirinfo.linalg import sym_sqrt
    for _ in range(20):
        Acl = random_stable(rng, 3, radius=rng.uniform(0.2, 0.95))
        W = random_spd(rng, 3)
        assert di.is_controllable(Acl, sym_sqrt(W))
        Sigma = di.solve_lyapunov(Acl, W)
        assert np.linalg.eigvalsh(Sigma).min() > 0


def test_solve_lyapunov_residual_contract(rng):
    for _ in range(50):
        Acl = random_stable(rng, 3, radius=rng.uniform(0.1, 0.9))
        W = random_spd(rng, 3)
        Sigma = di.solve_lyapunov(Acl, W)
        resid = np.linalg.norm(Sigma - Acl @ Sigma @ Acl.T - W)
        assert resid <= 1e-10 * (1 + np.linalg.norm(W))
