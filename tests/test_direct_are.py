"""The direct Q = 0 Riccati solve against a 50-digit oracle, and its edges.

With Q = 0 the stabilizing solution comes from a spectral split of C and the
Stein equation of its anti-stable part.  `oracles.stabilizing_are_q0`
evaluates the same solution in 50-digit arithmetic from left eigenvectors,
with no split and no iteration.  On the non-normal, near-marginal family
C = U T U^T, every model must answer within 1e-6 of the oracle or raise a
named DirinfoError.  The Gramian of the split decides stabilizability, so
defective eigenvalues that PBH misses are named failures.  Q != 0 runs
Newton's method from the direct gain of a scaled pair, which stabilizes a
unit-circle mode that only Q makes stabilizable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_are

import dirinfo as di
from dirinfo import riccati
from dirinfo.errors import DirinfoError, PreconditionError
import oracles


def family_model(rng, p, q, m, s):
    """C = U T U^T: U random orthogonal, T upper triangular with diagonal +-(1 +- m)
    and N(0, s^2) entries above it; D ~ N(0, 1)."""
    diag = rng.choice([-1.0, 1.0], p) * (1.0 + rng.choice([-1.0, 1.0], p) * m)
    T = np.diag(diag) + np.triu(rng.normal(scale=s, size=(p, p)), 1)
    U = np.linalg.qr(rng.normal(size=(p, p)))[0]
    return U @ T @ U.T, rng.normal(size=(p, q))


def family_stream(seed):
    """(position, C, D) for 240 models from one generator stream: p, q, m, s, then
    the model."""
    rng = np.random.default_rng(seed)
    for position in range(240):
        p = int(rng.integers(2, 6))
        q = int(rng.integers(1, p + 1))
        m, s = float(rng.choice([1e-2, 1e-3, 1e-5])), float(rng.choice([0.3, 1.0, 3.0]))
        yield (position, *family_model(rng, p, q, m, s))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 5), q_frac=st.floats(0.0, 1.0),
       m=st.sampled_from([1e-2, 1e-3, 1e-5]), s=st.sampled_from([0.3, 1.0, 3.0]))
def test_non_normal_family_answers_near_the_oracle_or_names_the_failure(seed, p, q_frac, m, s):
    q = 1 + int(q_frac * (p - 1))
    C, D = family_model(np.random.default_rng(seed), p, q, m, s)
    ref = oracles.stabilizing_are_q0(C, D, np.eye(q))
    try:
        sol = di.solve_are(C, D, np.zeros((p, p)), np.eye(q), 1.0)
    except DirinfoError:
        return
    assert sol.stabilizing
    assert np.linalg.norm(sol.P - ref) <= 1e-6 * np.linalg.norm(ref)


@pytest.mark.parametrize("seed, floor", [(7, 139), (11, 130)])
def test_non_normal_family_answer_count_holds_its_floor(seed, floor):
    # the unstable-C models of `family_stream` that answer must not fall below
    # 139 / 130, the counts of the first direct Q = 0 solve, so a solve that
    # declines more cannot pass the test above alone
    unstable, answered = 0, 0
    for _, C, D in family_stream(seed):
        if not (np.abs(np.linalg.eigvals(C)) > 1.0).any():
            continue
        unstable += 1
        try:
            di.solve_are(C, D, np.zeros_like(C), np.eye(D.shape[1]), 1.0)
        except DirinfoError:
            continue
        answered += 1
    assert unstable == {7: 221, 11: 212}[seed]
    assert answered >= floor


@pytest.mark.parametrize("seed, floor", [(7, 173), (11, 172)])
def test_non_normal_family_capacity_waits_on_no_output_covariance(seed, floor):
    # through `feedback_capacity` (kappa = 2p, K_V = R = I, Q = 0) every model whose
    # ARE and water-fill succeed answers, K_B or no K_B; where K_B is present, the
    # cost it gives, trace(G^T R G K_B) + trace(R K_Z) with Q = 0, checks the identity's
    answered = 0
    for _, C, D in family_stream(seed):
        p, q = D.shape
        R = np.eye(q)
        try:
            sol, _ = di.feedback_capacity(di.channel_model(C, D, np.eye(p), R, np.zeros((p, p)),
                                                           2.0 * p, 0))
        except DirinfoError:
            continue
        answered += 1
        ref = oracles.stabilizing_are_q0(C, D, R, sol.s)
        assert np.linalg.norm(sol.P - ref) <= 1e-6 * np.linalg.norm(ref)
        if sol.KB is not None:
            cost = np.trace(sol.gain.T @ R @ sol.gain @ sol.KB) + np.trace(R @ sol.KZ)
            assert abs(cost - sol.achieved_cost) <= 1e-9 * abs(sol.achieved_cost)
    assert answered >= floor


@pytest.mark.parametrize("seed, position", [(7, 84), (7, 173), (7, 184), (11, 163)])
def test_well_conditioned_family_models_answer_near_the_oracle(seed, position):
    # a one-ulp move of C moves the oracle P by under 5e-8 on these models, so
    # neither the Gramian gate nor the paired check may decline them
    C, D = next((C, D) for k, C, D in family_stream(seed) if k == position)
    R = np.eye(D.shape[1])
    sol = di.solve_are(C, D, np.zeros_like(C), R, 1.0)
    ref = oracles.stabilizing_are_q0(C, D, R)
    assert np.linalg.norm(sol.P - ref) <= 1e-8 * np.linalg.norm(ref)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="answered 1.24e-6 from the oracle with ARE residual 9.6e-21, so the "
                          "certificate, which runs only on a residual above TOL_ARE, never sees it")
def test_family_seed_5_model_23_answers_near_the_oracle_or_names_the_failure():
    # its closed loop has five eigenvalues within 1.1e-5 of the unit circle; the
    # cost of its gain is far from P, but the residual alone lets the answer stand
    C, D = next((C, D) for k, C, D in family_stream(5) if k == 23)
    R = np.eye(D.shape[1])
    try:
        sol = di.solve_are(C, D, np.zeros_like(C), R, 1.0)
    except DirinfoError:
        return
    ref = oracles.stabilizing_are_q0(C, D, R)
    assert np.linalg.norm(sol.P - ref) <= 1e-6 * np.linalg.norm(ref)


def test_iterations_count_newton_steps_only(monkeypatch):
    # a direct Q = 0 answer takes no Newton step; with Q != 0 each Newton step is
    # one Lyapunov solve, and the direct start adds none
    C, I = np.diag([0.5, 2.0]), np.eye(2)
    assert di.solve_are(C, I, np.zeros((2, 2)), I, 1.0).iterations == 0
    calls, smith = [], riccati.stability.smith_doubling

    def counted(*args):
        calls.append(args)
        return smith(*args)

    monkeypatch.setattr(riccati.stability, "smith_doubling", counted)
    sol = di.solve_are(C, I, I, I, 1.0)
    assert sol.iterations == len(calls) > 0


@pytest.mark.parametrize("k", [2, 3, 4])
def test_defective_unstable_mode_is_decided_by_the_gramian(k):
    # Q J Q^T, J a k x k Jordan block at -1.386: eigvals is off by about eps^(1/k),
    # and PBH calls the pair with b = Q (1, ..., 1, 0) stabilizable
    U = np.linalg.qr(np.random.default_rng(k).normal(size=(k, k)))[0]
    A = U @ (-1.386 * np.eye(k) + np.eye(k, k=1)) @ U.T
    for last, answers in ((0.0, False), (1.0, True)):
        b = U @ np.r_[np.ones(k - 1), last][:, None]
        m = di.channel_model(A, b, np.eye(k), 1.0, np.zeros((k, k)), 50.0, 0)
        if answers:
            sol = di.solve_are(A, b, np.zeros((k, k)), [[1.0]], 1.0)
            ref = oracles.stabilizing_are_q0(A, b, [[1.0]])
            np.testing.assert_allclose(sol.P, ref, rtol=0, atol=1e-12 * np.linalg.norm(ref))
            di.feedback_capacity(m)
            continue
        for run in (lambda: di.solve_are(A, b, np.zeros((k, k)), [[1.0]], 1.0),
                    lambda: di.feedback_capacity(m)):
            with pytest.raises(PreconditionError, match="stabilizability test failed"):
                run()


def test_memory_model_with_a_unit_eigenvalue_and_q_nonzero_is_solved():
    # the augmented C of this memory J = 3 model has an eigenvalue at exactly 1, which
    # only Q makes stabilizable: Newton must start from the scaled pair's gain
    aug = di.augment_memory(di.memory_model([[[0.9]], [[0.6]], [[-0.5]]], [[1.0]], [[0.8]],
                                            [[1.0]], [[0.3]], 0.0, 0, cost_memory=1))
    C, D, Q, R = aug.C(0), aug.D(0), aug.Q_seq[0], aug.R(0)
    assert np.abs(np.abs(np.linalg.eigvals(C)) - 1.0).min() < 1e-12
    sol = di.solve_are(C, D, Q, R, 1.0)
    ref = solve_discrete_are(C, D, Q, R)
    assert sol.stabilizing
    np.testing.assert_allclose(sol.P, ref, rtol=0, atol=1e-9 * np.linalg.norm(ref))


@pytest.mark.parametrize("C, D", [(np.diag([1.0, 2.0]), np.eye(2)),
                                  # the 0.95 mode is stable and unreachable: the start
                                  # must not push it outside the unit circle
                                  (np.diag([2.0, 0.95]), np.array([[1.0], [0.0]])),
                                  # no scaling keeps this mode off the circle
                                  (np.diag([2.0, 1.0 - 1.5e-9]), np.eye(2))])
def test_q_nonzero_model_with_a_marginal_or_unreachable_stable_mode_is_solved(C, D):
    Q, R = np.eye(2), np.eye(D.shape[1])
    sol = di.solve_are(C, D, Q, R, 1.0)
    ref = solve_discrete_are(C, D, Q, R)
    assert sol.stabilizing
    assert sol.residual <= riccati.TOL_ARE
    np.testing.assert_allclose(sol.P, ref, rtol=0, atol=1e-10 * np.linalg.norm(ref))


@pytest.mark.parametrize("Q", [np.zeros((2, 2)), np.diag([0.3, 0.2])])
def test_solve_are_takes_one_spectrum_of_c(monkeypatch, Q):
    # either route reads C's eigenvalue moduli once: the Q != 0 start scales them by
    # beta instead of taking the spectrum of beta C
    C, D = np.array([[1.2, 0.3], [0.0, 0.6]]), np.array([[1.0], [0.5]])
    spectra, eigvals = [], np.linalg.eigvals

    def counted(A):
        spectra.append(np.array(A))
        return eigvals(A)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    di.solve_are(C, D, Q, [[1.0]], 0.5)
    beta = riccati._BETA
    assert sum(A.shape == C.shape and (np.array_equal(A, C) or np.array_equal(A, beta * C))
               for A in spectra) == 1


def test_q0_channel_with_a_large_c_answers_the_closed_form():
    # the direct P is C^2 - 1 to the last bit at C = 1e5, but |Ric(P) - P| / (1 + |P|)
    # cannot fall below its own rounding; Newton from its gain then never settles
    big = np.array([[1e5]])
    assert riccati._q0_solution(big, np.eye(1), np.eye(1), big[0])[0, 0] == 1e10 - 1.0
    ref = di.capacity.scalar_feedback_capacity(1e4, 1.0, 1.0, 2e8)[0]
    assert ref == pytest.approx(0.34657, abs=1e-5)
    m = di.scalar_model(1e4, 1.0, 1.0, 1.0, 0.0, 2e8)
    assert di.feedback_capacity(m)[1] == pytest.approx(ref, rel=1e-9)
