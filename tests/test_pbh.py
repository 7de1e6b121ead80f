"""Controllability and observability come from the orthogonal staircase form: one SVD
rank decision per block, with no eigenvalues.  The rank of the Krylov matrix
[B, AB, ..., A^{n-1}B] calls most random 32-state single-input pairs uncontrollable,
and a Jordan block whose last input entry is small but nonzero too.  PBH, rank
[A - lam*I, B] = n at each computed eigenvalue, calls rotated Jordan pairs with an
unreachable mode controllable, because a defective eigenvalue is computed only to
about eps^(1/k).  `_pbh_margin` is kept as a witness of how far a pair is from
losing rank."""

import json

import numpy as np
import pytest

from dirinfo import solve_are, stability
from dirinfo.cli import parse_config, run
from dirinfo.errors import PreconditionError
import oracles

JORDAN = -1.386 * np.eye(3) + np.diag([1.0, 1.0], 1)
LAM_STAR = -1.38686956      # the nearest uncontrollable pair to JORDAN's below loses rank here


def _pbh_margin(A, B):
    """Smallest relative singular value of [A - lam*I, B] over the eigenvalues."""
    n = A.shape[0]
    worst = np.inf
    for lam in np.linalg.eigvals(A):
        sv = np.linalg.svd(np.hstack([A - lam * np.eye(n), B]), compute_uv=False)
        worst = min(worst, sv[-1] / sv[0])
    return worst


@pytest.mark.parametrize("seed", range(5))
def test_random_32_state_single_input_pairs_are_controllable(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(32, 32))
    b = rng.normal(size=(32, 1))
    assert _pbh_margin(A, b) > 1e-6
    assert stability.is_controllable(A, b)
    assert stability.is_observable(b.T, A.T)


def test_jordan_block_with_a_small_last_input_entry_is_controllable():
    b = np.array([[-1.034], [-0.8833], [-3e-3]])      # 1.8e-8 relative from uncontrollable
    assert _pbh_margin(JORDAN, b) > 1e-4
    assert stability.is_controllable(JORDAN, b)
    assert stability.is_observable(b.T, JORDAN.T)


def test_jordan_block_within_the_rank_cut_of_an_uncontrollable_pair_is_not_controllable():
    # no eigenvalue of JORDAN is near losing rank, but [A - lam I, b] is at lam = LAM_STAR,
    # 3.0e-10 of the scale: below TOL_RANK, so the staircase's last coupling is cut
    b = np.array([[-1.034], [-0.8833], [-7.673e-4]])
    assert _pbh_margin(JORDAN, b) > 1e-4
    scale = max(np.linalg.norm(JORDAN, 2), np.linalg.norm(b, 2))
    witness = np.linalg.svd(np.hstack([JORDAN - LAM_STAR * np.eye(3), b]), compute_uv=False)
    assert witness[-1] <= stability.TOL_RANK * scale
    assert not stability.is_controllable(JORDAN, b)
    assert not stability.is_observable(b.T, JORDAN.T)


def test_jordan_block_with_a_zero_last_input_entry_is_not_controllable():
    b = np.array([[1.0], [1.0], [0.0]])
    assert not stability.is_controllable(JORDAN, b)
    assert not stability.is_observable(b.T, JORDAN.T)


def _pair_class(kind, k, seed):
    """(A, b, controllable) at k states.  "jordan": Q (lam I + N) Q^T, lam ~ U(-3, 3), and
    b = Q (1, ..., 1, 0), whose last mode is unreachable; "block": Q T Q^T with T block
    upper triangular and b = Q (b_1, 0), reachable dimension k / 2; "generic": N(0, 1)."""
    rng = np.random.default_rng(seed)
    if kind == "generic":
        return rng.normal(size=(k, k)), rng.normal(size=(k, 1)), True
    Q = np.linalg.qr(rng.normal(size=(k, k)))[0]
    if kind == "jordan":
        A = rng.uniform(-3, 3) * np.eye(k) + np.eye(k, k=1)
        b = np.r_[np.ones(k - 1), 0.0]
    else:
        h = k // 2
        A = rng.normal(size=(k, k))
        A[h:, :h] = 0.0
        b = np.r_[rng.normal(size=h), np.zeros(k - h)]
    return Q @ A @ Q.T, Q @ b[:, None], False


@pytest.mark.parametrize("k", [4, 8, 16, 32])
@pytest.mark.parametrize("kind", ["jordan", "block", "generic"])
def test_pair_classes_are_decided_for_fifty_seeds(kind, k):
    for seed in range(50):
        A, b, answer = _pair_class(kind, k, seed)
        assert stability.is_controllable(A, b) is answer, seed
        assert stability.is_observable(b.T, A.T) is answer, seed


def test_reachability_tests_leave_their_inputs_unchanged():
    A, b, _ = _pair_class("block", 8, 0)
    saved = A.copy(), b.copy()
    stability.is_controllable(A, b)
    stability.is_observable(b.T, A)
    np.testing.assert_array_equal(A, saved[0])
    np.testing.assert_array_equal(b, saved[1])


def test_check_reports_a_rotated_jordan_model_neither_controllable_nor_stabilizable(tmp_path):
    A, b, _ = _pair_class("jordan", 3, 0)
    eye = np.eye(3).tolist()
    path = tmp_path / "jordan3.json"
    path.write_text(json.dumps({"C": A.tolist(), "D": b.tolist(), "KV": eye, "R": 1.0,
                                "Q": eye, "kappa": 1.0}))
    code, report = run(parse_config(["check", "--model", str(path)]))
    assert code == 0
    result = report["result"]
    assert result["controllable"] is False and result["stabilizable"] is False


def test_check_reports_a_32_state_single_input_model_controllable(tmp_path):
    rng = np.random.default_rng(2)
    C = 0.9 * rng.normal(size=(32, 32)) / np.sqrt(32)
    D = rng.normal(size=(32, 1))
    eye = np.eye(32).tolist()
    path = tmp_path / "p32.json"
    path.write_text(json.dumps({"C": C.tolist(), "D": D.tolist(), "KV": eye, "R": 1.0,
                                "Q": eye, "kappa": 1.0}))
    code, report = run(parse_config(["check", "--model", str(path)]))
    assert code == 0
    result = report["result"]
    assert result["controllable"] is True
    assert result["stabilizable"] is True and result["observable"] is True


def _rotated_scalar_identity(n=2, lam=1.5, seed=0):
    """lam * I up to rounding: an orthogonal similarity of it."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    return Q @ (lam * np.eye(n)) @ Q.T


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pencil_of_rounding_alone_has_rank_zero(n):
    A = _rotated_scalar_identity(n)
    assert not np.array_equal(A, 1.5 * np.eye(n))
    B = np.zeros((n, 1))
    assert not stability.is_stabilizable(A, B)
    assert not stability.is_controllable(A, B)
    assert not stability.is_detectable(B.T, A)
    assert not stability.is_observable(B.T, A)


def test_capacity_of_an_unstabilizable_rounded_model_is_a_precondition_failure(tmp_path):
    C = _rotated_scalar_identity()
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"C": C.tolist(), "D": [[0.0], [0.0]], "KV": np.eye(2).tolist(),
                                "R": 1.0, "Q": np.zeros((2, 2)).tolist(), "kappa": 1.0}))
    code, report = run(parse_config(["capacity", "--model", str(path)]))
    assert code == 1
    assert report["error_type"] == "PreconditionError"
    assert "stabilizability" in report["error"]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_rotated_jordan_block_with_an_unreachable_last_mode_is_not_stabilizable(k):
    # Q J Q^T with J the k x k Jordan block at -1.386 and b = Q (1, ..., 1, 0)^T
    Q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(k, k)))
    A = Q @ (-1.386 * np.eye(k) + np.eye(k, k=1)) @ Q.T
    b = Q @ np.r_[np.ones(k - 1), 0.0][:, None]
    with pytest.raises(PreconditionError, match="stabilizability test failed"):
        solve_are(A, b, np.zeros((k, k)), [[1.0]], 1.0)
    assert not stability.is_stabilizable(A, b)


@pytest.mark.parametrize("index", [862, 910, 923, 948, 960])
def test_large_c_sweep_models_that_the_q0_solve_stabilizes_are_stabilizable(index):
    # PBH at the computed eigenvalues of these |C| ~ 1e6 channels called them
    # unstabilizable and uncontrollable, while the Q = 0 solve answers each with a
    # stabilizing P
    C, D = next((C, D) for k, _, C, D in oracles.are_sweep((1e6,)) if k == index)
    sol = solve_are(C, D, np.zeros_like(C), np.eye(D.shape[1]), 1.0)
    assert sol.stabilizing
    assert stability.is_stabilizable(C, D)
    assert stability.is_controllable(C, D)
