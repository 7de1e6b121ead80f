import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dirinfo as di
from dirinfo import model as model_mod
from dirinfo.errors import DimensionError, ModelValidationError
from dirinfo.model import ChannelModel, MemoryJModel
from dirinfo.simulate import _draw_noise
import oracles


def test_validate_scalar_model_ok():
    m = di.scalar_model(0.5, 1.0, 1.0, 1.0, 0.0, 1.0)
    assert di.validate_model(m) is m


def test_validate_rejects_zero_noise_covariance():
    m = di.scalar_model(0.5, 1.0, 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ModelValidationError, match="noise covariance not positive definite"):
        di.validate_model(m)


def test_validate_rejects_dimension_mismatch():
    m = di.channel_model(np.eye(2), np.zeros((3, 1)), np.eye(2), [[1.0]], np.zeros((2, 2)),
                         1.0, 0)
    with pytest.raises(ModelValidationError, match="dimension"):
        di.validate_model(m)


def test_validate_rejects_negative_kappa_and_lists_everything():
    m = di.scalar_model(0.5, 1.0, -1.0, -2.0, 0.0, -3.0)
    with pytest.raises(ModelValidationError) as exc:
        di.validate_model(m)
    joined = " ".join(exc.value.errors)
    assert "kappa" in joined
    assert "noise covariance" in joined
    assert "R[0]" in joined


def test_validate_time_varying_sequence_lengths():
    m = di.channel_model([[[0.5]], [[0.6]]], [[[1.0]], [[1.0]]], [[[1.0]], [[1.0]]],
                         [[[1.0]], [[1.0]]], [[[0.0]], [[0.0]]], 1.0, 2,
                         time_invariant=False)
    with pytest.raises(ModelValidationError, match="sequence length"):
        di.validate_model(m)


def test_validate_is_idempotent():
    m = di.scalar_model(0.5, 1.0, 1.0, 1.0, 0.0, 1.0)
    assert di.validate_model(di.validate_model(m)) is m


def test_validation_mark_is_not_inherited_by_copies():
    m = di.validate_model(di.scalar_model(0.5, 1.0, 1.0, 1.0, 0.0, 1.0))
    # the sweep's kappa variants are such copies
    with pytest.raises(ModelValidationError, match="negative kappa"):
        di.validate_model(dataclasses.replace(m, kappa=-1.0))
    # a deep copy carries the mark but has writable arrays, so it is judged again
    bad = copy.deepcopy(m)
    bad.KV_seq[0][0, 0] = 0.0
    with pytest.raises(ModelValidationError, match="noise covariance not positive definite"):
        di.validate_model(bad)
    mem = di.memory_model([0.6, 0.2], 1.0, 1.0, 1.0, None, 1.0, 10)
    assert di.validate_model(mem) is mem
    with pytest.raises(ModelValidationError, match="memory order M must be >= 1"):
        di.validate_model(dataclasses.replace(mem, memory=0))


def _channel_arrays(m):
    return (*m.C_seq, *m.D_seq, *m.KV_seq, *m.R_seq, *m.Q_seq, m.terminal_Q,
            m.initial_mean, m.initial_cov)


def _memory_arrays(m):
    return (*m.C_blocks, m.D, m.KV, m.R, m.Q_K, m.initial_history)


@pytest.mark.parametrize("build, arrays", [
    (lambda a: di.channel_model(a["C"], np.eye(1), 1.0, 1.0, 0.0, 1.0, 0), _channel_arrays),
    (lambda a: di.channel_model(2 * a["eye2"], a["eye2"], a["eye2"], a["eye2"], 0 * a["eye2"],
                                1.0, 0, terminal_Q=a["eye2"], initial_mean=a["mean2"],
                                initial_cov=a["eye2"]), _channel_arrays),
    (lambda a: di.channel_model(a["C3"], a["C3"], a["C3"], a["C3"], 0 * a["C3"], 1.0, 1,
                                time_invariant=False), _channel_arrays),
    (lambda a: di.memory_model([a["C"], a["C"]], a["C"], a["C"], a["C"], a["C"], 1.0, 4,
                               initial_history=a["hist"]), _memory_arrays),
], ids=["scalar", "mimo", "time-varying-stack", "memory"])
def test_models_hold_read_only_copies_of_the_callers_arrays(build, arrays):
    given = {"C": np.array([[2.0]]), "eye2": np.eye(2), "mean2": np.array([0.5, -0.5]),
             "C3": np.full((2, 1, 1), 2.0), "hist": np.array([[0.1], [0.2]])}
    before = {k: a.copy() for k, a in given.items()}
    m = di.validate_model(build(given))
    for a in arrays(m):
        assert not a.flags.writeable
        assert not any(np.shares_memory(a, g) for g in given.values())
    for k, g in given.items():
        assert g.flags.writeable
        g += 1.0                # the caller's writes do not reach the model
    assert model_mod._read_only(m) and m.__dict__.get(model_mod._VALIDATED)
    assert di.validate_model(m) is m
    rebuilt = build(before)
    assert all(np.array_equal(a, b) for a, b in zip(arrays(m), arrays(rebuilt)))


def test_a_transpose_that_differs_in_its_last_bit_passes_validation():
    # R = R^T up to one ulp of its off-diagonal: the short path's A == A^T fails and
    # the allclose test, which it falls back on, calls R symmetric
    R = np.array([[2.0, 0.3], [np.nextafter(0.3, 1.0), 2.0]])
    assert not (R == R.T).all()
    m = di.channel_model(0.5 * np.eye(2), np.eye(2), np.eye(2), R, np.zeros((2, 2)), 1.0, 0)
    assert di.validate_model(m) is m
    assert model_mod._check_rows([("R", (R,), (2, 2), model_mod._PD, model_mod._MISMATCH)]) == []


def test_scalar_view_projects():
    m = di.scalar_model(0.5, 1.2, 0.9, 2.0, 0.3, 1.5)
    v = di.scalar_view(m)
    assert (v.C, v.D, v.KV, v.R, v.Q, v.kappa) == (0.5, 1.2, 0.9, 2.0, 0.3, 1.5)


def test_scalar_view_rejects_mimo():
    m = di.channel_model(0.5 * np.eye(2), np.eye(2), np.eye(2), np.eye(2),
                         np.zeros((2, 2)), 1.0, 0)
    with pytest.raises(DimensionError):
        di.scalar_view(m)


def test_scalar_view_rejects_time_varying():
    m = di.channel_model([[[0.5]], [[0.6]]], [[[1.0]], [[1.0]]], [[[1.0]], [[1.0]]],
                         [[[1.0]], [[1.0]]], [[[0.0]], [[0.0]]], 1.0, 1,
                         time_invariant=False)
    with pytest.raises(ModelValidationError):
        di.scalar_view(m)


def test_augment_identity_when_first_order():
    mem = di.memory_model([0.5], 1.0, 1.0, 1.0, [[0.2]], 1.0, 4, cost_memory=1)
    m = di.augment_memory(mem)
    assert m.output_dim == 1
    assert m.C(0)[0, 0] == 0.5
    assert m.Q_seq[0][0, 0] == 0.2
    assert not m.augmented


def test_augment_companion_matrix_scalar_m2():
    mem = di.memory_model([0.5, 0.25], 1.0, 1.0, 1.0, None, 1.0, 4, cost_memory=1)
    m = di.augment_memory(mem)
    assert m.output_dim == 2
    np.testing.assert_array_equal(m.C(0), [[0.5, 0.25], [1.0, 0.0]])
    np.testing.assert_array_equal(m.D(0), [[1.0], [0.0]])
    np.testing.assert_array_equal(m.KV(0), [[1.0, 0.0], [0.0, 0.0]])
    assert m.augmented


def test_augment_companion_reproduces_second_order_recursion_symbolically():
    # top row of the companion must reproduce B_i = 0.5 B_{i-1} + 0.25 B_{i-2} + D a + v
    mem = di.memory_model([0.5, 0.25], 2.0, 1.0, 1.0, None, 1.0, 4, cost_memory=1)
    m = di.augment_memory(mem)
    b1, b2, a, v = 0.7, -0.4, 0.3, 0.11
    top = m.C(0)[0] @ np.array([b1, b2]) + m.D(0)[0] @ np.array([a]) + v
    assert top == 0.5 * b1 + 0.25 * b2 + 2.0 * a + v


def test_augment_cost_memory_two_matches_bruteforce_path_cost():
    # M=1, K=2: augmented dimension doubles and Q_K covers the full 2p block
    QK = np.array([[0.3, 0.1], [0.1, 0.2]])
    mem = di.memory_model([0.5], 1.0, 1.0, 1.0, QK, 1.0, 4, cost_memory=2,
                          initial_history=[[0.2], [-0.1]])
    m = di.augment_memory(mem)
    assert m.output_dim == 2
    np.testing.assert_array_equal(m.Q_seq[0], QK)
    strat = oracles.lift_strategy(di.stationary_strategy([[0.4]], [[0.6]]), 1, 2)
    tr = di.sample_trajectory(m, strat, 5, seed=11)
    # brute-force cost from the scalar output path, newest-first stacking
    hist = [-0.1, 0.2]   # B_{-2}, B_{-1}
    for i in range(5):
        hist.append(tr.B_path[i, 0])
    for i in range(5):
        prev = np.array([hist[i + 1], hist[i]])   # (B_{i-1}, B_{i-2})
        a = tr.A_path[i]
        expected = float(a @ mem.R @ a + prev @ QK @ prev)
        assert tr.cost_path[i] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_augment_behavior_preservation_bit_exact(seed, rng):
    # the top block of the lifted simulation must follow the order-2
    # recursion on the last two scalar outputs, bit for bit; the direct
    # recursion below rebuilds its lag vector from its own scalar history
    c1, c2 = rng.normal(scale=0.4), rng.normal(scale=0.2)
    d = rng.normal() + 2.0
    mem = di.memory_model([c1, c2], d, 1.3, 1.0, None, 1.0, 10, cost_memory=1,
                          initial_history=[[0.3], [-0.2]])
    m = di.augment_memory(mem)
    strat = oracles.lift_strategy(di.stationary_strategy([[-0.3, 0.1]], [[0.8]]), 1, 2)
    tr = di.sample_trajectory(m, strat, 10, seed=seed)
    b0, Z, V = _draw_noise(m, strat, 10, seed)
    hist = [float(b0[1]), float(b0[0])]
    g = strat.gains[0]
    C, D = m.C(0), m.D(0)
    for i in range(10):
        lag = np.array([hist[-1], hist[-2]])     # (B_{i-1}, B_{i-2})
        a = g @ lag + Z[i]
        step = C @ lag + D @ a + V[i]
        assert tr.B_path[i, 0] == step[0]
        assert tr.B_path[i, 1] == hist[-1]
        hist.append(float(step[0]))


def test_augment_pads_missing_blocks_when_cost_memory_exceeds_memory():
    mem = di.memory_model([0.5], 1.0, 1.0, 1.0, np.eye(2) * 0.1, 1.0, 4, cost_memory=2)
    m = di.augment_memory(mem)
    np.testing.assert_array_equal(m.C(0), [[0.5, 0.0], [1.0, 0.0]])


def test_strategy_rejects_non_psd_innovations():
    with pytest.raises(ModelValidationError):
        di.strategy([[[0.0]]], [[[-1.0]]])


@pytest.mark.parametrize("gains, error", [
    ([[[float("nan")]]], "gains[0] has a non-finite entry"),
    ([[[float("inf")]]], "gains[0] has a non-finite entry"),
])
def test_strategy_rejects_non_finite_gains(gains, error):
    with pytest.raises(ModelValidationError) as exc:
        di.strategy(gains, [[[1.0]]])
    assert exc.value.errors == [error]


def test_strategy_rejects_gains_of_mixed_shapes():
    with pytest.raises(ModelValidationError, match=r"gains\[1\] is \(1, 2\), expected \(1, 1\)"):
        di.strategy([[[1.0]], [[1.0, 2.0]]], [[[1.0]], [[1.0]]])


def test_noise_for_inversion_pads_only_augmented_models():
    mem = di.memory_model([0.5, 0.25], 1.0, 2.0, 1.0, None, 1.0, 4, cost_memory=1)
    m = di.augment_memory(mem)
    kv, reg = m.noise_for_inversion(0)
    assert reg
    assert kv[1, 1] == di.model.EPS_REG
    assert kv[0, 0] == 2.0
    plain = di.scalar_model(0.5, 1.0, 2.0, 1.0, 0.0, 1.0)
    kv, reg = plain.noise_for_inversion(0)
    assert not reg and kv[0, 0] == 2.0


def test_validate_time_varying_lists_every_index_in_order():
    n, neg = 5, -np.eye(2)
    asym = np.array([[1.0, 0.3], [0.0, 1.0]])
    KV = [np.eye(2)] * (n + 1)
    KV[1], KV[3], KV[4] = neg, asym, np.eye(3)
    R = [[[1.0]]] * (n + 1)
    R[0], R[2], R[5] = [[0.0]], np.eye(2), [[-1.0]]
    Q = [np.zeros((2, 2))] * (n + 1)
    Q[2], Q[4] = neg, asym
    m = di.channel_model([0.5 * np.eye(2)] * (n + 1), [np.ones((2, 1))] * (n + 1),
                         [np.eye(2)] * (n + 1), [[[1.0]]] * (n + 1), Q, 1.0, n,
                         time_invariant=False)
    # the constructor checks shapes, so the mismatched entries go in afterwards
    m = dataclasses.replace(m, KV_seq=tuple(np.asarray(k, float) for k in KV),
                            R_seq=tuple(np.asarray(r, float) for r in R))
    with pytest.raises(ModelValidationError) as exc:
        di.validate_model(m)
    assert exc.value.errors == [
        "noise covariance not positive definite (KV[1])",
        "KV[3] not symmetric",
        "dimension mismatch: KV[4] is (3, 3), expected (2, 2)",
        "R[0] not positive definite",
        "dimension mismatch: R[2] is (2, 2), expected (1, 1)",
        "R[5] not positive definite",
        "Q[2] not positive semidefinite (min eig -1.000e+00)",
        "Q[4] not symmetric",
    ]


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kw, error", [
    ({"C": NAN}, "C[0] has a non-finite entry"),
    ({"D": INF}, "D[0] has a non-finite entry"),
    ({"KV": -INF}, "KV[0] has a non-finite entry"),
    ({"R": NAN}, "R[0] has a non-finite entry"),
    ({"Q": INF, "terminal_Q": 0.0}, "Q[0] has a non-finite entry"),
    ({"terminal_Q": NAN}, "terminal_Q[0] has a non-finite entry"),
    ({"initial_mean": [INF]}, "initial_mean[0] has a non-finite entry"),
    ({"initial_cov": NAN}, "initial_cov[0] has a non-finite entry"),
    ({"kappa": NAN}, "kappa not finite"),
    ({"kappa": INF}, "kappa not finite"),
])
def test_validate_rejects_non_finite_entries(kw, error):
    args = {"C": 0.5, "D": 1.0, "KV": 1.0, "R": 1.0, "Q": 0.0, "kappa": 1.0}
    args.update(kw)
    m = di.scalar_model(args.pop("C"), args.pop("D"), args.pop("KV"), args.pop("R"),
                        args.pop("Q"), args.pop("kappa"), **args)
    with pytest.raises(ModelValidationError) as exc:
        di.validate_model(m)
    assert exc.value.errors == [error]


def test_validate_names_the_non_finite_step_and_memory_block():
    C = [[[0.5]]] * 4
    C[2] = [[NAN]]
    m = di.channel_model(C, [[[1.0]]] * 4, [[[1.0]]] * 4, [[[1.0]]] * 4, [[[0.0]]] * 4,
                         1.0, 3, time_invariant=False)
    with pytest.raises(ModelValidationError) as exc:
        di.validate_model(m)
    assert exc.value.errors == ["C[2] has a non-finite entry"]
    mem = di.memory_model([0.5, NAN], 1.0, 1.0, 1.0, None, NAN, 4, cost_memory=1,
                          initial_history=[[0.0], [INF]])
    with pytest.raises(ModelValidationError) as exc:
        di.validate_model(mem)
    assert exc.value.errors == ["kappa not finite", "C_blocks[1] has a non-finite entry",
                                "initial_history[0] has a non-finite entry"]


# what `_defective` does to a matrix; None leaves it valid (symmetric positive definite if square)
# "asym_within" and "asym_outside" move A[0, -1] just inside and just outside the
# allclose test's tolerance, and "eig_edge" puts an eigenvalue of a diagonal matrix at
# exactly +-TOL_PSD max(1, max|eigenvalue|): each reaches a fallback of the short path
DEFECTS = (None, None, "shape", "nan", "inf", "asym", "indefinite", "zero",
           "asym_within", "asym_outside", "eig_edge")


def _defective(rng, shape, defect):
    """A frozen matrix of `shape` (a vector when 1-D) with the defect applied."""
    A = rng.standard_normal(shape)
    if len(shape) == 2 and shape[0] == shape[1]:
        A = A @ A.T + 0.1 * np.eye(shape[0])
    if defect == "shape":
        A = rng.standard_normal((shape[0] + 1,) + shape[1:])
    elif not A.size:
        pass                    # an empty Q_K takes only a wrong shape
    elif defect in ("nan", "inf"):
        A[tuple(rng.integers(k) for k in shape)] = np.nan if defect == "nan" else -np.inf
    elif defect == "asym" and A.ndim == 2:
        A[0, -1] += 1.0         # a 1x1 matrix stays symmetric
    elif defect == "indefinite":
        A.flat[0] = -1.0 - np.abs(A).sum()
    elif defect == "zero":
        A[...] = 0.0            # semidefinite, not definite
    elif A.ndim == 2 and shape[0] == shape[1] and defect in ("asym_within", "asym_outside"):
        a = A[-1, 0]
        tol = 1e-12 * (1 + np.abs(A).max()) + 1e-5 * abs(a)
        A[0, -1] = a + (0.5 if defect == "asym_within" else 1.01) * tol
    elif A.ndim == 2 and shape[0] == shape[1] and defect == "eig_edge":
        d, k = rng.uniform(0.5, 2.0, shape[0]), rng.integers(shape[0])
        edge = model_mod.TOL_PSD * max(1.0, np.delete(d, k).max(initial=0.0))
        d[k] = edge if rng.random() < 0.5 else -edge
        A = np.diag(d)
    return model_mod._freeze(A)


def _validation_errors(m):
    try:
        di.validate_model(dataclasses.replace(m))     # a copy carries no validation mark
    except ModelValidationError as exc:
        return exc.errors
    return []


def _check_rows_as_oracle(m):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_mod, "_check_rows", oracles.check_rows)
        return _validation_errors(m)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 3), q=st.integers(1, 3),
       n=st.integers(0, 3), time_invariant=st.booleans(), augmented=st.booleans(),
       defects=st.lists(st.sampled_from(DEFECTS), min_size=23, max_size=23))
def test_stacked_channel_validation_equals_the_per_row_oracle(seed, p, q, n, time_invariant,
                                                              augmented, defects):
    rng, steps = np.random.default_rng(seed), 1 if time_invariant else n + 1
    draw = iter(defects)

    def seq(shape):
        return tuple(_defective(rng, shape, next(draw)) for _ in range(steps))

    m = ChannelModel(
        horizon=n, output_dim=p, input_dim=q, C_seq=seq((p, p)), D_seq=seq((p, q)),
        KV_seq=seq((p, p)), R_seq=seq((q, q)), Q_seq=seq((p, p)),
        terminal_Q=_defective(rng, (p, p), next(draw)), kappa=1.0,
        initial_mean=_defective(rng, (p,), next(draw)),
        initial_cov=_defective(rng, (p, p), next(draw)),
        time_invariant=time_invariant, augmented=augmented)
    assert _validation_errors(m) == _check_rows_as_oracle(m)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 3), q=st.integers(1, 3),
       memory=st.integers(1, 3), cost_memory=st.integers(0, 3),
       defects=st.lists(st.sampled_from(DEFECTS), min_size=8, max_size=8))
def test_stacked_memory_validation_equals_the_per_row_oracle(seed, p, q, memory, cost_memory,
                                                             defects):
    rng, kp = np.random.default_rng(seed), cost_memory * p
    draw = iter(defects)
    m = MemoryJModel(
        horizon=4, output_dim=p, input_dim=q,
        C_blocks=tuple(_defective(rng, (p, p), next(draw)) for _ in range(memory)),
        D=_defective(rng, (p, q), next(draw)), KV=_defective(rng, (p, p), next(draw)),
        R=_defective(rng, (q, q), next(draw)), Q_K=_defective(rng, (kp, kp), next(draw)),
        memory=memory, cost_memory=cost_memory, kappa=1.0,
        initial_history=_defective(rng, (max(memory, cost_memory), p), next(draw)))
    assert _validation_errors(m) == _check_rows_as_oracle(m)
