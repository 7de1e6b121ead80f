import math

import numpy as np
import pytest
from scipy.special import ndtri

import dirinfo as di
from dirinfo import simulate as sim
from dirinfo.errors import DimensionError, PreconditionError
from dirinfo.model import lift_strategy
from conftest import random_spd, random_stable

HALF_LN25 = 0.5 * math.log(2.5)


def kappa9_model():
    return di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.0, 9.0)


def kappa9_strategy():
    return di.stationary_strategy([[-1.5]], [[1.5]])


# -- inverse normal CDF ------------------------------------------------------

def test_quantile_median_and_symmetry():
    assert di.normal_quantile(0.5) == 0.0
    assert di.normal_quantile(0.25) == -di.normal_quantile(0.75)


def test_quantile_against_scipy_grid():
    u = np.concatenate([np.linspace(1e-12, 1 - 1e-12, 40001),
                        10.0 ** -np.arange(2, 300, dtype=float)])
    err = np.abs(di.normal_quantile(u) - ndtri(u)).max()
    assert err < 1e-9


def test_quantile_upper_tail_against_scipy():
    u = 1.0 - 10.0 ** -np.arange(2, 16, dtype=float)
    np.testing.assert_allclose(di.normal_quantile(u), ndtri(u), rtol=1e-14, atol=0.0)


def test_quantile_exact_antisymmetry_on_dyadic_uniforms():
    u = np.arange(1, 2 ** 16) / 2.0 ** 16
    np.testing.assert_array_equal(di.normal_quantile(u), -di.normal_quantile(1.0 - u))


def test_quantile_scalar_and_array_paths_agree_bitwise():
    gen = np.random.Generator(np.random.Philox(key=7))
    u = np.concatenate([gen.random(3000), 10.0 ** -np.arange(1, 300, 7, dtype=float),
                        1.0 - 10.0 ** -np.arange(1, 16, dtype=float)])
    whole = di.normal_quantile(u)
    np.testing.assert_array_equal([di.normal_quantile(float(x)) for x in u], whole)
    block = di.normal_quantile(u[:3000].reshape(1000, 3))
    for i in range(1000):
        np.testing.assert_array_equal(di.normal_quantile(u[3 * i:3 * i + 3]), block[i])


def test_quantile_boundary_rejected():
    with pytest.raises(PreconditionError):
        di.normal_quantile(0.0)
    with pytest.raises(PreconditionError):
        di.normal_quantile(np.array([0.2, 1.0]))


def test_innovation_median_is_zero_vector():
    np.testing.assert_array_equal(di.innovation_from_uniform([0.5, 0.5], np.eye(2)), [0.0, 0.0])


def test_innovation_zero_covariance_collapses():
    np.testing.assert_array_equal(
        di.innovation_from_uniform([0.9, 0.1], np.zeros((2, 2))), [0.0, 0.0])


def test_innovation_inverse_cdf_identity():
    out = di.innovation_from_uniform([0.8413447460685429], [[4.0]])
    assert out[0] == pytest.approx(2.0, abs=1e-6)


def test_innovation_sample_moments_match_covariance():
    # 10^6 draws through the uniform realization; 4 standard errors
    KZ = np.array([[2.0, 0.6], [0.6, 1.0]])
    gen = np.random.Generator(np.random.Philox(key=123))
    U = gen.random((1_000_000, 2))
    Z = sim.normal_quantile(U) @ di.linalg.sym_sqrt(KZ).T
    n = len(Z)
    mean_se = np.sqrt(np.diag(KZ) / n)
    assert np.all(np.abs(Z.mean(axis=0)) <= 4 * mean_se)
    C = (Z.T @ Z) / n
    for i in range(2):
        for j in range(2):
            se = math.sqrt((KZ[i, i] * KZ[j, j] + KZ[i, j] ** 2) / n)
            assert abs(C[i, j] - KZ[i, j]) <= 4 * se


# -- trajectories ------------------------------------------------------------

def test_trajectory_deterministic_given_seed():
    m, st = kappa9_model(), kappa9_strategy()
    a = di.sample_trajectory(m, st, 5000, seed=42)
    b = di.sample_trajectory(m, st, 5000, seed=42)
    np.testing.assert_array_equal(a.B_path, b.B_path)
    np.testing.assert_array_equal(a.info_density_path, b.info_density_path)
    c = di.sample_trajectory(m, st, 5000, seed=43)
    assert not np.array_equal(a.B_path, c.B_path)


def test_pure_noise_channel_reproduces_noise_covariance():
    m = di.scalar_model(0.0, 1.0, 2.0, 1.0, 0.0, 1.0)
    st = di.stationary_strategy([[0.0]], [[0.0]])
    tr = di.sample_trajectory(m, st, 100_000, seed=3)
    var = tr.B_path.var()
    se = 2.0 * math.sqrt(2.0 / tr.steps)
    assert abs(var - 2.0) <= 3 * se


def test_stable_closed_loop_variance_matches_lyapunov_fixed_point():
    tr = di.sample_trajectory(kappa9_model(), kappa9_strategy(), 100_000, seed=9)
    target = di.solve_lyapunov([[0.5]], [[2.5]])[0, 0]
    assert target == pytest.approx(10.0 / 3.0, abs=1e-10)
    a = 0.5
    se = target * math.sqrt(2.0 / tr.steps) * math.sqrt((1 + a * a) / (1 - a * a))
    assert abs(tr.B_path.var() - target) <= 3 * se


def test_running_rate_is_cumulative_mean():
    tr = di.sample_trajectory(kappa9_model(), kappa9_strategy(), 2000, seed=1)
    np.testing.assert_allclose(
        tr.running_rate,
        np.cumsum(tr.info_density_path) / np.arange(1, 2001), rtol=1e-12)


def test_trace_density_matches_per_step_operation():
    m, st = kappa9_model(), kappa9_strategy()
    tr = di.sample_trajectory(m, st, 50, seed=5)
    prev = m.initial_mean
    for i in range(50):
        v = di.info_density_step(prev, tr.A_path[i], tr.B_path[i], m.C(0), m.D(0),
                                 m.KV(0), st.gain(0), st.KZ(0))
        assert tr.info_density_path[i] == pytest.approx(v, rel=1e-10, abs=1e-12)
        prev = tr.B_path[i]


def test_info_density_zero_when_innovations_vanish():
    bprev = np.array([0.3])
    gain = np.array([[-1.5]])
    a = gain @ bprev
    v = di.info_density_step(bprev, a, [0.2], [[2.0]], [[1.0]], [[1.0]], gain, [[0.0]])
    assert v == 0.0


def test_info_density_at_shared_conditional_mean_is_logdet_ratio():
    bprev = np.array([0.4])
    gain = np.array([[-1.5]])
    a = gain @ bprev
    b = (np.array([[2.0]]) + np.array([[1.0]]) @ gain) @ bprev
    v = di.info_density_step(bprev, a, b, [[2.0]], [[1.0]], [[1.0]], gain, [[1.5]])
    assert v == pytest.approx(HALF_LN25, abs=1e-12)


def test_info_density_ergodic_mean_matches_rate():
    tr = di.sample_trajectory(kappa9_model(), kappa9_strategy(), 100_000, seed=17)
    assert abs(tr.terminal_rate - HALF_LN25) <= 0.01 * HALF_LN25 + 0.005


def test_unstable_open_loop_diverges():
    m = kappa9_model()
    st = di.stationary_strategy([[0.0]], [[1.5]])
    for seed in range(5):
        tr = di.sample_trajectory(m, st, 1000, seed=seed)
        assert abs(tr.B_path[-1, 0]) > 1e6


@pytest.mark.parametrize("scalar", [True, False])
def test_ergodic_mean_concentration(scalar):
    # |running_rate[n] - rate| <= 5/sqrt(n) on at least 95% of seeds,
    # for solved stabilized stationary strategies
    if scalar:
        m, st = kappa9_model(), kappa9_strategy()
        rate = HALF_LN25
    else:
        C = np.array([[1.2, 0.1], [0.0, 0.4]])   # one unstable mode
        m = di.channel_model(C, np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)), 4.0, 0)
        sol, rate = di.feedback_capacity(m)
        assert rate > 0
        st = di.stationary_strategy(sol.gain, sol.KZ)
    n = 10_000
    bad = 0
    for seed in range(20):
        tr = di.sample_trajectory(m, st, n, seed=seed)
        if abs(tr.terminal_rate - rate) > 5.0 / math.sqrt(n):
            bad += 1
    assert bad <= 1


def test_batch_matches_sequential():
    m, st = kappa9_model(), kappa9_strategy()
    batch = di.simulate_batch(m, st, 3000, range(4))
    for seed, tr in zip(range(4), batch):
        ref = di.sample_trajectory(m, st, 3000, seed=seed)
        np.testing.assert_array_equal(tr.B_path, ref.B_path)


def _tv_model_and_strategy(n, rng, p=2, q=1):
    Cs = [random_stable(rng, p, 0.7) for _ in range(n + 1)]
    Ds = [rng.normal(size=(p, q)) for _ in range(n + 1)]
    KVs = [random_spd(rng, p) for _ in range(n + 1)]
    m = di.channel_model(Cs, Ds, KVs, [np.eye(q)] * (n + 1), [np.zeros((p, p))] * (n + 1),
                         1.0, n, initial_cov=np.eye(p), time_invariant=False)
    st = di.strategy([0.3 * rng.normal(size=(q, p)) for _ in range(n + 1)],
                     [random_spd(rng, q) for _ in range(n + 1)])
    return m, st


def test_time_varying_noise_block_matches_per_step_innovations(rng):
    m, st = _tv_model_and_strategy(12, rng)
    steps, seed = 13, 4
    _, Z, V = sim._draw_noise(m, st, steps, seed)
    gen = np.random.Generator(np.random.Philox(key=seed))
    gen.random(m.output_dim)
    Uz, Uv = gen.random((steps, m.input_dim)), gen.random((steps, m.output_dim))
    for i in range(steps):
        np.testing.assert_array_equal(Z[i], di.innovation_from_uniform(Uz[i], st.KZ(i)))
        np.testing.assert_array_equal(V[i], di.innovation_from_uniform(Uv[i], m.KV(i)))


def test_time_varying_batch_matches_single(rng):
    m, st = _tv_model_and_strategy(40, rng, p=1)
    batch = di.simulate_batch(m, st, 41, range(5))
    for seed, tr in enumerate(batch):
        ref = di.sample_trajectory(m, st, 41, seed=seed)
        np.testing.assert_array_equal(tr.B_path, ref.B_path)
        np.testing.assert_array_equal(tr.info_density_path, ref.info_density_path)
    m, st = _tv_model_and_strategy(40, rng)
    batch = di.simulate_batch(m, st, 41, range(5))
    for seed, tr in enumerate(batch):
        ref = di.sample_trajectory(m, st, 41, seed=seed)
        np.testing.assert_allclose(tr.B_path, ref.B_path, rtol=1e-12, atol=1e-14)


def test_mimo_batch_matches_single_trace(rng):
    # non-normal 3x3 channel with one unstable mode; a trace may round
    # differently inside a batch, but the stable closed loop keeps it close
    U = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    C = U @ np.array([[1.3, 4.0, -2.0], [0.0, 0.5, 3.0], [0.0, 0.0, -0.6]]) @ U.T
    m = di.channel_model(C, rng.normal(size=(3, 2)), random_spd(rng, 3), np.eye(2),
                         np.zeros((3, 3)), 20.0, 0)
    sol, _ = di.feedback_capacity(m)
    st = di.stationary_strategy(sol.gain, sol.KZ)
    batch = di.simulate_batch(m, st, 2000, range(8))
    for seed in (0, 3, 7):
        ref = di.sample_trajectory(m, st, 2000, seed=seed)
        scale = np.abs(ref.B_path).max()
        np.testing.assert_allclose(batch[seed].B_path, ref.B_path, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(batch[seed].A_path, ref.A_path, rtol=1e-12, atol=1e-12 * scale)


def _nonnormal_3x3(rng):
    # the model of test_mimo_batch_matches_single_trace
    U = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    C = U @ np.array([[1.3, 4.0, -2.0], [0.0, 0.5, 3.0], [0.0, 0.0, -0.6]]) @ U.T
    m = di.channel_model(C, rng.normal(size=(3, 2)), random_spd(rng, 3), np.eye(2),
                         np.zeros((3, 3)), 20.0, 0)
    sol, _ = di.feedback_capacity(m)
    return m, di.stationary_strategy(sol.gain, sol.KZ)


def _memory2(rng):
    mem = di.memory_model([0.6, 0.2], 1.0, 1.0, 1.0, None, 1.0, 10, cost_memory=1,
                          initial_history=[[0.25], [-0.15]])
    st = di.stationary_strategy([[-0.4, 0.05]], [[0.7]])
    return di.augment_memory(mem), lift_strategy(st, 1, 2)


def _near_marginal(rng):
    # |C| = 1 + 1e-3 just above kappa_min: the closed loop sits at 0.999
    m = di.scalar_model(-1.001, 1.0, 1.0, 1.0, 0.0, 1.0)
    m = di.scalar_model(-1.001, 1.0, 1.0, 1.0, 0.0, 1.0001 * di.kappa_min(m))
    sol, _ = di.feedback_capacity(m)
    return m, di.stationary_strategy(sol.gain, sol.KZ)


SCAN_MODELS = {
    "kappa9": lambda rng: (kappa9_model(), kappa9_strategy()),
    "nonnormal3x3": _nonnormal_3x3,
    "memory2": _memory2,
    "near_marginal": _near_marginal,
}


def _reference_paths(m, st, steps, seeds):
    """The per-step recursion on an (S, p) state, from the same draws."""
    draws = [sim._draw_noise(m, st, steps, seed) for seed in seeds]
    b = np.array([d[0] for d in draws])
    Z = np.stack([d[1] for d in draws], axis=1)
    V = np.stack([d[2] for d in draws], axis=1)
    gT, CT, DT = st.gain(0).T, m.C(0).T, m.D(0).T
    A = np.empty((len(seeds), steps, m.input_dim))
    B = np.empty((len(seeds), steps, m.output_dim))
    for i in range(steps):
        a = b @ gT + Z[i]
        b = b @ CT + a @ DT + V[i]
        A[:, i] = a
        B[:, i] = b
    return A, B


@pytest.mark.parametrize("steps", [1, 255, 256, 257, 512, 3 * 256 + 17])
@pytest.mark.parametrize("name", sorted(SCAN_MODELS))
def test_chunked_scan_matches_per_step_recursion(name, steps, rng):
    # the first chunk is the per-step recursion itself; later chunks start
    # from a carried state and may move in their last bits
    m, st = SCAN_MODELS[name](rng)
    seeds = [0, 5, 9]
    batch = di.simulate_batch(m, st, steps, seeds)
    A = np.stack([tr.A_path for tr in batch])
    B = np.stack([tr.B_path for tr in batch])
    Aref, Bref = _reference_paths(m, st, steps, seeds)
    exact = min(steps, sim.CHUNK)
    np.testing.assert_array_equal(B[:, :exact], Bref[:, :exact])
    np.testing.assert_array_equal(A[:, :exact], Aref[:, :exact])
    scale = np.abs(Bref).max()
    np.testing.assert_allclose(B, Bref, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(A, Aref, rtol=1e-12, atol=1e-12 * scale)


def test_chunked_scan_follows_a_divergent_loop():
    # C = 2 under g = 0 grows as 2^1000 over four chunks; the padding of the
    # last chunk must not overflow
    m = kappa9_model()
    st = di.stationary_strategy([[0.0]], [[1.5]])
    batch = di.simulate_batch(m, st, 1000, range(3))
    _, Bref = _reference_paths(m, st, 1000, range(3))
    for tr, ref in zip(batch, Bref):
        np.testing.assert_allclose(tr.B_path[-1], ref[-1], rtol=1e-12)


def test_scalar_batch_of_64_matches_single_traces():
    # 2,000 steps end in a partial chunk
    m, st = kappa9_model(), kappa9_strategy()
    batch = di.simulate_batch(m, st, 2000, range(64))
    for seed, tr in enumerate(batch):
        ref = di.sample_trajectory(m, st, 2000, seed=seed)
        np.testing.assert_array_equal(tr.B_path, ref.B_path)
        np.testing.assert_array_equal(tr.A_path, ref.A_path)
        np.testing.assert_array_equal(tr.info_density_path, ref.info_density_path)


def test_batch_of_no_seeds_is_empty():
    assert di.simulate_batch(kappa9_model(), kappa9_strategy(), 100, []) == []


def test_batch_validates_before_any_draw(monkeypatch, rng):
    def no_draw(*args):
        raise AssertionError("noise drawn before validation")

    monkeypatch.setattr(sim, "_draw_noise", no_draw)
    with pytest.raises(PreconditionError):
        di.simulate_batch(kappa9_model(), kappa9_strategy(), 0, range(4))
    m, st = _tv_model_and_strategy(3, rng)
    with pytest.raises(PreconditionError):
        di.simulate_batch(m, st, 5, range(4))
    short = di.strategy([[[-1.5]], [[-1.5]]], [[[1.5]], [[1.5]]])
    with pytest.raises(DimensionError):
        di.simulate_batch(kappa9_model(), short, 3, range(4))


# -- stability report --------------------------------------------------------

def test_stability_report_zero_innovations_gives_exactly_zero_rates():
    m = di.scalar_model(0.5, 1.0, 1.0, 1.0, 0.0, 1.0)
    st = di.stationary_strategy([[0.0]], [[0.0]])
    traces = di.simulate_batch(m, st, 2000, range(4))
    assert all(t.terminal_rate == 0.0 for t in traces)
    rep = di.stability_report(traces, 0.0, 0.0, 0.02)
    assert rep.rate_violation_fraction == 0.0


def test_stability_report_64_traces_concentrate():
    traces = di.simulate_batch(kappa9_model(), kappa9_strategy(), 100_000, range(64))
    rep = di.stability_report(traces, HALF_LN25, 9.0, 0.02, cost_epsilon=0.45)
    assert rep.rate_violation_fraction == 0.0
    assert rep.cost_violation_fraction == 0.0
    assert rep.violation_fraction == 0.0
    assert rep.rate_histogram[0].sum() == 64


def test_stability_report_requires_enough_data():
    m, st = kappa9_model(), kappa9_strategy()
    traces = di.simulate_batch(m, st, 2000, range(2))
    with pytest.raises(PreconditionError):
        di.stability_report(traces[:1], 0.0, 0.0, 0.1)
    short = di.simulate_batch(m, st, 100, range(2))
    with pytest.raises(PreconditionError):
        di.stability_report(short, 0.0, 0.0, 0.1)


def test_trace_csv_layout():
    tr = di.sample_trajectory(kappa9_model(), kappa9_strategy(), 1200, seed=2)
    text = di.trace_to_csv(tr)
    lines = text.strip().split("\n")
    assert lines[0] == "step,b0,a0,info_density,cost,running_rate"
    assert len(lines) == 1201
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(tr.B_path[0, 0], rel=1e-10)


def test_time_varying_model_bounds_steps():
    m = di.channel_model([[[0.5]], [[0.6]]], [[[1.0]], [[1.0]]], [[[1.0]], [[1.0]]],
                         [[[1.0]], [[1.0]]], [[[0.0]], [[0.0]]], 1.0, 1,
                         time_invariant=False)
    st = di.strategy([[[0.0]], [[0.0]]], [[[0.5]], [[0.5]]])
    tr = di.sample_trajectory(m, st, 2, seed=0)
    assert tr.steps == 2
    with pytest.raises(PreconditionError):
        di.sample_trajectory(m, st, 3, seed=0)


# -- per-step stacks ---------------------------------------------------------

def _tv_weighted(rng, n=30, p=2, q=1):
    # a time-varying model with per-step R, Q and a distinct terminal_Q
    m, st = _tv_model_and_strategy(n, rng, p, q)
    m = di.channel_model(m.C_seq, m.D_seq, m.KV_seq, [random_spd(rng, q) for _ in range(n + 1)],
                         [random_spd(rng, p) for _ in range(n + 1)], 1.0, n,
                         terminal_Q=random_spd(rng, p), initial_cov=np.eye(p),
                         time_invariant=False)
    return m, st


def _ftfi_terminal_q(rng):
    # the FTFI strategy of a time-invariant model whose terminal_Q differs from Q
    m = di.channel_model(random_stable(rng, 2, 1.3), rng.normal(size=(2, 1)), random_spd(rng, 2),
                         np.eye(1), 0.2 * np.eye(2), 200.0, 30, terminal_Q=np.diag([3.0, 1.5]),
                         initial_mean=[0.5, -1.0])
    sol, _ = di.ftfi_capacity(m)
    return m, sol.strategy


@pytest.mark.parametrize("make", [_tv_weighted, _ftfi_terminal_q])
def test_stacked_trace_matches_per_step_operation(make, rng):
    # the stacked densities and costs against the per-step oracle; the last
    # step weighs its output with terminal_Q
    m, st = make(rng)
    steps = m.horizon + 1
    assert len(st.gains) == steps and not np.allclose(m.Q(steps - 1), m.Q(0))
    tr = di.sample_trajectory(m, st, steps, seed=5)
    b0 = sim._draw_noise(m, st, steps, 5)[0]
    Bprev = np.vstack([b0, tr.B_path[:-1]])
    info = [di.info_density_step(Bprev[i], tr.A_path[i], tr.B_path[i], m.C(i), m.D(i),
                                 m.KV(i), st.gain(i), st.KZ(i)) for i in range(steps)]
    cost = [a @ m.R(i) @ a + b @ m.Q(i) @ b
            for i, (a, b) in enumerate(zip(tr.A_path, Bprev))]
    np.testing.assert_allclose(tr.info_density_path, info, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(tr.cost_path, cost, rtol=1e-12)


def test_time_varying_batch_builds_stacks_once_per_seed(monkeypatch, rng):
    # the per-step oracle stays off the sampling path, and the square roots
    # of K_Z(i) and K_V(i) are one batched call each per seed
    m, st = _tv_model_and_strategy(300, rng)

    def oracle(*args):
        raise AssertionError("info_density_step called while sampling")

    roots = []
    real = sim.sym_sqrt
    monkeypatch.setattr(sim, "info_density_step", oracle)
    monkeypatch.setattr(sim, "sym_sqrt", lambda a: roots.append(np.shape(a)) or real(a))
    traces = di.simulate_batch(m, st, 301, range(4))
    assert len(traces) == 4
    # per seed: the initial output, then the K_Z and K_V stacks
    assert len(roots) == 3 * 4
    assert sorted(roots).count((301, 2, 2)) == 4
