import dataclasses
import hashlib
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import ndtri

import dirinfo as di
from dirinfo import simulate as sim
from dirinfo.cli import load_model
from dirinfo.errors import DimensionError, PreconditionError
import oracles
from conftest import random_spd, random_stable

HALF_LN25 = 0.5 * math.log(2.5)
DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "models"


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


def _ulps(x, k):
    """x and its k neighbours on each side."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], 1.0))
    return below[:0:-1] + above


# the central rational gives way to the tails near 0.075 and 0.925, and the two
# tails switch at r = sqrt(-log u) = 5: 1.3887943864963947e-11 is the largest u past it
QUANTILE_EDGES = np.array(
    [5e-324, 1e-300, 1e-100, 1e-20, 1e-12, 1.0 - 1e-12, 1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52]
    + _ulps(0.075, 4) + _ulps(0.925, 4) + _ulps(0.5, 1) + _ulps(1.3887943864963947e-11, 2))


@pytest.mark.parametrize("u", [
    np.random.Generator(np.random.Philox(key=11)).random(800_000),
    QUANTILE_EDGES,
    np.random.Generator(np.random.Philox(key=12)).random(sim.QBLOCK - 1),
    np.random.Generator(np.random.Philox(key=13)).random(sim.QBLOCK),
    np.concatenate([np.random.Generator(np.random.Philox(key=14)).random(sim.QBLOCK),
                    QUANTILE_EDGES[:1]]),
    np.float64(1e-300), np.float64(0.3), np.float64(0.5), np.float64(0.97),
    np.random.Generator(np.random.Philox(key=15)).random((300, 7)),
], ids=["philox_8e5", "edges", "qblock-1", "qblock", "qblock+1",
        "0d_far", "0d_mid", "0d_half", "0d_tail", "2d"])
def test_quantile_is_bit_exact_against_polyval_reference(u):
    # the blocked, in-place Horner steps repeat np.polyval's float operations;
    # qblock+1 puts the smallest subnormal alone in the last block
    got, ref = di.normal_quantile(u), oracles.normal_quantile(u)
    assert np.shape(got) == np.shape(ref) == np.shape(u)
    assert type(got) is type(ref)
    assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(ref).view(np.int64))


def test_quantile_sign_step_is_bit_exact_across_qblock_boundaries():
    # the sign comes from u - 0.5 by copysign: compared as bytes, so a signed
    # zero shows, at the median and its neighbours, the central/tail boundary,
    # the far tails past r = 5 (u or 1 - u at most 1e-11) and the extremes,
    # placed across the boundaries of three blocks
    edges = np.array([0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
                      0.075, 0.925, np.nextafter(0.075, 0.0), np.nextafter(0.925, 1.0),
                      1e-11, 1e-15, 1e-300, 1.0 - 1e-11, 1.0 - 1e-15, 5e-324, 1.0 - 2.0 ** -53])
    u = np.random.Generator(np.random.Philox(key=16)).random(3 * sim.QBLOCK)
    for start in (0, sim.QBLOCK - 7, 2 * sim.QBLOCK - 3, len(u) - len(edges)):
        u[start:start + len(edges)] = edges
    got = di.normal_quantile(u)
    assert got.tobytes() == oracles.normal_quantile(u).tobytes()
    assert not np.signbit(got[u == 0.5]).any()
    assert not np.signbit(di.normal_quantile(0.5))


def test_quantile_boundary_rejected():
    with pytest.raises(PreconditionError):
        di.normal_quantile(0.0)
    with pytest.raises(PreconditionError):
        di.normal_quantile(np.array([0.2, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, 0.0, -0.0, 1.0, -0.25, 1.5, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, sim.QBLOCK - 1, sim.QBLOCK, 2 * sim.QBLOCK + 5])
def test_quantile_rejects_a_value_outside_the_open_interval_in_any_block(bad, at):
    u = np.random.Generator(np.random.Philox(key=17)).random(2 * sim.QBLOCK + 9)
    u[at] = bad
    for call in (di.normal_quantile, oracles.normal_quantile):
        with pytest.raises(PreconditionError, match="uniform sample on the boundary of"):
            call(u)
    with pytest.raises(PreconditionError, match="uniform sample on the boundary of"):
        di.normal_quantile(bad)


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
        v = oracles.info_density_step(prev, tr.A_path[i], tr.B_path[i], m.C(0), m.D(0),
                                 m.KV(0), st.gain(0), st.KZ(0))
        assert tr.info_density_path[i] == pytest.approx(v, rel=1e-10, abs=1e-12)
        prev = tr.B_path[i]


def test_info_density_zero_when_innovations_vanish():
    bprev = np.array([0.3])
    gain = np.array([[-1.5]])
    a = gain @ bprev
    v = oracles.info_density_step(bprev, a, [0.2], [[2.0]], [[1.0]], [[1.0]], gain, [[0.0]])
    assert v == 0.0


def test_info_density_at_shared_conditional_mean_is_logdet_ratio():
    bprev = np.array([0.4])
    gain = np.array([[-1.5]])
    a = gain @ bprev
    b = (np.array([[2.0]]) + np.array([[1.0]]) @ gain) @ bprev
    v = oracles.info_density_step(bprev, a, b, [[2.0]], [[1.0]], [[1.0]], gain, [[1.5]])
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
    return di.augment_memory(mem), oracles.lift_strategy(st, 1, 2)


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


def test_batch_memory_stays_within_four_path_sized_buffers():
    # four (S, n, 2) float buffers, n padded to whole chunks, bound every phase: the
    # draws, the scan, the copy back to seed-major order and the traces' outputs; a
    # buffer held past its use breaks the 5% slack
    m = load_model(str(DOCS / "mimo_stable.json"))
    sol, _ = di.feedback_capacity(m)
    st = di.stationary_strategy(sol.gain, sol.KZ)
    S, steps = 8, 40_000
    n = -(-steps // sim.CHUNK) * sim.CHUNK
    tracemalloc.start()
    try:
        di.simulate_batch(m, st, steps, range(S))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 4 * S * n * 2 * 8


def _layout_model(d):
    m = di.channel_model(0.5 * np.eye(d), np.eye(d), np.eye(d), np.eye(d), np.zeros((d, d)), 1.0, 0)
    return m, di.stationary_strategy(np.zeros((d, d)), np.eye(d))


@pytest.mark.parametrize("steps", [1, sim.CHUNK - 1, sim.CHUNK, sim.CHUNK + 1, 3 * sim.CHUNK + 7])
@pytest.mark.parametrize("S", [1, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_layout_copies_match_the_swapaxes_reference(d, S, steps):
    # the whole-row copies into the time-major buffers and back to seed-major
    # order move the same bytes as the swapaxes / transpose layout
    m, st = _layout_model(d)
    K = -(-steps // sim.CHUNK)
    Z = np.zeros((sim.CHUNK, S * K, d))
    V = np.zeros_like(Z)
    roots = sim._roots(m, st, steps)
    b0 = [sim._draw_slabs(m, st, steps, seed, Z, V, seed * K, roots) for seed in range(S)]
    draws = [sim._draw_noise(m, st, steps, seed) for seed in range(S)]
    assert np.array(b0).tobytes() == np.array([dr[0] for dr in draws]).tobytes()
    for buf, k in ((Z, 1), (V, 2)):
        assert buf.tobytes() == oracles.time_major(np.stack([dr[k] for dr in draws]), sim.CHUNK).tobytes()
        got, ref = sim._seed_major(buf, S), oracles.seed_major(buf, S)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_mimo_p3_batch_keeps_the_bits_of_the_swapaxes_layout():
    # sha256 of the traces as the swapaxes / transpose layout gave them: three
    # seeds over four chunks, the last partial, with an initial-output draw
    C = [[0.5, 0.2, 0.0], [0.0, -0.5, 0.3], [0.1, 0.0, 0.7]]
    D = [[1.0, 0.1, 0.0], [0.0, 1.0, -0.2], [0.3, 0.0, 1.0]]
    KV = [[1.0, 0.3, 0.0], [0.3, 2.0, 0.1], [0.0, 0.1, 0.7]]
    KZ = [[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 0.5]]
    m = di.channel_model(C, D, KV, np.eye(3), np.eye(3), 5.0, 0, initial_cov=0.5 * np.eye(3))
    st = di.stationary_strategy(-0.3 * np.eye(3), KZ)
    h = hashlib.sha256()
    for tr in di.simulate_batch(m, st, 3 * sim.CHUNK + 7, [0, 4, 9]):
        for x in (tr.B_path, tr.A_path, tr.info_density_path, tr.cost_path, tr.running_rate):
            h.update(np.ascontiguousarray(x).tobytes())
    assert h.hexdigest() == "2bf0cc5d0daffcd9217e675cbb247a814a4fca2c8e0725e521d52e755803fadf"


# -- products with one inner term ---------------------------------------------

_EDGE_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.25, 1e300, -1e-300])


def _with_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, sorted(w.category.__name__ for w in seen)


@pytest.mark.parametrize("per_row", [False, True])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_inner_dimension_one_product_keeps_the_bytes_and_warnings_of_matmul(width, per_row):
    # the broadcast product against X @ M[0].T and stacked matmul, on entries
    # drawn from +-0.0, +-inf, nan and finite values: -0.0 products come out
    # +0.0, and inf * 0 warns as it does in matmul
    rng = np.random.default_rng(width)
    warned = 0
    for n in [1, 2, 5, 33, 1000] * 20:
        X = rng.choice(_EDGE_VALUES, size=(n, 1))
        M = rng.choice(_EDGE_VALUES, size=(n if per_row else 1, width, 1))
        got, got_warnings = _with_warnings(sim._rowwise, M, X)
        ref, ref_warnings = _with_warnings(oracles.rowwise, M, X)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        assert got_warnings == ref_warnings
        warned += bool(ref_warnings)
    assert 0 < warned < 100


def test_time_varying_q1_batch_keeps_the_bits_of_stacked_matmul():
    # sha256 of per-row-stack traces as stacked matmul gave them: with q = 1
    # every D, R and K_Z product has one inner term, and at p = 1 every product
    # does; per-step R and Q and a terminal_Q keep the output-cost form in play
    rng = np.random.default_rng(11)
    h = hashlib.sha256()
    for p in (1, 2):
        m, st = _tv_weighted(rng, n=40, p=p, q=1)
        for tr in di.simulate_batch(m, st, 41, [0, 4, 9]):
            for x in (tr.B_path, tr.A_path, tr.info_density_path, tr.cost_path, tr.running_rate):
                h.update(np.ascontiguousarray(x).tobytes())
    assert h.hexdigest() == "6ff388f563f40735ee1e3bb015862dfb84ed6e84895e7a952b7e70e56b0febaf"


# -- right operands of tall products ------------------------------------------

_INVALID = "invalid value encountered in matmul"


def _messages(fn, *args):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, sorted(str(w.message) for w in seen)


def _sprinkled(rng, shape, share):
    """Normal entries, about `share` of them replaced by _EDGE_VALUES."""
    X = rng.normal(size=shape)
    edge = rng.random(shape) < share
    X[edge] = rng.choice(_EDGE_VALUES, size=edge.sum())
    return X


@pytest.mark.parametrize("rows", [1, 2, 3, 257, 40_000])
def test_stack_of_one_product_keeps_the_bytes_of_the_transposed_view(rows):
    # a stack of one multiplies by a C-contiguous copy of M[0].T, and one row
    # by the view itself: against matmul on the view, on inner dimensions 2-8
    # and widths 1-8 with +-0.0, +-inf and nan among the entries, the bytes
    # match.  The warnings match too, but for one: OpenBLAS's product with a
    # contiguous operand may warn 'invalid' on a row holding +-inf where the
    # view's does not; that row's product is +-inf or nan either way
    rng = np.random.default_rng(rows)
    extra = 0
    for inner in range(2, 9):
        share = (0.02, 0.3, 1.0)[inner % 3]
        X = _sprinkled(rng, (rows, inner), share)
        for width in range(1, 9):
            M = _sprinkled(rng, (1, width, inner), share)
            got, got_warnings = _messages(sim._rowwise, M, X)
            ref, ref_warnings = _messages(oracles.rowwise, M, X)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
            if got_warnings != ref_warnings:
                assert rows > 1 and got_warnings == sorted(ref_warnings + [_INVALID])
                assert not np.isfinite(got[np.isinf(X).any(axis=1)]).any()
                extra += 1
    assert extra < 7 * 8


@pytest.mark.parametrize("steps", [1, 2, 100, sim.CHUNK])
def test_one_seed_trace_is_the_per_step_recursion(steps):
    # one seed over at most CHUNK steps runs the scan on a one-row state, whose
    # products keep the transposed views: the trace is the gemv recursion
    # a = g b + Z, b = C b + D a + V bit for bit (a contiguous copy of the
    # same matrix rounds one row otherwise)
    m = di.channel_model([[0.5, 0.2], [-0.1, 0.7]], [[1.0, 0.3], [0.2, 1.0]],
                         [[1.0, 0.3], [0.3, 2.0]], np.eye(2), np.eye(2), 5.0, 0,
                         initial_cov=0.5 * np.eye(2))
    st = di.stationary_strategy([[-0.3, 0.1], [0.05, -0.2]], [[1.0, 0.2], [0.2, 0.8]])
    tr = di.sample_trajectory(m, st, steps, seed=3)
    b, Z, V = sim._draw_noise(m, st, steps, 3)
    C, D, g = m.C(0), m.D(0), st.gain(0)
    for i in range(steps):
        a = g @ b + Z[i]
        b = C @ b + D @ a + V[i]
        assert tr.A_path[i].tobytes() == a.tobytes()
        assert tr.B_path[i].tobytes() == b.tobytes()


_GRID_DIMS = (2, 3, 4, 8, 16)
# a time-varying loop runs as one chunk of `steps`, so 257 steps pass CHUNK
_GRID_STEPS = {"stationary": (1, 200, 257, 600, 3000), "time-varying": (1, 200, 257)}


def _contraction(rng, n, norm=0.9):
    A = rng.normal(size=(n, n))
    return A * (norm / np.linalg.norm(A, 2))


def _grid_loop(kind, p, q):
    """A random p x q loop under a non-zero gain: C + D g has spectral radius
    0.99, so the carry through (C + D g)^CHUNK reaches the path, or,
    time-varying, norm 0.9 at each step (three loops in turn); R, Q, K_V and
    K_Z are random and positive definite."""
    rng = np.random.default_rng([p, q])
    loops = []
    for _ in range(1 if kind == "stationary" else 3):
        D = rng.normal(size=(p, q))
        g = rng.normal(size=(q, p)) / math.sqrt(p)
        Acl = random_stable(rng, p, 0.99) if kind == "stationary" else _contraction(rng, p)
        loops.append((Acl - D @ g, D, g))
    KV, R, Q, KZ = random_spd(rng, p), random_spd(rng, q), random_spd(rng, p), random_spd(rng, q)
    if kind == "stationary":
        C, D, g = loops[0]
        return (di.channel_model(C, D, KV, R, Q, 1.0, 0, initial_cov=np.eye(p)),
                di.stationary_strategy(g, KZ))
    n = max(_GRID_STEPS[kind])
    C, D, G = ([loops[i % 3][k] for i in range(n)] for k in range(3))
    m = di.channel_model(C, D, [KV] * n, [R] * n, [Q] * n, 1.0, n - 1,
                         initial_cov=np.eye(p), time_invariant=False)
    return m, di.strategy(G, [KZ] * n)


def _grid_digests(kind, p):
    """q -> the first 16 hex digits of the sha256 of the paths (B, A,
    information density, cost) of 1, 2 and 5 seeds over each grid length."""
    out = {}
    for q in _GRID_DIMS:
        m, st = _grid_loop(kind, p, q)
        h = hashlib.sha256()
        for S in (1, 2, 5):
            for steps in _GRID_STEPS[kind]:
                for tr in di.simulate_batch(m, st, steps, range(S)):
                    for x in (tr.B_path, tr.A_path, tr.info_density_path, tr.cost_path):
                        h.update(np.ascontiguousarray(x).tobytes())
        out[q] = h.hexdigest()[:16]
    return out


# the grid's digests as the products on transposed views gave them, but for
# the shapes marked "moved": there one inner dimension is 16 against an
# output width of 2 to 4, where OpenBLAS rounds a product of few rows
# otherwise for a C-contiguous right operand than for a transposed one;
# those entries are the bits after the move ("Right operands" in simulate.py)
_GRID_DIGESTS = {
    ("stationary", 2): {2: "79436101dde70ec7", 3: "b2ba8a93f769496f", 4: "2f6fd21c0cc5ecda",
                        8: "693414b29fa86b2c", 16: "0bf8d6643061aaf0"},  # q = 16 moved
    ("stationary", 3): {2: "7c90393269b8a4f7", 3: "e14d41f865911bb7", 4: "05cec0fddb64dfef",
                        8: "79043cb49a15da25", 16: "a657a805c0442771"},  # q = 16 moved
    ("stationary", 4): {2: "74abec35754f774c", 3: "ea2c425c21a8400d", 4: "0d0c57d67f73f2e2",
                        8: "bb73de5306693f48", 16: "d217e361e43361b3"},  # q = 16 moved
    ("stationary", 8): {2: "157ec01de6fc8584", 3: "40d08b870d002632", 4: "838f693d9ad461dc",
                        8: "0ed4c6a96f6953eb", 16: "957aafc15c2e44c9"},
    ("stationary", 16): {2: "79d47cc058494459", 3: "7353055d2f6074ba", 4: "2bd4d1f2623f7143",
                         8: "50d48a3b2c7e4bb7", 16: "6717af724d00e5cd"},  # q = 2, 3, 4 moved
    ("time-varying", 2): {2: "c7e97624def0ded2", 3: "813a4bb62f68c95c", 4: "19e781bdc08bcf68",
                          8: "dbcf8a2dee1a71d3", 16: "e6666c605b0d5307"},  # q = 16 moved
    ("time-varying", 3): {2: "d696312f4964eb18", 3: "49b21189554c84e6", 4: "12a8bdb8fcd59fa9",
                          8: "4ab4068cb7638d2b", 16: "d09c64f3eaeecb76"},  # q = 16 moved
    ("time-varying", 4): {2: "1541d22278c7f657", 3: "4a7d0008c909f19e", 4: "35ce5f3e5add6c38",
                          8: "15dc98ef8aa9a4c4", 16: "159a4dcef715febc"},  # q = 16 moved
    ("time-varying", 8): {2: "9d322fb1b581b13b", 3: "fbf81c7ea91b70e5", 4: "a5f4d83cdc58ba68",
                          8: "129f46971ec68ff8", 16: "c91482ff3e48699b"},
    ("time-varying", 16): {2: "3aa0b57ff608f05a", 3: "2d5ab2a7c13623ed", 4: "8ecae4ebcd35bd4f",
                           8: "e0f6df0def3d9364", 16: "2c442534c1ea8d28"},  # q = 2, 3, 4 moved
}


@pytest.mark.parametrize("p", _GRID_DIMS)
@pytest.mark.parametrize("kind", sorted(_GRID_STEPS))
def test_contiguous_right_operands_keep_the_grid_bits(kind, p):
    assert _grid_digests(kind, p) == _GRID_DIGESTS[kind, p]


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


def _diverged_trace(rng):
    # C = -1e100 under g = 0 overflows to -inf at step 4 and reads nan after it;
    # -0.0 and +inf are planted in the cost, so every special value is on the trace
    m = di.scalar_model(-1e100, 1.0, 1.0, 1.0, 0.0, 9.0)
    with np.errstate(all="ignore"):
        tr = di.sample_trajectory(m, di.stationary_strategy([[0.0]], [[0.0]]), 8, seed=1)
    cost = tr.cost_path.copy()
    cost[:2] = -0.0, np.inf
    return dataclasses.replace(tr, cost_path=cost)


CSV_TRACES = {
    "one_step": lambda rng: di.sample_trajectory(kappa9_model(), kappa9_strategy(), 1, seed=4),
    "past_chunk": lambda rng: di.sample_trajectory(kappa9_model(), kappa9_strategy(),
                                                   2 * sim.CHUNK + 5, seed=4),
    "p2_q2": lambda rng: di.sample_trajectory(*_layout_model(2), 300, seed=4),
    "memory2": lambda rng: di.sample_trajectory(*_memory2(rng), 300, seed=4),
    "diverged": _diverged_trace,
}


@pytest.mark.parametrize("name", sorted(CSV_TRACES))
def test_trace_csv_is_the_per_row_reference_byte_for_byte(name, rng):
    tr = CSV_TRACES[name](rng)
    assert di.trace_to_csv(tr) == oracles.trace_csv_reference(tr)


def test_diverged_csv_trace_holds_every_special_value(rng):
    tr = _diverged_trace(rng)
    x = np.concatenate([tr.B_path.ravel(), tr.cost_path])
    assert np.isnan(x).any() and np.isposinf(x).any() and np.isneginf(x).any()
    assert ((x == 0.0) & np.signbit(x)).any()
    cells = set(di.trace_to_csv(tr).replace("\n", ",").split(","))
    assert {"nan", "inf", "-inf", "-0"} <= cells


def test_time_varying_model_bounds_steps():
    m = di.channel_model([[[0.5]], [[0.6]]], [[[1.0]], [[1.0]]], [[[1.0]], [[1.0]]],
                         [[[1.0]], [[1.0]]], [[[0.0]], [[0.0]]], 1.0, 1,
                         time_invariant=False)
    st = di.strategy([[[0.0]], [[0.0]]], [[[0.5]], [[0.5]]])
    tr = di.sample_trajectory(m, st, 2, seed=0)
    assert tr.steps == 2
    with pytest.raises(PreconditionError):
        di.sample_trajectory(m, st, 3, seed=0)


@pytest.mark.parametrize("gain, KZ", [
    ([[-1.5, 0.0]], [[1.5]]),              # gain not (q, p)
    ([[-1.5], [0.0]], np.eye(2)),          # a (2, 1) gain and its (2, 2) innovations
])
def test_batch_rejects_strategy_shapes_of_another_model(gain, KZ):
    with pytest.raises(DimensionError, match="strategy gains must be 1x1"):
        di.simulate_batch(kappa9_model(), di.stationary_strategy(gain, KZ), 10, [0, 1])


def test_time_varying_batch_rejects_a_wrong_per_step_gain():
    m = di.channel_model([[[0.5]], [[0.6]]], [[[1.0]], [[1.0]]], [[[1.0]], [[1.0]]],
                         [[[1.0]], [[1.0]]], [[[0.0]], [[0.0]]], 1.0, 1,
                         time_invariant=False)
    st = di.Strategy(gains=(np.zeros((1, 1)), np.zeros((2, 1))),
                     innovations=(np.ones((1, 1)), np.ones((1, 1))))
    with pytest.raises(DimensionError):
        di.simulate_batch(m, st, 2, [0])


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


def _tv_terminal_q_only(rng, n=20, p=2, q=1):
    # running Q = 0, so only the last step weighs its output, by terminal_Q
    m, st = _tv_model_and_strategy(n, rng, p, q)
    m = di.channel_model(m.C_seq, m.D_seq, m.KV_seq, m.R_seq, m.Q_seq, 1.0, n,
                         terminal_Q=random_spd(rng, p), initial_cov=np.eye(p),
                         time_invariant=False)
    return m, st


@pytest.mark.parametrize("make", [_tv_weighted, _ftfi_terminal_q, _tv_terminal_q_only])
def test_stacked_trace_matches_per_step_operation(make, rng):
    # the stacked densities and costs against the per-step oracle; the last
    # step weighs its output with terminal_Q
    m, st = make(rng)
    steps = m.horizon + 1
    assert len(st.gains) == steps and not np.allclose(m.Q(steps - 1), m.Q(0))
    tr = di.sample_trajectory(m, st, steps, seed=5)
    b0 = sim._draw_noise(m, st, steps, 5)[0]
    Bprev = np.vstack([b0, tr.B_path[:-1]])
    info = [oracles.info_density_step(Bprev[i], tr.A_path[i], tr.B_path[i], m.C(i), m.D(i),
                                 m.KV(i), st.gain(i), st.KZ(i)) for i in range(steps)]
    cost = [a @ m.R(i) @ a + b @ m.Q(i) @ b
            for i, (a, b) in enumerate(zip(tr.A_path, Bprev))]
    np.testing.assert_allclose(tr.info_density_path, info, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(tr.cost_path, cost, rtol=1e-12)


@pytest.mark.parametrize("make", [
    lambda rng: (kappa9_model(), kappa9_strategy()),
    lambda rng: _tv_model_and_strategy(30, rng),
    lambda rng: _tv_model_and_strategy(30, rng, p=1),
    lambda rng: (load_model(str(DOCS / "mimo_stable.json")),
                 di.stationary_strategy(-0.2 * np.eye(2), np.eye(2))),
])
def test_zero_output_weight_cost_is_the_input_form(make, rng):
    # with Q = 0 and terminal_Q = 0 on every step, the cost has the bytes of
    # the full sum a R a + b' 0 b built from the trace: the skipped output form
    # is exactly +0.0 and adding it changes no bit
    m, st = make(rng)
    steps = 31 if len(st.gains) > 1 else 600
    assert not any(Q.any() for Q in (*m.Q_seq, m.terminal_Q))
    for seed, tr in zip([0, 7], di.simulate_batch(m, st, steps, [0, 7])):
        assert tr.cost_path.tobytes() == _full_cost(m, st, seed, tr).tobytes()


def _full_cost(m, st, seed, tr):
    # a R a + b' 0 b over the trace of a Q = 0 model, both forms added, as the
    # cost was summed before a zero Q stack dropped its form
    steps, p = tr.B_path.shape
    Bprev = np.vstack([sim._draw_noise(m, st, steps, seed)[0], tr.B_path[:-1]])
    return (sim._form(np.stack(m.R_seq[:steps]), tr.A_path)
            + sim._form(np.zeros((steps, p, p)), Bprev))


def test_overflowed_zero_output_weight_cost_reads_inf():
    # a Q = 0 loop that overflows: where b_{i-1} and a_i are infinite, the
    # cost is the input form, inf, where the full sum reads inf + 0 * inf = nan
    m = kappa9_model()
    st = di.stationary_strategy([[-0.5]], [[1.5]])     # closed loop 1.5
    with np.errstate(over="ignore", invalid="ignore"):
        tr = di.simulate_batch(m, st, 2000, [3])[0]
        full = _full_cost(m, st, 3, tr)
    turned = np.isposinf(tr.cost_path) & np.isnan(full)
    assert turned.any()
    assert np.isinf(tr.B_path).any() and np.isnan(tr.cost_path[-1])
    nan = np.isnan(full)
    assert (np.isnan(tr.cost_path) == nan & ~turned).all()
    np.testing.assert_array_equal(tr.cost_path[~nan], full[~nan])


def test_time_varying_batch_builds_stacks_once_per_seed(monkeypatch, rng):
    # the per-step oracle stays off the sampling path, and the square roots
    # of K_Z(i) and K_V(i) are one batched call each per batch
    m, st = _tv_model_and_strategy(300, rng)
    assert not hasattr(sim, "info_density_step")
    roots = []
    real = sim.sym_sqrt
    monkeypatch.setattr(sim, "sym_sqrt", lambda a: roots.append(np.shape(a)) or real(a))
    traces = di.simulate_batch(m, st, 301, range(4))
    assert len(traces) == 4
    # per batch: the initial output, then the K_Z and K_V stacks
    assert roots == [(2, 2), (301, 1, 1), (301, 2, 2)]


def test_stationary_mimo_trace_matches_per_step_operation():
    # the stack-of-one branch at p = 2: the shipped mimo_stable strategy's
    # densities and costs against the per-step oracle
    m = load_model(str(DOCS / "mimo_stable.json"))
    sol, _ = di.feedback_capacity(m)
    st = di.stationary_strategy(sol.gain, sol.KZ)
    assert (m.output_dim, m.input_dim) == (2, 2) and len(st.gains) == 1
    tr = di.sample_trajectory(m, st, 300, seed=5)
    Bprev = np.vstack([sim._draw_noise(m, st, 300, 5)[0], tr.B_path[:-1]])
    info = [oracles.info_density_step(Bprev[i], tr.A_path[i], tr.B_path[i], m.C(0), m.D(0),
                                 m.KV(0), st.gain(0), st.KZ(0)) for i in range(300)]
    cost = [a @ m.R(0) @ a + b @ m.Q(0) @ b for a, b in zip(tr.A_path, Bprev)]
    np.testing.assert_allclose(tr.info_density_path, info, rtol=1e-12)
    np.testing.assert_allclose(tr.cost_path, cost, rtol=1e-12)


# -- FTFI strategies by Monte Carlo -------------------------------------------

# seeds per model, and how many seed standard errors a mean may lie from its
# target: both fixed before the first run
FTFI_SEEDS = 256
FTFI_K = 4.0


def _scalar_unstable_n50(rng):
    return load_model(str(DOCS / "scalar_unstable.json"), horizon_override=50)


def _time_varying_4_step(rng):
    # the model of tests/test_integration.py::test_time_varying_ftfi_constraint_activity
    return di.channel_model(
        [[[0.9]], [[0.5]], [[1.1]], [[0.7]]], [[[1.0]], [[1.0]], [[1.0]], [[1.0]]],
        [[[1.0]], [[0.8]], [[1.2]], [[1.0]]], [[[1.0]], [[1.0]], [[1.0]], [[1.0]]],
        [[[0.1]], [[0.0]], [[0.2]], [[0.0]]], 2.0, 3, time_invariant=False)


def _q_with_terminal_weight(rng):
    return _ftfi_terminal_q(rng)[0]


def _memory_order2(rng):
    return load_model(str(DOCS / "memory_order2.json"))


@pytest.mark.parametrize("make", [_scalar_unstable_n50, _time_varying_4_step,
                                  _q_with_terminal_weight, _memory_order2])
def test_ftfi_strategy_samples_the_bits_of_its_steps_as_lists_and_tuples(make, rng):
    # the FTFI strategy reaches the batch as one stack; a checked strategy of its
    # steps as lists and a Strategy of them as tuples are stacked, to the same bits
    m = make(rng)
    st = di.ftfi_capacity(m)[0].strategy
    g, kz = st.gains, st.innovations
    copies = [di.strategy(list(g), list(kz)), di.Strategy(gains=tuple(g), innovations=tuple(kz))]
    want = di.simulate_batch(m, st, m.horizon + 1, range(3))
    for other in copies:
        for got, ref in zip(di.simulate_batch(m, other, m.horizon + 1, range(3)), want):
            for path in ("B_path", "A_path", "info_density_path", "cost_path", "running_rate"):
                assert getattr(got, path).tobytes() == getattr(ref, path).tobytes()


@pytest.mark.parametrize("make", [_scalar_unstable_n50, _time_varying_4_step,
                                  _q_with_terminal_weight, _memory_order2])
def test_sampled_ftfi_strategy_carries_its_value_and_cost(make, rng):
    # the information-lossless strategy u_i = Gamma(i) b_{i-1} + Z_i sampled over
    # the horizon: the seed mean of each trace's summed information density is
    # the FTFI directed information, and its mean cost the achieved cost, each
    # within FTFI_K standard errors of the seed mean
    m = make(rng)
    sol, _ = di.ftfi_capacity(m)
    assert len(sol.strategy.gains) == m.horizon + 1
    traces = di.simulate_batch(m, sol.strategy, m.horizon + 1, range(FTFI_SEEDS))
    for got, want in (([tr.info_density_path.sum() for tr in traces], sol.rate_nats),
                      ([tr.terminal_cost for tr in traces], sol.achieved_cost)):
        se = np.std(got, ddof=1) / math.sqrt(FTFI_SEEDS)
        assert abs(np.mean(got) - want) <= FTFI_K * se
