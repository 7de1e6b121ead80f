"""The finite-horizon DP against a loop of the public one-step oracles, bit for bit.

`_riccati_pass` steps a private kernel over pre-built stacks and, on a
time-invariant model, stops at the first step whose P_1 repeats a later one
bit for bit, copying the steps of that period into every earlier step and
indexing their subchannels.  Neither may move a bit: P, the gains and K_Z
must equal a plain loop of `riccati_backward_step` (at s = 1, scaled by s)
and a per-step water-fill, with `np.array_equal`.  The DP has no forward pass: its achieved
cost comes from the LQ cost-to-go identity, and a forward loop of
`lyapunov_step` checks it to rel 1e-12.
"""

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dirinfo as di
from dirinfo import capacity, cli, riccati, waterfill
from dirinfo.cli import load_model
from dirinfo.errors import PreconditionError
from dirinfo.linalg import sym

DOCS = Path(__file__).resolve().parent.parent / "docs" / "models"


def _random(seed, p, q, n):
    rng = np.random.default_rng(seed)
    return di.channel_model(rng.standard_normal((p, p)), rng.standard_normal((p, q)),
                            np.eye(p), np.eye(q), np.eye(p), 10.0, n)


def _time_varying(n=39):
    """C(i) differs on the first 10 steps and is 2 on the last 30, Q = 1: the
    tail alone reaches its bit-exact fixed point, the head moves away from it."""
    C = [0.5 + 0.1 * i for i in range(10)] + [2.0] * (n - 9)
    return di.channel_model(C, [1.0] * (n + 1), [1.0] * (n + 1), [1.0] * (n + 1),
                            [1.0] * (n + 1), 30.0, n, time_invariant=False)


def _two_by_one_cycle(n=300):
    """A 2x1 channel with Q != 0 whose P_1 never reaches a fixed point: 33 steps from
    the end it settles into a cycle of 4 bit patterns."""
    return di.channel_model([[1.252821473253419, 0.30738795301239125], [0.0, 0.49822178713919957]],
                            [[1.0], [0.6159559929660171]], [[1.0, 0.2], [0.2, 1.0]], 1.0,
                            np.diag([0.26114927945709665, 0.19086416300649908]),
                            5.272708830400722, n)


MODELS = {
    "scalar_q0": lambda: di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.0, 9.0, horizon=500),
    "scalar_c2_q1": lambda: di.scalar_model(2.0, 1.0, 1.0, 1.0, 1.0, 30.0, horizon=300),
    "scalar_c2_terminal_q1": lambda: di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.0, 30.0,
                                                     horizon=300, terminal_Q=1.0),
    "random_2x1_q_eye": lambda: _random(11, 2, 1, 300),
    "random_8x4_q_eye": lambda: _random(0, 8, 4, 300),
    "memory_order2": lambda: load_model(str(DOCS / "memory_order2.json")),
    "horizon_0": lambda: di.scalar_model(2.0, 1.0, 1.0, 1.0, 1.0, 30.0, horizon=0),
    "horizon_1": lambda: di.scalar_model(2.0, 1.0, 1.0, 1.0, 1.0, 30.0, horizon=1),
    "time_varying": _time_varying,
    "two_by_one_cycle": _two_by_one_cycle,
}


def _oracle(m, s):
    """(P, gains, K_Z): backward loop of the public step at s = 1 from terminal_Q, P
    scaled by s, and each step's water-fill at level 1/(2s) on its own weight."""
    n = m.horizon
    P = [sym(m.terminal_Q)] * (n + 1)
    G = [np.zeros((m.input_dim, m.output_dim))] * (n + 1)
    W = [sym(m.R(n))] * (n + 1)
    for i in range(n - 1, -1, -1):
        P[i], blocks = riccati.riccati_backward_step(P[i + 1], m.C(i), m.D(i), m.Q(i), m.R(i), 1.0)
        G[i], W[i] = riccati.optimal_gain(blocks), blocks.H22
    KZ = [waterfill.fill(*waterfill.subchannels(m.D(i), m.noise_for_inversion(i)[0], W[i][None]),
                         0.5 / s)[0][0] for i in range(n + 1)]
    return s * np.stack(P), np.stack(G), np.stack(KZ)


def _forward(m, sol):
    """Per-unit-time cost by a loop of the public Lyapunov step over the solution's
    gains and innovations: sum_i trace(R G K G^T) + trace(R K_Z) + trace(Q(i) K),
    K = K_B(i-1), Q(n) = terminal_Q."""
    K, total = m.initial_second_moment(), 0.0
    for i in range(m.horizon + 1):
        G, KZ, D, R = sol.strategy.gains[i], sol.strategy.innovations[i], m.D(i), m.R(i)
        total += np.trace(R @ G @ K @ G.T) + np.trace(R @ KZ) + np.trace(m.Q(i) @ K)
        K = di.lyapunov_step(K, m.C(i) + D @ G, D @ KZ @ D.T + m.KV(i))
    return total / (m.horizon + 1)


@pytest.mark.parametrize("s", [0.37, 2.5])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_dp_equals_the_public_step_oracles_bit_for_bit(name, s):
    m = MODELS[name]()
    sol = capacity.finite_horizon_dp(m, s)
    P, G, KZ = _oracle(m, s)
    assert np.array_equal(np.stack(sol.P_seq), P)
    assert np.array_equal(np.stack(sol.strategy.gains), G)
    assert np.array_equal(np.stack(sol.strategy.innovations), KZ)
    assert sol.achieved_cost == pytest.approx(_forward(m, sol), rel=1e-12)


def _steps(monkeypatch, m, solve=lambda m: capacity.finite_horizon_dp(m, 1.0)):
    """Backward steps of one solve(m) call, by default one finite_horizon_dp call."""
    calls = []
    kernel = riccati._backward_step

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(riccati, "_backward_step", counted)
    solve(m)
    return len(calls)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_ftfi_capacity_makes_one_backward_pass(monkeypatch, name):
    m = dataclasses.replace(MODELS[name](), kappa=1e3)     # every member feasible
    assert _steps(monkeypatch, m, capacity.ftfi_capacity) == _steps(monkeypatch, m)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_dp_on_a_given_pass_equals_the_dp_that_makes_it(name):
    m = MODELS[name]()
    unit = capacity._riccati_pass(m)
    for s in (0.37, 2.5):       # one pass serves every multiplier, unchanged
        given, own = capacity.finite_horizon_dp(m, s, unit), capacity.finite_horizon_dp(m, s)
        for seq in ("P_seq", "r_seq"):
            assert np.array_equal(getattr(given, seq), getattr(own, seq))
        for seq in ("gains", "innovations"):
            assert np.array_equal(getattr(given.strategy, seq), getattr(own.strategy, seq))
        for value in ("s", "achieved_cost", "value_nats", "rate_nats"):
            assert getattr(given, value) == getattr(own, value)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_dp_calls_on_one_pass_leave_its_arrays_bit_identical(name):
    m = MODELS[name]()
    unit = capacity._riccati_pass(m)
    before = [np.array(a) for a in unit]
    for s in (0.37, 2.5):
        capacity.finite_horizon_dp(m, s, unit)
    assert [np.asarray(a).tobytes() for a in unit] == [a.tobytes() for a in before]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_per_step_fields_are_read_only_stacks(name):
    m = MODELS[name]()
    n, p, q = m.horizon, m.output_dim, m.input_dim
    sol = capacity.finite_horizon_dp(m, 0.37)
    g, kz = sol.strategy.gains, sol.strategy.innovations
    checked, stationary = di.strategy(list(g), list(kz)), di.stationary_strategy(g[0], kz[0])
    fields = [(sol.P_seq, (n + 1, p, p)), (sol.r_seq, (n + 1,)),
              (g, (n + 1, q, p)), (kz, (n + 1, q, q)),
              (checked.gains, (n + 1, q, p)), (checked.innovations, (n + 1, q, q)),
              (stationary.gains, (1, q, p)), (stationary.innovations, (1, q, q))]
    for a, shape in fields:
        assert type(a) is np.ndarray and a.shape == shape and not a.flags.writeable


def test_q0_model_stops_after_one_step(monkeypatch):
    assert _steps(monkeypatch, MODELS["scalar_q0"]()) == 1


def test_time_invariant_model_stops_at_its_fixed_point(monkeypatch):
    m = MODELS["scalar_c2_q1"]()
    assert 1 < _steps(monkeypatch, m) < m.horizon


def test_time_invariant_model_stops_at_a_cycle_of_its_bits(monkeypatch):
    m = _two_by_one_cycle()
    P = capacity.finite_horizon_dp(m, 1.0).P_seq
    # no step repeats the next one, but every step repeats the one 4 later
    assert not any(np.array_equal(P[i], P[i + 1]) for i in range(m.horizon))
    assert all(np.array_equal(P[i], P[i + 4]) for i in range(m.horizon - 40))
    assert _steps(monkeypatch, m) < 40


def test_time_varying_model_never_plateaus(monkeypatch):
    m = _time_varying()
    P = np.stack(capacity.finite_horizon_dp(m, 1.0).P_seq)
    # the tail repeats P bit for bit, the head does not: a broadcast would show
    assert np.array_equal(P[10], P[11]) and not np.array_equal(P[0], P[10])
    assert _steps(monkeypatch, m) == m.horizon


# C = diag(2, 0.5), the mode at 2 weighted by Q and reached by no input: its cost-to-go
# P_1 grows like 4^(n-i) and overflows at step 88 of 600
UNREACHED = {"type": "channel", "horizon": 600, "time_invariant": True,
             "C": [[2.0, 0.0], [0.0, 0.5]], "D": [[0.0], [1.0]], "KV": [[1.0, 0.0], [0.0, 1.0]],
             "R": [[1.0]], "Q": [[1.0, 0.0], [0.0, 1.0]], "kappa": 5.0}
OVERFLOW = r"P_1\(88\) is not finite at step 88 of 600"


@pytest.fixture
def unreached(tmp_path):
    path = tmp_path / "unreached.json"
    path.write_text(json.dumps(UNREACHED))
    return str(path)


@pytest.mark.parametrize("solve", [capacity.ftfi_capacity,
                                   lambda m: capacity.finite_horizon_dp(m, 0.5)],
                         ids=["ftfi_capacity", "finite_horizon_dp"])
def test_overflowing_cost_to_go_raises_named_precondition(unreached, solve):
    with pytest.raises(PreconditionError, match=OVERFLOW):
        solve(load_model(unreached))


@pytest.mark.parametrize("flags", [[], ["--s", "0.5"]])
def test_cli_names_the_overflowing_step_without_traceback_or_warning(unreached, flags):
    proc = subprocess.run([sys.executable, "-m", "dirinfo.cli", "ftfi", "--model", unreached]
                          + flags, capture_output=True, text=True)
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["error_type"] == "PreconditionError"
    assert re.search(OVERFLOW, report["error"])
    assert proc.stderr == f"error: {report['error']}\n"     # no warning, no traceback


def test_cli_names_an_overflowing_fixed_multiplier(unreached):
    # P_1(0) is finite at horizon 511, about 6e307; P = 8 P_1 overflows there
    proc = subprocess.run([sys.executable, "-m", "dirinfo.cli", "ftfi", "--model", unreached,
                           "--s", "8", "--horizon", "511"], capture_output=True, text=True)
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["error_type"] == "PreconditionError"
    assert report["error"] == ("fixed multiplier s = 8: P(0) = s P_1(0) is not finite at step 0 "
                               "of 511: the cost-to-go overflows over this horizon")
    assert proc.stderr == f"error: {report['error']}\n"     # no warning, no traceback


# a nonzero initial output: P_1 stays finite at horizon 511, but trace(P_1(0) K_B(-1)) does not
FLOOR = ("backward pass: the cost floor trace(P_1(0) K_B(-1)) + sum_i trace(P_1(i+1) K_V(i)) "
         "is not finite over 511 steps: the cost-to-go overflows over this horizon")
VALUE = ("fixed multiplier s = 3.5: value_nats = -E<b, P(0) b> + r(0) is not finite over 510 "
         "steps: the cost-to-go overflows over this horizon")


@pytest.mark.parametrize("flags, error", [(["--s", "2.9", "--horizon", "511"], FLOOR),
                                          (["--horizon", "511"], FLOOR),
                                          (["--s", "3.5", "--horizon", "510"], VALUE)],
                         ids=["floor-fixed-s", "floor-matched", "value-fixed-s"])
def test_cli_names_an_overflowing_cost_floor_or_value(tmp_path, flags, error):
    # these printed RuntimeWarnings and "achieved_cost": "inf", "value_nats": "-inf" with
    # exit 0 (--s), or an InfeasibleError naming a cost floor of inf (no --s)
    path = tmp_path / "initial.json"
    path.write_text(json.dumps({**UNREACHED, "initial_output": [2.0, 0.0]}))
    proc = subprocess.run([sys.executable, "-m", "dirinfo.cli", "ftfi", "--model", str(path)]
                          + flags, capture_output=True, text=True)
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert (report["error_type"], report["error"]) == ("PreconditionError", error)
    assert proc.stderr == f"error: {error}\n"     # no warning, no traceback


def _ftfi(capsys, horizon):
    code = cli.main(["ftfi", "--model", str(DOCS / "scalar_unstable.json"),
                     "--horizon", str(horizon)])
    return code, capsys.readouterr().out


def test_cli_answers_past_the_old_second_moment_overflow(capsys):
    # gain 0 on C = 2: K_B(i) grows like 4^i and overflows at i = 510, but no K_B is formed
    code, out = _ftfi(capsys, 600)
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["capacity"], result["achieved_cost"]) == (1.1512925465, 9)


def test_cli_answers_at_horizon_500(capsys):
    code, out = _ftfi(capsys, 500)
    assert code == 0
    assert ('"result": {"KZ0": [[9]], "P0": [[0]], "achieved_cost": 9, "capacity": 1.1512925465, '
            '"capacity_nats": 1.1512925465, "gain0": [[-0]], "horizon": 500, '
            '"kv_regularized": false, "s_star": 0.05, "value_nats": 576.797565795}') in out
