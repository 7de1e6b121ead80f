"""The finite-horizon DP against a loop of the public one-step oracles, bit for bit.

`_riccati_pass` steps a private kernel over pre-built stacks and, on a
time-invariant model, stops at the first step whose P_1 repeats the next
one bit for bit, copying it into every earlier step.  Neither may move a bit:
P, the gains and K_B must equal a plain loop of `riccati_backward_step` (at
s = 1, scaled by s) and of `lyapunov_step`, with `np.array_equal`.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import dirinfo as di
from dirinfo import capacity, cli, riccati
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
}


def _oracle(m, s):
    """(P, gains): backward loop of the public step at s = 1 from terminal_Q, P scaled by s."""
    n = m.horizon
    P = [sym(m.terminal_Q)] * (n + 1)
    G = [np.zeros((m.input_dim, m.output_dim))] * (n + 1)
    for i in range(n - 1, -1, -1):
        P[i], blocks = riccati.riccati_backward_step(P[i + 1], m.C(i), m.D(i), m.Q(i), m.R(i), 1.0)
        G[i] = riccati.optimal_gain(blocks)
    return s * np.stack(P), np.stack(G)


def _forward(m, sol):
    """K_B by a loop of the public Lyapunov step over the solution's gains and innovations."""
    KB = [m.initial_second_moment()]
    for i in range(m.horizon + 1):
        G, KZ, D = sol.strategy.gains[i], sol.strategy.innovations[i], m.D(i)
        KB.append(di.lyapunov_step(KB[-1], m.C(i) + D @ G, D @ KZ @ D.T + m.KV(i)))
    return np.stack(KB)


@pytest.mark.parametrize("s", [0.37, 2.5])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_dp_equals_the_public_step_oracles_bit_for_bit(name, s):
    m = MODELS[name]()
    sol = capacity.finite_horizon_dp(m, s)
    P, G = _oracle(m, s)
    assert np.array_equal(np.stack(sol.P_seq), P)
    assert np.array_equal(np.stack(sol.strategy.gains), G)
    assert np.array_equal(np.stack(sol.KB_seq), _forward(m, sol))


def _steps(monkeypatch, m):
    """Backward steps of one finite_horizon_dp call."""
    calls = []
    kernel = riccati._backward_step

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(riccati, "_backward_step", counted)
    capacity.finite_horizon_dp(m, 1.0)
    return len(calls)


def test_q0_model_stops_after_one_step(monkeypatch):
    assert _steps(monkeypatch, MODELS["scalar_q0"]()) == 1


def test_time_invariant_model_stops_at_its_fixed_point(monkeypatch):
    m = MODELS["scalar_c2_q1"]()
    assert 1 < _steps(monkeypatch, m) < m.horizon


def test_time_varying_model_never_plateaus(monkeypatch):
    m = _time_varying()
    P = np.stack(capacity.finite_horizon_dp(m, 1.0).P_seq)
    # the tail repeats P bit for bit, the head does not: a broadcast would show
    assert np.array_equal(P[10], P[11]) and not np.array_equal(P[0], P[10])
    assert _steps(monkeypatch, m) == m.horizon


def test_overflowing_second_moment_raises_named_precondition():
    # gain 0 on C = 2: K_B(i) grows like 4^i and overflows at i = 510
    m = di.scalar_model(2.0, 1.0, 1.0, 1.0, 0.0, 9.0, horizon=600)
    with pytest.raises(PreconditionError, match=r"K_B\(510\) is not finite.*spectral radius 2"):
        capacity.ftfi_capacity(m)


def _ftfi(capsys, horizon):
    code = cli.main(["ftfi", "--model", str(DOCS / "scalar_unstable.json"),
                     "--horizon", str(horizon)])
    return code, capsys.readouterr().out


def test_cli_exits_one_on_an_overflowing_horizon(capsys):
    code, out = _ftfi(capsys, 600)
    assert code == 1
    report = json.loads(out)
    assert report["error_type"] == "PreconditionError"
    assert "K_B(510) is not finite" in report["error"]


def test_cli_answers_at_horizon_500(capsys):
    code, out = _ftfi(capsys, 500)
    assert code == 0
    assert ('"result": {"KZ0": [[9]], "P0": [[0]], "achieved_cost": 9, "capacity": 1.1512925465, '
            '"capacity_nats": 1.1512925465, "gain0": [[-0]], "horizon": 500, '
            '"kv_regularized": false, "s_star": 0.05, "value_nats": 576.797565795}') in out
