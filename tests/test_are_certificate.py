"""The one certificate that ends every Riccati answer, on channels with large |C|.

An answer of `solve_are` stands if its ARE residual is within TOL_ARE, or else
if the cost of its own gain is within TOL_FORWARD |P| of it.  The residual's
rounding grows as eps |C|^2, so at |C| = 1e4 the cost decides.  Scalar
channels are checked against the DARE's closed form, the seeded random
channels of `oracles.are_sweep` against the 50-digit oracles: the closed form
of the Q = 0 solution, and Kleinman's iteration for Q = I.
"""

import json
import math

import numpy as np
import pytest

import dirinfo as di
from dirinfo import cli, riccati
from dirinfo.errors import ConvergenceError, PreconditionError
import oracles


def scalar_dare(C, D, Q, R):
    """The stabilizing root of D^2 P^2 + b P - Q R = 0, b = R - C^2 R - D^2 Q."""
    b = R - C * C * R - D * D * Q
    return (-b + math.sqrt(b * b + 4.0 * D * D * Q * R)) / (2.0 * D * D)


@pytest.mark.parametrize("Q", [1.0, 1e-6])
@pytest.mark.parametrize("C", [1e3, 1e4, 1e5])
def test_scalar_q_nonzero_channel_with_a_large_c_matches_the_closed_form(C, Q):
    # Newton's move stalls at its rounding floor while the residual sits near
    # eps C^2 > TOL_ARE; the cost of the last gain certifies the answer
    sol = di.solve_are([[C]], [[1.0]], [[Q]], [[1.0]], 1.0)
    assert sol.stabilizing
    assert sol.P[0, 0] == pytest.approx(scalar_dare(C, 1.0, Q, 1.0), rel=1e-9)


def test_capacity_of_a_q_nonzero_channel_with_a_large_c(tmp_path):
    path = tmp_path / "big_c.json"
    path.write_text(json.dumps({"type": "channel", "horizon": 0, "time_invariant": True,
                                "C": 1e4, "D": 1.0, "KV": 1.0, "R": 1.0, "Q": 1.0,
                                "kappa": 2e8}))
    code, report = cli.run(cli.parse_config(["capacity", "--model", str(path)]))
    assert code == 0
    res = report["result"]
    assert res["kappa_min"] == pytest.approx(scalar_dare(1e4, 1.0, 1.0, 1.0) * 1.0, rel=1e-9)
    assert res["achieved_cost"] == pytest.approx(2e8, rel=1e-9)
    # the residual misses TOL_ARE on the answer that the cost of its gain certified
    assert res["residuals"]["are"] > riccati.TOL_ARE


def test_q0_never_reaches_newton(monkeypatch):
    def newton(*args):
        raise AssertionError("Newton's method ran on Q = 0")

    monkeypatch.setattr(riccati, "_newton", newton)
    sol = di.solve_are([[1e4]], [[1.0]], [[0.0]], [[1.0]], 1.0)
    assert sol.iterations == 0
    assert sol.residual > riccati.TOL_ARE
    assert sol.P[0, 0] == pytest.approx(1e8 - 1.0, rel=1e-15)


def test_certificate_declines_an_answer_whose_gain_costs_more_than_it(monkeypatch):
    # the direct answer moved by 1e-6 of itself, in both solves of the twin check:
    # its residual misses TOL_ARE, and the cost of its gain is the unmoved answer
    q0_solution = riccati._q0_solution
    monkeypatch.setattr(riccati, "_q0_solution", lambda *a: q0_solution(*a) * (1.0 + 1e-6))
    with pytest.raises(PreconditionError, match=r"^ill-conditioned Riccati equation: the ARE "
                       r"residual is \S+, and the cost of P's own gain differs from P by"):
        di.solve_are([[1e4]], [[1.0]], [[0.0]], [[1.0]], 1.0)


def test_certificate_gives_an_unstable_closed_loop_an_infinite_cost():
    P, closed = np.eye(2), np.diag([0.5, 1.5])
    with pytest.raises(PreconditionError, match=r"differs from P by inf of \|P\|"):
        riccati._certify(P, closed, np.eye(2), 1e-8)


def test_sweep_at_scale_1e4_answers_near_the_oracle_without_convergence_error():
    # at this scale the residual's rounding, about eps |C|^2, exceeds TOL_ARE, so
    # the cost of each answer's gain decides: 147 of the 200 Q = 0 channels answer,
    # the rest are named precondition failures
    answered = 0
    for index, _, C, D in oracles.are_sweep(scales=(1e4,)):
        p, q = D.shape
        try:
            sol = di.solve_are(C, D, np.zeros((p, p)), np.eye(q), 1.0)
        except ConvergenceError:
            pytest.fail(f"sweep model {index}: Q = 0 ended in ConvergenceError")
        except PreconditionError:
            continue
        ref = oracles.stabilizing_are_q0(C, D, np.eye(q))
        assert np.linalg.norm(sol.P - ref) <= 1e-6 * np.linalg.norm(ref), index
        answered += 1
    assert answered >= 147


@pytest.mark.parametrize("index", [407, 412, 607, 628])
def test_q_identity_sweep_models_match_the_kleinman_oracle(index):
    # Newton's move stalls before its residual reaches TOL_ARE on each of these,
    # at |C| scale 1e3 and 1e4 with fewer inputs than states; scipy's
    # solve_discrete_are is no oracle here, as it is farther than 1e-6 from the
    # 50-digit answer on many of the sweep's Q = I channels
    C, D = next((C, D) for k, _, C, D in oracles.are_sweep(scales=(1e3, 1e4)) if k == index)
    p, q = D.shape
    sol = di.solve_are(C, D, np.eye(p), np.eye(q), 1.0)
    ref = oracles.stabilizing_are_kleinman(C, D, np.eye(p), np.eye(q))
    assert sol.stabilizing
    assert np.linalg.norm(sol.P - ref) <= 1e-6 * np.linalg.norm(ref)


@pytest.mark.parametrize("output_cost, index", [("I", 279), ("I", 430), ("I", 938),
                                                 ("e1", 232), ("e1", 793), ("e1", 797),
                                                 ("e1", 938)])
def test_newton_step_cap_ends_in_an_answer_or_a_precondition_error(output_cost, index):
    # each of these used to end in "100 Newton steps did not converge": the move
    # wanders on a deadbeat-like closed loop and never stalls within TOL_FORWARD |P|.
    # The certificate now judges the last iterate; only Q = e1 e1^T model 793 passes
    C, D = next((C, D) for k, _, C, D in oracles.are_sweep() if k == index)
    p, q = D.shape
    Q = np.eye(p) if output_cost == "I" else np.diag([1.0] + [0.0] * (p - 1))
    try:
        sol = di.solve_are(C, D, Q, np.eye(q), 1.0)
    except PreconditionError:
        assert (output_cost, index) != ("e1", 793)
        return
    assert sol.iterations == riccati._MAX_ITER
    ref = oracles.stabilizing_are_kleinman(C, D, Q, np.eye(q))
    assert np.linalg.norm(sol.P - ref) <= 1e-6 * np.linalg.norm(ref)


def test_kleinman_oracle_matches_the_scalar_closed_form():
    ref = oracles.stabilizing_are_kleinman([[1e4]], [[1.0]], [[1.0]], [[1.0]])
    assert ref[0, 0] == pytest.approx(scalar_dare(1e4, 1.0, 1.0, 1.0), rel=1e-15)


def test_public_solve_are_flags_the_spectrum_of_every_sweep_answer():
    # `stabilizing` is read from the closed loop's spectrum; the answer counts of
    # the whole sweep hold
    answered = {}
    for output_cost in ("0", "I", "e1"):
        answered[output_cost] = 0
        for index, _, C, D in oracles.are_sweep():
            p, q = D.shape
            Q = {"0": np.zeros((p, p)), "I": np.eye(p),
                 "e1": np.diag([1.0] + [0.0] * (p - 1))}[output_cost]
            try:
                sol = di.solve_are(C, D, Q, np.eye(q), 1.0)
            except PreconditionError:
                continue
            assert sol.stabilizing == di.spectral_radius(sol.closed_loop).stable, index
            answered[output_cost] += 1
    assert answered == {"0": 791, "I": 781, "e1": 782}
