import math

import numpy as np
import pytest

import dirinfo as di
from dirinfo import waterfill as wf
from dirinfo.errors import PreconditionError, UnboundedError
import oracles
from conftest import random_spd


def scalar_problem(weight, D=1.0, KV=1.0):
    return wf.WaterfillProblem(D=[[D]], KV=[[KV]], weight=[[weight]])


def test_objective_zero_at_zero():
    assert oracles.objective(scalar_problem(0.2), [[0.0]]) == 0.0


def test_objective_scalar_values():
    assert oracles.objective(scalar_problem(0.2), [[1.5]]) == pytest.approx(
        0.5 * math.log(2.5) - 0.3, abs=1e-12)
    past = oracles.objective(scalar_problem(0.2), [[3.0]])
    assert past == pytest.approx(0.5 * math.log(4.0) - 0.6, abs=1e-12)
    assert past < oracles.objective(scalar_problem(0.2), [[1.5]])


def test_gradient_stationary_at_interior_optimum():
    assert wf.gradient(scalar_problem(0.2), [[1.5]])[0, 0] == pytest.approx(0.0, abs=1e-14)


def test_gradient_at_zero_without_weight_penalty():
    g = wf.gradient(wf.WaterfillProblem(D=[[1.0]], KV=[[0.5]], weight=[[0.0]]), [[0.0]])
    assert g[0, 0] == pytest.approx(1.0)


def test_gradient_positive_means_interior_optimum():
    g = wf.gradient(scalar_problem(1.0, D=2.0), [[0.0]])
    assert g[0, 0] == pytest.approx(1.0)


def test_solve_scalar_interior():
    kz, val = wf.solve(scalar_problem(0.2))
    assert kz[0, 0] == pytest.approx(1.5, abs=1e-9)
    assert val == pytest.approx(0.5 * math.log(2.5) - 0.3, abs=1e-10)


def test_solve_scalar_boundary_zero():
    kz, val = wf.solve(scalar_problem(4.0))
    assert kz[0, 0] == 0.0
    assert val == 0.0


def test_solve_diagonal_decoupling():
    kz, _ = wf.solve(wf.WaterfillProblem(D=np.eye(2), KV=np.eye(2),
                                         weight=np.diag([0.1, 10.0])))
    np.testing.assert_allclose(kz, np.diag([4.0, 0.0]), atol=1e-7)


def test_scalar_solve_matches_examples():
    assert oracles.scalar_solve(1.0, 1.0, 0.2)[0] == pytest.approx(1.5)
    assert oracles.scalar_solve(1.0, 1.0, 4.0)[0] == 0.0
    assert oracles.scalar_solve(1.0, 1.0, 0.0) == (math.inf, math.inf)
    with pytest.raises(PreconditionError):
        oracles.scalar_solve(0.0, 1.0, 0.0)


def test_unbounded_detection():
    with pytest.raises(UnboundedError):
        wf.solve(wf.WaterfillProblem(D=[[1.0]], KV=[[1.0]], weight=[[0.0]]))
    with pytest.raises(UnboundedError):
        wf.solve(wf.WaterfillProblem(D=np.eye(2), KV=np.eye(2),
                                     weight=np.diag([1.0, 0.0])))


def test_concavity_certificate(rng):
    for _ in range(100):
        D = rng.normal(size=(2, 2))
        KV = random_spd(rng, 2, floor=0.3)
        W = random_spd(rng, 2, floor=0.05)
        prob = wf.WaterfillProblem(D=D, KV=KV, weight=W)
        K1, K2 = random_spd(rng, 2, floor=0.0), random_spd(rng, 2, floor=0.0)
        lam = rng.uniform(0.05, 0.95)
        mix = oracles.objective(prob, lam * K1 + (1 - lam) * K2)
        split = lam * oracles.objective(prob, K1) + (1 - lam) * oracles.objective(prob, K2)
        assert mix >= split - 1e-9


def test_gradient_matches_central_differences(rng):
    h = 1e-6
    for _ in range(20):
        D = rng.normal(size=(2, 2))
        KV = random_spd(rng, 2, floor=0.3)
        W = random_spd(rng, 2, floor=0.05)
        prob = wf.WaterfillProblem(D=D, KV=KV, weight=W)
        K = random_spd(rng, 2, floor=0.1)
        g = wf.gradient(prob, K)
        for i in range(2):
            for j in range(i, 2):
                E = np.zeros((2, 2))
                E[i, j] = E[j, i] = 1.0
                fd = (oracles.objective(prob, K + h * E) - oracles.objective(prob, K - h * E)) / (2 * h)
                an = float(np.tensordot(g, E))
                assert an == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_oracle_equivalence_grid():
    worst = 0.0
    for w in (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0):
        for KV in (0.1, 0.5, 1.0, 2.0, 5.0):
            kz, _ = wf.solve(scalar_problem(w, KV=KV))
            kz_o, _ = oracles.scalar_solve(1.0, KV, w)
            worst = max(worst, abs(kz[0, 0] - kz_o))
    assert worst <= 1e-8


def test_diagonal_decoupling_matches_per_coordinate_oracle(rng):
    for _ in range(10):
        d = rng.uniform(0.5, 2.0, size=2)
        kv = rng.uniform(0.3, 3.0, size=2)
        w = rng.uniform(0.05, 5.0, size=2)
        kz, _ = wf.solve(wf.WaterfillProblem(D=np.diag(d), KV=np.diag(kv), weight=np.diag(w)))
        for i in range(2):
            want, _ = oracles.scalar_solve(d[i], kv[i], w[i])
            assert kz[i, i] == pytest.approx(want, abs=1e-7)
        assert abs(kz[0, 1]) <= 1e-7


def test_kkt_certificate_on_rectangular_problem():
    prob = wf.WaterfillProblem(D=[[1.0, 0.5]], KV=[[1.0]], weight=np.diag([0.3, 0.4]))
    kz, _ = wf.solve(prob)
    g = wf.gradient(prob, kz)
    assert np.linalg.eigvalsh(g).max() <= 1e-9
    assert abs(float(np.tensordot(kz, g))) <= 1e-9


def test_interior_optimum_with_mismatched_initial_curvature():
    # the optimum sits where the local curvature is 10x the curvature at the
    # starting point; a naive fixed-acceptance ascent used to cycle here
    prob = wf.WaterfillProblem(D=[[-1.6756168708015722]], KV=[[0.32625335839320624]],
                               weight=[[2.437881067034456]])
    kz, _ = wf.solve(prob)
    want, _ = oracles.scalar_solve(-1.6756168708015722, 0.32625335839320624, 2.437881067034456)
    assert kz[0, 0] == pytest.approx(want, abs=1e-9)


def test_barely_interior_optimum_near_cone_boundary():
    # optimum ~7e-8 above the boundary: overshoots that land closer to the
    # boundary must not be mistaken for stationarity progress (an earlier
    # iteration cycled 0 <-> 2e-7 here); optima inside the snap zone may be
    # returned as the exact vertex, so the contract is value accuracy
    D, KV, w = -2.3246688988108297, 1.8060174100733104, 1.4961329771069904
    prob = wf.WaterfillProblem(D=[[D]], KV=[[KV]], weight=[[w]])
    kz, val = wf.solve(prob)
    want, want_val = oracles.scalar_solve(D, KV, w)
    assert want == pytest.approx(6.68e-8, abs=1e-9)
    assert kz[0, 0] == pytest.approx(want, abs=1e-7)
    assert val == pytest.approx(want_val, abs=1e-12)


def test_extremely_flat_problem_with_huge_optimum():
    # weight ~4e-7 puts the optimum near 1.3e6 with curvature ~3e-13; the
    # step size must be allowed to grow to ~1/curvature
    D, KV, w = -2.3246688988108297, 1.8060174100733104, 3.9387434154243814e-07
    prob = wf.WaterfillProblem(D=[[D]], KV=[[KV]], weight=[[w]])
    kz, _ = wf.solve(prob)
    want, _ = oracles.scalar_solve(D, KV, w)
    assert kz[0, 0] == pytest.approx(want, rel=1e-8)


def test_stiff_anisotropic_weight_converges_fast(rng):
    # eigenvalue spread ~80:1 in the weight; preconditioning keeps the
    # iteration count independent of the spread
    for _ in range(20):
        q = int(rng.integers(2, 4))
        D = rng.normal(size=(q, q)) * rng.uniform(0.5, 3.0)
        KV = random_spd(rng, q, floor=0.2)
        W = random_spd(rng, q, floor=0.01)
        prob = wf.WaterfillProblem(D=D, KV=KV, weight=W)
        kz, _ = wf.solve(prob)
        g = wf.gradient(prob, kz)
        assert np.linalg.eigvalsh(g).max() <= 1e-8
        assert abs(float(np.tensordot(kz, g))) <= 1e-8
