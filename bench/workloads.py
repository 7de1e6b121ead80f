"""Seeded workload generator: model files plus the op list of each workload.

An op is one ``dirinfo`` CLI invocation (an argv list without ``--output``).
Every generated model is written as a JSON model file under the workload's
work directory and referenced by a path relative to the repository root, so
report bytes do not depend on where the checkout lives.  Generated MIMO
models must pass ``dirinfo check`` as valid and stabilizable before use; a
model that does not is a generator bug and aborts the benchmark.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from dirinfo import capacity, cli
from dirinfo.cli import load_model
from dirinfo.model import channel_model

WORKLOADS = {
    "stationary-solve": (
        "capacity on docs models, scalar regimes, near-marginal, random MIMO p=2/8/32 "
        "and memory J=16: the Riccati, water-fill, Lyapunov and multiplier layers"),
    "ftfi-horizon": (
        "ftfi over long time-invariant horizons (plateau cache hit) and short or "
        "time-varying ones (cache bypassed)"),
    "monte-carlo": (
        "simulate of three solved strategies in wide (8 seeds) and long (2 seeds) "
        "shapes: the sampling layer"),
}

DOCS = "docs/models"
MARGINS = (1e-2, 1e-3)   # |C| - 1 of the near-marginal members: budget-matched, fixed s
PROBE_MARGIN = 1e-5      # |C| - 1 of the known ConvergenceError probe (trace runs)
SIM_EPS = 0.02           # rate tolerance the CLI applies in `simulate`
SIM_SIGMAS = 4.0         # traces are long enough to put SIM_EPS at 4 standard deviations
JITTER = 0.002           # relative per-seed perturbation of every drawn parameter


class GenerationError(RuntimeError):
    """A generated model failed its own validity check (a benchmark bug)."""


@dataclass
class Op:
    """One CLI call plus what its correctness gate needs to know."""

    op_id: str
    argv: list
    model: dict                   # the model document (for the gates)
    tags: set = field(default_factory=set)   # "scalar_cf", "stable_q0", ...
    pair: str = None              # op id of the matched capacity op to cross-check


def _write(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
    return path


def _read(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _check(path: str, workdir: str) -> None:
    """`dirinfo check` must call the model valid and stabilizable."""
    out = os.path.join(workdir, "check.json")
    code = cli.main(["check", "--model", path, "--output", out])
    result = _read(out).get("result", {})
    if code != 0 or not result.get("valid") or not result.get("stabilizable"):
        raise GenerationError(f"generated model {path} fails dirinfo check: {result}")


class _Generator:
    """Draws each workload's models from a fixed family, perturbed per seed.

    The family (structure, random matrices, nominal parameters) is the same
    for every seed; the seed moves each drawn parameter by up to JITTER, so
    inputs differ between seeds while the work per op stays nearly equal
    and run-to-run spread reflects the program, not the draw.
    """

    def __init__(self, workload: str, seed: int, root: str, workdir: str):
        index = list(WORKLOADS).index(workload)
        self.rng = np.random.default_rng([index])
        self.jitter = np.random.default_rng([seed, index])
        self.root = root
        self.workdir = workdir
        self.mdir = os.path.join(workdir, "models")
        os.makedirs(self.mdir, exist_ok=True)
        self.ops = []

    def u(self, lo, hi) -> float:
        return float(self.rng.uniform(lo, hi)) * (1.0 + JITTER * self.jitter.uniform(-1.0, 1.0))

    def sign(self) -> float:
        return float(self.rng.choice([-1.0, 1.0]))

    def model(self, name: str, doc: dict, check: bool = False) -> str:
        rel = os.path.relpath(os.path.join(self.mdir, name + ".json"), self.root)
        _write(os.path.join(self.root, rel), doc)
        if check:
            _check(rel, self.workdir)
        return rel

    def docs(self, name: str) -> tuple:
        rel = f"{DOCS}/{name}.json"
        return rel, _read(os.path.join(self.root, rel))

    def op(self, op_id, argv, doc, tags=(), pair=None):
        self.ops.append(Op(op_id, list(argv), doc, set(tags), pair))

    # -- model families --------------------------------------------------

    def scalar(self, C, kappa, D=1.0, KV=1.0, R=1.0):
        return {"type": "channel", "C": C, "D": D, "KV": KV, "R": R, "Q": 0.0, "kappa": kappa}

    def random_scalar(self):
        return dict(D=self.u(0.5, 2.0), KV=self.u(0.5, 2.0), R=self.u(0.5, 2.0))

    def mimo(self, p: int, unstable: bool, q_nonzero: bool) -> dict:
        """Random stabilizable model with its spectrum kept off the unit circle.

        C = S L S^-1 with L real block-diagonal (moduli in [0.3, 0.8], and in
        [1.15, 1.4] for a quarter of the modes of an unstable model) and S a
        random perturbation of the identity, so C is non-normal.  D is near
        the identity, so every mode is reachable.
        """
        rng = self.rng
        n_unstable = max(1, p // 4) if unstable else 0
        L = np.zeros((p, p))
        i = 0
        while i < p:
            r = self.u(1.15, 1.4) if i < n_unstable else self.u(0.3, 0.8)
            if i + 1 < p and rng.random() < 0.5:
                th = rng.uniform(0.2, 2.9)
                L[i:i + 2, i:i + 2] = r * np.array([[math.cos(th), -math.sin(th)],
                                                    [math.sin(th), math.cos(th)]])
                i += 2
            else:
                L[i, i] = r * self.sign()
                i += 1
        S = np.eye(p) + 0.3 * rng.standard_normal((p, p)) / math.sqrt(p)
        C = S @ L @ np.linalg.inv(S)
        D = np.eye(p) + 0.3 * rng.standard_normal((p, p)) / math.sqrt(p)
        F = rng.standard_normal((p, p)) / math.sqrt(p)
        KV = F @ F.T + 0.5 * np.eye(p)
        G = 0.3 * rng.standard_normal((p, p)) / math.sqrt(p)
        Q = G @ G.T if q_nonzero else np.zeros((p, p))
        m = capacity.kappa_min(channel_model(C, D, KV, np.eye(p), Q, 0.0, 0))
        return {"type": "channel", "C": C.tolist(), "D": D.tolist(), "KV": KV.tolist(),
                "R": np.eye(p).tolist(), "Q": Q.tolist(), "kappa": 2.0 * m + self.u(0.5, 1.5) * p}


def warmup_ops(b: _Generator) -> list:
    """One small op of every kind; run in set-up and in the traced pass."""
    doc = b.scalar(b.u(0.3, 0.8), b.u(0.5, 2.0), **b.random_scalar())
    path = b.model("warmup", doc)
    s = f"{b.u(0.5, 2.0):.6g}"
    kappa = doc["kappa"]
    return [
        Op("warmup/capacity", ["capacity", "--model", path], doc, {"scalar_cf", "stable_q0"}),
        Op("warmup/capacity-s", ["capacity", "--model", path, "--s", s], doc, {"scalar_cf"}),
        Op("warmup/nofeedback", ["nofeedback", "--model", path], doc, {"stable_q0"},
           pair="warmup/capacity"),
        Op("warmup/sweep", ["sweep", "--model", path, "--param", "kappa",
                            "--grid", f"{0.5 * kappa:.6g},{2 * kappa:.6g}"], doc),
        Op("warmup/ftfi", ["ftfi", "--model", path, "--horizon", "20"], doc),
        Op("warmup/simulate", ["simulate", "--model", path, "--steps", "1000",
                               "--seeds", "2"], doc),
    ]


def _stationary(b: _Generator, tiny: bool) -> None:
    for name in ("scalar_unstable", "scalar_stable", "mimo_stable", "memory_order2"):
        path, doc = b.docs(name)
        tags = {"scalar_cf"} if name.startswith("scalar") else set()
        if name in ("scalar_stable", "mimo_stable"):
            tags.add("stable_q0")
        b.op(f"docs/{name}", ["capacity", "--model", path], doc, tags)
        if "stable_q0" in tags:
            b.op(f"docs/{name}/nofeedback", ["nofeedback", "--model", path], doc,
                 {"stable_q0"}, pair=f"docs/{name}")
    path, doc = b.docs("scalar_unstable")
    b.op("docs/scalar_unstable/s", ["capacity", "--model", path, "--s", f"{b.u(0.1, 1.0):.6g}"],
         doc, {"scalar_cf"})
    kmin = 3.0   # (C^2 - 1) K_V R / D^2 of scalar_unstable
    grid = [kmin * b.u(0.4, 0.9), b.u(4, 8), b.u(9, 14), b.u(15, 25)]
    b.op("docs/scalar_unstable/sweep",
         ["sweep", "--model", path, "--param", "kappa", "--grid",
          ",".join(f"{g:.6g}" for g in grid)], doc)

    # scalar regimes
    doc = b.scalar(b.sign() * b.u(0.3, 0.9), b.u(0.5, 5.0), **b.random_scalar())
    path = b.model("scalar_stable", doc)
    b.op("scalar/stable", ["capacity", "--model", path], doc, {"scalar_cf", "stable_q0"})
    b.op("scalar/stable/nofeedback", ["nofeedback", "--model", path], doc, {"stable_q0"},
         pair="scalar/stable")
    for regime, lo, hi in (("unstable", 1.5, 4.0), ("zero_rate", 0.2, 0.8), ("kappa_min", 1, 1)):
        par = b.random_scalar()
        C = b.sign() * b.u(1.2, 3.0)
        kmin = (C * C - 1.0) * par["KV"] * par["R"] / (par["D"] * par["D"])
        doc = b.scalar(C, kmin * b.u(lo, hi) if lo != hi else kmin, **par)
        path = b.model(f"scalar_{regime}", doc)
        b.op(f"scalar/{regime}", ["capacity", "--model", path], doc, {"scalar_cf"})
        if regime == "unstable":
            b.op(f"scalar/{regime}/s", ["capacity", "--model", path, "--s",
                                        f"{b.u(0.1, 1.0):.6g}"], doc, {"scalar_cf"})
    if not tiny:
        # matched at 1e-2; at 1e-3 one fixed-multiplier solve (~1e4 Riccati steps)
        for margin, fixed in zip(MARGINS, (False, True)):
            doc = b.scalar(b.sign() * (1.0 + margin), b.u(1.0, 4.0))
            path = b.model(f"scalar_marginal_{margin:g}", doc)
            argv = ["capacity", "--model", path]
            argv += ["--s", f"{b.u(0.5, 2.0):.6g}"] if fixed else []
            b.op(f"scalar/marginal_{margin:g}" + ("/s" if fixed else ""), argv, doc,
                 {"scalar_cf"})

    # random MIMO: matched at p = 2, 8; fixed multiplier at p = 32
    for p in ((2,) if tiny else (2, 8, 32)):
        for unstable in (False, True):
            for q_nonzero in (False, True):
                key = f"p{p}_{'unstable' if unstable else 'stable'}_{'q' if q_nonzero else 'q0'}"
                doc = b.mimo(p, unstable, q_nonzero)
                path = b.model(f"mimo_{key}", doc, check=True)
                if p == 32:
                    b.op(f"mimo/{key}/s", ["capacity", "--model", path, "--s",
                                           f"{b.u(0.5, 2.0):.6g}"], doc)
                    continue
                stable_q0 = not unstable and not q_nonzero
                b.op(f"mimo/{key}", ["capacity", "--model", path], doc,
                     {"stable_q0"} if stable_q0 else set())
                if stable_q0:
                    b.op(f"mimo/{key}/nofeedback", ["nofeedback", "--model", path], doc,
                         {"stable_q0"}, pair=f"mimo/{key}")
                if unstable and q_nonzero:
                    b.op(f"mimo/{key}/s", ["capacity", "--model", path, "--s",
                                           f"{b.u(0.5, 2.0):.6g}"], doc)

    # memory-J, J = 16 (stable: sum of |C_j| < 1)
    a, rho = b.u(0.2, 0.4), b.u(0.6, 0.8)
    J = 4 if tiny else 16
    doc = {"type": "memory_j", "horizon": 0, "C_blocks": [a * rho ** j for j in range(J)],
           "D": b.u(0.5, 2.0), "KV": b.u(0.5, 2.0), "R": 1.0, "Q_K": 0.0,
           "memory": J, "cost_memory": 1, "kappa": b.u(1.0, 3.0)}
    path = b.model(f"memory_j{J}", doc)
    b.op(f"memory/j{J}", ["capacity", "--model", path], doc)


def _ftfi(b: _Generator, tiny: bool) -> None:
    scale = 10 if tiny else 1
    for name, n in (("scalar_unstable", 500), ("scalar_stable", 500),
                    ("memory_order2", 50), ("mimo_stable", 200)):
        path, doc = b.docs(name)
        b.op(f"docs/{name}/n{n // scale}",
             ["ftfi", "--model", path, "--horizon", str(n // scale),
              "--kappa", f"{doc['kappa'] * b.u(0.9, 1.1):.6g}"], doc)
    # 2x1 channel, Q != 0: water-fill on a singular-direction weight every step
    C = [[b.u(1.1, 1.3), b.u(0.2, 0.4)], [0.0, b.u(0.4, 0.7)]]
    doc = {"type": "channel", "C": C, "D": [[1.0], [b.u(0.3, 0.7)]],
           "KV": [[1.0, 0.2], [0.2, 1.0]], "R": 1.0,
           "Q": [[b.u(0.2, 0.4), 0.0], [0.0, b.u(0.1, 0.3)]], "kappa": b.u(5.0, 7.0)}
    path = b.model("two_by_one_q", doc, check=True)
    n = 25 // (5 if tiny else 1)
    b.op(f"two_by_one_q/n{n}", ["ftfi", "--model", path, "--horizon", str(n)], doc)
    # short time-varying channel: no plateau, every step water-fills
    n = 4 if tiny else 12
    c0, dc = b.u(0.4, 0.6), b.u(0.02, 0.06)
    doc = {"type": "channel", "time_invariant": False, "horizon": n,
           "C": [c0 + dc * i for i in range(n + 1)], "D": [1.0] * (n + 1),
           "KV": [1.0 + 0.1 * i for i in range(n + 1)], "R": [1.0] * (n + 1),
           "Q": [0.0] * (n + 1), "kappa": b.u(1.5, 2.5)}
    path = b.model("time_varying", doc)
    b.op(f"time_varying/n{n}", ["ftfi", "--model", path], doc)


def sim_steps(path: str) -> int:
    """Trace length at which SIM_EPS is SIM_SIGMAS standard deviations of the rate and cost.

    Along the stationary closed loop the per-step information density is
    i.i.d. with variance tr(M^-1 D K_Z D^T), M = D K_Z D^T + K_V; the cost
    a^T R a is a quadratic form of a stationary Gaussian process, whose
    time average has asymptotic variance 2 sum_k tr(R G(k) R G(k)^T) / n
    with G(0) = g K g^T + K_Z, G(k) = g Acl^(k-1) (Acl K g^T + D K_Z).
    Q = 0 on every simulated model, so the cost has no output term.
    """
    m = load_model(path)
    sol, _ = capacity.feedback_capacity(m)
    D, R, g, KZ, K = m.D(0), m.R(0), sol.gain, sol.KZ, sol.KB
    kv, _ = m.noise_for_inversion(0)
    DKD = D @ KZ @ D.T
    var_rate = float(np.trace(np.linalg.solve(DKD + kv, DKD)))
    Acl = m.C(0) + D @ g
    G0 = g @ K @ g.T + KZ
    var_cost = float(np.trace(R @ G0 @ R @ G0))
    X, P = Acl @ K @ g.T + D @ KZ, np.eye(Acl.shape[0])
    for _ in range(10_000):
        Gk = g @ P @ X
        term = float(np.trace(R @ Gk @ R @ Gk.T))
        var_cost += 2.0 * term
        P = P @ Acl
        if term <= 1e-15 * var_cost:
            break
    var_cost *= 2.0
    cost_eps = 0.05 * max(m.kappa, 1.0)
    n = SIM_SIGMAS ** 2 * max(var_rate / SIM_EPS ** 2, var_cost / cost_eps ** 2)
    return int(math.ceil(n / 1000.0)) * 1000


def _monte_carlo(b: _Generator, tiny: bool) -> None:
    # the seed draws the initial output, which leaves the trace length and the
    # work per op unchanged
    for name in ("scalar_unstable", "mimo_stable", "memory_order2"):
        path, doc = b.docs(name)
        if doc.get("type") == "memory_j":
            doc = dict(doc, initial_history=[[b.u(-1.0, 1.0)] for _ in doc["initial_history"]])
        else:
            p = len(doc["C"]) if isinstance(doc["C"], list) else 1
            doc = dict(doc, initial_output=[b.u(-1.0, 1.0) for _ in range(p)])
        path = b.model(name, doc)
        n = 1000 if tiny else sim_steps(path)
        for shape, seeds, steps in (("wide", 8, n), ("long", 2, 2 * n)):
            if tiny:
                seeds = 2
            tags = set() if tiny else {"sim_gate"}
            b.op(f"{name}/{shape}", ["simulate", "--model", path, "--steps", str(steps),
                                     "--seeds", str(seeds)], doc, tags)


_FAMILIES = {"stationary-solve": _stationary, "ftfi-horizon": _ftfi, "monte-carlo": _monte_carlo}


def build(workload: str, seed: int, root: str, workdir: str, tiny: bool = False):
    """Write the workload's model files; returns (warm-up ops, workload ops)."""
    b = _Generator(workload, seed, root, workdir)
    warm = warmup_ops(b)
    _FAMILIES[workload](b, tiny)
    return warm, b.ops


def probe_op(root: str, workdir: str) -> Op:
    """The |C| = 1 + 1e-5 capacity op, which ends in ConvergenceError today."""
    doc = {"type": "channel", "C": 1.0 + PROBE_MARGIN, "D": 1.0, "KV": 1.0, "R": 1.0,
           "Q": 0.0, "kappa": 2.0}
    rel = os.path.relpath(os.path.join(workdir, "models", "probe_marginal.json"), root)
    _write(os.path.join(root, rel), doc)
    return Op("probe/marginal_1e-5", ["capacity", "--model", rel], doc, {"scalar_cf"})
