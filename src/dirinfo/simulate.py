"""Monte Carlo validation of solved strategies.

Closed-loop sampling uses a counter-based generator (numpy's Philox keyed by
the trace seed) producing uniforms that are pushed through the inverse normal
CDF and the symmetric square root of the covariance, so the uniform-variable
realization of the innovations is literally the sampling path.  The inverse
CDF is Wichura's AS241 (PPND16), evaluated elementwise on whole blocks.

Draw order per trace (fixed, part of the determinism contract): the initial
output (only if its covariance is nonzero), then all innovation uniforms as a
(steps, q) block, then all noise uniforms as a (steps, p) block.

`simulate_batch` draws each seed in that order and then steps all seeds
together, with state of shape (seeds, p).  A trace with p = q = 1 is the
same bits in any batch.  Otherwise the BLAS product of a batch may block its
sums differently from that of a single row, so a trace can differ in its last
bits depending on the batch it ran in; along a stable closed loop the
difference does not grow.  Reports are byte-stable for a given seed list.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, PreconditionError
from .linalg import sym_sqrt
from .model import ChannelModel, Strategy, validate_model

# Wichura (1988), algorithm AS241 (PPND16): rational approximations of the
# standard normal quantile, relative error about 1e-16.  Coefficients run from
# the highest power down, as np.polyval takes them.  _A/_B hold the central
# region |u - 0.5| <= 0.425 in r = 0.180625 - (u - 0.5)^2; _C/_D and _E/_F the
# tails in r = sqrt(-log min(u, 1 - u)), shifted by 1.6 for r <= 5, else by 5.
_A = (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
      4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
      1.3314166789178437745e+2, 3.3871328727963666080e+0)
_B = (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
      2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
      4.2313330701600911252e+1, 1.0)
_C = (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
      1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
      4.63033784615654529590e+0, 1.42343711074968357734e+0)
_D = (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
      1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
      2.05319162663775882187e+0, 1.0)
_E = (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
      2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
      5.46378491116411436990e+0, 6.65790464350110377720e+0)
_F = (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
      7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
      5.99832206555887937690e-1, 1.0)


def normal_quantile(u):
    """Inverse standard normal CDF (AS241), relative error about 1e-16.

    Accepts scalars or arrays strictly inside (0, 1); elementwise, so a value
    maps to the same bits whatever array holds it.  Computed on min(u, 1 - u),
    which is exact, and negated above 0.5: q(u) == -q(1 - u) whenever 1 - u is
    exact.
    """
    u = np.asarray(u, dtype=float)
    if u.size and not (u.min() > 0.0 and u.max() < 1.0):
        raise PreconditionError("uniform sample on the boundary of (0, 1)")
    flat = u.reshape(-1)
    upper = flat > 0.5
    w = np.where(upper, 1.0 - flat, flat)
    x = w - 0.5
    mid = x >= -0.425
    tail = ~mid
    c = x[mid]
    r = 0.180625 - c * c
    x[mid] = c * np.polyval(_A, r) / np.polyval(_B, r)
    r = np.sqrt(-np.log(w[tail]))
    near = r <= 5.0
    t = np.where(near, r - 1.6, r - 5.0)
    x[tail] = -np.where(near, np.polyval(_C, t) / np.polyval(_D, t),
                         np.polyval(_E, t) / np.polyval(_F, t))
    np.negative(x, out=x, where=upper)
    return x.reshape(u.shape)[()]


def innovation_from_uniform(u, KZ) -> np.ndarray:
    """Map uniforms in (0,1)^q to an N(0, K_Z) sample.

    Inverse-CDF per coordinate, then the symmetric square root of K_Z.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    KZ = np.atleast_2d(np.asarray(KZ, dtype=float))
    if u.shape[0] != KZ.shape[0]:
        raise DimensionError("uniform vector length does not match covariance")
    return sym_sqrt(KZ) @ normal_quantile(u)


@dataclass(frozen=True)
class SimulationTrace:
    seed: int
    steps: int
    B_path: np.ndarray              # (steps, p)
    A_path: np.ndarray              # (steps, q)
    info_density_path: np.ndarray   # (steps,)
    cost_path: np.ndarray           # (steps,)
    running_rate: np.ndarray        # (steps,)
    meta: dict = field(default_factory=dict)

    @property
    def terminal_rate(self) -> float:
        return float(self.running_rate[-1])

    @property
    def terminal_cost(self) -> float:
        return float(self.cost_path.mean())


def _gaussian_logpdf_terms(cov: np.ndarray):
    sign, ld = np.linalg.slogdet(cov)
    if sign <= 0:
        raise PreconditionError("singular covariance in density evaluation")
    return np.linalg.inv(cov), float(ld)


def info_density_step(b_prev, a, b, C, D, KV, gain, KZ) -> float:
    """Per-step directed-information density (nats).

    log N(b; C b_prev + D a, K_V) - log N(b; (C + D gain) b_prev, D K_Z D^T + K_V).
    """
    b_prev = np.atleast_1d(np.asarray(b_prev, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    KV = np.atleast_2d(np.asarray(KV, dtype=float))
    gain = np.atleast_2d(np.asarray(gain, dtype=float))
    KZ = np.atleast_2d(np.asarray(KZ, dtype=float))
    KVi, ldKV = _gaussian_logpdf_terms(KV)
    Mbig = D @ KZ @ D.T + KV
    Mi, ldM = _gaussian_logpdf_terms(Mbig)
    r1 = b - C @ b_prev - D @ a
    # same association as r1 so the densities cancel exactly when a = gain b
    r2 = b - C @ b_prev - D @ (gain @ b_prev)
    return float(-0.5 * (ldKV + r1 @ KVi @ r1) + 0.5 * (ldM + r2 @ Mi @ r2))


def _draw_noise(model: ChannelModel, strat: Strategy, steps: int, seed: int):
    """Deterministic noise block for one trace; the documented draw order."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    p, q = model.output_dim, model.input_dim
    if model.initial_cov.any():
        u0 = gen.random(p)
        b0 = model.initial_mean + innovation_from_uniform(u0, model.initial_cov)
    else:
        b0 = model.initial_mean.copy()
    Nz = normal_quantile(gen.random((steps, q)))
    Nv = normal_quantile(gen.random((steps, p)))
    if len(strat.innovations) == 1:
        Z = Nz @ sym_sqrt(strat.KZ(0)).T
    else:
        Z = np.stack([sym_sqrt(strat.KZ(i)) @ Nz[i] for i in range(steps)])
    if model.time_invariant:
        V = Nv @ sym_sqrt(model.KV(0)).T
    else:
        V = np.stack([sym_sqrt(model.KV(i)) @ Nv[i] for i in range(steps)])
    return b0, Z, V


def _trace(model: ChannelModel, strat: Strategy, seed: int, b0, B, A,
           stationary: bool) -> SimulationTrace:
    """Information density and cost along one closed-loop path."""
    steps = B.shape[0]
    Bprev = np.vstack([b0, B[:-1]])
    info = np.empty(steps)
    cost = np.empty(steps)
    if stationary:
        C, D = model.C(0), model.D(0)
        kv_eff, regularized = model.noise_for_inversion(0)
        KVi, ldKV = _gaussian_logpdf_terms(kv_eff)
        Mbig = D @ strat.KZ(0) @ D.T + kv_eff
        Mi, ldM = _gaussian_logpdf_terms(Mbig)
        Acl = C + D @ strat.gain(0)
        R1 = B - Bprev @ C.T - A @ D.T
        R2 = B - Bprev @ Acl.T
        info[:] = (-0.5 * (ldKV + np.einsum("ij,jk,ik->i", R1, KVi, R1))
                   + 0.5 * (ldM + np.einsum("ij,jk,ik->i", R2, Mi, R2)))
        Rm, Qm = model.R(0), model.Q_seq[0]
        cost[:] = (np.einsum("ij,jk,ik->i", A, Rm, A)
                   + np.einsum("ij,jk,ik->i", Bprev, Qm, Bprev))
    else:
        regularized = False
        for i in range(steps):
            kv_eff, reg = model.noise_for_inversion(i)
            regularized = regularized or reg
            info[i] = info_density_step(Bprev[i], A[i], B[i], model.C(i), model.D(i),
                                        kv_eff, strat.gain(i), strat.KZ(i))
            cost[i] = float(A[i] @ model.R(i) @ A[i] + Bprev[i] @ model.Q(i) @ Bprev[i])

    running = np.cumsum(info) / np.arange(1, steps + 1)
    return SimulationTrace(
        seed=int(seed), steps=int(steps), B_path=B, A_path=A,
        info_density_path=info, cost_path=cost, running_rate=running,
        meta={"kv_regularized": bool(regularized)},
    )


def sample_trajectory(model: ChannelModel, strat: Strategy, steps: int, seed: int) -> SimulationTrace:
    """Simulate the closed loop for `steps` steps; deterministic given seed."""
    return simulate_batch(model, strat, steps, [seed])[0]


def simulate_batch(model: ChannelModel, strat: Strategy, steps: int, seeds) -> list:
    """Independent traces for each seed, stepped together as an (S, p) state.

    Each seed's noise is drawn exactly as for a single trace.  A stationary
    scalar loop runs per seed on plain floats; otherwise
    a = b g^T + Z[i], b = b C^T + a D^T + V[i] steps all seeds at once.
    """
    validate_model(model)
    if steps < 1:
        raise PreconditionError("steps must be >= 1")
    if not model.time_invariant and steps > model.horizon + 1:
        raise PreconditionError("steps exceed the horizon of a time-varying model")
    if len(strat.gains) > 1 and strat.steps < steps:
        raise DimensionError("strategy shorter than requested steps")
    seeds = list(seeds)
    if not seeds:
        return []
    S, p, q = len(seeds), model.output_dim, model.input_dim

    b0 = np.empty((S, p))
    Z = np.empty((steps, S, q))
    V = np.empty((steps, S, p))
    for k, seed in enumerate(seeds):
        b0[k], Z[:, k], V[:, k] = _draw_noise(model, strat, steps, seed)
    B = np.empty((S, steps, p))
    A = np.empty((S, steps, q))
    stationary = len(strat.gains) == 1 and model.time_invariant
    if stationary and p == 1 and q == 1:
        # plain-float recursion per seed; each op is the same IEEE operation
        # the matrix path performs, so the trace is identical either way
        g = float(strat.gain(0)[0, 0])
        Cs = float(model.C(0)[0, 0])
        Ds = float(model.D(0)[0, 0])
        for k in range(S):
            b = float(b0[k, 0])
            Zs = Z[:, k, 0].tolist()
            Vs = V[:, k, 0].tolist()
            Al = A[k, :, 0]
            Bl = B[k, :, 0]
            for i in range(steps):
                a = g * b + Zs[i]
                b = Cs * b + Ds * a + Vs[i]
                Al[i] = a
                Bl[i] = b
    else:
        # a (1, p) row times g^T rounds as g @ b does; for S > 1 the product
        # may block differently, which moves a MIMO trace in its last bits
        if stationary:
            mats = itertools.repeat((strat.gain(0).T, model.C(0).T, model.D(0).T), steps)
        else:
            mats = ((strat.gain(i).T, model.C(i).T, model.D(i).T) for i in range(steps))
        b = b0
        for i, (gT, CT, DT) in enumerate(mats):
            a = b @ gT + Z[i]
            b = b @ CT + a @ DT + V[i]
            A[:, i] = a
            B[:, i] = b
    del Z, V    # the traces keep views of B and A only
    return [_trace(model, strat, seed, b0[k], B[k], A[k], stationary)
            for k, seed in enumerate(seeds)]


@dataclass(frozen=True)
class StabilityReport:
    n_traces: int
    steps: int
    epsilon: float
    cost_epsilon: float
    rate_violation_fraction: float
    cost_violation_fraction: float
    violation_fraction: float       # either target missed
    rate_deviations: np.ndarray
    cost_deviations: np.ndarray
    rate_histogram: tuple           # (counts, bin_edges)
    cost_histogram: tuple


def stability_report(traces, target_rate: float, target_cost: float,
                     epsilon: float, cost_epsilon: float = None) -> StabilityReport:
    """Empirical check of the information/cost stability conditions.

    Fraction of traces whose terminal time-averaged information density
    (resp. cost) deviates from its target by more than epsilon; a passing
    configuration drives both fractions to zero as steps grow.
    """
    traces = list(traces)
    if len(traces) < 2:
        raise PreconditionError("need at least 2 traces")
    steps = traces[0].steps
    if steps < 1000:
        raise PreconditionError("traces shorter than 10^3 steps are too noisy to certify")
    if cost_epsilon is None:
        cost_epsilon = epsilon
    rate_dev = np.array([t.terminal_rate - target_rate for t in traces])
    cost_dev = np.array([t.terminal_cost - target_cost for t in traces])
    rate_bad = np.abs(rate_dev) > epsilon
    cost_bad = np.abs(cost_dev) > cost_epsilon
    return StabilityReport(
        n_traces=len(traces), steps=steps,
        epsilon=float(epsilon), cost_epsilon=float(cost_epsilon),
        rate_violation_fraction=float(rate_bad.mean()),
        cost_violation_fraction=float(cost_bad.mean()),
        violation_fraction=float((rate_bad | cost_bad).mean()),
        rate_deviations=rate_dev, cost_deviations=cost_dev,
        rate_histogram=np.histogram(rate_dev, bins=16),
        cost_histogram=np.histogram(cost_dev, bins=16),
    )


def trace_to_csv(trace: SimulationTrace) -> str:
    """Plot-ready CSV: step, b..., a..., info_density, cost, running_rate."""
    p = trace.B_path.shape[1]
    q = trace.A_path.shape[1]
    buf = io.StringIO()
    header = (["step"] + [f"b{j}" for j in range(p)] + [f"a{j}" for j in range(q)]
              + ["info_density", "cost", "running_rate"])
    buf.write(",".join(header) + "\n")
    for i in range(trace.steps):
        row = [str(i)]
        row += [f"{x:.12g}" for x in trace.B_path[i]]
        row += [f"{x:.12g}" for x in trace.A_path[i]]
        row += [f"{trace.info_density_path[i]:.12g}", f"{trace.cost_path[i]:.12g}",
                f"{trace.running_rate[i]:.12g}"]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()
