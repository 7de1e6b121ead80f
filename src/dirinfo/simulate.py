"""Monte Carlo validation of solved strategies.

Closed-loop sampling uses a counter-based generator (numpy's Philox keyed by
the trace seed) producing uniforms that are pushed through the inverse normal
CDF and the symmetric square root of the covariance, so the uniform-variable
realization of the innovations is literally the sampling path.  The inverse
CDF is Wichura's AS241 (PPND16), evaluated elementwise on whole blocks.

Draw order per trace (fixed, part of the determinism contract): the initial
output (only if its covariance is nonzero), then all innovation uniforms as a
(steps, q) block, then all noise uniforms as a (steps, p) block.

Per-step matrices are (m, ., .) stacks: m = 1 for what every step shares (a
time-invariant model, a stationary strategy), else one entry per step.  Square
roots, inverses and log-determinants are taken once per stack, batched, and a
stack of one multiplies as a single 2-D product.

`simulate_batch` draws each seed in that order and then steps all seeds
together.  A time-invariant model under one gain is a linear time-invariant
closed loop, b_i = (C + D g) b_{i-1} + D Z_i + V_i, which it runs as a
two-pass scan over chunks of CHUNK steps (Blelloch, "Prefix Sums and Their
Applications", 1990): every chunk of every seed is one row of a 2-D state,
so the interpreter steps CHUNK times per pass instead of once per step.

Bit contract.  A trace of at most CHUNK steps is the per-step recursion on
the (S, p) state of its batch.  In a longer trace the first two chunks run
the same recursion on more rows; each later chunk starts from a state
carried through (C + D g)^CHUNK, so it may move in the last bits against a
per-step run, and along a stable closed loop the difference does not grow.
With p = q = 1 every product is a single multiply, so a trace is the same
bits in any batch.  Otherwise the BLAS product of one row may round
differently from that of several, so a trace can differ in its last bits
with the batch (and the number of chunks) it ran in.  Reports are
byte-stable for a given seed list.  In a time-varying trace, row i of the
noise is the bits of `innovation_from_uniform` at step i, while the density
and cost come from stacked products and may move in their last bits against
`info_density_step` and the per-step quadratic forms.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, PreconditionError
from .linalg import sym_sqrt
from .model import ChannelModel, Strategy, validate_model

CHUNK = 256     # steps per chunk of the stationary scan in `simulate_batch`

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
    """Inverse and log-determinant of a covariance or an (m, n, n) stack."""
    sign, ld = np.linalg.slogdet(cov)
    if np.any(sign <= 0):
        raise PreconditionError("singular covariance in density evaluation")
    return np.linalg.inv(cov), ld


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


def _rowwise(M, X, form=False):
    """Row i of X times M(i)^T or, with `form`, the quadratic form X[i] M(i) X[i]^T.

    A stack M of one matrix takes the single 2-D product, keeping the bits and
    speed of `X @ M[0].T` and of the three-operand einsum; a per-row stack
    takes stacked matmul, whose row i has the bits of M(i) @ X[i] (gemv).
    """
    one = len(M) == 1
    if form:
        return np.einsum("ij,jk,ik->i" if one else "ij,ijk,ik->i", X, M[0] if one else M, X)
    return X @ M[0].T if one else np.matmul(M, X[:, :, None])[:, :, 0]


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
    Z = _rowwise(sym_sqrt(np.stack(strat.innovations[:steps])), Nz)
    V = _rowwise(sym_sqrt(np.stack(model.KV_seq[:steps])), Nv)
    return b0, Z, V


def _traces(model: ChannelModel, strat: Strategy, seeds, b0, B, A, stationary: bool) -> list:
    """Information density and cost along each seed's path, from per-step
    stacks built once for the batch."""
    steps = B.shape[1]
    C, D, R, G, KZ = (np.stack(seq[:steps]) for seq in (
        model.C_seq, model.D_seq, model.R_seq, strat.gains, strat.innovations))
    # a stationary loop weighs every output with the running Q; otherwise
    # step i = horizon takes terminal_Q
    Q = np.stack(model.Q_seq[:1] if stationary else [model.Q(i) for i in range(steps)])
    KV, regularized = zip(*(model.noise_for_inversion(i)
                            for i in range(min(len(model.KV_seq), steps))))
    KV = np.stack(KV)
    KVi, ldKV = _gaussian_logpdf_terms(KV)
    Mi, ldM = _gaussian_logpdf_terms(D @ KZ @ D.swapaxes(1, 2) + KV)
    Acl = C + D @ G

    def trace(seed, b0, B, A):
        Bprev = np.vstack([b0, B[:-1]])
        R1 = B - _rowwise(C, Bprev) - _rowwise(D, A)
        R2 = B - _rowwise(Acl, Bprev)
        info = (-0.5 * (ldKV + _rowwise(KVi, R1, form=True))
                + 0.5 * (ldM + _rowwise(Mi, R2, form=True)))
        cost = _rowwise(R, A, form=True) + _rowwise(Q, Bprev, form=True)
        return SimulationTrace(
            seed=int(seed), steps=int(steps), B_path=B, A_path=A,
            info_density_path=info, cost_path=cost,
            running_rate=np.cumsum(info) / np.arange(1, steps + 1),
            meta={"kv_regularized": any(regularized)})

    return [trace(seed, b0[k], B[k], A[k]) for k, seed in enumerate(seeds)]


def sample_trajectory(model: ChannelModel, strat: Strategy, steps: int, seed: int) -> SimulationTrace:
    """Simulate the closed loop for `steps` steps; deterministic given seed."""
    return simulate_batch(model, strat, steps, [seed])[0]


def simulate_batch(model: ChannelModel, strat: Strategy, steps: int, seeds) -> list:
    """Independent traces for each seed, stepped together.

    Each seed's noise is drawn exactly as for a single trace.  Every step is
    a = b g^T + Z[i], b = b C^T + a D^T + V[i] on the rows of all seeds.  A
    stationary loop (time-invariant model, one gain) runs as the chunked
    scan of `_scan`; a time-varying one steps per step on an (S, p) state.
    See the module docstring for which bits are exact.
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
    stationary = len(strat.gains) == 1 and model.time_invariant
    # the scan pads each trace to whole chunks with zero noise
    n = -(-steps // CHUNK) * CHUNK if stationary else steps

    b0 = np.empty((S, p))
    Z = np.zeros((S, n, q))
    V = np.zeros((S, n, p))
    for k, seed in enumerate(seeds):
        b0[k], Z[k, :steps], V[k, :steps] = _draw_noise(model, strat, steps, seed)
    B = np.empty((S, n, p))
    A = np.empty((S, n, q))
    if stationary:
        _scan(model.C(0), model.D(0), strat.gain(0), b0, Z, V, A, B, steps)
    else:
        b = b0
        for i in range(steps):
            a = b @ strat.gain(i).T + Z[:, i]
            b = b @ model.C(i).T + a @ model.D(i).T + V[:, i]
            A[:, i] = a
            B[:, i] = b
    del Z, V    # the traces keep views of B and A only
    return _traces(model, strat, seeds, b0, B[:, :steps], A[:, :steps], stationary)


def _scan(C, D, g, b0, Z, V, A, B, steps: int) -> None:
    """Fill A and B along the stationary closed loop, CHUNK steps at a time.

    Z, V, A and B are (S, K*CHUNK, .) with zero noise past `steps`; row
    s*K + k of the (S*K, p) state is chunk k of seed s.  Pass 1 steps every
    chunk from rest, chunk 0 from b0, and keeps its end state y_k.  Chunk k
    starts at x_k = x_{k-1} (Acl^CHUNK)^T + y_{k-1} for k >= 2, with x_0 = b0
    and x_1 = y_0.  Pass 2 steps every chunk from its start and stores the
    path.  Each pass loops CHUNK times and the carry K - 2 times, whatever
    the number of seeds; with K = 1 only pass 2 runs, `steps` times.
    """
    S, n, p = B.shape
    K = n // CHUNK
    last = steps - (K - 1) * CHUNK      # real steps in the last chunk
    gT, CT, DT = g.T, C.T, D.T

    def rows(X):
        return X.reshape(S * K, CHUNK, X.shape[2])

    Zr, Vr = rows(Z), rows(V)

    def run(b, Ar=None, Br=None):
        for j in range(min(CHUNK, steps)):
            if j == last:
                # the last chunk is past `steps`: hold its rows at zero so a
                # divergent loop cannot overflow in the padding
                b.reshape(S, K, p)[:, -1] = 0.0
            a = b @ gT
            a += Zr[:, j]
            b = b @ CT
            b += a @ DT
            b += Vr[:, j]
            if Ar is not None:
                Ar[:, j] = a
                Br[:, j] = b
        return b

    x = np.zeros((S, K, p))
    x[:, 0] = b0
    if K > 1:
        y = run(x.reshape(S * K, p)).reshape(S, K, p)
        x[:, 1] = y[:, 0]
        ALT = np.linalg.matrix_power(C + D @ g, CHUNK).T
        for k in range(2, K):
            x[:, k] = x[:, k - 1] @ ALT + y[:, k - 1]
    run(x.reshape(S * K, p), rows(A), rows(B))


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
