"""Monte Carlo validation of solved strategies.

Closed-loop sampling uses a counter-based generator (numpy's Philox keyed by
the trace seed) producing uniforms that are pushed through the inverse normal
CDF and the symmetric square root of the covariance, so the uniform-variable
realization of the innovations is literally the sampling path.  The inverse
CDF is Wichura's AS241 (PPND16), evaluated elementwise in blocks of QBLOCK
elements: the central rational on every element by in-place Horner steps,
which repeat np.polyval's float operations, then the tails on their subset,
then the sign of u - 0.5 by one copysign (see `normal_quantile`).

Draw order per trace (fixed, part of the determinism contract): the initial
output (only if its covariance is nonzero), then all innovation uniforms as a
(steps, q) block, then all noise uniforms as a (steps, p) block.

Per-step matrices are (m, ., .) stacks: m = 1 for what every step shares (a
time-invariant model, a stationary strategy), else one entry per step.  A
strategy's gains and innovations are such stacks, sliced without a copy.  Square
roots, inverses and log-determinants are taken once per stack, batched, and a
stack of one multiplies as a single 2-D product.  A batch takes the roots of
the initial covariance and of the K_Z and K_V stacks once, for every seed.

`simulate_batch` draws each seed in that order and then steps all seeds
together.  A time-invariant model under one gain is a linear time-invariant
closed loop, b_i = (C + D g) b_{i-1} + D Z_i + V_i, which it runs as a
two-pass scan over chunks of CHUNK steps (Blelloch, "Prefix Sums and Their
Applications", 1990): every chunk of every seed is one row of a 2-D state,
so the interpreter steps CHUNK times per pass instead of once per step.
Any other closed loop runs through the same stepper as one chunk.  The
scan's buffers are time-major, (CHUNK, S*K, .) for K chunks per seed: slab j
holds step j of every chunk of every seed, so each step reads and writes
contiguous memory.  Each seed's noise is written straight into its rows, the
scan stores the path over the noise it has used, and the paths are copied
back to seed-major (S, K*CHUNK, .) once after the scan.  Both copies move a
row of d doubles as one np.void element: they move bytes, not values.

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
the same log-densities and quadratic forms evaluated one step at a time.

Right operands.  A BLAS product of two or more rows multiplies by a
C-contiguous copy of its right operand, made once per call (`_right`):
`_rowwise`'s M[0]^T, and the scan's G^T, C^T, D^T and carry (Acl^CHUNK)^T.
OpenBLAS takes that layout several times faster than the transposed view.
A product of one row keeps the view: numpy takes it as the gemv M x, and
against a copy as the transposed gemv, which rounds otherwise.  So a scan
on one row (one seed, at most CHUNK steps) is the per-step recursion
C b + D a + V bit for bit, and the carry of one seed is Acl^CHUNK x.  On
OpenBLAS 0.3.31 the copy gives the view's bits wherever the inner
dimension is below 16.  From 16 on, a product of up to some thousands of
rows may round otherwise in the two layouts: traces at p = 32, and at p or
q = 16 against the other at 2 to 4, differ in their last bits from those
of the transposed views (5e-15 relative at most where measured); no report
or test pinned them.  With the same bytes, the copy's product may also
warn 'invalid' on a row holding +-inf where the view's does not; that
row's product is +-inf or nan either way, and a path that has overflowed
warns 'invalid' in `_traces` as well.

A product whose inner dimension is one (a p = 1 or q = 1 model has many) is
a broadcast multiply with matmul's bits.  Matmul sums its terms from +0.0,
so it never returns -0.0; `_rowwise` adds +0.0 after its multiply to match.
The scan leaves that add out: each of its products reaches the path only
through an add of Z or V (in the carry, of y, a state that ended with such
an add), none of which holds -0.0, and x + v has the same bits for x = -0.0
and x = +0.0 whenever v is not -0.0.  Z and V come from `_rowwise` or from
zero padding.  Products with two or more inner terms stay on BLAS, which
fuses multiply-adds, so no elementwise form gives its bits.  With Q = 0 at
every step (terminal_Q included) the output-cost form is left out: on a
finite path it is exactly +0.0, and the input form, a sum from +0.0, is
never -0.0, so the cost keeps its bits.  Where a path has overflowed, the
cost is the input form alone (inf) where adding 0 * inf would read nan.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PreconditionError
from .linalg import sym_sqrt
from .model import ChannelModel, Strategy, validate_model

CHUNK = 256     # steps per chunk of the stationary scan in `simulate_batch`
QBLOCK = 32768  # elements per block of `normal_quantile`

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
    maps to the same bits whatever array holds it.  Computed on w = min(u, 1 - u),
    which is exact; the sign then comes from u - 0.5 by copysign.  That is
    exact: the quantile of w is <= 0, as the central value (w - 0.5) A(r) / B(r)
    has w <= 0.5 and positive coefficients and the tail value is -y with y > 0
    (stored as y), and u - 0.5 is +0.0 only at u = 0.5, where the central value
    is already +0.0.  So q(u) == -q(1 - u) whenever 1 - u is exact.  The flat
    input is walked in blocks of QBLOCK elements, so every temporary stays in
    cache; each block checks its own w > 0 (false for nan, +-0.0, 1.0 and values
    outside (0, 1)), so the input is not scanned before the blocks.
    """
    u = np.asarray(u, dtype=float)
    flat = u.reshape(-1)
    out = np.empty_like(flat)
    for s in range(0, flat.size, QBLOCK):
        _quantile_block(flat[s:s + QBLOCK], out[s:s + QBLOCK])
    return out.reshape(u.shape)[()]


def _horner(coef, r):
    """np.polyval(coef, r) by the same float operations, in place."""
    y = np.multiply(r, coef[0])
    for c in coef[1:-1]:
        y += c
        y *= r
    y += coef[-1]
    return y


def _quantile_block(u, x):
    """AS241 of a 1-D block u into x: the central rational on every element,
    then the tail on the elements below 0.075 (after the reflection), then
    the sign of u - 0.5 (written into the spent w) by one copysign.  A w that is
    not positive (u outside (0, 1), or nan) raises PreconditionError."""
    w = np.subtract(1.0, u)
    np.minimum(w, u, out=w)
    if not (w > 0.0).all():
        raise PreconditionError("uniform sample on the boundary of (0, 1)")
    np.subtract(w, 0.5, out=x)
    tail = np.flatnonzero(x < -0.425)
    r = np.multiply(x, x)
    np.subtract(0.180625, r, out=r)
    x *= _horner(_A, r)
    x /= _horner(_B, r)
    if tail.size:
        r = np.sqrt(-np.log(w[tail]))
        t = r - 1.6
        y = _horner(_C, t)
        y /= _horner(_D, t)
        far = np.flatnonzero(r > 5.0)
        if far.size:
            t = r[far] - 5.0
            y[far] = _horner(_E, t) / _horner(_F, t)
        x[tail] = y
    np.subtract(u, 0.5, out=w)
    np.copysign(x, w, out=x)


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


def _rowwise(M, X):
    """Row i of X times M(i)^T, with the bits of matmul.

    An inner dimension of one (M is (m, r, 1)) takes one broadcast multiply
    for either kind of stack: one product per entry, all that matmul computes
    there, without BLAS's call cost on a thin column.  Matmul sums from +0.0,
    so a -0.0 product comes out +0.0; the `+= 0.0` does the same (-0.0 + 0.0
    is +0.0, and the add changes no other value, inf and nan included), and
    the multiply warns where matmul does (inf * 0).  Otherwise a stack of one
    matrix takes the single 2-D product against a C-contiguous copy of
    M[0]^T, or against the view M[0].T for one row (see `_right`); a per-row
    stack takes stacked matmul, whose row i has the bits of M(i) @ X[i]
    (gemv).
    """
    if M.shape[2] == 1:
        Y = X * M[:, :, 0]
        Y += 0.0
        return Y
    return X @ _right(M[0].T, len(X)) if len(M) == 1 else np.matmul(M, X[:, :, None])[:, :, 0]


def _right(MT, rows: int):
    """MT as the right operand of a product of `rows` rows: a C-contiguous
    copy, which BLAS takes faster than a transposed view, or MT itself for
    one row, whose product keeps the bits of the gemv M @ x (see "Right
    operands" in the module docstring)."""
    return MT if rows == 1 else np.ascontiguousarray(MT)


def _form(M, X):
    """The quadratic form X[i] M(i) X[i]^T of each row."""
    return np.einsum("ij,ij->i", _rowwise(M, X), X)


def _roots(model: ChannelModel, strat: Strategy, steps: int):
    """The square roots a draw multiplies: of the initial covariance (None where
    it is zero) and of the K_Z and K_V stacks over `steps`."""
    return (sym_sqrt(model.initial_cov) if model.initial_cov.any() else None,
            sym_sqrt(np.asarray(strat.innovations[:steps])),
            sym_sqrt(np.asarray(model.KV_seq[:steps])))


def _draw_noise(model: ChannelModel, strat: Strategy, steps: int, seed: int, roots=None):
    """Deterministic noise block for one trace; the documented draw order.
    `roots` is `_roots(model, strat, steps)` when the caller holds it (a batch
    takes it once); when None it is taken here, with the same bits."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    p, q = model.output_dim, model.input_dim
    root0, root_z, root_v = _roots(model, strat, steps) if roots is None else roots
    if root0 is not None:
        b0 = model.initial_mean + root0 @ normal_quantile(gen.random(p))
    else:
        b0 = model.initial_mean.copy()
    Nz = normal_quantile(gen.random((steps, q)))
    Nv = normal_quantile(gen.random((steps, p)))
    return b0, _rowwise(root_z, Nz), _rowwise(root_v, Nv)


def _traces(model: ChannelModel, seeds, b0, B, A, C, D, G, KZ, Q) -> list:
    """Information density and cost along each seed's path, from the batch's
    per-step stacks.  A Q stack of zeros adds no output form (see the module
    docstring)."""
    steps = B.shape[1]
    R = np.stack(model.R_seq[:steps])
    KV = np.stack([model.noise_for_inversion(i)[0]
                   for i in range(min(len(model.KV_seq), steps))])
    KVi, ldKV = _gaussian_logpdf_terms(KV)
    Mi, ldM = _gaussian_logpdf_terms(D @ KZ @ D.swapaxes(1, 2) + KV)
    Acl = C + D @ G
    weighs_b = Q.any()

    def trace(seed, b0, B, A):
        Bprev = np.vstack([b0, B[:-1]])
        R1 = B - _rowwise(C, Bprev) - _rowwise(D, A)
        R2 = B - _rowwise(Acl, Bprev)
        info = -0.5 * (ldKV + _form(KVi, R1)) + 0.5 * (ldM + _form(Mi, R2))
        cost = _form(R, A)
        if weighs_b:
            cost += _form(Q, Bprev)
        return SimulationTrace(
            seed=int(seed), steps=int(steps), B_path=B, A_path=A,
            info_density_path=info, cost_path=cost,
            running_rate=np.cumsum(info) / np.arange(1, steps + 1))

    return [trace(seed, b0[k], B[k], A[k]) for k, seed in enumerate(seeds)]


def sample_trajectory(model: ChannelModel, strat: Strategy, steps: int, seed: int) -> SimulationTrace:
    """Simulate the closed loop for `steps` steps; deterministic given seed."""
    return simulate_batch(model, strat, steps, [seed])[0]


def simulate_batch(model: ChannelModel, strat: Strategy, steps: int, seeds) -> list:
    """Independent traces for each seed, stepped together.

    Each seed's noise is drawn exactly as for a single trace.  Every step is
    a = b g^T + Z[i], b = b C^T + a D^T + V[i] on the rows of all seeds, by
    `_scan`: a stationary loop (time-invariant model, one gain) in chunks of
    CHUNK steps, any other loop as one chunk of `steps` on an (S, p) state.
    See the module docstring for which bits are exact.
    """
    validate_model(model)
    if steps < 1:
        raise PreconditionError("steps must be >= 1")
    if not model.time_invariant and steps > model.horizon + 1:
        raise PreconditionError("steps exceed the horizon of a time-varying model")
    if len(strat.gains) > 1 and strat.steps < steps:
        raise DimensionError("strategy shorter than requested steps")
    p, q = model.output_dim, model.input_dim
    try:    # O(1) on a stack; a tuple-built Strategy is stacked, and fails if its entries differ
        shapes = np.shape(strat.gains)[1:], np.shape(strat.innovations)[1:]
    except ValueError:
        shapes = None
    if shapes != ((q, p), (q, q)):
        raise DimensionError(f"strategy gains must be {q}x{p} and innovations {q}x{q}")
    seeds = list(seeds)
    if not seeds:
        return []
    S = len(seeds)
    stationary = len(strat.gains) == 1 and model.time_invariant
    chunk = CHUNK if stationary else steps
    # the scan pads each trace to whole chunks with zero noise
    K = -(-steps // chunk)

    b0 = np.empty((S, p))
    Z = np.zeros((chunk, S * K, q))
    V = np.zeros((chunk, S * K, p))
    roots = _roots(model, strat, steps)
    for s, seed in enumerate(seeds):
        b0[s] = _draw_slabs(model, strat, steps, seed, Z, V, s * K, roots)
    C, D, G, KZ = (np.asarray(seq[:steps]) for seq in (
        model.C_seq, model.D_seq, strat.gains, strat.innovations))
    # a stationary loop weighs every output with the running Q; otherwise
    # step i = horizon takes terminal_Q
    Q = np.stack(model.Q_seq[:1] if stationary else [model.Q(i) for i in range(steps)])
    _scan(C, D, G, b0, Z, V, steps)     # leaves the path A in Z and B in V
    A = _seed_major(Z, S)
    del Z
    B = _seed_major(V, S)
    del V
    return _traces(model, seeds, b0, B[:, :steps], A[:, :steps], C, D, G, KZ, Q)


def _draw_slabs(model: ChannelModel, strat: Strategy, steps: int, seed: int, Z, V, row: int,
                roots):
    """Draw one seed's noise (`_draw_noise` with the batch's `roots`) and write it into
    the time-major (chunk, S*K, .) buffers Z and V at rows row .. row + K - 1, one per
    chunk; returns b0."""
    b0, z, v = _draw_noise(model, strat, steps, seed, roots)
    chunk = len(Z)
    whole, tail = divmod(steps, chunk)
    for rows, x in ((_rows(Z), _rows(z)), (_rows(V), _rows(v))):
        rows[:, row:row + whole] = x[:steps - tail].reshape(whole, chunk).T
        if tail:
            rows[:tail, row + whole] = x[steps - tail:]
    return b0


def _rows(X):
    """X (..., d) as (...) of one np.void element per row of d doubles, so
    that a copy moves whole rows instead of d doubles at a time."""
    return X.view(np.dtype((np.void, X.shape[-1] * X.itemsize)))[..., 0]


def _seed_major(X, S: int):
    """A time-major (chunk, S*K, d) buffer as (S, K*chunk, d): one copy, or a
    view of X when K = 1."""
    chunk, SK, _ = X.shape
    rows = _rows(X).reshape(chunk, S, SK // S).transpose(1, 2, 0)
    return rows.reshape(S, -1, 1).view(np.float64)


def _scan(C, D, G, b0, Z, V, steps: int) -> None:
    """Run the closed loop `chunk` steps at a time and overwrite the noise Z
    and V with the path A and B; step j takes entry j % m of each (m, ., .)
    stack C, D, G (a per-step stack is one chunk).

    Z and V are time-major (chunk, S*K, .) with zero noise past `steps`:
    slab j holds step j of every chunk, and row s*K + k of the (S*K, p) state
    is chunk k of seed s, so each step reads and writes contiguous slabs.
    Pass 1 steps every chunk from rest, chunk 0 from b0, and keeps its end
    state y_k.  Chunk k starts at x_k = x_{k-1} (Acl^chunk)^T + y_{k-1} for
    k >= 2, with x_0 = b0 and x_1 = y_0.  Pass 2 steps every chunk from its
    start and stores step j's a and b over slab j of Z and V, which no later
    step reads.  Each pass loops `chunk` times and the carry K - 2 times,
    whatever the number of seeds; with K = 1 only pass 2 runs, `steps` times.
    A product with one inner term is a broadcast multiply without `_rowwise`'s
    `+= 0.0`: the adds of Z, V and y that follow give matmul's bits (see the
    module docstring).  The others multiply by C-contiguous copies of G^T,
    C^T, D^T and (Acl^chunk)^T, made once, or by the views themselves where
    the state (S*K rows), or the carried one (S rows), is a single row.
    """
    chunk, SK, p = V.shape
    S = len(b0)
    K = SK // S
    last = steps - (K - 1) * chunk      # real steps in the last chunk
    GT, CT, DT = (_right(M.swapaxes(1, 2), SK) for M in (G, C, D))
    by_b, by_a = (np.multiply if n == 1 else np.matmul for n in (p, D.shape[2]))

    def run(b, store):
        for j in range(min(chunk, steps)):
            if j == last:
                # the last chunk is past `steps`: hold its rows at zero so a
                # divergent loop cannot overflow in the padding
                b.reshape(S, K, p)[:, -1] = 0.0
            a = by_b(b, GT[j % len(GT)])
            a += Z[j]
            b = by_b(b, CT[j % len(CT)])
            b += by_a(a, DT[j % len(DT)])
            b += V[j]
            if store:
                Z[j] = a
                V[j] = b
        return b

    x = np.zeros((S, K, p))
    x[:, 0] = b0
    if K > 1:
        y = run(x.reshape(SK, p), False).reshape(S, K, p)
        x[:, 1] = y[:, 0]
        ALT = _right(np.linalg.matrix_power(C[0] + D[0] @ G[0], chunk).T, S)
        for k in range(2, K):
            x[:, k] = by_b(x[:, k - 1], ALT) + y[:, k - 1]
    run(x.reshape(SK, p), True)


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


def check_traces(n_traces: int, steps: int) -> None:
    """PreconditionError unless `stability_report` can certify n_traces traces of `steps` steps."""
    if n_traces < 2:
        raise PreconditionError("need at least 2 traces")
    if steps < 1000:
        raise PreconditionError("traces shorter than 10^3 steps are too noisy to certify")


def stability_report(traces, target_rate: float, target_cost: float,
                     epsilon: float, cost_epsilon: float = None) -> StabilityReport:
    """Empirical check of the information/cost stability conditions.

    Fraction of traces whose terminal time-averaged information density
    (resp. cost) deviates from its target by more than epsilon; a passing
    configuration drives both fractions to zero as steps grow.
    """
    traces = list(traces)
    check_traces(len(traces), traces[0].steps if traces else 0)
    steps = traces[0].steps
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
    """Plot-ready CSV: step, b..., a..., info_density, cost, running_rate, by one savetxt."""
    (_, p), (_, q) = trace.B_path.shape, trace.A_path.shape
    header = ",".join(["step", *(f"b{j}" for j in range(p)), *(f"a{j}" for j in range(q)),
                       "info_density", "cost", "running_rate"])
    cols = np.column_stack([np.arange(trace.steps), trace.B_path, trace.A_path,
                            trace.info_density_path, trace.cost_path, trace.running_rate])
    buf = io.StringIO()
    np.savetxt(buf, cols, fmt="%.12g", delimiter=",", header=header, comments="")
    return buf.getvalue()
