"""The five processes under comparison.

Discrete iterations on the grid k*gamma, k = 0..K:

* ``run_gd``            x_{k+1} = x_k - gamma * grad g(x_k)
* ``run_gaussian_sgd``  adds (gamma/sqrt(m)) * sigma(x_k) * xi_{k+1}
* ``run_msgd``          x_{k+1} = x_k - gamma * sum_i w_i grad l(x_k, u_i)
                        with fresh data and a fresh weight vector each step

Continuous-time references:

* ``run_ode``           dX = -grad g(X) dt, by its exact flow map
                        x* + e^(-lam gamma) (x - x*) when grad g(x) = lam (x - x*)
* ``run_diffusion_em``  dX = -grad g(X) dt + sqrt(gamma/m) sigma dB, Euler-Maruyama
                        with substeps gamma/R, drawn per recorded step from the
                        exact law of their sum on that linear drift with a
                        constant sigma

Both continuous-time references record their states at multiples of gamma
only, so every runner's output grid is the config's.  A :class:`RunConfig`
is one point of a step grid: M-SGD reads (n, m) from its scheme, and the
Gaussian runners, whose noise depends on m alone, take m last.  Gaussian
SGD is one Euler-Maruyama step of size gamma, for any model.  M-SGD builds
one drawer, the one its model's gradient hook uses: on a model with
``sample_weighted_grad`` (the quadratic), a :class:`StepNoise` of its noise
given the weights; on any other, a :class:`WeightedGradient` of the data
path, whose one-step draw the clt samples take.

``run_gaussian_sgd``, ``run_msgd`` and ``run_diffusion_em`` are ensemble
runners: they take one ``RngStream`` per replication and advance all R
replications together as an (R, p) array, so their states have shape
(K+1, R, p).  Replication r draws only from its own stream, in the order a
lone run would.  The Gaussian runners draw a row's q normals for a block of
steps in one call, which yields the values of one call per step, so their
block size moves no byte.  Quadratic M-SGD draws a row's weight norms and
then its normals for a block of steps, which orders two laws' draws on one
generator, so its blocks are fixed: ``BLOCK_STEPS`` steps from step 0, cut
at the row's own last step, whatever rows run beside it.  The
per-replication arithmetic is unchanged (stacked ``np.matmul`` runs the
same kernel on each replication as on a single path), so replication r of
an ensemble is bit-identical to a one-replication ensemble on the same
stream.  ``run_gd`` and ``run_ode`` draw nothing and run one path per
config, of shape (K+1, p).

Every runner takes a step-size grid: a sequence of configs, with one
sequence of streams per config for the runners that draw.  All rows of all
configs advance in lockstep, each row with its own step size, laid out
longest config first (stable on ties), so a config's rows leave the live
set after its last step and the live rows are always a leading slice; the
loop runs max K steps instead of their sum.  The result is a
:class:`Lockstep` whose ``runs[i]`` is still config i's state array,
bit-identical to running that config alone as a grid of one.

The first recorded state that is not finite or exceeds ``DIVERGENCE_LIMIT``
ends the run with a :class:`DivergenceError` naming its process, its
replication within its config (for an ensemble), its config's step size and
the iteration; of rows out of range at the same step, the first in config
order is named, and within it the first replication.  No replication is
ever dropped: the claims under test are about the law of the whole
process, and a statistic over the survivors would describe that law
conditioned on survival.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .models import LossModel
from .numerics import RngStream
from .weights import WeightScheme, sample_weight_norms, sample_weight_values

DIVERGENCE_LIMIT = 1e150

# The most steps a run may take: a cap on grids no run could allocate, far above
# any shipped run (300 steps), not a memory budget.
MAX_STEPS = 10**6

# Payload elements (replications x n x payload width) drawn and reduced at
# once by M-SGD and the sampling statistics: the bound on a chunk's block,
# 512 KiB of float64, and on a StepNormals block of the Gaussian runners'
# normals.  Rows never mix, so it moves no byte.  On a 2-vCPU VM,
# 2**13 to 2**20 moved the sampling and trajectories timing rounds by at most
# 2.6 %; logistic was 10 % slower at 2**15 (more chunk calls) and flat from
# 2**16 up, and canonical converge_logistic 9 % faster at 2**18.  What pays is
# ChunkBlock's reuse of one block: fresh blocks made sampling 6 % slower, with
# 40x the minor faults.
CHUNK_ELEMENTS = 2**16

# Steps of one block of M-SGD's draws given the weights (StepNoise), per row:
# at most one chisquare or weight-row call and one standard_normal call per
# row and block.  Blocks start at steps 0, B, 2B, ... and stop at each row's
# last step.  Unlike CHUNK_ELEMENTS it moves bytes, since two laws share a row's
# generator, so it is fixed: no config, row count or grid changes it.
BLOCK_STEPS = 64


def chunk_rows(row_elements: int) -> int:
    """Replications per chunk when each holds `row_elements` payload elements."""
    return max(1, CHUNK_ELEMENTS // row_elements)


class ChunkBlock:
    """A sampler that draws every chunk into one block, allocated once.

    The first call allocates the block by drawing without ``out``; later
    calls pass the block's leading rows as ``out``, so a loop over chunks of
    shrinking size reuses the memory instead of freeing and reallocating
    (and page-faulting on) a fresh block each time.  The draws are the same
    bytes either way.  Any `draw` that fills one row per stream and takes
    ``out`` will do.
    """

    def __init__(self, draw: Callable[..., np.ndarray]):
        self.draw = draw
        self.block: Optional[np.ndarray] = None

    def __call__(self, streams: Sequence[RngStream], *args) -> np.ndarray:
        if self.block is None or len(streams) > len(self.block):
            self.block = self.draw(streams, *args)
            return self.block
        return self.draw(streams, *args, out=self.block[: len(streams)])


class DivergenceError(ArithmeticError):
    """A trajectory left the representable range."""

    def __init__(self, process: str, iteration: int, step_size: float):
        self.process = process
        self.iteration = iteration
        self.step_size = step_size
        super().__init__(f"{process} diverged at iteration {iteration} "
                         f"with step size {step_size:g}")


@dataclass(frozen=True)
class RunConfig:
    """Shared run parameters: step size, iteration count and the start.

    The horizon is T = num_steps * gamma.  All processes given the same
    config start at the same x0.
    """

    gamma: float
    num_steps: int
    x0: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"step size must satisfy 0 < gamma < 1, got {self.gamma}")
        if not 1 <= self.num_steps <= MAX_STEPS:
            raise ValueError(f"num_steps must be in [1, {MAX_STEPS}], got {self.num_steps}")
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))


@dataclass
class Lockstep:
    """A step-size grid advanced together.

    ``states`` is the (max K + 1, rows, p) lockstep block, NaN where a row
    was not live, its rows laid out longest config first; ``runs[i]`` is
    config i's states x_0..x_K on the grid k * gamma, a view of its own rows
    up to its last step: (K+1, R, p) for an ensemble, (K+1, p) for a runner
    that runs one path per config.
    """

    states: np.ndarray
    runs: list[np.ndarray]


def _stream_list(streams) -> list:
    if isinstance(streams, RngStream):
        raise TypeError("expected a sequence of per-replication RngStreams, got one stream")
    streams = list(streams)
    if not streams:
        raise ValueError("need at least one replication stream")
    return streams


def _run_ensemble(
    kind: str,
    configs: Sequence[RunConfig],
    streams,
    advance: Callable[..., np.ndarray],
    coefficients: Callable[[RunConfig], tuple],
) -> Lockstep:
    """Advance every config's replications in lockstep, each to its config's
    last step.

    ``streams`` holds one sequence of per-replication streams per config, or
    None for a runner that draws nothing and runs one path per config.
    ``coefficients(config)`` gives the config's per-row numbers.
    ``advance(x, streams, steps_left, *columns)`` maps the (live, p) states
    of the live rows, their streams, the steps every live row still takes
    (this one included, so at least 1) and their (live, 1) coefficient
    columns to the next states.  Rows are laid out longest config first, a
    stable sort, so the live rows are always a leading slice and leave it
    only once ``steps_left`` steps have been taken.  The first row out of
    range in config order raises.
    """
    configs = list(configs)
    if streams is None:
        groups = [[None]] * len(configs)
    else:
        groups = [_stream_list(group) for group in streams]
    if not configs or len(groups) != len(configs):
        raise ValueError(f"need one stream sequence per config, got {len(groups)} "
                         f"for {len(configs)} configs")
    order = sorted(range(len(configs)), key=lambda i: -configs[i].num_steps)
    sizes = [len(groups[i]) for i in order]
    x = np.concatenate([np.tile(configs[i].x0, (size, 1)) for i, size in zip(order, sizes)])
    last = np.repeat([configs[i].num_steps for i in order], sizes).tolist()
    starts = dict(zip(order, np.cumsum([0] + sizes).tolist()))
    row_streams = [s for i in order for s in groups[i]]
    columns = [np.repeat(column, sizes)[:, None]
               for column in zip(*(coefficients(configs[i]) for i in order))]
    states = np.full((last[0] + 1, x.shape[0], x.shape[1]), np.nan)
    live, k = len(x), 0
    while True:
        if not np.abs(x).max() <= DIVERGENCE_LIMIT:  # False for NaN and inf
            bad = np.flatnonzero(~np.all(np.abs(x) <= DIVERGENCE_LIMIT, axis=1))
            owner = np.repeat(order, sizes)
            row = min(bad, key=lambda r: (owner[r], r))
            i = int(owner[row])
            process = kind if streams is None else f"{kind} replication {row - starts[i]}"
            raise DivergenceError(process, k, configs[i].gamma)
        states[k, :live] = x
        if k == last[live - 1]:
            live = sum(n > k for n in last)
            if not live:
                break
            x, row_streams, columns = x[:live], row_streams[:live], [c[:live] for c in columns]
        x = advance(x, row_streams, last[live - 1] - k, *columns)
        k += 1
    runs = []
    for i, (c, group) in enumerate(zip(configs, groups)):
        block = states[: c.num_steps + 1, starts[i] : starts[i] + len(group)]
        runs.append(block[:, 0] if streams is None else block)
    return Lockstep(states=states, runs=runs)


def run_gd(model: LossModel, configs: Sequence[RunConfig]) -> Lockstep:
    """Deterministic gradient descent, one path per config."""

    def advance(x, _streams, _steps_left, gamma):
        return x - gamma * model.grad_objective(x)

    return _run_ensemble("gd", configs, None, advance, lambda c: (c.gamma,))


class StepNormals:
    """Each live row's standard normals, `width` per step, drawn a block of
    steps at a time.

    ``normals(streams, width, steps_left)`` returns the (live, width)
    normals of the next step.  A spent block is refilled with the next s
    steps of every live row, one ``standard_normal`` call per row into one
    reused buffer, where 1 <= s <= `steps_left` (so no row draws past its
    last step, and the live rows stay the same within a block) and the
    block holds at most max(CHUNK_ELEMENTS, one step of the live rows)
    values.  A run of calls on one generator yields the values of one call
    of their total size, so the block size moves no byte.
    """

    def __init__(self):
        self.buffer = np.empty(0)
        self.block = self.buffer.reshape(0, 0)
        self.step = 0

    def __call__(self, streams: Sequence[RngStream], width: int, steps_left: int) -> np.ndarray:
        if self.step == self.block.shape[1]:
            self.refill(streams, width, steps_left)
        self.step += 1
        return self.block[:, self.step - 1]

    def refill(self, streams: Sequence[RngStream], width: int, steps_left: int) -> None:
        """Draw the next block, s steps of every live row."""
        steps = max(1, min(steps_left, CHUNK_ELEMENTS // (len(streams) * width)))
        size = len(streams) * steps * width
        if self.buffer.size < size:
            self.buffer = np.empty(size)
        self.block = self.buffer[:size].reshape(len(streams), steps, width)
        for row, stream in zip(self.block, streams):
            stream.generator.standard_normal(out=row)
        self.step = 0


def run_gaussian_sgd(model: LossModel, configs: Sequence[RunConfig], streams, m: int) -> Lockstep:
    """Gradient descent plus scaled Gaussian noise: one Euler-Maruyama step of size
    gamma, x - gamma grad g(x) + (gamma/sqrt(m)) sigma(x) z, for any model, with q
    normals per replication and step drawn by :class:`StepNormals`."""
    normals = StepNormals()

    def advance(x, live_streams, steps_left, gamma, scale):
        factor = model.noise_factor(x)
        z = normals(live_streams, factor.shape[-1], steps_left)
        noise = (factor @ z[..., None])[..., 0]
        return x - gamma * model.grad_objective(x) + scale * noise

    return _run_ensemble("gaussian_sgd", configs, streams, advance,
                         lambda c: (c.gamma, c.gamma / math.sqrt(m)))


class StepNoise:
    """Each live row's M-SGD draws given its weights, a block of steps at a
    time: per step, the (sum w, |w|^2) of a fresh weight vector and p
    standard normals zeta.

    ``refill(streams, steps)`` draws the next ``steps[r]`` steps of row r,
    the counts not increasing in r: first the row's norms, by
    ``weights.sample_weight_norms`` (one ``chisquare`` call for normal-base
    gaussian weights, the ``weights.sample_weight_values`` rows for every
    other law, which draw nothing for minibatch weights), then its (steps[r],
    p) zeta in one ``standard_normal`` call, into two buffers that every
    block reuses.  Called once per step as ``(streams, last)``, with the
    live rows' (live, 1) last steps, it returns the (live, 2) norms
    and (live, p) normals of step k, the number of earlier calls, refilling
    at k = 0, B, 2B, ... (B = ``BLOCK_STEPS``) with min(B, last_r - k) steps
    of each live row.  So a row's draws depend on its stream, its last step
    and B alone, never on the rows beside it; the buffers hold min(B,
    longest run) steps of every row.
    """

    def __init__(self, scheme: WeightScheme, p: int):
        self.scheme = scheme
        self.draw_weights = ChunkBlock(sample_weight_values)
        self.norms, self.zeta = np.empty((0, 0, 2)), np.empty((0, 0, p))
        self.step = 0

    def __call__(self, streams: Sequence[RngStream], last: np.ndarray):
        j = self.step % BLOCK_STEPS
        if j == 0:
            self.refill(streams, np.minimum(last[:, 0] - self.step, BLOCK_STEPS).tolist())
        self.step += 1
        return self.norms[: len(streams), j], self.zeta[: len(streams), j]

    def refill(self, streams: Sequence[RngStream], steps: Sequence[int]) -> None:
        """Draw the next steps[r] steps of every row r."""
        rows, width = len(streams), steps[0]
        if self.zeta.shape[0] < rows or self.zeta.shape[1] < width:
            self.norms = np.empty((rows, width, 2))
            self.zeta = np.empty((rows, width, self.zeta.shape[2]))
        start = 0
        for count, group in itertools.groupby(steps):
            stop = start + len(list(group))
            self.norms[start:stop, :count] = sample_weight_norms(
                streams[start:stop], self.scheme, count, self.draw_weights)
            start = stop
        for row, stream, count in zip(self.zeta, streams, steps):
            stream.generator.standard_normal(out=row[:count])


class WeightedGradient:
    """The data path of the M-SGD noise: per stream, ``scheme.support`` fresh
    data and then a ``weights.sample_weight_values`` row, reduced to
    sum_i w_i grad l(theta, u_i).

    The data are iid and independent of the weights, so the sum depends on
    the weights only through the multiset of their values: minibatch weights
    read m data and draw nothing more (the mean of m fresh data, minibatch
    SGD), Rademacher-base gaussian weights read n data and one binomial
    count, and every other law reads n data and its full weight row.
    Called as ``(theta, streams)``, it returns the (R, p) weighted gradients
    at theta (one (p,) point, or one (R, p) row per stream).  It walks the
    streams in chunks of ``rows`` = ``chunk_rows(support * payload_dim)``,
    which keeps a chunk's block in cache: per chunk it draws every stream's
    data, then every stream's weights, and reduces them with one batched
    ``model.weighted_grad`` call.  Rows never mix, so the chunk size cannot
    change a bit; streams that fit in one chunk are drawn without slicing.
    The data and weight blocks are allocated once and refilled by every
    chunk.
    """

    def __init__(self, model: LossModel, scheme: WeightScheme):
        self.model, self.scheme = model, scheme
        self.rows = chunk_rows(scheme.support * model.payload_dim)
        self.draw_data = ChunkBlock(model.sample_data)
        self.draw_weights = ChunkBlock(sample_weight_values)

    def __call__(self, theta, streams: Sequence[RngStream]) -> np.ndarray:
        if len(streams) > self.rows:
            grads = np.empty((len(streams), self.model.dim))
            for start in range(0, len(streams), self.rows):
                part = streams[start : start + self.rows]
                point = theta[start : start + len(part)] if np.ndim(theta) > 1 else theta
                grads[start : start + len(part)] = self(point, part)
            return grads
        data = self.draw_data(streams, self.scheme.support)
        return self.model.weighted_grad(theta, data, self.draw_weights(streams, self.scheme))


def run_msgd(
    model: LossModel, scheme: WeightScheme, configs: Sequence[RunConfig], streams
) -> Lockstep:
    """Weighted-gradient descent with fresh data and weights every step.

    The scheme gives the shape (n, m).  A model with
    ``sample_weighted_grad`` gets one :class:`StepNoise`, drawn a block of
    ``BLOCK_STEPS`` steps at a time, whose draws each step maps to the live
    replications' weighted gradients; any other model gets one
    :class:`WeightedGradient`, which draws them on the data path.
    """
    if model.sample_weighted_grad is not None:
        noise = StepNoise(scheme, model.dim)

        def advance(x, live_streams, _steps_left, gamma, last):
            return x - gamma * model.sample_weighted_grad(x, *noise(live_streams, last))

        return _run_ensemble("msgd", configs, streams, advance,
                             lambda c: (c.gamma, c.num_steps))
    draw = WeightedGradient(model, scheme)

    def advance(x, live_streams, _steps_left, gamma):
        return x - gamma * draw(x, live_streams)

    return _run_ensemble("msgd", configs, streams, advance, lambda c: (c.gamma,))


def _linear_drift(model: LossModel, runner: str) -> tuple[float, np.ndarray]:
    """(lam, x*) when grad g(x) = lam (x - x*), which lam I <= Hessian <= L I with
    lam = L and a known minimiser x* force; else ValueError naming `runner`."""
    lam, x_star = model.strong_convexity, model.minimizer
    if x_star is None or lam != model.lipschitz_grad:
        raise ValueError(f"{runner} needs grad g(x) = lam (x - x*) with x* known: model "
                         f"{model.name!r} has lam = {lam} and L = {model.lipschitz_grad}")
    return lam, x_star


def run_ode(model: LossModel, configs: Sequence[RunConfig]) -> Lockstep:
    """Gradient flow dX = -grad g(X) dt, one exact step of its flow map per gamma.

    On grad g(x) = lam (x - x*) the flow maps x to x* + e^(-lam t) (x - x*).
    """
    lam, x_star = _linear_drift(model, "run_ode")

    def advance(x, _streams, _steps_left, decay):
        return x_star + decay * (x - x_star)

    return _run_ensemble("ode", configs, None, advance, lambda c: (math.exp(-lam * c.gamma),))


def run_diffusion_em(
    model: LossModel, configs: Sequence[RunConfig], substeps: int, streams, m: int
) -> Lockstep:
    """Euler-Maruyama for dX = -grad g(X) dt + sqrt(gamma/m) sigma dB, R =
    `substeps` inner steps of size h = gamma/R per recorded multiple of gamma.

    On grad g(x) = lam (x - x*) with a constant sigma (the model declares
    L1 = 0), an inner step is x* + a (x - x*) + c sigma z_j with a = 1 - lam h
    and c = sqrt(gamma/m) sqrt(h).  The R of them sum to x* + a^R (x - x*)
    + c sigma sum_j a^(R-1-j) z_j, Gaussian given x with covariance c^2 S_R
    sigma sigma^T, S_R = sum_{j<R} a^(2j) (summed term by term, as a need not
    lie in (0, 1)), so each replication draws it from one (q,) row of normals
    per recorded step, by :class:`StepNormals`: the law of EM at R substeps,
    at a cost that does not grow with R.  Any other model raises ValueError.
    """
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    lam, x_star = _linear_drift(model, "run_diffusion_em")
    if model.lipschitz_noise != 0:
        raise ValueError(f"run_diffusion_em needs a constant noise factor: model "
                         f"{model.name!r} has L1 = {model.lipschitz_noise}")
    factor_t = model.noise_factor(x_star).T
    normals = StepNormals()

    def advance(x, live_streams, steps_left, decay, scale):
        z = normals(live_streams, factor_t.shape[0], steps_left)
        return x_star + decay * (x - x_star) + scale * (z @ factor_t)

    def coefficients(c):
        h = c.gamma / substeps
        a = 1.0 - lam * h
        sum_sq = math.fsum(a ** (2 * j) for j in range(substeps))
        return a**substeps, math.sqrt(c.gamma / m) * math.sqrt(h) * math.sqrt(sum_sq)

    return _run_ensemble("diffusion_em", configs, streams, advance, coefficients)
