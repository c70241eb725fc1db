"""The five processes under comparison.

Discrete iterations on the grid k*gamma, k = 0..K:

* ``run_gd``            x_{k+1} = x_k - gamma * grad g(x_k)
* ``run_gaussian_sgd``  adds (gamma/sqrt(m)) * sigma(x_k) * xi_{k+1}
* ``run_msgd``          x_{k+1} = x_k - gamma * sum_i w_i grad l(x_k, u_i)
                        with fresh data and a fresh weight vector each step

Continuous-time references:

* ``run_ode``           dX = -grad g(X) dt, classical 4th-order one-step method
                        with substeps gamma/R
* ``run_diffusion_em``  dX = -grad g(X) dt + sqrt(gamma/m) sigma(X) dB,
                        Euler-Maruyama with substeps gamma/R

Both continuous-time references record their states at multiples of gamma
only, so every runner's output grid is the config's.  Gaussian SGD runs the
Euler-Maruyama step itself, as one substep of size gamma, and M-SGD draws
its noise from :class:`WeightedGradient`, as the sampling statistics do.

``run_gaussian_sgd``, ``run_msgd`` and ``run_diffusion_em`` are ensemble
runners: they take one ``RngStream`` per replication and advance all R
replications together as an (R, p) array, so their states have shape
(K+1, R, p).  Replication r draws only from its own stream, in the order a
lone run would, and the per-replication arithmetic is unchanged (stacked
``np.matmul`` runs the same kernel on each replication as on a single
path), so replication r of an ensemble is bit-identical to a one-replication
ensemble on the same stream.  ``run_gd`` and ``run_ode`` draw nothing and
run one path per config, of shape (K+1, p).

Every runner also takes a step-size grid: a sequence of configs, with one
sequence of streams per config for the runners that draw.  All rows of all
configs then advance in lockstep, each row with its own step size, and a
config's rows leave the live set after its last step, so the loop runs
max K steps instead of their sum.  The result is a
:class:`Lockstep` whose ``runs`` hold one :class:`Trajectory` per config,
bit-identical to running that config alone.  A single config is a grid of
one, on the same code path, and returns its Trajectory.

A recorded state that is not finite or exceeds ``DIVERGENCE_LIMIT`` drops its
row from further steps: its states from that iteration on are NaN and
``Trajectory.diverged`` records it.  A run raises :class:`DivergenceError`
only when every row of every config has diverged, so a lone path raises
with the offending iteration index instead of propagating NaNs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .models import LossModel
from .numerics import RngStream
from .weights import WeightScheme, sample_weights

DIVERGENCE_LIMIT = 1e150

# Payload elements (replications x n x payload width) drawn and reduced at
# once by M-SGD and the sampling statistics: about 512 KiB of float64, so a
# chunk's data block stays in cache.
CHUNK_ELEMENTS = 2**16


def chunk_rows(row_elements: int) -> int:
    """Replications per chunk when each holds `row_elements` payload elements."""
    return max(1, CHUNK_ELEMENTS // row_elements)


class ChunkBlock:
    """A sampler that draws every chunk into one block, allocated once.

    The first call allocates the block by drawing without ``out``; later
    calls pass the block's leading rows as ``out``, so a loop over chunks of
    shrinking size reuses the memory instead of freeing and reallocating
    (and page-faulting on) a fresh block each time.  The draws are the same
    bytes either way.
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
    """Shared run parameters: step size, iteration count, (n, m) and the start.

    The horizon is T = num_steps * gamma.  All processes given the same
    config start at the same x0.
    """

    gamma: float
    num_steps: int
    m: int
    n: int
    x0: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"step size must satisfy 0 < gamma < 1, got {self.gamma}")
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {self.num_steps}")
        if not 1 <= self.m <= self.n:
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))


@dataclass
class Trajectory:
    """States x_0..x_K on the grid k * config.gamma.

    Single paths (``gd``, ``ode``) have states of shape (K+1, p); ensembles
    have (K+1, R, p).
    """

    kind: str
    states: np.ndarray                      # (K+1, p) or (K+1, R, p)
    config: RunConfig
    diverged: dict[int, int] = field(default_factory=dict)  # replication -> iteration


@dataclass
class Lockstep:
    """A step-size grid advanced together.

    ``states`` is the (max K + 1, rows, p) lockstep block, NaN where a row
    was not live; ``runs[i]`` is config i's Trajectory, whose states are a
    view of its rows up to its own last step.
    """

    states: np.ndarray
    runs: list[Trajectory]


def _keep(mask, x, streams, live, columns):
    """The live rows selected by `mask`."""
    return (
        x[mask],
        [s for s, keep in zip(streams, mask) if keep],
        live[mask],
        [column[mask] for column in columns],
    )


def _rows(live: np.ndarray):
    """Index of the live rows: a basic slice while they are contiguous, which
    numpy assigns faster than an index array."""
    if live.size and live[-1] - live[0] + 1 == live.size:
        return slice(live[0], live[-1] + 1)
    return live


def _stream_list(streams) -> list:
    if isinstance(streams, RngStream):
        raise TypeError("expected a sequence of per-replication RngStreams, got one stream")
    streams = list(streams)
    if not streams:
        raise ValueError("need at least one replication stream")
    return streams


def _run_ensemble(
    kind: str,
    config: Union[RunConfig, Sequence[RunConfig]],
    streams,
    advance: Callable[..., np.ndarray],
    coefficients: Callable[[RunConfig], tuple],
):
    """Advance every config's replications in lockstep, each to its config's
    last step.

    ``streams`` holds one stream per replication for a single config, one
    such sequence per config for a grid, or None for a runner that draws
    nothing and runs one path per config.  ``coefficients(config)`` gives
    the config's per-row numbers.  ``advance(x, streams, *columns)`` maps
    the (live, p) states of the live rows, their streams and their (live, 1)
    coefficient columns, in row order, to the next states.  A row leaves the
    live set when it diverges or after its config's last step; the run
    raises only once every row has diverged, naming the step size of a row
    that diverged last.  Returns the Trajectory of a single config, else a
    Lockstep.
    """
    single = isinstance(config, RunConfig)
    configs = [config] if single else list(config)
    if streams is None:
        groups = [[None]] * len(configs)
    else:
        groups = [_stream_list(streams)] if single else [_stream_list(g) for g in streams]
    if not configs or len(groups) != len(configs):
        raise ValueError(f"need one stream sequence per config, got {len(groups)} "
                         f"for {len(configs)} configs")
    sizes = [len(group) for group in groups]
    x = np.concatenate([np.tile(c.x0, (size, 1)) for c, size in zip(configs, sizes)])
    last = np.repeat([c.num_steps for c in configs], sizes)
    step = np.repeat([c.gamma for c in configs], sizes)
    row_streams = [s for group in groups for s in group]
    columns = [np.repeat(column, sizes)[:, None] for column in zip(*map(coefficients, configs))]
    states = np.full((int(last.max()) + 1, x.shape[0], x.shape[1]), np.nan)
    diverged: dict[int, int] = {}
    live = np.arange(x.shape[0])
    index = slice(None)
    exits = iter(sorted(set(last.tolist())))
    exit_step = next(exits)
    k = 0
    while True:
        if not np.abs(x).max() <= DIVERGENCE_LIMIT:  # False for NaN and inf
            ok = np.all(np.abs(x) <= DIVERGENCE_LIMIT, axis=1)
            for r in live[~ok]:
                diverged[int(r)] = k
            if len(diverged) == len(last):
                raise DivergenceError(kind, k, float(step[live[~ok][0]]))
            x, row_streams, live, columns = _keep(ok, x, row_streams, live, columns)
            index = _rows(live)
        states[k, index] = x
        if k == exit_step:
            x, row_streams, live, columns = _keep(last[live] > k, x, row_streams, live, columns)
            index = _rows(live)
            exit_step = next(exits, None)
        if not live.size:
            break
        x = advance(x, row_streams, *columns)
        k += 1
    runs, start = [], 0
    for c, size in zip(configs, sizes):
        block = states[: c.num_steps + 1, start : start + size]
        runs.append(Trajectory(
            kind=kind,
            states=block[:, 0] if streams is None else block,
            config=c,
            diverged={r - start: k for r, k in diverged.items() if start <= r < start + size},
        ))
        start += size
    return runs[0] if single else Lockstep(states=states, runs=runs)


def run_gd(model: LossModel, config) -> Union[Trajectory, Lockstep]:
    """Deterministic gradient descent, one path per config."""

    def advance(x, _streams, gamma):
        return x - gamma * model.grad_objective(x)

    return _run_ensemble("gd", config, None, advance, lambda c: (c.gamma,))


def _run_noisy(kind: str, model: LossModel, config, substeps: int, streams, coefficients):
    """Euler-Maruyama steps x <- x - h grad g(x) + scale sigma(x) z, `substeps`
    of them per recorded step, with (h, scale) = ``coefficients(config)``.

    Each replication draws one (substeps, q) block of normals per recorded
    step, the same values as one draw per substep.  When the noise factor is
    one shared (p, q) matrix, the whole block is multiplied by it in one
    stacked matmul before the substeps.
    """

    def advance(x, live_streams, h, scale):
        z = np.stack([
            s.generator.standard_normal((substeps, model.noise_dim)) for s in live_streams
        ])
        factor = model.noise_factor(x)
        if factor.ndim == 2:  # shared by every state
            noise = scale[:, :, None] * (factor @ z[..., None])[..., 0]
            for j in range(substeps):
                x = x - h * model.grad_objective(x) + noise[:, j]
            return x
        for j in range(substeps):
            if j:
                factor = model.noise_factor(x)
            x = x - h * model.grad_objective(x) + scale * (factor @ z[:, j, :, None])[:, :, 0]
        return x

    return _run_ensemble(kind, config, streams, advance, coefficients)


def run_gaussian_sgd(model: LossModel, config, streams) -> Union[Trajectory, Lockstep]:
    """Gradient descent plus scaled Gaussian noise (gamma/sqrt(m)) sigma(x) xi: the
    Euler-Maruyama step of :func:`run_diffusion_em` taken as one substep of
    size gamma."""
    return _run_noisy(
        "gaussian_sgd", model, config, 1, streams,
        lambda c: (c.gamma, c.gamma / math.sqrt(c.m)),
    )


class WeightedGradient:
    """The M-SGD noise: per replication, n fresh data and a fresh weight vector.

    Called as ``(theta, streams)``, it draws every stream's data and then
    every stream's weights, makes one batched ``grad_loss`` call at theta
    (one (p,) point, or one (R, p) row per stream) and reduces the (R, n, p)
    per-datum gradients with a stacked ``np.matmul``; it returns them with
    the (R, p) weighted gradients sum_i w_i grad l(theta, u_i).  Callers
    walk their replications in chunks of ``rows`` = ``chunk_rows(n *
    payload_dim)``, which keeps a chunk's block in cache; rows never mix, so
    the chunk size cannot change a bit.  The data and weight blocks are
    allocated once and refilled by every chunk.
    """

    def __init__(self, model: LossModel, scheme: WeightScheme):
        self.model, self.scheme = model, scheme
        self.rows = chunk_rows(scheme.n * model.payload_dim)
        self.draw_data = ChunkBlock(model.sample_data)
        self.draw_weights = ChunkBlock(sample_weights)

    def __call__(self, theta, streams: Sequence[RngStream]) -> tuple[np.ndarray, np.ndarray]:
        data = self.draw_data(streams, self.scheme.n)
        w = self.draw_weights(streams, self.scheme)
        grads = self.model.grad_loss(theta, data)
        return grads, (w[:, None, :] @ grads)[:, 0, :]


def run_msgd(
    model: LossModel, scheme: WeightScheme, config, streams
) -> Union[Trajectory, Lockstep]:
    """Weighted-gradient descent with fresh data and weights every step.

    Each step draws the live replications' weighted gradients with one
    :class:`WeightedGradient`, chunk by chunk.
    """
    for c in [config] if isinstance(config, RunConfig) else config:
        if scheme.n != c.n or scheme.m != c.m:
            raise ValueError(
                f"scheme (n={scheme.n}, m={scheme.m}) disagrees with "
                f"config (n={c.n}, m={c.m})"
            )
    draw = WeightedGradient(model, scheme)

    def advance(x, live_streams, gamma):
        drift = np.empty_like(x)
        for start in range(0, len(live_streams), draw.rows):
            part = live_streams[start : start + draw.rows]
            drift[start : start + len(part)] = draw(x[start : start + len(part)], part)[1]
        return x - gamma * drift

    return _run_ensemble("msgd", config, streams, advance, lambda c: (c.gamma,))


def run_ode(model: LossModel, config, substeps: int) -> Union[Trajectory, Lockstep]:
    """Gradient flow dX = -grad g(X) dt by the classical 4th-order method.

    Integrates with inner step h = gamma/substeps and records states at
    multiples of gamma only, as :func:`run_diffusion_em` does; a path that
    leaves the range is caught at the next recorded step.  Callers
    comparing against a discrete process with step gamma should take
    substeps >= 10 so the integration error is negligible next to the
    effects under study.
    """
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")

    def rhs(x):
        return -model.grad_objective(x)

    def advance(x, _streams, half, full, sixth):
        for _ in range(substeps):
            k1 = rhs(x)
            k2 = rhs(x + half * k1)
            k3 = rhs(x + half * k2)
            k4 = rhs(x + full * k3)
            x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return x

    def coefficients(c):
        h = c.gamma / substeps
        return 0.5 * h, h, h / 6.0

    return _run_ensemble("ode", config, None, advance, coefficients)


def run_diffusion_em(
    model: LossModel, config, substeps: int, streams
) -> Union[Trajectory, Lockstep]:
    """Euler-Maruyama for dX = -grad g(X) dt + sqrt(gamma/m) sigma(X) dB.

    Integrates with inner step h = gamma/substeps and records states at
    multiples of gamma only, so the output grid matches the discrete
    processes.
    """
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")

    def coefficients(c):
        h = c.gamma / substeps
        return h, math.sqrt(c.gamma / c.m) * math.sqrt(h)

    return _run_noisy("diffusion_em", model, config, substeps, streams, coefficients)
