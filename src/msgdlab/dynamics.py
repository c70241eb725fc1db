"""The five processes under comparison.

Discrete iterations on the grid k*gamma, k = 0..K:

* ``run_gd``            x_{k+1} = x_k - gamma * grad g(x_k)
* ``run_gaussian_sgd``  adds (gamma/sqrt(m)) * sigma(x_k) * xi_{k+1}
* ``run_msgd``          x_{k+1} = x_k - gamma * sum_i w_i grad l(x_k, u_i)
                        with fresh data and a fresh weight vector each step

Continuous-time references:

* ``run_ode``           dX = -grad g(X) dt, classical 4th-order one-step method
* ``run_diffusion_em``  dX = -grad g(X) dt + sqrt(gamma/m) sigma(X) dB,
                        Euler-Maruyama with substeps gamma/R

``run_gaussian_sgd``, ``run_msgd`` and ``run_diffusion_em`` are ensemble
runners: they take one ``RngStream`` per replication and advance all R
replications together as an (R, p) array, so their states have shape
(K+1, R, p).  Replication r draws only from its own stream, in the order a
lone run would, and the per-replication arithmetic is unchanged (stacked
``np.matmul`` runs the same kernel on each replication as on a single
path), so replication r of an ensemble is bit-identical to a one-replication
ensemble on the same stream.

A non-finite or absurdly large state aborts a single path (``run_gd``,
``run_ode``) with the offending iteration index instead of propagating NaNs.
In an ensemble the replication is dropped from further steps, its states
from that iteration on are NaN, and ``Trajectory.diverged`` records it; the
run raises only when every replication has diverged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

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


class DivergenceError(ArithmeticError):
    """A trajectory left the representable range."""

    def __init__(self, process: str, iteration: int):
        self.process = process
        self.iteration = iteration
        super().__init__(f"{process} diverged at iteration {iteration}")


@dataclass(frozen=True)
class RunConfig:
    """Shared run parameters: step size, iteration count, and (n, m).

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

    @property
    def horizon(self) -> float:
        return self.num_steps * self.gamma


@dataclass
class Trajectory:
    """States x_0..x_K on the grid.

    Single paths (``gd``, ``ode``) have states of shape (K+1, p); ensembles
    have (K+1, R, p).  An ``ode`` path has no ``config``: its grid is its
    ``step_size``.
    """

    kind: str
    states: np.ndarray                      # (K+1, p) or (K+1, R, p)
    config: Optional[RunConfig]
    model: LossModel
    step_size: Optional[float] = None           # grid spacing when it differs from config.gamma
    diverged: dict[int, int] = field(default_factory=dict)  # replication -> iteration

    @property
    def grid(self) -> float:
        return self.step_size if self.step_size is not None else self.config.gamma

    def state_at_time(self, t: float) -> np.ndarray:
        """State at a grid time; raises if t does not sit on the grid."""
        ratio = t / self.grid
        k = int(round(ratio))
        if not 0 <= k < self.states.shape[0] or abs(ratio - k) > 1e-9:
            raise ValueError(f"t={t} is not on the grid of spacing {self.grid}")
        return self.states[k]


def _checked(x: np.ndarray, kind: str, iteration: int) -> np.ndarray:
    if not np.abs(x).max() <= DIVERGENCE_LIMIT:  # False for NaN and inf
        raise DivergenceError(kind, iteration)
    return x


def run_gd(model: LossModel, config: RunConfig) -> Trajectory:
    """Deterministic gradient descent."""
    states = np.empty((config.num_steps + 1, model.dim))
    states[0] = _checked(config.x0, "gd", 0)
    x = config.x0
    for k in range(config.num_steps):
        x = x - config.gamma * model.grad_objective(x)
        states[k + 1] = _checked(x, "gd", k + 1)
    return Trajectory(kind="gd", states=states, config=config, model=model)


def _drop_diverged(x, streams, live, kind, iteration, diverged):
    """Remove the replications whose state left the range, recording each in
    ``diverged``; raise once none is left."""
    if np.abs(x).max() <= DIVERGENCE_LIMIT:  # False for NaN and inf
        return x, streams, live
    ok = np.all(np.abs(x) <= DIVERGENCE_LIMIT, axis=1)
    for r in live[~ok]:
        diverged[int(r)] = iteration
    if not ok.any():
        raise DivergenceError(kind, iteration)
    return x[ok], [s for s, keep in zip(streams, ok) if keep], live[ok]


def _run_ensemble(
    kind: str,
    config: RunConfig,
    streams: Sequence[RngStream],
    advance: Callable[[np.ndarray, list], np.ndarray],
):
    """Advance every replication K steps; returns (states, diverged).

    ``advance(x, streams)`` maps the (live, p) states of the live
    replications and their streams, in replication order, to the next states.
    """
    if isinstance(streams, RngStream):
        raise TypeError("expected a sequence of per-replication RngStreams, got one stream")
    streams = list(streams)
    if not streams:
        raise ValueError("need at least one replication stream")
    reps, p, steps = len(streams), config.x0.size, config.num_steps
    states = np.full((steps + 1, reps, p), np.nan)
    diverged: dict[int, int] = {}
    live = np.arange(reps)
    x, streams, live = _drop_diverged(
        np.tile(config.x0, (reps, 1)), streams, live, kind, 0, diverged
    )
    # while every replication is live, write the rows through a basic slice,
    # which numpy assigns faster than an index array
    rows = slice(None) if len(live) == reps else live
    states[0, rows] = x
    for k in range(steps):
        x = advance(x, streams)
        x, streams, live = _drop_diverged(x, streams, live, kind, k + 1, diverged)
        rows = slice(None) if len(live) == reps else live
        states[k + 1, rows] = x
    return states, diverged


def run_gaussian_sgd(
    model: LossModel, config: RunConfig, streams: Sequence[RngStream]
) -> Trajectory:
    """Gradient descent plus scaled Gaussian noise (gamma/sqrt(m)) sigma(x) xi."""
    scale = config.gamma / math.sqrt(config.m)

    def advance(x, live_streams):
        xi = np.stack([s.generator.standard_normal(model.noise_dim) for s in live_streams])
        noise = scale * (model.noise_factor(x) @ xi[:, :, None])[:, :, 0]
        return x - config.gamma * model.grad_objective(x) + noise

    states, diverged = _run_ensemble("gaussian_sgd", config, streams, advance)
    return Trajectory(
        kind="gaussian_sgd",
        states=states,
        config=config,
        model=model,
        diverged=diverged,
    )


def run_msgd(
    model: LossModel, scheme: WeightScheme, config: RunConfig, streams: Sequence[RngStream]
) -> Trajectory:
    """Weighted-gradient descent with fresh data and weights every step.

    Each step walks the live replications in chunks of
    ``CHUNK_ELEMENTS // (n * payload_dim)`` (at least one): a chunk draws
    its data block and then its weight block, each row from its own stream,
    so every stream still draws data before weights; one batched
    ``grad_loss`` call and a stacked ``np.matmul`` then reduce each
    replication's n per-datum gradients to its drift.  Rows never mix, so
    the chunk size cannot change a bit of the result; it only keeps the
    (chunk, n, payload) block in cache, which measured faster than both one
    replication and all of them at a time.
    """
    if scheme.n != config.n or scheme.m != config.m:
        raise ValueError(
            f"scheme (n={scheme.n}, m={scheme.m}) disagrees with "
            f"config (n={config.n}, m={config.m})"
        )

    chunk = chunk_rows(config.n * model.payload_dim)

    def advance(x, live_streams):
        drift = np.empty_like(x)
        for start in range(0, len(live_streams), chunk):
            part = live_streams[start : start + chunk]
            data = model.sample_data(part, config.n)
            w = sample_weights(part, scheme)
            grads = model.grad_loss(x[start : start + len(part)], data)
            drift[start : start + len(part)] = (w[:, None, :] @ grads)[:, 0, :]
        return x - config.gamma * drift

    states, diverged = _run_ensemble("msgd", config, streams, advance)
    return Trajectory(
        kind="msgd",
        states=states,
        config=config,
        model=model,
        diverged=diverged,
    )


def run_ode(model: LossModel, x0, h: float, horizon: float) -> Trajectory:
    """Gradient flow dX = -grad g(X) dt by the classical 4th-order method.

    The grid spacing h must divide the horizon.  Callers comparing against
    a discrete process with step gamma should choose h <= gamma / 10 so the
    integration error is negligible next to the effects under study.
    """
    if not h > 0:
        raise ValueError(f"inner step h must be positive, got {h}")
    steps_float = horizon / h
    steps = int(round(steps_float))
    if steps < 1 or abs(steps_float - steps) > 1e-9 * max(steps, 1):
        raise ValueError(f"h={h} does not divide the horizon {horizon}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))

    def rhs(x):
        return -model.grad_objective(x)

    states = np.empty((steps + 1, model.dim))
    states[0] = _checked(x0, "ode", 0)
    x = x0
    for k in range(steps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[k + 1] = _checked(x, "ode", k + 1)
    return Trajectory(kind="ode", states=states, config=None, model=model, step_size=h)


def run_diffusion_em(
    model: LossModel, config: RunConfig, substeps: int, streams: Sequence[RngStream]
) -> Trajectory:
    """Euler-Maruyama for dX = -grad g(X) dt + sqrt(gamma/m) sigma(X) dB.

    Integrates with inner step h = gamma/substeps and records states at
    multiples of gamma only, so the output grid matches the discrete
    processes.  Each replication draws one (substeps, q) block of normals
    per recorded step, the same values as one draw per substep.
    """
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    h = config.gamma / substeps
    sqrt_h = math.sqrt(h)
    diffusion_scale = math.sqrt(config.gamma / config.m)

    def advance(x, live_streams):
        z = np.stack([
            s.generator.standard_normal((substeps, model.noise_dim)) for s in live_streams
        ])
        for j in range(substeps):
            x = (
                x
                - h * model.grad_objective(x)
                + diffusion_scale * sqrt_h * (model.noise_factor(x) @ z[:, j, :, None])[:, :, 0]
            )
        return x

    states, diverged = _run_ensemble("diffusion_em", config, streams, advance)
    return Trajectory(
        kind="diffusion_em", states=states, config=config, model=model, diverged=diverged
    )

