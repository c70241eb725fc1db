"""Random weight vectors with minibatch-matching first and second moments.

All three schemes draw a length-``n`` vector ``W`` with

    E[w_i]        = 1/n,
    Var(w_i)      = (n - m) / (m n^2),
    Cov(w_i, w_j) = -(n - m) / (m n^2 (n - 1)),

which is exactly the moment structure of averaging a uniform size-``m``
minibatch.  The covariance is singular along the all-ones direction, so
``sum(w) = 1`` almost surely for every scheme.  :func:`check_batch` is the
one rule on that shape; a :class:`WeightScheme` carries it and its name.

Schemes
-------
minibatch
    ``w_i = 1/m`` on a uniform random m-subset, 0 elsewhere (the
    hypergeometric setup); the subset is numpy's
    ``Generator.choice(n, m, replace=False, shuffle=False)``.
gaussian
    ``W = c * (X - mean(X) * 1) + 1/n`` with ``c = sqrt((n-m)/(m n (n-1)))``
    and iid mean-0 variance-1 base draws ``X`` (standard normal,
    Rademacher, or sqrt(3)*Unif(-1,1)).  Coordinates can go negative.
dirichlet
    ``W ~ Dir(alpha, ..., alpha)`` with ``alpha = (m-1)/(n-m)``;
    nonnegative coordinates summing to one exactly, from one normalized draw
    of n gamma variates per row (:func:`~msgdlab.numerics.sample_gamma`).

:func:`sample_weight_norms` gives a weight vector's (sum w, |w|^2) alone,
for a step that reads nothing else of it: in closed form for normal-base
gaussian weights, one ``chisquare`` draw in place of n normals, and from
the drawn row for every other law.

Every draw comes from numpy's own samplers (``choice``, ``integers``,
``standard_normal``, ``uniform``, ``gamma``, ``random``, ``chisquare``) on
the row's stream.  numpy's compatibility policy (NEP 19) keeps the bit
generator's stream fixed, not these methods' output, so a numpy release may
change the draws; only their law is promised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .numerics import RngStream, sample_gamma

SCHEME_KINDS = ("minibatch", "gaussian", "dirichlet")
GAUSSIAN_BASES = ("normal", "rademacher", "uniform")


def check_batch(n: int, m: int) -> tuple[int, int]:
    """The minibatch shape (n, m), when m of the n data can make a batch."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return n, m


@dataclass(frozen=True)
class WeightScheme:
    """Parameters identifying one weight law: kind, (n, m), and, for the
    gaussian kind, the iid base distribution."""

    kind: str
    n: int
    m: int
    base: str = "normal"

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}, expected one of {SCHEME_KINDS}")
        check_batch(self.n, self.m)
        if self.kind == "dirichlet":
            dirichlet_alpha(self.n, self.m)
        if self.kind == "gaussian" and self.n < 2:
            raise ValueError("gaussian-structured weights need n >= 2")
        if self.base not in GAUSSIAN_BASES:
            raise ValueError(f"unknown base {self.base!r}, expected one of {GAUSSIAN_BASES}")

    @property
    def label(self) -> str:
        """The scheme's name: its kind, with the base for the gaussian kind."""
        return f"gaussian[{self.base}]" if self.kind == "gaussian" else self.kind


def sigma_entries(n: int, m: int) -> tuple[float, float]:
    """Diagonal and off-diagonal entries of the weight covariance matrix.

    Returns ``((n-m)/(m n^2), -(n-m)/(m n^2 (n-1)))``; the off-diagonal is
    defined as 0 for the degenerate case n = 1.
    """
    check_batch(n, m)
    diag = (n - m) / (m * n**2)
    offdiag = 0.0 if n == 1 else -(n - m) / (m * n**2 * (n - 1))
    return diag, offdiag


def dirichlet_alpha(n: int, m: int) -> float:
    """Per-coordinate Dirichlet concentration (m-1)/(n-m)."""
    if not 2 <= m < n:
        raise ValueError(f"dirichlet weights need 2 <= m < n, got m={m}, n={n}")
    return (m - 1) / (n - m)


def gaussian_scale_squared(n: int, m: int) -> float:
    """c^2 = (n - m) / (m n (n - 1)), the squared scale of gaussian weights
    ``c * (X - mean(X)) + 1/n``."""
    return (n - m) / (m * n * (n - 1))


def sample_minibatch_weights(
    streams: Sequence[RngStream], scheme: WeightScheme, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """1/m on a uniform random m-subset of the n coordinates, 0 elsewhere."""
    if scheme.kind != "minibatch":
        raise ValueError(f"scheme kind must be 'minibatch', got {scheme.kind!r}")
    block = np.zeros((len(streams), scheme.n)) if out is None else out
    if out is not None:
        block.fill(0.0)  # a reused block still holds its last draw
    for row, stream in zip(block, streams):
        subset = stream.generator.choice(scheme.n, scheme.m, replace=False, shuffle=False)
        row[subset] = 1.0 / scheme.m
    return block


def sample_gaussian_structured_weights(
    streams: Sequence[RngStream], scheme: WeightScheme, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Centered-and-scaled iid base draws shifted to mean 1/n.

    Computes ``c * (X - mean(X)) + 1/n`` in O(n) without forming the
    rank-(n-1) projection matrix.  The centering removes the all-ones
    component, so the coordinates sum to 1 up to accumulation roundoff.
    """
    if scheme.kind != "gaussian":
        raise ValueError(f"scheme kind must be 'gaussian', got {scheme.kind!r}")
    n, m = scheme.n, scheme.m
    x = np.empty((len(streams), n)) if out is None else out
    for row, stream in zip(x, streams):
        gen = stream.generator
        if scheme.base == "normal":
            gen.standard_normal(out=row)
        elif scheme.base == "rademacher":
            row[:] = gen.integers(0, 2, size=n)
        else:
            row[:] = gen.uniform(-1.0, 1.0, size=n)
    if scheme.base == "rademacher":
        x *= 2.0
        x -= 1.0
    elif scheme.base == "uniform":  # scaled to unit variance
        x *= math.sqrt(3.0)
    mean = np.add.reduce(x, axis=1, keepdims=True)
    mean /= n  # what x.mean(axis=1) computes, without its Python-level wrapper
    x -= mean
    x *= math.sqrt(gaussian_scale_squared(n, m))
    x += 1.0 / n
    return x


def sample_dirichlet_weights(
    streams: Sequence[RngStream], scheme: WeightScheme, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Symmetric Dirichlet draws via normalized Gamma((m-1)/(n-m)) variates,
    one set of n per row; a row whose every variate underflows to zero raises."""
    if scheme.kind != "dirichlet":
        raise ValueError(f"scheme kind must be 'dirichlet', got {scheme.kind!r}")
    alpha = dirichlet_alpha(scheme.n, scheme.m)
    block = np.empty((len(streams), scheme.n)) if out is None else out
    for row, stream in zip(block, streams):
        row[:] = sample_gamma(stream, alpha, size=scheme.n)
    totals = block.sum(axis=1, keepdims=True)
    # boost identity: P(variate = 0) <= e^(-743.8 alpha), and n alpha > 1, so P(row = 0) <= e^(-743)
    if not np.all(totals > 0.0):
        raise ArithmeticError(
            f"all gamma draws of a row underflowed to zero (n={scheme.n}, alpha={alpha})"
        )
    block /= totals
    return block


_SAMPLERS = {
    "minibatch": sample_minibatch_weights,
    "gaussian": sample_gaussian_structured_weights,
    "dirichlet": sample_dirichlet_weights,
}


def sample_weights(
    streams: Sequence[RngStream], scheme: WeightScheme, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Draw one weight vector per stream from whichever scheme is configured.

    Returns an (R, n) block whose row r consumes only ``streams[r]``, in the
    order a lone draw would, so row r equals a one-stream draw on that stream.
    Given ``out``, an (R, n) float block, every sampler draws into it (its
    old contents are never read) and returns it.
    """
    return _SAMPLERS[scheme.kind](streams, scheme, out=out)


def sample_weight_norms(
    streams: Sequence[RngStream], scheme: WeightScheme,
    draw: Callable[..., np.ndarray] = sample_weights,
) -> np.ndarray:
    """The (R, 2) block of (sum w, |w|^2), one row per stream, of one weight
    vector per stream.

    For normal-base gaussian weights, sum(X - mean(X)) = 0 and |X - mean(X)|^2
    ~ chi^2_(n-1), so sum w = 1 and |w|^2 = c^2 chi^2_(n-1) + 1/n exactly in
    law: one ``chisquare`` draw per stream, no weights.  Every other law has
    no such closed form here, so ``draw(streams, scheme)`` (``sample_weights``,
    or a :class:`~msgdlab.dynamics.ChunkBlock` of it) draws the full rows and
    they are reduced as drawn.  Row r consumes only ``streams[r]``.
    """
    if scheme.kind == "gaussian" and scheme.base == "normal":
        n = scheme.n
        norms = np.empty((len(streams), 2))
        norms[:, 0] = 1.0
        norms[:, 1] = [stream.generator.chisquare(n - 1) for stream in streams]
        norms[:, 1] *= gaussian_scale_squared(n, scheme.m)
        norms[:, 1] += 1.0 / n
        return norms
    w = draw(streams, scheme)
    return np.stack([w.sum(axis=-1), (w[:, None, :] @ w[:, :, None])[:, 0, 0]], axis=1)


def empirical_weight_moments(scheme: WeightScheme, stream: RngStream, reps: int) -> np.ndarray:
    """The (4, reps) columns w_1, w_2 (w_1 again at n = 1), m * sum(w^2) and
    sum(w) of `reps` independent draws: the coordinates are exchangeable, so
    the first and the first pair stand for every one in the moment targets,
    and sum(w), 1 up to roundoff, is taken as drawn.

    Draw r consumes ``stream.child("rep", r)``, in blocks of
    ``dynamics.chunk_rows(n)`` replications drawn into one reused block; each
    row is reduced on its own, so the columns do not depend on the block size.
    """
    from .dynamics import ChunkBlock, chunk_rows  # dynamics imports this module

    if reps < 100:
        raise ValueError(f"reps must be >= 100, got {reps}")
    n, m = scheme.n, scheme.m
    columns = np.empty((4, reps))
    draw = ChunkBlock(sample_weights)
    for start, streams in stream.child_chunks("rep", stop=reps, size=chunk_rows(n)):
        w = draw(streams, scheme)
        rows = slice(start, start + len(streams))
        columns[:2, rows] = w[:, [0, min(1, n - 1)]].T
        columns[3, rows] = w.sum(axis=1)  # before the square below overwrites w
        columns[2, rows] = m * np.square(w, out=w).sum(axis=1)  # the next draw overwrites w
    return columns
