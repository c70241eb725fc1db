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
    hypergeometric setup).
gaussian
    ``W = c * (X - mean(X) * 1) + 1/n`` with ``c = sqrt((n-m)/(m n (n-1)))``
    and iid mean-0 variance-1 base draws ``X`` (standard normal,
    Rademacher, or sqrt(3)*Unif(-1,1)).  Coordinates can go negative.
dirichlet
    ``W ~ Dir(alpha, ..., alpha)`` with ``alpha = (m-1)/(n-m)``;
    nonnegative coordinates summing to one exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

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


def _sample_subset(gen: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Uniform random m-subset of range(n) by partial Fisher-Yates, in the
    order the swap loop visits it.

    Step i draws j_i uniform on [i, n), outputs the value at position j_i
    and moves the value at position i there.  Position i is never read
    after step i, so the value at i before step i (the chain value c_i) is
    the value the last earlier step targeting i moved there, that step's own
    chain value, or i itself; pointer doubling resolves these chains.  Step
    i then outputs the chain value of the last earlier step with the same
    target, else j_i.  Memory is O(m) even for n up to 10^6, and the output
    equals the swap loop's exactly.
    """
    steps = np.arange(m)
    draws = gen.integers(low=steps, high=n)  # j_i uniform on [i, n)
    target, step = np.divmod(np.sort(draws * m + steps), m)  # by target, then step
    first = np.empty(m + 1, dtype=bool)  # entry opens a target group; sentinel at m
    first[0] = first[m] = True
    np.not_equal(target[1:], target[:-1], out=first[1:m])
    # the last step before s targeting position s is the entry just before the
    # end of group s or before step s itself, which sorts last in its group
    closes = first[1:].copy()
    closes[:-1] |= step[1:] == target[1:]
    writes = closes & (step < target) & (target < m)
    chain = steps.copy()
    chain[target[writes]] = step[writes]
    while True:
        nxt = chain[chain]
        if np.array_equal(nxt, chain):
            break
        chain = nxt
    out = np.empty(m, dtype=np.int64)
    previous = np.empty(m, dtype=np.int64)
    previous[1:] = chain[step[:-1]]
    out[step] = np.where(first[:m], target, previous)
    return out


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
        row[_sample_subset(stream.generator, scheme.n, scheme.m)] = 1.0 / scheme.m
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
    x *= math.sqrt((n - m) / (m * n * (n - 1)))
    x += 1.0 / n
    return x


def sample_dirichlet_weights(
    streams: Sequence[RngStream], scheme: WeightScheme, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Symmetric Dirichlet draws via normalized Gamma((m-1)/(n-m)) variates.

    If every gamma variate of a row underflows to zero (possible in
    principle at tiny concentrations), that row is redrawn on fresh derived
    substreams, capped at 10 attempts.  Each retry substream is keyed by a
    value drawn from the row's stream at the time of the retry, so retries
    at different steps of a reused stream get different addresses, and a
    draw that needs no retry consumes nothing extra.
    """
    if scheme.kind != "dirichlet":
        raise ValueError(f"scheme kind must be 'dirichlet', got {scheme.kind!r}")
    alpha = dirichlet_alpha(scheme.n, scheme.m)
    block = np.empty((len(streams), scheme.n)) if out is None else out
    totals = np.empty((len(streams), 1))
    for r, stream in enumerate(streams):
        raw = sample_gamma(stream, alpha, size=scheme.n)
        total = raw.sum()
        attempt = 0
        while not total > 0.0:
            attempt += 1
            if attempt > 10:
                raise ArithmeticError(
                    f"all gamma draws underflowed to zero in {attempt - 1} retries "
                    f"(n={scheme.n}, alpha={alpha})"
                )
            retry = stream.child("dirichlet_retry", int(stream.generator.integers(2**63)))
            raw = sample_gamma(retry, alpha, size=scheme.n)
            total = raw.sum()
        block[r] = raw
        totals[r] = total
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


def empirical_weight_moments(scheme: WeightScheme, stream: RngStream, reps: int) -> np.ndarray:
    """The (3, reps) columns w_1, w_2 (w_1 again at n = 1) and m * sum(w^2) of
    `reps` independent draws: the coordinates are exchangeable, so the first
    and the first pair stand for every one in the moment targets.

    Draw r consumes ``stream.child("rep", r)``, in blocks of
    ``dynamics.chunk_rows(n)`` replications drawn into one reused block; each
    row is reduced on its own, so the columns do not depend on the block size.
    """
    from .dynamics import ChunkBlock, chunk_rows  # dynamics imports this module

    if reps < 100:
        raise ValueError(f"reps must be >= 100, got {reps}")
    n, m = scheme.n, scheme.m
    columns = np.empty((3, reps))
    draw = ChunkBlock(sample_weights)
    for start, streams in stream.child_chunks("rep", stop=reps, size=chunk_rows(n)):
        w = draw(streams, scheme)
        rows = slice(start, start + len(streams))
        columns[:2, rows] = w[:, [0, min(1, n - 1)]].T
        columns[2, rows] = m * np.square(w, out=w).sum(axis=1)  # the next draw overwrites w
    return columns
