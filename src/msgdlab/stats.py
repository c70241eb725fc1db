"""Statistical verdicts: error distributions, transport distances, rates.

This module turns simulations into numbers that can be checked:

* ``clt_error_samples`` draws the scaled weighted gradient error
  sqrt(m) * sum_i w_i (grad l(theta, u_i) - grad g(theta)) whose limit is
  N(0, sigma^2(theta)), from the draw M-SGD steps with
  (``dynamics.WeightedGradient``);
* ``ks_normality`` measures sup-distance to a centered normal CDF, with
  scipy's ``ndtr``; it imports ``scipy.special`` on its first call, because
  that import is about half of a cold start and no other verdict needs it;
* ``sliced_w2`` estimates the squared Wasserstein-2 distance by the exact
  sorted coupling along random 1-D projections, and ``coordinate_avg_w2``
  along each coordinate;
* ``weighting_gap`` checks the exact identity
  E|scaled weighted error - scaled plain-average error|^2
  = 2 (1 - sqrt(m/n)) Tr sigma^2(theta), which holds at finite n for every
  weight law with the minibatch moment structure;
* ``contraction_bound`` (the predicted factor rho), ``contraction_fit`` and
  ``convergence_curve`` (squared distances to the model's known minimizer
  or to a given point, and g-gaps when the minimizer is known) quantify
  geometric convergence under strong convexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .dynamics import DivergenceError, RunConfig, Trajectory, WeightedGradient
from .models import LossModel
from .numerics import RngStream
from .weights import WeightScheme


def clt_error_samples(
    model: LossModel, scheme: WeightScheme, theta, reps: int, stream: RngStream
) -> np.ndarray:
    """The (reps, p) rows sqrt(m) * (sum_i w_i grad l(theta, u_i) - grad g(theta)).

    Row r is the :class:`~msgdlab.dynamics.WeightedGradient` draw M-SGD
    takes, on the derived stream ``stream.child("rep", r)``.
    """
    if reps < 100:
        raise ValueError(f"reps must be >= 100, got {reps}")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    grad_mean = model.grad_objective(theta)
    sqrt_m = math.sqrt(scheme.m)
    samples = np.empty((reps, theta.size))
    draw = WeightedGradient(model, scheme)
    for start, streams in stream.child_chunks("rep", stop=reps, size=draw.rows):
        samples[start : start + len(streams)] = sqrt_m * (draw(theta, streams)[1] - grad_mean)
    return samples


def ks_normality(samples, variance: float) -> float:
    """Kolmogorov-Smirnov sup-distance of `samples` from N(0, variance)."""
    from scipy.special import ndtr  # imported here: see the module docstring
    if not variance > 0:
        raise ValueError(f"variance must be positive, got {variance}")
    samples = np.sort(np.asarray(samples, dtype=float))
    count = samples.size
    if count < 100:
        raise ValueError(f"need at least 100 samples, got {count}")
    cdf = ndtr(samples / math.sqrt(variance))
    upper = np.arange(1, count + 1) / count - cdf
    lower = cdf - np.arange(0, count) / count
    return float(max(upper.max(), lower.max()))


def _sample_pair(samples_a, samples_b) -> tuple[np.ndarray, np.ndarray]:
    """Two (count, p) sample sets of the same count and p >= 1; 1-D input is
    one coordinate."""
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if a.shape[1] < 1:
        raise ValueError("samples must have at least one coordinate")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"sample sizes differ: {a.shape[0]} vs {b.shape[0]}")
    return a, b


def sliced_w2(samples_a, samples_b, n_directions: int, stream: RngStream) -> float:
    """Squared W2 averaged over random 1-D projections.

    Projects both sample sets onto `n_directions` uniform unit vectors and
    averages the exact 1-D squared distances.  Deterministic given the
    stream; calling with the arguments swapped but the same stream state
    gives exactly the same value.
    """
    a, b = _sample_pair(samples_a, samples_b)
    if n_directions < 1:
        raise ValueError(f"n_directions must be >= 1, got {n_directions}")
    directions = stream.generator.standard_normal((n_directions, a.shape[1]))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    proj_a = np.sort(a @ directions.T, axis=0)
    proj_b = np.sort(b @ directions.T, axis=0)
    return float(np.mean((proj_a - proj_b) ** 2))


def coordinate_avg_w2(samples_a, samples_b) -> float:
    """Squared W2 of each coordinate marginal, averaged over coordinates.

    A cheap axis-aligned companion to :func:`sliced_w2`, reported alongside
    it; it sees only marginal mismatches, not cross-coordinate structure.
    """
    a, b = _sample_pair(samples_a, samples_b)
    return float(np.mean((np.sort(a, axis=0) - np.sort(b, axis=0)) ** 2))


@dataclass
class GapEstimate:
    """Monte Carlo estimate of the weighted-vs-plain-average error gap."""

    estimate: float
    se: float
    analytic: float


def weighting_gap(
    model: LossModel, scheme: WeightScheme, theta, reps: int, stream: RngStream
) -> GapEstimate:
    """Estimate E|sqrt(m)(sum w_i grad l - grad g) - sqrt(n)(avg grad l - grad g)|^2.

    The expectation equals 2 (1 - sqrt(m/n)) Tr sigma^2(theta) exactly, for
    any weight law with the minibatch mean/covariance structure and any n;
    the analytic value is returned alongside the estimate.  Replication r
    takes the :class:`~msgdlab.dynamics.WeightedGradient` draw on
    ``stream.child("rep", r)``; the plain average and squared norm are
    taken per replication, where a batched reduction would round
    differently.
    """
    if reps < 1000:
        raise ValueError(f"reps must be >= 1000, got {reps}")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    n, m = scheme.n, scheme.m
    grad_mean = model.grad_objective(theta)
    sqrt_m, sqrt_n = math.sqrt(m), math.sqrt(n)
    values = np.empty(reps)
    draw = WeightedGradient(model, scheme)
    for start, streams in stream.child_chunks("rep", stop=reps, size=draw.rows):
        grads, weighted = draw(theta, streams)
        weighted = sqrt_m * (weighted - grad_mean)
        for r, (row_grads, row_weighted) in enumerate(zip(grads, weighted), start):
            diff = row_weighted - sqrt_n * (row_grads.mean(axis=0) - grad_mean)
            values[r] = diff @ diff
        del grads, row_grads  # free the gradient block before the next chunk
    analytic = 2.0 * (1.0 - math.sqrt(m / n)) * model.noise_trace(theta)
    return GapEstimate(
        estimate=float(values.mean()),
        se=float(values.std(ddof=1) / math.sqrt(reps)),
        analytic=analytic,
    )


def contraction_bound(lam: float, gamma: float, L: float, L1: float, p: int, m: int) -> float:
    """rho = 1 - lam*gamma*(2 - L*gamma) + 2 p L L1^2 gamma^2 / (m lam).

    In the regime 0 < gamma < min(1/L, 1) and
    m > 2 p L L1 gamma / (lam^2 (2 - L*gamma)), rho < 1 is verified
    defensively (it can fail for L1 > 1, where the m condition as stated is
    weaker than what rho < 1 requires).
    """
    if min(lam, gamma, L) <= 0 or L1 < 0 or p < 1 or m < 1:
        raise ValueError("lam, gamma, L must be positive; L1 >= 0; p, m >= 1")
    rho = 1.0 - lam * gamma * (2.0 - L * gamma) + 2.0 * p * L * L1**2 * gamma**2 / (m * lam)
    in_regime = (
        0.0 < gamma < min(1.0 / L, 1.0)
        and m > 2.0 * p * L * L1 * gamma / (lam**2 * (2.0 - L * gamma))
    )
    if in_regime and not rho < 1.0:
        raise ArithmeticError(
            f"regime conditions hold but rho = {rho} >= 1; the minibatch condition "
            "is insufficient for this L1"
        )
    return rho


def plateau_bound(lam: float, gamma: float, L: float, m: int, noise_floor: float) -> float:
    """Asymptotic level bound L*gamma*||sigma(x*)||_F^2 / (m * lam * (2 - L*gamma))."""
    return L * gamma * noise_floor / (m * lam * (2.0 - L * gamma))


@dataclass
class ConvergenceCurve:
    """Per-iteration Monte Carlo optimality gaps with standard errors.  The
    g-gap rows are None for a model without a known minimizer."""

    g_gap_mean: Optional[np.ndarray]
    g_gap_se: Optional[np.ndarray]
    sq_dist_mean: np.ndarray
    sq_dist_se: np.ndarray
    reps: int
    diverged: list[int]
    sq_dist_reps: np.ndarray = field(repr=False)   # (reps_ok, K+1)


def convergence_curve(
    model: LossModel,
    runner: Callable[[LossModel, RunConfig, list[RngStream]], Trajectory],
    config: RunConfig,
    reps: int,
    stream: RngStream,
    reference: Optional[np.ndarray] = None,
) -> ConvergenceCurve:
    """Replicate a process and average |x_k - x*|^2 and, when the model's
    minimizer is known, g(x_k) - g(minimizer) over reps.

    The point x* defaults to the model's known minimizer.  The runner
    advances all replications as one ensemble; replication r consumes the
    derived stream ``stream.child("rep", r)``.  Diverged replications are
    recorded by index and excluded from the averages; they are never
    silently dropped.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if reference is None:
        if model.minimizer is None:
            raise ValueError(f"model {model.name!r} has no known minimizer; pass a reference")
        reference = model.minimizer
    x_star = np.asarray(reference, dtype=float)
    try:
        traj = runner(model, config, stream.children("rep", stop=reps))
    except DivergenceError as exc:
        raise DivergenceError(
            f"{exc.process}: all {reps} replications", exc.iteration, exc.step_size
        ) from exc
    diverged = sorted(traj.diverged)
    kept = [r for r in range(reps) if r not in traj.diverged]
    states = traj.states[:, kept]  # (K+1, reps_ok, p)
    diffs = states - x_star
    # per-replication rows, C-ordered so the reductions over axis 0 below
    # accumulate in the same order as a stack of separate rows
    d_mat = np.ascontiguousarray(np.sum(diffs * diffs, axis=2).T)
    count = d_mat.shape[0]

    def mean_and_se(rows):
        se = rows.std(axis=0, ddof=1) / math.sqrt(count) if count > 1 else np.zeros(rows.shape[1])
        return rows.mean(axis=0), se

    g_gap_mean = g_gap_se = None
    if model.minimizer is not None:
        g_star = float(model.objective(model.minimizer))
        g_rows = np.ascontiguousarray((model.objective(states) - g_star).T)
        g_gap_mean, g_gap_se = mean_and_se(g_rows)
    sq_dist_mean, sq_dist_se = mean_and_se(d_mat)
    return ConvergenceCurve(
        g_gap_mean=g_gap_mean,
        g_gap_se=g_gap_se,
        sq_dist_mean=sq_dist_mean,
        sq_dist_se=sq_dist_se,
        reps=count,
        diverged=diverged,
        sq_dist_reps=d_mat,
    )


def fit_segment(length: int, burn_in: int = 0, window: Optional[int] = None) -> slice:
    """The iterations ``burn_in : burn_in + window``, at least 2, that a fit uses out of
    a curve of `length` points.  The default window is the first third of the
    curve, where the geometric phase dominates before any noise plateau."""
    if window is None:
        window = max(length // 3, 2)
    if burn_in < 0 or window < 2 or burn_in + 2 > length:
        raise ValueError(
            f"fit window must contain at least 2 points, got burn-in {burn_in} and "
            f"window {window} over {length} iterates"
        )
    return slice(burn_in, burn_in + window)


def contraction_fit(segment) -> float:
    """Geometric decay factor fitted to a positive curve segment.

    Least-squares slope of log(segment) against the iteration index,
    exponentiated.  The segment is what the fit uses, such as
    ``curve[fit_segment(...)]``.
    """
    segment = np.asarray(segment, dtype=float)
    if segment.size < 2:
        raise ValueError(f"need at least 2 points to fit a rate, got {segment.size}")
    if not np.all(segment > 0):
        raise ValueError("curve must be positive over the fit window")
    k = np.arange(segment.size, dtype=float)
    slope = np.polyfit(k, np.log(segment), 1)[0]
    return float(np.exp(slope))


def contraction_fit_jackknife(per_rep_segments: np.ndarray) -> tuple[float, float]:
    """(rho_hat, jackknife SE) of the fit on the mean of per-replication
    segments, (reps, window)."""
    per_rep_segments = np.asarray(per_rep_segments, dtype=float)
    reps = per_rep_segments.shape[0]
    rho = contraction_fit(per_rep_segments.mean(axis=0))
    if reps < 2:
        return rho, 0.0
    total = per_rep_segments.sum(axis=0)
    leave_one_out = np.empty(reps)
    for r in range(reps):
        leave_one_out[r] = contraction_fit((total - per_rep_segments[r]) / (reps - 1))
    se = math.sqrt((reps - 1) / reps * np.sum((leave_one_out - leave_one_out.mean()) ** 2))
    return rho, se


def covariance_with_se(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample covariance of row vectors and entrywise large-sample SEs."""
    samples = np.asarray(samples, dtype=float)
    reps = samples.shape[0]
    centered = samples - samples.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / reps
    second = (centered**2).T @ (centered**2) / reps
    se = np.sqrt(np.maximum(second - cov**2, 0.0) / reps)
    return cov, se
