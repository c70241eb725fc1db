"""Statistical verdicts: error distributions, transport distances, rates.

This module turns simulations into numbers that can be checked:

* ``clt_error_samples`` draws the scaled weighted gradient error
  sqrt(m) * sum_i w_i (grad l(theta, u_i) - grad g(theta)) whose limit is
  N(0, sigma^2(theta));
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
* ``contraction_bound`` / ``contraction_fit`` / ``convergence_curve``
  quantify geometric convergence under strong convexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .dynamics import DivergenceError, RunConfig, Trajectory, chunk_rows
from .models import LossModel
from .numerics import RngStream
from .weights import WeightScheme, sample_weights


@dataclass
class ErrorSampleSet:
    """Rows of sqrt(m) * sum_i w_i (grad l(theta, u_i) - grad g(theta))."""

    samples: np.ndarray  # (reps, p)


def clt_error_samples(
    model: LossModel, scheme: WeightScheme, theta, reps: int, stream: RngStream
) -> ErrorSampleSet:
    """Draw `reps` independent weighted-error samples, fresh data and weights each.

    Row r consumes the derived stream ``stream.child("rep", r)``, data before
    weights.  The rows are drawn and reduced in chunks of
    ``dynamics.chunk_rows(n * payload_dim)`` replications, as in M-SGD; rows
    never mix, so the chunk size cannot change a bit of the result.
    """
    if reps < 100:
        raise ValueError(f"reps must be >= 100, got {reps}")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    grad_mean = model.grad_objective(theta)
    sqrt_m = math.sqrt(scheme.m)
    samples = np.empty((reps, theta.size))
    chunk = chunk_rows(scheme.n * model.payload_dim)
    for start, streams in stream.child_chunks("rep", stop=reps, size=chunk):
        data = model.sample_data(streams, scheme.n)
        w = sample_weights(streams, scheme)
        grads = model.grad_loss(theta, data)
        errors = (w[:, None, :] @ grads)[:, 0, :] - grad_mean
        samples[start : start + len(streams)] = sqrt_m * errors
        del data, w, grads  # free the blocks before the next chunk draws its own
    return ErrorSampleSet(samples=samples)


def ks_normality(samples, variance: float) -> tuple[float, int]:
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
    return float(max(upper.max(), lower.max())), count


@dataclass
class DistanceEstimate:
    """A squared Wasserstein-2 estimate and how it was computed."""

    value: float
    method: str  # "sliced" | "coordinate_average"
    sample_size: int


def sliced_w2(samples_a, samples_b, n_directions: int, stream: RngStream) -> DistanceEstimate:
    """Squared W2 averaged over random 1-D projections.

    Projects both sample sets onto `n_directions` uniform unit vectors and
    averages the exact 1-D squared distances.  Deterministic given the
    stream; calling with the arguments swapped but the same stream state
    gives exactly the same value.
    """
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
    if n_directions < 1:
        raise ValueError(f"n_directions must be >= 1, got {n_directions}")
    directions = stream.generator.standard_normal((n_directions, a.shape[1]))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    proj_a = np.sort(a @ directions.T, axis=0)
    proj_b = np.sort(b @ directions.T, axis=0)
    value = float(np.mean((proj_a - proj_b) ** 2))
    return DistanceEstimate(value=value, method="sliced", sample_size=a.shape[0])


def coordinate_avg_w2(samples_a, samples_b) -> DistanceEstimate:
    """Squared W2 of each coordinate marginal, averaged over coordinates.

    A cheap axis-aligned companion to :func:`sliced_w2`, reported alongside
    it; it sees only marginal mismatches, not cross-coordinate structure.
    """
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"sample sizes differ: {a.shape[0]} vs {b.shape[0]}")
    value = float(np.mean((np.sort(a, axis=0) - np.sort(b, axis=0)) ** 2))
    return DistanceEstimate(value=value, method="coordinate_average", sample_size=a.shape[0])


@dataclass
class GapEstimate:
    """Monte Carlo estimate of the weighted-vs-plain-average error gap."""

    estimate: float
    se: float
    analytic: float
    reps: int


def weighting_gap(
    model: LossModel, scheme: WeightScheme, theta, reps: int, stream: RngStream
) -> GapEstimate:
    """Estimate E|sqrt(m)(sum w_i grad l - grad g) - sqrt(n)(avg grad l - grad g)|^2.

    The expectation equals 2 (1 - sqrt(m/n)) Tr sigma^2(theta) exactly, for
    any weight law with the minibatch mean/covariance structure and any n;
    the analytic value is returned alongside the estimate.  Replication r
    consumes ``stream.child("rep", r)``; replications are drawn in chunks as
    in :func:`clt_error_samples`, and the plain average and squared norm are
    taken per replication, where a batched reduction would round differently.
    """
    if reps < 1000:
        raise ValueError(f"reps must be >= 1000, got {reps}")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    n, m = scheme.n, scheme.m
    grad_mean = model.grad_objective(theta)
    sqrt_m, sqrt_n = math.sqrt(m), math.sqrt(n)
    values = np.empty(reps)
    chunk = chunk_rows(n * model.payload_dim)
    for start, streams in stream.child_chunks("rep", stop=reps, size=chunk):
        data = model.sample_data(streams, n)
        w = sample_weights(streams, scheme)
        grads = model.grad_loss(theta, data)
        weighted = sqrt_m * ((w[:, None, :] @ grads)[:, 0, :] - grad_mean)
        for r, (row_grads, row_weighted) in enumerate(zip(grads, weighted), start):
            diff = row_weighted - sqrt_n * (row_grads.mean(axis=0) - grad_mean)
            values[r] = diff @ diff
        del data, w, grads, row_grads  # free the blocks before the next chunk draws
    analytic = 2.0 * (1.0 - math.sqrt(m / n)) * model.noise_trace(theta)
    return GapEstimate(
        estimate=float(values.mean()),
        se=float(values.std(ddof=1) / math.sqrt(reps)),
        analytic=analytic,
        reps=reps,
    )


@dataclass
class RateReport:
    """Strong-convexity contraction factor and the regime checks behind it."""

    rho_bound: float
    gamma_ok: bool
    m_ok: bool


def contraction_bound(
    lam: float, gamma: float, L: float, L1: float, p: int, m: int
) -> RateReport:
    """rho = 1 - lam*gamma*(2 - L*gamma) + 2 p L L1^2 gamma^2 / (m lam).

    ``gamma_ok`` checks 0 < gamma < min(1/L, 1); ``m_ok`` checks
    m > 2 p L L1 gamma / (lam^2 (2 - L*gamma)).  When both hold, rho < 1 is
    verified defensively (it can fail for L1 > 1, where the m condition as
    stated is weaker than what rho < 1 requires).
    """
    if min(lam, gamma, L) <= 0 or L1 < 0 or p < 1 or m < 1:
        raise ValueError("lam, gamma, L must be positive; L1 >= 0; p, m >= 1")
    rho = 1.0 - lam * gamma * (2.0 - L * gamma) + 2.0 * p * L * L1**2 * gamma**2 / (m * lam)
    gamma_ok = 0.0 < gamma < min(1.0 / L, 1.0)
    m_ok = m > 2.0 * p * L * L1 * gamma / (lam**2 * (2.0 - L * gamma))
    if gamma_ok and m_ok and not rho < 1.0:
        raise ArithmeticError(
            f"regime conditions hold but rho = {rho} >= 1; the minibatch condition "
            "is insufficient for this L1"
        )
    return RateReport(rho_bound=rho, gamma_ok=gamma_ok, m_ok=m_ok)


def plateau_bound(lam: float, gamma: float, L: float, m: int, noise_floor: float) -> float:
    """Asymptotic level bound L*gamma*||sigma(x*)||_F^2 / (m * lam * (2 - L*gamma))."""
    return L * gamma * noise_floor / (m * lam * (2.0 - L * gamma))


@dataclass
class ConvergenceCurve:
    """Per-iteration Monte Carlo optimality gaps with standard errors."""

    g_gap_mean: np.ndarray
    g_gap_se: np.ndarray
    sq_dist_mean: np.ndarray
    sq_dist_se: np.ndarray
    reps: int
    diverged: list[int]
    g_gap_reps: np.ndarray = field(repr=False)     # (reps_ok, K+1)
    sq_dist_reps: np.ndarray = field(repr=False)   # (reps_ok, K+1)


def reference_minimum(
    model: LossModel, tol: float = 1e-10, max_iter: int = 1_000_000
) -> tuple[np.ndarray, float]:
    """(x*, g(x*)): the known minimizer, else GD to gradient norm <= tol."""
    if model.minimizer is not None:
        x_star = np.asarray(model.minimizer, dtype=float)
        return x_star, float(model.objective(x_star))
    if not model.lipschitz_grad > 0:
        raise ValueError("cannot locate a minimizer: model has no positive gradient modulus")
    step = 1.0 / model.lipschitz_grad
    x = np.zeros(model.dim)
    for _ in range(max_iter):
        grad = model.grad_objective(x)
        if np.linalg.norm(grad) <= tol:
            return x, float(model.objective(x))
        x = x - step * grad
    raise ArithmeticError(f"reference minimum not located within {max_iter} iterations")


def convergence_curve(
    model: LossModel,
    runner: Callable[[LossModel, RunConfig, list[RngStream]], Trajectory],
    config: RunConfig,
    reps: int,
    stream: RngStream,
    reference: Optional[tuple[np.ndarray, float]] = None,
    track_objective: bool = True,
) -> ConvergenceCurve:
    """Replicate a process and average g(x_k) - g* and |x_k - x*|^2 over reps.

    The runner advances all replications as one ensemble; replication r
    consumes the derived stream ``stream.child("rep", r)``.  Diverged
    replications are recorded by index and excluded from the averages; they
    are never silently dropped.  ``track_objective=False`` skips the
    objective evaluations (the g-gap rows come back as zeros), which matters
    for models whose objective sweeps a large dataset.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    x_star, g_star = reference if reference is not None else reference_minimum(model)
    x_star = np.asarray(x_star, dtype=float)
    try:
        traj = runner(model, config, stream.children("rep", stop=reps))
    except DivergenceError as exc:
        raise ArithmeticError(f"all {reps} replications diverged") from exc
    diverged = sorted(traj.diverged)
    kept = [r for r in range(reps) if r not in traj.diverged]
    states = traj.states[:, kept]  # (K+1, reps_ok, p)
    diffs = states - x_star
    # per-replication rows, C-ordered so the reductions over axis 0 below
    # accumulate in the same order as a stack of separate rows
    d_mat = np.ascontiguousarray(np.sum(diffs * diffs, axis=2).T)
    if track_objective:
        g_mat = np.ascontiguousarray((model.objective(states) - g_star).T)
    else:
        g_mat = np.zeros_like(d_mat)
    count = g_mat.shape[0]
    scale = math.sqrt(count)
    return ConvergenceCurve(
        g_gap_mean=g_mat.mean(axis=0),
        g_gap_se=g_mat.std(axis=0, ddof=1) / scale if count > 1 else np.zeros(g_mat.shape[1]),
        sq_dist_mean=d_mat.mean(axis=0),
        sq_dist_se=d_mat.std(axis=0, ddof=1) / scale if count > 1 else np.zeros(d_mat.shape[1]),
        reps=count,
        diverged=diverged,
        g_gap_reps=g_mat,
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


def contraction_fit(curve, burn_in: int = 0, window: Optional[int] = None) -> float:
    """Geometric decay factor fitted to a positive curve segment.

    Least-squares slope of log(curve[fit_segment(...)]) against the
    iteration index, exponentiated.
    """
    curve = np.asarray(curve, dtype=float)
    segment = curve[fit_segment(curve.size, burn_in, window)]
    if not np.all(segment > 0):
        raise ValueError("curve must be positive over the fit window")
    k = np.arange(segment.size, dtype=float)
    slope = np.polyfit(k, np.log(segment), 1)[0]
    return float(np.exp(slope))


def contraction_fit_jackknife(
    per_rep_curves: np.ndarray, burn_in: int = 0, window: Optional[int] = None
) -> tuple[float, float]:
    """(rho_hat, jackknife SE) of the fit on the mean curve over replications."""
    per_rep_curves = np.asarray(per_rep_curves, dtype=float)
    reps = per_rep_curves.shape[0]
    rho = contraction_fit(per_rep_curves.mean(axis=0), burn_in, window)
    if reps < 2:
        return rho, 0.0
    total = per_rep_curves.sum(axis=0)
    leave_one_out = np.empty(reps)
    for r in range(reps):
        loo_mean = (total - per_rep_curves[r]) / (reps - 1)
        leave_one_out[r] = contraction_fit(loo_mean, burn_in, window)
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
