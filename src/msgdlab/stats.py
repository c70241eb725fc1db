"""Statistical verdicts: error distributions, transport distances, rates.

This module turns simulations into numbers that can be checked:

* ``clt_error_samples`` draws the scaled weighted gradient error
  sqrt(m) * sum_i w_i (grad l(theta, u_i) - grad g(theta)) whose limit is
  N(0, sigma^2(theta)), from the draw M-SGD steps with
  (``dynamics.WeightedGradient``);
* ``ks_normality`` measures sup-distance to a centered normal CDF,
  Phi(x) = erfc(-x / sqrt 2) / 2 from the standard library's ``math.erfc``;
* ``sliced_w2`` estimates the squared Wasserstein-2 distance by the exact
  sorted coupling along random 1-D projections, and ``coordinate_avg_w2``,
  which no command reports, along each coordinate;
* ``weighting_gap`` checks the exact identity
  E|scaled weighted error - scaled plain-average error|^2
  = 2 (1 - sqrt(m/n)) Tr sigma^2(theta), which holds at finite n for every
  weight law with the minibatch moment structure, by its expectation given
  the weights, a statistic of the weight draws alone;
* ``log_slope`` is the one log-linear fit, of one curve or of a stack in one
  call, NaN for a curve unless every value is positive;
* ``contraction_bound`` (the predicted factor rho), ``contraction_fit`` and
  ``convergence_curve`` (squared distances to the model's known minimizer
  or to a given point, and g-gaps when the minimizer is known, averaged over
  every replication of a run) quantify geometric convergence under strong
  convexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import WeightedGradient
from .models import LossModel
from .numerics import RngStream
from .weights import WeightScheme, empirical_weight_moments


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
        samples[start : start + len(streams)] = sqrt_m * (draw(theta, streams) - grad_mean)
    return samples


def ks_normality(samples, variance: float) -> float:
    """Kolmogorov-Smirnov sup-distance of `samples` from N(0, variance).

    The normal CDF is erfc(-x / sqrt 2) / 2, one ``math.erfc`` per sample.
    """
    if not variance > 0:
        raise ValueError(f"variance must be positive, got {variance}")
    samples = np.sort(np.asarray(samples, dtype=float))
    count = samples.size
    if count < 100:
        raise ValueError(f"need at least 100 samples, got {count}")
    scaled = (samples / -math.sqrt(2 * variance)).tolist()
    cdf = 0.5 * np.fromiter(map(math.erfc, scaled), float, count)
    upper = np.arange(1, count + 1) / count - cdf
    lower = cdf - np.arange(0, count) / count
    return float(max(upper.max(), lower.max()))


def mean_with_se(values, axis: int = 0):
    """The mean of `values` along `axis` and its standard error
    std(ddof=1) / sqrt(count), 0 when `axis` holds one value."""
    values = np.asarray(values, dtype=float)
    count = values.shape[axis]
    mean = values.mean(axis=axis)
    if count < 2:
        return mean, np.zeros_like(mean)
    with np.errstate(over="ignore"):  # a spread that overflows is an inf SE, which FAILs
        return mean, values.std(axis=axis, ddof=1) / math.sqrt(count)


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

    An axis-aligned companion to :func:`sliced_w2` that no command reports;
    it sees only marginal mismatches, not cross-coordinate structure.  It
    stays while ``verdictbench/tracer.py`` hooks it by name.
    """
    a, b = _sample_pair(samples_a, samples_b)
    return float(np.mean((np.sort(a, axis=0) - np.sort(b, axis=0)) ** 2))


@dataclass
class GapEstimate:
    """Monte Carlo estimate of the weighted-vs-plain-average error gap, per
    unit of Tr sigma^2."""

    estimate: float
    se: float
    analytic: float


def weighting_gap(scheme: WeightScheme, reps: int, stream: RngStream) -> GapEstimate:
    """E|sqrt(m)(sum w_i grad l - grad g) - sqrt(n)(avg grad l - grad g)|^2 per
    unit of Tr sigma^2, from the weights alone.

    The data are iid and independent of w, so given w the gap is sum_i a_i e_i
    with a_i = sqrt(m) w_i - 1/sqrt(n) and its expectation is exactly
    Tr sigma^2 |a|^2, |a|^2 = m sum w^2 - 2 sqrt(m/n) sum w + 1, with sum w as
    drawn.  The estimate is the mean of |a|^2 over `reps` draws, replication r
    on ``stream.child("rep", r)`` (``weights.empirical_weight_moments``'s
    draws); the analytic value is E|a|^2 = 2 - 2 sqrt(m/n), which holds at
    finite n for every weight law with the minibatch moment structure.
    """
    if reps < 1000:
        raise ValueError(f"reps must be >= 1000, got {reps}")
    ratio = math.sqrt(scheme.m / scheme.n)
    *_, m_sum_sq, w_sum = empirical_weight_moments(scheme, stream, reps)
    estimate, se = mean_with_se(m_sum_sq - 2.0 * ratio * w_sum + 1.0)
    return GapEstimate(estimate=float(estimate), se=float(se), analytic=2.0 - 2.0 * ratio)


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
    g-gap rows are None for a model without a known minimizer.  Each array
    leads with the batch axes of the states it was taken from."""

    g_gap_mean: Optional[np.ndarray]
    g_gap_se: Optional[np.ndarray]
    sq_dist_mean: np.ndarray
    sq_dist_se: np.ndarray
    sq_dist_reps: np.ndarray = field(repr=False)   # (*batch, reps, K+1)


def convergence_curve(
    model: LossModel, states: np.ndarray, reference: Optional[np.ndarray] = None
) -> ConvergenceCurve:
    """Average |x_k - x*|^2 and, when the model's minimizer is known,
    g(x_k) - g(minimizer) over the replications of an ensemble run's
    (K+1, reps, p) states, such as a ``Lockstep.runs`` entry.

    States of shape (K+1, reps, *batch, p) stack independent blocks, such as
    the kappa blocks of one logistic grid run reshaped to (K+1, reps, kappas,
    p): every result then leads with the batch axes, each block's curve bit
    for bit the one it gives alone.  The point x* defaults to the model's
    known minimizer.  Every replication counts: a run that diverged has
    raised in ``dynamics`` and left no states.
    """
    if reference is None:
        if model.minimizer is None:
            raise ValueError(f"model {model.name!r} has no known minimizer; pass a reference")
        reference = model.minimizer
    def rows(values):  # (K+1, reps, *batch) values as contiguous (*batch, reps, K+1) rows
        return np.ascontiguousarray(np.moveaxis(values, (0, 1), (-1, -2)))

    diffs = states - np.asarray(reference, dtype=float)
    # per-replication rows, C-ordered so the reductions over the reps axis
    # below accumulate in the same order as a stack of separate rows
    d_mat = rows(np.sum(diffs * diffs, axis=-1))
    g_gap_mean = g_gap_se = None
    if model.minimizer is not None:
        g_star = float(model.objective(model.minimizer))
        g_gap_mean, g_gap_se = mean_with_se(rows(model.objective(states) - g_star), axis=-2)
    sq_dist_mean, sq_dist_se = mean_with_se(d_mat, axis=-2)
    return ConvergenceCurve(
        g_gap_mean=g_gap_mean,
        g_gap_se=g_gap_se,
        sq_dist_mean=sq_dist_mean,
        sq_dist_se=sq_dist_se,
        sq_dist_reps=d_mat,
    )


def fit_segment(length: int, burn_in: int = 0, window: Optional[int] = None) -> slice:
    """The iterations ``burn_in : burn_in + window``, at least 2 and all within a
    curve of `length` points, that a fit uses.  The default window is the first
    third of the curve, where the geometric phase dominates before any noise plateau."""
    if window is None:
        window = max(length // 3, 2)
    if burn_in < 0 or window < 2 or burn_in + window > length:
        raise ValueError(
            f"fit window must hold at least 2 points, all within the curve, got burn-in "
            f"{burn_in} and window {window} over {length} iterates"
        )
    return slice(burn_in, burn_in + window)


def log_slope(x, values):
    """Least-squares slope of log(values) against `x`, along the last axis:
    a float for one curve, and for a stack of curves an array of their slopes
    from one ``np.polyfit`` call.  A curve's slope is NaN unless every value
    is positive and finite, since such a curve has no logarithm to fit."""
    values = np.asarray(values, dtype=float)
    points = values.shape[-1] if values.ndim else 1
    if points < 2:
        raise ValueError(f"need at least 2 points to fit a slope, got {points}")
    curves = values.reshape(-1, values.shape[-1])
    fits = np.all((curves > 0) & (curves < math.inf), axis=1)
    slopes = np.full(len(curves), math.nan)
    if fits.any():
        slopes[fits] = np.polyfit(x, np.log(curves[fits]).T, 1)[0]
    return float(slopes[0]) if values.ndim == 1 else slopes.reshape(values.shape[:-1])


def contraction_fit(segment):
    """Geometric decay factor of a curve segment, such as ``curve[fit_segment(...)]``:
    the exponentiated :func:`log_slope` against the iteration index; an array
    for a stack of segments along the last axis."""
    segment = np.asarray(segment, dtype=float)
    rho = np.exp(log_slope(np.arange(segment.shape[-1], dtype=float), segment))
    return float(rho) if segment.ndim == 1 else rho


def contraction_fit_jackknife(per_rep_segments):
    """(rho_hat, jackknife SE) of the fit on the mean of per-replication
    segments, (reps, window), as floats; for (*batch, reps, window), one
    array of each over the batch, from one fit of the means and one of every
    leave-one-out mean.  The SE is 0 at one replication, and NaN where a
    leave-one-out mean is not positive and finite."""
    segments = np.asarray(per_rep_segments, dtype=float)
    reps = segments.shape[-2]
    rho = contraction_fit(segments.mean(axis=-2))
    if reps < 2:
        return rho, 0.0 if segments.ndim == 2 else np.zeros(np.shape(rho))
    loo = (segments.sum(axis=-2, keepdims=True) - segments) / (reps - 1)
    leave_one_out = contraction_fit(loo)  # (*batch, reps), NaN for a mean it cannot fit
    spread = leave_one_out - leave_one_out.mean(axis=-1, keepdims=True)
    se = np.sqrt((reps - 1) / reps * np.sum(spread**2, axis=-1))
    return rho, float(se) if segments.ndim == 2 else se


def covariance_with_se(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample covariance of row vectors and entrywise large-sample SEs."""
    samples = np.asarray(samples, dtype=float)
    reps = samples.shape[0]
    centered = samples - samples.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / reps
    second = (centered**2).T @ (centered**2) / reps
    se = np.sqrt(np.maximum(second - cov**2, 0.0) / reps)
    return cov, se
