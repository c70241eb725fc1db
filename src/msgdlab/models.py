"""Loss models: objective, per-datum gradient, data law, and noise factor.

A :class:`LossModel` bundles everything the dynamics need:

* ``objective(theta)`` and its analytic ``grad_objective(theta)``;
* ``sample_data(streams, count, out=None)`` drawing ``count`` iid data per
  stream as one block with leading axes (R, count), R = len(streams):
  (R, count, p) float rows for the quadratic and uniform models,
  (R, count) int64 row indices into the dataset for the logistic model;
  given ``out``, a block of that shape and type, it draws into it and
  returns it;
* ``grad_loss(theta, data)`` mapping a batch of ``count`` data to per-datum
  gradients (count, p), unbiased for ``grad_objective``;
* ``weighted_grad(theta, data, w)``, the weighted gradient
  sum_i w_i grad l(theta, u_i) for (..., count) weights: by default
  ``weighted_sum(w, grad_loss(theta, data))``, one stacked ``np.matmul``
  over the per-datum gradients.  The logistic model supplies a fused form
  that never builds those gradients and rounds differently,
  2 kappa beta sum_i w_i - (w / (1 + e^(beta S_d^T))) S_d, one residual
  row per kappa of its grid, on its signed rows s_i x_i, s_i = 2 y_i - 1;
* optionally ``sample_weighted_grad(theta, norms, streams)``, drawing
  sum_i w_i grad l(theta, u_i) from its exact law given the weights, with
  no data, one row per stream, when that law depends on the weights only
  through the (R, 2) rows (sum w, |w|^2) of ``weights.sample_weight_norms``:
  the quadratic model, whose data are Gaussian, supplies it, and
  ``dynamics.WeightedGradient`` takes it in place of the data path;
* ``noise_factor(theta)``, a p x q matrix ``sigma`` with
  ``sigma sigma^T = Cov(grad_loss(theta, .))``.

``sample_data`` makes only the raw generator calls per stream, in the order
a lone draw would, writing into one block (``out``, or a fresh one), and
then applies its deterministic transform, if any, once to the whole block,
so row r consumes only ``streams[r]`` and equals a one-stream draw on that
stream; ``sample_weighted_grad`` draws the same way.

Every other callable accepts theta with leading replication axes, shape
(..., p): ``objective`` then returns shape (...), ``grad_objective``
(..., p), ``grad_loss`` maps a data block with leading axes (..., count) to
(..., count, p), ``weighted_grad`` returns (..., p), and ``noise_factor``
returns (..., p, q), or one shared (p, q) matrix when sigma does not depend
on theta.  Inner products go through stacked ``np.matmul``, which runs the
same kernel on every replication as on a lone theta, so a batched call is
bit-identical to one call per replication.

Three concrete models are provided: a quadratic with Gaussian data (every
quantity in closed form, the main oracle model), a mean-zero uniform-data
model whose gradient is the datum itself (for error-distribution studies),
and ridge-regularized logistic regression over a fixed dataset resampled
with replacement, on a grid of ridge penalties whose state stacks one
iterate per penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .numerics import RngStream


@dataclass(frozen=True)
class LossModel:
    name: str
    dim: int
    payload_dim: int                         # per-datum working width that chunk_rows sizes by
    objective: Callable[[np.ndarray], float]
    grad_objective: Callable[[np.ndarray], np.ndarray]
    sample_data: Callable[..., np.ndarray]   # (streams, count, out=None)
    grad_loss: Callable[[np.ndarray, np.ndarray], np.ndarray]
    noise_factor: Callable[[np.ndarray], np.ndarray]
    lipschitz_grad: float                    # L: Lipschitz modulus of grad_objective
    lipschitz_noise: float                   # L1: Lipschitz modulus of noise_factor, spectral norm
    strong_convexity: Optional[float] = None # lambda, when g is strongly convex
    minimizer: Optional[np.ndarray] = None   # known argmin of the objective, if any
    fused_weighted_grad: Optional[Callable[..., np.ndarray]] = None  # (theta, data, w)
    sample_weighted_grad: Optional[Callable[..., np.ndarray]] = None  # (theta, norms, streams)

    def weighted_grad(self, theta, data, w) -> np.ndarray:
        """sum_i w_i grad l(theta, u_i) over the data's last axis, shape (..., p)."""
        if self.fused_weighted_grad is not None:
            return self.fused_weighted_grad(theta, data, w)
        return weighted_sum(w, self.grad_loss(theta, data))

    def noise_trace(self, theta: np.ndarray) -> float:
        """Tr sigma^2(theta) = ||sigma(theta)||_F^2."""
        factor = self.noise_factor(np.asarray(theta, dtype=float))
        return float(np.sum(factor * factor))


def weighted_sum(w: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """The (..., p) sums sum_i w_i grads_i of (..., count) weights and
    (..., count, p) per-datum gradients, one stacked ``np.matmul``."""
    return (w[..., None, :] @ grads)[..., 0, :]


def make_quadratic_model(p: int, theta_star, s: float) -> LossModel:
    """Quadratic oracle model: l(theta, u) = |theta - u|^2 / 2, u ~ N(theta*, s^2 I).

    Then g(theta) = |theta - theta*|^2 / 2 + p s^2 / 2, grad_loss is
    theta - u, and the noise factor is the constant s*I, so L = lambda = 1
    and L1 = 0.  The noise level p s^2 / 2 must be finite.  Given the weights,
    sum_i w_i (theta - u_i) = (theta - theta*) sum_i w_i - s sum_i w_i z_i,
    and sum_i w_i z_i ~ N(0, |w|^2 I_p) exactly, so ``sample_weighted_grad``
    draws it from the (sum w, |w|^2) rows and p standard normals per row
    instead of n p data.  Those rows are exact in law: (1, c^2 chi^2_(n-1) +
    1/n) for normal-base gaussian weights, and every other law's as its
    drawn row reduces, never 1/m in place of |w|^2.
    """
    if not s > 0:
        raise ValueError(f"noise scale s must be positive, got {s}")
    theta_star = np.asarray(theta_star, dtype=float)
    if theta_star.shape != (p,):
        raise ValueError(f"theta_star must have shape ({p},), got {theta_star.shape}")
    const = 0.5 * p * s * s
    if not math.isfinite(const):
        raise ValueError(f"noise level p s^2 / 2 overflows at s = {s:g} and p = {p}")
    factor = s * np.eye(p)
    factor.setflags(write=False)

    def objective(theta):
        d = np.asarray(theta, dtype=float) - theta_star
        return 0.5 * (d[..., None, :] @ d[..., :, None])[..., 0, 0] + const

    def grad_objective(theta):
        return np.asarray(theta, dtype=float) - theta_star

    def sample_data(streams, count, out=None):
        block = np.empty((len(streams), count, p)) if out is None else out
        for row, stream in zip(block, streams):
            stream.generator.standard_normal(out=row)
        block *= s
        block += theta_star
        return block

    def grad_loss(theta, data):
        return np.asarray(theta, dtype=float)[..., None, :] - data

    def sample_weighted_grad(theta, norms, streams):
        zeta = np.empty((len(streams), p))
        for row, stream in zip(zeta, streams):
            stream.generator.standard_normal(out=row)
        zeta *= s * np.sqrt(norms[:, 1:])
        return grad_objective(theta) * norms[:, :1] - zeta

    def noise_factor(theta):
        return factor

    return LossModel(
        name="quadratic",
        dim=p,
        payload_dim=p,
        objective=objective,
        grad_objective=grad_objective,
        sample_data=sample_data,
        grad_loss=grad_loss,
        noise_factor=noise_factor,
        lipschitz_grad=1.0,
        lipschitz_noise=0.0,
        strong_convexity=1.0,
        minimizer=theta_star,
        sample_weighted_grad=sample_weighted_grad,
    )


def make_uniform_clt_model(p: int) -> LossModel:
    """Flat model with grad_loss(theta, u) = u, u ~ Unif(-1,1)^p.

    The objective is identically zero and the per-datum gradient is the
    datum itself, so the gradient noise has covariance (1/3) I at every
    theta.  Useful for studying the weighted-error distribution in
    isolation from any drift.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    factor = np.eye(p) / np.sqrt(3.0)
    factor.setflags(write=False)

    def objective(theta):
        return np.zeros(np.shape(theta)[:-1])[()]

    def grad_objective(theta):
        return np.zeros(np.shape(theta))

    def sample_data(streams, count, out=None):
        # Generator.uniform(-1, 1) is -1 + 2 * random(), bit for bit
        block = np.empty((len(streams), count, p)) if out is None else out
        for row, stream in zip(block, streams):
            stream.generator.random(out=row)
        block *= 2.0
        block -= 1.0
        return block

    def grad_loss(theta, data):
        return np.asarray(data, dtype=float)

    def noise_factor(theta):
        return factor

    return LossModel(
        name="uniform_clt",
        dim=p,
        payload_dim=p,
        objective=objective,
        grad_objective=grad_objective,
        sample_data=sample_data,
        grad_loss=grad_loss,
        noise_factor=noise_factor,
        lipschitz_grad=0.0,
        lipschitz_noise=0.0,
        strong_convexity=None,
        minimizer=None,
    )


@dataclass(frozen=True)
class LogisticDataset:
    """Fixed binary-response dataset; the ridge penalty belongs to the model."""

    labels: np.ndarray    # (t,) in {0, 1}
    covariates: np.ndarray  # (t, p)

    def __post_init__(self):
        if self.labels.ndim != 1 or self.covariates.ndim != 2:
            raise ValueError("labels must be 1-D and covariates 2-D")
        if self.labels.shape[0] != self.covariates.shape[0]:
            raise ValueError("labels and covariates disagree on dataset size")
        if self.labels.shape[0] < 1:
            raise ValueError("dataset must contain at least one point")
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ValueError("labels must be 0/1")

    @property
    def size(self) -> int:
        return self.labels.shape[0]

    @property
    def dim(self) -> int:
        return self.covariates.shape[1]

    @cached_property
    def signed(self) -> np.ndarray:
        """The (t, p) signed rows s_i x_i, s_i = 2 y_i - 1, computed once per
        dataset and shared by every model built on it."""
        return (2.0 * self.labels - 1.0)[:, None] * self.covariates


def generate_logistic_dataset(stream: RngStream, p: int, t: int) -> LogisticDataset:
    """y_i ~ Bernoulli(1/2) iid, x_i ~ N(0, I_p); labels independent of x."""
    if p < 1 or t < 1:
        raise ValueError(f"need p >= 1 and t >= 1, got p={p}, t={t}")
    gen = stream.generator
    labels = gen.integers(0, 2, size=t).astype(float)
    covariates = gen.standard_normal((t, p))
    return LogisticDataset(labels=labels, covariates=covariates)


def logistic_lipschitz_constant(dataset: LogisticDataset, kappa: float) -> float:
    """Lipschitz modulus of the logistic objective gradient.

    Uses the 1/4 cap on the sigmoid derivative:
    lambda_max(X X^T) / (4t) + 2 kappa, with the top eigenvalue computed
    exactly from the p x p Gram matrix.
    """
    x = dataset.covariates
    lam_max = float(np.linalg.eigvalsh(x.T @ x)[-1])  # = lambda_max(X X^T)
    return lam_max / (4.0 * dataset.size) + 2.0 * kappa


def ridge_penalties(kappa) -> np.ndarray:
    """A grid of ridge penalties, a float or a non-empty 1-D sequence, as a 1-D
    array; ValueError unless each is positive."""
    kappas = np.atleast_1d(np.asarray(kappa, dtype=float))
    if kappas.ndim != 1 or kappas.size < 1:
        raise ValueError(f"kappa must be a number or a non-empty 1-D sequence, got {kappa!r}")
    for value in kappas:
        if not value > 0:
            raise ValueError(f"ridge penalty kappa must be positive, got {value}")
    return kappas


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so exp never overflows.

    One divide serves both branches: its numerator is 1 or e^-|z|.
    """
    e = np.exp(-np.abs(z))
    d = e + 1.0
    return np.where(z >= 0, 1.0, e) / d


def make_logistic_model(dataset: LogisticDataset, kappa) -> LossModel:
    """Ridge-logistic model over a fixed dataset, resampled with replacement,
    on a grid of K ridge penalties kappa_k > 0: a float (K = 1) or a 1-D
    sequence.

    The parameter stacks one beta per penalty, shape (..., K p), block k
    being ``theta[..., k p:(k + 1) p]``: this is the product model
    g(theta) = sum_k g_k(beta_k), so one datum, drawn once, drives every
    block, and each block alone is ridge-logistic M-SGD at its own kappa.
    ``objective`` sums the blocks' objectives, ``grad_objective`` and
    ``grad_loss`` stack the blocks' gradients, and the noise factor stacks
    the blocks' factors, (K p, t), exact because the same datum moves every
    block.  L is the largest block's and lambda = 2 min kappa, so the
    bounds hold on every block; at K = 1 this is the one-penalty model.

    A datum is a row index drawn uniformly from the dataset, refreshed at
    every iteration by the dynamics: ``sample_data`` returns an (R, count)
    int64 block and ``grad_loss`` gathers the rows it names.  The fused
    weighted gradient gathers the signed rows S_i = s_i x_i alone, once for
    every block: with s = 2y - 1, sigmoid(z) - y = -s / (1 + e^(s z)), so
    sum_i w_i (sigmoid(x_i^T beta) - y_i) x_i = -(w / (1 + e^(beta S_d^T))) S_d,
    one (K, p) @ (p, n) and one (K, n) @ (n, p) product per replication
    that round differently from ``weighted_sum`` over ``grad_loss``.  The
    noise factor's columns are ``(grad_loss(beta, i) - grad_objective(beta))
    / sqrt(t)``, an exact square root of the gradient covariance over the
    data law.
    """
    y = dataset.labels
    x = dataset.covariates
    t = dataset.size
    p = dataset.dim
    kappas = ridge_penalties(kappa)
    blocks = kappas.size
    twice = 2.0 * kappas[:, None]  # 2 kappa_k, one row per block
    lipschitz = logistic_lipschitz_constant(dataset, float(kappas.max()))
    signed = dataset.signed

    def split(beta):
        """(..., K p) as the (..., K, p) blocks."""
        beta = np.asarray(beta, dtype=float)
        return beta.reshape(beta.shape[:-1] + (blocks, p))

    def stack(block):
        """(..., K, p) blocks as (..., K p)."""
        return block.reshape(block.shape[:-2] + (blocks * p,))

    def objective(beta):
        b = split(beta)
        z = b @ x.T
        nll = -(z @ y) + np.sum(np.logaddexp(0.0, z), axis=-1)
        per_block = nll / t + kappas * (b[..., None, :] @ b[..., :, None])[..., 0, 0]
        return per_block.sum(axis=-1)

    def grad_objective(beta):
        b = split(beta)
        resid = _sigmoid(x @ b.swapaxes(-1, -2)) - y[:, None]
        return stack((x.T @ resid).swapaxes(-1, -2) / t + twice * b)

    def sample_data(streams, count, out=None):
        idx = np.empty((len(streams), count), dtype=np.int64) if out is None else out
        for row, stream in zip(idx, streams):
            row[:] = stream.generator.integers(0, t, size=count)
        return idx

    def grad_loss(beta, idx):
        b = split(beta)
        xd = x.take(idx, axis=0)
        resid = _sigmoid(xd @ b.swapaxes(-1, -2)) - y.take(idx)[..., None]
        return stack(resid[..., None] * xd[..., None, :] + (twice * b)[..., None, :, :])

    def fused_weighted_grad(beta, idx, w):
        b = split(beta)
        sd = signed.take(idx, axis=0)
        q = b @ sd.swapaxes(-1, -2)
        with np.errstate(over="ignore"):  # e^v = inf gives the term's limit 0
            np.exp(q, out=q)
        q += 1.0
        np.divide(w[..., None, :], q, out=q)
        ridge = twice * b * w.sum(axis=-1)[..., None, None]
        return stack(ridge - q @ sd)

    def noise_factor(beta):
        beta = np.asarray(beta, dtype=float)
        grads = grad_loss(beta, np.arange(t))
        return np.swapaxes(grads - grad_objective(beta)[..., None, :], -1, -2) / np.sqrt(t)

    # h1(z_i) = |x_i|^2 / 4 + 2 max kappa bounds the per-datum gradient modulus
    # of every block, hence of the stack; each noise-factor column moves at
    # most (h1 + L)/sqrt(t), giving a Frobenius (hence spectral) bound on the
    # factor's modulus.
    h1 = np.sum(x * x, axis=1) / 4.0 + 2.0 * float(kappas.max())
    lipschitz_noise = float(np.sqrt(np.mean((h1 + lipschitz) ** 2)))

    return LossModel(
        name="logistic",
        dim=blocks * p,
        payload_dim=p + blocks,              # s_i x_i and its K residuals, per index
        objective=objective,
        grad_objective=grad_objective,
        sample_data=sample_data,
        grad_loss=grad_loss,
        noise_factor=noise_factor,
        lipschitz_grad=lipschitz,
        lipschitz_noise=lipschitz_noise,
        strong_convexity=2.0 * float(kappas.min()),
        minimizer=None,
        fused_weighted_grad=fused_weighted_grad,
    )
