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
* ``noise_factor(theta)``, a p x q matrix ``sigma`` with
  ``sigma sigma^T = Cov(grad_loss(theta, .))``.

``sample_data`` makes only the raw generator calls per stream, in the order
a lone draw would, writing into one block (``out``, or a fresh one), and
then applies its deterministic transform, if any, once to the whole block,
so row r consumes only ``streams[r]`` and equals a one-stream draw on that
stream.

Every other callable accepts theta with leading replication axes, shape
(..., p): ``objective`` then returns shape (...), ``grad_objective``
(..., p), ``grad_loss`` maps a data block with leading axes (..., count) to
(..., count, p), and ``noise_factor`` returns (..., p, q), or one shared
(p, q) matrix when sigma does not depend on theta.  Inner products go
through stacked ``np.matmul``, which runs the same kernel on every
replication as on a lone theta, so a batched call is bit-identical to one
call per replication.

Three concrete models are provided: a quadratic with Gaussian data (every
quantity in closed form, the main oracle model), a mean-zero uniform-data
model whose gradient is the datum itself (for error-distribution studies),
and ridge-regularized logistic regression over a fixed dataset resampled
with replacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import RngStream


@dataclass(frozen=True)
class LossModel:
    name: str
    dim: int
    noise_dim: int
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

    def noise_trace(self, theta: np.ndarray) -> float:
        """Tr sigma^2(theta) = ||sigma(theta)||_F^2."""
        factor = self.noise_factor(np.asarray(theta, dtype=float))
        return float(np.sum(factor * factor))


def make_quadratic_model(p: int, theta_star, s: float) -> LossModel:
    """Quadratic oracle model: l(theta, u) = |theta - u|^2 / 2, u ~ N(theta*, s^2 I).

    Then g(theta) = |theta - theta*|^2 / 2 + p s^2 / 2, grad_loss is
    theta - u, and the noise factor is the constant s*I, so L = lambda = 1
    and L1 = 0.  The noise level p s^2 / 2 must be finite.
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

    def noise_factor(theta):
        return factor

    return LossModel(
        name="quadratic",
        dim=p,
        noise_dim=p,
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
        noise_dim=p,
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
    """Fixed binary-response dataset with a ridge penalty kappa > 0."""

    labels: np.ndarray    # (t,) in {0, 1}
    covariates: np.ndarray  # (t, p)
    kappa: float

    def __post_init__(self):
        if self.labels.ndim != 1 or self.covariates.ndim != 2:
            raise ValueError("labels must be 1-D and covariates 2-D")
        if self.labels.shape[0] != self.covariates.shape[0]:
            raise ValueError("labels and covariates disagree on dataset size")
        if self.labels.shape[0] < 1:
            raise ValueError("dataset must contain at least one point")
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ValueError("labels must be 0/1")
        if not self.kappa > 0:
            raise ValueError(f"ridge penalty kappa must be positive, got {self.kappa}")

    @property
    def size(self) -> int:
        return self.labels.shape[0]

    @property
    def dim(self) -> int:
        return self.covariates.shape[1]


def generate_logistic_dataset(stream: RngStream, p: int, t: int, kappa: float) -> LogisticDataset:
    """y_i ~ Bernoulli(1/2) iid, x_i ~ N(0, I_p); labels independent of x."""
    if p < 1 or t < 1:
        raise ValueError(f"need p >= 1 and t >= 1, got p={p}, t={t}")
    gen = stream.generator
    labels = gen.integers(0, 2, size=t).astype(float)
    covariates = gen.standard_normal((t, p))
    return LogisticDataset(labels=labels, covariates=covariates, kappa=kappa)


def logistic_lipschitz_constant(dataset: LogisticDataset) -> float:
    """Lipschitz modulus of the logistic objective gradient.

    Uses the 1/4 cap on the sigmoid derivative:
    lambda_max(X X^T) / (4t) + 2 kappa, with the top eigenvalue computed
    exactly from the p x p Gram matrix.
    """
    x = dataset.covariates
    lam_max = float(np.linalg.eigvalsh(x.T @ x)[-1])  # = lambda_max(X X^T)
    return lam_max / (4.0 * dataset.size) + 2.0 * dataset.kappa


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so exp never overflows.

    One divide serves both branches: its numerator is 1 or e^-|z|.
    """
    e = np.exp(-np.abs(z))
    d = e + 1.0
    return np.where(z >= 0, 1.0, e) / d


def make_logistic_model(dataset: LogisticDataset) -> LossModel:
    """Ridge-logistic model over a fixed dataset, resampled with replacement.

    A datum is a row index drawn uniformly from the dataset, refreshed at
    every iteration by the dynamics: ``sample_data`` returns an (R, count)
    int64 block and ``grad_loss`` gathers the rows it names.  The noise
    factor is the p x t matrix with columns
    ``(grad_loss(beta, i) - grad_objective(beta)) / sqrt(t)``, an exact
    square root of the gradient covariance over the data law.
    """
    y = dataset.labels
    x = dataset.covariates
    t = dataset.size
    p = dataset.dim
    kappa = dataset.kappa
    lipschitz = logistic_lipschitz_constant(dataset)
    every_row = np.arange(t)

    def objective(beta):
        beta = np.asarray(beta, dtype=float)
        z = (x @ beta[..., None])[..., 0]
        nll = -(z @ y) + np.sum(np.logaddexp(0.0, z), axis=-1)
        return nll / t + kappa * (beta[..., None, :] @ beta[..., :, None])[..., 0, 0]

    def grad_objective(beta):
        beta = np.asarray(beta, dtype=float)
        resid = _sigmoid((x @ beta[..., None])[..., 0]) - y
        return (x.T @ resid[..., None])[..., 0] / t + 2.0 * kappa * beta

    def sample_data(streams, count, out=None):
        idx = np.empty((len(streams), count), dtype=np.int64) if out is None else out
        for row, stream in zip(idx, streams):
            row[:] = stream.generator.integers(0, t, size=count)
        return idx

    def grad_loss(beta, idx):
        # The gather gives a C-contiguous (..., n, p) block, and the gradient
        # resid_i x_i + 2 kappa beta is assembled in flat passes over n * p
        # elements rather than broadcast loops of length p.
        beta = np.asarray(beta, dtype=float)
        xd = x.take(idx, axis=0)
        resid = _sigmoid((xd @ beta[..., None])[..., 0]) - y.take(idx)
        grads = np.repeat(resid, p, axis=-1).reshape(resid.shape + (p,))
        grads *= xd
        grads += np.repeat(2.0 * kappa * beta[..., None, :], resid.shape[-1], axis=-2)
        return grads

    def noise_factor(beta):
        beta = np.asarray(beta, dtype=float)
        grads = grad_loss(beta, every_row)
        return np.swapaxes(grads - grad_objective(beta)[..., None, :], -1, -2) / np.sqrt(t)

    # h1(z_i) = |x_i|^2 / 4 + 2 kappa bounds the per-datum gradient modulus;
    # each noise-factor column moves at most (h1 + L)/sqrt(t), giving a
    # Frobenius (hence spectral) bound on the factor's modulus.
    h1 = np.sum(x * x, axis=1) / 4.0 + 2.0 * kappa
    lipschitz_noise = float(np.sqrt(np.mean((h1 + lipschitz) ** 2)))

    return LossModel(
        name="logistic",
        dim=p,
        noise_dim=t,
        payload_dim=p + 1,                   # y and x_i: the floats one index gathers
        objective=objective,
        grad_objective=grad_objective,
        sample_data=sample_data,
        grad_loss=grad_loss,
        noise_factor=noise_factor,
        lipschitz_grad=lipschitz,
        lipschitz_noise=lipschitz_noise,
        strong_convexity=2.0 * kappa,
        minimizer=None,
    )
