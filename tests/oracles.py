"""Independent oracles the tests compare the package against."""

import dataclasses
import math
from typing import Callable

import numpy as np
from scipy.special import gammaln

from msgdlab.models import weighted_sum
from msgdlab.weights import gaussian_scale_squared, sample_weight_values, sample_weights


def finite_diff_gradient(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient ``(f(x+h*e_i) - f(x-h*e_i)) / (2h)``.

    The default step balances truncation against roundoff for unit-scale
    problems in double precision.  Used as the independent oracle for
    analytic gradients throughout the test suite.
    """
    if not h > 0:
        raise ValueError(f"step h must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        f_plus = float(f(x + step))
        f_minus = float(f(x - step))
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise ArithmeticError(
                f"objective returned a non-finite value near coordinate {i}"
            )
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def w2_1d(samples_a, samples_b) -> float:
    """Exact squared W2 between two equal-size 1-D empirical measures.

    The optimal coupling in one dimension is the sorted (quantile)
    coupling, so the distance is just the mean squared gap between order
    statistics.
    """
    a = np.asarray(samples_a, dtype=float).ravel()
    b = np.asarray(samples_b, dtype=float).ravel()
    if a.size != b.size:
        raise ValueError(f"sample sizes differ: {a.size} vs {b.size} (subsample first)")
    if a.size < 2:
        raise ValueError("need at least 2 samples")
    return float(np.mean((np.sort(a) - np.sort(b)) ** 2))


def dirichlet_mixed_moment(alpha, beta) -> float:
    """Exact Dirichlet mixed moment E[prod_i X_i^beta_i].

    For ``X ~ Dir(alpha)`` the moment equals

        Gamma(sum alpha) / Gamma(sum(alpha + beta))
            * prod_i Gamma(alpha_i + beta_i) / Gamma(alpha_i),

    evaluated in log space so huge parameter vectors (n ~ 1e4) stay exact
    to double precision.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.shape != beta.shape:
        raise ValueError(f"alpha and beta lengths differ: {alpha.shape} vs {beta.shape}")
    if not np.all(alpha > 0):
        raise ValueError("all alpha entries must be positive")
    if not np.all(beta >= 0):
        raise ValueError("all beta entries must be nonnegative")
    active = beta > 0  # terms with beta_i = 0 cancel exactly
    log_value = (
        gammaln(alpha.sum())
        - gammaln(alpha.sum() + beta.sum())
        + np.sum(gammaln(alpha[active] + beta[active]) - gammaln(alpha[active]))
    )
    return float(np.exp(log_value))


def rk4_path(grad: Callable[[np.ndarray], np.ndarray], x0, h: float, steps: int) -> np.ndarray:
    """States x_0..x_steps of the classical 4th-order method for
    dx/dt = -grad(x) at step h, one plain step at a time.

    An integrator independent of ``run_ode``, which takes the closed-form
    flow map x* + e^(-lam gamma) (x - x*) once per step: at a fine step h the
    two agree to this method's O(h^4) error, which checks that the closed
    form is the model's gradient flow.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    states = [x]
    for _ in range(steps):
        k1 = -grad(x)
        k2 = -grad(x + (0.5 * h) * k1)
        k3 = -grad(x + (0.5 * h) * k2)
        k4 = -grad(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
    return np.array(states)


def em_path(grad: Callable[[np.ndarray], np.ndarray], sigma, x0, h: float, scale: float,
            normals) -> np.ndarray:
    """States of Euler-Maruyama x <- x - h grad(x) + scale sigma z_j at every
    recorded step, one substep at a time.

    ``normals[k]`` is the (rows, substeps, q) block of recorded step k and
    ``x0`` the (rows, p) start.  An integrator independent of
    ``run_diffusion_em``, which draws each recorded step from the exact law
    of its substeps' sum on a linear drift: at one substep the two agree to
    rounding on the same normals, and at more they agree in law.
    """
    x = np.asarray(x0, dtype=float)
    states = [x]
    for block in normals:
        for j in range(block.shape[1]):
            x = x - h * grad(x) + scale * (sigma @ block[:, j, :, None])[:, :, 0]
        states.append(x)
    return np.array(states)


def gaussian_sgd_per_step(model, config, streams, m: int) -> np.ndarray:
    """The (K+1, R, p) states of Gaussian SGD on one config, with one
    ``standard_normal`` call per replication and step.

    ``run_gaussian_sgd`` draws a row's normals for a block of steps in one
    call and runs a grid of configs in lockstep; the draws and the
    arithmetic are the same, so the two must agree bit for bit.
    """
    x = np.tile(config.x0, (len(streams), 1))
    scale = config.gamma / math.sqrt(m)
    states = [x]
    for _ in range(config.num_steps):
        factor = model.noise_factor(x)
        z = np.stack([s.generator.standard_normal(factor.shape[-1]) for s in streams])
        x = x - config.gamma * model.grad_objective(x) + scale * (factor @ z[..., None])[..., 0]
        states.append(x)
    return np.array(states)


def diffusion_em_per_step(model, config, substeps: int, streams, m: int) -> np.ndarray:
    """The (K+1, R, p) states of Euler-Maruyama on one config, R = `substeps`
    steps of size h = gamma/R per recorded step taken one at a time by
    ``em_path``, on one (substeps, q) ``standard_normal`` call per
    replication and recorded step.

    The law reference of ``run_diffusion_em``, which draws each recorded
    step's sum of substeps from its exact law, q normals per replication:
    on other streams the two agree in law, not in bits.
    """
    sigma = model.noise_factor(model.minimizer)
    h = config.gamma / substeps
    normals = [np.stack([s.generator.standard_normal((substeps, sigma.shape[1]))
                         for s in streams])
               for _ in range(config.num_steps)]
    return em_path(model.grad_objective, sigma, np.tile(config.x0, (len(streams), 1)), h,
                   math.sqrt(config.gamma / m) * math.sqrt(h), normals)


def diffusion_em_replay(model, config, substeps: int, streams, m: int) -> np.ndarray:
    """The (K+1, R, p) states of ``run_diffusion_em`` on one config, with one
    (q,) ``standard_normal`` call per replication and recorded step:
    x* + a^R (x - x*) + c sqrt(S_R) sigma z with a = 1 - lam h, c =
    sqrt(gamma/m) sqrt(h) and S_R = sum_{j<R} a^(2j).  The runner's
    arithmetic and the draws of a block of one step, so the two must agree
    bit for bit."""
    lam, x_star = model.strong_convexity, model.minimizer
    factor_t = model.noise_factor(x_star).T
    h = config.gamma / substeps
    a = 1.0 - lam * h
    sum_sq = math.fsum(a ** (2 * j) for j in range(substeps))
    decay, scale = a**substeps, math.sqrt(config.gamma / m) * math.sqrt(h) * math.sqrt(sum_sq)
    x = np.tile(config.x0, (len(streams), 1))
    states = [x]
    for _ in range(config.num_steps):
        z = np.stack([s.generator.standard_normal(factor_t.shape[0]) for s in streams])
        x = x_star + decay * (x - x_star) + scale * (z @ factor_t)
        states.append(x)
    return np.array(states)


def quadratic_data_path(model):
    """The quadratic `model` on its Gaussian data path, rebuilt from its
    theta* and s: ``sample_data`` draws u = theta* + s z, z ~ N(0, I_p), per
    stream, ``grad_loss`` is theta - u, and ``sample_weighted_grad`` is None.

    The law reference of the quadratic ``sample_weighted_grad``, and through
    ``run_msgd`` and ``clt_error_samples``, which then draw n data a step,
    an independent data-path M-SGD on the same objective and noise factor.
    """
    p, theta_star = model.dim, model.minimizer
    s = float(model.noise_factor(theta_star)[0, 0])

    def sample_data(streams, count, out=None):
        block = np.empty((len(streams), count, p)) if out is None else out
        for row, stream in zip(block, streams):
            stream.generator.standard_normal(out=row)
        block *= s
        block += theta_star
        return block

    def grad_loss(theta, data):
        return np.asarray(theta, dtype=float)[..., None, :] - data

    return dataclasses.replace(model, sample_data=sample_data, grad_loss=grad_loss,
                               sample_weighted_grad=None)


def _quadratic_msgd(model, config, streams, draw) -> np.ndarray:
    """The (K+1, R, p) states of quadratic M-SGD on one config,
    x - gamma ((x - theta*) sum w - s |w| zeta), where ``draw(stream)`` gives
    a replication's (K, 2) rows (sum w, |w|^2) and (K, p) zeta."""
    x_star, s = model.minimizer, model.noise_factor(model.minimizer)[0, 0]
    norms, zeta = (np.array(block) for block in zip(*map(draw, streams)))
    x = np.tile(config.x0, (len(streams), 1))
    states = [x]
    for k in range(config.num_steps):
        x = x - config.gamma * ((x - x_star) * norms[:, k, :1]
                                - s * np.sqrt(norms[:, k, 1:]) * zeta[:, k])
        states.append(x)
    return np.array(states)


def msgd_per_step(model, scheme, config, streams) -> np.ndarray:
    """The (K+1, R, p) states of quadratic M-SGD on one config, one step at a
    time: per replication and step, one ``chisquare`` variate (normal-base
    gaussian weights) or one ``sample_weight_values`` row, then one p-normal
    ``standard_normal`` call.

    ``run_msgd`` draws a block of steps per call; with one step per block its
    draws and arithmetic are these, so the two must agree bit for bit.
    """
    n, m = scheme.n, scheme.m

    def draw(stream):
        norms, zeta = [], []
        for _ in range(config.num_steps):
            if scheme.kind == "gaussian" and scheme.base == "normal":
                chi2 = stream.generator.chisquare(n - 1)
                norms.append([1.0, chi2 * gaussian_scale_squared(n, m) + 1.0 / n])
            else:
                [w] = sample_weight_values([stream], scheme)
                norms.append([w.sum(), w @ w])
            zeta.append(stream.generator.standard_normal(model.dim))
        return norms, zeta

    return _quadratic_msgd(model, config, streams, draw)


def msgd_per_block(model, scheme, config, streams, block: int) -> np.ndarray:
    """The (K+1, R, p) states of quadratic M-SGD on one config, each
    replication drawing blocks of steps that start at steps 0, `block`,
    2 `block`, ... and stop at its last step K: per block of c steps, its c
    weight norms in one call (``chisquare(n - 1, size=c)``, or c
    ``sample_weight_values`` rows reduced one at a time), then its (c, p)
    zeta in one ``standard_normal`` call.  ``run_msgd`` at ``BLOCK_STEPS =
    block`` must agree bit for bit, on a grid or alone."""
    n, m = scheme.n, scheme.m

    def draw(stream):
        norms, zeta = [], []
        for start in range(0, config.num_steps, block):
            count = min(block, config.num_steps - start)
            if scheme.kind == "gaussian" and scheme.base == "normal":
                chi2 = stream.generator.chisquare(n - 1, size=count)
                norms += [[1.0, c * gaussian_scale_squared(n, m) + 1.0 / n] for c in chi2]
            else:
                norms += [[w.sum(), w @ w]
                          for w in sample_weight_values([stream] * count, scheme)]
            zeta += list(stream.generator.standard_normal((count, model.dim)))
        return norms, zeta

    return _quadratic_msgd(model, config, streams, draw)


def csv_cell(value) -> str:
    """One CSV cell as msgdlab writes it: a float (numpy's too) in round-trip
    ``.17g``, anything else as ``str`` gives it.  The reference the table
    writer's per-row ``%`` formats must reproduce byte for byte."""
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def weighting_gap_per_replication(model, scheme, theta, reps: int, stream):
    """The data-path reference for ``stats.weighting_gap``: the (reps,) raw
    squared gaps |sqrt(m)(sum_i w_i grad l(theta, u_i) - grad g(theta)) -
    sqrt(n)(avg_i grad l(theta, u_i) - grad g(theta))|^2 from ``grad_loss``
    and ``weighted_sum`` on drawn data, and the (reps, n) weights they used.

    Replication r draws its weights on ``stream.child("rep", r)``, the draw
    ``weighting_gap`` makes, and then its n data on the same stream.  The
    data are iid and independent of the weights, so given row r's weights the
    raw gap's expectation is Tr sigma^2 |a_r|^2, a_i = sqrt(m) w_i - 1/sqrt(n).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    grad_mean = model.grad_objective(theta)
    streams = stream.children("rep", stop=reps)
    w = sample_weights(streams, scheme)
    grads = model.grad_loss(theta, model.sample_data(streams, scheme.n))
    diff = (math.sqrt(scheme.m) * (weighted_sum(w, grads) - grad_mean)
            - math.sqrt(scheme.n) * (grads.mean(axis=1) - grad_mean))
    return np.sum(diff * diff, axis=-1), w


def clt_error_full_rows(model, scheme, theta, reps: int, stream) -> np.ndarray:
    """The (reps, p) rows sqrt(m) (sum_i w_i grad l(theta, u_i) - grad g(theta))
    on the full weight rows: replication r draws n data and then an (n,)
    ``sample_weights`` row on ``stream.child("rep", r)``.

    The law reference of ``stats.clt_error_samples``, which reads only the
    ``sample_weight_values`` row of the weights and ``scheme.support`` data:
    the data are iid and independent of the weights, so the two agree in
    law, and bit for bit for every law whose value row is its full row.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    streams = stream.children("rep", stop=reps)
    data = model.sample_data(streams, scheme.n)
    grads = model.weighted_grad(theta, data, sample_weights(streams, scheme))
    return math.sqrt(scheme.m) * (grads - model.grad_objective(theta))


def gamma_boost(stream, shape: float, size) -> np.ndarray:
    """Gamma(shape) variates as ``gamma`` draws them, boosted below shape 1 by
    G(a) = G(a + 1) U^(1/a) with fresh arrays at every step: the reference
    ``numerics.sample_gamma`` must equal bit for bit."""
    gen = stream.generator
    if shape >= 1.0:
        return gen.gamma(shape, size=size)
    g = gen.gamma(shape + 1.0, size=size)
    u = gen.random(size)
    return g * u ** (1.0 / shape)
