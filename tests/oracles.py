"""Independent oracles the tests compare the package against."""

import math
from typing import Callable

import numpy as np
from scipy.special import gammaln


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

    The oracle for ``run_ode``, which takes substeps of h inside each step
    of its config and records only every substeps-th state; the coefficients
    are formed as 0.5*h, h and h/6, so the two agree to the last bit.
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
