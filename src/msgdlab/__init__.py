"""Simulation laboratory for multiplicatively-weighted SGD.

The package compares five processes started from a common point: plain
gradient descent, SGD with scaled Gaussian noise, SGD whose per-datum
gradients are combined with a random weight vector matching minibatch
moments, the gradient-flow ODE, and the small-step diffusion limit.  It
ships the statistical machinery (error-distribution tests, empirical
Wasserstein-2 distances, contraction-rate fits) used to verify how close
these processes stay to one another.
"""

from .dynamics import (
    DivergenceError,
    Lockstep,
    RunConfig,
    run_diffusion_em,
    run_gaussian_sgd,
    run_gd,
    run_msgd,
    run_ode,
)
from .models import (
    LossModel,
    generate_logistic_dataset,
    make_logistic_model,
    make_quadratic_model,
    make_uniform_clt_model,
)
from .numerics import RngStream, derive_stream, sample_gamma
from .stats import (
    clt_error_samples,
    contraction_bound,
    contraction_fit,
    convergence_curve,
    ks_normality,
    sliced_w2,
    weighting_gap,
)
from .weights import (
    WeightScheme,
    empirical_weight_moments,
    sample_weights,
    sigma_entries,
)

__version__ = "0.1.0"
