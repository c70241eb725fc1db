"""Artifact bytes of one tiny config per command, pinned by sha256.

Each config runs through ``validate_config`` + ``run_experiment`` and the
whole output directory is hashed (file names and contents, in name order).
The digests were recorded before the samplers drew whole ensembles at once,
so a change to any sampler, runner or reduction that moves a single bit of
any artifact fails here.  ``weights-moments`` was re-recorded when
``weight_moments.csv`` lost its two ``m32_sum_cube`` columns; its
``report.json`` and every other column kept their bytes.  ``weighting-gap`` is in no benchmark workload, so
this is its only byte guard.  The two ``-grid`` configs were recorded
while every step size still ran on its own, before the runners advanced a
step-size grid in lockstep.

Every digest was re-recorded once more when the check bounds left the
config schema for ``cli.BOUNDS``: each ``report.json`` echoes the resolved
config under ``resolved``, which lost the bound keys (``thresholds``,
``ks_threshold``, ``cov_sigmas``, ``bins``, ``sigmas``, ``slack``,
``slope_range``, ``rho_tolerance``, ``blocks``).  Every CSV and every check
record kept its bytes, and each ``report.json`` equals the old one with
those keys deleted from ``resolved`` and re-dumped.

``converge-logistic`` was re-recorded alone when logistic M-SGD began to
reduce its weighted gradient in the fused form X_d^T (w * r) + 2 kappa beta
sum_i w_i instead of summing the per-datum gradients: only the summation
order moved, and its CSVs moved by at most 1.9e-15 relative.

``gd-ode`` and ``gd-ode-grid`` were re-recorded when ``run_ode`` replaced
its fourth-order integrator by the exact flow map of the quadratic model,
one step x* + e^(-gamma) (x - x*) per recorded step: the integrator's
error left the ODE states, so ``gd_ode.csv`` and the checks' observed
values moved at roundoff scale and no pass flag changed.  ``gd-ode-grid``
also lost ``"ode_substeps": 12``, a key the exact flow has no use for.

``wass-scaling`` and ``wass-scaling-grid`` were re-recorded when
``run_diffusion_em`` began to sum each recorded step's Euler-Maruyama
substeps in closed form, x* + a^R (x - x*) + c sigma sum_j a^(R-1-j) z_j,
instead of taking them one at a time: the same iterate on the same
normals, summed in another order, so ``wass_scaling.csv`` and the checks'
observed values moved at roundoff scale (at most 1.3e-13 relative) and no
pass flag changed.

``converge-logistic`` was re-recorded alone once more when the fused
logistic kernel began to gather signed rows s_i x_i, s_i = 2 y_i - 1, and
to take the residual as -s / (1 + e^(s z)) instead of sigmoid(z) - y: the
same quantity, rounded differently, so its CSVs moved by at most 3.75e-15
relative (``tools/artifact_diff.py``) and no pass flag changed.

``converge-logistic`` was re-recorded alone for new draws, not for
roundoff, when its kappa grid became one M-SGD ensemble on common random
numbers: replication r of run i draws its data and weights once per step
from ``(..., i, "rep", r)``, and every kappa's iterate steps on that draw,
where each kappa used to draw its own copy from ``(..., i, j, "rep", r)``.
Each kappa's law is unchanged, but every value in its CSVs and checks moved
by sampling noise; every check still passes.

``converge-logistic`` was re-recorded alone, for roundoff alone, when the
fused logistic kernel laid its residuals out as (K, n), one contiguous row
per kappa, computing beta S_d^T and (w / (1 + e^q)) S_d with no transposed
product, and the jackknife began to fit every leave-one-out curve in one
``np.polyfit`` call: the same sums, rounded differently, so its CSVs and
the checks' observed values moved by at most 2.69e-15 relative
(``tools/artifact_diff.py``) and no pass flag changed.

``weights-moments`` was re-recorded, for roundoff alone, when its checks
began to be built from the per-replication columns of
``empirical_weight_moments``: the mean of w_1 is now ``np.mean`` of the
column, not a running sum over replications, and the variance and
covariance SEs come from ``stats.covariance_with_se``, the same formulas
rounded differently.  Its CSV and the checks' observed values and
tolerances moved by at most 7.26e-15 relative (``tools/artifact_diff.py``)
and no pass flag changed.

``gd-ode`` and ``gd-ode-grid`` were re-recorded when gd-ode's quadratic
model lost the noise scale ``s``, which gradient descent and the flow never
read: ``gd-ode``'s report no longer echoes the default ``"s": 1.0`` under
``resolved``, and ``gd-ode-grid`` lost its ``"s": 1.0``, so its CSV's config
line and its report's ``config`` and ``resolved`` changed.  Every other
line and every check kept its bytes.

``clt``, ``weights-moments``, ``weighting-gap``, ``converge-quadratic`` and
``wass-scaling-grid``, the configs that draw minibatch weights, were
re-recorded for new draws, not for roundoff, when the minibatch subset
became numpy's ``Generator.choice(n, m, replace=False, shuffle=False)`` in
place of a replay of a partial Fisher-Yates swap loop: the same uniform law
on m-subsets, so every value drawn from it moved by sampling noise, as
``converge-logistic``'s did when its kappa grid began to share draws.
``weights-moments`` also takes the SE of every scheme's mean of w_1 as
``std(ddof=1) / sqrt(reps)`` (``stats.mean_with_se``), where it was the
ddof-0 ``sqrt(cov_00 / reps)``.  ``wass-scaling-grid``, 20 replications
at three step sizes, failed its ``loglog_slope`` check on the old draws and
passes it on the new.

``weighting-gap`` was re-recorded alone when its ``model`` and ``theta`` keys
gave way to a top-level ``p``: the gap's verdict, (estimate - analytic) /
SE, is the same at every theta, theta* and s, so the command runs the plane
model (theta* = 0, s = 1) at ones, the old defaults.  Its report echoes
``"p": 2`` in place of the default ``model`` under ``resolved``; its CSV and
every check kept their bytes.

``converge-quadratic``, ``wass-scaling`` and ``wass-scaling-grid`` were
re-recorded, for roundoff alone, when quadratic M-SGD began to reduce its
weighted gradient in the fused form theta sum_i w_i - sum_i w_i u_i instead
of summing the per-datum gradients theta - u_i: the same sum, rounded
differently, so the M-SGD CSVs moved by at most 6.9e-15 relative, the
checks' observed values by at most 1.6e-15, targets and tolerances not at
all (``tools/artifact_diff.py``), and no pass flag changed.  The Gaussian
SGD and Euler-Maruyama states, whose normals began to be drawn a block of
steps at a time in the same release, kept their bytes.

``weighting-gap`` was re-recorded alone when its verdict began to be taken
from its expectation given the weights: the data are iid and independent of
w, so given w the squared gap's expectation is Tr sigma^2 |a|^2, a_i =
sqrt(m) w_i - 1/sqrt(n), and the command now judges the mean of |a|^2 per
unit of Tr sigma^2, drawing weights alone.  Every estimate, SE and analytic
value in its CSV and checks moved (new draws, no data normals, no factor
Tr sigma^2 = 2), every tolerance gained the 1e-12 roundoff floor, and its
report no longer echoes ``"p": 2`` under ``resolved``; every check still
passes.  ``weights-moments``, whose draws it shares, kept its bytes.

``converge-quadratic``, ``wass-scaling`` and ``wass-scaling-grid`` were
re-recorded for new draws, not for roundoff, when quadratic M-SGD began to
draw its weighted gradient from its exact law given the weights, (theta -
theta*) sum_i w_i - s |w| zeta with p standard normals zeta per replication
and step, drawn after the weights, instead of drawing n p data normals
before the weights and reducing them: the same law, so every M-SGD value
in their CSVs and checks moved by sampling noise, and no check's verdict
changed.  ``wass_scaling.csv`` also lost its ``coordinate_average`` rows,
which no check read; its ``sliced`` rows are the only ones left.  The
Gaussian SGD and Euler-Maruyama states kept their bytes.

``wass-scaling`` and ``wass-scaling-grid`` were re-recorded for the header
of ``wass_scaling.csv`` alone when it lost its ``method``, ``n_directions``
and ``reps`` columns, which held one value on every row (``sliced`` and the
config's own ``n_directions`` and ``reps``, which the CSV's config line and
the report's ``resolved`` echo): its ``gamma`` and ``w2sq`` cells, its
config line and every check kept their bytes.

``converge-quadratic-gaussian`` guards quadratic M-SGD under normal-base
gaussian weights, the default scheme, which no other entry runs
(``wass-scaling`` is Dirichlet, ``converge-quadratic`` and
``wass-scaling-grid`` are minibatch).  There the weights reach a step only
through (sum w, |w|^2) = (1, c^2 chi^2_(n-1) + 1/n), drawn in closed form
by ``weights.sample_weight_norms``, one ``chisquare`` variate per
replication and step, where every other law draws its full rows.  It was
recorded with that draw.  Its start, (4, 4), sits far above the plateau, so
the fit window's curve is the contraction; from the default start of ones
the plateau is a sizeable part of the window's curve at m = 8, and both
processes fail ``rho_hat`` (0.66 and 0.69 against 0.64 +- 0.02).

``wass-scaling`` and ``wass-scaling-grid`` were re-recorded for new draws,
not for roundoff, when ``run_diffusion_em`` began to draw each recorded
step's sum of R Euler-Maruyama substeps from its exact law given the state,
x* + a^R (x - x*) + c sqrt(S_R) sigma z with S_R = sum_{j<R} a^(2j), from
q normals per replication and step, instead of summing R blocks of q
normals: the same law of the recorded states, so every Euler-Maruyama
value, and every ``w2sq`` cell and check built on it, moved by sampling
noise.  The M-SGD states kept their bytes.  ``wass-scaling``, 30
replications at two step sizes, now fails ``loglog_slope``: its W2^2 at
gamma = 0.125 went 6.80e-4 -> 1.68e-3, the estimator's noise at 30
replications, so the slope went 2.088 -> 0.660 against [0.8, 2.2].  The
config is left as it was; like ``clt``'s, its failure names noise at a tiny
size, not the claim.  ``wass-scaling-grid`` still passes (slope 0.882 ->
1.482).

Each entry is (config, digest, failing check names).  The failing names are
asserted before the digest, so a verdict that flips fails by name and reads
apart from a byte change; a tiny config's verdict can be noise (``clt``,
200 samples, fails both KS checks), so a flip is re-recorded only with its
cause.  Every report's check names must be unique.
"""

from __future__ import annotations

import hashlib

import pytest

from msgdlab.cli import run_experiment, validate_config

GOLDEN = {
    "clt": (
        {"command": "clt", "seed": 11, "n": 300, "m": 60, "samples": 200, "p": 2,
         "scheme": {"kind": "minibatch"}},
        "b472736c7316473b7845c1537f8759804a9795b5bde889e6037f45e687e2c41e",
        ["ks_coord1", "ks_coord2"],
    ),
    "weights-moments": (
        {"command": "weights-moments", "seed": 11, "n": 60, "m": 12, "reps": 150,
         "schemes": [
             {"kind": "minibatch"}, {"kind": "gaussian"},
             {"kind": "gaussian", "base": "rademacher"},
             {"kind": "gaussian", "base": "uniform"}, {"kind": "dirichlet"},
         ]},
        "a733c5682b0bbda17c7ac7c7c71a9a0a83c931ff2c7c45209a9109b4aa13fdeb",
        [],
    ),
    "weighting-gap": (
        {"command": "weighting-gap", "seed": 11, "pairs": [[80, 20], [80, 70]],
         "reps": 1000},
        "7662500bdc796e801ff6829c0d0cdc2662f23f9d44daeed2ded9d2e9e0440ac2",
        [],
    ),
    "wass-scaling": (
        {"command": "wass-scaling", "seed": 11, "gammas": [0.25, 0.125], "reps": 30,
         "n": 64, "m": 8, "n_directions": 16, "em_substeps": 10,
         "scheme": {"kind": "dirichlet"}},
        "fdb7e390235da8609f076d9291223772a628cf2e4df37c9f5a88b961d2b47177",
        ["loglog_slope"],
    ),
    "converge-quadratic": (
        {"command": "converge", "seed": 11,
         "model": {"kind": "quadratic", "p": 2, "s": 1.0, "theta_star": [0.0, 0.5]},
         "n": 5000, "m": 50, "reps": 20, "scheme": {"kind": "minibatch"},
         "runs": [{"gamma": 0.2, "num_steps": 30, "fit_window": 8}]},
        "e640ef942753b7bbfe0017a4b25d71f5ecbdd979407346a2e1d98adbd994938d",
        [],
    ),
    # the default scheme, normal-base gaussian weights, started far above the plateau
    "converge-quadratic-gaussian": (
        {"command": "converge", "seed": 11,
         "model": {"kind": "quadratic", "p": 2, "s": 1.0, "theta_star": [0.0, 0.5]},
         "n": 64, "m": 8, "reps": 20, "x0": [4.0, 4.0],
         "runs": [{"gamma": 0.2, "num_steps": 30, "fit_window": 8}]},
        "8e8cae5d938d4efcf65e6f641771cb672f3911130058dba76fbe094c1d851335",
        [],
    ),
    "converge-logistic": (
        {"command": "converge", "seed": 11, "model": {"kind": "logistic", "p": 3, "t": 500},
         "n": 2000, "m": 20, "reps": 10, "kappas": [0.2, 0.05],
         "runs": [{"gamma": 0.5, "num_steps": 16, "fit_window": 4}]},
        "eacf27b289868a9526ca32c9ed94f395d3423b496231c39e26d26c8a1e0cc5e0",
        [],
    ),
    "gd-ode": (
        {"command": "gd-ode", "seed": 11, "gammas": [0.1, 0.05], "x0": [1.0]},
        "910bb960e9bfdce26a51106c5fef7a47ec342233ff7f3acaae3617909e0255d1",
        [],
    ),
    # unsorted grids of three step sizes with unequal step counts
    "wass-scaling-grid": (
        {"command": "wass-scaling", "seed": 11, "gammas": [0.125, 0.25, 0.0625], "reps": 20,
         "n": 48, "m": 6, "n_directions": 8, "em_substeps": 6, "scheme": {"kind": "minibatch"},
         "model": {"kind": "quadratic", "p": 2, "s": 0.5, "theta_star": [0.5, -0.5]}},
        "90e4c68082dc83240b935b1b627384680daf1fe294444c7f4723fbb5bf5f82f9",
        [],
    ),
    "gd-ode-grid": (
        {"command": "gd-ode", "seed": 11, "gammas": [0.05, 0.2, 0.1], "x0": [2.0, -1.0],
         "horizon": 0.8,
         "model": {"kind": "quadratic", "p": 2, "theta_star": [0.5, 0.0]}},
        "0def8d96bfc49fd4391f03438373e8b28096e39815548ea96bb40868016d8e13",
        [],
    ),
}


def directory_digest(directory) -> str:
    """sha256 over every file's name and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_bytes_match_golden(name, tmp_path):
    raw, expected, failing = GOLDEN[name]
    checks = run_experiment(validate_config(raw), tmp_path).checks
    names = [check.name for check in checks]
    assert len(set(names)) == len(names), names
    # a verdict flip fails here by name, apart from any byte change
    assert [check.name for check in checks if not check.passed] == failing
    assert directory_digest(tmp_path) == expected
