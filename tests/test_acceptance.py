"""Acceptance suite: one test per headline claim, at full scale.

Every test drives the CLI runner with the canonical configuration for its
claim, read from ``configs/``, asserts the report's overall verdict, and
prints one summary line (run with ``pytest -s`` to see the lines as they
pass).  Tolerances are pinned here; nothing is recalibrated at runtime.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import msgdlab.dynamics as dynamics_mod
import msgdlab.weights as weights_mod
from msgdlab.cli import run_experiment, validate_config

SEED = 20260808
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def canonical(name: str) -> dict:
    """The shipped config ``configs/<name>.json``."""
    return json.loads((CONFIGS / f"{name}.json").read_text())


def _run(label: str, raw: dict, out_dir: Path):
    report = run_experiment(validate_config(raw), out_dir)
    verdict = "PASS" if report.overall_pass else "FAIL"
    worst = ""
    if not report.overall_pass:
        failed = [c.name for c in report.checks if not c.passed]
        worst = f"  failing: {failed}"
    print(f"[{label}] {verdict} ({len(report.checks)} checks){worst}")
    assert report.overall_pass, [c.as_dict() for c in report.checks if not c.passed]
    return report


def test_a1_weight_moments(tmp_path):
    """All three weight schemes match the minibatch moment targets.

    n=2000, m=400, 2e4 draws: per-coordinate mean within 4 SE of 1/n,
    variance within 4 SE of (n-m)/(m n^2), pair covariance within 4 SE of
    -(n-m)/(m n^2 (n-1)), and m*sum(w^2) within 3 SE of 1.
    """
    _run("A1 weight moments", canonical("weight_moments"), tmp_path)


def test_a2_dirichlet_error_is_gaussian(tmp_path):
    """Dirichlet-weighted error, p=1, n=1e4, m=2000, 1e4 samples.

    KS distance to N(0, 1/3) at most 0.03 (threshold sits above the 1%
    critical value 0.0163 to absorb finite-(n, m) distributional error;
    pilot value 0.0054).  Also writes the plot-ready histogram CSV.
    """
    report = _run("A2 dirichlet error normality", canonical("clt_dirichlet_p1"), tmp_path)
    assert "hist_coord1.csv" in report.files


def test_a3_gaussian_weights_p6(tmp_path):
    """Gaussian-structured weights, p=6: every coordinate projection is
    normal (same KS threshold) and the error covariance is (1/3) I
    entrywise within 4 SE."""
    report = _run("A3 gaussian-structured error normality p=6", canonical("clt_gaussian_p6"),
                  tmp_path)
    hist_files = [name for name in report.files if name.startswith("hist_coord")]
    assert len(hist_files) == 6


def test_a4_error_normality_is_scheme_universal(tmp_path):
    """The same normality verdict holds for minibatch weights and for
    Rademacher-based structured weights at identical (n, m)."""
    _run("A4 universality: minibatch", canonical("clt_minibatch_p1"), tmp_path / "minibatch")
    _run("A4 universality: rademacher", canonical("clt_rademacher_p1"),
         tmp_path / "rademacher")


def test_a5_weighting_gap_identity(tmp_path):
    """E|weighted error - plain-average error|^2 = 2(1 - sqrt(m/n)) Tr sigma^2.

    Per unit of Tr sigma^2, by its expectation given the weights, the mean
    of |a|^2 = m sum w^2 - 2 sqrt(m/n) sum w + 1 over 1,500 draws, at
    (n, m) = (1e4, 2500) and (1e4, 9000) for all three schemes: within
    3 SE + 1e-12 of the exact value (1.0 and 0.1026 respectively).
    """
    _run("A5 weighting-gap identity", canonical("weighting_gap"), tmp_path)


def test_a5_gap_fails_the_dirichlet_alpha_mutant(tmp_path, monkeypatch):
    """The identity has power: with the Dirichlet concentration 1.1 times
    too large, both Dirichlet checks of the canonical config fail, and the
    four checks of the other schemes still pass."""
    alpha = weights_mod.dirichlet_alpha
    monkeypatch.setattr(weights_mod, "dirichlet_alpha", lambda n, m: 1.1 * alpha(n, m))
    report = run_experiment(validate_config(canonical("weighting_gap")), tmp_path)
    failing = [check.name for check in report.checks if not check.passed]
    print(f"[A5 dirichlet alpha x 1.1] failing: {failing}")
    assert len(report.checks) == 6
    assert failing == ["dirichlet:n10000:m2500", "dirichlet:n10000:m9000"]


def test_a6_wasserstein_step_size_scaling(tmp_path):
    """Sliced W2^2 between the weighted-SGD ensemble and the diffusion
    ensemble at t = T shrinks with the step size.

    Quadratic p=2, s=1, T=1, m=64, n=512, 500 replications per process,
    gamma in {0.2, 0.1, 0.05, 0.025}: nonincreasing up to 10% slack and
    log-log slope in [0.8, 2.2] (pilot slope 2.01).
    """
    _run("A6 Wasserstein scaling", canonical("wass_scaling"), tmp_path / "r50")
    # doubling the integrator substeps draws the same normals, so it moves the
    # estimates only through the coefficients, by about 2 % at this seed, and
    # flips no verdict: the default discretization is not what the scaling
    # checks are measuring
    _run("A6 Wasserstein scaling (doubled substeps)",
         canonical("wass_scaling") | {"em_substeps": 100}, tmp_path / "r100")
    r50, r100 = (np.loadtxt(tmp_path / run / "wass_scaling.csv", delimiter=",", skiprows=3)
                 for run in ("r50", "r100"))
    assert np.all(np.abs(r100[:, 1] / r50[:, 1] - 1) < 0.05)


def test_a7_strong_convexity_rate(tmp_path):
    """Gaussian-noise SGD and weighted SGD on the quadratic contract
    geometrically and plateau below the noise-level bound.

    p=1, lambda=L=s=1, gamma=0.1, m=50, K=200, 500 replications
    (weighted run uses n=500 with gaussian-structured weights): the mean
    optimality-gap curve stays within 4 SE of the exact recursion
    a_{k+1} = (1-gamma)^2 a_k + gamma^2/(2m), the fitted contraction
    factor is within 0.02 of (1-gamma)^2 = 0.81, and the tail mean is
    below L*gamma*||sigma(x*)||_F^2 / (m*lambda*(2-L*gamma)).
    """
    _run("A7 strong-convexity rate", canonical("converge_quadratic"), tmp_path)


@pytest.mark.parametrize("scale", [0.0, 0.25], ids=["gd", "quarter-variance"])
def test_a7_rate_fails_the_noise_mutants(tmp_path, monkeypatch, scale):
    """The recursion check has power: with |w|^2 scaled by 0 (M-SGD is then
    gradient descent) or by 1/4 (a quarter of the noise variance), the
    canonical config fails ``msgd:recursion_max_dev`` and no other check."""
    norms = dynamics_mod.sample_weight_norms

    def mutant(*args):
        block = norms(*args)
        block[..., 1] *= scale
        return block

    monkeypatch.setattr(dynamics_mod, "sample_weight_norms", mutant)
    report = run_experiment(validate_config(canonical("converge_quadratic")), tmp_path)
    failing = [check.name for check in report.checks if not check.passed]
    print(f"[A7 |w|^2 x {scale}] failing: {failing}")
    assert len(report.checks) == 6
    assert failing == ["msgd:recursion_max_dev"]


def test_a8_logistic_mse_curves(tmp_path):
    """Ridge-logistic MSE curves decrease to a plateau and contract faster
    for larger penalties.

    p=6, t=1e4, n=1e3, m=10, kappa in {.2, .1, .05, .01, .001}, gamma in
    {.5, .1}, gaussian-structured weights, 100 replications, each drawing
    its data and weights once per step for every kappa.  Per curve: block
    means nonincreasing within noise, tail below half the start, flat tail;
    across curves: fitted contraction factors ordered in kappa, with a tie
    allowance of 2 hypot of the two factors' jackknife SEs, which the
    shared draws make conservative.
    """
    _run("A8 logistic MSE replication", canonical("converge_logistic"), tmp_path)


def test_a9_gd_tracks_gradient_flow(tmp_path):
    """GD iterates track the gradient-flow solution at first order.

    Quadratic p=1, x0=1, T=1, gamma in {0.1, 0.05, 0.025, 0.0125}: the
    uniform gap obeys |grad g(x0)| e^{LT} K gamma^2 (1+L gamma)^K and the
    final gap scales linearly (slope in [0.8, 1.2]; pilot 1.018).
    """
    _run("A9 gd vs gradient flow", canonical("gd_ode"), tmp_path)


DETERMINISM_CONFIGS = {
    "weights-moments": {
        "command": "weights-moments", "seed": SEED, "n": 400, "m": 80, "reps": 500,
    },
    "clt": {
        "command": "clt", "seed": SEED, "n": 1000, "m": 200, "samples": 400,
    },
    "weighting-gap": {
        "command": "weighting-gap", "seed": SEED, "pairs": [[500, 125]], "reps": 1000,
    },
    "wass-scaling": {
        "command": "wass-scaling", "seed": SEED, "gammas": [0.2, 0.1], "reps": 60,
        "n": 128, "m": 16, "n_directions": 32, "em_substeps": 20,
    },
    "converge": {
        "command": "converge", "seed": SEED,
        "model": {"kind": "quadratic", "p": 1, "s": 1.0, "theta_star": [0.0]},
        "n": 100, "m": 20, "reps": 60,
        "runs": [{"gamma": 0.1, "num_steps": 80, "fit_window": 15}],
    },
    "gd-ode": {
        "command": "gd-ode", "seed": SEED, "gammas": [0.1, 0.05], "x0": [1.0],
    },
}


def test_a10_byte_determinism_across_threads(tmp_path, monkeypatch):
    """Every command, rerun with the same seed at the default chunk size and
    with one replication per chunk, produces byte-identical CSV and JSON
    artifacts.  (The name predates the thread pool's removal; the chunk size
    is now the execution setting that varies.)"""
    for command, raw in DETERMINISM_CONFIGS.items():
        dir_default = tmp_path / command / "default"
        dir_single = tmp_path / command / "one"
        run_experiment(validate_config(raw), dir_default)
        with monkeypatch.context() as patch:
            patch.setattr(dynamics_mod, "CHUNK_ELEMENTS", 1)
            run_experiment(validate_config(raw), dir_single)
        names = sorted(p.name for p in dir_default.iterdir())
        assert names == sorted(p.name for p in dir_single.iterdir())
        assert names, f"{command} wrote no artifacts"
        for name in names:
            a = (dir_default / name).read_bytes()
            b = (dir_single / name).read_bytes()
            assert a == b, f"{command}/{name} differs between chunk sizes"
    print(f"[A10 determinism] PASS ({len(DETERMINISM_CONFIGS)} commands, default chunk vs 1)")


def test_reports_expose_tolerances(tmp_path):
    """Every acceptance-style report pins name/observed/target/tolerance
    per check so the verdict is auditable from the artifact alone."""
    report = _run("report schema", DETERMINISM_CONFIGS["gd-ode"], tmp_path)
    payload = json.loads((tmp_path / "report.json").read_text())
    for check in payload["checks"]:
        assert set(check) == {"name", "observed", "target", "tolerance", "comparison", "pass"}
