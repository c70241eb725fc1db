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
"""

from __future__ import annotations

import hashlib

import pytest

from msgdlab.cli import run_experiment, validate_config

GOLDEN = {
    "clt": (
        {"command": "clt", "seed": 11, "n": 300, "m": 60, "samples": 200, "p": 2,
         "scheme": {"kind": "minibatch"}},
        "fc034a675bf310fa153a498f69e79aa66f2c9242bf039f56db25e2e27ef5dfc9",
    ),
    "weights-moments": (
        {"command": "weights-moments", "seed": 11, "n": 60, "m": 12, "reps": 150,
         "schemes": [
             {"kind": "minibatch"}, {"kind": "gaussian"},
             {"kind": "gaussian", "base": "rademacher"},
             {"kind": "gaussian", "base": "uniform"}, {"kind": "dirichlet"},
         ]},
        "82b607b5fb0b9f64d217123f32739b0caa8e231f103e99a0eb7aa4fc869a3089",
    ),
    "weighting-gap": (
        {"command": "weighting-gap", "seed": 11, "pairs": [[80, 20], [80, 70]],
         "reps": 1000},
        "35a7002e5f70199132d5ad1c4c4b735e0f9bac0577800ffb7abfb84e1b3f40cb",
    ),
    "wass-scaling": (
        {"command": "wass-scaling", "seed": 11, "gammas": [0.25, 0.125], "reps": 30,
         "n": 64, "m": 8, "n_directions": 16, "em_substeps": 10,
         "scheme": {"kind": "dirichlet"}},
        "616b8cc4fbc1be4760ae1f1e411410ec20ec1db06219d1bdfe9894a2aa31b900",
    ),
    "converge-quadratic": (
        {"command": "converge", "seed": 11,
         "model": {"kind": "quadratic", "p": 2, "s": 1.0, "theta_star": [0.0, 0.5]},
         "n": 5000, "m": 50, "reps": 20, "scheme": {"kind": "minibatch"},
         "runs": [{"gamma": 0.2, "num_steps": 30, "fit_window": 8}]},
        "dc6aba4b99969ecc2b84073288c5ad59f8061592a7e1d741c9136b8bc425c9d0",
    ),
    "converge-logistic": (
        {"command": "converge", "seed": 11, "model": {"kind": "logistic", "p": 3, "t": 500},
         "n": 2000, "m": 20, "reps": 10, "kappas": [0.2, 0.05],
         "runs": [{"gamma": 0.5, "num_steps": 16, "fit_window": 4}]},
        "2bd45ff20e8d9483191912a20580ec773c18080781a4969a25256bdbe58658c8",
    ),
    "gd-ode": (
        {"command": "gd-ode", "seed": 11, "gammas": [0.1, 0.05], "x0": [1.0]},
        "6624a980812420407e40ea3070932a913dff59d05bbfa683e9f6e056f57c0c24",
    ),
    # unsorted grids of three step sizes with unequal step counts
    "wass-scaling-grid": (
        {"command": "wass-scaling", "seed": 11, "gammas": [0.125, 0.25, 0.0625], "reps": 20,
         "n": 48, "m": 6, "n_directions": 8, "em_substeps": 6, "scheme": {"kind": "minibatch"},
         "model": {"kind": "quadratic", "p": 2, "s": 0.5, "theta_star": [0.5, -0.5]}},
        "2ce32251eb6a7c3d89cca5e976f0bfca243b97444220928027796e99da5eb22b",
    ),
    "gd-ode-grid": (
        {"command": "gd-ode", "seed": 11, "gammas": [0.05, 0.2, 0.1], "x0": [2.0, -1.0],
         "horizon": 0.8, "ode_substeps": 12,
         "model": {"kind": "quadratic", "p": 2, "s": 1.0, "theta_star": [0.5, 0.0]}},
        "15b6c0a7831744edeec093da79d6e4f01c0fbdf724840fefc821a2c4c560783f",
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
    raw, expected = GOLDEN[name]
    run_experiment(validate_config(raw), tmp_path)
    assert directory_digest(tmp_path) == expected
