"""Config validation, experiment runner plumbing, and the CLI surface."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import msgdlab.dynamics as dynamics_mod
from msgdlab.numerics import derive_stream
from msgdlab.cli import (
    COMMANDS,
    CheckResult,
    ConfigError,
    ExperimentReport,
    histogram_rows,
    main,
    run_experiment,
    validate_config,
)


def tiny_config(command: str) -> dict:
    return {
        "weights-moments": {
            "command": "weights-moments", "seed": 9, "n": 100, "m": 20, "reps": 200,
        },
        "clt": {
            "command": "clt", "seed": 9, "n": 500, "m": 100, "samples": 400,
        },
        "weighting-gap": {
            "command": "weighting-gap", "seed": 9, "pairs": [[400, 100]], "reps": 1000,
        },
        "wass-scaling": {
            "command": "wass-scaling", "seed": 9, "gammas": [0.2, 0.1], "reps": 40,
            "n": 128, "m": 16, "n_directions": 32, "em_substeps": 20,
        },
        "converge": {
            "command": "converge", "seed": 9,
            "model": {"kind": "quadratic", "p": 1, "s": 1.0, "theta_star": [0.0]},
            "n": 100, "m": 20, "reps": 50,
            "runs": [{"gamma": 0.1, "num_steps": 60, "fit_window": 15}],
        },
        "gd-ode": {
            "command": "gd-ode", "seed": 9, "gammas": [0.1, 0.05], "x0": [1.0],
        },
    }[command]


def tiny_logistic() -> dict:
    return {
        "command": "converge", "seed": 9, "model": {"kind": "logistic", "p": 2, "t": 50},
        "n": 20, "m": 4, "reps": 3, "kappas": [0.1], "runs": [{"gamma": 0.5, "num_steps": 10}],
    }


# a quadratic model whose minimiser is the default start of ones
AT_ONE = {"kind": "quadratic", "p": 1, "s": 1.0, "theta_star": [1.0]}


def with_run(config: dict, **changes) -> dict:
    """`config` with its first run's keys changed."""
    return config | {"runs": [config["runs"][0] | changes]}


REPO = Path(__file__).resolve().parents[1]

# validate_config(raw, seed_override).params before the one-schema rewrite of
# the validation, serialised with sorted keys as report.json echoes it under
# "resolved"; a shipped config is named by its file in configs/.
RESOLVED = {
    "weights-moments": (
        tiny_config("weights-moments"),
        None, 9,
        '{"m":20,"n":100,"reps":200,"schemes":[{"kind":"minibatch"},{"kind":"gaussian"},{"kind":"dirichlet"}],"thresholds":{"cov_sigmas":4,"mean_sigmas":4,"sumsq_sigmas":3,"var_sigmas":4}}',
    ),
    "clt": (
        tiny_config("clt"),
        None, 9,
        '{"bins":50,"cov_sigmas":4,"ks_threshold":0.03,"m":100,"n":500,"p":1,"samples":400,"scheme":{"kind":"dirichlet"}}',
    ),
    "weighting-gap": (
        tiny_config("weighting-gap"),
        None, 9,
        '{"model":{"kind":"quadratic","p":2,"s":1.0},"pairs":[[400,100]],"reps":1000,"schemes":[{"kind":"minibatch"},{"kind":"gaussian"},{"kind":"dirichlet"}],"sigmas":3}',
    ),
    "wass-scaling": (
        tiny_config("wass-scaling"),
        None, 9,
        '{"em_substeps":20,"gammas":[0.2,0.1],"horizon":1.0,"m":16,"model":{"kind":"quadratic","p":2,"s":1.0},"n":128,"n_directions":32,"reps":40,"scheme":{"kind":"gaussian"},"slack":0.1,"slope_range":[0.8,2.2]}',
    ),
    "converge": (
        tiny_config("converge"),
        None, 9,
        '{"blocks":8,"m":20,"model":{"kind":"quadratic","p":1,"s":1.0,"theta_star":[0.0]},"n":100,"reps":50,"rho_tolerance":0.02,"runs":[{"fit_window":15,"gamma":0.1,"num_steps":60}],"scheme":{"kind":"gaussian"}}',
    ),
    "gd-ode": (
        tiny_config("gd-ode"),
        None, 9,
        '{"gammas":[0.1,0.05],"horizon":1.0,"model":{"kind":"quadratic","p":1,"s":1.0,"theta_star":[0.0]},"ode_substeps":20,"slope_range":[0.8,1.2],"x0":[1.0]}',
    ),
    "weights-moments-partial-thresholds": (
        tiny_config("weights-moments") | {"thresholds": {"var_sigmas": 6}},
        None, 9,
        '{"m":20,"n":100,"reps":200,"schemes":[{"kind":"minibatch"},{"kind":"gaussian"},{"kind":"dirichlet"}],"thresholds":{"cov_sigmas":4,"mean_sigmas":4,"sumsq_sigmas":3,"var_sigmas":6}}',
    ),
    "weights-moments-given": (
        tiny_config("weights-moments") | {
            "schemes": [{"kind": "gaussian", "base": "rademacher"}, {"kind": "minibatch"}],
            "thresholds": {"mean_sigmas": 3.5, "var_sigmas": 4, "cov_sigmas": 5.0,
                           "sumsq_sigmas": 2},
        },
        None, 9,
        '{"m":20,"n":100,"reps":200,"schemes":[{"base":"rademacher","kind":"gaussian"},{"kind":"minibatch"}],"thresholds":{"cov_sigmas":5.0,"mean_sigmas":3.5,"sumsq_sigmas":2,"var_sigmas":4}}',
    ),
    "clt-seed-override": (
        tiny_config("clt"),
        123, 123,
        '{"bins":50,"cov_sigmas":4,"ks_threshold":0.03,"m":100,"n":500,"p":1,"samples":400,"scheme":{"kind":"dirichlet"}}',
    ),
    "clt-given": (
        tiny_config("clt") | {
            "p": 2, "scheme": {"kind": "gaussian", "base": "uniform"}, "bins": 10,
            "ks_threshold": 1, "cov_sigmas": 3.5,
        },
        None, 9,
        '{"bins":10,"cov_sigmas":3.5,"ks_threshold":1,"m":100,"n":500,"p":2,"samples":400,"scheme":{"base":"uniform","kind":"gaussian"}}',
    ),
    "gd-ode-out": (
        tiny_config("gd-ode") | {"out": "elsewhere"},
        None, 9,
        '{"gammas":[0.1,0.05],"horizon":1.0,"model":{"kind":"quadratic","p":1,"s":1.0,"theta_star":[0.0]},"ode_substeps":20,"out":"elsewhere","slope_range":[0.8,1.2],"x0":[1.0]}',
    ),
    "gd-ode-x0-omitted": (
        {k: v for k, v in tiny_config("gd-ode").items() if k != "x0"},
        None, 9,
        '{"gammas":[0.1,0.05],"horizon":1.0,"model":{"kind":"quadratic","p":1,"s":1.0,"theta_star":[0.0]},"ode_substeps":20,"slope_range":[0.8,1.2]}',
    ),
    "wass-scaling-x0": (
        tiny_config("wass-scaling") | {"x0": [0.5, -0.5], "horizon": 2},
        None, 9,
        '{"em_substeps":20,"gammas":[0.2,0.1],"horizon":2,"m":16,"model":{"kind":"quadratic","p":2,"s":1.0},"n":128,"n_directions":32,"reps":40,"scheme":{"kind":"gaussian"},"slack":0.1,"slope_range":[0.8,2.2],"x0":[0.5,-0.5]}',
    ),
    "weighting-gap-theta": (
        tiny_config("weighting-gap") | {
            "theta": [1.0, 0.0], "model": {"kind": "quadratic", "p": 2, "s": 2},
        },
        None, 9,
        '{"model":{"kind":"quadratic","p":2,"s":2},"pairs":[[400,100]],"reps":1000,"schemes":[{"kind":"minibatch"},{"kind":"gaussian"},{"kind":"dirichlet"}],"sigmas":3,"theta":[1.0,0.0]}',
    ),
    "converge-x0": (
        tiny_config("converge") | {
            "x0": [2.0], "runs": [{"gamma": 0.1, "num_steps": 60, "fit_burn_in": 3}],
        },
        None, 9,
        '{"blocks":8,"m":20,"model":{"kind":"quadratic","p":1,"s":1.0,"theta_star":[0.0]},"n":100,"reps":50,"rho_tolerance":0.02,"runs":[{"fit_burn_in":3,"gamma":0.1,"num_steps":60}],"scheme":{"kind":"gaussian"},"x0":[2.0]}',
    ),
    "converge-logistic": (
        {"command": "converge", "seed": 11, "model": {"kind": "logistic", "p": 3, "t": 500},
         "n": 2000, "m": 20, "reps": 10, "kappas": [0.2, 0.05], "blocks": 4,
         "x0": [0.1, 0.2, 0.3], "scheme": {"kind": "minibatch"},
         "runs": [{"gamma": 0.5, "num_steps": 16, "fit_window": 4}]},
        None, 11,
        '{"blocks":4,"kappas":[0.2,0.05],"m":20,"model":{"kind":"logistic","p":3,"t":500},"n":2000,"reps":10,"rho_tolerance":0.02,"runs":[{"fit_window":4,"gamma":0.5,"num_steps":16}],"scheme":{"kind":"minibatch"},"x0":[0.1,0.2,0.3]}',
    ),
    "converge-logistic-defaults": (
        tiny_logistic(),
        None, 9,
        '{"blocks":8,"kappas":[0.1],"m":4,"model":{"kind":"logistic","p":2,"t":50},"n":20,"reps":3,"rho_tolerance":0.02,"runs":[{"gamma":0.5,"num_steps":10}],"scheme":{"kind":"gaussian"}}',
    ),
    "configs/clt_dirichlet_p1.json": (
        'clt_dirichlet_p1.json',
        None, 20260808,
        '{"bins":50,"cov_sigmas":4,"ks_threshold":0.03,"m":2000,"n":10000,"p":1,"samples":10000,"scheme":{"kind":"dirichlet"}}',
    ),
    "configs/clt_gaussian_p6.json": (
        'clt_gaussian_p6.json',
        None, 20260808,
        '{"bins":50,"cov_sigmas":4,"ks_threshold":0.03,"m":2000,"n":10000,"p":6,"samples":10000,"scheme":{"kind":"gaussian"}}',
    ),
    "configs/clt_minibatch_p1.json": (
        'clt_minibatch_p1.json',
        None, 20260808,
        '{"bins":50,"cov_sigmas":4,"ks_threshold":0.03,"m":2000,"n":10000,"p":1,"samples":10000,"scheme":{"kind":"minibatch"}}',
    ),
    "configs/clt_rademacher_p1.json": (
        'clt_rademacher_p1.json',
        None, 20260808,
        '{"bins":50,"cov_sigmas":4,"ks_threshold":0.03,"m":2000,"n":10000,"p":1,"samples":10000,"scheme":{"base":"rademacher","kind":"gaussian"}}',
    ),
    "configs/converge_logistic.json": (
        'converge_logistic.json',
        None, 20260808,
        '{"blocks":8,"kappas":[0.2,0.1,0.05,0.01,0.001],"m":10,"model":{"kind":"logistic","p":6,"t":10000},"n":1000,"reps":100,"rho_tolerance":0.02,"runs":[{"fit_window":8,"gamma":0.5,"num_steps":60},{"fit_window":25,"gamma":0.1,"num_steps":300}],"scheme":{"kind":"gaussian"}}',
    ),
    "configs/converge_quadratic.json": (
        'converge_quadratic.json',
        None, 20260808,
        '{"blocks":8,"m":50,"model":{"kind":"quadratic","p":1,"s":1.0,"theta_star":[0.0]},"n":500,"reps":500,"rho_tolerance":0.02,"runs":[{"fit_window":20,"gamma":0.1,"num_steps":200}],"scheme":{"kind":"gaussian"}}',
    ),
    "configs/gd_ode.json": (
        'gd_ode.json',
        None, 20260808,
        '{"gammas":[0.1,0.05,0.025,0.0125],"horizon":1.0,"model":{"kind":"quadratic","p":1,"s":1.0,"theta_star":[0.0]},"ode_substeps":20,"slope_range":[0.8,1.2],"x0":[1.0]}',
    ),
    "configs/wass_scaling.json": (
        'wass_scaling.json',
        None, 20260808,
        '{"em_substeps":50,"gammas":[0.2,0.1,0.05,0.025],"horizon":1.0,"m":64,"model":{"kind":"quadratic","p":2,"s":1.0},"n":512,"n_directions":128,"reps":500,"scheme":{"kind":"gaussian"},"slack":0.1,"slope_range":[0.8,2.2]}',
    ),
    "configs/weight_moments.json": (
        'weight_moments.json',
        None, 20260808,
        '{"m":400,"n":2000,"reps":20000,"schemes":[{"kind":"minibatch"},{"kind":"gaussian"},{"kind":"dirichlet"}],"thresholds":{"cov_sigmas":4,"mean_sigmas":4,"sumsq_sigmas":3,"var_sigmas":4}}',
    ),
    "configs/weighting_gap.json": (
        'weighting_gap.json',
        None, 20260808,
        '{"model":{"kind":"quadratic","p":2,"s":1.0},"pairs":[[10000,2500],[10000,9000]],"reps":1500,"schemes":[{"kind":"minibatch"},{"kind":"gaussian"},{"kind":"dirichlet"}],"sigmas":3}',
    ),
}


class TestValidateConfig:
    def test_gamma_out_of_range_names_constraint(self):
        raw = tiny_config("wass-scaling") | {"gammas": [1.5]}
        with pytest.raises(ConfigError, match="0 < gamma < 1"):
            validate_config(raw)

    def test_dirichlet_m_one_rejected(self):
        raw = {"command": "clt", "seed": 1, "n": 100, "m": 1, "samples": 200,
               "scheme": {"kind": "dirichlet"}}
        with pytest.raises(ConfigError, match="dirichlet"):
            validate_config(raw)

    def test_minimal_config_gets_documented_defaults(self):
        cfg = validate_config(tiny_config("clt"))
        assert cfg.params["bins"] == 50
        assert cfg.params["ks_threshold"] == 0.03
        assert cfg.params["scheme"] == {"kind": "dirichlet"}

    def test_unknown_key_rejected(self):
        raw = tiny_config("clt") | {"samples_count": 10}
        with pytest.raises(ConfigError, match="samples_count"):
            validate_config(raw)

    def test_unknown_nested_key_rejected(self):
        raw = tiny_config("clt") | {"scheme": {"kind": "dirichlet", "alpha": 0.2}}
        with pytest.raises(ConfigError, match="alpha"):
            validate_config(raw)

    def test_missing_seed_diagnosed(self):
        raw = dict(tiny_config("clt"))
        del raw["seed"]
        with pytest.raises(ConfigError, match="seed"):
            validate_config(raw)

    def test_seed_override_wins(self):
        cfg = validate_config(tiny_config("clt"), seed_override=123)
        assert cfg.seed == 123

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="command"):
            validate_config({"command": "simulate", "seed": 1})

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError, match="JSON"):
            validate_config("{not json")

    def test_wrong_type_reports_key(self):
        raw = tiny_config("clt") | {"samples": "many"}
        with pytest.raises(ConfigError, match="samples"):
            validate_config(raw)

    def test_multiple_diagnostics_collected(self):
        raw = {"command": "clt", "seed": 1, "n": 100, "m": 200, "samples": 10, "bogus": 0}
        with pytest.raises(ConfigError) as info:
            validate_config(raw)
        assert len(info.value.diagnostics) >= 3

    def test_horizon_must_be_gamma_multiple(self):
        raw = tiny_config("gd-ode") | {"gammas": [0.3]}
        with pytest.raises(ConfigError, match="multiple"):
            validate_config(raw)

    def test_partial_thresholds_merge_with_defaults(self):
        raw = tiny_config("weights-moments") | {"thresholds": {"var_sigmas": 6}}
        cfg = validate_config(raw)
        assert cfg.params["thresholds"]["var_sigmas"] == 6
        assert cfg.params["thresholds"]["mean_sigmas"] == 4

    @pytest.mark.parametrize(
        "raw, start",
        [
            (tiny_config("wass-scaling"), [1.0, 1.0]),
            (tiny_config("converge"), [1.0]),
            (tiny_logistic(), [1.0 / math.sqrt(2.0)] * 2),
            (tiny_logistic() | {"x0": [0.5, -2.0]}, [0.5, -2.0]),
        ],
        ids=["wass-scaling", "converge", "logistic", "given"],
    )
    def test_configs_carry_the_resolved_start(self, raw, start):
        # x0 defaults to ones, scaled to unit length for the logistic model
        configs = validate_config(raw).plan["configs"]
        assert configs
        for config in configs:
            np.testing.assert_array_equal(config.x0, start)

    def test_step_grid_planned_in_decreasing_gamma(self):
        raw = tiny_config("gd-ode") | {"gammas": [0.05, 0.2, 0.1]}
        assert [c.gamma for c in validate_config(raw).plan["configs"]] == [0.2, 0.1, 0.05]

    def test_fit_windows_planned_in_run_order(self):
        raw = tiny_config("converge") | {"runs": [
            {"gamma": 0.1, "num_steps": 60, "fit_window": 15},
            {"gamma": 0.2, "num_steps": 29, "fit_burn_in": 3},
        ]}
        assert validate_config(raw).plan["segments"] == [slice(0, 15), slice(3, 13)]

    def test_logistic_dataset_drawn_once(self, tmp_path, monkeypatch):
        # validation draws the run's own dataset, and the run uses it
        import msgdlab.cli as cli_mod

        draws = []

        def counted(*args):
            draws.append(generate(*args))
            return draws[-1]

        generate = cli_mod.generate_logistic_dataset
        monkeypatch.setattr(cli_mod, "generate_logistic_dataset", counted)
        run_experiment(validate_config(tiny_logistic() | {"kappas": [0.1, 0.3]}), tmp_path)
        assert len(draws) == 1
        own = generate(derive_stream(9, ["converge"]).child("dataset"), 2, 50, 1.0)
        np.testing.assert_array_equal(draws[0].covariates, own.covariates)

    def test_unknown_threshold_key_rejected(self):
        raw = tiny_config("weights-moments") | {"thresholds": {"sigma": 2}}
        with pytest.raises(ConfigError, match="sigma"):
            validate_config(raw)


class TestHistogramRows:
    def test_two_values_two_bins(self):
        rows = histogram_rows([0.0, 1.0], 2)
        assert [r[2] for r in rows] == [1, 1]

    def test_constant_sample_single_bin(self):
        rows = histogram_rows([2.5, 2.5, 2.5], 7)
        assert rows == [(2.5, 2.5, 3)]

    def test_counts_conserved(self):
        gen = np.random.default_rng(0)
        rows = histogram_rows(gen.standard_normal(10**4), 50)
        assert sum(r[2] for r in rows) == 10**4
        assert len(rows) == 50

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            histogram_rows([], 3)

    def test_bin_count_floor(self):
        with pytest.raises(ValueError):
            histogram_rows([1.0, 2.0], 0)


class TestRunExperiment:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_smoke_every_command(self, command, tmp_path):
        cfg = validate_config(tiny_config(command))
        report = run_experiment(cfg, tmp_path / command)
        assert report.checks
        report_path = tmp_path / command / "report.json"
        payload = json.loads(report_path.read_text())
        assert payload["command"] == command
        assert payload["seed"] == 9
        assert payload["config"] == tiny_config(command)
        assert payload["files"]
        for name in payload["files"]:
            assert (tmp_path / command / name).exists()

    def test_csv_embeds_seed_and_config(self, tmp_path):
        cfg = validate_config(tiny_config("gd-ode"))
        run_experiment(cfg, tmp_path)
        lines = (tmp_path / "gd_ode.csv").read_text().splitlines()
        assert lines[0] == "# seed=9"
        assert lines[1].startswith("# config=")
        echoed = json.loads(lines[1].removeprefix("# config="))
        assert echoed == tiny_config("gd-ode")
        assert lines[2] == "gamma,max_error,bound,final_error"

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = tiny_config("weights-moments")
        run_experiment(validate_config(cfg), tmp_path / "a")
        run_experiment(validate_config(cfg), tmp_path / "b")
        for name in ("report.json", "weight_moments.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        # named for the retired thread pool: the setting that varies is now
        # the chunk size, default against one replication per chunk
        cfg = tiny_config("clt")
        default, one = tmp_path / "default", tmp_path / "one"
        run_experiment(validate_config(cfg), default)
        monkeypatch.setattr(dynamics_mod, "CHUNK_ELEMENTS", 1)
        run_experiment(validate_config(cfg), one)
        names = sorted(p.name for p in default.iterdir())
        assert names == sorted(p.name for p in one.iterdir())
        for name in names:
            assert (default / name).read_bytes() == (one / name).read_bytes()

    def test_different_seed_changes_results(self, tmp_path):
        base = tiny_config("clt")
        run_experiment(validate_config(base), tmp_path / "a")
        run_experiment(validate_config(base | {"seed": 10}), tmp_path / "b")
        a = (tmp_path / "a" / "hist_coord1.csv").read_text().splitlines()[2:]
        b = (tmp_path / "b" / "hist_coord1.csv").read_text().splitlines()[2:]
        assert a != b


class TestMain:
    def test_list_commands(self, capsys):
        assert main(["--list-commands"]) == 0
        out = capsys.readouterr().out
        for name in COMMANDS:
            assert name in out

    def test_passing_run_exit_zero(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(tiny_config("gd-ode")))
        code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_config_error_exit_two(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"command": "clt", "seed": 1, "n": 10, "m": 20,
                                           "samples": 200}))
        code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key",
        [
            ("converge", "runs"),
            ("weights-moments", "schemes"),
            ("weighting-gap", "schemes"),
            ("weighting-gap", "pairs"),
        ],
    )
    def test_empty_list_exit_two(self, command, key, tmp_path, capsys):
        # an empty list would run no check at all
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(tiny_config(command) | {key: []}))
        code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{command}.{key}: must not be empty" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config, key",
        [
            (tiny_config("weights-moments") | {"thresholds": 3}, "weights-moments.thresholds"),
            (tiny_config("weights-moments") | {"schemes": [3]}, "schemes[0]"),
            (tiny_config("clt") | {"scheme": 3}, "clt.scheme"),
            (
                {"command": "converge", "seed": 9, "model": {"kind": "logistic", "p": 2, "t": 50},
                 "n": 20, "m": 4, "reps": 3, "kappas": [0.1], "blocks": 1,
                 "runs": [{"gamma": 0.5, "num_steps": 10}]},
                "converge.blocks",
            ),
            (
                {"command": "converge", "seed": 9, "model": {"kind": "logistic", "p": 2, "t": 50},
                 "n": 20, "m": 4, "reps": 1, "kappas": [0.1], "blocks": 2,
                 "runs": [{"gamma": 0.5, "num_steps": 10}]},
                "converge.reps",
            ),
            (tiny_config("gd-ode") | {"x0": [1.0, 2.0]}, "gd-ode.x0"),
            (tiny_config("wass-scaling") | {"slope_range": [2.0]}, "wass-scaling.slope_range"),
            (tiny_config("wass-scaling") | {"scheme": {"kind": "dirichlet"}, "m": 128}, "scheme"),
            (tiny_config("weighting-gap") | {"pairs": [[400, 400]]}, "schemes[2]"),
            (with_run(tiny_config("converge"), num_steps=0), "runs[0]"),
            (with_run(tiny_config("converge"), num_steps=-1), "runs[0]"),
            (with_run(tiny_config("converge"), fit_window=0), "runs[0]"),
            (with_run(tiny_config("converge"), fit_window=1), "runs[0]"),
            (with_run(tiny_config("converge"), fit_burn_in=-5), "runs[0]"),
            (with_run(tiny_config("converge"), fit_burn_in=60), "runs[0]"),
            (with_run(tiny_logistic(), fit_window=0), "runs[0]"),
            (with_run(tiny_logistic(), fit_window=1), "runs[0]"),
            (with_run(tiny_logistic(), fit_burn_in=-5), "runs[0]"),
            (with_run(tiny_logistic(), fit_burn_in=10), "runs[0]"),
            (tiny_logistic() | {"model": {"kind": "logistic", "p": 0, "t": 50}}, "model"),
            (tiny_logistic() | {"model": {"kind": "logistic", "p": 2, "t": 0}}, "model"),
            (tiny_config("clt") | {"scheme": {"kind": "minibatch", "base": "normal"}}, "scheme"),
            (tiny_config("clt") | {"scheme": {"kind": "dirichlet", "base": "normal"}}, "scheme"),
            (tiny_logistic() | {"model": {"kind": "logistic", "p": 2, "t": 50, "s": 1.0}}, "model"),
            (
                tiny_logistic() | {"model": {"kind": "logistic", "p": 2, "t": 50,
                                             "theta_star": [0.0, 0.0]}},
                "model",
            ),
            (
                tiny_config("converge") | {"model": {"kind": "quadratic", "p": 1, "t": 50}},
                "model",
            ),
            (tiny_logistic() | {"kappas": [True]}, "kappas[0]"),
            (tiny_config("weighting-gap") | {"pairs": [[True, 1]]}, "pairs[0]"),
            # a start at the minimiser: a zero g-gap curve, and a zero gd-ode error
            (tiny_config("converge") | {"model": AT_ONE}, "converge.x0"),
            (with_run(tiny_config("converge") | {"model": AT_ONE}, fit_burn_in=1), "converge.x0"),
            (tiny_config("gd-ode") | {"x0": [0.0]}, "gd-ode.x0"),
            # at m = n every weight is 1/n, so the checks would compare roundoff
            (
                tiny_config("weights-moments") | {"n": 50, "m": 50,
                                                  "schemes": [{"kind": "gaussian"}]},
                "weights-moments.m",
            ),
            (tiny_config("weighting-gap") | {"pairs": [[100, 100]]}, "pairs[0]"),
            # the noise level p s^2 / 2 overflows
            (tiny_config("converge") | {"model": {"kind": "quadratic", "p": 1, "s": 1e160}},
             "model"),
        ],
        ids=[
            "thresholds", "schemes-entry", "scheme", "blocks", "logistic-reps", "x0-length",
            "slope-range", "dirichlet-m-equals-n", "dirichlet-pair",
            "num-steps-zero", "num-steps-negative", "fit-window-zero", "fit-window-one",
            "fit-burn-in-negative", "fit-burn-in-too-late",
            "logistic-fit-window-zero", "logistic-fit-window-one",
            "logistic-fit-burn-in-negative", "logistic-fit-burn-in-too-late",
            "logistic-p-zero", "logistic-t-zero", "minibatch-base", "dirichlet-base",
            "logistic-s", "logistic-theta-star", "quadratic-t", "bool-kappa", "bool-pair",
            "x0-at-minimiser", "x0-at-minimiser-burn-in", "gd-ode-x0-at-minimiser",
            "moments-m-equals-n", "gap-m-equals-n", "s-overflows",
        ],
    )
    def test_malformed_value_exit_two(self, config, key, tmp_path, capsys):
        # each of these used to end in a traceback instead of a diagnostic
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"config error: {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["wass-scaling", "gd-ode"])
    @pytest.mark.parametrize("gammas", [[0.1], [0.1, 0.1]])
    def test_slope_needs_two_distinct_gammas(self, command, gammas, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(tiny_config(command) | {"gammas": gammas}))
        code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{command}.gammas: need at least 2 distinct" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, key",
        [
            (tiny_config("gd-ode") | {"gammas": [0.2, 0.1], "x0": [1e151]}, "gd-ode.x0"),
            (tiny_config("gd-ode") | {"x0": [-math.inf]}, "gd-ode.x0"),
            (tiny_config("wass-scaling") | {"x0": [0.0, math.nan]}, "wass-scaling.x0"),
            (tiny_config("converge") | {"x0": [2e150]}, "converge.x0"),
            (tiny_logistic() | {"x0": [1.0, 1e200]}, "converge.x0"),
        ],
        ids=["gd-ode", "gd-ode-inf", "wass-scaling-nan", "converge", "logistic"],
    )
    def test_start_beyond_divergence_limit_exit_two(self, config, key, tmp_path, capsys):
        # a start the runners count as diverged used to raise at iteration 0
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"config error: {key}: every entry must lie within +-1e+150" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config, line",
        [
            (
                tiny_config("wass-scaling") | {"model": {"kind": "quadratic", "p": 2,
                                                         "theta_star": [1e152, 1e152]}},
                "error: msgd diverged at iteration 1 with step size 0.2",
            ),
            (
                tiny_config("converge") | {"model": {"kind": "quadratic", "p": 1,
                                                     "theta_star": [1e152]}},
                "error: gaussian_sgd: all 50 replications diverged at iteration 1 "
                "with step size 0.1",
            ),
            (
                tiny_config("gd-ode") | {"model": {"kind": "quadratic", "p": 1,
                                                   "theta_star": [1e160]}},
                "error: gd diverged at iteration 1 with step size 0.1",
            ),
        ],
        ids=["wass-scaling", "converge", "gd-ode"],
    )
    def test_divergence_exit_one(self, config, line, tmp_path, capsys):
        # each of these used to end in a traceback
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [line]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the huge noise overflows on purpose
    def test_rate_of_a_curve_that_is_not_positive_fails(self, tmp_path, capsys):
        # some replications survive, and their g-gap cancels against p s^2 / 2,
        # so the fit window holds values that are not positive: no rate to fit
        config_path = tmp_path / "cfg.json"
        config = tiny_config("converge") | {"model": {"kind": "quadratic", "p": 1, "s": 1e151}}
        config_path.write_text(json.dumps(config))
        code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "FAIL gaussian_sgd:rho_hat: observed=nan" in capsys.readouterr().out
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert not payload["overall_pass"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the huge noise overflows on purpose
    def test_recursion_deviation_of_an_overflowed_spread_fails(self, tmp_path, capsys):
        # the g-gap SE overflows to inf, and a deviation in units of it would read 0
        config_path = tmp_path / "cfg.json"
        config = tiny_config("converge") | {"model": {"kind": "quadratic", "p": 1, "s": 1e151}}
        config_path.write_text(json.dumps(config))
        main(["--config", str(config_path), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert "FAIL gaussian_sgd:recursion_max_dev: observed=nan" in out
        assert "FAIL msgd:recursion_max_dev: observed=nan" in out

    def test_report_without_checks_fails(self):
        empty = ExperimentReport(command="gd-ode", seed=1, config={}, resolved={}, checks=[])
        assert not empty.overall_pass
        assert empty.as_dict()["overall_pass"] is False
        passing = CheckResult("c", observed=0.0, target=0.0, tolerance=1.0)
        assert ExperimentReport("gd-ode", 1, {}, {}, [passing]).overall_pass

    def test_missing_config_flag(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unreadable_config_exit_two(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "nope.json")])
        assert code == 2

    def test_seed_flag_overrides(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(tiny_config("gd-ode")))
        main(["--config", str(config_path), "--out", str(tmp_path / "out"), "--seed", "77"])
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["seed"] == 77

    def test_shipped_configs_validate(self):
        config_dir = Path(__file__).resolve().parents[1] / "configs"
        paths = sorted(config_dir.glob("*.json"))
        assert len(paths) == 10
        for path in paths:
            cfg = validate_config(path.read_text())
            assert cfg.command in COMMANDS

    def test_out_directory_from_config(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(
            json.dumps(tiny_config("gd-ode") | {"out": str(tmp_path / "from_config")})
        )
        main(["--config", str(config_path)])
        assert (tmp_path / "from_config" / "report.json").exists()


@pytest.mark.parametrize("name", sorted(RESOLVED))
def test_resolved_echo_pinned(name):
    raw, seed_override, seed, expected = RESOLVED[name]
    if isinstance(raw, str):
        raw = (REPO / "configs" / raw).read_text()
    cfg = validate_config(raw, seed_override=seed_override)
    assert cfg.seed == seed
    assert json.dumps(cfg.params, sort_keys=True, separators=(",", ":")) == expected


def test_readme_example_and_commands():
    readme = (REPO / "README.md").read_text()
    example = re.search(r"Example config \(`clt`\):\n+```json\n(.*?)```", readme, re.S)
    assert validate_config(example.group(1)).command == "clt"
    section = readme.split("\nCommands:\n", 1)[1].split("\nExample config", 1)[0]
    bullets = re.findall(r"^\* `([a-z-]+)` - ", section, re.M)
    assert sorted(bullets) == sorted(COMMANDS) and len(set(bullets)) == len(bullets)
