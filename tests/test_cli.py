"""Config validation, experiment runner plumbing, and the CLI surface."""

import json
from pathlib import Path

import numpy as np
import pytest

import msgdlab.dynamics as dynamics_mod
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
        ],
        ids=[
            "thresholds", "schemes-entry", "scheme", "blocks", "logistic-reps", "x0-length",
            "slope-range", "dirichlet-m-equals-n", "dirichlet-pair",
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
