"""Config validation, experiment runner plumbing, and the CLI surface."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import msgdlab.cli as cli
import msgdlab.dynamics as dynamics_mod
from msgdlab.numerics import derive_stream
from msgdlab.stats import contraction_fit_jackknife, convergence_curve
from msgdlab.cli import (
    COMMANDS,
    CheckResult,
    ConfigError,
    ExperimentReport,
    histogram_rows,
    judge,
    main,
    run_experiment,
    validate_config,
)
from oracles import csv_cell
from test_golden_bytes import GOLDEN


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
# the validation, less the bound keys that later left the schema for
# cli.BOUNDS, serialised with sorted keys as report.json echoes it under
# "resolved"; a shipped config is named by its file in configs/.
RESOLVED = {
    "weights-moments": (
        tiny_config("weights-moments"),
        None, 9,
        '{"m":20,"n":100,"reps":200,"schemes":[{"kind":"minibatch"},{"kind":"gaussian"},{"kind":"dirichlet"}]}',
    ),
    "clt": (
        tiny_config("clt"),
        None, 9,
        '{"m":100,"n":500,"p":1,"samples":400,"scheme":{"kind":"dirichlet"}}',
    ),
    "weighting-gap": (
        tiny_config("weighting-gap"),
        None, 9,
        '{"pairs":[[400,100]],"reps":1000,"schemes":[{"kind":"minibatch"},{"kind":"gaussian"},{"kind":"dirichlet"}]}',
    ),
    "wass-scaling": (
        tiny_config("wass-scaling"),
        None, 9,
        '{"em_substeps":20,"gammas":[0.2,0.1],"horizon":1.0,"m":16,"model":{"kind":"quadratic","p":2,"s":1.0},"n":128,"n_directions":32,"reps":40,"scheme":{"kind":"gaussian"}}',
    ),
    "converge": (
        tiny_config("converge"),
        None, 9,
        '{"m":20,"model":{"kind":"quadratic","p":1,"s":1.0,"theta_star":[0.0]},"n":100,"reps":50,"runs":[{"fit_window":15,"gamma":0.1,"num_steps":60}],"scheme":{"kind":"gaussian"}}',
    ),
    "gd-ode": (
        tiny_config("gd-ode"),
        None, 9,
        '{"gammas":[0.1,0.05],"horizon":1.0,"model":{"kind":"quadratic","p":1,"theta_star":[0.0]},"x0":[1.0]}',
    ),
    "weights-moments-given": (
        tiny_config("weights-moments") | {
            "schemes": [{"kind": "gaussian", "base": "rademacher"}, {"kind": "minibatch"}],
        },
        None, 9,
        '{"m":20,"n":100,"reps":200,"schemes":[{"base":"rademacher","kind":"gaussian"},{"kind":"minibatch"}]}',
    ),
    "clt-seed-override": (
        tiny_config("clt"),
        123, 123,
        '{"m":100,"n":500,"p":1,"samples":400,"scheme":{"kind":"dirichlet"}}',
    ),
    "clt-given": (
        tiny_config("clt") | {"p": 2, "scheme": {"kind": "gaussian", "base": "uniform"}},
        None, 9,
        '{"m":100,"n":500,"p":2,"samples":400,"scheme":{"base":"uniform","kind":"gaussian"}}',
    ),
    "gd-ode-out": (
        tiny_config("gd-ode") | {"out": "elsewhere"},
        None, 9,
        '{"gammas":[0.1,0.05],"horizon":1.0,"model":{"kind":"quadratic","p":1,"theta_star":[0.0]},"out":"elsewhere","x0":[1.0]}',
    ),
    "gd-ode-x0-omitted": (
        {k: v for k, v in tiny_config("gd-ode").items() if k != "x0"},
        None, 9,
        '{"gammas":[0.1,0.05],"horizon":1.0,"model":{"kind":"quadratic","p":1,"theta_star":[0.0]}}',
    ),
    "converge-x0": (
        tiny_config("converge") | {
            "x0": [2.0], "runs": [{"gamma": 0.1, "num_steps": 60, "fit_burn_in": 3}],
        },
        None, 9,
        '{"m":20,"model":{"kind":"quadratic","p":1,"s":1.0,"theta_star":[0.0]},"n":100,"reps":50,"runs":[{"fit_burn_in":3,"gamma":0.1,"num_steps":60}],"scheme":{"kind":"gaussian"},"x0":[2.0]}',
    ),
    "converge-logistic": (
        {"command": "converge", "seed": 11, "model": {"kind": "logistic", "p": 3, "t": 500},
         "n": 2000, "m": 20, "reps": 10, "kappas": [0.2, 0.05],
         "x0": [0.1, 0.2, 0.3], "scheme": {"kind": "minibatch"},
         "runs": [{"gamma": 0.5, "num_steps": 16, "fit_window": 4}]},
        None, 11,
        '{"kappas":[0.2,0.05],"m":20,"model":{"kind":"logistic","p":3,"t":500},"n":2000,"reps":10,"runs":[{"fit_window":4,"gamma":0.5,"num_steps":16}],"scheme":{"kind":"minibatch"},"x0":[0.1,0.2,0.3]}',
    ),
    "converge-logistic-defaults": (
        tiny_logistic(),
        None, 9,
        '{"kappas":[0.1],"m":4,"model":{"kind":"logistic","p":2,"t":50},"n":20,"reps":3,"runs":[{"gamma":0.5,"num_steps":10}],"scheme":{"kind":"gaussian"}}',
    ),
    "configs/clt_dirichlet_p1.json": (
        'clt_dirichlet_p1.json',
        None, 20260808,
        '{"m":2000,"n":10000,"p":1,"samples":10000,"scheme":{"kind":"dirichlet"}}',
    ),
    "configs/clt_gaussian_p6.json": (
        'clt_gaussian_p6.json',
        None, 20260808,
        '{"m":2000,"n":10000,"p":6,"samples":10000,"scheme":{"kind":"gaussian"}}',
    ),
    "configs/clt_minibatch_p1.json": (
        'clt_minibatch_p1.json',
        None, 20260808,
        '{"m":2000,"n":10000,"p":1,"samples":10000,"scheme":{"kind":"minibatch"}}',
    ),
    "configs/clt_rademacher_p1.json": (
        'clt_rademacher_p1.json',
        None, 20260808,
        '{"m":2000,"n":10000,"p":1,"samples":10000,"scheme":{"base":"rademacher","kind":"gaussian"}}',
    ),
    "configs/converge_logistic.json": (
        'converge_logistic.json',
        None, 20260808,
        '{"kappas":[0.2,0.1,0.05,0.01,0.001],"m":10,"model":{"kind":"logistic","p":6,"t":10000},"n":1000,"reps":100,"runs":[{"fit_window":8,"gamma":0.5,"num_steps":60},{"fit_window":25,"gamma":0.1,"num_steps":300}],"scheme":{"kind":"gaussian"}}',
    ),
    "configs/converge_quadratic.json": (
        'converge_quadratic.json',
        None, 20260808,
        '{"m":50,"model":{"kind":"quadratic","p":1,"s":1.0,"theta_star":[0.0]},"n":500,"reps":500,"runs":[{"fit_window":20,"gamma":0.1,"num_steps":200}],"scheme":{"kind":"gaussian"}}',
    ),
    "configs/gd_ode.json": (
        'gd_ode.json',
        None, 20260808,
        '{"gammas":[0.1,0.05,0.025,0.0125],"horizon":1.0,"model":{"kind":"quadratic","p":1,"theta_star":[0.0]},"x0":[1.0]}',
    ),
    "configs/wass_scaling.json": (
        'wass_scaling.json',
        None, 20260808,
        '{"em_substeps":50,"gammas":[0.2,0.1,0.05,0.025],"horizon":1.0,"m":64,"model":{"kind":"quadratic","p":2,"s":1.0},"n":512,"n_directions":128,"reps":500,"scheme":{"kind":"gaussian"}}',
    ),
    "configs/weight_moments.json": (
        'weight_moments.json',
        None, 20260808,
        '{"m":400,"n":2000,"reps":20000,"schemes":[{"kind":"minibatch"},{"kind":"gaussian"},{"kind":"dirichlet"}]}',
    ),
    "configs/weighting_gap.json": (
        'weighting_gap.json',
        None, 20260808,
        '{"pairs":[[10000,2500],[10000,9000]],"reps":1500,"schemes":[{"kind":"minibatch"},{"kind":"gaussian"},{"kind":"dirichlet"}]}',
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
        assert cfg.params["p"] == 1
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "JSON"),
            ('{"command": "clt", "n": ' + "1" * 5000 + "}", "JSON"),
            ("[" * 100_000, "JSON"),
            ('{"command":"clt","seed":1,"n":500,"m":100,"samples":400,"samples":100000}',
             "^config is not valid JSON: duplicate key 'samples'$"),
            ('{"command":"clt","seed":1,"n":500,"m":100,"samples":400,'
             '"scheme":{"kind":"gaussian","kind":"dirichlet"}}',
             "^config is not valid JSON: duplicate key 'kind'$"),
        ],
        ids=["syntax", "int-too-long", "too-deep", "duplicate-key", "duplicate-nested-key"],
    )
    def test_invalid_json_text(self, text, message):
        # json.loads raises ValueError past Python's 4300-digit limit, RecursionError when
        # deep; a repeated key, at any depth, is refused rather than the last value winning
        with pytest.raises(ConfigError, match=message):
            validate_config(text)

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
        own = generate(derive_stream(9, ["converge"]).child("dataset"), 2, 50)
        np.testing.assert_array_equal(draws[0].covariates, own.covariates)

    def test_logistic_model_built_once_over_the_kappa_grid(self, monkeypatch):
        # one model for every kappa: the Gram eigenvalue and h1 are computed once
        import msgdlab.models as models_mod

        calls = []

        def counted(dataset, kappa):
            calls.append(kappa)
            return lipschitz(dataset, kappa)

        lipschitz = models_mod.logistic_lipschitz_constant
        monkeypatch.setattr(models_mod, "logistic_lipschitz_constant", counted)
        cfg = validate_config(tiny_logistic() | {"kappas": [0.05, 0.3, 0.1]})
        assert calls == [0.3]
        assert cfg.plan["kappas"] == [0.3, 0.1, 0.05]
        assert cfg.plan["model"].dim == 3 * 2
        start = np.ones(2) / math.sqrt(2.0)
        for config in cfg.plan["configs"]:
            np.testing.assert_array_equal(config.x0, np.tile(start, 3))

    @pytest.mark.parametrize("kappa", [0.0, -0.1])
    def test_nonpositive_kappa_named(self, kappa, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(tiny_logistic() | {"kappas": [0.1, kappa, 0.2]}))
        code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: kappas[1]: ridge penalty kappa must be positive, got {kappa}"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "raw, diagnostic",
        [
            (tiny_config("weights-moments") | {"schemes": [
                {"kind": "gaussian"}, {"kind": "dirichlet"}, {"kind": "gaussian", "base": "normal"},
            ]}, "schemes[2]: repeats schemes[0]"),
            (tiny_config("weighting-gap") | {"pairs": [[400, 100], [80, 20], [80, 20]]},
             "pairs[2]: repeats pairs[1]"),
            (tiny_config("gd-ode") | {"gammas": [0.1, 0.1, 0.05]}, "gammas[1]: repeats gammas[0]"),
            (tiny_config("wass-scaling") | {"gammas": [0.2, 0.1, 0.2]},
             "gammas[2]: repeats gammas[0]"),
            (tiny_logistic() | {"kappas": [0.1, 0.2, 0.1]}, "kappas[2]: repeats kappas[0]"),
        ],
        ids=["scheme", "pair", "gd-ode-gamma", "wass-scaling-gamma", "kappa"],
    )
    def test_repeated_entry_names_both_keys(self, raw, diagnostic):
        # a repeat would rerun the first entry's stream under the same check names
        with pytest.raises(ConfigError) as info:
            validate_config(raw)
        assert info.value.diagnostics == [diagnostic]

    def test_close_kappas_get_their_own_check_names(self, tmp_path):
        # 0.1 and 0.1000001 print alike under %g; the labels use the float's repr,
        # also for a numpy float
        raw = tiny_logistic() | {"kappas": [0.1, np.float64(0.1000001)]}
        names = [check.name for check in run_experiment(validate_config(raw), tmp_path).checks]
        assert len(set(names)) == len(names)
        assert "run0:kappa0.1000001:block_decrease" in names
        assert "run0:rho_order:kappa0.1000001<=kappa0.1" in names


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

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_runner_returns_statistics_and_tables_and_writes_nothing(
        self, command, tmp_path, monkeypatch
    ):
        report = run_experiment(validate_config(tiny_config(command)), tmp_path / "out")
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)

        def refuse(*args, **kwargs):
            raise AssertionError("a runner wrote a file")

        monkeypatch.setattr(Path, "write_text", refuse)
        config = validate_config(tiny_config(command))
        statistics, tables = cli._RUNNERS[command](config, derive_stream(config.seed, (command,)))
        assert not any(cwd.iterdir())
        assert sorted(tables) == report.as_dict()["files"]
        for header, rows in tables.values():
            assert all(len(row) == len(header) for row in rows)
        judged = [judge(command, *statistic).as_dict() for statistic in statistics]
        assert judged == [check.as_dict() for check in report.checks]

    def test_csv_embeds_seed_and_config(self, tmp_path):
        cfg = validate_config(tiny_config("gd-ode"))
        run_experiment(cfg, tmp_path)
        lines = (tmp_path / "gd_ode.csv").read_text().splitlines()
        assert lines[0] == "# seed=9"
        assert lines[1].startswith("# config=")
        echoed = json.loads(lines[1].removeprefix("# config="))
        assert echoed == tiny_config("gd-ode")
        assert lines[2] == "gamma,max_error,bound,final_error"

    def test_table_rows_take_the_format_of_their_own_value_types(self, tmp_path, monkeypatch):
        # a column may hold an int in one row and a float in the next (integer
        # kappas in a config do), so each row's format follows its own values;
        # every line is the reference cells joined, not repr and not %.16g
        rows = [
            ["a", 0.25, np.int64(-7), 0.1, np.float64(1 / 3), math.nan, math.inf],
            [1, 2**70, np.int64(0), -0.0, np.float64(5e-324), -math.inf, 1.7976931348623157e308],
            [0.1, -1, np.int64(2**62), 1e16, np.float64(-0.0), np.float64(math.nan), 2.5],
            ("text", 3, np.int64(1), 5e-324, np.float64(0.1), True, -1.7976931348623157e308),
        ]
        header = [f"c{j}" for j in range(len(rows[0]))]
        tables = {"t.csv": (header, rows)}
        monkeypatch.setitem(cli._RUNNERS, "gd-ode", lambda cfg, root: ([], tables))
        run_experiment(validate_config(tiny_config("gd-ode")), tmp_path)
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[2:] == [",".join(header)] + [",".join(map(csv_cell, row)) for row in rows]
        assert lines[5].split(",")[:2] == ["0.10000000000000001", "-1"]
        assert lines[4].split(",")[4] == "4.9406564584124654e-324"

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


class TestOutputDirectory:
    """An output directory holds one run: the earlier report and the files it
    names go, and report.json is written last."""

    @staticmethod
    def run_main(tmp_path, config, out):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        return main(["--config", str(config_path), "--out", str(out)])

    def test_a_second_run_leaves_only_its_own_files(self, tmp_path, capsys):
        # clt_gaussian_p6 then clt_minibatch_p1 into one --out, at a tiny scale:
        # hist_coord2.csv ... hist_coord6.csv belong to the first run alone
        out = tmp_path / "out"
        six = tiny_config("clt") | {"p": 6, "scheme": {"kind": "gaussian"}}
        one = tiny_config("clt") | {"scheme": {"kind": "minibatch"}}
        self.run_main(tmp_path, six, out)
        assert {f"hist_coord{j}.csv" for j in range(1, 7)} <= {p.name for p in out.iterdir()}
        (out / "notes.txt").write_text("not a run's")
        self.run_main(tmp_path, one, out)
        alone = tmp_path / "alone"
        self.run_main(tmp_path, one, alone)
        report = json.loads((out / "report.json").read_text())
        assert sorted(p.name for p in out.iterdir()) == sorted(report["files"] + [
            "notes.txt", "report.json"])
        for name in report["files"] + ["report.json"]:
            assert (out / name).read_bytes() == (alone / name).read_bytes()

    def test_an_interrupted_run_leaves_no_report(self, tmp_path, monkeypatch):
        run_experiment(validate_config(tiny_config("gd-ode")), tmp_path)
        assert (tmp_path / "report.json").exists() and (tmp_path / "gd_ode.csv").exists()

        def interrupted(cfg, root):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._RUNNERS, "gd-ode", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(validate_config(tiny_config("gd-ode")), tmp_path)
        assert not any(tmp_path.iterdir())

    def test_only_bare_names_of_a_wellformed_report_are_deleted(self, tmp_path):
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        (out / "a_dir").mkdir()
        outside, inner = tmp_path / "outside.csv", out / "sub" / "inner.csv"
        kept = [outside, inner, out / "a_dir", out / "kept.csv"]
        for path in (outside, inner, out / "stale.csv", out / "kept.csv"):
            path.write_text("x")
        crafted = ["../outside.csv", str(outside), "sub/inner.csv", "sub", "a_dir", ".", "..",
                   "", "stale.csv", "missing.csv"]
        (out / "report.json").write_text(json.dumps({"files": crafted}))
        run_experiment(validate_config(tiny_config("gd-ode")), out)
        assert all(path.exists() for path in kept) and not (out / "stale.csv").exists()
        assert json.loads((out / "report.json").read_text())["files"] == ["gd_ode.csv"]

    @pytest.mark.parametrize("text", [
        "not json", "[" * 100_000, "[]", '{"files": "kept.csv"}', '{"files": ["kept.csv", 1]}',
        "{}",
    ], ids=["text", "deep", "list", "str-files", "int-name", "no-files"])
    def test_a_malformed_report_deletes_nothing(self, tmp_path, text):
        (tmp_path / "report.json").write_text(text)
        (tmp_path / "kept.csv").write_text("x")
        run_experiment(validate_config(tiny_config("gd-ode")), tmp_path)
        assert (tmp_path / "kept.csv").read_text() == "x"
        assert json.loads((tmp_path / "report.json").read_text())["command"] == "gd-ode"


class TestKappaGridStatistics:
    """converge-logistic's statistics, taken once per run over every kappa block."""

    @staticmethod
    def grid_run():
        raw = tiny_logistic() | {"reps": 4, "kappas": [0.2, 0.1, 0.05],
                                 "runs": [{"gamma": 0.5, "num_steps": 15, "fit_window": 6}]}
        cfg = validate_config(raw)
        [config] = cfg.plan["configs"]
        [scheme] = cfg.plan["schemes"]
        streams = derive_stream(9, ("grid",)).children("rep", stop=4)
        [run] = cli.run_msgd(cfg.plan["model"], scheme, [config], [streams]).runs
        return cfg.plan["model"], run, cfg.plan["segments"][0]

    def test_each_kappa_as_if_alone(self):
        model, run, segment = self.grid_run()
        p, kappas = 2, 3
        curve = convergence_curve(model, run.reshape(16, 4, kappas, p), np.zeros(p))
        means, errs = cli._block_means(curve.sq_dist_reps, 8)
        rho, se = contraction_fit_jackknife(curve.sq_dist_reps[..., segment])
        assert curve.sq_dist_reps.shape == (kappas, 4, 16) and rho.shape == se.shape == (kappas,)
        for k in range(kappas):
            alone = convergence_curve(model, run[..., k * p : (k + 1) * p], np.zeros(p))
            for name in ("sq_dist_mean", "sq_dist_se", "sq_dist_reps"):
                np.testing.assert_array_equal(getattr(curve, name)[k], getattr(alone, name))
            alone_means, alone_errs = cli._block_means(alone.sq_dist_reps, 8)
            np.testing.assert_array_equal(means[k], alone_means)
            np.testing.assert_array_equal(errs[k], alone_errs)
            alone_rho, alone_se = contraction_fit_jackknife(alone.sq_dist_reps[:, segment])
            assert rho[k] == pytest.approx(alone_rho, rel=1e-12)
            assert se[k] == pytest.approx(alone_se, rel=1e-12) and se[k] > 0

    @pytest.mark.parametrize("bad", [0.0, -1e-3])
    def test_a_kappa_without_a_positive_leave_one_out_mean_has_no_se(self, bad):
        model, run, segment = self.grid_run()
        curve = convergence_curve(model, run.reshape(16, 4, 3, 2), np.zeros(2))
        segments = curve.sq_dist_reps[..., segment].copy()
        # every mean stays positive, but leaving out replication 3 leaves three bad values
        segments[1, :3, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho, se = contraction_fit_jackknife(segments)
        assert np.all(np.isfinite(rho)) and math.isnan(se[1])
        for k in (0, 2):
            assert se[k] == pytest.approx(contraction_fit_jackknife(segments[k])[1], rel=1e-12)
            assert se[k] > 0


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
            (
                tiny_config("weights-moments") | {"thresholds": 3},
                "weights-moments: unknown key 'thresholds'",
            ),
            (tiny_config("weights-moments") | {"schemes": [3]}, "schemes[0]"),
            (tiny_config("clt") | {"scheme": 3}, "clt.scheme"),
            (tiny_logistic() | {"blocks": 1}, "converge: unknown key 'blocks'"),
            (tiny_logistic() | {"reps": 1}, "converge.reps"),
            (tiny_config("converge") | {"reps": 1}, "converge.reps: must be >= 2"),
            (tiny_config("gd-ode") | {"x0": [1.0, 2.0]}, "gd-ode.x0"),
            (
                tiny_config("wass-scaling") | {"slope_range": [2.0]},
                "wass-scaling: unknown key 'slope_range'",
            ),
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
            # a fit window that runs past the curve's num_steps + 1 points
            (with_run(tiny_config("converge"), fit_window=50, num_steps=10),
             "runs[0]: fit window must hold at least 2 points, all within the curve"),
            (with_run(tiny_logistic(), fit_burn_in=9),
             "runs[0]: fit window must hold at least 2 points, all within the curve"),
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
            # JSON admits NaN and Infinity, and an integer too large for a float
            (tiny_config("gd-ode") | {"horizon": math.inf}, "gd-ode.horizon"),
            (tiny_config("wass-scaling") | {"horizon": math.inf}, "wass-scaling.horizon"),
            (tiny_config("gd-ode") | {"horizon": 10**400}, "gd-ode.horizon"),
            (
                tiny_config("converge") | {"model": {"kind": "quadratic", "p": 1,
                                                     "theta_star": [math.inf]}},
                "model.theta_star[0]",
            ),
            (tiny_logistic() | {"kappas": [math.inf]}, "kappas[0]"),
            (
                tiny_config("gd-ode") | {"model": {"kind": "quadratic", "p": 1,
                                                   "theta_star": [math.nan]}},
                "model.theta_star[0]",
            ),
            (tiny_config("gd-ode") | {"x0": [-math.inf]}, "x0[0]"),
            # the logistic block means need a curve of at least 8 points
            (with_run(tiny_logistic(), num_steps=6), "runs[0].num_steps"),
            # a step grid no run could allocate, or an infinite one
            (tiny_config("gd-ode") | {"horizon": 1e12},
             "gammas[1]: num_steps must be in [1, 1000000], got 20000000000000.0"),
            (tiny_config("wass-scaling") | {"horizon": 1e300},
             "gammas[0]: num_steps must be in [1, 1000000], got 5e+300"),
            (with_run(tiny_config("converge"), num_steps=10**7),
             "runs[0].num_steps: must be <= 1000000"),
            (with_run(tiny_config("converge"), num_steps=10**400),
             "runs[0].num_steps: must be <= 1000000"),
            (tiny_config("gd-ode") | {"gammas": [0.1, 1e-320]},
             "gammas[1]: num_steps must be in [1, 1000000], got inf"),
            # a count no run could allocate, from 7 TiB of clt data to past numpy's limit
            (tiny_config("clt") | {"n": 10**12}, "clt.n: must be <= 1000000"),
            (tiny_config("weights-moments") | {"n": 10**11}, "weights-moments.n: must be <="),
            (tiny_config("weights-moments") | {"n": 10**23}, "weights-moments.n: must be <="),
            (tiny_config("clt") | {"p": 10**8}, "clt.p: must be <= 1000000"),
            (tiny_config("clt") | {"p": 10**23}, "clt.p: must be <= 1000000"),
            (tiny_config("clt") | {"samples": 10**11}, "clt.samples: must be <= 1000000"),
            (tiny_config("wass-scaling") | {"reps": 10**10}, "wass-scaling.reps: must be <="),
            (tiny_config("wass-scaling") | {"em_substeps": 10**9},
             "wass-scaling.em_substeps: must be <= 1000000"),
            (tiny_config("wass-scaling") | {"model": {"kind": "quadratic", "p": 10**7}},
             "model.p: must be <= 1000000"),
            (tiny_logistic() | {"model": {"kind": "logistic", "p": 2, "t": 10**10}},
             "model.t: must be <= 1000000"),
            (tiny_config("weighting-gap") | {"pairs": [[400, 100, 7]]},
             "pairs[0]: need [n, m], got [400, 100, 7]"),
            # a sliced W2 projection of 74.5 GiB, which used to fail after both ensembles ran
            (tiny_config("wass-scaling") | {"reps": 100_000, "n_directions": 100_000},
             "wass-scaling.n_directions: reps * n_directions must be <= 10000000, "
             "got 10000000000 projected values"),
        ],
        ids=[
            "thresholds", "schemes-entry", "scheme", "blocks", "logistic-reps", "quadratic-reps",
            "x0-length", "slope-range", "dirichlet-m-equals-n", "dirichlet-pair",
            "num-steps-zero", "num-steps-negative", "fit-window-zero", "fit-window-one",
            "fit-burn-in-negative", "fit-burn-in-too-late",
            "logistic-fit-window-zero", "logistic-fit-window-one",
            "logistic-fit-burn-in-negative", "logistic-fit-burn-in-too-late",
            "fit-window-past-the-curve", "default-fit-window-past-the-curve",
            "logistic-p-zero", "logistic-t-zero", "minibatch-base", "dirichlet-base",
            "logistic-s", "logistic-theta-star", "quadratic-t", "bool-kappa", "bool-pair",
            "x0-at-minimiser", "x0-at-minimiser-burn-in", "gd-ode-x0-at-minimiser",
            "moments-m-equals-n", "gap-m-equals-n", "s-overflows",
            "gd-ode-horizon-inf", "wass-scaling-horizon-inf", "horizon-huge-int",
            "theta-star-inf", "kappa-inf", "theta-star-nan", "x0-inf",
            "logistic-fewer-steps-than-blocks",
            "gd-ode-steps-beyond-cap", "wass-scaling-steps-beyond-cap",
            "converge-steps-beyond-cap", "converge-steps-huge-int", "infinitely-many-steps",
            "clt-n-huge", "moments-n-huge", "moments-n-past-numpy", "clt-p-huge",
            "clt-p-past-numpy", "clt-samples-huge", "wass-reps-huge", "em-substeps-huge",
            "wass-p-huge", "logistic-t-huge",
            "pair-of-three", "projection-huge",
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

    def test_counts_capped_at_max_steps(self):
        # the cap is one constant, MAX_STEPS, for every count
        validate_config(tiny_config("weights-moments") | {"n": 10**6, "m": 10})
        with pytest.raises(ConfigError, match="must be <= 1000000"):
            validate_config(tiny_config("weights-moments") | {"n": 10**6 + 1, "m": 10})

    def test_em_substeps_set_no_step_count(self, tmp_path):
        # Euler-Maruyama draws each recorded step's sum of substeps at once, so
        # 200,000 substeps over 10 recorded steps (2 million substeps, past the
        # old num_steps * em_substeps cap) validate and run
        cfg = validate_config(tiny_config("wass-scaling") | {"em_substeps": 200_000})
        report = run_experiment(cfg, tmp_path / "out")
        assert len(report.checks) == 2
        assert (tmp_path / "out" / "wass_scaling.csv").exists()

    def test_projection_capped(self):
        # reps * n_directions is capped by MAX_PROJECTED, whichever key makes it large
        validate_config(tiny_config("wass-scaling") | {"reps": 100_000, "n_directions": 100})
        validate_config(tiny_config("wass-scaling") | {"reps": 100, "n_directions": 100_000})
        for raw in (
            tiny_config("wass-scaling") | {"reps": 100_000, "n_directions": 101},
            tiny_config("wass-scaling") | {"reps": 101, "n_directions": 100_000},
        ):
            with pytest.raises(ConfigError) as caught:
                validate_config(raw)
            assert caught.value.diagnostics == [
                "wass-scaling.n_directions: reps * n_directions must be <= 10000000, "
                "got 10100000 projected values"
            ]

    def test_m_above_n_reported_once(self, tmp_path, capsys):
        # three default schemes, one size: one diagnostic, not one per scheme
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(tiny_config("weights-moments") | {"n": 50, "m": 60}))
        code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: weights-moments.m: need 1 <= m <= n, got m=60, n=50"
        ]

    def test_model_that_cannot_allocate_exit_two(self, tmp_path, capsys, monkeypatch):
        # a quadratic model at p = 200000 asks np.eye for 298 GiB during validation
        def unable(*args):
            raise MemoryError("Unable to allocate 298. GiB")

        monkeypatch.setattr(cli, "make_quadratic_model", unable)
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(tiny_config("wass-scaling")))
        code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "config error: model: Unable to allocate 298. GiB\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "error, line",
        [
            (MemoryError("Unable to allocate 74.5 GiB"), "error: Unable to allocate 74.5 GiB"),
            (MemoryError(), "error: out of memory"),
        ],
        ids=["numpy", "bare"],
    )
    def test_run_that_cannot_allocate_exit_one(self, error, line, tmp_path, capsys,
                                               monkeypatch):
        # a projection block the host cannot allocate, though within MAX_PROJECTED
        def unable(*args):
            raise error

        monkeypatch.setattr(cli, "sliced_w2", unable)
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(tiny_config("wass-scaling")))
        code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [line]
        assert not any((tmp_path / "out").iterdir())  # no CSV, no report.json

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("weights-moments", "thresholds", {"mean_sigmas": 4}),
            ("weights-moments", "thresholds", {"var_sigmas": 4}),
            ("weights-moments", "thresholds", {"cov_sigmas": 4}),
            ("weights-moments", "thresholds", {"sumsq_sigmas": 3}),
            ("clt", "ks_threshold", 0.03),
            ("clt", "cov_sigmas", 4),
            ("clt", "bins", 50),
            ("weighting-gap", "sigmas", 3),
            ("wass-scaling", "slack", 0.1),
            ("wass-scaling", "slope_range", [0.8, 2.2]),
            ("converge", "rho_tolerance", 0.02),
            ("converge", "blocks", 8),
            ("gd-ode", "slope_range", [0.8, 1.2]),
            # inputs no verdict reads: the gap is a statistic of the weights alone, per
            # unit of Tr sigma^2, and model.theta_star sets wass-scaling's offset
            ("weighting-gap", "theta", [1.0, 1.0]),
            ("weighting-gap", "model", {"kind": "quadratic", "p": 2, "s": 1.0}),
            ("weighting-gap", "p", 2),
            ("wass-scaling", "x0", [1.0, 1.0]),
        ],
        ids=[
            "mean-sigmas", "var-sigmas", "cov-sigmas", "sumsq-sigmas", "ks-threshold",
            "clt-cov-sigmas", "bins", "sigmas", "slack", "wass-slope-range", "rho-tolerance",
            "blocks", "gd-ode-slope-range", "gap-theta", "gap-model", "gap-p", "wass-x0",
        ],
    )
    def test_bound_keys_rejected(self, command, key, value, tmp_path, capsys):
        # a bound is declared once, in cli.BOUNDS: a config cannot move it, even to its
        # value, nor set an input that no verdict reads
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(tiny_config(command) | {key: value}))
        code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {command}: unknown key {key!r}\n"

    @pytest.mark.parametrize("horizon", [400, 710], ids=["product-overflows", "exp-overflows"])
    def test_gd_ode_bound_that_overflows_fails(self, horizon, tmp_path, capsys):
        # exp(L * horizon) overflows beyond 709.78, and at 400 its product with the
        # gradient at x0 = 1e150 does: a bound that is not finite bounds nothing
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({
            "command": "gd-ode", "seed": 1, "gammas": [0.5, 0.25], "horizon": horizon,
            "x0": [1e150],
        }))
        code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 1
        lines = [line for line in capsys.readouterr().out.splitlines() if " bound_gamma" in line]
        assert len(lines) == 2
        for line in lines:
            assert line.startswith("FAIL bound_gamma") and " target=nan " in line
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert not payload["overall_pass"]

    def test_slope_through_a_zero_error_fails(self, tmp_path, capsys):
        # GD and the flow both reach 0 within the horizon, so the final errors are 0:
        # no logarithm to fit, and no warning on the way to the FAIL
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({
            "command": "gd-ode", "seed": 1, "gammas": [0.5, 0.25], "horizon": 710,
            "x0": [1.0],
        }))
        code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "FAIL loglog_slope: observed=nan " in capsys.readouterr().out

    def test_covariance_ratio_that_is_nan_fails(self, tmp_path, capsys, monkeypatch):
        # one NaN entry among finite ones: a running max from 0 would skip it
        covariance_with_se = cli.covariance_with_se

        def with_nan_se(samples):
            cov, se = covariance_with_se(samples)
            se[0, 1] = math.nan
            return cov, se

        monkeypatch.setattr(cli, "covariance_with_se", with_nan_se)
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(tiny_config("clt") | {"p": 2}))
        code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "FAIL covariance_max_sigmas: observed=nan " in capsys.readouterr().out

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
            (tiny_config("converge") | {"x0": [2e150]}, "converge.x0"),
            (tiny_logistic() | {"x0": [1.0, 1e200]}, "converge.x0"),
        ],
        ids=["gd-ode", "converge", "logistic"],
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
                "error: msgd replication 0 diverged at iteration 1 with step size 0.2",
            ),
            (
                tiny_config("converge") | {"model": {"kind": "quadratic", "p": 1,
                                                     "theta_star": [1e152]}},
                "error: gaussian_sgd replication 0 diverged at iteration 1 with step size 0.1",
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
        assert not any((tmp_path / "out").iterdir())  # no CSV, no report.json

    def test_wass_scaling_divergence_starts_no_diffusion(self, tmp_path, capsys, monkeypatch):
        # M-SGD runs first, and its divergence ends the run before Euler-Maruyama starts
        calls = []
        monkeypatch.setattr(cli, "run_diffusion_em", lambda *args: calls.append(args))
        config = tiny_config("wass-scaling") | {
            "model": {"kind": "quadratic", "p": 2, "theta_star": [1e152, 1e152]}
        }
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        assert main(["--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
        assert calls == []
        assert capsys.readouterr().err.startswith("error: msgd replication 0 diverged")

    def test_converge_logistic_runs_msgd_once(self, tmp_path, monkeypatch):
        # both runs and every kappa advance in one lockstep call, each kappa a
        # block of the state; the canonical config at 2 reps keeps the test cheap
        config_dir = Path(__file__).resolve().parents[1] / "configs"
        raw = json.loads((config_dir / "converge_logistic.json").read_text()) | {"reps": 2}
        cfg = validate_config(raw)
        calls = []

        def counted(model, scheme, configs, streams):
            calls.append((model, list(configs), [len(group) for group in streams]))
            return run_msgd(model, scheme, configs, streams)

        run_msgd = cli.run_msgd
        monkeypatch.setattr(cli, "run_msgd", counted)
        run_experiment(cfg, tmp_path)
        [(model, configs, sizes)] = calls
        assert model is cfg.plan["model"] and model.dim == 5 * 6
        assert [c.num_steps for c in configs] == [60, 300]
        assert all(c is planned for c, planned in zip(configs, cfg.plan["configs"]))
        assert all(c.x0.shape == (model.dim,) for c in configs)
        assert sizes == [2, 2]

    def test_rate_of_a_curve_that_is_not_positive_fails(self, tmp_path, capsys):
        # the states stay near 1e77, in range, but the start's g-gap of 1/2
        # is lost against p s^2 / 2, so the fit window holds a 0: no rate to fit
        config_path = tmp_path / "cfg.json"
        config = tiny_config("converge") | {"model": {"kind": "quadratic", "p": 1, "s": 1e78}}
        config_path.write_text(json.dumps(config))
        code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "FAIL gaussian_sgd:rho_hat: observed=nan" in capsys.readouterr().out
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert not payload["overall_pass"]

    def test_recursion_deviation_of_an_overflowed_spread_fails(self, tmp_path, capsys):
        # the g-gap SE overflows to inf, and a deviation in units of it would read 0
        config_path = tmp_path / "cfg.json"
        config = tiny_config("converge") | {"model": {"kind": "quadratic", "p": 1, "s": 1e78}}
        config_path.write_text(json.dumps(config))
        main(["--config", str(config_path), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert "FAIL gaussian_sgd:recursion_max_dev: observed=nan" in out
        assert "FAIL msgd:recursion_max_dev: observed=nan" in out

    def test_overflowed_spread_fails_quietly_under_warnings_as_errors(self, tmp_path):
        # the overflow in the g-gap spread is part of the verdict, not a warning:
        # `-W error` still ends in the FAIL lines and exit 1, with nothing on stderr
        config_path = tmp_path / "cfg.json"
        config = tiny_config("converge") | {"model": {"kind": "quadratic", "p": 1, "s": 1e78}}
        config_path.write_text(json.dumps(config))
        path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "msgdlab",
             "--config", str(config_path), "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert "FAIL gaussian_sgd:recursion_max_dev: observed=nan" in result.stdout
        assert "FAIL msgd:recursion_max_dev: observed=nan" in result.stdout
        assert result.stderr == ""

    def test_report_without_checks_fails(self):
        empty = ExperimentReport(command="gd-ode", seed=1, config={}, resolved={}, checks=[])
        assert not empty.overall_pass
        assert empty.as_dict()["overall_pass"] is False
        passing = CheckResult("c", observed=0.0, target=0.0, tolerance=1.0)
        assert ExperimentReport("gd-ode", 1, {}, {}, [passing]).overall_pass

    def test_missing_config_flag(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("content", [None, b"\xff\xfe{}"], ids=["missing", "not-utf8"])
    def test_unreadable_config_exit_two(self, content, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        if content is not None:
            config_path.write_bytes(content)
        code = main(["--config", str(config_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot read config: ")

    @pytest.mark.parametrize(
        "out, reason", [("file", "File exists"), ("file/sub", "Not a directory")],
        ids=["a-file", "under-a-file"],
    )
    def test_unwritable_output_exit_two(self, out, reason, tmp_path, capsys):
        # each of these used to end in a traceback
        (tmp_path / "file").write_text("kept")
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(tiny_config("gd-ode")))
        code = main(["--config", str(config_path), "--out", str(tmp_path / out)])
        assert code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: cannot write output: ") and reason in line
        assert (tmp_path / "file").read_text() == "kept"

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


class TestJudge:
    @pytest.mark.parametrize(
        "args, inline",
        [
            (
                ("weights-moments", "coord_mean", "minibatch:coord_mean", 0.0102, 0.01, 4e-5),
                CheckResult("minibatch:coord_mean", 0.0102, 0.01, 4 * 4e-5),
            ),
            (
                ("weights-moments", "m_sum_sq", "dirichlet:m_sum_sq", 1.003, 1.0, 0.0017),
                CheckResult("dirichlet:m_sum_sq", 1.003, 1.0, 3 * 0.0017 + 1e-12),
            ),
            (
                ("clt", "ks_coord", "ks_coord1", 0.021),
                CheckResult("ks_coord1", 0.021, 0.0, 0.03, comparison="le"),
            ),
            (
                ("gd-ode", "bound_gamma", "bound_gamma0.1", 0.05, 0.07),
                CheckResult("bound_gamma0.1", 0.05, 0.07, 0.0, comparison="le"),
            ),
            (
                ("converge", "rho_order", "run0:rho_order:kappa0.2<=kappa0.05", -0.01, 0.0,
                 math.hypot(0.003, 0.0045)),
                CheckResult("run0:rho_order:kappa0.2<=kappa0.05", -0.01, 0.0,
                            2.0 * math.hypot(0.003, 0.0045), comparison="le"),
            ),
            (  # target 1.5 and tolerance 0.7, as (low + high) / 2 and (high - low) / 2 round
                ("wass-scaling", "loglog_slope", "loglog_slope", 2.01),
                CheckResult("loglog_slope", 2.01, (0.8 + 2.2) / 2, (2.2 - 0.8) / 2),
            ),
        ],
        ids=["abs-se", "abs-se-floor", "le-fixed", "le-zero", "le-hypot", "in"],
    )
    def test_builds_the_record_the_runner_built(self, args, inline):
        # each record is the one the runners built inline before judge existed,
        # bit for bit, so reports keep their bytes
        check = judge(*args)
        assert check == inline
        assert json.dumps(check.as_dict()) == json.dumps(inline.as_dict())

    @pytest.mark.parametrize(
        "command, key",
        [(command, key) for command, bounds in cli.BOUNDS.items()
         for key, bound in bounds.items() if isinstance(bound, tuple)],
    )
    def test_nan_statistic_fails(self, command, key):
        assert not judge(command, key, "c", math.nan, 0.0, 1.0).passed

    def test_no_dead_bound(self, tmp_path, monkeypatch):
        # the golden configs read every BOUNDS entry, so none outlives its check
        class Reads(dict):
            """One command's entries, recording each key read."""

            def __init__(self, bounds):
                super().__init__(bounds)
                self.read = set()

            def __getitem__(self, key):
                self.read.add(key)
                return super().__getitem__(key)

        for command, bounds in list(cli.BOUNDS.items()):
            monkeypatch.setitem(cli.BOUNDS, command, Reads(bounds))
        for name, (raw, *_) in GOLDEN.items():
            run_experiment(validate_config(raw), tmp_path / name)
        assert {command: bounds.read for command, bounds in cli.BOUNDS.items()} == {
            command: set(bounds) for command, bounds in cli.BOUNDS.items()
        }


@pytest.mark.parametrize("name", sorted(RESOLVED))
def test_resolved_echo_pinned(name):
    raw, seed_override, seed, expected = RESOLVED[name]
    if isinstance(raw, str):
        raw = (REPO / "configs" / raw).read_text()
    cfg = validate_config(raw, seed_override=seed_override)
    assert cfg.seed == seed
    assert json.dumps(cfg.params, sort_keys=True, separators=(",", ":")) == expected


# Each command's settable config values, counted by tools/artifact_diff.py's
# rule: a new key is a visible change to this test.
SETTABLE = {"weights-moments": 4, "clt": 5, "weighting-gap": 3, "wass-scaling": 11,
            "converge": 15, "gd-ode": 5}


def test_settable_config_values_pinned():
    sys.path.insert(0, str(REPO / "tools"))
    try:
        from artifact_diff import settable
    finally:
        sys.path.remove(str(REPO / "tools"))
    counts = {command: settable(schema, cli.Kinds) for command, schema in cli.SCHEMAS.items()}
    assert counts == SETTABLE
    assert sum(counts.values()) == 43


def test_readme_example_and_commands():
    readme = (REPO / "README.md").read_text()
    example = re.search(r"Example config \(`clt`\):\n+```json\n(.*?)```", readme, re.S)
    assert validate_config(example.group(1)).command == "clt"
    section = readme.split("\nCommands:\n", 1)[1].split("\nExample config", 1)[0]
    bullets = re.findall(r"^\* `([a-z-]+)` - ", section, re.M)
    assert sorted(bullets) == sorted(COMMANDS) and len(set(bullets)) == len(bullets)
