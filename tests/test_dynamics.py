"""Process runners and divergence handling."""

import dataclasses
import math

import numpy as np
import pytest

import msgdlab.dynamics as dynamics_mod
from msgdlab.dynamics import (
    MAX_STEPS,
    DivergenceError,
    RunConfig,
    run_diffusion_em,
    run_gaussian_sgd,
    run_gd,
    run_msgd,
    run_ode,
)
from msgdlab.models import (
    LossModel,
    generate_logistic_dataset,
    make_logistic_model,
    make_quadratic_model,
    make_uniform_clt_model,
)
from msgdlab.numerics import derive_stream
from msgdlab.weights import WeightScheme
from oracles import diffusion_em_per_step, diffusion_em_replay, gaussian_sgd_per_step, rk4_path


def zero_noise_quadratic(p=1):
    """Quadratic drift toward 0 with an identically-zero noise factor."""
    return LossModel(
        name="zero_noise",
        dim=p,
        payload_dim=p,
        objective=lambda theta: 0.5 * float(np.dot(theta, theta)),
        grad_objective=lambda theta: np.asarray(theta, dtype=float),
        sample_data=lambda streams, count, out=None: np.zeros((len(streams), count, p)),
        grad_loss=lambda theta, data: np.broadcast_to(
            np.asarray(theta)[..., None, :], data.shape
        ).astype(float),
        noise_factor=lambda theta: np.zeros((p, p)),
        lipschitz_grad=1.0,
        lipschitz_noise=0.0,
        strong_convexity=1.0,
        minimizer=np.zeros(p),
    )


def repelling_model(p=1):
    """Gradient points away from 0, so descent explodes geometrically."""
    return LossModel(
        name="repelling",
        dim=p,
        payload_dim=p,
        objective=lambda theta: -0.5 * float(np.dot(theta, theta)),
        grad_objective=lambda theta: -np.asarray(theta, dtype=float),
        sample_data=lambda streams, count, out=None: np.zeros((len(streams), count, p)),
        grad_loss=lambda theta, data: np.broadcast_to(
            -np.asarray(theta)[..., None, :], data.shape
        ).astype(float),
        noise_factor=lambda theta: np.zeros((p, p)),
        lipschitz_grad=1.0,
        lipschitz_noise=0.0,
        strong_convexity=None,
        minimizer=None,
    )


def ensemble_model(name):
    if name == "quadratic":
        return make_quadratic_model(2, [0.5, -0.5], 1.0)
    dataset = generate_logistic_dataset(derive_stream(97, ["ld"]), 3, 150)
    return make_logistic_model(dataset, 0.1)


def dense_noise_quadratic():
    """The quadratic drift toward (0.5, -0.5) with a dense constant noise factor."""
    sigma = np.array([[1.0, 0.3], [-0.7, 2.0]]) / 3.0
    return dataclasses.replace(make_quadratic_model(2, [0.5, -0.5], 1.0),
                               noise_factor=lambda theta: sigma)


class TestRunConfig:
    def test_gamma_range_enforced(self):
        for gamma in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                RunConfig(gamma=gamma, num_steps=5, x0=[0.0])

    def test_step_count_capped(self):
        # a step count no run could allocate is rejected before any state is
        longest = RunConfig(gamma=0.1, num_steps=MAX_STEPS, x0=[0.0])
        assert longest.num_steps == MAX_STEPS == 10**6
        for steps in (0, MAX_STEPS + 1, math.inf):
            with pytest.raises(ValueError, match=r"num_steps must be in \[1, 1000000\]"):
                RunConfig(gamma=0.1, num_steps=steps, x0=[0.0])


class TestGd:
    def test_linear_contraction_exact(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        config = RunConfig(gamma=0.1, num_steps=20, x0=[1.0])
        states = run_gd(model, [config]).runs[0][:, 0]
        np.testing.assert_allclose(states, 0.9 ** np.arange(21), rtol=1e-12)

    def test_fixed_point_stays(self):
        model = make_quadratic_model(2, [2.0, -1.0], 1.0)
        config = RunConfig(gamma=0.3, num_steps=15, x0=[2.0, -1.0])
        states = run_gd(model, [config]).runs[0]
        np.testing.assert_array_equal(states, np.tile([2.0, -1.0], (16, 1)))

    def test_logistic_descent_monotone(self):
        dataset = generate_logistic_dataset(derive_stream(3, ["d"]), 3, 500)
        model = make_logistic_model(dataset, 0.05)
        assert 0.1 < 1.0 / model.lipschitz_grad  # descent regime
        config = RunConfig(gamma=0.1, num_steps=60, x0=np.ones(3))
        values = [model.objective(x) for x in run_gd(model, [config]).runs[0]]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_divergence_reports_iteration(self):
        config = RunConfig(gamma=0.99, num_steps=2000, x0=[1.0])
        with pytest.raises(DivergenceError) as info:
            run_gd(repelling_model(), [config])
        assert 0 < info.value.iteration <= 2000
        assert info.value.process == "gd" and info.value.step_size == 0.99


class TestGaussianSgd:
    def test_zero_noise_equals_gd(self):
        model = zero_noise_quadratic()
        config = RunConfig(gamma=0.2, num_steps=25, x0=[1.5])
        noisy = run_gaussian_sgd(model, [config], [[derive_stream(5, ["z"])]], 3).runs[0]
        plain = run_gd(model, [config]).runs[0]
        np.testing.assert_array_equal(noisy[:, 0], plain)

    def test_huge_minibatch_tracks_gd(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        config = RunConfig(gamma=0.1, num_steps=10, x0=[1.0])
        noisy = run_gaussian_sgd(model, [config], [[derive_stream(7, ["big"])]], 10**8).runs[0]
        plain = run_gd(model, [config]).runs[0]
        assert np.max(np.abs(noisy[:, 0] - plain)) <= 1e-2

    def test_one_step_noise_variance(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        m = 4
        config = RunConfig(gamma=0.1, num_steps=1, x0=[1.0])
        stream = derive_stream(11, ["var"])
        deterministic = 1.0 - 0.1 * 1.0
        streams = [stream.child(r) for r in range(10**4)]
        draws = run_gaussian_sgd(model, [config], [streams], m).runs[0][1, :, 0] - deterministic
        assert draws.var() == pytest.approx(0.1**2 / m, rel=0.06)


class TestMsgd:
    def test_degenerate_data_reduces_to_gd(self):
        # single-datum law with grad l = grad g: any scheme gives GD because
        # the weights sum to one
        model = zero_noise_quadratic()
        for kind in ("minibatch", "gaussian", "dirichlet"):
            scheme = WeightScheme(kind, n=32, m=8)
            config = RunConfig(gamma=0.25, num_steps=20, x0=[2.0])
            run = run_msgd(model, scheme, [config], [[derive_stream(13, [kind])]]).runs[0]
            plain = run_gd(model, [config]).runs[0]
            np.testing.assert_allclose(run[:, 0], plain, rtol=1e-12, atol=1e-14)

    def test_ensemble_mean_tracks_gd(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        scheme = WeightScheme("minibatch", n=1000, m=100)
        config = RunConfig(gamma=0.1, num_steps=50, x0=[1.0])
        stream = derive_stream(17, ["ens"])
        streams = [stream.child(r) for r in range(200)]
        finals = run_msgd(model, scheme, [config], [streams]).runs[0][-1, :, 0]
        target = run_gd(model, [config]).runs[0][-1, 0]
        se = finals.std(ddof=1) / math.sqrt(200)
        assert abs(finals.mean() - target) <= 4 * se

    def test_both_noisy_processes_unbiased_at_every_step(self):
        # mean weighted-SGD iterate and mean Gaussian-SGD iterate both sit
        # on the GD path, per iteration, within Monte Carlo error
        model = make_quadratic_model(1, [0.0], 1.0)
        reps, steps = 300, 30
        scheme = WeightScheme("dirichlet", n=200, m=40)
        config = RunConfig(gamma=0.1, num_steps=steps, x0=[1.0])
        stream = derive_stream(83, ["unbiased"])
        msgd = run_msgd(
            model, scheme, [config], [[stream.child("m", r) for r in range(reps)]]
        ).runs[0][:, :, 0].T
        gauss = run_gaussian_sgd(
            model, [config], [[stream.child("g", r) for r in range(reps)]], scheme.m
        ).runs[0][:, :, 0].T
        gd_path = run_gd(model, [config]).runs[0][:, 0]
        for ensemble in (msgd, gauss):
            se = ensemble.std(axis=0, ddof=1) / math.sqrt(reps)
            gaps = np.abs(ensemble.mean(axis=0) - gd_path)
            np.testing.assert_array_less(gaps, 4 * se + 1e-12)

    def test_steps_only_through_weighted_grad(self, monkeypatch):
        # the quadratic model's conditional sampler is M-SGD's one draw: a
        # model whose data sampler and grad_loss raise steps to the same bytes,
        # and under normal-base gaussian weights, whose (sum w, |w|^2) is drawn
        # in closed form, so does a run that cannot draw a weight row
        def unreachable(*args, **kwargs):
            raise AssertionError("run_msgd drew or reduced data, or drew weights")

        model = ensemble_model("quadratic")
        scheme = WeightScheme("gaussian", n=40, m=8)
        config = RunConfig(gamma=0.5, num_steps=6, x0=np.ones(model.dim))
        runs = [
            run_msgd(m, scheme, [config], [[derive_stream(89, [r]) for r in range(4)]]).runs[0]
            for m in (model, dataclasses.replace(model, sample_data=unreachable,
                                                 grad_loss=unreachable))
        ]
        np.testing.assert_array_equal(runs[1], runs[0])
        monkeypatch.setattr(dynamics_mod, "sample_weights", unreachable)
        rowless = run_msgd(model, scheme, [config], [[derive_stream(89, [r]) for r in range(4)]])
        np.testing.assert_array_equal(rowless.runs[0], runs[0])
        # and replacing the sampler replaces the drift
        zero = dataclasses.replace(
            model, sample_weighted_grad=lambda theta, norms, streams: np.zeros(np.shape(theta))
        )
        frozen = run_msgd(zero, scheme, [config], [[derive_stream(89, [r]) for r in range(4)]])
        np.testing.assert_array_equal(frozen.runs[0], np.ones((7, 4, model.dim)))

    def test_logistic_steps_only_through_fused_weighted_grad(self):
        # the logistic model's fused weighted gradient is M-SGD's one reduction:
        # a model whose grad_loss raises steps to the same bytes
        def unreachable(theta, data):
            raise AssertionError("run_msgd called grad_loss")

        model = ensemble_model("logistic")
        scheme = WeightScheme("gaussian", n=40, m=8)
        config = RunConfig(gamma=0.5, num_steps=6, x0=np.ones(model.dim))
        runs = [
            run_msgd(m, scheme, [config], [[derive_stream(89, [r]) for r in range(4)]]).runs[0]
            for m in (model, dataclasses.replace(model, grad_loss=unreachable))
        ]
        np.testing.assert_array_equal(runs[1], runs[0])
        # and replacing weighted_grad's reduction replaces the drift
        zero = dataclasses.replace(
            model, fused_weighted_grad=lambda theta, data, w: np.zeros(np.shape(theta))
        )
        frozen = run_msgd(zero, scheme, [config], [[derive_stream(89, [r]) for r in range(4)]])
        np.testing.assert_array_equal(frozen.runs[0], np.ones((7, 4, model.dim)))


class TestEnsemble:
    """Replication r of an ensemble is the run a one-replication ensemble
    on the same stream makes, to the last bit."""

    REPS = 5

    def _assert_replications_match(self, run, label):
        streams = [derive_stream(101, [label, r]) for r in range(self.REPS)]
        ensemble = run(streams)
        assert ensemble.shape[1] == self.REPS
        for r in range(self.REPS):
            single = run([derive_stream(101, [label, r])])
            np.testing.assert_array_equal(ensemble[:, r], single[:, 0])

    @pytest.mark.parametrize("kind", ["minibatch", "gaussian", "dirichlet"])
    @pytest.mark.parametrize("model_name", ["quadratic", "logistic"])
    def test_msgd(self, kind, model_name):
        model = ensemble_model(model_name)
        scheme = WeightScheme(kind, n=64, m=16)
        config = RunConfig(gamma=0.2, num_steps=12, x0=np.ones(model.dim))
        self._assert_replications_match(
            lambda streams: run_msgd(model, scheme, [config], [streams]).runs[0], f"msgd-{kind}"
        )

    @pytest.mark.parametrize("model_name", ["quadratic", "logistic"])
    def test_gaussian_sgd(self, model_name):
        model = ensemble_model(model_name)
        config = RunConfig(gamma=0.2, num_steps=12, x0=np.ones(model.dim))
        self._assert_replications_match(
            lambda streams: run_gaussian_sgd(model, [config], [streams], 4).runs[0], "gaussian"
        )

    @pytest.mark.parametrize("model_name", ["quadratic"])
    def test_diffusion_em(self, model_name):
        model = ensemble_model(model_name)
        config = RunConfig(gamma=0.2, num_steps=6, x0=np.ones(model.dim))
        self._assert_replications_match(
            lambda streams: run_diffusion_em(model, [config], 7, [streams], 4).runs[0], "em"
        )

    def test_single_stream_rejected(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        config = RunConfig(gamma=0.1, num_steps=3, x0=[1.0])
        with pytest.raises(TypeError, match="sequence"):
            run_gaussian_sgd(model, [config], [derive_stream(1, [])], 1)

    def test_diverged_replication_raises(self, repelling_for_stream):
        # replication 1 draws data that makes its gradient repel; the
        # ensemble raises where that replication alone does, naming it
        model = repelling_for_stream(1)
        scheme = WeightScheme("minibatch", n=4, m=2)
        config = RunConfig(gamma=0.5, num_steps=400, x0=[1.0])
        with pytest.raises(DivergenceError) as info:
            run_msgd(model, scheme, [config], [[derive_stream(103, [r]) for r in range(3)]])
        with pytest.raises(DivergenceError) as alone:
            run_msgd(model, scheme, [config], [[derive_stream(103, [1])]])
        assert info.value.process == "msgd replication 1"
        assert 0 < info.value.iteration == alone.value.iteration <= 400
        assert info.value.step_size == 0.5
        assert str(info.value) == (
            f"msgd replication 1 diverged at iteration {info.value.iteration} "
            "with step size 0.5"
        )
        for r in (0, 2):  # the others stay in range alone
            lone = run_msgd(model, scheme, [config], [[derive_stream(103, [r])]]).runs[0]
            assert np.isfinite(lone).all()

    def test_all_diverged_raises(self, repelling_for_stream):
        model = repelling_for_stream(0)
        scheme = WeightScheme("minibatch", n=4, m=2)
        config = RunConfig(gamma=0.5, num_steps=400, x0=[1.0])
        with pytest.raises(DivergenceError) as info:
            run_msgd(model, scheme, [config], [[derive_stream(103, [0])]])
        assert info.value.process == "msgd replication 0"


class TestMsgdChunking:
    """The replications M-SGD draws and reduces together cannot change a bit:
    one at a time, a few at a time and the default chunk agree."""

    N = 64

    def _assert_chunk_invariant(self, monkeypatch, model, kind, streams_fn, steps=12):
        scheme = WeightScheme(kind, n=self.N, m=16)
        config = RunConfig(gamma=0.2, num_steps=steps, x0=np.ones(model.dim))
        runs = []
        # the default chunk, then chunks of 1 and of 3 replications
        for elements in (dynamics_mod.CHUNK_ELEMENTS, self.N * model.payload_dim,
                         3 * self.N * model.payload_dim):
            monkeypatch.setattr(dynamics_mod, "CHUNK_ELEMENTS", elements)
            runs.append(run_msgd(model, scheme, [config], [streams_fn()]).runs[0])
        for run in runs[1:]:
            np.testing.assert_array_equal(run, runs[0])
        return runs[0]

    @pytest.mark.parametrize("reps", [1, 7])
    @pytest.mark.parametrize("kind", ["minibatch", "gaussian", "dirichlet"])
    @pytest.mark.parametrize("model_name", ["quadratic", "logistic"])
    def test_chunk_size_leaves_bytes(self, monkeypatch, model_name, kind, reps):
        model = ensemble_model(model_name)
        run = self._assert_chunk_invariant(
            monkeypatch, model, kind,
            lambda: [derive_stream(107, [model_name, kind, r]) for r in range(reps)],
        )
        assert run.shape == (13, reps, model.dim)

    @pytest.mark.parametrize("kind", ["minibatch", "gaussian", "dirichlet"])
    def test_kappa_grid_chunk_size_leaves_bytes(self, monkeypatch, kind):
        dataset = generate_logistic_dataset(derive_stream(97, ["ld"]), 3, 150)
        model = make_logistic_model(dataset, [0.2, 0.1, 0.05, 0.01, 0.001])
        run = self._assert_chunk_invariant(
            monkeypatch, model, kind,
            lambda: [derive_stream(107, ["grid", kind, r]) for r in range(7)],
        )
        assert run.shape == (13, 7, model.dim)

    def test_divergence_mid_chunk(self, monkeypatch, repelling_for_stream):
        # replication 4 sits in the middle of the second chunk of 3; every
        # chunk size names it, at the iteration it diverges alone
        model = repelling_for_stream(4)
        scheme = WeightScheme("minibatch", n=self.N, m=16)
        config = RunConfig(gamma=0.2, num_steps=400, x0=[1.0])
        with pytest.raises(DivergenceError) as alone:
            run_msgd(model, scheme, [config], [[derive_stream(109, [4])]])
        for elements in (dynamics_mod.CHUNK_ELEMENTS, self.N, 3 * self.N):
            monkeypatch.setattr(dynamics_mod, "CHUNK_ELEMENTS", elements)
            with pytest.raises(DivergenceError) as info:
                run_msgd(model, scheme, [config], [[derive_stream(109, [r]) for r in range(7)]])
            assert info.value.process == "msgd replication 4"
            assert 0 < info.value.iteration == alone.value.iteration


class TestLogisticKappaGrid:
    """M-SGD on one model over a kappa grid: each replication draws its data
    and weights once per step, and every kappa's block steps on that draw."""

    P = 6
    KAPPAS = (0.2, 0.1, 0.05, 0.01, 0.001)  # the canonical converge_logistic kappas

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_logistic_dataset(derive_stream(113, ["data"]), self.P, 2000)

    def run(self, model, kind, kappas):
        scheme = WeightScheme(kind, n=200, m=10)
        x0 = np.ones(self.P) / math.sqrt(self.P)
        configs = [RunConfig(gamma=g, num_steps=k, x0=np.tile(x0, len(kappas)))
                   for g, k in ((0.5, 12), (0.1, 30))]
        streams = [derive_stream(113, [kind, i]).children("rep", stop=4) for i in range(2)]
        return run_msgd(model, scheme, configs, streams).runs

    def block(self, states, k):
        return states[..., k * self.P : (k + 1) * self.P]

    @pytest.mark.parametrize("kind", ["minibatch", "gaussian", "dirichlet"])
    def test_each_block_tracks_its_one_kappa_run(self, dataset, kind):
        # the same draws, summed in another order: block k differs from the
        # one-kappa run on the same streams only at rounding
        grid = self.run(make_logistic_model(dataset, self.KAPPAS), kind, self.KAPPAS)
        for k, kappa in enumerate(self.KAPPAS):
            lone = self.run(make_logistic_model(dataset, kappa), kind, [kappa])
            for states, alone in zip(grid, lone):
                assert states.shape[:-1] == alone.shape[:-1]
                scale = np.abs(alone).max()
                assert np.abs(self.block(states, k) - alone).max() <= 1e-12 * scale, kappa

    @pytest.mark.parametrize("kind", ["minibatch", "gaussian", "dirichlet"])
    def test_equal_kappas_give_identical_blocks(self, dataset, kind):
        # were the draws not shared, two blocks at one kappa would part at the first step
        kappas = [0.1, 0.05, 0.1, 0.01, 0.1]
        for states in self.run(make_logistic_model(dataset, kappas), kind, kappas):
            for k in (2, 4):
                np.testing.assert_array_equal(
                    self.block(states, k).view(np.uint64), self.block(states, 0).view(np.uint64)
                )
            assert not np.array_equal(self.block(states, 1), self.block(states, 0))


LIMIT = dynamics_mod.DIVERGENCE_LIMIT
BOUNDARY_STATES = (
    np.nan, np.inf, -np.inf, LIMIT, -LIMIT, np.nextafter(LIMIT, np.inf),
    -np.nextafter(LIMIT, np.inf),
)


def _out_of_range(value):
    return not abs(value) <= LIMIT


def jump_model(values):
    """One-dimensional model under which a step of size 1/2 from 0 lands
    exactly on ``values[r]``: the gradient is the constant -2 values[r], and
    every replication's datum is that constant, chosen by its stream's last
    path label.  ``run_gd`` uses ``values[0]``."""

    def sample_data(streams, count, out=None):
        block = np.empty((len(streams), count, 1)) if out is None else out
        for row, stream in zip(block, streams):
            row[:] = -2.0 * values[stream.path[-1]]
        return block

    return LossModel(
        name="jump",
        dim=1,
        payload_dim=1,
        objective=lambda theta: np.zeros(np.shape(theta)[:-1]),
        grad_objective=lambda theta: np.full(np.shape(theta), -2.0 * values[0]),
        sample_data=sample_data,
        grad_loss=lambda theta, data: data + 0.0 * np.asarray(theta)[..., None, :],
        noise_factor=lambda theta: np.zeros((1, 1)),
        lipschitz_grad=0.0,
        lipschitz_noise=0.0,
    )


class TestDivergenceGuards:
    """A state diverges when |x| > DIVERGENCE_LIMIT in some coordinate or is
    not finite: the limit itself is kept, the next float above it is not."""

    @pytest.mark.parametrize("value", BOUNDARY_STATES)
    def test_single_paths_at_the_start(self, value):
        # a start at the minimiser has a zero gradient, so the path stays there
        x0 = [0.5, value]
        model = make_quadratic_model(2, x0, 1.0)
        config = RunConfig(gamma=0.5, num_steps=3, x0=x0)
        runs = (lambda: run_gd(model, [config]).runs[0], lambda: run_ode(model, [config]).runs[0])
        for run in runs:
            if _out_of_range(value):
                with pytest.raises(DivergenceError) as info:
                    run()
                assert info.value.iteration == 0
                assert info.value.process in ("gd", "ode")
            else:
                np.testing.assert_array_equal(run(), np.tile(x0, (4, 1)))

    @pytest.mark.parametrize("value", BOUNDARY_STATES)
    def test_gd_after_a_step(self, value):
        config = RunConfig(gamma=0.5, num_steps=1, x0=[0.0])
        if _out_of_range(value):
            with pytest.raises(DivergenceError) as info:
                run_gd(jump_model([value]), [config])
            assert info.value.iteration == 1 and info.value.process == "gd"
        else:
            assert run_gd(jump_model([value]), [config]).runs[0][1, 0] == value

    # each boundary state next to an in-range row, then all of them at once,
    # in both orders, so that several rows leave the range at the same step
    @pytest.mark.parametrize(
        "values",
        [(1.0, v) for v in BOUNDARY_STATES]
        + [(1.0,) + BOUNDARY_STATES, (1.0,) + BOUNDARY_STATES[::-1], (1.0, LIMIT, -LIMIT)],
    )
    def test_msgd_first_out_of_range_row_raises(self, values):
        scheme = WeightScheme("minibatch", n=1, m=1)
        config = RunConfig(gamma=0.5, num_steps=2, x0=[0.0])
        streams = [derive_stream(113, [r]) for r in range(len(values))]
        # row r is at k * values[r] after step k: +-LIMIT itself stays in
        # range at step 1 and leaves it at step 2; of rows leaving at the same
        # step, the first in row order is named
        k, r = min((k, r) for k in (1, 2) for r, v in enumerate(values) if _out_of_range(k * v))
        with pytest.raises(DivergenceError) as info:
            run_msgd(jump_model(values), scheme, [config], [streams])
        assert (info.value.process, info.value.iteration) == (f"msgd replication {r}", k)
        assert info.value.step_size == 0.5
        if k == 2:  # one step stays in range, on the boundary
            one = dataclasses.replace(config, num_steps=1)
            states = run_msgd(jump_model(values), scheme, [one], [streams]).runs[0]
            np.testing.assert_array_equal(states[1, :, 0], values)

    def test_msgd_ensemble_raises_when_every_row_diverges(self):
        values = [v for v in BOUNDARY_STATES if _out_of_range(v)]
        scheme = WeightScheme("minibatch", n=1, m=1)
        config = RunConfig(gamma=0.5, num_steps=2, x0=[0.0])
        streams = [derive_stream(113, [r]) for r in range(len(values))]
        with pytest.raises(DivergenceError) as info:
            run_msgd(jump_model(values), scheme, [config], [streams])
        assert info.value.iteration == 1
        assert info.value.process == "msgd replication 0"


def ode_config(gamma, num_steps, x0):
    return RunConfig(gamma=gamma, num_steps=num_steps, x0=x0)


FLOW_GRID = ((0.3, 4), (0.1, 12), (0.2, 6))


class TestOde:
    def test_exponential_decay(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        states = run_ode(model, [ode_config(0.1, 10, [1.0])]).runs[0]
        assert states[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_fixed_point(self):
        model = make_quadratic_model(2, [1.0, 1.0], 1.0)
        states = run_ode(model, [ode_config(0.1, 5, [1.0, 1.0])]).runs[0]
        np.testing.assert_array_equal(states[-1], [1.0, 1.0])

    def test_equals_the_flow_at_every_recorded_step(self):
        # x* + e^(-k gamma) (x0 - x*) at every k, on a grid and for each config alone
        x_star = np.array([0.5, -1.0])
        model = make_quadratic_model(2, x_star, 1.0)
        configs = [ode_config(g, k, [2.0, 3.0]) for g, k in FLOW_GRID]
        grid = run_ode(model, configs)
        for config, grid_run in zip(configs, grid.runs):
            k = np.arange(config.num_steps + 1)[:, None]
            flow = x_star + np.exp(-k * config.gamma) * (config.x0 - x_star)
            np.testing.assert_allclose(grid_run, flow, rtol=1e-13, atol=0)
            np.testing.assert_array_equal(run_ode(model, [config]).runs[0], grid_run)

    def test_agrees_with_fine_rk4(self):
        # the closed form is this model's gradient flow: the 4th-order method at
        # h = gamma/100, an independent integrator, lands on it at every multiple of gamma
        model = make_quadratic_model(2, [0.5, -1.0], 1.0)
        for gamma, steps in FLOW_GRID:
            config = ode_config(gamma, steps, [2.0, 3.0])
            path = rk4_path(model.grad_objective, config.x0, gamma / 100, steps * 100)
            np.testing.assert_allclose(run_ode(model, [config]).runs[0], path[::100],
                                       rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("model_name", ["uniform", "logistic"])
    def test_refuses_a_model_without_a_closed_form_flow(self, model_name):
        # the uniform model has no strong convexity; the logistic one, no known minimiser
        if model_name == "uniform":
            model = make_uniform_clt_model(2)
        else:
            model = ensemble_model("logistic")
        with pytest.raises(ValueError, match="run_ode needs grad g"):
            run_ode(model, [ode_config(0.1, 5, np.ones(model.dim))])

    @pytest.mark.parametrize("lam", [1, 2, 10])
    def test_divergence_reported_at_the_recorded_step(self, lam):
        # the flow from 0 toward x* = 2 LIMIT is x*(1 - e^(-lam k gamma)), which
        # first passes the limit when lam k gamma > ln 2: at k = 70, 35 and 7
        model = flow_model(lam, [2 * LIMIT])
        config = ode_config(0.01, 150, [0.0])
        with pytest.raises(DivergenceError) as info:
            run_ode(model, [config])
        assert info.value.iteration == math.ceil(math.log(2) / (lam * config.gamma))
        assert info.value.step_size == config.gamma


class TestTranslationEquivariance:
    """On the quadratic model, shifting the start and theta* by c shifts every
    state by c, so wass-scaling sets its offset by model.theta_star alone."""

    SHIFT = np.array([3.0, -2.0])

    @staticmethod
    def run(process, offset):
        model = make_quadratic_model(2, np.array([0.5, -0.5]) + offset, 0.7)
        configs = [RunConfig(gamma=g, num_steps=k, x0=np.ones(2) + offset)
                   for g, k in ((0.2, 6), (0.1, 12))]
        streams = [derive_stream(71, [process, i]).children("rep", stop=5) for i in range(2)]
        if process == "msgd":
            return run_msgd(model, WeightScheme("gaussian", n=64, m=8), configs, streams).runs
        if process == "diffusion_em":
            return run_diffusion_em(model, configs, 4, streams, 8).runs
        return run_gaussian_sgd(model, configs, streams, 8).runs

    @pytest.mark.parametrize("process", ["msgd", "diffusion_em", "gaussian_sgd"])
    def test_shifted_states_less_the_shift_equal_the_states(self, process):
        for shifted, plain in zip(self.run(process, self.SHIFT), self.run(process, 0.0)):
            assert np.max(np.abs(shifted - self.SHIFT - plain)) <= 1e-12 * np.max(np.abs(plain))


class TestDiffusionEm:
    def test_zero_noise_is_explicit_euler(self):
        model = zero_noise_quadratic()
        config = RunConfig(gamma=0.1, num_steps=10, x0=[1.0])
        run = run_diffusion_em(model, [config], 100, [[derive_stream(19, ["em"])]], 1).runs[0]
        assert run[-1, 0, 0] == pytest.approx(math.exp(-1.0), abs=1e-3)

    def test_single_substep_variance(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        gamma, m, substeps = 0.1, 4, 1
        config = RunConfig(gamma=gamma, num_steps=1, x0=[1.0])
        stream = derive_stream(23, ["emvar"])
        h = gamma / substeps
        deterministic = 1.0 - h
        streams = [stream.child(r) for r in range(10**4)]
        draws = run_diffusion_em(model, [config], substeps, [streams], m).runs[0][1, :, 0]
        draws -= deterministic
        assert draws.var() == pytest.approx((gamma / m) * h, rel=0.06)

    @pytest.mark.parametrize("model_name", ["quadratic"])
    def test_one_substep_is_gaussian_sgd(self, model_name):
        # the same step on the same normals; the noise scales sqrt(gamma/m)*sqrt(gamma)
        # and gamma/sqrt(m) differ only in rounding
        model = ensemble_model(model_name)
        config = RunConfig(gamma=0.2, num_steps=8, x0=np.full(model.dim, 0.5))
        stream = derive_stream(31, ["one-substep", model_name])
        em = run_diffusion_em(model, [config], 1, [stream.children("rep", stop=5)], 4)
        sgd = run_gaussian_sgd(model, [config], [stream.children("rep", stop=5)], 4)
        np.testing.assert_allclose(em.runs[0], sgd.runs[0], rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("case", ["dense", "negative-a"])
    def test_law_matches_each_substep(self, case):
        # the ensemble's mean and per-coordinate variance at every recorded
        # step, against Euler-Maruyama one substep at a time on other streams,
        # within 4 SE; at lam = 15, h = 0.1 the substep factor a is -0.5
        if case == "dense":
            model, substeps, x0 = dense_noise_quadratic(), 7, [1.0, -2.0]
        else:
            model = dataclasses.replace(flow_model(15.0, [0.5]),
                                        noise_factor=lambda theta: np.full((1, 1), 2.0))
            substeps, x0 = 2, [3.0]
        config = RunConfig(gamma=0.2, num_steps=5, x0=x0)
        reps, m = 4000, 3
        run = run_diffusion_em(model, [config], substeps,
                               [derive_stream(61, [case, "run"]).children("rep", stop=reps)],
                               m).runs[0][1:]
        oracle = diffusion_em_per_step(
            model, config, substeps, derive_stream(61, [case, "oracle"]).children("rep", stop=reps),
            m)[1:]
        mean_gap = run.mean(axis=1) - oracle.mean(axis=1)
        mean_se = np.sqrt((run.var(axis=1, ddof=1) + oracle.var(axis=1, ddof=1)) / reps)
        assert np.all(np.abs(mean_gap) <= 4 * mean_se)

        def variance_with_se(states):
            centred = states - states.mean(axis=1, keepdims=True)
            var = np.mean(centred**2, axis=1)
            return var, np.sqrt((np.mean(centred**4, axis=1) - var**2) / reps)

        (var_run, se_run), (var_oracle, se_oracle) = map(variance_with_se, (run, oracle))
        assert np.all(np.abs(var_run - var_oracle) <= 4 * np.hypot(se_run, se_oracle))

    def test_substeps_leave_the_normals(self, monkeypatch):
        # R and 2R substeps draw the same q normals a recorded step from the
        # same streams, so they differ only through the coefficients
        drawn = []

        class Spy(dynamics_mod.StepNormals):
            def __call__(self, *args):
                z = super().__call__(*args)
                drawn[-1].append(z.copy())
                return z

        monkeypatch.setattr(dynamics_mod, "StepNormals", Spy)
        model = dense_noise_quadratic()
        configs = [RunConfig(gamma=g, num_steps=k, x0=[1.0, -2.0])
                   for g, k in ((0.2, 5), (0.1, 10))]
        for substeps in (50, 100):
            drawn.append([])
            run_diffusion_em(model, configs, substeps,
                             [derive_stream(67, [i]).children("rep", stop=3) for i in range(2)], 4)
        assert len(drawn[0]) == 10
        for z50, z100 in zip(*drawn):
            np.testing.assert_array_equal(z50, z100)

    def test_huge_minibatch_tracks_ode(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        config = RunConfig(gamma=0.1, num_steps=10, x0=[1.0])
        em = run_diffusion_em(model, [config], 50, [[derive_stream(29, ["big"])]], 10**8).runs[0]
        ode = run_ode(model, [config]).runs[0]
        assert np.max(np.abs(em[:, 0] - ode)) <= 1e-2

    @pytest.mark.parametrize("model_name", ["uniform", "logistic"])
    def test_refuses_a_model_without_a_linear_drift(self, model_name):
        # the uniform model has no strong convexity; the logistic one, no known minimiser
        if model_name == "uniform":
            model = make_uniform_clt_model(2)
        else:
            model = ensemble_model("logistic")
        config = RunConfig(gamma=0.1, num_steps=5, x0=np.ones(model.dim))
        with pytest.raises(ValueError, match="run_diffusion_em needs grad g"):
            run_diffusion_em(model, [config], 4, [[derive_stream(37, [])]], 2)

    def test_refuses_a_state_dependent_noise_factor(self):
        model = dataclasses.replace(make_quadratic_model(2, [0.5, -0.5], 1.0),
                                    lipschitz_noise=0.5)
        config = RunConfig(gamma=0.1, num_steps=5, x0=[1.0, 1.0])
        with pytest.raises(ValueError, match="run_diffusion_em needs a constant noise factor"):
            run_diffusion_em(model, [config], 4, [[derive_stream(41, [])]], 2)


class TestLogisticNoiseDimension:
    """The logistic noise factor is p x t (one column per datum), so these
    runs draw q = 200 normals per step, far above the parameter dimension."""

    def _model(self):
        dataset = generate_logistic_dataset(derive_stream(79, ["ld"]), 3, 200)
        return make_logistic_model(dataset, 0.1)

    def test_gaussian_sgd_contracts(self):
        model = self._model()
        assert model.noise_factor(np.ones(3)).shape == (3, 200)
        config = RunConfig(gamma=0.2, num_steps=80, x0=np.ones(3))
        run = run_gaussian_sgd(model, [config], [[derive_stream(79, ["run"])]], 20).runs[0]
        assert model.objective(run[-1, 0]) < model.objective(run[0, 0])


class TestGdOdeGap:
    def test_uniform_gap_bound_and_first_order_slope(self):
        # |gd_k - ode(k gamma)| <= C1 k gamma (1 + L gamma)^k with
        # C1 = |grad g(x0)| e^{LT}; final error scales like gamma
        model = make_quadratic_model(1, [0.0], 1.0)
        horizon, L = 1.0, 1.0
        c1 = 1.0 * math.exp(L * horizon)
        finals = []
        gammas = [0.1, 0.05, 0.025, 0.0125]
        for gamma in gammas:
            steps = int(round(horizon / gamma))
            config = RunConfig(gamma=gamma, num_steps=steps, x0=[1.0])
            gd = run_gd(model, [config]).runs[0]
            ode = run_ode(model, [config]).runs[0]
            errors = np.abs(gd[:, 0] - ode[:, 0])
            for k in range(1, steps + 1):
                assert errors[k] <= c1 * k * gamma * (1 + L * gamma) ** k
            finals.append(errors[-1])
        slope = np.polyfit(np.log(gammas), np.log(finals), 1)[0]
        assert 0.8 <= slope <= 1.2


def flow_model(lam, x_star):
    """g(x) = lam |x - x*|^2 / 2, whose gradient flow is x* + e^(-lam t) (x0 - x*)."""
    x_star = np.asarray(x_star, dtype=float)
    return LossModel(
        name="flow",
        dim=1,
        payload_dim=1,
        objective=lambda theta: 0.5 * lam * np.sum(np.square(theta - x_star), axis=-1),
        grad_objective=lambda theta: lam * (np.asarray(theta, dtype=float) - x_star),
        sample_data=lambda streams, count, out=None: np.zeros((len(streams), count, 1)),
        grad_loss=lambda theta, data: lam * (np.asarray(theta)[..., None, :] - x_star) + data,
        noise_factor=lambda theta: np.zeros((1, 1)),
        lipschitz_grad=float(lam),
        lipschitz_noise=0.0,
        strong_convexity=float(lam),
        minimizer=x_star,
    )


class TestLockstep:
    """A step-size grid advances every config together, each row with its own
    step size and last step; each config's run equals running it alone, bit
    for bit.  A grid that diverges raises the error of the config that
    diverges first alone, the earlier config on a tie, wherever its rows sit
    in the block.  Streams are stateful, so every run gets fresh ones from
    ``streams()``."""

    def _assert_grid_matches(self, run, configs, streams):
        """run(configs, streams()) against run([config], [streams()[i]]) per config i."""
        grid = run(configs, streams())
        steps = max(c.num_steps for c in configs)
        assert grid.states.shape[0] == steps + 1 and len(grid.runs) == len(configs)
        # config i's columns of the block are those its run is a view of, and
        # every column belongs to exactly one config
        columns = [[j for j in range(grid.states.shape[1])
                    if np.shares_memory(grid.states[:, j], run_i)] for run_i in grid.runs]
        assert sorted(sum(columns, [])) == list(range(grid.states.shape[1]))
        for i, config in enumerate(configs):
            # a config's rows leave the ensemble after its last step
            size = 1 if streams()[i] is None else len(streams()[i])
            assert len(columns[i]) == size
            assert np.isnan(grid.states[config.num_steps + 1 :, columns[i]]).all()
            alone = run([config], [streams()[i]]).runs[0]
            np.testing.assert_array_equal(grid.runs[i], alone)
            # run i is config i's: its steps and its start
            assert grid.runs[i].shape[0] == config.num_steps + 1
            assert (grid.runs[i][0] == config.x0).all()
        return grid

    @staticmethod
    def _assert_grid_raises_first(run, configs, streams):
        """The grid's error is that of the config that diverges first alone;
        returns that config's index and the error."""
        alone = []
        for i, config in enumerate(configs):
            try:
                run([config], [streams()[i]])
            except DivergenceError as exc:
                alone.append((exc.iteration, i, str(exc)))
        with pytest.raises(DivergenceError) as info:
            run(configs, streams())
        _, i, line = min(alone)
        assert str(info.value) == line
        return i, info.value

    def test_msgd(self, repelling_for_stream):
        # the rows whose stream path ends in "x" grow 1 + 10 gamma per step
        model = repelling_for_stream("x")
        scheme = WeightScheme("minibatch", n=4, m=2)
        configs = [
            RunConfig(gamma=0.5, num_steps=300, x0=[1.0]),
            RunConfig(gamma=0.2, num_steps=30, x0=[2.0]),
            RunConfig(gamma=0.3, num_steps=400, x0=[1.0]),
        ]

        def streams(bad="x"):
            return [
                [derive_stream(5, ["a", label]) for label in (0, bad, 2)],
                [derive_stream(5, ["c", r]) for r in range(3)],
                [derive_stream(5, ["b", r, bad]) for r in range(2)],
            ]

        def run(c, s):
            return run_msgd(model, scheme, c, s)

        self._assert_grid_matches(run, configs, lambda: streams(bad=1))
        # config 0's row 1 grows 6x a step and passes the limit at step 193;
        # config 2's rows grow 4x and would pass it at step 250
        i, error = self._assert_grid_raises_first(run, configs, streams)
        assert (i, error.process, error.iteration) == (0, "msgd replication 1", 193)

    @pytest.mark.parametrize("kind", ["minibatch", "gaussian", "dirichlet"])
    def test_msgd_logistic_chunks(self, monkeypatch, kind):
        # rows of different configs share chunks, two replications per chunk
        model = ensemble_model("logistic")
        monkeypatch.setattr(dynamics_mod, "CHUNK_ELEMENTS", 2 * 16 * model.payload_dim)
        scheme = WeightScheme(kind, n=16, m=4)
        configs = [RunConfig(gamma=g, num_steps=k, x0=np.ones(3))
                   for g, k in ((0.3, 5), (0.1, 12), (0.2, 8))]
        self._assert_grid_matches(
            lambda c, s: run_msgd(model, scheme, c, s), configs,
            lambda: [[derive_stream(7, [kind, i, r]) for r in range(3)] for i in range(3)],
        )

    def test_gaussian_sgd(self):
        model = ensemble_model("logistic")
        configs = [RunConfig(gamma=g, num_steps=k, x0=np.ones(3))
                   for g, k in ((0.1, 9), (0.4, 3), (0.2, 6))]
        self._assert_grid_matches(
            lambda c, s: run_gaussian_sgd(model, c, s, 25), configs,
            lambda: [[derive_stream(11, [i, r]) for r in range(2)] for i in range(3)],
        )

    def test_diffusion_em(self):
        configs = [RunConfig(gamma=g, num_steps=k, x0=[0.0])
                   for g, k in ((0.2, 40), (0.1, 10), (0.25, 50))]

        def streams():
            return [[derive_stream(13, [i, r]) for r in range(6)] for i in range(3)]

        def run_on(model):
            return lambda c, s: run_diffusion_em(model, c, 4, s, 1)

        run = run_on(make_quadratic_model(1, [0.5], 5.0))
        self._assert_grid_matches(run, configs, streams)
        # toward x* = 2 LIMIT noise of order one is lost in rounding: every row is
        # x*(1 - a^(4k)) with a = 1 - gamma/4 and passes the limit once
        # a^(4k) < 1/2, at k = 4, 7 and 3 for these step sizes
        run = run_on(dataclasses.replace(flow_model(1.0, [2 * LIMIT]),
                                         noise_factor=lambda theta: np.full((1, 1), 5.0)))
        i, error = self._assert_grid_raises_first(run, configs, streams)
        assert (i, error.process, error.iteration) == (2, "diffusion_em replication 0", 3)

    @pytest.mark.parametrize("model_name", ["quadratic"])
    def test_diffusion_em_noise_factor(self, model_name):
        # the constant (p, q) factor multiplies each row's weighted sum of normals
        model = ensemble_model(model_name)
        configs = [RunConfig(gamma=g, num_steps=k, x0=np.ones(model.dim))
                   for g, k in ((0.1, 6), (0.3, 2))]
        self._assert_grid_matches(
            lambda c, s: run_diffusion_em(model, c, 5, s, 4), configs,
            lambda: [[derive_stream(17, [i, r]) for r in range(3)] for i in range(2)],
        )

    def test_diffusion_em_one_substep_matches_em_path(self):
        # at R = 1 the drawn increment is the one substep: oracles.em_path on
        # a dense sigma and the same normals, at every recorded step
        model = dense_noise_quadratic()
        config = RunConfig(gamma=0.2, num_steps=5, x0=[1.0, -2.0])
        def streams():
            return [derive_stream(19, [1, r]) for r in range(4)]

        path = diffusion_em_per_step(model, config, 1, streams(), 3)
        run = run_diffusion_em(model, [config], 1, [streams()], 3).runs[0]
        np.testing.assert_allclose(run, path, rtol=0, atol=1e-12)

    def test_diffusion_em_draws_the_substep_sum(self):
        # x* + a^R (x - x*) + scale sigma z on each stream's own q normals a
        # recorded step, bit for bit, on a dense sigma at every R
        model = dense_noise_quadratic()
        config = RunConfig(gamma=0.2, num_steps=5, x0=[1.0, -2.0])
        m = 3
        for substeps in (1, 7, 50):
            streams = [derive_stream(19, [substeps, r]) for r in range(4)]
            run = run_diffusion_em(model, [config], substeps, [streams], m).runs[0]
            replay = diffusion_em_replay(
                model, config, substeps, [derive_stream(19, [substeps, r]) for r in range(4)], m)
            np.testing.assert_array_equal(run.view(np.uint64), replay.view(np.uint64))
            # each config of a grid run alone equals its grid run
            configs = [config, RunConfig(gamma=0.1, num_steps=8, x0=[-1.0, 2.0])]
            self._assert_grid_matches(
                lambda c, s: run_diffusion_em(model, c, substeps, s, m), configs,
                lambda: [[derive_stream(23, [i, r]) for r in range(3)] for i in range(2)],
            )

    def test_gd(self):
        # x grows by 1 + gamma per step: only gamma = 0.9 over 600 steps reaches the limit
        model = repelling_model()
        configs = [RunConfig(gamma=g, num_steps=k, x0=[1.0])
                   for g, k in ((0.5, 50), (0.9, 100), (0.3, 80))]

        def run(c, _s):
            return run_gd(model, c)

        grid = self._assert_grid_matches(run, configs, lambda: [None] * 3)
        assert grid.runs[0].shape == (51, 1)
        configs[1] = dataclasses.replace(configs[1], num_steps=600)
        i, error = self._assert_grid_raises_first(run, configs, lambda: [None] * 3)
        assert (i, error.process, error.step_size) == (1, "gd", 0.9)

    def test_ode(self):
        # the flow from 0 toward x* = 2 LIMIT passes the limit once
        # 1 - e^(-k gamma) > 1/2: at k = 7, 2 and 3 for these step sizes, so with
        # gamma = 0.5 stopped after one step, gamma = 0.25 diverges first
        configs = [RunConfig(gamma=g, num_steps=k, x0=[0.0])
                   for g, k in ((0.1, 500), (0.5, 30), (0.25, 200))]

        def run_on(model):
            return lambda c, _s: run_ode(model, c)

        run = run_on(make_quadratic_model(1, [0.5], 1.0))
        grid = self._assert_grid_matches(run, configs, lambda: [None] * 3)
        assert grid.states.shape == (501, 3, 1)
        configs[1] = dataclasses.replace(configs[1], num_steps=1)
        run = run_on(flow_model(1.0, [2 * LIMIT]))
        i, error = self._assert_grid_raises_first(run, configs, lambda: [None] * 3)
        assert (i, error.process, error.step_size, error.iteration) == (2, "ode", 0.25, 3)

    def test_every_row_diverged_raises(self):
        # both configs diverge; the error names the later row, which diverges first
        model = repelling_model()
        configs = [RunConfig(gamma=g, num_steps=900, x0=[1.0]) for g in (0.8, 0.9)]
        i, error = self._assert_grid_raises_first(
            lambda c, _s: run_gd(model, c), configs, lambda: [None] * 2
        )
        assert (i, error.step_size) == (1, 0.9)

    @pytest.mark.parametrize("name", ["gd", "ode", "gaussian_sgd", "msgd", "diffusion_em"])
    def test_unsorted_grid_with_a_tie(self, name):
        # neither increasing nor decreasing in num_steps, two configs tied
        model = make_quadratic_model(2, [0.5, -0.5], 1.0)
        configs = [RunConfig(gamma=g, num_steps=k, x0=[1.0, -float(k)])
                   for g, k in ((0.2, 8), (0.1, 16), (0.3, 4), (0.05, 16))]

        def streams():
            if name in ("gd", "ode"):
                return [None] * len(configs)
            return [[derive_stream(47, [i, r]) for r in range(reps)]
                    for i, reps in enumerate((2, 3, 1, 2))]

        self._assert_grid_matches(lambda c, s: RUNNERS[name](model, c, s), configs, streams)

    def test_tie_names_the_earlier_config_placed_later(self):
        # config 0 is shorter, so its rows sit after config 1's, and both leave
        # the range at step 1: config 0's replication 1 and config 1's replication 0
        values = (1.0, 4 * LIMIT)
        scheme = WeightScheme("minibatch", n=1, m=1)
        configs = [RunConfig(gamma=0.5, num_steps=2, x0=[0.0]),
                   RunConfig(gamma=0.25, num_steps=5, x0=[0.0])]

        def streams():
            return [[derive_stream(53, [i, label]) for label in labels]
                    for i, labels in enumerate(((0, 1), (1, 0)))]

        i, error = self._assert_grid_raises_first(
            lambda c, s: run_msgd(jump_model(values), scheme, c, s), configs, streams
        )
        assert (i, error.process, error.iteration, error.step_size) == (
            0, "msgd replication 1", 1, 0.5)

    def test_one_stream_sequence_per_config(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        configs = [RunConfig(gamma=0.1, num_steps=2, x0=[1.0])] * 2
        with pytest.raises(ValueError, match="one stream sequence per config"):
            run_gaussian_sgd(model, configs, [[derive_stream(1, [0])]], 1)
        with pytest.raises(TypeError, match="sequence"):
            run_gaussian_sgd(model, configs, [derive_stream(1, [0]), derive_stream(1, [1])], 1)


class TestStepNormals:
    """The Gaussian runners draw each row's normals a block of steps at a
    time: the bits of the per-step oracles at every block size, on a grid
    whose rows end at different steps, and never a block of more than
    max(CHUNK_ELEMENTS, one step of the live rows) values."""

    # 3 + 2 + 4 rows ending at steps 7, 12 and 5
    CONFIGS = [(0.2, 7, 3), (0.1, 12, 2), (0.3, 5, 4)]

    def configs(self, model):
        return [RunConfig(gamma=g, num_steps=k, x0=np.linspace(1.0, -1.0, model.dim))
                for g, k, _ in self.CONFIGS]

    def streams(self, label):
        return [[derive_stream(47, [label, i, r]) for r in range(reps)]
                for i, (_, _, reps) in enumerate(self.CONFIGS)]

    def assert_blocks_match(self, monkeypatch, run, oracle, model, width, label):
        blocks = []

        class Spy(dynamics_mod.StepNormals):
            def refill(self, streams, width, steps_left):
                super().refill(streams, width, steps_left)
                blocks.append((self.block.size, len(streams) * width,
                               self.block.shape[1], steps_left))

        monkeypatch.setattr(dynamics_mod, "StepNormals", Spy)
        rows = sum(reps for _, _, reps in self.CONFIGS)
        # steps of one block: 1, 3 (a boundary inside every config's run), as many as fit
        for elements, steps in ((1, 1), (3 * rows * width, 3),
                                (dynamics_mod.CHUNK_ELEMENTS, None)):
            monkeypatch.setattr(dynamics_mod, "CHUNK_ELEMENTS", elements)
            blocks.clear()
            configs = self.configs(model)
            runs = run(model, configs, self.streams(label)).runs
            for config, group, states in zip(configs, self.streams(label), runs):
                expected = oracle(model, config, group)
                np.testing.assert_array_equal(states.view(np.uint64), expected.view(np.uint64))
            for size, live_step, block_steps, steps_left in blocks:
                assert size <= max(elements, live_step)
                assert 1 <= block_steps <= steps_left
            if steps == 1:
                assert all(block_steps == 1 for _, _, block_steps, _ in blocks)
            elif steps is not None:
                assert blocks[0][2] == steps
            else:  # the whole run fits: one block per live set, up to its last step
                assert [b[2] for b in blocks] == [5, 2, 5]

    @pytest.mark.parametrize("model_name", ["quadratic", "logistic"])
    def test_gaussian_sgd(self, monkeypatch, model_name):
        model = ensemble_model(model_name)
        q = model.noise_factor(np.ones(model.dim)).shape[-1]
        self.assert_blocks_match(
            monkeypatch, lambda *args: run_gaussian_sgd(*args, 3),
            lambda model, config, group: gaussian_sgd_per_step(model, config, group, 3),
            model, q, model_name,
        )

    @pytest.mark.parametrize("substeps", [1, 4])
    def test_diffusion_em(self, monkeypatch, substeps):
        model = ensemble_model("quadratic")
        self.assert_blocks_match(
            monkeypatch, lambda model, configs, streams: run_diffusion_em(
                model, configs, substeps, streams, 3),
            lambda model, config, group: diffusion_em_replay(model, config, substeps, group, 3),
            model, model.dim, substeps,
        )


# each runner called as (model, configs, streams), the grid of its own signature
RUNNERS = {
    "gd": lambda model, configs, streams: run_gd(model, configs),
    "ode": lambda model, configs, streams: run_ode(model, configs),
    "gaussian_sgd": lambda model, configs, streams: run_gaussian_sgd(model, configs, streams, 2),
    "msgd": lambda model, configs, streams: run_msgd(
        model, WeightScheme("minibatch", n=8, m=2), configs, streams),
    "diffusion_em": lambda model, configs, streams: run_diffusion_em(model, configs, 3, streams, 2),
}


class TestRunnerContract:
    """Every runner takes a step grid and returns a Lockstep whose runs[i] is
    config i's state array, a view of the lockstep block."""

    @pytest.mark.parametrize("name", RUNNERS)
    def test_a_grid_in_state_arrays_out(self, name):
        run = RUNNERS[name]
        model = make_quadratic_model(2, [0.5, -0.5], 1.0)
        configs = [RunConfig(gamma=g, num_steps=k, x0=[1.0, 1.0]) for g, k in ((0.2, 4), (0.1, 7))]
        streams = [[derive_stream(43, [i, r]) for r in range(reps)]
                   for i, reps in enumerate((3, 2))]
        with pytest.raises(TypeError):  # one bare config is not a grid
            run(model, configs[0], streams[0])
        lockstep = run(model, configs, streams)
        assert len(lockstep.runs) == len(configs)
        for config, group, states in zip(configs, streams, lockstep.runs):
            shape = (config.num_steps + 1, model.dim)
            if name not in ("gd", "ode"):
                shape = (config.num_steps + 1, len(group), model.dim)
            assert states.shape == shape
            assert np.shares_memory(states, lockstep.states)
