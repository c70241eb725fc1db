"""Process runners and divergence handling."""

import dataclasses
import math

import numpy as np
import pytest

import msgdlab.dynamics as dynamics_mod
from msgdlab.dynamics import (
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
from oracles import rk4_path


def zero_noise_quadratic(p=1):
    """Quadratic drift toward 0 with an identically-zero noise factor."""
    return LossModel(
        name="zero_noise",
        dim=p,
        noise_dim=p,
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
        noise_dim=p,
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
    dataset = generate_logistic_dataset(derive_stream(97, ["ld"]), 3, 150, 0.1)
    return make_logistic_model(dataset)


class TestRunConfig:
    def test_gamma_range_enforced(self):
        for gamma in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                RunConfig(gamma=gamma, num_steps=5, m=1, n=1, x0=[0.0])

    def test_m_not_above_n(self):
        with pytest.raises(ValueError):
            RunConfig(gamma=0.1, num_steps=5, m=5, n=4, x0=[0.0])


class TestGd:
    def test_linear_contraction_exact(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        config = RunConfig(gamma=0.1, num_steps=20, m=1, n=1, x0=[1.0])
        states = run_gd(model, config).states[:, 0]
        np.testing.assert_allclose(states, 0.9 ** np.arange(21), rtol=1e-12)

    def test_fixed_point_stays(self):
        model = make_quadratic_model(2, [2.0, -1.0], 1.0)
        config = RunConfig(gamma=0.3, num_steps=15, m=1, n=1, x0=[2.0, -1.0])
        states = run_gd(model, config).states
        np.testing.assert_array_equal(states, np.tile([2.0, -1.0], (16, 1)))

    def test_logistic_descent_monotone(self):
        dataset = generate_logistic_dataset(derive_stream(3, ["d"]), 3, 500, 0.05)
        model = make_logistic_model(dataset)
        assert 0.1 < 1.0 / model.lipschitz_grad  # descent regime
        config = RunConfig(gamma=0.1, num_steps=60, m=1, n=1, x0=np.ones(3))
        values = [model.objective(x) for x in run_gd(model, config).states]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_divergence_reports_iteration(self):
        config = RunConfig(gamma=0.99, num_steps=2000, m=1, n=1, x0=[1.0])
        with pytest.raises(DivergenceError) as info:
            run_gd(repelling_model(), config)
        assert 0 < info.value.iteration <= 2000


class TestGaussianSgd:
    def test_zero_noise_equals_gd(self):
        model = zero_noise_quadratic()
        config = RunConfig(gamma=0.2, num_steps=25, m=3, n=9, x0=[1.5])
        noisy = run_gaussian_sgd(model, config, [derive_stream(5, ["z"])])
        plain = run_gd(model, config)
        np.testing.assert_array_equal(noisy.states[:, 0], plain.states)

    def test_huge_minibatch_tracks_gd(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        config = RunConfig(gamma=0.1, num_steps=10, m=10**8, n=10**8, x0=[1.0])
        noisy = run_gaussian_sgd(model, config, [derive_stream(7, ["big"])])
        plain = run_gd(model, config)
        assert np.max(np.abs(noisy.states[:, 0] - plain.states)) <= 1e-2

    def test_one_step_noise_variance(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        m = 4
        config = RunConfig(gamma=0.1, num_steps=1, m=m, n=m, x0=[1.0])
        stream = derive_stream(11, ["var"])
        deterministic = 1.0 - 0.1 * 1.0
        streams = [stream.child(r) for r in range(10**4)]
        draws = run_gaussian_sgd(model, config, streams).states[1, :, 0] - deterministic
        assert draws.var() == pytest.approx(0.1**2 / m, rel=0.06)


class TestMsgd:
    def test_degenerate_data_reduces_to_gd(self):
        # single-datum law with grad l = grad g: any scheme gives GD because
        # the weights sum to one
        model = zero_noise_quadratic()
        for kind in ("minibatch", "gaussian", "dirichlet"):
            scheme = WeightScheme(kind, n=32, m=8)
            config = RunConfig(gamma=0.25, num_steps=20, m=8, n=32, x0=[2.0])
            traj = run_msgd(model, scheme, config, [derive_stream(13, [kind])])
            plain = run_gd(model, config)
            np.testing.assert_allclose(traj.states[:, 0], plain.states, rtol=1e-12, atol=1e-14)

    def test_scheme_config_mismatch_rejected(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        scheme = WeightScheme("minibatch", n=64, m=8)
        config = RunConfig(gamma=0.1, num_steps=5, m=4, n=64, x0=[1.0])
        with pytest.raises(ValueError):
            run_msgd(model, scheme, config, [derive_stream(1, [])])

    def test_ensemble_mean_tracks_gd(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        scheme = WeightScheme("minibatch", n=1000, m=100)
        config = RunConfig(gamma=0.1, num_steps=50, m=100, n=1000, x0=[1.0])
        stream = derive_stream(17, ["ens"])
        streams = [stream.child(r) for r in range(200)]
        finals = run_msgd(model, scheme, config, streams).states[-1, :, 0]
        target = run_gd(model, config).states[-1, 0]
        se = finals.std(ddof=1) / math.sqrt(200)
        assert abs(finals.mean() - target) <= 4 * se

    def test_both_noisy_processes_unbiased_at_every_step(self):
        # mean weighted-SGD iterate and mean Gaussian-SGD iterate both sit
        # on the GD path, per iteration, within Monte Carlo error
        model = make_quadratic_model(1, [0.0], 1.0)
        reps, steps = 300, 30
        scheme = WeightScheme("dirichlet", n=200, m=40)
        config = RunConfig(gamma=0.1, num_steps=steps, m=40, n=200, x0=[1.0])
        stream = derive_stream(83, ["unbiased"])
        msgd = run_msgd(
            model, scheme, config, [stream.child("m", r) for r in range(reps)]
        ).states[:, :, 0].T
        gauss = run_gaussian_sgd(
            model, config, [stream.child("g", r) for r in range(reps)]
        ).states[:, :, 0].T
        gd_path = run_gd(model, config).states[:, 0]
        for ensemble in (msgd, gauss):
            se = ensemble.std(axis=0, ddof=1) / math.sqrt(reps)
            gaps = np.abs(ensemble.mean(axis=0) - gd_path)
            np.testing.assert_array_less(gaps, 4 * se + 1e-12)


class TestEnsemble:
    """Replication r of an ensemble is the run a one-replication ensemble
    on the same stream makes, to the last bit."""

    REPS = 5

    def _assert_replications_match(self, run, label):
        streams = [derive_stream(101, [label, r]) for r in range(self.REPS)]
        ensemble = run(streams)
        assert ensemble.states.shape[1] == self.REPS
        for r in range(self.REPS):
            single = run([derive_stream(101, [label, r])])
            np.testing.assert_array_equal(ensemble.states[:, r], single.states[:, 0])

    @pytest.mark.parametrize("kind", ["minibatch", "gaussian", "dirichlet"])
    @pytest.mark.parametrize("model_name", ["quadratic", "logistic"])
    def test_msgd(self, kind, model_name):
        model = ensemble_model(model_name)
        scheme = WeightScheme(kind, n=64, m=16)
        config = RunConfig(gamma=0.2, num_steps=12, m=16, n=64, x0=np.ones(model.dim))
        self._assert_replications_match(
            lambda streams: run_msgd(model, scheme, config, streams), f"msgd-{kind}"
        )

    @pytest.mark.parametrize("model_name", ["quadratic", "logistic"])
    def test_gaussian_sgd(self, model_name):
        model = ensemble_model(model_name)
        config = RunConfig(gamma=0.2, num_steps=12, m=4, n=16, x0=np.ones(model.dim))
        self._assert_replications_match(
            lambda streams: run_gaussian_sgd(model, config, streams), "gaussian"
        )

    @pytest.mark.parametrize("model_name", ["quadratic", "logistic"])
    def test_diffusion_em(self, model_name):
        model = ensemble_model(model_name)
        config = RunConfig(gamma=0.2, num_steps=6, m=4, n=16, x0=np.ones(model.dim))
        self._assert_replications_match(
            lambda streams: run_diffusion_em(model, config, 7, streams), "em"
        )

    def test_single_stream_rejected(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        config = RunConfig(gamma=0.1, num_steps=3, m=1, n=1, x0=[1.0])
        with pytest.raises(TypeError, match="sequence"):
            run_gaussian_sgd(model, config, derive_stream(1, []))

    def test_diverged_replication_dropped_and_recorded(self, repelling_for_stream):
        # replication 1 draws data that makes its gradient repel
        model = repelling_for_stream(1)
        scheme = WeightScheme("minibatch", n=4, m=2)
        config = RunConfig(gamma=0.5, num_steps=400, m=2, n=4, x0=[1.0])
        streams = [derive_stream(103, [r]) for r in range(3)]
        traj = run_msgd(model, scheme, config, streams)
        k = traj.diverged[1]
        assert list(traj.diverged) == [1] and 0 < k <= 400
        assert np.all(np.isfinite(traj.states[:k, 1])) and np.all(np.isnan(traj.states[k:, 1]))
        for r in (0, 2):
            single = run_msgd(model, scheme, config, [streams[r]])
            np.testing.assert_array_equal(traj.states[:, r], single.states[:, 0])

    def test_all_diverged_raises(self, repelling_for_stream):
        model = repelling_for_stream(0)
        scheme = WeightScheme("minibatch", n=4, m=2)
        config = RunConfig(gamma=0.5, num_steps=400, m=2, n=4, x0=[1.0])
        with pytest.raises(DivergenceError):
            run_msgd(model, scheme, config, [derive_stream(103, [0])])


class TestMsgdChunking:
    """The replications M-SGD draws and reduces together cannot change a bit:
    one at a time, a few at a time and the default chunk agree."""

    N = 64

    def _assert_chunk_invariant(self, monkeypatch, model, kind, streams_fn, steps=12):
        scheme = WeightScheme(kind, n=self.N, m=16)
        config = RunConfig(gamma=0.2, num_steps=steps, m=16, n=self.N, x0=np.ones(model.dim))
        runs = []
        # the default chunk, then chunks of 1 and of 3 replications
        for elements in (dynamics_mod.CHUNK_ELEMENTS, self.N * model.payload_dim,
                         3 * self.N * model.payload_dim):
            monkeypatch.setattr(dynamics_mod, "CHUNK_ELEMENTS", elements)
            runs.append(run_msgd(model, scheme, config, streams_fn()))
        for traj in runs[1:]:
            np.testing.assert_array_equal(traj.states, runs[0].states)
            assert traj.diverged == runs[0].diverged
        return runs[0]

    @pytest.mark.parametrize("reps", [1, 7])
    @pytest.mark.parametrize("kind", ["minibatch", "gaussian", "dirichlet"])
    @pytest.mark.parametrize("model_name", ["quadratic", "logistic"])
    def test_chunk_size_leaves_bytes(self, monkeypatch, model_name, kind, reps):
        model = ensemble_model(model_name)
        traj = self._assert_chunk_invariant(
            monkeypatch, model, kind,
            lambda: [derive_stream(107, [model_name, kind, r]) for r in range(reps)],
        )
        assert traj.states.shape == (13, reps, model.dim)

    def test_divergence_mid_chunk(self, monkeypatch, repelling_for_stream):
        # replication 4 sits in the middle of the second chunk of 3; after it
        # is dropped, the later replications move to earlier chunks
        model = repelling_for_stream(4)
        traj = self._assert_chunk_invariant(
            monkeypatch, model, "minibatch",
            lambda: [derive_stream(109, [r]) for r in range(7)], steps=400,
        )
        assert list(traj.diverged) == [4]
        assert np.all(np.isfinite(traj.states[:, [0, 1, 2, 3, 5, 6]]))


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
        noise_dim=1,
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
        # a zero gradient keeps the path at its start
        model = make_uniform_clt_model(2)
        x0 = [0.5, value]
        config = RunConfig(gamma=0.5, num_steps=3, m=1, n=1, x0=x0)
        runs = (lambda: run_gd(model, config), lambda: run_ode(model, config, 2))
        for run in runs:
            if _out_of_range(value):
                with pytest.raises(DivergenceError) as info:
                    run()
                assert info.value.iteration == 0
            else:
                np.testing.assert_array_equal(run().states, np.tile(x0, (4, 1)))

    @pytest.mark.parametrize("value", BOUNDARY_STATES)
    def test_gd_after_a_step(self, value):
        config = RunConfig(gamma=0.5, num_steps=1, m=1, n=1, x0=[0.0])
        if _out_of_range(value):
            with pytest.raises(DivergenceError) as info:
                run_gd(jump_model([value]), config)
            assert info.value.iteration == 1
        else:
            assert run_gd(jump_model([value]), config).states[1, 0] == value

    # each boundary state next to an in-range row, then all of them at once
    @pytest.mark.parametrize(
        "values", [(1.0, v) for v in BOUNDARY_STATES] + [(1.0,) + BOUNDARY_STATES]
    )
    def test_msgd_ensemble_drops_exactly_the_out_of_range_rows(self, values):
        scheme = WeightScheme("minibatch", n=1, m=1)
        config = RunConfig(gamma=0.5, num_steps=2, m=1, n=1, x0=[0.0])
        streams = [derive_stream(113, [r]) for r in range(len(values))]
        traj = run_msgd(jump_model(values), scheme, config, streams)
        # a second identical step doubles the rows at +-LIMIT out of range
        expected = {r: 1 for r, v in enumerate(values) if _out_of_range(v)}
        expected.update({r: 2 for r, v in enumerate(values) if abs(v) == LIMIT})
        assert traj.diverged == expected
        for r, v in enumerate(values):
            if expected.get(r) == 1:
                assert np.isnan(traj.states[1:, r, 0]).all()
            else:
                assert traj.states[1, r, 0] == v
        assert traj.states[2, 0, 0] == 2.0
        assert np.isnan(traj.states[2, 1:, 0]).all()

    def test_msgd_ensemble_raises_when_every_row_diverges(self):
        values = [v for v in BOUNDARY_STATES if _out_of_range(v)]
        scheme = WeightScheme("minibatch", n=1, m=1)
        config = RunConfig(gamma=0.5, num_steps=2, m=1, n=1, x0=[0.0])
        streams = [derive_stream(113, [r]) for r in range(len(values))]
        with pytest.raises(DivergenceError) as info:
            run_msgd(jump_model(values), scheme, config, streams)
        assert info.value.iteration == 1


def ode_config(gamma, num_steps, x0):
    return RunConfig(gamma=gamma, num_steps=num_steps, m=1, n=1, x0=x0)


class TestOde:
    def test_exponential_decay(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        traj = run_ode(model, ode_config(0.1, 10, [1.0]), 100)
        assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_fixed_point(self):
        model = make_quadratic_model(2, [1.0, 1.0], 1.0)
        traj = run_ode(model, ode_config(0.1, 5, [1.0, 1.0]), 10)
        np.testing.assert_array_equal(traj.states[-1], [1.0, 1.0])

    def test_fourth_order_convergence(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        errors = {}
        for substeps in (1, 2):  # h = 0.2 and 0.1
            traj = run_ode(model, ode_config(0.2, 5, [1.0]), substeps)
            errors[substeps] = abs(traj.states[-1, 0] - math.exp(-1.0))
        ratio = errors[1] / errors[2]
        assert 10 <= ratio <= 22  # halving h cuts the error ~16x at order 4

    def test_substeps_must_be_positive(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        with pytest.raises(ValueError, match="substeps"):
            run_ode(model, ode_config(0.1, 5, [1.0]), 0)

    def test_records_every_multiple_of_gamma_of_plain_rk4(self):
        # a grid and each config alone equal plain RK4 at step gamma/substeps,
        # sampled at every multiple of gamma, to the last bit
        model = make_quadratic_model(2, [0.5, -1.0], 1.0)
        substeps = 7
        configs = [ode_config(g, k, [2.0, 1.0]) for g, k in ((0.3, 4), (0.1, 12), (0.2, 6))]
        grid = run_ode(model, configs, substeps)
        for config, grid_run in zip(configs, grid.runs):
            path = rk4_path(model.grad_objective, config.x0, config.gamma / substeps,
                            config.num_steps * substeps)
            np.testing.assert_array_equal(grid_run.states, path[::substeps])
            np.testing.assert_array_equal(run_ode(model, config, substeps).states, grid_run.states)

    @pytest.mark.parametrize("substeps", [1, 2, 10])
    def test_divergence_reported_at_the_recorded_step(self, substeps):
        # h lam = 5 is outside the method's stability interval: each inner
        # step multiplies |x| by about 13.7, so |x| first passes the limit at
        # some inner step, and the error names the recorded step that ends it
        model = stiff_model(10.0 * substeps)
        config = ode_config(0.5, 150, [1.0])
        inner = rk4_path(model.grad_objective, config.x0, config.gamma / substeps, 150)
        first = int(np.argmax(np.abs(inner[:, 0]) > LIMIT))
        assert first > 0
        with pytest.raises(DivergenceError) as info:
            run_ode(model, config, substeps)
        assert info.value.iteration == -(-first // substeps)
        assert info.value.step_size == config.gamma


class TestDiffusionEm:
    def test_zero_noise_is_explicit_euler(self):
        model = zero_noise_quadratic()
        config = RunConfig(gamma=0.1, num_steps=10, m=1, n=1, x0=[1.0])
        traj = run_diffusion_em(model, config, 100, [derive_stream(19, ["em"])])
        assert traj.states[-1, 0, 0] == pytest.approx(math.exp(-1.0), abs=1e-3)

    def test_single_substep_variance(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        gamma, m, substeps = 0.1, 4, 1
        config = RunConfig(gamma=gamma, num_steps=1, m=m, n=m, x0=[1.0])
        stream = derive_stream(23, ["emvar"])
        h = gamma / substeps
        deterministic = 1.0 - h
        streams = [stream.child(r) for r in range(10**4)]
        draws = run_diffusion_em(model, config, substeps, streams).states[1, :, 0] - deterministic
        assert draws.var() == pytest.approx((gamma / m) * h, rel=0.06)

    @pytest.mark.parametrize("model_name", ["quadratic", "logistic"])
    def test_one_substep_is_gaussian_sgd(self, model_name):
        # the same step on the same normals; the noise scales sqrt(gamma/m)*sqrt(gamma)
        # and gamma/sqrt(m) differ only in rounding
        model = ensemble_model(model_name)
        config = RunConfig(gamma=0.2, num_steps=8, m=4, n=16, x0=np.full(model.dim, 0.5))
        stream = derive_stream(31, ["one-substep", model_name])
        em = run_diffusion_em(model, config, 1, stream.children("rep", stop=5))
        sgd = run_gaussian_sgd(model, config, stream.children("rep", stop=5))
        np.testing.assert_allclose(em.states, sgd.states, rtol=1e-12, atol=1e-14)

    def test_huge_minibatch_tracks_ode(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        config = RunConfig(gamma=0.1, num_steps=10, m=10**8, n=10**8, x0=[1.0])
        traj = run_diffusion_em(model, config, 50, [derive_stream(29, ["big"])])
        ode = run_ode(model, config, 50)
        assert np.max(np.abs(traj.states[:, 0] - ode.states)) <= 1e-2


class TestLogisticNoiseDimension:
    """The logistic noise factor is p x t (one column per datum), so these
    runs exercise noise_dim far above the parameter dimension."""

    def _model(self):
        dataset = generate_logistic_dataset(derive_stream(79, ["ld"]), 3, 200, 0.1)
        return make_logistic_model(dataset)

    def test_gaussian_sgd_contracts(self):
        model = self._model()
        assert model.noise_dim == 200
        config = RunConfig(gamma=0.2, num_steps=80, m=20, n=100, x0=np.ones(3))
        traj = run_gaussian_sgd(model, config, [derive_stream(79, ["run"])])
        assert model.objective(traj.states[-1, 0]) < model.objective(traj.states[0, 0])

    def test_diffusion_em_contracts(self):
        model = self._model()
        config = RunConfig(gamma=0.2, num_steps=40, m=20, n=100, x0=np.ones(3))
        traj = run_diffusion_em(model, config, 10, [derive_stream(79, ["em"])])
        assert model.objective(traj.states[-1, 0]) < model.objective(traj.states[0, 0])


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
            config = RunConfig(gamma=gamma, num_steps=steps, m=1, n=1, x0=[1.0])
            gd = run_gd(model, config)
            ode = run_ode(model, config, 20)
            errors = np.abs(gd.states[:, 0] - ode.states[:, 0])
            for k in range(1, steps + 1):
                assert errors[k] <= c1 * k * gamma * (1 + L * gamma) ** k
            finals.append(errors[-1])
        slope = np.polyfit(np.log(gammas), np.log(finals), 1)[0]
        assert 0.8 <= slope <= 1.2


def stiff_model(lam):
    """g(x) = lam |x|^2 / 2: the 4th-order method is unstable for h lam > 2.79."""
    return LossModel(
        name="stiff",
        dim=1,
        noise_dim=1,
        payload_dim=1,
        objective=lambda theta: 0.5 * lam * np.sum(np.square(theta), axis=-1),
        grad_objective=lambda theta: lam * np.asarray(theta, dtype=float),
        sample_data=lambda streams, count, out=None: np.zeros((len(streams), count, 1)),
        grad_loss=lambda theta, data: lam * np.asarray(theta)[..., None, :] + data,
        noise_factor=lambda theta: np.zeros((1, 1)),
        lipschitz_grad=lam,
        lipschitz_noise=0.0,
    )


def cliff_model():
    """Attracts to 0 inside |x| <= 5 and repels steeply beyond, with noise
    factor 5: a diffusion row started near the cliff diverges or not by its
    draws, one started beyond it always diverges, one at 0 never does."""
    return LossModel(
        name="cliff",
        dim=1,
        noise_dim=1,
        payload_dim=1,
        objective=lambda theta: np.zeros(np.shape(theta)[:-1]),
        grad_objective=lambda theta: np.where(np.abs(theta) > 5.0, -1e3 * theta, theta),
        sample_data=lambda streams, count, out=None: np.zeros((len(streams), count, 1)),
        grad_loss=lambda theta, data: data + 0.0 * np.asarray(theta)[..., None, :],
        noise_factor=lambda theta: np.full((1, 1), 5.0),
        lipschitz_grad=1.0,
        lipschitz_noise=0.0,
    )


class TestLockstep:
    """A step-size grid advances every config together, each row with its own
    step size and last step; each config's run equals running it alone, bit
    for bit, including its divergences.  A config whose rows all diverge
    raises when run alone, so its grid run is compared with a lone run that
    stops one step before its last row diverged.  Streams are stateful, so
    every run gets fresh ones from ``streams()``."""

    @staticmethod
    def _assert_equal_runs(grid_run, alone):
        np.testing.assert_array_equal(grid_run.states, alone.states)
        assert grid_run.diverged == alone.diverged
        assert grid_run.config == alone.config

    def _assert_grid_matches(self, run, configs, streams, entirely=()):
        """run(configs, streams()) against run(config, streams()[i]) per
        config i; the configs indexed by `entirely` must diverge in every row."""
        grid = run(configs, streams())
        steps = max(c.num_steps for c in configs)
        assert grid.states.shape[0] == steps + 1 and len(grid.runs) == len(configs)
        start = 0
        for i, config in enumerate(configs):
            grid_run = grid.runs[i]
            # a config's rows leave the ensemble after its last step
            size = 1 if streams()[i] is None else len(streams()[i])
            assert np.isnan(grid.states[config.num_steps + 1 :, start : start + size]).all()
            start += size
            if i not in entirely:
                self._assert_equal_runs(grid_run, run(config, streams()[i]))
                continue
            rows = grid_run.states.shape[1] if grid_run.states.ndim == 3 else 1
            assert len(grid_run.diverged) == rows
            with pytest.raises(DivergenceError) as info:
                run(config, streams()[i])
            last = max(grid_run.diverged.values())
            assert info.value.iteration == last
            assert info.value.step_size == config.gamma
            assert np.isnan(grid_run.states[last:]).all()
            shorter = dataclasses.replace(config, num_steps=last - 1)
            alone = run(shorter, streams()[i])
            np.testing.assert_array_equal(grid_run.states[:last], alone.states)
            assert alone.diverged == {r: k for r, k in grid_run.diverged.items() if k < last}
        return grid

    def test_msgd(self, repelling_for_stream):
        # the rows whose stream path ends in "x" grow 1 + 10 gamma per step
        model = repelling_for_stream("x")
        scheme = WeightScheme("minibatch", n=4, m=2)
        configs = [
            RunConfig(gamma=0.5, num_steps=300, m=2, n=4, x0=[1.0]),
            RunConfig(gamma=0.2, num_steps=30, m=2, n=4, x0=[2.0]),
            RunConfig(gamma=0.3, num_steps=400, m=2, n=4, x0=[1.0]),
        ]
        def streams():
            return [
                [derive_stream(5, ["a", label]) for label in (0, "x", 2)],
                [derive_stream(5, ["c", r]) for r in range(3)],
                [derive_stream(5, ["b", r, "x"]) for r in range(2)],
            ]

        grid = self._assert_grid_matches(
            lambda c, s: run_msgd(model, scheme, c, s), configs, streams, entirely=(2,)
        )
        assert list(grid.runs[0].diverged) == [1] and not grid.runs[1].diverged

    @pytest.mark.parametrize("kind", ["minibatch", "gaussian", "dirichlet"])
    def test_msgd_logistic_chunks(self, monkeypatch, kind):
        # rows of different configs share chunks, two replications per chunk
        model = ensemble_model("logistic")
        monkeypatch.setattr(dynamics_mod, "CHUNK_ELEMENTS", 2 * 16 * model.payload_dim)
        scheme = WeightScheme(kind, n=16, m=4)
        configs = [RunConfig(gamma=g, num_steps=k, m=4, n=16, x0=np.ones(3))
                   for g, k in ((0.3, 5), (0.1, 12), (0.2, 8))]
        self._assert_grid_matches(
            lambda c, s: run_msgd(model, scheme, c, s), configs,
            lambda: [[derive_stream(7, [kind, i, r]) for r in range(3)] for i in range(3)],
        )

    def test_gaussian_sgd(self):
        model = ensemble_model("logistic")
        configs = [RunConfig(gamma=g, num_steps=k, m=m, n=50, x0=np.ones(3))
                   for g, k, m in ((0.1, 9, 4), (0.4, 3, 25), (0.2, 6, 50))]
        self._assert_grid_matches(
            lambda c, s: run_gaussian_sgd(model, c, s), configs,
            lambda: [[derive_stream(11, [i, r]) for r in range(2)] for i in range(3)],
        )

    def test_diffusion_em(self):
        model = cliff_model()
        configs = [
            RunConfig(gamma=0.2, num_steps=40, m=1, n=1, x0=[4.6]),
            RunConfig(gamma=0.1, num_steps=10, m=1, n=1, x0=[0.0]),
            RunConfig(gamma=0.25, num_steps=50, m=1, n=1, x0=[10.0]),
        ]
        grid = self._assert_grid_matches(
            lambda c, s: run_diffusion_em(model, c, 4, s), configs,
            lambda: [[derive_stream(13, [i, r]) for r in range(6)] for i in range(3)],
            entirely=(2,),
        )
        assert 0 < len(grid.runs[0].diverged) < 6 and not grid.runs[1].diverged

    @pytest.mark.parametrize("model_name", ["quadratic", "logistic"])
    def test_diffusion_em_noise_factor(self, model_name):
        # a shared (p, q) factor multiplies the whole block at once; the
        # logistic factor depends on the state and is taken every substep
        model = ensemble_model(model_name)
        configs = [RunConfig(gamma=g, num_steps=k, m=4, n=16, x0=np.ones(model.dim))
                   for g, k in ((0.1, 6), (0.3, 2))]
        self._assert_grid_matches(
            lambda c, s: run_diffusion_em(model, c, 5, s), configs,
            lambda: [[derive_stream(17, [i, r]) for r in range(3)] for i in range(2)],
        )

    def test_diffusion_em_shared_factor_matches_each_substep(self):
        # the old per-substep form x - h grad + c (sigma @ z_j), on a dense sigma
        sigma = np.array([[1.0, 0.3], [-0.7, 2.0]]) / 3.0
        base = make_quadratic_model(2, [0.5, -0.5], 1.0)
        model = dataclasses.replace(base, noise_factor=lambda theta: sigma)
        config = RunConfig(gamma=0.2, num_steps=5, m=3, n=9, x0=[1.0, -2.0])
        streams = [derive_stream(19, [r]) for r in range(4)]
        substeps = 7
        h = config.gamma / substeps
        scale = math.sqrt(config.gamma / config.m) * math.sqrt(h)
        x = np.tile(config.x0, (4, 1))
        replay = [derive_stream(19, [r]) for r in range(4)]
        for k in range(config.num_steps):
            z = np.stack([s.generator.standard_normal((substeps, 2)) for s in replay])
            for j in range(substeps):
                x = x - h * base.grad_objective(x) + scale * (sigma @ z[:, j, :, None])[:, :, 0]
        traj = run_diffusion_em(model, config, substeps, streams)
        np.testing.assert_array_equal(traj.states[-1], x)

    def test_gd(self):
        # x grows by 1 + gamma per step: only gamma = 0.9 reaches the limit
        model = repelling_model()
        configs = [RunConfig(gamma=g, num_steps=k, m=1, n=1, x0=[1.0])
                   for g, k in ((0.5, 50), (0.9, 600), (0.3, 80))]
        grid = self._assert_grid_matches(
            lambda c, s: run_gd(model, c), configs, lambda: [None] * 3, entirely=(1,)
        )
        assert grid.runs[0].states.shape == (51, 1)

    def test_ode(self):
        # h lam = 5 is outside the method's stability interval, 1 and 2.5 inside
        model = stiff_model(20.0)
        configs = [RunConfig(gamma=g, num_steps=k, m=1, n=1, x0=[1.0])
                   for g, k in ((0.1, 500), (0.5, 100), (0.25, 200))]
        grid = self._assert_grid_matches(
            lambda c, s: run_ode(model, c, 2), configs, lambda: [None] * 3, entirely=(1,)
        )
        assert grid.states.shape == (501, 3, 1)

    def test_every_row_diverged_raises(self):
        model = repelling_model()
        configs = [RunConfig(gamma=g, num_steps=900, m=1, n=1, x0=[1.0]) for g in (0.9, 0.8)]
        with pytest.raises(DivergenceError) as info:
            run_gd(model, configs)
        iterations = []
        for config in configs:
            with pytest.raises(DivergenceError) as alone:
                run_gd(model, config)
            iterations.append(alone.value.iteration)
        # the error names the rows that diverged last
        assert info.value.iteration == max(iterations)
        assert info.value.step_size == configs[iterations.index(max(iterations))].gamma

    def test_one_stream_sequence_per_config(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        configs = [RunConfig(gamma=0.1, num_steps=2, m=1, n=1, x0=[1.0])] * 2
        with pytest.raises(ValueError, match="one stream sequence per config"):
            run_gaussian_sgd(model, configs, [[derive_stream(1, [0])]])
        with pytest.raises(TypeError, match="sequence"):
            run_gaussian_sgd(model, configs, [derive_stream(1, [0]), derive_stream(1, [1])])
