"""Process runners and divergence handling."""

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


def zero_noise_quadratic(p=1):
    """Quadratic drift toward 0 with an identically-zero noise factor."""
    return LossModel(
        name="zero_noise",
        dim=p,
        noise_dim=p,
        payload_dim=p,
        objective=lambda theta: 0.5 * float(np.dot(theta, theta)),
        grad_objective=lambda theta: np.asarray(theta, dtype=float),
        sample_data=lambda streams, count: np.zeros((len(streams), count, p)),
        grad_loss=lambda theta, data: np.broadcast_to(
            np.asarray(theta)[..., None, :], data.shape
        ).astype(float),
        noise_factor=lambda theta: np.zeros((p, p)),
        lipschitz_grad=1.0,
        lipschitz_noise=0.0,
        strong_convexity=1.0,
        e_h1_sq=1.0,
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
        sample_data=lambda streams, count: np.zeros((len(streams), count, p)),
        grad_loss=lambda theta, data: np.broadcast_to(
            -np.asarray(theta)[..., None, :], data.shape
        ).astype(float),
        noise_factor=lambda theta: np.zeros((p, p)),
        lipschitz_grad=1.0,
        lipschitz_noise=0.0,
        strong_convexity=None,
        e_h1_sq=1.0,
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

    def test_horizon(self):
        config = RunConfig(gamma=0.1, num_steps=10, m=2, n=4, x0=[0.0])
        assert config.horizon == pytest.approx(1.0)

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

    def sample_data(streams, count):
        block = np.empty((len(streams), count, 1))
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
        runs = (lambda: run_gd(model, config), lambda: run_ode(model, x0, 0.5, 1.5))
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


class TestOde:
    def test_exponential_decay(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        traj = run_ode(model, [1.0], h=1e-3, horizon=1.0)
        assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_fixed_point(self):
        model = make_quadratic_model(2, [1.0, 1.0], 1.0)
        traj = run_ode(model, [1.0, 1.0], h=0.01, horizon=0.5)
        np.testing.assert_array_equal(traj.states[-1], [1.0, 1.0])

    def test_fourth_order_convergence(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        errors = {}
        for h in (0.2, 0.1):
            traj = run_ode(model, [1.0], h=h, horizon=1.0)
            errors[h] = abs(traj.states[-1, 0] - math.exp(-1.0))
        ratio = errors[0.2] / errors[0.1]
        assert 10 <= ratio <= 22  # halving h cuts the error ~16x at order 4

    def test_step_must_divide_horizon(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        with pytest.raises(ValueError):
            run_ode(model, [1.0], h=0.3, horizon=1.0)

    def test_state_at_time_lookup(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        traj = run_ode(model, [1.0], h=0.005, horizon=1.0)
        assert traj.state_at_time(0.1)[0] == traj.states[20, 0]
        with pytest.raises(ValueError):
            traj.state_at_time(0.0033)


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

    def test_huge_minibatch_tracks_ode(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        config = RunConfig(gamma=0.1, num_steps=10, m=10**8, n=10**8, x0=[1.0])
        traj = run_diffusion_em(model, config, 50, [derive_stream(29, ["big"])])
        ode = run_ode(model, [1.0], h=0.1 / 50, horizon=1.0)
        gaps = [
            abs(traj.states[k, 0, 0] - ode.state_at_time(k * 0.1)[0]) for k in range(11)
        ]
        assert max(gaps) <= 1e-2


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
            ode = run_ode(model, [1.0], h=gamma / 20, horizon=horizon)
            errors = [
                abs(gd.states[k, 0] - ode.state_at_time(k * gamma)[0])
                for k in range(steps + 1)
            ]
            for k in range(1, steps + 1):
                assert errors[k] <= c1 * k * gamma * (1 + L * gamma) ** k
            finals.append(errors[-1])
        slope = np.polyfit(np.log(gammas), np.log(finals), 1)[0]
        assert 0.8 <= slope <= 1.2
