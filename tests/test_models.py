"""Loss models: gradients, unbiasedness, noise factors, dataset handling."""

import math

import numpy as np
import pytest

from msgdlab.models import (
    LogisticDataset,
    generate_logistic_dataset,
    load_logistic_dataset,
    logistic_lipschitz_constant,
    make_logistic_model,
    make_quadratic_model,
    make_uniform_clt_model,
    save_logistic_dataset,
)
from msgdlab.numerics import derive_stream, finite_diff_gradient


def small_logistic(seed=101, p=3, t=400, kappa=0.05):
    dataset = generate_logistic_dataset(derive_stream(seed, ["data"]), p, t, kappa)
    return make_logistic_model(dataset), dataset


class TestQuadratic:
    def test_gradient_vanishes_at_minimizer(self):
        model = make_quadratic_model(3, [0.5, -1.0, 2.0], 1.0)
        np.testing.assert_array_equal(model.grad_objective(model.minimizer), np.zeros(3))

    def test_grad_loss_unbiased_at_origin(self):
        model = make_quadratic_model(2, [1.0, 0.0], 1.0)
        data = model.sample_data([derive_stream(3, ["mc"])], 10**5)[0]
        mc_mean = model.grad_loss(np.zeros(2), data).mean(axis=0)
        np.testing.assert_allclose(mc_mean, [-1.0, 0.0], atol=0.02)

    def test_noise_trace_constant(self):
        model = make_quadratic_model(4, np.zeros(4), 0.7)
        for theta in (np.zeros(4), np.ones(4), np.full(4, -3.0)):
            assert model.noise_trace(theta) == pytest.approx(4 * 0.49, rel=1e-12)

    def test_h1_is_exactly_one(self):
        # grad_loss(theta, u) = theta - u, so the per-datum modulus is 1
        model = make_quadratic_model(2, np.zeros(2), 1.0)
        gen = derive_stream(5, ["pairs"]).generator
        for _ in range(20):
            t1, t2 = gen.standard_normal(2), gen.standard_normal(2)
            u = gen.standard_normal(2)[None, :]
            num = np.linalg.norm(model.grad_loss(t1, u)[0] - model.grad_loss(t2, u)[0])
            assert num == pytest.approx(np.linalg.norm(t1 - t2), rel=1e-12)

    def test_noise_factor_built_once_read_only(self):
        model = make_quadratic_model(2, [0.0, 0.0], 0.5)
        factor = model.noise_factor(np.zeros(2))
        assert model.noise_factor(np.ones((3, 2))) is factor
        np.testing.assert_array_equal(factor, 0.5 * np.eye(2))
        with pytest.raises(ValueError):
            factor[0, 0] = 1.0

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            make_quadratic_model(2, np.zeros(2), 0.0)


class TestUniform:
    def test_gradient_identically_zero(self):
        model = make_uniform_clt_model(3)
        for theta in (np.zeros(3), np.ones(3) * 9.0):
            np.testing.assert_array_equal(model.grad_objective(theta), np.zeros(3))

    def test_noise_factor_diagonal(self):
        model = make_uniform_clt_model(2)
        sigma_sq = model.noise_factor(np.zeros(2)) @ model.noise_factor(np.zeros(2)).T
        np.testing.assert_allclose(sigma_sq, np.eye(2) / 3.0, rtol=1e-12)

    def test_data_match_generator_uniform(self):
        # the block is filled by random() and mapped to -1 + 2u, which is what
        # Generator.uniform(-1, 1) computes draw by draw
        model = make_uniform_clt_model(3)
        data = model.sample_data([derive_stream(7, ["bits"])], 500)[0]
        expected = derive_stream(7, ["bits"]).generator.uniform(-1.0, 1.0, size=(500, 3))
        np.testing.assert_array_equal(data, expected)

    def test_gradient_coordinate_variance(self):
        model = make_uniform_clt_model(1)
        data = model.sample_data([derive_stream(7, ["u"])], 10**5)[0]
        grads = model.grad_loss(np.zeros(1), data)
        assert abs(grads.var() - 1.0 / 3.0) < 0.01


class TestLogistic:
    def test_gradient_at_zero_matches_half_residuals(self):
        model, dataset = small_logistic()
        expected = ((0.5 - dataset.labels)[:, None] * dataset.covariates).mean(axis=0)
        np.testing.assert_allclose(model.grad_objective(np.zeros(3)), expected, rtol=1e-12)

    def test_noise_factor_frobenius_identity(self):
        # ||sigma(beta)||_F^2 = (1/t) sum_i |grad l(beta, z_i) - grad g(beta)|^2
        # holds by construction; check it at random points
        model, dataset = small_logistic()
        gen = derive_stream(11, ["beta"]).generator
        payloads = np.column_stack([dataset.labels, dataset.covariates])
        for _ in range(5):
            beta = gen.standard_normal(3)
            grads = model.grad_loss(beta, payloads)
            direct = np.mean(np.sum((grads - model.grad_objective(beta)) ** 2, axis=1))
            assert model.noise_trace(beta) == pytest.approx(direct, rel=1e-12)

    def test_data_gather_rows_of_the_dataset(self):
        model, dataset = small_logistic()
        data = model.sample_data([derive_stream(13, ["gather"])], 200)[0]
        idx = derive_stream(13, ["gather"]).generator.integers(0, dataset.size, size=200)
        expected = np.column_stack([dataset.labels[idx], dataset.covariates[idx]])
        np.testing.assert_array_equal(data, expected)

    def test_grad_loss_unbiased(self):
        model, _ = small_logistic()
        gen = derive_stream(13, ["beta"]).generator
        beta = gen.standard_normal(3)
        data = model.sample_data([derive_stream(13, ["resample"])], 10**5)[0]
        grads = model.grad_loss(beta, data)
        mc_mean = grads.mean(axis=0)
        se = grads.std(axis=0, ddof=1) / math.sqrt(grads.shape[0])
        np.testing.assert_array_less(
            np.abs(mc_mean - model.grad_objective(beta)), 4 * se + 1e-12
        )

    def test_noise_factor_matches_gradient_covariance(self):
        model, _ = small_logistic()
        gen = derive_stream(17, ["beta"]).generator
        for _ in range(3):
            beta = gen.standard_normal(3)
            data = model.sample_data([derive_stream(17, ["cov"])], 2 * 10**4)[0]
            grads = model.grad_loss(beta, data)
            centered = grads - grads.mean(axis=0)
            mc_cov = centered.T @ centered / grads.shape[0]
            se = np.sqrt(
                ((centered**2).T @ (centered**2) / grads.shape[0] - mc_cov**2)
                / grads.shape[0]
            )
            factor = model.noise_factor(beta)
            np.testing.assert_array_less(
                np.abs(mc_cov - factor @ factor.T), 4 * se + 1e-12
            )

    def test_strong_convexity_from_second_differences(self):
        model, dataset = small_logistic()
        gen = derive_stream(19, ["hess"]).generator
        h = 1e-4
        for _ in range(10):
            beta = gen.standard_normal(3)
            v = gen.standard_normal(3)
            v /= np.linalg.norm(v)
            second = (
                model.objective(beta + h * v)
                - 2 * model.objective(beta)
                + model.objective(beta - h * v)
            ) / h**2
            assert second >= 2 * dataset.kappa - 1e-6

    def test_h1_bound_on_gradient_increments(self):
        model, dataset = small_logistic()
        gen = derive_stream(23, ["pairs"]).generator
        payloads = np.column_stack([dataset.labels, dataset.covariates])
        for _ in range(20):
            b1, b2 = gen.standard_normal(3), gen.standard_normal(3)
            idx = gen.integers(0, dataset.size)
            z = payloads[idx][None, :]
            increment = np.linalg.norm(
                model.grad_loss(b1, z)[0] - model.grad_loss(b2, z)[0]
            )
            h1 = np.sum(z[0, 1:] ** 2) / 4 + 2 * dataset.kappa
            assert increment <= h1 * np.linalg.norm(b1 - b2) + 1e-12

    def test_lipschitz_constant_bounds_curvature(self):
        model, dataset = small_logistic()
        lipschitz = logistic_lipschitz_constant(dataset)
        assert lipschitz == model.lipschitz_grad > 2 * dataset.kappa
        gen = derive_stream(19, ["curvature"]).generator
        h = 1e-4
        for _ in range(10):
            beta = gen.standard_normal(3)
            v = gen.standard_normal(3)
            v /= np.linalg.norm(v)
            second = (
                model.objective(beta + h * v)
                - 2 * model.objective(beta)
                + model.objective(beta - h * v)
            ) / h**2
            assert second <= lipschitz + 1e-6

    def test_kappa_must_be_positive(self):
        with pytest.raises(ValueError):
            LogisticDataset(np.array([0.0, 1.0]), np.zeros((2, 2)), kappa=0.0)


class TestDatasetGeneration:
    def test_label_frequency(self):
        dataset = generate_logistic_dataset(derive_stream(29, ["gen"]), 6, 10**4, 0.1)
        assert abs(dataset.labels.mean() - 0.5) < 0.02

    def test_covariate_covariance_near_identity(self):
        dataset = generate_logistic_dataset(derive_stream(29, ["gen"]), 6, 10**4, 0.1)
        cov = np.cov(dataset.covariates.T)
        np.testing.assert_allclose(cov, np.eye(6), atol=0.05)

    def test_csv_round_trip(self, tmp_path):
        dataset = generate_logistic_dataset(derive_stream(31, ["io"]), 4, 50, 0.2)
        path = tmp_path / "data.csv"
        save_logistic_dataset(dataset, path)
        header = path.read_text().splitlines()[0]
        assert header == "y,x1,x2,x3,x4"
        loaded = load_logistic_dataset(path, kappa=0.2)
        np.testing.assert_array_equal(loaded.labels, dataset.labels)
        np.testing.assert_array_equal(loaded.covariates, dataset.covariates)


class TestSharedInvariants:
    @pytest.fixture(
        params=["quadratic", "uniform", "logistic"],
    )
    def model(self, request):
        if request.param == "quadratic":
            return make_quadratic_model(3, [0.2, -0.4, 1.0], 0.8)
        if request.param == "uniform":
            return make_uniform_clt_model(3)
        return small_logistic()[0]

    def test_finite_diff_matches_analytic_gradient(self, model):
        gen = derive_stream(37, [model.name]).generator
        for _ in range(10):
            theta = gen.standard_normal(model.dim)
            numeric = finite_diff_gradient(model.objective, theta)
            analytic = model.grad_objective(theta)
            scale = max(np.linalg.norm(analytic), 1.0)
            assert np.linalg.norm(numeric - analytic) <= 1e-5 * scale

    def test_unbiased_gradients(self, model):
        gen = derive_stream(41, [model.name]).generator
        stream = derive_stream(41, [model.name, "data"])
        for rep in range(10):
            theta = gen.standard_normal(model.dim)
            grads = model.grad_loss(theta, model.sample_data([stream.child(rep)], 10**4)[0])
            se = grads.std(axis=0, ddof=1) / 100.0
            np.testing.assert_array_less(
                np.abs(grads.mean(axis=0) - model.grad_objective(theta)), 4 * se + 1e-9
            )

    def test_sample_data_row_equals_one_stream_draw(self, model):
        streams = [derive_stream(53, [model.name, r]) for r in range(4)]
        block = model.sample_data(streams, 30)
        assert block.shape == (4, 30, model.payload_dim)
        for r in range(4):
            lone = derive_stream(53, [model.name, r])
            np.testing.assert_array_equal(block[r], model.sample_data([lone], 30)[0])
            assert streams[r].generator.random() == lone.generator.random()

    def test_replication_axis_matches_one_call_per_replication(self, model):
        # the ensemble runners rely on a batched call reproducing the
        # per-replication calls to the last bit
        gen = derive_stream(47, [model.name]).generator
        thetas = gen.standard_normal((4, model.dim))
        stream = derive_stream(47, [model.name, "data"])
        data = np.stack([model.sample_data([stream.child(r)], 50)[0] for r in range(4)])
        batched = {
            "objective": model.objective(thetas),
            "grad_objective": model.grad_objective(thetas),
            "grad_loss": model.grad_loss(thetas, data),
            "noise_factor": np.broadcast_to(
                model.noise_factor(thetas), (4, model.dim, model.noise_dim)
            ),
        }
        for r in range(4):
            single = {
                "objective": model.objective(thetas[r]),
                "grad_objective": model.grad_objective(thetas[r]),
                "grad_loss": model.grad_loss(thetas[r], data[r]),
                "noise_factor": model.noise_factor(thetas[r]),
            }
            for name, value in single.items():
                np.testing.assert_array_equal(batched[name][r], value, err_msg=name)
        # a (time, replication) grid of states is accepted too
        assert model.objective(thetas.reshape(2, 2, model.dim)).shape == (2, 2)

