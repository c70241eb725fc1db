"""Loss models: gradients, unbiasedness, noise factors, dataset handling."""

import math

import numpy as np
import pytest

from msgdlab.models import (
    LogisticDataset,
    _sigmoid,
    generate_logistic_dataset,
    logistic_lipschitz_constant,
    make_logistic_model,
    make_quadratic_model,
    make_uniform_clt_model,
)
from msgdlab.numerics import derive_stream
from oracles import finite_diff_gradient


def small_logistic(seed=101, p=3, t=400, kappa=0.05):
    dataset = generate_logistic_dataset(derive_stream(seed, ["data"]), p, t, kappa)
    return make_logistic_model(dataset), dataset


def payload_sigmoid(z):
    """The two-divide sigmoid the logistic model used before its one-divide form."""
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def payload_grad_loss(dataset, beta, payloads):
    """Reference per-datum gradients on gathered ``[y | x]`` payload rows, the
    form the logistic model computed before its data became row indices."""
    beta = np.asarray(beta, dtype=float)
    yd = payloads[..., 0]
    xd = payloads[..., 1:]
    resid = payload_sigmoid((xd @ beta[..., None])[..., 0]) - yd
    return resid[..., None] * xd + 2.0 * dataset.kappa * beta[..., None, :]


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
        every_row = np.arange(dataset.size)
        for _ in range(5):
            beta = gen.standard_normal(3)
            grads = model.grad_loss(beta, every_row)
            direct = np.mean(np.sum((grads - model.grad_objective(beta)) ** 2, axis=1))
            assert model.noise_trace(beta) == pytest.approx(direct, rel=1e-12)

    def test_data_gather_rows_of_the_dataset(self):
        # the data are the drawn row indices, and grad_loss reads exactly
        # those rows of the dataset
        model, dataset = small_logistic()
        data = model.sample_data([derive_stream(13, ["gather"])], 200)[0]
        idx = derive_stream(13, ["gather"]).generator.integers(0, dataset.size, size=200)
        assert data.dtype == np.int64
        np.testing.assert_array_equal(data, idx)
        beta = derive_stream(13, ["beta"]).generator.standard_normal(3)
        expected = payload_grad_loss(
            dataset, beta, np.column_stack([dataset.labels[idx], dataset.covariates[idx]])
        )
        np.testing.assert_array_equal(model.grad_loss(beta, data), expected)

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
        for _ in range(20):
            b1, b2 = gen.standard_normal(3), gen.standard_normal(3)
            idx = gen.integers(0, dataset.size)
            z = np.array([idx])
            increment = np.linalg.norm(
                model.grad_loss(b1, z)[0] - model.grad_loss(b2, z)[0]
            )
            h1 = np.sum(dataset.covariates[idx] ** 2) / 4 + 2 * dataset.kappa
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


def assert_same_bits(new, old, beta):
    """Bit-for-bit equality of two gradient blocks computed at `beta`.

    Where a NaN entry of beta meets the NaN residual it causes, both operands
    of the final add are NaN, and which one's sign survives depends on where
    numpy's loop tails fall (the payload form's broadcast add ran in buffered
    chunks), so there only NaN-ness is compared.  Every other element, NaNs
    included, is compared bit for bit.
    """
    assert new.shape == old.shape
    both_nan = np.broadcast_to(np.isnan(beta)[..., None, :], new.shape)
    np.testing.assert_array_equal(
        new.view(np.uint64)[~both_nan], old.view(np.uint64)[~both_nan]
    )
    assert np.isnan(new[both_nan]).all() and np.isnan(old[both_nan]).all()


class TestLogisticMatchesPayloadForm:
    """Row-index data and the one-divide sigmoid reproduce the ``[y | x]``
    payload form to the last bit, up to the sign of a NaN made from two NaN
    operands (see :func:`assert_same_bits`), which no artifact can show."""

    KAPPAS = (0.2, 0.1, 0.05, 0.01, 0.001)  # the canonical converge_logistic kappas

    def test_sigmoid_bitwise(self):
        gen = derive_stream(61, ["z"]).generator
        nan_payloads = np.array(
            [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123, 0xFFF0000000000001],
            dtype=np.uint64,
        ).view(float)
        z = np.concatenate([
            [0.0, -0.0, 5e-324, -5e-324, 36.0, -36.0, 745.0, -745.0, 1e300, -1e300,
             np.inf, -np.inf],
            nan_payloads,
            gen.standard_normal(1000) * 10.0 ** gen.integers(-8, 4, 1000),
        ])
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(
                _sigmoid(z).view(np.uint64), payload_sigmoid(z).view(np.uint64)
            )

    @pytest.mark.parametrize("reps", [1, 3, 9])
    def test_grad_loss_and_noise_factor_bitwise(self, reps):
        p, n = 6, 1000
        base = generate_logistic_dataset(derive_stream(59, ["data"]), p, 10**4, 0.2)
        payloads = np.column_stack([base.labels, base.covariates])
        gen = derive_stream(59, ["beta", reps]).generator
        for kappa in self.KAPPAS:
            dataset = LogisticDataset(base.labels, base.covariates, kappa)
            model = make_logistic_model(dataset)
            for scale in (1e-8, 1.0, 1e3, 1e150, 1e300):
                for special in (None, np.nan, np.inf, -np.inf):
                    beta = scale * gen.standard_normal((reps, p))
                    if special is not None:
                        beta[gen.integers(reps), gen.integers(p)] = special
                    idx = gen.integers(0, dataset.size, size=(reps, n))
                    # per-replication beta, one beta for a block, one for a batch
                    for b, i in ((beta, idx), (beta[0], idx), (beta[0], idx[0])):
                        with np.errstate(all="ignore"):
                            new = model.grad_loss(b, i)
                            old = payload_grad_loss(dataset, b, payloads[i])
                        assert_same_bits(new, old, b)
            beta = gen.standard_normal((reps, p))
            every_datum = payload_grad_loss(dataset, beta, payloads)
            expected = np.swapaxes(
                every_datum - model.grad_objective(beta)[..., None, :], -1, -2
            ) / np.sqrt(dataset.size)
            np.testing.assert_array_equal(
                model.noise_factor(beta).view(np.uint64), expected.view(np.uint64)
            )


class TestDatasetGeneration:
    def test_label_frequency(self):
        dataset = generate_logistic_dataset(derive_stream(29, ["gen"]), 6, 10**4, 0.1)
        assert abs(dataset.labels.mean() - 0.5) < 0.02

    def test_covariate_covariance_near_identity(self):
        dataset = generate_logistic_dataset(derive_stream(29, ["gen"]), 6, 10**4, 0.1)
        cov = np.cov(dataset.covariates.T)
        np.testing.assert_allclose(cov, np.eye(6), atol=0.05)


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
        # logistic data are row indices; the other models draw float rows
        expected = (4, 30) if model.name == "logistic" else (4, 30, model.payload_dim)
        assert block.shape == expected
        for r in range(4):
            lone = derive_stream(53, [model.name, r])
            np.testing.assert_array_equal(block[r], model.sample_data([lone], 30)[0])
            assert streams[r].generator.random() == lone.generator.random()

    def test_dirty_out_block_equals_fresh_draw(self, model):
        fresh_streams = [derive_stream(59, [model.name, r]) for r in range(3)]
        fresh = model.sample_data(fresh_streams, 30)
        streams = [derive_stream(59, [model.name, r]) for r in range(3)]
        dirty = np.full_like(fresh, 7)
        assert model.sample_data(streams, 30, out=dirty) is dirty
        np.testing.assert_array_equal(dirty, fresh)
        for stream, fresh_stream in zip(streams, fresh_streams):
            assert stream.generator.random() == fresh_stream.generator.random()

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

