"""Loss models: gradients, unbiasedness, noise factors, dataset handling."""

import math
import warnings

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
    ridge_penalties,
    weighted_sum,
)
from msgdlab.numerics import derive_stream
from msgdlab.stats import mean_with_se
from msgdlab.weights import SCHEME_KINDS, WeightScheme, sample_weight_norms, sample_weights
from oracles import finite_diff_gradient
from test_stats import FIVE_SCHEMES


KAPPA = 0.05  # the ridge penalty of small_logistic


def small_logistic(seed=101, p=3, t=400):
    dataset = generate_logistic_dataset(derive_stream(seed, ["data"]), p, t)
    return make_logistic_model(dataset, KAPPA), dataset


def payload_sigmoid(z):
    """The two-divide sigmoid the logistic model used before its one-divide form."""
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def payload_grad_loss(kappa, beta, payloads):
    """Reference per-datum gradients on gathered ``[y | x]`` payload rows, the
    form the logistic model computed before its data became row indices."""
    beta = np.asarray(beta, dtype=float)
    yd = payloads[..., 0]
    xd = payloads[..., 1:]
    resid = payload_sigmoid((xd @ beta[..., None])[..., 0]) - yd
    return resid[..., None] * xd + 2.0 * kappa * beta[..., None, :]


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
            KAPPA, beta, np.column_stack([dataset.labels[idx], dataset.covariates[idx]])
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
            assert second >= 2 * KAPPA - 1e-6

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
            h1 = np.sum(dataset.covariates[idx] ** 2) / 4 + 2 * KAPPA
            assert increment <= h1 * np.linalg.norm(b1 - b2) + 1e-12

    def test_lipschitz_constant_bounds_curvature(self):
        model, dataset = small_logistic()
        lipschitz = logistic_lipschitz_constant(dataset, KAPPA)
        assert lipschitz == model.lipschitz_grad > 2 * KAPPA
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
        dataset = LogisticDataset(np.array([0.0, 1.0]), np.zeros((2, 2)))
        for kappa in (0.0, -0.1):
            with pytest.raises(ValueError, match="kappa must be positive"):
                make_logistic_model(dataset, kappa)


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

    @pytest.mark.parametrize("label", [0, 1])
    def test_signed_residual_identity(self, label):
        # the fused kernel's residual: sigmoid(z) - y = -s / (1 + e^(s z)) with
        # s = 2y - 1, where e^(s z) = inf gives the exact limit 0
        gen = derive_stream(67, ["z", label]).generator
        z = np.concatenate([
            [0.0, -0.0, 5e-324, -5e-324, 36.0, -36.0, 745.0, -745.0, 1e300, -1e300],
            gen.standard_normal(1000) * 10.0 ** gen.integers(-8, 4, 1000),
        ])
        s = 2.0 * label - 1.0
        with np.errstate(over="ignore"):
            signed = -s / (1.0 + np.exp(s * z))
        assert np.all(np.abs(signed - (payload_sigmoid(z) - label)) <= 2.0**-52)

    @pytest.mark.parametrize("reps", [1, 3, 9])
    def test_grad_loss_and_noise_factor_bitwise(self, reps):
        p, n = 6, 1000
        dataset = generate_logistic_dataset(derive_stream(59, ["data"]), p, 10**4)
        payloads = np.column_stack([dataset.labels, dataset.covariates])
        gen = derive_stream(59, ["beta", reps]).generator
        for kappa in self.KAPPAS:
            model = make_logistic_model(dataset, kappa)
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
                            old = payload_grad_loss(kappa, b, payloads[i])
                        assert_same_bits(new, old, b)
            beta = gen.standard_normal((reps, p))
            every_datum = payload_grad_loss(kappa, beta, payloads)
            expected = np.swapaxes(
                every_datum - model.grad_objective(beta)[..., None, :], -1, -2
            ) / np.sqrt(dataset.size)
            np.testing.assert_array_equal(
                model.noise_factor(beta).view(np.uint64), expected.view(np.uint64)
            )


class TestWeightedGradient:
    """``weighted_grad`` is sum_i w_i grad l(theta, u_i): the default reduces
    ``grad_loss`` with the stacked matmul bit for bit, and the fused logistic
    form agrees with it up to summation order."""

    P, N = 6, 1000

    def weights(self, kind, reps, label):
        scheme = WeightScheme(kind, n=self.N, m=10)
        return sample_weights([derive_stream(71, [label, kind, r]) for r in range(reps)], scheme)

    @staticmethod
    def assert_rows_equal_one_row_calls(model, theta, data, w):
        """Each row of a batched call, at its own theta and at theta[0] shared
        by the batch, equals a one-row call bit for bit."""
        batched = model.weighted_grad(theta, data, w)
        shared = model.weighted_grad(theta[0], data, w)
        for r in range(len(theta)):
            for row, lone in ((batched[r], model.weighted_grad(theta[r], data[r], w[r])),
                              (batched[r], model.weighted_grad(theta[r:r + 1], data[r:r + 1],
                                                               w[r:r + 1])[0]),
                              (shared[r], model.weighted_grad(theta[0], data[r], w[r]))):
                np.testing.assert_array_equal(row.view(np.uint64), lone.view(np.uint64))

    @staticmethod
    def assert_non_finite_stays_in_its_row(model, theta, data, w, special, gen):
        """A `special` coordinate in one row of theta makes non-finite the
        coordinates the per-datum sum does, in that row alone."""
        reps, p = theta.shape
        clean = model.weighted_grad(theta, data, w)
        for bad in (0, 4, reps - 1):
            dirty = theta.copy()
            dirty[bad, gen.integers(p)] = special
            with np.errstate(all="ignore"):
                result = model.weighted_grad(dirty, data, w)
                per_datum = (w[:, None, :] @ model.grad_loss(dirty, data))[:, 0, :]
            assert not np.isfinite(result[bad]).all()
            np.testing.assert_array_equal(np.isfinite(result), np.isfinite(per_datum))
            others = np.arange(reps) != bad
            np.testing.assert_array_equal(
                result[others].view(np.uint64), clean[others].view(np.uint64)
            )

    @pytest.mark.parametrize("reps", [1, 3, 9])
    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    def test_logistic_fused_matches_per_datum_sum(self, kind, reps):
        dataset = generate_logistic_dataset(derive_stream(71, ["data"]), self.P, 10**4)
        payloads = np.column_stack([dataset.labels, dataset.covariates])
        w = self.weights(kind, reps, "sum")
        gen = derive_stream(71, ["beta", kind, reps]).generator
        for kappa in TestLogisticMatchesPayloadForm.KAPPAS:
            model = make_logistic_model(dataset, kappa)
            for scale in (1e-8, 1e-4, 1.0, 1e3):
                beta = scale * gen.standard_normal((reps, self.P))
                idx = gen.integers(0, dataset.size, size=(reps, self.N))
                grads = payload_grad_loss(kappa, beta, payloads[idx])
                expected = (w[:, None, :] @ grads)[:, 0, :]
                # relative to the sum of the terms' magnitudes, which bounds
                # what reordering the sum can move: n * eps = 2.2e-13 at worst
                magnitude = (np.abs(w)[:, None, :] @ np.abs(grads))[:, 0, :]
                fused = model.weighted_grad(beta, idx, w)
                assert fused.shape == (reps, self.P)
                assert np.all(np.abs(fused - expected) <= 1e-12 * magnitude), (kappa, scale)

    @pytest.mark.parametrize("reps", [1, 3, 9])
    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    def test_logistic_fused_matches_per_datum_sum_where_exp_overflows(self, kind, reps):
        # at these scales |S_d beta| passes 709.78 and e^(S_d beta) is inf
        dataset = generate_logistic_dataset(derive_stream(71, ["data"]), self.P, 10**4)
        payloads = np.column_stack([dataset.labels, dataset.covariates])
        w = self.weights(kind, reps, "overflow")
        gen = derive_stream(71, ["overflow", kind, reps]).generator
        for kappa in TestLogisticMatchesPayloadForm.KAPPAS:
            model = make_logistic_model(dataset, kappa)
            for scale in (1e150, 1e300):
                beta = scale * gen.standard_normal((reps, self.P))
                idx = gen.integers(0, dataset.size, size=(reps, self.N))
                grads = payload_grad_loss(kappa, beta, payloads[idx])
                expected = (w[:, None, :] @ grads)[:, 0, :]
                magnitude = (np.abs(w)[:, None, :] @ np.abs(grads))[:, 0, :]
                fused = model.weighted_grad(beta, idx, w)
                assert np.all(np.abs(fused - expected) <= 1e-12 * magnitude), (kappa, scale)

    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    def test_logistic_row_equals_one_row_call(self, kind):
        model, dataset = small_logistic(p=self.P, t=10**4)
        reps = 9
        w = self.weights(kind, reps, "rows")
        gen = derive_stream(73, [kind]).generator
        beta = gen.standard_normal((reps, self.P))
        idx = gen.integers(0, dataset.size, size=(reps, self.N))
        self.assert_rows_equal_one_row_calls(model, beta, idx, w)

    @pytest.mark.parametrize("special", [np.inf, -np.inf, np.nan])
    def test_logistic_non_finite_beta_stays_in_its_row(self, special):
        model, dataset = small_logistic(p=self.P, t=10**4)
        reps = 9
        w = self.weights("gaussian", reps, "special")
        gen = derive_stream(79, ["special"]).generator
        beta = gen.standard_normal((reps, self.P))
        idx = gen.integers(0, dataset.size, size=(reps, self.N))
        self.assert_non_finite_stays_in_its_row(model, beta, idx, w, special, gen)

    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    @pytest.mark.parametrize("make", [
        make_uniform_clt_model, lambda p: make_quadratic_model(p, np.ones(p), 0.7),
    ], ids=["uniform", "quadratic"])
    def test_default_is_the_stacked_matmul(self, kind, make):
        model = make(3)
        assert model.fused_weighted_grad is None
        reps = 5
        streams = [derive_stream(83, [model.name, kind, r]) for r in range(reps)]
        data = model.sample_data(streams, self.N)
        w = self.weights(kind, reps, model.name)
        theta = derive_stream(83, [model.name]).generator.standard_normal((reps, 3))
        for point in (theta, theta[0]):
            expected = (w[:, None, :] @ model.grad_loss(point, data))[:, 0, :]
            np.testing.assert_array_equal(
                model.weighted_grad(point, data, w).view(np.uint64), expected.view(np.uint64)
            )


class TestConditionalWeightedGradient:
    """The quadratic ``sample_weighted_grad`` draws sum_i w_i grad l(theta, u_i)
    from its law given the weights' (sum w, |w|^2) rows of
    ``sample_weight_norms``, (theta - theta*) sum w - s |w| zeta: the chain
    has the law of the data path ``weighted_sum(w, grad_loss(theta,
    sample_data))``, one row per stream."""

    P, N, M = 2, 40, 4
    THETA_STAR, S, THETA = np.array([0.5, -1.0]), 1.7, np.array([1.0, 0.25])
    REPS, BATCHES, SIGMAS = 80_000, 80, 4.5

    def moments(self, grads):
        """Per-coordinate mean, and second and fourth moments about the exact
        mean (theta - theta*) E[sum w] = theta - theta*, each with its
        batch-means SE: (3, p) values and (3, p) SEs."""
        d = grads - (self.THETA - self.THETA_STAR)
        per_rep = np.stack([grads, d**2, d**4])
        batches = per_rep.reshape(3, self.BATCHES, -1, self.P).mean(axis=2)
        return mean_with_se(batches, axis=1)

    def sigmas_apart(self, a, b):
        (mean_a, se_a), (mean_b, se_b) = self.moments(a), self.moments(b)
        return (mean_a - mean_b) / np.hypot(se_a, se_b)

    def draws(self, spec):
        """The data path's and the sampler's draws at one scheme, and the
        sampler's (sum w, |w|^2) rows."""
        scheme = WeightScheme(n=self.N, m=self.M, **spec)
        model = make_quadratic_model(self.P, self.THETA_STAR, self.S)
        # iid rows from one generator each: every row draws from the same stream in turn
        data_rows = [derive_stream(97, ["data", scheme.label])] * self.REPS
        data = model.sample_data(data_rows, self.N)
        path = weighted_sum(sample_weights(data_rows, scheme), model.grad_loss(self.THETA, data))
        rows = [derive_stream(97, ["conditional", scheme.label])] * self.REPS
        norms = sample_weight_norms(rows, scheme)
        return path, model.sample_weighted_grad(self.THETA, norms, rows), norms

    @pytest.mark.parametrize("spec", FIVE_SCHEMES, ids=lambda spec: "-".join(spec.values()))
    def test_matches_the_data_path_in_law(self, spec):
        path, drawn, _ = self.draws(spec)
        assert np.all(np.abs(self.sigmas_apart(drawn, path)) <= self.SIGMAS)

    def test_rejects_gaussian_sgd_scale_under_dirichlet_weights(self):
        # |w| replaced by 1/sqrt(m), Gaussian SGD's scale: the same variance,
        # since E|w|^2 = 1/m, but E|w|^4 = 1.18/m^2 for Dirichlet weights at
        # (40, 4), which the fourth moments see
        path, drawn, norms = self.draws({"kind": "dirichlet"})
        drift = (self.THETA - self.THETA_STAR) * norms[:, :1]
        norm = np.sqrt(norms[:, 1:])
        mutant = drift + (drawn - drift) / (norm * math.sqrt(self.M))
        apart = self.sigmas_apart(mutant, path)
        assert np.all(np.abs(apart[:2]) <= self.SIGMAS)
        assert np.all(apart[2] < -self.SIGMAS)

    @pytest.mark.parametrize("spec", FIVE_SCHEMES, ids=lambda spec: "-".join(spec.values()))
    def test_row_equals_one_stream_call(self, spec):
        scheme = WeightScheme(n=self.N, m=self.M, **spec)
        model = make_quadratic_model(self.P, self.THETA_STAR, self.S)
        reps = 9

        def streams(rows):
            return [derive_stream(87, [scheme.label, r]) for r in rows]

        theta = derive_stream(87, [scheme.label]).generator.standard_normal((reps, self.P))
        for point in (theta, theta[0]):
            rows = streams(range(reps))
            batched = model.sample_weighted_grad(point, sample_weight_norms(rows, scheme), rows)
            assert batched.shape == (reps, self.P)
            for r in range(reps):
                lone = point[r:r + 1] if point.ndim == 2 else point
                [one] = streams([r])
                alone = model.sample_weighted_grad(lone, sample_weight_norms([one], scheme), [one])
                np.testing.assert_array_equal(batched[r].view(np.uint64),
                                              alone[0].view(np.uint64))

    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    @pytest.mark.parametrize("special", [np.inf, -np.inf, np.nan])
    def test_non_finite_theta_stays_in_its_row(self, special, kind):
        # non-finite where the data path's per-datum sum is, in that row alone
        model = make_quadratic_model(self.P, np.zeros(self.P), 1.0)
        scheme = WeightScheme(kind, n=self.N, m=self.M)
        reps = 9

        def draw(theta):
            rows = [derive_stream(91, [kind, r]) for r in range(reps)]
            return model.sample_weighted_grad(theta, sample_weight_norms(rows, scheme), rows)

        gen = derive_stream(91, [kind]).generator
        theta = gen.standard_normal((reps, self.P))
        rows = [derive_stream(91, ["data", kind, r]) for r in range(reps)]
        data, w = model.sample_data(rows, self.N), sample_weights(rows, scheme)
        clean = draw(theta)
        for bad in (0, 4, reps - 1):
            dirty = theta.copy()
            dirty[bad, gen.integers(self.P)] = special
            with np.errstate(all="ignore"):
                result = draw(dirty)
                per_datum = weighted_sum(w, model.grad_loss(dirty, data))
            assert not np.isfinite(result[bad]).all()
            np.testing.assert_array_equal(np.isfinite(result), np.isfinite(per_datum))
            others = np.arange(reps) != bad
            np.testing.assert_array_equal(
                result[others].view(np.uint64), clean[others].view(np.uint64)
            )


class TestLogisticKappaGrid:
    """One model over a grid of K penalties: its state stacks one beta per
    kappa, and block k is the one-penalty model at kappa_k."""

    P, N = 6, 1000
    KAPPAS = TestLogisticMatchesPayloadForm.KAPPAS

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_logistic_dataset(derive_stream(89, ["data"]), self.P, 10**4)

    def blocks(self, theta):
        return [theta[..., k * self.P : (k + 1) * self.P] for k in range(len(self.KAPPAS))]

    def test_float_and_one_element_grid_agree(self, dataset):
        lone, grid = make_logistic_model(dataset, 0.05), make_logistic_model(dataset, [0.05])
        assert (grid.dim, grid.payload_dim) == (self.P, lone.payload_dim)
        assert grid.noise_factor(np.zeros(self.P)).shape == (self.P, 10**4)
        for name in ("lipschitz_grad", "lipschitz_noise", "strong_convexity"):
            assert getattr(grid, name) == getattr(lone, name), name
        gen = derive_stream(89, ["one"]).generator
        beta = gen.standard_normal((3, self.P))
        idx = gen.integers(0, dataset.size, size=(3, self.N))
        w = gen.standard_normal((3, self.N))
        for new, old in ((grid.weighted_grad(beta, idx, w), lone.weighted_grad(beta, idx, w)),
                         (grid.grad_loss(beta, idx), lone.grad_loss(beta, idx)),
                         (grid.noise_factor(beta), lone.noise_factor(beta))):
            np.testing.assert_array_equal(new.view(np.uint64), old.view(np.uint64))

    def test_blocks_are_the_one_kappa_models(self, dataset):
        grid = make_logistic_model(dataset, self.KAPPAS)
        lone = [make_logistic_model(dataset, kappa) for kappa in self.KAPPAS]
        assert grid.dim == len(self.KAPPAS) * self.P
        assert grid.noise_factor(np.zeros(grid.dim)).shape == (grid.dim, dataset.size)
        assert grid.lipschitz_grad == max(model.lipschitz_grad for model in lone)
        assert grid.lipschitz_noise == max(model.lipschitz_noise for model in lone)
        assert grid.strong_convexity == min(model.strong_convexity for model in lone)
        gen = derive_stream(89, ["blocks"]).generator
        theta = gen.standard_normal((3, grid.dim))
        idx = gen.integers(0, dataset.size, size=(3, 50))
        betas = self.blocks(theta)
        np.testing.assert_allclose(
            grid.objective(theta), sum(m.objective(b) for m, b in zip(lone, betas)), rtol=1e-13
        )
        for got, model, beta in zip(self.blocks(grid.grad_objective(theta)), lone, betas):
            np.testing.assert_allclose(got, model.grad_objective(beta), rtol=1e-13, atol=1e-15)
        for got, model, beta in zip(self.blocks(grid.grad_loss(theta, idx)), lone, betas):
            np.testing.assert_allclose(got, model.grad_loss(beta, idx), rtol=1e-13, atol=1e-15)
        # the factor stacks the blocks' factors: one datum moves every block
        factor = grid.noise_factor(theta)
        assert factor.shape == (3, grid.dim, dataset.size)
        for k, (model, beta) in enumerate(zip(lone, betas)):
            np.testing.assert_allclose(
                factor[:, k * self.P : (k + 1) * self.P], model.noise_factor(beta),
                rtol=1e-12, atol=1e-15,
            )

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e300])
    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    def test_grid_kernel_matches_per_datum_sum(self, dataset, kind, scale):
        # at 1e150 and 1e300, |S_d beta| passes 709.78 and e^(S_d beta) is inf
        grid = make_logistic_model(dataset, self.KAPPAS)
        reps = 4
        scheme = WeightScheme(kind, n=self.N, m=10)
        w = sample_weights([derive_stream(89, ["w", kind, r]) for r in range(reps)], scheme)
        gen = derive_stream(89, ["grid", kind, f"{scale:g}"]).generator
        theta = scale * gen.standard_normal((reps, grid.dim))
        idx = gen.integers(0, dataset.size, size=(reps, self.N))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fused = grid.weighted_grad(theta, idx, w)
            grads = grid.grad_loss(theta, idx)
        expected = weighted_sum(w, grads)
        magnitude = weighted_sum(np.abs(w), np.abs(grads))
        assert fused.shape == (reps, grid.dim)
        assert np.all(np.abs(fused - expected) <= 1e-12 * magnitude)

    @pytest.mark.parametrize(
        "kappa, message",
        [([], "non-empty 1-D"), ([[0.1, 0.2]], "non-empty 1-D"),
         ([0.1, 0.0], "kappa must be positive, got 0.0"),
         ([0.1, -0.5, 0.2], "kappa must be positive, got -0.5"),
         ([math.nan], "kappa must be positive, got nan")],
    )
    def test_grid_must_be_positive_and_one_dimensional(self, dataset, kappa, message):
        with pytest.raises(ValueError, match=message):
            make_logistic_model(dataset, kappa)
        with pytest.raises(ValueError, match=message):
            ridge_penalties(kappa)


class TestDatasetGeneration:
    def test_label_frequency(self):
        dataset = generate_logistic_dataset(derive_stream(29, ["gen"]), 6, 10**4)
        assert abs(dataset.labels.mean() - 0.5) < 0.02

    def test_covariate_covariance_near_identity(self):
        dataset = generate_logistic_dataset(derive_stream(29, ["gen"]), 6, 10**4)
        cov = np.cov(dataset.covariates.T)
        np.testing.assert_allclose(cov, np.eye(6), atol=0.05)

    def test_signed_rows_computed_once(self):
        dataset = generate_logistic_dataset(derive_stream(29, ["signed"]), 6, 500)
        signed = dataset.signed
        expected = (2.0 * dataset.labels - 1.0)[:, None] * dataset.covariates
        np.testing.assert_array_equal(signed.view(np.uint64), expected.view(np.uint64))
        for kappa in (0.2, 0.05):
            make_logistic_model(dataset, kappa)
        assert dataset.signed is signed


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
        factor = model.noise_factor(thetas)
        batched = {
            "objective": model.objective(thetas),
            "grad_objective": model.grad_objective(thetas),
            "grad_loss": model.grad_loss(thetas, data),
            "noise_factor": np.broadcast_to(factor, (4,) + factor.shape[-2:]),
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

