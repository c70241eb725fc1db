"""Error distributions, transport distances, gap identity, rate fits."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

import msgdlab.dynamics as dynamics_mod
from msgdlab.dynamics import RunConfig, run_gaussian_sgd, run_gd, run_msgd
from msgdlab.models import (
    generate_logistic_dataset,
    make_logistic_model,
    make_quadratic_model,
    make_uniform_clt_model,
)
from msgdlab.numerics import derive_stream
from msgdlab.stats import (
    clt_error_samples,
    contraction_bound,
    contraction_fit,
    contraction_fit_jackknife,
    convergence_curve,
    coordinate_avg_w2,
    covariance_with_se,
    fit_segment,
    ks_normality,
    log_slope,
    mean_with_se,
    plateau_bound,
    sliced_w2,
    weighting_gap,
)
from msgdlab.weights import WeightScheme, sample_weight_values, sample_weights
from oracles import (
    clt_error_full_rows,
    quadratic_data_path,
    w2_1d,
    weighting_gap_per_replication,
)

# every weight law: the three kinds, and the gaussian kind on each base
FIVE_SCHEMES = [
    {"kind": "minibatch"}, {"kind": "gaussian"}, {"kind": "gaussian", "base": "rademacher"},
    {"kind": "gaussian", "base": "uniform"}, {"kind": "dirichlet"},
]


class TestErrorSamples:
    def test_dirichlet_error_variance(self):
        # Dirichlet weights on Unif(-1,1) data: the scaled error variance is
        # exactly Var(U) = 1/3 at every finite n because E[m sum w^2] = 1, so
        # n = 500 pins it as n = 10^4 does (A2 runs that size).  The bound,
        # about 4.5 SE, fails the alpha x 1.1 mutant's 0.309 by 7 SE.
        model = make_uniform_clt_model(1)
        scheme = WeightScheme("dirichlet", n=500, m=100)
        errors = clt_error_samples(
            model, scheme, [0.0], 2 * 10**4, derive_stream(3, ["clt"])
        )
        assert errors[:, 0].var() == pytest.approx(1 / 3, abs=0.015)

    def test_full_batch_is_scaled_plain_average(self):
        model = make_uniform_clt_model(1)
        scheme = WeightScheme("gaussian", n=400, m=400)
        errors = clt_error_samples(model, scheme, [0.0], 2000, derive_stream(5, ["fb"]))
        # weights collapse to 1/n, so the error is sqrt(n) * mean(U);
        # its variance is still Var(U) = 1/3 by the ordinary CLT setup
        assert errors[:, 0].var() == pytest.approx(1 / 3, abs=0.05)

    def test_mean_within_se_of_zero(self):
        model = make_uniform_clt_model(2)
        scheme = WeightScheme("minibatch", n=500, m=100)
        errors = clt_error_samples(model, scheme, [0.0, 0.0], 4000, derive_stream(7, ["m"]))
        se = errors.std(axis=0, ddof=1) / math.sqrt(4000)
        np.testing.assert_array_less(np.abs(errors.mean(axis=0)), 4 * se)

    def test_covariance_matches_noise_factor(self):
        # the error covariance is sigma^2(theta) exactly at finite n
        # because E[m sum w^2] = 1; here sigma^2 = I/3 at every theta
        model = make_uniform_clt_model(2)
        scheme = WeightScheme("gaussian", n=600, m=150)
        theta = np.array([0.3, 0.3])
        errors = clt_error_samples(model, scheme, theta, 6000, derive_stream(9, ["cov"]))
        cov, se = covariance_with_se(errors)
        factor = model.noise_factor(theta)
        np.testing.assert_array_less(np.abs(cov - factor @ factor.T), 4 * se)

    @pytest.mark.parametrize("spec", [{"kind": "minibatch"},
                                      {"kind": "gaussian", "base": "rademacher"}],
                             ids=lambda spec: "-".join(spec.values()))
    def test_value_rows_match_the_full_rows_in_law(self, spec):
        # the value rows' error against n data and a full weight row, at
        # (n, m) = (40, 8): each coordinate's variance and fourth moment
        # within 4 batch-means SE of the two samples' difference
        reps, batches = 40_000, 80
        model = make_uniform_clt_model(2)
        scheme = WeightScheme(n=40, m=8, **spec)
        theta = np.array([0.3, -0.2])
        samples = [clt_error_samples(model, scheme, theta, reps, derive_stream(271, ["values"])),
                   clt_error_full_rows(model, scheme, theta, reps, derive_stream(271, ["full"]))]
        moments = []
        for errors in samples:
            per_rep = np.stack([errors**2, errors**4])  # (2, reps, p), mean 0 in law
            moments.append(mean_with_se(per_rep.reshape(2, batches, -1, 2).mean(axis=2), axis=1))
        (a, se_a), (b, se_b) = moments
        np.testing.assert_array_less(np.abs(a - b), 4 * np.hypot(se_a, se_b))

    def test_reps_floor(self):
        model = make_uniform_clt_model(1)
        scheme = WeightScheme("minibatch", n=10, m=2)
        with pytest.raises(ValueError):
            clt_error_samples(model, scheme, [0.0], 50, derive_stream(1, []))

    def test_refuses_a_model_without_a_data_path(self):
        scheme = WeightScheme("minibatch", n=10, m=2)
        with pytest.raises(ValueError, match="draws the data path, which model 'quadratic'"):
            clt_error_samples(make_quadratic_model(1, [0.0], 1.0), scheme, [0.0], 100,
                              derive_stream(1, []))


class TestChunkedSampling:
    """clt_error_samples and weighting_gap draw and reduce chunks of
    replications; the chunk size cannot change a bit, and row r is the
    one-replication formula on stream.child("rep", r)."""

    N, M = 40, 8
    DEFAULT_ELEMENTS = dynamics_mod.CHUNK_ELEMENTS

    def _models(self):
        dataset = generate_logistic_dataset(derive_stream(61, ["ld"]), 2, 150)
        return [make_uniform_clt_model(2), make_logistic_model(dataset, 0.1)]

    def _by_chunk(self, monkeypatch, model, rows_fn):
        results = []
        # the default, then chunks of one and of seven replications
        for rows in (None, 1, 7):
            elements = self.DEFAULT_ELEMENTS if rows is None else rows * self.N * model.payload_dim
            monkeypatch.setattr(dynamics_mod, "CHUNK_ELEMENTS", elements)
            results.append(rows_fn())
        return results

    @pytest.mark.parametrize("spec", FIVE_SCHEMES, ids=lambda spec: "-".join(spec.values()))
    def test_clt_rows(self, monkeypatch, spec):
        scheme = WeightScheme(n=self.N, m=self.M, **spec)
        theta = np.array([0.3, 0.1])
        for model in self._models():
            stream = derive_stream(61, [scheme.kind, model.name])
            runs = self._by_chunk(
                monkeypatch, model,
                lambda: clt_error_samples(model, scheme, theta, 100, stream),
            )
            for samples in runs[1:]:
                np.testing.assert_array_equal(samples, runs[0])
            for r in (0, 6, 7, 99):  # support data, then the weights' values
                sub = stream.child("rep", r)
                data = model.sample_data([sub], scheme.support)[0]
                grad = model.weighted_grad(theta, data, sample_weight_values([sub], scheme)[0])
                expected = math.sqrt(self.M) * (grad - model.grad_objective(theta))
                np.testing.assert_array_equal(runs[0][r], expected)

    @pytest.mark.parametrize("scheme", FIVE_SCHEMES, ids=lambda spec: "-".join(spec.values()))
    def test_weighting_gap(self, monkeypatch, scheme):
        # the weights alone, in blocks of any size: the mean of |a_r|^2 =
        # m sum w^2 - 2 sqrt(m/n) sum w + 1 over the rows drawn on child("rep", r)
        scheme = WeightScheme(n=self.N, m=self.M, **scheme)
        stream = derive_stream(67, [scheme.label])
        runs = []
        for elements in (self.DEFAULT_ELEMENTS, self.N, 7 * self.N):
            monkeypatch.setattr(dynamics_mod, "CHUNK_ELEMENTS", elements)
            gap = weighting_gap(scheme, 1000, stream)
            runs.append((gap.estimate, gap.se))
        assert runs[1:] == runs[:1] * 2
        w = sample_weights(stream.children("rep", stop=1000), scheme)
        ratio = math.sqrt(self.M / self.N)
        sq_norms = [self.M * np.sum(row * row) - 2.0 * ratio * np.sum(row) + 1.0 for row in w]
        assert runs[0] == tuple(map(float, mean_with_se(sq_norms)))


class TestSharedDraw:
    """M-SGD and the clt samples take the same weighted-gradient draw: on the
    uniform model (grad g = 0), one M-SGD step from theta on the stream
    child("rep", r) is theta - gamma * sample_r / sqrt(m)."""

    @pytest.mark.parametrize("spec", FIVE_SCHEMES, ids=lambda spec: "-".join(spec.values()))
    def test_msgd_step_is_the_clt_sample(self, spec):
        n, m, reps, gamma = 60, 12, 100, 0.3
        model = make_uniform_clt_model(2)
        scheme = WeightScheme(n=n, m=m, **spec)
        theta = np.array([0.5, -0.25])
        stream = derive_stream(79, ["shared", scheme.kind])
        samples = clt_error_samples(model, scheme, theta, reps, stream)
        config = RunConfig(gamma=gamma, num_steps=1, x0=theta)
        streams = [stream.child("rep", r) for r in range(reps)]
        step = run_msgd(model, scheme, [config], [streams]).runs[0][1]
        np.testing.assert_allclose(step, theta - gamma * samples / math.sqrt(m), rtol=1e-12)


def ks_with_ndtr(samples, variance):
    """The KS statistic of `samples` against N(0, variance), with scipy's ``ndtr`` as the CDF."""
    samples = np.sort(samples)
    count = samples.size
    cdf = ndtr(samples / math.sqrt(variance))
    return max(np.max(np.arange(1, count + 1) / count - cdf), np.max(cdf - np.arange(count) / count))


class TestKsNormality:
    def test_true_normals_small_statistic(self):
        draws = derive_stream(11, ["ks"]).generator.standard_normal(10**4)
        stat = ks_normality(draws, 1.0)
        assert stat <= 0.02

    def test_point_mass_at_zero(self):
        stat = ks_normality(np.zeros(500), 1.0)
        assert stat == pytest.approx(0.5, abs=1e-3)

    def test_wrong_variance_detected(self):
        # oracle: sup_x |Phi(x) - Phi(x/2)| = 0.16134, attained at
        # x^2 = (8/3) ln 2; computed here by grid maximization
        grid = np.linspace(-8, 8, 400_001)
        oracle = np.max(np.abs(ndtr(grid) - ndtr(grid / 2)))
        draws = derive_stream(13, ["ks4"]).generator.standard_normal(10**4)
        stat = ks_normality(draws, 4.0)
        assert stat >= 0.15
        assert stat == pytest.approx(oracle, abs=0.02)

    @pytest.mark.parametrize("count", [100, 250, 10_000])
    @pytest.mark.parametrize("variance", [1 / 3, 4.0])
    def test_matches_scipy_ndtr(self, variance, count):
        # oracle: the same statistic with scipy's normal CDF, a test-only reference
        draws = derive_stream(17, ["ks-oracle", count]).generator.standard_normal(count)
        samples = 1.2 * math.sqrt(variance) * draws
        assert abs(ks_normality(samples, variance) - ks_with_ndtr(samples, variance)) <= 1e-15

    def test_matches_scipy_ndtr_in_the_tails(self):
        # a spread four times too wide puts samples past |x| = 8, where the
        # CDF is within 1e-15 of 0 or 1
        samples = 4.0 * derive_stream(19, ["ks-tails"]).generator.standard_normal(10_000)
        assert np.sum(np.abs(samples) > 8) > 100
        assert abs(ks_normality(samples, 1.0) - ks_with_ndtr(samples, 1.0)) <= 1e-15

    def test_preconditions(self):
        with pytest.raises(ValueError):
            ks_normality(np.zeros(500), 0.0)
        with pytest.raises(ValueError):
            ks_normality(np.zeros(50), 1.0)


class TestW2OneD:
    def test_identical_samples(self):
        assert w2_1d([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_unit_shift(self):
        assert w2_1d([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_permutation_invariance(self):
        assert w2_1d([0.0, 1.0], [1.0, 0.0]) == 0.0

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            w2_1d([0.0, 1.0], [0.0, 1.0, 2.0])

    def test_symmetry_and_zero_iff_equal_multisets(self):
        gen = derive_stream(17, ["w2"]).generator
        for _ in range(20):
            a, b = gen.standard_normal(50), gen.standard_normal(50)
            assert w2_1d(a, b) == w2_1d(b, a)
            assert w2_1d(a, b) > 0
            assert w2_1d(a, np.random.permutation(a)) == 0.0

    def test_triangle_inequality_unsquared(self):
        gen = derive_stream(19, ["tri"]).generator
        for _ in range(100):
            a, b, c = (gen.standard_normal(40) for _ in range(3))
            dab = math.sqrt(w2_1d(a, b))
            dbc = math.sqrt(w2_1d(b, c))
            dac = math.sqrt(w2_1d(a, c))
            assert dac <= dab + dbc + 1e-12


class TestSlicedW2:
    def test_identical_sets(self):
        gen = derive_stream(23, ["s"]).generator
        a = gen.standard_normal((100, 3))
        assert sliced_w2(a, a, 50, derive_stream(23, ["d"])) == 0.0

    def test_point_masses_average_projection(self):
        # point masses at 0 and at unit v: each slice contributes <u, v>^2,
        # and E <u, v>^2 = 1/p for a uniform unit direction
        p = 3
        v = np.zeros(p)
        v[0] = 1.0
        a = np.zeros((64, p))
        b = np.tile(v, (64, 1))
        estimate = sliced_w2(a, b, 10**4, derive_stream(29, ["pm"]))
        assert estimate == pytest.approx(1.0 / p, rel=0.05)

    def test_swap_symmetric_with_same_stream(self):
        gen = derive_stream(31, ["sym"]).generator
        a, b = gen.standard_normal((80, 2)), gen.standard_normal((80, 2))
        v1 = sliced_w2(a, b, 64, derive_stream(31, ["dirs"]))
        v2 = sliced_w2(b, a, 64, derive_stream(31, ["dirs"]))
        assert v1 == v2

    def test_rotation_invariance(self):
        gen = derive_stream(37, ["rot"]).generator
        a, b = gen.standard_normal((100, 2)), 0.5 * gen.standard_normal((100, 2))
        angle = 0.7
        rot = np.array([
            [math.cos(angle), -math.sin(angle)],
            [math.sin(angle), math.cos(angle)],
        ])
        # same direction stream on both frames: estimates agree within the
        # direction-sampling error
        v1 = sliced_w2(a, b, 4000, derive_stream(37, ["dirs"]))
        v2 = sliced_w2(a @ rot.T, b @ rot.T, 4000, derive_stream(37, ["dirs"]))
        assert v2 == pytest.approx(v1, rel=0.1)
        # rotating the directions along with the data reproduces every
        # projected distance exactly
        dirs = derive_stream(37, ["manual"]).generator.standard_normal((32, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for u in dirs:
            d1 = w2_1d(a @ u, b @ u)
            d2 = w2_1d((a @ rot.T) @ (rot @ u), (b @ rot.T) @ (rot @ u))
            assert d2 == pytest.approx(d1, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sliced_w2(np.zeros((10, 2)), np.zeros((10, 3)), 8, derive_stream(1, []))


class TestCoordinateAvgW2:
    def test_matches_exact_1d(self):
        gen = derive_stream(39, ["ca"]).generator
        a, b = gen.standard_normal(60), gen.standard_normal(60)
        assert coordinate_avg_w2(a, b) == w2_1d(a, b)

    def test_point_masses_exact(self):
        # coordinate marginals differ only along the first axis, so the
        # average is exactly 1/p
        p = 4
        a = np.zeros((16, p))
        b = np.zeros((16, p))
        b[:, 0] = 1.0
        estimate = coordinate_avg_w2(a, b)
        assert isinstance(estimate, float)
        assert estimate == pytest.approx(1.0 / p, rel=0, abs=0)

    def test_blind_to_cross_coordinate_structure(self):
        # both coordinates share marginals; only the coupling differs
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert coordinate_avg_w2(a, b) == 0.0


class TestWeightingGap:
    def test_full_batch_gap_vanishes(self):
        scheme = WeightScheme("gaussian", n=256, m=256)
        gap = weighting_gap(scheme, 1000, derive_stream(41, ["g"]))
        assert gap.analytic == 0.0
        assert gap.estimate == pytest.approx(0.0, abs=1e-24)

    @pytest.mark.parametrize("model", ["quadratic", "uniform"])
    @pytest.mark.parametrize("scheme", FIVE_SCHEMES, ids=lambda spec: "-".join(spec.values()))
    def test_identity_given_the_weights(self, scheme, model):
        # the data are iid and independent of w, so given w the raw squared gap on
        # drawn data has expectation Tr sigma^2 |a|^2: their difference has mean 0
        # over the same weight rows, and the estimator's |a|^2 is those rows'
        n, m, reps = 40, 8, 4000
        scheme = WeightScheme(n=n, m=m, **scheme)
        model = (quadratic_data_path(make_quadratic_model(2, [0.5, -1.0], 1.5))
                 if model == "quadratic" else make_uniform_clt_model(2))
        theta = np.array([0.3, -0.2])
        stream = derive_stream(53, [scheme.label, model.name])
        raw, w = weighting_gap_per_replication(model, scheme, theta, reps, stream)
        sq_norms = np.sum((math.sqrt(m) * w - 1.0 / math.sqrt(n)) ** 2, axis=1)
        mean, se = mean_with_se(raw - model.noise_trace(theta) * sq_norms)
        assert abs(mean) <= 4 * se
        gap = weighting_gap(scheme, reps, stream)
        assert gap.estimate == pytest.approx(sq_norms.mean(), rel=1e-12)
        assert gap.analytic == pytest.approx(2.0 - 2.0 * math.sqrt(m / n), rel=1e-15)

    def test_reps_floor(self):
        scheme = WeightScheme("minibatch", n=10, m=5)
        with pytest.raises(ValueError):
            weighting_gap(scheme, 500, derive_stream(1, []))


class TestContractionBound:
    def test_noiseless_quadratic_rate(self):
        rho = contraction_bound(lam=1.0, gamma=0.1, L=1.0, L1=0.0, p=1, m=10)
        assert rho == pytest.approx(0.81)

    def test_worked_arithmetic(self):
        # by hand: 1 - 0.1*1.9 + 2*6*1*1*0.01/(10*1) = 0.81 + 0.012 = 0.822
        rho = contraction_bound(lam=1.0, gamma=0.1, L=1.0, L1=1.0, p=6, m=10)
        assert rho == pytest.approx(0.822)

    def test_monotone_in_m_and_flat_when_noiseless(self):
        values = [contraction_bound(1.0, 0.1, 1.0, 0.5, 4, m) for m in (2, 8, 32)]
        assert values[0] >= values[1] >= values[2]
        flat = [contraction_bound(1.0, 0.1, 1.0, 0.0, 4, m) for m in (2, 32)]
        assert flat[0] == flat[1]

    def test_defensive_check_fires_for_large_l1(self):
        # the printed m condition uses L1 unsquared; rho >= 1 is then
        # reachable and must be reported loudly rather than returned
        with pytest.raises(ArithmeticError):
            contraction_bound(lam=0.5, gamma=0.1, L=1.0, L1=40.0, p=6, m=2000)


def gd_ensemble(model, config, reps=1) -> np.ndarray:
    """Deterministic GD copied into every replication of an ensemble's states."""
    gd = run_gd(model, [config]).runs[0]
    return np.repeat(gd[:, None, :], reps, axis=1)


class TestMeanWithSe:
    def test_along_an_axis(self):
        values = derive_stream(71, ["mse"]).generator.standard_normal((7, 3, 4))
        mean, se = mean_with_se(values, axis=1)
        np.testing.assert_array_equal(mean, values.mean(axis=1))
        np.testing.assert_array_equal(se, values.std(axis=1, ddof=1) / math.sqrt(3))

    def test_one_row_has_zero_se(self):
        mean, se = mean_with_se(np.array([[2.0, -1.0]]))
        np.testing.assert_array_equal(mean, [2.0, -1.0])
        np.testing.assert_array_equal(se, [0.0, 0.0])

    def test_overflowing_spread_is_an_inf_se(self):
        # quietly, though tier-1 turns every RuntimeWarning into an error
        mean, se = mean_with_se(np.array([1e200, -1e200, 0.0]))
        assert mean == 0.0 and se == math.inf


class TestConvergenceCurve:
    def test_gd_closed_form(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        config = RunConfig(gamma=0.1, num_steps=30, x0=[1.0])
        curve = convergence_curve(model, gd_ensemble(model, config))
        expected = 0.5 * (1 - 0.1) ** (2 * np.arange(31))
        np.testing.assert_allclose(curve.g_gap_mean, expected, rtol=1e-10)

    def test_gaussian_sgd_matches_recursion(self):
        # oracle: a_{k+1} = (1-gamma)^2 a_k + gamma^2 s^2 / (2m)
        model = make_quadratic_model(1, [0.0], 1.0)
        gamma, m, steps, reps = 0.1, 50, 100, 300
        config = RunConfig(gamma=gamma, num_steps=steps, x0=[1.0])
        streams = derive_stream(59, ["gs"]).children("rep", stop=reps)
        curve = convergence_curve(model, run_gaussian_sgd(model, [config], [streams], m).runs[0])
        oracle = np.empty(steps + 1)
        oracle[0] = 0.5
        for k in range(steps):
            oracle[k + 1] = (1 - gamma) ** 2 * oracle[k] + gamma**2 / (2 * m)
        deviation = np.abs(curve.g_gap_mean - oracle)
        np.testing.assert_array_less(deviation, 4 * curve.g_gap_se + 1e-12)

    def test_every_replication_counts(self):
        # one row per replication, each the curve of that replication run
        # alone, and the mean and SE over all of them
        model = make_quadratic_model(1, [0.0], 1.0)
        scheme = WeightScheme("gaussian", n=4, m=2)
        config = RunConfig(gamma=0.5, num_steps=30, x0=[1.0])
        stream = derive_stream(61, ["d"])
        curve = convergence_curve(
            model, run_msgd(model, scheme, [config], [stream.children("rep", stop=5)]).runs[0]
        )
        assert curve.sq_dist_reps.shape == (5, 31)
        for r in range(5):
            alone = run_msgd(model, scheme, [config], [[stream.child("rep", r)]]).runs[0]
            np.testing.assert_array_equal(
                curve.sq_dist_reps[r], convergence_curve(model, alone).sq_dist_reps[0]
            )
        np.testing.assert_array_equal(curve.sq_dist_mean, curve.sq_dist_reps.mean(axis=0))
        np.testing.assert_array_equal(
            curve.sq_dist_se, curve.sq_dist_reps.std(axis=0, ddof=1) / math.sqrt(5)
        )

    def test_a_grid_run_gives_its_lone_curve(self):
        # a config's run is a strided view of the lockstep block, and its
        # curve is the lone run's, bit for bit
        model = make_quadratic_model(2, [0.5, -0.5], 1.0)
        scheme = WeightScheme("minibatch", n=16, m=4)
        configs = [RunConfig(gamma=g, num_steps=k, x0=[1.0, 1.0]) for g, k in ((0.2, 9), (0.1, 20))]

        def streams(i):
            return derive_stream(63, [i]).children("rep", stop=3)

        grid = run_msgd(model, scheme, configs, [streams(i) for i in range(2)])
        for i, config in enumerate(configs):
            curve = convergence_curve(model, grid.runs[i])
            lone = run_msgd(model, scheme, [config], [streams(i)]).runs[0]
            alone = convergence_curve(model, lone)
            for name in ("g_gap_mean", "g_gap_se", "sq_dist_mean", "sq_dist_se", "sq_dist_reps"):
                np.testing.assert_array_equal(getattr(curve, name), getattr(alone, name))

    def test_reference_needed_without_a_known_minimizer(self):
        from msgdlab.models import generate_logistic_dataset, make_logistic_model

        dataset = generate_logistic_dataset(derive_stream(67, ["ref"]), 2, 200)
        model = make_logistic_model(dataset, 0.1)
        config = RunConfig(gamma=0.1, num_steps=3, x0=[1.0, 1.0])
        with pytest.raises(ValueError, match="no known minimizer"):
            convergence_curve(model, gd_ensemble(model, config))
        curve = convergence_curve(model, gd_ensemble(model, config), reference=np.zeros(2))
        assert curve.g_gap_mean is None and curve.sq_dist_mean[0] == 2.0


class TestContractionFit:
    def test_exact_geometric(self):
        curve = 0.81 ** np.arange(60)
        assert contraction_fit(curve) == pytest.approx(0.81, abs=1e-10)

    def test_constant_curve(self):
        assert contraction_fit(np.ones(30)) == pytest.approx(1.0, abs=1e-12)

    def test_gd_quadratic_rate(self):
        model = make_quadratic_model(1, [0.0], 1.0)
        config = RunConfig(gamma=0.1, num_steps=40, x0=[1.0])
        gaps = [
            model.objective(x) - model.objective(model.minimizer)
            for x in run_gd(model, [config]).runs[0]
        ]
        assert contraction_fit(gaps) == pytest.approx(0.81, abs=1e-6)

    def test_nonpositive_entries_in_window_rejected(self):
        # a curve that is not positive over the window has no rate: NaN, so its check FAILs
        assert math.isnan(contraction_fit(np.array([1.0, 0.5, 0.0, 0.25])[fit_segment(4, 0, 4)]))
        # entries outside the window do not matter
        assert contraction_fit(np.array([1.0, 0.5, 0.0, 0.25])[fit_segment(4, 0, 2)]) > 0

    def test_jackknife_se_positive(self):
        gen = derive_stream(71, ["jk"]).generator
        base = 0.8 ** np.arange(30)
        curves = base[None, :] * np.exp(0.05 * gen.standard_normal((20, 30)))
        rho, se = contraction_fit_jackknife(curves)
        assert 0.75 <= rho <= 0.85
        assert se > 0

    @staticmethod
    def looped_jackknife_se(segments):
        """The SE from one fit per leave-one-out mean."""
        reps = segments.shape[0]
        total = segments.sum(axis=0)
        loo = np.array([contraction_fit((total - row) / (reps - 1)) for row in segments])
        return math.sqrt((reps - 1) / reps * np.sum((loo - loo.mean()) ** 2))

    @pytest.mark.parametrize("reps, window", [(2, 2), (3, 8), (20, 30), (100, 8)])
    def test_jackknife_matches_one_fit_per_replication(self, reps, window):
        gen = derive_stream(71, ["jk-loop", reps, window]).generator
        curves = 0.8 ** np.arange(window) * np.exp(0.05 * gen.standard_normal((reps, window)))
        rho, se = contraction_fit_jackknife(curves)
        assert rho == contraction_fit(curves.mean(axis=0))
        assert se == pytest.approx(self.looped_jackknife_se(curves), rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1e-3])
    def test_jackknife_se_nan_when_a_leave_one_out_mean_is_not_positive(self, bad):
        # the mean over all three stays positive, but leaving out row 2 leaves two bad values
        curves = 0.8 ** np.arange(8) * np.ones((3, 1))
        curves[:2, 4] = bad
        rho, se = contraction_fit_jackknife(curves)
        assert math.isfinite(rho) and math.isnan(se)
        assert math.isnan(self.looped_jackknife_se(curves))

    def test_jackknife_one_replication(self):
        curve = 0.8 ** np.arange(8)
        assert contraction_fit_jackknife(curve[None, :]) == (contraction_fit(curve), 0.0)


class TestLogSlope:
    def test_power_law_slope(self):
        gammas = np.array([0.2, 0.1, 0.05])
        assert log_slope(np.log(gammas), 3.0 * gammas**2) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, math.inf, math.nan])
    def test_value_that_is_not_positive_and_finite_gives_nan(self, bad):
        # no log-of-zero warning: the fit is skipped, and a NaN slope FAILs its check
        assert math.isnan(log_slope([0.0, 1.0, 2.0], [1.0, bad, 0.5]))

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            log_slope([0.0], [1.0])


class TestPlateauBound:
    def test_quadratic_fixed_point_below_bound(self):
        # stationary level gamma s^2 / (2m(2-gamma)) is half the bound
        gamma, m = 0.1, 50
        fixed_point = gamma / (2 * m * (2 - gamma))
        bound = plateau_bound(lam=1.0, gamma=gamma, L=1.0, m=m, noise_floor=1.0)
        assert fixed_point <= bound
        assert bound == pytest.approx(2 * fixed_point, rel=1e-12)


class TestCovarianceWithSe:
    def test_iid_normals(self):
        draws = derive_stream(73, ["cov"]).generator.standard_normal((20000, 3))
        cov, se = covariance_with_se(draws)
        np.testing.assert_array_less(np.abs(cov - np.eye(3)), 4 * se)
