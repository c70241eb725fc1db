"""Weight-scheme moments, samplers, and the Dirichlet moment oracle."""

import math

import numpy as np
import pytest

import msgdlab.dynamics as dynamics_mod
import msgdlab.weights as weights_mod
from msgdlab.numerics import derive_stream
from msgdlab.weights import (
    WeightScheme,
    dirichlet_alpha,
    empirical_weight_moments,
    sample_dirichlet_weights,
    sample_gaussian_structured_weights,
    sample_minibatch_weights,
    sample_weights,
    sigma_entries,
)
from oracles import dirichlet_mixed_moment


class TestSigmaEntries:
    def test_large_case(self):
        diag, offdiag = sigma_entries(10**4, 2000)
        assert diag == pytest.approx(4.0e-8, rel=1e-12)
        assert offdiag == pytest.approx(-4.0e-8 / 9999, rel=1e-12)

    def test_full_batch_degenerates(self):
        assert sigma_entries(100, 100) == (0.0, 0.0)

    def test_two_one(self):
        # direct check: w is (1,0) or (0,1) each w.p. 1/2, so
        # Var(w_1) = 1/2 - 1/4 = 1/4 and Cov(w_1, w_2) = 0 - 1/4 = -1/4
        assert sigma_entries(2, 1) == (0.25, -0.25)

    def test_single_coordinate_offdiag_defined_zero(self):
        assert sigma_entries(1, 1) == (0.0, 0.0)

    @pytest.mark.parametrize("n,m", [(10, 11), (10, 0)])
    def test_invalid_rejected(self, n, m):
        with pytest.raises(ValueError):
            sigma_entries(n, m)


class TestSchemeValidation:
    def test_dirichlet_needs_m_at_least_two(self):
        with pytest.raises(ValueError):
            WeightScheme("dirichlet", n=10, m=1)

    def test_dirichlet_needs_m_below_n(self):
        with pytest.raises(ValueError):
            WeightScheme("dirichlet", n=10, m=10)

    def test_gaussian_needs_two_coordinates(self):
        with pytest.raises(ValueError):
            WeightScheme("gaussian", n=1, m=1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            WeightScheme("bootstrap", n=10, m=2)

    def test_unknown_base(self):
        with pytest.raises(ValueError):
            WeightScheme("gaussian", n=10, m=2, base="cauchy")


class TestEnsembleSamplers:
    """Row r of a block draw is the one-stream draw on ``streams[r]``, and it
    leaves that stream where the one-stream draw leaves it."""

    @pytest.mark.parametrize("base", ["normal", "rademacher", "uniform"])
    @pytest.mark.parametrize("kind", ["minibatch", "gaussian", "dirichlet"])
    def test_row_equals_one_stream_draw(self, kind, base):
        scheme = WeightScheme(kind, n=37, m=9, base=base)
        streams = [derive_stream(211, [kind, base, r]) for r in range(5)]
        block = sample_weights(streams, scheme)
        assert block.shape == (5, 37)
        for r in range(5):
            lone = derive_stream(211, [kind, base, r])
            np.testing.assert_array_equal(block[r], sample_weights([lone], scheme)[0])
            assert streams[r].generator.random() == lone.generator.random()

    @pytest.mark.parametrize("dispatch", [True, False], ids=["sample_weights", "own"])
    @pytest.mark.parametrize("kind, base", [
        ("minibatch", "normal"), ("gaussian", "normal"), ("gaussian", "rademacher"),
        ("gaussian", "uniform"), ("dirichlet", "normal"),
    ])
    def test_dirty_out_block_equals_fresh_draw(self, kind, base, dispatch):
        # a reused block holds the last chunk's weights; none of them may survive
        sampler = sample_weights if dispatch else weights_mod._SAMPLERS[kind]
        scheme = WeightScheme(kind, n=37, m=9, base=base)
        fresh_streams = [derive_stream(229, [kind, base, r]) for r in range(4)]
        fresh = sampler(fresh_streams, scheme)
        streams = [derive_stream(229, [kind, base, r]) for r in range(4)]
        dirty = np.full((4, 37), 7.0)
        assert sampler(streams, scheme, out=dirty) is dirty
        np.testing.assert_array_equal(dirty, fresh)
        for stream, fresh_stream in zip(streams, fresh_streams):
            assert stream.generator.random() == fresh_stream.generator.random()

    @pytest.mark.parametrize("base", ["normal", "rademacher", "uniform"])
    @pytest.mark.parametrize("n", [2, 37, 512, 10**4])
    def test_gaussian_block_matches_vector_formula(self, n, base):
        # the block transform reduces each row exactly as c * (x - x.mean()) + 1/n
        # does on the lone vector
        m = max(n // 5, 1)
        scheme = WeightScheme("gaussian", n=n, m=m, base=base)
        block = sample_gaussian_structured_weights(
            [derive_stream(223, [n, r]) for r in range(3)], scheme
        )
        for r in range(3):
            gen = derive_stream(223, [n, r]).generator
            if base == "normal":
                x = gen.standard_normal(n)
            elif base == "rademacher":
                x = gen.integers(0, 2, size=n).astype(float) * 2.0 - 1.0
            else:
                x = np.sqrt(3.0) * gen.uniform(-1.0, 1.0, size=n)
            scale = np.sqrt((n - m) / (m * n * (n - 1)))
            np.testing.assert_array_equal(block[r], scale * (x - x.mean()) + 1.0 / n)

    def test_dirichlet_retry_stays_in_its_row(self, monkeypatch):
        scheme = WeightScheme("dirichlet", n=16, m=4)
        real = weights_mod.sample_gamma
        calls = {"count": 0}

        def underflow_second_call(stream, shape, size=None):
            calls["count"] += 1
            if calls["count"] == 2:
                return np.zeros(size)
            return real(stream, shape, size)

        monkeypatch.setattr(weights_mod, "sample_gamma", underflow_second_call)
        streams = [derive_stream(227, [r]) for r in range(3)]
        block = sample_dirichlet_weights(streams, scheme)
        monkeypatch.setattr(weights_mod, "sample_gamma", real)
        for r in (0, 2):
            lone = sample_dirichlet_weights([derive_stream(227, [r])], scheme)[0]
            np.testing.assert_array_equal(block[r], lone)
        assert block[1].sum() == pytest.approx(1.0, abs=1e-12)


class TestMinibatch:
    def test_two_choose_one_frequencies(self):
        scheme = WeightScheme("minibatch", n=2, m=1)
        stream = derive_stream(5, ["mb2"])
        hits = 0
        for r in range(10**4):
            w = sample_minibatch_weights([stream.child(r)], scheme)[0]
            assert sorted(w) == [0.0, 1.0]
            hits += w[0] == 1.0
        assert abs(hits / 10**4 - 0.5) < 0.02

    def test_full_batch_exactly_uniform(self):
        scheme = WeightScheme("minibatch", n=64, m=64)
        w = sample_minibatch_weights([derive_stream(5, ["full"])], scheme)[0]
        np.testing.assert_array_equal(w, np.full(64, 1.0 / 64))

    def test_structure_of_one_draw(self):
        scheme = WeightScheme("minibatch", n=1000, m=100)
        w = sample_minibatch_weights([derive_stream(5, ["one"])], scheme)[0]
        assert np.count_nonzero(w) == 100
        assert set(np.unique(w)) == {0.0, 0.01}

    def test_subset_pinned_for_fixed_seed(self):
        # any change to how the partial Fisher-Yates consumes the stream
        # changes this subset and every minibatch artifact with it
        subset = weights_mod._sample_subset(derive_stream(20260808, ["subset"]).generator, 50, 8)
        assert subset.dtype == np.int64
        assert subset.tolist() == [39, 22, 0, 34, 46, 6, 43, 8]

    @staticmethod
    def _swap_loop_subset(gen, n, m):
        """The partial Fisher-Yates as a swap loop over a dict: the oracle."""
        draws = gen.integers(low=np.arange(m), high=n)
        swapped = {}
        out = []
        for i, j in enumerate(draws.tolist()):
            value_i = swapped.get(i, i)
            out.append(swapped.get(j, j))
            swapped[j] = value_i
        return np.array(out, dtype=np.int64)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 400, 10**4])
    def test_subset_equals_swap_loop(self, n):
        sizes = sorted({1, 2, n // 3, n // 2, n - 1, n} & set(range(1, n + 1)))
        for m in sizes:
            for seed in range(40 if n <= 400 else 3):
                stream = derive_stream(seed, ["swap-loop", n, m])
                expected = self._swap_loop_subset(stream.generator, n, m)
                again = derive_stream(seed, ["swap-loop", n, m])
                subset = weights_mod._sample_subset(again.generator, n, m)
                np.testing.assert_array_equal(subset, expected)
                # and both leave the stream in the same state
                assert again.generator.random() == stream.generator.random()

    def test_variance_matches_target_large(self):
        # target Var(w_1) = (n-m)/(m n^2) = 4e-8 at n=1e4, m=2000
        scheme = WeightScheme("minibatch", n=10**4, m=2000)
        stream = derive_stream(21, ["mbvar"])
        reps = 2 * 10**4
        first = np.empty(reps)
        for r in range(reps):
            first[r] = sample_minibatch_weights([stream.child(r)], scheme)[0][0]
        assert np.var(first, ddof=1) == pytest.approx(4.0e-8, rel=0.05)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sample_minibatch_weights([derive_stream(1, [])], WeightScheme("dirichlet", 10, 3))


class TestGaussianStructured:
    def test_full_batch_collapses_to_uniform(self):
        scheme = WeightScheme("gaussian", n=50, m=50)
        w = sample_gaussian_structured_weights([derive_stream(6, ["g"])], scheme)[0]
        np.testing.assert_array_equal(w, np.full(50, 0.02))

    def test_sum_to_one_within_accumulation_tolerance(self):
        for base in ("normal", "rademacher", "uniform"):
            scheme = WeightScheme("gaussian", n=10**4, m=2000, base=base)
            w = sample_gaussian_structured_weights([derive_stream(6, [base])], scheme)[0]
            assert abs(w.sum() - 1.0) <= 1e-10 * scheme.n

    def test_pooled_covariance_matches_target(self):
        # single-pair covariance is unresolvable at this scale; pooling every
        # (i, j) pair is exact via sum(w) = 1: per draw
        # sum_{i != j} (w_i - 1/n)(w_j - 1/n) = -(sum w^2 - 1/n), so the pooled
        # estimate is negative in every draw and pins the target -4.0004e-12
        # to a few percent
        n, m, reps = 10**4, 2000, 2 * 10**4
        scheme = WeightScheme("gaussian", n=n, m=m)
        chunks = derive_stream(23, ["gcov"]).child_chunks("rep", stop=reps, size=50)
        pooled = np.concatenate([
            -(np.sum(sample_weights(streams, scheme) ** 2, axis=1) - 1.0 / n) / (n * (n - 1))
            for _, streams in chunks
        ])
        _, offdiag = sigma_entries(n, m)
        assert pooled.mean() < 0
        assert abs(pooled.mean() - offdiag) <= 3 * pooled.std(ddof=1) / math.sqrt(reps)

    def test_rademacher_base_values(self):
        scheme = WeightScheme("gaussian", n=100, m=10, base="rademacher")
        w = sample_gaussian_structured_weights([derive_stream(6, ["r"])], scheme)[0]
        # base is +-1, so after centering/scaling only a few distinct values occur
        assert len(np.unique(np.round(w, 15))) <= 4


class TestDirichlet:
    def test_concentration_parameter(self):
        assert dirichlet_alpha(10**4, 2000) == pytest.approx(1999 / 8000, rel=0, abs=0)

    def test_draw_is_simplex_point(self):
        scheme = WeightScheme("dirichlet", n=500, m=100)
        w = sample_dirichlet_weights([derive_stream(8, ["d"])], scheme)[0]
        assert w.min() >= 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_variance_matches_target_large(self):
        scheme = WeightScheme("dirichlet", n=10**4, m=2000)
        stream = derive_stream(29, ["dvar"])
        reps = 2 * 10**4
        first = np.empty(reps)
        for r in range(reps):
            first[r] = sample_dirichlet_weights([stream.child(r)], scheme)[0][0]
        assert np.var(first, ddof=1) == pytest.approx(4.0e-8, rel=0.05)

    def test_underflow_exhausts_retries(self, monkeypatch):
        scheme = WeightScheme("dirichlet", n=16, m=4)
        monkeypatch.setattr(
            weights_mod, "sample_gamma", lambda stream, shape, size=None: np.zeros(size)
        )
        with pytest.raises(ArithmeticError, match="underflow"):
            sample_dirichlet_weights([derive_stream(1, ["u"])], scheme)

    def test_underflow_recovers_on_retry(self, monkeypatch):
        scheme = WeightScheme("dirichlet", n=16, m=4)
        real = weights_mod.sample_gamma
        calls = {"count": 0}

        def flaky(stream, shape, size=None):
            calls["count"] += 1
            if calls["count"] == 1:
                return np.zeros(size)
            return real(stream, shape, size)

        monkeypatch.setattr(weights_mod, "sample_gamma", flaky)
        w = sample_dirichlet_weights([derive_stream(1, ["u"])], scheme)[0]
        assert calls["count"] == 2
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_retries_differ_across_draws_of_one_stream(self, monkeypatch):
        # every draw underflows once; the retry address must not repeat
        # when the same stream is reused, as it is across steps of a run
        scheme = WeightScheme("dirichlet", n=16, m=4)
        real = weights_mod.sample_gamma
        calls = {"count": 0}

        def underflow_first(stream, shape, size=None):
            calls["count"] += 1
            if calls["count"] % 2 == 1:
                return np.zeros(size)
            return real(stream, shape, size)

        monkeypatch.setattr(weights_mod, "sample_gamma", underflow_first)
        stream = derive_stream(2, ["reused"])
        first = sample_dirichlet_weights([stream], scheme)[0]
        second = sample_dirichlet_weights([stream], scheme)[0]
        assert calls["count"] == 4
        assert not np.array_equal(first, second)


class TestEmpiricalMoments:
    def test_m_sum_sq_is_one_for_minibatch_identically(self):
        scheme = WeightScheme("minibatch", n=400, m=80)
        report = empirical_weight_moments(scheme, derive_stream(31, ["mss"]), 200)
        assert report.m_sum_sq_mean == pytest.approx(1.0, abs=1e-12)
        assert report.m_sum_sq_se <= 1e-13

    @pytest.mark.parametrize("kind", ["minibatch", "gaussian", "dirichlet"])
    def test_m_sum_sq_near_one_all_schemes(self, kind):
        # E[m sum w^2] = m n (Var + 1/n^2) = (n-m)/n + m/n = 1 for any
        # scheme with the minibatch moment structure
        scheme = WeightScheme(kind, n=800, m=160)
        report = empirical_weight_moments(scheme, derive_stream(37, [kind]), 2000)
        assert abs(report.m_sum_sq_mean - 1.0) <= 3 * report.m_sum_sq_se + 1e-12

    def test_third_moment_sum_is_small(self):
        # m^(3/2) sum |w|^3 over the draws empirical_weight_moments makes;
        # pilot: ~0.016 at n=1e4, m=100; the limit is 0
        m = 100
        scheme = WeightScheme("gaussian", n=10**4, m=m)
        cubes = np.concatenate([
            m**1.5 * np.sum(np.abs(sample_weights(streams, scheme)) ** 3, axis=1)
            for _, streams in derive_stream(41, ["cube"]).child_chunks("rep", stop=500, size=50)
        ])
        assert cubes.mean() <= 0.15

    @pytest.mark.parametrize("kind", ["minibatch", "gaussian", "dirichlet"])
    def test_moment_targets_all_schemes(self, kind):
        n, m = 300, 60
        scheme = WeightScheme(kind, n=n, m=m)
        report = empirical_weight_moments(scheme, derive_stream(43, [kind]), 4000)
        diag, offdiag = sigma_entries(n, m)
        assert abs(report.coord_mean[0] - 1.0 / n) <= 4 * report.coord_mean_se[0]
        assert abs(report.var_first - diag) <= 4 * report.var_first_se
        assert abs(report.cov_pair - offdiag) <= 4 * report.cov_pair_se

    @pytest.mark.parametrize("kind", ["minibatch", "gaussian", "dirichlet"])
    def test_coordinates_exchangeable(self, kind):
        n, m = 200, 40
        scheme = WeightScheme(kind, n=n, m=m)
        report = empirical_weight_moments(scheme, derive_stream(47, [kind]), 4000)
        # means of every coordinate agree pairwise within 3 joint SEs
        for i, j in [(0, 1), (0, n // 2), (1, n - 1), (n // 2, n - 1)]:
            joint = math.hypot(report.coord_mean_se[i], report.coord_mean_se[j])
            assert abs(report.coord_mean[i] - report.coord_mean[j]) <= 3 * joint
        # variances of the two tracked coordinates agree, on the report's draws
        w = sample_weights(derive_stream(47, [kind]).children("rep", stop=4000), scheme)
        var0 = np.var(w[:, 0], ddof=1)
        var1 = np.var(w[:, 1], ddof=1)
        joint = math.hypot(report.var_first_se, report.var_first_se)
        assert abs(var0 - var1) <= 3 * joint

    def test_finite_n_surrogates_for_limit_conditions(self):
        # the limit statements hold as m grows with m/n small: check that
        # sqrt(m) * max|w_i - 1/n| shrinks in m (pilot: 0.44 / 0.29 / 0.17)
        # and m * sum (w_i - 1/n)^2 sits near its exact mean (n-m)/n
        n = 5000
        means = {}
        for m in (50, 200, 800):
            scheme = WeightScheme("dirichlet", n=n, m=m)
            stream = derive_stream(53, ["surr", m])
            max_devs, sumsq = [], []
            for r in range(200):
                w = sample_weights([stream.child(r)], scheme)[0]
                max_devs.append(math.sqrt(m) * np.max(np.abs(w - 1 / n)))
                sumsq.append(m * np.sum((w - 1 / n) ** 2))
            means[m] = np.mean(max_devs)
            assert np.mean(sumsq) == pytest.approx((n - m) / n, rel=0.05)
        assert means[50] > means[200] > means[800]
        assert means[800] < 0.25

    def test_reps_floor(self):
        with pytest.raises(ValueError):
            empirical_weight_moments(WeightScheme("minibatch", 10, 2), derive_stream(1, []), 50)

    @pytest.mark.parametrize("kind", ["minibatch", "gaussian", "dirichlet"])
    def test_chunk_size_leaves_report_unchanged(self, monkeypatch, kind):
        # the default (all 250 replications in one block), then blocks of 1 and 7
        scheme = WeightScheme(kind, n=30, m=6)
        reports = []
        for elements in (dynamics_mod.CHUNK_ELEMENTS, 1, 7 * 30):
            monkeypatch.setattr(dynamics_mod, "CHUNK_ELEMENTS", elements)
            reports.append(empirical_weight_moments(scheme, derive_stream(59, [kind]), 250))
        for report in reports[1:]:
            for name in vars(report):
                np.testing.assert_array_equal(getattr(report, name), getattr(reports[0], name))


class TestDirichletMixedMoment:
    def test_uniform_marginal_second_moment(self):
        # Dir(1,1) marginal is Unif(0,1): E U^2 = 1/3
        assert dirichlet_mixed_moment([1, 1], [2, 0]) == pytest.approx(1 / 3, rel=1e-12)

    def test_empty_product(self):
        assert dirichlet_mixed_moment([0.3, 0.7, 2.0], [0, 0, 0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dirichlet_mixed_moment([1.0, 2.0], [1, 0, 0])

    def test_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            dirichlet_mixed_moment([1.0, 0.0], [1, 0])

    def test_third_moment_closed_form_large_vector(self):
        # E w_1^3 for the symmetric Dirichlet, against the direct ratio
        # (alpha+2)(alpha+1) / (n (n alpha + 2)(n alpha + 1)) of gamma factors
        n, m = 10**4, 2000
        alpha = dirichlet_alpha(n, m)
        alphas = np.full(n, alpha)
        betas = np.zeros(n)
        betas[0] = 3
        expected = ((alpha + 2) * (alpha + 1)) / (n * (n * alpha + 2) * (n * alpha + 1))
        assert dirichlet_mixed_moment(alphas, betas) == pytest.approx(expected, rel=1e-10)

    def test_monte_carlo_third_moment_agrees(self):
        n, m = 400, 80
        alpha = dirichlet_alpha(n, m)
        scheme = WeightScheme("dirichlet", n=n, m=m)
        stream = derive_stream(59, ["mc3"])
        cubes = np.empty(4000)
        for r in range(4000):
            cubes[r] = sample_weights([stream.child(r)], scheme)[0][0] ** 3
        betas = np.zeros(n)
        betas[0] = 3
        exact = dirichlet_mixed_moment(np.full(n, alpha), betas)
        se = cubes.std(ddof=1) / math.sqrt(cubes.size)
        assert abs(cubes.mean() - exact) <= 3 * se

    def test_monte_carlo_fourth_moment_agrees(self):
        n, m = 400, 80
        alpha = dirichlet_alpha(n, m)
        scheme = WeightScheme("dirichlet", n=n, m=m)
        stream = derive_stream(61, ["mc4"])
        values = np.empty(4000)
        for r in range(4000):
            w = sample_weights([stream.child(r)], scheme)[0]
            values[r] = w[0] ** 2 * w[1] ** 2
        betas = np.zeros(n)
        betas[0] = 2
        betas[1] = 2
        exact = dirichlet_mixed_moment(np.full(n, alpha), betas)
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - exact) <= 3 * se
