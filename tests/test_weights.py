"""Weight-scheme moments, samplers, and the Dirichlet moment oracle."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import msgdlab.dynamics as dynamics_mod
import msgdlab.weights as weights_mod
from msgdlab.numerics import derive_stream
from msgdlab.stats import covariance_with_se, mean_with_se
from msgdlab.weights import (
    WeightScheme,
    dirichlet_alpha,
    empirical_weight_moments,
    gaussian_scale_squared,
    sample_dirichlet_weights,
    sample_gaussian_structured_weights,
    sample_minibatch_weights,
    sample_weight_norms,
    sample_weight_values,
    sample_weights,
    sigma_entries,
)
from oracles import dirichlet_mixed_moment
from test_stats import FIVE_SCHEMES


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

    @pytest.mark.parametrize("n, m", [(10, 11), (10, 0)])
    @pytest.mark.parametrize("kind", ["minibatch", "gaussian", "dirichlet"])
    def test_m_not_above_n(self, kind, n, m):
        with pytest.raises(ValueError, match=r"need 1 <= m <= n"):
            WeightScheme(kind, n=n, m=m)

    def test_labels(self):
        # the names the golden configs' CSV rows and stream labels carry
        schemes = [WeightScheme("minibatch", n=10, m=2), WeightScheme("dirichlet", n=10, m=2)]
        schemes += [WeightScheme("gaussian", n=10, m=2, base=base)
                    for base in ("normal", "rademacher", "uniform")]
        assert [scheme.label for scheme in schemes] == [
            "minibatch", "dirichlet", "gaussian[normal]", "gaussian[rademacher]",
            "gaussian[uniform]",
        ]


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


class TestWeightNorms:
    """``sample_weight_norms`` gives a stream's (sum w, |w|^2) for a number of
    successive steps: in closed form for normal-base gaussian weights, and
    as the full rows reduce for every other law."""

    N, M = 40, 4
    REPS, BATCHES, SIGMAS = 80_000, 80, 4.5
    OTHERS = [spec for spec in FIVE_SCHEMES if spec != {"kind": "gaussian"}]

    SCHEME = WeightScheme("gaussian", n=N, m=M)

    def closed(self):
        """m |w|^2 of the closed form: the steps of one stream."""
        return self.M * sample_weight_norms([derive_stream(233, ["closed"])], self.SCHEME,
                                            self.REPS)[0, :, 1]

    def drawn(self):
        """m |w|^2 of full rows drawn by ``sample_weights``."""
        w = sample_weights([derive_stream(233, ["rows"])] * self.REPS, self.SCHEME)
        return self.M * np.sum(w * w, axis=1)

    def moments(self, m_norms):
        """The mean of m |w|^2 and its second and fourth moments about the exact
        mean E[m |w|^2] = 1, each with its batch-means SE."""
        d = m_norms - 1.0
        per_rep = np.stack([m_norms, d**2, d**4])
        return mean_with_se(per_rep.reshape(3, self.BATCHES, -1).mean(axis=2), axis=1)

    def sigmas_apart(self, a, b):
        (mean_a, se_a), (mean_b, se_b) = self.moments(a), self.moments(b)
        return (mean_a - mean_b) / np.hypot(se_a, se_b)

    def test_normal_base_closed_form_moments(self):
        # |w|^2 = c^2 chi^2_(n-1) + 1/n: E[m |w|^2] = 1, Var = 2 (n - 1) c^4 m^2
        [norms] = sample_weight_norms([derive_stream(233, ["closed"])], self.SCHEME, self.REPS)
        assert norms.shape == (self.REPS, 2)
        np.testing.assert_array_equal(norms[:, 0], 1.0)
        (mean, var, _), (mean_se, var_se, _) = self.moments(self.M * norms[:, 1])
        c4m2 = (gaussian_scale_squared(self.N, self.M) * self.M) ** 2
        assert abs(mean - 1.0) <= self.SIGMAS * mean_se
        assert abs(var - 2 * (self.N - 1) * c4m2) <= self.SIGMAS * var_se

    def test_normal_base_matches_the_full_sampler_in_law(self):
        assert np.all(np.abs(self.sigmas_apart(self.closed(), self.drawn())) <= self.SIGMAS)

    def test_rejects_a_scaled_closed_form(self):
        # the same comparison sees the variance of |w|^2 off by 10 %
        scaled = 1.0 + math.sqrt(1.1) * (self.closed() - 1.0)
        assert self.sigmas_apart(scaled, self.drawn())[1] > self.SIGMAS

    @pytest.mark.parametrize("spec", OTHERS, ids=lambda spec: "-".join(spec.values()))
    def test_other_laws_reduce_the_drawn_rows(self, spec):
        # bit for bit each value row's own sum and dot product, the steps of a
        # stream being its successive rows, and through a reused ChunkBlock too
        scheme = WeightScheme(n=self.N, m=self.M, **spec)

        def streams():
            return [derive_stream(239, [scheme.label, r]) for r in range(9)]

        expected = np.array([[[row.sum(), row @ row]
                              for row in sample_weight_values([s] * 3, scheme)]
                             for s in streams()])
        np.testing.assert_array_equal(sample_weight_norms(streams(), scheme, 3), expected)
        block = dynamics_mod.ChunkBlock(sample_weight_values)
        block(streams(), scheme)  # leaves a full block behind
        np.testing.assert_array_equal(sample_weight_norms(streams()[:5], scheme, 3, block),
                                      expected[:5])

    @pytest.mark.parametrize("spec", FIVE_SCHEMES, ids=lambda spec: "-".join(spec.values()))
    def test_row_equals_one_stream_call(self, spec):
        # row r of a block is a lone call on its stream, and a call of 3 steps
        # yields the values of 3 one-step calls, so the step count moves no byte
        scheme = WeightScheme(n=self.N, m=self.M, **spec)
        streams = [derive_stream(241, [scheme.label, r]) for r in range(7)]
        block = sample_weight_norms(streams, scheme, 3)
        assert block.shape == (7, 3, 2)
        for r in range(7):
            lone = derive_stream(241, [scheme.label, r])
            steps = np.concatenate([sample_weight_norms([lone], scheme, 1)[0] for _ in range(3)])
            np.testing.assert_array_equal(block[r].view(np.uint64), steps.view(np.uint64))
            assert streams[r].generator.random() == lone.generator.random()


class TestWeightValues:
    """``sample_weight_values`` gives a weight row's values alone: minibatch
    weights as m entries of 1/m with no draw, Rademacher-base gaussian
    weights from one binomial count of +1 base draws, each entry the full
    sampler's own value, and every other law as ``sample_weights`` draws it."""

    N, M = 40, 8

    @staticmethod
    def assert_bits(a, b):
        np.testing.assert_array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))

    @pytest.mark.parametrize("spec", FIVE_SCHEMES, ids=lambda spec: "-".join(spec.values()))
    def test_support(self, spec):
        scheme = WeightScheme(n=self.N, m=self.M, **spec)
        values = sample_weight_values([derive_stream(251, [scheme.label])], scheme)
        assert scheme.support == (self.M if scheme.kind == "minibatch" else self.N)
        assert values.shape == (1, scheme.support)

    @pytest.mark.parametrize("n, m", [(40, 8), (7, 3), (10**4, 2000), (5, 5)])
    def test_minibatch_row_is_the_full_rows_nonzeros_and_draws_nothing(self, n, m):
        scheme = WeightScheme("minibatch", n=n, m=m)
        streams = [derive_stream(251, ["mb", n, r]) for r in range(5)]
        full = sample_minibatch_weights(streams, scheme)
        values = sample_weight_values([derive_stream(251, ["mb", n, r]) for r in range(5)], scheme)
        for value_row, full_row in zip(values, full):
            self.assert_bits(value_row, full_row[full_row != 0.0])
        for r, stream in enumerate(streams):
            drawn = derive_stream(251, ["mb", n, r])
            sample_weight_values([drawn], scheme)
            assert drawn.generator.random() == derive_stream(251, ["mb", n, r]).generator.random()
        reused = np.full((5, m), np.nan)
        assert sample_weight_values(streams, scheme, out=reused) is reused
        self.assert_bits(reused, values)

    @staticmethod
    def pattern(bits):
        """A stream stand-in whose generator draws the 0/1 base pattern `bits`:
        as ``integers(0, 2, size=n)`` for the full sampler, and as its
        count for ``binomial``."""
        bits = np.asarray(bits)
        return SimpleNamespace(generator=SimpleNamespace(
            integers=lambda low, high, size: bits.copy(),
            binomial=lambda n, p: int(bits.sum()),
        ))

    @pytest.mark.parametrize("n, m", [(40, 8), (7, 3), (2, 1), (10**4, 2000)])
    def test_rademacher_row_is_the_sorted_full_row(self, n, m):
        # at the same count K, bit for bit the full row sorted from its K
        # (largest) weights of +1 draws down, for real patterns and the extremes
        scheme = WeightScheme("gaussian", n=n, m=m, base="rademacher")
        patterns = [derive_stream(257, [n, r]).generator.integers(0, 2, size=n) for r in range(6)]
        patterns += [np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)]
        for bits in patterns:
            [full] = sample_gaussian_structured_weights([self.pattern(bits)], scheme)
            [values] = sample_weight_values([self.pattern(bits)], scheme)
            self.assert_bits(values, np.sort(full)[::-1])
        streams = [derive_stream(257, ["real", r]) for r in range(3)]
        for row in sample_weight_values(streams, scheme):
            assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rademacher_count_is_binomial(self):
        # K ~ Binomial(n, 1/2): its mean n/2 and variance n/4, each within 4
        # batch-means SE; K is the count of weights above 1/n (all n sit at
        # 1/n when K = n, at probability 2^-40 here)
        n, reps, batches = self.N, 40_000, 80
        scheme = WeightScheme("gaussian", n=n, m=self.M, base="rademacher")
        values = sample_weight_values(derive_stream(263, ["k"]).children("rep", stop=reps),
                                      scheme)
        k = np.sum(values > 1.0 / n, axis=1)
        per_rep = np.stack([k, (k - n / 2) ** 2]).reshape(2, batches, -1).mean(axis=2)
        (mean, var), (mean_se, var_se) = mean_with_se(per_rep, axis=1)
        assert abs(mean - n / 2) <= 4 * mean_se
        assert abs(var - n / 4) <= 4 * var_se

    @pytest.mark.parametrize("spec", [{"kind": "gaussian"}, {"kind": "gaussian", "base": "uniform"},
                                      {"kind": "dirichlet"}],
                             ids=lambda spec: "-".join(spec.values()))
    def test_other_laws_are_the_full_rows(self, spec):
        scheme = WeightScheme(n=self.N, m=self.M, **spec)
        streams = [derive_stream(269, [scheme.label, r]) for r in range(4)]
        self.assert_bits(sample_weight_values(streams, scheme),
                         sample_weights([derive_stream(269, [scheme.label, r]) for r in range(4)],
                                        scheme))


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
        # any change to how the subset is drawn from the stream changes this
        # subset and every minibatch artifact with it
        scheme = WeightScheme("minibatch", n=50, m=8)
        w = sample_minibatch_weights([derive_stream(20260808, ["subset"])], scheme)[0]
        assert np.flatnonzero(w).tolist() == [1, 19, 30, 33, 35, 42, 43, 49]

    @pytest.mark.parametrize("n, m", [(6, 3), (6, 1), (5, 2), (6, 5)])
    def test_every_subset_equally_likely(self, n, m):
        # each of the C(n, m) subsets has probability 1/C(n, m); its count over
        # `draws` rows is Binomial(draws, 1/C(n, m)), held to 5 of its SDs
        draws, p = 20000, 1 / math.comb(n, m)
        scheme = WeightScheme("minibatch", n=n, m=m)
        stream = derive_stream(7, ["law", n, m])
        w = sample_minibatch_weights(stream.children("rep", stop=draws), scheme)
        codes = (w > 0) @ (1 << np.arange(n))
        subsets, counts = np.unique(codes, return_counts=True)
        assert len(subsets) == math.comb(n, m)
        assert all(bin(code).count("1") == m for code in subsets.tolist())
        assert np.all(np.abs(counts - draws * p) <= 5 * math.sqrt(draws * p * (1 - p)))

    # numpy draws a subset by Floyd's algorithm up to m = n // 20 and by a
    # partial shuffle of range(n) above it, once n > 10,000; m = 1 and m = n
    # are the shuffle's and the algorithm's ends
    @pytest.mark.parametrize("m", [1, 1000, 1001, 20000])
    def test_subset_structure_at_large_n(self, m):
        # the subset the sampler draws, and the row it writes from it
        n = 20000
        gen = derive_stream(9, ["large", m]).generator
        subset = gen.choice(n, m, replace=False, shuffle=False)
        assert subset.dtype == np.int64
        assert np.unique(subset).size == m
        assert 0 <= subset.min() and subset.max() < n
        scheme = WeightScheme("minibatch", n=n, m=m)
        w = sample_minibatch_weights([derive_stream(9, ["large", m])], scheme)[0]
        np.testing.assert_array_equal(np.flatnonzero(w), np.sort(subset))

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
        # target Var(w_i) = (n-m)/(m n^2) = 4e-8 at n=1e4, m=2000.  Every
        # w_i has mean 1/n, so a row's sum_i (w_i - 1/n)^2 / n is unbiased
        # for it; pooled over 200 rows, held to 4 of its own SEs (about
        # 0.2 % of the target each)
        scheme = WeightScheme("dirichlet", n=10**4, m=2000)
        w = sample_dirichlet_weights(derive_stream(29, ["dvar"]).children("rep", stop=200),
                                     scheme)
        mean, se = mean_with_se(np.mean((w - 1.0 / scheme.n) ** 2, axis=1))
        assert abs(mean - 4.0e-8) <= 4 * se

    def test_all_zero_row_raises_underflow(self, monkeypatch):
        scheme = WeightScheme("dirichlet", n=16, m=4)
        def zeros(stream, shape, size, out):
            out.fill(0.0)
            return out

        monkeypatch.setattr(weights_mod, "sample_gamma", zeros)
        with pytest.raises(ArithmeticError, match="underflow"):
            sample_dirichlet_weights([derive_stream(1, ["u"])], scheme)

    def test_underflow_is_judged_per_row(self, monkeypatch):
        # one all-zero row raises though the block's other rows sum to one
        scheme = WeightScheme("dirichlet", n=16, m=4)
        real = weights_mod.sample_gamma
        calls = {"count": 0}

        def underflow_second_call(stream, shape, size, out):
            calls["count"] += 1
            if calls["count"] == 2:
                out.fill(0.0)
                return out
            return real(stream, shape, size, out=out)

        monkeypatch.setattr(weights_mod, "sample_gamma", underflow_second_call)
        with pytest.raises(ArithmeticError, match="underflow"):
            sample_dirichlet_weights([derive_stream(227, [r]) for r in range(3)], scheme)
        assert calls["count"] == 3

    def test_row_with_one_surviving_variate_is_a_vertex(self, monkeypatch):
        # underflow of all but one variate is a valid draw: that vertex of the simplex
        scheme = WeightScheme("dirichlet", n=16, m=4)

        def one_survivor(stream, shape, size, out):
            out.fill(0.0)
            out[5] = 1e-300
            return out

        monkeypatch.setattr(weights_mod, "sample_gamma", one_survivor)
        w = sample_dirichlet_weights([derive_stream(1, ["v"])], scheme)[0]
        np.testing.assert_array_equal(w, np.eye(16)[5])


def judged_moments(columns):
    """The four statistics weights-moments judges, with their SEs, from
    ``empirical_weight_moments``'s columns: the mean of w_1, the variance of
    w_1 and the covariance of (w_1, w_2) with the large-sample SEs of
    ``covariance_with_se``, and the mean of m * sum(w^2)."""
    first, second, m_sum_sq, _ = columns
    _, cov_se = covariance_with_se(np.column_stack([first, second]))
    return {
        "mean": mean_with_se(first),
        "var": (np.var(first, ddof=1), cov_se[0, 0]),
        "cov": (np.cov(first, second, ddof=1)[0, 1], cov_se[0, 1]),
        "m_sum_sq": mean_with_se(m_sum_sq),
    }


class TestEmpiricalMoments:
    def test_m_sum_sq_is_one_for_minibatch_identically(self):
        scheme = WeightScheme("minibatch", n=400, m=80)
        columns = empirical_weight_moments(scheme, derive_stream(31, ["mss"]), 200)
        mean, se = judged_moments(columns)["m_sum_sq"]
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert se <= 1e-13

    @pytest.mark.parametrize("kind", ["minibatch", "gaussian", "dirichlet"])
    def test_m_sum_sq_near_one_all_schemes(self, kind):
        # E[m sum w^2] = m n (Var + 1/n^2) = (n-m)/n + m/n = 1 for any
        # scheme with the minibatch moment structure
        scheme = WeightScheme(kind, n=800, m=160)
        columns = empirical_weight_moments(scheme, derive_stream(37, [kind]), 2000)
        mean, se = judged_moments(columns)["m_sum_sq"]
        assert abs(mean - 1.0) <= 3 * se + 1e-12

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
        moments = judged_moments(empirical_weight_moments(scheme, derive_stream(43, [kind]), 4000))
        diag, offdiag = sigma_entries(n, m)
        for key, target in (("mean", 1.0 / n), ("var", diag), ("cov", offdiag)):
            estimate, se = moments[key]
            assert abs(estimate - target) <= 4 * se

    @pytest.mark.parametrize("kind", ["minibatch", "gaussian", "dirichlet"])
    def test_coordinates_exchangeable(self, kind):
        # w_1 and (w_1, w_2) stand for every coordinate and pair because the
        # coordinates are exchangeable; checked on the draws of the columns
        n, m, reps = 200, 40, 4000
        scheme = WeightScheme(kind, n=n, m=m)
        w = sample_weights(derive_stream(47, [kind]).children("rep", stop=reps), scheme)
        coord_mean = w.mean(axis=0)
        coord_mean_se = w.std(axis=0) / math.sqrt(reps)
        # means of every coordinate agree pairwise within 3 joint SEs
        for i, j in [(0, 1), (0, n // 2), (1, n - 1), (n // 2, n - 1)]:
            joint = math.hypot(coord_mean_se[i], coord_mean_se[j])
            assert abs(coord_mean[i] - coord_mean[j]) <= 3 * joint
        # variances of the two tracked coordinates agree
        var_first_se = covariance_with_se(w[:, :2])[1][0, 0]
        joint = math.hypot(var_first_se, var_first_se)
        assert abs(np.var(w[:, 0], ddof=1) - np.var(w[:, 1], ddof=1)) <= 3 * joint

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

    @pytest.mark.parametrize("scheme", [
        {"kind": "minibatch"}, {"kind": "gaussian"}, {"kind": "gaussian", "base": "rademacher"},
        {"kind": "gaussian", "base": "uniform"}, {"kind": "dirichlet"},
    ], ids=lambda spec: "-".join(spec.values()))
    def test_sum_column_is_one_up_to_roundoff(self, scheme):
        # every scheme's covariance is singular along the all-ones direction, so
        # sum(w) = 1 but for the rounding of the draw, which the column keeps
        scheme = WeightScheme(n=1000, m=100, **scheme)
        sums = empirical_weight_moments(scheme, derive_stream(67, [scheme.label]), 300)[3]
        np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scheme", [
        {"kind": "minibatch", "n": 30, "m": 6}, {"kind": "gaussian", "n": 30, "m": 6},
        {"kind": "gaussian", "n": 30, "m": 6, "base": "rademacher"},
        {"kind": "gaussian", "n": 30, "m": 6, "base": "uniform"},
        {"kind": "dirichlet", "n": 30, "m": 6}, {"kind": "minibatch", "n": 1, "m": 1},
    ], ids=lambda spec: "-".join(map(str, spec.values())))
    def test_columns_are_the_draws(self, scheme):
        # row r of one sample_weights block on the same streams gives column r:
        # w_1, w_2 (w_1 again at n = 1), m * sum(w^2) and sum(w), reduced as the row
        # alone; sum(w) is taken before the square, which leaves the first three as drawn
        scheme = WeightScheme(**scheme)
        stream = derive_stream(61, [scheme.label, scheme.n])
        columns = empirical_weight_moments(scheme, stream, 250)
        w = sample_weights(stream.children("rep", stop=250), scheme)
        np.testing.assert_array_equal(columns[0], w[:, 0])
        np.testing.assert_array_equal(columns[1], w[:, min(1, scheme.n - 1)])
        np.testing.assert_array_equal(columns[2], [scheme.m * np.sum(row * row) for row in w])
        np.testing.assert_array_equal(columns[3], [np.sum(row) for row in w])

    @pytest.mark.parametrize("kind", ["minibatch", "gaussian", "dirichlet"])
    def test_chunk_size_leaves_columns_unchanged(self, monkeypatch, kind):
        # the default (all 250 replications in one block), then blocks of 1 and 7;
        # every column, sum(w) included
        scheme = WeightScheme(kind, n=30, m=6)
        runs = []
        for elements in (dynamics_mod.CHUNK_ELEMENTS, 1, 7 * 30):
            monkeypatch.setattr(dynamics_mod, "CHUNK_ELEMENTS", elements)
            runs.append(empirical_weight_moments(scheme, derive_stream(59, [kind]), 250))
        for columns in runs[1:]:
            np.testing.assert_array_equal(columns, runs[0])


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
