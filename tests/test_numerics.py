"""Stream derivation, normal/gamma sampling, finite differences."""

import numpy as np
import pytest

from msgdlab.numerics import _encode_path, derive_stream, sample_gamma
from msgdlab.stats import ks_normality
from oracles import finite_diff_gradient, gamma_boost


class TestStreamDerivation:
    def test_same_address_same_bits(self):
        a = derive_stream(42, ["a"]).generator.standard_normal(1000)
        b = derive_stream(42, ["a"]).generator.standard_normal(1000)
        np.testing.assert_array_equal(a, b)

    def test_sibling_streams_uncorrelated(self):
        # recorded pilot: r = -0.00474 for this seed pair
        a = derive_stream(42, ["a"]).generator.standard_normal(10**4)
        b = derive_stream(42, ["b"]).generator.standard_normal(10**4)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.05

    def test_different_seeds_differ(self):
        a = derive_stream(42, ["a"]).generator.standard_normal(100)
        b = derive_stream(43, ["a"]).generator.standard_normal(100)
        assert not np.array_equal(a, b)

    def test_int_and_str_labels_are_distinct(self):
        a = derive_stream(1, [5]).generator.standard_normal(100)
        b = derive_stream(1, ["5"]).generator.standard_normal(100)
        assert not np.array_equal(a, b)

    def test_child_matches_full_path(self):
        via_child = derive_stream(9, ["rep"]).child(3, "weights")
        direct = derive_stream(9, ["rep", 3, "weights"])
        np.testing.assert_array_equal(
            via_child.generator.standard_normal(50), direct.generator.standard_normal(50)
        )

    def test_handle_is_immutable(self):
        stream = derive_stream(5, ["x"])
        with pytest.raises(AttributeError):
            stream.path = ("y",)

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "7"])
    def test_bad_seed_rejected(self, bad):
        with pytest.raises((ValueError, TypeError)):
            derive_stream(bad, ["a"])

    @pytest.mark.parametrize("bad_label", [-3, 2.5, None, True])
    def test_bad_path_label_rejected(self, bad_label):
        with pytest.raises((ValueError, TypeError)):
            derive_stream(1, [bad_label])


class TestStdNormal:
    def test_moments(self):
        draws = derive_stream(42, ["moments"]).generator.standard_normal(10**5)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.02

    def test_single_draw_reproducible(self):
        stream = derive_stream(11, ["one"])
        value = stream.generator.standard_normal(1)
        again = derive_stream(11, ["one"]).generator.standard_normal(1)
        np.testing.assert_array_equal(value, again)

    def test_ks_against_normal_cdf(self):
        # asymptotic 1% critical value for 1e4 samples is ~0.0163
        draws = derive_stream(42, ["ks"]).generator.standard_normal(10**4)
        stat = ks_normality(draws, 1.0)
        assert stat <= 0.02


class TestGamma:
    def test_unit_shape_is_exponential(self):
        draws = sample_gamma(derive_stream(7, ["g1"]), 1.0, size=10**5)
        assert abs(draws.mean() - 1.0) < 0.02

    def test_small_shape_mean(self):
        # shape below 1 exercises the boost-identity branch
        shape = 1999 / 8000
        draws = sample_gamma(derive_stream(7, ["gs"]), shape, size=10**5)
        assert abs(draws.mean() - shape) < 0.01

    def test_shape_three_variance(self):
        draws = sample_gamma(derive_stream(7, ["g3"]), 3.0, size=10**5)
        assert abs(draws.var() - 3.0) < 0.15

    @pytest.mark.parametrize("shape", [1999 / 8000, 0.5, 1 / 3, 0.999, 1.0, 3.0])
    def test_draws_the_boost_formulas_bits_into_the_callers_row(self, shape):
        # below shape 1 the boost runs in place; at 0.5 its exponent is 2,
        # which ``**`` sends to a fast path of its own
        def stream():
            return derive_stream(7, ["bits", repr(shape)])

        expected = gamma_boost(stream(), shape, 1000).view(np.uint64)
        np.testing.assert_array_equal(sample_gamma(stream(), shape, 1000).view(np.uint64),
                                      expected)
        row = np.full(1000, np.nan)
        assert sample_gamma(stream(), shape, 1000, out=row) is row
        np.testing.assert_array_equal(row.view(np.uint64), expected)

    @pytest.mark.parametrize("shape", [0.0, -1.0])
    def test_nonpositive_shape_rejected(self, shape):
        with pytest.raises(ValueError):
            sample_gamma(derive_stream(1, []), shape, size=1)


class TestFiniteDiff:
    def test_quadratic_gradient(self):
        grad = finite_diff_gradient(lambda x: 0.5 * float(x @ x), np.array([1.0, 2.0]))
        np.testing.assert_allclose(grad, [1.0, 2.0], atol=1e-6)

    def test_constant_function(self):
        grad = finite_diff_gradient(lambda x: 3.5, np.array([0.3, -0.2, 4.0]))
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_nonfinite_value_is_an_error(self):
        with pytest.raises(ArithmeticError):
            finite_diff_gradient(lambda x: float("nan"), np.array([1.0]))

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda x: 0.0, np.array([1.0]), h=0.0)


def _seed_sequence_draws(seed, path, count=4):
    """The first draws of numpy's own SeedSequence-keyed Philox for an address."""
    seq = np.random.SeedSequence(seed, spawn_key=_encode_path(path))
    return np.random.Generator(np.random.Philox(seq)).random(count)


SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]
PATHS = [(), ("rep",), (7,), (2**32,), (2**40 + 5, "weights"), ("clt", 3, 2**63)]


class TestInModuleDerivation:
    """Batched keys continue numpy's SeedSequence mixing in the module; every
    stream must equal the SeedSequence-keyed Philox of its address."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("path", PATHS)
    def test_stream_equals_seed_sequence(self, seed, path):
        np.testing.assert_array_equal(
            derive_stream(seed, path).generator.random(4), _seed_sequence_draws(seed, path)
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("labels", [(), ("rep",), (3, "msgd")])
    def test_children_equal_child_and_seed_sequence(self, seed, labels):
        parent = derive_stream(seed, ("clt", 2**33))
        # r = 0 and a chunk-sized run
        for stop in [1, 9]:
            streams = parent.children(*labels, stop=stop)
            assert [s.path for s in streams] == [parent.path + labels + (r,) for r in range(stop)]
            for r, stream in enumerate(streams):
                expected = _seed_sequence_draws(seed, parent.path + labels + (r,))
                np.testing.assert_array_equal(stream.generator.random(4), expected)
                np.testing.assert_array_equal(
                    parent.child(*labels, r).generator.random(4), expected
                )

    @pytest.mark.parametrize("size", [1, 3, 10, 11])
    def test_child_chunks_cover_children(self, size):
        parent = derive_stream(20260808, ("weights-moments", "minibatch"))
        chunks = list(parent.child_chunks("rep", stop=10, size=size))
        assert [start for start, _ in chunks] == list(range(0, 10, size))
        assert all(len(streams) == min(size, 10 - start) for start, streams in chunks)
        drawn = np.array([s.generator.random(2) for _, streams in chunks for s in streams])
        reference = np.array([s.generator.random(2) for s in parent.children("rep", stop=10)])
        np.testing.assert_array_equal(drawn, reference)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_children_of_the_empty_path(self, seed):
        # no spawn-key words before r: the seed words mix unpadded, the same pool
        streams = derive_stream(seed).children(stop=3)
        for r, stream in enumerate(streams):
            np.testing.assert_array_equal(
                stream.generator.random(4), _seed_sequence_draws(seed, (r,))
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_children_after_mixed_width_labels(self, seed):
        # strings and ints of one and two 32-bit words on both sides of 2**32
        parent = derive_stream(seed, ("clt", 2**32 - 1, "rep", 2**32, 5))
        for labels in [(), ("msgd", 2**32 + 7), (2**63, "x", 0)]:
            for r, stream in enumerate(parent.children(*labels, stop=4)):
                np.testing.assert_array_equal(
                    stream.generator.random(4),
                    _seed_sequence_draws(seed, parent.path + labels + (r,)),
                )

    def test_children_of_a_child_built_in_batch(self):
        # a stream from children() derives its own children on demand
        batched = derive_stream(5, ["a"]).children("rep", stop=4)[3]
        np.testing.assert_array_equal(
            batched.child("weights", 2**62).generator.random(3),
            _seed_sequence_draws(5, ("a", "rep", 3, "weights", 2**62), 3),
        )

    def test_empty_and_bad_ranges(self):
        parent = derive_stream(1, ["x"])
        assert parent.children("rep", stop=0) == []
        assert list(parent.child_chunks("rep", stop=0, size=3)) == []
        with pytest.raises(ValueError):
            parent.children("rep", stop=-1)
        # every replication index is one 32-bit word, far above MAX_STEPS
        with pytest.raises(ValueError):
            parent.children("rep", stop=2**32 + 1)
        with pytest.raises(ValueError):
            list(parent.child_chunks("rep", stop=2**32 + 1, size=3))
        with pytest.raises(ValueError):
            list(parent.child_chunks("rep", stop=4, size=0))
