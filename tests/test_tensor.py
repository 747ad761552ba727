import numpy as np
import pytest

from cfmw_kit.tensor import SeededRng, randn, sigmoid, silu, softplus


class TestSeededRng:
    def test_same_seed_bit_identical(self):
        a = SeededRng(1234)
        b = SeededRng(1234)
        assert np.array_equal(a.normal(1000), b.normal(1000))
        assert np.array_equal(a.uniform(1000), b.uniform(1000))

    def test_different_seeds_differ(self):
        assert not np.array_equal(SeededRng(1).normal(64), SeededRng(2).normal(64))

    def test_counter_based_stream_is_positional(self):
        # Drawing in two chunks must equal drawing once.
        a = SeededRng(99)
        chunked = np.concatenate([a.uniform(10), a.uniform(22)])
        assert np.array_equal(chunked, SeededRng(99).uniform(32))

    def test_uniform_ranges(self):
        r = SeededRng(5)
        u = r.uniform(10000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_normal_moments(self):
        # Bands sized from the standard errors at n = 10000.
        sample = randn([10000], SeededRng(2024))
        assert abs(sample.mean()) < 0.05
        assert abs(sample.var() - 1.0) < 0.1

    def test_normal_second_seed_moments(self):
        sample = randn([10000], SeededRng(7))
        assert abs(sample.mean()) < 0.05
        assert abs(sample.var() - 1.0) < 0.1

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 16, 256, 786_432])
    def test_normal_keeps_the_two_draw_stream(self, n):
        # Box-Muller over m radius uniforms in (0, 1], then m angle uniforms.
        # A uniform k * 2**-53 plus 2**-53 is the exact radius (k + 1) * 2**-53.
        two, one = SeededRng(31), SeededRng(31)
        two.uniform(3)
        one.uniform(3)
        m = (n + 1) // 2
        r = np.sqrt(-2.0 * np.log(two.uniform(m) + 2.0 ** -53))
        theta = (2.0 * np.pi) * two.uniform(m)
        want = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1).reshape(-1)[:n]
        got = one.normal(n)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert one.words_consumed == two.words_consumed == 3 + 2 * m
        assert one.uniform(5).tobytes() == two.uniform(5).tobytes()

    @pytest.mark.parametrize("shape", [[], [2, 0], [-1]])
    def test_randn_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError):
            randn(shape, SeededRng(1))


class TestElementwise:
    def test_silu_zero(self):
        assert silu(np.array(0.0)) == 0.0

    def test_sigmoid_zero(self):
        assert sigmoid(np.array(0.0)) == 0.5

    @pytest.mark.filterwarnings("error")
    def test_sigmoid_bits_match_the_masked_form(self):
        z = np.concatenate([randn([4096], SeededRng(7)) * 30.0, randn([4096], SeededRng(9)) * 50.0,
                            [np.inf, -np.inf, 0.0, -0.0, np.nan, 1e-300, -1e-300, 800.0, -800.0]])
        want = np.empty_like(z)
        pos = z >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        e = np.exp(z[~pos])
        want[~pos] = e / (1.0 + e)
        assert np.array_equal(sigmoid(z), want, equal_nan=True)
        # and the numerator np.maximum(e, t >= 0) keeps the bits of np.where(t >= 0, 1, e)
        e = np.exp(-np.abs(z))
        assert sigmoid(z).tobytes() == (np.where(z >= 0, 1.0, e) / (1.0 + e)).tobytes()

    def test_silu_matches_definition(self):
        z = randn([100], SeededRng(6))
        assert np.allclose(silu(z), z * sigmoid(z), rtol=0, atol=0)

    def test_softplus_positive(self):
        z = randn([100], SeededRng(8)) * 20
        assert np.all(softplus(z) > 0.0)
