import math
import tracemalloc

import numpy as np
import pytest

from cfmw_kit.ssm import (
    ZOH_SERIES_EPS,
    ContinuousSsm,
    DiscreteSsm,
    OpCounter,
    SelectiveSsmParams,
    Ss2dParams,
    apply_kernel,
    discretize,
    kernel,
    scan,
    scan_mac_count,
    selective_scan,
    selective_scan_input_grad,
    selective_scan_mac_count,
    softplus_inverse,
    ss2d,
    ss2d_mac_count,
    _selective_forward,
)
from cfmw_kit.tensor import SeededRng, softplus


def simpson(f, a, b, n=2048):
    """Composite Simpson quadrature; n must be even."""
    xs = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (b - a) / n / 3.0 * float(w @ f(xs))


class TestDiscretize:
    def test_zero_evolution_limit(self):
        m = ContinuousSsm(a=[0.0, 0.0], b=[1.5, -2.0], c=[1.0, 1.0])
        for delta in (0.5, 1.0, 2.0):
            d = discretize(m, delta)
            assert np.array_equal(d.a_bar, [1.0, 1.0])
            assert np.allclose(d.b_bar, delta * m.b, rtol=0, atol=0)

    def test_hand_case(self):
        # a = -1, delta = ln 2, b = 1: a_bar = 1/2 and b_bar = 1/2.
        d = discretize(ContinuousSsm(a=[-1.0], b=[1.0], c=[1.0]), math.log(2.0))
        assert abs(d.a_bar[0] - 0.5) < 1e-15
        assert abs(d.b_bar[0] - 0.5) < 1e-15

    def test_quadrature_oracle(self):
        # b_bar equals the integral of exp(a s) b over one hold interval.
        d = discretize(ContinuousSsm(a=[-2.0], b=[3.0], c=[1.0]), 0.1)
        expected = simpson(lambda s: np.exp(-2.0 * s) * 3.0, 0.0, 0.1)
        assert abs(d.b_bar[0] - expected) < 1e-12

    def test_quadrature_oracle_random_sweep(self):
        rng = SeededRng(41)
        for _ in range(25):
            a = -(0.05 + 4.0 * rng.uniform(1)[0])
            b = float(rng.normal(1)[0])
            delta = 0.02 + rng.uniform(1)[0]
            d = discretize(ContinuousSsm(a=[a], b=[b], c=[1.0]), delta)
            expected = simpson(lambda s: np.exp(a * s) * b, 0.0, delta, n=4096)
            assert abs(d.b_bar[0] - expected) < 1e-12

    def test_first_order_limit_bounds(self):
        rng = SeededRng(42)
        for _ in range(100):
            m = ContinuousSsm.random(4, rng)
            for delta in (1e-3, 1e-4, 1e-5):
                d = discretize(m, delta)
                za = delta * m.a
                assert np.all(np.abs(d.a_bar - (1.0 + za)) <= 2.0 * za ** 2)
                assert np.all(np.abs(d.b_bar - delta * m.b)
                              <= np.abs(za * delta * m.b) + 1e-300)

    def test_rejects_nonpositive_delta(self):
        m = ContinuousSsm(a=[-1.0], b=[1.0], c=[1.0])
        for delta in (0.0, -0.5):
            with pytest.raises(ValueError):
                discretize(m, delta)

    def test_discrete_construction_checks(self):
        with pytest.raises(ValueError):
            DiscreteSsm(a_bar=[-0.5], b_bar=[1.0], c=[1.0], delta=0.1)
        with pytest.raises(ValueError):
            DiscreteSsm(a_bar=[0.5], b_bar=[1.0], c=[1.0], delta=0.0)


class TestScanAndKernel:
    def test_zero_input_zero_output(self):
        d = discretize(ContinuousSsm.random(3, SeededRng(1)), 0.2)
        assert np.all(scan(d, np.zeros(16)) == 0.0)

    def test_single_step_unrolled(self):
        d = discretize(ContinuousSsm.random(5, SeededRng(2)), 0.4)
        x1 = 1.7
        assert abs(scan(d, [x1])[0] - float((d.c * d.b_bar).sum() * x1)) < 1e-15

    def test_kernel_constant_taps(self):
        d = DiscreteSsm(a_bar=[1.0], b_bar=[1.0], c=[1.0], delta=1.0)
        assert np.array_equal(kernel(d, 5), np.ones(5))

    def test_kernel_hand_case(self):
        d = DiscreteSsm(a_bar=[0.5], b_bar=[2.0], c=[1.0], delta=1.0)
        assert np.array_equal(kernel(d, 3), [2.0, 1.0, 0.5])

    def test_kernel_tap_count(self):
        d = discretize(ContinuousSsm.random(2, SeededRng(3)), 0.3)
        for length in (1, 7, 64):
            assert kernel(d, length).shape == (length,)

    def test_apply_kernel_identity(self):
        x = SeededRng(4).normal(10)
        taps = np.zeros(10)
        taps[0] = 1.0
        assert np.array_equal(apply_kernel(x, taps), x)

    def test_impulse_response_is_kernel(self):
        d = discretize(ContinuousSsm.random(4, SeededRng(5)), 0.5)
        taps = kernel(d, 12)
        impulse = np.zeros(12)
        impulse[0] = 1.0
        assert np.allclose(apply_kernel(impulse, taps), taps, rtol=0, atol=1e-15)

    def test_scan_equals_kernel_convolution(self):
        rng = SeededRng(6)
        for _ in range(200):
            n = 1 + int(rng.uniform(1)[0] * 8)
            length = 1 + int(rng.uniform(1)[0] * 64)
            d = discretize(ContinuousSsm.random(n, rng), 0.05 + rng.uniform(1)[0])
            x = rng.normal(length)
            via_scan = scan(d, x)
            via_conv = apply_kernel(x, kernel(d, length))
            assert np.abs(via_scan - via_conv).max() < 1e-10

    def test_scan_linearity(self):
        rng = SeededRng(7)
        d = discretize(ContinuousSsm.random(6, rng), 0.3)
        x1 = rng.normal(40)
        x2 = rng.normal(40)
        a, b = 0.75, -1.25
        lhs = scan(d, a * x1 + b * x2)
        rhs = a * scan(d, x1) + b * scan(d, x2)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_scan_causality(self):
        rng = SeededRng(8)
        d = discretize(ContinuousSsm.random(4, rng), 0.2)
        x = rng.normal(20)
        base = scan(d, x)
        bumped = x.copy()
        bumped[12] += 10.0
        assert np.array_equal(scan(d, bumped)[:12], base[:12])

    def test_rejects_empty_sequence(self):
        d = discretize(ContinuousSsm.random(2, SeededRng(9)), 0.2)
        with pytest.raises(ValueError):
            scan(d, np.empty(0))
        with pytest.raises(ValueError):
            apply_kernel(np.ones(3), np.ones(4))


class TestSelectiveScan:
    def test_zero_input_zero_output(self):
        p = SelectiveSsmParams.random(3, 4, SeededRng(10))
        assert np.all(selective_scan(np.zeros((12, 3)), p) == 0.0)

    def test_frozen_params_reduce_to_scan(self):
        rng = SeededRng(11)
        for _ in range(50):
            n = 1 + int(rng.uniform(1)[0] * 6)
            d_ch = 1 + int(rng.uniform(1)[0] * 3)
            length = 1 + int(rng.uniform(1)[0] * 24)
            m = ContinuousSsm.random(n, rng)
            delta = 0.05 + rng.uniform(1)[0]
            p = SelectiveSsmParams.frozen(m, d_ch, delta)
            x = rng.normal(length * d_ch).reshape(length, d_ch)
            got = selective_scan(x, p)
            d = discretize(m, delta)
            for ch in range(d_ch):
                assert np.abs(got[:, ch] - scan(d, x[:, ch])).max() < 1e-10

    def test_single_step_formula(self):
        rng = SeededRng(12)
        p = SelectiveSsmParams.random(2, 3, rng)
        x = rng.normal(2).reshape(1, 2)
        got = selective_scan(x, p)[0]
        s = p.w_delta @ x[0] + p.u_delta
        delta = softplus(s)
        b1 = p.w_b @ x[0] + p.u_b
        c1 = p.w_c @ x[0] + p.u_c
        for d in range(2):
            z = delta[d] * p.a[d]
            phi = np.where(np.abs(z) < 1e-8, 1.0, np.expm1(z) / np.where(z == 0, 1, z))
            b_bar = phi * delta[d] * b1
            expected = float((c1 * b_bar).sum() * x[0, d])
            assert abs(got[d] - expected) < 1e-12

    def test_softplus_inverse_round_trip(self):
        for y in (0.01, 0.5, 3.0, 40.0):
            assert abs(float(softplus(np.array(softplus_inverse(y)))) - y) < 1e-12

    def test_gradient_matches_central_differences(self):
        rng = SeededRng(13)
        for _ in range(6):
            n = 1 + int(rng.uniform(1)[0] * 4)
            d_ch = 1 + int(rng.uniform(1)[0] * 2)
            length = 2 + int(rng.uniform(1)[0] * 7)
            p = SelectiveSsmParams.random(d_ch, n, rng)
            x = rng.normal(length * d_ch).reshape(length, d_ch) * 0.7
            grad = selective_scan_input_grad(x, p)
            step = 1e-5
            fd = np.empty_like(grad)
            for i in range(length):
                for j in range(d_ch):
                    xp = x.copy()
                    xp[i, j] += step
                    xm = x.copy()
                    xm[i, j] -= step
                    fd[i, j] = (selective_scan(xp, p).sum()
                                - selective_scan(xm, p).sum()) / (2 * step)
            scale = max(1.0, float(np.abs(grad).max()))
            assert np.abs(grad - fd).max() / scale < 1e-5

    def test_shape_mismatch(self):
        p = SelectiveSsmParams.random(3, 2, SeededRng(14))
        with pytest.raises(ValueError):
            selective_scan(np.zeros((4, 2)), p)

    def test_rejects_non_negative_evolution(self):
        p = SelectiveSsmParams.random(2, 3, SeededRng(27))
        for bad in (0.0, 0.5):
            a = p.a.copy()
            a[1, 2] = bad
            with pytest.raises(ValueError, match="^a must be strictly negative"):
                SelectiveSsmParams(**{**p.to_tensors(), "a": a})

    @pytest.mark.parametrize("d_ch, n", [(0, 3), (2, 0)])
    def test_rejects_zero_extent_evolution(self, d_ch, n):
        p = SelectiveSsmParams.random(2, 3, SeededRng(28))
        with pytest.raises(ValueError, match="nonempty"):
            SelectiveSsmParams(**{**p.to_tensors(), "a": np.full((d_ch, n), -1.0)})


def _assert_matches_reference(x, p):
    want = _selective_forward(x, p)[0]
    got = selective_scan(x, p)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


class TestFastScanOracle:
    """The two-level selective scan against the per-token reference loop."""

    @pytest.mark.parametrize("length", [1, 2, 3, 15, 16, 17, 63, 64, 65, 1000, 4099])
    def test_matches_reference_loop(self, length):
        rng = SeededRng(30 + length)
        for d_ch, n in ((1, 1), (3, 2), (8, 5)):
            p = SelectiveSsmParams.random(d_ch, n, rng)
            _assert_matches_reference(rng.normal(length * d_ch).reshape(length, d_ch), p)

    def test_vanishing_steps_inside_fast_path(self):
        # Channel 1's step is exp(-40), so |z| < ZOH_SERIES_EPS there;
        # channel 2's step underflows to 0, so z is exactly zero. Channels 3
        # and 4 sit at tiny |a|, where the reference takes its series branch
        # and the fast scan divides by a.
        rng = SeededRng(31)
        p = SelectiveSsmParams.random(6, 3, rng)
        w_delta = p.w_delta.copy()
        w_delta[1:3] = 0.0
        u_delta = p.u_delta.copy()
        u_delta[1] = -40.0
        u_delta[2] = -800.0
        a = p.a.copy()
        a[3] = -1e-300
        a[4] = -1e-200
        p = SelectiveSsmParams(**{**p.to_tensors(), "w_delta": w_delta,
                                  "u_delta": u_delta, "a": a})
        x = rng.normal(65 * 6).reshape(65, 6) * 10.0
        z = _selective_forward(x, p)[5]
        small = np.abs(z) < ZOH_SERIES_EPS
        assert small[:, 1:5].all() and not small[:, [0, 5]].all()
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            _assert_matches_reference(x, p)

    def test_evolution_floor(self):
        rng = SeededRng(32)
        p = SelectiveSsmParams.random(2, 3, rng)
        a = p.a.copy()
        a[1, 1] = -1e-301
        with pytest.raises(ValueError, match="^a must be strictly negative.*-1e-300"):
            SelectiveSsmParams(**{**p.to_tensors(), "a": a})
        a[1, 1] = -1e-300
        p = SelectiveSsmParams(**{**p.to_tensors(), "a": a})
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            _assert_matches_reference(rng.normal(40 * 2).reshape(40, 2) * 10.0, p)

    def test_overflowing_decay_exponent(self):
        # Row 1's a is -1e307, so a times the in-chunk sum of delta overflows
        # to -inf well inside a 128-step chunk; the decay it stands for is 0.
        rng = SeededRng(33)
        p = SelectiveSsmParams.random(3, 2, rng)
        a = p.a.copy()
        a[1] = -1e307
        p = SelectiveSsmParams(**{**p.to_tensors(), "a": a})
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            _assert_matches_reference(rng.normal(4099 * 3).reshape(4099, 3), p)


class TestScanMemory:
    @pytest.mark.parametrize("length, d_ch, n", [(8192, 32, 16), (16384, 8, 32)])
    def test_no_length_by_channels_by_states_buffer(self, length, d_ch, n):
        rng = SeededRng(34)
        p = SelectiveSsmParams.random(d_ch, n, rng)
        x = rng.normal(length * d_ch).reshape(length, d_ch)
        tracemalloc.start()
        try:
            selective_scan(x, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Below 3/4 of one float64 (L, D, N) array, so a scan that holds one fails.
        assert peak < 0.75 * length * d_ch * n * 8


class TestOpCounts:
    def test_scan_counter_matches_formula(self):
        rng = SeededRng(15)
        for n, length in ((1, 1), (3, 7), (8, 64)):
            d = discretize(ContinuousSsm.random(n, rng), 0.2)
            counter = OpCounter()
            scan(d, rng.normal(length), counter)
            assert counter.macs == scan_mac_count(length, n)

    def test_selective_counter_matches_formula(self):
        rng = SeededRng(16)
        for d_ch, n, length in ((1, 1, 1), (2, 3, 5), (4, 8, 16)):
            p = SelectiveSsmParams.random(d_ch, n, rng)
            counter = OpCounter()
            selective_scan(rng.normal(length * d_ch).reshape(length, d_ch), p, counter)
            assert counter.macs == selective_scan_mac_count(length, d_ch, n)

    def test_counts_scale_linearly_in_length(self):
        base = selective_scan_mac_count(10, 3, 4)
        assert selective_scan_mac_count(20, 3, 4) == 2 * base
        assert selective_scan_mac_count(50, 3, 4) == 5 * base
        assert scan_mac_count(64, 5) == 64 * scan_mac_count(1, 5)

    def test_ss2d_counter_matches_formula(self):
        rng = SeededRng(17)
        p = Ss2dParams.random(3, 2, rng)
        counter = OpCounter()
        ss2d(rng.normal(4 * 5 * 3).reshape(4, 5, 3), p, counter)
        assert counter.macs == ss2d_mac_count(4, 5, 3, 2)


class TestSs2d:
    def test_zero_map(self):
        p = Ss2dParams.random(2, 3, SeededRng(18))
        assert np.all(ss2d(np.zeros((3, 4, 2)), p) == 0.0)

    def test_single_cell_equals_sum_of_four(self):
        rng = SeededRng(19)
        p = Ss2dParams.random(3, 2, rng)
        token = rng.normal(3).reshape(1, 1, 3)
        got = ss2d(token, p)
        expected = sum(selective_scan(token.reshape(1, 3), q)
                       for q in (p.row_fwd, p.row_bwd, p.col_fwd, p.col_bwd))
        assert np.abs(got.reshape(3) - expected.reshape(3)).max() < 1e-14

    def test_transpose_symmetry(self):
        # Transposing the map and swapping row-direction with column-direction
        # parameters transposes the output.
        rng = SeededRng(20)
        p = Ss2dParams.random(2, 3, rng)
        swapped = Ss2dParams(row_fwd=p.col_fwd, row_bwd=p.col_bwd,
                             col_fwd=p.row_fwd, col_bwd=p.row_bwd)
        fmap = rng.normal(3 * 3 * 2).reshape(3, 3, 2)
        direct = ss2d(fmap, p)
        via_transpose = ss2d(fmap.transpose(1, 0, 2), swapped).transpose(1, 0, 2)
        assert np.array_equal(direct, via_transpose)

    def test_channel_mismatch(self):
        p = Ss2dParams.random(2, 2, SeededRng(21))
        with pytest.raises(ValueError):
            ss2d(np.zeros((2, 2, 3)), p)

    def test_direction_params_must_agree(self):
        rng = SeededRng(22)
        with pytest.raises(ValueError):
            Ss2dParams(row_fwd=SelectiveSsmParams.random(2, 2, rng),
                       row_bwd=SelectiveSsmParams.random(2, 2, rng),
                       col_fwd=SelectiveSsmParams.random(2, 3, rng),
                       col_bwd=SelectiveSsmParams.random(2, 2, rng))


class TestParamsSerialization:
    def test_selective_round_trip(self):
        p = SelectiveSsmParams.random(3, 4, SeededRng(23))
        q = SelectiveSsmParams.from_tensors(p.to_tensors())
        for name, arr in p.to_tensors().items():
            assert np.array_equal(arr, q.to_tensors()[name])

    def test_ss2d_round_trip(self):
        rng = SeededRng(24)
        p = Ss2dParams.random(2, 3, rng)
        q = Ss2dParams.from_tensors(p.to_tensors())
        x = rng.normal(2 * 3 * 2).reshape(2, 3, 2)
        assert np.array_equal(ss2d(x, p), ss2d(x, q))
