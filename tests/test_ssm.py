import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cfmw_kit.ssm import (
    ContinuousSsm,
    DiscreteSsm,
    OpCounter,
    SelectiveSsmParams,
    Ss2dParams,
    apply_kernel,
    discretize,
    kernel,
    scan,
    selective_scan,
    selective_scan_input_grad,
    selective_scan_mac_count,
    softplus_inverse,
    ss2d,
    ss2d_mac_count,
    _block_steps,
    _selective_forward,
    _zoh_phi,
)
from cfmw_kit.fusion import FusionBlockParams, Mlp3
from cfmw_kit.tensor import SeededRng, softplus
from cfmw_kit.tensor_io import load_params, read_manifest, save_params


def simpson(f, a, b, n=2048):
    """Composite Simpson quadrature; n must be even."""
    xs = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (b - a) / n / 3.0 * float(w @ f(xs))


class TestDiscretize:
    def test_zero_evolution_limit(self):
        # b_bar = delta * b exactly where delta * a is 0: state 0 has a = 0, and
        # state 1's delta * a underflows to 0 at delta = 1e-30.
        m = ContinuousSsm(a=[0.0, -1e-300], b=[1.5, -2.0], c=[1.0, 1.0])
        assert 1e-30 * m.a[1] == 0.0
        for delta in (1e-30, 0.5, 1.0, 2.0):
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

    def test_zoh_factor_within_one_ulp(self):
        # Against the series sum_k z^k / (k + 1)!, summed exactly and rounded
        # once; near z = -9.9e-9, taking the limit 1 would be 4.5e7 ulps off.
        zs = np.geomspace(1e-12, 0.3, 200)
        zs = np.concatenate([zs, -zs, [-9.9e-9, 0.0, -0.0, -5e-324, -1e-300]])
        want = np.array([float(sum(Fraction(z) ** k / math.factorial(k + 1) for k in range(30)))
                         for z in zs])
        assert np.all(np.abs(_zoh_phi(zs) - want) <= np.spacing(want))

    def test_rejects_nonpositive_delta(self):
        m = ContinuousSsm(a=[-1.0], b=[1.0], c=[1.0])
        for delta in (0.0, -0.5):
            with pytest.raises(ValueError):
                discretize(m, delta)

    def test_discrete_construction_checks(self):
        with pytest.raises(ValueError):
            DiscreteSsm(a_bar=[-0.5], b_bar=[1.0], c=[1.0])


class TestScanAndKernel:
    def test_zero_input_zero_output(self):
        d = discretize(ContinuousSsm.random(3, SeededRng(1)), 0.2)
        assert np.all(scan(d, np.zeros(16)) == 0.0)

    def test_single_step_unrolled(self):
        d = discretize(ContinuousSsm.random(5, SeededRng(2)), 0.4)
        x1 = 1.7
        assert abs(scan(d, [x1])[0] - float((d.c * d.b_bar).sum() * x1)) < 1e-15

    def test_kernel_constant_taps(self):
        d = DiscreteSsm(a_bar=[1.0], b_bar=[1.0], c=[1.0])
        assert np.array_equal(kernel(d, 5), np.ones(5))

    def test_kernel_hand_case(self):
        d = DiscreteSsm(a_bar=[0.5], b_bar=[2.0], c=[1.0])
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


@pytest.mark.parametrize("name, call", [
    ("scan", lambda: scan(discretize(ContinuousSsm.random(2, SeededRng(9)), 0.2), np.zeros(0))),
    ("apply_kernel", lambda: apply_kernel(np.zeros(0), np.zeros(0))),
    ("selective_scan",
     lambda: selective_scan(np.zeros((0, 2)), SelectiveSsmParams.random(2, 3, SeededRng(9)))),
    ("selective_scan_input_grad", lambda: selective_scan_input_grad(
        np.zeros((0, 2)), SelectiveSsmParams.random(2, 3, SeededRng(9)))),
    ("ss2d", lambda: ss2d(np.zeros((0, 3, 2)), Ss2dParams.random(2, 3, SeededRng(9)))),
    ("ss2d", lambda: ss2d(np.zeros((3, 0, 2)), Ss2dParams.random(2, 3, SeededRng(9)))),
], ids=["scan", "apply_kernel", "selective_scan", "selective_scan_input_grad",
        "ss2d-no-rows", "ss2d-no-columns"])
def test_empty_sequence_axis_refused_by_name(name, call):
    with pytest.raises(ValueError, match=rf"^({name}|x)\b.*nonempty"):
        call()


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

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_input_refused(self, bad):
        # ss2d (and so fuse) runs every direction through selective_scan.
        rng = SeededRng(29)
        x = np.zeros((6, 2))
        x[4, 1] = bad
        with pytest.raises(ValueError, match="^x contains non-finite"):
            selective_scan(x, SelectiveSsmParams.random(2, 3, rng))
        with pytest.raises(ValueError, match="^x contains non-finite"):
            ss2d(x.reshape(2, 3, 2), Ss2dParams.random(2, 3, rng))

    def test_rejects_non_negative_evolution(self):
        p = SelectiveSsmParams.random(2, 3, SeededRng(27))
        for bad in (0.0, 0.5):
            a = p.a.copy()
            a[1, 2] = bad
            with pytest.raises(ValueError, match="^a must be strictly negative"):
                dataclasses.replace(p, a=a)

    @pytest.mark.parametrize("d_ch, n", [(0, 3), (2, 0)])
    def test_rejects_zero_extent_evolution(self, d_ch, n):
        p = SelectiveSsmParams.random(2, 3, SeededRng(28))
        with pytest.raises(ValueError, match="nonempty"):
            dataclasses.replace(p, a=np.full((d_ch, n), -1.0))


def _assert_matches_reference(x, p):
    want = _selective_forward(x, p)[0]
    got = selective_scan(x, p)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


class TestFastScanOracle:
    """The fast selective scan against the per-token reference loop."""

    @pytest.mark.parametrize("length", [1, 2, 3, 15, 16, 17, 63, 64, 65, 1000, 4099])
    def test_matches_reference_loop(self, length):
        rng = SeededRng(30 + length)
        for d_ch, n in ((1, 1), (3, 2), (8, 5)):
            p = SelectiveSsmParams.random(d_ch, n, rng)
            _assert_matches_reference(rng.normal(length * d_ch).reshape(length, d_ch), p)

    def test_vanishing_steps_inside_fast_path(self):
        # Channel 1's step is exp(-40), so |z| < 1e-8 there; channel 2's step
        # underflows to 0, so z is exactly zero. Channels 3 and 4 sit at tiny
        # |a|, where the fast scan divides by a.
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
        p = dataclasses.replace(p, w_delta=w_delta, u_delta=u_delta, a=a)
        x = rng.normal(65 * 6).reshape(65, 6) * 10.0
        z = _selective_forward(x, p)[5]
        small = np.abs(z) < 1e-8
        assert small[:, 1:5].all() and not small[:, [0, 5]].all()
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            _assert_matches_reference(x, p)

    def test_evolution_floor(self):
        rng = SeededRng(32)
        p = SelectiveSsmParams.random(2, 3, rng)
        a = p.a.copy()
        a[1, 1] = -1e-301
        with pytest.raises(ValueError, match="^a must be strictly negative.*-1e-300"):
            dataclasses.replace(p, a=a)
        a[1, 1] = -1e-300
        p = dataclasses.replace(p, a=a)
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            _assert_matches_reference(rng.normal(40 * 2).reshape(40, 2) * 10.0, p)

    def test_overflowing_decay_exponent(self):
        # Row 1's a is -1e307, so every a_bar on it is 0, the decay that
        # delta * a stands for even where that product overflows to -inf.
        rng = SeededRng(33)
        p = SelectiveSsmParams.random(3, 2, rng)
        a = p.a.copy()
        a[1] = -1e307
        p = dataclasses.replace(p, a=a)
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            _assert_matches_reference(rng.normal(4099 * 3).reshape(4099, 3), p)

    @pytest.mark.parametrize("d_ch, n", [(16, 16), (5, 3)])
    def test_block_boundaries(self, d_ch, n):
        # Lengths around the block length b, where one block hands its state
        # to the next.
        b = _block_steps(1, d_ch, n)
        rng = SeededRng(37)
        p = SelectiveSsmParams.random(d_ch, n, rng)
        for length in sorted({1, max(b - 1, 1), b, b + 1, 3 * b + 5}):
            _assert_matches_reference(rng.normal(length * d_ch).reshape(length, d_ch), p)


class TestOverflow:
    def test_reference_scan_refuses_huge_input_by_name(self):
        m = DiscreteSsm(a_bar=[0.9, 0.5], b_bar=[1.0, 1.0], c=[1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^x is too large: its scan overflows"):
                scan(m, np.full(4, 1.7e308))
            assert np.isfinite(scan(m, np.full(4, 1e300))).all()

    def test_huge_input_refused_by_name(self):
        rng = SeededRng(38)
        x = rng.normal(10 * 3).reshape(10, 3) * 1e150
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^x is too large"):
                selective_scan(x, SelectiveSsmParams.random(3, 4, rng))
            with pytest.raises(ValueError, match="^x is too large"):
                ss2d(x.reshape(2, 5, 3), Ss2dParams.random(3, 4, rng))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_reference_scan_refuses_non_finite_input_by_name(self, bad):
        m = DiscreteSsm(a_bar=[0.9], b_bar=[1.0], c=[1.0])
        with pytest.raises(ValueError, match="^x contains non-finite"):
            scan(m, [0.0, bad])

    # Finite inputs whose step leaves float64: each refused by name, with no
    # NumPy warning and no silent Inf or NaN.
    def test_convolution_overflow_refused_by_name(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^x and taps are too large: their convolution"):
                apply_kernel(np.full(3, 1e200), np.full(3, 1e200))
            with pytest.raises(ValueError, match="^taps contains non-finite"):
                apply_kernel(np.zeros(2), [0.0, math.nan])

    def test_kernel_overflow_refused_by_name(self):
        m = DiscreteSsm(a_bar=[10.0], b_bar=[1.0], c=[1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^m is too large for this length: its kernel"):
                kernel(m, 400)
            assert np.isfinite(kernel(m, 300)).all()

    def test_discretize_overflow_refused_by_name(self):
        m = ContinuousSsm(a=[1.0], b=[1.0], c=[1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^delta is too large: the discretized model"):
                discretize(m, 1000.0)
            assert np.isfinite(discretize(m, 700.0).b_bar).all()

    @pytest.mark.parametrize("y", [math.nan, math.inf])
    def test_softplus_inverse_of_non_finite_refused(self, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^y must be finite"):
                softplus_inverse(y)

    def test_overflowing_decay_exponent_accepted(self):
        # Channel 1 has delta near 40 and a = -1e307, so delta * a overflows
        # to -inf at every step; a_bar = 0 is then the exact decay.
        rng = SeededRng(39)
        p = SelectiveSsmParams.random(3, 2, rng)
        a = p.a.copy()
        a[1] = -1e307
        u_delta = p.u_delta.copy()
        u_delta[1] = 40.0
        p = dataclasses.replace(p, a=a, u_delta=u_delta)
        x = rng.normal(30 * 3).reshape(30, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = selective_scan(x, p)
            fused = ss2d(x.reshape(5, 6, 3), Ss2dParams(p, p, p, p))
        assert np.all(np.isfinite(fused))
        with np.errstate(over="ignore"):
            ref = _selective_forward(x, p)
        want, z = ref[0], ref[5]
        assert np.all(np.isinf(z[:, 1]))
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


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
    def test_counts_scale_linearly_in_length(self):
        base = selective_scan_mac_count(10, 3, 4)
        assert selective_scan_mac_count(20, 3, 4) == 2 * base
        assert selective_scan_mac_count(50, 3, 4) == 5 * base

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

    def test_flip_symmetry(self):
        # Flipping the map in both axes and swapping each forward direction
        # with its backward one flips the output.
        rng = SeededRng(23)
        p = Ss2dParams.random(2, 3, rng)
        swapped = Ss2dParams(row_fwd=p.row_bwd, row_bwd=p.row_fwd,
                             col_fwd=p.col_bwd, col_bwd=p.col_fwd)
        fmap = rng.normal(3 * 5 * 2).reshape(3, 5, 2)
        direct = ss2d(fmap, p)
        via_flip = ss2d(fmap[::-1, ::-1], swapped)[::-1, ::-1]
        assert np.array_equal(direct, via_flip)

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


def _only(p: Ss2dParams, keep: str) -> Ss2dParams:
    """``p`` with B = 0 in every direction but ``keep``, so the others add zeros."""
    def zero_b(q):
        return dataclasses.replace(q, w_b=np.zeros_like(q.w_b), u_b=np.zeros_like(q.u_b))
    return Ss2dParams(**{name: getattr(p, name) if name == keep else zero_b(getattr(p, name))
                         for name in ("row_fwd", "row_bwd", "col_fwd", "col_bwd")})


def _direction_scans(fmap, p, scan_fn):
    """Each direction's scan of ``fmap`` alone by ``scan_fn``, un-flattened."""
    h, w, d = fmap.shape
    row = fmap.reshape(h * w, d)
    col = fmap.transpose(1, 0, 2).reshape(h * w, d)
    return {
        "row_fwd": scan_fn(row, p.row_fwd).reshape(h, w, d),
        "row_bwd": scan_fn(row[::-1], p.row_bwd)[::-1].reshape(h, w, d),
        "col_fwd": scan_fn(col, p.col_fwd).reshape(w, h, d).transpose(1, 0, 2),
        "col_bwd": scan_fn(col[::-1], p.col_bwd)[::-1].reshape(w, h, d).transpose(1, 0, 2),
    }


def _assert_directions_match(fmap, p, scan_fn, rtol):
    for name, want in _direction_scans(fmap, p, scan_fn).items():
        got = ss2d(fmap, _only(p, name))
        assert np.all(np.abs(got - want) <= rtol * np.maximum(1.0, np.abs(want))), name


class TestSs2dStackedScan:
    """ss2d scans its four directions together; each must be the scan of its order alone."""

    @pytest.mark.parametrize("h, w, d_ch, n", [(5, 7, 3, 2), (48, 64, 16, 8)])
    def test_each_direction_is_its_selective_scan(self, h, w, d_ch, n):
        rng = SeededRng(40)
        p = Ss2dParams.random(d_ch, n, rng)
        fmap = rng.normal(h * w * d_ch).reshape(h, w, d_ch)
        _assert_directions_match(fmap, p, selective_scan, 1e-13)

    def test_block_boundaries(self):
        d_ch, n = 8, 8
        b = _block_steps(4, d_ch, n)
        rng = SeededRng(41)
        p = Ss2dParams.random(d_ch, n, rng)
        for length in sorted({1, max(b - 1, 1), b, b + 1, 3 * b + 5}):
            line = rng.normal(length * d_ch)
            for shape in ((1, length, d_ch), (length, 1, d_ch)):
                _assert_directions_match(line.reshape(shape), p,
                                         lambda x, q: _selective_forward(x, q)[0], 1e-12)

    def test_memory(self):
        # One ss2d at fuse_long size holds no more than its output, one (L, D)
        # copy for the column orders, the (4, L, D) outputs and the block buffers.
        rng = SeededRng(42)
        p = Ss2dParams.random(32, 16, rng)
        fmap = rng.normal(64 * 128 * 32).reshape(64, 128, 32)
        tracemalloc.start()
        try:
            ss2d(fmap, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


def _assert_round_trip(p, tmp_path):
    """Save ``p``, load it back and save that again: the same manifest and tensor files."""
    save_params(p, tmp_path / "p")
    q = load_params(type(p), tmp_path / "p")
    save_params(q, tmp_path / "q")
    files = sorted(f.name for f in (tmp_path / "p").iterdir())
    assert sorted(f.name for f in (tmp_path / "q").iterdir()) == files
    for name in files:
        assert (tmp_path / "q" / name).read_bytes() == (tmp_path / "p" / name).read_bytes()
    manifest = read_manifest(tmp_path / "p" / "manifest.txt")
    meta = {k[5:]: v for k, v in manifest.items() if k.startswith("meta.")}
    return meta, [k[7:] for k in manifest if k.startswith("tensor.")], q


class TestParamsSerialization:
    def test_selective_round_trip(self, tmp_path):
        p = SelectiveSsmParams.random(3, 4, SeededRng(23))
        meta, tensors, _ = _assert_round_trip(p, tmp_path)
        assert meta == {}
        assert tensors == ["a", "w_delta", "u_delta", "w_b", "u_b", "w_c", "u_c"]

    def test_ss2d_round_trip(self, tmp_path):
        rng = SeededRng(24)
        p = Ss2dParams.random(2, 3, rng)
        _, tensors, q = _assert_round_trip(p, tmp_path)
        assert len(tensors) == 4 * 7 and np.array_equal(q.col_bwd.u_c, p.col_bwd.u_c)
        x = rng.normal(2 * 3 * 2).reshape(2, 3, 2)
        assert np.array_equal(ss2d(x, p), ss2d(x, q))

    def test_mlp_round_trip(self, tmp_path):
        p = Mlp3.random(3, SeededRng(25))
        meta, tensors, _ = _assert_round_trip(p, tmp_path)
        assert meta == {}
        assert tensors == ["w1", "b1", "w2", "b2", "w3", "b3"]

    def test_fusion_round_trip(self, tmp_path):
        p = FusionBlockParams.random(2, 3, 2, 3, SeededRng(26), residual_mode="straight")
        meta, tensors, q = _assert_round_trip(p, tmp_path)
        assert meta == {"grid_h": "2", "grid_w": "3", "residual_mode": "straight"}
        assert (q.grid_h, q.grid_w, q.residual_mode) == (2, 3, "straight")
        assert len(tensors) == 4 + 3 * 6 + 2 * 4 * 7
        assert np.array_equal(q.ss2d_t.col_bwd.u_c, p.ss2d_t.col_bwd.u_c)
