import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cfmw_kit.tensor import SeededRng
from cfmw_kit.weather import (
    _SNOW_BATCH_BYTES,
    apply_fog,
    apply_rain,
    apply_snow,
    gen_depth,
    gen_rain,
    gen_snow,
)


def simpson(f, a, b, n=20000):
    xs = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (b - a) / n / 3.0 * float(w @ f(xs))


def _image(rng, h=6, w=5, c=3):
    return np.floor(rng.uniform(h * w * c).reshape(h, w, c) * 256.0).clip(0, 255)


class TestBlendCompositors:
    def test_mask_zero_identity(self):
        rng = SeededRng(70)
        img = _image(rng)
        overlay = _image(rng)
        out = apply_rain(img, np.zeros(img.shape[:2]), overlay)
        assert np.array_equal(out, img)

    def test_mask_one_returns_overlay(self):
        rng = SeededRng(71)
        img = _image(rng)
        overlay = _image(rng)
        out = apply_snow(img, np.ones(img.shape[:2]), overlay)
        assert np.array_equal(out, overlay)

    def test_half_mask_hand_value(self):
        img = np.full((2, 2, 3), 100.0)
        overlay = np.full((2, 2, 3), 200.0)
        out = apply_rain(img, np.full((2, 2), 0.5), overlay)
        assert np.array_equal(out, np.full((2, 2, 3), 150.0))

    def test_checkerboard_blend(self):
        img = np.full((4, 4, 3), 50.0)
        overlay = np.full((4, 4, 3), 250.0)
        mask = np.indices((4, 4)).sum(axis=0) % 2
        out = apply_snow(img, mask.astype(float), overlay)
        assert np.array_equal(out[mask == 1], np.full((8, 3), 250.0))
        assert np.array_equal(out[mask == 0], np.full((8, 3), 50.0))

    def test_monotone_in_mask(self):
        rng = SeededRng(72)
        img = _image(rng, 8, 8)
        overlay = _image(rng, 8, 8)
        m1 = rng.uniform(64).reshape(8, 8)
        m2 = np.clip(m1 + rng.uniform(64).reshape(8, 8) * (1 - m1), 0, 1)
        d1 = np.abs(apply_rain(img, m1, overlay) - overlay)
        d2 = np.abs(apply_rain(img, m2, overlay) - overlay)
        assert np.all(d2 <= d1 + 1e-12)

    def test_output_range(self):
        rng = SeededRng(73)
        img = _image(rng)
        overlay = np.full(img.shape, 400.0)  # deliberately out of range
        out = apply_rain(img, np.full(img.shape[:2], 0.9), overlay)
        assert out.min() >= 0.0 and out.max() <= 255.0

    def test_mask_out_of_range_rejected(self):
        img = np.zeros((2, 2, 3))
        with pytest.raises(ValueError):
            apply_rain(img, np.full((2, 2), 1.5), img)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_rain(np.zeros((2, 2, 3)), np.zeros((3, 2)), np.zeros((2, 2, 3)))

    @pytest.mark.parametrize("apply", [apply_rain, apply_snow])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which, match", [(0, "image"), (1, "mask"), (2, "overlay")])
    def test_non_finite_input_refused_by_name(self, apply, bad, which, match):
        args = [np.full((4, 4, 3), 100.0), np.full((4, 4), 0.5), np.full((4, 4, 3), 200.0)]
        args[which][1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                apply(*args)


class TestFog:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_image_refused(self, bad):
        img = np.full((4, 4, 3), 100.0)
        img[2, 1, 0] = bad
        with pytest.raises(ValueError, match="image"):
            apply_fog(img, np.ones((4, 4)), 1.0, 200.0)

    def test_beta_zero_identity(self):
        rng = SeededRng(74)
        img = _image(rng)
        out = apply_fog(img, np.full(img.shape[:2], 3.0), 0.0, 255.0)
        assert np.array_equal(out, img)

    def test_saturates_to_airlight(self):
        img = np.zeros((3, 3, 3))
        out = apply_fog(img, np.full((3, 3), 80.0), 0.5, 210.0)  # beta d = 40
        assert np.abs(out - 210.0).max() < 1e-12

    @pytest.mark.filterwarnings("error")
    def test_overflowing_attenuation_gives_airlight(self):
        # beta * d is past the float range: the transmission is exactly 0
        out = apply_fog(np.full((2, 2, 3), 100.0), np.full((2, 2), 1e200), 1e200, 200.0)
        assert np.array_equal(out, np.full((2, 2, 3), 200.0))

    def test_hand_value(self):
        out = apply_fog(np.zeros((1, 1, 3)), np.full((1, 1), 2.0), 0.5, 255.0)
        expected = 255.0 * (1.0 - math.exp(-1.0))  # ~161.19
        assert np.abs(out - expected).max() < 1e-12
        assert abs(expected - 161.2) < 0.05

    def test_matches_integral_form(self):
        # Closed form against quadrature of the attenuation + airlight
        # integrals with constant attenuation along the ray.
        rng = SeededRng(75)
        for _ in range(50):
            beta = 0.05 + 2.5 * rng.uniform(1)[0]
            d = 0.1 + 4.0 * rng.uniform(1)[0]
            j = 255.0 * rng.uniform(1)[0]
            l_inf = 255.0 * rng.uniform(1)[0]
            out = apply_fog(np.full((1, 1), j), np.full((1, 1), d), beta, l_inf)
            transmitted = j * math.exp(-simpson(lambda s: np.full_like(s, beta), 0, d))
            airlight = simpson(lambda s: l_inf * beta * np.exp(-beta * s), 0, d)
            assert abs(out[0, 0] - min(max(transmitted + airlight, 0.0), 255.0)) < 1e-9

    def test_negative_inputs_rejected(self):
        img = np.zeros((2, 2, 3))
        with pytest.raises(ValueError):
            apply_fog(img, np.full((2, 2), -1.0), 0.5, 255.0)
        with pytest.raises(ValueError):
            apply_fog(img, np.full((2, 2), 1.0), -0.5, 255.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta, l_inf", [
        (math.nan, 255.0), (math.inf, 255.0), (0.5, math.inf), (0.5, math.nan),
    ])
    def test_non_finite_parameters_rejected(self, beta, l_inf):
        with pytest.raises(ValueError, match="must be finite"):
            apply_fog(np.zeros((2, 2, 3)), np.zeros((2, 2)), beta, l_inf)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("depth", [math.nan, math.inf])
    def test_non_finite_depth_rejected(self, depth):
        with pytest.raises(ValueError, match="depth contains non-finite"):
            apply_fog(np.zeros((2, 2, 3)), np.full((2, 2), depth), 0.5, 255.0)


class TestRainGenerator:
    def test_deterministic(self):
        a_mask, a_map = gen_rain(32, 32, seed=5, density=0.01)
        b_mask, b_map = gen_rain(32, 32, seed=5, density=0.01)
        assert np.array_equal(a_mask, b_mask)
        assert np.array_equal(a_map, b_map)

    def test_seed_changes_mask(self):
        a_mask, _ = gen_rain(32, 32, seed=5, density=0.01)
        b_mask, _ = gen_rain(32, 32, seed=6, density=0.01)
        assert not np.array_equal(a_mask, b_mask)

    def test_coverage_bound_at_low_density(self):
        h = w = 64
        density = 0.001
        streak = 8
        mask, _ = gen_rain(h, w, seed=9, density=density, streak_len_px=streak)
        frac = float((mask > 0).mean())
        # each streak splats at most 4 pixels per step
        assert frac <= 2.0 * density * 4.0 * (streak + 1)
        assert frac > 0.0

    def test_vertical_angle_column_aligned(self):
        # density chosen so exactly one streak is seeded
        h = w = 16
        mask, _ = gen_rain(h, w, seed=3, density=1.0 / (h * w),
                           angle_deg=90.0, streak_len_px=6)
        cols = np.unique(np.nonzero(mask)[1])
        assert 1 <= cols.size <= 2
        if cols.size == 2:
            assert cols[1] - cols[0] == 1
        rows = np.unique(np.nonzero(mask)[0])
        assert rows.size >= 4  # streak spans several rows (may clip at border)

    def test_mask_range_and_args(self):
        mask, overlay = gen_rain(20, 20, seed=1, density=0.05)
        assert mask.min() >= 0.0 and mask.max() <= 1.0
        assert overlay.min() >= 200.0 and overlay.max() <= 255.0
        with pytest.raises(ValueError):
            gen_rain(8, 8, seed=1, density=0.0)
        with pytest.raises(ValueError):
            gen_rain(8, 8, seed=1, density=1.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, angle):
        with pytest.raises(ValueError, match="angle must be finite"):
            gen_rain(8, 8, seed=1, density=0.05, angle_deg=angle)


def _snow_mask_by_flake(h, w, seed, density, radius_range):
    """gen_snow's mask composited one flake at a time, each over its own
    clipped window: the oracle for the batched mask."""
    n = int(round(density * h * w))
    xs, ys, radii, _ = SeededRng(seed).draws(*[("uniform", n)] * 3, ("uniform", h * w))
    xs *= w
    ys *= h
    r_lo, r_hi = radius_range
    radii = r_lo + (r_hi - r_lo) * radii
    mask = np.zeros((h, w))
    for cx, cy, r in zip(xs, ys, radii):
        x_lo = max(int(math.floor(cx - r)), 0)
        x_hi = min(int(math.ceil(cx + r)) + 1, w)
        y_lo = max(int(math.floor(cy - r)), 0)
        y_hi = min(int(math.ceil(cy + r)) + 1, h)
        if x_lo >= x_hi or y_lo >= y_hi:
            continue
        yy, xx = np.mgrid[y_lo:y_hi, x_lo:x_hi]
        d2 = ((xx + 0.5 - cx) ** 2 + (yy + 0.5 - cy) ** 2) / (r * r)
        patch = np.clip(1.0 - d2, 0.0, 1.0)
        np.maximum(mask[y_lo:y_hi, x_lo:x_hi], patch, out=mask[y_lo:y_hi, x_lo:x_hi])
    return mask


def _snow_cases():
    cases = [
        (8, 8, 1, 0.5, (1e-150, 1e-150)),
        (8, 8, 1, 0.5, (1e150, 1e150)),
        (9, 7, 2, 0.5, (1e-150, 1e150)),
        (1, 1, 4, 1.0, (1.0, 3.0)),
        (1, 40, 5, 0.3, (0.3, 2.0)),
        (512, 512, 6, 0.004, (1.0, 3.0)),  # synth's default snow at the benchmark size
    ]
    rng = np.random.default_rng(12)
    for _ in range(40):
        h, w = rng.integers(1, 49, 2)
        lo = 10.0 ** rng.uniform(-2.0, 1.5)
        cases.append((int(h), int(w), int(rng.integers(2 ** 31)), float(rng.uniform(0.001, 1.0)),
                      (lo, lo * 10.0 ** rng.uniform(0.0, 1.0))))
    return cases


class TestSnowGenerator:
    def test_batched_mask_has_the_per_flake_bits(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h, w, seed, density, radius_range in _snow_cases():
                mask, _ = gen_snow(h, w, seed, density, radius_range)
                want = _snow_mask_by_flake(h, w, seed, density, radius_range)
                assert np.array_equal(mask, want), (h, w, seed, density, radius_range)

    def test_flakes_clipped_at_all_four_borders(self):
        mask, _ = gen_snow(16, 16, 3, 0.2, (4.0, 12.0))
        assert np.array_equal(mask, _snow_mask_by_flake(16, 16, 3, 0.2, (4.0, 12.0)))
        assert all(edge.any() for edge in (mask[0], mask[-1], mask[:, 0], mask[:, -1]))

    def test_memory_stays_within_the_batch_budget(self):
        # About 4,400 window pixels a flake at radii up to 64: all 262 flakes
        # in one batch would take about 100 MB of work arrays.
        h = w = 256
        image = 8 * h * w
        # the batch, plus the mask, the base draws, the overlay and its temporaries
        bound = _SNOW_BATCH_BYTES + 8 * image
        tracemalloc.start()
        try:
            gen_snow(h, w, 9, 0.004, (1.0, 64.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_deterministic(self):
        a_mask, a_map = gen_snow(24, 24, seed=8, density=0.01)
        b_mask, b_map = gen_snow(24, 24, seed=8, density=0.01)
        assert np.array_equal(a_mask, b_mask)
        assert np.array_equal(a_map, b_map)

    def test_flake_count_within_poisson_band(self):
        h = w = 64
        density = 0.01
        expected = density * h * w
        mask, _ = gen_snow(h, w, seed=11, density=density, radius_range=(1.0, 1.5))
        # soft discs of radius <= 1.5 cover <= ~9 px each; count components by
        # brightness peaks is brittle, so bound the covered area instead
        covered = float((mask > 0).sum())
        per_flake_max = math.pi * 2.5 ** 2
        n_min = covered / per_flake_max
        assert n_min <= expected + 4.0 * math.sqrt(expected)
        assert covered > 0.0

    def test_mask_in_unit_range(self):
        mask, _ = gen_snow(16, 16, seed=2, density=0.05)
        assert mask.min() >= 0.0 and mask.max() <= 1.0

    def test_blue_cast(self):
        _, overlay = gen_snow(16, 16, seed=2, density=0.05)
        assert overlay[..., 2].mean() > overlay[..., 0].mean()

    def test_bad_radius_range(self):
        with pytest.raises(ValueError):
            gen_snow(8, 8, seed=1, density=0.1, radius_range=(2.0, 1.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("radius_range", [(1.0, math.inf), (math.inf, math.inf),
                                              (1.0, math.nan)])
    def test_non_finite_radius_rejected(self, radius_range):
        with pytest.raises(ValueError, match="radius range must be finite"):
            gen_snow(64, 64, seed=1, density=0.01, radius_range=radius_range)

    @pytest.mark.parametrize("radius_range", [(5e-324, 5e-324), (1e-160, 1.0), (1.0, 1.5e154)])
    def test_radius_whose_square_leaves_float64_refused_by_name(self, radius_range):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=r"^flake radius range must lie in \[1e-150, 1e150\]"):
                gen_snow(8, 8, seed=1, density=0.5, radius_range=radius_range)
            for edge in ((1e-150, 1e-150), (1e150, 1e150)):
                assert np.isfinite(gen_snow(8, 8, seed=1, density=0.5, radius_range=edge)[0]).all()


class TestDepth:
    def test_constant_zero_gives_fog_identity(self):
        rng = SeededRng(76)
        img = _image(rng, 5, 5)
        depth = gen_depth("constant", 5, 5, max_depth=0.0)
        for beta in (0.1, 1.0, 10.0):
            assert np.array_equal(apply_fog(img, depth, beta, 255.0), img)

    def test_constant_fill_is_max_depth(self):
        assert np.array_equal(gen_depth("constant", 3, 4, max_depth=2.5), np.full((3, 4), 2.5))

    def test_radial_center_zero(self):
        depth = gen_depth("radial", 7, 9, max_depth=3.0)
        assert depth[3, 4] == 0.0
        assert depth.max() == pytest.approx(3.0)

    def test_vertical_gradient_extremes(self):
        depth = gen_depth("vertical_gradient", 10, 4, max_depth=2.5)
        assert np.all(depth[0] == 0.0)
        assert np.all(depth[-1] == 2.5)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            gen_depth("diagonal", 4, 4)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode, kwargs, name", [
        ("constant", {"max_depth": math.nan}, "max depth"),
        ("constant", {"max_depth": math.inf}, "max depth"),
        ("vertical_gradient", {"max_depth": math.inf}, "max depth"),
        ("radial", {"max_depth": math.nan}, "max depth"),
    ])
    def test_non_finite_depth_parameters_rejected(self, mode, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            gen_depth(mode, 4, 4, **kwargs)
