import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cfmw_kit.diffusion import (
    _TILE_BYTES,
    DiffusionConfig,
    NoiseSchedule,
    OraclePredictor,
    TinyMlpPredictor,
    ddim_step,
    epsilon_loss,
    gaussian_kl,
    make_schedule,
    posterior_mean,
    q_sample,
    sample,
    variational_bound,
    variational_bound_terms,
)
from cfmw_kit.tensor import SeededRng, randn

GOLDEN_DIR = Path(__file__).parent / "golden"


class TestSchedules:
    def test_linear_default_endpoints(self):
        sched = make_schedule("linear", 1000, 0.001, 0.02)
        assert sched.beta[0] == 0.001
        assert sched.beta[-1] == 0.02

    def test_single_step_equals_start(self):
        for kind in ("linear", "scaled_linear"):
            sched = make_schedule(kind, 1, 0.005, 0.02)
            assert sched.t_count == 1
            assert abs(sched.beta[0] - 0.005) < 1e-15
        assert make_schedule("cosine", 1).t_count == 1

    def test_alpha_bar_strictly_decreasing_all_kinds(self):
        for kind in ("linear", "scaled_linear", "cosine"):
            for t_count in (10, 100, 1000):
                sched = make_schedule(kind, t_count)
                assert np.all(np.diff(sched.alpha_bar) < 0.0), (kind, t_count)

    def test_scaled_linear_sqrt_spacing(self):
        sched = make_schedule("scaled_linear", 50, 0.001, 0.02)
        gaps = np.diff(np.sqrt(sched.beta))
        assert np.abs(gaps - gaps[0]).max() < 1e-12

    def test_cosine_clip(self):
        sched = make_schedule("cosine", 1000)
        assert np.all(sched.beta <= 0.999)
        assert np.all(sched.beta > 0.0)

    def test_alpha_bar_boundary_values(self):
        sched = make_schedule("linear", 10)
        assert sched.alpha_bar_at(0) == 1.0
        assert sched.alpha_bar_at(1) == sched.alpha[0]

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            make_schedule("linear", 10, 0.02, 0.001)
        with pytest.raises(ValueError):
            make_schedule("linear", 10, 0.0, 0.01)
        with pytest.raises(ValueError):
            make_schedule("nope", 10)

    def test_step_sequence_contract(self):
        sched = make_schedule("linear", 1000)
        cfg = DiffusionConfig(schedule=sched, n_sample_steps=50)
        steps = cfg.step_sequence()
        assert len(steps) == 50
        assert steps[0] == 1000 and steps[-1] == 1
        assert all(a > b for a, b in zip(steps, steps[1:]))
        assert DiffusionConfig(schedule=sched, n_sample_steps=1).step_sequence() == [1000]
        full = DiffusionConfig(schedule=make_schedule("linear", 20), n_sample_steps=20)
        assert full.step_sequence() == list(range(20, 0, -1))

    def test_config_bounds(self):
        sched = make_schedule("linear", 10)
        with pytest.raises(ValueError):
            DiffusionConfig(schedule=sched, n_sample_steps=11)


class TestQSample:
    def test_zero_noise(self):
        sched = make_schedule("linear", 100)
        rng = SeededRng(50)
        x0 = randn([3, 4], rng)
        for t in (1, 50, 100):
            out = q_sample(x0, t, np.zeros_like(x0), sched)
            assert np.array_equal(out, math.sqrt(sched.alpha_bar_at(t)) * x0)

    def test_zero_signal(self):
        sched = make_schedule("linear", 100)
        ones = np.ones((2, 2))
        out = q_sample(np.zeros((2, 2)), 40, ones, sched)
        assert np.allclose(out, math.sqrt(1.0 - sched.alpha_bar_at(40)), atol=0)

    def test_large_t_is_mostly_noise(self):
        sched = make_schedule("linear", 1000)
        rng = SeededRng(51)
        x0 = randn([8], rng)
        eps = randn([8], rng)
        out = q_sample(x0, 1000, eps, sched)
        abar = sched.alpha_bar_at(1000)
        bound = math.sqrt(abar) * np.abs(x0).max() \
            + (1.0 - math.sqrt(1.0 - abar)) * np.abs(eps).max()
        assert np.abs(out - eps).max() <= bound
        assert bound < 0.05

    def test_t_out_of_range(self):
        sched = make_schedule("linear", 10)
        for t in (0, 11):
            with pytest.raises(ValueError):
                q_sample(np.zeros(2), t, np.zeros(2), sched)

    @pytest.mark.parametrize("t", [2.5, 2.0, True, np.bool_(True), "2"])
    def test_non_integral_or_bool_t_refused(self, t):
        # int(t) would quietly run 2.5 as step 2 and True as step 1
        sched = make_schedule("linear", 10)
        for call in (lambda: q_sample(np.zeros(2), t, np.zeros(2), sched),
                     lambda: sched.alpha_bar_at(t), lambda: sched.beta_at(t)):
            with pytest.raises(ValueError, match="integers"):
                call()


class TestDdimStep:
    def test_oracle_inverts_to_x0(self):
        sched = make_schedule("linear", 1000)
        rng = SeededRng(52)
        for _ in range(20):
            x0 = randn([2, 3], rng)
            eps = randn([2, 3], rng)
            t = 1 + int(rng.uniform(1)[0] * 1000)
            x_t = q_sample(x0, t, eps, sched)
            back = ddim_step(x_t, np.zeros_like(x0), t, 0, OraclePredictor(eps), sched)
            assert np.abs(back - x0).max() < 1e-12

    def test_equal_alpha_bar_is_fixed_point(self):
        # Nearly-equal products across the step leave the state unchanged.
        sched = NoiseSchedule("custom", np.array([0.3, 1e-16]))
        rng = SeededRng(53)
        x0 = randn([4], rng)
        eps = randn([4], rng)
        x2 = q_sample(x0, 2, eps, sched)
        out = ddim_step(x2, np.zeros_like(x0), 2, 1, OraclePredictor(eps), sched)
        assert np.abs(out - x2).max() < 1e-12

    def test_two_chained_steps_recover_x0(self):
        sched = make_schedule("linear", 1000)
        rng = SeededRng(54)
        for _ in range(10):
            x0 = randn([5], rng)
            eps = randn([5], rng)
            pred = OraclePredictor(eps)
            x_t = q_sample(x0, 900, eps, sched)
            mid = ddim_step(x_t, np.zeros_like(x0), 900, 417, pred, sched)
            out = ddim_step(mid, np.zeros_like(x0), 417, 0, pred, sched)
            assert np.abs(out - x0).max() < 1e-10

    def test_ordering_violations(self):
        sched = make_schedule("linear", 10)
        pred = OraclePredictor(np.zeros(2))
        with pytest.raises(ValueError):
            ddim_step(np.zeros(2), np.zeros(2), 3, 3, pred, sched)
        with pytest.raises(ValueError):
            ddim_step(np.zeros(2), np.zeros(2), 3, -1, pred, sched)

    @pytest.mark.parametrize("t, t_prev", [
        (5, 2.5), (5.0, 2), (True, 0), (5, False), (np.float64(5), 2), (5, np.bool_(False)),
    ])
    def test_non_integral_or_bool_steps_refused(self, t, t_prev):
        sched = make_schedule("linear", 10)
        pred = OraclePredictor(np.zeros(2))
        with pytest.raises(ValueError, match="integers"):
            ddim_step(np.zeros(2), np.zeros(2), t, t_prev, pred, sched)

    def test_numpy_integer_steps_accepted(self):
        sched = make_schedule("linear", 10)
        pred = OraclePredictor(np.ones(2))
        got = ddim_step(np.ones(2), np.zeros(2), np.int64(5), np.int32(2), pred, sched)
        assert np.array_equal(got, ddim_step(np.ones(2), np.zeros(2), 5, 2, pred, sched))

    def test_buffers_give_the_allocating_result(self):
        sched = make_schedule("linear", 1000)
        rng = SeededRng(62)
        x_t, cond = randn([5, 4, 3], rng), randn([5, 4, 3], rng)
        for pred in (OraclePredictor(randn([5, 4, 3], rng)), TinyMlpPredictor(7)):
            for t, t_prev in ((1000, 980), (417, 1), (20, 0)):
                want = ddim_step(x_t, cond, t, t_prev, pred, sched)
                out, sq_diff = np.full_like(x_t, np.nan), np.full_like(x_t, np.nan)
                got = ddim_step(x_t, cond, t, t_prev, pred, sched,
                                out=out, sq_diff=sq_diff)
                assert got is out
                assert np.array_equal(got, want)
                assert np.array_equal(sq_diff, np.square(want - x_t))

    def test_bad_buffers_refused(self):
        sched = make_schedule("linear", 10)
        eps = np.ones((3, 2))
        pred = OraclePredictor(eps)
        x_t = np.zeros((3, 2))
        pool = np.empty((2, 3, 2))
        bad = {
            "shape": dict(out=np.empty((2, 3))),
            "dtype": dict(out=np.empty((3, 2), dtype=np.float32)),
            "sq_diff shape": dict(sq_diff=np.empty((3, 2, 1))),
            "sq_diff dtype": dict(sq_diff=np.empty((3, 2), dtype=np.float32)),
            "list": dict(sq_diff=[[0.0] * 2] * 3),
            "out is x_t": dict(out=x_t),
            "out is eps": dict(out=pred.eps),
            "sq_diff views x_t": dict(sq_diff=x_t[:, :]),
            "sq_diff is eps": dict(sq_diff=pred.eps),
            "sq_diff is out": dict(out=pool[0], sq_diff=pool[0]),
            "sq_diff overlaps out": dict(out=pool[0],
                                         sq_diff=pool.reshape(-1)[3:9].reshape(3, 2)),
        }
        for kwargs in bad.values():
            with pytest.raises(ValueError, match="out|sq_diff"):
                ddim_step(x_t, x_t, 5, 2, pred, sched, **kwargs)
        # distinct slices of one array share no memory and are accepted
        ddim_step(x_t, x_t, 5, 2, pred, sched, out=pool[0], sq_diff=pool[1])

    TILE_CASES = [
        ((), "contiguous"), ((5,), "contiguous"), ((1, 7), "contiguous"),
        ((37, 513, 3), "contiguous"), ((600, 600, 3), "contiguous"),
        ((3, 40000), "contiguous"),  # rows wider than a tile: one row per tile
        ((5,), "strided x_t"), ((37, 513, 3), "strided x_t"),
        ((5,), "strided out"), ((600, 600, 3), "strided out"),
    ]

    @pytest.mark.parametrize("shape, layout", TILE_CASES, ids=[
        f"{'x'.join(map(str, shape)) or '0d'}-{layout.replace(' ', '_')}"
        for shape, layout in TILE_CASES])
    def test_tiles_give_the_untiled_bits(self, shape, layout):
        sched = make_schedule("linear", 1000)
        rng = SeededRng(66)
        n = math.prod(shape)

        def strided():  # every other leading row of a twice-as-long array
            return np.empty((2 * shape[0],) + shape[1:])[::2]

        x_t = randn([n], rng).reshape(shape) * 40.0
        if layout == "strided x_t":
            view = strided()
            view[...] = x_t
            x_t = view
        eps = randn([n], rng).reshape(shape)
        out = strided() if layout == "strided out" else None
        for t, t_prev in ((1000, 980), (417, 3), (20, 0)):
            # The six ops over whole arrays, in the step's written order.
            abar_t, abar_p = sched.alpha_bar_at(t), sched.alpha_bar_at(t_prev)
            want = np.multiply(math.sqrt(1.0 - abar_t), eps)
            want = np.subtract(x_t, want)
            want /= math.sqrt(abar_t)
            want *= math.sqrt(abar_p)
            want += np.multiply(math.sqrt(1.0 - abar_p), eps)
            sq_diff = np.empty(shape)
            got = ddim_step(x_t, x_t, t, t_prev, OraclePredictor(eps), sched,
                            out=out, sq_diff=sq_diff)
            assert got.shape == shape
            assert np.array_equal(got, want)
            assert np.array_equal(sq_diff, np.square(got - x_t))


class TestSample:
    def test_oracle_chain_recovers_x0(self):
        sched = make_schedule("linear", 1000, 0.001, 0.02)
        cfg = DiffusionConfig(schedule=sched, n_sample_steps=50)
        rng = SeededRng(55)
        x0 = randn([4, 4], rng)
        eps = randn([4, 4], rng)
        x_t = q_sample(x0, 1000, eps, sched)
        out = sample(x_t, np.zeros_like(x0), cfg, OraclePredictor(eps))
        assert np.abs(out - x0).max() < 1e-8

    def test_deterministic_repeat(self):
        sched = make_schedule("linear", 100)
        cfg = DiffusionConfig(schedule=sched, n_sample_steps=10)
        rng = SeededRng(56)
        x_t = randn([3, 3], rng)
        cond = randn([3, 3], rng)
        pred = TinyMlpPredictor(123)
        a = sample(x_t, cond, cfg, pred)
        b = sample(x_t, cond, cfg, pred)
        assert np.array_equal(a, b)

    def test_single_step_chain(self):
        sched = make_schedule("linear", 100)
        cfg = DiffusionConfig(schedule=sched, n_sample_steps=1)
        hops = []
        rng = SeededRng(57)
        x0 = randn([2], rng)
        eps = randn([2], rng)
        x_t = q_sample(x0, 100, eps, sched)
        out = sample(x_t, np.zeros(2), cfg, OraclePredictor(eps),
                     on_step=lambda *hop: hops.append(hop))
        assert hops == [(100, 0, float(np.sqrt(np.sum(np.square(out - x_t)))))]
        assert np.abs(out - x0).max() < 1e-12

    def test_on_step_gets_each_hop_update_norm(self):
        sched = make_schedule("linear", 100)
        cfg = DiffusionConfig(schedule=sched, n_sample_steps=4)
        rng = SeededRng(63)
        shape = [300, 200, 3]  # several row tiles per step
        x_noise, cond = randn(shape, rng), randn(shape, rng)
        pred = TinyMlpPredictor(5)
        seen = []
        out = sample(x_noise, cond, cfg, pred, on_step=lambda *hop: seen.append(hop))
        x = x_noise
        for (t, t_prev, update_l2), want in zip(seen, cfg.step_sequence()):
            assert t == want
            x_prev = ddim_step(x, cond, t, t_prev, pred, sched)
            assert update_l2 == float(np.sqrt(np.sum(np.square(x_prev - x))))
            x = x_prev
        assert len(seen) == 4 and seen[-1][1] == 0
        assert np.array_equal(out, x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("with_callback", [False, True])
    def test_non_finite_chain_refused_after_last_hop(self, bad, with_callback):
        sched = make_schedule("linear", 100)
        cfg = DiffusionConfig(schedule=sched, n_sample_steps=6)
        rng = SeededRng(67)
        x_noise, eps = randn([4, 3], rng), randn([4, 3], rng)
        middle = cfg.step_sequence()[2]
        calls = []

        def pred(x, cond, t):
            calls.append(t)
            if t != middle:
                return eps
            spoiled = eps.copy()
            spoiled[1, 2] = bad
            return spoiled

        on_step = (lambda *hop: None) if with_callback else None
        with pytest.raises(ValueError, match="non-finite.*predictor.*overflow"):
            sample(x_noise, np.zeros_like(x_noise), cfg, pred, on_step=on_step)
        assert calls == cfg.step_sequence()  # refused once, after the last hop

    def test_overflowing_chain_warns_then_is_refused(self):
        # Finite inputs whose first division by sqrt(abar_t) leaves the
        # float range: NumPy warns at the overflow, the chain end refuses.
        cfg = DiffusionConfig(schedule=make_schedule("linear", 100), n_sample_steps=4)
        x_noise = np.full((2, 2), 1.5e308)
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(ValueError, match="non-finite.*overflow"):
            sample(x_noise, np.zeros((2, 2)), cfg, OraclePredictor(np.zeros((2, 2))),
                   on_step=lambda *hop: None)

    @pytest.mark.parametrize("which", ["x_noise", "x_tilde"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_refused_before_first_step(self, which, bad):
        cfg = DiffusionConfig(schedule=make_schedule("linear", 10), n_sample_steps=3)
        arrays = {"x_noise": np.zeros((2, 2)), "x_tilde": np.zeros((2, 2))}
        arrays[which][0, 1] = bad
        calls = []

        def pred(x, cond, t):
            calls.append(t)
            return np.zeros_like(x)

        with pytest.raises(ValueError, match=which):
            sample(arrays["x_noise"], arrays["x_tilde"], cfg, pred)
        assert calls == []

    def test_x_noise_untouched(self):
        sched = make_schedule("linear", 100)
        cfg = DiffusionConfig(schedule=sched, n_sample_steps=10)
        rng = SeededRng(64)
        x_noise, eps = randn([4, 4], rng), randn([4, 4], rng)
        before = x_noise.copy()
        out = sample(x_noise, np.zeros_like(x_noise), cfg, OraclePredictor(eps))
        assert np.array_equal(x_noise, before)
        assert not np.shares_memory(out, x_noise)

    def test_memory_does_not_grow_with_steps(self):
        sched = make_schedule("linear", 1000)
        rng = SeededRng(65)
        shape = [256, 256, 3]  # six row tiles per step
        x_noise, eps = randn(shape, rng), randn(shape, rng)
        pred = OraclePredictor(eps)
        cond = np.zeros_like(x_noise)
        peaks = {}
        for steps in (5, 50):
            cfg = DiffusionConfig(schedule=sched, n_sample_steps=steps)
            tracemalloc.start()
            try:
                sample(x_noise, cond, cfg, pred, on_step=lambda *hop: None)
                peaks[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # The chain holds two ping-pong buffers and the squared-update buffer,
        # plus one tile of the step's second noise term, at any step count;
        # only the step list (a few bytes a step) grows with S.
        slack = _TILE_BYTES + 8 * 1024
        assert peaks[50] <= peaks[5] + 8 * 1024
        assert peaks[50] <= 3 * x_noise.nbytes + slack

    def test_conditioning_reaches_predictor(self):
        # A predictor biased by the conditioning image's mean must change the
        # output when the conditioning changes.
        sched = make_schedule("linear", 100)
        cfg = DiffusionConfig(schedule=sched, n_sample_steps=5)
        rng = SeededRng(58)
        x_t = randn([6], rng)

        def pred(x, cond, t):
            return np.full_like(x, np.mean(cond))

        out_a = sample(x_t, np.full(6, 1.0), cfg, pred)
        out_b = sample(x_t, np.full(6, 2.0), cfg, pred)
        assert np.abs(out_a - out_b).max() > 1e-6


class TestEpsilonLoss:
    def test_oracle_is_zero(self):
        sched = make_schedule("linear", 100)
        rng = SeededRng(59)
        x0 = randn([3, 3], rng)
        eps = randn([3, 3], rng)
        assert epsilon_loss(x0, 60, eps, np.zeros_like(x0),
                            OraclePredictor(eps), sched) == 0.0

    def test_zero_predictor_gives_mean_square(self):
        sched = make_schedule("linear", 100)
        rng = SeededRng(60)
        x0 = randn([5], rng)
        eps = randn([5], rng)
        loss = epsilon_loss(x0, 30, eps, np.zeros_like(x0),
                            lambda x, c, t: np.zeros_like(x), sched)
        assert abs(loss - float(np.mean(eps ** 2))) < 1e-15

    def test_tinymlp_matches_golden(self):
        sched = make_schedule("linear", 100)
        rng = SeededRng(61)
        x0 = randn([4, 4], rng)
        eps = randn([4, 4], rng)
        loss = epsilon_loss(x0, 25, eps, x0 * 0.5, TinyMlpPredictor(999), sched)
        golden = json.loads((GOLDEN_DIR / "diffusion_golden.json").read_text())
        assert abs(loss - golden["tinymlp_epsilon_loss"]) < 1e-9 * max(1.0, abs(loss))


class TestVariationalBound:
    def _trajectory(self, x0, eps, sched):
        return [q_sample(x0, t, eps, sched) for t in range(1, sched.t_count + 1)]

    def test_oracle_kl_terms_vanish(self):
        sched = make_schedule("linear", 12)
        rng = SeededRng(62)
        x0 = randn([3, 3], rng)
        eps = randn([3, 3], rng)
        traj = self._trajectory(x0, eps, sched)
        kl_sum, recon = variational_bound_terms(x0, traj, np.zeros_like(x0),
                                                OraclePredictor(eps), sched)
        assert kl_sum < 1e-18
        assert variational_bound(x0, traj, np.zeros_like(x0),
                                 OraclePredictor(eps), sched) == pytest.approx(recon)

    def test_scalar_gaussian_kl_hand_formula(self):
        mu1, mu2, var = 0.7, -0.4, 0.3
        assert abs(gaussian_kl(np.array([mu1]), np.array([mu2]), var)
                   - (mu1 - mu2) ** 2 / (2 * var)) < 1e-15

    def test_doubling_mean_gap_quadruples_kl(self):
        sched = make_schedule("linear", 8)
        rng = SeededRng(63)
        x0 = randn([4], rng)
        eps = randn([4], rng)
        traj = self._trajectory(x0, eps, sched)
        shift = randn([4], rng) * 0.1

        def shifted(scale):
            return lambda x, c, t: eps + scale * shift

        kl1, _ = variational_bound_terms(x0, traj, np.zeros(4), shifted(1.0), sched)
        kl2, _ = variational_bound_terms(x0, traj, np.zeros(4), shifted(2.0), sched)
        assert kl2 == pytest.approx(4.0 * kl1, rel=1e-9)

    def test_kl_terms_nonnegative_random_predictor(self):
        sched = make_schedule("linear", 10)
        rng = SeededRng(64)
        x0 = randn([5], rng)
        eps = randn([5], rng)
        traj = self._trajectory(x0, eps, sched)
        kl_sum, _ = variational_bound_terms(x0, traj, x0 * 0.3,
                                            TinyMlpPredictor(5), sched)
        assert kl_sum >= 0.0

    def test_posterior_mean_equals_ddpm_form(self):
        # The noise-parameterized mean equals the classic x0/x_t mixture.
        sched = make_schedule("linear", 30)
        rng = SeededRng(65)
        x0 = randn([6], rng)
        eps = randn([6], rng)
        for t in (2, 13, 30):
            x_t = q_sample(x0, t, eps, sched)
            abar_t = sched.alpha_bar_at(t)
            abar_p = sched.alpha_bar_at(t - 1)
            beta_t = sched.beta_at(t)
            alpha_t = 1.0 - beta_t
            classic = (math.sqrt(abar_p) * beta_t * x0
                       + math.sqrt(alpha_t) * (1.0 - abar_p) * x_t) / (1.0 - abar_t)
            assert np.abs(posterior_mean(x0, x_t, t, sched) - classic).max() < 1e-12

    def test_inconsistent_trajectory_rejected(self):
        sched = make_schedule("linear", 6)
        rng = SeededRng(66)
        x0 = randn([3], rng)
        with pytest.raises(ValueError):
            variational_bound(x0, [x0] * 5, x0, OraclePredictor(x0), sched)
        with pytest.raises(ValueError):
            variational_bound(x0, [np.zeros(2)] * 6, x0, OraclePredictor(x0), sched)
