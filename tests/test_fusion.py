import json
import math
from pathlib import Path

import numpy as np
import pytest

from cfmw_kit.fusion import (
    AttentionFusionParams,
    FusionBlockParams,
    Mlp3,
    ModalityFeatures,
    PatchEmbedding,
    attention_fusion_baseline,
    count_ops,
    fit_loglog_slope,
    fuse,
    inject,
    load_fusion_params,
    patch_embed,
    save_fusion_params,
    shallow_swap,
)
from cfmw_kit.ssm import OpCounter
from cfmw_kit.tensor import SeededRng

GOLDEN_DIR = Path(__file__).parent / "golden"


# --------------------------------------------------------------------------
# Straight-line reference implementation (plain Python loops, no shared code
# with the library's vectorized paths beyond parameter containers).

def _ref_sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v)) if v >= 0 else math.exp(v) / (1.0 + math.exp(v))


def _ref_silu(v):
    return v * _ref_sigmoid(v)


def _ref_softplus(v):
    return v if v > 30.0 else math.log1p(math.exp(min(v, 30.0)))


def _ref_phi(z):
    return 1.0 if abs(z) < 1e-8 else math.expm1(z) / z


def _ref_selective_scan(tokens, p):
    d_ch, n = p.d_channels, p.n_state
    h = [[0.0] * n for _ in range(d_ch)]
    ys = []
    for x in tokens:
        s = [sum(p.w_delta[d][j] * x[j] for j in range(d_ch)) + p.u_delta[d]
             for d in range(d_ch)]
        delta = [_ref_softplus(v) for v in s]
        b_t = [sum(p.w_b[i][j] * x[j] for j in range(d_ch)) + p.u_b[i] for i in range(n)]
        c_t = [sum(p.w_c[i][j] * x[j] for j in range(d_ch)) + p.u_c[i] for i in range(n)]
        y = []
        for d in range(d_ch):
            acc = 0.0
            for i in range(n):
                z = delta[d] * p.a[d][i]
                b_bar = _ref_phi(z) * delta[d] * b_t[i]
                h[d][i] = math.exp(z) * h[d][i] + b_bar * x[d]
                acc += c_t[i] * h[d][i]
            y.append(acc)
        ys.append(y)
    return ys


def _ref_ss2d(grid, p):
    h, w, d = grid.shape
    row = [(i, j) for i in range(h) for j in range(w)]
    col = [(i, j) for j in range(w) for i in range(h)]
    outs = []
    for order, params in ((row, p.row_fwd), (row[::-1], p.row_bwd),
                          (col, p.col_fwd), (col[::-1], p.col_bwd)):
        tokens = [list(grid[i, j]) for (i, j) in order]
        ys = _ref_selective_scan(tokens, params)
        out = np.zeros_like(grid)
        for (i, j), y in zip(order, ys):
            out[i, j] = y
        outs.append(out)
    return (outs[0] + outs[1]) + (outs[2] + outs[3])


def _ref_layer_norm(row, scale, offset):
    c = len(row)
    mu = sum(row) / c
    var = sum((v - mu) ** 2 for v in row) / c
    inv = 1.0 / math.sqrt(var + 1e-6)
    return [(v - mu) * inv * scale[k] + offset[k] for k, v in enumerate(row)]


def _ref_mlp3(row, mlp):
    h = mlp.w1.shape[1]
    c = mlp.w1.shape[0]
    h1 = [_ref_silu(sum(row[i] * mlp.w1[i][j] for i in range(c)) + mlp.b1[j])
          for j in range(h)]
    h2 = [_ref_silu(sum(h1[i] * mlp.w2[i][j] for i in range(h)) + mlp.b2[j])
          for j in range(h)]
    return [sum(h2[i] * mlp.w3[i][j] for i in range(h)) + mlp.b3[j] for j in range(c)]


def _ref_fuse(f_r, f_t, p):
    n, c = f_r.shape
    nr = np.array([_ref_layer_norm(list(f_r[t]), p.norm_scale_r, p.norm_offset_r)
                   for t in range(n)])
    nt = np.array([_ref_layer_norm(list(f_t[t]), p.norm_scale_t, p.norm_offset_t)
                   for t in range(n)])
    zr = np.array([_ref_mlp3(list(nr[t]), p.gate_r) for t in range(n)])
    zt = np.array([_ref_mlp3(list(nt[t]), p.gate_t) for t in range(n)])
    yr = _ref_ss2d(nr.reshape(p.grid_h, p.grid_w, c), p.ss2d_r).reshape(n, c)
    yt = _ref_ss2d(nt.reshape(p.grid_h, p.grid_w, c), p.ss2d_t).reshape(n, c)
    gyr = yr * np.vectorize(_ref_silu)(zr)
    gyt = yt * np.vectorize(_ref_silu)(zt)
    shared = np.array([_ref_mlp3(list((gyr + gyt)[t]), p.out_mlp) for t in range(n)])
    if p.residual_mode == "crossed":
        hat_r, hat_t = shared + f_t, shared + f_r
    else:
        hat_r, hat_t = shared + f_r, shared + f_t
    return f_r + hat_r, f_t + hat_t


def _small_case(seed=1234):
    rng = SeededRng(seed)
    feats = ModalityFeatures(f_r=rng.normal(16).reshape(1, 4, 4),
                             f_t=rng.normal(16).reshape(1, 4, 4))
    params = FusionBlockParams.random(4, 2, 2, 2, rng)
    return feats, params


# --------------------------------------------------------------------------

class TestPatchEmbed:
    def test_identity_projection_returns_raw_patches(self):
        rng = SeededRng(30)
        h = w = 4
        p = 2
        c_in = 3
        d = p * p * c_in
        image = rng.normal(h * w * c_in).reshape(h, w, c_in)
        pe = PatchEmbedding(patch=p, w=np.eye(d), e_pos=np.zeros((5, d)),
                            cls_token=np.zeros(d), use_cls=False)
        tokens = patch_embed(image, pe)
        flat = (image.reshape(2, 2, 2, 2, c_in).transpose(0, 2, 1, 3, 4)
                .reshape(4, d))
        assert np.array_equal(tokens, flat)

    def test_single_patch_and_cls(self):
        rng = SeededRng(31)
        image = rng.normal(3 * 3 * 2).reshape(3, 3, 2)
        pe = PatchEmbedding.random(3, 2, 5, 1, rng, use_cls=True)
        tokens = patch_embed(image, pe)
        assert tokens.shape == (2, 5)
        assert np.array_equal(tokens[0], pe.cls_token + pe.e_pos[0])

    def test_brute_force_oracle(self):
        rng = SeededRng(32)
        image = rng.normal(4 * 4 * 3).reshape(4, 4, 3)
        pe = PatchEmbedding.random(2, 3, 6, 4, rng, use_cls=False)
        tokens = patch_embed(image, pe)
        idx = 0
        for pi in range(2):
            for pj in range(2):
                vec = [image[pi * 2 + a, pj * 2 + b, ch]
                       for a in range(2) for b in range(2) for ch in range(3)]
                expected = np.array(vec) @ pe.w + pe.e_pos[idx + 1]
                assert np.abs(tokens[idx] - expected).max() < 1e-12
                idx += 1

    def test_indivisible_size_rejected(self):
        pe = PatchEmbedding.random(3, 1, 4, 4, SeededRng(33))
        with pytest.raises(ValueError):
            patch_embed(np.zeros((4, 6, 1)), pe)


class TestShallowSwap:
    def test_equal_inputs_double(self):
        rng = SeededRng(34)
        f = rng.normal(2 * 3 * 4).reshape(2, 3, 4)
        out = shallow_swap(ModalityFeatures(f_r=f, f_t=f.copy()))
        assert np.array_equal(out.f_r, 2 * f)
        assert np.array_equal(out.f_t, 2 * f)

    def test_pure_swap_is_involution(self):
        rng = SeededRng(35)
        m = ModalityFeatures(f_r=rng.normal(24).reshape(1, 3, 8),
                             f_t=rng.normal(24).reshape(1, 3, 8))
        once = shallow_swap(m, residual=False)
        twice = shallow_swap(once, residual=False)
        assert np.array_equal(twice.f_r, m.f_r)
        assert np.array_equal(twice.f_t, m.f_t)

    def test_hand_channels(self):
        ones = np.ones((1, 2, 4))
        zeros = np.zeros((1, 2, 4))
        out = shallow_swap(ModalityFeatures(f_r=ones, f_t=zeros))
        assert np.array_equal(out.f_r[0, 0], [2.0, 2.0, 1.0, 1.0])
        assert np.array_equal(out.f_t[0, 0], [0.0, 0.0, 1.0, 1.0])

    def test_odd_channels_rejected(self):
        with pytest.raises(ValueError):
            ModalityFeatures(f_r=np.zeros((1, 2, 3)), f_t=np.zeros((1, 2, 3)))


class TestFuse:
    def test_zero_inputs_zero_outputs(self):
        rng = SeededRng(36)
        p = FusionBlockParams.random(4, 2, 2, 3, rng, zero_offsets=True)
        feats = ModalityFeatures(f_r=np.zeros((2, 6, 4)), f_t=np.zeros((2, 6, 4)))
        out = fuse(feats, p)
        assert np.all(out.f_r == 0.0) and np.all(out.f_t == 0.0)

    def test_zero_gate_collapse_straight(self):
        # Zero gate MLPs kill the scanned branch; zero out-MLP biases make the
        # shared projection vanish, leaving exactly doubled inputs.
        rng = SeededRng(37)
        base = FusionBlockParams.random(4, 2, 2, 2, rng, residual_mode="straight",
                                        zero_offsets=True)
        p = FusionBlockParams(
            grid_h=2, grid_w=2,
            norm_scale_r=base.norm_scale_r, norm_offset_r=base.norm_offset_r,
            norm_scale_t=base.norm_scale_t, norm_offset_t=base.norm_offset_t,
            gate_r=Mlp3.zero(4), gate_t=Mlp3.zero(4), out_mlp=base.out_mlp,
            ss2d_r=base.ss2d_r, ss2d_t=base.ss2d_t, residual_mode="straight")
        feats = ModalityFeatures(f_r=rng.normal(16).reshape(1, 4, 4),
                                 f_t=rng.normal(16).reshape(1, 4, 4))
        out = fuse(feats, p)
        assert np.array_equal(out.f_r, 2.0 * feats.f_r)
        assert np.array_equal(out.f_t, 2.0 * feats.f_t)

    def test_zero_gate_collapse_crossed(self):
        rng = SeededRng(38)
        base = FusionBlockParams.random(4, 2, 2, 2, rng, zero_offsets=True)
        p = FusionBlockParams(
            grid_h=2, grid_w=2,
            norm_scale_r=base.norm_scale_r, norm_offset_r=base.norm_offset_r,
            norm_scale_t=base.norm_scale_t, norm_offset_t=base.norm_offset_t,
            gate_r=Mlp3.zero(4), gate_t=Mlp3.zero(4), out_mlp=base.out_mlp,
            ss2d_r=base.ss2d_r, ss2d_t=base.ss2d_t, residual_mode="crossed")
        feats = ModalityFeatures(f_r=rng.normal(16).reshape(1, 4, 4),
                                 f_t=rng.normal(16).reshape(1, 4, 4))
        out = fuse(feats, p)
        assert np.array_equal(out.f_r, feats.f_r + feats.f_t)
        assert np.array_equal(out.f_t, feats.f_t + feats.f_r)

    def test_matches_straight_line_reference(self):
        feats, params = _small_case()
        out = fuse(feats, params)
        ref_r, ref_t = _ref_fuse(feats.f_r[0], feats.f_t[0], params)
        assert np.abs(out.f_r[0] - ref_r).max() < 1e-10
        assert np.abs(out.f_t[0] - ref_t).max() < 1e-10

    def test_matches_golden_file(self):
        feats, params = _small_case()
        out = fuse(feats, params)
        golden = json.loads((GOLDEN_DIR / "fuse_small.json").read_text())
        assert np.abs(out.f_r[0] - np.array(golden["f_r"])).max() < 1e-10
        assert np.abs(out.f_t[0] - np.array(golden["f_t"])).max() < 1e-10

    def test_shape_preserved_random_configs(self):
        rng = SeededRng(39)
        for _ in range(50):
            b = 1 + int(rng.uniform(1)[0] * 2)
            gh = 1 + int(rng.uniform(1)[0] * 3)
            gw = 1 + int(rng.uniform(1)[0] * 3)
            c = 2 * (1 + int(rng.uniform(1)[0] * 3))
            n_state = 1 + int(rng.uniform(1)[0] * 3)
            mode = "crossed" if rng.uniform(1)[0] < 0.5 else "straight"
            n = gh * gw
            feats = ModalityFeatures(
                f_r=rng.normal(b * n * c).reshape(b, n, c),
                f_t=rng.normal(b * n * c).reshape(b, n, c))
            p = FusionBlockParams.random(c, n_state, gh, gw, rng, residual_mode=mode)
            out = fuse(feats, p)
            assert out.shape == feats.shape
            sw = shallow_swap(feats)
            assert sw.shape == feats.shape

    def test_deterministic(self):
        feats, params = _small_case(77)
        a = fuse(feats, params)
        b = fuse(feats, params)
        assert np.array_equal(a.f_r, b.f_r) and np.array_equal(a.f_t, b.f_t)

    def test_bad_grid_rejected(self):
        rng = SeededRng(40)
        p = FusionBlockParams.random(4, 2, 2, 3, rng)
        feats = ModalityFeatures(f_r=np.zeros((1, 5, 4)), f_t=np.zeros((1, 5, 4)))
        with pytest.raises(ValueError):
            fuse(feats, p)


class TestInject:
    def _feats(self, rng, n=3, c=4):
        return ModalityFeatures(f_r=rng.normal(n * c).reshape(1, n, c),
                                f_t=rng.normal(n * c).reshape(1, n, c))

    def test_zero_fused_is_identity(self):
        rng = SeededRng(41)
        backbone = {2: self._feats(rng), 3: self._feats(rng)}
        zeros = {k: ModalityFeatures(f_r=np.zeros_like(v.f_r),
                                     f_t=np.zeros_like(v.f_t))
                 for k, v in backbone.items()}
        out = inject(backbone, zeros)
        for k in backbone:
            assert np.array_equal(out[k].f_r, backbone[k].f_r)
            assert np.array_equal(out[k].f_t, backbone[k].f_t)

    def test_single_level_only_that_level_changes(self):
        rng = SeededRng(42)
        backbone = {2: self._feats(rng), 3: self._feats(rng), 4: self._feats(rng)}
        add = {3: self._feats(rng)}
        out = inject(backbone, add)
        assert np.array_equal(out[2].f_r, backbone[2].f_r)
        assert np.array_equal(out[4].f_t, backbone[4].f_t)
        assert np.array_equal(out[3].f_r, backbone[3].f_r + add[3].f_r)

    def test_three_levels_equal_independent_adds(self):
        rng = SeededRng(43)
        backbone = {k: self._feats(rng) for k in (2, 3, 4)}
        fused = {k: self._feats(rng) for k in (2, 3, 4)}
        out = inject(backbone, fused)
        for k in (2, 3, 4):
            assert np.array_equal(out[k].f_r, backbone[k].f_r + fused[k].f_r)
            assert np.array_equal(out[k].f_t, backbone[k].f_t + fused[k].f_t)

    def test_bad_level_rejected(self):
        rng = SeededRng(44)
        with pytest.raises(ValueError):
            inject({5: self._feats(rng)}, {})
        backbone = {2: self._feats(rng)}
        with pytest.raises(ValueError):
            inject(backbone, {3: self._feats(rng)})


class TestAttentionBaseline:
    def test_single_identical_tokens_return_v_projection(self):
        rng = SeededRng(45)
        token = rng.normal(4)
        p = AttentionFusionParams.random(4, 3, rng)
        feats = ModalityFeatures(f_r=token.reshape(1, 1, 4),
                                 f_t=token.reshape(1, 1, 4))
        out = attention_fusion_baseline(feats, p)
        expected = token @ p.w_v
        assert np.abs(out.f_r[0, 0] - expected).max() < 1e-12
        assert np.abs(out.f_t[0, 0] - expected).max() < 1e-12

    def test_softmax_rows_sum_to_one(self):
        # The row-blocked result must equal a dense oracle whose weight rows
        # are normalised to sum to one.
        rng = SeededRng(46)
        feats = ModalityFeatures(f_r=rng.normal(5 * 4).reshape(1, 5, 4),
                                 f_t=rng.normal(5 * 4).reshape(1, 5, 4))
        p = AttentionFusionParams.random(4, 4, rng)
        tokens = np.vstack([feats.f_r[0], feats.f_t[0]])
        scores = (tokens @ p.w_q) @ (tokens @ p.w_k).T / math.sqrt(p.d_k)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        want = weights @ (tokens @ p.w_v)
        out = attention_fusion_baseline(feats, p, block_rows=3)
        assert np.abs(out.f_r[0] - want[:5]).max() < 1e-12
        assert np.abs(out.f_t[0] - want[5:]).max() < 1e-12

    def test_counted_ops_scale_quadratically(self):
        rng = SeededRng(47)
        counts = {}
        for n in (64, 128, 256):
            feats = ModalityFeatures(f_r=rng.normal(n * 4).reshape(1, n, 4),
                                     f_t=rng.normal(n * 4).reshape(1, n, 4))
            p = AttentionFusionParams.random(4, 8, rng)
            counter = OpCounter()
            attention_fusion_baseline(feats, p, counter=counter)
            assert counter.macs == count_ops("attention_fusion", n, 4, 1, d_k=8)
            counts[n] = counter.macs
        assert 3.8 <= counts[128] / counts[64] <= 4.0
        assert 3.8 <= counts[256] / counts[128] <= 4.0

    def test_blocked_equals_unblocked(self):
        rng = SeededRng(48)
        feats = ModalityFeatures(f_r=rng.normal(20 * 4).reshape(1, 20, 4),
                                 f_t=rng.normal(20 * 4).reshape(1, 20, 4))
        p = AttentionFusionParams.random(4, 4, rng)
        full = attention_fusion_baseline(feats, p, block_rows=4096)
        blocked = attention_fusion_baseline(feats, p, block_rows=7)
        assert np.abs(full.f_r - blocked.f_r).max() < 1e-12


class TestCountOps:
    def test_ss2d_fusion_doubles_exactly(self):
        for n in (64, 256, 1024):
            assert count_ops("ss2d_fusion", 2 * n, 32, 16) \
                == 2 * count_ops("ss2d_fusion", n, 32, 16)

    def test_attention_ratio_in_band(self):
        for n in (64, 256, 1024, 4096):
            ratio = count_ops("attention_fusion", 2 * n, 32, 16) \
                / count_ops("attention_fusion", n, 32, 16)
            assert 3.8 <= ratio <= 4.0

    def test_attention_ratio_grows_toward_four(self):
        ratios = [count_ops("attention_fusion", 2 * n, 32, 16)
                  / count_ops("attention_fusion", n, 32, 16)
                  for n in (64, 256, 1024, 4096)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_fuse_counter_matches_count_ops(self):
        rng = SeededRng(49)
        for gh, gw, c, n_state in ((2, 2, 4, 2), (2, 4, 6, 3)):
            n = gh * gw
            feats = ModalityFeatures(f_r=rng.normal(n * c).reshape(1, n, c),
                                     f_t=rng.normal(n * c).reshape(1, n, c))
            p = FusionBlockParams.random(c, n_state, gh, gw, rng)
            counter = OpCounter()
            fuse(feats, p, counter=counter)
            assert counter.macs == count_ops("ss2d_fusion", n, c, n_state)

    def test_complexity_law_slopes(self):
        ns = [2 ** k for k in range(6, 15)]
        ss2d_ops = [count_ops("ss2d_fusion", n, 32, 16) for n in ns]
        attn_ops = [count_ops("attention_fusion", n, 32, 16) for n in ns]
        assert abs(fit_loglog_slope(ns, ss2d_ops) - 1.0) <= 0.05
        assert abs(fit_loglog_slope(ns, attn_ops) - 2.0) <= 0.05

    def test_rejects_bad_sizes_and_path(self):
        with pytest.raises(ValueError):
            count_ops("ss2d_fusion", 0, 4, 2)
        with pytest.raises(ValueError):
            count_ops("wat", 4, 4, 2)


class TestParamsIO:
    def test_save_load_round_trip(self, tmp_path):
        feats, params = _small_case(91)
        save_fusion_params(params, tmp_path / "blk")
        loaded = load_fusion_params(tmp_path / "blk")
        a = fuse(feats, params)
        b = fuse(feats, loaded)
        assert np.array_equal(a.f_r, b.f_r)
        assert np.array_equal(a.f_t, b.f_t)
        assert loaded.residual_mode == params.residual_mode
