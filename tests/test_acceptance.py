"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to stream
them) and asserts the criterion at its stated tolerance.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from cfmw_kit import diffusion, fusion, metrics, ssm, weather
from cfmw_kit.detloss import (
    GridTargets,
    LossWeights,
    PredictionGrid,
    box_loss,
    cls_loss,
    conf_loss,
    total_loss,
)
from cfmw_kit.imageio import read_ppm, write_ppm
from cfmw_kit.tensor import SeededRng, randn

from test_fusion import zero_mlp
from test_metrics import brute_force_ap


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_scan_kernel_equivalence():
    rng = SeededRng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = 1 + int(rng.uniform(1)[0] * 8)
        length = 1 + int(rng.uniform(1)[0] * 64)
        d = ssm.discretize(ssm.ContinuousSsm.random(n, rng),
                           0.05 + rng.uniform(1)[0])
        x = rng.normal(length)
        dev = np.abs(ssm.scan(d, x)
                     - ssm.apply_kernel(x, ssm.kernel(d, length))).max()
        worst = max(worst, float(dev))
    elapsed = time.perf_counter() - t0
    _report(1, "scan/kernel equivalence on 200 random models",
            worst < 1e-10 and elapsed < 5.0,
            f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_zoh_first_order_limit():
    rng = SeededRng(1002)
    ok = True
    for _ in range(100):
        m = ssm.ContinuousSsm.random(4, rng)
        for delta in (1e-3, 1e-4, 1e-5):
            d = ssm.discretize(m, delta)
            za = delta * m.a
            ok &= bool(np.all(np.abs(d.a_bar - (1.0 + za)) <= 2.0 * za ** 2))
            ok &= bool(np.all(np.abs(d.b_bar - delta * m.b)
                              <= np.abs(za * delta * m.b) + 1e-300))
    _report(2, "ZOH discretization first-order limit bounds", ok)


def test_criterion_3_selective_scan_reduction_and_gradient():
    rng = SeededRng(1003)
    worst_reduction = 0.0
    for _ in range(50):
        n = 1 + int(rng.uniform(1)[0] * 6)
        d_ch = 1 + int(rng.uniform(1)[0] * 3)
        length = 1 + int(rng.uniform(1)[0] * 24)
        m = ssm.ContinuousSsm.random(n, rng)
        delta = 0.05 + rng.uniform(1)[0]
        p = ssm.SelectiveSsmParams.frozen(m, d_ch, delta)
        x = rng.normal(length * d_ch).reshape(length, d_ch)
        got = ssm.selective_scan(x, p)
        d = ssm.discretize(m, delta)
        for ch in range(d_ch):
            worst_reduction = max(
                worst_reduction,
                float(np.abs(got[:, ch] - ssm.scan(d, x[:, ch])).max()))

    worst_grad = 0.0
    for _ in range(5):
        n = 1 + int(rng.uniform(1)[0] * 4)
        d_ch = 1 + int(rng.uniform(1)[0] * 2)
        length = 2 + int(rng.uniform(1)[0] * 7)
        p = ssm.SelectiveSsmParams.random(d_ch, n, rng)
        x = rng.normal(length * d_ch).reshape(length, d_ch) * 0.7
        grad = ssm.selective_scan_input_grad(x, p)
        step = 1e-5
        fd = np.empty_like(grad)
        for i in range(length):
            for j in range(d_ch):
                xp = x.copy()
                xp[i, j] += step
                xm = x.copy()
                xm[i, j] -= step
                fd[i, j] = (ssm.selective_scan(xp, p).sum()
                            - ssm.selective_scan(xm, p).sum()) / (2 * step)
        scale = max(1.0, float(np.abs(grad).max()))
        worst_grad = max(worst_grad, float(np.abs(grad - fd).max()) / scale)
    _report(3, "selective-scan static reduction and gradient check",
            worst_reduction < 1e-10 and worst_grad < 1e-5,
            f"reduction {worst_reduction:.2e}, grad rel {worst_grad:.2e}")


def test_criterion_4_ddim_oracle_inversion():
    sched = diffusion.make_schedule("linear", 1000, 0.001, 0.02)
    rng = SeededRng(1004)
    worst_step = 0.0
    for _ in range(100):
        x0 = randn([3, 3], rng)
        eps = randn([3, 3], rng)
        t = 1 + int(rng.uniform(1)[0] * 1000)
        x_t = diffusion.q_sample(x0, t, eps, sched)
        back = diffusion.ddim_step(x_t, np.zeros_like(x0), t, 0,
                                   diffusion.OraclePredictor(eps), sched)
        worst_step = max(worst_step, float(np.abs(back - x0).max()))

    cfg = diffusion.DiffusionConfig(schedule=sched, n_sample_steps=50)
    worst_chain = 0.0
    for _ in range(10):
        x0 = randn([4, 4], rng)
        eps = randn([4, 4], rng)
        x_t = diffusion.q_sample(x0, 1000, eps, sched)
        out = diffusion.sample(x_t, np.zeros_like(x0), cfg,
                               diffusion.OraclePredictor(eps))
        worst_chain = max(worst_chain, float(np.abs(out - x0).max()))
    _report(4, "implicit-sampler oracle inversion (single step and 50-step chain)",
            worst_step < 1e-12 and worst_chain < 1e-8,
            f"step {worst_step:.2e}, chain {worst_chain:.2e}")


def test_criterion_5_schedule_contract():
    ok = True
    for kind in ("linear", "scaled_linear", "cosine"):
        for t_count in (10, 100, 1000):
            sched = diffusion.make_schedule(kind, t_count)
            ok &= bool(np.all(np.diff(sched.alpha_bar) < 0.0))
    lin = diffusion.make_schedule("linear", 1000, 0.001, 0.02)
    ok &= lin.beta[0] == 0.001 and lin.beta[-1] == 0.02
    _report(5, "schedule monotonicity and exact linear endpoints", ok)


def test_criterion_6_complexity_scaling():
    sizes = [2 ** k for k in range(6, 14)]
    t0 = time.perf_counter()
    rows, slopes = fusion.scaling_benchmark(sizes, c=32, n_state=16,
                                            repeats=2, seed=1006)
    elapsed = time.perf_counter() - t0
    ss2d_wall = slopes["ss2d_fusion_wall_slope"]
    attn_wall = slopes["attention_fusion_wall_slope"]
    ss2d_ops = slopes["ss2d_fusion_ops_slope"]
    attn_ops = slopes["attention_fusion_ops_slope"]
    largest = {r.path: r.ops for r in rows if r.n_tokens == sizes[-1]}
    ratio = largest["attention_fusion"] / largest["ss2d_fusion"]
    ok = (0.8 <= ss2d_wall <= 1.3 and 1.7 <= attn_wall <= 2.3
          and abs(ss2d_ops - 1.0) <= 0.05 and abs(attn_ops - 2.0) <= 0.05
          and ratio >= 3.0 and elapsed < 120.0)
    _report(6, "linear-vs-quadratic fusion scaling",
            ok,
            f"wall slopes {ss2d_wall:.2f}/{attn_wall:.2f}, "
            f"ops slopes {ss2d_ops:.3f}/{attn_ops:.3f}, "
            f"ops ratio {ratio:.1f}, {elapsed:.1f}s")


def test_criterion_7_fusion_block_algebra():
    rng = SeededRng(1007)
    feats = fusion.ModalityFeatures(f_r=rng.normal(2 * 6 * 8).reshape(2, 6, 8),
                                    f_t=rng.normal(2 * 6 * 8).reshape(2, 6, 8))
    once = fusion.shallow_swap(feats, residual=False)
    twice = fusion.shallow_swap(once, residual=False)
    involution = (np.array_equal(twice.f_r, feats.f_r)
                  and np.array_equal(twice.f_t, feats.f_t))

    base = fusion.FusionBlockParams.random(4, 2, 2, 2, rng,
                                           residual_mode="straight",
                                           zero_offsets=True)
    gated = fusion.FusionBlockParams(
        grid_h=2, grid_w=2,
        norm_scale_r=base.norm_scale_r, norm_offset_r=base.norm_offset_r,
        norm_scale_t=base.norm_scale_t, norm_offset_t=base.norm_offset_t,
        gate_r=zero_mlp(base.gate_r), gate_t=zero_mlp(base.gate_t),
        out_mlp=base.out_mlp, ss2d_r=base.ss2d_r, ss2d_t=base.ss2d_t,
        residual_mode="straight")
    small = fusion.ModalityFeatures(f_r=rng.normal(16).reshape(1, 4, 4),
                                    f_t=rng.normal(16).reshape(1, 4, 4))
    collapsed = fusion.fuse(small, gated)
    zero_gate = (np.array_equal(collapsed.f_r, 2.0 * small.f_r)
                 and np.array_equal(collapsed.f_t, 2.0 * small.f_t))

    shapes_ok = True
    for _ in range(50):
        b = 1 + int(rng.uniform(1)[0] * 2)
        gh = 1 + int(rng.uniform(1)[0] * 3)
        gw = 1 + int(rng.uniform(1)[0] * 3)
        c = 2 * (1 + int(rng.uniform(1)[0] * 3))
        n = gh * gw
        f = fusion.ModalityFeatures(
            f_r=rng.normal(b * n * c).reshape(b, n, c),
            f_t=rng.normal(b * n * c).reshape(b, n, c))
        p = fusion.FusionBlockParams.random(c, 1 + int(rng.uniform(1)[0] * 3),
                                            gh, gw, rng)
        shapes_ok &= fusion.fuse(f, p).shape == f.shape
    _report(7, "fusion block algebra (swap involution, zero-gate collapse, shapes)",
            involution and zero_gate and shapes_ok)


def test_criterion_8_weather_compositors():
    rng = SeededRng(1008)
    img = np.floor(rng.uniform(16 * 16 * 3).reshape(16, 16, 3) * 256).clip(0, 255)
    overlay = np.floor(rng.uniform(16 * 16 * 3).reshape(16, 16, 3) * 256).clip(0, 255)
    zero_mask = np.zeros((16, 16))
    one_mask = np.ones((16, 16))
    identities = (np.array_equal(weather.apply_rain(img, zero_mask, overlay), img)
                  and np.array_equal(weather.apply_rain(img, one_mask, overlay),
                                     overlay)
                  and np.array_equal(weather.apply_snow(img, zero_mask, overlay),
                                     img))
    beta_zero = np.array_equal(
        weather.apply_fog(img, np.full((16, 16), 5.0), 0.0, 255.0), img)

    def simpson(f, a, b, n=20000):
        xs = np.linspace(a, b, n + 1)
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return (b - a) / n / 3.0 * float(w @ f(xs))

    worst = 0.0
    for _ in range(50):
        beta = 0.05 + 2.5 * rng.uniform(1)[0]
        d = 0.1 + 4.0 * rng.uniform(1)[0]
        j = 255.0 * rng.uniform(1)[0]
        l_inf = 255.0 * rng.uniform(1)[0]
        got = weather.apply_fog(np.full((1, 1), j), np.full((1, 1), d),
                                beta, l_inf)[0, 0]
        want = (j * math.exp(-simpson(lambda s: np.full_like(s, beta), 0, d))
                + simpson(lambda s: l_inf * beta * np.exp(-beta * s), 0, d))
        worst = max(worst, abs(got - min(max(want, 0.0), 255.0)))

    in_range = True
    for kind in ("rain", "snow", "fog"):
        if kind == "rain":
            mask, ov = weather.gen_rain(16, 16, seed=3, density=0.05)
            out = weather.apply_rain(img, mask, ov)
        elif kind == "snow":
            mask, ov = weather.gen_snow(16, 16, seed=3, density=0.05)
            out = weather.apply_snow(img, mask, ov)
        else:
            out = weather.apply_fog(img, weather.gen_depth("radial", 16, 16,
                                                           max_depth=4.0),
                                    0.7, 240.0)
        in_range &= bool(out.min() >= 0.0 and out.max() <= 255.0)
    _report(8, "weather compositors (identities, integral oracle, range)",
            identities and beta_zero and worst < 1e-9 and in_range,
            f"fog-vs-quadrature {worst:.2e}")


def test_criterion_9_metrics_fixtures():
    zero_db = metrics.psnr(np.zeros((2, 2)), np.full((2, 2), 255.0))
    quarter = metrics.psnr(np.array([[255.0, 0.0], [0.0, 0.0]]), np.zeros((2, 2)))
    psnr_ok = abs(zero_db) < 1e-9 and abs(quarter - 10 * math.log10(4.0)) < 1e-9

    rng = SeededRng(1009)
    img = rng.uniform(16 * 16).reshape(16, 16) * 255.0
    ssim_ok = abs(metrics.ssim(img, img) - 1.0) < 1e-12

    giou_ok = (metrics.giou((0, 0, 1, 1), (1, 1, 2, 2)) == -0.5
               and metrics.giou((0, 0, 2, 2), (0, 0, 1, 2)) == 0.5
               and metrics.giou((1, 1, 3, 3), (1, 1, 3, 3)) == 1.0)

    gts = metrics.GroundTruth([(0, 0, 0, 10, 10),
                               (0, 20, 20, 30, 30)])
    dets = metrics.Detections([(0, 0, 0, 10, 10, 0.9),
                               (0, 100, 100, 105, 105, 0.8),
                               (0, 20, 20, 30, 30, 0.7)])
    ap = metrics.average_precision([(dets, gts)], 0, 0.5)
    ap_ok = ap == 0.75 and ap == brute_force_ap([(dets, gts)], 0, 0.5)

    sweep = metrics.mean_ap([(metrics.Detections([(0, 0, 0, 10, 6, 0.9)]),
                              metrics.GroundTruth([(0, 0, 0, 10, 10)]))])
    sweep_ok = (sweep.map50 == 1.0 and sweep.map75 == 0.0
                and sweep.map_mean == 0.3)
    _report(9, "metric fixtures (PSNR, SSIM, GIoU, AP, mAP sweep)",
            psnr_ok and ssim_ok and giou_ok and ap_ok and sweep_ok)


def test_criterion_10_detection_losses():
    cells, n, k = 4, 2, 3
    boxes = np.tile(np.array([0.0, 0.0, 1.0, 1.0]), (cells, n, 1))
    probs = np.zeros((cells, n, k))
    probs[:, :, 0] = 1.0
    obj = np.zeros((cells, n), dtype=bool)
    obj[1, 0] = True
    noobj = np.zeros((cells, n), dtype=bool)
    noobj[2, 1] = True

    perfect = PredictionGrid(boxes=boxes,
                             confidence=np.where(obj, 1.0, 0.0),
                             class_probs=probs, obj_mask=obj, noobj_mask=noobj)
    targets = GridTargets(boxes=boxes.copy(), class_probs=probs.copy())
    perfect_ok = total_loss(perfect, targets) == 0.0

    t_boxes = boxes.copy()
    t_boxes[1, 0] = [1.0, 1.0, 2.0, 2.0]       # disjoint-adjacent: GIoU -1/2
    lossy_probs = probs.copy()
    lossy_probs[1, 0] = [0.5, 0.3, 0.2]
    conf = np.where(obj, 1.0, 0.0)
    conf[2, 1] = 0.3
    conf[1, 0] = 0.6
    lossy = PredictionGrid(boxes=boxes, confidence=conf,
                           class_probs=lossy_probs, obj_mask=obj,
                           noobj_mask=noobj)
    lossy_targets = GridTargets(boxes=t_boxes, class_probs=probs.copy())
    box_v = box_loss(lossy, lossy_targets)
    cls_v = cls_loss(lossy, lossy_targets)
    noobj_v, obj_v = conf_loss(lossy, lossy_targets)
    fixtures_ok = (abs(box_v - 1.5) < 1e-12 and abs(cls_v - math.log(2)) < 1e-12
                   and abs(noobj_v - 0.09) < 1e-12 and abs(obj_v - 0.16) < 1e-12)

    affine_ok = True
    comps = {"lambda_box": box_v, "lambda_cls": cls_v,
             "lambda_conf": noobj_v + obj_v}
    for name, comp in comps.items():
        vals = [total_loss(lossy, lossy_targets, LossWeights(**{name: lam}))
                for lam in (0.0, 1.0, 2.0)]
        affine_ok &= (abs((vals[1] - vals[0]) - comp) < 1e-12
                      and abs((vals[2] - vals[1]) - comp) < 1e-12)
    _report(10, "detection losses (perfect zero, hand fixtures, weight affinity)",
            perfect_ok and fixtures_ok and affine_ok)


def _run_pipeline(workdir: Path, clean: Path) -> dict[str, bytes]:
    module = [sys.executable, "-m", "cfmw_kit"]
    steps = [
        ["synth", "--input", str(clean), "--weather", "fog", "--beta", "0.5",
         "--depth-mode", "vertical_gradient", "--seed", "11",
         "--out", str(workdir)],
        ["restore", "--input", str(workdir / "clean_fog.ppm"),
         "--predictor", "oracle", "--clean", str(clean), "--seed", "11",
         "--out", str(workdir)],
        ["eval", "--clean", str(clean),
         "--image", str(workdir / "clean_fog_restored.ppm"),
         "--out", str(workdir)],
    ]
    for argv in steps:
        proc = subprocess.run(module + argv, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    return {name: (workdir / name).read_bytes()
            for name in ("clean_fog.ppm", "synth_manifest.txt",
                         "clean_fog_restored.ppm", "clean_fog_residuals.csv",
                         "metrics.csv")}


def test_criterion_11_end_to_end_pipeline(tmp_path):
    yy, xx = np.mgrid[0:64, 0:64]
    pixels = np.stack([np.rint(yy * 255 / 63), np.rint(xx * 255 / 63),
                       ((yy + xx) % 16) * 12.0], axis=2).astype(np.float64)
    clean = tmp_path / "clean.ppm"
    write_ppm(clean, pixels)

    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    out_a = _run_pipeline(run_a, clean)
    out_b = _run_pipeline(run_b, clean)
    reruns_identical = out_a == out_b

    restored_cap = b"psnr,99.0\n" in out_a["metrics.csv"]
    degraded_psnr = metrics.psnr(read_ppm(clean), read_ppm(run_a / "clean_fog.ppm"))
    restored_psnr = metrics.psnr(read_ppm(clean),
                                 read_ppm(run_a / "clean_fog_restored.ppm"))
    ordering = degraded_psnr < restored_psnr
    _report(11, "end-to-end synth/restore/eval pipeline",
            reruns_identical and restored_cap and ordering,
            f"degraded {degraded_psnr:.1f} dB < restored {restored_psnr:.1f} dB, "
            f"rerun identical={reruns_identical}")
