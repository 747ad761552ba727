import hashlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from cfmw_kit.cli import _embed_pair, main
from cfmw_kit.fusion import count_ops
from cfmw_kit.imageio import write_ppm
from cfmw_kit.tensor import SeededRng


def _clean_image(h=32, w=32):
    yy, xx = np.mgrid[0:h, 0:w]
    r = np.rint(yy * 255.0 / (h - 1))
    g = np.rint(xx * 255.0 / (w - 1))
    b = ((yy + xx) % 16) * 12.0
    return np.stack([r, g, b], axis=2).astype(np.float64)


@pytest.fixture
def clean_ppm(tmp_path):
    path = tmp_path / "clean.ppm"
    write_ppm(path, _clean_image())
    return path


def _run(*argv):
    return main([str(a) for a in argv])


class TestSchedule:
    def test_rows_and_endpoints(self, tmp_path):
        assert _run("schedule", "--kind", "linear", "--t-count", 100,
                    "--out", tmp_path) == 0
        lines = (tmp_path / "schedule.csv").read_text().splitlines()
        assert lines[0] == "t,beta,alpha,alpha_bar"
        assert len(lines) == 101
        assert lines[1].startswith("1,0.001,")
        assert lines[-1].split(",")[1] == "0.02"

    def test_alpha_bar_decreasing(self, tmp_path):
        _run("schedule", "--kind", "cosine", "--t-count", 50, "--out", tmp_path)
        rows = (tmp_path / "schedule.csv").read_text().splitlines()[1:]
        abars = [float(r.split(",")[3]) for r in rows]
        assert all(b < a for a, b in zip(abars, abars[1:]))

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _run("schedule", "--t-count", 20, "--out", a)
        _run("schedule", "--t-count", 20, "--out", b)
        assert (a / "schedule.csv").read_bytes() == (b / "schedule.csv").read_bytes()

    def test_bad_bounds_exit_code(self, tmp_path, capsys):
        code = _run("schedule", "--beta-start", 0.5, "--beta-end", 0.1,
                    "--out", tmp_path)
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSynth:
    def test_fog_beta_zero_identity(self, tmp_path, clean_ppm):
        out = tmp_path / "out"
        assert _run("synth", "--input", clean_ppm, "--weather", "fog",
                    "--beta", 0.0, "--out", out) == 0
        degraded = out / "clean_fog.ppm"
        assert degraded.read_bytes() == clean_ppm.read_bytes()

    def test_deterministic_rerun(self, tmp_path, clean_ppm):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            _run("synth", "--input", clean_ppm, "--weather", "rain",
                 "--density", 0.01, "--seed", 7, "--out", out)
        assert (a / "clean_rain.ppm").read_bytes() == (b / "clean_rain.ppm").read_bytes()
        assert (a / "synth_manifest.txt").read_bytes() \
            == (b / "synth_manifest.txt").read_bytes()

    def test_manifest_line_per_image(self, tmp_path):
        imgs = []
        for i in range(3):
            p = tmp_path / f"img{i}.ppm"
            write_ppm(p, _clean_image(16, 16))
            imgs.append(p)
        out = tmp_path / "out"
        assert _run("synth", "--input", *imgs, "--weather", "snow",
                    "--density", 0.02, "--out", out) == 0
        lines = (out / "synth_manifest.txt").read_text().splitlines()
        assert len(lines) == 3
        assert all("weather=snow" in ln and "clean=" in ln for ln in lines)

    def test_weather_changes_pixels(self, tmp_path, clean_ppm):
        out = tmp_path / "out"
        _run("synth", "--input", clean_ppm, "--weather", "fog", "--beta", 0.8,
             "--depth-mode", "radial", "--max-depth", 3.0, "--out", out)
        assert (out / "clean_fog.ppm").read_bytes() != clean_ppm.read_bytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_colliding_output_names_rejected(self, tmp_path, capsys, threads):
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            write_ppm(tmp_path / d / "x.ppm", _clean_image(16, 16))
        out = tmp_path / "out"
        assert _run("synth", "--input", tmp_path / "a" / "x.ppm", tmp_path / "b" / "x.ppm",
                    "--weather", "rain", "--threads", threads, "--out", out) == 1
        err = capsys.readouterr().err
        assert f"inputs {tmp_path / 'a' / 'x.ppm'} and {tmp_path / 'b' / 'x.ppm'}" in err
        assert "x_rain.ppm" in err
        assert not out.exists()

    def test_unreadable_input(self, tmp_path, capsys):
        code = _run("synth", "--input", tmp_path / "missing.ppm",
                    "--weather", "fog", "--out", tmp_path)
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ("rain", "--angle", "nan"), ("rain", "--angle", "inf"),
        ("fog", "--linf", "inf"), ("fog", "--beta", "nan"), ("fog", "--beta", "inf"),
        ("fog", "--depth-mode", "constant", "--depth-value", "nan"),
        ("fog", "--max-depth", "inf"), ("snow", "--radius-max", "inf"),
    ])
    def test_non_finite_weather_parameters_rejected(self, tmp_path, clean_ppm, capsys, argv):
        out = tmp_path / "out"
        assert _run("synth", "--input", clean_ppm, "--weather", *argv, "--out", out) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestRestore:
    def test_oracle_round_trip(self, tmp_path, clean_ppm):
        out = tmp_path / "out"
        _run("synth", "--input", clean_ppm, "--weather", "fog", "--beta", 0.5,
             "--out", out)
        degraded = out / "clean_fog.ppm"
        assert _run("restore", "--input", degraded, "--predictor", "oracle",
                    "--clean", clean_ppm, "--out", out) == 0
        restored = out / "clean_fog_restored.ppm"
        assert restored.read_bytes() == clean_ppm.read_bytes()
        residuals = (out / "clean_fog_residuals.csv").read_text().splitlines()
        assert residuals[0] == "t,t_prev,update_l2"
        assert len(residuals) == 51  # 50 sampling steps
        assert residuals[-1].startswith("1,0,")

    def test_single_step(self, tmp_path, clean_ppm):
        out = tmp_path / "out"
        _run("synth", "--input", clean_ppm, "--weather", "fog", "--beta", 0.5,
             "--out", out)
        assert _run("restore", "--input", out / "clean_fog.ppm",
                    "--predictor", "oracle", "--clean", clean_ppm,
                    "--steps", 1, "--out", out) == 0
        rows = (out / "clean_fog_residuals.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("1000,0,")

    def test_tinymlp_smoke_deterministic(self, tmp_path, clean_ppm):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert _run("restore", "--input", clean_ppm, "--predictor", "tinymlp",
                        "--steps", 5, "--t-count", 50, "--out", out) == 0
        assert (a / "clean_restored.ppm").read_bytes() \
            == (b / "clean_restored.ppm").read_bytes()

    # sha256 of the outputs of the allocating sampler (one fresh array per
    # step): the in-place chain must keep every byte.
    PINNED = {
        "oracle": ("420260c3f31910724f7ca724ec7024defcc78d878f63ff372eb6f5e1b78f9dae",
                   "3d81f238c702904884258bb525a028547626eaa8624ea2193ede14c83919a93b"),
        "tinymlp": ("44a87cee85ab614cb7de384d5e17c508ed873026a17d9aee212266840b3296cb",
                    "8433d122e2c455b64ed35c07ce5e1aa4b7c3f21c6b149f3d39607f1551e8ce81"),
    }

    @pytest.mark.parametrize("predictor", sorted(PINNED))
    def test_pinned_output_digests(self, tmp_path, predictor):
        clean = tmp_path / "clean.ppm"
        write_ppm(clean, _clean_image(64, 64))
        extra = ["--clean", clean] if predictor == "oracle" else []
        out = tmp_path / "out"
        assert _run("restore", "--input", clean, "--predictor", predictor,
                    "--out", out, *extra) == 0
        got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("clean_restored.ppm", "clean_residuals.csv"))
        assert got == self.PINNED[predictor]

    def test_oracle_requires_clean(self, tmp_path, clean_ppm, capsys):
        code = _run("restore", "--input", clean_ppm, "--predictor", "oracle",
                    "--out", tmp_path)
        assert code == 1
        assert "clean" in capsys.readouterr().err


class TestFuse:
    def test_zero_images_zero_stats(self, tmp_path):
        zero = tmp_path / "zero.ppm"
        write_ppm(zero, np.zeros((16, 16, 3)))
        out = tmp_path / "out"
        assert _run("fuse", "--rgb", zero, "--thermal", zero, "--patch", 8,
                    "--dim", 4, "--out", out) == 0
        rows = (out / "fuse_stats.csv").read_text().splitlines()[1:]
        assert len(rows) == 8  # two modalities x four channels
        for row in rows:
            _, _, mean, var = row.split(",")
            assert float(mean) == 0.0 and float(var) == 0.0

    def test_shapes_and_determinism(self, tmp_path, clean_ppm):
        thermal = tmp_path / "thermal.ppm"
        write_ppm(thermal, _clean_image()[:, :, ::-1])
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert _run("fuse", "--rgb", clean_ppm, "--thermal", thermal,
                        "--patch", 8, "--dim", 6, "--seed", 3, "--out", out) == 0
        from cfmw_kit.tensor_io import read_tensor
        fused = read_tensor(a / "fused_rgb.tsr")
        assert fused.shape == (1, 16, 6)
        assert (a / "fused_rgb.tsr").read_bytes() == (b / "fused_rgb.tsr").read_bytes()
        assert (a / "fuse_stats.csv").read_bytes() == (b / "fuse_stats.csv").read_bytes()

    def test_golden_stats(self, tmp_path, clean_ppm):
        import json
        from pathlib import Path
        thermal = tmp_path / "thermal.ppm"
        write_ppm(thermal, 255.0 - _clean_image())
        out = tmp_path / "out"
        assert _run("fuse", "--rgb", clean_ppm, "--thermal", thermal,
                    "--patch", 16, "--dim", 4, "--seed", 42, "--out", out) == 0
        got = (out / "fuse_stats.csv").read_text().splitlines()
        golden = json.loads(
            (Path(__file__).parent / "golden" / "fuse_stats_golden.json").read_text())
        assert got[0] == "modality,channel,mean,variance"
        assert len(got) == len(golden["rows"]) + 1
        for row, want in zip(got[1:], golden["rows"]):
            mod, ch, mean, var = row.split(",")
            assert [mod, int(ch)] == want[:2]
            assert float(mean) == pytest.approx(want[2], rel=1e-9, abs=1e-12)
            assert float(var) == pytest.approx(want[3], rel=1e-9, abs=1e-12)

    def test_non_finite_fusion_writes_nothing(self, tmp_path, clean_ppm, capsys,
                                              monkeypatch):
        from cfmw_kit import fusion
        real_fuse = fusion.fuse

        def nan_fuse(feats, block):
            fused = real_fuse(feats, block)
            fused.f_t[0, 0, 0] = np.nan
            return fused

        monkeypatch.setattr(fusion, "fuse", nan_fuse)
        out = tmp_path / "out"
        assert _run("fuse", "--rgb", clean_ppm, "--thermal", clean_ppm,
                    "--patch", 8, "--dim", 4, "--out", out) == 1
        assert "fused thermal tensor contains non-finite values" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("edit, named", [
        (lambda m: m.replace("tensor.norm_scale_r=norm_scale_r.tsr\n", ""), "norm_scale_r"),
        (lambda m: m.replace("=norm_scale_r.tsr", "=../norm_scale_r.tsr"), "../norm_scale_r.tsr"),
        (lambda m: m.replace("meta.grid_h=4\n", "meta.grid_h=abc\n"), "meta entry 'grid_h'"),
    ])
    def test_bad_params_bundle_writes_nothing(self, tmp_path, clean_ppm, capsys, edit, named):
        from cfmw_kit.fusion import FusionBlockParams, save_fusion_params
        from cfmw_kit.tensor import SeededRng
        params = tmp_path / "params"
        save_fusion_params(FusionBlockParams.random(4, 2, 4, 4, SeededRng(5)), params)
        (tmp_path / "norm_scale_r.tsr").write_bytes((params / "norm_scale_r.tsr").read_bytes())
        manifest = params / "manifest.txt"
        manifest.write_text(edit(manifest.read_text()))
        out = tmp_path / "out"
        assert _run("fuse", "--rgb", clean_ppm, "--thermal", clean_ppm, "--patch", 8,
                    "--dim", 4, "--params", params, "--out", out) == 1
        assert named in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_pure_swap_config_values(self, tmp_path, clean_ppm):
        cfg = tmp_path / "fuse.cfg"

        def fused(*extra):
            out = tmp_path / f"out{len(list(tmp_path.glob('out*')))}"
            assert _run("fuse", "--rgb", clean_ppm, "--thermal", clean_ppm, "--patch", 8,
                        "--dim", 4, *extra, "--out", out) == 0
            return (out / "fused_rgb.tsr").read_bytes()

        on, off = fused("--pure-swap"), fused()
        assert on != off
        for value, want in (("1", on), ("true", on), ("0", off), ("false", off)):
            cfg.write_text(f"pure-swap={value}\n")
            assert fused("--config", cfg) == want

    @pytest.mark.parametrize("value", ["yes", "True", "on", ""])
    def test_pure_swap_config_refuses_other_values(self, tmp_path, clean_ppm, capsys, value):
        cfg = tmp_path / "fuse.cfg"
        cfg.write_text(f"pure-swap={value}\n")
        out = tmp_path / "out"
        assert _run("fuse", "--rgb", clean_ppm, "--thermal", clean_ppm, "--patch", 8,
                    "--dim", 4, "--config", cfg, "--out", out) == 1
        assert f"pure-swap must be 0, 1, true or false, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_params_bundle_round_trip(self, tmp_path, clean_ppm):
        from cfmw_kit.fusion import FusionBlockParams, save_fusion_params
        from cfmw_kit.tensor import SeededRng
        save_fusion_params(FusionBlockParams.random(4, 2, 4, 4, SeededRng(5)), tmp_path / "p")
        assert _run("fuse", "--rgb", clean_ppm, "--thermal", clean_ppm, "--patch", 8,
                    "--dim", 4, "--params", tmp_path / "p", "--out", tmp_path / "out") == 0
        assert (tmp_path / "out" / "fuse_stats.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flag, value", [
        ("--patch", 0), ("--patch", -8), ("--dim", 0), ("--d-state", 0),
    ])
    def test_bad_sizes_rejected(self, tmp_path, clean_ppm, capsys, flag, value):
        out = tmp_path / "out"
        assert _run("fuse", "--rgb", clean_ppm, "--thermal", clean_ppm,
                    flag, value, "--out", out) == 1
        assert f"{flag} must be >= " in capsys.readouterr().err
        assert not out.exists()

    def test_image_stage_holds_one_image_at_a_time(self, tmp_path):
        # A 1024x512 float64 image is 12 MiB; reading both before embedding
        # either one peaks near four of them, embedding each as it is read
        # stays below three.
        for name in ("rgb.ppm", "thermal.ppm"):
            write_ppm(tmp_path / name, _clean_image(512, 1024))
        tracemalloc.start()
        try:
            feats, grid_h, grid_w = _embed_pair(tmp_path / "rgb.ppm", tmp_path / "thermal.ppm",
                                                8, 32, SeededRng(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (grid_h, grid_w) == (64, 128) and feats.shape == (1, 64 * 128, 32)
        assert peak < 3 * 512 * 1024 * 3 * 8

    def test_mismatched_images_rejected(self, tmp_path, clean_ppm, capsys):
        small = tmp_path / "small.ppm"
        write_ppm(small, np.zeros((16, 16, 3)))
        assert _run("fuse", "--rgb", clean_ppm, "--thermal", small,
                    "--out", tmp_path) == 1
        assert "error:" in capsys.readouterr().err


class TestBench:
    def test_small_grid(self, tmp_path):
        out = tmp_path / "out"
        assert _run("bench", "--n-min", 8, "--n-max", 64, "--c", 4,
                    "--d-state", 2, "--repeats", 1, "--out", out) == 0
        rows = (out / "bench.csv").read_text().splitlines()
        assert rows[0] == "path,N,C,ops,wall_ns"
        assert len(rows) == 9  # 4 sizes x 2 paths
        for row in rows[1:]:
            path, n, c, ops, wall = row.split(",")
            assert int(ops) == count_ops(path, int(n), int(c), 2)
            assert int(wall) > 0
        slopes = (out / "bench_slopes.csv").read_text().splitlines()
        assert slopes[0] == "path,ops_slope,wall_slope"
        assert len(slopes) == 3

    def test_ops_column_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            _run("bench", "--n-min", 8, "--n-max", 64, "--c", 4,
                 "--d-state", 2, "--repeats", 1, "--out", out)

        def ops_only(p):
            return [r.rsplit(",", 1)[0] for r in (p / "bench.csv").read_text().splitlines()]

        assert ops_only(a) == ops_only(b)

    def test_attention_to_ss2d_ops_ratio_grows(self, tmp_path):
        out = tmp_path / "out"
        _run("bench", "--n-min", 8, "--n-max", 64, "--c", 4,
             "--d-state", 2, "--repeats", 1, "--out", out)
        ops = {}
        for row in (out / "bench.csv").read_text().splitlines()[1:]:
            path, n, _, val, _ = row.split(",")
            ops.setdefault(int(n), {})[path] = int(val)
        ratios = [ops[n]["attention_fusion"] / ops[n]["ss2d_fusion"]
                  for n in sorted(ops)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ("--n-min", 0, "--n-max", 64), ("--n-min", -8, "--n-max", -1),
        ("--n-min", 8, "--n-max", 64, "--c", 0),
        ("--n-min", 8, "--n-max", 64, "--d-state", 0),
    ])
    def test_bad_sizes_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert _run("bench", *argv, "--repeats", 1, "--out", out) == 1
        assert "must be >= " in capsys.readouterr().err
        assert not out.exists()

    def test_too_small_grid_rejected(self, tmp_path, capsys):
        assert _run("bench", "--n-min", 8, "--n-max", 16, "--out", tmp_path) == 1
        assert "at least 4" in capsys.readouterr().err


def _box_dirs(root, files):
    """``dets/`` and ``gts/`` under ``root`` from ``{name: (dets, gts)}`` texts."""
    dirs = root / "dets", root / "gts"
    for d in dirs:
        d.mkdir()
    for name, texts in files.items():
        for d, text in zip(dirs, texts):
            (d / name).write_text(text)
    return dirs


def _eval_boxes(root, files, *extra):
    """Run ``eval`` on box files; (exit code, ``{metric: value text}`` or None)."""
    dets_dir, gts_dir = _box_dirs(root, files)
    out = root / "out"
    code = _run("eval", "--dets", dets_dir, "--gts", gts_dir, *extra, "--out", out)
    if not (out / "metrics.csv").exists():
        return code, None
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    return code, dict(row.split(",") for row in rows)


class TestEval:
    def test_identical_pair(self, tmp_path, clean_ppm, capsys):
        out = tmp_path / "out"
        assert _run("eval", "--clean", clean_ppm, "--image", clean_ppm,
                    "--out", out) == 0
        text = (out / "metrics.csv").read_text()
        assert "psnr,99.0\n" in text
        assert "ssim,1.0\n" in text

    def test_image_eval_byte_identical_rerun(self, tmp_path, clean_ppm):
        _run("synth", "--input", clean_ppm, "--weather", "rain",
             "--density", 0.05, "--seed", 3, "--out", tmp_path / "w")
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert _run("eval", "--clean", clean_ppm, "--image",
                        tmp_path / "w" / "clean_rain.ppm", "--out", out) == 0
        text = (outs[0] / "metrics.csv").read_bytes()
        assert text == (outs[1] / "metrics.csv").read_bytes()
        assert 0.0 < float(text.decode().split("ssim,")[1]) < 1.0

    def test_perfect_detections(self, tmp_path):
        dets_dir = tmp_path / "dets"
        gts_dir = tmp_path / "gts"
        dets_dir.mkdir()
        gts_dir.mkdir()
        (dets_dir / "img1.txt").write_text("0 0 0 10 10 0.9\n1 20 20 30 30 0.8\n")
        (gts_dir / "img1.txt").write_text("0 0 0 10 10\n1 20 20 30 30\n")
        (dets_dir / "img2.txt").write_text("0 5 5 15 15 0.7\n")
        (gts_dir / "img2.txt").write_text("0 5 5 15 15\n")
        out = tmp_path / "out"
        assert _run("eval", "--dets", dets_dir, "--gts", gts_dir, "--out", out) == 0
        text = (out / "metrics.csv").read_text()
        assert "map50,1.0\n" in text
        assert "map75,1.0\n" in text
        assert "map,1.0\n" in text

    def test_max_area_filter(self, tmp_path):
        dets_dir = tmp_path / "dets"
        gts_dir = tmp_path / "gts"
        dets_dir.mkdir()
        gts_dir.mkdir()
        # the large-box pair is missed; the small box is detected perfectly
        (dets_dir / "a.txt").write_text("0 0 0 10 10 0.9\n")
        (gts_dir / "a.txt").write_text("0 0 0 10 10\n0 100 100 200 200\n")
        out_all = tmp_path / "all"
        out_small = tmp_path / "small"
        _run("eval", "--dets", dets_dir, "--gts", gts_dir, "--out", out_all)
        _run("eval", "--dets", dets_dir, "--gts", gts_dir,
             "--max-area", 2500, "--out", out_small)
        def get(p, key):
            for line in (p / "metrics.csv").read_text().splitlines():
                if line.startswith(key + ","):
                    return float(line.split(",")[1])
        assert get(out_all, "map50") == 0.5
        assert get(out_small, "map50") == 1.0

    def test_boxes_match_within_their_own_image(self, tmp_path):
        # IoU 0.49999999999999994 in b.txt: below 0.5 whatever the file's index
        code, got = _eval_boxes(tmp_path, {
            "a.txt": ("0 5 5 9 9 0.8\n", "0 5 5 9 9\n"),
            "b.txt": ("0 0.1 0.1 0.4 0.4 0.9\n", "0 0.2 0.1 0.5 0.4\n")})
        assert code == 0
        assert got["map50"] == "0.0"

    def test_directory_eval_matches_hand_computed_answer(self, tmp_path):
        code, got = _eval_boxes(tmp_path, {
            "a.txt": ("0 0 0 10 10 0.6\n", "0 0 0 10 10\n2 1000000 0 1000010 10\n"),
            "b.txt": ("0 0 0 10 10 0.9\n0 0 0 10 10 0.8\n1 20 20 30 26 0.5\n"
                      "2 0 0 10 10 0.7\n", "0 0 0 10 10\n1 20 20 30 30\n")})
        assert code == 0
        # class 0 ranks b (TP), b's duplicate (FP), a (TP): AP 1/2 + 1/2 * 1/2;
        # class 1 has IoU 0.6, a TP up to 0.60; class 2's only detection is in
        # b and its ground truth in a, so it never matches
        ap0 = 0.75
        map50 = (ap0 + 1.0 + 0.0) / 3
        map75 = (ap0 + 0.0 + 0.0) / 3
        want = {"map50": map50, "map75": map75,
                "map": sum([map50] * 3 + [map75] * 7) / 10}
        assert got == {k: repr(v) for k, v in want.items()}

    def test_file_order_does_not_matter(self, tmp_path):
        rng = np.random.default_rng(7)
        confs = iter((rng.permutation(40) / 40 + 0.01).tolist())
        images = []
        for _ in range(4):
            lines = ["", ""]
            for cls in range(2):
                xy = rng.uniform(0, 20, size=(5, 2)).tolist()
                for x, y in xy[:4]:
                    lines[0] += f"{cls} {x!r} {y!r} {x + 8!r} {y + 8!r} {next(confs)!r}\n"
                for x, y in xy[1:]:
                    lines[1] += f"{cls} {x + 1!r} {y!r} {x + 9!r} {y + 8!r}\n"
            images.append(tuple(lines))
        results = []
        for k, order in enumerate(([0, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0])):
            root = tmp_path / str(k)
            root.mkdir()
            files = {f"img{pos}.txt": images[i] for pos, i in enumerate(order)}
            results.append(_eval_boxes(root, files))
        assert results[0][0] == 0 and results[0][1]["map50"] != "0.0"
        assert results[1] == results[0] and results[2] == results[0]

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_max_area_must_be_finite_and_positive(self, tmp_path, capsys, value):
        code, got = _eval_boxes(tmp_path, {"a.txt": ("0 0 0 10 10 0.9\n", "0 0 0 10 10\n")},
                                "--max-area", value)
        assert (code, got) == (1, None)
        assert "--max-area must be finite and > 0" in capsys.readouterr().err

    def test_non_finite_box_rejected(self, tmp_path, capsys):
        code, got = _eval_boxes(tmp_path, {"a.txt": ("0 0 0 inf 10 0.9\n", "0 0 0 10 10\n")})
        assert (code, got) == (1, None)
        assert "(0.0, 0.0, inf, 10.0)" in capsys.readouterr().err

    def test_unpaired_files_rejected(self, tmp_path, capsys):
        dets_dir = tmp_path / "dets"
        gts_dir = tmp_path / "gts"
        dets_dir.mkdir()
        gts_dir.mkdir()
        (dets_dir / "a.txt").write_text("0 0 0 10 10 0.9\n")
        (gts_dir / "b.txt").write_text("0 0 0 10 10\n")
        assert _run("eval", "--dets", dets_dir, "--gts", gts_dir,
                    "--out", tmp_path) == 1
        assert "unpaired" in capsys.readouterr().err

    def test_nothing_to_do_rejected(self, tmp_path, capsys):
        assert _run("eval", "--out", tmp_path) == 1
        assert "error:" in capsys.readouterr().err


class TestCliPlumbing:
    def test_failed_run_leaves_no_partial_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = _run("eval", "--clean", tmp_path / "missing.ppm",
                    "--image", tmp_path / "missing.ppm", "--out", out)
        assert code == 1
        capsys.readouterr()
        assert not out.exists() or list(out.iterdir()) == []

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t-count=30\nkind=linear\n")
        out_a = tmp_path / "a"
        _run("schedule", "--config", cfg, "--out", out_a)
        assert len((out_a / "schedule.csv").read_text().splitlines()) == 31
        out_b = tmp_path / "b"
        _run("schedule", "--config", cfg, "--t-count", 10, "--out", out_b)
        assert len((out_b / "schedule.csv").read_text().splitlines()) == 11

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t_count=30\n")
        out = tmp_path / "out"
        assert _run("schedule", "--config", cfg, "--out", out) == 1
        assert "'t_count'" in capsys.readouterr().err
        assert not (out / "schedule.csv").exists()

    @pytest.mark.parametrize("command, entry, kind", [
        ("fuse", "patch=abc", "int"), ("synth", "density=lots", "float"),
    ])
    def test_bad_config_value_names_its_key(self, tmp_path, clean_ppm, capsys,
                                            command, entry, kind):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(entry + "\n")
        key, value = entry.split("=")
        out = tmp_path / "out"
        argv = {"fuse": ("--rgb", clean_ppm, "--thermal", clean_ppm),
                "synth": ("--input", clean_ppm, "--weather", "rain")}[command]
        assert _run(command, *argv, "--config", cfg, "--out", out) == 1
        want = f"config entry {key!r} is not a valid {kind}: {value!r}"
        assert want in capsys.readouterr().err
        assert not out.exists()

    def test_back_to_back_runs_share_no_values(self, tmp_path, clean_ppm, capsys):
        # The parser is built once per process; each run must still start
        # from the defaults, not from the previous run's values.
        out = tmp_path / "out"
        other = tmp_path / "other.ppm"
        other.write_bytes(clean_ppm.read_bytes())
        assert _run("synth", "--input", clean_ppm, other, "--weather", "fog",
                    "--out", out) == 0
        capsys.readouterr()
        assert _run("synth") == 1
        assert "missing required option --input" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["restore", "fuse", "bench", "eval", "schedule"])
    def test_threads_is_a_synth_option_only(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit):
            _run(command, "--threads", 2, "--out", tmp_path)
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    def test_threads_env_fallback(self, tmp_path, clean_ppm, monkeypatch):
        monkeypatch.setenv("CFMW_KIT_THREADS", "2")
        out = tmp_path / "out"
        assert _run("synth", "--input", clean_ppm, "--weather", "fog",
                    "--beta", 0.2, "--out", out) == 0
        assert (out / "clean_fog.ppm").exists()

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "cfmw_kit", "schedule", "--t-count", "5",
             "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "schedule.csv").exists()
