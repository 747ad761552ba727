import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from cfmw_kit import cli, diffusion
from cfmw_kit.cli import _build_parser, _embed_pair, main
from cfmw_kit.fusion import FusionBlockParams, Mlp3, count_ops
from cfmw_kit.imageio import write_ppm
from cfmw_kit.metrics import mean_ap, parse_detections, parse_ground_truth
from cfmw_kit.tensor import SeededRng
from cfmw_kit.tensor_io import save_params, write_tensor


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

    @pytest.mark.parametrize("kind, density", [("rain", "0.002"), ("snow", "0.004")])
    def test_density_default_depends_on_weather(self, tmp_path, clean_ppm, kind, density):
        out = tmp_path / "out"
        assert _run("synth", "--input", clean_ppm, "--weather", kind, "--out", out) == 0
        assert f" density={density} " in (out / "synth_manifest.txt").read_text()

    @pytest.mark.parametrize("kind", ["rain", "snow", "fog"])
    def test_two_inputs_equal_two_single_runs(self, tmp_path, kind):
        # Image k of a run gets seed + k: one run over a, b equals a run over
        # a and a run over b with the next seed, manifest lines included.
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_ppm(a, _clean_image(24, 20))
        write_ppm(b, 255.0 - _clean_image(24, 20))
        weather = ("--weather", kind, "--density", 0.05) if kind != "fog" \
            else ("--weather", kind, "--depth-mode", "radial")
        _run("synth", "--input", a, b, *weather, "--out", tmp_path / "ab")
        _run("synth", "--input", a, *weather, "--out", tmp_path / "a")
        _run("synth", "--input", b, *weather, "--seed", 43, "--out", tmp_path / "b")
        for name, alone in ((f"a_{kind}.ppm", "a"), (f"b_{kind}.ppm", "b")):
            assert (tmp_path / "ab" / name).read_bytes() \
                == (tmp_path / alone / name).read_bytes()
        manifest = "synth_manifest.txt"
        assert (tmp_path / "ab" / manifest).read_bytes() \
            == (tmp_path / "a" / manifest).read_bytes() + (tmp_path / "b" / manifest).read_bytes()

    @pytest.mark.parametrize("kind", ["rain", "snow", "fog"])
    def test_thread_count_does_not_change_bytes(self, tmp_path, kind):
        inputs = []
        for i in range(3):
            inputs.append(tmp_path / f"img{i}.ppm")
            write_ppm(inputs[-1], np.roll(_clean_image(16, 24), 5 * i, axis=1))
        cfg = tmp_path / "threads.cfg"
        cfg.write_text("threads=2\n")
        outs = []
        for k, extra in enumerate((("--threads", 1), ("--threads", 2), ("--config", cfg))):
            outs.append(tmp_path / f"out{k}")
            assert _run("synth", "--input", *inputs, "--weather", kind, *extra,
                        "--out", outs[-1]) == 0
        files = sorted(f.name for f in outs[0].iterdir())
        assert len(files) == 4
        for out in outs[1:]:
            assert sorted(f.name for f in out.iterdir()) == files
            for name in files:
                assert (out / name).read_bytes() == (outs[0] / name).read_bytes()

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

    @pytest.mark.parametrize("argv, message", [
        (("--threads", 0), "--threads must be >= 1, got 0"),
        (("--streak-len", 0), "streak_len_px must be >= 1, got 0"),
    ])
    def test_bad_counts_rejected(self, tmp_path, clean_ppm, capsys, argv, message):
        out = tmp_path / "out"
        assert _run("synth", "--input", clean_ppm, "--weather", "rain", *argv,
                    "--out", out) == 1
        assert message in capsys.readouterr().err
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

    def test_non_finite_fusion_writes_nothing(self, tmp_path, clean_ppm, capsys):
        # Finite weights so large that the shared MLP overflows float64.
        block = FusionBlockParams.random(4, 2, 4, 4, SeededRng(5))
        mlp = block.out_mlp
        big = Mlp3(*(getattr(mlp, f.name) * 1e200 for f in dataclasses.fields(Mlp3)))
        params = tmp_path / "params"
        save_params(dataclasses.replace(block, out_mlp=big), params)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run("fuse", "--rgb", clean_ppm, "--thermal", clean_ppm, "--patch", 8,
                        "--dim", 4, "--d-state", 2, "--params", params, "--out", out) == 1
        assert ("error: features are too large: the fusion block overflows float64"
                in capsys.readouterr().err)
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("edit, named", [
        (lambda m: m.replace("tensor.norm_scale_r=norm_scale_r.tsr\n", ""), "norm_scale_r"),
        (lambda m: m.replace("=norm_scale_r.tsr", "=../norm_scale_r.tsr"), "../norm_scale_r.tsr"),
        (lambda m: m.replace("meta.grid_h=4\n", "meta.grid_h=abc\n"), "meta entry 'grid_h'"),
        (lambda m: m + "meta.grid_h=4\n", "key 'meta.grid_h' given twice"),
    ])
    def test_bad_params_bundle_writes_nothing(self, tmp_path, clean_ppm, capsys, edit, named):
        params = tmp_path / "params"
        save_params(FusionBlockParams.random(4, 2, 4, 4, SeededRng(5)), params)
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
        save_params(FusionBlockParams.random(4, 2, 4, 4, SeededRng(5)), tmp_path / "p")
        assert _run("fuse", "--rgb", clean_ppm, "--thermal", clean_ppm, "--patch", 8, "--dim", 4,
                    "--d-state", 2, "--params", tmp_path / "p", "--out", tmp_path / "out") == 0
        assert (tmp_path / "out" / "fuse_stats.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (("--dim", 6, "--d-state", 2), "--dim 6 differs from the bundle's 4"),
        (("--dim", 4, "--d-state", 8), "--d-state 8 differs from the bundle's 2"),
        (("--dim", 4, "--d-state", 2, "--residual-mode", "straight"),
         "--residual-mode straight differs from the bundle's crossed"),
    ])
    def test_params_bundle_refuses_other_block_flags(self, tmp_path, clean_ppm, capsys,
                                                     flags, message):
        # The bundle fixes the channel count, state size and residual mode, so
        # a flag that differs from it is refused with both values named.
        save_params(FusionBlockParams.random(4, 2, 4, 4, SeededRng(5)), tmp_path / "p")
        out = tmp_path / "out"
        assert _run("fuse", "--rgb", clean_ppm, "--thermal", clean_ppm, "--patch", 8,
                    *flags, "--params", tmp_path / "p", "--out", out) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_params_bundle_refuses_another_grid_of_the_same_size(self, tmp_path, clean_ppm,
                                                               capsys):
        # A 32x32 image at --patch 8 is a 4x4 grid: a 2x8 bundle has its 16
        # tokens but would scan them on another layout.
        save_params(FusionBlockParams.random(4, 2, 2, 8, SeededRng(5)), tmp_path / "p")
        out = tmp_path / "out"
        assert _run("fuse", "--rgb", clean_ppm, "--thermal", clean_ppm, "--patch", 8,
                    "--dim", 4, "--d-state", 2, "--params", tmp_path / "p", "--out", out) == 1
        assert "4x4 patch grid differs from the bundle's 2x8" in capsys.readouterr().err
        assert not out.exists()

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

    def test_indivisible_image_rejected_before_any_output(self, tmp_path, capsys):
        image, out = tmp_path / "odd.ppm", tmp_path / "out"
        write_ppm(image, np.zeros((24, 20, 3)))
        assert _run("fuse", "--rgb", image, "--thermal", image, "--patch", 8,
                    "--out", out) == 1
        assert "error: image size 24x20 not divisible by patch 8" in capsys.readouterr().err
        assert not out.exists()

    def test_mismatched_images_rejected(self, tmp_path, clean_ppm, capsys):
        small = tmp_path / "small.ppm"
        write_ppm(small, np.zeros((16, 16, 3)))
        assert _run("fuse", "--rgb", clean_ppm, "--thermal", small,
                    "--out", tmp_path) == 1
        assert "error:" in capsys.readouterr().err

    # sha256 of fused_rgb.tsr, fused_thermal.tsr and fuse_stats.csv from the
    # per-field parameter draws and per-channel stats: batching the draws and
    # taking the stats column-wise must keep every byte.
    PINNED = {
        "default": ((32, []), (
            "3072c0f8bcaf94a199e29d8e391dd128179c4be3f981993ec1e0462484684ed1",
            "7b1fc936f6bd1643041e5f9dc2848f0ec40b70c451b8b6afb8a63935bb9e8180",
            "bc1ac9fd30248c2aae005d7165d7d35743928871fcdb48f8ab9c351a0992ffbc")),
        "straight": ((32, ["--residual-mode", "straight"]), (
            "5de5badeb28bb9925f85ea25bd01fa192f88522be1161b05abbed7f08c2438dc",
            "5367a4edfe6ecd7ef84c18b310df3f260396f76a14d5c07d05276c307fed4752",
            "54227f67dbce8fa19776741a9463385783f1fddaf86c6289792248b64f5be88f")),
        "one_token": ((8, ["--dim", 2]), (
            "971a1b0cf5ecac51b3f94da5b37129232b3890b2b3ff92c121886a43eeb2f36f",
            "971a1b0cf5ecac51b3f94da5b37129232b3890b2b3ff92c121886a43eeb2f36f",
            "a43b12a89b3ab274d68532c478c10e48c3cbbd00a299b2a40bd3399e80ae1f3c")),
    }

    @pytest.mark.parametrize("geometry", sorted(PINNED))
    def test_pinned_output_digests(self, tmp_path, geometry):
        (side, extra), want = self.PINNED[geometry]
        rgb, thermal = tmp_path / "rgb.ppm", tmp_path / "thermal.ppm"
        write_ppm(rgb, _clean_image(side, side))
        write_ppm(thermal, _clean_image(side, side)[:, :, ::-1])
        out = tmp_path / "out"
        assert _run("fuse", "--rgb", rgb, "--thermal", thermal, *extra, "--out", out) == 0
        got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("fused_rgb.tsr", "fused_thermal.tsr", "fuse_stats.csv"))
        assert got == want

    @pytest.mark.parametrize("h, w, patch, dim", [(8, 8, 8, 2), (7, 143, 1, 6)])
    def test_stats_equal_each_channel_alone(self, tmp_path, h, w, patch, dim):
        from cfmw_kit.tensor_io import read_tensor
        rgb, thermal = tmp_path / "rgb.ppm", tmp_path / "thermal.ppm"
        write_ppm(rgb, _clean_image(h, w))
        write_ppm(thermal, 255.0 - _clean_image(h, w))
        out = tmp_path / "out"
        assert _run("fuse", "--rgb", rgb, "--thermal", thermal, "--patch", patch,
                    "--dim", dim, "--d-state", 2, "--out", out) == 0
        rows = (out / "fuse_stats.csv").read_text().splitlines()[1:]
        want = []
        for name in ("rgb", "thermal"):
            arr = read_tensor(out / f"fused_{name}.tsr")
            assert arr.shape == (1, h * w // patch ** 2, dim)
            want += [(name, str(c), float(arr[:, :, c].mean()), float(arr[:, :, c].var()))
                     for c in range(dim)]
        got = [(mod, ch, float(mean), float(var))
               for mod, ch, mean, var in (row.split(",") for row in rows)]
        assert got == want

    def test_overflowing_stats_write_nothing(self, tmp_path, clean_ppm, capsys):
        # The block stays finite (features near 1e181), but their squares overflow.
        block = FusionBlockParams.random(4, 2, 4, 4, SeededRng(5))
        big = dataclasses.replace(block.out_mlp, w3=block.out_mlp.w3 * 1e180)
        params = tmp_path / "params"
        save_params(dataclasses.replace(block, out_mlp=big), params)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run("fuse", "--rgb", clean_ppm, "--thermal", clean_ppm, "--patch", 8,
                        "--dim", 4, "--d-state", 2, "--params", params, "--out", out) == 1
        assert ("error: fused features are too large: their variance overflows float64"
                in capsys.readouterr().err)
        assert not out.exists() or list(out.iterdir()) == []


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

    @pytest.mark.parametrize("argv, message", [
        (("--c", 1), "--c must be >= 2, got 1"), (("--d-state", 0), "--d-state must be >= 1, got 0"),
    ])
    def test_bad_sizes_name_their_flag(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert _run("bench", "--n-min", 8, "--n-max", 64, *argv, "--out", out) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_too_small_grid_rejected(self, tmp_path, capsys):
        assert _run("bench", "--n-min", 8, "--n-max", 16, "--out", tmp_path) == 1
        assert "at least 4" in capsys.readouterr().err

    def test_three_sizes_refused_by_the_kit_before_any_timing(self, tmp_path, capsys):
        # 64, 128 and 256: the grid rule is scaling_benchmark's own
        out = tmp_path / "out"
        assert _run("bench", "--n-min", 64, "--n-max", 256, "--out", out) == 1
        assert "benchmark grid needs at least 4 sizes" in capsys.readouterr().err
        assert not (out / "bench.csv").exists()


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

    def test_bad_field_names_file_and_line(self, tmp_path, capsys):
        code, got = _eval_boxes(tmp_path, {
            "a.txt": ("0 0 0 10 10 0.9\n", "0 0 0 10 10\n"),
            "b.txt": ("0 0 0 10 10 0.9\n0 0 0 10 x 0.9\n", "0 0 0 10 10\n")})
        assert (code, got) == (1, None)
        err = capsys.readouterr().err
        assert f"{tmp_path / 'dets' / 'b.txt'}: detection line 2: " in err
        assert "'x'" in err

    def test_bad_line_in_a_later_file_names_that_file_and_its_own_line(self, tmp_path, capsys):
        ok = ("0 0 0 10 10 0.9\n0 1 1 9 9 0.5\n", "0 0 0 10 10\n")
        code, got = _eval_boxes(tmp_path, {
            "a.txt": ok, "b.txt": ok,
            "c.txt": ("# head\n0 0 0 10 10 0.9\n0 0 0 10 y 0.9\n", "0 0 0 10 10\n"),
            "d.txt": ("0 0 0 10 z 0.9\n", "0 0 0 10 10\n")})
        assert (code, got) == (1, None)
        err = capsys.readouterr().err
        assert err == (f"error: {tmp_path / 'dets' / 'c.txt'}: detection line 3: "
                       "could not convert string to float: 'y'\n")

    def test_bad_dets_and_bad_gts_report_the_dets_file(self, tmp_path, capsys):
        code, got = _eval_boxes(tmp_path, {
            "a.txt": ("0 0 0 10 10 0.9\n", "0 0 0 10\n"),
            "b.txt": ("0 0 0 10 10 0.9\n0 0 0 10 10\n", "0 0 0 10 10\n")})
        assert (code, got) == (1, None)
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'dets' / 'b.txt'}: detection line 2 needs 6 fields: "
            "'0 0 0 10 10'\n")

    @pytest.mark.parametrize("bad, n_read", [(None, 8), (b"0 0 0 10 x 0.9\n", 4),
                                             (b"0 0 0 10 10 0.9\n\x84\n", 3)],
                             ids=["good", "bad-line", "not-ascii"])
    def test_each_box_file_is_opened_once(self, tmp_path, monkeypatch, bad, n_read):
        # a bad third detection file: a bad line is found once all four are
        # read, a non-ASCII byte as that file is read
        names = ("a.txt", "b.txt", "c.txt", "d.txt")
        dirs = _box_dirs(tmp_path, {n: ("0 0 0 10 10 0.9\n", "0 0 0 10 10\n") for n in names})
        if bad:
            (dirs[0] / "c.txt").write_bytes(bad)
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(os.fspath(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        code = _run("eval", "--dets", dirs[0], "--gts", dirs[1], "--out", tmp_path / "out")
        assert code == (1 if bad else 0)
        want = [str(d / n) for d in dirs for n in names]
        assert sorted(p for p in opened if os.path.basename(p) in names) == want[:n_read]

    def test_max_area_emptying_whole_images_matches_each_image_filtered(self, tmp_path):
        big_d, big_g = "0 100 100 200 200 0.95\n", "0 100 100 200 200\n"
        files = {"a.txt": ("0 0 0 10 10 0.9\n" + big_d, "0 0 0 10 10\n" + big_g),
                 "b.txt": (big_d + big_d, big_g),              # both sides emptied
                 "c.txt": (big_d, "1 0 0 10 10\n0 2 2 12 12\n"),  # only the detections
                 "d.txt": ("1 0 0 10 10 0.4\n0 2 2 12 12 0.3\n", big_g)}  # only the truth
        code, got = _eval_boxes(tmp_path, files, "--max-area", 2500)
        assert code == 0

        def kept(boxes):
            b = boxes.table[:, 1:5]
            return type(boxes)(boxes.table[(b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1]) < 2500])

        result = mean_ap([(kept(parse_detections(d)), kept(parse_ground_truth(g)))
                          for _, (d, g) in sorted(files.items())])
        assert got == {"map50": repr(result.map50), "map75": repr(result.map75),
                       "map": repr(result.map_mean)}
        assert 0.0 < result.map50 < 1.0

    def test_binary_file_names_file(self, tmp_path, capsys):
        code, got = _eval_boxes(tmp_path, {"a.txt": ("0 0 0 10 10 0.9\n", "0 0 0 10 10\n")})
        assert code == 0
        (tmp_path / "gts" / "a.txt").write_bytes(b"0 0 0 10 10\n\x84\x00\xff\n")
        assert _run("eval", "--dets", tmp_path / "dets", "--gts", tmp_path / "gts",
                    "--out", tmp_path / "again") == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'gts' / 'a.txt'}: 'ascii' codec can't decode byte 0x84" in err
        assert not (tmp_path / "again").exists()

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

    @pytest.mark.parametrize("empty", [("dets", "gts"), ("dets",), ("gts",)],
                             ids=["both", "dets", "gts"])
    def test_empty_directory_refused_by_name(self, tmp_path, capsys, empty):
        # with no files at all there is nothing to score: not a perfect 1.0
        dirs = _box_dirs(tmp_path, {"a.txt": ("0 0 0 10 10 0.9\n", "0 0 0 10 10\n")})
        for name in empty:
            (tmp_path / name / "a.txt").unlink()
        assert _run("eval", "--dets", dirs[0], "--gts", dirs[1], "--out", tmp_path / "out") == 1
        assert f"{tmp_path / empty[0]}: directory holds no files" in capsys.readouterr().err
        assert not (tmp_path / "out" / "metrics.csv").exists()

    def test_files_without_boxes_keep_the_empty_convention(self, tmp_path):
        code, got = _eval_boxes(tmp_path, {"a.txt": ("# none\n", "\n")})
        assert (code, got) == (0, {"map50": "1.0", "map75": "1.0", "map": "1.0"})
        (tmp_path / "x").mkdir()
        code, got = _eval_boxes(tmp_path / "x", {"a.txt": ("0 0 0 10 10 0.9\n", "")})
        assert (code, got) == (0, {"map50": "0.0", "map75": "0.0", "map": "0.0"})

    def test_listing_skips_subdirectories_and_sorts_names_as_strings(self, tmp_path, capsys):
        files = {"B.txt": ("0 0 0 10 10 0.9\n", "0 0 0 10 10\n"),
                 "a.txt": ("0 0 0 10 10 0.9\n", "0 0 0 10 10\n")}
        dirs = _box_dirs(tmp_path, files)
        for d in dirs:
            (d / "sub").mkdir()
            (d / "sub" / "c.txt").write_text("not a box file\n")
        assert _run("eval", "--dets", dirs[0], "--gts", dirs[1], "--out", tmp_path / "out") == 0
        for name in files:
            (dirs[0] / name).write_text("0 0 0 10 x 0.9\n")
        assert _run("eval", "--dets", dirs[0], "--gts", dirs[1], "--out", tmp_path / "again") == 1
        # uppercase sorts first: B.txt is read, and refused, before a.txt
        assert f"{dirs[0] / 'B.txt'}: detection line 1: " in capsys.readouterr().err

    def test_nothing_to_do_rejected(self, tmp_path, capsys):
        assert _run("eval", "--out", tmp_path) == 1
        assert "error:" in capsys.readouterr().err


class TestCliPlumbing:
    def test_programming_error_is_not_a_refusal(self, tmp_path, monkeypatch):
        # Only ValueError and OSError are refusals that exit 1; a KeyError is
        # a fault and keeps its traceback.
        def broken(*args):
            raise KeyError("key")

        monkeypatch.setattr(diffusion, "make_schedule", broken)
        with pytest.raises(KeyError, match="key"):
            _run("schedule", "--out", tmp_path)

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

    @pytest.mark.parametrize("blob, message", [
        (b"kind=cosine\n\x84t-count=30\n", "line 2: non-ASCII byte 0x84"),
        (b"t-count=5\nkind=cosine\nt-count=7\n", "line 3: key 't-count' given twice"),
    ])
    def test_unreadable_config_names_its_line(self, tmp_path, capsys, blob, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(blob)
        out = tmp_path / "out"
        assert _run("schedule", "--config", cfg, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {cfg} {message}\n"
        assert not out.exists()

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
        # refused by argparse, as the flag would be, before anything runs
        with pytest.raises(SystemExit) as exc:
            _run(command, *argv, "--config", cfg, "--out", out)
        assert exc.value.code == 2
        assert f"argument --{key}: invalid {kind} value" in capsys.readouterr().err
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

    def test_threads_from_config_not_environment(self, tmp_path, clean_ppm, monkeypatch):
        # --threads comes from the flag or the config file only: the
        # environment, even an invalid CFMW_KIT_THREADS=0, is ignored.
        monkeypatch.setenv("CFMW_KIT_THREADS", "0")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads=2\n")
        out = tmp_path / "out"
        assert _run("synth", "--input", clean_ppm, "--weather", "fog",
                    "--beta", 0.2, "--config", cfg, "--out", out) == 0
        assert (out / "clean_fog.ppm").exists()

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "cfmw_kit", "schedule", "--t-count", "5",
             "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "schedule.csv").exists()


def _options():
    """(command, option, action) for every ``--option`` of every subcommand."""
    commands = next(a for a in _build_parser()._actions if a.dest == "command").choices
    return [(command, s[2:], action) for command, sub in commands.items()
            for action in sub._actions for s in action.option_strings
            if s.startswith("--") and s not in ("--config", "--help")]


# Flags every run of a command gets, unless they name the option under test.
_BASE = {
    "synth": {"input": "{clean}", "weather": "rain"},
    "restore": {"input": "{degraded}", "predictor": "oracle", "clean": "{clean}",
                "steps": "2", "t-count": "20"},
    "fuse": {"rgb": "{clean}", "thermal": "{thermal}", "patch": "8", "dim": "4",
             "d-state": "2"},
    "bench": {"n-min": "8", "n-max": "64", "c": "4", "d-state": "2", "repeats": "1"},
    "eval": {"clean": "{clean}", "image": "{degraded}", "dets": "{dets}", "gts": "{gts}"},
    "schedule": {"t-count": "20"},
}

# (command, option, value, flags it needs beside _BASE). A value of None is a
# switch; "{out}" is the run's own output directory.
_CASES = [
    *[(command, "seed", "7", {}) for command in _BASE],
    *[(command, "out", "{out}", {}) for command in _BASE],
    ("synth", "input", "{clean}", {}),
    ("synth", "threads", "2", {}),
    ("synth", "weather", "snow", {}),
    ("synth", "density", "0.01", {}),
    ("synth", "angle", "-30.0", {}),
    ("synth", "streak-len", "5", {}),
    ("synth", "radius-min", "0.5", {"weather": "snow"}),
    ("synth", "radius-max", "2.5", {"weather": "snow"}),
    ("synth", "beta", "0.8", {"weather": "fog"}),
    ("synth", "linf", "200.0", {"weather": "fog"}),
    ("synth", "depth-mode", "radial", {"weather": "fog"}),
    ("synth", "depth-value", "2.0", {"weather": "fog", "depth-mode": "constant"}),
    ("synth", "max-depth", "3.0", {"weather": "fog", "depth-mode": "radial"}),
    ("restore", "input", "{degraded}", {}),
    ("restore", "predictor", "tinymlp", {}),
    ("restore", "clean", "{clean}", {}),
    ("restore", "eps-file", "{eps}", {}),
    ("restore", "steps", "3", {}),
    ("restore", "t-count", "30", {}),
    ("restore", "schedule", "cosine", {}),
    ("restore", "beta-start", "0.002", {}),
    ("restore", "beta-end", "0.03", {}),
    ("fuse", "rgb", "{clean}", {}),
    ("fuse", "thermal", "{thermal}", {}),
    ("fuse", "patch", "4", {}),
    ("fuse", "dim", "6", {}),
    ("fuse", "d-state", "3", {}),
    ("fuse", "residual-mode", "straight", {}),
    ("fuse", "pure-swap", None, {}),
    ("fuse", "params", "{params}", {}),
    ("bench", "n-min", "4", {}),
    ("bench", "n-max", "128", {}),
    ("bench", "c", "6", {}),
    ("bench", "d-state", "3", {}),
    ("bench", "repeats", "2", {}),
    ("eval", "clean", "{clean}", {}),
    ("eval", "image", "{degraded}", {}),
    ("eval", "dets", "{dets}", {}),
    ("eval", "gts", "{gts}", {}),
    ("eval", "max-area", "50.0", {}),
    ("schedule", "kind", "cosine", {}),
    ("schedule", "t-count", "30", {}),
    ("schedule", "beta-start", "0.002", {}),
    ("schedule", "beta-end", "0.03", {}),
]


@pytest.fixture
def inputs(tmp_path):
    """Files the option table refers to by name."""
    root = tmp_path / "inputs"
    root.mkdir()
    files = {name: root / f"{name}.ppm" for name in ("clean", "thermal", "degraded")}
    write_ppm(files["clean"], _clean_image())
    write_ppm(files["thermal"], 255.0 - _clean_image())
    write_ppm(files["degraded"], np.clip(_clean_image() + 40.0, 0.0, 255.0))
    files["eps"] = root / "eps.tsr"
    write_tensor(files["eps"], SeededRng(3).normal(32 * 32 * 3).reshape(32, 32, 3))
    files["params"] = root / "params"
    save_params(FusionBlockParams.random(4, 2, 4, 4, SeededRng(5)), files["params"])
    files["dets"], files["gts"] = _box_dirs(root, {
        "a.txt": ("0 0 0 10 10 0.9\n1 20 20 60 60 0.4\n", "0 0 0 10 10\n1 20 20 60 61\n"),
        "b.txt": ("0 5 5 9 9 0.8\n", "0 5 5 9 10\n")})
    return files


def _outputs(out):
    """File name -> bytes under ``out``; bench wall times dropped."""
    got = {}
    for f in sorted(out.iterdir()):
        data = f.read_bytes()
        if f.name.startswith("bench"):
            data = b"\n".join(row.rsplit(b",", 1)[0] for row in data.splitlines())
        got[f.name] = data
    return got


class TestConfigFile:
    def test_table_covers_every_option(self):
        assert sorted((c, o) for c, o, _, _ in _CASES) \
            == sorted((c, o) for c, o, _ in _options())

    @pytest.mark.parametrize("command, option, value, needs", _CASES,
                             ids=[f"{c}-{o}" for c, o, _, _ in _CASES])
    def test_entry_writes_what_the_flag_writes(self, tmp_path, inputs,
                                               command, option, value, needs):
        def run(tag, via_config):
            out = tmp_path / tag
            names = {**inputs, "out": out}
            flags = {**_BASE[command], **needs, "out": "{out}"}
            flags.pop(option, None)
            argv = [command]
            for key, val in flags.items():
                argv += [f"--{key}", val.format(**names)]
            if via_config:
                entry = "1" if value is None else value.format(**names)
                (tmp_path / f"{tag}.cfg").write_text(f"{option}={entry}\n")
                argv += ["--config", tmp_path / f"{tag}.cfg"]
            else:
                argv += [f"--{option}"] + ([] if value is None else [value.format(**names)])
            assert _run(*argv) == 0
            return _outputs(out)

        from_flag = run("flag", via_config=False)
        assert from_flag and run("config", via_config=True) == from_flag

    @pytest.mark.parametrize("command, option", [
        (c, o) for c, o, action in _options() if action.type in (int, float) or action.choices
    ])
    def test_bad_value_fails_as_the_flag_does(self, tmp_path, capsys, command, option):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option}=abc\n")
        out = tmp_path / "out"
        for argv in ((f"--{option}", "abc"), ("--config", cfg)):
            with pytest.raises(SystemExit) as exc:
                _run(command, *argv, "--out", out)
            assert exc.value.code == 2
            assert f"argument --{option}: invalid " in capsys.readouterr().err
        assert not out.exists()

    def test_value_that_looks_like_a_flag_stays_a_value(self, tmp_path, inputs):
        # argparse takes "-3e1" for an option unless it is joined to its flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text("angle=-3e1\n")
        rain = ("synth", "--input", inputs["clean"], "--weather", "rain")
        assert _run(*rain, "--angle", "-30.0", "--out", tmp_path / "flag") == 0
        assert _run(*rain, "--config", cfg, "--out", tmp_path / "config") == 0
        assert _outputs(tmp_path / "config") == _outputs(tmp_path / "flag")

    @pytest.mark.parametrize("command, entry", [
        ("schedule", "t=30"), ("schedule", "t-co=30"), ("schedule", "kin=cosine"),
        ("fuse", "pure=1"), ("schedule", "config=other.cfg"), ("schedule", "help=1"),
        ("schedule", "threads=2"),
    ])
    def test_key_must_name_an_option_exactly(self, tmp_path, capsys, command, entry):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(entry + "\n")
        out = tmp_path / "out"
        assert _run(command, "--config", cfg, "--out", out) == 1
        key = entry.split("=")[0]
        assert f"unknown option {key!r} in config file {cfg}" in capsys.readouterr().err
        assert not out.exists()
