import hashlib
import re
import warnings

import numpy as np
import pytest

from cfmw_kit.detloss import GridTargets, PredictionGrid, load_grid, save_grid
from cfmw_kit.fusion import FusionBlockParams, load_fusion_params, save_fusion_params
from cfmw_kit.imageio import (
    read_depth_pgm,
    read_mask_pgm,
    read_pgm,
    read_ppm,
    write_depth_pgm,
    write_mask_pgm,
    write_pgm,
    write_ppm,
)
from cfmw_kit.ssm import SelectiveSsmParams, Ss2dParams, load_scan_params, save_scan_params
from cfmw_kit.tensor import SeededRng, randn
from cfmw_kit.tensor_io import (
    load_bundle,
    read_manifest,
    read_tensor,
    save_bundle,
    tensor_from_bytes,
    tensor_to_bytes,
    write_manifest,
    write_tensor,
)


class TestTsr1:
    def test_round_trip_bit_exact(self, tmp_path):
        arr = randn([3, 4, 5], SeededRng(1))
        path = tmp_path / "t.tsr"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)
        # byte-level determinism of the encoding itself
        assert tensor_to_bytes(arr) == tensor_to_bytes(back)

    def test_rank1(self, tmp_path):
        arr = np.array([1.5, -2.25, 3.0])
        write_tensor(tmp_path / "v.tsr", arr)
        assert np.array_equal(read_tensor(tmp_path / "v.tsr"), arr)

    def test_header_layout(self):
        blob = tensor_to_bytes(np.zeros((2, 3)))
        assert blob[:4] == b"TSR1"
        assert blob[4:8] == (2).to_bytes(4, "little")
        assert blob[8:12] == (2).to_bytes(4, "little")
        assert blob[12:16] == (3).to_bytes(4, "little")
        assert len(blob) == 16 + 6 * 8

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            tensor_from_bytes(b"NOPE" + bytes(12))

    def test_truncated_payload(self):
        blob = tensor_to_bytes(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            tensor_from_bytes(blob[:-8])

    def test_zero_extent_refused_by_writer(self):
        with pytest.raises(ValueError, match="extents"):
            tensor_to_bytes(np.zeros((0, 3)))


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = {"alpha": "1", "path": "a/b.tsr", "note": "x y z"}
        write_manifest(tmp_path / "m.txt", entries)
        assert read_manifest(tmp_path / "m.txt") == entries

    def test_rejects_equals_in_key(self, tmp_path):
        with pytest.raises(ValueError):
            write_manifest(tmp_path / "m.txt", {"a=b": "c"})

    def test_comments_and_blanks_skipped(self, tmp_path):
        (tmp_path / "m.txt").write_text("# comment\n\nkey=value\n")
        assert read_manifest(tmp_path / "m.txt") == {"key": "value"}

    @pytest.mark.parametrize("entries", [
        {" a": "b"}, {"a": "b "}, {"a": "x\ry"}, {"a": "x\x1cy"}, {"#a": "1"}, {"": "v"},
    ])
    def test_rejects_entries_the_reader_would_change(self, tmp_path, entries):
        with pytest.raises(ValueError):
            write_manifest(tmp_path / "m.txt", entries)


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = SeededRng(2)
        img = np.floor(rng.uniform(12 * 10 * 3).reshape(12, 10, 3) * 256).clip(0, 255)
        write_ppm(tmp_path / "a.ppm", img)
        back = read_ppm(tmp_path / "a.ppm")
        assert np.array_equal(back, img)

    def test_clamps_and_rounds(self, tmp_path):
        img = np.array([[[-5.0, 300.0, 127.6]]])
        write_ppm(tmp_path / "c.ppm", img)
        assert np.array_equal(read_ppm(tmp_path / "c.ppm"), [[[0.0, 255.0, 128.0]]])

    def test_bad_shape(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "b.ppm", np.zeros((4, 4)))


class TestPgm:
    def test_mask_round_trip(self, tmp_path):
        mask = np.linspace(0, 1, 64).reshape(8, 8)
        write_mask_pgm(tmp_path / "m.pgm", mask)
        back = read_mask_pgm(tmp_path / "m.pgm")
        assert np.abs(back - mask).max() <= 0.5 / 255.0

    def test_depth_8bit_when_small(self, tmp_path):
        depth = np.full((4, 4), 0.5)
        write_depth_pgm(tmp_path / "d.pgm", depth)
        _, maxval, _ = read_pgm(tmp_path / "d.pgm")
        assert maxval == 255
        assert np.abs(read_depth_pgm(tmp_path / "d.pgm") - depth).max() <= 0.5 / 255.0

    def test_depth_16bit_when_large(self, tmp_path):
        depth = np.linspace(0.0, 37.5, 30).reshape(5, 6)
        write_depth_pgm(tmp_path / "d.pgm", depth)
        _, maxval, _ = read_pgm(tmp_path / "d.pgm")
        assert maxval == 65535
        back = read_depth_pgm(tmp_path / "d.pgm")
        assert np.abs(back - depth).max() <= 0.5 * 37.5 / 65535.0


@pytest.mark.parametrize("write, shape", [(write_ppm, (2, 2, 3)), (write_pgm, (2, 2)),
                                          (write_mask_pgm, (2, 2)), (write_depth_pgm, (2, 2))])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_netpbm_writers_refuse_non_finite_pixels(tmp_path, write, shape, bad):
    pixels = np.full(shape, 0.5)
    pixels[1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic warns
        with pytest.raises(ValueError, match="non-finite"):
            write(tmp_path / "x.pnm", pixels)
    assert not (tmp_path / "x.pnm").exists()


def test_mask_writer_clips_before_scaling(tmp_path):
    inside = np.linspace(0.0, 1.0, 12)
    mask = np.concatenate([inside, [1e306, -1e306, 1.5, -0.25]]).reshape(4, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_mask_pgm(tmp_path / "m.pgm", mask)
    gray, maxval, _ = read_pgm(tmp_path / "m.pgm")
    assert maxval == 255
    # in-range values keep the bytes of rint(mask * 255); the rest saturate
    assert gray.ravel().tolist() == np.rint(inside * 255.0).tolist() + [255, 0, 255, 0]


def _seeded_grid(rng):
    cells, n, k = 4, 2, 3
    u = rng.uniform(cells * n).reshape(cells, n)
    probs = rng.uniform(cells * n * k).reshape(cells, n, k) + 0.1
    pred = PredictionGrid(
        s_grid=2, n_boxes=n,
        boxes=rng.normal(cells * n * 4).reshape(cells, n, 4),
        confidence=rng.uniform(cells * n).reshape(cells, n),
        class_probs=probs / probs.sum(axis=2, keepdims=True),
        obj_mask=u < 0.3, noobj_mask=u > 0.7)
    targets = GridTargets(
        boxes=rng.normal(cells * n * 4).reshape(cells, n, 4),
        class_probs=np.eye(k)[np.arange(cells * n) % k].reshape(cells, n, k))
    return pred, targets


def _digest(directory):
    h = hashlib.sha256()
    for f in sorted(directory.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _bundle(tmp_path):
    """A two-tensor bundle and the path of its manifest."""
    save_bundle(tmp_path / "b", {"kind": "demo"},
                {"a": np.arange(3.0), "b": np.ones((2, 2))})
    return tmp_path / "b", tmp_path / "b" / "manifest.txt"


class TestBundle:
    def test_layout_and_round_trip(self, tmp_path):
        directory, manifest = _bundle(tmp_path)
        assert manifest.read_text() == ("meta.kind=demo\n"
                                        "tensor.a=a.tsr\ntensor.b=b.tsr\n")
        assert sorted(f.name for f in directory.iterdir()) == ["a.tsr", "b.tsr", "manifest.txt"]
        meta, tensors = load_bundle(directory)
        assert meta == {"kind": "demo"}
        assert list(tensors) == ["a", "b"]
        assert np.array_equal(tensors["b"], np.ones((2, 2)))

    def test_savers_keep_their_bytes(self, tmp_path):
        # Bundles already on disk must keep loading and new ones must match
        # them, so the layout and bytes of every saver are pinned.
        save_fusion_params(FusionBlockParams.random(4, 2, 2, 2, SeededRng(31),
                                                    residual_mode="straight"),
                           tmp_path / "fusion")
        save_scan_params(SelectiveSsmParams.random(2, 3, SeededRng(32)), tmp_path / "selective")
        save_scan_params(Ss2dParams.random(2, 2, SeededRng(33)), tmp_path / "ss2d")
        save_grid(*_seeded_grid(SeededRng(34)), tmp_path / "grid")
        assert _digest(tmp_path / "fusion") \
            == "0bb81980153b78ab2e8ea9ffcbf5f21bd9e1299ab5f9e13991e987d8b58cc979"
        assert _digest(tmp_path / "selective") \
            == "214ef2c98c2f758d90e50cc04ad69066012ba27f837c8c24266dda0a6d52ea48"
        assert _digest(tmp_path / "ss2d") \
            == "5b812fd800a20f415c2622edddace098383d2d06961c68a54f62626dff707078"
        assert _digest(tmp_path / "grid") \
            == "89ea2e40d22ee544cc118e1dc3dfa5d4774556d79bb9d1c0083a98469ad950b1"
        assert (tmp_path / "grid" / "manifest.txt").read_text() == (
            "meta.s_grid=2\nmeta.n_boxes=2\nmeta.n_classes=3\n"
            "tensor.boxes=boxes.tsr\ntensor.confidence=confidence.tsr\n"
            "tensor.class_probs=class_probs.tsr\ntensor.obj_mask=obj_mask.tsr\n"
            "tensor.noobj_mask=noobj_mask.tsr\ntensor.target_boxes=target_boxes.tsr\n"
            "tensor.target_class_probs=target_class_probs.tsr\n")

    @pytest.mark.parametrize("line, named", [
        ("tensor.a=../outside_a.tsr", "../outside_a.tsr"),
        ("tensor.a={abs}", "outside_a.tsr"),
        ("tensor.a=b.tsr", "b.tsr"),
        ("tensor.../outside_a=../outside_a.tsr", "../outside_a"),
        ("kind=demo", "kind"),
        ("meta=demo", "meta"),
    ])
    def test_load_rejects_bad_manifest_lines(self, tmp_path, line, named):
        directory, manifest = _bundle(tmp_path)
        write_tensor(tmp_path / "outside_a.tsr", np.zeros(3))
        line = line.format(abs=tmp_path / "outside_a.tsr")
        manifest.write_text(manifest.read_text().replace("tensor.a=a.tsr", line))
        with pytest.raises(ValueError, match=re.escape(named)):
            load_bundle(directory)

    @pytest.mark.parametrize("save, load, name", [
        (lambda d: save_fusion_params(FusionBlockParams.random(2, 1, 1, 2, SeededRng(1)), d),
         load_fusion_params, "ss2d_t.col_bwd.u_c"),
        (lambda d: save_fusion_params(FusionBlockParams.random(2, 1, 1, 2, SeededRng(1)), d),
         load_fusion_params, "norm_scale_r"),
        (lambda d: save_scan_params(Ss2dParams.random(2, 1, SeededRng(2)), d),
         load_scan_params, "row_fwd.a"),
        (lambda d: save_grid(*_seeded_grid(SeededRng(3)), d), load_grid, "target_boxes"),
    ])
    def test_load_names_a_missing_or_extra_tensor(self, tmp_path, save, load, name):
        directory = tmp_path / "b"
        save(directory)
        manifest = directory / "manifest.txt"
        full = manifest.read_text()
        manifest.write_text(full.replace(f"tensor.{name}={name}.tsr\n", ""))
        with pytest.raises(ValueError, match=f"missing '{re.escape(name)}'"):
            load(directory)
        write_tensor(directory / "stray.tsr", np.zeros(1))
        manifest.write_text(full + "tensor.stray=stray.tsr\n")
        with pytest.raises(ValueError, match="unexpected tensor 'stray'"):
            load(directory)

    def test_load_names_a_missing_meta_entry(self, tmp_path):
        save_fusion_params(FusionBlockParams.random(2, 1, 1, 2, SeededRng(1)), tmp_path / "b")
        manifest = tmp_path / "b" / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("meta.grid_w=2\n", ""))
        with pytest.raises(ValueError, match="grid_w"):
            load_fusion_params(tmp_path / "b")

    def test_scan_loader_names_a_missing_kind(self, tmp_path):
        save_scan_params(SelectiveSsmParams.random(2, 1, SeededRng(4)), tmp_path / "p")
        manifest = tmp_path / "p" / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("meta.kind=selective\n", ""))
        with pytest.raises(ValueError, match="bundle is missing 'kind'"):
            load_scan_params(tmp_path / "p")

    @pytest.mark.parametrize("meta, tensors", [
        ({}, {"a": np.zeros(2), "b": np.zeros((0, 2))}),
        ({"note": "x\ny"}, {"a": np.zeros(2)}),
        ({}, {"a": np.zeros(2), "../b": np.zeros(2)}),
    ])
    def test_failed_save_leaves_nothing(self, tmp_path, meta, tensors):
        with pytest.raises(ValueError):
            save_bundle(tmp_path / "out" / "b", meta, tensors)
        assert list((tmp_path / "out").iterdir()) == []

    def test_save_refuses_a_non_empty_directory(self, tmp_path):
        save_scan_params(SelectiveSsmParams.random(2, 1, SeededRng(4)), tmp_path / "p")
        before = {f.name: f.read_bytes() for f in (tmp_path / "p").iterdir()}
        with pytest.raises(ValueError, match="not empty"):
            save_scan_params(Ss2dParams.random(2, 1, SeededRng(5)), tmp_path / "p")
        assert {f.name: f.read_bytes() for f in (tmp_path / "p").iterdir()} == before

    def test_save_into_an_empty_directory(self, tmp_path):
        (tmp_path / "b").mkdir()
        directory, _ = _bundle(tmp_path)
        assert load_bundle(directory)[0] == {"kind": "demo"}
