import hashlib
import re
import warnings

import numpy as np
import pytest

from cfmw_kit.fusion import FusionBlockParams, load_fusion_params, save_fusion_params
from cfmw_kit.imageio import read_ppm, write_ppm
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

    @pytest.mark.parametrize("blob, message", [
        (b"a=1\n\n# note\nb=2\x84\n", "line 4: non-ASCII byte 0x84"),
        (b"a=1\nb=2\n# a=3\na=4\n", "line 4: key 'a' given twice"),
    ])
    def test_reader_names_the_file_and_line(self, tmp_path, blob, message):
        (tmp_path / "m.txt").write_bytes(blob)
        with pytest.raises(ValueError, match=re.escape(f"m.txt {message}")):
            read_manifest(tmp_path / "m.txt")

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


# (header, payload length, (H, W) read or None for a ValueError): header
# spellings, each outcome as a tokenizing reader with the same rules gives it.
# Fields are separated by whitespace and by "#" comments that run to the end
# of their line; one whitespace byte after maxval starts the payload.
PPM_HEADERS = [
    (b'P6\n2 1\n255\n', 6, (1, 2)),
    (b'P6 2 1 255 ', 6, (1, 2)),
    (b'P6\t2\t1\t255\t', 6, (1, 2)),
    (b'P6\r2\r1\r255\r', 6, (1, 2)),
    (b'P6\x0b2\x0b1\x0b255\x0b', 6, (1, 2)),
    (b'P6\x0c2\x0c1\x0c255\x0c', 6, (1, 2)),
    (b'P6\r\n2 1\r\n255\n', 6, (1, 2)),
    (b'P6\r\n2 1\r\n255\r\n', 6, None),
    (b'P6\r\n2 1\r\n255\r\n', 5, (1, 2)),
    (b'P6\n# comment\n2 1\n255\n', 6, (1, 2)),
    (b'# lead\nP6 2 1 255\n', 6, (1, 2)),
    (b' \t\nP6 2 1 255\n', 6, (1, 2)),
    (b'P6\n#\n2\n#\n1\n#\n255\n', 6, (1, 2)),
    (b'P6 2 1\n# before maxval\n255\n', 6, (1, 2)),
    (b'P6#c\n2 1 255\n', 6, None),
    (b'P6 2#c\n1 255\n', 6, None),
    (b'P6 2 1 255#c\n', 6, None),
    (b'P6 2 1 255 #c\n', 6, None),
    (b'P6 2 1 255 #c\n', 3, (1, 2)),
    (b'P6 +2 1 255\n', 6, (1, 2)),
    (b'P6 2 1 +255\n', 6, (1, 2)),
    (b'P6 1_0 1 255\n', 30, (1, 10)),
    (b'P6 2 1 2_55\n', 6, (1, 2)),
    (b'P6 002 01 0255\n', 6, (1, 2)),
    (b'P6 -2 1 255\n', 6, None),
    (b'P6 0 1 255\n', 0, None),
    (b'P6 2x 1 255\n', 6, None),
    (b'P6 2\xa01 255\n', 6, None),
    (b'P6 2 1 65535\n', 6, None),
    (b'P6 2 1 254\n', 6, None),
    (b'P5 2 1 255\n', 6, None),
    (b'', 0, None),
    (b'P6', 0, None),
    (b'P6 2', 0, None),
    (b'P6 2 1', 0, None),
    (b'P6 2 1 255', 0, None),
    (b'P6 2 1 #c\n', 6, None),
    (b'P6 2 1 # no newline', 0, None),
    (b'P6 2 1 255\n', 5, None),
    (b'P6 2 1 255\n', 7, None),
]


@pytest.mark.parametrize("header, n, want", PPM_HEADERS)
def test_ppm_header_spellings(tmp_path, header, n, want):
    blob = header + bytes(range(40, 40 + n))
    (tmp_path / "h.ppm").write_bytes(blob)
    if want is None:
        with pytest.raises(ValueError):
            read_ppm(tmp_path / "h.ppm")
        return
    got = read_ppm(tmp_path / "h.ppm")
    assert got.shape == (*want, 3)
    assert got.ravel().tolist() == list(blob[len(blob) - got.size:])


@pytest.mark.parametrize("write, shape", [(write_ppm, (2, 2, 3))])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_netpbm_writers_refuse_non_finite_pixels(tmp_path, write, shape, bad):
    pixels = np.full(shape, 0.5)
    pixels[1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic warns
        with pytest.raises(ValueError, match="non-finite"):
            write(tmp_path / "x.pnm", pixels)
    assert not (tmp_path / "x.pnm").exists()


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
        # The fusion bundle nests all eight Ss2dParams directions, so its
        # digest also pins the scan-parameter tensors.
        save_fusion_params(FusionBlockParams.random(4, 2, 2, 2, SeededRng(31),
                                                    residual_mode="straight"),
                           tmp_path / "fusion")
        assert _digest(tmp_path / "fusion") \
            == "0bb81980153b78ab2e8ea9ffcbf5f21bd9e1299ab5f9e13991e987d8b58cc979"

    @pytest.mark.parametrize("line, named", [
        ("tensor.a=../outside_a.tsr", "../outside_a.tsr"),
        ("tensor.a={abs}", "outside_a.tsr"),
        ("tensor.a=b.tsr", "b.tsr"),
        ("tensor.../outside_a=../outside_a.tsr", "../outside_a"),
        ("kind=demo", "kind"),
        ("meta=demo", "meta"),
        ("tensor.a=a.tsr\ntensor.a=a.tsr", "line 3: key 'tensor.a' given twice"),
        ("tensor.a=a.tsr\nmeta.kind=demo", "line 3: key 'meta.kind' given twice"),
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

    def test_load_names_an_extra_meta_entry(self, tmp_path):
        save_fusion_params(FusionBlockParams.random(2, 1, 1, 2, SeededRng(1)), tmp_path / "b")
        manifest = tmp_path / "b" / "manifest.txt"
        manifest.write_text("meta.stray=1\n" + manifest.read_text())
        with pytest.raises(ValueError, match="unexpected meta entry 'stray'"):
            load_fusion_params(tmp_path / "b")

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
        save_fusion_params(FusionBlockParams.random(2, 1, 1, 2, SeededRng(4)), tmp_path / "p")
        before = {f.name: f.read_bytes() for f in (tmp_path / "p").iterdir()}
        with pytest.raises(ValueError, match="not empty"):
            save_bundle(tmp_path / "p", {"kind": "demo"}, {"a": np.zeros(2)})
        assert {f.name: f.read_bytes() for f in (tmp_path / "p").iterdir()} == before

    def test_save_into_an_empty_directory(self, tmp_path):
        (tmp_path / "b").mkdir()
        directory, _ = _bundle(tmp_path)
        assert load_bundle(directory)[0] == {"kind": "demo"}
