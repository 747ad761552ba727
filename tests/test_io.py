import dataclasses
import hashlib
import re
import warnings

import numpy as np
import pytest

from cfmw_kit.diffusion import NoiseSchedule
from cfmw_kit.fusion import FusionBlockParams, PatchEmbedding
from cfmw_kit.imageio import read_ppm, write_ppm
from cfmw_kit.tensor import SeededRng, randn
from cfmw_kit.tensor_io import (
    load_params,
    read_manifest,
    read_tensor,
    save_params,
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
        write_tensor(tmp_path / "u.tsr", back)
        assert (tmp_path / "u.tsr").read_bytes() == path.read_bytes()

    def test_rank1(self, tmp_path):
        arr = np.array([1.5, -2.25, 3.0])
        write_tensor(tmp_path / "v.tsr", arr)
        assert np.array_equal(read_tensor(tmp_path / "v.tsr"), arr)

    def test_header_layout(self, tmp_path):
        write_tensor(tmp_path / "t.tsr", np.zeros((2, 3)))
        blob = (tmp_path / "t.tsr").read_bytes()
        assert blob[:4] == b"TSR1"
        assert blob[4:8] == (2).to_bytes(4, "little")
        assert blob[8:12] == (2).to_bytes(4, "little")
        assert blob[12:16] == (3).to_bytes(4, "little")
        assert len(blob) == 16 + 6 * 8

    def test_bad_magic(self, tmp_path):
        (tmp_path / "t.tsr").write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(ValueError):
            read_tensor(tmp_path / "t.tsr")

    def test_truncated_payload(self, tmp_path):
        write_tensor(tmp_path / "t.tsr", np.zeros((2, 2)))
        (tmp_path / "t.tsr").write_bytes((tmp_path / "t.tsr").read_bytes()[:-8])
        with pytest.raises(ValueError):
            read_tensor(tmp_path / "t.tsr")

    def test_zero_extent_refused_by_writer(self, tmp_path):
        with pytest.raises(ValueError, match="extents"):
            write_tensor(tmp_path / "t.tsr", np.zeros((0, 3)))
        assert not (tmp_path / "t.tsr").exists()


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

    @pytest.mark.parametrize("shape", [(0, 5, 3), (5, 0, 3)])
    def test_zero_extent_refused_by_writer(self, tmp_path, shape):
        # read_ppm refuses such a header, so the writer must not produce one
        with pytest.raises(ValueError, match="netpbm extents must be >= 1"):
            write_ppm(tmp_path / "z.ppm", np.zeros(shape))
        assert not (tmp_path / "z.ppm").exists()


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


@dataclasses.dataclass(frozen=True)
class _Demo:
    kind: str
    a: np.ndarray
    b: np.ndarray


def _bundle(tmp_path):
    """A two-tensor bundle and the path of its manifest."""
    save_params(_Demo("demo", np.arange(3.0), np.ones((2, 2))), tmp_path / "b")
    return tmp_path / "b", tmp_path / "b" / "manifest.txt"


def _fusion_bundle(directory):
    save_params(FusionBlockParams.random(2, 1, 1, 2, SeededRng(1)), directory)
    return directory / "manifest.txt"


class TestBundle:
    def test_layout_and_round_trip(self, tmp_path):
        directory, manifest = _bundle(tmp_path)
        assert manifest.read_text() == ("meta.kind=demo\n"
                                        "tensor.a=a.tsr\ntensor.b=b.tsr\n")
        assert sorted(f.name for f in directory.iterdir()) == ["a.tsr", "b.tsr", "manifest.txt"]
        demo = load_params(_Demo, directory)
        assert demo.kind == "demo"
        assert np.array_equal(demo.a, np.arange(3.0))
        assert np.array_equal(demo.b, np.ones((2, 2)))

    def test_savers_keep_their_bytes(self, tmp_path):
        # Bundles already on disk must keep loading and new ones must match
        # them, so the layout and bytes of every saver are pinned.
        # The fusion bundle nests all eight Ss2dParams directions, so its
        # digest also pins the scan-parameter tensors.
        save_params(FusionBlockParams.random(4, 2, 2, 2, SeededRng(31),
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
            load_params(_Demo, directory)

    @pytest.mark.parametrize("name", ["ss2d_t.col_bwd.u_c", "norm_scale_r"])
    def test_load_names_a_missing_or_extra_tensor(self, tmp_path, name):
        manifest = _fusion_bundle(tmp_path / "b")
        full = manifest.read_text()
        manifest.write_text(full.replace(f"tensor.{name}={name}.tsr\n", ""))
        with pytest.raises(ValueError, match=f"missing '{re.escape(name)}'"):
            load_params(FusionBlockParams, tmp_path / "b")
        write_tensor(tmp_path / "b" / "stray.tsr", np.zeros(1))
        manifest.write_text(full + "tensor.stray=stray.tsr\n")
        with pytest.raises(ValueError, match="unexpected tensor 'stray'"):
            load_params(FusionBlockParams, tmp_path / "b")

    def test_load_names_a_missing_meta_entry(self, tmp_path):
        manifest = _fusion_bundle(tmp_path / "b")
        manifest.write_text(manifest.read_text().replace("meta.grid_w=2\n", ""))
        with pytest.raises(ValueError, match="grid_w"):
            load_params(FusionBlockParams, tmp_path / "b")

    def test_load_names_an_extra_meta_entry(self, tmp_path):
        manifest = _fusion_bundle(tmp_path / "b")
        manifest.write_text("meta.stray=1\n" + manifest.read_text())
        with pytest.raises(ValueError, match="unexpected meta entry 'stray'"):
            load_params(FusionBlockParams, tmp_path / "b")

    @pytest.mark.parametrize("kind, b", [("demo", np.zeros((0, 2))), ("x\ny", np.zeros(2))],
                             ids=["zero_extent_tensor", "line_break_in_meta"])
    def test_failed_save_leaves_nothing(self, tmp_path, kind, b):
        with pytest.raises(ValueError):
            save_params(_Demo(kind, np.zeros(2), b), tmp_path / "out" / "b")
        assert list((tmp_path / "out").iterdir()) == []

    def test_save_refuses_a_non_empty_directory(self, tmp_path):
        _fusion_bundle(tmp_path / "p")
        before = {f.name: f.read_bytes() for f in (tmp_path / "p").iterdir()}
        with pytest.raises(ValueError, match="not empty"):
            save_params(_Demo("demo", np.zeros(2), np.zeros(2)), tmp_path / "p")
        assert {f.name: f.read_bytes() for f in (tmp_path / "p").iterdir()} == before

    def test_save_into_an_empty_directory(self, tmp_path):
        (tmp_path / "b").mkdir()
        directory, _ = _bundle(tmp_path)
        assert load_params(_Demo, directory).kind == "demo"

    def test_save_refuses_a_field_it_cannot_store(self, tmp_path):
        # str(False) would read back as bool("False"), which is True
        pe = PatchEmbedding(patch=1, w=np.ones((3, 2)), e_pos=np.zeros((2, 2)),
                            cls_token=np.zeros(2), use_cls=False)
        with pytest.raises(ValueError, match=r"PatchEmbedding\.use_cls"):
            save_params(pe, tmp_path / "pe")
        assert list(tmp_path.iterdir()) == []

    def test_only_init_fields_are_stored(self, tmp_path):
        schedule = NoiseSchedule(np.linspace(1e-4, 0.02, 10))
        save_params(schedule, tmp_path / "s")
        assert (tmp_path / "s" / "manifest.txt").read_text() == "tensor.beta=beta.tsr\n"
        back = load_params(NoiseSchedule, tmp_path / "s")
        assert np.array_equal(back.alpha_bar, schedule.alpha_bar)
