"""Property tests for the file readers: round trips, and fuzzed input fails only with ValueError."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from cfmw_kit.cli import main  # noqa: E402
from cfmw_kit.imageio import read_ppm, write_ppm  # noqa: E402
from cfmw_kit.metrics import (  # noqa: E402
    Detections,
    GroundTruth,
    mean_ap,
    parse_detections,
    parse_ground_truth,
)
from cfmw_kit.tensor_io import (  # noqa: E402
    read_manifest,
    read_tensor,
    write_manifest,
    write_tensor,
)

SETTINGS = settings(max_examples=150)

_ascii = st.characters(max_codepoint=127)
_plain = st.characters(min_codepoint=33, max_codepoint=126)
_shapes = hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=5)
_images = st.tuples(st.integers(1, 6), st.integers(1, 6))
_coord = st.floats(-1e6, 1e6, allow_nan=False)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("io_property")


@SETTINGS
@given(arr=hnp.arrays(np.float64, _shapes))
def test_tsr1_round_trip_is_bit_exact(scratch, arr):
    write_tensor(scratch / "t.tsr", arr)
    back = read_tensor(scratch / "t.tsr")
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


@SETTINGS
@given(blob=st.one_of(st.binary(max_size=64),
                      st.binary(max_size=48).map(lambda b: b"TSR1" + b)))
def test_tsr1_reader_fails_only_with_value_error(scratch, blob):
    (scratch / "fuzz.tsr").write_bytes(blob)
    try:
        read_tensor(scratch / "fuzz.tsr")
    except ValueError:
        pass


@SETTINGS
@given(entries=st.dictionaries(st.one_of(st.text(_plain, max_size=6), st.text(_ascii, max_size=6)),
                               st.one_of(st.text(_plain, max_size=6), st.text(_ascii, max_size=6)),
                               max_size=5))
def test_manifest_round_trip(scratch, entries):
    path = scratch / "manifest.txt"
    try:
        write_manifest(path, entries)
    except ValueError:
        return
    assert read_manifest(path) == entries


@SETTINGS
@given(blob=st.binary(max_size=64))
def test_manifest_reader_fails_only_with_value_error(scratch, blob):
    path = scratch / "fuzz.txt"
    path.write_bytes(blob)
    try:
        read_manifest(path)
    except ValueError:
        pass


@SETTINGS
@given(hw=_images, data=st.data())
def test_ppm_round_trip(scratch, hw, data):
    h, w = hw
    pixels = data.draw(hnp.arrays(np.uint8, (h, w, 3))).astype(np.float64)
    write_ppm(scratch / "a.ppm", pixels)
    assert np.array_equal(read_ppm(scratch / "a.ppm"), pixels)


_netpbm_headers = st.tuples(
    st.sampled_from([b"P5", b"P6", b"P4", b""]),
    st.lists(st.sampled_from([b"0", b"1", b"2", b"3", b"255", b"65535", b"-1", b"x", b"# c\n"]),
             max_size=4),
    st.binary(max_size=24),
).map(lambda t: t[0] + b"\n" + b" ".join(t[1]) + b"\n" + t[2])


@SETTINGS
@given(blob=st.one_of(st.binary(max_size=64), _netpbm_headers))
def test_netpbm_readers_fail_only_with_value_error(scratch, blob):
    path = scratch / "fuzz.pnm"
    path.write_bytes(blob)
    try:
        read_ppm(path)
    except ValueError:
        pass


def _boxes():
    side = st.floats(1e-3, 1e6)
    return st.tuples(_coord, _coord, side, side).map(
        lambda b: (b[0], b[1], b[0] + b[2], b[1] + b[3]))


# class ids anywhere in the exact float64 range, small ones most often
_class_ids = st.one_of(st.integers(-5, 100), st.integers(1 - 2 ** 53, 2 ** 53 - 1))


@SETTINGS
@given(dets=st.lists(st.tuples(_class_ids, _boxes(), st.floats(0.0, 1.0)), max_size=5),
       gts=st.lists(st.tuples(_class_ids, _boxes()), max_size=5))
def test_box_text_round_trip(dets, gts):
    det_text = "".join(f"{c} {' '.join(map(repr, box))} {s!r}\n" for c, box, s in dets)
    gt_text = "".join(f"{c} {' '.join(map(repr, box))}\n" for c, box in gts)
    want_dets = Detections([(c, *box, s) for c, box, s in dets])
    want_gts = GroundTruth([(c, *box) for c, box in gts])
    assert parse_detections(det_text).table.tobytes() == want_dets.table.tobytes()
    assert parse_ground_truth(gt_text).table.tobytes() == want_gts.table.tobytes()
    assert [int(c) for c in parse_detections(det_text).class_id] == [c for c, _, _ in dets]


_box_lines = st.lists(
    st.lists(st.sampled_from(["0", "1", "2.5", "-1", "1_0", "1e400", "99999999999999999999999",
                              "nan", "inf", "x", "#"]),
             max_size=7).map(" ".join),
    max_size=4).map("\n".join)


@SETTINGS
@given(text=st.one_of(st.text(max_size=64), _box_lines))
def test_box_text_parsers_fail_only_with_value_error(text):
    for parse in (parse_detections, parse_ground_truth):
        try:
            parse(text)
        except ValueError:
            pass


# ------------------------------------------------- eval over box directories

_BAD_LINES = ["0 0 0 10 x 0.5", "0 0 0 10", "2.5 0 0 1 1 0.5", "0 5 5 1 1 0.5", "0 0 0 1 1 7",
              "0 0 0 1 1 0.5 9", "0 0 0 1 1 0.\u00e9"]
_names = st.lists(st.sampled_from(["a.txt", "B.txt", "c", "img10.txt", "img2.txt", "_z"]),
                  min_size=1, max_size=5, unique=True)


def _box_file(width: int, bad: bool = False):
    """One box file: rows of ``width`` fields, blank lines and ``#`` comments,
    each ended by LF or CRLF, the last one maybe not; empty files too. With
    ``bad``, a line may also be one that no parser accepts."""
    row = st.builds(
        lambda sep, c, x, y, w, h, s: sep.join(map(str, [c, x, y, x + w, y + h, s][:width])),
        st.sampled_from([" ", "\t", "  "]), st.integers(0, 2), st.integers(0, 12),
        st.integers(0, 12), st.integers(1, 8), st.integers(1, 8), st.floats(0.0, 1.0))
    line = st.one_of(row, row, st.sampled_from(["", "  ", "# note", "#0 0 0 1 1", " # x y"]),
                     *[st.sampled_from(_BAD_LINES)] * bad)
    lines = st.lists(st.tuples(line, st.sampled_from(["\n", "\r\n"])), max_size=5)
    return st.builds(lambda ls, cut: "".join(t + end for t, end in ls)[:-len(ls[-1][1]) if cut and ls
                                                                      else None],
                     lines, st.booleans())


def _box_dirs(scratch, data, bad=False):
    """Fresh ``dets/`` and ``gts/`` dirs under ``scratch``, paired by name;
    returns the root and ``{name: (dets text, gts text)}``."""
    files = {name: (data.draw(_box_file(6, bad)), data.draw(_box_file(5, bad)))
             for name in data.draw(_names)}
    root = Path(tempfile.mkdtemp(dir=scratch))
    for side, kind in enumerate(("dets", "gts")):
        (root / kind).mkdir()
        for name, texts in files.items():
            (root / kind / name).write_bytes(texts[side].encode("latin-1"))
    return root, files


def _eval(root, *extra):
    """``eval`` on ``root``'s box dirs: (exit code, metrics.csv bytes or None, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eval", "--dets", str(root / "dets"), "--gts", str(root / "gts"),
                     "--out", str(root / "out"), *map(str, extra)])
    out = root / "out" / "metrics.csv"
    return code, out.read_bytes() if out.exists() else None, err.getvalue()


@SETTINGS
@given(data=st.data(), max_area=st.sampled_from([None, 4.0, 20.0, 50.0]))
def test_eval_over_box_dirs_equals_mean_ap_over_files(scratch, data, max_area):
    root, files = _box_dirs(scratch, data)

    def kept(boxes):  # each image filtered in turn
        b = boxes.table[:, 1:5]
        area = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
        return boxes if max_area is None else type(boxes)(boxes.table[area < max_area])

    result = mean_ap([(kept(parse_detections(d)), kept(parse_ground_truth(g)))
                      for _, (d, g) in sorted(files.items())])
    want = (f"metric,value\nmap50,{result.map50!r}\nmap75,{result.map75!r}\n"
            f"map,{result.map_mean!r}\n").encode()
    assert _eval(root, *["--max-area", max_area] * (max_area is not None))[:2] == (0, want)


@SETTINGS
@given(data=st.data())
def test_eval_names_the_first_bad_file_as_its_own_parse_does(scratch, data):
    root, files = _box_dirs(scratch, data, bad=True)
    want = None
    for side, (kind, parse) in enumerate((("dets", parse_detections),
                                          ("gts", parse_ground_truth))):
        for name, texts in sorted(files.items()):
            try:
                parse(texts[side].encode("latin-1").decode("ascii"))
            except ValueError as exc:
                want = want or f"error: {root / kind / name}: {exc}\n"
    code, out, err = _eval(root)
    assert (code, err) == ((0, "") if want is None else (1, want))
    assert (out is None) == (want is not None)
