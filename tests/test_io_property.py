"""Property tests for the file readers: round trips, and fuzzed input fails only with ValueError."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from cfmw_kit.imageio import read_ppm, write_ppm  # noqa: E402
from cfmw_kit.metrics import (  # noqa: E402
    Detection,
    GroundTruthBox,
    parse_detections,
    parse_ground_truth,
)
from cfmw_kit.tensor_io import (  # noqa: E402
    read_manifest,
    tensor_from_bytes,
    tensor_to_bytes,
    write_manifest,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

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
def test_tsr1_round_trip_is_bit_exact(arr):
    back = tensor_from_bytes(tensor_to_bytes(arr))
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


@SETTINGS
@given(blob=st.one_of(st.binary(max_size=64),
                      st.binary(max_size=48).map(lambda b: b"TSR1" + b)))
def test_tsr1_reader_fails_only_with_value_error(blob):
    try:
        tensor_from_bytes(blob)
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


@SETTINGS
@given(dets=st.lists(st.builds(Detection, box=_boxes(), class_id=st.integers(-5, 100),
                               confidence=st.floats(0.0, 1.0)), max_size=5),
       gts=st.lists(st.builds(GroundTruthBox, box=_boxes(), class_id=st.integers(-5, 100)),
                    max_size=5))
def test_box_text_round_trip(dets, gts):
    det_text = "".join(f"{d.class_id} {' '.join(map(repr, d.box))} {d.confidence!r}\n"
                       for d in dets)
    gt_text = "".join(f"{g.class_id} {' '.join(map(repr, g.box))}\n" for g in gts)
    assert parse_detections(det_text) == dets
    assert parse_ground_truth(gt_text) == gts


_box_lines = st.lists(
    st.lists(st.sampled_from(["0", "1", "2.5", "-1", "1e400", "nan", "inf", "x", "#"]),
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
