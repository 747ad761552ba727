"""Property tests for box overlap over the whole accepted coordinate range."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from cfmw_kit import metrics  # noqa: E402
from cfmw_kit.metrics import BOX_COORD_LIMIT, GroundTruthBox, giou, iou  # noqa: E402

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)

_coord = st.floats(-BOX_COORD_LIMIT, BOX_COORD_LIMIT, allow_nan=False)


@st.composite
def boxes(draw):
    x1, x2 = sorted((draw(_coord), draw(_coord)))
    y1, y2 = sorted((draw(_coord), draw(_coord)))
    assume(x1 < x2 and y1 < y2 and (x2 - x1) * (y2 - y1) > 0.0)
    return (x1, y1, x2, y2)


@SETTINGS
@given(boxes(), boxes())
def test_overlaps_stay_in_range(a, b):
    v, g = iou(a, b), giou(a, b)
    assert 0.0 <= v <= 1.0
    assert -1.0 <= g <= 1.0
    assert iou(a, a) == 1.0 and iou(b, b) == 1.0


@SETTINGS
@given(boxes(), boxes())
def test_accepted_boxes_keep_their_bits(a, b):
    assert GroundTruthBox(a, 0).box == a
    m = metrics._iou_matrix(np.array([a, b]), np.array([b, a]))
    want = np.array([[iou(a, b), iou(a, a)], [iou(b, b), iou(b, a)]])
    assert m.tobytes() == want.tobytes()
