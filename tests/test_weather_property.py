"""Property tests for the weather compositors: every accepted input gives a
finite image in [0, 255], with no NumPy warning on the way."""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from cfmw_kit.weather import apply_fog, apply_rain, apply_snow  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

_MAX = float(np.finfo(np.float64).max)


def _field(shape, lo, hi):
    return hnp.arrays(np.float64, shape, elements=st.floats(lo, hi))


@st.composite
def _image_field_overlay(draw, lo, hi):
    """An (H, W) or (H, W, 3) image in [0, 255], an (H, W) field in
    [lo, hi] and an overlay image of the image's shape."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    shape = (h, w, 3) if draw(st.booleans()) else (h, w)
    return (draw(_field(shape, 0.0, 255.0)), draw(_field((h, w), lo, hi)),
            draw(_field(shape, 0.0, 255.0)))


def _check_composite(call, shape):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = call()
    assert out.shape == shape
    assert np.all(np.isfinite(out))
    assert out.min() >= 0.0 and out.max() <= 255.0


@SETTINGS
@given(st.sampled_from([apply_rain, apply_snow]), _image_field_overlay(0.0, 1.0))
def test_blend_stays_in_range(apply, inputs):
    img, mask, overlay = inputs
    _check_composite(lambda: apply(img, mask, overlay), img.shape)


@SETTINGS
@given(inputs=_image_field_overlay(0.0, _MAX),
       beta=st.floats(0.0, _MAX), l_inf=st.floats(-_MAX, _MAX))
@example(inputs=(np.full((2, 2, 3), 100.0), np.full((2, 2), 1e200), None),
         beta=1e200, l_inf=200.0)
def test_fog_stays_in_range(inputs, beta, l_inf):
    img, depth, _ = inputs
    _check_composite(lambda: apply_fog(img, depth, beta, l_inf), img.shape)
