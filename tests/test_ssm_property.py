"""Property test: the fast selective scan agrees with the reference loop."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cfmw_kit.ssm import SelectiveSsmParams, _selective_forward, selective_scan  # noqa: E402
from cfmw_kit.tensor import SeededRng  # noqa: E402


@settings(max_examples=60)
@given(length=st.integers(1, 300), d_ch=st.integers(1, 6), n=st.integers(1, 6),
       scale=st.sampled_from([1e-3, 1.0, 30.0]), seed=st.integers(0, 2 ** 64 - 1))
def test_fast_scan_matches_reference(length, d_ch, n, scale, seed):
    rng = SeededRng(seed)
    p = SelectiveSsmParams.random(d_ch, n, rng)
    x = rng.normal(length * d_ch).reshape(length, d_ch) * scale
    want = _selective_forward(x, p)[0]
    got = selective_scan(x, p)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
