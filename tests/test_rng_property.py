"""Property tests for batched draws: ``SeededRng.draws`` gives the bytes and
leaves the ``words_consumed`` of the same draws made in turn."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from cfmw_kit.tensor import SeededRng  # noqa: E402

SETTINGS = settings(max_examples=300)

_SPEC = st.lists(st.tuples(st.sampled_from(["uniform", "normal"]), st.integers(0, 41)),
                 max_size=12)


@SETTINGS
@given(seed=st.integers(0, 2 ** 64 - 1), skip=st.integers(0, 5), spec=_SPEC)
@example(seed=31, skip=3, spec=[("normal", 786_432)])
@example(seed=7, skip=1, spec=[("uniform", 5), ("normal", 786_432), ("normal", 3),
                               ("uniform", 0), ("normal", 0), ("normal", 1)])
def test_draws_match_the_same_draws_in_turn(seed, skip, spec):
    batched, in_turn = SeededRng(seed), SeededRng(seed)
    batched.uniform(skip)  # an odd offset into the stream
    in_turn.uniform(skip)
    got = batched.draws(*spec)
    want = [in_turn.uniform(n) if kind == "uniform" else in_turn.normal(n)
            for kind, n in spec]
    assert len(got) == len(spec)
    for g, w, (_, n) in zip(got, want, spec):
        assert g.dtype == np.float64 and g.shape == (n,)
        assert g.tobytes() == w.tobytes()
    assert batched.words_consumed == in_turn.words_consumed
    assert batched.uniform(4).tobytes() == in_turn.uniform(4).tobytes()


@pytest.mark.parametrize("draw", [
    lambda rng: rng.normal(-1),
    lambda rng: rng.uniform(-1),
    lambda rng: rng.draws(("uniform", 4), ("uniform", -2)),
    lambda rng: rng.draws(("normal", 2), ("gaussian", 2)),
], ids=["normal", "uniform", "draws_count", "draws_kind"])
def test_bad_entry_refused_before_any_word_is_used(draw):
    rng = SeededRng(5)
    with pytest.raises(ValueError, match="^(draw count must be >= 0|draw kind must be)"):
        draw(rng)
    assert rng.words_consumed == 0
