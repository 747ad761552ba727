"""The property suites share one Hypothesis profile, registered in conftest.py:
the same draws on every run, no example database, no deadline, no explain
phase."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, settings  # noqa: E402


def _holds_the_profile(s):
    assert s.deadline is None
    assert s.derandomize is True
    assert s.database is None
    assert Phase.explain not in s.phases
    assert Phase.shrink in s.phases


def test_profile_is_the_default():
    _holds_the_profile(settings.default)


def test_a_site_setting_only_max_examples_keeps_the_profile():
    s = settings(max_examples=3)
    assert s.max_examples == 3
    _holds_the_profile(s)
