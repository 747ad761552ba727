"""The array-field contract shared by every parameter container.

Each frozen dataclass in the kit whose fields include an ``np.ndarray``
stores those fields as float64 arrays and refuses a non-finite entry with a
ValueError naming the field (``tensor.freeze_arrays``).
"""

import dataclasses
import importlib
import typing

import numpy as np
import pytest

import cfmw_kit
from cfmw_kit import diffusion, weather
from cfmw_kit.detloss import GridTargets, PredictionGrid
from cfmw_kit.diffusion import NoiseSchedule, TinyMlpPredictor, make_schedule
from cfmw_kit.fusion import (
    AttentionFusionParams,
    FusionBlockParams,
    ModalityFeatures,
    Mlp3,
)
from cfmw_kit.metrics import Detections, GroundTruth
from cfmw_kit.ssm import ContinuousSsm, SelectiveSsmParams, Ss2dParams, discretize
from cfmw_kit.tensor import SeededRng
from test_fusion import random_embedding


def _samples():
    """One valid instance of every container that holds arrays."""
    rng = SeededRng(3)
    m = ContinuousSsm.random(2, rng)
    return [
        m,
        discretize(m, 0.1),
        SelectiveSsmParams.random(2, 3, rng),
        ModalityFeatures(f_r=np.ones((1, 2, 2)), f_t=np.zeros((1, 2, 2))),
        random_embedding(1, 1, 2, 1, rng),
        Mlp3.random(2, rng),
        FusionBlockParams.random(2, 1, 1, 1, rng),
        AttentionFusionParams.random(2, rng),
        make_schedule("linear", 3),
        PredictionGrid(boxes=[[[0, 0, 1, 1], [0, 0, 2, 2]]], confidence=[[1.0, 0.0]],
                       class_probs=[[[1.0], [1.0]]], obj_mask=[[True, False]],
                       noobj_mask=[[False, True]]),
        GridTargets(boxes=[[[0, 0, 1, 1], [0, 0, 2, 2]]], class_probs=[[[1.0], [1.0]]]),
        GroundTruth(table=[[0, 0, 0, 1, 1], [3, 1, 1, 2, 4]]),
        Detections(table=[[0, 0, 0, 1, 1, 0.5], [3, 1, 1, 2, 4, 1.0]]),
    ]


def _init_values(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init}


_CASES = [(obj, f.name) for obj in _samples() for f in dataclasses.fields(obj)
          if f.init and typing.get_type_hints(type(obj))[f.name] is np.ndarray]


@pytest.mark.parametrize("obj, name", _CASES,
                         ids=[f"{type(o).__name__}.{n}" for o, n in _CASES])
def test_array_field_is_float64_and_finite(obj, name):
    values = _init_values(obj)
    rebuilt = type(obj)(**{**values, name: np.asarray(values[name]).tolist()})
    want = bool if name.endswith("_mask") else np.float64
    assert getattr(rebuilt, name).dtype == want
    assert np.array_equal(getattr(rebuilt, name), values[name])
    for bad in (np.nan, np.inf):
        arr = np.array(values[name], dtype=np.float64)
        arr.flat[-1] = bad
        with pytest.raises(ValueError, match=f"^{name} contains non-finite values"):
            type(obj)(**{**values, name: arr})


def test_every_array_container_is_covered():
    # A container added later must join the table above, so it cannot skip
    # the contract unnoticed.
    found = set()
    for module in cfmw_kit._SUBMODULES:
        mod = importlib.import_module(f"cfmw_kit.{module}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and np.ndarray in typing.get_type_hints(obj).values()):
                found.add(obj)
    assert found == {type(obj) for obj in _samples()}


def test_noise_schedule_derives_its_products():
    beta = np.array([0.1, 0.2, 0.05])
    sched = NoiseSchedule(beta)
    assert np.array_equal(sched.alpha, 1.0 - beta)
    assert np.array_equal(sched.alpha_bar, np.cumprod(1.0 - beta))
    with pytest.raises(TypeError):
        NoiseSchedule(beta, alpha=[5.0, -3.0, 1.0])


def _words(n: int, kind: str = "normal") -> int:
    return n if kind == "uniform" else 2 * ((n + 1) // 2)


def _scan_words(d: int, n: int) -> int:
    return _words(d * n, "uniform") + sum(map(_words, (d * d, d, n * d, n, n * d, n)))


def _mlp_words(c: int) -> int:
    h = 2 * c
    return sum(map(_words, (c * h, h, h * h, h, h * c, c)))


# (factory, SeededRng._raw calls, words): each container, and each weather
# generator, takes all its words in one batched draw, so per-field draws
# cannot creep back. A fusion block takes one for its four norm vectors,
# then one per MLP and per 2-D scan.
_ONE_DRAW = {
    "Mlp3": (lambda rng: Mlp3.random(5, rng), 1, _mlp_words(5)),
    "SelectiveSsmParams": (lambda rng: SelectiveSsmParams.random(3, 5, rng), 1,
                           _scan_words(3, 5)),
    "Ss2dParams": (lambda rng: Ss2dParams.random(3, 5, rng), 1, 4 * _scan_words(3, 5)),
    "ContinuousSsm": (lambda rng: ContinuousSsm.random(5, rng), 1,
                      _words(5, "uniform") + 2 * _words(5)),
    "AttentionFusionParams": (lambda rng: AttentionFusionParams.random(3, rng), 1,
                              3 * _words(9)),
    "TinyMlpPredictor": (lambda rng: TinyMlpPredictor(9), 1, 6 * _words(8) + _words(1)),
    "FusionBlockParams": (lambda rng: FusionBlockParams.random(3, 5, 2, 2, rng), 6,
                          4 * _words(3) + 3 * _mlp_words(3) + 8 * _scan_words(3, 5)),
    "gen_rain": (lambda rng: weather.gen_rain(4, 5, 9, 0.5), 1, 3 * 10 + 20),
    "gen_snow": (lambda rng: weather.gen_snow(4, 5, 9, 0.5), 1, 3 * 10 + 20),
}


@pytest.mark.parametrize("name", sorted(_ONE_DRAW))
def test_random_container_takes_its_words_in_one_draw(monkeypatch, name):
    factory, calls, words = _ONE_DRAW[name]
    raw, counted = SeededRng._raw, []

    def counting_raw(self, n):
        counted.append(n)
        return raw(self, n)

    monkeypatch.setattr(SeededRng, "_raw", counting_raw)
    rng = SeededRng(9)
    for module in (diffusion, weather):  # the predictor and generators seed their own
        monkeypatch.setattr(module, "SeededRng", lambda seed: rng)
    factory(rng)
    assert len(counted) == calls
    assert rng.words_consumed == sum(counted) == words
