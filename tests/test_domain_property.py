"""The domain rule at every public integer argument: a size, count, length or
step index that is a bool, not an integer, or below its floor is a ValueError
naming the argument (``tensor.count``), raised before any random word is drawn.

Every ``int``-valued parameter (``int``, ``int | None``, ``list[int]``, ...)
of every callable that a module's ``__all__`` exports (functions, and the
``__init__``, methods and classmethods of exported classes) and every ``int``
field of an exported dataclass has either a row in ``ROWS`` or an entry in
``EXEMPT`` saying why it has none. A row feeds True, False, 2.5 and its floor
minus one, each of which must be refused by name, then derandomized
Hypothesis draws: an ``int`` or ``np.integer`` at or above the floor is
accepted, with no NumPy warning, and any other value refused by name.
"""

import dataclasses
import importlib
import inspect
import re
import typing
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import cfmw_kit  # noqa: E402
from cfmw_kit import diffusion, fusion, ssm, tensor, weather  # noqa: E402
from cfmw_kit.tensor import SeededRng  # noqa: E402


def _integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


# Integer-valued arguments with no row, each with the reason.
EXEMPT = {
    "tensor.count(low)": "the rule's own floor, fixed by each caller; "
                         "test_count_refuses_what_is_not_an_integer holds count itself",
    "diffusion.OraclePredictor.__call__(t)": "predictor protocol: ddim_step passes the "
                                             "step index it has checked",
    "diffusion.TinyMlpPredictor.__call__(t)": "predictor protocol: ddim_step passes the "
                                              "step index it has checked",
    "fusion.inject(backbone)": "backbone levels, checked against {2, 3, 4}",
    "fusion.inject(fused)": "backbone levels, checked against {2, 3, 4}",
    "metrics.average_precision(class_id)": "a class id: any integer, negative too; "
                                           "one with no boxes scores by the empty-class rule",
    "fusion.BenchRow.n_tokens": "a result field: scaling_benchmark fills it from a checked size",
    "fusion.BenchRow.c": "a result field: scaling_benchmark fills it from a checked size",
    "fusion.BenchRow.ops": "a result field: count_ops's count",
    "fusion.BenchRow.wall_ns": "a result field: a measured time",
}

_MODEL = ssm.ContinuousSsm.random(2, SeededRng(1))
_EMBEDDING = fusion.PatchEmbedding(2, np.zeros((4, 2)), np.zeros((2, 2)), np.zeros(2))
_BLOCK = fusion.FusionBlockParams.random(2, 1, 1, 2, SeededRng(3))
_SCHEDULE = diffusion.make_schedule("linear", 10)
_GRID = [1, 2, 4, 8]


def _step(t, t_prev):
    return diffusion.ddim_step(np.ones(2), np.zeros(2), t, t_prev,
                               diffusion.OraclePredictor(np.ones(2)), _SCHEDULE)


# "module.Callable(param)" or "module.Class.field" -> (call(value, rng), floor,
# the name the refusal starts with, values to accept: by default the floor and
# the two integers above it). count_ops takes the attention path, which leans
# on count_ops's own checks; the scan path also passes selective_scan_mac_count's.
ROWS = {
    "tensor.randn(shape)": (lambda v, rng: tensor.randn((2, v), rng), 1, "shape[1]"),
    "tensor.SeededRng.draws(spec)": (
        lambda v, rng: rng.draws(("uniform", 2), ("normal", v)), 0, "draw count"),
    "tensor.SeededRng.uniform(n)": (lambda v, rng: rng.uniform(v), 0, "draw count"),
    "tensor.SeededRng.normal(n)": (lambda v, rng: rng.normal(v), 0, "draw count"),

    "ssm.OpCounter.add(n)": (lambda v, rng: ssm.OpCounter().add(v), 0, "n"),
    "ssm.ContinuousSsm.random(n_state)": (
        lambda v, rng: ssm.ContinuousSsm.random(v, rng), 1, "n_state"),
    "ssm.SelectiveSsmParams.random(d_channels)": (
        lambda v, rng: ssm.SelectiveSsmParams.random(v, 2, rng), 1, "d_channels"),
    "ssm.SelectiveSsmParams.random(n_state)": (
        lambda v, rng: ssm.SelectiveSsmParams.random(2, v, rng), 1, "n_state"),
    "ssm.SelectiveSsmParams.frozen(d_channels)": (
        lambda v, rng: ssm.SelectiveSsmParams.frozen(_MODEL, v, 0.1), 1, "d_channels"),
    "ssm.Ss2dParams.random(d_channels)": (
        lambda v, rng: ssm.Ss2dParams.random(v, 2, rng), 1, "d_channels"),
    "ssm.Ss2dParams.random(n_state)": (
        lambda v, rng: ssm.Ss2dParams.random(2, v, rng), 1, "n_state"),
    "ssm.kernel(length)": (
        lambda v, rng: ssm.kernel(ssm.discretize(_MODEL, 0.1), v), 1, "kernel length"),
    "ssm.selective_scan_mac_count(length)": (
        lambda v, rng: ssm.selective_scan_mac_count(v, 2, 3), 1, "length"),
    "ssm.selective_scan_mac_count(d_channels)": (
        lambda v, rng: ssm.selective_scan_mac_count(3, v, 3), 1, "d_channels"),
    "ssm.selective_scan_mac_count(n_state)": (
        lambda v, rng: ssm.selective_scan_mac_count(3, 2, v), 1, "n_state"),
    "ssm.ss2d_mac_count(h)": (lambda v, rng: ssm.ss2d_mac_count(v, 2, 4, 2), 1, "h"),
    "ssm.ss2d_mac_count(w)": (lambda v, rng: ssm.ss2d_mac_count(2, v, 4, 2), 1, "w"),
    "ssm.ss2d_mac_count(d_channels)": (
        lambda v, rng: ssm.ss2d_mac_count(2, 2, v, 2), 1, "d_channels"),
    "ssm.ss2d_mac_count(n_state)": (lambda v, rng: ssm.ss2d_mac_count(2, 2, 4, v), 1, "n_state"),

    "fusion.PatchEmbedding.patch": (
        lambda v, rng: dataclasses.replace(_EMBEDDING, patch=v), 1, "patch"),
    "fusion.Mlp3.random(c)": (lambda v, rng: fusion.Mlp3.random(v, rng), 1, "c"),
    "fusion.FusionBlockParams.grid_h": (
        lambda v, rng: dataclasses.replace(_BLOCK, grid_h=v), 1, "grid_h"),
    "fusion.FusionBlockParams.grid_w": (
        lambda v, rng: dataclasses.replace(_BLOCK, grid_w=v), 1, "grid_w"),
    "fusion.FusionBlockParams.random(c)": (
        lambda v, rng: fusion.FusionBlockParams.random(v, 1, 1, 2, rng), 1, "c", [2, 4]),
    "fusion.FusionBlockParams.random(n_state)": (
        lambda v, rng: fusion.FusionBlockParams.random(2, v, 1, 2, rng), 1, "n_state"),
    # The grid is a field, refused by the container after the weights are
    # drawn, so these two rows draw from a stream of their own.
    "fusion.FusionBlockParams.random(grid_h)": (
        lambda v, rng: fusion.FusionBlockParams.random(2, 1, v, 2, SeededRng(4)), 1, "grid_h"),
    "fusion.FusionBlockParams.random(grid_w)": (
        lambda v, rng: fusion.FusionBlockParams.random(2, 1, 2, v, SeededRng(4)), 1, "grid_w"),
    "fusion.AttentionFusionParams.random(c)": (
        lambda v, rng: fusion.AttentionFusionParams.random(v, rng), 1, "c"),
    "fusion.count_ops(n_tokens)": (
        lambda v, rng: fusion.count_ops("attention_fusion", v, 4, 2), 1, "n_tokens"),
    "fusion.count_ops(c)": (lambda v, rng: fusion.count_ops("attention_fusion", 4, v, 2), 1, "c"),
    "fusion.count_ops(n_state)": (
        lambda v, rng: fusion.count_ops("attention_fusion", 4, 4, v), 1, "n_state"),
    "fusion.scaling_benchmark(n_values)": (
        lambda v, rng: fusion.scaling_benchmark([1, 2, v, 8], 2, 1, 1, 0), 1, "n_values entry"),
    "fusion.scaling_benchmark(c)": (
        lambda v, rng: fusion.scaling_benchmark(_GRID, v, 1, 1, 0), 1, "c", [2, 4]),
    "fusion.scaling_benchmark(n_state)": (
        lambda v, rng: fusion.scaling_benchmark(_GRID, 2, v, 1, 0), 1, "n_state"),
    "fusion.scaling_benchmark(repeats)": (
        lambda v, rng: fusion.scaling_benchmark(_GRID, 2, 1, v, 0), 1, "repeats"),

    "diffusion.make_schedule(t_count)": (
        lambda v, rng: diffusion.make_schedule("cosine", v), 1, "step count t_count"),
    "diffusion.DiffusionConfig.n_sample_steps": (
        lambda v, rng: diffusion.DiffusionConfig(_SCHEDULE, v), 1, "n_sample_steps"),
    "diffusion.NoiseSchedule.alpha_bar_at(t)": (
        lambda v, rng: _SCHEDULE.alpha_bar_at(v), 0, "step index t"),
    "diffusion.q_sample(t)": (
        lambda v, rng: diffusion.q_sample(np.zeros(2), v, np.ones(2), _SCHEDULE), 1,
        "step index t"),
    "diffusion.ddim_step(t)": (lambda v, rng: _step(v, 0), 1, "step index t"),  # floor t_prev + 1
    "diffusion.ddim_step(t_prev)": (lambda v, rng: _step(5, v), 0, "step index t_prev"),

    "weather.gen_rain(h)": (lambda v, rng: weather.gen_rain(v, 3, 1, 0.5), 1, "image extents h"),
    "weather.gen_rain(w)": (lambda v, rng: weather.gen_rain(3, v, 1, 0.5), 1, "image extents w"),
    "weather.gen_rain(streak_len_px)": (
        lambda v, rng: weather.gen_rain(3, 3, 1, 0.5, streak_len_px=v), 1, "streak_len_px"),
    "weather.gen_snow(h)": (lambda v, rng: weather.gen_snow(v, 3, 1, 0.5), 1, "image extents h"),
    "weather.gen_snow(w)": (lambda v, rng: weather.gen_snow(3, v, 1, 0.5), 1, "image extents w"),
    "weather.gen_depth(h)": (
        lambda v, rng: weather.gen_depth("radial", v, 3), 1, "image extents h"),
    "weather.gen_depth(w)": (
        lambda v, rng: weather.gen_depth("radial", 3, v), 1, "image extents w"),
}


# Seeds have no floor: any integer, taken modulo 2**64. Each passes through
# ``tensor.count`` with no floor, so a bool or a non-integer is refused by
# name, as "seed must be one of the integers, got ...".
SEEDS = {
    "tensor.SeededRng.__init__(seed)": lambda v: SeededRng(v),
    "diffusion.TinyMlpPredictor.__init__(seed)": lambda v: diffusion.TinyMlpPredictor(v),
    "weather.gen_rain(seed)": lambda v: weather.gen_rain(3, 3, v, 0.5),
    "weather.gen_snow(seed)": lambda v: weather.gen_snow(3, 3, v, 0.5),
    "fusion.scaling_benchmark(seed)": lambda v: fusion.scaling_benchmark(_GRID, 2, 1, 1, v),
}


# ------------------------------------------------------------- the table

def _mentions_int(hint) -> bool:
    return hint is int or any(_mentions_int(a) for a in typing.get_args(hint))


def _int_arguments():
    """Every int-valued parameter and int field of every exported callable."""
    for module in cfmw_kit._SUBMODULES:
        mod = importlib.import_module(f"cfmw_kit.{module}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            callables = []
            if inspect.isfunction(obj):
                callables.append((f"{module}.{name}", obj))
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    hints = typing.get_type_hints(obj)
                    yield from (f"{module}.{name}.{f.name}" for f in dataclasses.fields(obj)
                                if f.init and hints[f.name] is int)
                elif "__init__" in vars(obj):
                    callables.append((f"{module}.{name}.__init__", obj.__init__))
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # class and static methods
                    if inspect.isfunction(member) and (attr == "__call__"
                                                       or not attr.startswith("_")):
                        callables.append((f"{module}.{name}.{attr}", member))
            for qual, fn in callables:
                hints = typing.get_type_hints(fn)
                yield from (f"{qual}({p})" for p in inspect.signature(fn).parameters
                            if _mentions_int(hints.get(p)))


def test_every_int_argument_has_a_row_or_an_exemption():
    public = set(_int_arguments())
    rows = ROWS.keys() | SEEDS.keys()
    assert sorted(public - rows - EXEMPT.keys()) == []
    assert sorted((rows | EXEMPT.keys()) - public) == []
    assert sorted(ROWS.keys() & SEEDS.keys()) == sorted(rows & EXEMPT.keys()) == []


@pytest.mark.parametrize("key", sorted(ROWS))
def test_refused_by_name_unless_an_integer_at_or_above_the_floor(key):
    call, low, name, *accept = ROWS[key]
    accept = accept[0] if accept else [low, low + 1, low + 2]
    refusal = rf"^{re.escape(name)} must be (one of the integers )?>= {low}, got "

    def check(v):
        rng = SeededRng(7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if _integer(v) and v in accept:
                call(v, rng)
                return
            with pytest.raises(ValueError, match=refusal):
                call(v, rng)
        assert rng.words_consumed == 0  # refused before any word is drawn

    for v in (True, False, 2.5, low - 1, *accept):
        check(v)

    refused = st.one_of(st.integers(low - 3, low - 1), st.integers(low - 3, low - 1).map(np.int64),
                        st.sampled_from([np.bool_(True), np.bool_(False), float(low),
                                         np.float64(low), low + 0.5, str(low), None]))

    @settings(max_examples=12)
    @given(st.one_of(refused, st.sampled_from(accept).map(np.int64)))
    def holds(v):
        check(v)

    holds()


@pytest.mark.parametrize("key", sorted(SEEDS))
def test_seed_refused_by_name_unless_an_integer(key):
    call = SEEDS[key]
    for v in (True, False, np.bool_(False), 2.5, 3.0, np.float64(3.0), "3", None):
        with pytest.raises(ValueError, match=r"^seed must be one of the integers, got "):
            call(v)
    for v in (0, -5, 2 ** 70, np.int64(-5), np.uint64(2 ** 64 - 5)):
        call(v)


@settings(max_examples=40)
@given(st.one_of(st.integers(-2 ** 70, 2 ** 70), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)))
def test_seed_is_taken_modulo_2_to_the_64(seed):
    want = SeededRng(int(seed) % 2 ** 64).draws(("uniform", 3), ("normal", 3))
    got = SeededRng(seed).draws(("uniform", 3), ("normal", 3))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("value", [True, False, np.bool_(True), 3.0, np.float64(3.0), 2.5,
                                   "3", None, complex(3)])
def test_count_refuses_what_is_not_an_integer(value):
    with pytest.raises(ValueError, match=r"^size must be one of the integers >= 1, got "):
        tensor.count("size", value, 1)


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), np.int32(-2)])
def test_count_returns_a_python_int_at_or_above_the_floor(value):
    got = tensor.count("size", value, -2)
    assert type(got) is int and got == value
    with pytest.raises(ValueError, match=rf"^size must be >= 4, got {re.escape(repr(value))}$"):
        tensor.count("size", value, 4)
