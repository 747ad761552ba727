"""The overflow rule at every public function: an accepted input gives a
finite result with no NumPy warning, and any other input is a ValueError
that names the argument (or the field of it) at fault.

Every function in a module's ``__all__`` has either a row in ``ROWS`` or an
entry in ``EXEMPT`` saying why it has none. A row draws inputs around the
edges of float64: seeded values at scales up to 1e300 with one entry set to
NaN, an infinity, the largest double or the smallest subnormal.
"""

import dataclasses
import importlib
import inspect
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

import cfmw_kit  # noqa: E402
from cfmw_kit import detloss, diffusion, fusion, metrics, ssm, tensor, weather  # noqa: E402
from cfmw_kit.tensor import SeededRng  # noqa: E402
from test_fusion import random_embedding  # noqa: E402

_SEEDS = st.integers(0, 2 ** 32)
_SCALES = st.sampled_from([1.0, 1e-300, 1e100, 1e155, 1e200, 1e300])
_PLANTED = st.sampled_from([None, math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 5e-324])
_ANY = st.floats()  # NaN and both infinities included


def _floats(*shape):
    """Arrays of ``shape`` whose entries are any doubles."""
    return hnp.arrays(np.float64, shape, elements=_ANY)


@st.composite
def _values(draw, *shape):
    """Seeded normals of ``shape`` times a scale, one entry maybe replaced."""
    arr = SeededRng(draw(_SEEDS)).normal(math.prod(shape)) * draw(_SCALES)
    planted = draw(_PLANTED)
    if planted is not None:
        arr[0] = planted
    return arr.reshape(shape)


def _either(draw, lo, hi):
    """The element strategy of one case: doubles in [lo, hi], or (one case in
    two) any doubles."""
    return _ANY if draw(st.booleans()) else st.floats(lo, hi)


def _scaled(obj, s):
    """The frozen parameter container ``obj`` with every array, nested ones
    included, times ``s``; built anew, so its checks run again."""
    return dataclasses.replace(obj, **{
        f.name: _scaled(v, s) if dataclasses.is_dataclass(v) else v * s
        for f in dataclasses.fields(obj) if f.init
        for v in [getattr(obj, f.name)]
        if isinstance(v, np.ndarray) or dataclasses.is_dataclass(v)})


# "module.function" -> (draws the inputs and returns the call, pattern the
# refusal must match, examples).
ROWS = {}


def row(name, names, examples=40):
    """Register the decorated ``case`` as the row of ``name``."""
    def register(case):
        ROWS[name] = (case, names, examples)
        return case
    return register


# Functions with no row, each with the reason.
EXEMPT = {
    "tensor.sigmoid": "elementwise: callers check at their own boundary",
    "tensor.silu": "elementwise: callers check at their own boundary",
    "tensor.softplus": "elementwise: callers check at their own boundary",
    "tensor.freeze_arrays": "the containers' field check; test_containers.py holds it "
                            "for every container",
    "tensor.count": "integer-valued domain check: test_domain_property.py holds it for "
                    "every int parameter and field",
    "diffusion.ddim_step": "sample checks once after the chain; a check per hop would "
                           "add about 50 full-image passes per restore",
    "ssm.selective_scan_mac_count": "integer-valued counter",
    "ssm.ss2d_mac_count": "integer-valued counter",
    "fusion.count_ops": "integer-valued counter",
    "fusion.scaling_benchmark": "wall-clock timing of fuse and attention_fusion_baseline, "
                                "which have rows",
    "imageio.write_ppm": "file I/O: refuses non-finite pixels (test_io.py)",
    "imageio.read_ppm": "file I/O: 8-bit samples, always finite",
    "tensor_io.write_tensor": "bit-exact serialisation: TSR1 holds any double",
    "tensor_io.read_tensor": "bit-exact serialisation: TSR1 holds any double",
    "tensor_io.write_manifest": "text I/O: no numbers",
    "tensor_io.read_manifest": "text I/O: no numbers",
    "tensor_io.save_params": "file I/O over write_tensor: writes container fields, already finite",
    "tensor_io.load_params": "file I/O over read_tensor: the container refuses non-finite tensors",
}


# ------------------------------------------------------------------ tensor

@row("tensor.randn", r"shape|extents")
def _(draw):
    shape, seed = draw(st.lists(st.integers(-1, 3), max_size=3)), draw(_SEEDS)
    return lambda: tensor.randn(shape, SeededRng(seed))


@row("tensor.check_finite", r"^t contains non-finite values$")
def _(draw):
    # finite doubles, with one entry poisoned one case in two
    t = draw(hnp.arrays(np.float64, (draw(st.integers(1, 4)), draw(st.integers(1, 3))),
                        elements=st.floats(allow_nan=False, allow_infinity=False)))
    if draw(st.booleans()):
        t.flat[draw(st.integers(0, t.size - 1))] = draw(st.sampled_from([math.nan, math.inf,
                                                                          -math.inf]))
    return lambda: tensor.check_finite(t, "t")


@row("tensor.finite_step", r"^a \* b left float64$")
def _(draw):
    n = draw(st.integers(1, 4))
    a, b = draw(_floats(n)), draw(_floats(n))
    return lambda: tensor.finite_step("a * b left float64", np.multiply, a, b)


# --------------------------------------------------------------------- ssm

_SCAN_FIELDS = r"^(x|a|w_delta|u_delta|w_b|u_b|w_c|u_c)\b"


@row("ssm.discretize", r"^(delta|a|b|c|a_bar|a, b, c)\b")
def _(draw):
    n = draw(st.integers(1, 3))
    a, b, c = draw(_values(n)), draw(_values(n)), draw(_values(n))
    delta = draw(_either(draw, 1e-3, 10.0))
    return lambda: ssm.discretize(ssm.ContinuousSsm(a, b, c), delta)


def _discrete(draw):
    n = draw(st.integers(1, 3))
    return np.abs(draw(_values(n))), draw(_values(n)), draw(_values(n))


@row("ssm.scan", r"^(x|a_bar|b_bar|c)\b")
def _(draw):
    model, x = _discrete(draw), draw(_values(draw(st.integers(1, 12))))
    return lambda: ssm.scan(ssm.DiscreteSsm(*model), x)


def _stable(draw):
    """A discrete model with every a_bar in (0.5, 1]: its taps stay bounded."""
    rng, n = SeededRng(draw(_SEEDS)), draw(st.integers(1, 3))
    return 1.0 - 0.5 * rng.uniform(n), rng.normal(n), rng.normal(n)


@row("ssm.kernel", r"^(m|a_bar|b_bar|c|kernel length)\b")
def _(draw):
    # one case in two a stable model, which only a length below 1 makes refused
    model = _stable(draw) if draw(st.booleans()) else _discrete(draw)
    length = draw(st.integers(-1, 400))
    return lambda: ssm.kernel(ssm.DiscreteSsm(*model), length)


@row("ssm.apply_kernel", r"^(x|taps)\b")
def _(draw):
    n = draw(st.integers(1, 6))
    x, taps = draw(_floats(n)), draw(_floats(n))
    return lambda: ssm.apply_kernel(x, taps)


def _selective(draw):
    """(x, params thunk) for a short (L, D) scan."""
    length, d, n = draw(st.integers(1, 8)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    x, seed, s = draw(_values(length, d)), draw(_SEEDS), draw(_SCALES)
    return x, lambda: _scaled(ssm.SelectiveSsmParams.random(d, n, SeededRng(seed)), s)


@row("ssm.selective_scan", _SCAN_FIELDS)
def _(draw):
    x, params = _selective(draw)
    return lambda: ssm.selective_scan(x, params())


@row("ssm.selective_scan_input_grad", _SCAN_FIELDS)
def _(draw):
    x, params = _selective(draw)
    return lambda: ssm.selective_scan_input_grad(x, params())


@row("ssm.ss2d", _SCAN_FIELDS)
def _(draw):
    h, w, d, n = (draw(st.integers(1, 3)) for _ in range(4))
    fmap, seed, s = draw(_values(h, w, d)), draw(_SEEDS), draw(_SCALES)
    return lambda: ssm.ss2d(fmap, _scaled(ssm.Ss2dParams.random(d, n, SeededRng(seed)), s))


@row("ssm.softplus_inverse", r"^(y must be finite|softplus output)")
def _(draw):
    y = draw(_ANY)
    return lambda: ssm.softplus_inverse(y)


# ------------------------------------------------------------------ fusion

_FEATURES = r"^(features|f_r|f_t)\b"


def _features(draw, b, n, c):
    f_r, f_t = draw(_values(b, n, c)), draw(_values(b, n, c))
    return lambda: fusion.ModalityFeatures(f_r=f_r, f_t=f_t)


@row("fusion.patch_embed", r"^(image|w|e_pos|cls_token)\b")
def _(draw):
    p, c_in, dim, gh, gw = (draw(st.integers(1, 3)) for _ in range(5))
    use_cls, seed, s = draw(st.booleans()), draw(_SEEDS), draw(_SCALES)
    image = draw(_values(gh * p, gw * p, c_in))
    return lambda: fusion.patch_embed(image, _scaled(dataclasses.replace(
        random_embedding(p, c_in, dim, gh * gw, SeededRng(seed)), use_cls=use_cls), s))


@row("fusion.shallow_swap", _FEATURES)
def _(draw):
    feats = _features(draw, draw(st.integers(1, 2)), draw(st.integers(1, 4)),
                      draw(st.sampled_from([2, 4])))
    residual = draw(st.booleans())
    return lambda: fusion.shallow_swap(feats(), residual)


@row("fusion.fuse", r"^(features|f_r|f_t|x|a|norm_\w+|w\d|b\d|w_\w+|u_\w+)\b", examples=30)
def _(draw):
    b, c, n_state = draw(st.integers(1, 2)), draw(st.sampled_from([2, 4])), draw(st.integers(1, 2))
    gh, gw, seed, s = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                       draw(_SEEDS), draw(_SCALES))
    mode = draw(st.sampled_from(["crossed", "straight"]))
    feats = _features(draw, b, gh * gw, c)
    return lambda: fusion.fuse(feats(), _scaled(fusion.FusionBlockParams.random(
        c, n_state, gh, gw, SeededRng(seed), residual_mode=mode), s))


@row("fusion.inject", _FEATURES)
def _(draw):
    b, n, c = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.sampled_from([2, 4]))
    level = draw(st.integers(2, 4))
    backbone, fused = _features(draw, b, n, c), _features(draw, b, n, c)
    return lambda: fusion.inject({level: backbone()}, {level: fused()})


@row("fusion.attention_fusion_baseline", r"^(features|f_r|f_t|w_q|w_k|w_v)\b")
def _(draw):
    b, n, c = draw(st.integers(1, 2)), draw(st.integers(1, 4)), draw(st.sampled_from([2, 4]))
    rows = draw(st.integers(1, 5))
    seed, s = draw(_SEEDS), draw(_SCALES)
    feats = _features(draw, b, n, c)

    def call():  # a score block of ``rows`` query rows, so blocks split the 2N tokens
        with mock.patch.object(fusion, "_ATTN_ROWS", rows):
            return fusion.attention_fusion_baseline(feats(), _scaled(
                fusion.AttentionFusionParams.random(c, SeededRng(seed)), s))
    return call


@row("fusion.fit_loglog_slope", r"^(xs and ys|xs must)\b")
def _(draw):
    value, n = _either(draw, 1e-3, 1e3), draw(st.integers(0, 5))
    xs = [draw(value) for _ in range(n)]
    ys = [draw(value) for _ in range(n + draw(st.integers(0, 1)))]
    return lambda: fusion.fit_loglog_slope(xs, ys)


# --------------------------------------------------------------- diffusion

@row("diffusion.make_schedule", r"kind|step count|beta|alpha_bar")
def _(draw):
    kind = draw(st.sampled_from(diffusion.SCHEDULE_KINDS + ("quadratic",)))
    t_count, lo, hi = draw(st.integers(-1, 60)), draw(_ANY), draw(_ANY)
    return lambda: diffusion.make_schedule(kind, t_count, lo, hi)


_SCHEDULE = diffusion.make_schedule("linear", 20)


@row("diffusion.q_sample", r"^(x0|eps|x0 and eps|step ind)")
def _(draw):
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    x0, eps, t = draw(_values(*shape)), draw(_values(*shape)), draw(st.integers(-1, 21))
    return lambda: diffusion.q_sample(x0, t, eps, _SCHEDULE)


@row("diffusion.sample", r"^(x_noise|x_tilde|eps|sampled image)\b")
def _(draw):
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    x_noise, x_tilde, eps = (draw(_values(*shape)) for _ in range(3))
    cfg = diffusion.DiffusionConfig(_SCHEDULE, draw(st.integers(1, 5)))
    on_step = (lambda *hop: None) if draw(st.booleans()) else None
    return lambda: diffusion.sample(x_noise, x_tilde, cfg, diffusion.OraclePredictor(eps),
                                    on_step=on_step)


# ----------------------------------------------------------------- weather

def _image(draw):
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return draw(_values(*((h, w, 3) if draw(st.booleans()) else (h, w)))), (h, w)


@row("weather.apply_rain", r"^(image|overlay|mask)\b")
def _(draw):
    j, hw = _image(draw)
    mask = draw(hnp.arrays(np.float64, hw, elements=_either(draw, 0.0, 1.0)))
    overlay = draw(_values(*j.shape))
    return lambda: weather.apply_rain(j, mask, overlay)


@row("weather.apply_snow", r"^(image|overlay|mask)\b")
def _(draw):
    j, hw = _image(draw)
    mask = draw(hnp.arrays(np.float64, hw, elements=_either(draw, 0.0, 1.0)))
    overlay = draw(_values(*j.shape))
    return lambda: weather.apply_snow(j, mask, overlay)


@row("weather.apply_fog", r"^(image|depth|attenuation|airlight)\b")
def _(draw):
    j, hw = _image(draw)
    d, beta, l_inf = np.abs(draw(_values(*hw))), draw(_ANY), draw(_ANY)
    return lambda: weather.apply_fog(j, d, beta, l_inf)


_EXTENT = st.integers(-1, 6)


@row("weather.gen_rain", r"extents|density|streak")
def _(draw):
    h, w, seed = draw(_EXTENT), draw(_EXTENT), draw(_SEEDS)
    density = draw(_either(draw, 0.0, 1.0))
    angle, length = draw(_ANY), draw(st.integers(-1, 14))
    return lambda: weather.gen_rain(h, w, seed, density, angle, length)


@row("weather.gen_snow", r"extents|density|radius")
def _(draw):
    h, w, seed = draw(_EXTENT), draw(_EXTENT), draw(_SEEDS)
    density = draw(_either(draw, 0.0, 1.0))
    radius = st.one_of(_either(draw, 0.5, 4.0),
                       st.sampled_from([5e-324, 1e-160, 1e-150, 1e150, 1.5e154]))
    radii = sorted((draw(radius), draw(radius)))
    return lambda: weather.gen_snow(h, w, seed, density, radii)


@row("weather.gen_depth", r"extents|depth|mode")
def _(draw):
    mode = draw(st.sampled_from(weather.DEPTH_MODES + ("spiral",)))
    h, w, value, max_depth = draw(_EXTENT), draw(_EXTENT), draw(_ANY), draw(_ANY)
    return lambda: weather.gen_depth(mode, h, w, value, max_depth)


# ----------------------------------------------------------------- metrics

@st.composite
def _pixels(draw, *shape):
    """Seeded pixels in [0, 255) of ``shape``, one entry maybe replaced."""
    arr = SeededRng(draw(_SEEDS)).uniform(math.prod(shape)) * 255.0
    planted = draw(_PLANTED)
    if planted is not None:
        arr[0] = planted
    return arr.reshape(shape)


@row("metrics.psnr", r"^(x|y)\b")
def _(draw):
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)), 3)[:draw(st.integers(2, 3))]
    x, y = (draw(_pixels(*shape)) for _ in range(2))
    return lambda: metrics.psnr(x, y)


@row("metrics.ssim", r"^(x|y)\b", examples=20)
def _(draw):
    shape = (draw(st.integers(11, 13)), draw(st.integers(11, 13)))
    x, y = (draw(_pixels(*shape)) for _ in range(2))
    return lambda: metrics.ssim(x, y)


def _box(draw, coord):
    """Four coordinates, put in (x1, y1, x2, y2) order one time in two."""
    x1, y1, x2, y2 = (draw(coord) for _ in range(4))
    if draw(st.booleans()):
        x1, x2, y1, y2 = min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2)
    return [x1, y1, x2, y2]


@row("metrics.iou", r"^(a|b)\b")
def _(draw):
    coord = _either(draw, -100.0, 100.0)
    a, b = _box(draw, coord), _box(draw, coord)
    return lambda: metrics.iou(a, b)


@row("metrics.giou", r"^(a|b)\b")
def _(draw):
    coord = _either(draw, -100.0, 100.0)
    a, b = _box(draw, coord), _box(draw, coord)
    return lambda: metrics.giou(a, b)


def _table(draw, coord, confidence):
    """Rows ``class_id x1 y1 x2 y2 [confidence]``, built in Python floats,
    which overflow to inf without a warning."""
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        x1, y1, w, h = (draw(coord) for _ in range(4))
        rows.append([draw(st.integers(0, 2)), x1, y1, x1 + 1.0 + abs(w), y1 + 1.0 + abs(h)]
                    + ([draw(confidence)] if confidence is not None else []))
    return np.array(rows, dtype=np.float64)


def _images(draw, coord, unit):
    tables = [(_table(draw, coord, unit), _table(draw, coord, None))
              for _ in range(draw(st.integers(0, 3)))]
    return lambda: [(metrics.Detections(d), metrics.GroundTruth(g)) for d, g in tables]


@row("metrics.average_precision", r"^(table|IoU threshold)\b")
def _(draw):
    # one case in two, edge-case tables at a threshold outside (0, 1]; else
    # tables of moderate boxes at a threshold inside it
    if draw(st.booleans()):
        images = _images(draw, _either(draw, -100.0, 100.0), _either(draw, 0.0, 1.0))
        thr = draw(st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True),
                             st.just(math.nan)))
    else:
        images = _images(draw, st.floats(-100.0, 100.0), st.floats(0.0, 1.0))
        thr = draw(st.floats(0.0, 1.0, exclude_min=True))
    class_id = draw(st.integers(0, 2))
    return lambda: metrics.average_precision(images(), class_id, thr)


@row("metrics.mean_ap", r"^table\b")
def _(draw):
    images = _images(draw, _either(draw, -100.0, 100.0), _either(draw, 0.0, 1.0))
    return lambda: metrics.mean_ap(images())


_TOKENS = st.sampled_from(["0", "1", "-3", "10", "0.5", "2.5", "1_0", "1e400", "nan",
                           "inf", "-inf", "1e300", "x", "#"])


def _text(draw):
    return "".join(" ".join(draw(st.lists(_TOKENS, min_size=1, max_size=7))) + "\n"
                   for _ in range(draw(st.integers(0, 3))))


@row("metrics.parse_detections", r"line \d+|every line needs")
def _(draw):
    text = _text(draw)
    return lambda: metrics.parse_detections(text)


@row("metrics.parse_ground_truth", r"line \d+|every line needs")
def _(draw):
    text = _text(draw)
    return lambda: metrics.parse_ground_truth(text)


# ----------------------------------------------------------------- detloss

_LOSS_FIELDS = (r"^(a|b|boxes|confidence|confidences|class_probs|class probabilities"
                r"|positive slot|lambda_\w+|weights)\b")


def _boxes(draw, coord, cells, slots):
    """(cells, slots, 4) boxes, built as in ``_table``."""
    out = []
    for _ in range(cells * slots):
        x1, y1, w, h = (draw(coord) for _ in range(4))
        out.append([x1, y1, x1 + 1.0 + abs(w), y1 + 1.0 + abs(h)])
    return np.array(out).reshape(cells, slots, 4)


def _loss_case(draw):
    """(prediction grid thunk, targets thunk) for S*S cells of N slots, K classes."""
    s, slots, k = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    cells, rng = s * s, SeededRng(draw(_SEEDS))
    u = rng.uniform(2 * cells * slots).reshape(2, cells, slots)
    probs = rng.uniform(cells * slots * k).reshape(cells, slots, k) + 0.1
    probs /= probs.sum(axis=2, keepdims=True)
    onehot = np.eye(k)[rng.normal(cells * slots).argsort().reshape(cells, slots) % k]
    coord = _either(draw, -100.0, 100.0)
    boxes, target_boxes = _boxes(draw, coord, cells, slots), _boxes(draw, coord, cells, slots)
    confidence = draw(hnp.arrays(np.float64, (cells, slots), elements=_either(draw, 0.0, 1.0)))
    return (lambda: detloss.PredictionGrid(boxes, confidence, probs,
                                           u[0] < 0.5, (u[0] >= 0.5) & (u[1] < 0.5)),
            lambda: detloss.GridTargets(target_boxes, onehot))


@row("detloss.box_loss", _LOSS_FIELDS)
def _(draw):
    pred, targets = _loss_case(draw)
    return lambda: detloss.box_loss(pred(), targets())


@row("detloss.cls_loss", _LOSS_FIELDS)
def _(draw):
    pred, targets = _loss_case(draw)
    return lambda: detloss.cls_loss(pred(), targets())


@row("detloss.conf_loss", _LOSS_FIELDS)
def _(draw):
    pred, targets = _loss_case(draw)
    return lambda: detloss.conf_loss(pred(), targets())


@row("detloss.total_loss", _LOSS_FIELDS)
def _(draw):
    pred, targets = _loss_case(draw)
    weights = [draw(st.floats(0.0, 10.0)) for _ in range(3)]
    planted = st.one_of(_PLANTED.filter(bool), st.floats(0.0, 10.0))  # one weight at an edge
    weights[draw(st.integers(0, 2))] = draw(planted)
    return lambda: detloss.total_loss(pred(), targets(), detloss.LossWeights(*weights))


# ------------------------------------------------------------- the table

def _public_functions():
    for module in cfmw_kit._SUBMODULES:
        mod = importlib.import_module(f"cfmw_kit.{module}")
        for name in getattr(mod, "__all__", ()):
            if inspect.isfunction(getattr(mod, name)):
                yield f"{module}.{name}"


def test_every_public_function_has_a_row_or_an_exemption():
    public = set(_public_functions())
    assert sorted(public - ROWS.keys() - EXEMPT.keys()) == []
    assert sorted((ROWS.keys() | EXEMPT.keys()) - public) == []
    assert sorted(ROWS.keys() & EXEMPT.keys()) == []


def _numbers(out):
    """Every float array or number in ``out``, opening tuples, lists, dicts
    and dataclasses."""
    if isinstance(out, (np.ndarray, float)):
        yield out
    elif isinstance(out, (tuple, list)):
        for v in out:
            yield from _numbers(v)
    elif isinstance(out, dict):
        for v in out.values():
            yield from _numbers(v)
    elif dataclasses.is_dataclass(out):
        for f in dataclasses.fields(out):
            yield from _numbers(getattr(out, f.name))


@pytest.mark.parametrize("name", sorted(ROWS))
def test_finite_result_or_refusal_naming_the_argument(name):
    case, names, examples = ROWS[name]
    accepted = []

    @settings(max_examples=examples)
    @given(st.data())
    def holds(data):
        call = case(data.draw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = call()
            except ValueError as exc:
                assert re.search(names, str(exc)), str(exc)
                accepted.append(False)
                return
        assert all(np.all(np.isfinite(v)) for v in _numbers(out))
        accepted.append(True)

    holds()
    # a row whose draws are all accepted, or all refused, holds only half the rule
    assert set(accepted) == {True, False}
