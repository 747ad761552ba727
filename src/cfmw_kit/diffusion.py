"""Conditional implicit-diffusion machinery.

Noise schedules (linear / scaled_linear / cosine), the forward noising map,
and deterministic implicit reverse steps against an abstract noise
predictor.

A noise predictor is any callable ``pred(x_t, x_tilde, t) -> eps_hat`` whose
output matches ``x_t``'s shape; ``x_tilde`` carries the conditioning image
through every step. Steps are indexed 1..T with the product-of-alphas at
step 0 defined as exactly 1, which makes the final hop of a sampling chain
return the clean-image estimate itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import SeededRng, check_finite, count, finite_step, freeze_arrays

__all__ = [
    "NoiseSchedule",
    "make_schedule",
    "DiffusionConfig",
    "OraclePredictor",
    "TinyMlpPredictor",
    "q_sample",
    "ddim_step",
    "sample",
]

SCHEDULE_KINDS = ("linear", "scaled_linear", "cosine")

DEFAULT_BETA_START = 0.001
DEFAULT_BETA_END = 0.02


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise fractions and their derived signal products.

    Built from ``beta`` alone: ``alpha = 1 - beta`` and ``alpha_bar``, its
    running product, which must be strictly decreasing. Step indices are
    1-based and :meth:`alpha_bar_at` extends the product to step 0 with the
    exact value 1.
    """

    beta: np.ndarray
    alpha: np.ndarray = field(init=False)
    alpha_bar: np.ndarray = field(init=False)

    def __post_init__(self):
        freeze_arrays(self)
        beta = self.beta
        if beta.ndim != 1 or beta.size < 1:
            raise ValueError("beta must be a nonempty 1-D array")
        if np.any(beta <= 0.0) or np.any(beta >= 1.0):
            raise ValueError("beta entries must lie in (0, 1)")
        alpha = 1.0 - beta
        alpha_bar = np.cumprod(alpha)
        if np.any(np.diff(alpha_bar) >= 0.0):
            raise ValueError("alpha_bar must be strictly decreasing")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "alpha_bar", alpha_bar)

    @property
    def t_count(self) -> int:
        return self.beta.size

    def _check_t(self, t: int, low: int = 1) -> int:
        t = count("step index t", t, low)
        if t > self.t_count:
            raise ValueError(f"step index {t} outside {low}..{self.t_count}")
        return t

    def alpha_bar_at(self, t: int) -> float:
        t = self._check_t(t, 0)
        return 1.0 if t == 0 else float(self.alpha_bar[t - 1])


def make_schedule(kind: str, t_count: int,
                  beta_start: float = DEFAULT_BETA_START,
                  beta_end: float = DEFAULT_BETA_END) -> NoiseSchedule:
    """Build a noise schedule of one of the three supported kinds.

    linear interpolates the noise fraction uniformly from ``beta_start`` to
    ``beta_end``; scaled_linear interpolates its square root uniformly and
    squares; cosine derives each fraction from the squared-cosine
    signal-product curve, clipped to at most 0.999 (the bound arguments are
    ignored for it).
    """
    if kind not in SCHEDULE_KINDS:
        raise ValueError(f"unknown schedule kind {kind!r}")
    t_count = count("step count t_count", t_count, 1)
    if kind in ("linear", "scaled_linear"):
        if not 0.0 < beta_start <= beta_end < 1.0:
            raise ValueError("need 0 < beta_start <= beta_end < 1")
        if kind == "linear":
            beta = np.linspace(beta_start, beta_end, t_count)
        else:
            beta = np.linspace(math.sqrt(beta_start), math.sqrt(beta_end), t_count) ** 2
    else:
        def bar(s: float) -> float:
            return math.cos((s + 0.008) / 1.008 * math.pi / 2.0) ** 2

        beta = np.array([
            min(1.0 - bar((i + 1) / t_count) / bar(i / t_count), 0.999)
            for i in range(t_count)
        ])
    return NoiseSchedule(beta)


@dataclass(frozen=True)
class DiffusionConfig:
    """Sampling-time configuration: schedule and step budget (deterministic, eta = 0)."""

    schedule: NoiseSchedule
    n_sample_steps: int

    def __post_init__(self):
        freeze_arrays(self)
        if self.n_sample_steps > self.schedule.t_count:
            raise ValueError(f"n_sample_steps must be <= the schedule length "
                             f"{self.schedule.t_count}, got {self.n_sample_steps}")

    def step_sequence(self) -> list[int]:
        """Descending visited steps: uniform stride from T down to 1.

        Includes T always and 1 whenever more than one step is taken; the
        sampler appends the final hop to step 0 itself.
        """
        t, s = self.schedule.t_count, self.n_sample_steps
        # np.linspace(t, 1, 1) is [t]; with more steps, s <= t makes the
        # stride (t - 1) / (s - 1) at least 1, so the rounded steps decrease strictly
        return [int(round(v)) for v in np.linspace(t, 1, s)]


class OraclePredictor:
    """Returns a stored ground-truth noise tensor regardless of the inputs."""

    def __init__(self, eps: np.ndarray):
        self.eps = check_finite(np.asarray(eps, dtype=np.float64), "eps")

    def __call__(self, x_t: np.ndarray, x_tilde: np.ndarray, t: int) -> np.ndarray:
        if np.shape(x_t) != self.eps.shape:
            raise ValueError("oracle noise shape does not match x_t")
        return self.eps


class TinyMlpPredictor:
    """Fixed-random-weight pixelwise predictor, for smoke tests only.

    Eight tanh units mix the noisy pixel, the conditioning pixel (both
    divided by ``SCALE``), and two sinusoidal step features; weights are
    drawn once from the seed.
    """

    HIDDEN = 8
    SCALE = 255.0

    def __init__(self, seed: int):
        rng = SeededRng(seed)
        h = self.HIDDEN
        self.w_xt, self.w_cond, self.w_sin, self.w_cos, self.bias, w_out, b_out = rng.draws(
            *[("normal", h)] * 6, ("normal", 1))
        self.w_out = w_out / math.sqrt(h)
        self.b_out = float(b_out[0]) * 0.1

    def __call__(self, x_t: np.ndarray, x_tilde: np.ndarray, t: int) -> np.ndarray:
        x_t = np.asarray(x_t, dtype=np.float64)
        x_tilde = np.asarray(x_tilde, dtype=np.float64)
        if x_t.shape != x_tilde.shape:
            raise ValueError("x_t and x_tilde must share a shape")
        s1, s2 = math.sin(0.05 * t), math.cos(0.05 * t)
        xs, cs = x_t / self.SCALE, x_tilde / self.SCALE
        out = np.full_like(x_t, self.b_out)
        for j in range(self.HIDDEN):
            # added left to right as written: folding the scalars first moves bits
            out += np.tanh(self.w_xt[j] * xs + self.w_cond[j] * cs + self.w_sin[j] * s1
                           + self.w_cos[j] * s2 + self.bias[j]) * self.w_out[j]
        return out


def q_sample(x0: np.ndarray, t: int, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Forward noising: sqrt(abar_t) x0 + sqrt(1 - abar_t) eps. NaN or Inf is
    refused, and so are an ``x0`` and ``eps`` whose sum overflows float64."""
    x0 = check_finite(np.asarray(x0, dtype=np.float64), "x0")
    eps = check_finite(np.asarray(eps, dtype=np.float64), "eps")
    if x0.shape != eps.shape:
        raise ValueError("x0 and eps must share a shape")
    abar = sched.alpha_bar_at(sched._check_t(t))
    return finite_step("x0 and eps are too large: q_sample overflows float64",
                       lambda: math.sqrt(abar) * x0 + math.sqrt(1.0 - abar) * eps)


def _out_buffer(buf, name: str, shape, others) -> np.ndarray:
    """``buf`` if it is a float64 array of ``shape`` sharing no memory with
    ``others``; a fresh array when ``buf`` is None."""
    if buf is None:
        return np.empty(shape)
    if not isinstance(buf, np.ndarray) or buf.dtype != np.float64 or buf.shape != shape:
        raise ValueError(f"{name} must be a float64 array of shape {shape}")
    if any(np.shares_memory(buf, o) for o in others):
        raise ValueError(f"{name} must not share memory with the step's inputs "
                         "or the other buffer")
    return buf


# Bytes of one row tile of the step: a few tiles (x_t, the noise, out, the
# second noise term, sq_diff) stay resident in a 2 MiB L2 while all the
# passes of the step run over them.
_TILE_BYTES = 256 * 1024


def ddim_step(x_t: np.ndarray, x_tilde: np.ndarray, t: int, t_prev: int,
              pred, sched: NoiseSchedule, *, out: np.ndarray | None = None,
              sq_diff: np.ndarray | None = None) -> np.ndarray:
    """One deterministic implicit reverse step from ``t`` to ``t_prev``.

    The predicted noise first inverts the forward map to a clean-image
    estimate, which is then re-noised at the target step's signal level:

        x0_hat = (x_t - sqrt(1 - abar_t) eps_hat) / sqrt(abar_t)
        x_prev = sqrt(abar_prev) x0_hat + sqrt(1 - abar_prev) eps_hat

    The predictor is called once on the whole ``x_t``; the arithmetic then
    runs over blocks of leading-axis rows of about ``_TILE_BYTES`` each, so
    every pass of the step finds its block still in cache. The result is
    written into ``out`` (allocated when None). When ``sq_diff`` is given it
    receives ``(x_prev - x_t) ** 2`` per element, computed on the same
    block. Each buffer is a float64 array of ``x_t``'s shape that shares no
    memory with ``x_t``, the predicted noise or the other buffer. Returns
    ``out``.
    """
    t_prev = count("step index t_prev", t_prev, 0)
    t = count("step index t", t, t_prev + 1)
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_hat = np.asarray(pred(x_t, x_tilde, t), dtype=np.float64)
    if eps_hat.shape != x_t.shape:
        raise ValueError("predictor output shape must match x_t")
    out = _out_buffer(out, "out", x_t.shape, (x_t, eps_hat))
    if sq_diff is not None:
        sq_diff = _out_buffer(sq_diff, "sq_diff", x_t.shape, (x_t, eps_hat, out))
    abar_t = sched.alpha_bar_at(t)
    abar_p = sched.alpha_bar_at(t_prev)
    c_eps_t, c_x0_t = math.sqrt(1.0 - abar_t), math.sqrt(abar_t)
    c_x0_p, c_eps_p = math.sqrt(abar_p), math.sqrt(1.0 - abar_p)
    # Leading-axis row views; a 0-d step runs as one row of one element.
    x_rows, eps_rows, out_rows = np.atleast_1d(x_t, eps_hat, out)
    sq_rows = None if sq_diff is None else np.atleast_1d(sq_diff)
    n = x_rows.shape[0]
    rows = max(1, _TILE_BYTES // max(8 * math.prod(x_rows.shape[1:]), 1))
    noise = np.empty((min(rows, n),) + x_rows.shape[1:])
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        x, eps, o = x_rows[lo:hi], eps_rows[lo:hi], out_rows[lo:hi]
        # The formulas' float operations in their written order, so every
        # element has the bits of the untiled step.
        np.multiply(c_eps_t, eps, out=o)
        np.subtract(x, o, out=o)
        o /= c_x0_t
        o *= c_x0_p
        o += np.multiply(c_eps_p, eps, out=noise[:hi - lo])
        if sq_rows is not None:
            d = sq_rows[lo:hi]
            np.subtract(o, x, out=d)
            np.square(d, out=d)
    return out


def sample(x_noise: np.ndarray, x_tilde: np.ndarray, cfg: DiffusionConfig,
           pred, on_step=None) -> np.ndarray:
    """Run the deterministic reverse chain from step T down to 0.

    The chain steps between two buffers allocated once and never writes into
    ``x_noise``. When ``on_step`` is given, each hop also fills a third
    buffer with its squared update, and ``on_step(t, t_prev, update_l2)``
    is called after the hop with ``update_l2 = sqrt(sum((x_prev - x_t)**2))``
    (the CLI logs these residual norms).

    A non-finite result is refused once, after the last hop: the step only
    subtracts, adds, and scales by positive coefficients, so a NaN or
    infinity from the predictor, or an overflow, is still there at the end.
    """
    x = check_finite(np.asarray(x_noise, dtype=np.float64), "x_noise")
    x_tilde = check_finite(np.asarray(x_tilde, dtype=np.float64), "x_tilde")
    if x.shape != x_tilde.shape:
        raise ValueError("x_noise and x_tilde must share a shape")
    steps = cfg.step_sequence()

    def chain(x):
        # only the result's buffer outlives the chain: the check allocates beside one image
        bufs = (np.empty(x.shape), np.empty(x.shape))
        sq_diff = None if on_step is None else np.empty(x.shape)
        for i, (t, t_prev) in enumerate(zip(steps, steps[1:] + [0])):
            x = ddim_step(x, x_tilde, t, t_prev, pred, cfg.schedule,
                          out=bufs[i % 2], sq_diff=sq_diff)
            if on_step is not None:
                # One sum over the whole contiguous buffer: np.dot or a per-tile
                # sum would add in another order and change the logged bits.
                on_step(t, t_prev, float(np.sqrt(np.sum(sq_diff))))
        return x
    return finite_step("sampled image contains non-finite values: the predictor "
                       "returned NaN or infinity, or a step overflowed", chain, x)

