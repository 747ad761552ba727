"""Conditional implicit-diffusion machinery.

Noise schedules (linear / scaled_linear / cosine), the forward noising map,
deterministic implicit reverse steps against an abstract noise predictor,
and the two training-time losses (noise regression and the variational
bound).

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

from .tensor import SeededRng, check_finite, freeze_arrays

__all__ = [
    "NoiseSchedule",
    "make_schedule",
    "DiffusionConfig",
    "OraclePredictor",
    "TinyMlpPredictor",
    "q_sample",
    "ddim_step",
    "sample",
    "epsilon_loss",
    "gaussian_kl",
    "posterior_mean",
    "variational_bound",
    "variational_bound_terms",
]

SCHEDULE_KINDS = ("linear", "scaled_linear", "cosine")

DEFAULT_BETA_START = 0.001
DEFAULT_BETA_END = 0.02


def _step_index(t) -> int:
    """``t`` as an int; refuses bools and non-integer types (never truncates)."""
    if isinstance(t, (bool, np.bool_)) or not isinstance(t, (int, np.integer)):
        raise ValueError(f"step indices must be integers, got {t!r}")
    return int(t)


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise fractions and their derived signal products.

    Built from ``beta`` alone: ``alpha = 1 - beta`` and ``alpha_bar``, its
    running product, which must be strictly decreasing. Step indices are
    1-based and :meth:`alpha_bar_at` extends the product to step 0 with the
    exact value 1.
    """

    kind: str
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

    def _check_t(self, t: int) -> int:
        t = _step_index(t)
        if not 1 <= t <= self.t_count:
            raise ValueError(f"step index {t} outside 1..{self.t_count}")
        return t

    def beta_at(self, t: int) -> float:
        return float(self.beta[self._check_t(t) - 1])

    def alpha_bar_at(self, t: int) -> float:
        if t == 0:
            return 1.0
        return float(self.alpha_bar[self._check_t(t) - 1])


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
    if t_count < 1:
        raise ValueError("step count must be >= 1")
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
    return NoiseSchedule(kind, beta)


@dataclass(frozen=True)
class DiffusionConfig:
    """Sampling-time configuration: schedule and step budget (deterministic, eta = 0)."""

    schedule: NoiseSchedule
    n_sample_steps: int

    def __post_init__(self):
        if not 1 <= self.n_sample_steps <= self.schedule.t_count:
            raise ValueError("need 1 <= sample steps <= schedule length")

    def step_sequence(self) -> list[int]:
        """Descending visited steps: uniform stride from T down to 1.

        Includes T always and 1 whenever more than one step is taken; the
        sampler appends the final hop to step 0 itself.
        """
        t, s = self.schedule.t_count, self.n_sample_steps
        if s == 1:
            return [t]
        values = np.linspace(t, 1, s)
        steps = [int(round(v)) for v in values]
        for prev, nxt in zip(steps, steps[1:]):
            if nxt >= prev:
                raise ValueError("step sequence failed to be strictly decreasing")
        return steps


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
        self.w_xt = rng.normal(h)
        self.w_cond = rng.normal(h)
        self.w_sin = rng.normal(h)
        self.w_cos = rng.normal(h)
        self.bias = rng.normal(h)
        self.w_out = rng.normal(h) / math.sqrt(h)
        self.b_out = float(rng.normal(1)[0]) * 0.1

    def __call__(self, x_t: np.ndarray, x_tilde: np.ndarray, t: int) -> np.ndarray:
        x_t = np.asarray(x_t, dtype=np.float64)
        x_tilde = np.asarray(x_tilde, dtype=np.float64)
        if x_t.shape != x_tilde.shape:
            raise ValueError("x_t and x_tilde must share a shape")
        s1, s2 = math.sin(0.05 * t), math.cos(0.05 * t)
        xs, cs = x_t / self.SCALE, x_tilde / self.SCALE
        out = np.full_like(x_t, self.b_out)
        unit, term = np.empty_like(x_t), np.empty_like(x_t)
        for j in range(self.HIDDEN):
            # tanh(w_xt xs + w_cond cs + w_sin s1 + w_cos s2 + bias), added
            # left to right as written: folding the scalars first moves bits.
            np.multiply(self.w_xt[j], xs, out=unit)
            unit += np.multiply(self.w_cond[j], cs, out=term)
            unit += self.w_sin[j] * s1
            unit += self.w_cos[j] * s2
            unit += self.bias[j]
            np.tanh(unit, out=unit)
            unit *= self.w_out[j]
            out += unit
        return out


def q_sample(x0: np.ndarray, t: int, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Forward noising: sqrt(abar_t) x0 + sqrt(1 - abar_t) eps."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ValueError("x0 and eps must share a shape")
    abar = sched.alpha_bar_at(sched._check_t(t))
    return math.sqrt(abar) * x0 + math.sqrt(1.0 - abar) * eps


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
    t, t_prev = _step_index(t), _step_index(t_prev)
    if not t > t_prev >= 0:
        raise ValueError(f"need t > t_prev >= 0, got {t} -> {t_prev}")
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
    targets = steps[1:] + [0]
    bufs = (np.empty(x.shape), np.empty(x.shape))
    sq_diff = None if on_step is None else np.empty(x.shape)
    for i, (t, t_prev) in enumerate(zip(steps, targets)):
        # inf - inf and 0 * inf arise only from values that are already
        # non-finite, which the check after the chain reports; an overflow
        # still warns where it happens.
        with np.errstate(invalid="ignore"):
            x = ddim_step(x, x_tilde, t, t_prev, pred, cfg.schedule,
                          out=bufs[i % 2], sq_diff=sq_diff)
        if on_step is not None:
            # One sum over the whole contiguous buffer: np.dot or a per-tile
            # sum would add in another order and change the logged bits.
            on_step(t, t_prev, float(np.sqrt(np.sum(sq_diff))))
    del bufs, sq_diff  # only the result is alive for the finiteness pass
    if not np.all(np.isfinite(x)):
        raise ValueError("sampled image contains non-finite values: the predictor "
                         "returned NaN or infinity, or a step overflowed")
    return x


def epsilon_loss(x0: np.ndarray, t: int, eps: np.ndarray, x_tilde: np.ndarray,
                 pred, sched: NoiseSchedule) -> float:
    """Mean squared error between the injected and the predicted noise."""
    x_t = q_sample(x0, t, eps, sched)
    eps_hat = np.asarray(pred(x_t, x_tilde, t), dtype=np.float64)
    if eps_hat.shape != np.shape(eps):
        raise ValueError("predictor output shape must match eps")
    diff = np.asarray(eps, dtype=np.float64) - eps_hat
    return float(np.mean(diff * diff))


def gaussian_kl(mu1: np.ndarray, mu2: np.ndarray, var: float) -> float:
    """KL divergence between equal-variance isotropic Gaussians.

    Reduces to sum((mu1 - mu2)^2) / (2 var); the variance terms cancel.
    """
    if not var > 0.0:
        raise ValueError("variance must be positive")
    diff = np.asarray(mu1, dtype=np.float64) - np.asarray(mu2, dtype=np.float64)
    return float(np.sum(diff * diff) / (2.0 * var))


def _posterior_coeffs(t: int, sched: NoiseSchedule) -> tuple[float, float, float]:
    """(sqrt(abar_prev), noise coefficient, posterior variance) at step t >= 2."""
    abar_t = sched.alpha_bar_at(t)
    abar_p = sched.alpha_bar_at(t - 1)
    beta_t = sched.beta_at(t)
    var = (1.0 - abar_p) / (1.0 - abar_t) * beta_t
    # 1 - abar_prev - var == alpha_t (1 - abar_prev)^2 / (1 - abar_t) >= 0;
    # clamp the last-ulp negatives from rounding.
    rad = max(1.0 - abar_p - var, 0.0)
    return math.sqrt(abar_p), math.sqrt(rad), var


def posterior_mean(x0: np.ndarray, x_t: np.ndarray, t: int,
                   sched: NoiseSchedule) -> np.ndarray:
    """Mean of the exact reverse-posterior Gaussian given (x_t, x0)."""
    if t < 2:
        raise ValueError("posterior terms are defined for t >= 2")
    x0 = np.asarray(x0, dtype=np.float64)
    x_t = np.asarray(x_t, dtype=np.float64)
    abar_t = sched.alpha_bar_at(t)
    eps_t = (x_t - math.sqrt(abar_t) * x0) / math.sqrt(1.0 - abar_t)
    c0, ce, _ = _posterior_coeffs(t, sched)
    return c0 * x0 + ce * eps_t


def variational_bound_terms(x0: np.ndarray, trajectory, x_tilde: np.ndarray,
                            pred, sched: NoiseSchedule) -> tuple[float, float]:
    """(sum of per-step KL terms, step-1 reconstruction negative log density).

    ``trajectory[t - 1]`` must hold x_t for t = 1..T falling under ``sched``.
    For t >= 2 each term is the closed-form KL between the exact posterior
    and the model's reverse Gaussian (predicted-noise mean, same fixed
    posterior variance). The reconstruction term evaluates the Gaussian
    log-density of x0 under the model's step-1 mean with variance beta_1.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    traj = [np.asarray(x, dtype=np.float64) for x in trajectory]
    if len(traj) != sched.t_count:
        raise ValueError(f"trajectory must hold {sched.t_count} states, got {len(traj)}")
    for i, x in enumerate(traj):
        if x.shape != x0.shape:
            raise ValueError(f"trajectory state {i + 1} shape mismatch")
    kl_sum = 0.0
    for t in range(2, sched.t_count + 1):
        x_t = traj[t - 1]
        eps_hat = np.asarray(pred(x_t, x_tilde, t), dtype=np.float64)
        abar_t = sched.alpha_bar_at(t)
        x0_hat = (x_t - math.sqrt(1.0 - abar_t) * eps_hat) / math.sqrt(abar_t)
        c0, ce, var = _posterior_coeffs(t, sched)
        model_mean = c0 * x0_hat + ce * eps_hat
        kl_sum += gaussian_kl(posterior_mean(x0, x_t, t, sched), model_mean, var)
    x_1 = traj[0]
    eps_hat = np.asarray(pred(x_1, x_tilde, 1), dtype=np.float64)
    abar_1 = sched.alpha_bar_at(1)
    mean_1 = (x_1 - math.sqrt(1.0 - abar_1) * eps_hat) / math.sqrt(abar_1)
    var_1 = sched.beta_at(1)
    diff = x0 - mean_1
    recon = float(np.sum(diff * diff) / (2.0 * var_1)
                  + 0.5 * x0.size * math.log(2.0 * math.pi * var_1))
    return kl_sum, recon


def variational_bound(x0: np.ndarray, trajectory, x_tilde: np.ndarray,
                      pred, sched: NoiseSchedule) -> float:
    """Sum of the KL terms and the step-1 reconstruction term."""
    kl_sum, recon = variational_bound_terms(x0, trajectory, x_tilde, pred, sched)
    return kl_sum + recon
