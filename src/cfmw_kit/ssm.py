"""State-space sequence machinery.

Covers the continuous diagonal model, zero-order-hold discretization, the
sequential recurrence, the equivalent structured convolution kernel, the
input-dependent selective scan, and the four-direction 2-D selective scan.

Conventions fixed here:

* The evolution operator is stored as a diagonal (one coefficient per state),
  so discretization is an elementwise exponential.
* The initial hidden state is always zero.
* The input-dependent projections are affine per token:
  ``delta = softplus(W_d x + u_d)``, ``B = W_b x + u_b``, ``C = W_c x + u_c``.
* Multiply counts are closed forms (the ``*_mac_count`` functions below);
  :func:`ss2d` also adds its count to an optional :class:`OpCounter`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import SeededRng, check_finite, count, finite_step, freeze_arrays, sigmoid, softplus

__all__ = [
    "OpCounter",
    "ContinuousSsm",
    "DiscreteSsm",
    "SelectiveSsmParams",
    "Ss2dParams",
    "discretize",
    "scan",
    "kernel",
    "apply_kernel",
    "selective_scan",
    "selective_scan_input_grad",
    "ss2d",
    "selective_scan_mac_count",
    "ss2d_mac_count",
    "softplus_inverse",
]

_SCAN_OVERFLOW = "x is too large: its scan overflows float64"


class OpCounter:
    """Accumulates floating multiply counts for complexity assertions."""

    __slots__ = ("macs",)

    def __init__(self):
        self.macs = 0

    def add(self, n: int) -> None:
        self.macs += count("n", n, 0)


def _zoh_phi(z: np.ndarray) -> np.ndarray:
    """The ZOH input factor expm1(z) / z, taken at its limit 1 only where z == 0."""
    return np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0.0)


def softplus_inverse(y: float) -> float:
    """u such that softplus(u) == y, for finite y > 0."""
    if y <= 0:
        raise ValueError("softplus output is strictly positive")
    return float(finite_step("y must be finite", lambda: y if y > 30.0 else np.log(np.expm1(y))))


def _check_state_vectors(names: str, *vectors: np.ndarray) -> None:
    shape = vectors[0].shape
    if len(shape) != 1 or shape[0] < 1 or any(v.shape != shape for v in vectors):
        raise ValueError(f"{names} must be nonempty 1-D arrays of one state size")


@dataclass(frozen=True)
class ContinuousSsm:
    """Diagonal continuous model: h' = a * h + b * x, y = <c, h>."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        freeze_arrays(self)
        _check_state_vectors("a, b, c", self.a, self.b, self.c)

    @property
    def n_state(self) -> int:
        return self.a.size

    @classmethod
    def random(cls, n_state: int, rng: SeededRng) -> "ContinuousSsm":
        """Stable random model: evolution coefficients strictly negative."""
        n_state = count("n_state", n_state, 1)
        a, b, c = rng.draws(("uniform", n_state), ("normal", n_state), ("normal", n_state))
        return cls(a=-(0.1 + 2.0 * a), b=b, c=c)


@dataclass(frozen=True)
class DiscreteSsm:
    """Discretized model: h_t = a_bar * h_{t-1} + b_bar * x_t, y_t = <c, h_t>."""

    a_bar: np.ndarray
    b_bar: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        freeze_arrays(self)
        _check_state_vectors("a_bar, b_bar, c", self.a_bar, self.b_bar, self.c)
        if np.any(self.a_bar <= 0.0):
            # exp(delta * a) of a real diagonal is always positive.
            raise ValueError("a_bar entries must be positive")

    @property
    def n_state(self) -> int:
        return self.a_bar.size


def discretize(m: ContinuousSsm, delta: float) -> DiscreteSsm:
    """Zero-order-hold transform of a continuous model with step ``delta``.

    Per state: a_bar = exp(delta a) and b_bar = (expm1(delta a) / (delta a))
    * delta * b, whose factor takes its limit 1 only where delta a is exactly
    0, so b_bar = delta * b there. A step so large that the model leaves
    float64 is refused.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    a_bar, b_bar = finite_step(
        "delta is too large: the discretized model overflows float64",
        lambda: (np.exp(delta * m.a), _zoh_phi(delta * m.a) * (delta * m.b)))
    return DiscreteSsm(a_bar=a_bar, b_bar=b_bar, c=m.c.copy())


def scan(m: DiscreteSsm, x: np.ndarray) -> np.ndarray:
    """Run the recurrence over a length-L scalar sequence from h_0 = 0; an
    ``x`` holding NaN or Inf, or so large that it overflows, is refused."""
    x = check_finite(np.asarray(x, dtype=np.float64), "x")
    if x.ndim != 1 or x.size < 1:
        raise ValueError("scan needs a nonempty 1-D input sequence")
    length = x.size
    n = m.n_state

    def recur():
        h = np.zeros(n, dtype=np.float64)
        y = np.empty(length, dtype=np.float64)
        for t in range(length):
            h = m.a_bar * h + m.b_bar * x[t]
            y[t] = m.c @ h
        return y
    return finite_step(_SCAN_OVERFLOW, recur)


def kernel(m: DiscreteSsm, length: int) -> np.ndarray:
    """Taps tap_j = sum_i c_i * a_bar_i**j * b_bar_i; refused if they overflow float64."""
    length = count("kernel length", length, 1)
    return finite_step("m is too large for this length: its kernel overflows float64", lambda: (
        m.a_bar[None, :] ** np.arange(length, dtype=np.float64)[:, None] @ (m.c * m.b_bar)))


def apply_kernel(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Causal convolution y_t = sum_{j<=t} taps_j * x_{t-j}; NaN, Inf or overflow refused."""
    x = check_finite(np.asarray(x, dtype=np.float64), "x")
    taps = check_finite(np.asarray(taps, dtype=np.float64), "taps")
    if x.ndim != 1 or taps.ndim != 1 or x.size < 1:
        raise ValueError("apply_kernel expects nonempty 1-D sequences")
    if x.size != taps.size:
        raise ValueError(f"length mismatch: x has {x.size}, taps has {taps.size}")
    return finite_step("x and taps are too large: their convolution overflows float64",
                       lambda: np.convolve(x, taps)[: x.size])


@dataclass(frozen=True)
class SelectiveSsmParams:
    """Input-dependent scan parameters for D channels and N states.

    Fields:
        a:        (D, N) per-channel evolution coefficients, all < 0.
        w_delta:  (D, D) and u_delta (D,) -- affine map to the per-channel
                  step pre-activation; the step itself is softplus of it.
        w_b, u_b: (N, D) / (N,) affine map to the per-token input projection.
        w_c, u_c: (N, D) / (N,) affine map to the per-token output projection.
    """

    a: np.ndarray
    w_delta: np.ndarray
    u_delta: np.ndarray
    w_b: np.ndarray
    u_b: np.ndarray
    w_c: np.ndarray
    u_c: np.ndarray

    def __post_init__(self):
        freeze_arrays(self)
        a = self.a
        if a.ndim != 2 or a.size == 0:
            raise ValueError("a must be a nonempty (channels, states) array")
        if np.any(a > -1e-300):
            # Keeps every a_bar = exp(delta * a) at most 1, so long scans stay
            # bounded; the floor keeps x / a in the fast scan's ZOH finite.
            raise ValueError("a must be strictly negative, at most -1e-300")
        d, n = a.shape
        expect = {
            "w_delta": (d, d),
            "u_delta": (d,),
            "w_b": (n, d),
            "u_b": (n,),
            "w_c": (n, d),
            "u_c": (n,),
        }
        for name, shape in expect.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} must have shape {shape}, got {got}")

    @property
    def d_channels(self) -> int:
        return self.a.shape[0]

    @property
    def n_state(self) -> int:
        return self.a.shape[1]

    @classmethod
    def random(cls, d_channels: int, n_state: int, rng: SeededRng) -> "SelectiveSsmParams":
        return _random_scan_params(d_channels, n_state, rng, 1)[0]

    @classmethod
    def frozen(cls, m: ContinuousSsm, d_channels: int, delta: float) -> "SelectiveSsmParams":
        """Constant projections reproducing ``discretize(m, delta)`` per channel."""
        if not delta > 0.0:
            raise ValueError("delta must be positive")
        d, n = count("d_channels", d_channels, 1), m.n_state
        return cls(
            a=np.tile(m.a, (d, 1)),
            w_delta=np.zeros((d, d)),
            u_delta=np.full(d, softplus_inverse(delta)),
            w_b=np.zeros((n, d)),
            u_b=m.b.copy(),
            w_c=np.zeros((n, d)),
            u_c=m.c.copy(),
        )


def _random_scan_params(d: int, n: int, rng: SeededRng, copies: int) -> list[SelectiveSsmParams]:
    """``copies`` successive :meth:`SelectiveSsmParams.random` draws, taken as one."""
    d, n = count("d_channels", d, 1), count("n_state", n, 1)
    sd = 1.0 / np.sqrt(d)
    spec = (("uniform", d * n), ("normal", d * d), ("normal", d),
            ("normal", n * d), ("normal", n), ("normal", n * d), ("normal", n))
    drawn = rng.draws(*spec * copies)
    out = []
    for i in range(0, len(drawn), len(spec)):
        a, w_delta, u_delta, w_b, u_b, w_c, u_c = drawn[i:i + len(spec)]
        out.append(SelectiveSsmParams(
            a=-(0.1 + 2.0 * a.reshape(d, n)),
            w_delta=w_delta.reshape(d, d) * sd,
            u_delta=u_delta * 0.5,
            w_b=w_b.reshape(n, d) * sd,
            u_b=u_b * 0.5,
            w_c=w_c.reshape(n, d) * sd,
            u_c=u_c * 0.5,
        ))
    return out


def _selective_forward(x: np.ndarray, p: SelectiveSsmParams):
    """Reference per-token scan; returns what the backward pass and the tests read.

    The tests hold :func:`selective_scan` to ``_selective_forward(x, p)[0]``.
    """
    length = x.shape[0]
    s = x @ p.w_delta.T + p.u_delta                      # (L, D)
    delta = softplus(s)                                  # (L, D), > 0
    b_seq = x @ p.w_b.T + p.u_b                          # (L, N)
    c_seq = x @ p.w_c.T + p.u_c                          # (L, N)
    z = delta[:, :, None] * p.a[None, :, :]              # (L, D, N)
    a_bar = np.exp(z)
    phi = _zoh_phi(z)
    b_bar = phi * (delta[:, :, None] * b_seq[:, None, :])  # (L, D, N)
    h = np.zeros((p.d_channels, p.n_state), dtype=np.float64)
    hs = np.empty((length, p.d_channels, p.n_state), dtype=np.float64)
    y = np.empty((length, p.d_channels), dtype=np.float64)
    for t in range(length):
        h = a_bar[t] * h + b_bar[t] * x[t][:, None]
        hs[t] = h
        y[t] = h @ c_seq[t]
    return y, s, delta, b_seq, c_seq, z, a_bar, phi, b_bar, hs


# Bytes of the two (block, S, D, N) step buffers of :func:`_stacked_scan`; it
# fixes the block length, so that a block stays in cache from the whole-block
# passes that build it through the recurrence that consumes it.
_BLOCK_BYTES = 512 * 1024


def _block_steps(s_count: int, d: int, n: int) -> int:
    """Steps per block of :func:`_stacked_scan` over S sequences of (D, N) states."""
    return max(1, _BLOCK_BYTES // (16 * s_count * d * n))


def _stacked_scan(xs: list[np.ndarray], ps: list[SelectiveSsmParams]) -> np.ndarray:
    """Forward-only selective scan of S (L, D) sequences, each with its own params.

    Returns the (S, L, D) outputs. The recurrence runs strictly in sequence,
    one block of steps at a time over all S sequences together. Per block,
    whole-block calls form delta, B and C from one stacked projection, then
    z = delta a, a_bar = expm1(z) + 1 and u = b_bar x = expm1(z) x / a B;
    each step then only needs a_bar_t *= h_{t-1} and u_t += a_bar_t, which
    leaves h_t in u_t, and one batched matmul takes every <C_t, h_t> of the
    block. Row 0 of the step buffers holds the state entering the block. The
    block length comes from ``_BLOCK_BYTES``, so no array is (L, D, N) in
    size: working memory is O(L S D) plus that budget.
    """
    s_count = len(xs)
    length, d = xs[0].shape
    n = ps[0].n_state
    a = np.stack([p.a for p in ps])                                       # (S, D, N)
    w = np.stack([np.concatenate([p.w_delta, p.w_b, p.w_c]).T for p in ps])
    bias = np.stack([np.concatenate([p.u_delta, p.u_b, p.u_c]) for p in ps])[:, None]
    block = min(length, _block_steps(s_count, d, n))
    a_bar = np.empty((block + 1, s_count, d, n))
    u = np.zeros((block + 1, s_count, d, n))
    steps = list(zip(a_bar[1:], u[:-1], u[1:]))
    y = np.empty((s_count, length, d))
    for t0 in range(0, length, block):
        m = min(block, length - t0)
        xb = np.stack([x[t0:t0 + m] for x in xs])                         # (S, m, D)
        proj = xb @ w + bias                                              # (S, m, D + 2N)
        z, ub = a_bar[1:m + 1], u[1:m + 1]                                # (m, S, D, N)
        np.multiply(softplus(proj[..., :d]).swapaxes(0, 1)[..., None], a, out=z)
        np.expm1(z, out=ub)
        np.add(ub, 1.0, out=z)                   # a_bar = exp(z) without a second exponential
        ub *= xb.swapaxes(0, 1)[..., None]       # x before 1/a keeps each product finite
        ub /= a
        ub *= proj[:, :, None, d:d + n].swapaxes(0, 1)
        for a_t, h_prev, h in steps[:m]:
            a_t *= h_prev
            h += a_t
        np.matmul(ub, proj[..., d + n:, None].swapaxes(0, 1),
                  out=y[:, t0:t0 + m].swapaxes(0, 1)[..., None])
        u[0] = u[m]
    return y


def _token_sequence(x: np.ndarray, p: SelectiveSsmParams) -> np.ndarray:
    """``x`` as a finite float64 (L, D) sequence with L >= 1 and D matching ``p``."""
    x = check_finite(np.asarray(x, dtype=np.float64), "x")
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("x must be a nonempty (L, D) sequence")
    if x.shape[1] != p.d_channels:
        raise ValueError(f"channel mismatch: x has {x.shape[1]}, params {p.d_channels}")
    return x


def selective_scan(x: np.ndarray, p: SelectiveSsmParams) -> np.ndarray:
    """Input-dependent scan over an (L, D) token sequence.

    Per channel d, with token-dependent step delta_{t,d} and projections
    B_t, C_t:

        h_t = exp(delta_{t,d} a_d) * h_{t-1} + b_bar_{t,d} * x_{t,d}
        y_{t,d} = <C_t, h_t>

    where b_bar uses the same zero-order-hold factor as :func:`discretize`,
    expm1(z) / z with z = delta_{t,d} a_d, at its limit 1 only where z == 0.
    The fast scan forms b_bar * x as expm1(z) * x / a_d * B_t instead, which
    has no 0/0 at all; :class:`SelectiveSsmParams` keeps |a| >= 1e-300 so the
    division stays finite.

    The result comes from a forward-only scan that runs the recurrence in
    sequence, one block of steps at a time, with no (L, D, N) array; the
    per-token loop behind :func:`selective_scan_input_grad` is the reference
    it is tested against. An ``x`` holding NaN or Inf is refused, and so is
    one so large that its scan overflows float64.
    """
    x = _token_sequence(x, p)
    # delta * a may overflow to -inf, and a_bar = 0 is then the exact decay;
    # an overflow that reaches the output leaves it non-finite, and is refused.
    return finite_step(_SCAN_OVERFLOW, _stacked_scan, [x], [p])[0]


def selective_scan_input_grad(x: np.ndarray, p: SelectiveSsmParams) -> np.ndarray:
    """Hand-written gradient of sum(selective_scan(x, p)) with respect to x.

    Reverse-mode over the recurrence; used to validate the forward pass
    against central finite differences. Refused as :func:`selective_scan` refuses.
    """
    return finite_step(_SCAN_OVERFLOW, _input_grad, _token_sequence(x, p), p)


def _input_grad(x: np.ndarray, p: SelectiveSsmParams) -> np.ndarray:
    # b_bar = expm1(delta a) / a * B, so d b_bar / d delta = a_bar * B and
    # d b_bar / d B = phi * delta: no derivative of phi is needed.
    _, s, delta, b_seq, c_seq, _, a_bar, phi, b_bar, hs = _selective_forward(x, p)
    length = x.shape[0]
    g_x = np.zeros_like(x)
    g_s = np.zeros_like(s)
    g_b_seq = np.zeros_like(b_seq)
    g_c_seq = np.zeros_like(c_seq)
    gh = np.zeros((p.d_channels, p.n_state), dtype=np.float64)
    for t in range(length - 1, -1, -1):
        gh = gh + c_seq[t][None, :]                  # dL/dy_t = 1 for every (t, d)
        g_c_seq[t] = hs[t].sum(axis=0)
        h_prev = hs[t - 1] if t > 0 else np.zeros_like(gh)
        g_abar = gh * h_prev
        g_bbar = gh * x[t][:, None]
        g_x[t] += (gh * b_bar[t]).sum(axis=1)
        g_delta = (a_bar[t] * (g_abar * p.a + g_bbar * b_seq[t][None, :])).sum(axis=1)
        g_b_seq[t] = (g_bbar * phi[t] * delta[t][:, None]).sum(axis=0)
        g_s[t] = g_delta * sigmoid(s[t])
        gh = a_bar[t] * gh
    g_x += g_s @ p.w_delta + g_b_seq @ p.w_b + g_c_seq @ p.w_c
    return g_x


@dataclass(frozen=True)
class Ss2dParams:
    """One selective-scan parameter set per 2-D traversal direction."""

    row_fwd: SelectiveSsmParams
    row_bwd: SelectiveSsmParams
    col_fwd: SelectiveSsmParams
    col_bwd: SelectiveSsmParams

    def __post_init__(self):
        d = self.row_fwd.d_channels
        n = self.row_fwd.n_state
        for name in ("row_bwd", "col_fwd", "col_bwd"):
            q = getattr(self, name)
            if q.d_channels != d or q.n_state != n:
                raise ValueError("all four directions must share (D, N)")

    @property
    def d_channels(self) -> int:
        return self.row_fwd.d_channels

    @property
    def n_state(self) -> int:
        return self.row_fwd.n_state

    @classmethod
    def random(cls, d_channels: int, n_state: int, rng: SeededRng) -> "Ss2dParams":
        return cls(*_random_scan_params(d_channels, n_state, rng, 4))


def ss2d(fmap: np.ndarray, p: Ss2dParams, counter: OpCounter | None = None) -> np.ndarray:
    """Four-direction 2-D selective scan over an (H, W, D) feature map.

    The map is flattened in row-major forward/backward and column-major
    forward/backward order; each order is scanned with its own parameters,
    un-flattened, and the four results are summed as
    (row_fwd + row_bwd) + (col_fwd + col_bwd). The four scans run together as
    one stacked scan, each giving what :func:`selective_scan` gives for its
    order alone; ``counter`` receives :func:`ss2d_mac_count`. A map holding
    NaN or Inf, or one whose scans overflow float64, is refused as ``x``.
    """
    fmap = check_finite(np.asarray(fmap, dtype=np.float64), "x")
    if fmap.ndim != 3 or 0 in fmap.shape[:2]:
        raise ValueError("ss2d expects a nonempty (H, W, D) feature map")
    h, w, d = fmap.shape
    if d != p.d_channels:
        raise ValueError(f"channel mismatch: map has {d}, params {p.d_channels}")
    row = fmap.reshape(h * w, d)
    col = fmap.transpose(1, 0, 2).reshape(h * w, d)

    def scans():  # overflow as in selective_scan
        y = _stacked_scan([row, row[::-1], col, col[::-1]],
                          [p.row_fwd, p.row_bwd, p.col_fwd, p.col_bwd])
        y_row, y_col = y[0], y[2]
        y_row += y[1, ::-1]
        y_col += y[3, ::-1]
        return y_row.reshape(h, w, d) + y_col.reshape(w, h, d).transpose(1, 0, 2)
    out = finite_step(_SCAN_OVERFLOW, scans)
    if counter is not None:
        counter.add(ss2d_mac_count(h, w, d, p.n_state))
    return out


def selective_scan_mac_count(length: int, d_channels: int, n_state: int) -> int:
    """Exact multiply count of the reference selective-scan recurrence.

    Per token: D^2 (step projection) + 2 N D (input/output projections)
    + 4 N D (discretization: z, phi, delta*B, b_bar) + 3 N D (recurrence
    and output dot).
    """
    d, n = count("d_channels", d_channels, 1), count("n_state", n_state, 1)
    return (d * d + 9 * n * d) * count("length", length, 1)


def ss2d_mac_count(h: int, w: int, d_channels: int, n_state: int) -> int:
    """Exact multiply count of :func:`ss2d`: four directional reference scans."""
    return 4 * selective_scan_mac_count(count("h", h, 1) * count("w", w, 1), d_channels, n_state)
