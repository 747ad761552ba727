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
* Multiply counts are tracked through an optional :class:`OpCounter`, and the
  closed-form count functions below must agree exactly with the instrumented
  counts (this is tested).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import SeededRng, check_finite, sigmoid, softplus
from .tensor_io import _from_prefixed

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
    "scan_mac_count",
    "selective_scan_mac_count",
    "ss2d_mac_count",
    "softplus_inverse",
]

# Below this magnitude of delta*a the ZOH input factor is taken at its limit;
# avoids catastrophic cancellation in (exp(z) - 1) / z.
ZOH_SERIES_EPS = 1e-8


class OpCounter:
    """Accumulates floating multiply counts for complexity assertions."""

    __slots__ = ("macs",)

    def __init__(self):
        self.macs = 0

    def add(self, n: int) -> None:
        self.macs += int(n)


def _zoh_phi(z: np.ndarray) -> np.ndarray:
    """(exp(z) - 1) / z with the removable singularity evaluated at its limit."""
    z = np.asarray(z, dtype=np.float64)
    small = np.abs(z) < ZOH_SERIES_EPS
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0, np.expm1(z) / safe)


def _zoh_phi_prime(z: np.ndarray) -> np.ndarray:
    """Derivative of the ZOH factor, series-evaluated near zero."""
    z = np.asarray(z, dtype=np.float64)
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, z)
    direct = (np.exp(z) * (z - 1.0) + 1.0) / (safe * safe)
    series = 0.5 + z / 3.0 + (z * z) / 8.0
    return np.where(small, series, direct)


def softplus_inverse(y: float) -> float:
    """u such that softplus(u) == y, for y > 0."""
    if y <= 0:
        raise ValueError("softplus output is strictly positive")
    return float(y) if y > 30.0 else float(np.log(np.expm1(y)))


def _vector(v, n_name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"{n_name} must be a nonempty 1-D array")
    return check_finite(v, n_name)


@dataclass(frozen=True)
class ContinuousSsm:
    """Diagonal continuous model: h' = a * h + b * x, y = <c, h>."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = _vector(self.a, "a")
        b = _vector(self.b, "b")
        c = _vector(self.c, "c")
        if not (a.size == b.size == c.size):
            raise ValueError("a, b, c must share the state size")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n_state(self) -> int:
        return self.a.size

    @classmethod
    def random(cls, n_state: int, rng: SeededRng) -> "ContinuousSsm":
        """Stable random model: evolution coefficients strictly negative."""
        a = -(0.1 + 2.0 * rng.uniform(n_state))
        return cls(a=a, b=rng.normal(n_state), c=rng.normal(n_state))


@dataclass(frozen=True)
class DiscreteSsm:
    """Discretized model: h_t = a_bar * h_{t-1} + b_bar * x_t, y_t = <c, h_t>."""

    a_bar: np.ndarray
    b_bar: np.ndarray
    c: np.ndarray
    delta: float

    def __post_init__(self):
        a_bar = _vector(self.a_bar, "a_bar")
        b_bar = _vector(self.b_bar, "b_bar")
        c = _vector(self.c, "c")
        if not (a_bar.size == b_bar.size == c.size):
            raise ValueError("a_bar, b_bar, c must share the state size")
        if np.any(a_bar <= 0.0):
            # exp(delta * a) of a real diagonal is always positive.
            raise ValueError("a_bar entries must be positive")
        if not self.delta > 0.0:
            raise ValueError("delta must be positive")
        object.__setattr__(self, "a_bar", a_bar)
        object.__setattr__(self, "b_bar", b_bar)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "delta", float(self.delta))

    @property
    def n_state(self) -> int:
        return self.a_bar.size


def discretize(m: ContinuousSsm, delta: float) -> DiscreteSsm:
    """Zero-order-hold transform of a continuous model with step ``delta``.

    Per state: a_bar = exp(delta a) and b_bar = ((exp(delta a) - 1) / (delta a))
    * delta * b, the latter evaluated at its limit delta * b when
    |delta a| < 1e-8.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    z = delta * m.a
    a_bar = np.exp(z)
    b_bar = _zoh_phi(z) * (delta * m.b)
    return DiscreteSsm(a_bar=a_bar, b_bar=b_bar, c=m.c.copy(), delta=float(delta))


def scan(m: DiscreteSsm, x: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
    """Run the recurrence over a length-L scalar sequence from h_0 = 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("scan needs a nonempty 1-D input sequence")
    length = x.size
    n = m.n_state
    h = np.zeros(n, dtype=np.float64)
    y = np.empty(length, dtype=np.float64)
    for t in range(length):
        h = m.a_bar * h + m.b_bar * x[t]
        y[t] = m.c @ h
    if counter is not None:
        counter.add(scan_mac_count(length, n))
    return y


def kernel(m: DiscreteSsm, length: int) -> np.ndarray:
    """Structured convolution taps: tap_j = sum_i c_i * a_bar_i**j * b_bar_i."""
    if length < 1:
        raise ValueError("kernel length must be >= 1")
    powers = m.a_bar[None, :] ** np.arange(length, dtype=np.float64)[:, None]
    return powers @ (m.c * m.b_bar)


def apply_kernel(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Causal convolution y_t = sum_{j<=t} taps_j * x_{t-j}."""
    x = np.asarray(x, dtype=np.float64)
    taps = np.asarray(taps, dtype=np.float64)
    if x.ndim != 1 or taps.ndim != 1:
        raise ValueError("apply_kernel expects 1-D sequences")
    if x.size != taps.size:
        raise ValueError(f"length mismatch: x has {x.size}, taps has {taps.size}")
    return np.convolve(x, taps)[: x.size]


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
        a = check_finite(np.asarray(self.a, dtype=np.float64), "a")
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
            arr = check_finite(np.asarray(getattr(self, name), dtype=np.float64), name)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "a", a)

    @property
    def d_channels(self) -> int:
        return self.a.shape[0]

    @property
    def n_state(self) -> int:
        return self.a.shape[1]

    @classmethod
    def random(cls, d_channels: int, n_state: int, rng: SeededRng) -> "SelectiveSsmParams":
        d, n = d_channels, n_state
        sd = 1.0 / np.sqrt(d)
        return cls(
            a=-(0.1 + 2.0 * rng.uniform(d * n).reshape(d, n)),
            w_delta=rng.normal(d * d).reshape(d, d) * sd,
            u_delta=rng.normal(d) * 0.5,
            w_b=rng.normal(n * d).reshape(n, d) * sd,
            u_b=rng.normal(n) * 0.5,
            w_c=rng.normal(n * d).reshape(n, d) * sd,
            u_c=rng.normal(n) * 0.5,
        )

    @classmethod
    def frozen(cls, m: ContinuousSsm, d_channels: int, delta: float) -> "SelectiveSsmParams":
        """Constant projections reproducing ``discretize(m, delta)`` per channel."""
        if not delta > 0.0:
            raise ValueError("delta must be positive")
        d, n = d_channels, m.n_state
        return cls(
            a=np.tile(m.a, (d, 1)),
            w_delta=np.zeros((d, d)),
            u_delta=np.full(d, softplus_inverse(delta)),
            w_b=np.zeros((n, d)),
            u_b=m.b.copy(),
            w_c=np.zeros((n, d)),
            u_c=m.c.copy(),
        )

    def to_tensors(self) -> dict[str, np.ndarray]:
        return {
            "a": self.a,
            "w_delta": self.w_delta,
            "u_delta": self.u_delta,
            "w_b": self.w_b,
            "u_b": self.u_b,
            "w_c": self.w_c,
            "u_c": self.u_c,
        }

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray]) -> "SelectiveSsmParams":
        return cls(**{k: tensors[k] for k in
                      ("a", "w_delta", "u_delta", "w_b", "u_b", "w_c", "u_c")})


def _selective_forward(x: np.ndarray, p: SelectiveSsmParams):
    """Reference per-token scan; returns the intermediates the backward pass needs.

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
    d_b = delta[:, :, None] * b_seq[:, None, :]          # (L, D, N)
    b_bar = phi * d_b
    h = np.zeros((p.d_channels, p.n_state), dtype=np.float64)
    hs = np.empty((length, p.d_channels, p.n_state), dtype=np.float64)
    y = np.empty((length, p.d_channels), dtype=np.float64)
    for t in range(length):
        h = a_bar[t] * h + b_bar[t] * x[t][:, None]
        hs[t] = h
        y[t] = h @ c_seq[t]
    return y, s, delta, b_seq, c_seq, z, a_bar, phi, d_b, b_bar, hs


def _decay(s: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(a * s) into ``out``: the product of the a_bar over steps whose deltas sum to s."""
    # s >= 0 and a < 0, so where a * s overflows it is -inf, and exp(-inf) = 0
    # is the exact decay: that overflow is harmless.
    with np.errstate(over="ignore"):
        np.multiply(s, a, out=out)
    return np.exp(out, out=out)


def _two_level_scan(x: np.ndarray, p: SelectiveSsmParams) -> np.ndarray:
    """Forward-only selective scan, run as a two-level linear recurrence.

    The tokens are split into K chunks of T steps, T being the power of two
    >= sqrt(L), with the last chunk zero-padded. All chunks advance together
    through T steps from a zero state; each step builds that step's a_bar
    and b_bar * x for every chunk in (K, D, N) buffers that the next step
    reuses. As a is diagonal, the product of a chunk's a_bar up to step t is
    exp(a * S_t), S_t being the in-chunk sum of delta (the chunk decay of
    Mamba-2's SSD scan). A carry pass over the chunks gives the state h_in
    entering each one from the chunk-end decays, and every output of a later
    chunk then gains <C_t, exp(a * S_t) * h_in>, a few steps at a time. No
    array is (L, D, N) in size: working memory is O(L (D + N) + sqrt(L) D N).
    """
    length, d = x.shape
    n = p.n_state
    t_len = 1 << ((length - 1).bit_length() + 1) // 2
    k = -(-length // t_len)
    xp = np.zeros((k * t_len, d))
    xp[:length] = x

    def by_step(v):
        # (K*T, m) -> (T, K, m), so step j of every chunk is one contiguous slab.
        return np.ascontiguousarray(v.reshape(k, t_len, -1).swapaxes(0, 1))

    delta_s = by_step(softplus(xp @ p.w_delta.T + p.u_delta))
    x_s = by_step(xp)
    b_s = by_step(xp @ p.w_b.T + p.u_b)
    c_s = by_step(xp @ p.w_c.T + p.u_c)[..., None]

    y = np.empty((t_len, k, d, 1))
    z = np.empty((k, d, n))
    u = np.empty((k, d, n))
    a_bar = np.empty((k, d, n))
    h = np.zeros((k, d, n))
    for j in range(t_len):
        np.multiply(delta_s[j][:, :, None], p.a, out=z)
        np.expm1(z, out=u)
        np.add(u, 1.0, out=a_bar)                # exp(z) without a second exponential
        u *= x_s[j][:, :, None]                  # x before 1/a keeps each product finite
        u /= p.a
        u *= b_s[j][:, None, :]                  # b_bar * x = expm1(z) x B / a
        h *= a_bar
        h += u
        np.matmul(h, c_s[j], out=y[j])

    s_cum = np.cumsum(delta_s, axis=0, out=delta_s)[..., None]
    block = min(8, t_len)                        # t_len is a power of two
    decay = np.empty((block, k - 1, d, n))
    end = _decay(s_cum[-1, 1:-1], p.a, decay[0, :-1])
    for i in range(1, k - 1):                    # h[i]: the state entering chunk i + 1
        h[i] += end[i - 1] * h[i - 1]
    h_in = h[:-1]
    for j in range(0, t_len, block):
        _decay(s_cum[j:j + block, 1:], p.a, decay)
        decay *= h_in
        y[j:j + block, 1:] += decay @ c_s[j:j + block, 1:]
    return y[..., 0].swapaxes(0, 1).reshape(-1, d)[:length]


def selective_scan(x: np.ndarray, p: SelectiveSsmParams,
                   counter: OpCounter | None = None) -> np.ndarray:
    """Input-dependent scan over an (L, D) token sequence.

    Per channel d, with token-dependent step delta_{t,d} and projections
    B_t, C_t:

        h_t = exp(delta_{t,d} a_d) * h_{t-1} + b_bar_{t,d} * x_{t,d}
        y_{t,d} = <C_t, h_t>

    where b_bar uses the same zero-order-hold factor as :func:`discretize`.
    With z = delta_{t,d} a_d, the fast scan forms b_bar * x as
    expm1(z) * x / a_d * B_t, which has no 0/0 as z -> 0 and so needs no
    series branch; :class:`SelectiveSsmParams` keeps |a| >= 1e-300 so the
    division stays finite.

    The result comes from a forward-only two-level scan whose working memory
    is O(L (D + N) + sqrt(L) D N), with no (L, D, N) array; the per-token
    loop behind :func:`selective_scan_input_grad` is the reference it is
    tested against. ``counter`` receives :func:`selective_scan_mac_count`, the
    reference recurrence's multiplies, not the two-level scan's carry work.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("selective_scan needs a nonempty (L, D) sequence")
    if x.shape[1] != p.d_channels:
        raise ValueError(f"channel mismatch: x has {x.shape[1]}, params {p.d_channels}")
    y = _two_level_scan(x, p)
    if counter is not None:
        counter.add(selective_scan_mac_count(x.shape[0], p.d_channels, p.n_state))
    return y


def selective_scan_input_grad(x: np.ndarray, p: SelectiveSsmParams) -> np.ndarray:
    """Hand-written gradient of sum(selective_scan(x, p)) with respect to x.

    Reverse-mode over the recurrence; used to validate the forward pass
    against central finite differences.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != p.d_channels:
        raise ValueError("x must be (L, D) matching the params")
    _, s, delta, b_seq, c_seq, z, a_bar, phi, d_b, b_bar, hs = _selective_forward(x, p)
    length = x.shape[0]
    g_x = np.zeros_like(x)
    g_s = np.zeros_like(s)
    g_b_seq = np.zeros_like(b_seq)
    g_c_seq = np.zeros_like(c_seq)
    gh = np.zeros((p.d_channels, p.n_state), dtype=np.float64)
    phi_p = _zoh_phi_prime(z)
    for t in range(length - 1, -1, -1):
        gh = gh + c_seq[t][None, :]                  # dL/dy_t = 1 for every (t, d)
        g_c_seq[t] = hs[t].sum(axis=0)
        h_prev = hs[t - 1] if t > 0 else np.zeros_like(gh)
        g_abar = gh * h_prev
        g_bbar = gh * x[t][:, None]
        g_x[t] += (gh * b_bar[t]).sum(axis=1)
        g_z = g_abar * a_bar[t] + g_bbar * d_b[t] * phi_p[t]
        g_db = g_bbar * phi[t]
        g_delta = (g_z * p.a).sum(axis=1) + (g_db * b_seq[t][None, :]).sum(axis=1)
        g_b_seq[t] = (g_db * delta[t][:, None]).sum(axis=0)
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
        return cls(*(SelectiveSsmParams.random(d_channels, n_state, rng)
                     for _ in range(4)))

    def to_tensors(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for name in ("row_fwd", "row_bwd", "col_fwd", "col_bwd"):
            for key, arr in getattr(self, name).to_tensors().items():
                out[f"{name}.{key}"] = arr
        return out

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray]) -> "Ss2dParams":
        parts = {}
        for name in ("row_fwd", "row_bwd", "col_fwd", "col_bwd"):
            parts[name] = _from_prefixed(SelectiveSsmParams.from_tensors, tensors, name)
        return cls(**parts)


def ss2d(fmap: np.ndarray, p: Ss2dParams, counter: OpCounter | None = None) -> np.ndarray:
    """Four-direction 2-D selective scan over an (H, W, D) feature map.

    The map is flattened in row-major forward/backward and column-major
    forward/backward order; each order is scanned with its own parameters,
    un-flattened, and the four results are summed as
    (row_fwd + row_bwd) + (col_fwd + col_bwd).
    """
    fmap = np.asarray(fmap, dtype=np.float64)
    if fmap.ndim != 3:
        raise ValueError("ss2d expects an (H, W, D) feature map")
    h, w, d = fmap.shape
    if d != p.d_channels:
        raise ValueError(f"channel mismatch: map has {d}, params {p.d_channels}")
    row = fmap.reshape(h * w, d)
    col = fmap.transpose(1, 0, 2).reshape(h * w, d)

    y_rf = selective_scan(row, p.row_fwd, counter).reshape(h, w, d)
    y_rb = selective_scan(row[::-1], p.row_bwd, counter)[::-1].reshape(h, w, d)
    y_cf = selective_scan(col, p.col_fwd, counter).reshape(w, h, d).transpose(1, 0, 2)
    y_cb = (selective_scan(col[::-1], p.col_bwd, counter)[::-1]
            .reshape(w, h, d).transpose(1, 0, 2))
    return (y_rf + y_rb) + (y_cf + y_cb)


def scan_mac_count(length: int, n_state: int) -> int:
    """Exact multiply count of :func:`scan`: 3 N per step."""
    if length < 1 or n_state < 1:
        raise ValueError("sizes must be positive")
    return 3 * n_state * length


def selective_scan_mac_count(length: int, d_channels: int, n_state: int) -> int:
    """Exact multiply count of the reference selective-scan recurrence.

    This is what :func:`selective_scan` adds to its counter. The two-level
    scan's decay and carry multiplies are not included.

    Per token: D^2 (step projection) + 2 N D (input/output projections)
    + 4 N D (discretization: z, phi, delta*B, b_bar) + 3 N D (recurrence
    and output dot).
    """
    if length < 1 or d_channels < 1 or n_state < 1:
        raise ValueError("sizes must be positive")
    per_token = d_channels * d_channels + 9 * n_state * d_channels
    return per_token * length


def ss2d_mac_count(h: int, w: int, d_channels: int, n_state: int) -> int:
    """Exact multiply count of :func:`ss2d`: four directional reference scans.

    Like :func:`selective_scan_mac_count`, it excludes the two-level scan's
    carry multiplies.
    """
    return 4 * selective_scan_mac_count(h * w, d_channels, n_state)
