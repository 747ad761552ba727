"""Outside-in tracing: span-recording wrappers around the kit's public functions.

While a :class:`Tracer` is active, each traced function is rebound, in its
defining module and in every ``cfmw_kit`` module namespace that imported it
by name, to a wrapper that records a span ``[name, start_ns, end_ns,
parent]``. Methods are rebound on their class. Leaving the tracer restores
every original, so an untraced op runs the unmodified program.

Two instruments would distort the span times, so they are only installed
by an ``untimed`` tracer, whose ops are checked but not timed: the
``tracemalloc`` peaks around ``MEMORY_SPANS``, and the counter (instead of a
span) on the hot leaf ``metrics.iou``, called about half a million times per
``detect_eval`` op.

Self time is a span's duration minus the durations of its direct children.
A layer's inclusive time counts only spans with no ancestor of the same name,
so nested draws (``normal`` calling ``uniform``) are not counted twice.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
import tracemalloc
from collections import defaultdict

# (span name, owner inside cfmw_kit, attribute names): the functions that the
# four workloads reach. The two private ``cli`` helpers hold the CLI's own work
# (building the argument parser; writing through a temp file and renaming),
# so that the spans below ``cli.main`` account for its whole duration.
TARGETS = (
    ("cli.main", "cli", ("main",)),
    ("cli.parse", "cli", ("_build_parser",)),
    ("cli.write", "cli", ("_atomic_file",)),
    ("ssm.ss2d", "ssm", ("ss2d",)),
    ("ssm.selective_scan", "ssm", ("selective_scan",)),
    ("ssm.softplus", "tensor", ("softplus",)),
    ("fusion.fuse", "fusion", ("fuse",)),
    ("fusion.mlp", "fusion.Mlp3", ("apply",)),
    ("fusion.patch_embed", "fusion", ("patch_embed",)),
    ("fusion.shallow_swap", "fusion", ("shallow_swap",)),
    ("fusion.params", "fusion.FusionBlockParams", ("random",)),
    ("diffusion.sample", "diffusion", ("sample",)),
    ("diffusion.ddim_step", "diffusion", ("ddim_step",)),
    ("diffusion.predictor", "diffusion.OraclePredictor", ("__call__",)),
    ("diffusion.q_sample", "diffusion", ("q_sample",)),
    ("weather.gen", "weather", ("gen_rain", "gen_snow", "gen_depth")),
    ("weather.apply", "weather", ("apply_rain", "apply_snow", "apply_fog")),
    ("metrics.ssim", "metrics", ("ssim",)),
    ("metrics.psnr", "metrics", ("psnr",)),
    ("metrics.mean_ap", "metrics", ("mean_ap",)),
    ("metrics.iou", "metrics", ("iou",)),
    ("metrics.parse", "metrics", ("parse_detections", "parse_ground_truth")),
    ("io.read", "imageio", ("read_ppm",)),
    ("io.write", "imageio", ("write_ppm",)),
    ("io.write", "tensor_io", ("write_tensor",)),
    ("tensor.rng", "tensor.SeededRng", ("normal", "uniform")),
)

# Spans whose traced-memory peak an untimed tracer takes.
MEMORY_SPANS = {"ssm.selective_scan": "ssm.peak_mb", "metrics.ssim": "metrics.ssim.peak_mb"}

# Per-layer metrics and their units, in report order.
PER_LAYER = (
    ("ssm.selective_scan.s", "s"), ("ssm.selective_scan.calls", "count"),
    ("ssm.ss2d.self_s", "s"), ("ssm.softplus.s", "s"), ("ssm.macs", "count"),
    ("ssm.macs_per_s", "1/s"), ("ssm.peak_mb", "MB"),
    ("fusion.fuse.self_s", "s"), ("fusion.mlp.s", "s"), ("fusion.patch_embed.s", "s"),
    ("fusion.shallow_swap.s", "s"), ("fusion.params.s", "s"),
    ("diffusion.sample.s", "s"), ("diffusion.ddim_step.self_s", "s"),
    ("diffusion.predictor.s", "s"), ("diffusion.q_sample.s", "s"),
    ("diffusion.steps", "count"),
    ("weather.gen.s", "s"), ("weather.apply.s", "s"), ("weather.seeds", "count"),
    ("metrics.ssim.s", "s"), ("metrics.ssim.peak_mb", "MB"), ("metrics.psnr.s", "s"),
    ("metrics.mean_ap.s", "s"), ("metrics.iou.calls", "count"),
    ("metrics.iou.useful_ratio", "ratio"), ("metrics.parse.s", "s"),
    ("io.read.s", "s"), ("io.write.s", "s"), ("io.bytes_written", "bytes"),
    ("tensor.rng.s", "s"), ("tensor.rng.words", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead", "ratio"), ("trace.coverage", "ratio"),
)


class Tracer:
    """Context manager that traces the kit while active (see module doc)."""

    def __init__(self, kit, untimed: bool = False):
        self.kit = kit
        self.untimed = untimed
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._iou = [0, 0]  # calls, nonzero results
        self._rng_depth = [0]
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def reset(self) -> None:
        """Start a new op: forget its spans and counters (not untimed tallies)."""
        self.spans = []
        self._stack.clear()
        self.counters = defaultdict(int)

    def _span(self, name: str, fn):
        tracer = self
        peak_key = MEMORY_SPANS.get(name) if self.untimed else None

        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            entry = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(entry)
            if peak_key:
                tracemalloc.start()
            entry[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                entry[2] = time.perf_counter_ns()
                if peak_key:
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    tracer.peaks[peak_key] = max(tracer.peaks[peak_key], peak)
                stack.pop()

        return wrapper

    def _inner(self, name: str, attr: str, orig):
        """The callable a span wraps: the original, or one that also counts."""
        tracer = self
        if name == "ssm.ss2d":
            # Thread an OpCounter through the kit's own ``counter`` parameter.
            sig, op_counter = inspect.signature(orig), self.kit.ssm.OpCounter

            def counted(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                user = bound.arguments.get("counter")
                local = op_counter()
                bound.arguments["counter"] = local
                out = orig(*bound.args, **bound.kwargs)
                tracer.counters["ssm.macs"] += local.macs
                if user is not None:
                    user.add(local.macs)
                return out
            return counted
        if name == "diffusion.sample":
            sig, span = inspect.signature(orig), self._span

            def with_callback_span(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                if bound.arguments.get("on_step") is not None:
                    bound.arguments["on_step"] = span("cli.callback",
                                                      bound.arguments["on_step"])
                return orig(*bound.args, **bound.kwargs)
            return with_callback_span
        if name == "weather.gen" and attr != "gen_depth":
            sig = inspect.signature(orig)

            def seeded(*args, **kwargs):
                a = sig.bind(*args, **kwargs).arguments
                tracer.counters["weather.seeds"] += int(round(a["density"] * a["h"] * a["w"]))
                return orig(*args, **kwargs)
            return seeded
        if name == "io.write":
            sig = inspect.signature(orig)

            def sized(*args, **kwargs):
                orig(*args, **kwargs)
                path = next(iter(sig.bind(*args, **kwargs).arguments.values()))
                tracer.counters["io.bytes_written"] += os.path.getsize(path)
            return sized
        if name == "tensor.rng":
            depth = self._rng_depth  # shared: normal() draws through uniform()

            def drawn(rng, *args, **kwargs):
                if depth[0]:
                    return orig(rng, *args, **kwargs)
                before = rng.words_consumed
                depth[0] += 1
                try:
                    return orig(rng, *args, **kwargs)
                finally:
                    depth[0] -= 1
                    tracer.counters["tensor.rng.words"] += rng.words_consumed - before
            return drawn
        return orig

    def _iou_counter(self, orig):
        tally = self._iou

        def iou(a, b):
            v = orig(a, b)
            tally[0] += 1
            if v > 0.0:
                tally[1] += 1
            return v
        return iou

    # ------------------------------------------------------------- rebinding

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items()
                   if n == "cfmw_kit" or n.startswith("cfmw_kit.")]
        for name, owner_path, attrs in TARGETS:
            if name == "metrics.iou" and not self.untimed:
                continue
            owner = self.kit
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            for attr in attrs:
                if isinstance(owner, type):  # a method: rebind it on its class
                    raw = owner.__dict__[attr]
                    homes = [(owner, attr)]
                else:  # a function: rebind it wherever it was imported by name
                    raw = getattr(owner, attr)
                    homes = [(m, k) for m in modules for k, v in vars(m).items() if v is raw]
                if name == "metrics.iou":
                    wrapped = self._iou_counter(raw)
                elif isinstance(raw, classmethod):
                    wrapped = classmethod(self._span(name, self._inner(name, attr, raw.__func__)))
                else:
                    wrapped = self._span(name, self._inner(name, attr, raw))
                for home, key in homes:
                    self._saved.append((home, key, raw))
                    setattr(home, key, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def untimed_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op metrics only an untimed tracer takes, over its ``n_ops`` ops."""
        calls, nonzero = self._iou
        return {"ssm.peak_mb": self.peaks.get("ssm.peak_mb", 0.0),
                "metrics.ssim.peak_mb": self.peaks.get("metrics.ssim.peak_mb", 0.0),
                "metrics.iou.calls": calls / n_ops,
                "metrics.iou.useful_ratio": nonzero / calls if calls else 0.0}


def op_metrics(spans: list[list], counters: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one op from its spans and counters.

    ``trace.coverage`` is the share of ``cli.main`` that its direct child
    spans account for.
    """
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    incl: dict[str, int] = defaultdict(int)
    own: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        own[name] += dur - child[i]
        calls[name] += 1
        q = parent
        while q >= 0 and spans[q][0] != name:
            q = spans[q][3]
        if q < 0:
            incl[name] += dur
    s = {k: v * 1e-9 for k, v in incl.items()}
    s_self = {k: v * 1e-9 for k, v in own.items()}
    c = defaultdict(int, counters)
    ss2d_s = s.get("ssm.ss2d", 0.0)
    return {
        "ssm.selective_scan.s": s.get("ssm.selective_scan", 0.0),
        "ssm.selective_scan.calls": calls["ssm.selective_scan"],
        "ssm.ss2d.self_s": s_self.get("ssm.ss2d", 0.0),
        "ssm.softplus.s": s.get("ssm.softplus", 0.0),
        "ssm.macs": c["ssm.macs"],
        "ssm.macs_per_s": c["ssm.macs"] / ss2d_s if ss2d_s else 0.0,
        "fusion.fuse.self_s": s_self.get("fusion.fuse", 0.0),
        "fusion.mlp.s": s.get("fusion.mlp", 0.0),
        "fusion.patch_embed.s": s.get("fusion.patch_embed", 0.0),
        "fusion.shallow_swap.s": s.get("fusion.shallow_swap", 0.0),
        "fusion.params.s": s.get("fusion.params", 0.0),
        "diffusion.sample.s": s.get("diffusion.sample", 0.0),
        "diffusion.ddim_step.self_s": s_self.get("diffusion.ddim_step", 0.0),
        "diffusion.predictor.s": s.get("diffusion.predictor", 0.0),
        "diffusion.q_sample.s": s.get("diffusion.q_sample", 0.0),
        "diffusion.steps": calls["diffusion.ddim_step"],
        "weather.gen.s": s.get("weather.gen", 0.0),
        "weather.apply.s": s.get("weather.apply", 0.0),
        "weather.seeds": c["weather.seeds"],
        "metrics.ssim.s": s.get("metrics.ssim", 0.0),
        "metrics.psnr.s": s.get("metrics.psnr", 0.0),
        "metrics.mean_ap.s": s.get("metrics.mean_ap", 0.0),
        "metrics.parse.s": s.get("metrics.parse", 0.0),
        "io.read.s": s.get("io.read", 0.0),
        "io.write.s": s.get("io.write", 0.0),
        "io.bytes_written": c["io.bytes_written"],
        "tensor.rng.s": s.get("tensor.rng", 0.0),
        "tensor.rng.words": c["tensor.rng.words"],
        "cli.self_s": sum(v for k, v in s_self.items() if k.startswith("cli.")),
        "trace.coverage": 1.0 - own["cli.main"] / incl["cli.main"],
    }
