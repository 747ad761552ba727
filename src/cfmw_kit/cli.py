"""Command-line front end: reproducible pipelines over fixed file formats.

Subcommands:

    synth     degrade clean PPM images with rain, snow, or fog
    restore   run the deterministic implicit sampler against a predictor
    fuse      patch-embed two aligned images and fuse their features
    bench     time the linear fusion path against the quadratic baseline
    eval      PSNR/SSIM for image pairs, mAP for detection files
    schedule  dump a noise schedule as CSV

Every command is deterministic given its flags, config file, and seed;
reruns produce byte-identical primary outputs (benchmark wall times exempt).
Outputs are written to a temporary file and renamed on success, so failed
runs leave nothing partial behind. Option precedence: command-line flags,
then ``key=value`` lines from ``--config``, then built-in defaults.
"""

from __future__ import annotations

import os

# Keep timing single-threaded regardless of the BLAS build; must be set
# before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import functools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import diffusion, fusion, imageio, metrics, tensor, tensor_io, weather

ENV_THREADS = "CFMW_KIT_THREADS"
DEFAULT_SEED = 42


def _atomic_file(path: Path, writer) -> None:
    """Write through a sibling temp file and rename into place."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_text(path: Path, text: str) -> None:
    _atomic_file(path, lambda p: p.write_text(text, encoding="ascii"))


def _parallel_map(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


class _Options:
    """Flags > config-file entries > defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config: dict[str, str] = {}
        if args.config is not None:
            self.config = tensor_io.read_manifest(args.config)
        known = {dest.replace("_", "-") for dest in vars(args)} - {"command", "config"}
        for key in self.config:
            if key not in known:
                raise ValueError(f"unknown option {key!r} in config file {args.config}")

    def get(self, name: str, default, cast):
        value = getattr(self.args, name.replace("-", "_"), None)
        if value is not None:
            return value
        if name in self.config:
            raw = self.config[name]
            try:
                return cast(raw)
            except ValueError:
                if cast not in (int, float):
                    raise  # _pure_swap_value names its key itself
                raise ValueError(f"config entry {name!r} is not a valid "
                                 f"{cast.__name__}: {raw!r}") from None
        return default

    def require(self, name: str, cast=str):
        value = self.get(name, None, cast)
        if value is None:
            raise ValueError(f"missing required option --{name}")
        return value


def _resolve_threads(opts: _Options) -> int:
    value = opts.get("threads", None, int)
    if value is None:
        env = os.environ.get(ENV_THREADS)
        value = int(env) if env else 1
    if value < 1:
        raise ValueError("--threads must be >= 1")
    return value


def _out_dir(opts: _Options) -> Path:
    return Path(opts.get("out", ".", str))


def _at_least(name: str, value: int, low: int) -> int:
    """``value`` of option ``--name``, refused below ``low`` before any arithmetic."""
    if value < low:
        raise ValueError(f"--{name} must be >= {low}, got {value}")
    return value


# ---------------------------------------------------------------- synth

def cmd_synth(opts: _Options) -> int:
    inputs = opts.require("input", str)
    paths = [Path(p) for p in (inputs if isinstance(inputs, list) else [inputs])]
    kind = opts.require("weather", str)
    if kind not in ("rain", "snow", "fog"):
        raise ValueError(f"unknown weather kind {kind!r}")
    seed = opts.get("seed", DEFAULT_SEED, int)
    out = _out_dir(opts)
    threads = _resolve_threads(opts)
    targets: dict[Path, Path] = {}
    for src in paths:
        dst = out / f"{src.stem}_{kind}.ppm"
        if dst in targets:
            raise ValueError(f"inputs {targets[dst]} and {src} would both be "
                             f"written as {dst.name}")
        targets[dst] = src

    params: dict[str, str] = {}
    if kind == "rain":
        density = opts.get("density", 0.002, float)
        angle = opts.get("angle", 75.0, float)
        streak = opts.get("streak-len", 12, int)
        params = {"density": repr(density), "angle": repr(angle),
                  "streak_len": str(streak)}
    elif kind == "snow":
        density = opts.get("density", 0.004, float)
        r_lo = opts.get("radius-min", 1.0, float)
        r_hi = opts.get("radius-max", 3.0, float)
        params = {"density": repr(density), "radius_min": repr(r_lo),
                  "radius_max": repr(r_hi)}
    else:
        beta = opts.get("beta", 0.5, float)
        l_inf = opts.get("linf", 235.0, float)
        depth_mode = opts.get("depth-mode", "vertical_gradient", str)
        depth_value = opts.get("depth-value", 1.0, float)
        max_depth = opts.get("max-depth", 1.0, float)
        params = {"beta": repr(beta), "linf": repr(l_inf),
                  "depth_mode": depth_mode, "depth_value": repr(depth_value),
                  "max_depth": repr(max_depth)}

    def degrade(item):
        index, (dst, src) = item
        img = imageio.read_ppm(src)
        h, w, _ = img.shape
        img_seed = seed + index
        if kind == "rain":
            mask, overlay = weather.gen_rain(h, w, img_seed, density, angle, streak)
            degraded = weather.apply_rain(img, mask, overlay)
        elif kind == "snow":
            mask, overlay = weather.gen_snow(h, w, img_seed, density, (r_lo, r_hi))
            degraded = weather.apply_snow(img, mask, overlay)
        else:
            depth = weather.gen_depth(depth_mode, h, w, value=depth_value,
                                      max_depth=max_depth)
            degraded = weather.apply_fog(img, depth, beta, l_inf)
        _atomic_file(dst, lambda p: imageio.write_ppm(p, degraded))
        return src, dst, img_seed

    results = _parallel_map(degrade, list(enumerate(targets.items())), threads)
    lines = []
    for src, dst, img_seed in results:
        # degraded paths are manifest-relative so reruns into different
        # directories stay byte-identical
        fields = {"clean": str(src), "degraded": dst.name, "weather": kind,
                  "seed": str(img_seed), **params}
        lines.append(" ".join(f"{k}={v}" for k, v in fields.items()) + "\n")
    _atomic_text(out / "synth_manifest.txt", "".join(lines))
    print(f"degraded {len(results)} image(s) -> {out}")
    return 0


# -------------------------------------------------------------- restore

def cmd_restore(opts: _Options) -> int:
    degraded_path = Path(opts.require("input", str))
    predictor_kind = opts.require("predictor", str)
    seed = opts.get("seed", DEFAULT_SEED, int)
    n_steps = opts.get("steps", 50, int)
    t_count = opts.get("t-count", 1000, int)
    kind = opts.get("schedule", "linear", str)
    beta_start = opts.get("beta-start", diffusion.DEFAULT_BETA_START, float)
    beta_end = opts.get("beta-end", diffusion.DEFAULT_BETA_END, float)
    out = _out_dir(opts)

    degraded = imageio.read_ppm(degraded_path)
    sched = diffusion.make_schedule(kind, t_count, beta_start, beta_end)
    cfg = diffusion.DiffusionConfig(schedule=sched, n_sample_steps=n_steps)
    rng = tensor.SeededRng(seed)

    if predictor_kind == "oracle":
        clean_path = opts.get("clean", None, str)
        if clean_path is None:
            raise ValueError("--predictor oracle needs --clean (the inversion target)")
        clean = imageio.read_ppm(clean_path)
        if clean.shape != degraded.shape:
            raise ValueError("clean and degraded image sizes differ")
        eps_file = opts.get("eps-file", None, str)
        if eps_file is not None:
            eps = tensor_io.read_tensor(eps_file)
            if eps.shape != clean.shape:
                raise ValueError("stored noise shape does not match the images")
        else:
            eps = tensor.randn(clean.shape, rng)
        x_noise = diffusion.q_sample(clean, t_count, eps, sched)
        pred = diffusion.OraclePredictor(eps)
    elif predictor_kind == "tinymlp":
        x_noise = tensor.randn(degraded.shape, rng) * 127.5 + 127.5
        pred = diffusion.TinyMlpPredictor(seed)
    else:
        raise ValueError(f"unknown predictor {predictor_kind!r}")

    residuals = []
    restored = diffusion.sample(x_noise, degraded, cfg, pred,
                                on_step=lambda *hop: residuals.append(hop))
    dst = out / f"{degraded_path.stem}_restored.ppm"
    _atomic_file(dst, lambda p: imageio.write_ppm(p, restored))
    csv = "t,t_prev,update_l2\n" + "".join(
        f"{t},{tp},{d!r}\n" for t, tp, d in residuals)
    _atomic_text(out / f"{degraded_path.stem}_residuals.csv", csv)
    print(f"restored -> {dst} ({len(residuals)} steps)")
    return 0


# ----------------------------------------------------------------- fuse

def _embed_pair(rgb_path: Path, thermal_path: Path, patch: int, dim: int,
                rng: tensor.SeededRng) -> tuple[fusion.ModalityFeatures, int, int]:
    """Patch-embed the two images, each as soon as it is read, so at most one
    image's float64 pixels are alive at a time.

    Draws the embedding weights from ``rng``. Returns the features and the
    token grid's height and width.
    """
    rgb = imageio.read_ppm(rgb_path)
    h, w, _ = shape = rgb.shape
    if h % patch != 0 or w % patch != 0:
        raise ValueError(f"image size {h}x{w} not divisible by patch {patch}")
    grid_h, grid_w = h // patch, w // patch
    # Zero positional table and zero offsets keep the pipeline zero-preserving:
    # all-zero input images produce all-zero fused features and stats.
    k = patch * patch * 3
    pe = fusion.PatchEmbedding(
        patch=patch,
        w=rng.normal(k * dim).reshape(k, dim) / math.sqrt(k),
        e_pos=np.zeros((grid_h * grid_w + 1, dim)),
        cls_token=np.zeros(dim),
        use_cls=False,
    )
    f_r = fusion.patch_embed(rgb, pe)[None, :, :]
    del rgb
    thermal = imageio.read_ppm(thermal_path)
    if thermal.shape != shape:
        raise ValueError("input images must have identical sizes")
    feats = fusion.ModalityFeatures(f_r=f_r, f_t=fusion.patch_embed(thermal, pe)[None, :, :])
    return feats, grid_h, grid_w


def _pure_swap_value(value: str) -> bool:
    """``pure-swap`` from a config file: ``1``/``true`` is on, ``0``/``false`` off."""
    if value not in ("0", "1", "true", "false"):
        raise ValueError(f"pure-swap must be 0, 1, true or false, got {value!r}")
    return value in ("1", "true")


def cmd_fuse(opts: _Options) -> int:
    rgb_path = Path(opts.require("rgb", str))
    thermal_path = Path(opts.require("thermal", str))
    seed = opts.get("seed", DEFAULT_SEED, int)
    patch = _at_least("patch", opts.get("patch", 8, int), 1)
    dim = _at_least("dim", opts.get("dim", 16, int), 2)
    d_state = _at_least("d-state", opts.get("d-state", 8, int), 1)
    residual_mode = opts.get("residual-mode", "crossed", str)
    pure_swap = opts.get("pure-swap", False, _pure_swap_value)
    params_dir = opts.get("params", None, str)
    out = _out_dir(opts)

    if dim % 2 != 0:
        raise ValueError("--dim must be even (half-channel swap)")
    rng = tensor.SeededRng(seed)
    feats, grid_h, grid_w = _embed_pair(rgb_path, thermal_path, patch, dim, rng)
    n_tokens = grid_h * grid_w
    if params_dir is not None:
        block = fusion.load_fusion_params(params_dir)
        if block.c != dim or block.n_tokens != n_tokens:
            raise ValueError("loaded fusion params do not match the image geometry")
    else:
        block = fusion.FusionBlockParams.random(dim, d_state, grid_h, grid_w, rng,
                                                residual_mode=residual_mode,
                                                zero_offsets=True)

    swapped = fusion.shallow_swap(feats, residual=not pure_swap)
    fused = fusion.fuse(swapped, block)
    for name, arr in (("rgb", fused.f_r), ("thermal", fused.f_t)):
        tensor.check_finite(arr, f"fused {name} tensor")

    _atomic_file(out / "fused_rgb.tsr",
                 lambda p: tensor_io.write_tensor(p, fused.f_r))
    _atomic_file(out / "fused_thermal.tsr",
                 lambda p: tensor_io.write_tensor(p, fused.f_t))
    rows = ["modality,channel,mean,variance\n"]
    for name, arr in (("rgb", fused.f_r), ("thermal", fused.f_t)):
        for c in range(arr.shape[2]):
            vals = arr[:, :, c]
            rows.append(f"{name},{c},{float(vals.mean())!r},{float(vals.var())!r}\n")
    _atomic_text(out / "fuse_stats.csv", "".join(rows))
    print(f"fused {n_tokens} tokens x {dim} channels -> {out}")
    return 0


# ---------------------------------------------------------------- bench

def cmd_bench(opts: _Options) -> int:
    n_min = _at_least("n-min", opts.get("n-min", 64, int), 1)
    n_max = opts.get("n-max", 8192, int)
    c = _at_least("c", opts.get("c", 32, int), 2)
    d_state = _at_least("d-state", opts.get("d-state", 16, int), 1)
    repeats = opts.get("repeats", 5, int)
    seed = opts.get("seed", DEFAULT_SEED, int)
    out = _out_dir(opts)

    sizes = []
    n = n_min
    while n <= n_max:
        sizes.append(n)
        n *= 2
    if len(sizes) < 4:
        raise ValueError("benchmark grid needs at least 4 doubling sizes")

    # Timing is defined single-threaded.
    rows, slopes = fusion.scaling_benchmark(sizes, c, d_state, repeats, seed)
    csv = "path,N,C,ops,wall_ns\n" + "".join(
        f"{r.path},{r.n_tokens},{r.c},{r.ops},{r.wall_ns}\n" for r in rows)
    _atomic_text(out / "bench.csv", csv)
    slope_csv = "path,ops_slope,wall_slope\n" + "".join(
        f"{p},{slopes[f'{p}_ops_slope']!r},{slopes[f'{p}_wall_slope']!r}\n"
        for p in ("ss2d_fusion", "attention_fusion"))
    _atomic_text(out / "bench_slopes.csv", slope_csv)
    for p in ("ss2d_fusion", "attention_fusion"):
        print(f"{p}: ops_slope={slopes[f'{p}_ops_slope']:.4f} "
              f"wall_slope={slopes[f'{p}_wall_slope']:.4f}")
    return 0


# ----------------------------------------------------------------- eval

def _load_box_files(path: Path, parse) -> dict[str, list]:
    if path.is_dir():
        return {f.name: parse(f.read_text(encoding="ascii"))
                for f in sorted(path.iterdir()) if f.is_file()}
    return {path.name: parse(path.read_text(encoding="ascii"))}


def cmd_eval(opts: _Options) -> int:
    out = _out_dir(opts)
    rows = ["metric,value\n"]
    did_anything = False

    clean = opts.get("clean", None, str)
    image = opts.get("image", None, str)
    if (clean is None) != (image is None):
        raise ValueError("image metrics need both --clean and --image")
    if clean is not None:
        a = imageio.read_ppm(clean)
        b = imageio.read_ppm(image)
        rows.append(f"psnr,{metrics.psnr(a, b)!r}\n")
        rows.append(f"ssim,{metrics.ssim(a, b)!r}\n")
        did_anything = True

    dets_path = opts.get("dets", None, str)
    gts_path = opts.get("gts", None, str)
    if (dets_path is None) != (gts_path is None):
        raise ValueError("detection metrics need both --dets and --gts")
    if dets_path is not None:
        max_area = opts.get("max-area", None, float)
        if max_area is not None and not 0.0 < max_area < math.inf:
            raise ValueError(f"--max-area must be finite and > 0, got {max_area!r}")
        det_files = _load_box_files(Path(dets_path), metrics.parse_detections)
        gt_files = _load_box_files(Path(gts_path), metrics.parse_ground_truth)
        if set(det_files) != set(gt_files):
            missing = set(det_files) ^ set(gt_files)
            raise ValueError(f"unpaired detection/ground-truth files: {sorted(missing)}")

        def kept(boxes):
            return [b for b in boxes if max_area is None or _box_area(b.box) < max_area]

        images = [(kept(det_files[name]), kept(gt_files[name])) for name in sorted(gt_files)]
        result = metrics.mean_ap(images)
        rows.append(f"map50,{result.map50!r}\n")
        rows.append(f"map75,{result.map75!r}\n")
        rows.append(f"map,{result.map_mean!r}\n")
        did_anything = True

    if not did_anything:
        raise ValueError("nothing to evaluate: give --clean/--image and/or --dets/--gts")
    _atomic_text(out / "metrics.csv", "".join(rows))
    sys.stdout.write("".join(rows))
    return 0


def _box_area(box) -> float:
    return (box[2] - box[0]) * (box[3] - box[1])


# ------------------------------------------------------------- schedule

def cmd_schedule(opts: _Options) -> int:
    kind = opts.get("kind", "linear", str)
    t_count = opts.get("t-count", 1000, int)
    beta_start = opts.get("beta-start", diffusion.DEFAULT_BETA_START, float)
    beta_end = opts.get("beta-end", diffusion.DEFAULT_BETA_END, float)
    out = _out_dir(opts)
    sched = diffusion.make_schedule(kind, t_count, beta_start, beta_end)
    rows = ["t,beta,alpha,alpha_bar\n"]
    for t in range(1, sched.t_count + 1):
        rows.append(f"{t},{float(sched.beta[t - 1])!r},{float(sched.alpha[t - 1])!r},"
                    f"{float(sched.alpha_bar[t - 1])!r}\n")
    _atomic_text(out / "schedule.csv", "".join(rows))
    print(f"wrote {t_count}-step {kind} schedule -> {out / 'schedule.csv'}")
    return 0


# ----------------------------------------------------------------- main

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfmw-kit",
        description="Deterministic pipelines: weather synthesis, implicit-"
                    "diffusion restoration, two-stream fusion, scaling "
                    "benchmark, metric evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", type=str, default=None,
                       help="key=value option file (flags win)")
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("synth", help="degrade clean images with weather")
    common(p)
    p.add_argument("--input", nargs="+", default=None, help="clean PPM image(s)")
    p.add_argument("--threads", type=int, default=None,
                   help=f"worker threads (falls back to ${ENV_THREADS})")
    p.add_argument("--weather", choices=("rain", "snow", "fog"), default=None)
    p.add_argument("--density", type=float, default=None)
    p.add_argument("--angle", type=float, default=None)
    p.add_argument("--streak-len", type=int, default=None)
    p.add_argument("--radius-min", type=float, default=None)
    p.add_argument("--radius-max", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--linf", type=float, default=None)
    p.add_argument("--depth-mode", choices=weather.DEPTH_MODES, default=None)
    p.add_argument("--depth-value", type=float, default=None)
    p.add_argument("--max-depth", type=float, default=None)

    p = sub.add_parser("restore", help="deterministic implicit-sampler restoration")
    common(p)
    p.add_argument("--input", type=str, default=None, help="degraded PPM image")
    p.add_argument("--predictor", choices=("oracle", "tinymlp"), default=None)
    p.add_argument("--clean", type=str, default=None,
                   help="oracle inversion target (oracle predictor only)")
    p.add_argument("--eps-file", type=str, default=None,
                   help="stored TSR1 noise for the oracle (default: seeded draw)")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--t-count", type=int, default=None)
    p.add_argument("--schedule", choices=diffusion.SCHEDULE_KINDS, default=None)
    p.add_argument("--beta-start", type=float, default=None)
    p.add_argument("--beta-end", type=float, default=None)

    p = sub.add_parser("fuse", help="patch-embed two images and fuse features")
    common(p)
    p.add_argument("--rgb", type=str, default=None)
    p.add_argument("--thermal", type=str, default=None)
    p.add_argument("--patch", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--d-state", type=int, default=None)
    p.add_argument("--residual-mode", choices=("crossed", "straight"), default=None)
    p.add_argument("--pure-swap", action="store_const", const=True, default=None,
                   help="disable the residual add in the shallow swap")
    p.add_argument("--params", type=str, default=None,
                   help="fusion parameter directory (default: seeded random)")

    p = sub.add_parser("bench", help="linear-vs-quadratic fusion scaling benchmark")
    common(p)
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--d-state", type=int, default=None)
    p.add_argument("--repeats", type=int, default=None)

    p = sub.add_parser("eval", help="image and/or detection metrics")
    common(p)
    p.add_argument("--clean", type=str, default=None)
    p.add_argument("--image", type=str, default=None)
    p.add_argument("--dets", type=str, default=None)
    p.add_argument("--gts", type=str, default=None)
    p.add_argument("--max-area", type=float, default=None,
                   help="keep only boxes with area strictly below this")

    p = sub.add_parser("schedule", help="dump a noise schedule as CSV")
    common(p)
    p.add_argument("--kind", choices=diffusion.SCHEDULE_KINDS, default=None)
    p.add_argument("--t-count", type=int, default=None)
    p.add_argument("--beta-start", type=float, default=None)
    p.add_argument("--beta-end", type=float, default=None)

    return parser


# Build the one parser at import, among the other long-lived objects. Built
# inside the first command, it shares small-object pages with that command's
# temporaries and keeps them from being freed (fuse_long peak RSS +1.6 MB).
_build_parser()

_COMMANDS = {
    "synth": cmd_synth,
    "restore": cmd_restore,
    "fuse": cmd_fuse,
    "bench": cmd_bench,
    "eval": cmd_eval,
    "schedule": cmd_schedule,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        opts = _Options(args)
        return _COMMANDS[args.command](opts)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
