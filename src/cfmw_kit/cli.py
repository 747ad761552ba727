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
runs leave nothing partial behind. Each ``key=value`` line of ``--config``
is parsed as the flag ``--key=value``, placed before the command-line flags:
it gets the flag's type, choices and error message, and a flag given on the
command line wins over it. Options given neither way take their defaults.
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


def _require(args: argparse.Namespace, name: str):
    """``args.<name>``, refused when neither a flag nor the config file gave it."""
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"missing required option --{name}")
    return value


# ---------------------------------------------------------------- synth

def cmd_synth(args: argparse.Namespace) -> int:
    paths = _require(args, "input")
    kind = _require(args, "weather")
    out = args.out
    threads = tensor.count("--threads", args.threads, 1)
    targets: dict[Path, Path] = {}
    for src in paths:
        dst = out / f"{src.stem}_{kind}.ppm"
        if dst in targets:
            raise ValueError(f"inputs {targets[dst]} and {src} would both be "
                             f"written as {dst.name}")
        targets[dst] = src

    if kind == "rain":
        density = 0.002 if args.density is None else args.density
        params = {"density": repr(density), "angle": repr(args.angle),
                  "streak_len": str(args.streak_len)}
    elif kind == "snow":
        density = 0.004 if args.density is None else args.density
        params = {"density": repr(density), "radius_min": repr(args.radius_min),
                  "radius_max": repr(args.radius_max)}
    else:
        params = {"beta": repr(args.beta), "linf": repr(args.linf),
                  "depth_mode": args.depth_mode, "depth_value": repr(args.depth_value),
                  "max_depth": repr(args.max_depth)}

    def degrade(item):
        index, (dst, src) = item
        img = imageio.read_ppm(src)
        h, w, _ = img.shape
        img_seed = args.seed + index
        if kind == "rain":
            mask, overlay = weather.gen_rain(h, w, img_seed, density, args.angle,
                                             args.streak_len)
            degraded = weather.apply_rain(img, mask, overlay)
        elif kind == "snow":
            mask, overlay = weather.gen_snow(h, w, img_seed, density,
                                             (args.radius_min, args.radius_max))
            degraded = weather.apply_snow(img, mask, overlay)
        else:
            depth = weather.gen_depth(args.depth_mode, h, w, value=args.depth_value,
                                      max_depth=args.max_depth)
            degraded = weather.apply_fog(img, depth, args.beta, args.linf)
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

def cmd_restore(args: argparse.Namespace) -> int:
    degraded_path = _require(args, "input")
    predictor_kind = _require(args, "predictor")
    out = args.out

    degraded = imageio.read_ppm(degraded_path)
    sched = diffusion.make_schedule(args.schedule, args.t_count, args.beta_start,
                                    args.beta_end)
    cfg = diffusion.DiffusionConfig(schedule=sched, n_sample_steps=args.steps)
    rng = tensor.SeededRng(args.seed)

    if predictor_kind == "oracle":
        if args.clean is None:
            raise ValueError("--predictor oracle needs --clean (the inversion target)")
        clean = imageio.read_ppm(args.clean)
        if clean.shape != degraded.shape:
            raise ValueError("clean and degraded image sizes differ")
        if args.eps_file is not None:
            eps = tensor_io.read_tensor(args.eps_file)
            if eps.shape != clean.shape:
                raise ValueError("stored noise shape does not match the images")
        else:
            eps = tensor.randn(clean.shape, rng)
        x_noise = diffusion.q_sample(clean, args.t_count, eps, sched)
        pred = diffusion.OraclePredictor(eps)
    else:
        x_noise = tensor.randn(degraded.shape, rng) * 127.5 + 127.5
        pred = diffusion.TinyMlpPredictor(args.seed)

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
    grid_h, grid_w = h // patch, w // patch  # patch_embed refuses a remainder
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


def cmd_fuse(args: argparse.Namespace) -> int:
    rgb_path = _require(args, "rgb")
    thermal_path = _require(args, "thermal")
    patch = tensor.count("--patch", args.patch, 1)
    dim = tensor.count("--dim", args.dim, 2)
    d_state = tensor.count("--d-state", args.d_state, 1)
    out = args.out

    if dim % 2 != 0:
        raise ValueError("--dim must be even (half-channel swap)")
    rng = tensor.SeededRng(args.seed)
    feats, grid_h, grid_w = _embed_pair(rgb_path, thermal_path, patch, dim, rng)
    n_tokens = grid_h * grid_w
    if args.params is not None:
        block = tensor_io.load_params(fusion.FusionBlockParams, args.params)
        if (block.grid_h, block.grid_w) != (grid_h, grid_w):
            raise ValueError(f"the image's {grid_h}x{grid_w} patch grid differs from the "
                             f"bundle's {block.grid_h}x{block.grid_w}")
        for flag, given, stored in (("--dim", dim, block.c),
                                    ("--d-state", d_state, block.ss2d_r.n_state),
                                    ("--residual-mode", args.residual_mode, block.residual_mode)):
            if given != stored:
                raise ValueError(f"{flag} {given} differs from the bundle's {stored}")
    else:
        block = fusion.FusionBlockParams.random(dim, d_state, grid_h, grid_w, rng,
                                                residual_mode=args.residual_mode,
                                                zero_offsets=True)

    swapped = fusion.shallow_swap(feats, residual=not args.pure_swap)
    fused = fusion.fuse(swapped, block)
    rows = ["modality,channel,mean,variance\n"]
    for name, arr in (("rgb", fused.f_r), ("thermal", fused.f_t)):
        cols = np.ascontiguousarray(arr.reshape(-1, arr.shape[2]).T)  # (C, N): a row per channel
        mean, var = tensor.finite_step(
            "fused features are too large: their variance overflows float64",
            lambda: (cols.mean(axis=1), cols.var(axis=1)))
        rows += [f"{name},{c},{m!r},{v!r}\n"
                 for c, (m, v) in enumerate(zip(mean.tolist(), var.tolist()))]

    _atomic_file(out / "fused_rgb.tsr",
                 lambda p: tensor_io.write_tensor(p, fused.f_r))
    _atomic_file(out / "fused_thermal.tsr",
                 lambda p: tensor_io.write_tensor(p, fused.f_t))
    _atomic_text(out / "fuse_stats.csv", "".join(rows))
    print(f"fused {n_tokens} tokens x {dim} channels -> {out}")
    return 0


# ---------------------------------------------------------------- bench

def cmd_bench(args: argparse.Namespace) -> int:
    n_min = tensor.count("--n-min", args.n_min, 1)
    c = tensor.count("--c", args.c, 2)
    d_state = tensor.count("--d-state", args.d_state, 1)

    sizes = []
    n = n_min
    while n <= args.n_max:
        sizes.append(n)
        n *= 2

    # Timing is defined single-threaded.
    rows, slopes = fusion.scaling_benchmark(sizes, c, d_state, args.repeats, args.seed)
    csv = "path,N,C,ops,wall_ns\n" + "".join(
        f"{r.path},{r.n_tokens},{r.c},{r.ops},{r.wall_ns}\n" for r in rows)
    _atomic_text(args.out / "bench.csv", csv)
    slope_csv = "path,ops_slope,wall_slope\n" + "".join(
        f"{p},{slopes[f'{p}_ops_slope']!r},{slopes[f'{p}_wall_slope']!r}\n"
        for p in ("ss2d_fusion", "attention_fusion"))
    _atomic_text(args.out / "bench_slopes.csv", slope_csv)
    for p in ("ss2d_fusion", "attention_fusion"):
        print(f"{p}: ops_slope={slopes[f'{p}_ops_slope']:.4f} "
              f"wall_slope={slopes[f'{p}_wall_slope']:.4f}")
    return 0


# ----------------------------------------------------------------- eval

def _load_box_files(path: Path, container, max_area) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The file ``path``, or each file in it in name order: the names, all rows
    of area below ``max_area`` (if not None) as one ``container`` table checked
    by one :func:`metrics._parse` call, and each file's count of them. Each
    file is read once; a non-ASCII one is named unless an earlier one is bad."""
    listed = path.is_dir()  # names stay strings: a Path per file costs more than the listing
    files = (sorted((e.name, e.path) for e in os.scandir(path) if e.is_file()) if listed
             else [(path.name, path)])
    if not files:
        raise ValueError(f"{path}: directory holds no files")
    head = str(path / "_")[:-1]  # path / name is head + name
    labels = [head + name for name, _ in files] if listed else [str(path)]
    texts = []
    for label, (_, f) in zip(labels, files):
        with open(f, "rb", buffering=0) as fh:
            try:
                texts.append(fh.read().decode("ascii"))
            except UnicodeDecodeError as exc:
                metrics._parse(texts, labels, container)  # names a bad line before this file
                raise ValueError(f"{label}: {exc}") from exc
    parsed, counts = metrics._parse(texts, labels, container)
    keep = slice(None) if max_area is None else metrics._area(parsed.boxes.T) < max_area
    image = np.repeat(np.arange(len(files)), counts)[keep]  # each kept row's file
    return [name for name, _ in files], parsed.table[keep], np.bincount(image, minlength=len(files))


def cmd_eval(args: argparse.Namespace) -> int:
    rows = ["metric,value\n"]
    if (args.clean is None) != (args.image is None):
        raise ValueError("image metrics need both --clean and --image")
    if args.clean is not None:
        a, b = imageio.read_ppm(args.clean), imageio.read_ppm(args.image)
        rows += [f"psnr,{metrics.psnr(a, b)!r}\n", f"ssim,{metrics.ssim(a, b)!r}\n"]

    if (args.dets is None) != (args.gts is None):
        raise ValueError("detection metrics need both --dets and --gts")
    if args.dets is not None:
        if args.max_area is not None and not 0.0 < args.max_area < math.inf:
            raise ValueError(f"--max-area must be finite and > 0, got {args.max_area!r}")
        det_names, dets, n_det = _load_box_files(args.dets, metrics.Detections, args.max_area)
        gt_names, gts, n_gt = _load_box_files(args.gts, metrics.GroundTruth, args.max_area)
        if det_names != gt_names:
            missing = set(det_names) ^ set(gt_names)
            raise ValueError(f"unpaired detection/ground-truth files: {sorted(missing)}")
        result = metrics._mean_ap(dets, n_det, gts, n_gt)
        rows += [f"map50,{result.map50!r}\n", f"map75,{result.map75!r}\n",
                 f"map,{result.map_mean!r}\n"]

    if len(rows) == 1:  # the header alone
        raise ValueError("nothing to evaluate: give --clean/--image and/or --dets/--gts")
    _atomic_text(args.out / "metrics.csv", "".join(rows))
    sys.stdout.write("".join(rows))
    return 0


# ------------------------------------------------------------- schedule

def cmd_schedule(args: argparse.Namespace) -> int:
    sched = diffusion.make_schedule(args.kind, args.t_count, args.beta_start, args.beta_end)
    rows = ["t,beta,alpha,alpha_bar\n"]
    for t in range(1, sched.t_count + 1):
        rows.append(f"{t},{float(sched.beta[t - 1])!r},{float(sched.alpha[t - 1])!r},"
                    f"{float(sched.alpha_bar[t - 1])!r}\n")
    _atomic_text(args.out / "schedule.csv", "".join(rows))
    print(f"wrote {args.t_count}-step {args.kind} schedule -> {args.out / 'schedule.csv'}")
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

    def command(name, run, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--config", type=str, default=None,
                       help="key=value lines, each parsed as --key=value (flags win)")
        p.add_argument("--out", type=Path, default=".")
        return p

    p = command("synth", cmd_synth, "degrade clean images with weather")
    p.add_argument("--input", type=Path, nargs="+", default=None, help="clean PPM image(s)")
    p.add_argument("--threads", type=int, default=1, help="worker threads")
    p.add_argument("--weather", choices=("rain", "snow", "fog"), default=None)
    p.add_argument("--density", type=float, default=None,
                   help="default 0.002 for rain, 0.004 for snow")
    p.add_argument("--angle", type=float, default=75.0)
    p.add_argument("--streak-len", type=int, default=12)
    p.add_argument("--radius-min", type=float, default=1.0)
    p.add_argument("--radius-max", type=float, default=3.0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--linf", type=float, default=235.0)
    p.add_argument("--depth-mode", choices=weather.DEPTH_MODES, default="vertical_gradient")
    p.add_argument("--depth-value", type=float, default=1.0)
    p.add_argument("--max-depth", type=float, default=1.0)

    p = command("restore", cmd_restore, "deterministic implicit-sampler restoration")
    p.add_argument("--input", type=Path, default=None, help="degraded PPM image")
    p.add_argument("--predictor", choices=("oracle", "tinymlp"), default=None)
    p.add_argument("--clean", type=Path, default=None,
                   help="oracle inversion target (oracle predictor only)")
    p.add_argument("--eps-file", type=Path, default=None,
                   help="stored TSR1 noise for the oracle (default: seeded draw)")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--t-count", type=int, default=1000)
    p.add_argument("--schedule", choices=diffusion.SCHEDULE_KINDS, default="linear")
    p.add_argument("--beta-start", type=float, default=diffusion.DEFAULT_BETA_START)
    p.add_argument("--beta-end", type=float, default=diffusion.DEFAULT_BETA_END)

    p = command("fuse", cmd_fuse, "patch-embed two images and fuse features")
    p.add_argument("--rgb", type=Path, default=None)
    p.add_argument("--thermal", type=Path, default=None)
    p.add_argument("--patch", type=int, default=8)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--d-state", type=int, default=8)
    p.add_argument("--residual-mode", choices=("crossed", "straight"), default="crossed")
    p.add_argument("--pure-swap", action="store_true",
                   help="disable the residual add in the shallow swap")
    p.add_argument("--params", type=Path, default=None,
                   help="fusion parameter directory (default: seeded random)")

    p = command("bench", cmd_bench, "linear-vs-quadratic fusion scaling benchmark")
    p.add_argument("--n-min", type=int, default=64)
    p.add_argument("--n-max", type=int, default=8192)
    p.add_argument("--c", type=int, default=32)
    p.add_argument("--d-state", type=int, default=16)
    p.add_argument("--repeats", type=int, default=5)

    p = command("eval", cmd_eval, "image and/or detection metrics")
    p.add_argument("--clean", type=Path, default=None)
    p.add_argument("--image", type=Path, default=None)
    p.add_argument("--dets", type=Path, default=None)
    p.add_argument("--gts", type=Path, default=None)
    p.add_argument("--max-area", type=float, default=None,
                   help="keep only boxes with area strictly below this")

    p = command("schedule", cmd_schedule, "dump a noise schedule as CSV")
    p.add_argument("--kind", choices=diffusion.SCHEDULE_KINDS, default="linear")
    p.add_argument("--t-count", type=int, default=1000)
    p.add_argument("--beta-start", type=float, default=diffusion.DEFAULT_BETA_START)
    p.add_argument("--beta-end", type=float, default=diffusion.DEFAULT_BETA_END)

    return parser


# Build the one parser at import, among the other long-lived objects. Built
# inside the first command, it shares small-object pages with that command's
# temporaries and keeps them from being freed (fuse_long peak RSS +1.6 MB).
_build_parser()


def _config_flags(parser: argparse.ArgumentParser, args: argparse.Namespace) -> list[str]:
    """The ``key=value`` lines of ``args.config`` as flags of ``args.command``.

    A key must name an option exactly (no prefixes; not ``config`` or
    ``help``). A value becomes ``--key=value``, so one that starts with ``-``
    stays a value. A switch takes ``1``/``true`` (on) or ``0``/``false`` (off).
    """
    command = next(a for a in parser._actions if a.dest == "command").choices[args.command]
    options = {s[2:]: a for a in command._actions for s in a.option_strings
               if s.startswith("--") and s not in ("--config", "--help")}
    flags = []
    for key, value in tensor_io.read_manifest(args.config).items():
        if key not in options:
            raise ValueError(f"unknown option {key!r} in config file {args.config}")
        if options[key].nargs != 0:
            flags.append(f"--{key}={value}")
        elif value not in ("0", "1", "true", "false"):
            raise ValueError(f"{key} must be 0, 1, true or false, got {value!r}")
        elif value in ("1", "true"):
            flags.append(f"--{key}")
    return flags


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # Right after the command: argparse keeps the last value it sees,
            # so a command-line flag wins over a config entry.
            at = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:at], *_config_flags(parser, args), *argv[at:]])
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
