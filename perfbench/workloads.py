"""The four benchmark workloads: seeded inputs, CLI argv, references, checks.

Every workload is a closed loop with one client. An op is one CLI call (or,
for ``restore_chain``, one synth -> restore -> eval chain) issued in-process
through ``cfmw_kit.cli.main(argv)``. Inputs are generated here from the
workload seed with NumPy's PCG64 stream and written as files; the program
only ever sees those files.

A workload cycles over ``cycle`` distinct ops (op ``i`` uses variant
``i % cycle``). References are computed once per run in the parent process
and handed to the worker processes as an ``.npz`` file.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import reference
import spans

FUSE_TOL = 1e-10    # golden tolerance of the fusion tests
METRIC_TOL = 1e-10  # image metrics, reference computed by another algorithm
ROUND_TOL = 1e-6    # slack on the 8-bit rounding of the weather reference


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, tag])


def _scene(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Synthetic RGB scene: tinted gradient, flat rectangles, sensor noise."""
    yy, xx = np.mgrid[0:h, 0:w]
    img = np.empty((h, w, 3))
    for c in range(3):
        a, b = rng.uniform(-1.0, 1.0, 2)
        img[..., c] = 110.0 + 70.0 * (a * xx / w + b * yy / h)
    for _ in range(12):
        y0, x0 = rng.integers(0, h), rng.integers(0, w)
        y1 = min(h, y0 + int(rng.integers(h // 16, h // 3)))
        x1 = min(w, x0 + int(rng.integers(w // 16, w // 3)))
        img[y0:y1, x0:x1] = rng.uniform(0.0, 255.0, 3)
    img += rng.normal(0.0, 6.0, img.shape)
    return np.rint(np.clip(img, 0.0, 255.0)).astype(np.uint8)


def _thermal(rng: np.random.Generator, rgb: np.ndarray) -> np.ndarray:
    """Thermal view of a scene: dimmed luminance plus warm blobs, gray PPM."""
    h, w, _ = rgb.shape
    lum = rgb @ np.array([0.299, 0.587, 0.114])
    yy, xx = np.mgrid[0:h, 0:w]
    heat = 0.4 * lum
    for _ in range(6):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        r = rng.uniform(min(h, w) / 20, min(h, w) / 6)
        heat += 150.0 * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * r * r))
    heat += rng.normal(0.0, 3.0, heat.shape)
    gray = np.rint(np.clip(heat, 0.0, 255.0)).astype(np.uint8)
    return np.repeat(gray[..., None], 3, axis=2)


def ppm_bytes(pixels: np.ndarray) -> bytes:
    h, w, _ = pixels.shape
    return f"P6\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes()


def write_ppm(path: Path, pixels: np.ndarray) -> None:
    path.write_bytes(ppm_bytes(pixels))


def read_tsr(path: Path) -> np.ndarray:
    """TSR1 reader of the benchmark's own (magic, u32 rank, u32 extents, f8)."""
    blob = path.read_bytes()
    if blob[:4] != b"TSR1":
        raise ValueError(f"{path.name}: not a TSR1 file")
    rank = int.from_bytes(blob[4:8], "little")
    shape = tuple(int.from_bytes(blob[8 + 4 * k:12 + 4 * k], "little")
                  for k in range(rank))
    return np.frombuffer(blob, dtype="<f8", offset=8 + 4 * rank).reshape(shape)


def read_metrics_csv(path: Path) -> dict[str, float]:
    rows = path.read_text(encoding="ascii").splitlines()
    if rows[0] != "metric,value":
        raise ValueError("metrics.csv has no metric,value header")
    return {k: float(v) for k, v in (r.split(",") for r in rows[1:])}


class Workload:
    name = ""
    cycle = 1          # distinct op variants, used round-robin
    items_per_op = 1.0  # work units completed by one op
    item_unit = ""

    def __init__(self, seed: int):
        self.seed = seed

    def generate(self, directory: Path) -> dict:
        """Write the inputs under ``directory``; return what references need."""
        raise NotImplementedError

    def argvs(self, i: int, inputs: Path, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self, i: int, out: Path) -> list[Path]:
        """Primary output files of op ``i``."""
        raise NotImplementedError

    def references(self, data: dict, kit) -> dict[str, np.ndarray]:
        """Reference outputs for the generated data, from ``reference``."""
        raise NotImplementedError

    def check(self, i: int, out: Path, refs) -> str | None:
        """None when op ``i``'s outputs are correct, else the reason."""
        raise NotImplementedError


class _Fuse(Workload):
    item_unit = "tokens"
    h = w = patch = dim = d_state = 0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.grid = (self.h // self.patch, self.w // self.patch)
        self.items_per_op = float(self.grid[0] * self.grid[1])

    def generate(self, directory: Path) -> dict:
        rng = _rng(self.seed, 1)
        data = {}
        for k in range(self.cycle):
            rgb = _scene(rng, self.h, self.w)
            thermal = _thermal(rng, rgb)
            write_ppm(directory / f"rgb{k}.ppm", rgb)
            write_ppm(directory / f"thermal{k}.ppm", thermal)
            data[k] = (rgb, thermal)
        return data

    def _fuse_seed(self, k: int) -> int:
        return self.seed + k

    def argvs(self, i, inputs, out):
        k = i % self.cycle
        return [["fuse", "--rgb", str(inputs / f"rgb{k}.ppm"),
                 "--thermal", str(inputs / f"thermal{k}.ppm"),
                 "--patch", str(self.patch), "--dim", str(self.dim),
                 "--d-state", str(self.d_state), "--seed", str(self._fuse_seed(k)),
                 "--out", str(out)]]

    def outputs(self, i, out):
        return [out / "fused_rgb.tsr", out / "fused_thermal.tsr", out / "fuse_stats.csv"]

    def references(self, data, kit):
        """Fused features from ``reference.fuse``, and the scan's op count.

        The count comes from one direct ``fusion.fuse`` call that replays the
        ``fuse`` command on the first pair, with an ``OpCounter``. Its total
        must equal the closed-form ``count_ops``, and its scan share (counted
        through the ``ss2d`` counter parameter) must equal
        ``2 * ss2d_mac_count``. Traced ops must then count exactly that share.
        """
        refs = {}
        for k, (rgb, thermal) in data.items():
            refs[f"f_r{k}"], refs[f"f_t{k}"] = reference.fuse(
                rgb, thermal, self._fuse_seed(k), self.patch, self.dim, self.d_state)
        refs["ssm_macs"] = np.array(self._scan_macs(*data[0], kit))
        return refs

    def _scan_macs(self, rgb, thermal, kit) -> int:
        fusion, ssm, tensor = kit.fusion, kit.ssm, kit.tensor
        gh, gw = self.grid
        n, c, ds, p = gh * gw, self.dim, self.d_state, self.patch
        rng = tensor.SeededRng(self._fuse_seed(0))
        kk = p * p * 3
        pe = fusion.PatchEmbedding(
            patch=p, w=rng.normal(kk * c).reshape(kk, c) / math.sqrt(kk),
            e_pos=np.zeros((n + 1, c)), cls_token=np.zeros(c), use_cls=False)
        block = fusion.FusionBlockParams.random(c, ds, gh, gw, rng,
                                                residual_mode="crossed", zero_offsets=True)
        feats = fusion.ModalityFeatures(
            f_r=fusion.patch_embed(rgb.astype(np.float64), pe)[None],
            f_t=fusion.patch_embed(thermal.astype(np.float64), pe)[None])
        counter = ssm.OpCounter()
        with spans.Tracer(kit) as tracer:
            fusion.fuse(fusion.shallow_swap(feats, residual=True), block, counter)
        scan_macs = tracer.counters["ssm.macs"]
        if counter.macs != fusion.count_ops("ss2d_fusion", n, c, ds):
            raise RuntimeError(f"OpCounter {counter.macs} != count_ops")
        if scan_macs != 2 * ssm.ss2d_mac_count(gh, gw, c, ds):
            raise RuntimeError(f"ssm.macs {scan_macs} != 2 * ss2d_mac_count")
        return scan_macs

    def check(self, i, out, refs):
        k = i % self.cycle
        shape = (1, self.grid[0] * self.grid[1], self.dim)
        for name, key in (("fused_rgb.tsr", f"f_r{k}"), ("fused_thermal.tsr", f"f_t{k}")):
            got = read_tsr(out / name)
            if got.shape != shape:
                return f"{name}: shape {got.shape} != {shape}"
            if not np.all(np.isfinite(got)):
                return f"{name}: non-finite values"
            err = float(np.max(np.abs(got - refs[key])))
            if not err <= FUSE_TOL:
                return f"{name}: max deviation {err:.3g} > {FUSE_TOL}"
        return None


class FuseLong(_Fuse):
    name = "fuse_long"
    h, w, patch, dim, d_state = 512, 1024, 8, 32, 16


class FuseShort(_Fuse):
    name = "fuse_short"
    h, w, patch, dim, d_state = 128, 128, 8, 16, 8
    cycle = 8


class RestoreChain(Workload):
    """synth (fog, rain, snow in turn) -> restore --predictor oracle -> eval."""

    name = "restore_chain"
    size = 512
    weathers = ("fog", "rain", "snow")
    # synth flags; their values are also the reference's arguments, in order
    flags = {
        "fog": (("--beta", 0.5), ("--linf", 235.0), ("--max-depth", 1.0)),
        "rain": (("--density", 0.002), ("--angle", 75.0), ("--streak-len", 12)),
        "snow": (("--density", 0.004), ("--radius-min", 1.0), ("--radius-max", 3.0)),
    }
    cycle = 3
    items_per_op = size * size / 1e6
    item_unit = "MP"

    def generate(self, directory):
        clean = _scene(_rng(self.seed, 2), self.size, self.size)
        write_ppm(directory / "clean.ppm", clean)
        return {"clean": clean}

    def argvs(self, i, inputs, out):
        kind = self.weathers[i % self.cycle]
        clean = str(inputs / "clean.ppm")
        degraded = str(out / f"clean_{kind}.ppm")
        seed = ["--seed", str(self.seed), "--out", str(out)]
        flags = [v for flag, x in self.flags[kind] for v in (flag, str(x))]
        if kind == "fog":
            flags += ["--depth-mode", "vertical_gradient"]
        return [["synth", "--input", clean, "--weather", kind, *flags, *seed],
                ["restore", "--input", degraded, "--predictor", "oracle",
                 "--clean", clean, "--steps", "50", "--t-count", "1000", *seed],
                ["eval", "--clean", clean, "--image", degraded, *seed]]

    def outputs(self, i, out):
        kind = self.weathers[i % self.cycle]
        return [out / f"clean_{kind}.ppm", out / f"clean_{kind}_restored.ppm",
                out / "metrics.csv"]

    def references(self, data, kit):
        """Unquantized degraded images from ``reference``'s weather models."""
        clean = data["clean"]
        img = clean.astype(np.float64)
        fog, rain, snow = ([x for _, x in self.flags[kind]] for kind in self.weathers)
        return {"clean": clean,
                "degraded_fog": reference.fog(img, *fog),
                "degraded_rain": reference.rain(img, self.seed, *rain),
                "degraded_snow": reference.snow(img, self.seed, *snow)}

    def check(self, i, out, refs):
        """The degraded PPM must be the reference rounded to 8 bits (either
        way at an exact half), the restored PPM the clean one byte for byte,
        and PSNR and SSIM those of ``reference`` on the degraded PPM."""
        kind = self.weathers[i % self.cycle]
        degraded, restored, csv = self.outputs(i, out)
        want = refs[f"degraded_{kind}"]
        blob = degraded.read_bytes()
        header = f"P6\n{self.size} {self.size}\n255\n".encode("ascii")
        if not blob.startswith(header) or len(blob) != len(header) + want.size:
            return f"{degraded.name} is not a {self.size}x{self.size} PPM"
        image = np.frombuffer(blob, dtype=np.uint8, offset=len(header)).reshape(want.shape)
        err = float(np.max(np.abs(image - want)))
        if not err <= 0.5 + ROUND_TOL:
            return f"{degraded.name} is {err:.3g} from the weather reference"
        if restored.read_bytes() != ppm_bytes(refs["clean"]):
            return f"{restored.name} is not byte-identical to the clean image"
        got = read_metrics_csv(csv)
        for key, fn in (("psnr", reference.psnr), ("ssim", reference.ssim)):
            expect = fn(refs["clean"], image)
            if not abs(got[key] - expect) <= METRIC_TOL * max(1.0, abs(expect)):
                return f"{key} {got[key]!r} != reference {expect!r}"
        return None


class DetectEval(Workload):
    """eval --dets DIR --gts DIR: mAP over 50 image files, 500 boxes each side."""

    name = "detect_eval"
    n_images, per_image, n_classes = 50, 10, 5
    frame = (640.0, 512.0)
    items_per_op = float(n_images)
    item_unit = "images"

    def _box(self, rng):
        fw, fh = self.frame
        w, h = rng.uniform(16.0, 96.0, 2)
        x1, y1 = rng.uniform(0.0, fw - w), rng.uniform(0.0, fh - h)
        return [float(v) for v in (x1, y1, x1 + w, y1 + h)]

    def generate(self, directory):
        """Per image: 10 ground-truth boxes; 7 detections jitter a ground-truth
        box (class kept 9 times in 10), 3 are placed at random."""
        rng = _rng(self.seed, 3)
        (directory / "dets").mkdir()
        (directory / "gts").mkdir()
        images = []
        for k in range(self.n_images):
            gts = [[int(rng.integers(self.n_classes)), *self._box(rng)]
                   for _ in range(self.per_image)]
            dets = []
            for j, src in enumerate(rng.permutation(self.per_image)):
                if j < 7:
                    cls, x1, y1, x2, y2 = gts[src]
                    w, h = x2 - x1, y2 - y1
                    cx = (x1 + x2) / 2 + rng.normal(0.0, 0.1 * w)
                    cy = (y1 + y2) / 2 + rng.normal(0.0, 0.1 * h)
                    w *= math.exp(rng.normal(0.0, 0.15))
                    h *= math.exp(rng.normal(0.0, 0.15))
                    if rng.uniform() < 0.1:
                        cls = int(rng.integers(self.n_classes))
                    box = [float(v) for v in (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)]
                else:
                    cls, box = int(rng.integers(self.n_classes)), self._box(rng)
                dets.append([cls, *box, float(rng.uniform(0.01, 0.99))])
            name = f"img{k:03d}.txt"
            (directory / "gts" / name).write_text(
                "".join(f"{c} {a!r} {b!r} {x!r} {y!r}\n" for c, a, b, x, y in gts),
                encoding="ascii")
            (directory / "dets" / name).write_text(
                "".join(f"{c} {a!r} {b!r} {x!r} {y!r} {s!r}\n" for c, a, b, x, y, s in dets),
                encoding="ascii")
            images.append((np.array(dets), np.array(gts)))
        return {"images": images}

    def argvs(self, i, inputs, out):
        return [["eval", "--dets", str(inputs / "dets"), "--gts", str(inputs / "gts"),
                 "--out", str(out)]]

    def outputs(self, i, out):
        return [out / "metrics.csv"]

    def references(self, data, kit):
        map50, map75, map_mean = reference.mean_ap(data["images"])
        return {"map50": np.array(map50), "map75": np.array(map75),
                "map": np.array(map_mean)}

    def check(self, i, out, refs):
        got = read_metrics_csv(out / "metrics.csv")
        for key in ("map50", "map75", "map"):
            if got[key] != float(refs[key]):
                return f"{key} {got[key]!r} != reference {float(refs[key])!r}"
        return None


WORKLOADS = {w.name: w for w in (FuseLong, FuseShort, RestoreChain, DetectEval)}
