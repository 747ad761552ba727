"""cfmw-kit: numerical toolkit for cross-modal sequence fusion pipelines.

Submodules:
    tensor    -- float64 array primitives and counter-based seeded randomness
    tensor_io -- TSR1 tensors, key=value manifests, parameter bundles
    imageio   -- binary PPM (P6) color image files
    ssm       -- state-space discretization, scans, kernels, 2-D selective scan
    fusion    -- patch embedding, channel swap, gated scan fusion, attention
                 baseline, operation counts, scaling benchmark
    diffusion -- noise schedules, forward noising, deterministic implicit
                 sampling, training losses
    weather   -- rain/snow/fog compositing and procedural mask generators
    metrics   -- PSNR, SSIM, IoU/GIoU, average precision, mAP
    detloss   -- grid detection losses (box / class / confidence / total)
    cli       -- the `cfmw-kit` command-line front end

Submodules are imported on demand; ``import cfmw_kit`` stays lightweight.
"""

__version__ = "0.1.0"

_SUBMODULES = (
    "tensor",
    "tensor_io",
    "imageio",
    "ssm",
    "fusion",
    "diffusion",
    "weather",
    "metrics",
    "detloss",
    "cli",
)


def __getattr__(name):
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_SUBMODULES))
