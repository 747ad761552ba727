"""cfmw-kit benchmark: one workload per call, result as JSON on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the kit is imported from ``src/``.
One call generates the workload's inputs from ``--seed``, computes reference
outputs, then starts ``SETUPS`` fresh worker processes one after another.
Each worker sets up (imports, input generation, first op) and runs timed ops
for ``--seconds / SETUPS`` seconds; BLAS is pinned to one thread. Every op's
outputs are checked against the references.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
the per-layer metrics, from spans recorded around the kit's public functions
(see ``spans.py``). Traces are kept under ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 3           # fresh processes per run; setup_s is their median
WALL_LIMIT_S = 170.0  # a run must finish well inside three minutes
BLAS_PIN = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END = (("op_p50_s", "s"), ("op_tail_s", "s"), ("items_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def machine_record() -> dict:
    import numpy as np

    cpu = ""
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    llc = (0, "")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        level = int((index / "level").read_text())
        if level > llc[0]:
            llc = (level, (index / "size").read_text().strip())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"cpu": cpu, "llc": f"L{llc[0]} {llc[1]}", "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_PIN["OPENBLAS_NUM_THREADS"]}


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of p99.9/p99/p90/p75/p50 with at least
    ten samples above it; p50 when even that has fewer."""
    s = sorted(values)
    for pct in (99.9, 99.0, 90.0, 75.0, 50.0):
        k = max(math.ceil(pct / 100 * len(s)) - 1, 0)
        if len(s) - 1 - k >= 10:
            return pct, s[k]
    return 50.0, statistics.median(s)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 corrupt_op: int = -1) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and summary lines."""
    import numpy as np

    import cfmw_kit
    import workloads

    started = time.monotonic()
    wl = workloads.WORKLOADS[name](seed)
    work = ROOT / ".perfbench" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "ref_inputs").mkdir(parents=True)
    try:
        try:
            refs = wl.references(wl.generate(work / "ref_inputs"), cfmw_kit)
        except RuntimeError as exc:  # the direct call's op counts disagree
            raise BenchError(str(exc)) from exc
        np.savez(work / "refs.npz", **refs)
        results, setups = [], []
        for k in range(SETUPS):
            wdir = work / f"w{k}"
            cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
                   "--seed", str(seed), "--src", str(SRC), "--dir", str(wdir),
                   "--refs", str(work / "refs.npz"), "--budget", str(seconds / SETUPS),
                   "--trace", str(int(trace)), "--untimed", str(int(trace and k == 0)),
                   "--corrupt-op", str(corrupt_op if k == 0 else -1)]
            spawned = time.monotonic_ns()
            try:
                proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                                      timeout=max(WALL_LIMIT_S - (time.monotonic() - started), 1))
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"worker {k} did not finish in time") from exc
            if proc.returncode != 0:
                raise BenchError(f"worker {k} exited with {proc.returncode}")
            res = json.loads((wdir / "result.json").read_text(encoding="ascii"))
            setups.append((res["ops"][0]["end_ns"] - spawned) * 1e-9)
            results.append(res)
        if trace:
            traces = ROOT / ".perfbench" / "traces"
            traces.mkdir(exist_ok=True)
            with open(traces / f"{name}-seed{seed}.jsonl", "w", encoding="ascii") as fh:
                for k in range(SETUPS):
                    fh.write((work / f"w{k}" / "spans.jsonl").read_text(encoding="ascii"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for res in results for op in res["ops"]]
    failed = [op for op in ops if op["error"] is not None]
    timed = [op["ns"] * 1e-9 for op in ops if op["kind"] == "timed"]
    lines = [f"workload {name} seed {seed}: {len(ops)} ops in {SETUPS} processes, "
             f"{len(timed)} timed untraced, {wl.items_per_op:g} {wl.item_unit} per op",
             f"  failed_ratio {len(failed)}/{len(ops)} = {len(failed) / len(ops):.4g}"]
    correct = not failed
    if not trace:
        pct, tail_s = tail(timed)
        metrics = {
            "op_p50_s": statistics.median(timed),
            "op_tail_s": tail_s,
            "items_per_s": wl.items_per_op * len(timed) / sum(timed),
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in results) / 1024,
            "setup_s": statistics.median(setups),
        }
        units = dict(END_TO_END)
        lines.append(f"  op_tail_s is p{pct:g} of {len(timed)} timed ops; "
                     f"items_per_s counts {wl.item_unit}")
    else:
        import spans

        cycles = [c for res in results for c in res["layers"]]
        metrics = {k: statistics.median(c[k] for c in cycles) for k in cycles[0]}
        metrics.update(results[0]["untimed"])
        traced = [op for op in ops if op["kind"] == "traced"]
        if "ssm_macs" in refs and any(c["ssm.macs"] != int(refs["ssm_macs"]) for c in cycles):
            lines.append("  ssm.macs differs from the OpCounter of the direct fuse call")
            correct = False
        if metrics["trace.coverage"] < 0.95:
            lines.append("  the spans below cli.main account for less than 95% of it")
        idle = [k for k, v in metrics.items() if v == 0]
        if idle:
            lines.append(f"  not reached by this workload, reported as 0: {', '.join(idle)}")
        units = dict(spans.PER_LAYER)
        mismatches = sum(r["mismatches"] for r in results)
        lines.append(f"  {len(cycles)} traced cycles, {len(traced)} traced ops; outputs "
                     f"byte-identical with tracing on and off: {mismatches == 0}")
    for key, unit in units.items():
        if unit in ("count", "bytes") and float(metrics[key]).is_integer():
            metrics[key] = int(metrics[key])
        lines.append(f"  {key:28s} {metrics[key]:.6g} {unit}")
    result = {"correct": correct, "attempted": len(ops), "failed": len(failed),
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    return result, lines


def self_test() -> int:
    """Damage one op's output and show that the op is counted as failed."""
    result, lines = run_workload("fuse_short", 0, 1.5, False, corrupt_op=2)
    print("\n".join(lines))
    ok = result["failed"] == 1 and not result["correct"] and result["attempted"] > 2
    print(f"self-test {'passed' if ok else 'FAILED'}: one corrupted output, "
          f"{result['failed']} of {result['attempted']} ops counted as failed")
    return 0 if ok else 1


def main(argv=None) -> int:
    # Turn SIGTERM into an exception, so that subprocess.run kills and reaps
    # the running worker and the working directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.update(BLAS_PIN)  # before NumPy is first imported
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "cfmw_kit" / "__init__.py").is_file():
        print(f"error: no cfmw_kit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    print("machine " + json.dumps(machine_record()))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name], lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
