"""One workload process: set up, run the closed loop for a time budget, report.

Started by ``run.py``; not meant to be run by hand. Set-up is everything up
to the end of the first op: interpreter start, imports, input generation and
the first CLI call. The first op is checked but not timed into the op
statistics. Then ops run back to back until the budget is spent.

With ``--trace 1`` cycles alternate untraced and traced, so both the traced
and the untraced op time come from the same process; every op's primary
outputs are hashed and must match the first op on the same input.
With ``--untimed 1`` one more cycle runs afterwards under an untimed tracer
(memory peaks, hot-leaf counters; see ``spans.py``); it is checked but not
timed.

Writes ``result.json`` (and ``spans.jsonl`` when tracing) into ``--dir``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    """High-water resident set of this process's own address space.

    Unlike ``ru_maxrss``, which Linux carries across fork and exec from the
    parent, ``VmHWM`` starts afresh with the address space ``exec`` creates.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", required=True, help="directory holding the cfmw_kit package")
    ap.add_argument("--dir", required=True, help="this process's working directory")
    ap.add_argument("--refs", required=True, help="reference outputs (.npz)")
    ap.add_argument("--budget", type=float, required=True, help="seconds of timed ops")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--untimed", type=int, default=0)
    ap.add_argument("--corrupt-op", type=int, default=-1,
                    help="self-test: damage this op's first output before its check")
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    import numpy as np

    import cfmw_kit
    from cfmw_kit import cli

    import spans
    import workloads

    work = Path(args.dir)
    inputs, out = work / "inputs", work / "out"
    inputs.mkdir(parents=True)
    out.mkdir()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.generate(inputs)
    tracer = spans.Tracer(cfmw_kit) if args.trace else None

    ops = []           # {"i", "kind", "ns", "error", "end_ns"}; kind: first/timed/traced/untimed
    layer_cycles = []  # per traced cycle: mean per-op layer metrics
    span_log = []
    digests: dict[int, str] = {}  # variant -> digest of its first checked outputs
    mismatches = []

    def run_op(i: int, kind: str, active=None):
        """Run op ``i``, check it, record it; return its layer metrics if traced."""
        for path in wl.outputs(i, out):
            path.unlink(missing_ok=True)
        if active is not None:
            active.reset()
        error = None
        t0 = time.perf_counter_ns()
        try:
            for argv_ in wl.argvs(i, inputs, out):
                if cli.main(argv_) != 0:
                    error = f"cfmw-kit {argv_[0]} exited non-zero"
                    break
        except Exception as exc:  # an op that raises is a failed op
            error = f"{type(exc).__name__}: {exc}"
        dur = time.perf_counter_ns() - t0
        end_ns = time.monotonic_ns()
        if error is None and i == args.corrupt_op:
            first = wl.outputs(i, out)[0]
            blob = first.read_bytes()
            first.write_bytes(blob[:-1] + bytes([blob[-1] ^ 0xFF]))
        if error is None:
            try:
                error = wl.check(i, out, refs)
            except (OSError, ValueError, KeyError) as exc:
                error = f"unreadable output: {exc}"
        if error is None and tracer is not None:
            h = hashlib.sha256()
            for path in wl.outputs(i, out):
                h.update(path.read_bytes())
            if digests.setdefault(i % wl.cycle, h.hexdigest()) != h.hexdigest():
                error = "outputs differ from an earlier op on the same input"
                mismatches.append(i)
        if error is not None:
            print(f"{wl.name} op {i} failed: {error}", file=sys.stderr)
        ops.append({"i": i, "kind": kind, "ns": dur, "error": error, "end_ns": end_ns})
        if kind != "traced":
            return None
        span_log.append({"op": i, "ns": dur, "spans": active.spans,
                         "counters": active.counters})
        return spans.op_metrics(active.spans, active.counters)

    refs = dict(np.load(args.refs))
    run_op(0, "first")
    i = 1
    deadline = time.perf_counter() + args.budget
    if tracer is None:
        while True:
            run_op(i, "timed")
            i += 1
            if time.perf_counter() >= deadline:
                break
    else:
        # whole cycles, untraced and traced in turn, ending on a traced one;
        # the overhead compares each traced cycle with the untraced one before it
        for cycle in itertools.count():
            traced = cycle % 2 == 1
            with tracer if traced else contextlib.nullcontext():
                per_op = [run_op(i + j, "traced" if traced else "timed",
                                 tracer if traced else None) for j in range(wl.cycle)]
            i += wl.cycle
            if traced:
                layer = {k: sum(m[k] for m in per_op) / len(per_op) for k in per_op[0]}
                ns = [op["ns"] for op in ops[-2 * wl.cycle:]]
                layer["trace.overhead"] = sum(ns[wl.cycle:]) / sum(ns[:wl.cycle]) - 1.0
                layer_cycles.append(layer)
                if time.perf_counter() >= deadline:
                    break

    untimed = {}
    if args.untimed:
        untimed_tracer = spans.Tracer(cfmw_kit, untimed=True)
        with untimed_tracer:
            for _ in range(wl.cycle):
                run_op(i, "untimed", untimed_tracer)
                i += 1
        untimed = untimed_tracer.untimed_metrics(wl.cycle)

    if span_log:
        with open(work / "spans.jsonl", "w", encoding="ascii") as fh:
            for record in span_log:
                fh.write(json.dumps(record) + "\n")
    result = {
        "ops": ops,
        "layers": layer_cycles,
        "untimed": untimed,
        "mismatches": len(mismatches),
        "rss_kb": peak_rss_kb(),
    }
    (work / "result.json").write_text(json.dumps(result), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
