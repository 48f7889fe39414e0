"""One benchmark process: set up a workload, then run its operations once.

Started by run.py in a fresh interpreter.  It pins itself to one CPU and
writes JSON lines to its standard output: {"event": "ready"} with the set-up
time as soon as set-up is done, one {"event": "op"} per operation, and
{"event": "done"} with the pass time, the peak resident memory and, when
traced, the layer counters and spans.  Times are given raw and corrected for
the host's speed (speed.py).  Whatever the program itself prints is
discarded.

    python3 perfbench/child.py --workload W --seed N --scratch DIR --spawned-at T \
        [--setup-only] [--trace]

T is the parent's time.perf_counter() just before it started this process.
"""

from __future__ import annotations

import time

ENTERED = time.perf_counter()  # before any other import: set-up starts at the spawn

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scratch", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    out = sys.stdout

    def emit(**event):
        out.write(json.dumps(event) + "\n")
        out.flush()

    cpu = speed.pin_to_current_cpu()
    probes = speed.burst()
    t0 = time.perf_counter()
    inputs = workloads.setup(args.workload, args.seed, Path(args.scratch))
    setup_s = ENTERED - args.spawned_at + time.perf_counter() - t0
    probes += speed.burst()
    emit(event="ready", setup_s=setup_s, setup_ref_s=speed.corrected(setup_s, probes), cpu=cpu)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    sampler = speed.Sampler()
    sampler.start()
    start = time.perf_counter()
    for name, op in workloads.operations(args.workload, inputs):
        t0 = time.perf_counter()
        error = None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                op()
        except workloads.GateError as exc:
            error = f"wrong answer: {exc}"
        except Exception:  # a crash in the program counts as a failed operation
            error = traceback.format_exc(limit=-3)
        emit(event="op", name=name, s=time.perf_counter() - t0, ok=error is None, error=error)
    end = time.perf_counter()
    sampler.stop()
    probes = sampler.between(start, end) or speed.burst()
    done = {"event": "done", "pass_s": end - start,
            "pass_ref_s": speed.corrected(end - start, probes), "probes": len(probes),
            "probe_mean_s": sum(probes) / len(probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        done.update(metrics=tracer.metrics(), by_caller=tracer.by_caller(), spans=tracer.spans)
    emit(**done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
