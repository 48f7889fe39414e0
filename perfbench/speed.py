"""The host's speed, measured next to the program so that times can be corrected for it.

The CPUs this benchmark runs on are shared, and their speed drifts by half
or more within a minute; the two CPUs of one machine drift apart.  Raw wall
time then measures the host as much as the program.  So each child process
is pinned to one CPU, and a sampler thread in it runs a short, fixed probe
(Fraction arithmetic on a dict of exponent tuples and a big-integer loop,
the same mix of work as the program's) every SAMPLE_INTERVAL_S.  Only one
thread holds the interpreter at a time, so the probe measures the CPU the
program runs on, at the times it runs.  A time t measured while probes took
p seconds on average is reported as t * REF_PROBE_S / p: the time the work
would take on a host where one probe takes REF_PROBE_S.

The probe is the benchmark's own code and calls nothing in rookpaths, so a
change to the program cannot move it.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from fractions import Fraction

# One probe's time on the machine the benchmark was defined on (a shared
# 2-CPU Intel Xeon virtual machine), in the middle of its range of speeds.
REF_PROBE_S = 0.0015
SAMPLE_INTERVAL_S = 0.05
# Probes run back to back before and after set-up, which is too short for
# the sampler to see.
SETUP_PROBES = 16

_A = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}
_B = {(i, j): Fraction(2 * j + 1, i + 3) for i in range(4) for j in range(4)}


def probe() -> float:
    """Run the fixed probe once and return its wall time."""
    start = time.perf_counter()
    product: dict[tuple[int, int], Fraction] = {}
    for (i, j), x in _A.items():
        for (k, l), y in _B.items():
            key = (i + k, j + l)
            product[key] = product.get(key, 0) + x * y
    n = 1
    for i in range(1, 300):
        n = n * i + 7
    return time.perf_counter() - start


def burst() -> list[float]:
    return [probe() for _ in range(SETUP_PROBES)]


def corrected(seconds: float, probes: list[float]) -> float:
    """seconds rescaled to the reference speed, given the probes taken meanwhile."""
    return seconds * REF_PROBE_S / statistics.fmean(probes)


def pin_to_current_cpu() -> int | None:
    """Pin this process to the CPU it runs on; return that CPU, or None if it cannot."""
    try:
        stat = open("/proc/self/stat").read()
        cpu = int(stat.rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        return None
    return cpu


class Sampler:
    """A daemon thread that takes one probe every SAMPLE_INTERVAL_S."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            start = time.perf_counter()
            self.samples.append((start, probe()))

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def between(self, start: float, end: float) -> list[float]:
        return [s for t, s in self.samples if start <= t <= end]
