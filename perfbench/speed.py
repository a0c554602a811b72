"""Host speed probe: times a call and the host's speed while it ran.

The benchmark runs on a few cores of a shared host whose speed swings by
up to 2x, over both tenths of a second and tens of seconds. A run
therefore reports every time at nominal speed: while a timed call runs, a
SIGALRM handler runs a fixed micro-workload every PROBE_INTERVAL_S. The
workload is a small dict loop and a small matmul loop, and no punchgen
code. Its mean duration over the call, divided by NOMINAL_PROBE_S (its
duration on this host when uncontended), is the call's slowdown. The
handler's own time is taken out of the call's wall time.

Signal handlers run between bytecodes of the main thread, so a sample
never lands inside a numpy call; a blocking system call that the signal
interrupts is resumed (PEP 475).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.05
NOMINAL_PROBE_S = 0.0009
_MATRIX = np.random.default_rng(0).standard_normal((48, 48)) / 48 ** 0.5


def probe_s() -> float:
    """Wall time of the fixed micro-workload, about a millisecond."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    x = _MATRIX
    for _ in range(30):
        x = np.tanh(x @ _MATRIX)
    return time.perf_counter() - start


def slowdown(samples: int = 50) -> float:
    """The host's slowdown now, from back-to-back probes."""
    return statistics.mean(probe_s() for _ in range(samples)) / NOMINAL_PROBE_S


def measure(fn):
    """Run fn(); return (result, wall seconds without the probes, slowdown while it ran)."""
    samples = [probe_s()]
    previous = signal.signal(signal.SIGALRM, lambda *_: samples.append(probe_s()))
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    return result, wall - sum(samples[1:]), statistics.mean(samples) / NOMINAL_PROBE_S
