"""Host speed, measured between timed steps, to take host drift out of times.

The benchmark runs on a shared host whose speed drifts: a fixed
pure-Python loop took 32 ms in one ten-second window and 25 ms in one a
minute later, and the same grid pass took from 10.2 s to 24.4 s within
an hour.  Such drift moves every time the benchmark reports, whatever
the program does.

So each timed step is bracketed by a run of :func:`kernel`, a fixed piece
of work that uses no program code, and the step's time is scaled to the
speed at which the kernel takes :data:`REFERENCE_S`::

    reported = measured * REFERENCE_S / mean(kernel before, kernel after)

A reported time is thus in *reference seconds*: how long the step would
have taken had the host run at its reference speed throughout.  The
kernel mixes what the program spends its time on (dict, tuple and list
building, sorting, JSON encoding, integer arithmetic and a NumPy gather
over a few MB) so that it slows down with the host as the program does.
Nothing in ``src/`` touches it, so a change to the program does not move
it.  On a 2-vCPU host, ten-second windows of a repeated grid experiment
spread by 0.28 of their median raw and by 0.07 scaled.  The serve
workload brackets segments of requests instead, and scales them by a
windowed median of measurements (see ``run.py``).
"""

from __future__ import annotations

import json
import statistics
import time
from typing import List

import numpy as np

#: The kernel's median time on a 2-vCPU x86-64 VM in a quiet period.
REFERENCE_S = 0.009
#: Kernel runs per measurement; a measurement is their median.
REPEATS = 3

_GATHER = np.random.default_rng(0).permutation(1 << 19)
_VALUES = np.arange(1 << 19, dtype=np.int64)


def kernel() -> int:
    """The fixed work whose time gives the host's speed."""
    table = {}
    for i in range(3000):
        table[(i, i % 97)] = [i, str(i)]
    order = sorted(table, key=lambda k: (k[1], -k[0]))
    encoded = json.dumps([table[k] for k in order[:1000]])
    total = 0
    for i in range(15000):
        total += i * i % 7
    gathered = _VALUES[_GATHER]
    return total + len(encoded) + int(gathered[:: 1 << 12].sum())


def measure() -> float:
    """Median seconds of :data:`REPEATS` kernel runs, now."""
    runs: List[float] = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


def scale(before: float, after: float) -> float:
    """Reference seconds per measured second between two measurements."""
    return REFERENCE_S / ((before + after) / 2)


class Clock:
    """Reference time of a sequence of steps, each bracketed by :func:`measure`.

    ``step()`` closes the step begun at the previous call (or at
    construction) and returns its ``(measured, reference)`` seconds; the
    kernel runs are not part of any step.
    """

    def __init__(self) -> None:
        self.kernel_s = measure()
        self.started = time.perf_counter()

    def step(self):
        measured = time.perf_counter() - self.started
        after = measure()
        reference = measured * scale(self.kernel_s, after)
        self.kernel_s = after
        self.started = time.perf_counter()
        return measured, reference
