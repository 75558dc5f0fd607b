"""Host-speed normalisation for the benchmark's timings.

The reference machine is a 2-vCPU VM on a shared host.  Its speed swings
by up to half within seconds as neighbours come and go, and its fast
state drifts between hours, so plain wall time on it spreads past any
useful bound.  Every timed stretch is therefore paired with the time of a
fixed piece of reference work done right beside it, and reported in
*reference seconds*: wall seconds times ``REFERENCE_S`` over the local
time of the reference work.  At the reference speed the two are equal.

The reference work mixes the kinds of code copeda spends its time in: an
interpreted loop, small numpy sorts and products, and vectorised scipy
special functions.  It uses nothing from copeda, so a change to copeda
cannot move it; a copeda change that makes a run take longer at the same
host speed shows up in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import special

# median time of reference_work() on the reference machine (2-vCPU x86-64
# VM, Python 3.11, numpy 2.4, scipy 1.17); it only sets the scale
REFERENCE_S = 0.005

_rng = np.random.default_rng(20120921)
_SMALL = _rng.random((200, 10))
_LONG = _rng.random(20000)
_GRID = _rng.random((200, 60))


def reference_work() -> int:
    total = 0
    for i in range(20000):
        total += i % 7
    np.sort(_LONG)
    np.argsort(_SMALL[:, 0])
    _SMALL.T @ _SMALL
    for _ in range(30):
        np.exp(_LONG[:2000]).sum()
    for _ in range(6):
        special.ndtr((_GRID - 0.5) / 0.1).sum(axis=1)
        np.log(_GRID).mean()
    return total


def reference_time() -> float:
    """Wall seconds of one reference_work() call."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def speed_factor(repeats: int = 5) -> float:
    """REFERENCE_S over the median reference time now, after a warm-up."""
    reference_time()
    return REFERENCE_S / statistics.median(
        reference_time() for _ in range(repeats))


class Meter:
    """Times runs in segments, sampling the reference work between them.

    ``start``/``stop`` bracket one run; ``tick`` is handed to ``eda_run``
    as its per-generation ``model_sink`` and closes a segment, samples the
    reference work and opens the next one once ``every_s`` has passed.
    Sampling time is outside every segment.  A segment's speed is the
    median of the ``window`` samples on each side of it.
    """

    def __init__(self, every_s: float = 0.1, window: int = 3):
        self.every_s = every_s
        self.window = window
        self.samples: list[float] = []
        # (wall seconds, CPU seconds, samples taken before its end)
        self.segments: list[tuple[float, float, int]] = []
        self._wall = self._cpu = 0.0
        self._run_first = 0

    def _open(self) -> None:
        self._wall, self._cpu = time.perf_counter(), time.process_time()

    def _close(self) -> None:
        self.segments.append((time.perf_counter() - self._wall,
                              time.process_time() - self._cpu,
                              len(self.samples)))

    def start(self) -> None:
        self._run_first = len(self.segments)
        self.samples.append(reference_time())
        self._open()

    def tick(self, *_) -> None:
        if time.perf_counter() - self._wall >= self.every_s:
            self._close()
            self.samples.append(reference_time())
            self._open()

    def stop(self) -> float:
        """Close the run; return its wall seconds, unscaled."""
        self._close()
        self.samples.append(reference_time())
        return sum(w for w, _, _ in self.segments[self._run_first:])

    def totals(self) -> dict:
        """Raw and reference-scaled wall and CPU seconds over all runs."""
        wall = cpu = wall_ref = cpu_ref = 0.0
        for w, c, j in self.segments:
            nearby = self.samples[max(0, j - self.window):j + self.window]
            factor = REFERENCE_S / statistics.median(nearby)
            wall += w
            cpu += c
            wall_ref += w * factor
            cpu_ref += c * factor
        return {"wall_s": wall, "cpu_s": cpu, "wall_ref_s": wall_ref,
                "cpu_ref_s": cpu_ref,
                "reference_s.p50": statistics.median(self.samples)}
