"""Host-speed calibration and garbage-collector accounting for the
benchmark's timings.

On a shared host the effective CPU speed drifts, within a second and
from minute to minute.  On the 2-CPU host where this benchmark was
built it moved by half again, so ten runs of one workload spread by up
to a quarter.  A fixed pure-Python loop, timed right before and after
each measured interval, tracks that speed.  :func:`normalise` scales a
host time to the time it would take on a host where the loop takes
:data:`REFERENCE_S`.  That is about this loop on an uncontended core
of the build host, where a single process's normalised and raw times
agree.  Dividing by the loop removes the host's drift but none of the
program's own cost, because the loop does not touch the program.

Importing this module imports nothing from the program, so set-up
timing can start after it.
"""

from __future__ import annotations

import gc
import time

#: Seconds :func:`probe` takes on an uncontended core of the build host.
REFERENCE_S = 0.0002


def probe() -> float:
    """Seconds one run of the fixed calibration loop takes now."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(1500):
        key = (i * 7 + 3) & 255
        table[key] = table.get(key, 0) + 1
    return time.perf_counter() - start


def normalise(seconds: float, samples) -> float:
    """``seconds`` of host time, rescaled by the mean of the probe
    ``samples`` taken across the same interval."""
    samples = list(samples)
    return seconds * REFERENCE_S * len(samples) / sum(samples)


class GcPauses:
    """Context manager: seconds spent in garbage-collector pauses while
    it is active.  A full collection scans the whole heap, so it costs
    tens of milliseconds here.  It lands wherever the allocation count
    crosses a threshold, the same cells on every pass, so per-cell and
    per-re-run times subtract it.  Pass walls keep it."""

    def __enter__(self) -> "GcPauses":
        self.seconds = 0.0
        self._start: float | None = None
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> bool:
        gc.callbacks.remove(self._on_gc)
        return False

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.seconds += time.perf_counter() - self._start
            self._start = None
