"""Host speed probe, for timings that hold still while the host does not.

On the shared host this benchmark was built on, the same pure-Python work
ran up to 50% slower from one minute to the next, with CPU time equal to
wall time: the host's speed changed, not the scheduling.  Raw timings of
ten runs then spread by up to 36% (IQR over median), past any usable bound.
So every measured loop also times a fixed kernel of the benchmark's own
every PROBE_EVERY_S, and timings are scaled towards what they would read on
a host where that kernel takes NOMINAL_MS.  The kernel shares no code with
trophom: a faster trophom still reads faster, only the host's drift is
damped.  The workloads follow the host's speed only in part (their slow
ops hardly at all), and over twenty runs scaling by the square root of the
kernel's ratio (SENSITIVITY 0.5) kept every timing's spread lowest: 36% at
most raw, 18% scaled in full, 15% at the square root.  Raw values stay in
each run's provenance.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_MS = 3.0
SENSITIVITY = 0.5
PROBE_EVERY_S = 0.25
TIME_UNITS = {"s", "ms", "us"}


def _kernel():
    pool = set(range(64))
    sizes = {}
    for i in range(600):
        kept = {x for x in pool if (x * i) & 3}
        sizes[i & 63] = len(kept)
    return sum(sizes.values())


class Probe:
    """Kernel timings taken by tick(), at most one per PROBE_EVERY_S."""

    def __init__(self):
        self.samples_ms: list = []
        self._due = 0.0

    def tick(self):
        if time.perf_counter() < self._due:
            return
        t0 = time.perf_counter()
        _kernel()
        self.samples_ms.append((time.perf_counter() - t0) * 1e3)
        self._due = time.perf_counter() + PROBE_EVERY_S

    def median_ms(self) -> float:
        if not self.samples_ms:
            self._due = 0.0
            self.tick()
        return statistics.median(self.samples_ms)


def scale(value, unit: str, probe_ms: float):
    """`value` in `unit`, measured while the kernel took probe_ms, scaled
    towards NOMINAL_MS; counts and shares pass unchanged."""
    if value is None:
        return None
    factor = (NOMINAL_MS / probe_ms) ** SENSITIVITY
    if unit in TIME_UNITS:
        return value * factor
    if unit.endswith("/s"):
        return value / factor
    return value
