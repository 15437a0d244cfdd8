"""Machine-speed probe: timings scaled to a reference speed.

On a shared machine the same fixed CPU work takes from 0.7x to 1.5x its
usual time, changing from one second to the next (other tenants' cache
and memory traffic, the host's clock).  CPU time does not hide this:
the core is ours, it is just slower.  So the timed phase runs a small
fixed kernel (:func:`_kernel`) every :data:`PROBE_EVERY_S` seconds
between ops, and every timing is scaled by ``REFERENCE_S / (median probe
cost within WINDOW_S of it)``: the time the op would have taken with the
probe running at its reference cost.

The probe is the benchmark's own code and touches no library state, so
a change to the library moves the scaled times and leaves the scale
alone.  Changing the kernel or :data:`REFERENCE_S` changes the unit of
every time metric; don't.
"""

from __future__ import annotations

import bisect
import statistics
import sys
import time
from typing import List, Tuple

import numpy as np

#: probe cost, in seconds of thread CPU, that scaled times refer to (about
#: the kernel's median on the 2-core Xeon VM the benchmark was written on)
REFERENCE_S = 0.006
PROBE_EVERY_S = 0.03  # wall seconds between probes in a timed phase
WINDOW_S = 0.4  # probes within this many wall seconds of a timing count
MIN_PROBES = 4  # else the nearest ones do

_rng = np.random.default_rng(20141)
_FLOATS = _rng.random(1 << 21)  # 16 MB, read at random positions
_GATHER = _rng.integers(0, 1 << 21, 80000)
_OBJECTS = [float(i) for i in range(1 << 19)]  # 512k heap objects, 16 MB
_VISIT = _rng.integers(0, 1 << 19, 12000).tolist()
_VECTOR = np.arange(2000, dtype=np.float64)

#: resident bytes of the probe's data, left out of ``peak_rss_mb``
FOOTPRINT_MB = (
    _FLOATS.nbytes + _GATHER.nbytes + sys.getsizeof(_OBJECTS)
    + len(_OBJECTS) * sys.getsizeof(0.0) + sys.getsizeof(_VISIT)
) / 2**20


def _kernel() -> float:
    """Pointer chasing through the heap, random reads of a large array,
    an interpreter loop and small numpy reductions: the library's mix.
    The large working set makes the probe feel a neighbour's cache and
    memory traffic as the workloads do; an in-cache kernel alone left
    about twice the spread in scaled times."""
    acc = 0.0
    for j in _VISIT:
        acc += _OBJECTS[j]
    acc += float(_FLOATS[_GATHER].sum())
    total = 0
    for i in range(12000):
        total += i * i % 7
    for j in range(20):
        acc += float(np.abs(_VECTOR - j).sum())
    return acc + total


class SpeedProbe:
    """Probe costs on the calling thread, stamped with wall time."""

    def __init__(self) -> None:
        self.stamps: List[float] = []  # perf_counter at each probe's end
        self.costs: List[float] = []  # thread CPU seconds of each probe
        self._last = float("-inf")

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = time.thread_time()
            _kernel()
            cost = time.thread_time() - t0
            self._last = time.perf_counter()
            self.stamps.append(self._last)
            self.costs.append(cost)

    def tick(self) -> None:
        """Probe if :data:`PROBE_EVERY_S` passed since the last probe."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median cost of the probes within
        ``WINDOW_S`` of the wall interval ``[start, end]`` (the
        :data:`MIN_PROBES` nearest when fewer lie there)."""
        return REFERENCE_S / statistics.median(self.near(start, end))

    def near(self, start: float, end: float) -> List[float]:
        if not self.costs:
            raise ValueError("no probes taken")
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        if hi - lo < MIN_PROBES:
            # widen towards whichever side is nearer the interval
            while hi - lo < min(MIN_PROBES, len(self.costs)):
                before = start - self.stamps[lo - 1] if lo > 0 else float("inf")
                after = self.stamps[hi] - end if hi < len(self.stamps) else float("inf")
                if before <= after:
                    lo -= 1
                else:
                    hi += 1
        return self.costs[lo:hi]

    def summary(self) -> Tuple[int, float]:
        """``(probes, median cost in s)`` for the report."""
        return len(self.costs), statistics.median(self.costs) if self.costs else 0.0
