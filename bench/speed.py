"""CPU-speed probe: op times are reported at a fixed reference speed.

On a shared host a core runs at full speed one moment and at half speed
the next, for seconds at a time, while a neighbour is busy.  Wall times
of the same op then differ by up to 2x between runs, far more than any
change worth detecting.  A fixed pure-Python probe — heap pushes and
pops and dict updates, the interpreter work a discrete-event simulator
does — slows down alike, so the benchmark times the probe every
:data:`INTERVAL_S` and scales each op's wall time by
``REFERENCE_S / probe``: the time the op would take on a core that runs
the probe in exactly :data:`REFERENCE_S`.  The probe involves no code of
the program under test, so a change to the program moves the scaled
times exactly as it moves the wall times.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Probe duration that defines the reference speed.  Close to the
#: probe's duration on an idle core of the machine the bounds were set
#: on, so scaled times read about as wall times there.
REFERENCE_S = 1e-3
#: Minimum time between two probes.
INTERVAL_S = 0.1


def _kernel() -> None:
    heap: list[tuple[int, int]] = []
    table: dict[int, float] = {}
    for i in range(1500):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        table[i % 512] = table.get(i % 512, 0.0) + i * 0.5
    while heap:
        heapq.heappop(heap)


def probe() -> float:
    """Seconds the probe takes now: the best of three, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            began = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - began)
        return best
    finally:
        if enabled:
            gc.enable()


class SpeedTracker:
    """Hands out the current wall-to-reference factor, re-probing as due."""

    def __init__(self) -> None:
        #: Every probe duration taken, in seconds.
        self.samples: list[float] = []
        self._factor = 1.0
        self._due = 0.0

    def factor(self) -> float:
        """``REFERENCE_S / probe`` from a probe at most INTERVAL_S old."""
        if time.perf_counter() >= self._due:
            sample = probe()
            self.samples.append(sample)
            self._factor = REFERENCE_S / sample
            self._due = time.perf_counter() + INTERVAL_S
        return self._factor
