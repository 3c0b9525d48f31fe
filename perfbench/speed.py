"""Machine-speed probe, to take the machine's own drift out of the times.

On a machine shared with other load, the speed of everything running on
it can change by a factor of two for seconds to minutes at a time, so
two runs of the same code can differ more than any change worth
measuring. The loop interleaves a fixed pure-Python probe with the items
(at most every CADENCE_S) and scales each item's wall time by
REF_S / (probe time around the item): times are reported as they would
read at the speed where the probe takes REF_S. The probe touches none of
the program's code or data, so a change to the program moves the scaled
times exactly as it moves the wall times.
"""

from __future__ import annotations

import statistics
from time import perf_counter

PROBE_LOOPS = 10_000
#: probe time that defines the reference speed (about the median probe
#: time on the 2-vCPU machine the bounds were set on)
REF_S = 0.001
CADENCE_S = 0.05


def probe() -> float:
    """Seconds taken by a fixed arithmetic loop."""
    t0 = perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return perf_counter() - t0


class SpeedLog:
    """Probe times and, for each, how many items had run before it."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.marks: list[int] = []
        self._last = float("-inf")

    def tick(self, n_done: int, force: bool = False) -> None:
        if force or perf_counter() - self._last >= CADENCE_S:
            self.probes.append(probe())
            self.marks.append(n_done)
            self._last = perf_counter()

    def scales(self, n_items: int) -> list[float]:
        """Per item, REF_S over the median of the probes just before and
        just after the stretch the item ran in."""
        out = []
        k = 0
        for i in range(n_items):
            while k + 1 < len(self.marks) and self.marks[k + 1] <= i:
                k += 1
            around = self.probes[max(0, k - 1):k + 3]
            out.append(REF_S / statistics.median(around))
        return out

    def mean_factor(self) -> float:
        """Mean probe time over REF_S: above 1 means slower than the
        reference speed."""
        return statistics.fmean(self.probes) / REF_S
