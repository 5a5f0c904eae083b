"""Host-speed normalisation of the benchmark's end-to-end times.

The benchmark runs on a virtual machine shared with other tenants, whose
speed drifts by 10 to 50% within seconds to minutes (CPU time tracks wall
time, so it is slower execution, not stolen time).  Raw times of the same
code therefore spread across runs by more than the bounds a comparison of
two commits needs.  A fixed pure-Python probe, which does not touch radmix,
is timed between the items of a pass; every timed interval is scaled by
``PROBE_REF_S`` over the probe time measured around it.  The result is the
interval in seconds of a host on which the probe takes ``PROBE_REF_S``: a
change of the program still moves it in full, a change of the host's speed
largely cancels.

Probes run only between timed intervals, never inside one, and their own
time is left out of every interval.
"""

from __future__ import annotations

import bisect
import time

# Nominal probe time: about what one probe takes on a 2-vCPU Xeon VM.
PROBE_REF_S = 1.0e-3
PROBE_LOOPS = 10000
PROBE_REPS = 3
# Shortest time between two probes inside a pass.  The host's speed moves
# within a second; closer probes track it better, at about 3% of the run.
PROBE_EVERY_S = 0.1


def probe(reps: int = PROBE_REPS) -> float:
    """Fastest of ``reps`` timings of a fixed pure-Python loop, in seconds."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        s = 0
        for i in range(PROBE_LOOPS):
            s += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedClock:
    """Probe marks of one run, and the normalised length of intervals.

    A mark is (start, end, probe seconds).  ``tick`` probes when the last
    mark is at least ``PROBE_EVERY_S`` old; workloads call it between items.
    """

    def __init__(self):
        self.marks: list = []
        self._ends: list = []

    def mark(self) -> int:
        """Probe now; returns the index of the new mark."""
        t0 = time.perf_counter()
        r = probe()
        t1 = time.perf_counter()
        self.marks.append((t0, t1, r))
        self._ends.append(t1)
        return len(self.marks) - 1

    def tick(self) -> None:
        if time.perf_counter() - self._ends[-1] >= PROBE_EVERY_S:
            self.mark()

    def _probe_near(self, i: int) -> float:
        """Mean probe time of the two marks before mark ``i`` and the two
        from it on: one probe alone is a few percent off."""
        near = self.marks[max(0, i - 2):i + 2]
        return sum(m[2] for m in near) / len(near)

    def scale(self, start: float, end: float) -> float:
        """Normalised seconds of an interval that holds no probe."""
        i = bisect.bisect_right(self._ends, start)   # first mark after start
        return (end - start) * PROBE_REF_S / self._probe_near(i)

    def between(self, first: int, last: int) -> tuple:
        """Raw and normalised seconds from mark ``first`` to mark ``last``,
        without the probes' own time."""
        raw = norm = 0.0
        for i in range(first + 1, last + 1):
            gap = self.marks[i][0] - self.marks[i - 1][1]
            raw += gap
            norm += gap * PROBE_REF_S / self._probe_near(i)
        return raw, norm
