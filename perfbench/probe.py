"""CPU speed probe: samples how fast one CPU runs a fixed piece of work.

The host this benchmark runs on is shared, and its CPUs slow down by up to
a factor of two for seconds at a time when neighbours are busy.  One probe
process is pinned to each CPU a timed command uses.  Every PERIOD_S it
wakes, runs KERNEL_LOOPS iterations of a fixed integer loop and records
(start, duration) against the system-wide monotonic clock that
``time.perf_counter`` reads.  A duration of REFERENCE_S means the CPU ran
at reference speed; twice that means it ran at half speed.  ``run.py``
turns the samples into speed factors and scales measured times by them
(see README.md, "Speed-normalised times").

Run as ``python3 probe.py CPU OUTFILE``; the probe stops on SIGTERM, or
when its parent exits, and then writes its samples to OUTFILE, one
"start duration" pair a line.
"""

from __future__ import annotations

import os
import signal
import statistics
import sys
import time
from bisect import bisect_left

PERIOD_S = 0.01
KERNEL_LOOPS = 1200
# Duration of the kernel on an uncontended CPU of the reference machine
# (Intel Xeon, Python 3.11.7); only the scale of the reported times
# depends on it.
REFERENCE_S = 250e-6


def kernel() -> int:
    """Small-dict updates, big-int shifts and tuple appends: the operations
    the package's recursions spend their time on.  A kernel of this kind
    follows the slowdowns the package sees far more closely than a plain
    arithmetic loop does."""
    table: dict[int, int] = {}
    kept = []
    for i in range(KERNEL_LOOPS):
        key = (i * 7919) & 255
        table[key] = table.get(key, 0) + (1 << (i & 63))
        if i & 3 == 0:
            kept.append((key, i))
    return len(kept) + len(table)


class SpeedLog:
    """The samples of all probes of one run, read as speed factors.

    A factor of 1 is reference speed, 0.5 half of it.  Multiplying a
    measured duration by the mean factor over its interval gives the time
    the same work would have taken at reference speed.
    """

    def __init__(self, samples: dict[int, list[tuple[float, float]]]):
        self._times = {cpu: [s for s, _ in rows] for cpu, rows in samples.items()}
        self._speeds = {cpu: [REFERENCE_S / d for _, d in rows] for cpu, rows in samples.items()}

    @classmethod
    def read(cls, paths: dict[int, str]) -> "SpeedLog":
        samples = {}
        for cpu, path in paths.items():
            with open(path) as handle:
                samples[cpu] = [tuple(map(float, line.split())) for line in handle]
        return cls(samples)

    def factor(self, start: float, end: float, cpus) -> float:
        """Mean speed factor on ``cpus`` over [start, end).  An interval
        shorter than the probe period takes the sample just before it."""
        values = []
        for cpu in cpus:
            times, speeds = self._times[cpu], self._speeds[cpu]
            if not times:
                raise ValueError(f"no probe samples on cpu {cpu}")
            lo, hi = bisect_left(times, start), bisect_left(times, end)
            values.extend(speeds[lo:hi] if hi > lo else speeds[max(lo - 1, 0):max(lo, 1)])
        return statistics.fmean(values)


def main(argv: list[str]) -> int:
    cpu, out_path = int(argv[0]), argv[1]
    os.sched_setaffinity(0, {cpu})
    stopping = False

    def stop(signum, frame):
        nonlocal stopping
        stopping = True

    signal.signal(signal.SIGTERM, stop)
    clock = time.perf_counter
    samples = []
    parent = os.getppid()
    while not stopping and os.getppid() == parent:
        time.sleep(PERIOD_S)
        start = clock()
        kernel()
        samples.append((start, clock() - start))
    with open(out_path, "w") as handle:
        handle.write("".join(f"{s:.7f} {d:.8f}\n" for s, d in samples))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
