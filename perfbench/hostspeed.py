"""Host speed, sampled while the program runs.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent within seconds to minutes: a neighbour on the sibling
hyperthread slows every instruction, and process CPU time slows with it
(identical runs of one seed took 12 to 21 s of loop time on a 2-vCPU
2.0 GHz Xeon guest).  Timings are therefore reported in *reference
seconds*: wall seconds scaled by how fast a fixed calibration kernel ran
over the same interval.

The kernel is a few milliseconds of interpreter work (tuples, dicts,
sorts, a little NumPy), the instruction mix of the program under test.
A wall-clock interval timer runs it every :data:`INTERVAL_S` while a
timed interval is open, so the samples spread evenly over the interval
and follow the host as it changes.  The time spent sampling is taken out
of the interval.  The garbage collector is paused during a sample so a
collection of the fleet's heap is not charged to the host.  Program code
never runs inside a sample, so a faster program cannot move the factor.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import List

import numpy as np

#: Kernel seconds per call on an uncontended 2.0 GHz Xeon vCPU (Python
#: 3.11, NumPy 2.4): the speed one reference second stands for.
REFERENCE_KERNEL_S = 0.003

#: Wall seconds between samples (one kernel call each, ~2% of the time).
INTERVAL_S = 0.15

#: How strongly the program's speed follows the kernel's: the program
#: slows by ``slowdown ** HOST_SENSITIVITY``.  The kernel is cache
#: resident and feels a busy sibling hyperthread more than the program,
#: whose large heap stalls on memory either way.  Least squares of
#: log(loop wall) on log(kernel slowdown) over 64 sub-fleet loops of both
#: workloads (slowdowns 1.2 to 2.9) gave slopes of 0.78 and 0.84; 1.0
#: would over-correct and 0.0 would report raw wall time.
HOST_SENSITIVITY = 0.8


def kernel() -> int:
    """Fixed interpreter-bound work; the result is consumed by the caller."""
    rows = [(i, i * 7919 % 1009, "k%d" % i) for i in range(4000)]
    index: dict = {}
    for key, bucket, label in rows:
        index.setdefault(bucket, []).append((key, label))
    total = 0
    for bucket in sorted(index):
        entries = index[bucket]
        entries.sort(key=lambda entry: -entry[0])
        total += sum(key for key, _label in entries[:8])
    codes = np.arange(4000, dtype=np.int64) * 3 % 1009
    return total + int(np.argsort(codes, kind="stable")[:10].sum())


class HostSpeed:
    """Times one interval and samples the kernel across it.

    Use as a context manager around the work to time; afterwards
    ``wall_s`` is the interval's wall time without the samples and
    :meth:`reference_seconds` converts it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Wall seconds of the timed work, samples taken out.
        self.wall_s = 0.0
        #: Wall seconds of the interval, samples included.
        self.elapsed_s = 0.0
        self._sampling_s = 0.0
        self._sink = 0

    def _sample(self, _signum=None, _frame=None) -> None:
        entered = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            self._sink += kernel()
            self.samples.append(time.perf_counter() - started)
        finally:
            if enabled:
                gc.enable()
            self._sampling_s += time.perf_counter() - entered

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        elapsed = time.perf_counter() - self._started
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # an interval shorter than one period
            self._sample()
            self._sampling_s = 0.0
        self.wall_s += elapsed - self._sampling_s
        self.elapsed_s += elapsed
        self._sampling_s = 0.0

    def slowdown(self) -> float:
        """Mean kernel time over the reference: 1.0 = reference host."""
        return statistics.fmean(self.samples) / REFERENCE_KERNEL_S

    def reference_seconds(self) -> float:
        """The timed wall seconds expressed at reference host speed."""
        return self.wall_s / self.slowdown() ** HOST_SENSITIVITY
