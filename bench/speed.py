"""Machine-speed probe: rescales measured times to a reference speed.

The benchmark shares its CPUs with other machines' work, and the speed at
which it runs Python swings by up to 2x over tens of seconds.  cpu time
swings with wall time, so neither can tell a slower program from a busier
machine.  While a pass runs, a SIGALRM handler runs ``kernel`` every
``INTERVAL_S`` seconds and records how long it took.  The kernel's time
tracks how fast this CPU is running Python at that moment, so

    time at reference speed = measured time * REFERENCE_S / mean kernel time

cancels the machine's speed and keeps the program's.  The kernel, the
interval and ``REFERENCE_S`` are part of the benchmark's definition: change
any of them and earlier figures are no longer comparable.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
# About the kernel's median time (fastest 0.23 ms) on the 2-core Xeon VM with
# CPython 3.11.7 where the benchmark was defined, so that rescaled times
# read close to typical measured ones there.
REFERENCE_S = 0.0004


def kernel() -> int:
    """Fixed pure-Python work: tuple building, dict stores, int arithmetic."""
    table = {}
    total = 0
    for i in range(1500):
        item = (i, i * 3, i % 7)
        table[i % 100] = item
        total += item[1] - item[2]
    return total


class SpeedProbe:
    """Samples ``kernel`` from a timer signal while the context is open.

    Sampling takes under 1% of the time it runs through; that cost stays in
    the times it rescales, in the same proportion for every version.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        """REFERENCE_S over the mean sampled kernel time."""
        return REFERENCE_S / statistics.mean(self.samples)
