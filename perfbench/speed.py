"""A clock that reads host-speed-corrected seconds.

On a shared host the same code runs up to twice as fast at one moment as at
another: one process repeating a fixed proof-of-semantic pass read 436 to
982 rounds/s in 3 s chunks on a 2-vCPU VM. Fast and slow stretches last
from seconds to minutes, so a whole 30 s run can fall in either, and plain
wall times of identical work spread between runs past any useful bound.

SpeedClock corrects for that. While it runs, a timer interrupts the process
every TICK_S seconds and times reference(), a fixed mix of numpy and
interpreter work that does not touch semshard. Each stretch of wall time
between ticks is scaled by NOMINAL_S over the reference time measured at
its start, and the ticks' own time is left out. So now() advances by what
the wall time would have been on a host where reference() takes NOMINAL_S.
NOMINAL_S is about reference()'s median on the machine of the reference
figures in README.md, so corrected figures there read close to wall time.
The correction is only as good as reference() is like the timed work: a
change to semshard moves the timed work, never the reference.
"""

from __future__ import annotations

import hashlib
import signal
from statistics import median
from time import perf_counter

import numpy as np

TICK_S = 0.1
NOMINAL_S = 0.0011


_W = np.linspace(-1.0, 1.0, 8 * 128).reshape(8, 128)
_X = np.linspace(0.0, 1.0, 32 * 8).reshape(32, 8)
_BLOB = bytes(range(256)) * 4


def reference() -> float:
    """Seconds taken by a fixed mix of the kinds of work semshard does:
    small matrix products and reductions, hashing, and interpreter work on
    dicts, lists and sorting."""
    t0 = perf_counter()
    total = 0.0
    for i in range(40):
        h = np.maximum(_X @ _W, 0.0)
        total += float(h.sum()) + float(np.linalg.norm(h[i % 32]))
        total += hashlib.sha256(_BLOB).digest()[0]
        squares = {j: j * j for j in range(32)}
        total += sum(squares.values()) + len(sorted(range(48, 0, -1)))
    return perf_counter() - t0


def scale() -> float:
    """Corrected seconds per wall second now, from a median of a few
    reference timings: for regions the clock does not run in."""
    return NOMINAL_S / median(reference() for _ in range(5))


class SpeedClock:
    def __init__(self):
        self.references: list[float] = []  # every reference timing taken
        self.running = False
        self.ticks = 0
        self.scale = 1.0  # corrected seconds per wall second since `since`
        self.base = 0.0  # corrected seconds up to `since`
        self.since = 0.0

    def now(self) -> float:
        """Corrected seconds; compare two readings taken while started."""
        while self.running:
            ticks = self.ticks
            value = self.base + (perf_counter() - self.since) * self.scale
            if ticks == self.ticks:  # no tick ran while reading
                return value
        return self.base

    def _measure(self) -> None:
        self.references.append(reference())
        self.scale = NOMINAL_S / self.references[-1]
        self.since = perf_counter()

    def _tick(self, signum=None, frame=None) -> None:
        self.base += (perf_counter() - self.since) * self.scale
        self._measure()
        self.ticks += 1

    def start(self) -> None:
        self._measure()
        self.running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # ignored, not default: a tick already on its way must not end the
        # process
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.base = self.now()
        self.running = False

    def __enter__(self) -> "SpeedClock":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
