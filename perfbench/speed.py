"""Machine-speed normalisation of the benchmark's timings.

On a shared host the speed one process sees drifts by tens of percent
within seconds and over minutes, as other tenants load the same cores.
To take that drift out of the timings, a ``SpeedProbe`` interrupts the
program every ``INTERVAL_S`` with a timer signal and times a fixed probe
(pure-Python arithmetic and dict stores plus small numpy products, no
drivestyle code). The program's own time is the wall time minus the time
spent in probes; ``SpeedProbe.seconds`` scales it by the mean speed
over the same interval, measured as ``NOMINAL_PROBE_S / probe time``.
A normalised time therefore reads in seconds at the speed where one
probe takes ``NOMINAL_PROBE_S``, close to the probe's typical time on a
2-vCPU Intel Xeon KVM guest. A program that does more or slower
work takes longer in these seconds too; a slower machine does not.

The probe allocates no container objects and runs with the cyclic
garbage collector paused, so its time does not depend on the size of
the program's heap.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05
NOMINAL_PROBE_S = 0.0008

_MATRIX = np.arange(64, dtype=float).reshape(8, 8)
_SLOTS = dict.fromkeys(range(64), 0.0)


def probe() -> float:
    """Times one fixed probe, about ``NOMINAL_PROBE_S``."""
    collecting = gc.isenabled()
    gc.disable()
    start = perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += (i * 7) % 13
        _SLOTS[i & 63] = acc
    for _ in range(60):
        acc += float((_MATRIX @ _MATRIX).sum())
    elapsed = perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed


def speed(samples: list[float]) -> float:
    """Mean machine speed over the samples, 1 where a probe takes the nominal time.

    Samples are spread evenly in time, so the mean of the inverse probe
    times is the mean speed; a probe stretched by preemption only weighs
    in as a slow instant.
    """
    return statistics.fmean(NOMINAL_PROBE_S / s for s in samples)


class SpeedProbe:
    """Times the enclosed code and probes the machine's speed meanwhile.

    ``bracket`` probes run back to back just before and just after the
    timed region. With ``interval`` set, a timer signal also runs a probe
    every ``interval`` seconds inside it; their time is not the program's
    and ``seconds`` leaves it out. Code that waits on a child process is
    timed with ``interval=0``, since a probe in this process would then
    run beside the child instead of delaying it.
    """

    def __init__(self, interval: float = INTERVAL_S, bracket: int = 1) -> None:
        self.interval = interval
        self.bracket = bracket
        self.samples: list[float] = []
        self.busy = 0.0
        self.wall = 0.0

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> SpeedProbe:
        self.samples = [probe() for _ in range(self.bracket)]
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._inside = len(self.samples)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.wall = perf_counter() - self._start
        self.busy = sum(self.samples[self._inside:])
        self.samples.extend(probe() for _ in range(self.bracket))

    @property
    def seconds(self) -> float:
        """The enclosed code's own time, in seconds at nominal machine speed."""
        return (self.wall - self.busy) * speed(self.samples)
