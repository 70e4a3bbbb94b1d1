"""A calibrated clock for timing on a host whose speed drifts.

On a shared host the same work takes 1.0 to 1.7 times as long from one
minute to the next, with no steal time: other tenants slow the CPU down.
Runs on different seeds then differ more than any useful regression bound
allows. So a worker times its spans on a calibrated clock: every
INTERVAL_S a SIGALRM handler runs a fixed pure-Python kernel, modelled on
the simulator's loops (attribute reads, dict lookups, float arithmetic,
branches), and records how long it took. Between two samples the clock
advances at NOMINAL_KERNEL_S / (kernel time there), so it reads host
seconds as they would pass at the kernel's nominal speed; it stands still
while the kernel itself runs. A faster program reads faster on it; a
slower host does not.
"""
from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.25
# The kernel's time on the reference host (Intel Xeon with AVX-512,
# Python 3.11.7) in its fast periods, so calibrated seconds read close to
# uncontended host seconds there.
NOMINAL_KERNEL_S = 0.0033
SMOOTHING = 5  # samples per rate estimate: the kernel's own noise averages out


class _Item:
    __slots__ = ("energy", "alive")

    def __init__(self, energy: float):
        self.energy = energy
        self.alive = True


# Allocated once: allocations in the kernel would let it trigger garbage
# collections, whose cost depends on the heap of the program being timed.
_ITEMS = [_Item(1.0 + i * 1e-3) for i in range(200)]
_INDEX = dict(enumerate(_ITEMS))


def kernel() -> float:
    index = _INDEX
    total = 0.0
    for _ in range(200):
        for i in range(200):
            item = index[i]
            if item.alive and item.energy > 1.05:
                item.energy -= 1e-9
                total += item.energy * 0.5
            else:
                total -= item.energy
    return total


class CalibratedClock:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # kernel (start, end)
        self._times: list[float] = []
        self._values: list[float] = []
        self._rates: list[float] = []

    def _sample(self, *_):
        start = perf_counter()
        kernel()
        self.samples.append((start, perf_counter()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        self._build()

    def _build(self) -> None:
        """Breakpoints of the piecewise-linear clock: it is flat across each
        kernel run and rises at that gap's rate between runs."""
        durations = [end - start for start, end in self.samples]
        half = SMOOTHING // 2
        self._rates = [
            NOMINAL_KERNEL_S
            / statistics.median(durations[max(0, k - half) : k + half + 2])
            for k in range(len(self.samples) - 1)
        ]
        value = 0.0
        for k, (start, end) in enumerate(self.samples):
            if k:
                value += (start - self.samples[k - 1][1]) * self._rates[k - 1]
            self._times += [start, end]
            self._values += [value, value]

    def at(self, t: float) -> float:
        """Calibrated reading at host time t, within [start(), stop()]."""
        i = bisect.bisect_right(self._times, t) - 1
        if i < 0:
            return self._values[0]
        if i % 2 == 0 or i + 1 == len(self._times):
            return self._values[i]  # inside a kernel run, or after the last
        return self._values[i] + (t - self._times[i]) * self._rates[i // 2]

    def seconds(self, start: float, end: float) -> float:
        return self.at(end) - self.at(start)

    def slowdown(self) -> float:
        """The median kernel time over its nominal time: 1 on a quiet host."""
        return statistics.median(e - s for s, e in self.samples) / NOMINAL_KERNEL_S
