"""Machine-speed probe: scales measured times to a reference speed.

On a shared host the same code runs up to 30% slower for minutes at a time
(other tenants on the same physical cores; CPU time moves with wall time,
so the process is not waiting, it executes more slowly). A run's median
then shows the host's mood more than the program. The probe measures the
host's speed while the program runs, with a fixed piece of work that does
not depend on the program, and ``normalised`` divides it out:

    normalised_s = measured_s * REFERENCE_S / probe_s

where ``probe_s`` is the interquartile mean of the probe samples taken
while ``measured_s`` was measured and ``REFERENCE_S`` the probe's time on
the baseline machine (``README.md``). A program that does twice the work
still reads twice the time; a host that runs everything 20% slower moves
the probe as much as the program, and the ratio stays.

The probe mixes the kinds of work the program's hot paths are made of:
a Python integer loop, Python object and dict traffic, numpy calls on
512-element arrays (the size of a quadrature panel) and a scattered read
of a 4 MB array. On the shared host these slow down by different amounts
under different neighbours; their sum follows the program more closely
than any one of them (README.md, Probe). Each sample first runs the work
untimed, so the timed pass finds it in cache whatever the program was
doing: the probe sees the core's speed, not the program's memory state.

``Sampler`` takes samples from a ``SIGALRM`` interval timer while a
timed region runs, so even a single 20 s call is sampled throughout. The
time spent in the handler is kept in ``handler_s`` and subtracted from
the region by the caller.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# timed pass of ``probe`` on the baseline machine (README.md, Baseline)
REFERENCE_S = 1.0e-3
# seconds between two samples while a region is timed
PERIOD_S = 0.1

_PANEL = np.linspace(0.0, 1.0, 512)
_TABLE = np.linspace(0.0, 1.0, 1 << 19)
# 20000 distinct indices an odd stride apart, scattered over the table
_SCATTER = (np.arange(20000) * 104729) % _TABLE.size
_KEYS = {str(i): i for i in range(1000)}


class _Item:
    def __init__(self, value: int):
        self.value = value
        self.next = value + 1


def _work() -> float:
    total = 0
    for i in range(1500):
        total += (i * i) % 7
    for i in range(750):
        item = _Item(i)
        total += _KEYS[str(i)] + item.next
    acc = float(total)
    for i in range(12):
        r2 = _PANEL * _PANEL * (1.0 + i * 1e-3)
        acc += float(np.sum(np.exp(-2.0 * r2) * _PANEL))
    return acc + float(_TABLE[_SCATTER].sum())


def probe(clock=time.perf_counter) -> float:
    """Seconds of one timed pass of the probe work, after one untimed pass."""
    _work()
    start = clock()
    _work()
    return clock() - start


def interquartile_mean(values) -> float:
    """Mean of the middle half of ``values`` (all of them when fewer than 4)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no probe samples")
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def normalised(measured_s: float, samples) -> float:
    """``measured_s`` at the reference speed, given the probe samples taken
    while it was measured."""
    return measured_s * REFERENCE_S / interquartile_mean(samples)


class Sampler:
    """Takes a probe sample every ``period`` seconds of wall time between
    ``start`` and ``stop``, from a ``SIGALRM`` handler in the main thread."""

    def __init__(self, period: float = PERIOD_S, clock=time.perf_counter):
        self.period = period
        self.clock = clock
        self.samples: list[float] = []
        self.handler_s = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        begin = self.clock()
        self.samples.append(probe(self.clock))
        self.handler_s += self.clock() - begin

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None

    def __enter__(self) -> "Sampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
