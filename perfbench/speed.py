"""Machine-speed probe for normalising wall times on a shared host.

On a shared 2-core host the speed of single-threaded Python code swings by
up to 1.75x within seconds (a fixed loop measured at 6.6 to 11.6 ms over one
minute).  So the speed is sampled while a call runs: a fixed pure-Python loop
runs before and after the call and, from a SIGALRM handler, every
`INTERVAL_S` during it.  The call's own time (wall time minus the samples) is
scaled to the reference speed at which `LOOPS` iterations take `REF_S`:

    reference seconds = own seconds * (REF_S / median(sampled loop time)) ** exponent

Code differs in how much the host's swings slow it: the exponent is the
slope of log(call time) on log(probe time) across processes, fitted per
workload (each workload's `SPEED_EXPONENT`).

The loop touches no lrc7 code, so a change to lrc7 leaves it unchanged.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_S = 0.001
LOOPS = 200  # iterations of a full probe, which takes REF_S at reference speed
SAMPLE_LOOPS = 20  # iterations of one sample taken during a call
INTERVAL_S = 0.02

_TABLE = list(range(256))
_ROW = list(range(64))


def _loop(iterations: int) -> float:
    """Seconds for `iterations` rounds of a table-lookup list comprehension."""
    vec = list(range(64, 128))
    t0 = time.perf_counter()
    for _ in range(iterations):
        vec = [_TABLE[(x * 7 + y) & 255] for x, y in zip(vec, _ROW)]
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds for one full probe at the current speed (median of three)."""
    return statistics.median(_loop(LOOPS) for _ in range(3))


class _Sampler:
    """Runs a sample every INTERVAL_S of wall time while active."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(_loop(SAMPLE_LOOPS) * (LOOPS / SAMPLE_LOOPS))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def timed(exponent: float, fn, *args, **kwargs):
    """(result, own seconds, reference seconds) of one call.

    `exponent` is how strongly the timed code's speed follows the probe's:
    the slope of log(call time) on log(probe time) across processes.
    """
    before = [probe(), probe()]
    with _Sampler() as sampler:
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
    own = wall - sampler.spent
    speed = statistics.median(before + sampler.samples + [probe(), probe()])
    return result, own, own * (REF_S / speed) ** exponent
