"""Operation times at a fixed reference speed.

The host this benchmark was written on runs the same pure-Python code at
speeds up to 2x apart, in stretches from seconds to minutes long that no
run of a few dozen seconds escapes: over 90 seconds, the median time of a
fixed ``check_na`` plus ``superhedge`` ranged from 70.7 to 89.8 ms between
ten-second windows.  Its ratio to the time of a fixed exact-rational
kernel run right before and right after it ranged from 25.2 to 25.8 over
the same windows.

So every time the benchmark reports is taken by :meth:`Clock.timed` and
scaled to the reference speed: ``seconds * NOMINAL_S / tick``, where
``tick`` is the mean time of the kernel run just before and just after the
call.  The kernel is a Gauss-Jordan elimination over ``Fraction`` on a
fixed 8x9 integer matrix.  It imports nothing from the program and does not
depend on the seed, so a change to the program moves the scaled times in
full, while a change in the host's speed moves the call and the kernel
alike.  ``NOMINAL_S`` is about the kernel's median time on that host, so
scaled times read close to the wall-clock times of a typical stretch.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.003


def _matrix() -> list[list[Fraction]]:
    rng = random.Random("refclock")
    return [[Fraction(rng.randint(-9, 9)) for _ in range(9)] for _ in range(8)]


_MATRIX = _matrix()


def _kernel() -> None:
    a = [row[:] for row in _MATRIX]
    n = len(a)
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]


def tick() -> float:
    """Wall-clock seconds of one run of the reference kernel."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start


class Clock:
    """Times calls and scales them to the reference speed.

    Each call is followed by a tick, which also serves as the tick before
    the next call; ``ticks`` keeps every tick's wall-clock seconds, and
    ``wall_s`` sums the wall-clock seconds of the scaled calls.
    """

    def __init__(self):
        self.last = tick()
        self.ticks: list[float] = [self.last]
        self.wall_s = 0.0

    def restart(self) -> None:
        """Take a fresh tick before the next call, after untimed work."""
        self.last = tick()
        self.ticks.append(self.last)

    def scale(self, seconds: float) -> float:
        """Scale ``seconds`` just measured by the ticks around them."""
        self.wall_s += seconds
        after = tick()
        self.ticks.append(after)
        around = (self.last + after) / 2
        self.last = after
        return seconds * NOMINAL_S / around

    def timed(self, fn, *args):
        """Call ``fn(*args)``; returns its result and its scaled seconds."""
        start = perf_counter()
        result = fn(*args)
        return result, self.scale(perf_counter() - start)
