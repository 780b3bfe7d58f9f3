"""How fast this machine runs Python code right now, from a fixed reference loop.

The machines the benchmark runs on are shared, and their speed drifts by up
to 60% for periods of seconds to minutes. The program and this loop slow down
together, so a time multiplied by ``REFERENCE_S / loop_time()``, with the
loop timed next to it, reads as seconds at one reference speed, and that is
steady across runs. The loop does the kind of work the program does: small
objects, attribute reads, function calls, tuple keys in dicts and
``math.fsum``. Changing the loop, ``REFERENCE_S`` or ``REPEATS`` makes times
measured before and after the change incomparable.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

# Duration of one loop at the reference speed: about its time on an idle
# core of the Xeon machines the benchmark was first run on.
REFERENCE_S = 0.010
REPEATS = 5


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: float) -> None:
        self.a = a
        self.b = b


def _mix(p: _Point, q: _Point) -> float:
    return p.a * q.b - p.b


def _loop() -> int:
    table: dict[tuple[int, int, int], float] = {}
    recent: list[float] = []
    for i in range(6000):
        p = _Point(i % 7, float(i))
        q = _Point(i % 5, 0.5)
        key = (p.a, q.a, i % 11)
        table[key] = table.get(key, 0.0) + _mix(p, q)
        recent.append(math.fsum(v for v in (p.b, q.b, 1.0)))
        if len(recent) > 64:
            recent.clear()
    return len(sorted(table.items()))


def loop_time() -> float:
    """Median duration of a few runs of the reference loop, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        _loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


def at_reference(elapsed: float, loop: float) -> float:
    """``elapsed`` seconds measured while the loop took ``loop`` seconds, at reference speed."""
    return elapsed * REFERENCE_S / loop
