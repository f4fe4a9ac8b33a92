"""A fixed reference kernel that reads the host's current speed.

The benchmark runs on shared hosts whose speed drifts by a third or more
over minutes, because other tenants contend for the same cores and caches.
The kernel does the same kind of work as nilgeo's inner loops, but with
stdlib code only: it multiplies two truncated polynomials held as dicts of
exponent tuples to `Fraction` coefficients.  Timed next to each
`run_suite` call, it gives the unit `kref`, the time the host takes for
1000 runs of the kernel at that moment.  Work timed in kref moves with the
program's speed and hardly at all with the host's.

The kernel is part of the benchmark, not of the program, so a change to
nilgeo cannot make it faster or slower.
"""

from __future__ import annotations

import time
from fractions import Fraction

RUNS_PER_PROBE = 24
RUNS_PER_KREF = 1000

_LEFT = {(i, j): Fraction(i - 2 * j + 1, j + 2) for i in range(4) for j in range(4)}
_RIGHT = {(i, j): Fraction(3 * j - i, i + 1) for i in range(4) for j in range(4)}
_MAX_DEGREE = 5


def _kernel() -> dict[tuple[int, int], Fraction]:
    out: dict[tuple[int, int], Fraction] = {}
    for (a1, a2), x in _LEFT.items():
        for (b1, b2), y in _RIGHT.items():
            key = (a1 + b1, a2 + b2)
            if key[0] + key[1] <= _MAX_DEGREE:
                out[key] = out.get(key, 0) + x * y
    return out


def probe() -> float:
    """Seconds one kernel run takes now, averaged over a short burst."""
    t0 = time.perf_counter()
    for _ in range(RUNS_PER_PROBE):
        _kernel()
    return (time.perf_counter() - t0) / RUNS_PER_PROBE
