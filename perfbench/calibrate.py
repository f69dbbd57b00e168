"""A fixed reference computation that tracks the host's current speed.

The host's speed swings by up to a factor of two within seconds and from
one minute to the next, and every Python computation slows alike.  The
benchmark therefore times ``reference()`` right before and right after
each item and scales the item's time to the reference speed:

    scaled = measured * NOMINAL_S / reference_time

so that a run in a slow stretch reads about what a run in a fast stretch
reads.  The reference does not touch vnum, so a change to vnum moves the
scaled times exactly as it moves the measured ones.  ``NOMINAL_S`` fixes
the unit: a scaled time is the time the item takes on a host that runs
``reference()`` in ``NOMINAL_S`` seconds.

Nothing here imports vnum.
"""

from __future__ import annotations

import time

#: seconds ``reference()`` takes on the baseline host in a fast stretch
NOMINAL_S = 0.001

_A = {(i, j, (i * j) % 3): i + 2 * j + 1 for i in range(5) for j in range(4)}
_B = {(j, (i + j) % 4, i): 3 * i - j + 1 for i in range(4) for j in range(3)}


def reference(rounds: int = 20) -> int:
    """Multiply two sparse polynomials held as {exponents: coefficient},
    the kind of dict and tuple work vnum's algebra does, ``rounds`` times."""
    size = 0
    for _ in range(rounds):
        prod: dict = {}
        for ea, ca in _A.items():
            for eb, cb in _B.items():
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                c = prod.get(e, 0) + ca * cb
                if c:
                    prod[e] = c
                else:
                    prod.pop(e, None)
        size += len(prod)
    return size


def timed_reference(clock=time.perf_counter) -> float:
    """Seconds one ``reference()`` call takes now."""
    t0 = clock()
    reference()
    return clock() - t0
