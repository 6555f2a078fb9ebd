"""The departure-time recursion as a loop over the stations: the tests' reference.

``simulate._departures`` runs the same recursion compiled with its stations
unrolled. Per customer and station both take the same maxima and the same
sum, in the same order, so on the same draws they must yield equal times,
compared with ``==``.
"""

from __future__ import annotations

import sys
from collections import deque


def departures(config, streams, arrival_times):
    """Yield (A(n), D_0(n), D_K(n)) for each customer n, in arrival order.

    ``rings[i]`` holds D_i of the last B_i + 1 customers (B_0 = 0), oldest
    first: ``rings[i][-1]`` is D_i(n-1) and, before station i takes customer
    n, ``rings[i][0]`` is D_i(n - B_i - 1). Times before the first customer
    read as 0. The last station runs outside the blocking loop:
    D_K(n) = C_K(n).
    """
    rings = [
        deque([0.0], maxlen=min(b + 1, sys.maxsize))
        for b in (0, *config.buffer_capacities)
    ]
    draws = [s.__next__ for s in streams]
    blocking = list(zip(rings, rings[1:], draws))  # stations 0..K-1
    first, last, last_draw = rings[0], rings[-1], draws[-1]
    for a in arrival_times:
        d = a
        for ring, below, draw in blocking:
            prev = ring[-1]
            c = (d if d > prev else prev) + draw()
            free = below[0]
            d = c if c > free else free
            ring.append(d)
        prev = last[-1]
        d = (d if d > prev else prev) + last_draw()
        last.append(d)
        yield a, first[-1], d
