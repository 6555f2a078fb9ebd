"""The arrival run as it was first written: the tests' reference for its counts.

It runs the departure-time recursion with the last station inside the
blocking loop, released by a ``-inf`` sentinel, and counts every customer
one by one: whether it has left station 0 by the horizon, whether it has
left the line, and how long it stayed at station 0 up to the horizon.
``simulate_with_arrivals`` must give the same ``repr`` on the same inputs.
It draws from the package's own streams, so both see the same times.
"""

from __future__ import annotations

import math
import sys
from collections import deque

from tandemqbd.simulate import (
    ArrivalSimResult,
    _arrival_times,
    _exp_draws,
    _spawn_streams,
)


def departures(config, streams, arrival_times):
    """Yield (A(n), D_0(n), D_K(n)) for each customer n, in arrival order."""
    rings = [
        deque([0.0], maxlen=min(b + 1, sys.maxsize))
        for b in (0, *config.buffer_capacities)
    ]
    draws = [s.__next__ for s in streams]
    stages = list(zip(rings, rings[1:] + [(-math.inf,)], draws))
    first = rings[0]
    for a in arrival_times:
        d = a
        for ring, below, draw in stages:
            prev = ring[-1]
            c = (d if d > prev else prev) + draw()
            free = below[0]
            d = c if c > free else free
            ring.append(d)
        yield a, first[-1], d


def arrival_run(config, arrival_rate, horizon, seed=0):
    """``simulate_with_arrivals`` on valid arguments, counted customer by customer."""
    streams, spare = _spawn_streams(config, seed, extra=1)
    arrival_times = (
        _arrival_times(_exp_draws(spare[0], arrival_rate), horizon)
        if arrival_rate > 0.0
        else ()
    )
    area = 0.0
    arrivals = left_first = gone = 0
    for a, d_first, d_last in departures(config, streams, arrival_times):
        arrivals += 1
        left_first += d_first <= horizon
        gone += d_last <= horizon
        area += min(d_first, horizon) - a
    return ArrivalSimResult(
        mean_level=area / horizon,
        final_level=arrivals - left_first,
        departures=gone,
        arrivals=arrivals,
        in_system=arrivals - gone,
        horizon=horizon,
        seed=seed,
    )
