"""Customer-by-customer simulation of the physical line, as an independent check.

With blocking after service, every time in the line follows from a
departure-time recursion over customers n = 1, 2, ... and servers
i = 0..K (Baccelli, Cohen, Olsder & Quadrat, *Synchronization and
Linearity*, 1992):

    C_i(n) = max(D_{i-1}(n), D_i(n-1)) + S_i(n)
    D_i(n) = max(C_i(n), D_{i+1}(n - B_{i+1} - 1)),    D_K(n) = C_K(n)

C_i(n) is the time server i finishes customer n, D_i(n) the time that
customer leaves station i, S_i(n) its service time there, and B_{i+1} the
buffer in front of station i+1: customer n may enter station i+1 only once
customer n - B_{i+1} - 1 has left it. D_{-1}(n) is the arrival time of
customer n, or -inf when the first station never runs dry. The recursion
needs only the last B_{i+1} + 1 departure times of each station, and holds
no more than the run has produced, so memory is
O(K + sum_i min(B_i + 1, customers)): bounded however long the run, and
however large the buffers.

The module works on customers and their times, not on the encoded phases,
and shares no code with the analytic kernel: the two are written twice so
each validates the other.

Randomness is pinned for reproducibility across machines: the master seed
feeds ``numpy.random.SeedSequence``, one spawned child per server (plus one
for the arrival process, when used) drives a PCG64 bit generator, and
exponential variates come from the inverse transform -log1p(-u) * (1/rate)
on uniforms drawn in blocks of 4096. The n-th draw of server i's stream is
customer n's service time there.
Identical (config, seed, target) triples give bit-identical results.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError, NegativeArrivalRateError, TargetTooSmallError
from .model import TandemConfig

MIN_TARGET_DEPARTURES = 10_000
MAX_TARGET_DEPARTURES = 10**9  # about half an hour at 5 * 10^5 departures/s
MAX_EXPECTED_ARRIVALS = 10**9  # arrival_rate * horizon; more would run for hours
WARMUP_FRACTION = 0.1
NUM_BATCHES = 20
# Student t quantile t_{0.975, NUM_BATCHES - 1}, as scipy.stats.t.ppf gives it
T_975 = 2.0930240544083087


@dataclass(frozen=True)
class SimResult:
    """Saturated-line throughput estimate with batch-means error bars.

    ``throughput_estimate`` counts ``departures_counted`` departures after
    the warm-up; ``ci_half_width`` is the 95% half-width over
    NUM_BATCHES equal batches. The injection/in-system tallies let callers
    audit customer conservation.
    """

    throughput_estimate: float
    ci_half_width: float
    departures_counted: int
    seed: int
    total_departures: int
    customers_injected: int
    customers_in_system: int


@dataclass(frozen=True)
class ArrivalSimResult:
    """Level trace summary for a run with an actual Poisson arrival stream."""

    mean_level: float
    final_level: int
    departures: int
    arrivals: int
    in_system: int
    horizon: float
    seed: int


def _exp_draws(seed_seq: np.random.SeedSequence, rate: float) -> Iterator[float]:
    """Endless exponential variates of ``rate``, drawn in blocks of 4096."""
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    scale = 1.0 / rate  # not / rate: dividing each draw changes its bits
    while True:
        with np.errstate(over="ignore"):  # an overflowing draw is inf
            block = (-np.log1p(-rng.random(4096)) * scale).tolist()
        yield from block


def _spawn_streams(
    config: TandemConfig, seed: int, extra: int
) -> tuple[list[Iterator[float]], list[np.random.SeedSequence]]:
    """One independent stream per server, plus ``extra`` spare children."""
    root = np.random.SeedSequence(seed % 2**64)
    children = root.spawn(config.num_servers + extra)
    streams = [
        _exp_draws(children[i], rate) for i, rate in enumerate(config.service_rates)
    ]
    return streams, children[config.num_servers :]


def _departures(
    config: TandemConfig, streams: list[Iterator[float]], arrival_times: Iterable[float]
) -> Iterator[tuple[float, float, float]]:
    """Yield (A(n), D_0(n), D_K(n)) for each customer n, in arrival order.

    ``arrival_times`` supplies D_{-1}(n). ``rings[i]`` holds D_i of the last
    B_i + 1 customers (B_0 = 0), oldest first: ``rings[i][-1]`` is D_i(n-1)
    and, before station i takes customer n, ``rings[i][0]`` is
    D_i(n - B_i - 1). Times before the first customer read as 0: a ring
    starts as one 0 that stays at its head until the ring fills. Nothing
    beyond the last station blocks it.
    """
    rings = [
        deque([0.0], maxlen=b + 1)
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


def simulate_saturated(
    config: TandemConfig, target_departures: int, seed: int = 0
) -> SimResult:
    """Measure the saturation throughput with a never-empty first station.

    Because the first station always has a customer waiting, the departure
    rate converges to the saturation arrival rate directly; no search over
    arrival rates is needed. The run discards a warm-up of
    WARMUP_FRACTION * target departures, then counts ``target_departures``
    of them, which must lie between MIN_TARGET_DEPARTURES and
    MAX_TARGET_DEPARTURES.
    """
    if target_departures < MIN_TARGET_DEPARTURES:
        raise TargetTooSmallError(
            f"need at least {MIN_TARGET_DEPARTURES} departures, "
            f"got {target_departures}"
        )
    if target_departures > MAX_TARGET_DEPARTURES:
        raise InputError(
            f"at most {MAX_TARGET_DEPARTURES:.0e} departures, got {target_departures}"
        )
    streams, _ = _spawn_streams(config, seed, extra=0)
    customers = _departures(config, streams, itertools.repeat(-math.inf))

    warmup = int(round(target_departures * WARMUP_FRACTION))
    batch = target_departures // NUM_BATCHES
    total_needed = warmup + target_departures
    boundaries: list[float] = []
    for departures, (_, _, t) in enumerate(customers, 1):
        if departures == warmup:
            t_warm = t
        elif departures > warmup and (departures - warmup) % batch == 0:
            boundaries.append(t)
        if departures == total_needed:
            break

    if not math.isfinite(t):
        # every later customer leaves station 0 by time inf: the count below
        # would never end
        raise InputError(
            "the simulated clock overflowed; the service times are too long "
            "to represent"
        )

    # one customer is injected at the start and one each time station 0 frees
    # up; customers behind the last one counted may have moved on by time t
    injected = departures + 1
    for _, left_first, _ in customers:
        if left_first > t:
            break
        injected += 1

    estimate = target_departures / (t - t_warm)
    with np.errstate(over="ignore", invalid="ignore"):
        rates = batch / np.diff([t_warm] + boundaries)
        half_width = float(T_975 * rates.std(ddof=1) / math.sqrt(NUM_BATCHES))
    if not (math.isfinite(estimate) and math.isfinite(half_width)):
        raise InputError(
            "the batch throughputs overflow the confidence interval; "
            "the service rates are too large to simulate"
        )
    return SimResult(
        throughput_estimate=estimate,
        ci_half_width=half_width,
        departures_counted=target_departures,
        seed=seed,
        total_departures=departures,
        customers_injected=injected,
        customers_in_system=injected - departures,
    )


def _arrival_times(gaps: Iterator[float], horizon: float) -> Iterator[float]:
    """Poisson arrival epochs up to and including ``horizon``."""
    t = next(gaps)
    while t <= horizon:
        yield t
        t += next(gaps)


def simulate_with_arrivals(
    config: TandemConfig, arrival_rate: float, horizon: float, seed: int = 0
) -> ArrivalSimResult:
    """Run the line with a real Poisson arrival stream and track the level.

    The level (headcount at station 0, held customer included) stays
    bounded for arrival rates below the saturation rate and drifts upward
    roughly like (rate - saturation rate) * horizon above it; this run
    exists to demonstrate that empirically.
    """
    if arrival_rate < 0.0:
        raise NegativeArrivalRateError(
            f"arrival rate must be non-negative, got {arrival_rate}"
        )
    if not math.isfinite(arrival_rate):
        raise InputError(f"arrival rate must be finite, got {arrival_rate}")
    if not 0.0 < horizon < math.inf:
        raise InputError(f"horizon must be positive and finite, got {horizon}")
    if not arrival_rate * horizon <= MAX_EXPECTED_ARRIVALS:
        raise InputError(f"arrival_rate * horizon exceeds {MAX_EXPECTED_ARRIVALS:.0e}")
    streams, spare = _spawn_streams(config, seed, extra=1)
    arrival_times = (
        _arrival_times(_exp_draws(spare[0], arrival_rate), horizon)
        if arrival_rate > 0.0
        else ()
    )

    area = 0.0  # integral of the level over [0, horizon]
    arrivals = left_first = departures = 0
    for a, d_first, d_last in _departures(config, streams, arrival_times):
        arrivals += 1
        left_first += d_first <= horizon
        departures += d_last <= horizon
        area += min(d_first, horizon) - a
    return ArrivalSimResult(
        mean_level=area / horizon,
        final_level=arrivals - left_first,
        departures=departures,
        arrivals=arrivals,
        in_system=arrivals - departures,
        horizon=horizon,
        seed=seed,
    )
