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
however large the buffers. Nothing blocks the last station, so the
recursion runs its blocking step over stations 0..K-1 only and closes the
last with D_K(n) = C_K(n).

The recursion is one generator function per station count, compiled on
first use and cached, with its stations unrolled into straight-line code:
station i's D_i(n-1) is a local variable, and station i >= 1 keeps a deque
of its last B_i + 1 departure times, read at its head by the station in
front of it. Per customer it does exactly the operations of a loop over the
stations, in the same order, so the times are bit for bit those of the
loop, without its interpreter overhead per station. The compiled source
is built from station indices alone; the rates, buffers and draws reach it
as arguments, so no input is ever turned into code. Its build grows with
the station count, so a line longer than MAX_SIMULATED_SERVERS is refused
as an input error.

Customers leave every station in arrival order (D_i(n) >= D_i(n-1)), and
leave the line no earlier than station 0 (D_K(n) >= D_0(n)). So the
customers gone from station 0, and those gone from the line, by a horizon
are prefixes of the run: the arrival run counts each as the number of the
last customer in it, not with a tally per customer. Once one customer is
still at station 0 at the horizon, so is every later one, and the arrival
run stops the recursion there: the rest add only their arrival times to
the level's integral.

The module works on customers and their times, not on the encoded phases,
and shares no code with the analytic kernel: the two are written twice so
each validates the other.

Randomness is pinned for reproducibility across machines: the master seed
feeds ``numpy.random.SeedSequence``, one spawned child per server (plus one
for the arrival process, when used) drives a PCG64 bit generator, and
exponential variates come from the inverse transform -log1p(-u) * (1/rate)
on uniforms drawn in blocks of 4096. A stream is drained one draw at a
time through ``itertools.chain.from_iterable`` over its blocks, so the n-th
draw of server i's stream is customer n's service time there, wherever a
block ends. Arrival epochs are the running sums of the arrival stream's
draws (``itertools.accumulate``, added in order), and the saturated run
skips from one batch boundary to the next with ``itertools.islice``: the
bookkeeping around the recursion runs in C iterators.
Identical (config, seed, target) triples give bit-identical results.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import InputError, NegativeArrivalRateError, TargetTooSmallError
from .model import TandemConfig, as_float, as_int

MIN_TARGET_DEPARTURES = 10_000
# with the warm-up, 6 to 10 minutes at the 1.8 to 2.9 * 10^6 departures/s
# of [0.8,1,1], B=1 at 10^6 departures on a shared 2-vCPU host whose speed
# drifts (13 to 19 minutes at the 0.96 to 1.4 * 10^6 of six servers)
MAX_TARGET_DEPARTURES = 10**9
MAX_EXPECTED_ARRIVALS = 10**9  # arrival_rate * horizon; more would run for hours
# the recursion compiled for 10^4 stations takes about 0.7 s and 245 MB to
# build on a 2-vCPU host, and its shortest run of 1.1 * 10^4 customers is
# 10^8 station steps
MAX_SIMULATED_SERVERS = 10_000
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
    """Endless exponential variates of ``rate``, drawn in blocks of 4096.

    The blocks are chained, so each draw is a C-level ``next``.
    """
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    scale = 1.0 / rate  # not / rate: dividing each draw changes its bits

    def block() -> list[float]:
        # returned, not yielded: a generator suspended inside the errstate
        # would leave it set in the caller
        with np.errstate(over="ignore"):  # an overflowing draw is inf
            return (-np.log1p(-rng.random(4096)) * scale).tolist()

    return itertools.chain.from_iterable(iter(block, None))  # never None: endless


def _spawn_streams(
    config: TandemConfig, seed: int, extra: int
) -> tuple[list[Iterator[float]], list[np.random.SeedSequence]]:
    """One independent stream per server, plus ``extra`` spare children.

    A line of more than MAX_SIMULATED_SERVERS servers is refused here,
    before any stream is drawn or any recursion compiled.
    """
    if config.num_servers > MAX_SIMULATED_SERVERS:
        raise InputError(
            f"at most {MAX_SIMULATED_SERVERS} servers can be simulated, "
            f"got {config.num_servers}"
        )
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

    ``arrival_times`` supplies D_{-1}(n), and is read one time per customer,
    so a caller holding the same iterator reads on from the last customer
    yielded. ``rings[i - 1]`` holds D_i of the last B_i + 1 customers for
    station i >= 1, oldest first: before station i - 1 releases customer n,
    its head is D_i(n - B_i - 1). Times before the first customer read as 0:
    a ring starts as one 0 that stays at its head until the ring fills.
    """
    # a ring holds at most one time per customer, so sys.maxsize (deque's
    # largest maxlen) caps a longer one without changing it
    rings = [
        deque([0.0], maxlen=min(b + 1, sys.maxsize)) for b in config.buffer_capacities
    ]
    return _recursion(config.num_servers)(
        arrival_times, [s.__next__ for s in streams], rings
    )


@functools.lru_cache(maxsize=4)  # one at 10^4 stations holds about 8 MB
def _recursion(num_servers: int) -> Callable[..., Iterator[tuple[float, float, float]]]:
    """The recursion over ``num_servers`` stations, compiled with them unrolled.

    Station i keeps D_i(n - 1) in the local ``d{i}``, ring i >= 1 is read at
    its head and appended through ``push{i}``, and nothing beyond the last
    station blocks it: D_K(n) = C_K(n). The source holds station indices
    only; rates and buffers reach the generator as its arguments.
    """
    k = num_servers - 1
    stations = range(num_servers)
    body = [
        "def recursion(arrival_times, draws, rings):",
        f"    {', '.join(f'draw{i}' for i in stations)}, = draws",
        *(f"    push{i} = rings[{i - 1}].append" for i in stations[1:]),
        *(f"    ring{i} = rings[{i - 1}]" for i in stations[1:]),
        f"    {' = '.join(f'd{i}' for i in stations)} = 0.0",
        "    for a in arrival_times:",
    ]
    for i in stations:
        came = f"d{i - 1}" if i else "a"  # D_{i-1}(n), or the arrival time
        here = f"(({came} if {came} > d{i} else d{i}) + draw{i}())"
        if i < k:
            body += [
                f"        c = {here}",
                f"        free = ring{i + 1}[0]",
                f"        d{i} = c if c > free else free",
            ]
        else:
            body.append(f"        d{i} = {here}")
        if i:
            body.append(f"        push{i}(d{i})")
    body.append(f"        yield a, d0, d{k}")
    namespace: dict = {}
    source = "\n".join(body)
    exec(compile(source, f"<recursion over {num_servers} stations>", "exec"), namespace)
    return namespace["recursion"]


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
    target_departures = as_int(target_departures, "the departure target")
    seed = as_int(seed, "seed")
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

    def last_exit(n: int) -> float:
        """D_K of the n-th customer from here on; the n - 1 before it are skipped."""
        return next(itertools.islice(customers, n - 1, None))[2]

    warmup = int(round(target_departures * WARMUP_FRACTION))
    batch = target_departures // NUM_BATCHES
    departures = warmup + target_departures
    t_warm = last_exit(warmup)
    boundaries = [last_exit(batch) for _ in range(NUM_BATCHES)]
    # fewer than NUM_BATCHES customers follow the last batch
    remainder = target_departures % NUM_BATCHES
    t = last_exit(remainder) if remainder else boundaries[-1]

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
    """Poisson arrival epochs up to and including ``horizon``.

    ``operator.ge`` rather than ``horizon.__ge__``: for an int horizon the
    latter returns NotImplemented, which is truthy, so the stream never ends.
    """
    return itertools.takewhile(
        functools.partial(operator.ge, horizon), itertools.accumulate(gaps)
    )


def simulate_with_arrivals(
    config: TandemConfig, arrival_rate: float, horizon: float, seed: int = 0
) -> ArrivalSimResult:
    """Run the line with a real Poisson arrival stream and track the level.

    The level (headcount at station 0, held customer included) stays
    bounded for arrival rates below the saturation rate and drifts upward
    roughly like (rate - saturation rate) * horizon above it; this run
    exists to demonstrate that empirically. The result echoes ``horizon``
    as given; the run takes it as a float.
    """
    arrival_rate = as_float(arrival_rate, "arrival rate")
    t_end = as_float(horizon, "horizon")
    seed = as_int(seed, "seed")
    if arrival_rate < 0.0:
        raise NegativeArrivalRateError(
            f"arrival rate must be non-negative, got {arrival_rate}"
        )
    if not math.isfinite(arrival_rate):
        raise InputError(f"arrival rate must be finite, got {arrival_rate}")
    if not 0.0 < t_end < math.inf:
        raise InputError(f"horizon must be positive and finite, got {horizon}")
    if not arrival_rate * t_end <= MAX_EXPECTED_ARRIVALS:
        raise InputError(f"arrival_rate * horizon exceeds {MAX_EXPECTED_ARRIVALS:.0e}")
    streams, spare = _spawn_streams(config, seed, extra=1)
    arrival_times = (
        _arrival_times(_exp_draws(spare[0], arrival_rate), t_end)
        if arrival_rate > 0.0
        else ()
    )

    # those gone from station 0, and from the line, by t_end are prefixes of
    # the run (see the module docstring); the first customer still at
    # station 0 at t_end ends the recursion, since every later one is still
    # there too, and the rest need only their arrival times
    area = 0.0  # integral of the level over [0, t_end]
    arrivals = left_first = departures = 0
    customers = _departures(config, streams, arrival_times)
    for arrivals, (a, d_first, d_last) in enumerate(customers, 1):
        if d_first <= t_end:
            area += d_first - a
            left_first = arrivals
            if d_last <= t_end:
                departures = arrivals
        else:
            area += t_end - a
            break
    for arrivals, a in enumerate(arrival_times, arrivals + 1):
        area += t_end - a
    return ArrivalSimResult(
        mean_level=area / t_end,
        final_level=arrivals - left_first,
        departures=departures,
        arrivals=arrivals,
        in_system=arrivals - departures,
        horizon=horizon,
        seed=seed,
    )
