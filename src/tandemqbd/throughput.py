"""Saturation throughput of a tandem line and the stability verdict.

The saturation arrival rate is the expected level-decreasing rate under the
stationary phase distribution: the line is stable for arrival rates below
it and drifts without bound above it. For two servers the phase process is
a birth-death chain and the same quantity has a closed form, kept here as
an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NegativeArrivalRateError
from .model import TandemConfig
from .phases import DEFAULT_MAX_PHASES, enumerate_phases
from .generator import QbdBlocks, build_blocks
from .stationary import phase_generator, solve_stationary


@dataclass(frozen=True)
class ThroughputReport:
    """Result of one analysis: the saturation rate plus diagnostics.

    ``closed_form`` is filled only for two-server lines, where the
    birth-death reference below applies; it should match ``lambda_max`` to
    solver precision and is surfaced so any disagreement is visible.
    ``blocks`` are the rate blocks the answer was solved from.
    """

    config: TandemConfig
    lambda_max: float
    num_phases: int
    pi: np.ndarray
    residual: float
    blocks: QbdBlocks = field(repr=False)
    closed_form: float | None = None


def lambda_max(
    config: TandemConfig, max_phases: int = DEFAULT_MAX_PHASES
) -> ThroughputReport:
    """Exact saturation arrival rate of a tandem line.

    Builds the phase space and rate blocks, solves the stationary phase
    equations, and folds the stationary vector with the level-decreasing
    row sums. A single-server line has one empty phase, so pi = [1] and the
    fold returns its only service rate exactly.
    """
    space = enumerate_phases(config, max_phases=max_phases)
    blocks = build_blocks(config, space)
    stat = solve_stationary(phase_generator(blocks))
    down_rates = np.asarray(blocks.level_down.sum(axis=1)).ravel()
    rate = float(stat.pi @ down_rates)
    closed = None
    if config.num_servers == 2:
        closed = closed_form_two_server(
            config.service_rates[0],
            config.service_rates[1],
            config.buffer_capacities[0],
        )
    return ThroughputReport(
        config=config,
        lambda_max=rate,
        num_phases=space.num_phases,
        pi=stat.pi,
        residual=stat.residual,
        closed_form=closed,
        blocks=blocks,
    )


def is_stable(config: TandemConfig, arrival_rate: float) -> bool:
    """True iff the line absorbs Poisson arrivals at ``arrival_rate``.

    Stability is strict: at the saturation rate itself the level drifts,
    so the predicate is False there.
    """
    if math.isnan(arrival_rate):
        raise InputError("arrival rate must be a number, got nan")
    if arrival_rate < 0.0:
        raise NegativeArrivalRateError(
            f"arrival rate must be non-negative, got {arrival_rate}"
        )
    return arrival_rate < lambda_max(config).lambda_max


def closed_form_two_server(mu0: float, mu1: float, buffer_capacity: int) -> float:
    """Saturation rate of a two-server line with one buffer of capacity B.

    The phase process is a birth-death chain on 0..B+2 with up rate mu0 and
    down rate mu1, so its stationary weights are geometric in rho = mu0/mu1.
    The level decreases at rate mu0 from occupancies 0..B (the first server
    can hand its customer over) and at rate mu1 from the blocked top state:

        lambda_max = (mu0 * sum_{j=0..B} rho^j + mu1 * rho^(B+2))
                     / sum_{j=0..B+2} rho^j

    At mu0 = mu1 = mu this reduces to mu (B+2)/(B+3). For rho > 1 both sums
    are divided by rho^(B+2), so every power lies in [0, 1] and none
    overflows.
    """
    b = buffer_capacity
    if mu0 <= mu1:
        powers = [(mu0 / mu1) ** j for j in range(b + 3)]
        num = mu0 * sum(powers[: b + 1]) + mu1 * powers[b + 2]
    else:
        powers = [(mu1 / mu0) ** j for j in range(b + 3)]
        num = mu0 * sum(powers[2:]) + mu1
    return num / sum(powers)
