"""Maximum-throughput analysis of tandem queueing lines with blocking.

The package models a series of exponential servers separated by finite
buffers, fed through an infinite buffer at the front. It computes the exact
saturation arrival rate by building the level/phase rate blocks of the
underlying quasi-birth-death process and solving the stationary phase
equations, and it cross-validates every analytic number with an
independent discrete-event simulation of the physical line.
"""

from .errors import (
    EmptySystemError,
    IneligibleServerError,
    InputError,
    InvalidPhaseError,
    LengthMismatchError,
    NegativeArrivalRateError,
    NegativeBufferError,
    NonPositiveRateError,
    NonPositiveSolutionError,
    NumericalError,
    SingularSystemError,
    StateSpaceTooLargeError,
    TandemQueueError,
    TargetTooSmallError,
)
from .generator import (
    QbdBlocks,
    apply_completion,
    build_blocks,
    eligible_completions,
    triplet_lines,
)
from .model import (
    TandemConfig,
    config_from_document,
    load_config_file,
    validate_config,
)
from .phases import (
    DEFAULT_MAX_PHASES,
    Phase,
    PhaseSpace,
    count_phases,
    count_phases_closed_form,
    enumerate_phases,
)
from .simulate import (
    ArrivalSimResult,
    SimResult,
    simulate_saturated,
    simulate_with_arrivals,
)
from .stationary import StationaryVector, phase_generator, solve_stationary
from .throughput import (
    ThroughputReport,
    closed_form_two_server,
    is_stable,
    lambda_max,
)

__version__ = "0.1.0"

__all__ = [
    "ArrivalSimResult",
    "DEFAULT_MAX_PHASES",
    "EmptySystemError",
    "IneligibleServerError",
    "InputError",
    "InvalidPhaseError",
    "LengthMismatchError",
    "NegativeArrivalRateError",
    "NegativeBufferError",
    "NonPositiveRateError",
    "NonPositiveSolutionError",
    "NumericalError",
    "Phase",
    "PhaseSpace",
    "QbdBlocks",
    "SimResult",
    "SingularSystemError",
    "StateSpaceTooLargeError",
    "StationaryVector",
    "TandemConfig",
    "TandemQueueError",
    "TargetTooSmallError",
    "ThroughputReport",
    "apply_completion",
    "build_blocks",
    "closed_form_two_server",
    "config_from_document",
    "count_phases",
    "count_phases_closed_form",
    "eligible_completions",
    "enumerate_phases",
    "is_stable",
    "lambda_max",
    "load_config_file",
    "phase_generator",
    "simulate_saturated",
    "simulate_with_arrivals",
    "solve_stationary",
    "triplet_lines",
    "validate_config",
]
