"""Exception hierarchy for tandem-line analysis.

Two families matter operationally: :class:`InputError` covers everything a
caller can fix (bad rates, bad buffers, invalid phases, undersized
simulation targets) and maps to CLI exit code 2; :class:`NumericalError`
covers failures inside the stationary solve and maps to exit code 3.
"""


class TandemQueueError(Exception):
    """Base class for all errors raised by this package."""


class InputError(TandemQueueError, ValueError):
    """Invalid input or model state supplied by the caller."""


class NumericalError(TandemQueueError, ArithmeticError):
    """The stationary solve failed in a way that signals a model bug."""


class NonPositiveRateError(InputError):
    """A service rate is not a positive finite number (a bool or a string is
    not a number), or the rates' sum is not finite."""


class NegativeBufferError(InputError):
    """A buffer capacity is negative."""


class LengthMismatchError(InputError):
    """len(service_rates) != len(buffer_capacities) + 1."""


class EmptySystemError(InputError):
    """No servers at all."""


class StateSpaceTooLargeError(InputError):
    """The phase count would exceed the configured cap."""


class InvalidPhaseError(InputError):
    """A phase violates the occupancy bounds or the blocking rule."""


class NegativeArrivalRateError(InputError):
    """An arrival rate is negative."""


class TargetTooSmallError(InputError):
    """The simulation departure target is below the supported minimum."""


class SingularSystemError(NumericalError):
    """Rank deficiency beyond the expected one-dimensional null space."""


class NonPositiveSolutionError(NumericalError):
    """The solved stationary vector has a significantly negative entry."""
