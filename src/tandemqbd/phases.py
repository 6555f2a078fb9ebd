"""Enumeration, counting, and indexing of the downstream-station states.

A phase is a K-tuple (m_1, ..., m_K): m_i is the number of customers at
station i (buffer plus the one at the server), except that the sentinel
value m_i = B_i + 2 means station i holds B_i + 1 customers *and* is
blocking the server upstream of it. A station cannot be empty while the
station after it carries the blocking sentinel, which couples adjacent
coordinates and makes the count grow slower than the raw product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .errors import (
    IndexOutOfRangeError,
    InputError,
    InvalidPhaseError,
    NegativeBufferError,
    StateSpaceTooLargeError,
)
from .model import TandemConfig

Phase = tuple[int, ...]

DEFAULT_MAX_PHASES = 200_000


@dataclass(frozen=True)
class PhaseSpace:
    """All valid phases of a line, in ascending lexicographic order.

    ``index_of`` is the exact inverse of ``phases``; both are fixed at
    construction and safe for concurrent reads.
    """

    config: TandemConfig
    phases: tuple[Phase, ...]
    index_of: Mapping[Phase, int] = field(repr=False)

    @property
    def num_phases(self) -> int:
        return len(self.phases)


def is_valid_phase(config: TandemConfig, m: Phase) -> bool:
    """True iff ``m`` satisfies the occupancy bounds and the blocking rule."""
    caps = config.buffer_capacities
    if len(m) != len(caps):
        return False
    for i, v in enumerate(m):
        if not 0 <= v <= caps[i] + 2:
            return False
        # a station cannot be empty while blocked by the next one
        if i > 0 and m[i - 1] == 0 and v == caps[i] + 2:
            return False
    return True


def _generate(caps: tuple[int, ...]) -> Iterator[Phase]:
    """Yield valid phases lexicographically.

    An odometer: bump the rightmost coordinate that can still grow and zero
    the ones after it. No coordinate may reach the blocking sentinel while
    the one before it is zero.
    """
    tops = [c + 2 for c in caps]
    m = [0] * len(caps)
    while True:
        yield tuple(m)
        i = len(m) - 1
        while i >= 0 and (
            m[i] == tops[i] or (m[i] + 1 == tops[i] and i > 0 and m[i - 1] == 0)
        ):
            i -= 1
        if i < 0:
            return
        m[i] += 1
        m[i + 1 :] = [0] * (len(m) - i - 1)


def enumerate_phases(
    config: TandemConfig, max_phases: int = DEFAULT_MAX_PHASES
) -> PhaseSpace:
    """Enumerate all valid phases of ``config`` in lexicographic order.

    Raises StateSpaceTooLargeError as soon as the count passes
    ``max_phases``; nothing is paged or truncated.
    """
    caps = config.buffer_capacities
    phases: list[Phase] = []
    for m in _generate(caps):
        if len(phases) >= max_phases:
            raise StateSpaceTooLargeError(
                f"phase count exceeds the cap of {max_phases}; raise max_phases "
                "to analyze this line"
            )
        phases.append(m)
    out = tuple(phases)
    return PhaseSpace(
        config=config,
        phases=out,
        index_of={m: i for i, m in enumerate(out)},
    )


def count_phases_closed_form(buffer_capacity: int, num_stations: int) -> int:
    """Exact phase count for ``num_stations`` stations sharing one capacity.

    Evaluates the linear recurrence c_0 = 1, c_1 = B + 3,
    c_k = (B + 3) c_{k-1} - c_{k-2} in exact integer arithmetic. The
    recurrence solves the same characteristic equation
    x^2 - (B + 3) x + 1 = 0 as the radical expression for the count, so the
    two agree exactly; the integer form cannot lose precision. Python
    integers are unbounded, so no overflow is possible.
    """
    if buffer_capacity < 0:
        raise NegativeBufferError("buffer capacity must be non-negative")
    if num_stations < 0:
        raise InputError("station count must be non-negative")
    prev, cur = 1, buffer_capacity + 3
    if num_stations == 0:
        return prev
    for _ in range(num_stations - 1):
        prev, cur = cur, (buffer_capacity + 3) * cur - prev
    return cur


def phase_index(space: PhaseSpace, m: Phase) -> int:
    """Position of phase ``m`` in the canonical ordering."""
    m = tuple(m)
    try:
        return space.index_of[m]
    except KeyError:
        raise InvalidPhaseError(f"{m} is not a valid phase of this line") from None


def phase_at(space: PhaseSpace, idx: int) -> Phase:
    """Inverse of :func:`phase_index`: the phase at position ``idx``."""
    if not 0 <= idx < space.num_phases:
        raise IndexOutOfRangeError(
            f"phase index {idx} outside 0..{space.num_phases - 1}"
        )
    return space.phases[idx]
