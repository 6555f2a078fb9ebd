"""Counting, enumeration and indexing of the downstream-station states.

A phase is a K-vector (m_1, ..., m_K): m_i is the number of customers at
station i (buffer plus the one at the server), except that the sentinel
value m_i = B_i + 2 means station i holds B_i + 1 customers *and* is
blocking the server upstream of it. A station cannot be empty while the
station after it carries the blocking sentinel, which couples adjacent
coordinates and makes the count grow slower than the raw product.

A phase space is one (M, K) integer array, a phase per row, in ascending
lexicographic order. A phase's position in that order is a sum of one term
per coordinate, with weights from the recurrence that counts the phases
(:func:`rank_weights`), so no lookup table is needed to find a row, and
the same weights decode each row from its position.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from .errors import (
    InputError,
    InvalidPhaseError,
    NegativeBufferError,
    StateSpaceTooLargeError,
)
from .model import TandemConfig, as_int

# sized for both solvers of the stationary solve on a 2-vCPU host with
# 7 GB: `analyze` solves [1]*10, B=1 (151,316 phases) by GMRES in
# 1.6-1.9 s and 236 MB, and, by level reduction, [1,1,1], B=[440,440]
# (196,248 phases, 883 levels of up to 443 phases) in 4.8-6.2 s and
# 575 MB and [1,1], B=199000 (199,002 levels of one or two phases) in
# 7.2 s and 257 MB
DEFAULT_MAX_PHASES = 200_000


def _count_step(pair: tuple[int, int], b: int) -> tuple[int, int]:
    """One step of the counting recurrence: (first, rest) of a tail of
    stations (see :func:`rank_weights`), extended in front by a station of
    capacity ``b``."""
    first, rest = pair
    first += (b + 1) * rest
    return first, first + rest


def rank_weights(caps: Sequence[int]) -> tuple[list[int], list[int]]:
    """Weights of the lexicographic rank of a phase, as Python ints.

    ``first[i]`` counts the valid tails (m_i, ..., m_{K-1}) that follow an
    empty station i - 1, where the sentinel at i is barred; ``rest[i]``
    counts those that follow an occupied one. Both are 1 for the empty tail
    (i = K), and ``rest[0]`` is the phase count (station 0 is never empty).
    Every value below m_i is a non-sentinel, valid whatever precedes it, so
    the phases before m number sum_i [m_i >= 1] first[i+1]
    + max(m_i - 1, 0) rest[i+1].
    """
    pairs = list(itertools.accumulate(reversed(caps), _count_step, initial=(1, 1)))
    first, rest = zip(*pairs[::-1])
    return list(first), list(rest)


@dataclass(frozen=True, eq=False)
class PhaseSpace:
    """All valid phases of a line, one per row, in lexicographic order.

    ``phases`` is read-only, so a space is safe for concurrent reads.
    """

    config: TandemConfig
    phases: np.ndarray

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    def index(self, rows: ArrayLike) -> np.ndarray:
        """Position of each phase in ``rows`` (one phase or an array of them).

        Raises InvalidPhaseError if any row is not a phase of this line,
        including a row whose values are not integers (floats, bools or
        strings are not cast).
        """
        caps = self.config.buffer_capacities
        rows = np.asarray(rows)
        if rows.size and rows.dtype.kind not in "iu":
            raise InvalidPhaseError(f"a phase's values are integers, not {rows.dtype}")
        rows = rows.astype(np.int64, copy=False)
        if rows.shape[-1:] != (len(caps),):
            raise InvalidPhaseError(f"a phase has {len(caps)} values: {rows.shape}")
        sentinel = np.asarray(caps, dtype=np.int64) + 2
        valid = ((rows >= 0) & (rows <= sentinel)).all(axis=-1)
        # no station may be empty while the one after it blocks
        valid &= ~((rows[..., :-1] == 0) & (rows[..., 1:] == sentinel[1:])).any(axis=-1)
        if not valid.all():
            bad = rows.reshape(-1, len(caps))[~valid.ravel()][0]
            raise InvalidPhaseError(f"{tuple(bad.tolist())} is not a phase of the line")
        first, rest = (np.array(w[1:], dtype=np.int64) for w in rank_weights(caps))
        return (rows >= 1) @ first + (rows - 1).clip(min=0) @ rest


def count_phases(buffer_capacities: Sequence[int]) -> int:
    """Exact phase count of a line with these (non-negative) capacities.

    Python integers do not overflow. The recurrence of :func:`rank_weights`
    is folded keeping only its last pair, so memory is that of the count
    itself: all the weights of 20,000 stations would take tens of
    megabytes, and they grow with the square of the station count.
    """
    return functools.reduce(_count_step, reversed(buffer_capacities), (1, 1))[1]


def _log10_count(caps: Sequence[int]) -> float:
    """log10 of :func:`count_phases`, by the same recurrence in floats.

    One pass, rescaled whenever the pair passes 1e100, so it takes O(K)
    time where the exact count takes O(K^2). The sums are of positive
    terms, so the relative error stays within a few units in the last
    place per station. A capacity past 1e100 gives inf.
    """
    if max(caps, default=0) > 1e100:
        return math.inf
    first, rest, log = 1.0, 1.0, 0.0
    for b in reversed(caps):
        first += (b + 1) * rest
        rest += first
        if rest > 1e100:
            first, rest, log = first / rest, 1.0, log + math.log10(rest)
    return log + math.log10(rest)


def enumerate_phases(
    config: TandemConfig, max_phases: int = DEFAULT_MAX_PHASES
) -> PhaseSpace:
    """Enumerate all valid phases of ``config`` in lexicographic order.

    A cap that is not an integer (a bool included) or is below 1 raises
    InputError, and a line with more than ``max_phases`` phases, or one
    whose array would not fit in the address space, raises
    StateSpaceTooLargeError, both before anything is allocated; so does
    an allocation that fails on the way. The rows are
    decoded from their positions, :meth:`PhaseSpace.index` run backwards
    one coordinate at a time with the weights of :func:`rank_weights`:
    with the tails left to place numbered from 0, the first first[i + 1]
    have coordinate i at 0 and leave the number as it is; past those,
    each block of rest[i + 1] is one more customer, and the number becomes
    the place within the block. No sentinel comes up behind an empty
    station, since first[i + 1] counts only the tails that bar it.
    """
    max_phases = as_int(max_phases, "max_phases (--max-states on the command line)")
    if max_phases < 1:
        raise InputError(
            f"max_phases (--max-states on the command line) must be at least 1, "
            f"got {max_phases}"
        )
    caps = config.buffer_capacities
    log_count = _log10_count(caps)
    # past 10^16 phases, far above any cap below 10^15, the float count is
    # enough to refuse a line; the exact one takes seconds at 200,000 stations
    if 16.0 <= log_count < math.inf and max_phases < 10**15:
        count, shown = None, f"about 10^{int(log_count)}"
    else:
        count = count_phases(caps)
        # math.log10 takes any int; float(count) overflows past 10^308
        shown = count if count <= 10**15 else f"about 10^{int(math.log10(count))}"
    if count is None or count > max_phases:
        raise StateSpaceTooLargeError(
            f"line has {shown} phases, above the cap of {max_phases}; raise "
            "max_phases (--max-states on the command line) to analyze this line"
        )
    k = len(caps)
    if count * k * 8 > sys.maxsize:
        raise StateSpaceTooLargeError(
            f"line has {shown} phases, whose array of {count * k * 8:.3e} bytes "
            "is past what this platform can address"
        )
    first, rest = rank_weights(caps)
    try:
        phases = np.empty((count, k), dtype=np.int64)  # the largest array first
        position = np.arange(count, dtype=np.int64)
        for i, column in enumerate(phases.T):
            # shifted by rest - first, the numbers below first (a 0 here) end
            # the first block of rest, quotient 0, and each later block is
            # one more customer; a 0 keeps the number as it was, unshifted
            shift = rest[i + 1] - first[i + 1]
            np.divmod(position + shift, rest[i + 1], out=(column, position))
            np.subtract(position, shift, out=position, where=column == 0)
    except MemoryError as exc:
        raise StateSpaceTooLargeError(
            f"line has {shown} phases, more than memory holds for their array"
        ) from exc
    phases.flags.writeable = False
    return PhaseSpace(config=config, phases=phases)


def count_phases_closed_form(buffer_capacity: int, num_stations: int) -> int:
    """Validated :func:`count_phases` for stations sharing one capacity B.

    It satisfies c_k = (B + 3) c_{k-1} - c_{k-2}, c_0 = 1, c_1 = B + 3."""
    if buffer_capacity < 0:
        raise NegativeBufferError("buffer capacity must be non-negative")
    if num_stations < 0:
        raise InputError("station count must be non-negative")
    return count_phases([buffer_capacity] * num_stations)
