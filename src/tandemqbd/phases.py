"""Counting, enumeration and indexing of the downstream-station states.

A phase is a K-vector (m_1, ..., m_K): m_i is the number of customers at
station i (buffer plus the one at the server), except that the sentinel
value m_i = B_i + 2 means station i holds B_i + 1 customers *and* is
blocking the server upstream of it. A station cannot be empty while the
station after it carries the blocking sentinel, which couples adjacent
coordinates and makes the count grow slower than the raw product.

A phase space is one (M, K) integer array, a phase per row, in ascending
lexicographic order, which is also the order of the rows' mixed-radix
codes: a binary search over the codes finds the position of any row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from .errors import (
    InputError,
    InvalidPhaseError,
    NegativeBufferError,
    StateSpaceTooLargeError,
)
from .model import TandemConfig

# sized for the GMRES tier of the stationary solve on a 2-vCPU host with
# 7 GB: it solves [1]*10, B=1 (151,316 phases) in about 3 s and 280 MB.
# Lines that sparse LU takes have a lower default cap, SPARSE_LU_MAX_PHASES
DEFAULT_MAX_PHASES = 200_000


def place_values(caps: Sequence[int]) -> np.ndarray:
    """Place value of each coordinate in a phase's mixed-radix code.

    Digit i is m_i, with radix B_i + 3, so its place value is the product
    of the radices after it.
    """
    place = np.ones(len(caps), dtype=np.int64)
    for i in range(len(caps) - 1, 0, -1):
        place[i - 1] = place[i] * (caps[i] + 3)
    return place


def _codes(rows: np.ndarray, caps: Sequence[int]) -> np.ndarray:
    """Mixed-radix codes of phase rows (see :func:`place_values`).

    Codes stay below the product of the radices, which is at most M**1.59
    for M phases, so they fit in int64 whenever the rows fit in memory.
    """
    return rows @ place_values(caps)


@dataclass(frozen=True, eq=False)
class PhaseSpace:
    """All valid phases of a line, one per row, in lexicographic order.

    ``codes[r]`` is the code of ``phases[r]`` and increases with r. Both
    arrays are read-only, so a space is safe for concurrent reads.
    """

    config: TandemConfig
    phases: np.ndarray
    codes: np.ndarray = field(repr=False)

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    def index(self, rows: ArrayLike) -> np.ndarray:
        """Position of each phase in ``rows`` (one phase or an array of them).

        Raises InvalidPhaseError if any row is not a phase of this line.
        """
        caps = self.config.buffer_capacities
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape[-1:] != (len(caps),):
            raise InvalidPhaseError(f"a phase has {len(caps)} values: {rows.shape}")
        in_range = ((rows >= 0) & (rows <= np.asarray(caps) + 2)).all(axis=-1)
        pos, found = self._search(_codes(rows, caps))
        found = in_range & found
        if not found.all():
            bad = rows.reshape(-1, len(caps))[~found.ravel()][0]
            raise InvalidPhaseError(f"{tuple(bad.tolist())} is not a phase of the line")
        return pos

    def locate(self, codes: np.ndarray) -> np.ndarray:
        """Position of the phase with each of these codes.

        Raises InvalidPhaseError if any code is not that of a phase of this
        line.
        """
        pos, found = self._search(codes)
        if not found.all():
            raise InvalidPhaseError(
                f"code {codes[~found][0]} is not that of a phase of the line"
            )
        return pos

    def _search(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pos = np.searchsorted(self.codes, codes).clip(max=self.num_phases - 1)
        return pos, self.codes[pos] == codes


def count_phases(buffer_capacities: Sequence[int]) -> int:
    """Exact phase count of a line with these (non-negative) capacities.

    Counts prefixes ending in an empty station (``zero``) and in an occupied
    one (``rest``; station 0 is never empty). Only an occupied station may
    be followed by the sentinel. Python integers do not overflow.
    """
    zero, rest = 0, 1
    for b in buffer_capacities:
        zero, rest = zero + rest, zero * (b + 1) + rest * (b + 2)
    return zero + rest


def enumerate_phases(
    config: TandemConfig, max_phases: int = DEFAULT_MAX_PHASES
) -> PhaseSpace:
    """Enumerate all valid phases of ``config`` in lexicographic order.

    A line with more than ``max_phases`` phases raises
    StateSpaceTooLargeError before anything is allocated. Rows grow one
    coordinate at a time: each row is repeated once per value of the new
    coordinate, and rows where it blocks an empty station are dropped.
    """
    caps = config.buffer_capacities
    count = count_phases(caps)
    if count > max_phases:
        # math.log10 takes any int; float(count) overflows past 10^308
        shown = count if count <= 10**15 else f"about 10^{int(math.log10(count))}"
        raise StateSpaceTooLargeError(
            f"line has {shown} phases, above the cap of {max_phases}; raise "
            "max_phases (--max-states on the command line) to analyze this line"
        )
    phases = np.zeros((1, 0), dtype=np.int64)
    for i, b in enumerate(caps):
        values = np.tile(np.arange(b + 3, dtype=np.int64), len(phases))
        phases = np.column_stack([np.repeat(phases, b + 3, axis=0), values])
        if i > 0:
            phases = phases[(values != b + 2) | (phases[:, i - 1] != 0)]
    codes = _codes(phases, caps)
    phases.flags.writeable = codes.flags.writeable = False
    return PhaseSpace(config=config, phases=phases, codes=codes)


def count_phases_closed_form(buffer_capacity: int, num_stations: int) -> int:
    """Validated :func:`count_phases` for stations sharing one capacity B.

    It satisfies c_k = (B + 3) c_{k-1} - c_{k-2}, c_0 = 1, c_1 = B + 3."""
    if buffer_capacity < 0:
        raise NegativeBufferError("buffer capacity must be non-negative")
    if num_stations < 0:
        raise InputError("station count must be non-negative")
    return count_phases([buffer_capacity] * num_stations)
