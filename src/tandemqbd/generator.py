"""Transition kernel and block assembly for the level/phase process.

With the first station saturated (level >= 1), the only events that change
the phase are service completions. A completion at server i either passes
the customer downstream, blocks server i when the next station is full, or
— when it frees space behind a chain of blocked servers — collapses the
whole chain in one atomic step. The level drops exactly when that chain
reaches station 0, i.e. when a customer leaves the first station.

Two blocks are assembled over the phase space: ``level_same`` for
phase-changing completions that keep the level, and ``level_down`` for the
ones that lower it by one. Arrivals would contribute a diagonal block
(arrival rate times identity); they cancel out of every stationary
computation done here, so no arrival rate is ever stored.

:func:`build_blocks` applies the completion rule to the whole phase array
at once. A phase-by-phase version of the same rule lives with the tests
(``tests/scalar_kernel.py``), which require the two to agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import TandemConfig
from .phases import PhaseSpace, place_values

if TYPE_CHECKING:
    from scipy import sparse


@dataclass(frozen=True)
class QbdBlocks:
    """Sparse rate blocks of the repeating generator rows.

    ``level_same`` carries the level-preserving rates; its diagonal holds
    the negated total exit rate of each phase (arrival terms excluded, they
    cancel). ``level_down`` carries the level-decreasing rates and has at
    most one entry per row. Row r of level_same + level_down sums to zero.
    """

    level_same: sparse.csr_matrix
    level_down: sparse.csr_matrix
    num_phases: int


def build_blocks(config: TandemConfig, space: PhaseSpace) -> QbdBlocks:
    """Assemble the level-preserving and level-decreasing rate blocks.

    The completion rule runs on all (phase, eligible server) pairs at once,
    its release cascade as at most K masked passes toward the front. Exit
    rates are summed in server order and the CSR matrices are canonical,
    so the blocks are identical across runs.
    """
    from scipy import sparse  # here, not above: simulate and phases never load it

    caps = np.asarray(config.buffer_capacities, dtype=np.int64)
    phases = space.phases
    n, k = phases.shape
    always = np.ones((n, 1), dtype=bool)
    has_customer = np.hstack([always, phases != 0])  # column i: station i
    unblocked = np.hstack([phases != caps + 2, always])  # column i: server i
    rows, servers = np.nonzero(has_customer & unblocked)  # row-major order
    # each target is tracked by its code: a coordinate that rises or falls
    # by one moves the code by that coordinate's place value
    place = place_values(caps)
    codes = space.codes[rows]  # fancy indexing copies
    releasing = np.ones(len(rows), dtype=bool)
    moving = np.flatnonzero(servers < k)
    at = servers[moving]
    # a move (if room) releases station i, a block does not; both raise coordinate i
    releasing[moving] = phases[rows[moving], at] <= caps[at]
    codes[moving] += place[at]
    station = servers.copy()  # the station that lost a customer
    for _ in range(k):
        # its coordinate drops by one: a count falls, or a sentinel turns
        # "full" as the customer held upstream slides in, releasing the
        # station before it in turn. The cascade only visits coordinates
        # below the raised one, so phases still holds their values
        live = np.flatnonzero(releasing & (station > 0))
        j = station[live] - 1  # coordinate of station j + 1
        releasing[live] = phases[rows[live], j] == caps[j] + 2
        codes[live] -= place[j]
        station[live] = j
    cols = space.locate(codes)
    rates = np.asarray(config.service_rates)[servers]
    exit_rate = np.bincount(rows, weights=rates, minlength=n)
    # the diagonal, in the level-preserving block, balances the row sums
    diag = np.arange(n)
    rows, cols = np.concatenate([rows, diag]), np.concatenate([cols, diag])
    rates = np.concatenate([rates, -exit_rate])
    # a cascade still releasing has reached station 0: the level drops
    down = np.concatenate([releasing, np.zeros(n, dtype=bool)])
    level_same, level_down = (
        sparse.csr_matrix((rates[m], (rows[m], cols[m])), shape=(n, n))
        for m in (~down, down)
    )
    return QbdBlocks(level_same, level_down, num_phases=n)


def triplet_lines(matrix: sparse.csr_matrix) -> list[str]:
    """Render a sparse block as "row col value" lines, row-major.

    Values use 17 significant digits, enough to round-trip a double, so the
    dump is byte-stable for identical inputs.
    """
    coo = matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    return [
        f"{coo.row[i]} {coo.col[i]} {coo.data[i]:.17g}"
        for i in order
    ]
