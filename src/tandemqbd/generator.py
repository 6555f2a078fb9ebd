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
at once, finds each target's position by stepping the source's
lexicographic rank (:func:`~tandemqbd.phases.rank_weights`), and writes
each block's CSR arrays directly, without a COO intermediate. A
phase-by-phase version of the same rule lives with the tests
(``tests/scalar_kernel.py``), which require the two to agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import TandemConfig
from .phases import PhaseSpace, rank_weights

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
    rates are summed in server order. Each block is built from its CSR
    arrays: the entries grouped by row with a stable sort, ``indptr`` from
    the row counts, the columns put in order by ``sort_indices``. No
    completion keeps its phase and no two reach the same one, so no
    (row, col) pair repeats: the blocks are canonical CSR, identical across
    runs. Raises ValueError when ``space`` was enumerated for other buffer
    capacities; its rates may differ, since the phases do not depend on them.
    """
    from scipy import sparse  # here, not above: simulate and phases never load it

    if space.config.buffer_capacities != config.buffer_capacities:
        raise ValueError(
            f"phases enumerated for buffer capacities {list(space.config.buffer_capacities)}, "
            f"not {list(config.buffer_capacities)}"
        )
    caps = np.asarray(config.buffer_capacities, dtype=np.int64)
    phases = space.phases
    n, k = phases.shape
    always = np.ones((n, 1), dtype=bool)
    has_customer = np.hstack([always, phases != 0])  # column i: station i
    unblocked = np.hstack([phases != caps + 2, always])  # column i: server i
    rows, servers = np.nonzero(has_customer & unblocked)  # row-major order
    # each target is tracked by its position, starting at the source's row:
    # coordinate i stepping between 0 and 1 moves it by rank_weights'
    # first[i + 1], any other step by one moves it by rest[i + 1]
    from_zero, step = (np.array(w[1:], dtype=np.int64) for w in rank_weights(caps))
    cols = rows.copy()
    releasing = np.ones(len(rows), dtype=bool)
    moving = np.flatnonzero(servers < k)
    at = servers[moving]
    # a move (if room) releases station i, a block does not; both raise coordinate i
    was = phases[rows[moving], at]
    releasing[moving] = was <= caps[at]
    cols[moving] += np.where(was == 0, from_zero[at], step[at])
    station = servers.copy()  # the station that lost a customer
    for _ in range(k):
        # its coordinate drops by one: a count falls, or a sentinel turns
        # "full" as the customer held upstream slides in, releasing the
        # station before it in turn. The cascade only visits coordinates
        # below the raised one, so phases still holds their values
        live = np.flatnonzero(releasing & (station > 0))
        j = station[live] - 1  # coordinate of station j + 1
        was = phases[rows[live], j]
        releasing[live] = was == caps[j] + 2
        cols[live] -= np.where(was == 1, from_zero[j], step[j])
        station[live] = j
    rates = np.asarray(config.service_rates)[servers]
    exit_rate = np.bincount(rows, weights=rates, minlength=n)
    # the diagonal, in the level-preserving block, balances the row sums
    diag = np.arange(n)
    rows, cols = np.concatenate([rows, diag]), np.concatenate([cols, diag])
    rates = np.concatenate([rates, -exit_rate])
    # a cascade still releasing has reached station 0: the level drops
    down = np.concatenate([releasing, np.zeros(n, dtype=bool)])
    # row-major entries, then the diagonal: the stable sort merges two runs
    order = np.argsort(rows, kind="stable")
    in_down = down[order]
    blocks = []
    for at in (order[~in_down], order[in_down]):
        indptr = np.append(0, np.cumsum(np.bincount(rows[at], minlength=n)))
        blocks.append(sparse.csr_matrix((rates[at], cols[at], indptr), shape=(n, n)))
        blocks[-1].sort_indices()
    return QbdBlocks(*blocks, num_phases=n)


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
