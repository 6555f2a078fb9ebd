"""Transition kernel and block assembly for the level/phase process.

With the first station saturated (level >= 1), the only events that change
the phase are service completions. A completion at server i either passes
the customer downstream, blocks server i when the next station is full, or
— when it frees space behind a chain of blocked servers — collapses the
whole chain in one atomic step. The level drops exactly when that chain
reaches station 0, i.e. when a customer leaves the first station.

Assembly produces one list of rate entries over the phase space: every
completion, tagged with whether it lowers the level, and each phase's
negated exit rate on the diagonal. Split by that tag, the list gives the
two blocks of the repeating generator rows: ``level_same`` for the entries
that keep the level, and ``level_down`` for the ones that lower it by one.
Arrivals would contribute a diagonal block (arrival rate times identity);
they cancel out of every stationary computation done here, so no arrival
rate is ever stored.

:func:`build_blocks` applies the completion rule to the whole phase array
at once and finds each target's position by stepping the source's
lexicographic rank (:func:`~tandemqbd.phases.rank_weights`). The list is
all that the solve and the fold read on a line of one level; the blocks
are built as scipy CSR matrices only when first asked for. A
phase-by-phase version of the same rule lives with the tests
(``tests/scalar_kernel.py``), which require the two to agree.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import TandemConfig
from .phases import PhaseSpace, rank_weights

if TYPE_CHECKING:
    from scipy import sparse


@dataclass(frozen=True, eq=False)
class QbdBlocks:
    """Rate entries of the repeating generator rows, and their two blocks.

    Entry e moves phase ``rows[e]`` to phase ``cols[e]`` at rate
    ``rates[e]`` and lowers the level by one where ``down[e]`` holds. The
    completions come first, grouped by source phase, then one diagonal
    entry per phase: the negated total exit rate (arrival terms excluded,
    they cancel), so each phase's entries sum to zero. The arrays are
    read-only; ``rows`` and ``cols`` are int32 below 2^31 phases.

    ``level_same`` (the entries that keep the level, the diagonal included)
    and ``level_down`` (the others, at most one a row) are canonical CSR
    with int32 indices, built from the entries on first use.
    """

    rows: np.ndarray
    cols: np.ndarray
    rates: np.ndarray
    down: np.ndarray
    num_phases: int

    @functools.cached_property
    def level_same(self) -> sparse.csr_matrix:
        return self.csr(~self.down)

    @functools.cached_property
    def level_down(self) -> sparse.csr_matrix:
        return self.csr(self.down)

    def csr(self, keep: np.ndarray | None = None) -> sparse.csr_matrix:
        """The entries where ``keep`` holds, all of them by default, as CSR.

        Entries are grouped by row with a stable sort, ``indptr`` comes from
        the row counts and ``sort_indices`` puts the columns in order. The
        matrix is canonical, identical across runs, when no (row, col) pair
        is kept twice. That holds for each block: no two completions of a
        phase reach the same phase, and the one completion that keeps its
        phase, on a one-server line, lowers the level, so it never shares
        a block with the diagonal.
        """
        from scipy import sparse  # here, not above: a line of one level never needs it

        n = self.num_phases
        at = np.arange(len(self.rows)) if keep is None else np.flatnonzero(keep)
        at = at[np.argsort(self.rows[at], kind="stable")]
        indptr = np.append(0, np.cumsum(np.bincount(self.rows[at], minlength=n)))
        matrix = sparse.csr_matrix((self.rates[at], self.cols[at], indptr), shape=(n, n))
        matrix.sort_indices()
        return matrix


def build_blocks(config: TandemConfig, space: PhaseSpace) -> QbdBlocks:
    """List the rate entries of the repeating generator rows.

    The completion rule runs on all (phase, eligible server) pairs at once.
    Its release cascade steps toward the front one coordinate a pass, over
    only the entries still releasing, until none is left. Exit rates are
    summed in server order. Raises ValueError when ``space`` was
    enumerated for other buffer capacities; its rates may differ, since
    the phases do not depend on them.
    """
    if space.config.buffer_capacities != config.buffer_capacities:
        raise ValueError(
            f"phases enumerated for buffer capacities {list(space.config.buffer_capacities)}, "
            f"not {list(config.buffer_capacities)}"
        )
    caps = np.asarray(config.buffer_capacities, dtype=np.int64)
    sentinel = caps + 2
    phases = space.phases
    n, k = phases.shape
    always = np.ones((n, 1), dtype=bool)
    has_customer = np.hstack([always, phases != 0])  # column i: station i
    unblocked = np.hstack([phases != sentinel, always])  # column i: server i
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
    # the cascade, one coordinate a pass over the entries still releasing:
    # the coordinate of the station that lost a customer drops by one. A
    # count falls and the cascade ends; a sentinel turns "full" as the
    # customer held upstream slides in, and the station before it loses
    # that customer in turn. It only visits coordinates below the raised
    # one, so phases still holds their values
    live = np.flatnonzero(releasing & (servers > 0))
    j = servers[live] - 1  # coordinate of station j + 1
    while len(live):
        was = phases[rows[live], j]
        cols[live] -= np.where(was == 1, from_zero[j], step[j])
        blocked = was == sentinel[j]
        releasing[live] = blocked
        blocked &= j > 0
        live, j = live[blocked], j[blocked] - 1
    rates = np.asarray(config.service_rates)[servers]
    exit_rate = np.bincount(rows, weights=rates, minlength=n)
    # the diagonal, which keeps the level, balances the row sums
    diag = np.arange(n)
    # positions in scipy's own index type: int32 halves the memory that the
    # list holds through a solve (8 MB at 151,316 phases)
    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    rows, cols = (np.concatenate([a, diag], dtype=index) for a in (rows, cols))
    rates = np.concatenate([rates, -exit_rate])
    # a cascade still releasing has reached station 0: the level drops
    down = np.concatenate([releasing, np.zeros(n, dtype=bool)])
    for array in (rows, cols, rates, down):
        array.flags.writeable = False
    return QbdBlocks(rows, cols, rates, down, num_phases=n)


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
