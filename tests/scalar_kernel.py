"""The completion rule for one phase at a time: the tests' reference kernel.

``tandemqbd.build_blocks`` applies this rule to the whole phase array at
once; the tests rebuild the blocks phase by phase from the functions here
and require the two to agree entry for entry. A phase is a tuple
(m_1, ..., m_K) with the encoding of ``tandemqbd.phases``.
"""

from __future__ import annotations

from tandemqbd import InputError, TandemConfig

Phase = tuple[int, ...]


class IneligibleServerError(InputError):
    """A service completion was requested for a server that cannot complete."""


def eligible_completions(config: TandemConfig, m: Phase) -> tuple[int, ...]:
    """Servers that can finish a service next, in ascending order.

    Server 0 always has work (the level is assumed >= 1) and is eligible
    unless blocked; a downstream server needs at least one customer and
    must not be blocked itself.
    """
    k = config.num_buffers
    out = []
    for i in range(k + 1):
        if i >= 1 and m[i - 1] == 0:
            continue
        if i < k and m[i] == config.buffer_capacities[i] + 2:
            continue
        out.append(i)
    return tuple(out)


def apply_completion(config: TandemConfig, m: Phase, server: int) -> tuple[Phase, int]:
    """New phase and level step (0 or -1) when ``server`` completes a service.

    The completed customer enters the next station if there is room, turns
    ``server`` into a blocked one if the next station is full, or departs
    from the last server. Whenever the customer actually leaves its
    station, the freed slot is refilled from a blocked upstream server if
    one is waiting, and the refill cascades toward the front of the line.
    The level drops iff the cascade reaches station 0.
    """
    if server not in eligible_completions(config, m):
        raise IneligibleServerError(
            f"server {server} cannot complete a service in phase {m}"
        )
    caps = config.buffer_capacities
    k = config.num_buffers
    new = list(m)
    level_delta = 0

    def release(j: int) -> None:
        """Station j just lost a customer; pull from a blocked chain."""
        nonlocal level_delta
        if j == 0:
            level_delta = -1  # the customer left station 0
            return
        if new[j - 1] == caps[j - 1] + 2:
            new[j - 1] = caps[j - 1] + 1  # held customer slides in
            release(j - 1)
        else:
            new[j - 1] -= 1

    if server == k:
        release(k)  # departure from the line
    elif new[server] <= caps[server]:
        new[server] += 1  # room downstream: customer moves on
        release(server)
    else:
        # next station is at B+1: the server holds the customer and blocks
        new[server] = caps[server] + 2

    return tuple(new), level_delta
