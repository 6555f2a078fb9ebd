"""Phase enumeration, the count recurrence, and index round trips."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tandemqbd import (
    InvalidPhaseError,
    NegativeBufferError,
    StateSpaceTooLargeError,
    count_phases,
    count_phases_closed_form,
    enumerate_phases,
    validate_config,
)
from tandemqbd.phases import place_values


def brute_force_phases(buffers):
    """Independent oracle: filter the raw product by the validity rule."""
    ranges = [range(b + 3) for b in buffers]
    out = []
    for m in itertools.product(*ranges):
        ok = all(
            not (m[i] == 0 and m[i + 1] == buffers[i + 1] + 2)
            for i in range(len(buffers) - 1)
        )
        if ok:
            out.append(m)
    return out


def line(buffers):
    return validate_config([1.0] * (len(buffers) + 1), buffers)


def test_single_buffer_capacity_two():
    space = enumerate_phases(line([2]))
    assert space.phases.tolist() == [[0], [1], [2], [3], [4]]
    assert space.phases.dtype == np.int64
    assert space.num_phases == 5


def test_two_zero_buffers():
    space = enumerate_phases(line([0, 0]))
    assert space.num_phases == 8
    assert [0, 2] not in space.phases.tolist()  # empty-and-blocked is impossible
    assert space.phases[7].tolist() == [2, 2]


@pytest.mark.parametrize("capacity", [0, 1, 2, 5])
def test_single_station_count(capacity):
    assert enumerate_phases(line([capacity])).num_phases == capacity + 3


@pytest.mark.parametrize(
    "buffers",
    [[0], [3], [0, 0], [2, 0], [0, 2], [1, 2, 0], [2, 1], [0, 1, 0, 2],
     [0, 3, 1, 2], [2, 0, 3, 1, 0, 2]],
)
def test_enumeration_matches_brute_force(buffers):
    space = enumerate_phases(line(buffers))
    expected = brute_force_phases(buffers)
    assert [tuple(m) for m in space.phases.tolist()] == expected
    assert count_phases(buffers) == space.num_phases == len(expected)


def test_phases_sorted_and_indexed():
    space = enumerate_phases(line([1, 2]))
    rows = [tuple(m) for m in space.phases.tolist()]
    assert rows == sorted(rows)
    assert len(set(rows)) == space.num_phases
    assert (np.diff(space.codes) > 0).all()
    positions = np.arange(space.num_phases)
    np.testing.assert_array_equal(space.index(space.phases), positions)
    np.testing.assert_array_equal(space.index(space.phases[::-1]), positions[::-1])
    for i, m in enumerate(rows):
        assert space.index(m) == i
    with pytest.raises(ValueError):
        space.phases[0, 0] = 1  # read-only


def test_recurrence_values():
    assert count_phases_closed_form(2, 1) == 5
    assert [count_phases_closed_form(0, k) for k in range(6)] == [1, 3, 8, 21, 55, 144]
    assert count_phases_closed_form(7, 0) == 1


@pytest.mark.parametrize("capacity", range(4))
@pytest.mark.parametrize("stations", range(1, 6))
def test_recurrence_equals_enumeration(capacity, stations):
    space = enumerate_phases(line([capacity] * stations))
    assert space.num_phases == count_phases_closed_form(capacity, stations)


@pytest.mark.parametrize("capacity", range(4))
@pytest.mark.parametrize("stations", range(1, 6))
def test_recurrence_matches_radical_form(capacity, stations):
    # the closed form as a radical expression rounds to the integer recurrence
    root = math.sqrt((capacity + 1) * (capacity + 5))
    plus = (capacity + 3) + root
    minus = (capacity + 3) - root
    value = (plus ** (stations + 1) - minus ** (stations + 1)) / (
        2 ** (stations + 1) * root
    )
    assert abs(value - count_phases_closed_form(capacity, stations)) < 0.5


def test_recurrence_rejects_bad_inputs():
    with pytest.raises(NegativeBufferError):
        count_phases_closed_form(-1, 2)
    with pytest.raises(ValueError):
        count_phases_closed_form(2, -1)


def test_invalid_phase_lookup():
    space = enumerate_phases(line([0, 0]))
    for bad in [(0, 2), (0,), (3, 0), (-1, 0), (0, 3), [[1, 1], [0, 2]]]:
        with pytest.raises(InvalidPhaseError):
            space.index(bad)


def test_codes_are_place_value_sums():
    # place values of capacities [1, 0, 2]: radices 4, 3, 5
    np.testing.assert_array_equal(place_values([1, 0, 2]), [15, 5, 1])
    space = enumerate_phases(line([1, 0, 2]))
    np.testing.assert_array_equal(space.codes, space.phases @ [15, 5, 1])
    np.testing.assert_array_equal(space.locate(space.codes[::-1]),
                                  np.arange(space.num_phases)[::-1])
    # (1, 0, 4) blocks an empty station; the other code is above every phase's
    for missing in (15 + 4, space.codes[-1] + 1):
        with pytest.raises(InvalidPhaseError):
            space.locate(np.array([space.codes[0], missing]))


def test_state_space_cap():
    with pytest.raises(StateSpaceTooLargeError):
        enumerate_phases(line([3] * 8), max_phases=1000)
    with pytest.raises(StateSpaceTooLargeError):
        enumerate_phases(line([0] * 1200), max_phases=10)
    # ~10^12 phases: the count is refused before any array is allocated
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceTooLargeError, match="1000000000003 phases"):
            enumerate_phases(line([10**12]))
        assert tracemalloc.get_traced_memory()[1] < 1_000_000
    finally:
        tracemalloc.stop()


def test_no_stations_single_empty_phase():
    space = enumerate_phases(validate_config([1.0], []))
    assert space.phases.shape == (1, 0)
    assert space.index(()) == 0
