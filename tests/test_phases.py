"""Phase enumeration, the count recurrence, and index round trips."""

import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandemqbd import (
    InputError,
    InvalidPhaseError,
    NegativeBufferError,
    StateSpaceTooLargeError,
    count_phases,
    count_phases_closed_form,
    enumerate_phases,
    lambda_max,
    validate_config,
)
from tandemqbd.phases import _log10_count, rank_weights


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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 8), min_size=1, max_size=4))
def test_enumeration_matches_brute_force_on_random_lines(buffers):
    rows = [tuple(m) for m in enumerate_phases(line(buffers)).phases.tolist()]
    assert rows == brute_force_phases(buffers)
    assert all(a < b for a, b in zip(rows, rows[1:]))  # strictly increasing


def test_phases_sorted_and_indexed():
    space = enumerate_phases(line([1, 2]))
    rows = [tuple(m) for m in space.phases.tolist()]
    assert rows == sorted(rows)
    assert len(set(rows)) == space.num_phases
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
    # (1, 0, 4) blocks an empty station; (1, 0, 5) is out of range
    space = enumerate_phases(line([1, 0, 2]))
    for bad in [(1, 0, 4), (1, 0, 5), [[0, 0, 0], [1, 0, 4]]]:
        with pytest.raises(InvalidPhaseError, match=r"\(1, 0, [45]\)"):
            space.index(bad)


@pytest.mark.parametrize("bad", [(1.7, 0), ("a", 0), [True, False]])
def test_phase_lookup_rejects_non_integers(bad):
    # (1.7, 0) used to be truncated to (1, 0) and ("a", 0) raised a bare
    # ValueError; (True, False) is not the phase (1, 0) either
    space = enumerate_phases(line([0, 0]))
    with pytest.raises(InvalidPhaseError, match="integers"):
        space.index(bad)
    assert space.index((1, 0)) == 2


def test_rank_is_a_weighted_sum():
    # capacities [1, 0, 2]: tails after an empty / an occupied station
    first, rest = rank_weights([1, 0, 2])
    assert (first, rest) == ([37, 9, 4, 1], [51, 14, 5, 1])
    assert rest[0] == count_phases([1, 0, 2])
    space = enumerate_phases(line([1, 0, 2]))
    rows = space.phases
    want = (rows >= 1) @ first[1:] + (rows - 1).clip(min=0) @ rest[1:]
    np.testing.assert_array_equal(want, np.arange(space.num_phases))
    np.testing.assert_array_equal(space.index(rows[::-1]),
                                  np.arange(space.num_phases)[::-1])
    assert rank_weights([]) == ([1], [1])


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


@pytest.mark.parametrize("cap", [0, -5])
def test_cap_below_one_is_an_input_error(cap):
    # it said "line has 3 phases, above the cap of -5"
    message = f"(--max-states on the command line) must be at least 1, got {cap}"
    with pytest.raises(InputError, match=re.escape(message)):
        enumerate_phases(line([0]), max_phases=cap)


@pytest.mark.parametrize("cap", ["10", None, True, 10.0], ids=["string", "none", "bool", "float"])
def test_cap_that_is_not_an_integer_is_an_input_error(cap):
    # "10" and None raised a raw TypeError, True was "above the cap of True"
    message = f"(--max-states on the command line) must be an integer, got {cap!r}"
    with pytest.raises(InputError, match=re.escape(message)):
        enumerate_phases(line([0]), max_phases=cap)
    with pytest.raises(InputError, match=re.escape(message)):
        lambda_max(line([0]), max_phases=cap)


@pytest.mark.parametrize(
    "buffers, cap, shown",
    [([0] * 40, 10**18, "about 10^16 phases, whose array of 1.962e+19 bytes"),
     ([0] * 60, 10**30, "about 10^25 phases, whose array of 6.734e+27 bytes")],
)
def test_array_past_the_address_space_is_refused_on_its_count(buffers, cap, shown):
    # past sys.maxsize bytes; under a small address-space limit the first
    # ended in a raw _ArrayMemoryError traceback
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceTooLargeError, match=re.escape(shown)):
            enumerate_phases(line(buffers), max_phases=cap)
        assert tracemalloc.get_traced_memory()[1] < 1_000_000
    finally:
        tracemalloc.stop()


def test_failed_allocation_is_refused_with_its_count():
    # 3.4e15 phases, 1.0e18 bytes: below sys.maxsize but past any address
    # space, so the first allocation fails at once, before a byte is touched
    with pytest.raises(StateSpaceTooLargeError, match=r"about 10\^15 phases, more than memory"):
        enumerate_phases(line([0] * 37), max_phases=10**18)


def test_enumeration_peaks_near_its_array():
    # 151,316 phases: the 10.9 MB array, a position counter and one
    # temporary of it, 1.22 times the array when measured; growing the rows
    # one station at a time peaked at 2.38 times
    config = line([1] * 9)
    tracemalloc.start()
    try:
        space = enumerate_phases(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.num_phases == 151_316
    assert peak <= 1.35 * space.phases.nbytes


def test_float_count_matches_exact_count():
    # the refusal reads the float count's decade; it is the exact count's
    rng = np.random.default_rng(5)
    lines = [[b] * k for b in range(4) for k in range(1, 1300, 37)]
    lines += [rng.integers(0, 60, rng.integers(1, 300)).tolist() for _ in range(200)]
    for caps in lines:
        want = math.log10(count_phases(caps))
        got = _log10_count(caps)
        assert int(got) == int(want) and abs(got - want) <= 1e-9 * want, caps
    assert _log10_count([]) == 0.0 and _log10_count([10**200]) == math.inf


def test_huge_line_is_refused_without_its_exact_count():
    # 200,000 stations: the exact count has 83,596 digits and takes seconds
    # to fold, the float count a few hundredths of a second
    config = line([0] * 200_000)
    start = time.perf_counter()
    with pytest.raises(StateSpaceTooLargeError, match=r"about 10\^83595 phases"):
        enumerate_phases(config)
    assert time.perf_counter() - start < 0.5


def test_counting_many_stations_keeps_one_pair():
    # all 20,001 pairs of weights would take tens of megabytes: the count
    # holds about 8,360 digits, and the weights grow with the station count
    caps = [0] * 20_000
    tracemalloc.start()
    try:
        count = count_phases(caps)
        assert tracemalloc.get_traced_memory()[1] < 1_000_000
    finally:
        tracemalloc.stop()
    before, want = 1, 3  # c_k = 3 c_{k-1} - c_{k-2} with one capacity of 0
    for _ in range(len(caps) - 1):
        before, want = want, 3 * want - before
    assert count == want and int(math.log10(count)) == 8359


def test_no_stations_single_empty_phase():
    space = enumerate_phases(validate_config([1.0], []))
    assert space.phases.shape == (1, 0)
    assert space.index(()) == 0
