"""Property tests on random lines (at most 5 servers, 3,000 phases).

Examples are derandomized, so every run checks the same lines and a
failure reproduces; ``max_examples`` keeps the module to a few seconds.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from scalar_kernel import apply_completion, eligible_completions
from tandemqbd import (
    TandemQueueError,
    build_blocks,
    count_phases,
    enumerate_phases,
    lambda_max,
    phase_generator,
    validate_config,
)
from tandemqbd.stationary import SPARSE_MIN_PHASES

MAX_PHASES = 3_000


def property_settings(examples):
    return settings(
        max_examples=examples, deadline=None, derandomize=True, database=None
    )


def buffer_lists(max_phases=MAX_PHASES):
    """Capacities of lines with 1 to 5 servers and at most ``max_phases`` phases."""
    return st.lists(st.integers(0, 8), max_size=4).filter(
        lambda caps: count_phases(caps) <= max_phases
    )


@st.composite
def lines(draw, max_phases=MAX_PHASES):
    buffers = draw(buffer_lists(max_phases))
    rates = draw(st.lists(st.floats(0.1, 10.0), min_size=len(buffers) + 1,
                          max_size=len(buffers) + 1))
    return validate_config(rates, buffers)


def scalar_blocks(cfg, space):
    """The blocks built phase by phase from the scalar kernel, as CSR."""
    rows = [tuple(m) for m in space.phases.tolist()]
    position = {m: r for r, m in enumerate(rows)}
    same, down = {}, {}
    for r, m in enumerate(rows):
        for i in eligible_completions(cfg, m):
            new_phase, level_delta = apply_completion(cfg, m, i)
            block = down if level_delta else same
            key = (r, position[new_phase])
            block[key] = block.get(key, 0.0) + cfg.service_rates[i]
            same[r, r] = same.get((r, r), 0.0) - cfg.service_rates[i]
    n = len(rows)
    return [
        sparse.csr_matrix((list(entries.values()), tuple(zip(*entries))), shape=(n, n))
        for entries in (same, down)
    ]


@property_settings(50)
@given(lines(max_phases=400))
def test_blocks_equal_scalar_kernel(cfg):
    space = enumerate_phases(cfg)
    blocks = build_blocks(cfg, space)
    want_same, want_down = scalar_blocks(cfg, space)
    assert (blocks.level_same != want_same).nnz == 0
    assert (blocks.level_down != want_down).nnz == 0


@property_settings(60)
@given(lines(max_phases=SPARSE_MIN_PHASES))
@example(validate_config([1.7], []))  # its one completion shares the diagonal's place
@example(validate_config([1e-9, 1e9], [3]))
def test_dense_generator_is_the_block_sum(cfg):
    # up to SPARSE_MIN_PHASES phases the generator is one bincount of the
    # rate entries; it must be the sparse sum of the blocks to the bit
    blocks = build_blocks(cfg, enumerate_phases(cfg))
    A = phase_generator(blocks)
    assert isinstance(A, np.ndarray) and A.dtype == np.float64
    assert np.array_equal(A, (blocks.level_same + blocks.level_down).toarray())


@property_settings(100)
@given(buffer_lists())
def test_count_equals_enumeration(buffers):
    space = enumerate_phases(validate_config([1.0] * (len(buffers) + 1), buffers))
    assert count_phases(buffers) == space.num_phases
    # each phase's rank from the count's weights is its row
    assert (space.index(space.phases) == np.arange(space.num_phases)).all()


@property_settings(30)
@given(lines())
def test_reversed_line_has_the_same_rate(cfg):
    backward = validate_config(cfg.service_rates[::-1], cfg.buffer_capacities[::-1])
    assert abs(lambda_max(cfg).lambda_max - lambda_max(backward).lambda_max) <= 1e-9


@property_settings(40)
@given(lines())
def test_rate_is_at_most_the_slowest_server(cfg):
    slowest = min(cfg.service_rates)
    assert lambda_max(cfg).lambda_max <= slowest * (1.0 + 1e-12)


# Dallery & Gershwin (1992): throughput is monotone in every buffer and
# every service rate
@property_settings(30)
@given(lines(), st.data())
def test_rate_does_not_fall_as_a_buffer_grows(cfg, data):
    buffers = list(cfg.buffer_capacities)
    assume(buffers)
    buffers[data.draw(st.integers(0, len(buffers) - 1))] += 1
    assume(count_phases(buffers) <= MAX_PHASES)
    grown = validate_config(cfg.service_rates, buffers)
    assert lambda_max(grown).lambda_max >= lambda_max(cfg).lambda_max - 1e-12


@property_settings(30)
@given(lines(), st.data())
def test_rate_does_not_fall_as_a_service_rate_grows(cfg, data):
    rates = list(cfg.service_rates)
    rates[data.draw(st.integers(0, len(rates) - 1))] *= data.draw(
        st.floats(1.0, 4.0, exclude_min=True)
    )
    grown = validate_config(rates, cfg.buffer_capacities)
    assert lambda_max(grown).lambda_max >= lambda_max(cfg).lambda_max - 1e-12


def longest_buffer(head, after, max_phases=MAX_PHASES):
    """The longest buffer, up to 3,000, that can follow the buffers ``head``
    and precede ``after`` zero buffers within ``max_phases`` phases."""
    lo, hi = 0, 3_000
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if count_phases([*head, mid] + [0] * after) <= max_phases:
            lo = mid
        else:
            hi = mid - 1
    return lo


@st.composite
def stiff_lines(draw):
    """Two or three servers with rates anywhere in [1e-6, 1e6] and buffers
    of 0 to 3,000, at most MAX_PHASES phases."""
    count = draw(st.integers(1, 2))
    buffers = []
    for i in range(count):
        buffers.append(draw(st.integers(0, longest_buffer(buffers, count - i - 1))))
    exponents = st.floats(-6.0, 6.0)
    rates = draw(st.lists(exponents, min_size=count + 1, max_size=count + 1))
    return validate_config([10.0**e for e in rates], buffers)


@property_settings(100)
@given(stiff_lines())
def test_every_line_gets_a_rate_or_a_package_error(cfg):
    # any other exception is a bug: the CLI maps only TandemQueueError to
    # an exit code
    try:
        rate = lambda_max(cfg).lambda_max
    except TandemQueueError:
        return
    assert math.isfinite(rate) and rate > 0.0


@st.composite
def stiff_one_level_lines(draw):
    """Two to five servers, at most SPARSE_MIN_PHASES phases (one level),
    rates log-uniform over a window of 12 to 18 decades. A long buffer
    between rates that far apart makes pi span past a double's range."""
    count = draw(st.integers(1, 4))
    buffers = []
    for i in range(count):
        longest = longest_buffer(buffers, count - i - 1, SPARSE_MIN_PHASES)
        buffers.append(draw(st.integers(0, longest)))
    half = draw(st.floats(6.0, 9.0))
    exponents = st.floats(-half, half)
    rates = draw(st.lists(exponents, min_size=count + 1, max_size=count + 1))
    return validate_config([10.0**e for e in rates], buffers)


@property_settings(150)
@given(stiff_one_level_lines())
# pi spans about 10^606 and 10^312, its last phase the least likely
@example(validate_config([1e-3, 1.0], [200]))
@example(validate_config([1.0, 1e6], [50]))
@example(validate_config([1.0, 1e-9], [50]))
@example(validate_config([0.9183959987893575, 7.709616084063756e-12], [50]))
def test_stiff_one_level_line_matches_its_reversal(cfg):
    # the top level is solved as every level is, one phase's share fixed
    # (the last, or the likeliest where the last is too unlikely to pin)
    # and the rest an M-matrix solve: nothing subtracts, so no line raises,
    # the reversed line (which has the same rate) agrees and the rate stays
    # under the slowest server's
    report = lambda_max(cfg)
    assert report.num_phases <= SPARSE_MIN_PHASES
    reversed_line = validate_config(cfg.service_rates[::-1], cfg.buffer_capacities[::-1])
    rate, reversed_rate = report.lambda_max, lambda_max(reversed_line).lambda_max
    assert abs(rate - reversed_rate) <= 1e-12 * rate
    assert max(rate, reversed_rate) <= min(cfg.service_rates) * (1.0 + 1e-13)
