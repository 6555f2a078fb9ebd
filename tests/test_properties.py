"""Property tests on random small lines (at most 5 servers, 3,000 phases).

Examples are derandomized, so every run checks the same lines and a
failure reproduces; ``max_examples`` keeps the module to a few seconds.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from scalar_kernel import apply_completion, eligible_completions
from tandemqbd import (
    build_blocks,
    count_phases,
    enumerate_phases,
    lambda_max,
    validate_config,
)

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


@property_settings(100)
@given(buffer_lists())
def test_count_equals_enumeration(buffers):
    cfg = validate_config([1.0] * (len(buffers) + 1), buffers)
    assert count_phases(buffers) == enumerate_phases(cfg).num_phases


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
