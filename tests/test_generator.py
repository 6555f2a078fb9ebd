"""Transition kernel and block assembly."""

import itertools

import numpy as np
import pytest

from scalar_kernel import IneligibleServerError, apply_completion, eligible_completions
from tandemqbd import build_blocks, enumerate_phases, triplet_lines, validate_config


def line(rates, buffers):
    return validate_config(rates, buffers)


def golden_blocks(mu0, mu1):
    """Expected 5x5 blocks for two servers with one buffer of capacity 2.

    Worked out by hand from the blocking rules: state j = occupancy of the
    second station, with j = 4 meaning "full and the first server holds a
    finished customer". The first server hands a customer over (level drops)
    from states 0..2, gets stuck from state 3, and only the second server's
    completion moves the chain out of state 4 — dropping the level because
    the held customer finally advances.
    """
    d = mu0 + mu1
    level_same = np.array(
        [
            [-mu0, 0.0, 0.0, 0.0, 0.0],
            [mu1, -d, 0.0, 0.0, 0.0],
            [0.0, mu1, -d, 0.0, 0.0],
            [0.0, 0.0, mu1, -d, mu0],
            [0.0, 0.0, 0.0, 0.0, -mu1],
        ]
    )
    level_down = np.array(
        [
            [0.0, mu0, 0.0, 0.0, 0.0],
            [0.0, 0.0, mu0, 0.0, 0.0],
            [0.0, 0.0, 0.0, mu0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, mu1, 0.0],
        ]
    )
    return level_same, level_down


@pytest.mark.parametrize("seed", range(10))
def test_golden_two_server_blocks(seed):
    rng = np.random.default_rng(seed)
    mu0, mu1 = rng.uniform(0.2, 3.0, 2)
    cfg = line([mu0, mu1], [2])
    blocks = build_blocks(cfg, enumerate_phases(cfg))
    want_same, want_down = golden_blocks(mu0, mu1)
    np.testing.assert_array_equal(blocks.level_same.toarray(), want_same)
    np.testing.assert_array_equal(blocks.level_down.toarray(), want_down)


def test_eligible_completions():
    cfg = line([1.0, 1.0], [2])
    assert eligible_completions(cfg, (0,)) == (0,)
    assert eligible_completions(cfg, (4,)) == (1,)
    cfg2 = line([1.0, 1.0, 1.0], [0, 0])
    assert eligible_completions(cfg2, (1, 1)) == (0, 1, 2)


def test_apply_completion_examples():
    cfg = line([1.0, 1.0], [2])
    assert apply_completion(cfg, (3,), 0) == ((4,), 0)
    assert apply_completion(cfg, (4,), 1) == ((3,), -1)

    # a fully blocked chain collapses in one atomic step
    cfg2 = line([1.0, 1.0, 1.0], [0, 0])
    assert apply_completion(cfg2, (2, 2), 2) == ((1, 1), -1)

    with pytest.raises(IneligibleServerError):
        apply_completion(cfg, (4,), 0)
    with pytest.raises(IneligibleServerError):
        apply_completion(cfg2, (0, 1), 1)


def all_small_lines():
    out = [
        [capacity] * stations
        for stations in range(1, 5)
        for capacity in range(3)
    ]
    return out + [[2, 0], [0, 1, 2]]


@pytest.mark.parametrize("buffers", all_small_lines())
def test_kernel_closure(buffers):
    cfg = line([1.0] * (len(buffers) + 1), buffers)
    space = enumerate_phases(cfg)
    for m in space.phases.tolist():
        servers = eligible_completions(cfg, m)
        assert servers, f"phase {m} has no way out"
        for i in servers:
            new_phase, level_delta = apply_completion(cfg, m, i)
            space.index(new_phase)  # raises InvalidPhaseError if invalid
            assert level_delta in (0, -1)


@pytest.mark.parametrize("buffers", all_small_lines() + [[0, 3, 1, 2]])
def test_blocks_match_scalar_kernel(buffers):
    """The array assembly equals the blocks built phase by phase from the
    scalar kernel, entry for entry."""
    rates = [0.7 + 0.13 * i for i in range(len(buffers) + 1)]
    cfg = line(rates, buffers)
    space = enumerate_phases(cfg)
    rows = [tuple(m) for m in space.phases.tolist()]
    position = {m: r for r, m in enumerate(rows)}
    n = len(rows)
    want_same, want_down = np.zeros((n, n)), np.zeros((n, n))
    for r, m in enumerate(rows):
        for i in eligible_completions(cfg, m):
            new_phase, level_delta = apply_completion(cfg, m, i)
            block = want_down if level_delta else want_same
            block[r, position[new_phase]] += rates[i]
            want_same[r, r] -= rates[i]
    blocks = build_blocks(cfg, space)
    np.testing.assert_array_equal(blocks.level_same.toarray(), want_same)
    np.testing.assert_array_equal(blocks.level_down.toarray(), want_down)


@pytest.mark.parametrize("buffers", all_small_lines())
def test_row_sums_vanish(buffers):
    rng = np.random.default_rng(hash(tuple(buffers)) % 2**32)
    rates = rng.uniform(0.5, 2.0, len(buffers) + 1)
    cfg = line(list(rates), buffers)
    blocks = build_blocks(cfg, enumerate_phases(cfg))
    total = blocks.level_same.toarray() + blocks.level_down.toarray()
    np.testing.assert_allclose(total.sum(axis=1), 0.0, atol=1e-12)


@pytest.mark.parametrize("buffers", all_small_lines())
def test_off_diagonal_entries_are_service_rates(buffers):
    rates = [0.7 + 0.1 * i for i in range(len(buffers) + 1)]
    cfg = line(rates, buffers)
    blocks = build_blocks(cfg, enumerate_phases(cfg))
    same = blocks.level_same.toarray()
    down = blocks.level_down.toarray()
    off = same[~np.eye(len(same), dtype=bool)]
    for v in off[off != 0.0]:
        assert any(abs(v - r) < 1e-15 for r in rates)
    assert (down >= 0.0).all()
    for v in down[down != 0.0]:
        assert any(abs(v - r) < 1e-15 for r in rates)


@pytest.mark.parametrize("buffers", all_small_lines())
def test_at_most_one_level_drop_per_phase(buffers):
    cfg = line([1.0] * (len(buffers) + 1), buffers)
    space = enumerate_phases(cfg)
    blocks = build_blocks(cfg, space)
    caps = cfg.buffer_capacities
    k = cfg.num_buffers
    nnz_per_row = np.diff(blocks.level_down.indptr)
    for r, m in enumerate(space.phases.tolist()):
        assert nnz_per_row[r] <= 1
        # the only possible drop: the first unblocked server in the chain
        # starting at the front, provided its own downstream has room
        head = 0
        while head < k and m[head] == caps[head] + 2:
            head += 1
        expect_one = head == k or m[head] <= caps[head]
        assert nnz_per_row[r] == (1 if expect_one else 0), (m, head)


def test_three_station_zero_buffer_blocks():
    cfg = line([1.0, 1.0, 1.0], [0, 0])
    blocks = build_blocks(cfg, enumerate_phases(cfg))
    assert blocks.num_phases == 8
    total = blocks.level_same.toarray() + blocks.level_down.toarray()
    np.testing.assert_allclose(total.sum(axis=1), 0.0, atol=1e-12)


def test_triplet_lines_are_stable():
    cfg = line([0.8, 1.0], [1])
    blocks = build_blocks(cfg, enumerate_phases(cfg))
    lines1 = triplet_lines(blocks.level_same)
    lines2 = triplet_lines(build_blocks(cfg, enumerate_phases(cfg)).level_same)
    assert lines1 == lines2
    for text in lines1:
        r, c, v = text.split()
        assert 0 <= int(r) < blocks.num_phases
        assert 0 <= int(c) < blocks.num_phases
        float(v)
