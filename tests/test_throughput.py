"""Saturation rate, stability verdict, and the two-server closed form."""

import math
import re

import numpy as np
import pytest

from tandemqbd import (
    InputError,
    NegativeArrivalRateError,
    closed_form_two_server,
    is_stable,
    lambda_max,
    phase_generator,
    validate_config,
)
from tandemqbd.stationary import ITERATIVE_MIN_ROW_NNZ, SPARSE_MIN_PHASES


def line(rates, buffers):
    return validate_config(rates, buffers)


def test_three_balanced_servers_no_buffers():
    report = lambda_max(line([1.0, 1.0, 1.0], [0, 0]))
    assert report.num_phases == 8
    assert abs(report.lambda_max - 0.564102564) < 5e-9


def test_three_servers_unit_buffers_slow_front():
    report = lambda_max(line([0.8, 1.0, 1.0], [1, 1]))
    assert abs(report.lambda_max - 0.615528799) < 5e-9


def test_two_balanced_servers_no_buffer():
    report = lambda_max(line([1.0, 1.0], [0]))
    assert abs(report.lambda_max - 2.0 / 3.0) < 1e-12


def test_single_server_line():
    # one empty phase: pi = [1] and the fold returns the rate exactly
    report = lambda_max(line([1.7], []))
    assert report.lambda_max == 1.7
    assert report.num_phases == 1
    assert report.residual == 0.0
    assert report.blocks.level_same.shape == report.blocks.level_down.shape == (1, 1)
    assert report.closed_form is None


def test_closed_form_field_present_only_for_two_servers():
    assert lambda_max(line([1.0, 1.0], [1])).closed_form is not None
    assert lambda_max(line([1.0, 1.0, 1.0], [1, 1])).closed_form is None


@pytest.mark.parametrize("capacity,want", [(0, 2 / 3), (1, 3 / 4), (2, 4 / 5), (3, 5 / 6)])
def test_closed_form_balanced(capacity, want):
    # equal rates: the chain is uniform and the rate is mu (B+2)/(B+3)
    assert abs(closed_form_two_server(1.0, 1.0, capacity) - want) < 1e-15
    assert abs(closed_form_two_server(2.5, 2.5, capacity) - 2.5 * want) < 1e-14


def test_closed_form_fast_downstream_limit():
    # an infinitely fast second server leaves the first as the bottleneck
    assert closed_form_two_server(0.9, 1e9, 2) == pytest.approx(0.9, abs=1e-8)


@pytest.mark.parametrize("capacity", range(4))
def test_closed_form_matches_solver(capacity):
    rng = np.random.default_rng(2024 + capacity)
    for _ in range(50):
        mu0, mu1 = rng.uniform(0.5, 2.0, 2)
        report = lambda_max(line([mu0, mu1], [capacity]))
        assert abs(report.lambda_max - closed_form_two_server(mu0, mu1, capacity)) <= 1e-10


def test_reversal_invariance_homogeneous_buffers():
    rng = np.random.default_rng(77)
    for _ in range(25):
        stations = int(rng.integers(1, 5))
        capacity = int(rng.integers(0, 3))
        rates = rng.uniform(0.5, 2.0, stations + 1)
        forward = lambda_max(line(list(rates), [capacity] * stations)).lambda_max
        backward = lambda_max(line(list(rates[::-1]), [capacity] * stations)).lambda_max
        assert abs(forward - backward) <= 1e-9


def test_reversal_invariance_at_40545_phases():
    # nine servers, solved by GMRES: the reversed line has a different
    # generator but the same saturation rate
    forward = lambda_max(line([1.25] + [1.0] * 8, [1] * 8))
    backward = lambda_max(line([1.0] * 8 + [1.25], [1] * 8))
    assert forward.num_phases == backward.num_phases == 40_545
    assert forward.solver == backward.solver == "gmres-sgs"
    assert abs(forward.lambda_max - backward.lambda_max) <= 1e-9


@pytest.mark.parametrize(
    "rates,buffers,solver",
    [
        ([1.0] * 3, [0, 0], "block-lu"),  # 8 phases
        ([1.0] * 4, [5] * 3, "block-lu"),  # 496 phases, 4.30 nonzeros per row
        ([1.25] + [1.0] * 6, [1] * 6, "gmres-sgs"),  # 2,911 phases, 5.38
        ([1.0] * 7, [0] * 6, "gmres-sgs"),  # 377 phases, 4.53
        ([1.0] * 5, [2] * 4, "gmres-sgs"),  # 551 phases, 4.56
        ([1.0] * 5, [1] * 4, "block-lu"),  # 209 phases, 4.22
    ],
)
def test_report_names_its_solver(rates, buffers, solver):
    # above SPARSE_MIN_PHASES one density test picks the tier, at any size
    report = lambda_max(line(rates, buffers))
    assert report.solver == solver
    assert (report.iterations > 0) == (solver == "gmres-sgs")
    A = phase_generator(report.blocks)  # dense up to SPARSE_MIN_PHASES phases
    n, nnz = report.num_phases, np.count_nonzero(A) if isinstance(A, np.ndarray) else A.nnz
    iterative = n > SPARSE_MIN_PHASES and nnz > ITERATIVE_MIN_ROW_NNZ * n
    assert iterative == (solver == "gmres-sgs")


HETERO = ([0.9, 1.0, 1.1, 1.0, 1.0, 1.0, 1.0], [2, 0, 3, 1, 0, 2])


@pytest.mark.parametrize(
    "rates,buffers,num_phases,pinned,solver,iterations",
    [
        ([1.0] * 7, [0] * 6, 377, "0x1.d00e0931b39cbp-2", "gmres-sgs", 12),
        ([1.0] * 4, [5] * 3, 496, "0x1.9d863436677aep-1", "block-lu", 0),
        ([0.8] + [1.0] * 5, [1] * 5, 780, "0x1.23153201cdd47p-1", "gmres-sgs", 19),
        ([1.0] * 4, [8] * 3, 1309, "0x1.b75121a6dd256p-1", "block-lu", 0),
        ([1.0, 1.0, 0.1], [50, 50], 2808, "0x1.999999999999ap-4", "block-lu", 0),
        ([1.25] + [1.0] * 6, [1] * 6, 2911, "0x1.2cf84eec95325p-1", "gmres-sgs", 21),
        ([1e-3, 1.0], [3000], 3003, "0x1.0624dd2f1a9fcp-10", "block-lu", 0),
        (*HETERO, 3833, "0x1.25d77fed1e57ep-1", "gmres-sgs", 27),
        (HETERO[0][::-1], HETERO[1][::-1], 3833, "0x1.25d77fed1e772p-1", "gmres-sgs", 23),
        ([1.0] * 5, [0, 0, 0, 300], 6355, "0x1.0790a726cec78p-1", "block-lu", 0),
        ([1.0] * 10, [0] * 9, 6765, "0x1.b7417b79494b0p-2", "gmres-sgs", 15),
    ],
)
def test_large_lines_are_pinned(rates, buffers, num_phases, pinned, solver, iterations):
    # above SPARSE_MIN_PHASES, on both tiers: the rate to the bit, the
    # solver and its iterations, as the grid lines are pinned by sweep
    report = lambda_max(line(rates, buffers))
    assert report.num_phases == num_phases
    assert (report.lambda_max.hex(), report.solver, report.iterations) == (
        pinned, solver, iterations
    )


def test_buffers_never_hurt():
    rates = [0.8, 1.2, 1.0, 0.9]
    values = [
        lambda_max(line(rates, [b] * 3)).lambda_max for b in range(4)
    ]
    assert all(lo <= hi + 1e-12 for lo, hi in zip(values, values[1:]))
    assert values[-1] > values[0]


def test_longer_balanced_lines_converge_from_above():
    values = [
        lambda_max(line([1.0] * n, [0] * (n - 1))).lambda_max for n in range(3, 7)
    ]
    gaps = [a - b for a, b in zip(values, values[1:])]
    assert all(g > 0 for g in gaps)
    assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))


def test_bottleneck_upper_bound():
    rng = np.random.default_rng(5)
    for _ in range(20):
        stations = int(rng.integers(0, 4))
        rates = rng.uniform(0.5, 2.0, stations + 1)
        buffers = [int(b) for b in rng.integers(0, 3, stations)]
        report = lambda_max(line(list(rates), buffers))
        assert report.lambda_max <= min(rates) + 1e-12
        assert report.lambda_max > 0.0
        if stations > 0:
            assert report.lambda_max < min(rates)


def test_stability_verdicts():
    cfg = line([1.0, 1.0, 1.0], [1, 1])
    threshold = lambda_max(cfg).lambda_max
    assert is_stable(cfg, 0.0)
    assert is_stable(cfg, 0.9 * threshold)
    assert not is_stable(cfg, 1.1 * threshold)
    assert is_stable(cfg, threshold * (1 - 1e-6))
    assert not is_stable(cfg, threshold * (1 + 1e-6))
    with pytest.raises(NegativeArrivalRateError):
        is_stable(cfg, -0.1)
    with pytest.raises(InputError):
        is_stable(cfg, float("nan"))


@pytest.mark.parametrize(
    "rate,message",
    [
        ("0.5", "arrival rate must be a number, got '0.5'"),
        (None, "arrival rate must be a number, got None"),
        (True, "arrival rate must be a number, got True"),
        (10**400, "arrival rate is beyond the float range"),
    ],
    ids=["string", "none", "bool", "huge-int"],
)
def test_stability_refuses_a_rate_that_is_not_a_number(rate, message):
    # they raised a raw TypeError or OverflowError, and True was taken as 1.0
    with pytest.raises(InputError, match=re.escape(message)):
        is_stable(line([1.0, 1.0, 1.0], [1, 1]), rate)


def test_closed_form_does_not_overflow():
    assert math.isfinite(closed_form_two_server(1e3, 1.0, 200))
    assert closed_form_two_server(1e3, 1.0, 200) == pytest.approx(1.0, abs=1e-5)
    report = lambda_max(line([50.0, 1.0], [300]))
    assert abs(report.lambda_max - 1.0) <= 1e-10
    assert abs(report.closed_form - report.lambda_max) <= 1e-10
