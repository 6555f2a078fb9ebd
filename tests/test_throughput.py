"""Saturation rate, stability verdict, and the two-server closed form."""

import math

import numpy as np
import pytest

from tandemqbd import (
    InputError,
    NegativeArrivalRateError,
    closed_form_two_server,
    is_stable,
    lambda_max,
    validate_config,
)


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


def test_closed_form_does_not_overflow():
    assert math.isfinite(closed_form_two_server(1e3, 1.0, 200))
    assert closed_form_two_server(1e3, 1.0, 200) == pytest.approx(1.0, abs=1e-5)
    report = lambda_max(line([50.0, 1.0], [300]))
    assert abs(report.lambda_max - 1.0) <= 1e-10
    assert abs(report.closed_form - report.lambda_max) <= 1e-10
