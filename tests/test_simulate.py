"""Departure-time recursion: determinism, conservation, and agreement."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrival_oracle import arrival_run
from tandemqbd import simulate
from tandemqbd import (
    InputError,
    NegativeArrivalRateError,
    TargetTooSmallError,
    closed_form_two_server,
    lambda_max,
    simulate_saturated,
    simulate_with_arrivals,
    validate_config,
)


def line(rates, buffers):
    return validate_config(rates, buffers)


def test_repeat_runs_are_bit_identical():
    cfg = line([1.0, 1.0], [1])
    a = simulate_saturated(cfg, 10_000, seed=99)
    b = simulate_saturated(cfg, 10_000, seed=99)
    assert a == b
    c = simulate_saturated(cfg, 10_000, seed=100)
    assert c.throughput_estimate != a.throughput_estimate


def test_negative_and_huge_seeds_accepted():
    cfg = line([1.0], [])
    simulate_saturated(cfg, 10_000, seed=-17)
    simulate_saturated(cfg, 10_000, seed=2**63 + 5)


def test_saturated_single_server():
    result = simulate_saturated(line([1.0], []), 50_000, seed=42)
    assert abs(result.throughput_estimate - 1.0) <= max(3 * result.ci_half_width, 0.01)
    assert result.departures_counted == 50_000
    assert result.ci_half_width >= 0.0


def test_saturated_two_servers_no_buffer():
    result = simulate_saturated(line([1.0, 1.0], [0]), 100_000, seed=7)
    want = closed_form_two_server(1.0, 1.0, 0)
    assert abs(result.throughput_estimate - want) <= max(3 * result.ci_half_width, 0.005)


def test_saturated_three_servers_matches_solver():
    cfg = line([1.0, 1.0, 1.0], [0, 0])
    result = simulate_saturated(cfg, 200_000, seed=11)
    want = lambda_max(cfg).lambda_max
    assert abs(result.throughput_estimate - want) <= max(3 * result.ci_half_width, 0.005)


def test_customer_conservation():
    result = simulate_saturated(line([0.8, 1.0, 1.2], [1, 0]), 20_000, seed=3)
    assert (
        result.total_departures
        == result.customers_injected - result.customers_in_system
    )


def test_target_too_small():
    with pytest.raises(TargetTooSmallError):
        simulate_saturated(line([1.0], []), 9_999, seed=0)


def test_target_too_large_is_refused_at_once():
    # a run above the bound is refused before it simulates anything
    with pytest.raises(InputError, match="at most"):
        simulate_saturated(line([1.0], []), simulate.MAX_TARGET_DEPARTURES + 1, seed=0)


def test_arrivals_zero_rate_is_a_dead_line():
    result = simulate_with_arrivals(line([1.0, 1.0], [1]), 0.0, 500.0, seed=1)
    assert result.arrivals == 0
    assert result.departures == 0
    assert result.final_level == 0
    assert result.mean_level == 0.0


def test_arrivals_run_is_deterministic():
    cfg = line([1.0, 1.0], [1])
    a = simulate_with_arrivals(cfg, 0.5, 2_000.0, seed=5)
    b = simulate_with_arrivals(cfg, 0.5, 2_000.0, seed=5)
    assert a == b


def test_arrivals_conservation():
    result = simulate_with_arrivals(line([1.0, 0.9, 1.1], [1, 1]), 0.5, 5_000.0, seed=8)
    assert result.arrivals - result.departures == result.in_system


def test_level_bounded_below_saturation():
    cfg = line([1.0, 1.0], [1])
    threshold = lambda_max(cfg).lambda_max
    result = simulate_with_arrivals(cfg, 0.5 * threshold, 20_000.0, seed=13)
    assert result.final_level < 50
    assert result.mean_level < 10.0


def test_level_drifts_above_saturation():
    cfg = line([1.0, 1.0], [1])
    threshold = lambda_max(cfg).lambda_max
    rate = 1.2 * threshold
    horizon = 20_000.0
    result = simulate_with_arrivals(cfg, rate, horizon, seed=13)
    drift = (rate - threshold) * horizon
    assert result.final_level > 0.5 * drift
    assert result.final_level < 2.0 * drift


def test_arrivals_input_checks():
    cfg = line([1.0], [])
    with pytest.raises(NegativeArrivalRateError):
        simulate_with_arrivals(cfg, -0.5, 10.0, seed=0)
    with pytest.raises(InputError):
        simulate_with_arrivals(cfg, 0.5, 0.0, seed=0)
    for rate, horizon in [
        (math.nan, 10.0),
        (math.inf, 10.0),
        (0.5, math.inf),
        (0.5, math.nan),
        (1e300, 10.0),  # ~1e301 expected arrivals
        (1e5, 1e5),
    ]:
        with pytest.raises(InputError):
            simulate_with_arrivals(cfg, rate, horizon, seed=0)
    with pytest.raises(NegativeArrivalRateError):
        simulate_with_arrivals(cfg, -math.inf, 10.0, seed=0)


@pytest.mark.parametrize("target", [20_000.0, "20000", True])
def test_departure_target_must_be_an_integer(target):
    with pytest.raises(InputError, match="must be an integer"):
        simulate_saturated(line([1.0], []), target, seed=0)


@pytest.mark.parametrize("seed", [1.5, None, "3", True])
def test_seed_must_be_an_integer(seed):
    cfg = line([1.0], [])
    with pytest.raises(InputError, match="seed must be an integer"):
        simulate_saturated(cfg, 10_000, seed=seed)
    with pytest.raises(InputError, match="seed must be an integer"):
        simulate_with_arrivals(cfg, 0.5, 10.0, seed=seed)


@pytest.mark.parametrize(
    "rate, horizon",
    [("1", 10.0), (None, 10.0), (True, 10.0), (0.5, "10"), (0.5, True), (0.5, 10**400)],
    ids=["rate str", "rate None", "rate bool", "horizon str", "horizon bool", "horizon 10**400"],
)
def test_arrival_rate_and_horizon_must_be_numbers(rate, horizon):
    with pytest.raises(InputError, match="must be a number|beyond the float range"):
        simulate_with_arrivals(line([1.0], []), rate, horizon, seed=0)


@st.composite
def arrival_runs(draw):
    """A line of 1 to 5 servers, an arrival rate from 0 to 1.5 times its
    slowest rate (above saturation) and an int or float horizon that lets
    in at most about 600 customers."""
    servers = draw(st.integers(1, 5))
    buffers = draw(st.lists(st.integers(0, 6), min_size=servers - 1, max_size=servers - 1))
    if buffers and draw(st.booleans()):
        buffers[draw(st.integers(0, servers - 2))] = 10**12
    rates = draw(st.lists(st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
                          min_size=servers, max_size=servers))
    slowest = min(rates)
    arrival_rate = draw(st.just(0.0) | st.floats(0.0, 1.5)) * slowest
    customers = draw(st.integers(1, 400))
    horizon = draw(st.sampled_from([customers / slowest, max(1, round(customers / slowest))]))
    return line(rates, buffers), arrival_rate, horizon, draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(arrival_runs())
def test_arrival_counts_match_the_customer_by_customer_oracle(run):
    cfg, arrival_rate, horizon, seed = run
    assert repr(simulate_with_arrivals(cfg, arrival_rate, horizon, seed=seed)) == repr(
        arrival_run(cfg, arrival_rate, horizon, seed=seed)
    )


@pytest.mark.parametrize(
    "rates, buffers",
    [([1.0], []), ([1.0, 0.9, 1.1], [1, 1]), ([0.8, 1.0, 1.0], [0, 10**12])],
)
def test_a_customer_leaving_at_the_horizon_is_counted(rates, buffers):
    # customer n's times depend on the customers before it only, so a run
    # that ends at its exact D_0 or D_K still has it, with the same times
    cfg, arrival_rate, seed = line(rates, buffers), 0.9, 8
    streams, spare = simulate._spawn_streams(cfg, seed, extra=1)
    arrivals = simulate._arrival_times(simulate._exp_draws(spare[0], arrival_rate), 1e4)
    customers = itertools.islice(simulate._departures(cfg, streams, arrivals), 100)
    n, (a, d_first, d_last) = next(
        (n, c) for n, c in enumerate(customers, 1) if 5 < n and c[0] < c[1]
    )
    at_first = simulate_with_arrivals(cfg, arrival_rate, d_first, seed=seed)
    assert at_first.arrivals - at_first.final_level == n
    at_last = simulate_with_arrivals(cfg, arrival_rate, d_last, seed=seed)
    assert at_last.departures == n
    for horizon, result in ((d_first, at_first), (d_last, at_last)):
        assert repr(result) == repr(arrival_run(cfg, arrival_rate, horizon, seed=seed))


def test_seeded_outputs_are_pinned():
    """Exact outputs of fixed seeded runs: a change to the draws or to the
    recursion shows here."""
    a = simulate_saturated(line([0.8, 1.0, 1.2], [1, 0]), 20_000, seed=3)
    assert repr(a) == (
        "SimResult(throughput_estimate=0.6008709010291308, "
        "ci_half_width=0.006998725254684387, departures_counted=20000, seed=3, "
        "total_departures=22000, customers_injected=22004, customers_in_system=4)"
    )
    b = simulate_saturated(line([0.9, 1.0, 1.1, 1.0], [2, 0, 3]), 20_000, seed=7)
    assert repr(b) == (
        "SimResult(throughput_estimate=0.6343954025495101, "
        "ci_half_width=0.0054672318506691995, departures_counted=20000, seed=7, "
        "total_departures=22000, customers_injected=22006, customers_in_system=6)"
    )
    c = simulate_with_arrivals(line([1.0, 0.9, 1.1], [1, 1]), 0.5, 5_000.0, seed=8)
    assert (c.arrivals, c.departures, c.final_level, c.in_system) == (2560, 2560, 0, 0)
    assert repr(c) == (
        "ArrivalSimResult(mean_level=1.950865334859275, final_level=0, "
        "departures=2560, arrivals=2560, in_system=0, horizon=5000.0, seed=8)"
    )


def test_batch_bookkeeping_is_pinned():
    """Exact outputs where the warm-up and batch boundaries are found: a
    remainder after the batches, one server and an unbuffered pair. Values
    taken while every customer was still counted one by one in Python."""
    a = simulate_saturated(line([0.8, 1.0, 1.2], [1, 0]), 10_019, seed=3)
    assert repr(a) == (
        "SimResult(throughput_estimate=0.5968305138842603, "
        "ci_half_width=0.009431827130755141, departures_counted=10019, seed=3, "
        "total_departures=11021, customers_injected=11024, customers_in_system=3)"
    )
    b = simulate_saturated(line([1.3], []), 10_000, seed=4)
    assert repr(b) == (
        "SimResult(throughput_estimate=1.3151733175761349, "
        "ci_half_width=0.02549828347553106, departures_counted=10000, seed=4, "
        "total_departures=11000, customers_injected=11001, customers_in_system=1)"
    )
    c = simulate_saturated(line([1.0, 2.0], [0]), 10_000, seed=5)
    assert repr(c) == (
        "SimResult(throughput_estimate=0.8542039564913969, "
        "ci_half_width=0.012195804977891777, departures_counted=10000, seed=5, "
        "total_departures=11000, customers_injected=11001, customers_in_system=1)"
    )


def test_arrival_stream_is_pinned():
    """Exact outputs of arrival runs: an int horizon, no arrivals, and
    horizons that end just before and just after the first arrival."""
    cfg = line([1.0, 0.9, 1.1], [1, 1])
    assert repr(simulate_with_arrivals(cfg, 0.5, 5000, seed=8)) == (
        "ArrivalSimResult(mean_level=1.950865334859275, final_level=0, "
        "departures=2560, arrivals=2560, in_system=0, horizon=5000, seed=8)"
    )
    assert repr(simulate_with_arrivals(cfg, 0.0, 500.0, seed=8)) == (
        "ArrivalSimResult(mean_level=0.0, final_level=0, departures=0, "
        "arrivals=0, in_system=0, horizon=500.0, seed=8)"
    )
    # the first gap of seed 8's arrival stream is 0.168...
    assert repr(simulate_with_arrivals(cfg, 0.5, 0.1, seed=8)) == (
        "ArrivalSimResult(mean_level=0.0, final_level=0, departures=0, "
        "arrivals=0, in_system=0, horizon=0.1, seed=8)"
    )
    assert repr(simulate_with_arrivals(cfg, 0.5, 0.17, seed=8)) == (
        "ArrivalSimResult(mean_level=0.011296760581274776, final_level=1, "
        "departures=0, arrivals=1, in_system=1, horizon=0.17, seed=8)"
    )


def test_drawing_leaves_numpy_error_state_alone():
    # the stream is kept alive: closing a generator suspended inside an
    # errstate would restore the state and hide the leak
    with np.errstate(over="raise"):
        draws = simulate._exp_draws(np.random.SeedSequence(1), 1.0)
        next(draws)
        assert np.geterr()["over"] == "raise"


def peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_run_length():
    cfg = line([1.0, 1.0, 1.0], [1, 2])
    short = peak_bytes(lambda: simulate_saturated(cfg, 10_000, seed=1))
    long = peak_bytes(lambda: simulate_saturated(cfg, 100_000, seed=1))
    assert long < 1.1 * short
    short = peak_bytes(lambda: simulate_with_arrivals(cfg, 0.5, 1e4, seed=1))
    long = peak_bytes(lambda: simulate_with_arrivals(cfg, 0.5, 1e5, seed=1))
    assert long < 1.1 * short


def test_memory_does_not_grow_with_buffers():
    # a ring holds no more departure times than the run has produced, so a
    # buffer of 10^12 costs what the customers simulated cost
    cfg = line([1.0, 1.0, 1.0], [10**12, 10**12])
    assert peak_bytes(lambda: simulate_saturated(cfg, 10_000, seed=1)) < 4 * 2**20
    assert peak_bytes(lambda: simulate_with_arrivals(cfg, 0.5, 2e4, seed=1)) < 4 * 2**20


@pytest.mark.parametrize("huge", [2**63 - 1, 10**30])
def test_buffers_past_the_largest_ring_run_as_any_long_buffer(huge):
    # no run has sys.maxsize customers, so every such ring is one that never fills
    cfg, long = line([1.0, 1.0, 1.0], [huge, 1]), line([1.0, 1.0, 1.0], [10**12, 1])
    assert repr(simulate_saturated(cfg, 10_000, seed=1)) == repr(
        simulate_saturated(long, 10_000, seed=1)
    )
    assert repr(simulate_with_arrivals(cfg, 0.5, 2e3, seed=1)) == repr(
        simulate_with_arrivals(long, 0.5, 2e3, seed=1)
    )


def test_t_quantile_is_pinned():
    from scipy import stats  # the only scipy.stats import: the package has none

    assert simulate.T_975 == stats.t.ppf(0.975, simulate.NUM_BATCHES - 1)


def test_clock_overflow_is_an_input_error(monkeypatch):
    # service times of mean 1e308 overflow the clock to inf from the third
    # customer on; the customer stream is cut short so that a count of
    # customers against an infinite clock ends (and fails) instead of hanging
    recursion = simulate._departures
    monkeypatch.setattr(
        simulate, "_departures", lambda *a: itertools.islice(recursion(*a), 12_000)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="clock"):
            simulate_saturated(line([1e308, 1e-308], [1]), 10_000, seed=0)


@pytest.mark.parametrize("rate", [1e306, 1.7e308])
def test_overflowing_confidence_interval_is_an_input_error(rate):
    # batch throughputs near 1e306 overflow the variance: no infinite ci95
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="confidence interval"):
            simulate_saturated(line([rate], []), 10_000, seed=0)
