"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion. Reference throughput grids are cross-validated two ways
inside this file: against the two-server closed form where it applies and
against the simulator for a spread of larger lines.
"""

import numpy as np
import pytest

from tandemqbd import (
    build_blocks,
    closed_form_two_server,
    count_phases_closed_form,
    enumerate_phases,
    is_stable,
    lambda_max,
    phase_generator,
    simulate_saturated,
    solve_stationary,
    validate_config,
)

# Published reference values for lines with mu_rest = 1.0, keyed by
# (total servers, rate of the first server); buffer capacity 0 and 1.
REFERENCE_GRID_B0 = {
    (3, 0.80): 0.519989942, (3, 1.00): 0.564102564, (3, 1.25): 0.598437788,
    (4, 0.80): 0.485029352, (4, 1.00): 0.514775489, (4, 1.25): 0.535049700,
    (5, 0.80): 0.463993704, (5, 1.00): 0.485798122, (5, 1.25): 0.499168087,
    (6, 0.80): 0.449869861, (6, 1.00): 0.466713263, (6, 1.25): 0.476185018,
}
REFERENCE_GRID_B1 = {
    (3, 0.80): 0.615528799, (3, 1.00): 0.670466159, (3, 1.25): 0.707254387,
    (4, 0.80): 0.592393780, (4, 1.00): 0.631152686, (4, 1.25): 0.652598317,
    (5, 0.80): 0.578207816, (5, 1.00): 0.607583286, (5, 1.25): 0.621585610,
    (6, 0.80): 0.568521082, (6, 1.00): 0.591825779, (6, 1.25): 0.601677388,
}
GRID_TOL = 5e-9


def line(rates, buffers):
    return validate_config(rates, buffers)


def report_criterion(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name} failed{suffix}"


def check_grid(capacity, grid):
    worst = 0.0
    for (servers, mu0), want in grid.items():
        cfg = line([mu0] + [1.0] * (servers - 1), [capacity] * (servers - 1))
        got = lambda_max(cfg).lambda_max
        worst = max(worst, abs(got - want))
    return worst


def test_criterion_1_zero_buffer_grid():
    worst = check_grid(0, REFERENCE_GRID_B0)
    report_criterion(
        "1 zero-buffer reference grid (12 values, tol 5e-9)",
        worst <= GRID_TOL,
        f"worst abs error {worst:.2e}",
    )


def test_criterion_2_unit_buffer_grid():
    worst = check_grid(1, REFERENCE_GRID_B1)
    report_criterion(
        "2 unit-buffer reference grid (12 values, tol 5e-9)",
        worst <= GRID_TOL,
        f"worst abs error {worst:.2e}",
    )


def test_criterion_3_golden_two_server_blocks():
    rng = np.random.default_rng(31)
    ok = True
    for _ in range(10):
        mu0, mu1 = rng.uniform(0.2, 3.0, 2)
        cfg = line([mu0, mu1], [2])
        blocks = build_blocks(cfg, enumerate_phases(cfg))
        d = mu0 + mu1
        want_same = np.array(
            [
                [-mu0, 0.0, 0.0, 0.0, 0.0],
                [mu1, -d, 0.0, 0.0, 0.0],
                [0.0, mu1, -d, 0.0, 0.0],
                [0.0, 0.0, mu1, -d, mu0],
                [0.0, 0.0, 0.0, 0.0, -mu1],
            ]
        )
        want_down = np.zeros((5, 5))
        want_down[0, 1] = want_down[1, 2] = want_down[2, 3] = mu0
        want_down[4, 3] = mu1
        ok = ok and np.array_equal(blocks.level_same.toarray(), want_same)
        ok = ok and np.array_equal(blocks.level_down.toarray(), want_down)
    report_criterion("3 golden five-state blocks (10 random rate pairs)", ok)


def test_criterion_4_count_recurrence_vs_enumeration():
    ok = True
    for capacity in range(4):
        for stations in range(1, 6):
            space = enumerate_phases(line([1.0] * (stations + 1), [capacity] * stations))
            ok = ok and space.num_phases == count_phases_closed_form(capacity, stations)
    report_criterion("4 phase-count recurrence vs enumeration (20 cases, exact)", ok)


def truncated_denominator_variant(mu0, mu1):
    # dropping the middle denominator term - an easy transcription slip for
    # the capacity-2 closed form - which the solver shows to be wrong
    num = mu0 * mu1 * (mu0**3 + mu0**2 * mu1 + mu0 * mu1**2 + mu1**3)
    return num / (mu0**4 + mu0**3 * mu1 + mu0 * mu1**3 + mu1**4)


def test_criterion_5_two_server_closed_form_oracle():
    rng = np.random.default_rng(52)
    worst = 0.0
    for _ in range(50):
        mu0, mu1 = rng.uniform(0.5, 2.0, 2)
        for capacity in range(4):
            got = lambda_max(line([mu0, mu1], [capacity])).lambda_max
            worst = max(worst, abs(got - closed_form_two_server(mu0, mu1, capacity)))
    balanced = lambda_max(line([1.0, 1.0], [2])).lambda_max
    # at equal rates the closed form must give mu (B+2)/(B+3), i.e. 0.8 mu
    # for capacity 2; the truncated-denominator variant would claim mu itself
    exact_ok = abs(balanced - 0.8) <= 1e-12
    variant = truncated_denominator_variant(1.0, 1.0)
    print(
        "  note: capacity-2 balanced line: solver and closed form give "
        f"{balanced:.12f}; a truncated-denominator variant would give {variant:.1f}"
    )
    report_criterion(
        "5 closed-form oracle (50 random pairs x capacities 0..3, tol 1e-10)",
        worst <= 1e-10 and exact_ok and abs(variant - 1.0) < 1e-12,
        f"worst abs diff {worst:.2e}",
    )


SIMULATION_CASES = [
    # (rates, buffers, seed) spanning both reference grids
    ([1.00, 1.0, 1.0], [0, 0], 101),
    ([0.80, 1.0, 1.0, 1.0], [0, 0, 0], 102),
    ([1.25] + [1.0] * 5, [0] * 5, 103),
    ([0.80, 1.0, 1.0], [1, 1], 104),
    ([1.00, 1.0, 1.0, 1.0, 1.0], [1] * 4, 105),
    ([1.25] + [1.0] * 5, [1] * 5, 106),
]


@pytest.mark.parametrize("rates,buffers,seed", SIMULATION_CASES)
def test_criterion_6_simulation_cross_validation(rates, buffers, seed):
    cfg = line(rates, buffers)
    analytic = lambda_max(cfg).lambda_max
    sim = simulate_saturated(cfg, 1_000_000, seed=seed)
    gap = abs(sim.throughput_estimate - analytic)
    allowed = max(3 * sim.ci_half_width, 0.005)
    report_criterion(
        f"6 simulation cross-validation {len(rates)} servers buffers {buffers[0]}",
        gap <= allowed,
        f"|{sim.throughput_estimate:.6f} - {analytic:.6f}| = {gap:.2e} <= {allowed:.2e}",
    )


def test_criterion_7a_reversal_invariance():
    rng = np.random.default_rng(71)
    worst = 0.0
    for _ in range(25):
        stations = int(rng.integers(1, 5))
        capacity = int(rng.integers(0, 3))
        rates = rng.uniform(0.5, 2.0, stations + 1)
        forward = lambda_max(line(list(rates), [capacity] * stations)).lambda_max
        backward = lambda_max(line(list(rates[::-1]), [capacity] * stations)).lambda_max
        worst = max(worst, abs(forward - backward))
    report_criterion(
        "7a reversal invariance (25 random lines, tol 1e-9)",
        worst <= 1e-9,
        f"worst abs diff {worst:.2e}",
    )


def test_criterion_7b_buffer_monotonicity():
    ok = True
    for rates in ([1.0, 1.0, 1.0], [0.8, 1.0, 1.2, 0.9]):
        values = [
            lambda_max(line(rates, [b] * (len(rates) - 1))).lambda_max
            for b in range(4)
        ]
        ok = ok and all(lo <= hi + 1e-12 for lo, hi in zip(values, values[1:]))
    report_criterion("7b throughput nondecreasing in buffer capacity", ok)


def test_criterion_7c_convergence_in_line_length():
    values = [
        lambda_max(line([1.0] * n, [0] * (n - 1))).lambda_max for n in range(3, 7)
    ]
    gaps = [a - b for a, b in zip(values, values[1:])]
    expected_gaps = (0.0493, 0.0290, 0.0191)
    decreasing = all(g > 0 for g in gaps) and gaps[0] > gaps[1] > gaps[2]
    matches = all(abs(g - e) <= 1e-4 for g, e in zip(gaps, expected_gaps))
    report_criterion(
        "7c balanced-line convergence (gaps 0.0493/0.0290/0.0191 within 1e-4)",
        decreasing and matches,
        "gaps " + "/".join(f"{g:.4f}" for g in gaps),
    )


def test_criterion_7d_bottleneck_bound_and_residuals():
    rng = np.random.default_rng(74)
    ok = True
    for _ in range(20):
        stations = int(rng.integers(1, 5))
        rates = rng.uniform(0.5, 2.0, stations + 1)
        buffers = [int(b) for b in rng.integers(0, 3, stations)]
        report = lambda_max(line(list(rates), buffers))
        blocks = build_blocks(report.config, enumerate_phases(report.config))
        scale = np.max(np.abs(phase_generator(blocks)))
        ok = ok and report.lambda_max <= min(rates)
        ok = ok and report.residual <= 1e-10 * scale
    report_criterion(
        "7d bottleneck bound and stationary residual <= 1e-10 rel", ok
    )


def test_criterion_7e_power_method_agreement():
    def power_pi(A, tol=1e-13, max_iter=2_000_000):
        q = 1.01 * np.max(-np.diag(A))
        P = np.eye(len(A)) + A / q
        pi = np.full(len(A), 1.0 / len(A))
        for _ in range(max_iter):
            nxt = pi @ P
            nxt /= nxt.sum()
            if np.max(np.abs(nxt - pi)) < tol:
                return nxt
            pi = nxt
        raise AssertionError("power method did not converge")

    worst = 0.0
    for rates, buffers in [
        ([1.0, 1.0], [2]),
        ([0.8, 1.0, 1.0], [1, 1]),
        ([1.5, 0.7, 1.1, 0.9], [2, 0, 1]),
        ([0.8] + [1.0] * 5, [1] * 5),  # 780 phases, largest grid entry
    ]:
        cfg = line(rates, buffers)
        space = enumerate_phases(cfg)
        A = phase_generator(build_blocks(cfg, space))
        direct = solve_stationary(A, phases=space.phases).pi
        A = A if isinstance(A, np.ndarray) else A.toarray()  # dense up to 250 phases
        worst = max(worst, float(np.max(np.abs(direct - power_pi(A)))))
    report_criterion(
        "7e power-method oracle agreement (tol 1e-8)",
        worst <= 1e-8,
        f"worst entrywise diff {worst:.2e}",
    )


def test_criterion_7f_stability_flips_at_threshold():
    ok = True
    for rates, buffers in [([1.0, 1.0], [2]), ([0.8, 1.0, 1.0], [1, 1])]:
        cfg = line(rates, buffers)
        threshold = lambda_max(cfg).lambda_max
        ok = ok and is_stable(cfg, threshold * (1 - 1e-6))
        ok = ok and not is_stable(cfg, threshold * (1 + 1e-6))
    report_criterion("7f stability predicate flips at the saturation rate", ok)
