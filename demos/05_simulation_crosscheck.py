"""Validate analytic saturation rates with the simulator.

The simulator never touches the phase encoding: it follows individual
customers through the physical line with the departure-time recursion of
blocking after service, and with a never-empty first station its
departure rate is an independent measurement of the same quantity.
A second experiment feeds real Poisson arrivals and shows the backlog
staying flat below the saturation rate and growing linearly above it.
Run with: python demos/05_simulation_crosscheck.py  (takes ~15 seconds)
"""

from tandemqbd import (
    lambda_max,
    simulate_saturated,
    simulate_with_arrivals,
    validate_config,
)

print("saturated-line measurement vs analytic value")
for rates, buffers in [
    ([1.0, 1.0], [0]),
    ([1.0, 1.0, 1.0], [0, 0]),
    ([0.8, 1.0, 1.0], [1, 1]),
]:
    config = validate_config(rates, buffers)
    analytic = lambda_max(config).lambda_max
    sim = simulate_saturated(config, target_departures=200_000, seed=2)
    print(
        f"  rates {rates} buffers {buffers}: simulated "
        f"{sim.throughput_estimate:.6f} +/- {sim.ci_half_width:.6f}, "
        f"analytic {analytic:.6f}"
    )

config = validate_config([1.0, 1.0], [1])
threshold = lambda_max(config).lambda_max
print(f"\nbacklog behaviour around the saturation rate ({threshold:.6f}):")
for factor in (0.7, 0.95, 1.05, 1.3):
    rate = factor * threshold
    run = simulate_with_arrivals(config, rate, horizon=20_000.0, seed=4)
    verdict = "bounded" if factor < 1 else "drifting"
    print(
        f"  arrivals at {factor:.2f} x threshold: final backlog "
        f"{run.final_level:>6d}, mean {run.mean_level:10.2f}   ({verdict})"
    )
