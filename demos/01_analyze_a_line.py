"""Walk through one analysis: phases, rate blocks, stationary vector, throughput.

The line here is the smallest interesting one: two servers with a buffer of
capacity 2 between them. Run with: python demos/01_analyze_a_line.py
"""

import numpy as np

from tandemqbd import (
    build_blocks,
    enumerate_phases,
    lambda_max,
    phase_generator,
    solve_stationary,
    validate_config,
)

config = validate_config(service_rates := (1.2, 0.9), buffer_capacities := (2,))
print(f"line: rates {service_rates}, interior buffers {buffer_capacities}")

# The state of everything after the first server is a "phase". For one
# downstream station with capacity 2 there are five: occupancies 0..3 plus
# a fifth state meaning "full, and the first server is stuck holding a
# finished customer". The phase space is an array with one phase per row.
space = enumerate_phases(config)
print(f"\n{space.num_phases} phases: {space.phases.tolist()}")

# Service completions either keep the backlog at the first station unchanged
# or shrink it by one. Assembly lists them as rate entries, each tagged with
# its kind; split by that tag they give two rate blocks, built as sparse
# matrices when first asked for.
blocks = build_blocks(config, space)
print(f"\n{len(blocks.rates)} rate entries, {int(blocks.down.sum())} of them lower the level")
print("level-preserving block:")
print(np.array_str(blocks.level_same.toarray(), precision=3, suppress_small=True))
print("level-decreasing block:")
print(np.array_str(blocks.level_down.toarray(), precision=3, suppress_small=True))

# Long-run phase distribution, assuming the first station never runs dry.
# On a line this small the generator (the sum of the blocks) is a dense array.
generator = phase_generator(blocks)
print(f"\ngenerator:\n{np.array_str(generator, precision=3, suppress_small=True)}")
stationary = solve_stationary(generator)
print(f"\nstationary phase vector: {np.round(stationary.pi, 6)}")
print(f"solver residual: {stationary.residual:.2e}")

# The saturation rate: arrivals faster than this make the backlog explode.
report = lambda_max(config)
print(f"\nmaximum throughput: {report.lambda_max:.9f}")
print(f"two-server closed form agrees: {report.closed_form:.9f}")
