"""How the phase count grows with line length and buffer capacity.

An exact integer recurrence counts the phases of any line before a single
phase is built; enumeration must agree with it case by case. When every
buffer has the same capacity the count also has a closed form. Run with:
python demos/02_phase_space_growth.py
"""

from tandemqbd import (
    count_phases,
    count_phases_closed_form,
    enumerate_phases,
    validate_config,
)

print("phase counts (rows: stations after the first server; cols: capacity)")
capacities = range(5)
print("stations " + "".join(f"B={b:<9}" for b in capacities))
for stations in range(1, 7):
    row = []
    for capacity in capacities:
        config = validate_config([1.0] * (stations + 1), [capacity] * stations)
        count = enumerate_phases(config).num_phases
        assert count == count_phases_closed_form(capacity, stations)
        row.append(count)
    print(f"{stations:<9}" + "".join(f"{c:<11}" for c in row))

print("\nmixed capacities have no closed form; the recurrence still counts them:")
for buffers in [(0, 2), (2, 0), (1, 3, 0), (0, 3, 1, 2), (2, 0, 3, 1, 0, 2)]:
    config = validate_config([1.0] * (len(buffers) + 1), buffers)
    count = count_phases(buffers)
    assert count == enumerate_phases(config).num_phases
    print(f"  buffers {buffers}: {count} phases, as enumerated")
