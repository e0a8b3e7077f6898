"""Build comb-structured reference-signal grids and inspect their layout.

Each transmitter gets one comb offset: its symbols occupy every 12th
subcarrier, shifted by the offset, so up to 12 transmitters share the
band without overlapping.
"""

import numpy as np

from isacloc import OfdmConfig, PrsAllocation, build_grid

config = OfdmConfig()  # 120 kHz, 66 resource blocks of 12 subcarriers, one slot, comb 12
print(f"numerology: {config.num_subcarriers} subcarriers x {config.num_symbols} symbols, "
      f"comb {config.comb_size}")
print(f"range bin: {config.range_resolution:.3f} m, "
      f"unambiguous window: {config.unambiguous_range:.1f} m")

grids = [
    build_grid(config, PrsAllocation(s, comb_offset=s, sequence_seed=1 + s))
    for s in range(3)
]

print("\nper-transmitter occupancy (first 24 subcarriers of symbol 0):")
for grid in grids:
    row = "".join(
        "#" if abs(grid.symbols[m, 0]) > 0 else "." for m in range(24)
    )
    print(f"  tx {grid.allocation.transmitter_id} (offset {grid.allocation.comb_offset}): {row}")

per_column = np.count_nonzero(grids[0].symbols, axis=0)
print(f"\noccupied subcarriers per symbol column: {per_column[0]} "
      f"(= {config.num_subcarriers}/{config.comb_size})")

overlap = (np.abs(grids[0].symbols) > 0) & (np.abs(grids[1].symbols) > 0)
print(f"support overlap between tx 0 and tx 1: {int(overlap.sum())} entries")

mags = np.abs(grids[0].symbols[np.abs(grids[0].symbols) > 0])
print(f"symbol magnitude spread: [{mags.min():.15f}, {mags.max():.15f}] (unit-modulus QPSK)")

symbols = grids[0].symbols[np.abs(grids[0].symbols) > 0][:4]
print("first four symbols of tx 0:", np.round(symbols, 4))
