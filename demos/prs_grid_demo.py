"""Build comb-structured reference-signal grids and inspect their layout.

Each transmitter gets one comb offset: its symbols occupy every 12th
subcarrier, shifted by the offset, so up to 12 transmitters share the
band without overlapping.  A grid holds only those comb rows: row i is
subcarrier comb_offset + 12*i.
"""

import numpy as np

from isacloc import OfdmConfig, PrsAllocation, build_grid

config = OfdmConfig()  # 120 kHz, 66 resource blocks of 12 subcarriers, one slot, comb 12
print(f"numerology: {config.num_subcarriers} subcarriers x {config.num_symbols} symbols, "
      f"comb {config.comb_size}")
print(f"range bin: {config.range_resolution:.3f} m, "
      f"unambiguous window: {config.unambiguous_range:.1f} m")

grids = [
    build_grid(config, PrsAllocation(comb_offset=s, sequence_seed=1 + s))
    for s in range(3)
]


def subcarriers(grid):
    """The subcarrier each comb row of the grid is sent on."""
    return np.arange(grid.allocation.comb_offset, config.num_subcarriers, config.comb_size)


print("\nper-transmitter occupancy (first 24 subcarriers of symbol 0):")
for s, grid in enumerate(grids):
    occupied = set(subcarriers(grid).tolist())
    row = "".join("#" if m in occupied else "." for m in range(24))
    print(f"  tx {s} (offset {grid.allocation.comb_offset}): {row}")

rows, columns = grids[0].symbols.shape
print(f"\ncomb rows per transmitter: {rows} x {columns} symbols, so {rows} occupied "
      f"subcarriers per symbol column (= {config.num_subcarriers}/{config.comb_size})")

overlap = np.intersect1d(subcarriers(grids[0]), subcarriers(grids[1]))
print(f"subcarriers shared by tx 0 and tx 1: {overlap.size}")

mags = np.abs(grids[0].symbols)
print(f"symbol magnitude spread: [{mags.min():.15f}, {mags.max():.15f}] (unit-modulus QPSK)")

print("first four symbols of tx 0:", np.round(grids[0].symbols[0, :4], 4))
