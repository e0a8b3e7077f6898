"""Estimate bistatic ranges with the periodogram and watch the quantization.

A single transmitter-receiver pair observes a target echo with a known
path length.  The receiver divides out the transmit symbols, IFFTs each
symbol column, averages the magnitudes, and picks the peak bin.  The
estimate lands within half a range bin of the truth, and additive noise
barely moves it thanks to the column averaging.
"""

import numpy as np

from isacloc import (
    NoiseSpec,
    OfdmConfig,
    PrsAllocation,
    apply_channel,
    build_grid,
    estimate_ranges,
)
from isacloc.constants import SPEED_OF_LIGHT

config = OfdmConfig()
grid = build_grid(config, PrsAllocation(comb_offset=0, sequence_seed=1))
half_bin = config.range_resolution / 2

print(f"range bin {config.range_resolution:.4f} m, half bin {half_bin:.4f} m\n")
print("noise-free sweep of true path lengths:")
print(f"{'true (m)':>10} {'estimate (m)':>13} {'error (m)':>10}")
for true_range in (20.0, 57.3, 100.0, 149.9, 201.4):
    received = apply_channel([grid], [[true_range / SPEED_OF_LIGHT]], config)
    [[estimate]] = estimate_ranges(received, [grid], config)
    err = estimate - true_range
    print(f"{true_range:>10.2f} {estimate:>13.3f} {err:>+10.3f}")

print("\nsame 100 m echo at a few noise levels (20 noise seeds each):")
print(f"{'SNR (dB)':>9} {'mean |error| (m)':>17} {'worst |error| (m)':>18}")
true_range = 100.0
delay = true_range / SPEED_OF_LIGHT
for snr_db in (20.0, 10.0, 0.0):
    variance = 0.5 * 10 ** (-snr_db / 10)
    errors = []
    for seed in range(20):
        received = apply_channel(
            [grid], [[delay]], config, NoiseSpec(variance=variance, rng_seed=seed)
        )
        [[estimate]] = estimate_ranges(received, [grid], config)
        errors.append(abs(estimate - true_range))
    print(f"{snr_db:>9.0f} {np.mean(errors):>17.3f} {np.max(errors):>18.3f}")

print(f"\nall noise-free errors stay within the half-bin bound {half_bin:.3f} m;")
print("averaging the 14 symbol columns keeps the peak stable well below 0 dB SNR.")
