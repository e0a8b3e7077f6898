"""Periodogram bistatic range estimation on comb blocks.

A receiver's (S, W, N) block from `apply_channel` is divided entrywise by
the (S, W, N) stack of the transmitters' comb rows (`prs_grid.comb_symbols`),
each divided comb is transformed with a W-point IFFT along subcarriers, the
magnitudes are averaged over symbols, and the bistatic range is read off
the location of the profile peak.  Because only every comb_size-th
subcarrier carries energy, the dense M-point profile of a pair repeats
with period W = M/comb_size, and the W-point profile is that unambiguous
window: for a divided grid g that is zero off the rows c + comb*i,

    |sum_m g[m] e^{2 pi j m q / M}| = |sum_i g[c + comb*i] e^{2 pi j i q / W}|

for every bin q < W (DFT decimation: the offset c only contributes the
unit-modulus factor e^{2 pi j c q / M}), so the comb profile equals the
first W bins of the dense profile up to floating-point rounding.
"""

from __future__ import annotations

import numpy as np

from .errors import NoDetectionError
from .prs_grid import OfdmConfig


def extract_and_divide(block, transmit) -> np.ndarray:
    """Remove the known transmit symbols from one receiver's comb block.

    Both are (S, W, N): the block `apply_channel` returns and the
    `comb_symbols` stack of its transmit grids.  The stack holds only
    unit-modulus symbols, so the entrywise quotient needs no zero mask.
    """
    if block.shape != transmit.shape:
        raise ValueError(f"received block shape {block.shape} does not match {transmit.shape}")
    return block / transmit


def range_profile(divided, config: OfdmConfig) -> np.ndarray:
    """Per-transmitter profiles over the W delay bins of the comb window.

    Averages over symbols the magnitudes of the unnormalized W-point
    inverse DFT along subcarriers; only relative magnitudes matter for the
    peak search.  (S, W, N) in, (S, W) out.
    """
    window = config.num_subcarriers // config.comb_size
    if divided.shape[-2:-1] != (window,):
        raise ValueError(f"divided block shape {divided.shape} needs {window} comb rows")
    return np.abs(np.fft.ifft(divided, axis=-2, norm="forward")).mean(axis=-1)


def estimate_range(profiles, config: OfdmConfig) -> np.ndarray:
    """Bistatic range in meters at the peak of each `range_profile` profile.

    The argmax runs over the last axis, ties resolving to the lowest bin,
    whose index times the bin width is the range.  Raises NoDetectionError
    if any profile is all zero.
    """
    if (profiles.max(axis=-1) <= 0.0).any():
        raise NoDetectionError("range profile has no nonzero peak")
    return np.argmax(profiles, axis=-1) * config.range_resolution
