"""Periodogram bistatic range estimation from received symbols.

The receiver divides its grid entrywise by a transmitter's symbols
(defined as zero off the transmit comb), takes an M-point IFFT of every
symbol column, averages the magnitudes over columns, and reads the
bistatic range off the location of the profile peak.  Because only every
comb_size-th subcarrier carries energy, the profile repeats with period
W = M/comb_size and the peak search is restricted to that unambiguous
window.

`extract_and_divide`, `range_profile` and `estimate_range` do this for
one pair on dense M x N matrices.  `comb_profiles` and `estimate_ranges`
do it for every transmitter-receiver pair on the (S, W, N) comb blocks
that `apply_channel` returns, one receiver at a time: each block is
divided by the transmitters' comb rows and transformed with W-point IFFTs.  For
a divided grid g that is zero off the rows c + comb*i,

    |sum_m g[m] e^{2 pi j m q / M}| = |sum_i g[c + comb*i] e^{2 pi j i q / W}|

for every bin q < W (DFT decimation: the offset c only contributes the
unit-modulus factor e^{2 pi j c q / M}), so the comb profile equals the
first W bins of the dense profile up to floating-point rounding.
"""

from __future__ import annotations

import numpy as np

from .errors import NoDetectionError
from .prs_grid import OfdmConfig, comb_symbols


def extract_and_divide(received, transmit) -> np.ndarray:
    """Remove the known transmit symbols by point-wise division.

    Both are M x N matrices.  Entries where the transmit matrix is zero are
    defined as zero, so the result carries the per-path channel response on
    the transmit comb and nothing elsewhere.
    """
    v_rx = np.asarray(received)
    v_tx = np.asarray(transmit)
    if v_rx.shape != v_tx.shape:
        raise ValueError(f"shape mismatch: received {v_rx.shape} vs transmit {v_tx.shape}")
    out = np.zeros(v_rx.shape, dtype=np.complex128)
    np.divide(v_rx, v_tx, out=out, where=(v_tx != 0))
    return out


def range_profile(g: np.ndarray, config: OfdmConfig) -> np.ndarray:
    """Average the per-column IFFT magnitudes of the divided grid.

    Returns the M delay-bin values, read-only.  The inverse DFT is
    unnormalized; only relative magnitudes matter for the peak search.
    """
    g = np.asarray(g)
    if g.ndim != 2 or g.shape[0] != config.num_subcarriers:
        raise ValueError("g must have one row per subcarrier")
    spectra = np.fft.ifft(g, axis=0) * g.shape[0]
    values = np.abs(spectra).mean(axis=1)
    values.setflags(write=False)
    return values


def estimate_range(profile: np.ndarray, config: OfdmConfig) -> float:
    """Bistatic range in meters at the peak of a `range_profile`.

    The argmax is taken over bins [0, M/comb_size); ties resolve to the
    lowest index, whose bin index times the bin width is the range.
    Raises NoDetectionError on an all-zero profile.
    """
    values = profile[:config.num_subcarriers // config.comb_size]
    if values.size == 0 or float(values.max(initial=0.0)) <= 0.0:
        raise NoDetectionError("range profile has no nonzero peak")
    return int(np.argmax(values)) * config.range_resolution


def comb_profiles(received, transmit, config: OfdmConfig) -> np.ndarray:
    """Range profiles of every transmitter-receiver pair over bins [0, W).

    `received` holds the K (S, W, N) comb blocks `apply_channel` returns
    for the S `transmit` grids, which must be comb rows of `config` on
    distinct offsets (`prs_grid.comb_symbols` raises ScenarioError
    otherwise).  Entry [s, k] equals `range_profile(extract_and_divide(rx,
    tx), config)[:W]` up to rounding, rx and tx being block k and
    transmit[s] laid out as M x N matrices, zero off their comb rows.

    Returns a float array of shape (S, K, W).
    """
    v_tx = comb_symbols(transmit, config)
    profiles = np.empty((len(transmit), len(received), v_tx.shape[1]))
    # One receiver at a time keeps each (S, W, N) temporary small.
    for k, block in enumerate(received):
        if block.shape != v_tx.shape:
            raise ValueError(f"received block shape {block.shape} does not match {v_tx.shape}")
        # Unnormalized inverse DFT along subcarriers, as range_profile takes it.
        spectra = np.fft.ifft(block / v_tx, axis=1, norm="forward")
        profiles[:, k] = np.abs(spectra).mean(axis=2)
    return profiles


def estimate_ranges(received, transmit, config: OfdmConfig) -> np.ndarray:
    """Bistatic range of every transmitter-receiver pair, in meters.

    Peak of each `comb_profiles` profile, lowest index on ties, times the
    bin width: entry [s, k] is `estimate_range(...)` of that pair.
    Raises NoDetectionError if any profile is all zero.
    """
    profiles = comb_profiles(received, transmit, config)
    if (profiles.max(axis=-1) <= 0.0).any():
        raise NoDetectionError("range profile has no nonzero peak")
    return np.argmax(profiles, axis=-1) * config.range_resolution
