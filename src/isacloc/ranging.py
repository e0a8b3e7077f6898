"""Periodogram bistatic range estimation from received symbol grids.

The receiver divides its grid entrywise by a transmitter's grid (defined
as zero off the transmit comb), takes an M-point IFFT of every symbol
column, averages the magnitudes over columns, and reads the bistatic
range off the location of the profile peak.  Because only every
comb_size-th subcarrier carries energy, the profile repeats with period
W = M/comb_size and the peak search is restricted to that unambiguous
window.

`extract_and_divide`, `range_profile` and `estimate_range` do this for
one pair on dense M x N grids.  `comb_profiles` and `estimate_ranges` do
it for every transmitter-receiver pair at once in the comb domain: they
divide only the W comb rows of each transmitter and take one W-point
IFFT.  For a divided grid g that is zero off the rows c + comb*i,

    |sum_m g[m] e^{2 pi j m q / M}| = |sum_i g[c + comb*i] e^{2 pi j i q / W}|

for every bin q < W (DFT decimation: the offset c only contributes the
unit-modulus factor e^{2 pi j c q / M}), so the comb profile equals the
first W bins of the dense profile up to floating-point rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoDetectionError
from .prs_grid import OfdmConfig

__all__ = [
    "RangeProfile",
    "RangeEstimate",
    "extract_and_divide",
    "range_profile",
    "estimate_range",
    "comb_profiles",
    "estimate_ranges",
]


@dataclass(frozen=True)
class RangeProfile:
    """Column-averaged IFFT magnitudes over the M delay bins."""

    values: np.ndarray
    bin_width: float  # meters per delay bin


@dataclass(frozen=True)
class RangeEstimate:
    """Peak location of a range profile converted to meters."""

    transmitter_id: int
    receiver_id: int
    peak_index: int
    range: float


def extract_and_divide(received, transmit) -> np.ndarray:
    """Remove the known transmit symbols by point-wise division.

    Entries where the transmit grid is zero are defined as zero, so the
    result carries the per-path channel response on the transmit comb and
    nothing elsewhere.  Accepts grid objects or bare matrices.
    """
    v_rx = np.asarray(getattr(received, "symbols", received))
    v_tx = np.asarray(getattr(transmit, "symbols", transmit))
    if v_rx.shape != v_tx.shape:
        raise ValueError(f"shape mismatch: received {v_rx.shape} vs transmit {v_tx.shape}")
    out = np.zeros(v_rx.shape, dtype=np.complex128)
    np.divide(v_rx, v_tx, out=out, where=(v_tx != 0))
    return out


def range_profile(g: np.ndarray, config: OfdmConfig) -> RangeProfile:
    """Average the per-column IFFT magnitudes of the divided grid.

    The inverse DFT is unnormalized; only relative magnitudes matter for
    the peak search.
    """
    g = np.asarray(g)
    if g.ndim != 2 or g.shape[0] != config.num_subcarriers:
        raise ValueError("g must have one row per subcarrier")
    spectra = np.fft.ifft(g, axis=0) * g.shape[0]
    values = np.abs(spectra).mean(axis=1)
    values.setflags(write=False)
    return RangeProfile(values=values, bin_width=config.range_resolution)


def estimate_range(
    profile: RangeProfile,
    config: OfdmConfig,
    transmitter_id: int = 0,
    receiver_id: int = 0,
) -> RangeEstimate:
    """Locate the profile peak and convert the bin index to meters.

    The argmax is taken over bins [0, M/comb_size); ties resolve to the
    lowest index.  Raises NoDetectionError on an all-zero profile.
    """
    window = config.num_subcarriers // config.comb_size
    values = profile.values[:window]
    if values.size == 0 or float(values.max(initial=0.0)) <= 0.0:
        raise NoDetectionError("range profile has no nonzero peak")
    peak = int(np.argmax(values))
    return RangeEstimate(
        transmitter_id=transmitter_id,
        receiver_id=receiver_id,
        peak_index=peak,
        range=peak * config.range_resolution,
    )


def comb_profiles(received, transmit, config: OfdmConfig) -> np.ndarray:
    """Range profiles of every transmitter-receiver pair over bins [0, W).

    `received` holds K receiver grids (grid objects or bare M x N
    matrices) and `transmit` S ResourceGrids, each zero off the rows
    `allocation.comb_offset::comb_size` as `build_grid` makes them.  Entry
    [s, k] equals `range_profile(extract_and_divide(received[k],
    transmit[s]), config).values[:W]` up to rounding, with W = M/comb_size.

    Returns a float array of shape (S, K, W).
    """
    shape = (config.num_subcarriers, config.num_symbols)
    comb = config.comb_size
    window = config.num_subcarriers // comb
    offsets = [grid.allocation.comb_offset for grid in transmit]
    # Row c + comb*i of an M x N grid is entry [i, c] of its (W, comb, N)
    # view, so one index gathers a grid's comb rows for every offset.
    v_tx = np.stack([
        grid.symbols.reshape(window, comb, -1)[:, c] for grid, c in zip(transmit, offsets)
    ])
    nonzero = v_tx != 0
    divided = np.zeros((len(transmit), len(received), window, config.num_symbols), np.complex128)
    for k, grid in enumerate(received):
        symbols = np.asarray(getattr(grid, "symbols", grid))
        if symbols.shape != shape:
            raise ValueError(f"received grid shape {symbols.shape} does not match {shape}")
        v_rx = symbols.reshape(window, comb, -1)[:, offsets].transpose(1, 0, 2)
        np.divide(v_rx, v_tx, out=divided[:, k], where=nonzero)
    # Unnormalized inverse DFT along subcarriers, as range_profile takes it.
    spectra = np.fft.ifft(divided, axis=2, norm="forward")
    return np.abs(spectra).mean(axis=3)


def estimate_ranges(received, transmit, config: OfdmConfig) -> np.ndarray:
    """Bistatic range of every transmitter-receiver pair, in meters.

    Peak of each `comb_profiles` profile, lowest index on ties, times the
    bin width: entry [s, k] is `estimate_range(...).range` of that pair.
    Raises NoDetectionError if any profile is all zero.
    """
    profiles = comb_profiles(received, transmit, config)
    if (profiles.max(axis=-1) <= 0.0).any():
        raise NoDetectionError("range profile has no nonzero peak")
    return np.argmax(profiles, axis=-1) * config.range_resolution
