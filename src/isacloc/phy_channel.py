"""Symbol-domain multistatic echo channel on comb blocks.

Each transmit grid fills its own comb, so every occupied subcarrier
carries one path.  Receiver k gets each transmitter's comb rows times the
phase ramp of the path delay, plus complex white Gaussian noise, as one
(S, W, N) block: the rows ranging reads and no others.  Paths carry no
gain and no Doppler (the target is static); no time-domain waveform is
synthesized, the blocks are the post-FFT view of the received signal.
The channel knows no geometry: the caller hands it the (S, K) path
delays, which `scenario.bistatic_delay` computes for a scenario.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ScenarioError, check_finite
from .prs_grid import OfdmConfig, ResourceGrid, comb_symbols


@dataclass(frozen=True)
class NoiseSpec:
    """Receiver noise level: variance per real component, plus RNG seed."""

    variance: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        # A bool is neither a variance nor a seed.
        if isinstance(self.variance, bool) or not isinstance(self.variance, numbers.Real):
            raise ScenarioError(f"noise variance must be a number, got {self.variance!r}")
        if not math.isfinite(self.variance) or self.variance < 0:
            raise ScenarioError(f"noise variance must be finite and >= 0, got {self.variance!r}")
        if isinstance(self.rng_seed, bool) or not isinstance(self.rng_seed, numbers.Integral):
            raise ScenarioError(f"rng_seed must be an integer, got {self.rng_seed!r}")
        if self.rng_seed < 0:
            raise ScenarioError("rng_seed must be >= 0")


def noise_variance_from_snr(snr_db: float) -> float:
    """Per-component noise variance for a target SNR over unit-power symbols.

    Total complex noise power is twice the returned value, so
    SNR = 1 / (2 * variance).  Raises ConfigurationError unless the SNR and
    the variance are finite: below about -3083 dB the variance overflows.
    """
    check_finite("snr_db", snr_db)
    try:
        return 0.5 * 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:
        raise ConfigurationError(
            f"snr_db {snr_db!r} gives a noise variance that is not finite") from None


def apply_channel(
    grids: Sequence[ResourceGrid],
    delays,
    config: OfdmConfig,
    noise: NoiseSpec = NoiseSpec(),
) -> list[np.ndarray]:
    """Produce each receiver's (S, W, N) comb block from the S transmit grids.

    The grids must be comb rows of `config` on distinct offsets, as
    `build_grid` makes them (`prs_grid.comb_symbols` raises ScenarioError
    otherwise).  `delays` is an (S, K) matrix in seconds: entry [s, k] is
    the delay of path s -> k.  With c_s the comb offset of grids[s] and
    m = c_s + comb*i, entry [s, i, n] of block k is grids[s].symbols[i, n] *
    exp(-j 2 pi m df delays[s, k]) plus complex Gaussian noise (variance
    per component from `noise`).  The noise of receiver k is one
    standard_normal draw of shape (S*W, N, 2) over the occupied subcarriers
    in ascending order, real and imaginary part of each entry in turn, from
    its own substream default_rng([rng_seed, k]), so outputs do not depend
    on evaluation order.

    Returns the K blocks in receiver order.
    """
    symbols = comb_symbols(grids, config)
    delays = np.asarray(delays, dtype=float)
    if delays.ndim != 2 or delays.shape[0] != len(grids):
        raise ScenarioError(
            "delays must be an (S, K) matrix with one row per transmit grid, "
            f"got shape {delays.shape} for {len(grids)} grids"
        )
    max_delay = 1.0 / config.subcarrier_spacing  # full-grid delay window
    if not ((delays >= 0) & (delays < max_delay)).all():
        raise ScenarioError(f"path delays must lie in the grid delay window [0, {max_delay:.3e}) s")

    # One exponential covers every path and receiver: ramps[k, s, i] is the
    # phase of path s -> k on subcarrier c_s + comb*i.
    offsets = np.array([grid.allocation.comb_offset for grid in grids])
    num_tx, window, num_symbols = symbols.shape
    rows = offsets[:, None] + config.comb_size * np.arange(window)
    ramps = np.exp(-2j * np.pi * rows * config.subcarrier_spacing * delays.T[:, :, None])
    received = [ramp[..., None] * symbols for ramp in ramps]
    if noise.variance > 0:
        # In ascending subcarrier order, row c_s + comb*i is entry [i, r_s]
        # of a (W, S) layout, r_s the rank of c_s among the offsets.
        ranks = np.argsort(np.argsort(offsets))
        sigma = np.sqrt(noise.variance)
        draws = np.empty((window, num_tx, num_symbols, 2))
        for k, block in enumerate(received):
            np.random.default_rng([noise.rng_seed, k]).standard_normal(out=draws)
            draws *= sigma
            block += draws.view(np.complex128)[..., 0].transpose(1, 0, 2)[ranks]
    return received
