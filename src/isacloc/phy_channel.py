"""Symbol-domain multistatic echo channel.

The channel acts directly on resource grids: receiver k sums, over every
transmitter s, a copy of transmit grid s with the linear phase ramp across
subcarriers of the delay of path s -> target -> k, plus complex white
Gaussian noise on the subcarriers some transmitter occupies.  Ranging
reads only those rows, so the rows no transmit comb covers stay exactly
zero.  Paths carry no gain and no Doppler (the target is static).  No
time-domain waveform is synthesized; the grid is the post-FFT view of the
received signal.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import ScenarioError
from .prs_grid import OfdmConfig, ResourceGrid

if TYPE_CHECKING:
    from .scenario import Scenario


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
    SNR = 1 / (2 * variance).
    """
    return 0.5 * 10.0 ** (-snr_db / 10.0)


def apply_channel(
    grids: Sequence[ResourceGrid],
    delays,
    config: OfdmConfig,
    noise: NoiseSpec = NoiseSpec(),
) -> list[np.ndarray]:
    """Produce each receiver's M x N grid from the S transmit grids.

    `delays` is an (S, K) matrix in seconds: entry [s, k] is the delay of
    the path from transmitter `grids[s]` to receiver k.  Receiver k sums
    grids[s] * exp(-j 2 pi m df delays[s, k]) over s = 0..S-1, then adds
    independent complex Gaussian noise (variance per component from
    `noise`) on the rows where some grid is nonzero, the rows that
    `comb_profiles` and `extract_and_divide` read; every other row stays
    exactly zero.  The noise of receiver k is one standard_normal draw of
    shape (rows, N, 2), real and imaginary part of each entry in turn,
    from its own substream default_rng([rng_seed, k]), so outputs do not
    depend on evaluation order.

    Returns the K received arrays in receiver order.
    """
    shape = (config.num_subcarriers, config.num_symbols)
    if any(grid.symbols.shape != shape for grid in grids):
        raise ScenarioError("grid dimensions do not match the OFDM configuration")
    delays = np.asarray(delays, dtype=float)
    if not grids or delays.ndim != 2 or delays.shape[0] != len(grids):
        raise ScenarioError(
            "delays must be an (S, K) matrix with one row per transmit grid, "
            f"got shape {delays.shape} for {len(grids)} grids"
        )
    max_delay = 1.0 / config.subcarrier_spacing  # full-grid delay window
    if not ((delays >= 0) & (delays < max_delay)).all():
        raise ScenarioError(f"path delays must lie in the grid delay window [0, {max_delay:.3e}) s")

    # A path contributes exactly zero off its transmit grid's support, so
    # each path is multiplied and accumulated on those rows only, for all K
    # receivers at once.  One exponential covers every path and receiver:
    # each path's support rows stacked, each row paired with its path's
    # delay to every receiver, in the per-path operation order.
    supports = [grid.support for grid in grids]
    sizes = [rows.size for rows, _ in supports]
    stacked = np.concatenate([rows for rows, _ in supports])
    delay = np.repeat(delays.T, sizes, axis=1)
    ramps = np.exp(-2j * np.pi * stacked * config.subcarrier_spacing * delay)
    received = np.zeros((delays.shape[1],) + shape, dtype=np.complex128)
    start = 0
    for (rows, symbols), size in zip(supports, sizes):
        # `symbols[None]` keeps both operands 3-D: numpy rounds a one-element
        # (1, 1, 1) x (1, 1) complex product in another loop than every other
        # shape here and than the dense M x N sum the tests compare with.
        received[:, rows] += ramps[:, start:start + size, None] * symbols[None]
        start += size
    if noise.variance > 0:
        # Only the rows some transmit grid occupies, the rows ranging reads.
        rows = np.unique(stacked)
        sigma = np.sqrt(noise.variance)
        draws = np.empty((rows.size, shape[1], 2))
        for k, rx in enumerate(received):
            np.random.default_rng([noise.rng_seed, k]).standard_normal(out=draws)
            draws *= sigma
            rx[rows] += draws.view(np.complex128)[..., 0]
    return list(received)


def bistatic_delay(scenario: "Scenario") -> np.ndarray:
    """(S, K) delays of every transmitter -> target -> receiver path in seconds.

    Entry [s, k] is (|x0 - g_s| + |x0 - u_k| + excess_s + excess_k) / c,
    the line-of-sight path length plus the excesses of its blocked links.
    """
    x0 = scenario.target
    # One 1-D norm per node and this summation order round exactly as
    # summing one pair at a time does (`pair_delay` in the channel tests);
    # `norm(..., axis=1)`, `np.hypot` and `true_bistatic_ranges(...).ranges / c`
    # differ in the last bit on some pairs, which changes the received grids.
    d_g = np.array([np.linalg.norm(x0 - g) for g in scenario.gnb_positions])
    d_u = np.array([np.linalg.norm(x0 - u) for u in scenario.ue_positions])
    e_g, e_u = scenario.link_excess_gnb, scenario.link_excess_ue
    return ((d_g[:, None] + d_u) + (e_g[:, None] + e_u)) / SPEED_OF_LIGHT
