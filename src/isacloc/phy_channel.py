"""Symbol-domain multistatic echo channel.

The channel acts directly on resource grids: every transmitter-receiver
path contributes an attenuated copy of the transmit grid with a linear
phase ramp across subcarriers (delay) and across symbols (Doppler), plus
complex white Gaussian noise at the receiver.  No time-domain waveform is
synthesized; the grid is the post-FFT view of the received signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import ScenarioError
from .prs_grid import OfdmConfig, ResourceGrid

if TYPE_CHECKING:
    from .scenario import Scenario


@dataclass(frozen=True)
class ChannelPath:
    """One transmitter -> target -> receiver reflection.

    Attributes:
        transmitter_id: Id of the originating grid.
        receiver_id: Id of the receiving node.
        attenuation: Complex path gain, default 1 (no pathloss model).
        delay: Propagation delay in seconds, >= 0.
        doppler: Doppler shift in Hz, default 0 (static target).
    """

    transmitter_id: int
    receiver_id: int
    attenuation: complex = 1.0 + 0.0j
    delay: float = 0.0
    doppler: float = 0.0

    def __post_init__(self):
        if self.transmitter_id < 0 or self.receiver_id < 0:
            raise ScenarioError("node ids must be >= 0")
        if self.delay < 0:
            raise ScenarioError("path delay must be >= 0")


@dataclass(frozen=True)
class NoiseSpec:
    """Receiver noise level: variance per real component, plus RNG seed."""

    variance: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.variance < 0:
            raise ScenarioError("noise variance must be >= 0")
        if self.rng_seed < 0:
            raise ScenarioError("rng_seed must be >= 0")


@dataclass(frozen=True)
class ReceivedGrid:
    """Post-FFT M x N symbol matrix observed by one receiver."""

    receiver_id: int
    symbols: np.ndarray


def noise_variance_from_snr(snr_db: float) -> float:
    """Per-component noise variance for a target SNR over unit-power symbols.

    Total complex noise power is twice the returned value, so
    SNR = 1 / (2 * variance).
    """
    return 0.5 * 10.0 ** (-snr_db / 10.0)


def apply_channel(
    grids: Sequence[ResourceGrid],
    paths: Sequence[ChannelPath],
    config: OfdmConfig,
    noise: NoiseSpec = NoiseSpec(),
) -> list[ReceivedGrid]:
    """Produce each receiver's grid from the transmit grids and path set.

    Every path multiplies its transmit grid by
    attenuation * exp(j 2 pi n T0 doppler) * exp(-j 2 pi m df delay)
    and the contributions of all paths ending at the same receiver are
    summed.  Independent complex Gaussian noise (variance per component
    from `noise`) is then added; each receiver consumes its own
    seed-derived substream, so outputs do not depend on evaluation order.

    Returns one ReceivedGrid per distinct receiver id, in ascending id
    order.
    """
    by_tx = {}
    for grid in grids:
        tx = grid.allocation.transmitter_id
        if tx in by_tx:
            raise ScenarioError(f"duplicate transmitter id {tx}")
        if grid.symbols.shape != (config.num_subcarriers, config.num_symbols):
            raise ScenarioError("grid dimensions do not match the OFDM configuration")
        by_tx[tx] = grid

    max_delay = 1.0 / config.subcarrier_spacing  # full-grid delay window
    for path in paths:
        if path.transmitter_id not in by_tx:
            raise ScenarioError(f"path references unknown transmitter {path.transmitter_id}")
        if path.delay >= max_delay:
            raise ScenarioError(
                f"path delay {path.delay:.3e} s exceeds the grid delay window {max_delay:.3e} s"
            )

    # A path contributes exactly zero off its transmit grid's support, so
    # each path is multiplied and accumulated on those rows only.
    n = np.arange(config.num_symbols)[None, :]
    t0 = config.total_symbol_duration
    sigma = np.sqrt(noise.variance)

    received = []
    for rx in sorted({p.receiver_id for p in paths}):
        rx_paths = [p for p in paths if p.receiver_id == rx]
        supports = [by_tx[p.transmitter_id].support for p in rx_paths]
        sizes = [rows.size for rows, _ in supports]
        # One exponential for all paths: each path's support rows stacked,
        # each row paired with its path's delay, in the per-path operation order.
        m = np.concatenate([rows for rows, _ in supports])[:, None]
        delay = np.repeat([p.delay for p in rx_paths], sizes)[:, None]
        ramps = np.exp(-2j * np.pi * m * config.subcarrier_spacing * delay)
        acc = np.zeros((config.num_subcarriers, config.num_symbols), dtype=np.complex128)
        start = 0
        for path, (rows, symbols), size in zip(rx_paths, supports, sizes):
            ramp = ramps[start:start + size]
            start += size
            if path.doppler != 0.0:
                ramp = ramp * np.exp(2j * np.pi * n * t0 * path.doppler)
            acc[rows] += path.attenuation * ramp * symbols
        if noise.variance > 0:
            rng = np.random.default_rng([noise.rng_seed, rx])
            acc.real += rng.normal(0.0, sigma, acc.shape)
            acc.imag += rng.normal(0.0, sigma, acc.shape)
        received.append(ReceivedGrid(receiver_id=rx, symbols=acc))
    return received


def bistatic_delay(scenario: "Scenario", transmitter_id: int, receiver_id: int) -> float:
    """Delay of the transmitter -> target -> receiver path in seconds.

    Line-of-sight geometry gives (|x0 - g_s| + |x0 - u_k|) / c; a blocked
    link adds its configured excess path length before dividing by c.
    """
    g = scenario.gnb_positions[transmitter_id]
    u = scenario.ue_positions[receiver_id]
    x0 = scenario.target
    r = float(np.linalg.norm(x0 - g) + np.linalg.norm(x0 - u))
    r += float(scenario.link_excess_gnb[transmitter_id] + scenario.link_excess_ue[receiver_id])
    return r / SPEED_OF_LIGHT
