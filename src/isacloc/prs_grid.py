"""Reference-signal sequences and comb-structured OFDM resource grids.

Each transmitter gets a comb offset and a 31-bit sequence seed.  Its grid
is an M x N complex matrix carrying unit-modulus QPSK symbols on every
subcarrier of its comb and zeros elsewhere, so transmitters with distinct
offsets occupy disjoint subcarrier sets and can be separated at the
receiver by support alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import ConfigurationError

_REGISTER_LENGTH = 31
_FAST_FORWARD = 1600  # discarded warm-up outputs of the combined sequence
_BLOCK = 28  # register bits advanced per step: 31 minus the highest tap, 3
_SUPPORTED_COMBS = (2, 4, 6, 12)
# Normal cyclic prefix as a fraction of the useful symbol duration.
_CP_FRACTION = 144.0 / 2048.0


@dataclass(frozen=True)
class OfdmConfig:
    """OFDM numerology for one sensing carrier.

    Attributes:
        subcarrier_spacing: Subcarrier spacing in Hz.
        num_subcarriers: Grid height M; must be a multiple of 12.
        num_symbols: Grid width N (time-domain symbols), default one slot.
        comb_size: Frequency comb period; one of 2, 4, 6, 12.
        carrier_frequency: Carrier in Hz (metadata only).
    """

    subcarrier_spacing: float
    num_subcarriers: int
    num_symbols: int = 14
    comb_size: int = 12
    carrier_frequency: float = 28e9

    def __post_init__(self):
        if self.subcarrier_spacing <= 0:
            raise ConfigurationError("subcarrier_spacing must be positive")
        if self.num_subcarriers < 12 or self.num_subcarriers % 12 != 0:
            raise ConfigurationError("num_subcarriers must be a positive multiple of 12")
        if self.num_symbols < 1:
            raise ConfigurationError("num_symbols must be >= 1")
        if self.comb_size not in _SUPPORTED_COMBS:
            raise ConfigurationError(f"comb_size must be one of {_SUPPORTED_COMBS}")

    @property
    def range_resolution(self) -> float:
        """Width of one delay bin in meters."""
        return SPEED_OF_LIGHT / (self.subcarrier_spacing * self.num_subcarriers)

    @property
    def unambiguous_range(self) -> float:
        """Largest bistatic range resolvable without comb aliasing, in meters."""
        return SPEED_OF_LIGHT / (self.subcarrier_spacing * self.comb_size)

    @property
    def symbol_duration(self) -> float:
        """Useful symbol duration 1/subcarrier_spacing in seconds."""
        return 1.0 / self.subcarrier_spacing

    @property
    def cyclic_prefix_duration(self) -> float:
        return _CP_FRACTION * self.symbol_duration

    @property
    def total_symbol_duration(self) -> float:
        """Cyclic prefix plus useful symbol duration in seconds."""
        return self.cyclic_prefix_duration + self.symbol_duration


@dataclass(frozen=True)
class PrsAllocation:
    """Comb offset and sequence seed assigned to one transmitter."""

    transmitter_id: int
    comb_offset: int
    sequence_seed: int

    def __post_init__(self):
        if self.transmitter_id < 0:
            raise ConfigurationError("transmitter_id must be >= 0")
        if self.comb_offset < 0:
            raise ConfigurationError("comb_offset must be >= 0")
        if not 0 < self.sequence_seed < 2**31:
            raise ConfigurationError("sequence_seed must be a nonzero 31-bit integer")


@dataclass(frozen=True)
class ResourceGrid:
    """M x N symbol matrix of one transmitter plus its allocation."""

    symbols: np.ndarray
    allocation: PrsAllocation

    def __post_init__(self):
        mags = np.abs(self.symbols)
        nonzero = mags > 0
        if nonzero.any() and not np.allclose(mags[nonzero], 1.0, atol=1e-12):
            raise ConfigurationError("nonzero grid entries must have unit modulus")


def gold_sequence(seed: int, length: int) -> np.ndarray:
    """Generate `length` bits of the dual-LFSR Gold sequence.

    Two 31-bit linear feedback shift registers are run in parallel.  The
    first register has the fixed start state 1,0,...,0 regardless of the
    seed; the second is loaded with the seed bits (LSB first).  The output
    is the XOR of the two register streams after discarding 1600 warm-up
    bits.

    Args:
        seed: Nonzero 31-bit initial state of the second register.  Zero
            is rejected because an all-zero register never leaves state 0.
        length: Number of output bits, >= 1.

    Returns:
        uint8 array of shape (length,) with 0/1 entries.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if not 0 < seed < 2**31:
        raise ValueError("seed must be a nonzero 31-bit integer")

    # Each register is a Python int holding bits n..n+30 of its stream, bit
    # 0 first.  The highest feedback tap is 3, so bits n+31..n+58 depend
    # only on bits already in the register and one step yields 28 of them.
    steps = -(-(_FAST_FORWARD + length - _REGISTER_LENGTH) // _BLOCK)
    mask = (1 << _BLOCK) - 1
    reg1, reg2 = 1, seed
    blocks = []
    for _ in range(steps):
        new1 = (reg1 ^ (reg1 >> 3)) & mask
        new2 = (reg2 ^ (reg2 >> 1) ^ (reg2 >> 2) ^ (reg2 >> 3)) & mask
        blocks.append(new1 ^ new2)
        reg1 = (reg1 >> _BLOCK) | (new1 << 3)
        reg2 = (reg2 >> _BLOCK) | (new2 << 3)
    words = np.array(blocks, dtype="<u4").view(np.uint8)
    bits = np.unpackbits(words, bitorder="little").reshape(steps, 32)[:, :_BLOCK].ravel()
    # bits[i] is output bit 31 + i; the first 1600 are the warm-up.
    start = _FAST_FORWARD - _REGISTER_LENGTH
    return bits[start:start + length]


def prs_symbols(seed: int, count: int) -> np.ndarray:
    """Map Gold bits to `count` unit-modulus QPSK symbols.

    Symbol m is ((1 - 2 c(2m)) + j (1 - 2 c(2m+1))) / sqrt(2), so every
    symbol lies on one of the four points (+-1 +-1j)/sqrt(2).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    bits = gold_sequence(seed, 2 * count).astype(np.float64)
    re = 1.0 - 2.0 * bits[0::2]
    im = 1.0 - 2.0 * bits[1::2]
    return (re + 1j * im) / np.sqrt(2.0)


def build_grid(config: OfdmConfig, alloc: PrsAllocation) -> ResourceGrid:
    """Fill the allocation's comb positions with reference symbols.

    Symbols are generated as one stream from the allocation seed and laid
    down column by column, M/comb_size per symbol column.  All other grid
    entries are zero.
    """
    if alloc.comb_offset >= config.comb_size:
        raise ConfigurationError(
            f"comb_offset {alloc.comb_offset} out of range for comb size {config.comb_size}"
        )
    m_index = np.arange(alloc.comb_offset, config.num_subcarriers, config.comb_size)
    per_column = m_index.size
    stream = prs_symbols(alloc.sequence_seed, per_column * config.num_symbols)
    grid = np.zeros((config.num_subcarriers, config.num_symbols), dtype=np.complex128)
    grid[m_index, :] = stream.reshape(config.num_symbols, per_column).T
    grid.setflags(write=False)
    return ResourceGrid(symbols=grid, allocation=alloc)
