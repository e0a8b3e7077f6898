"""Reference-signal sequences and comb-structured OFDM resource grids.

Each transmitter gets a comb offset c and a 31-bit sequence seed.  It
sends unit-modulus QPSK symbols on the subcarriers c + comb_size*i of its
comb and nothing elsewhere, so its grid holds only those W = M/comb_size
rows.  Transmitters with distinct offsets occupy disjoint subcarrier sets
and can be separated at the receiver by subcarrier alone.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import (ConfigurationError, ScenarioError, check_finite, check_integer,
                     store_python_numbers)

_REGISTER_LENGTH = 31
_FAST_FORWARD = 1600  # discarded warm-up outputs of the combined sequence
_BLOCK = 28  # register bits advanced per step: 31 minus the highest tap, 3
_SUPPORTED_COMBS = (2, 4, 6, 12)
_GRIDS_PER_CONFIG = 64
# OfdmConfig -> {PrsAllocation: ResourceGrid}.  Weak keys, so that a
# config's grids are freed with the config and not kept by the module.
_grids = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class OfdmConfig:
    """OFDM numerology for one sensing carrier; every field has a default.

    Attributes:
        subcarrier_spacing: Subcarrier spacing in Hz, default 120 kHz (numerology 3).
        num_subcarriers: Grid height M; a multiple of 12, default 792 (66 resource blocks).
        num_symbols: Grid width N (time-domain symbols), default one slot.
        comb_size: Frequency comb period; one of 2, 4, 6, 12.
    """

    subcarrier_spacing: float = 120e3
    num_subcarriers: int = 792
    num_symbols: int = 14
    comb_size: int = 12

    def __post_init__(self):
        store_python_numbers(self)
        for name in ("num_subcarriers", "num_symbols", "comb_size"):
            check_integer(name, getattr(self, name))
        check_finite("subcarrier_spacing", self.subcarrier_spacing)
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


@dataclass(frozen=True)
class PrsAllocation:
    """Comb offset and sequence seed assigned to one transmitter."""

    comb_offset: int
    sequence_seed: int

    def __post_init__(self):
        for name in ("comb_offset", "sequence_seed"):
            check_integer(name, getattr(self, name))
        if self.comb_offset < 0:
            raise ConfigurationError("comb_offset must be >= 0")
        if not 0 < self.sequence_seed < 2**31:
            raise ConfigurationError("sequence_seed must be a nonzero 31-bit integer")


@dataclass(frozen=True)
class ResourceGrid:
    """The W x N comb rows one transmitter sends, plus its allocation.

    Row i of `symbols` is subcarrier comb_offset + comb_size*i.  Every entry
    must have unit modulus, so a grid always fills its whole comb; the
    symbols must not change once the grid is built.
    """

    symbols: np.ndarray
    allocation: PrsAllocation

    def __post_init__(self):
        symbols = self.symbols
        if (not isinstance(symbols, np.ndarray) or symbols.ndim != 2
                or not np.allclose(np.abs(symbols), 1.0, atol=1e-12)):
            raise ConfigurationError("grid symbols must be a 2-D array of unit-modulus entries")


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
    """Generate the allocation's W x N comb rows of reference symbols.

    Symbols are generated as one stream from the allocation seed and laid
    down column by column, W = M/comb_size per symbol column; row i goes
    on subcarrier comb_offset + comb_size*i.  The grid depends on nothing
    else, so it is built once: while an equal config is alive, an equal
    allocation returns the same read-only grid.  At most 64 grids are kept
    per config, the oldest dropped first.
    """
    grids = _grids.setdefault(config, {})
    if alloc in grids:
        return grids[alloc]
    if alloc.comb_offset >= config.comb_size:
        raise ConfigurationError(
            f"comb_offset {alloc.comb_offset} out of range for comb size {config.comb_size}"
        )
    window = config.num_subcarriers // config.comb_size
    stream = prs_symbols(alloc.sequence_seed, window * config.num_symbols)
    # C order: the comb stack keeps its inputs' layout, and the ranging's
    # mean over symbols rounds differently on a transposed one.
    grid = np.ascontiguousarray(stream.reshape(config.num_symbols, window).T)
    grid.setflags(write=False)
    if len(grids) >= _GRIDS_PER_CONFIG:
        del grids[next(iter(grids))]
    grids[alloc] = ResourceGrid(symbols=grid, allocation=alloc)
    return grids[alloc]


def comb_symbols(grids, config: OfdmConfig) -> np.ndarray:
    """Stack the comb rows of grids of `config` on distinct offsets.

    Every grid must be W x N (W = M/comb_size) and its comb offset below
    comb_size, and no two grids may share an offset; otherwise
    ScenarioError.  Entry [s, i, n] of the read-only (S, W, N) result is
    grids[s].symbols[i, n], sent on subcarrier c_s + comb_size*i with c_s
    the comb offset of grids[s].
    """
    shape = (config.num_subcarriers // config.comb_size, config.num_symbols)
    offsets = [grid.allocation.comb_offset for grid in grids]
    if (not grids or any(grid.symbols.shape != shape for grid in grids)
            or len(set(offsets)) != len(offsets) or max(offsets) >= config.comb_size):
        raise ScenarioError(f"transmit grids must be {shape[0]} x {shape[1]} comb rows on "
                            f"distinct offsets below {config.comb_size}; got offsets {offsets}")
    symbols = np.stack([grid.symbols for grid in grids])
    symbols.setflags(write=False)
    return symbols
