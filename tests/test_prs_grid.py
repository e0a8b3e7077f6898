import weakref

import numpy as np
import pytest

from isacloc import (
    ConfigurationError,
    OfdmConfig,
    PrsAllocation,
    ScenarioError,
    build_grid,
)
from isacloc.prs_grid import ResourceGrid, comb_symbols, gold_sequence, prs_symbols
from phy_reference import dense_grid

# Oracle trace computed with the shift-register emulation below.
SEED_A = 123456789
GOLD_62_SEED_A = [
    1, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0,
    1, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1,
    1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0,
]


def oracle_streams(seed, length, warmup=1600):
    """Independent LFSR oracle: both registers as integers, stepped bitwise.

    Register bit 0 is the output; feedback enters at bit 30.  Returns the
    x1 and x2 output streams after the warm-up offset.
    """
    mask = (1 << 31) - 1
    reg1 = 1
    reg2 = seed & mask
    x1, x2 = [], []
    for _ in range(warmup + length):
        x1.append(reg1 & 1)
        x2.append(reg2 & 1)
        fb1 = ((reg1 >> 3) ^ reg1) & 1
        fb2 = ((reg2 >> 3) ^ (reg2 >> 2) ^ (reg2 >> 1) ^ reg2) & 1
        reg1 = (reg1 >> 1) | (fb1 << 30)
        reg2 = (reg2 >> 1) | (fb2 << 30)
    return x1[warmup:], x2[warmup:]


class TestGoldSequence:
    def test_deterministic(self):
        a = gold_sequence(0x1234ABC, 10)
        b = gold_sequence(0x1234ABC, 10)
        assert np.array_equal(a, b)

    def test_matches_frozen_oracle_trace(self):
        assert gold_sequence(SEED_A, 62).tolist() == GOLD_62_SEED_A

    @pytest.mark.parametrize("seed", [1, 77, SEED_A, 2**31 - 1])
    def test_matches_stepped_oracle(self, seed):
        # The registers advance 28 bits per step: lengths around one and two
        # steps, and the 1848 bits of one 792 x 14 comb-12 grid.
        x1, x2 = oracle_streams(seed, 1848)
        expected = [a ^ b for a, b in zip(x1, x2)]
        for length in (1, 27, 28, 29, 56, 200, 1848):
            assert gold_sequence(seed, length).tolist() == expected[:length], length

    def test_first_register_is_seed_independent(self):
        x1_a, x2_a = oracle_streams(SEED_A, 100)
        x1_b, x2_b = oracle_streams(987654321, 100)
        assert x1_a == x1_b
        # Each gold stream is that shared x1 stream XOR its own x2 stream.
        assert gold_sequence(SEED_A, 100).tolist() == [a ^ b for a, b in zip(x1_a, x2_a)]
        assert gold_sequence(987654321, 100).tolist() == [a ^ b for a, b in zip(x1_b, x2_b)]

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            gold_sequence(0, 10)

    def test_out_of_range_seed_rejected(self):
        with pytest.raises(ValueError):
            gold_sequence(2**31, 10)

    def test_length_must_be_positive(self):
        with pytest.raises(ValueError):
            gold_sequence(1, 0)


class TestPrsSymbols:
    def test_quadrant_mapping_matches_bits(self):
        bits = gold_sequence(SEED_A, 40)
        symbols = prs_symbols(SEED_A, 20)
        for m in range(20):
            expected = ((1 - 2 * int(bits[2 * m])) + 1j * (1 - 2 * int(bits[2 * m + 1]))) / np.sqrt(2)
            assert symbols[m] == expected

    def test_all_four_constellation_points(self):
        symbols = prs_symbols(SEED_A, 500)
        points = {(np.sign(s.real), np.sign(s.imag)) for s in symbols}
        assert points == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_unit_modulus(self):
        symbols = prs_symbols(42, 1000)
        assert np.max(np.abs(np.abs(symbols) - 1.0)) < 1e-15

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            prs_symbols(1, 0)


class TestOfdmConfig:
    def test_range_resolution(self, fr2_config):
        assert fr2_config.range_resolution == pytest.approx(3.1544, abs=1e-3)

    def test_unambiguous_range(self, fr2_config):
        assert fr2_config.unambiguous_range == pytest.approx(
            fr2_config.range_resolution * 792 / 12
        )

    def test_defaults_are_the_fr2_numerology(self, fr2_config):
        assert OfdmConfig() == fr2_config

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(subcarrier_spacing=-1.0, num_subcarriers=792),
            dict(subcarrier_spacing=120e3, num_subcarriers=791),
            dict(subcarrier_spacing=120e3, num_subcarriers=792, num_symbols=0),
            dict(subcarrier_spacing=120e3, num_subcarriers=792, comb_size=5),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            OfdmConfig(**kwargs)


def dense_layout(config, alloc):
    """The allocation's M x N grid, built straight from prs_symbols.

    Column n holds symbols n*W .. n*W + W - 1 of the allocation's stream on
    the rows comb_offset + comb_size*i; every other entry is zero.
    """
    m_index = np.arange(alloc.comb_offset, config.num_subcarriers, config.comb_size)
    per_column = m_index.size
    stream = prs_symbols(alloc.sequence_seed, per_column * config.num_symbols)
    grid = np.zeros((config.num_subcarriers, config.num_symbols), dtype=np.complex128)
    grid[m_index, :] = stream.reshape(config.num_symbols, per_column).T
    return grid


class TestBuildGrid:
    def test_default_grid_is_its_comb_rows(self):
        grid = build_grid(OfdmConfig(), PrsAllocation(comb_offset=0, sequence_seed=1))
        assert grid.symbols.shape == (66, 14)

    def test_comb12_occupancy(self, fr2_config):
        grid = build_grid(fr2_config, PrsAllocation(comb_offset=0, sequence_seed=1))
        nonzero_per_column = np.count_nonzero(dense_grid(grid, fr2_config), axis=0)
        assert (nonzero_per_column == 66).all()

    def test_disjoint_supports(self, fr2_config):
        g0 = build_grid(fr2_config, PrsAllocation(0, sequence_seed=1))
        g1 = build_grid(fr2_config, PrsAllocation(1, sequence_seed=2))
        overlap = (np.abs(dense_grid(g0, fr2_config)) > 0) & (np.abs(dense_grid(g1, fr2_config)) > 0)
        assert not overlap.any()

    @pytest.mark.parametrize("comb", [2, 4, 6, 12])
    def test_comb_rows_lay_out_as_the_dense_grid(self, comb):
        # Every offset's rows, scattered to their subcarriers, give bit for
        # bit the dense grid: full comb rows, disjoint between offsets.
        config = OfdmConfig(120e3, 72, num_symbols=3, comb_size=comb)
        for seed in (5, 2**31 - 1):
            dense = [dense_grid(build_grid(config, PrsAllocation(c, seed)), config)
                     for c in range(comb)]
            for c, grid in enumerate(dense):
                assert np.array_equal(grid, dense_layout(config, PrsAllocation(c, seed)))
            assert (np.count_nonzero(dense, axis=0) == 1).all()

    def test_unit_modulus_entries(self, small_config):
        grid = build_grid(small_config, PrsAllocation(1, sequence_seed=3))
        assert np.max(np.abs(np.abs(grid.symbols) - 1.0)) < 1e-15

    def test_deterministic(self):
        # Each config is freed after its call, so the second grid is rebuilt.
        alloc = PrsAllocation(3, sequence_seed=77)
        a = build_grid(OfdmConfig(120e3, 60, 3, 4), alloc).symbols
        b = build_grid(OfdmConfig(120e3, 60, 3, 4), alloc).symbols
        assert a is not b
        assert np.array_equal(a, b)

    def test_offset_out_of_range(self, fr2_config):
        with pytest.raises(ConfigurationError):
            build_grid(fr2_config, PrsAllocation(comb_offset=12, sequence_seed=1))

    @pytest.mark.parametrize("fields", [(1.0, 1), (0, 1.5), (0, True)])
    def test_allocation_rejects_non_integer_fields(self, fields):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            PrsAllocation(*fields)

    @pytest.mark.parametrize("fields, message", [
        ((-1, 1), "comb_offset must be >= 0"),
        ((0, 0), "sequence_seed must be a nonzero 31-bit integer"),
        ((0, 2**31), "sequence_seed must be a nonzero 31-bit integer"),
    ], ids=["negative offset", "zero seed", "seed beyond 31 bits"])
    def test_allocation_rejects_out_of_range_fields(self, fields, message):
        with pytest.raises(ConfigurationError, match=message):
            PrsAllocation(*fields)

    def test_allocation_takes_only_offset_and_seed(self):
        with pytest.raises(TypeError):
            PrsAllocation(0, 0, 1)

    def test_resource_grid_rejects_non_unit_entries(self, small_config):
        bad = np.full((small_config.num_subcarriers // 4, small_config.num_symbols), 2.0 + 0j)
        with pytest.raises(ConfigurationError):
            ResourceGrid(symbols=bad, allocation=PrsAllocation(0, 1))

    @pytest.mark.parametrize("case", ["zero entry", "1-D", "3-D", "dense M x N"])
    def test_resource_grid_rejects_anything_but_full_comb_rows(self, small_config, case):
        grid = build_grid(small_config, PrsAllocation(1, sequence_seed=2))
        holed = grid.symbols.copy()
        holed[1, 0] = 0
        symbols = {
            "zero entry": holed,
            "1-D": grid.symbols.ravel(),
            "3-D": grid.symbols[None],
            "dense M x N": dense_grid(grid, small_config),
        }[case]
        with pytest.raises(ConfigurationError, match="2-D array of unit-modulus entries"):
            ResourceGrid(symbols=symbols, allocation=grid.allocation)


class TestGridCache:
    """Grids are built once per (config, allocation) and shared, read-only."""

    def test_repeated_calls_return_the_same_grid(self, fr2_config):
        alloc = PrsAllocation(3, sequence_seed=4)
        grid = build_grid(fr2_config, alloc)
        assert build_grid(fr2_config, alloc) is grid
        equal_config = OfdmConfig(120e3, 792, 14, 12)
        assert build_grid(equal_config, PrsAllocation(3, sequence_seed=4)) is grid

    def test_symbols_are_read_only(self, fr2_config):
        grid = build_grid(fr2_config, PrsAllocation(5, sequence_seed=11))
        with pytest.raises(ValueError):
            grid.symbols[0] = 0

    def test_cache_is_bounded(self):
        config = OfdmConfig(120e3, 24, num_symbols=2, comb_size=2)
        allocs = [PrsAllocation(0, sequence_seed=10_000 + i) for i in range(65)]
        grids = [build_grid(config, alloc) for alloc in allocs]
        assert build_grid(config, allocs[-1]) is grids[-1]
        rebuilt = build_grid(config, allocs[0])
        assert rebuilt is not grids[0]
        assert np.array_equal(rebuilt.symbols, grids[0].symbols)

    def test_grids_are_freed_with_their_config(self):
        config = OfdmConfig(120e3, 36, num_symbols=3, comb_size=6)
        grid = weakref.ref(build_grid(config, PrsAllocation(1, sequence_seed=8)))
        assert grid() is not None
        del config
        assert grid() is None


class TestCombSymbols:
    """The comb stack holds each grid's comb rows; every call checks its grids."""

    @staticmethod
    def _grids(config):
        return [build_grid(config, PrsAllocation(s, sequence_seed=1 + s)) for s in range(3)]

    def test_stack_holds_each_grids_comb_rows(self, fr2_config):
        grids = self._grids(fr2_config)
        symbols = comb_symbols(grids, fr2_config)
        assert not symbols.flags.writeable
        expected = np.stack([dense_grid(g, fr2_config)[g.allocation.comb_offset::12]
                             for g in grids])
        assert np.array_equal(symbols, expected)

    def test_other_grids_are_checked_on_every_call(self, fr2_config):
        grids = self._grids(fr2_config)
        built = comb_symbols(grids, fr2_config)
        copies = [ResourceGrid(g.symbols.copy(), g.allocation) for g in grids]
        stacked = comb_symbols(copies, fr2_config)
        assert stacked is not built and np.array_equal(stacked, built)
        # Same allocations as the built grids, but one comb row too many.
        tall = np.vstack([grids[1].symbols, grids[1].symbols[:1]])
        with pytest.raises(ScenarioError, match="66 x 14 comb rows"):
            comb_symbols([grids[0], ResourceGrid(tall, grids[1].allocation), grids[2]],
                         fr2_config)

    def test_offset_beyond_the_comb_rejected(self, fr2_config):
        grids = self._grids(fr2_config)
        beyond = ResourceGrid(grids[1].symbols, PrsAllocation(12, sequence_seed=2))
        with pytest.raises(ScenarioError, match="distinct offsets below 12"):
            comb_symbols([grids[0], beyond], fr2_config)
