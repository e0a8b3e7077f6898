import numpy as np
import pytest

from isacloc import (
    ConfigurationError,
    OfdmConfig,
    PrsAllocation,
    ResourceGrid,
    build_grid,
    gold_sequence,
    prs_symbols,
)

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

    def test_cp_duration_scale(self, fr2_config):
        # 120 kHz numerology: normal CP is about 0.59 microseconds.
        assert fr2_config.cyclic_prefix_duration == pytest.approx(0.586e-6, rel=1e-2)

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


class TestBuildGrid:
    def test_comb12_occupancy(self, fr2_config):
        grid = build_grid(fr2_config, PrsAllocation(0, comb_offset=0, sequence_seed=1))
        nonzero_per_column = np.count_nonzero(grid.symbols, axis=0)
        assert (nonzero_per_column == 66).all()

    def test_comb2_even_subcarriers(self):
        config = OfdmConfig(120e3, 48, num_symbols=2, comb_size=2)
        grid = build_grid(config, PrsAllocation(0, comb_offset=0, sequence_seed=9))
        occupied = np.nonzero(np.abs(grid.symbols[:, 0]))[0]
        assert (occupied % 2 == 0).all()
        assert occupied.size == 24

    def test_comb_support(self, small_config):
        for offset in range(small_config.comb_size):
            grid = build_grid(small_config, PrsAllocation(0, offset, sequence_seed=5))
            rows = np.nonzero(np.abs(grid.symbols).sum(axis=1))[0]
            assert (rows % small_config.comb_size == offset).all()
            assert rows.size == small_config.num_subcarriers // small_config.comb_size

    def test_disjoint_supports(self, fr2_config):
        g0 = build_grid(fr2_config, PrsAllocation(0, 0, sequence_seed=1))
        g1 = build_grid(fr2_config, PrsAllocation(1, 1, sequence_seed=2))
        overlap = (np.abs(g0.symbols) > 0) & (np.abs(g1.symbols) > 0)
        assert not overlap.any()

    def test_unit_modulus_entries(self, small_config):
        grid = build_grid(small_config, PrsAllocation(0, 1, sequence_seed=3))
        mags = np.abs(grid.symbols)
        assert np.max(np.abs(mags[mags > 0] - 1.0)) < 1e-15

    def test_deterministic(self, small_config):
        alloc = PrsAllocation(2, 3, sequence_seed=77)
        a = build_grid(small_config, alloc)
        b = build_grid(small_config, alloc)
        assert np.array_equal(a.symbols, b.symbols)

    def test_offset_out_of_range(self, fr2_config):
        with pytest.raises(ConfigurationError):
            build_grid(fr2_config, PrsAllocation(0, comb_offset=12, sequence_seed=1))

    def test_resource_grid_rejects_non_unit_entries(self, small_config):
        bad = np.full((small_config.num_subcarriers, small_config.num_symbols), 2.0 + 0j)
        with pytest.raises(ConfigurationError):
            ResourceGrid(symbols=bad, allocation=PrsAllocation(0, 0, 1))
