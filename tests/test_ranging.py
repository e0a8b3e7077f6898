import numpy as np
import pytest

from isacloc import (
    ConfigurationError,
    NoDetectionError,
    NoiseSpec,
    OfdmConfig,
    PrsAllocation,
    ScenarioError,
    apply_channel,
    bistatic_delay,
    build_grid,
    comb_symbols,
    estimate_range,
    extract_and_divide,
    range_profile,
    sample_scenario,
)
from isacloc.phy_channel import noise_variance_from_snr
from isacloc.prs_grid import ResourceGrid
from isacloc.constants import SPEED_OF_LIGHT
from phy_reference import (
    batched_comb_profiles,
    dense_divide,
    dense_grid,
    dense_profile,
    dense_range,
    scatter_blocks,
)


def comb_pairs(blocks, grids, config):
    """Profiles (S, K, W) and ranges (S, K) of comb blocks through the library stages."""
    transmit = comb_symbols(grids, config)
    profiles = np.stack([range_profile(extract_and_divide(block, transmit), config)
                         for block in blocks], axis=1)
    return profiles, estimate_range(profiles, config)


def dense_pairs(blocks, grids, config):
    """Per-pair dense profiles of comb blocks over the first M/comb bins, and ranges."""
    window = config.num_subcarriers // config.comb_size
    received = scatter_blocks(blocks, grids, config)
    profiles = np.zeros((len(grids), len(received), window))
    ranges = np.zeros((len(grids), len(received)))
    for s, grid in enumerate(grids):
        tx = dense_grid(grid, config)
        for k, rx in enumerate(received):
            profile = dense_profile(dense_divide(rx, tx), config)
            profiles[s, k] = profile[:window]
            ranges[s, k] = dense_range(profile, config)
    return profiles, ranges


class TestExtractAndDivide:
    """The dense reference divide, which the comb stages are checked against."""

    def test_identity(self, small_config):
        tx = dense_grid(build_grid(small_config, PrsAllocation(0, sequence_seed=1)), small_config)
        g = dense_divide(tx, tx)
        support = np.abs(tx) > 0
        assert np.allclose(g[support], 1.0, atol=1e-12)
        assert (g[~support] == 0).all()

    def test_zero_transmit_grid_gives_zero(self, small_config):
        shape = (small_config.num_subcarriers, small_config.num_symbols)
        received = np.ones(shape, dtype=complex)
        g = dense_divide(received, np.zeros(shape, dtype=complex))
        assert (g == 0).all()

    def test_single_path_gives_channel_ramp(self, small_config):
        delay = 200e-9
        grid = build_grid(small_config, PrsAllocation(1, sequence_seed=2))
        [rx] = scatter_blocks(apply_channel([grid], [[delay]], small_config), [grid],
                              small_config)
        tx = dense_grid(grid, small_config)
        g = dense_divide(rx, tx)
        m = np.arange(small_config.num_subcarriers)[:, None]
        ramp = np.exp(-2j * np.pi * m * small_config.subcarrier_spacing * delay)
        support = np.abs(tx) > 0
        assert np.allclose(g[support], np.broadcast_to(ramp, g.shape)[support], atol=1e-12)

    def test_shape_mismatch_rejected(self, small_config):
        tx = dense_grid(build_grid(small_config, PrsAllocation(0, sequence_seed=1)), small_config)
        with pytest.raises(ValueError):
            dense_divide(np.zeros((4, 4), dtype=complex), tx)


class TestRangeProfile:
    """The dense M-point reference profile and its comb aliasing."""

    def test_full_support_tone_peaks_at_bin(self, small_config):
        m_count = small_config.num_subcarriers
        q = 7
        m = np.arange(m_count)[:, None]
        g = np.exp(-2j * np.pi * m * q / m_count) * np.ones((1, small_config.num_symbols))
        profile = dense_profile(g, small_config)
        assert int(np.argmax(profile)) == q

    def test_zero_matrix_gives_zero_profile(self, small_config):
        g = np.zeros((small_config.num_subcarriers, small_config.num_symbols), dtype=complex)
        profile = dense_profile(g, small_config)
        assert (profile == 0).all()

    def test_comb_tone_aliases(self, small_config):
        # Energy on every comb_size-th subcarrier only: the profile repeats
        # with period M/comb and shows comb_size equal peaks.
        m_count = small_config.num_subcarriers
        comb = small_config.comb_size
        period = m_count // comb
        q = 3
        g = np.zeros((m_count, small_config.num_symbols), dtype=complex)
        occupied = np.arange(0, m_count, comb)
        g[occupied, :] = np.exp(-2j * np.pi * occupied * q / m_count)[:, None]
        profile = dense_profile(g, small_config)
        peaks = sorted(np.nonzero(profile > 0.99 * profile.max())[0].tolist())
        assert peaks == [q + j * period for j in range(comb)]
        heights = profile[peaks]
        assert np.allclose(heights, heights[0], rtol=1e-9)
        # Full-period repetition, not just at the peaks.
        assert np.allclose(profile[:period], profile[period : 2 * period],
                           rtol=1e-9, atol=1e-12)

    def test_nonnegative_and_length(self, small_config, rng):
        g = rng.normal(size=(small_config.num_subcarriers, small_config.num_symbols)) * (1 + 1j)
        profile = dense_profile(g, small_config)
        assert profile.shape == (small_config.num_subcarriers,)
        assert not profile.flags.writeable
        assert (profile >= 0).all()

    def test_averaging_reduces_offpeak_variance(self):
        # With more symbol columns to average, the spread of the noise-driven
        # off-peak profile values shrinks.
        spreads = []
        for n_symbols in (2, 8, 32):
            config = OfdmConfig(120e3, 48, num_symbols=n_symbols, comb_size=2)
            grid = build_grid(config, PrsAllocation(0, sequence_seed=1))
            tx = dense_grid(grid, config)
            samples = []
            for seed in range(64):
                blocks = apply_channel([grid], [[0.0]], config,
                                       NoiseSpec(variance=0.5, rng_seed=seed))
                [rx] = scatter_blocks(blocks, [grid], config)
                profile = dense_profile(dense_divide(rx, tx), config)
                samples.append(profile[5])  # off-peak bin (peak is at 0)
            spreads.append(np.var(samples))
        assert spreads[0] > spreads[1] > spreads[2]


class TestEstimateRange:
    """The dense reference peak search and the pipeline's quantization bound."""

    def test_fr2_bin_width(self, fr2_config):
        assert abs(fr2_config.range_resolution - 3.157) <= 0.01

    def test_zero_bin_is_zero_range(self, small_config):
        g = np.ones((small_config.num_subcarriers, small_config.num_symbols), dtype=complex)
        assert dense_range(dense_profile(g, small_config), small_config) == 0.0

    def test_all_zero_profile_raises(self, small_config):
        g = np.zeros((small_config.num_subcarriers, small_config.num_symbols), dtype=complex)
        profile = dense_profile(g, small_config)
        with pytest.raises(NoDetectionError):
            dense_range(profile, small_config)

    def test_global_phase_invariance(self, small_config, rng):
        g = rng.normal(size=(small_config.num_subcarriers, small_config.num_symbols)) + 1j * rng.normal(
            size=(small_config.num_subcarriers, small_config.num_symbols)
        )
        base = dense_range(dense_profile(g, small_config), small_config)
        rotated = dense_range(
            dense_profile(g * np.exp(1j * 1.234), small_config), small_config
        )
        assert rotated == base

    def test_search_window_restricted_to_alias_period(self, small_config):
        # A comb tone whose true bin is inside the window must never map to
        # an alias outside [0, M/comb).
        m_count = small_config.num_subcarriers
        comb = small_config.comb_size
        window = m_count // comb
        for q in (1, window // 2, window - 1):
            g = np.zeros((m_count, small_config.num_symbols), dtype=complex)
            occupied = np.arange(0, m_count, comb)
            g[occupied, :] = np.exp(-2j * np.pi * occupied * q / m_count)[:, None]
            estimate = dense_range(dense_profile(g, small_config), small_config)
            assert estimate == q * small_config.range_resolution
            assert estimate < small_config.unambiguous_range

    def test_full_pipeline_quantization_bound(self, fr2_config):
        true_range = 100.0
        delay = true_range / SPEED_OF_LIGHT
        grid = build_grid(fr2_config, PrsAllocation(0, sequence_seed=1))
        [rx] = scatter_blocks(apply_channel([grid], [[delay]], fr2_config), [grid], fr2_config)
        profile = dense_profile(dense_divide(rx, dense_grid(grid, fr2_config)), fr2_config)
        estimate = dense_range(profile, fr2_config)
        assert abs(estimate - true_range) <= fr2_config.range_resolution / 2


class TestCombDomainRanging:
    """The library's comb-domain stages against the dense per-pair path."""

    @pytest.mark.parametrize("snr_db", [10.0, None])
    def test_random_6x6_geometries_match_per_pair_path(self, fr2_config, snr_db):
        variance = 0.0 if snr_db is None else noise_variance_from_snr(snr_db)
        grids = [build_grid(fr2_config, PrsAllocation(s, sequence_seed=1 + s))
                 for s in range(6)]
        for seed in range(8):
            sc = sample_scenario(6, 6, gnb_region=60.0, ue_region=60.0, target_region=30.0,
                                 outlier_max=10.0, rng_seed=seed)
            received = apply_channel(grids, bistatic_delay(sc), fr2_config,
                                     NoiseSpec(variance, seed))
            profiles, ranges = dense_pairs(received, grids, fr2_config)
            comb, comb_ranges = comb_pairs(received, grids, fr2_config)
            # Noise-free bins far from the peak are near zero, so their
            # rounding is bounded relative to the peak, not to themselves.
            atol = 0.0 if snr_db is not None else 1e-12 * profiles.max()
            np.testing.assert_allclose(comb, profiles, rtol=1e-12, atol=atol)
            assert np.array_equal(comb_ranges, ranges)

    def test_comb_tone_at_every_offset(self, small_config):
        m_count = small_config.num_subcarriers
        window = m_count // small_config.comb_size
        q = 5
        tone = np.exp(-2j * np.pi * np.arange(m_count) * q / m_count)[:, None]
        grids = [build_grid(small_config, PrsAllocation(c, sequence_seed=3 + c))
                 for c in range(small_config.comb_size)]
        received = [np.stack([(tone * dense_grid(grid, small_config))[c::small_config.comb_size]
                              for c, grid in enumerate(grids)])]
        profiles, ranges = dense_pairs(received, grids, small_config)
        comb, comb_ranges = comb_pairs(received, grids, small_config)
        assert comb.shape == (small_config.comb_size, 1, window)
        np.testing.assert_allclose(comb, profiles, rtol=1e-12, atol=1e-12 * profiles.max())
        assert (np.argmax(comb, axis=-1) == q).all()
        assert np.array_equal(comb_ranges, ranges)

    def test_all_zero_received_grid_raises(self, small_config):
        transmit = comb_symbols([build_grid(small_config, PrsAllocation(1, sequence_seed=1))],
                                small_config)
        profile = range_profile(extract_and_divide(np.zeros_like(transmit), transmit),
                                small_config)
        assert profile.shape == transmit.shape[:2] and (profile == 0).all()
        with pytest.raises(NoDetectionError):
            estimate_range(profile, small_config)

    def test_received_shape_mismatch_rejected(self, small_config):
        transmit = comb_symbols([build_grid(small_config, PrsAllocation(0, sequence_seed=1))],
                                small_config)
        with pytest.raises(ValueError, match="does not match"):
            extract_and_divide(np.zeros((4, 4), complex), transmit)

    def test_profile_of_a_block_without_the_comb_rows_rejected(self, small_config):
        window = small_config.num_subcarriers // small_config.comb_size
        for divided in (np.ones((1, small_config.num_subcarriers, 2), complex), np.ones(window)):
            with pytest.raises(ValueError, match=f"needs {window} comb rows"):
                range_profile(divided, small_config)

    def test_range_is_the_lowest_peak_bin_times_the_bin_width(self, small_config):
        profiles = np.array([[[0.0, 2.0, 1.0, 2.0]], [[3.0, 0.0, 0.0, 0.0]]])
        ranges = estimate_range(profiles, small_config)
        assert ranges.shape == (2, 1)
        assert np.array_equal(ranges, [[small_config.range_resolution], [0.0]])

    @pytest.mark.parametrize("trial", range(24))
    def test_matches_batched_reference_bit_for_bit(self, trial):
        rng = np.random.default_rng(trial)
        comb = [2, 4, 6, 12][trial % 4]
        config = OfdmConfig(120e3, 12 * int(rng.integers(1, 70)), int(rng.integers(1, 15)), comb)
        num_tx, num_rx = int(rng.integers(1, comb + 1)), int(rng.integers(1, 7))
        offsets = rng.permutation(comb)[:num_tx]
        grids = [build_grid(config, PrsAllocation(int(offsets[s]), int(rng.integers(1, 2**31))))
                 for s in range(num_tx)]
        delays = rng.uniform(0.0, 0.99 / config.subcarrier_spacing, (num_tx, num_rx))
        noise = NoiseSpec(variance=0.0 if trial % 8 < 4 else 0.1, rng_seed=trial)
        blocks = apply_channel(grids, delays, config, noise)
        assert np.array_equal(comb_pairs(blocks, grids, config)[0],
                              batched_comb_profiles(scatter_blocks(blocks, grids, config),
                                                    grids, config))

    def test_energy_off_the_comb_rejected(self, small_config):
        grid = build_grid(small_config, PrsAllocation(1, sequence_seed=1))
        symbols = dense_grid(grid, small_config)
        symbols[2] = 1.0  # row 2 is on comb offset 2, not 1
        with pytest.raises(ConfigurationError, match="unit-modulus entries"):
            ResourceGrid(symbols=symbols, allocation=grid.allocation)
        # Comb rows claimed for an offset past the comb make no stack to divide by.
        stray = ResourceGrid(symbols=grid.symbols, allocation=PrsAllocation(4, sequence_seed=1))
        with pytest.raises(ScenarioError, match="distinct offsets below 4"):
            comb_symbols([stray], small_config)
