import numpy as np
import pytest

from isacloc import (
    ChannelPath,
    NoDetectionError,
    NoiseSpec,
    OfdmConfig,
    PrsAllocation,
    apply_channel,
    bistatic_delay,
    build_grid,
    comb_profiles,
    estimate_range,
    estimate_ranges,
    extract_and_divide,
    noise_variance_from_snr,
    range_profile,
    sample_scenario,
)
from isacloc.constants import SPEED_OF_LIGHT


def dense_pairs(received, grids, config):
    """Per-pair dense profiles over the first M/comb bins, and ranges."""
    window = config.num_subcarriers // config.comb_size
    profiles = np.zeros((len(grids), len(received), window))
    ranges = np.zeros((len(grids), len(received)))
    for s, grid in enumerate(grids):
        for k, rx in enumerate(received):
            profile = range_profile(extract_and_divide(rx, grid), config)
            profiles[s, k] = profile.values[:window]
            ranges[s, k] = estimate_range(profile, config, s, k).range
    return profiles, ranges


class TestExtractAndDivide:
    def test_identity(self, small_config):
        grid = build_grid(small_config, PrsAllocation(0, 0, sequence_seed=1))
        g = extract_and_divide(grid.symbols, grid)
        support = np.abs(grid.symbols) > 0
        assert np.allclose(g[support], 1.0, atol=1e-12)
        assert (g[~support] == 0).all()

    def test_zero_transmit_grid_gives_zero(self, small_config):
        shape = (small_config.num_subcarriers, small_config.num_symbols)
        received = np.ones(shape, dtype=complex)
        g = extract_and_divide(received, np.zeros(shape, dtype=complex))
        assert (g == 0).all()

    def test_single_path_gives_channel_ramp(self, small_config):
        delay = 200e-9
        grid = build_grid(small_config, PrsAllocation(0, 1, sequence_seed=2))
        [rx] = apply_channel([grid], [ChannelPath(0, 0, delay=delay)], small_config)
        g = extract_and_divide(rx, grid)
        m = np.arange(small_config.num_subcarriers)[:, None]
        ramp = np.exp(-2j * np.pi * m * small_config.subcarrier_spacing * delay)
        support = np.abs(grid.symbols) > 0
        assert np.allclose(g[support], np.broadcast_to(ramp, g.shape)[support], atol=1e-12)

    def test_shape_mismatch_rejected(self, small_config):
        grid = build_grid(small_config, PrsAllocation(0, 0, sequence_seed=1))
        with pytest.raises(ValueError):
            extract_and_divide(np.zeros((4, 4), dtype=complex), grid)


class TestRangeProfile:
    def test_full_support_tone_peaks_at_bin(self, small_config):
        m_count = small_config.num_subcarriers
        q = 7
        m = np.arange(m_count)[:, None]
        g = np.exp(-2j * np.pi * m * q / m_count) * np.ones((1, small_config.num_symbols))
        profile = range_profile(g, small_config)
        assert int(np.argmax(profile.values)) == q

    def test_zero_matrix_gives_zero_profile(self, small_config):
        g = np.zeros((small_config.num_subcarriers, small_config.num_symbols), dtype=complex)
        profile = range_profile(g, small_config)
        assert (profile.values == 0).all()

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
        profile = range_profile(g, small_config)
        peaks = sorted(np.nonzero(profile.values > 0.99 * profile.values.max())[0].tolist())
        assert peaks == [q + j * period for j in range(comb)]
        heights = profile.values[peaks]
        assert np.allclose(heights, heights[0], rtol=1e-9)
        # Full-period repetition, not just at the peaks.
        assert np.allclose(profile.values[:period], profile.values[period : 2 * period],
                           rtol=1e-9, atol=1e-12)

    def test_nonnegative_and_length(self, small_config, rng):
        g = rng.normal(size=(small_config.num_subcarriers, small_config.num_symbols)) * (1 + 1j)
        profile = range_profile(g, small_config)
        assert profile.values.shape == (small_config.num_subcarriers,)
        assert (profile.values >= 0).all()

    def test_averaging_reduces_offpeak_variance(self):
        # With more symbol columns to average, the spread of the noise-driven
        # off-peak profile values shrinks.
        spreads = []
        for n_symbols in (2, 8, 32):
            config = OfdmConfig(120e3, 48, num_symbols=n_symbols, comb_size=2)
            grid = build_grid(config, PrsAllocation(0, 0, sequence_seed=1))
            samples = []
            for seed in range(64):
                [rx] = apply_channel(
                    [grid], [ChannelPath(0, 0)], config, NoiseSpec(variance=0.5, rng_seed=seed)
                )
                profile = range_profile(extract_and_divide(rx, grid), config)
                samples.append(profile.values[5])  # off-peak bin (peak is at 0)
            spreads.append(np.var(samples))
        assert spreads[0] > spreads[1] > spreads[2]


class TestEstimateRange:
    def test_fr2_bin_width(self, fr2_config):
        assert abs(fr2_config.range_resolution - 3.157) <= 0.01

    def test_zero_bin_is_zero_range(self, small_config):
        g = np.ones((small_config.num_subcarriers, small_config.num_symbols), dtype=complex)
        estimate = estimate_range(range_profile(g, small_config), small_config)
        assert estimate.peak_index == 0
        assert estimate.range == 0.0

    def test_all_zero_profile_raises(self, small_config):
        g = np.zeros((small_config.num_subcarriers, small_config.num_symbols), dtype=complex)
        profile = range_profile(g, small_config)
        with pytest.raises(NoDetectionError):
            estimate_range(profile, small_config)

    def test_global_phase_invariance(self, small_config, rng):
        g = rng.normal(size=(small_config.num_subcarriers, small_config.num_symbols)) + 1j * rng.normal(
            size=(small_config.num_subcarriers, small_config.num_symbols)
        )
        base = estimate_range(range_profile(g, small_config), small_config)
        rotated = estimate_range(
            range_profile(g * np.exp(1j * 1.234), small_config), small_config
        )
        assert rotated.peak_index == base.peak_index

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
            estimate = estimate_range(range_profile(g, small_config), small_config)
            assert estimate.peak_index == q
            assert estimate.range < small_config.unambiguous_range

    def test_full_pipeline_quantization_bound(self, fr2_config):
        true_range = 100.0
        delay = true_range / SPEED_OF_LIGHT
        grid = build_grid(fr2_config, PrsAllocation(0, 0, sequence_seed=1))
        [rx] = apply_channel([grid], [ChannelPath(0, 0, delay=delay)], fr2_config)
        profile = range_profile(extract_and_divide(rx, grid), fr2_config)
        estimate = estimate_range(profile, fr2_config)
        assert abs(estimate.range - true_range) <= fr2_config.range_resolution / 2


class TestCombDomainRanging:
    """The batched comb-domain path against the dense per-pair path."""

    @pytest.mark.parametrize("snr_db", [10.0, None])
    def test_random_6x6_geometries_match_per_pair_path(self, fr2_config, snr_db):
        variance = 0.0 if snr_db is None else noise_variance_from_snr(snr_db)
        grids = [build_grid(fr2_config, PrsAllocation(s, s, sequence_seed=1 + s))
                 for s in range(6)]
        for seed in range(8):
            sc = sample_scenario(6, 6, gnb_region=60.0, ue_region=60.0, target_region=30.0,
                                 outlier_max=10.0, rng_seed=seed)
            paths = [ChannelPath(s, k, delay=bistatic_delay(sc, s, k))
                     for s in range(6) for k in range(6)]
            received = apply_channel(grids, paths, fr2_config, NoiseSpec(variance, seed))
            profiles, ranges = dense_pairs(received, grids, fr2_config)
            comb = comb_profiles(received, grids, fr2_config)
            # Noise-free bins far from the peak are near zero, so their
            # rounding is bounded relative to the peak, not to themselves.
            atol = 0.0 if snr_db is not None else 1e-12 * profiles.max()
            np.testing.assert_allclose(comb, profiles, rtol=1e-12, atol=atol)
            assert np.array_equal(estimate_ranges(received, grids, fr2_config), ranges)

    def test_comb_tone_at_every_offset(self, small_config):
        m_count = small_config.num_subcarriers
        window = m_count // small_config.comb_size
        q = 5
        tone = np.exp(-2j * np.pi * np.arange(m_count) * q / m_count)[:, None]
        grids = [build_grid(small_config, PrsAllocation(c, c, sequence_seed=3 + c))
                 for c in range(small_config.comb_size)]
        received = [sum(tone * grid.symbols for grid in grids)]
        profiles, ranges = dense_pairs(received, grids, small_config)
        comb = comb_profiles(received, grids, small_config)
        assert comb.shape == (small_config.comb_size, 1, window)
        np.testing.assert_allclose(comb, profiles, rtol=1e-12, atol=1e-12 * profiles.max())
        assert (np.argmax(comb, axis=-1) == q).all()
        assert np.array_equal(estimate_ranges(received, grids, small_config), ranges)

    def test_all_zero_received_grid_raises(self, small_config):
        grids = [build_grid(small_config, PrsAllocation(0, 1, sequence_seed=1))]
        received = [np.zeros((small_config.num_subcarriers, small_config.num_symbols), complex)]
        assert (comb_profiles(received, grids, small_config) == 0).all()
        with pytest.raises(NoDetectionError):
            estimate_ranges(received, grids, small_config)

    def test_received_shape_mismatch_rejected(self, small_config):
        grids = [build_grid(small_config, PrsAllocation(0, 0, sequence_seed=1))]
        with pytest.raises(ValueError):
            comb_profiles([np.zeros((4, 4), complex)], grids, small_config)
