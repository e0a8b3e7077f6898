import math

import numpy as np
import pytest

from isacloc import (
    ConfigurationError,
    ExperimentConfig,
    NoiseSpec,
    OfdmConfig,
    PrsAllocation,
    Scenario,
    ScenarioError,
    apply_channel,
    bistatic_delay,
    build_grid,
    sample_scenario,
    synthesize_measurements_phy,
)
from isacloc.harness import _trial_seed
from isacloc.phy_channel import noise_variance_from_snr
from isacloc.prs_grid import ResourceGrid
from isacloc.constants import SPEED_OF_LIGHT
from isacloc.scenario import true_bistatic_ranges
from phy_reference import (
    batched_comb_profiles,
    dense_channel,
    dense_divide,
    dense_grid,
    dense_profile,
    dense_range,
    scatter_blocks,
)


def channel(grids, delays, config, noise=NoiseSpec()):
    """apply_channel's comb blocks laid out as K received M x N grids."""
    return scatter_blocks(apply_channel(grids, delays, config, noise), grids, config)


def pair_delay(scenario, s, k):
    """Delay of one transmitter -> target -> receiver path, one pair at a time."""
    g = scenario.gnb_positions[s]
    u = scenario.ue_positions[k]
    x0 = scenario.target
    r = float(np.linalg.norm(x0 - g) + np.linalg.norm(x0 - u))
    r += float(scenario.link_excess_gnb[s] + scenario.link_excess_ue[k])
    return r / SPEED_OF_LIGHT


def _scenario(gnbs, ues, target, zg=None, zu=None):
    gnbs = np.asarray(gnbs, float)
    ues = np.asarray(ues, float)
    return Scenario(
        gnb_positions=gnbs,
        ue_positions=ues,
        target=np.asarray(target, float),
        link_excess_gnb=np.zeros(len(gnbs)) if zg is None else np.asarray(zg, float),
        link_excess_ue=np.zeros(len(ues)) if zu is None else np.asarray(zu, float),
    )


class TestApplyChannel:
    def test_identity_channel(self, small_config):
        grid = build_grid(small_config, PrsAllocation(0, sequence_seed=1))
        [rx] = channel([grid], [[0.0]], small_config)
        assert np.array_equal(rx, dense_grid(grid, small_config))

    def test_integer_bin_phase_ramp(self, small_config):
        m_count = small_config.num_subcarriers
        q = 5
        delay = q / (small_config.subcarrier_spacing * m_count)
        grid = build_grid(small_config, PrsAllocation(0, sequence_seed=1))
        [rx] = channel([grid], [[delay]], small_config)
        tx = dense_grid(grid, small_config)
        support = np.abs(tx) > 0
        ramp = np.exp(-2j * np.pi * np.arange(m_count) * q / m_count)[:, None]
        expected = ramp * tx
        assert np.allclose(rx[support], expected[support], atol=1e-12)

    def test_channel_phase_exact_on_support(self, small_config):
        # Divided grid equals the analytic delay ramp.
        delay = 123e-9
        grid = build_grid(small_config, PrsAllocation(2, sequence_seed=4))
        [rx] = channel([grid], [[delay]], small_config)
        tx = dense_grid(grid, small_config)
        support = np.abs(tx) > 0
        m = np.arange(small_config.num_subcarriers)[:, None]
        expected = np.exp(-2j * np.pi * m * small_config.subcarrier_spacing * delay)
        ratio = rx[support] / tx[support]
        assert np.allclose(ratio, np.broadcast_to(expected, tx.shape)[support], atol=1e-12)

    def test_disjoint_combs_split_by_support(self, small_config):
        g0 = build_grid(small_config, PrsAllocation(0, sequence_seed=1))
        g1 = build_grid(small_config, PrsAllocation(1, sequence_seed=2))
        [joint] = channel([g0, g1], [[50e-9], [80e-9]], small_config)
        [only0] = channel([g0], [[50e-9]], small_config)
        [only1] = channel([g1], [[80e-9]], small_config)
        support0 = np.abs(dense_grid(g0, small_config)) > 0
        support1 = np.abs(dense_grid(g1, small_config)) > 0
        assert np.allclose(joint[support0], only0[support0])
        assert np.allclose(joint[support1], only1[support1])

    def test_superposition_linearity(self, small_config):
        g0 = build_grid(small_config, PrsAllocation(0, sequence_seed=1))
        g1 = build_grid(small_config, PrsAllocation(1, sequence_seed=2))
        [joint] = channel([g0, g1], [[10e-9], [20e-9]], small_config)
        [a] = channel([g0], [[10e-9]], small_config)
        [b] = channel([g1], [[20e-9]], small_config)
        assert np.allclose(joint, a + b, atol=1e-12)

    def test_noise_statistics(self):
        # Noise at the set variance on the rows of the two transmit combs;
        # the rows no comb covers are exactly the noise-free grid.
        config = OfdmConfig(120e3, 240, num_symbols=100, comb_size=4)
        grids = [build_grid(config, PrsAllocation(s, sequence_seed=1 + s)) for s in range(2)]
        variance = 0.7
        [clean] = channel(grids, [[0.0], [0.0]], config)
        [rx] = channel(grids, [[0.0], [0.0]], config,
                       NoiseSpec(variance=variance, rng_seed=11))
        on_comb = np.arange(config.num_subcarriers) % config.comb_size < 2
        noise = (rx - clean)[on_comb]
        assert noise.size >= 10_000
        assert np.var(noise.real) == pytest.approx(variance, rel=0.05)
        assert np.var(noise.imag) == pytest.approx(variance, rel=0.05)
        assert np.array_equal(rx[~on_comb], clean[~on_comb])

    @pytest.mark.parametrize("variance", [float("nan"), float("inf"), -0.1])
    def test_noise_variance_must_be_finite_and_nonnegative(self, variance):
        with pytest.raises(ScenarioError):
            NoiseSpec(variance=variance)

    @pytest.mark.parametrize("variance", ["0.1", None, True, 1 + 0j])
    def test_noise_variance_must_be_a_number(self, variance):
        with pytest.raises(ScenarioError, match="variance must be a number"):
            NoiseSpec(variance=variance)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "3", None])
    def test_noise_seed_must_be_an_integer(self, seed):
        with pytest.raises(ScenarioError, match="rng_seed must be an integer"):
            NoiseSpec(0.1, seed)

    def test_noise_seed_must_be_nonnegative(self):
        with pytest.raises(ScenarioError, match="rng_seed must be >= 0"):
            NoiseSpec(0.1, -1)

    def test_noise_seed_may_be_a_numpy_integer(self, small_config):
        grid = build_grid(small_config, PrsAllocation(0, sequence_seed=1))
        [a] = apply_channel([grid], [[0.0]], small_config, NoiseSpec(0.1, np.int64(5)))
        [b] = apply_channel([grid], [[0.0]], small_config, NoiseSpec(0.1, 5))
        assert np.array_equal(a, b)

    def test_noise_reproducible_and_per_receiver(self, small_config):
        grid = build_grid(small_config, PrsAllocation(0, sequence_seed=1))
        noise = NoiseSpec(variance=0.1, rng_seed=5)
        first = apply_channel([grid], [[0.0, 0.0]], small_config, noise)
        second = apply_channel([grid], [[0.0, 0.0]], small_config, noise)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])
        assert not np.array_equal(first[0], first[1])

    @pytest.mark.parametrize("trial", range(20))
    def test_matches_dense_reference(self, trial):
        # Random comb grids at shuffled offsets, delays and noise: the comb
        # blocks, laid out as M x N grids, reproduce the dense sum bit for bit.
        rng = np.random.default_rng(trial)
        comb = int(rng.choice([2, 4, 6, 12]))
        config = OfdmConfig(120e3, 12 * int(rng.integers(1, 12)), int(rng.integers(1, 15)), comb)
        num_tx, num_rx = int(rng.integers(1, comb + 1)), int(rng.integers(1, 4))
        offsets = rng.permutation(comb)[:num_tx]
        grids = [
            build_grid(config, PrsAllocation(int(offsets[s]), int(rng.integers(1, 2**31))))
            for s in range(num_tx)
        ]
        delays = rng.uniform(0.0, 0.99 / config.subcarrier_spacing, (num_tx, num_rx))
        noise = NoiseSpec(variance=[0.0, 0.05, 0.5][trial % 3], rng_seed=trial)
        blocks = apply_channel(grids, delays, config, noise)
        expected = dense_channel(grids, delays, config, noise)
        assert len(blocks) == num_rx
        window = config.num_subcarriers // comb
        assert all(block.shape == (num_tx, window, config.num_symbols) for block in blocks)
        for rx, dense in zip(scatter_blocks(blocks, grids, config), expected):
            assert np.array_equal(rx, dense)

    def test_one_row_paths_match_dense_reference(self):
        # One support row per path, one symbol and one receiver: every
        # product has a single element, which numpy may round in another loop.
        config = OfdmConfig(120e3, 12, num_symbols=1, comb_size=12)
        grids = [build_grid(config, PrsAllocation(s, sequence_seed=1 + s)) for s in range(12)]
        delays = np.random.default_rng(0).uniform(0.0, 0.99 / config.subcarrier_spacing, (12, 1))
        for noise in (NoiseSpec(), NoiseSpec(variance=0.05, rng_seed=3)):
            [rx] = channel(grids, delays, config, noise)
            [dense] = dense_channel(grids, delays, config, noise)
            assert np.array_equal(rx, dense)

    def test_two_grids_on_one_offset_rejected(self, small_config):
        # Paths that share subcarriers are rejected, not summed.
        g0 = build_grid(small_config, PrsAllocation(1, sequence_seed=1))
        g1 = build_grid(small_config, PrsAllocation(1, sequence_seed=2))
        with pytest.raises(ScenarioError, match="on distinct offsets"):
            apply_channel([g0, g1], np.zeros((2, 1)), small_config)

    # A grid that does not fill its comb is refused when it is built, so it
    # never reaches the channel.  Comb offset 1 of comb 4 is rows 1, 5, 9,
    # ... of the dense layout: row 2 lies off it.
    @pytest.mark.parametrize("dense, index, value", [(True, 2, 1.0), (False, 1, 0.0),
                                                     (False, (1, 0), 0.0)],
                             ids=["off-comb row", "partial comb", "missing entry"])
    def test_grid_that_does_not_fill_its_comb_rejected(self, small_config, dense, index, value):
        grid = build_grid(small_config, PrsAllocation(1, sequence_seed=1))
        symbols = dense_grid(grid, small_config) if dense else grid.symbols.copy()
        symbols[index] = value
        with pytest.raises(ConfigurationError, match="2-D array of unit-modulus entries"):
            ResourceGrid(symbols=symbols, allocation=grid.allocation)

    @pytest.mark.parametrize("shape", [(2, 1), (1,), (1, 1, 1)])
    def test_delay_matrix_shape_rejected(self, small_config, shape):
        grid = build_grid(small_config, PrsAllocation(0, sequence_seed=1))
        with pytest.raises(ScenarioError):
            apply_channel([grid], np.zeros(shape), small_config)

    def test_grid_shape_rejected(self, small_config, fr2_config):
        grid = build_grid(fr2_config, PrsAllocation(0, sequence_seed=1))
        with pytest.raises(ScenarioError):
            apply_channel([grid], [[0.0]], small_config)

    def test_delay_beyond_window_rejected(self, small_config):
        grid = build_grid(small_config, PrsAllocation(0, sequence_seed=1))
        too_long = 1.0 / small_config.subcarrier_spacing
        with pytest.raises(ScenarioError):
            apply_channel([grid], [[too_long]], small_config)

    @pytest.mark.parametrize("delay", [-1e-12, math.nan])
    def test_negative_or_nan_delay_rejected(self, small_config, delay):
        grid = build_grid(small_config, PrsAllocation(0, sequence_seed=1))
        with pytest.raises(ScenarioError):
            apply_channel([grid], [[delay]], small_config)


class TestBistaticDelay:
    def test_three_four_five(self):
        sc = _scenario([[3.0, 4.0]], [[0.0, 5.0]], [0.0, 0.0])
        assert bistatic_delay(sc)[0, 0] == pytest.approx(10.0 / SPEED_OF_LIGHT)

    def test_coincident_nodes(self):
        sc = _scenario([[1.0, 2.0]], [[1.0, 2.0]], [1.0, 2.0])
        assert bistatic_delay(sc)[0, 0] == 0.0

    def test_link_excess_added(self):
        sc = _scenario([[3.0, 4.0]], [[0.0, 5.0]], [0.0, 0.0], zg=[1.5], zu=[0.5])
        assert bistatic_delay(sc)[0, 0] == pytest.approx(12.0 / SPEED_OF_LIGHT)

    def test_random_geometry_matches_oracle(self, rng):
        for _ in range(25):
            gnbs = rng.uniform(-100, 100, (3, 2))
            ues = rng.uniform(-100, 100, (2, 2))
            target = rng.uniform(-50, 50, 2)
            delays = bistatic_delay(_scenario(gnbs, ues, target))
            assert delays.shape == (3, 2)
            for s in range(3):
                for k in range(2):
                    expected = (
                        math.hypot(target[0] - gnbs[s, 0], target[1] - gnbs[s, 1])
                        + math.hypot(target[0] - ues[k, 0], target[1] - ues[k, 1])
                    ) / SPEED_OF_LIGHT
                    assert delays[s, k] == pytest.approx(expected, rel=1e-12)

    def test_matrix_is_the_true_ranges_over_c_bit_for_bit(self, rng):
        # Phy mode starts from the very floats of true_bistatic_ranges; the
        # per-pair sum rounds in another order, so it agrees to the last bits.
        for seed in range(300):
            num_gnbs, num_ues = (6, 6) if seed % 2 else tuple(rng.integers(1, 9, 2))
            sc = sample_scenario(int(num_gnbs), int(num_ues), gnb_region=60.0, ue_region=60.0,
                                 target_region=30.0, outlier_max=10.0, rng_seed=seed)
            delays = bistatic_delay(sc)
            assert np.array_equal(delays, true_bistatic_ranges(sc).ranges / SPEED_OF_LIGHT)
            expected = [[pair_delay(sc, s, k) for k in range(sc.num_ues)]
                        for s in range(sc.num_gnbs)]
            np.testing.assert_allclose(delays, expected, rtol=1e-15, atol=0)


@pytest.mark.parametrize("snr_db", [10.0, None])
def test_phy_synthesis_matches_per_pair_pipeline(fr2_config, snr_db):
    # Per-pair delays, the dense channel and dense per-pair ranging give
    # exactly the ranges of the matrix pipeline on the phy 6x6 geometry.
    variance = 0.0 if snr_db is None else noise_variance_from_snr(snr_db)
    grids = [build_grid(fr2_config, PrsAllocation(s, sequence_seed=1 + s)) for s in range(6)]
    transmit = [dense_grid(grid, fr2_config) for grid in grids]
    for seed in range(8):
        sc = sample_scenario(6, 6, gnb_region=60.0, ue_region=60.0, target_region=30.0,
                             outlier_max=10.0, rng_seed=seed)
        noise = NoiseSpec(variance, seed)
        delays = np.array([[pair_delay(sc, s, k) for k in range(6)] for s in range(6)])
        received = dense_channel(grids, delays, fr2_config, noise)
        expected = [[dense_range(dense_profile(dense_divide(rx, tx), fr2_config), fr2_config)
                     for rx in received] for tx in transmit]
        ranges = synthesize_measurements_phy(sc, fr2_config, noise).ranges
        assert np.array_equal(ranges, expected)


def test_phy_6x6_ranges_match_dense_reference_pipeline():
    # 200 phy-6x6 trials, alternately noise-free and at 10 dB, with the
    # scenario and NoiseSpec seeds that run_trial gives them: the ranges of
    # synthesize_measurements_phy equal, bit for bit, those of the dense
    # M x N channel over per-pair delays, ranged by the batched comb-domain
    # reference.  No library code computes the reference's delays.
    config = ExperimentConfig(trials=200, mode="phy", gnb_region=60.0, ue_region=60.0,
                              target_region=30.0, snr_db=10.0)
    ofdm = config.ofdm
    grids = [build_grid(ofdm, PrsAllocation(s, sequence_seed=1 + s)) for s in range(6)]
    for trial in range(config.trials):
        seed = _trial_seed(config.base_seed, trial)
        sc = sample_scenario(config.num_gnbs, config.num_ues, gnb_region=config.gnb_region,
                             ue_region=config.ue_region, target_region=config.target_region,
                             outlier_max=config.outlier_max, rng_seed=seed)
        noise = NoiseSpec(0.0 if trial % 2 else noise_variance_from_snr(config.snr_db), seed)
        delays = np.array([[pair_delay(sc, s, k) for k in range(sc.num_ues)]
                           for s in range(sc.num_gnbs)])
        received = dense_channel(grids, delays, ofdm, noise)
        profiles = batched_comb_profiles(received, grids, ofdm)
        expected = np.argmax(profiles, axis=-1) * ofdm.range_resolution
        ranges = synthesize_measurements_phy(sc, ofdm, noise).ranges
        assert np.array_equal(ranges, expected), f"trial {trial}"


def test_phy_6x6_ranges_at_10_db_round_to_the_nearest_bin():
    # Oracle for the noisy phy pipeline, independent of how the noise is
    # drawn: at 10 dB on the phy 6x6 geometry the periodogram peak sits on
    # the bin nearest the true path length for nearly every pair, and the
    # range errors are spread as uniform quantization, sd = bin / sqrt(12).
    # Trials use the scenario and NoiseSpec seeds that run_trial gives them.
    config = ExperimentConfig(trials=150, mode="phy", gnb_region=60.0, ue_region=60.0,
                              target_region=30.0, snr_db=10.0)
    ofdm = config.ofdm
    bin_width = ofdm.range_resolution
    variance = noise_variance_from_snr(config.snr_db)
    errors, nearest = [], 0
    for trial in range(config.trials):
        seed = _trial_seed(config.base_seed, trial)
        sc = sample_scenario(config.num_gnbs, config.num_ues, gnb_region=config.gnb_region,
                             ue_region=config.ue_region, target_region=config.target_region,
                             outlier_max=config.outlier_max, rng_seed=seed)
        truth = true_bistatic_ranges(sc).ranges
        ranges = synthesize_measurements_phy(sc, ofdm, NoiseSpec(variance, seed)).ranges
        nearest += int((np.rint(ranges / bin_width) == np.rint(truth / bin_width)).sum())
        errors.append((ranges - truth).ravel())
    errors = np.concatenate(errors)
    assert nearest >= 0.99 * errors.size
    assert np.abs(errors).max() <= bin_width
    assert np.std(errors) == pytest.approx(bin_width / math.sqrt(12.0), rel=0.02)


def test_noise_variance_from_snr():
    assert noise_variance_from_snr(0.0) == pytest.approx(0.5)
    assert noise_variance_from_snr(10.0) == pytest.approx(0.05)
    assert noise_variance_from_snr(20.0) == pytest.approx(0.005)
