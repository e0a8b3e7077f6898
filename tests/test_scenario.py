import math

import numpy as np
import pytest
from scipy import stats

from isacloc import (
    ConfigurationError,
    MeasurementSet,
    NoiseSpec,
    Scenario,
    ScenarioError,
    sample_scenario,
    scenario_from_json,
    scenario_to_json,
    synthesize_measurements_model,
    synthesize_measurements_phy,
    true_bistatic_ranges,
)


def _fixed_scenario(zg=(0.0,), zu=(0.0,)):
    return Scenario(
        gnb_positions=np.array([[3.0, 4.0]]),
        ue_positions=np.array([[0.0, 5.0]]),
        target=np.array([0.0, 0.0]),
        link_excess_gnb=np.array(zg),
        link_excess_ue=np.array(zu),
    )


class TestSampleScenario:
    def test_deterministic(self):
        a = sample_scenario(6, 6, rng_seed=42)
        b = sample_scenario(6, 6, rng_seed=42)
        assert np.array_equal(a.gnb_positions, b.gnb_positions)
        assert np.array_equal(a.ue_positions, b.ue_positions)
        assert np.array_equal(a.target, b.target)
        assert np.array_equal(a.link_excess_gnb, b.link_excess_gnb)
        assert np.array_equal(a.link_excess_ue, b.link_excess_ue)

    def test_regions_and_counts(self):
        sc = sample_scenario(6, 4, rng_seed=0)
        assert sc.gnb_positions.shape == (6, 2)
        assert sc.ue_positions.shape == (4, 2)
        assert (np.abs(sc.gnb_positions) <= 200.0).all()
        assert (np.abs(sc.ue_positions) <= 100.0).all()
        assert (np.abs(sc.target) <= 75.0).all()

    def test_blocked_link_count_within_bounds(self):
        counts = []
        for seed in range(200):
            sc = sample_scenario(6, 6, outlier_max=10.0, rng_seed=seed)
            blocked = int((sc.link_excess_gnb > 0).sum() + (sc.link_excess_ue > 0).sum())
            counts.append(blocked)
            assert 0 <= blocked <= 12
            assert (sc.link_excess_gnb <= 10.0).all()
            assert (sc.link_excess_ue <= 10.0).all()
        # Both extremes occur over enough seeds.
        assert min(counts) == 0
        assert max(counts) == 12

    def test_zero_outlier_max_gives_pure_los(self):
        for seed in range(20):
            sc = sample_scenario(5, 5, outlier_max=0.0, rng_seed=seed)
            assert (sc.link_excess_gnb == 0).all()
            assert (sc.link_excess_ue == 0).all()

    def test_minimum_separation(self):
        for seed in range(100):
            sc = sample_scenario(4, 4, gnb_region=20, ue_region=20, target_region=20,
                                 rng_seed=seed)
            nodes = np.vstack([sc.gnb_positions, sc.ue_positions])
            assert np.linalg.norm(nodes - sc.target, axis=1).min() >= 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_gnbs=0, num_ues=3),
            dict(num_gnbs=3, num_ues=0),
            dict(num_gnbs=3, num_ues=3, gnb_region=-1.0),
            dict(num_gnbs=3, num_ues=3, outlier_max=-2.0),
        ],
    )
    def test_invalid_inputs(self, kwargs):
        with pytest.raises(ConfigurationError):
            sample_scenario(**kwargs)


class TestTrueBistaticRanges:
    def test_three_four_five(self):
        ms = true_bistatic_ranges(_fixed_scenario())
        assert ms.ranges[0, 0] == pytest.approx(10.0)

    def test_ue_excess_added(self):
        ms = true_bistatic_ranges(_fixed_scenario(zu=(2.0,)))
        assert ms.ranges[0, 0] == pytest.approx(12.0)
        assert ms.true_ranges[0, 0] == pytest.approx(10.0)

    def test_random_matches_oracle(self, rng):
        sc = sample_scenario(5, 4, rng_seed=17)
        ms = true_bistatic_ranges(sc)
        for s in range(5):
            for k in range(4):
                expected = (
                    math.hypot(*(sc.target - sc.gnb_positions[s]))
                    + math.hypot(*(sc.target - sc.ue_positions[k]))
                    + sc.link_excess_gnb[s]
                    + sc.link_excess_ue[k]
                )
                assert ms.ranges[s, k] == pytest.approx(expected, rel=1e-12)


class TestModelSynthesis:
    def test_disabled_quantization_gives_exact_ranges(self, fr2_config):
        sc = sample_scenario(4, 4, outlier_max=0.0, rng_seed=3)
        ms = synthesize_measurements_model(sc, fr2_config, quantization_error=False)
        assert np.array_equal(ms.ranges, true_bistatic_ranges(sc).ranges)

    def test_error_bounded_by_half_bin(self, fr2_config):
        half = fr2_config.range_resolution / 2
        for seed in range(50):
            sc = sample_scenario(6, 6, outlier_max=10.0, rng_seed=seed)
            ms = synthesize_measurements_model(sc, fr2_config, np.random.default_rng(seed))
            perturbation = ms.ranges - true_bistatic_ranges(sc).ranges
            assert (np.abs(perturbation) < half).all()

    def test_quantization_error_is_uniform(self, fr2_config):
        # Kolmogorov-Smirnov against the uniform CDF over many draws.
        sc = sample_scenario(10, 10, outlier_max=0.0, rng_seed=1)
        truth = true_bistatic_ranges(sc).ranges
        rng = np.random.default_rng(7)
        samples = np.concatenate([
            (synthesize_measurements_model(sc, fr2_config, rng).ranges - truth).ravel()
            for _ in range(1000)
        ])
        assert samples.size == 100_000
        half = fr2_config.range_resolution / 2
        result = stats.kstest(samples, stats.uniform(loc=-half, scale=2 * half).cdf)
        assert result.pvalue > 0.01

    def test_deterministic_given_seed(self, fr2_config):
        sc = sample_scenario(4, 4, rng_seed=9)
        a = synthesize_measurements_model(sc, fr2_config, np.random.default_rng(5))
        b = synthesize_measurements_model(sc, fr2_config, np.random.default_rng(5))
        assert np.array_equal(a.ranges, b.ranges)


class TestPhySynthesis:
    def _small_scenario(self, seed, **kwargs):
        return sample_scenario(
            kwargs.pop("num_gnbs", 2),
            kwargs.pop("num_ues", 2),
            gnb_region=60.0,
            ue_region=60.0,
            target_region=30.0,
            outlier_max=kwargs.pop("outlier_max", 0.0),
            rng_seed=seed,
        )

    def test_noise_free_within_half_bin(self, fr2_config):
        for seed in range(5):
            sc = self._small_scenario(seed)
            ms = synthesize_measurements_phy(sc, fr2_config)
            err = np.abs(ms.ranges - true_bistatic_ranges(sc).ranges)
            assert (err <= fr2_config.range_resolution / 2).all()

    def test_ue_excess_shifts_measurements(self, fr2_config):
        sc = self._small_scenario(11)
        biased = Scenario(
            gnb_positions=sc.gnb_positions,
            ue_positions=sc.ue_positions,
            target=sc.target,
            link_excess_gnb=sc.link_excess_gnb,
            link_excess_ue=np.array([5.0, 0.0]),
            rng_seed=sc.rng_seed,
        )
        base = synthesize_measurements_phy(sc, fr2_config).ranges
        shifted = synthesize_measurements_phy(biased, fr2_config).ranges
        delta = shifted - base
        assert (np.abs(delta[:, 0] - 5.0) <= fr2_config.range_resolution).all()
        assert (delta[:, 1] == 0).all()

    def test_model_and_phy_agree_noise_free(self, fr2_config):
        for seed in (0, 4):
            sc = self._small_scenario(seed, outlier_max=3.0)
            model = synthesize_measurements_model(sc, fr2_config, quantization_error=False)
            phy = synthesize_measurements_phy(sc, fr2_config)
            assert (np.abs(model.ranges - phy.ranges) <= fr2_config.range_resolution).all()

    def test_noisy_estimation_stays_reasonable(self, fr2_config):
        sc = self._small_scenario(2)
        ms = synthesize_measurements_phy(sc, fr2_config, NoiseSpec(variance=0.05, rng_seed=3))
        err = np.abs(ms.ranges - true_bistatic_ranges(sc).ranges)
        assert (err <= 2 * fr2_config.range_resolution).all()

    def test_too_many_transmitters_rejected(self, fr2_config):
        sc = sample_scenario(13, 2, gnb_region=60, ue_region=60, target_region=30,
                             outlier_max=0.0, rng_seed=0)
        with pytest.raises(ScenarioError):
            synthesize_measurements_phy(sc, fr2_config)

    def test_out_of_window_geometry_rejected(self, fr2_config):
        sc = sample_scenario(2, 2, gnb_region=800, ue_region=800, target_region=100,
                             outlier_max=0.0, rng_seed=1)
        with pytest.raises(ScenarioError):
            synthesize_measurements_phy(sc, fr2_config)


class TestSerialization:
    def test_scenario_json_roundtrip(self, tmp_path):
        sc = sample_scenario(3, 2, outlier_max=8.0, rng_seed=13)
        path = tmp_path / "scenario.json"
        scenario_to_json(sc, path)
        back = scenario_from_json(path)
        assert np.array_equal(back.gnb_positions, sc.gnb_positions)
        assert np.array_equal(back.ue_positions, sc.ue_positions)
        assert np.array_equal(back.target, sc.target)
        assert np.array_equal(back.link_excess_gnb, sc.link_excess_gnb)
        assert np.array_equal(back.link_excess_ue, sc.link_excess_ue)
        assert back.rng_seed == sc.rng_seed


class TestMeasurementSetValidation:
    def test_rejects_negative(self):
        with pytest.raises(ScenarioError):
            MeasurementSet(ranges=np.array([[-1.0, 2.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ScenarioError):
            MeasurementSet(ranges=np.array([[np.inf, 2.0]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ScenarioError):
            MeasurementSet(ranges=np.array([1.0, 2.0]))
