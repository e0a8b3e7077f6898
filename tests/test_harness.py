import dataclasses
import json
import math

import numpy as np
import pytest

from isacloc import (
    ConfigurationError,
    InsufficientGeometryError,
    ExperimentConfig,
    NoDetectionError,
    OfdmConfig,
    SolverConfig,
    emit_report,
    emit_sweep,
    ranging_check,
    run_experiment,
    run_sweep,
    sample_scenario,
    solve_ls,
)
from isacloc import harness
from isacloc.harness import METHODS, _sweep_points, run_trial

# The phy workload geometry: worst-case bistatic range 147.3 m, inside the
# 208.2 m unambiguous window of the default numerology.
PHY_6X6 = dict(mode="phy", gnb_region=60.0, ue_region=60.0, target_region=30.0, snr_db=10.0)


def _quick_config(**overrides):
    defaults = dict(trials=40, base_seed=123)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestRunTrial:
    def test_deterministic(self):
        config = _quick_config()
        a = run_trial(config, 77)
        b = run_trial(config, 77)
        assert a.errors == b.errors
        assert a.converged == b.converged

    def test_noise_free_sanity(self):
        tight = SolverConfig(irls_threshold=1e-5, proposed_threshold=1e-5)
        config = _quick_config(outlier_max=0.0, quantization_error=False, solver=tight)
        result = run_trial(config, 5)
        for method in METHODS:
            assert result.errors[method] < 1e-2
            assert result.converged[method]

    def test_errors_in_plausible_range(self):
        config = _quick_config()
        for seed in range(20):
            result = run_trial(config, seed)
            for method in METHODS:
                assert math.isfinite(result.errors[method])
                assert 0 <= result.errors[method] < 120.0

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug in a solver")

        monkeypatch.setattr(harness, "solve_irls", broken)
        with pytest.raises(TypeError, match="bug in a solver"):
            run_trial(_quick_config(trials=1), 0)

    def test_library_error_recorded_as_inf(self, monkeypatch):
        def rejected(*args, **kwargs):
            raise InsufficientGeometryError("receiver reweighting needs >= 2 receivers")

        monkeypatch.setattr(harness, "solve_irls", rejected)
        result = run_trial(_quick_config(trials=1), 0)
        assert result.errors["irls"] == math.inf
        assert result.converged["irls"] is False
        # Fusion needs both estimates, so the differencing one stands alone.
        assert math.isfinite(result.errors["proposed"])
        assert math.isfinite(result.errors["ls"])

    @pytest.mark.parametrize("irls_outcome", ["raises", "not_converged"])
    def test_irls_failure_falls_back_to_differencing_estimate(self, monkeypatch, irls_outcome):
        real_irls, real_proposed = harness.solve_irls, harness.solve_proposed
        proposed = []

        def irls(*args):
            if irls_outcome == "raises":
                raise InsufficientGeometryError("receiver reweighting needs >= 2 receivers")
            return dataclasses.replace(real_irls(*args), converged=False)

        def recording_proposed(*args):
            proposed.append(real_proposed(*args))
            return proposed[-1]

        monkeypatch.setattr(harness, "solve_irls", irls)
        monkeypatch.setattr(harness, "solve_proposed", recording_proposed)
        config = _quick_config()
        for seed in range(5):
            result = run_trial(config, seed)
            target = sample_scenario(6, 6, outlier_max=config.outlier_max, rng_seed=seed).target
            own = proposed[-1]
            assert result.errors["proposed"] == float(np.linalg.norm(own.estimate - target))
            assert result.converged["proposed"] == own.converged


@pytest.fixture(scope="module")
def report():
    return run_experiment(_quick_config())


class TestRunExperiment:
    def test_sample_counts(self, report):
        for method in METHODS:
            assert len(report.errors[method]) == 40
            assert len(report.converged[method]) == 40

    def test_mean_and_p90(self, report):
        for method in METHODS:
            assert report.mean_error[method] == pytest.approx(np.mean(report.errors[method]))
            ordered = sorted(report.errors[method])
            assert report.p90_error[method] == ordered[math.ceil(0.9 * 40) - 1]

    def test_cdf_shape(self, report):
        for method in METHODS:
            cdf = report.cdf[method]
            assert len(cdf) == len(report.cdf_grid)
            assert all(b >= a for a, b in zip(cdf, cdf[1:]))
            assert cdf[0] >= 0.0
            assert cdf[-1] == 1.0
        assert report.cdf_grid[0] == 0.0
        steps = np.diff(report.cdf_grid)
        assert np.allclose(steps, 0.05)

    def test_cdf_grid_spans_finite_errors_after_a_failed_solve(self, monkeypatch):
        calls = []

        def first_ls_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise NoDetectionError("range profile has no nonzero peak")
            return solve_ls(*args, **kwargs)

        monkeypatch.setattr(harness, "solve_ls", first_ls_fails)
        report = run_experiment(_quick_config(trials=20, base_seed=3))
        assert report.errors["ls"][0] == math.inf
        finite = [e for m in METHODS for e in report.errors[m] if math.isfinite(e)]
        assert report.cdf_grid[-1] >= max(finite) > report.cdf_grid[-1] - 0.05
        assert report.cdf["ls"][-1] == 19 / 20
        assert report.cdf["irls"][-1] == report.cdf["proposed"][-1] == 1.0

    def test_divergence_counts(self, report):
        for method in METHODS:
            assert report.divergence_count[method] == sum(
                not c for c in report.converged[method]
            )

    def test_sweep_config_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment(_quick_config(outlier_max=(4.0, 8.0)))

    def test_parallel_matches_serial(self):
        serial = run_experiment(_quick_config(trials=24))
        parallel = run_experiment(_quick_config(trials=24, workers=2))
        assert serial.errors == parallel.errors
        assert serial.converged == parallel.converged


class TestEmitReport:
    def test_files_and_rows_for_single_trial(self, tmp_path):
        report = run_experiment(_quick_config(trials=1))
        paths = emit_report(report, tmp_path / "out")
        summary, trials_csv, cdf_csv = paths
        lines = open(trials_csv).read().splitlines()
        assert lines[0] == "trial,method,error_m,converged"
        assert len(lines) == 1 + len(METHODS)
        cdf_lines = open(cdf_csv).read().splitlines()
        assert cdf_lines[0] == "error_m,F_ls,F_irls,F_proposed"
        assert cdf_lines[-1].split(",")[1:] == ["1.0", "1.0", "1.0"]
        payload = json.load(open(summary))
        assert payload["trials"] == 1
        assert set(payload["mean_error_m"]) == set(METHODS)

    def test_reemit_byte_identical(self, tmp_path):
        report = run_experiment(_quick_config(trials=10))
        first = emit_report(report, tmp_path / "a")
        second = emit_report(report, tmp_path / "b")
        for p1, p2 in zip(first, second):
            assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_rerun_byte_identical(self, tmp_path):
        config = _quick_config(trials=10)
        first = emit_report(run_experiment(config), tmp_path / "a")
        second = emit_report(run_experiment(config), tmp_path / "b")
        for p1, p2 in zip(first, second):
            assert open(p1, "rb").read() == open(p2, "rb").read()


    def test_failed_solve_written_as_strict_json(self, tmp_path, monkeypatch):
        def rejected(*args, **kwargs):
            raise InsufficientGeometryError("pair differencing needs >= 2 receivers")

        def strict(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        monkeypatch.setattr(harness, "solve_proposed", rejected)
        report = run_experiment(_quick_config(trials=2))
        assert report.mean_error["proposed"] == math.inf
        summary_path = emit_report(report, tmp_path / "out")[0]
        payload = json.loads(open(summary_path).read(), parse_constant=strict)
        assert payload["mean_error_m"]["proposed"] is None
        assert payload["p90_error_m"]["proposed"] is None
        assert payload["mean_error_m"]["ls"] == report.mean_error["ls"]
        assert set(payload["mean_error_m"]) == set(METHODS)
        paths = emit_sweep([("point", report)], tmp_path / "sweep")
        sweep = json.loads(open(paths[-1]).read(), parse_constant=strict)
        assert sweep[0]["p90_error_m"]["proposed"] is None


class TestSweep:
    def test_outlier_sweep_points(self):
        config = _quick_config(outlier_max=(4.0, 8.0))
        points = _sweep_points(config)
        assert [label for label, _ in points] == ["outlier_4", "outlier_8"]
        assert all(not cfg.is_sweep for _, cfg in points)

    def test_node_sweep_points_pair_up(self):
        config = _quick_config(num_gnbs=(4, 5), num_ues=(4, 5))
        points = _sweep_points(config)
        assert [label for label, _ in points] == ["nodes_4x4", "nodes_5x5"]

    def test_node_sweep_broadcasts_scalar_side(self):
        config = _quick_config(num_gnbs=(4, 5), num_ues=6)
        points = _sweep_points(config)
        assert [(c.num_gnbs, c.num_ues) for _, c in points] == [(4, 6), (5, 6)]

    def test_mixed_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            _sweep_points(_quick_config(num_gnbs=(4, 5), num_ues=(4, 5), outlier_max=(4.0,)))

    def test_no_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            _sweep_points(_quick_config())

    def test_run_and_emit(self, tmp_path):
        config = _quick_config(trials=6, outlier_max=(4.0, 8.0))
        results = run_sweep(config)
        assert len(results) == 2
        paths = emit_sweep(results, tmp_path / "sweep")
        assert (tmp_path / "sweep" / "outlier_4" / "summary.json").exists()
        assert (tmp_path / "sweep" / "sweep_summary.csv").exists()
        lines = open(paths[-2]).read().splitlines()
        assert len(lines) == 3  # header + 2 points

    def test_empty_sweep_list_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(outlier_max=[])


class TestRangingCheck:
    def test_noise_free_all_within_half_bin(self):
        result = ranging_check(trials=25, base_seed=3)
        assert result["trials"] == 25
        assert result["all_within_half_bin"]
        assert result["within_half_bin"] == 25
        assert result["max_abs_error_m"] <= result["half_bin_m"]

    @pytest.mark.parametrize("kwargs", [{"trials": 2.5}, {"trials": True}, {"trials": "5"},
                                        {"base_seed": 1.0}, {"snr_db": float("nan")}])
    def test_bad_value_type_rejected_before_any_trial(self, kwargs):
        with pytest.raises(ConfigurationError):
            ranging_check(**{"trials": 1, **kwargs})


class TestStatisticalStability:
    def test_disjoint_batches_agree_within_five_percent(self):
        base = ExperimentConfig(trials=2000, base_seed=0, workers=2)
        other = ExperimentConfig(trials=2000, base_seed=900_000, workers=2)
        first = run_experiment(base)
        second = run_experiment(other)
        for method in METHODS:
            a, b = first.mean_error[method], second.mean_error[method]
            assert abs(a - b) / a < 0.05


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(trials=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(mode="other")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(base_seed=-1)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(workers=0)


class TestGeometryValidation:
    def test_phy_6x6_fields_construct(self):
        config = ExperimentConfig(trials=2, **PHY_6X6)
        assert config.num_gnbs == 6 and config.num_ues == 6

    @pytest.mark.parametrize("nodes", [dict(num_gnbs=1), dict(num_ues=1)])
    def test_single_node_side_rejected(self, nodes):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**nodes)

    def test_phy_default_regions_rejected(self):
        # Worst case 656.4 m against the 208.2 m window.
        with pytest.raises(ConfigurationError, match="unambiguous"):
            ExperimentConfig(mode="phy")

    def test_phy_window_boundary(self):
        # Regions scaled so the worst case lands just below, then at, the window.
        window = ExperimentConfig().ofdm.unambiguous_range
        fits = (window - 20.0) / (2.0 * np.sqrt(2.0)) - 1e-6
        ExperimentConfig(mode="phy", gnb_region=fits, ue_region=fits, target_region=fits)
        at = (window - 20.0) / (2.0 * np.sqrt(2.0))
        with pytest.raises(ConfigurationError):
            ExperimentConfig(mode="phy", gnb_region=at, ue_region=at, target_region=at)

    def test_phy_outliers_count_against_window(self):
        # 127.3 m of geometry leaves room for 40.4 m of excess per link.
        ExperimentConfig(**PHY_6X6, outlier_max=40.0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**PHY_6X6, outlier_max=41.0)

    def test_phy_transmitters_limited_by_comb(self):
        ofdm = OfdmConfig(120e3, 792, comb_size=4)
        ExperimentConfig(**PHY_6X6, num_gnbs=4, ofdm=ofdm)
        with pytest.raises(ConfigurationError, match="comb"):
            ExperimentConfig(**PHY_6X6, num_gnbs=5, ofdm=ofdm)
        # Model mode synthesizes no grids, so the comb does not limit it.
        ExperimentConfig(num_gnbs=5, ofdm=ofdm)

    @pytest.mark.parametrize("field, value, message", [
        ("outlier_max", -1.0, "outlier_max must be >= 0"),
        ("outlier_max", (4.0, -1.0), "outlier_max must be >= 0"),
        ("gnb_region", 0.0, "region sizes must be positive"),
        ("ue_region", -5.0, "region sizes must be positive"),
        ("target_region", 0.0, "region sizes must be positive"),
    ])
    def test_bad_scenario_field_fails_before_any_trial(self, monkeypatch, field, value,
                                                        message):
        def run_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", run_trial)
        with pytest.raises(ConfigurationError, match=message):
            config = _quick_config(trials=2, **{field: value})
            (run_sweep if config.is_sweep else run_experiment)(config)

    def test_invalid_sweep_point_fails_before_any_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *args: calls.append(args))
        config = _quick_config(trials=2, num_gnbs=(4, 1), num_ues=(4, 4))
        with pytest.raises(ConfigurationError):
            run_sweep(config)
        assert calls == []
