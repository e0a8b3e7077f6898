import dataclasses
import json
import math
import os
import subprocess
import sys

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
    UnderdeterminedError,
)
import isacloc
from isacloc import harness
from isacloc.harness import METHODS, _sweep_points, run_trial

# The phy workload geometry: worst-case bistatic range 147.3 m, inside the
# 208.2 m unambiguous window of the default numerology.
PHY_6X6 = dict(mode="phy", gnb_region=60.0, ue_region=60.0, target_region=30.0, snr_db=10.0)


def _quick_config(**overrides):
    defaults = dict(trials=40, base_seed=123)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _tied_trial(config, seed):
    """A stand-in for run_trial: synthetic errors with ties within and across methods."""
    e = float(np.random.default_rng(seed).exponential(3.0))
    errors = {"ls": e, "irls": round(e, 1), "proposed": float(int(e))}
    return harness.TrialResult(errors=errors, converged=dict.fromkeys(METHODS, True))


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

    # ExperimentConfig refuses every node count a solve rejects, so a solve
    # that raises is a defect: whatever it raises stops the run.
    @pytest.mark.parametrize("error", [TypeError, InsufficientGeometryError,
                                       UnderdeterminedError, NoDetectionError])
    @pytest.mark.parametrize("solver", ["solve_ls", "solve_irls", "solve_proposed"])
    def test_programming_error_propagates(self, monkeypatch, solver, error):
        def broken(*args, **kwargs):
            raise error("bug in a solver")

        monkeypatch.setattr(harness, solver, broken)
        with pytest.raises(error, match="bug in a solver"):
            run_experiment(_quick_config(trials=2))

    def test_irls_failure_falls_back_to_differencing_estimate(self, monkeypatch):
        real_irls, real_proposed = harness.solve_irls, harness.solve_proposed
        proposed = []

        def irls(*args):
            return dataclasses.replace(real_irls(*args), stop_reason="max_iterations")

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

    def test_diverged_differencing_solve_stays_out_of_the_fused_estimate(self, monkeypatch):
        # In these trials the differencing solve runs away while IRLS converges;
        # averaging the two put the fused estimate 18.7 to 399 km from the target.
        real_proposed, proposed = harness.solve_proposed, []

        def recording_proposed(*args):
            proposed.append(real_proposed(*args))
            return proposed[-1]

        monkeypatch.setattr(harness, "solve_proposed", recording_proposed)
        config = ExperimentConfig(gnb_region=60.0, ue_region=60.0, target_region=30.0,
                                  outlier_max=30.0)
        for seed in (314, 485, 948):
            result = run_trial(config, seed)
            assert proposed[-1].stop_reason == "diverged"
            assert result.errors["proposed"] == result.errors["irls"] < 30.0
            assert result.converged["proposed"] and result.converged["irls"]


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

    def test_cdf_shape(self, monkeypatch):
        # The exact empirical CDF: one step per distinct error of any method.
        monkeypatch.setattr(harness, "run_trial", _tied_trial)
        n = 200
        report = run_experiment(_quick_config(trials=n))
        every = [e for m in METHODS for e in report.errors[m]]
        assert report.cdf_grid == sorted(set(every))
        assert len(report.cdf_grid) < len(every)  # the ties share a step
        for method in METHODS:
            errors = report.errors[method]
            assert report.cdf[method] == [sum(e <= x for e in errors) / n
                                          for x in report.cdf_grid]
            assert report.cdf[method][-1] == 1.0

    def test_heavy_tail_cdf_size_follows_the_trial_count(self):
        # Blocked-link excesses up to 50 m on the indoor geometry: some solves
        # end kilometres away, and the CDF still takes at most one step per error.
        config = ExperimentConfig(trials=100, gnb_region=60.0, ue_region=60.0,
                                  target_region=30.0, outlier_max=50.0)
        report = run_experiment(config)
        assert max(max(report.errors[m]) for m in METHODS) > 1000.0
        assert len(report.cdf_grid) <= 3 * config.trials

    def test_p90_is_the_nearest_rank(self, monkeypatch):
        # Synthetic errors, some with ties, for every sample size up to 200.
        monkeypatch.setattr(harness, "run_trial", _tied_trial)
        for n in range(1, 201):
            report = run_experiment(_quick_config(trials=n))
            for method in METHODS:
                ordered = sorted(report.errors[method])
                assert report.p90_error[method] == ordered[math.ceil(0.9 * n) - 1]

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

    def test_pool_starts_no_more_processes_than_it_can_use(self, monkeypatch):
        # A fork-started pool starts max_workers processes on its first submit.  This
        # stand-in records the size asked for and maps in this process.
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(harness, "run_trial", _tied_trial)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        for workers, trials in ((100_000, 3), (100_000, 50), (2, 50)):
            run_experiment(_quick_config(trials=trials, workers=workers))
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        run_experiment(_quick_config(trials=50, workers=100_000))
        assert sizes == [3, 4, 2, 5]


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

    def test_numpy_scalar_config_writes_the_python_config_summary(self, tmp_path):
        typed = ExperimentConfig(trials=np.int64(2), num_gnbs=np.int64(4), snr_db=np.float32(10.0),
                                 ofdm=OfdmConfig(num_symbols=np.int64(14)),
                                 solver=SolverConfig(e_max=np.float32(7.0)))
        plain = ExperimentConfig(trials=2, num_gnbs=4, snr_db=10.0,
                                 ofdm=OfdmConfig(num_symbols=14), solver=SolverConfig(e_max=7.0))
        typed_paths = emit_report(run_experiment(typed), tmp_path / "typed")
        plain_paths = emit_report(run_experiment(plain), tmp_path / "plain")
        for p1, p2 in zip(typed_paths, plain_paths):
            assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_non_finite_mean_raises_and_writes_nothing(self, tmp_path):
        report = run_experiment(_quick_config(trials=2))
        report.mean_error["proposed"] = float("nan")
        with pytest.raises(ValueError):
            emit_report(report, tmp_path / "out")
        assert not (tmp_path / "out").exists()  # not even a truncated summary.json



class TestSweep:
    def test_outlier_sweep_points(self):
        points = _sweep_points(_quick_config(), outlier_max=(4.0, 8.0))
        assert [label for label, _ in points] == ["outlier_4", "outlier_8"]
        assert [cfg.outlier_max for _, cfg in points] == [4.0, 8.0]

    def test_node_sweep_points_pair_up(self):
        points = _sweep_points(_quick_config(), num_gnbs=(4, 5), num_ues=(4, 5))
        assert [label for label, _ in points] == ["nodes_4x4", "nodes_5x5"]

    def test_node_sweep_broadcasts_scalar_side(self):
        points = _sweep_points(_quick_config(num_ues=6), num_gnbs=(4, 5))
        assert [(c.num_gnbs, c.num_ues) for _, c in points] == [(4, 6), (5, 6)]

    def test_mixed_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            _sweep_points(_quick_config(), num_gnbs=(4, 5), num_ues=(4, 5), outlier_max=(4.0,))

    def test_no_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            _sweep_points(_quick_config())

    def test_run_and_emit(self, tmp_path):
        results = run_sweep(_quick_config(trials=6), outlier_max=(4.0, 8.0))
        assert len(results) == 2
        paths = emit_sweep(results, tmp_path / "sweep")
        assert (tmp_path / "sweep" / "outlier_4" / "summary.json").exists()
        assert (tmp_path / "sweep" / "sweep_summary.csv").exists()
        lines = open(paths[-2]).read().splitlines()
        assert len(lines) == 3  # header + 2 points

    def test_non_finite_mean_raises_and_writes_nothing(self, tmp_path):
        results = run_sweep(_quick_config(trials=2), outlier_max=(4.0, 8.0))
        results[1][1].mean_error["proposed"] = float("nan")
        with pytest.raises(ValueError):
            emit_sweep(results, tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()  # no point's reports, no sweep summary

    @pytest.mark.parametrize("sweep", [
        dict(outlier_max=(4.0, 4.0000001)),
        dict(num_gnbs=(4, 4), num_ues=(5, 5)),
    ], ids=["outlier", "nodes"])
    def test_points_sharing_a_label_fail_before_any_trial(self, monkeypatch, sweep):
        # Both points would write their reports into one directory, the
        # second replacing the first's files without a word.
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *args: calls.append(args))
        with pytest.raises(ConfigurationError, match="distinct labels"):
            run_sweep(_quick_config(trials=2), **sweep)
        assert calls == []

    def test_empty_sweep_list_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep(ExperimentConfig(), outlier_max=[])

    # What the config constructor checked while it held the lists.
    @pytest.mark.parametrize("sweep, message", [
        (dict(num_ues=[]), "num_ues sweep list must be nonempty"),
        (dict(num_gnbs=[4, 5], outlier_max=[4.0]), "not both"),
        (dict(num_gnbs=[4, 4.5]), "num_gnbs must be an integer"),
        (dict(num_ues=[4, True]), "num_ues must be an integer"),
        (dict(outlier_max=[4.0, float("nan")]), "outlier_max must be a finite number"),
        (dict(outlier_max=[4.0, True]), "outlier_max must be a finite number"),
        (dict(outlier_max=[4.0, "8"]), "outlier_max must be a finite number"),
        (dict(num_gnbs=[4, 5], num_ues=[4, 5, 6]), "must have equal length"),
        (dict(outlier_max=4.0), "outlier_max sweep must be a list of values, got 4.0"),
        (dict(num_gnbs=5), "num_gnbs sweep must be a list of values, got 5"),
    ], ids=str)
    def test_bad_sweep_fails_before_any_trial(self, monkeypatch, sweep, message):
        def run_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", run_trial)
        with pytest.raises(ConfigurationError, match=message):
            run_sweep(_quick_config(trials=2), **sweep)

    @pytest.mark.parametrize("sweep, replaced", [
        (dict(outlier_max=[4, 8.0]), dict(outlier_max=4.0)),
        (dict(num_gnbs=[np.int64(4), 5]), dict(num_gnbs=4)),
        (dict(outlier_max=np.array([4.0, 8.0])), dict(outlier_max=4.0)),
    ], ids=["outlier", "broadcast-nodes", "outlier-array"])
    def test_sweep_point_is_the_scalar_experiment(self, sweep, replaced):
        config = _quick_config(trials=6, num_ues=6)
        (_, point), _ = run_sweep(config, **sweep)
        alone = run_experiment(dataclasses.replace(config, **replaced))
        assert point.errors == alone.errors
        assert point.converged == alone.converged
        assert point.config == alone.config
        # A JSON 4 echoes as 4.0, and a node count as a Python int.
        name, value = next(iter(replaced.items()))
        assert type(point.config[name]) is type(value)


class TestRangingCheck:
    def test_noise_free_all_within_half_bin(self):
        result = ranging_check(trials=25, base_seed=3)
        assert result["trials"] == 25
        assert result["all_within_half_bin"]
        assert result["within_half_bin"] == 25
        assert result["max_abs_error_m"] <= result["half_bin_m"]

    def test_numpy_integer_arguments_give_a_json_result(self):
        result = ranging_check(trials=np.int64(2), base_seed=np.uint32(3))
        assert type(result["trials"]) is int
        assert json.loads(json.dumps(result)) == result

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


@pytest.mark.parametrize("mode", ["model", "phy"])
@pytest.mark.parametrize("field", ["ofdm", "solver"])
def test_config_rejects_untyped_ofdm_and_solver(mode, field):
    given = dataclasses.asdict(OfdmConfig(120e3, 792) if field == "ofdm" else SolverConfig())
    with pytest.raises(ConfigurationError, match=f"{field} must be of type"):
        ExperimentConfig(mode=mode, **{field: given})


class TestGeometryValidation:
    def test_phy_6x6_fields_construct(self):
        config = ExperimentConfig(trials=2, **PHY_6X6)
        assert config.num_gnbs == 6 and config.num_ues == 6

    # A solve raises on these, so no run may reach one, scalar or sweep point.
    @pytest.mark.parametrize("nodes", [dict(num_gnbs=1), dict(num_ues=1),
                                       dict(num_gnbs=[6, 1]), dict(num_ues=[1, 6])])
    def test_single_node_side_rejected(self, monkeypatch, nodes):
        def run_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", run_trial)
        sweep = {n: v for n, v in nodes.items() if isinstance(v, list)}
        scalars = {n: v for n, v in nodes.items() if n not in sweep}
        with pytest.raises(ConfigurationError, match="num_gnbs and num_ues must be >= 2"):
            config = ExperimentConfig(trials=2, **scalars)
            run_sweep(config, **sweep) if sweep else run_experiment(config)

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
            if isinstance(value, tuple):
                run_sweep(_quick_config(trials=2), **{field: value})
            else:
                run_experiment(_quick_config(trials=2, **{field: value}))

    def test_invalid_sweep_point_fails_before_any_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *args: calls.append(args))
        with pytest.raises(ConfigurationError):
            run_sweep(_quick_config(trials=2), num_gnbs=(4, 1), num_ues=(4, 4))
        assert calls == []


def test_import_leaves_the_process_pool_unloaded():
    """Only a run with workers > 1 imports concurrent.futures (and multiprocessing)."""
    src = os.path.dirname(os.path.dirname(isacloc.__file__))
    code = "import sys, isacloc; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
