import json

import pytest

from isacloc import OfdmConfig, harness
from isacloc.cli import experiment_config_from_dict, main
from isacloc.errors import ConfigurationError


def _write_config(path, **overrides):
    payload = {
        "trials": 5,
        "num_gnbs": 4,
        "num_ues": 4,
        "outlier_max": 6.0,
        "base_seed": 1,
        "output_dir": str(path.parent / "results"),
    }
    payload.update(overrides)
    path.write_text(json.dumps(payload))
    return path


class TestConfigParsing:
    def test_nested_sections(self):
        config = experiment_config_from_dict(
            {
                "trials": 3,
                "ofdm": {"subcarrier_spacing": 120e3, "num_subcarriers": 96, "comb_size": 4},
                "solver": {"e_max": 5.0},
            }
        )
        assert config.trials == 3
        assert config.ofdm.num_subcarriers == 96
        assert config.solver.e_max == 5.0

    def test_partial_ofdm_section(self):
        # Each ofdm key is optional on its own; the rest keep their defaults.
        config = experiment_config_from_dict({"ofdm": {"num_symbols": 7}})
        assert config.ofdm == OfdmConfig(120e3, 792, num_symbols=7, comb_size=12)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            experiment_config_from_dict({"trails": 10})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigurationError):
            experiment_config_from_dict({"solver": {"stepsize": 1.0}})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigurationError):
            experiment_config_from_dict([1, 2, 3])


class TestRunCommand:
    def test_successful_run(self, tmp_path, capsys):
        config_path = _write_config(tmp_path / "config.json")
        assert main(["run", "--config", str(config_path)]) == 0
        out_dir = tmp_path / "results"
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "trials.csv").exists()
        assert (out_dir / "cdf.csv").exists()
        captured = capsys.readouterr()
        assert "mean" in captured.out

    def test_output_override(self, tmp_path):
        config_path = _write_config(tmp_path / "config.json")
        target = tmp_path / "elsewhere"
        assert main(["run", "--config", str(config_path), "--output", str(target)]) == 0
        assert (target / "summary.json").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 1

    def test_non_object_config_exits_one(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text("[1, 2]")
        assert main(["run", "--config", str(config_path)]) == 1
        assert "config file must contain a JSON object" in capsys.readouterr().err

    def test_bad_key_exits_one(self, tmp_path):
        config_path = _write_config(tmp_path / "config.json", bogus=1)
        assert main(["run", "--config", str(config_path)]) == 1

    def test_retired_init_key_exits_one(self, tmp_path, capsys):
        # Every trial starts from the grid search; "init" is no longer a key.
        config_path = _write_config(tmp_path / "config.json", init="grid")
        assert main(["run", "--config", str(config_path)]) == 1
        assert "unknown config keys: ['init']" in capsys.readouterr().err

    def test_bad_value_exits_one(self, tmp_path):
        config_path = _write_config(tmp_path / "config.json", trials=-5)
        assert main(["run", "--config", str(config_path)]) == 1

    def test_phy_default_regions_exit_one(self, tmp_path, capsys):
        # The default regions put bistatic paths beyond the phy window.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"mode": "phy", "trials": 2}))
        assert main(["run", "--config", str(config_path)]) == 1
        assert "unambiguous window" in capsys.readouterr().err

    def test_single_ue_exits_one(self, tmp_path, capsys):
        config_path = _write_config(tmp_path / "config.json", num_ues=1)
        assert main(["run", "--config", str(config_path)]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_sweep_config_in_run_exits_one(self, tmp_path, capsys):
        config_path = _write_config(tmp_path / "config.json", outlier_max=[4.0, 8.0])
        assert main(["run", "--config", str(config_path)]) == 1
        assert "use isacloc sweep" in capsys.readouterr().err


class TestValueTypesFailValidation:
    """Bad value types exit 1 at validation, before a single trial runs."""

    @pytest.fixture(autouse=True)
    def no_trials(self, monkeypatch):
        def run_trial(config, trial_seed):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", run_trial)

    @pytest.mark.parametrize("overrides", [
        {"trials": 2.5},
        {"trials": True},
        {"num_gnbs": 4.5},
        {"num_ues": 4.0},
        {"base_seed": 1.5},
        {"workers": 1.0},
        {"solver": {"max_iterations": 100.5}},
        {"ofdm": {"subcarrier_spacing": 120e3, "num_subcarriers": 792.0}},
    ], ids=str)
    def test_non_integer_run_exits_one(self, tmp_path, capsys, overrides):
        config_path = _write_config(tmp_path / "config.json", **overrides)
        assert main(["run", "--config", str(config_path)]) == 1
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {"num_gnbs": [4.5, 5]},
        {"num_ues": [4, True]},
    ], ids=str)
    def test_non_integer_sweep_point_exits_one(self, tmp_path, capsys, overrides):
        config_path = _write_config(tmp_path / "config.json", **overrides)
        assert main(["sweep", "--config", str(config_path)]) == 1
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {"snr_db": float("nan")},
        {"outlier_max": float("nan")},
        {"target_region": float("inf")},
        {"gnb_region": float("-inf")},
        {"solver": {"irls_step": float("nan")}},
        {"solver": {"e_max": float("inf")}},
        {"ofdm": {"subcarrier_spacing": float("nan"), "num_subcarriers": 792}},
    ], ids=str)
    def test_non_finite_run_exits_one(self, tmp_path, capsys, overrides):
        config_path = _write_config(tmp_path / "config.json", **overrides)
        assert main(["run", "--config", str(config_path)]) == 1
        assert "must be a finite number" in capsys.readouterr().err

    # The Gauss-Newton solves take no step size, the differencing fusion
    # weight is 1 - fusion_weight_irls, and the carrier frequency was never
    # read: each is an unknown key, at its old default too.
    @pytest.mark.parametrize("solver", [{"ls_step": 0.02}, {"proposed_step": 0.004},
                                        {"ls_step": 0.01}, {"fusion_weight_proposed": 0.5}],
                             ids=str)
    def test_unused_step_exits_one(self, tmp_path, capsys, solver):
        config_path = _write_config(tmp_path / "config.json", solver=solver)
        assert main(["run", "--config", str(config_path)]) == 1
        assert f"unexpected keyword argument '{next(iter(solver))}'" in capsys.readouterr().err

    def test_carrier_frequency_exits_one(self, tmp_path, capsys):
        ofdm = {"subcarrier_spacing": 120e3, "num_subcarriers": 792, "carrier_frequency": 28e9}
        config_path = _write_config(tmp_path / "config.json", ofdm=ofdm)
        assert main(["run", "--config", str(config_path)]) == 1
        assert "unexpected keyword argument 'carrier_frequency'" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"output_dir": None}, "output_dir must be a nonempty string"),
        ({"output_dir": 7}, "output_dir must be a nonempty string"),
        ({"output_dir": ""}, "output_dir must be a nonempty string"),
        ({"quantization_error": "false"}, "quantization_error must be true or false"),
        ({"quantization_error": 0}, "quantization_error must be true or false"),
    ], ids=str)
    def test_wrong_type_run_exits_one(self, tmp_path, capsys, overrides, message):
        config_path = _write_config(tmp_path / "config.json", **overrides)
        assert main(["run", "--config", str(config_path)]) == 1
        assert message in capsys.readouterr().err

    # Below about -3083 dB, 10 ** (-snr_db / 10) overflows a float.
    def test_overflowing_snr_run_exits_one(self, tmp_path, capsys):
        config_path = _write_config(tmp_path / "config.json", mode="phy", gnb_region=60.0,
                                    ue_region=60.0, target_region=30.0, snr_db=-4000.0)
        assert main(["run", "--config", str(config_path)]) == 1
        assert "snr_db -4000.0 gives a noise variance that is not finite" in (
            capsys.readouterr().err)

    def test_overflowing_snr_ranging_check_exits_one(self, monkeypatch, capsys):
        def synthesize_measurements_phy(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "synthesize_measurements_phy", synthesize_measurements_phy)
        assert main(["ranging-check", "--trials", "2", "--snr-db", "-4000"]) == 1
        captured = capsys.readouterr()
        assert "snr_db -4000.0 gives a noise variance that is not finite" in captured.err
        assert "PASS" not in captured.out

    def test_non_finite_sweep_point_exits_one(self, tmp_path, capsys):
        config_path = _write_config(tmp_path / "config.json", outlier_max=[4.0, float("nan")])
        assert main(["sweep", "--config", str(config_path)]) == 1
        assert "must be a finite number" in capsys.readouterr().err


class TestSweepCommand:
    def test_outlier_sweep(self, tmp_path):
        config_path = _write_config(
            tmp_path / "config.json", outlier_max=[4.0, 8.0], trials=4
        )
        assert main(["sweep", "--config", str(config_path)]) == 0
        out_dir = tmp_path / "results"
        assert (out_dir / "sweep_summary.csv").exists()
        assert (out_dir / "sweep_summary.json").exists()
        assert (out_dir / "outlier_4" / "summary.json").exists()
        assert (out_dir / "outlier_8" / "summary.json").exists()

    def test_broadcast_node_sweep(self, tmp_path):
        config_path = _write_config(tmp_path / "config.json", trials=2, num_gnbs=[4, 5], num_ues=6)
        assert main(["sweep", "--config", str(config_path)]) == 0
        out_dir = tmp_path / "results"
        assert (out_dir / "nodes_4x6" / "summary.json").exists()
        assert (out_dir / "nodes_5x6" / "summary.json").exists()

    def test_swept_counts_replace_a_default_that_would_fail(self, tmp_path):
        # Six transmitters, the default, exceed the 4 comb offsets; the swept counts do not.
        config_path = _write_config(tmp_path / "config.json", trials=2, num_gnbs=[2, 3],
                                    mode="phy", gnb_region=60.0, ue_region=60.0,
                                    target_region=30.0, ofdm={"comb_size": 4})
        assert main(["sweep", "--config", str(config_path)]) == 0
        assert (tmp_path / "results" / "nodes_3x4" / "summary.json").exists()

    def test_scalar_config_exits_one(self, tmp_path):
        config_path = _write_config(tmp_path / "config.json")
        assert main(["sweep", "--config", str(config_path)]) == 1


class TestRangingCheckCommand:
    def test_passes_noise_free(self, tmp_path, capsys):
        out = tmp_path / "check.json"
        code = main(["ranging-check", "--trials", "5", "--output", str(out)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        payload = json.load(open(out))
        assert payload["all_within_half_bin"] is True

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_non_positive_trials_exit_one(self, capsys, trials):
        assert main(["ranging-check", "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert "trials must be >= 1" in captured.err and "PASS" not in captured.out

    @pytest.mark.parametrize("snr_db", ["nan", "-inf", "inf"])
    def test_non_finite_snr_exits_one(self, capsys, snr_db):
        assert main(["ranging-check", "--trials", "5", f"--snr-db={snr_db}"]) == 1
        captured = capsys.readouterr()
        assert "snr_db must be a finite number" in captured.err and "PASS" not in captured.out

    def test_negative_seed_exits_one(self, capsys):
        assert main(["ranging-check", "--trials", "5", "--seed", "-1"]) == 1
        assert "base_seed must be >= 0" in capsys.readouterr().err
