import json

import pytest

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

    def test_bad_key_exits_one(self, tmp_path):
        config_path = _write_config(tmp_path / "config.json", bogus=1)
        assert main(["run", "--config", str(config_path)]) == 1

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
