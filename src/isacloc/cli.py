"""Command-line entry points for experiments and validation runs.

Subcommands:
    run            Monte Carlo experiment from a JSON config file.
    ranging-check  Physical-layer ranging validation.
    sweep          Node-count or outlier sweep from a JSON config file.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .errors import ConfigurationError
from .harness import (
    ExperimentConfig,
    _sweep_points,
    emit_report,
    emit_sweep,
    ranging_check,
    run_experiment,
    run_sweep,
)
from .prs_grid import OfdmConfig
from .solvers import SolverConfig

_TOP_LEVEL_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def experiment_config_from_dict(payload: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON object.

    Unknown keys are rejected so typos surface as configuration errors.
    The `ofdm` and `solver` entries are nested objects whose keys mirror
    the corresponding dataclass fields.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError("config file must contain a JSON object")
    unknown = set(payload) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(payload)
    try:
        if "ofdm" in kwargs:
            kwargs["ofdm"] = OfdmConfig(**kwargs["ofdm"])
        if "solver" in kwargs:
            kwargs["solver"] = SolverConfig(**kwargs["solver"])
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(str(exc)) from exc


def _load_config(args) -> tuple:
    """Build the config from the file and the overrides; returns it and its sweep lists.

    The config holds each list's first point, so a default the sweep replaces is not checked.
    """
    try:
        with open(args.config) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigurationError("config file must contain a JSON object")
    overrides = {
        "output_dir": args.output,
        "trials": args.trials,
        "base_seed": args.seed,
        "workers": args.workers,
    }
    payload.update({k: v for k, v in overrides.items() if v is not None})
    lists = {k: payload.pop(k) for k in ("num_gnbs", "num_ues", "outlier_max")
             if isinstance(payload.get(k), list)}
    payload.update({k: v[0] for k, v in lists.items() if v})
    return experiment_config_from_dict(payload), lists


def _make_output_dir(path) -> None:
    """Create the report directory before any trial runs; a path that cannot be one exits 1."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory: {exc}") from exc


def _cmd_run(args) -> int:
    config, lists = _load_config(args)
    if lists:
        raise ConfigurationError("config contains sweep lists; use isacloc sweep")
    _make_output_dir(config.output_dir)
    report = run_experiment(config)
    paths = emit_report(report, config.output_dir)
    for method, mean in sorted(report.mean_error.items()):
        print(f"{method}: mean {mean:.3f} m, p90 {report.p90_error[method]:.3f} m")
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    config, lists = _load_config(args)
    if not lists:
        raise ConfigurationError("config has no sweep list; use isacloc run")
    # Each point's reports go to <output>/<label>; all are checked before any is made.
    points = [os.path.join(config.output_dir, label) for label, _ in _sweep_points(config, **lists)]
    for point in points:
        if os.path.exists(point) and not os.path.isdir(point):
            raise ConfigurationError(f"cannot create output directory: {point} is not a directory")
    for point in points:
        _make_output_dir(point)
    results = run_sweep(config, **lists)
    paths = emit_sweep(results, config.output_dir)
    for label, report in results:
        means = ", ".join(f"{m} {report.mean_error[m]:.3f}" for m in sorted(report.mean_error))
        print(f"{label}: mean error (m): {means}")
    print(f"wrote {paths[-2]} and {paths[-1]}")
    return 0


def _cmd_ranging_check(args) -> int:
    if args.output:  # a path that cannot take the result file exits 1 before any trial
        if os.path.isdir(args.output):
            raise ConfigurationError(f"cannot write result file: {args.output} is a directory")
        _make_output_dir(os.path.dirname(os.path.abspath(args.output)))
    result = ranging_check(trials=args.trials, base_seed=args.seed, snr_db=args.snr_db)
    print(
        f"{result['trials']} geometries: max |error| "
        f"{result['max_abs_error_m']:.4f} m, half bin {result['half_bin_m']:.4f} m"
    )
    if args.output:
        text = json.dumps(result, indent=2, sort_keys=True, allow_nan=False)  # before the file opens
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}")
    if result["all_within_half_bin"]:
        print("PASS: all estimates within half a range bin")
        return 0
    print("FAIL: some estimates exceed half a range bin")
    return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isacloc",
        description="Multistatic OFDM sensing and localization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Options shared by the two experiment commands; each overrides the config file.
    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--config", required=True, help="JSON experiment config")
    experiment.add_argument("--output", help="output directory (overrides config)")
    experiment.add_argument("--trials", type=int, help="trial count, per sweep point (overrides config)")
    experiment.add_argument("--seed", type=int, help="base seed (overrides config)")
    experiment.add_argument("--workers", type=int, help="parallel workers (overrides config)")

    sub.add_parser("run", parents=[experiment],
                   help="run a Monte Carlo experiment from a config file").set_defaults(func=_cmd_run)
    sub.add_parser("sweep", parents=[experiment],
                   help="sweep node counts or outlier magnitude").set_defaults(func=_cmd_sweep)

    check_p = sub.add_parser("ranging-check", help="validate physical-layer ranging accuracy")
    check_p.add_argument("--trials", type=int, default=500)
    check_p.add_argument("--seed", type=int, default=0)
    check_p.add_argument("--snr-db", type=float, default=None, help="default: noise-free")
    check_p.add_argument("--output", help="optional JSON result file")
    check_p.set_defaults(func=_cmd_ranging_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
