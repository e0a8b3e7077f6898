"""Monte Carlo experiment driver with reproducible seeding.

Each trial samples a scenario, synthesizes a measurement set (model-level
by default, full physical layer on request), runs the three solvers, and
records the position error of each.  Per-trial seeds are derived as
base_seed XOR trial index, so results are independent of execution order
and the whole experiment is reproducible byte for byte.  It also means that
base seeds 0 and 1 run the same trials in another order, and any two base
seeds that differ only in bits below the trial count share trials; a planned
change replaces the rule.  An `ExperimentConfig` is one experiment; `run_sweep`
runs one per value of `outlier_max` or per pair of node counts, given as lists.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, check_finite, check_integer, store_python_numbers
from .phy_channel import NoiseSpec, noise_variance_from_snr
from .prs_grid import OfdmConfig
from .scenario import (
    check_geometry,
    sample_scenario,
    synthesize_measurements_model,
    synthesize_measurements_phy,
    true_bistatic_ranges,
)
from .solvers import (
    SolverConfig,
    difference_grid_init,
    fuse,
    ls_grid_init,
    solve_irls,
    solve_ls,
    solve_proposed,
)

METHODS = ("ls", "irls", "proposed")

_GAMMA_STREAM = 1  # substream tag for the model-mode range error draw

# Region sides (m) of the ranging check's single-pair geometries: their
# worst-case bistatic range, 170 m, stays inside the default 208 m window.
_CHECK_GNB_REGION = 80.0
_CHECK_UE_REGION = 80.0
_CHECK_TARGET_REGION = 40.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one experiment, all checked at construction.

    A numpy scalar is stored as the equal Python number.  A sweep is not a
    config: pass its lists to `run_sweep`.
    """

    trials: int = 2000
    num_gnbs: int = 6
    num_ues: int = 6
    outlier_max: float = 10.0
    mode: str = "model"
    quantization_error: bool = True
    snr_db: float | None = 10.0
    gnb_region: float = 400.0
    ue_region: float = 200.0
    target_region: float = 150.0
    ofdm: OfdmConfig = field(default_factory=OfdmConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    base_seed: int = 0
    workers: int = 1
    output_dir: str = "results"

    def __post_init__(self):
        store_python_numbers(self)
        check_integer("trials", self.trials, minimum=1)
        check_integer("base_seed", self.base_seed, minimum=0)
        check_integer("workers", self.workers, minimum=1)
        if self.snr_db is not None:
            noise_variance_from_snr(self.snr_db)  # rejects a variance that is not finite
        if self.mode not in ("model", "phy"):
            raise ConfigurationError("mode must be 'model' or 'phy'")
        for name, kind in (("ofdm", OfdmConfig), ("solver", SolverConfig)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigurationError(
                    f"{name} must be of type {kind.__name__}, got {getattr(self, name)!r}")
        if not isinstance(self.quantization_error, bool):
            raise ConfigurationError(
                f"quantization_error must be true or false, got {self.quantization_error!r}"
            )
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigurationError(
                f"output_dir must be a nonempty string, got {self.output_dir!r}"
            )
        # Geometries that would fail in a trial; pair differencing needs both counts >= 2.
        check_geometry(self.num_gnbs, self.num_ues, self.gnb_region, self.ue_region,
                       self.target_region, self.outlier_max, min_nodes=2)
        if self.mode != "phy":
            return
        if self.num_gnbs > self.ofdm.comb_size:
            raise ConfigurationError(
                f"{self.num_gnbs} transmitters exceed the {self.ofdm.comb_size} comb offsets"
            )
        # Farthest target-to-node distance in co-centered squares, both
        # legs, plus the largest excess on each of the two links.
        worst = (
            math.sqrt(2.0) * (self.gnb_region + self.target_region) / 2.0
            + math.sqrt(2.0) * (self.ue_region + self.target_region) / 2.0
            + 2.0 * self.outlier_max
        )
        if worst >= self.ofdm.unambiguous_range:
            raise ConfigurationError(
                f"worst-case bistatic range {worst:.1f} m reaches the unambiguous window "
                f"({self.ofdm.unambiguous_range:.1f} m); shrink the regions or outlier_max"
            )


@dataclass
class TrialResult:
    """Per-method position errors and convergence flags of one trial."""

    errors: dict
    converged: dict


@dataclass
class ExperimentReport:
    """Aggregated Monte Carlo statistics for one experiment."""

    errors: dict          # method -> list of per-trial errors (m)
    converged: dict       # method -> list of bools
    mean_error: dict      # method -> mean (m)
    p90_error: dict       # method -> nearest-rank 90th percentile (m)
    cdf_grid: list        # distinct errors of all methods (m), ascending
    cdf: dict             # method -> share of its errors at or below each grid value
    divergence_count: dict
    trials: int
    base_seed: int
    config: dict          # config echo: the experiment, without workers and output_dir


def _trial_seed(base_seed: int, trial: int) -> int:
    """Seed of trial `trial` of a run_experiment or ranging_check run."""
    return base_seed ^ trial


def run_trial(config: ExperimentConfig, trial_seed: int) -> TrialResult:
    """Run one scenario through synthesis and all solvers.

    ExperimentConfig refuses every node count a solve would reject, so
    each method's error is finite; any exception propagates and stops the
    run.
    """
    scenario = sample_scenario(
        config.num_gnbs,
        config.num_ues,
        gnb_region=config.gnb_region,
        ue_region=config.ue_region,
        target_region=config.target_region,
        outlier_max=config.outlier_max,
        rng_seed=trial_seed,
    )
    if config.mode == "model":
        rng = np.random.default_rng([trial_seed, _GAMMA_STREAM])
        measurements = synthesize_measurements_model(
            scenario, config.ofdm, rng, quantization_error=config.quantization_error
        )
    else:
        variance = 0.0 if config.snr_db is None else noise_variance_from_snr(config.snr_db)
        measurements = synthesize_measurements_phy(
            scenario, config.ofdm, NoiseSpec(variance, trial_seed)
        )

    # Every solve starts from a coarse grid search over the target region:
    # from the node centroid the first reweighting step usually sees
    # residuals beyond e_max on every receiver, which zeroes all weights and
    # aborts the reweighted solver.
    gnbs, ues = scenario.gnb_positions, scenario.ue_positions
    half = config.target_region / 2.0
    init_ls = ls_grid_init(measurements, gnbs, ues, half)
    init_diff = difference_grid_init(measurements, gnbs, ues, half)

    ls = solve_ls(measurements, gnbs, ues, config.solver, init_ls)
    irls = solve_irls(measurements, gnbs, ues, config.solver, init_ls)
    proposed = solve_proposed(measurements, gnbs, ues, config.solver, init_diff)
    outcomes = {"ls": (ls.estimate, ls.converged), "irls": (irls.estimate, irls.converged),
                "proposed": fuse(irls, proposed, config.solver)}
    errors = {m: float(np.linalg.norm(x - scenario.target)) for m, (x, _) in outcomes.items()}
    return TrialResult(errors=errors, converged={m: c for m, (_, c) in outcomes.items()})


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute all trials and aggregate error statistics.

    Trials are independent; with workers > 1 they run in a process pool of
    min(workers, trials, usable CPUs) processes, and because every trial
    derives its own seed the aggregated report is identical to a serial run.
    """
    seeds = [_trial_seed(config.base_seed, t) for t in range(config.trials)]
    if config.workers > 1:
        # Imported here: a serial run does not load concurrent.futures or multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        workers = min(config.workers, config.trials, cpus or 1)  # a fork pool starts all at once
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_trial, [config] * config.trials, seeds,
                                    chunksize=max(1, config.trials // (workers * 8))))
    else:
        results = [run_trial(config, s) for s in seeds]

    errors = {m: [r.errors[m] for r in results] for m in METHODS}
    converged = {m: [r.converged[m] for r in results] for m in METHODS}
    mean_error = {m: float(np.mean(errors[m])) for m in METHODS}
    p90_error = {m: float(np.percentile(errors[m], 90, method="inverted_cdf")) for m in METHODS}
    divergence_count = {m: int(sum(not c for c in converged[m])) for m in METHODS}

    # The exact empirical CDFs: one step per distinct error, so the grid
    # holds at most 3 x trials values whatever the largest error.
    grid = np.unique(np.concatenate([errors[m] for m in METHODS]))
    cdf = {m: (np.searchsorted(np.sort(errors[m]), grid, side="right") / config.trials).tolist()
           for m in METHODS}

    return ExperimentReport(
        errors=errors,
        converged=converged,
        mean_error=mean_error,
        p90_error=p90_error,
        cdf_grid=grid.tolist(),
        cdf=cdf,
        divergence_count=divergence_count,
        trials=config.trials,
        base_seed=config.base_seed,
        config={k: v for k, v in asdict(config).items() if k not in ("workers", "output_dir")},
    )


def emit_report(report: ExperimentReport, out_dir) -> list:
    """Write summary JSON, per-trial CSV, and CDF CSV.

    Output is byte-stable: identical reports produce identical files.  The
    JSON is strict: a statistic that is not finite raises ValueError
    before any file is written.  Returns the written paths.
    """
    summary = {
        "trials": report.trials,
        "base_seed": report.base_seed,
        "mean_error_m": report.mean_error,
        "p90_error_m": report.p90_error,
        "divergence_count": report.divergence_count,
        "config": report.config,
    }
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    os.makedirs(out_dir, exist_ok=True)
    summary_path = os.path.join(out_dir, "summary.json")
    trials_path = os.path.join(out_dir, "trials.csv")
    cdf_path = os.path.join(out_dir, "cdf.csv")
    with open(summary_path, "w") as fh:
        fh.write(text + "\n")

    with open(trials_path, "w") as fh:
        fh.write("trial,method,error_m,converged\n")
        for trial in range(report.trials):
            for m in METHODS:
                fh.write(
                    f"{trial},{m},{report.errors[m][trial]!r},"
                    f"{int(report.converged[m][trial])}\n"
                )

    with open(cdf_path, "w") as fh:
        fh.write("error_m," + ",".join(f"F_{m}" for m in METHODS) + "\n")
        for i, x in enumerate(report.cdf_grid):
            row = ",".join(repr(report.cdf[m][i]) for m in METHODS)
            fh.write(f"{x!r},{row}\n")

    return [summary_path, trials_path, cdf_path]


def _sweep_points(config: ExperimentConfig, num_gnbs=None, num_ues=None, outlier_max=None):
    """Expand sweep lists into (label, config) points, all built before any trial runs."""
    for name, values in (("num_gnbs", num_gnbs), ("num_ues", num_ues),
                         ("outlier_max", outlier_max)):
        if np.isscalar(values) or getattr(values, "ndim", 1) != 1:
            raise ConfigurationError(f"{name} sweep must be a list of values, got {values!r}")
        if values is not None and len(values) == 0:
            raise ConfigurationError(f"{name} sweep list must be nonempty")
    nodes = num_gnbs is not None or num_ues is not None
    if outlier_max is not None and nodes:
        raise ConfigurationError("sweep either node counts or outlier_max, not both")

    if outlier_max is not None:
        for value in outlier_max:
            check_finite("outlier_max", value)  # before float(), which takes True and "4"
        points = [(f"outlier_{value:g}", replace(config, outlier_max=float(value)))
                  for value in outlier_max]
    elif nodes:
        gnbs = list(num_gnbs) if num_gnbs is not None else [config.num_gnbs]
        ues = list(num_ues) if num_ues is not None else [config.num_ues]
        if len(gnbs) == 1:
            gnbs = gnbs * len(ues)
        if len(ues) == 1:
            ues = ues * len(gnbs)
        if len(gnbs) != len(ues):
            raise ConfigurationError("node-count sweep lists must have equal length")
        points = [(f"nodes_{s}x{k}", replace(config, num_gnbs=s, num_ues=k))
                  for s, k in zip(gnbs, ues)]
    else:
        raise ConfigurationError("config has no sweep list; use run_experiment")
    # Each point's reports go into a directory named by its label.
    labels = [label for label, _ in points]
    if len(set(labels)) != len(labels):
        shared = sorted({label for label in labels if labels.count(label) > 1})
        raise ConfigurationError(f"sweep points must have distinct labels; {shared} repeat")
    return points


def run_sweep(config: ExperimentConfig, *, num_gnbs=None, num_ues=None,
              outlier_max=None) -> list:
    """Run `config` with each swept value in turn; returns (label, report) pairs.

    Sweep `outlier_max` or the node counts.  Node-count lists pair up, and a
    one-element list or a count left to `config` is broadcast.
    """
    points = _sweep_points(config, num_gnbs, num_ues, outlier_max)
    return [(label, run_experiment(point)) for label, point in points]


def emit_sweep(results, out_dir) -> list:
    """Write per-point reports plus a sweep summary CSV and JSON.

    A statistic that is not finite raises ValueError before any file is written.
    """
    payload = [{"point": label, "mean_error_m": report.mean_error,
                "p90_error_m": report.p90_error} for label, report in results]
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for label, report in results:
        paths.extend(emit_report(report, os.path.join(out_dir, label)))

    summary_csv = os.path.join(out_dir, "sweep_summary.csv")
    with open(summary_csv, "w") as fh:
        columns = [f"mean_{m}" for m in METHODS] + [f"p90_{m}" for m in METHODS]
        fh.write("point," + ",".join(columns) + "\n")
        for label, report in results:
            means = ",".join(repr(report.mean_error[m]) for m in METHODS)
            p90s = ",".join(repr(report.p90_error[m]) for m in METHODS)
            fh.write(f"{label},{means},{p90s}\n")
    paths.append(summary_csv)

    summary_json = os.path.join(out_dir, "sweep_summary.json")
    with open(summary_json, "w") as fh:
        fh.write(text + "\n")
    paths.append(summary_json)
    return paths


def ranging_check(
    trials: int = 500,
    config: OfdmConfig | None = None,
    base_seed: int = 0,
    snr_db: float | None = None,
) -> dict:
    """Physical-layer ranging validation over random single-pair geometries.

    Runs one transmitter, one receiver, and no blocked links per trial
    through the full pipeline and compares the estimated bistatic range
    with the geometric truth.  Noise-free estimates must stay within half
    a range bin of the truth.
    """
    check_integer("trials", trials, minimum=1)
    check_integer("base_seed", base_seed, minimum=0)
    trials = int(trials)  # echoed in the JSON result, so a Python int
    variance = 0.0 if snr_db is None else noise_variance_from_snr(snr_db)
    config = config if config is not None else OfdmConfig()
    half_bin = config.range_resolution / 2.0
    max_abs_error = 0.0
    within = 0
    for trial in range(trials):
        seed = _trial_seed(base_seed, trial)
        scenario = sample_scenario(
            1,
            1,
            gnb_region=_CHECK_GNB_REGION,
            ue_region=_CHECK_UE_REGION,
            target_region=_CHECK_TARGET_REGION,
            outlier_max=0.0,
            rng_seed=seed,
        )
        truth = true_bistatic_ranges(scenario).ranges
        measured = synthesize_measurements_phy(
            scenario, config, NoiseSpec(variance, seed)
        ).ranges
        err = float(np.abs(measured - truth).max())
        max_abs_error = max(max_abs_error, err)
        within += int(err <= half_bin)
    return {
        "trials": trials,
        "range_resolution_m": config.range_resolution,
        "half_bin_m": half_bin,
        "max_abs_error_m": max_abs_error,
        "within_half_bin": within,
        "all_within_half_bin": within == trials,
    }
