"""Monte Carlo benchmark of isacloc: what `isacloc run` does, timed and checked.

    python3 perfbench/run.py --workload model-6x6 --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and imports isacloc from its
`src/` directory.  One serial process: set-up, one check round on trials
drawn from --seed, then rounds on the workload's fixed reference trial set
until --seconds have passed; the metrics come from the reference rounds.
A round is `run_experiment` plus `emit_report`, and every round's files
are checked (see checks.py).  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced
reference round with --trace 1.  See README.md for why the metrics come
from a fixed trial set.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import typing  # noqa: E402
from pathlib import Path  # noqa: E402

# One thread per BLAS/OpenMP pool, set before numpy loads: the benchmark
# measures the serial program.
THREAD_LIMITS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}
os.environ.update(THREAD_LIMITS)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from refclock import RefClock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_ROOT = ROOT / ".perfbench_out"


@dataclasses.dataclass(frozen=True)
class Workload:
    check_trials: int       # trials in the check round drawn from --seed
    reference_trials: int   # trials per reference round (all metrics)
    fields: dict            # ExperimentConfig fields besides trials and seeds


WORKLOADS = {
    "model-6x6": Workload(64, 512, {}),
    "model-8x8-o14": Workload(8, 40, {"num_gnbs": 8, "num_ues": 8, "outlier_max": 14.0}),
    "phy-6x6": Workload(16, 128, {"mode": "phy", "gnb_region": 60.0, "ue_region": 60.0,
                                  "target_region": 30.0, "snr_db": 10.0}),
}
SMOKE_TRIALS = 4

# Trial seeds are base_seed ^ t, so base seeds 0 and 1 alias.  Each --seed n
# gets its own block of trial seeds, base (n + 1) * SEED_BLOCK; block 0 holds
# the main reference set (trial seeds 0, 1, ...) and the warm-up trial.  The
# held-out seed measures its own reference set, in the upper half of its block.
SEED_BLOCK = 1 << 16
WARMUP_TRIAL_SEED = SEED_BLOCK - 1
HELD_OUT_SEED = 1000

SETUP_REPEATS = 5
PROBE_EVERY_S = 0.025
LSQ_SAMPLE = 16


def seed_base(seed: int) -> int:
    return (seed + 1) * SEED_BLOCK


def reference_base(seed: int) -> int:
    return seed_base(seed) + SEED_BLOCK // 2 if seed == HELD_OUT_SEED else 0


class Stop(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def load_isacloc():
    """Import isacloc from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "isacloc" / "__init__.py").is_file():
        raise Stop(f"no isacloc sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import isacloc
    if not Path(isacloc.__file__).resolve().is_relative_to(src.resolve()):
        raise Stop(f"isacloc imported from {isacloc.__file__}, not from {src}")


def fresh_setup(fields: dict):
    """Import isacloc anew, build the config and run one warm-up trial.

    Returns (harness module, scenario module, config).  Dropping the
    package from sys.modules first makes every repetition pay the import,
    module-level state and first-use work (caches) again.
    """
    for name in [n for n in sys.modules if n == "isacloc" or n.startswith("isacloc.")]:
        del sys.modules[name]
    load_isacloc()
    from isacloc import harness, scenario
    config = harness.ExperimentConfig(**fields)
    harness.run_trial(config, WARMUP_TRIAL_SEED)
    return harness, scenario, config


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_limits": THREAD_LIMITS,
        "platform": platform.platform(),
    }


def recorded_trial_seeds(harness, config) -> list:
    """The trial seeds run_experiment hands to run_trial, without running trials."""
    seen = []

    def record(_config, trial_seed):
        seen.append(trial_seed)
        return harness.TrialResult(errors=dict.fromkeys(harness.METHODS, 0.0),
                                   converged=dict.fromkeys(harness.METHODS, True))

    real = harness.run_trial
    harness.run_trial = record
    try:
        harness.run_experiment(config)
    finally:
        harness.run_trial = real
    return seen


def check_trial_sets(harness, configs: dict) -> None:
    """Each named config runs distinct trial seeds, shared with no other or the warm-up."""
    owner = {WARMUP_TRIAL_SEED: "the warm-up"}
    for name, config in configs.items():
        seeds = recorded_trial_seeds(harness, config)
        if len(set(seeds)) != config.trials:
            raise checks.CheckError(f"{name}: {config.trials} trials ran "
                                    f"{len(set(seeds))} distinct trial seeds")
        for s in seeds:
            if s in owner:
                raise checks.CheckError(f"{name} shares trial seed {s} with {owner[s]}")
            owner[s] = name


class Round(typing.NamedTuple):
    seconds: float       # normalized
    raw_seconds: float
    factor: float        # raw to normalized seconds
    errors: dict         # method -> per-trial errors read back from trials.csv


class Bench:
    def __init__(self, workload: str, seed: int, smoke: bool, trace: bool):
        spec = WORKLOADS[workload]
        self.seed = seed
        self.out_dir = OUTPUT_ROOT / f"{workload}-seed{seed}-trace{int(trace)}"
        self.fields = dict(spec.fields, trials=SMOKE_TRIALS if smoke else spec.check_trials,
                           base_seed=seed_base(seed),
                           output_dir=str(self.out_dir.relative_to(ROOT)))
        self.reference_trials = SMOKE_TRIALS if smoke else spec.reference_trials
        self.clock = RefClock(PROBE_EVERY_S)
        self.attempted = 0
        self.failed = 0
        self.files = {}    # (trials, base_seed) -> report bytes of the first round

    def setup(self, repeats: int) -> list[float]:
        """Repeated set-ups, each normalized by the probes on either side."""
        times = []
        for _ in range(repeats):
            first = len(self.clock.probes)
            self.clock.probe()
            start = time.perf_counter()
            self.harness, self.scenario, self.check_config = fresh_setup(self.fields)
            elapsed = time.perf_counter() - start
            self.clock.probe()
            times.append(elapsed * self.clock.factor(first))
        self.reference_config = self.reference(self.seed)
        return times

    def reference(self, seed: int):
        return dataclasses.replace(self.check_config, trials=self.reference_trials,
                                   base_seed=reference_base(seed))

    def check_seeds(self) -> None:
        other = 0 if self.seed == HELD_OUT_SEED else HELD_OUT_SEED
        check_trial_sets(self.harness, {
            f"--seed {self.seed}": self.check_config,
            f"--seed {self.seed} reference": self.reference_config,
            f"--seed {other}": dataclasses.replace(self.check_config, base_seed=seed_base(other)),
            f"--seed {other} reference": self.reference(other),
        })

    def round(self, config) -> Round:
        """One experiment plus report, timed and checked.

        The clock wraps run_trial (outside any tracer wrapper) and takes
        probes between trials; their time is taken out of the round's.
        """
        out_dir = self.out_dir / f"trials{config.trials}-base{config.base_seed}"
        first = len(self.clock.probes)
        undo = self.clock.interpose(self.harness, "run_trial")
        try:
            self.clock.probe()
            start = time.perf_counter()
            report = self.harness.run_experiment(config)
            self.harness.emit_report(report, out_dir)
            raw = time.perf_counter() - start - sum(self.clock.probes[first + 1:])
            self.clock.probe()
        finally:
            undo()
        factor = self.clock.factor(first)

        errors = checks.check_report(out_dir, config.trials, config.base_seed)
        files = {name: (out_dir / name).read_bytes()
                 for name in ("summary.json", "trials.csv", "cdf.csv")}
        if self.files.setdefault((config.trials, config.base_seed), files) != files:
            raise checks.CheckError("a repeated round wrote different report files")
        self.attempted += len(checks.METHODS) * config.trials
        self.failed += sum(int((~np.isfinite(e)).sum()) for e in errors.values())
        return Round(raw * factor, raw, factor, errors)


def accuracy_metrics(errors) -> dict:
    out = {}
    for m in checks.METHODS:
        out[f"mean_error_m.{m}"] = float(np.mean(errors[m]))
    for m in checks.METHODS:
        out[f"p90_error_m.{m}"] = float(np.percentile(errors[m], 90, method="inverted_cdf"))
    return out


UNITS = {
    "trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
    **{f"{stat}.{m}": "m" for stat in ("mean_error_m", "p90_error_m") for m in checks.METHODS},
    **tracing.METRICS,
}


def untraced(bench: Bench, seconds: float, details: dict) -> dict:
    """The check round, then reference rounds until `seconds` have passed."""
    check = bench.round(bench.check_config)
    rounds = []
    start, cpu_start = time.perf_counter(), time.process_time()
    while True:
        round_start = time.perf_counter()
        rounds.append(bench.round(bench.reference_config))
        round_wall = time.perf_counter() - round_start
        if time.perf_counter() - start + round_wall > seconds:
            break
    details["cpu_over_wall"] = (time.process_time() - cpu_start) / (time.perf_counter() - start)
    details["check_round"] = {"trials_per_s": bench.check_config.trials / check.seconds,
                              **accuracy_metrics(check.errors)}
    details["reference_round_s"] = [r.seconds for r in rounds]
    details["reference_round_s_raw"] = [r.raw_seconds for r in rounds]
    metrics = {
        "trials_per_s": bench.reference_trials / statistics.median(r.seconds for r in rounds),
        "setup_s": statistics.median(details["setup_s_each"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(accuracy_metrics(rounds[0].errors))
    return metrics


def traced(bench: Bench, details: dict) -> dict:
    """An untraced reference round, then a traced one and its property checks.

    The trace's overhead compares the two rounds' normalized times.
    """
    plain = bench.round(bench.reference_config)
    tracer = tracing.Tracer()
    bench.clock.tracer = tracer
    try:
        with tracer.installed({"harness": bench.harness, "scenario": bench.scenario}):
            traced_round = bench.round(bench.reference_config)
    finally:
        bench.clock.tracer = None
    overhead_pct = 100.0 * (traced_round.seconds / plain.seconds - 1.0)
    tracing.write_spans(tracer, bench.out_dir / "spans.csv")

    captured = tracer.captured
    properties = {}
    if captured["scenario.synthesize_model"]:
        properties["model_range_error_bins_max"] = checks.check_ranges(
            captured["scenario.synthesize_model"], bins=0.5)
    if captured["scenario.synthesize_phy"]:
        properties["phy_range_error_bins_max"] = checks.check_ranges(
            captured["scenario.synthesize_phy"], bins=1.0)
    for kind in ("ls", "proposed"):
        count, worst = checks.check_against_least_squares(
            captured[f"solvers.solve_{kind}"], kind, LSQ_SAMPLE)
        properties[f"{kind}_vs_least_squares"] = {"solves": count, "max_distance_m": worst}
    details["properties"] = properties
    return tracing.layer_metrics(tracer, bench.reference_trials, traced_round.factor, overhead_pct)


def run(args) -> dict:
    load_isacloc()
    bench = Bench(args.workload, args.seed, args.smoke, bool(args.trace))
    facts = machine_facts()
    print(json.dumps({"machine": facts}), flush=True)

    details = {"workload": args.workload, "seed": args.seed, "machine": facts,
               "setup_s_each": bench.setup(2 if args.smoke else SETUP_REPEATS)}
    bench.check_seeds()
    details["process_start_to_timed_s_raw"] = time.perf_counter() - _PROCESS_START
    if args.trace:
        metrics = traced(bench, details)
    else:
        metrics = untraced(bench, args.seconds, details)
    details["probes"] = len(bench.clock.probes)
    details["probe_s_median_raw"] = statistics.median(bench.clock.probes)
    details["metrics"] = metrics
    with open(bench.out_dir / "run.json", "w") as fh:
        json.dump(details, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({k: v for k, v in details.items() if k not in ("machine", "metrics")}),
          flush=True)
    return {"correct": True, "attempted": bench.attempted, "failed": bench.failed,
            "metrics": {name: {"value": value, "unit": UNITS[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_TRIALS} trials per round and two set-ups, for a quick check")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**31:
        parser.error("--seed must be in [0, 2**31)")
    try:
        result = run(args)
    except Stop as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except checks.CheckError as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
