"""Run a small Monte Carlo comparison and write the report files.

Every trial draws a fresh geometry and blocked-link pattern, synthesizes
measurements, and records each solver's position error.  The report
lands in demos/output/: a JSON summary, one CSV row per trial and
method, and the empirical error CDFs.
"""

import pathlib
import time

from isacloc import ExperimentConfig, emit_report, run_experiment

config = ExperimentConfig(
    trials=300,
    num_gnbs=6,
    num_ues=6,
    outlier_max=10.0,
    base_seed=2024,
    output_dir=str(pathlib.Path(__file__).parent / "output"),
)

print(f"{config.trials} trials, {config.num_gnbs} transmitters x {config.num_ues} receivers, "
      f"link excesses up to {config.outlier_max} m")
start = time.monotonic()
report = run_experiment(config)
print(f"finished in {time.monotonic() - start:.1f} s\n")

print(f"{'method':>10} {'mean (m)':>9} {'p90 (m)':>9} {'diverged':>9}")
for method in ("ls", "irls", "proposed"):
    print(f"{method:>10} {report.mean_error[method]:>9.3f} "
          f"{report.p90_error[method]:>9.3f} {report.divergence_count[method]:>9}")

median_idx = next(
    i for i, v in enumerate(report.cdf["proposed"]) if v >= 0.5
)
print(f"\nmedian proposed-method error is {report.cdf_grid[median_idx]:.2f} m")

paths = emit_report(report, config.output_dir)
print("wrote:")
for path in paths:
    print(f"  {path}")
