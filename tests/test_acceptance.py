"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on success as well as failure.  The Monte Carlo criteria use fixed
seeds, so results are reproducible.
"""

import json
import math
import time

import numpy as np
import pytest

from isacloc import (
    ExperimentConfig,
    OfdmConfig,
    SolverConfig,
    andrews_weight,
    difference_value_grad,
    emit_report,
    ls_value_grad,
    pair_differences,
    ranging_check,
    run_experiment,
    run_sweep,
    sample_scenario,
    solve_proposed,
    true_bistatic_ranges,
)

WORKERS = 2

# Acceptance targets for the standard configuration (S=K=6, outliers up to
# 10 m, half-bin range error, even fusion weights).
TARGET_MEAN_M = {"proposed": 0.96, "irls": 1.19, "ls": 1.28}
TARGET_P90_M = {"proposed": 1.74, "irls": 2.01, "ls": 2.08}
TARGET_TOLERANCE = 0.25


def _line(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def table_run():
    """The standard 2000-trial experiment shared by criteria 1 and 2."""
    config = ExperimentConfig(trials=2000, base_seed=0, workers=WORKERS)
    start = time.monotonic()
    report = run_experiment(config)
    elapsed = time.monotonic() - start
    return report, elapsed


def test_criterion_1_mean_error_reproduction(table_run):
    report, elapsed = table_run
    means = report.mean_error
    ordered = means["proposed"] < means["irls"] < means["ls"]
    within = {
        m: abs(means[m] - TARGET_MEAN_M[m]) <= TARGET_TOLERANCE * TARGET_MEAN_M[m]
        for m in TARGET_MEAN_M
    }
    fast_enough = elapsed < 300.0
    detail = (
        f"means proposed={means['proposed']:.3f} irls={means['irls']:.3f} "
        f"ls={means['ls']:.3f} m (targets 0.96/1.19/1.28 +-25%), "
        f"ordering={'ok' if ordered else 'violated'}, "
        f"bands={'ok' if all(within.values()) else 'violated ' + str(within)}, "
        f"runtime={elapsed:.0f}s"
    )
    ok = ordered and all(within.values()) and fast_enough
    assert _line("criterion 1 (mean error)", ok, detail)


def test_criterion_2_p90_reproduction(table_run):
    report, _ = table_run
    p90 = report.p90_error
    ordered = p90["proposed"] < p90["irls"] < p90["ls"]
    within = {
        m: abs(p90[m] - TARGET_P90_M[m]) <= TARGET_TOLERANCE * TARGET_P90_M[m]
        for m in TARGET_P90_M
    }
    detail = (
        f"p90 proposed={p90['proposed']:.3f} irls={p90['irls']:.3f} "
        f"ls={p90['ls']:.3f} m (targets 1.74/2.01/2.08 +-25%), "
        f"ordering={'ok' if ordered else 'violated'}, "
        f"bands={'ok' if all(within.values()) else 'violated ' + str(within)}"
    )
    ok = ordered and all(within.values())
    assert _line("criterion 2 (p90 error)", ok, detail)


def test_criterion_3_outlier_sensitivity_trend():
    config = ExperimentConfig(
        trials=2000,
        outlier_max=(4.0, 8.0, 12.0, 16.0, 18.0),
        base_seed=0,
        workers=WORKERS,
    )
    results = run_sweep(config)
    means = {label: report.mean_error for label, report in results}
    proposed_le_irls = all(m["proposed"] <= m["irls"] for m in means.values())
    improvements = [
        1.0 - m["proposed"] / m["ls"] for m in (report.mean_error for _, report in results)
    ]
    increasing = all(b > a for a, b in zip(improvements, improvements[1:]))
    top_improvement = improvements[-1]
    detail = (
        f"improvement vs ls per point "
        f"{['%.1f%%' % (100 * v) for v in improvements]}, "
        f"proposed<=irls everywhere={'ok' if proposed_le_irls else 'violated'}, "
        f"strictly increasing={'ok' if increasing else 'violated'}, "
        f"top={100 * top_improvement:.1f}% (need >=15%)"
    )
    ok = proposed_le_irls and increasing and top_improvement >= 0.15
    assert _line("criterion 3 (outlier sensitivity)", ok, detail)


def test_criterion_4_node_count_trend():
    config = ExperimentConfig(
        trials=2000,
        num_gnbs=(4, 5, 6, 7, 8),
        num_ues=(4, 5, 6, 7, 8),
        outlier_max=14.0,
        base_seed=0,
        workers=WORKERS,
    )
    results = run_sweep(config)
    proposed = [report.mean_error["proposed"] for _, report in results]
    beats_both = all(
        report.mean_error["proposed"] < report.mean_error["ls"]
        and report.mean_error["proposed"] < report.mean_error["irls"]
        for _, report in results
    )
    # Strictly decreasing, allowing one non-monotone step of at most 2%.
    violations = [
        (b - a) / a for a, b in zip(proposed, proposed[1:]) if b >= a
    ]
    monotone = len(violations) == 0 or (len(violations) == 1 and violations[0] <= 0.02)
    detail = (
        f"proposed means {['%.3f' % v for v in proposed]} m, "
        f"monotone={'ok' if monotone else 'violated'}, "
        f"beats both baselines={'ok' if beats_both else 'violated'}"
    )
    ok = monotone and beats_both
    assert _line("criterion 4 (node-count trend)", ok, detail)


def test_criterion_5_ranging_quantization_bound():
    config = OfdmConfig(
        subcarrier_spacing=120e3,
        num_subcarriers=792,
        num_symbols=14,
        comb_size=12,
        carrier_frequency=28e9,
    )
    bin_ok = abs(config.range_resolution - 3.157) <= 0.01
    result = ranging_check(trials=500, config=config, base_seed=0)
    detail = (
        f"bin width {config.range_resolution:.4f} m (need 3.157+-0.01), "
        f"{result['within_half_bin']}/500 geometries within half bin, "
        f"max |error| {result['max_abs_error_m']:.4f} m vs bound {result['half_bin_m']:.4f} m"
    )
    ok = bin_ok and result["all_within_half_bin"]
    assert _line("criterion 5 (ranging quantization)", ok, detail)


def test_criterion_6_gradient_oracles(rng):
    sc = sample_scenario(6, 6, outlier_max=10.0, rng_seed=99)
    ranges = true_bistatic_ranges(sc).ranges + rng.uniform(-1.5, 1.5, (6, 6))
    gnbs, ues = sc.gnb_positions, sc.ue_positions
    weights = rng.uniform(0.1, 1.0, 6)
    weights /= weights.sum()
    cases = {
        "ls": lambda x: ls_value_grad(x, ranges, gnbs, ues),
        "irls": lambda x: ls_value_grad(x, ranges, gnbs, ues, weights),
        "proposed": lambda x: difference_value_grad(x, ranges, gnbs, ues),
    }
    h = 1e-6
    nodes = np.vstack([gnbs, ues])
    worst = 0.0
    for value_grad in cases.values():
        checked = 0
        while checked < 100:
            x = rng.uniform(-150, 150, 2)
            if np.linalg.norm(nodes - x, axis=1).min() <= 1.0:
                continue
            checked += 1
            numeric = np.array(
                [
                    (value_grad(x + step)[0] - value_grad(x - step)[0]) / (2 * h)
                    for step in (np.array([h, 0]), np.array([0, h]))
                ]
            )
            analytic = value_grad(x)[1]
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic)
            worst = max(worst, rel)
    ok = worst < 1e-5
    assert _line(
        "criterion 6 (gradient oracles)",
        ok,
        f"300 finite-difference checks, worst relative error {worst:.2e} (need < 1e-5)",
    )


def test_criterion_7_cancellation_algebra(rng):
    sc = sample_scenario(6, 6, outlier_max=0.0, rng_seed=5)
    base = true_bistatic_ranges(sc).ranges
    # Dyadic constants keep the injected sums exactly representable.
    bias_gnb = round(float(rng.uniform(1, 15)) * 2**20) / 2**20
    bias_ue = round(float(rng.uniform(1, 15)) * 2**20) / 2**20
    base = np.round(base * 2**20) / 2**20
    biased = (base + bias_gnb) + bias_ue

    dg_clean, du_clean = pair_differences(base)
    dg_biased, du_biased = pair_differences(biased)
    bit_identical = np.array_equal(dg_clean, dg_biased) and np.array_equal(du_clean, du_biased)

    tight = SolverConfig(proposed_threshold=1e-6)
    result = solve_proposed(
        biased, sc.gnb_positions, sc.ue_positions, tight,
        init=sc.target + np.array([3.0, -2.0]),
    )
    recovery = float(np.linalg.norm(result.estimate - sc.target))
    ok = bit_identical and recovery < 1e-3
    assert _line(
        "criterion 7 (cancellation algebra)",
        ok,
        f"differences bit-identical={bit_identical}, recovery error {recovery:.2e} m (need < 1e-3)",
    )


def test_criterion_8_andrews_weighting():
    at_threshold = andrews_weight(7.0, 7.0)
    beyond = andrews_weight(7.5, 7.0)
    value_ok = abs(at_threshold - math.sin(1.0)) < 1e-12 and beyond == 0.0
    simplex_ok = True
    rng = np.random.default_rng(3)
    for _ in range(200):
        residual = rng.uniform(0, 12, 6)
        raw = andrews_weight(residual, 7.0)
        if raw.sum() == 0:
            continue
        w = raw / raw.sum()
        simplex_ok &= abs(w.sum() - 1.0) < 1e-12 and ((w >= 0) & (w <= 1)).all()
    ok = value_ok and simplex_ok
    assert _line(
        "criterion 8 (Andrews weighting)",
        ok,
        f"w(e_max)={at_threshold:.6f} (sin(1)={math.sin(1.0):.6f}), w(beyond)={beyond}, "
        f"normalized weights on simplex={simplex_ok}",
    )


def test_criterion_9_determinism(tmp_path):
    def emit(workers, tag):
        config = ExperimentConfig(trials=100, base_seed=42, workers=workers)
        return emit_report(run_experiment(config), tmp_path / tag)

    def same_bytes(paths_a, paths_b):
        return all(
            open(a, "rb").read() == open(b, "rb").read() for a, b in zip(paths_a, paths_b)
        )

    serial_1, serial_2 = emit(1, "s1"), emit(1, "s2")
    parallel_1, parallel_2 = emit(WORKERS, "p1"), emit(WORKERS, "p2")
    serial_identical = same_bytes(serial_1, serial_2)
    parallel_identical = same_bytes(parallel_1, parallel_2)
    # Across worker counts the config echo differs in the workers field only;
    # every statistic and per-trial record must still agree.
    data_identical = same_bytes(serial_1[1:], parallel_1[1:])
    summary_serial = json.load(open(serial_1[0]))
    summary_parallel = json.load(open(parallel_1[0]))
    summary_serial["config"].pop("workers")
    summary_parallel["config"].pop("workers")
    stats_identical = summary_serial == summary_parallel

    ok = serial_identical and parallel_identical and data_identical and stats_identical
    assert _line(
        "criterion 9 (determinism)",
        ok,
        f"serial re-run byte-identical={serial_identical}, "
        f"parallel re-run byte-identical={parallel_identical}, "
        f"serial vs parallel data identical={data_identical and stats_identical}",
    )
