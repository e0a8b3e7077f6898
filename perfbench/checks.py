"""Correctness checks, each computed apart from the program.

Report checks read the files `emit_report` wrote and recompute what the
summary claims.  Property checks (traced run only) test the records the
tracer kept against requirements of the method: range accuracy from
geometry, and solver estimates against an independent least-squares solve.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s
METHODS = ("ls", "irls", "proposed")


class CheckError(Exception):
    """A program output failed a correctness check."""


def load_json_strict(path):
    """Parse JSON, rejecting the NaN and Infinity tokens Python accepts."""
    def reject(token):
        raise CheckError(f"{path}: {token} is not valid JSON")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def check_report(out_dir, trials: int, base_seed: int) -> dict:
    """Check summary.json, trials.csv and cdf.csv of one experiment.

    Returns per-method arrays of the per-trial errors from trials.csv.
    Non-finite errors (failed solves) are returned unchanged, so the
    caller can count them.
    """
    summary = load_json_strict(os.path.join(out_dir, "summary.json"))
    if summary["trials"] != trials or summary["base_seed"] != base_seed:
        raise CheckError(f"summary echoes trials={summary['trials']} "
                         f"base_seed={summary['base_seed']}, expected {trials}, {base_seed}")

    with open(os.path.join(out_dir, "trials.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["trial", "method", "error_m", "converged"]:
        raise CheckError(f"trials.csv header {rows[0]}")
    if len(rows) - 1 != trials * len(METHODS):
        raise CheckError(f"trials.csv has {len(rows) - 1} rows, expected {trials * len(METHODS)}")
    errors = {m: np.full(trials, np.nan) for m in METHODS}
    diverged = dict.fromkeys(METHODS, 0)
    for trial, method, error, converged in rows[1:]:
        t = int(trial)
        if method not in errors or not 0 <= t < trials or not math.isnan(errors[method][t]):
            raise CheckError(f"trials.csv: unexpected or repeated row {trial},{method}")
        errors[method][t] = float(error)
        diverged[method] += converged == "0"
    for m in METHODS:
        e = errors[m]
        if (e < 0).any():
            raise CheckError(f"trials.csv: negative {m} error")
        mean = float(np.mean(e))
        p90 = float(np.percentile(e, 90, method="inverted_cdf"))
        for key, value in (("mean_error_m", mean), ("p90_error_m", p90)):
            if not _close(summary[key][m], value):
                raise CheckError(f"summary {key} {m} {summary[key][m]!r} "
                                 f"!= {value!r} from trials.csv")
        if summary["divergence_count"][m] != diverged[m]:
            raise CheckError(f"summary divergence_count {m} {summary['divergence_count'][m]} "
                             f"!= {diverged[m]} from trials.csv")

    with open(os.path.join(out_dir, "cdf.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["error_m"] + [f"F_{m}" for m in METHODS]:
        raise CheckError(f"cdf.csv header {rows[0]}")
    table = np.array([[float(v) for v in row] for row in rows[1:]])
    grid = table[:, 0]
    if (np.diff(grid) <= 0).any():
        raise CheckError("cdf.csv error grid is not increasing")
    for j, m in enumerate(METHODS, start=1):
        column = table[:, j]
        if (np.diff(column) < 0).any():
            raise CheckError(f"cdf.csv F_{m} decreases")
        if column[-1] != 1.0:
            raise CheckError(f"cdf.csv F_{m} ends at {column[-1]!r}, not 1.0")
        expected = np.array([np.count_nonzero(errors[m] <= x) for x in grid]) / trials
        if not np.allclose(column, expected, rtol=0, atol=1e-12):
            raise CheckError(f"cdf.csv F_{m} disagrees with the errors in trials.csv")
    return errors


def _bistatic_truth(scenario):
    """Geometric bistatic range plus both link excesses, per (gNB, UE) pair."""
    target = np.asarray(scenario.target, float)
    to_gnb = np.hypot(*(target - np.asarray(scenario.gnb_positions, float)).T)
    to_ue = np.hypot(*(target - np.asarray(scenario.ue_positions, float)).T)
    return (to_gnb + np.asarray(scenario.link_excess_gnb, float))[:, None] + \
        (to_ue + np.asarray(scenario.link_excess_ue, float))[None, :]


def check_ranges(records, bins: float) -> float:
    """Every measured range within `bins` range bins of the truth.

    `records` are (scenario, OfdmConfig, measured ranges) tuples.  The bin
    width c / (subcarrier spacing * subcarriers) is computed here.  Returns
    the largest error seen, in bins.
    """
    worst = 0.0
    for scenario, ofdm, ranges in records:
        width = SPEED_OF_LIGHT / (ofdm.subcarrier_spacing * ofdm.num_subcarriers)
        error = float(np.abs(np.asarray(ranges) - _bistatic_truth(scenario)).max()) / width
        if error > bins + 1e-9:
            raise CheckError(f"range error {error:.3f} bins exceeds {bins} bins "
                             f"(scenario seed {scenario.rng_seed})")
        worst = max(worst, error)
    return worst


def _ls_residuals(x, ranges, gnbs, ues):
    to_gnb = np.hypot(*(x - gnbs).T)
    to_ue = np.hypot(*(x - ues).T)
    return (ranges - (to_gnb[:, None] + to_ue[None, :])).ravel()


def _difference_residuals(x, ranges, gnbs, ues):
    """Transmitter-pair differences per receiver, receiver-pair per transmitter."""
    to_gnb = np.hypot(*(x - gnbs).T)
    to_ue = np.hypot(*(x - ues).T)
    out = []
    num_gnbs, num_ues = ranges.shape
    for s in range(num_gnbs):
        for s2 in range(s + 1, num_gnbs):
            out.append((ranges[s2] - ranges[s]) - (to_gnb[s2] - to_gnb[s]))
    for k in range(num_ues):
        for k2 in range(k + 1, num_ues):
            out.append((ranges[:, k] - ranges[:, k2]) - (to_ue[k] - to_ue[k2]))
    return np.concatenate(out)


# Solve name -> (residual function, stop threshold, step) of its descent.
_LSQ = {
    "ls": (_ls_residuals, lambda c: c.irls_threshold, lambda c: c.ls_step),
    "proposed": (_difference_residuals, lambda c: c.proposed_threshold, lambda c: c.proposed_step),
}
# Observed distance / bound peaked at 1.22 over 240 converged solves.
_LSQ_SAFETY = 3.0


def check_against_least_squares(solves, kind: str, sample: int) -> tuple[int, float]:
    """Converged descents end near scipy's least-squares solution.

    The descent stops once step * |gradient| <= threshold, so its estimate
    lies within about (threshold / step) / lambda_min of the minimum, with
    lambda_min the smallest eigenvalue of the Gauss-Newton Hessian 2 J^T J
    there.  Each of the first `sample` converged solves must be within
    _LSQ_SAFETY times that distance (plus 1 mm) of the minimum scipy finds
    from the same start.  Returns (solves checked, largest distance in m).
    """
    from scipy.optimize import least_squares

    residuals, threshold, step = _LSQ[kind]
    checked, worst = 0, 0.0
    for call in solves:
        if not call["converged"]:
            continue
        ranges = np.asarray(call["ranges"], float)
        gnbs, ues = np.asarray(call["gnbs"], float), np.asarray(call["ues"], float)
        fit = least_squares(residuals, np.asarray(call["init"], float), args=(ranges, gnbs, ues),
                            xtol=1e-12, ftol=1e-12, gtol=1e-12)
        lam = float(np.linalg.eigvalsh(2.0 * fit.jac.T @ fit.jac)[0])
        config = call["config"]
        limit = _LSQ_SAFETY * (threshold(config) / step(config)) / lam + 1e-3
        distance = float(np.linalg.norm(fit.x - np.asarray(call["estimate"], float)))
        if distance > limit:
            raise CheckError(f"{kind} estimate {distance:.4f} m from the least-squares "
                             f"minimum (limit {limit:.4f} m)")
        worst = max(worst, distance)
        checked += 1
        if checked == sample:
            break
    if checked == 0:
        raise CheckError(f"no converged {kind} solve to check")
    return checked, worst
