"""Target position solvers for multistatic bistatic-range measurements.

Every measurement models the sum of the target's distances to one
transmitter and one receiver.  Three estimators are provided:

* plain least squares over all pairs (gradient descent);
* iteratively reweighted least squares, where each receiver's weight is
  recomputed every iteration from its mean absolute residual through the
  redescending Andrews sine function, so receivers behind large biases
  lose influence;
* a pair-differencing solver that fits differences of measurements
  sharing a receiver (transmitter pairs) or sharing a transmitter
  (receiver pairs).  A constant bias on a receiver link cancels exactly
  in every transmitter-pair difference, and a transmitter-link bias in
  every receiver-pair difference, so each residual sees at most one
  side's biases.

All three run through one descent driver.  Each objective's evaluator
computes the distances to the stacked (S+K, 2) nodes once per iterate and
builds the residuals that value, gradient and the reweighting hook read.

A fusion rule averages the reweighted and differencing estimates and
falls back to the differencing estimate when the reweighted iteration
fails to converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import cycle, islice

import numpy as np

from .errors import ConfigurationError, InsufficientGeometryError, UnderdeterminedError

_SINGULARITY_GUARD = 1e-9  # below this node distance the unit vector is zeroed
_DIVERGENCE_NORM = 1e6     # iterate norm beyond which descent is abandoned


@dataclass(frozen=True)
class SolverConfig:
    """Step sizes, stopping thresholds, and fusion weights.

    The plain least-squares descent reuses `irls_threshold` as its
    stopping threshold.
    """

    ls_step: float = 0.01
    irls_step: float = 0.01
    proposed_step: float = 0.001
    irls_threshold: float = 0.01
    proposed_threshold: float = 0.01
    max_iterations: int = 10_000
    e_max: float = 7.0
    fusion_weight_irls: float = 0.5
    fusion_weight_proposed: float = 0.5

    def __post_init__(self):
        positive = (
            ("ls_step", self.ls_step),
            ("irls_step", self.irls_step),
            ("proposed_step", self.proposed_step),
            ("irls_threshold", self.irls_threshold),
            ("proposed_threshold", self.proposed_threshold),
            ("e_max", self.e_max),
        )
        for name, value in positive:
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        if self.fusion_weight_irls < 0 or self.fusion_weight_proposed < 0:
            raise ConfigurationError("fusion weights must be >= 0")
        if abs(self.fusion_weight_irls + self.fusion_weight_proposed - 1.0) > 1e-9:
            raise ConfigurationError("fusion weights must sum to 1")


@dataclass
class LocalizationResult:
    """Solver output: estimate, convergence flag, and diagnostics.

    A non-converged result carries the lowest-objective iterate seen
    during the descent as a best-effort estimate.
    """

    estimate: np.ndarray
    converged: bool
    iterations: int
    method: str
    ue_weights: np.ndarray | None = None


def _ranges_of(measurements) -> np.ndarray:
    return np.asarray(getattr(measurements, "ranges", measurements), dtype=float)


def _stack_nodes(gnbs, ues) -> np.ndarray:
    """Transmitters then receivers as one (S+K, 2) array."""
    return np.vstack([np.asarray(gnbs, float), np.asarray(ues, float)])


def _node_geometry(x, nodes):
    """Distances from x to each node and guarded unit vectors toward x."""
    delta = x - nodes
    dist = np.hypot(delta[:, 0], delta[:, 1])
    if dist.min() > _SINGULARITY_GUARD:  # the plain divide gives the same floats
        return dist, delta / dist[:, None]
    return dist, np.divide(delta, dist[:, None], out=np.zeros_like(delta),
                           where=(dist[:, None] > _SINGULARITY_GUARD))


def centroid_init(gnbs, ues) -> np.ndarray:
    """Mean of all node positions, the default descent start."""
    return _stack_nodes(gnbs, ues).mean(axis=0)


def _grid_distances(nodes, half_extent, points):
    """Grid points (P, 2) and their distances (P, S+K) to every node."""
    axis = np.linspace(-half_extent, half_extent, points)
    gx, gy = (g.reshape(-1, 1) for g in np.meshgrid(axis, axis, indexing="ij"))
    dx, dy = gx - nodes[:, 0], gy - nodes[:, 1]
    return np.hstack([gx, gy]), np.sqrt(dx * dx + dy * dy)


def ls_grid_init(measurements, gnbs, ues, half_extent: float, points: int = 20) -> np.ndarray:
    """Grid minimum of the least-squares objective, evaluated in one batch."""
    pts, dist = _grid_distances(_stack_nodes(gnbs, ues), half_extent, points)
    res = _ls_model_residuals(dist, _ranges_of(measurements))
    return pts[int(np.argmin(np.einsum("psk,psk->p", res, res)))]


def difference_grid_init(measurements, gnbs, ues, half_extent: float, points: int = 20) -> np.ndarray:
    """Grid minimum of the pair-differencing objective, evaluated in one batch."""
    setup = _difference_setup(_ranges_of(measurements))
    pts, dist = _grid_distances(_stack_nodes(gnbs, ues), half_extent, points)
    res_g, res_u = _difference_model_residuals(dist, setup)
    values = np.einsum("pik,pik->p", res_g, res_g) + np.einsum("psi,psi->p", res_u, res_u)
    return pts[int(np.argmin(values))]


# ---------------------------------------------------------------------------
# Objectives and gradients
# ---------------------------------------------------------------------------

def _ls_model_residuals(dist, ranges):
    """Range residuals (..., S, K) from node distances (..., S+K)."""
    num_gnbs = ranges.shape[0]
    return ranges - (dist[..., :num_gnbs, None] + dist[..., None, num_gnbs:])


def _ls_residuals(x, ranges, nodes):
    dist, units = _node_geometry(x, nodes)
    return _ls_model_residuals(dist, ranges), units


def _ls_value_grad(evaluation, weights=None):
    """Weighted sum-of-squares value and gradient; uniform weights give LS."""
    res, units = evaluation
    num_gnbs = res.shape[0]
    if weights is None:
        value = float((res * res).sum())
        grad = -2.0 * (res.sum(axis=1) @ units[:num_gnbs] + res.sum(axis=0) @ units[num_gnbs:])
    else:
        value = float(weights @ (res * res).sum(axis=0))
        grad = -2.0 * ((res @ weights) @ units[:num_gnbs]
                       + (weights * res.sum(axis=0)) @ units[num_gnbs:])
    return value, grad


def ls_value_grad(x, measurements, gnbs, ues, weights=None):
    """Sum of squared range residuals at position x and its gradient.

    With `weights` (one per receiver) the squares are receiver-weighted,
    which is the objective each reweighted iteration descends.
    """
    ev = _ls_residuals(np.asarray(x, float), _ranges_of(measurements), _stack_nodes(gnbs, ues))
    return _ls_value_grad(ev, None if weights is None else np.asarray(weights, float))


def residuals(measurements, gnbs, ues, x) -> np.ndarray:
    """Per-receiver mean absolute range residual at position x."""
    dist, _ = _node_geometry(np.asarray(x, float), _stack_nodes(gnbs, ues))
    return np.abs(_ls_model_residuals(dist, _ranges_of(measurements))).mean(axis=0)


def andrews_weight(residual, e_max: float):
    """Redescending Andrews sine weight, before normalization.

    Equals sin(e/e_max)/(e/e_max) for 0 < e <= e_max (so 1 in the limit
    e -> 0 and sin(1) at e = e_max) and exactly 0 beyond e_max.
    """
    e = np.asarray(residual, dtype=float)
    w = np.zeros(e.shape)
    inside = (e > 0) & (e <= e_max)
    t = e[inside] / e_max
    w[inside] = np.sin(t) / t
    w[e == 0] = 1.0
    if w.ndim == 0:
        return float(w)
    return w


def _difference_setup(ranges):
    """Pair indices (ig, jg, iu, ju) into the stacked nodes and measured differences."""
    num_gnbs, num_ues = ranges.shape
    if num_gnbs < 2 or num_ues < 2:
        raise InsufficientGeometryError(
            f"pair differencing needs >= 2 transmitters and receivers, got {num_gnbs} x {num_ues}")
    (ig, jg), (iu, ju) = np.triu_indices(num_gnbs, k=1), np.triu_indices(num_ues, k=1)
    data_g, data_u = ranges[jg, :] - ranges[ig, :], ranges[:, iu] - ranges[:, ju]
    return ig, jg, iu + num_gnbs, ju + num_gnbs, data_g, data_u


def pair_differences(measurements):
    """The measured differences the pair-differencing solver fits.

    Returns (data_g, data_u).  data_g[p, k] = ranges[s', k] - ranges[s, k]
    for the p-th transmitter pair s < s' in `np.triu_indices` order, so a
    constant added to all measurements of one receiver cancels exactly;
    data_u[s, p] = ranges[s, k] - ranges[s, k'] for the p-th receiver pair
    k < k', so a constant on one transmitter cancels exactly.
    """
    return _difference_setup(_ranges_of(measurements))[4:]


def _difference_model_residuals(dist, setup):
    """Transmitter-pair and receiver-pair residuals from node distances (..., S+K)."""
    ig, jg, iu, ju, data_g, data_u = setup
    # Transmitter pairs: data ranges[s'] - ranges[s] vs model |x-g_s'| - |x-g_s|;
    # receiver pairs: data ranges[:, k] - ranges[:, k'] vs model |x-u_k| - |x-u_k'|.
    return (data_g - (dist[..., jg] - dist[..., ig])[..., :, None],
            data_u - (dist[..., iu] - dist[..., ju])[..., None, :])


def _difference_residuals(x, nodes, setup):
    ig, jg, iu, ju = setup[:4]
    dist, units = _node_geometry(x, nodes)
    res_g, res_u = _difference_model_residuals(dist, setup)
    return res_g, res_u, units[jg] - units[ig], units[iu] - units[ju]


def _difference_value_grad(evaluation, weights=None):
    """Value and gradient of the differencing objective; it takes no weights."""
    res_g, res_u, units_g, units_u = evaluation
    value = float((res_g * res_g).sum() + (res_u * res_u).sum())
    grad = -2.0 * (res_g.sum(axis=1) @ units_g + res_u.sum(axis=0) @ units_u)
    return value, grad


def difference_value_grad(x, measurements, gnbs, ues):
    """Sum of squared pair-difference residuals at position x and its gradient."""
    setup = _difference_setup(_ranges_of(measurements))
    evaluation = _difference_residuals(np.asarray(x, float), _stack_nodes(gnbs, ues), setup)
    return _difference_value_grad(evaluation)


# ---------------------------------------------------------------------------
# Descent driver
# ---------------------------------------------------------------------------

def _descend(method, evaluate, value_grad, x0, step, threshold, max_iterations, trace,
             weights=None, reweight=None) -> LocalizationResult:
    """Fixed-step gradient descent with best-iterate fallback, for all solvers.

    `evaluate(x)` runs once per iterate; `value_grad(evaluation, weights)`
    reads from it, and a `reweight` hook turns it into the next weights or
    into None (all zero: stop).  Converged means an update norm <= threshold;
    otherwise the lowest-objective iterate and its weights are returned.

    A fixed step can trap the iterate in an exact floating-point cycle, so
    the state (x and weights, as bytes) is compared with one checkpoint that
    moves ahead at power-of-two distances (Brent's cycle test).  Equal bytes
    are equal floats, so a match is never false.  On a match the rest of the
    run would replay the cycle: every transition in it has passed the
    divergence check and failed the convergence check, and its values are
    already in `best_val`, which only a strict decrease updates.  So the
    result at the cap is returned at once, and the trace is padded with the
    cycle's values as if all `max_iterations` had run.
    """
    x = np.array(x0, dtype=float)
    evaluation = evaluate(x)
    best_x, best_w, best_val = x, weights, math.inf  # iterates are never modified in place
    checkpoint, mark_at, power = None, 0, 1
    for iteration in range(1, max_iterations + 1):
        value, grad = value_grad(evaluation, weights)
        if trace is not None:
            trace.append(value)
        if value < best_val:
            best_val, best_x, best_w = value, x, weights
        x_new = x - step * grad
        # Also true for a NaN or infinite iterate; same floats as np.linalg.norm.
        if not math.sqrt(x_new.dot(x_new)) <= _DIVERGENCE_NORM:
            break
        evaluation = evaluate(x_new)
        if reweight is not None:
            weights = reweight(evaluation)
            if weights is None:
                break
        move = x_new - x
        x = x_new
        if math.sqrt(move.dot(move)) <= threshold:
            return LocalizationResult(x, True, iteration, method, weights)
        key = x.tobytes() if weights is None else x.tobytes() + weights.tobytes()
        if key == checkpoint:
            if trace is not None:
                period = trace[mark_at - iteration:]  # values since the checkpoint
                trace.extend(islice(cycle(period), max_iterations - iteration))
            return LocalizationResult(best_x, False, max_iterations, method, best_w)
        if iteration - mark_at == power:
            checkpoint, mark_at, power = key, iteration, 2 * power
    return LocalizationResult(best_x, False, iteration, method, best_w)


def _prepare(measurements, gnbs, ues, config, init):
    ranges = _ranges_of(measurements)
    nodes = _stack_nodes(gnbs, ues)
    if ranges.shape != (len(gnbs), len(ues)):
        raise ValueError(f"ranges shape {ranges.shape} does not match "
                         f"{len(gnbs)} transmitters x {len(ues)} receivers")
    config = config if config is not None else SolverConfig()
    x0 = centroid_init(gnbs, ues) if init is None else np.asarray(init, dtype=float)
    return ranges, nodes, config, x0


def solve_ls(measurements, gnbs, ues, config=None, init=None, trace=None) -> LocalizationResult:
    """Plain least-squares position fit by gradient descent.

    Starts from `init` (default: node centroid) and descends the
    sum-of-squares objective with a fixed step until the update norm
    drops below the threshold.  Converges to a local minimum only.

    Args:
        measurements: MeasurementSet or (S, K) range matrix.
        gnbs: (S, 2) transmitter positions.
        ues: (K, 2) receiver positions.
        config: SolverConfig; defaults apply when omitted.
        init: optional (2,) starting point.
        trace: optional list collecting the objective value per iteration.
    """
    ranges, nodes, config, x0 = _prepare(measurements, gnbs, ues, config, init)
    if ranges.size < 3:
        raise UnderdeterminedError("need at least 3 measurements for a 2-D fit")
    return _descend(
        "ls", lambda x: _ls_residuals(x, ranges, nodes), _ls_value_grad,
        x0, config.ls_step, config.irls_threshold, config.max_iterations, trace,
    )


def solve_irls(measurements, gnbs, ues, config=None, init=None, trace=None) -> LocalizationResult:
    """Iteratively reweighted least-squares fit with Andrews sine weights.

    Receiver weights start uniform.  Each iteration takes one gradient
    step of the weighted objective, recomputes per-receiver mean absolute
    residuals at the new position, maps them through the Andrews sine
    function (hard zero beyond e_max), and renormalizes the weights to
    sum to one.  Stops when the position update norm drops below the
    threshold.  All weights vanishing, a NaN, or iteration exhaustion is
    reported as non-convergence.
    """
    ranges, nodes, config, x0 = _prepare(measurements, gnbs, ues, config, init)
    if ranges.size < 3:
        raise UnderdeterminedError("need at least 3 measurements for a 2-D fit")
    num_ues = ranges.shape[1]
    if num_ues < 2:
        raise InsufficientGeometryError("receiver reweighting needs >= 2 receivers")

    def reweight(evaluation):
        raw = andrews_weight(np.abs(evaluation[0]).mean(axis=0), config.e_max)
        total = raw.sum()
        return None if total <= 0.0 else raw / total  # None: all receivers rejected

    return _descend(
        "irls", lambda x: _ls_residuals(x, ranges, nodes), _ls_value_grad,
        x0, config.irls_step, config.irls_threshold, config.max_iterations, trace,
        np.full(num_ues, 1.0 / num_ues), reweight,
    )


def solve_proposed(measurements, gnbs, ues, config=None, init=None, trace=None) -> LocalizationResult:
    """Pair-differencing position fit by gradient descent.

    Minimizes the squared mismatch between measured and geometric
    transmitter-pair and receiver-pair differences; each family of
    differences is blind to the other side's per-link biases.  Converges
    to a local minimum only.
    """
    ranges, nodes, config, x0 = _prepare(measurements, gnbs, ues, config, init)
    setup = _difference_setup(ranges)
    return _descend(
        "proposed", lambda x: _difference_residuals(x, nodes, setup), _difference_value_grad,
        x0, config.proposed_step, config.proposed_threshold, config.max_iterations, trace,
    )


def fuse(irls_result: LocalizationResult, proposed_result: LocalizationResult,
         config: SolverConfig | None = None) -> LocalizationResult:
    """Convex combination of the two estimates, gated on IRLS convergence.

    When the reweighted fit converged, the fused estimate is
    fusion_weight_irls * irls + fusion_weight_proposed * proposed;
    otherwise the differencing estimate is returned unchanged.
    """
    config = config if config is not None else SolverConfig()
    if irls_result.converged:
        estimate = (
            config.fusion_weight_irls * irls_result.estimate
            + config.fusion_weight_proposed * proposed_result.estimate
        )
    else:
        estimate = proposed_result.estimate.copy()
    return LocalizationResult(
        estimate=estimate,
        converged=irls_result.converged or proposed_result.converged,
        iterations=irls_result.iterations + proposed_result.iterations,
        method="fused",
        ue_weights=irls_result.ue_weights,
    )

