"""Target position solvers for multistatic bistatic-range measurements.

Every measurement models the sum of the target's distances to one
transmitter and one receiver.  Three estimators are provided:

* plain least squares over all pairs;
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

All three run through one descent driver.  Each solve builds one evaluator
for its objective, which computes the distances to the stacked (S+K, 2)
nodes once per iterate and builds the residuals that value, gradient and
the reweighting hook read.  The pair differences of distances and unit
vectors come from one constant ±1 matrix per (S, K), exactly.  The
evaluators and the IRLS reweight write into buffers made once per solve,
so an evaluation holds only until the next one; estimates and weights are
returned as arrays of their own.  The driver computes the
gradient at every iterate and the objective value only where something
reads it: the trace, a Gauss-Newton step, or the best-iterate fallback of
a solve that did not converge, which evaluates the recorded iterates again
and gets the same floats.

Least squares and differencing take damped Gauss-Newton steps, the
Taylor-series positioning iteration (Foy, IEEE TAES 1976) with step halving
(Nocedal & Wright, Numerical Optimization, §3.1 and §10.3), and stop at the
minimum of their objective.  IRLS keeps its fixed gradient step: the
Gauss-Newton fixed point of the reweighted objective is a different
estimate, and the fused estimate would inherit the difference.

Every entry point that takes (measurements, gnbs, ues) raises ValueError
unless the range matrix is S x K.  A fusion rule averages the reweighted
and differencing estimates with weights w and 1 - w, and falls back to the
differencing estimate when the reweighted iteration fails to converge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    ConfigurationError,
    InsufficientGeometryError,
    UnderdeterminedError,
    check_finite,
    check_integer,
)

_SINGULARITY_GUARD = 1e-9  # below this node distance the unit vector is zeroed
_DIVERGENCE_NORM = 1e6     # iterate norm beyond which descent is abandoned
_GN_SINGULAR = 1e-12       # det / trace^2 of J^T J below which its inverse is not used
_GN_HALVINGS = 52          # a step halved this often no longer moves a double
_GRID_POINTS = 20          # grid-start points per axis


@dataclass(frozen=True)
class SolverConfig:
    """IRLS step size, stopping thresholds, and the IRLS fusion weight.

    The least-squares and differencing solves take Gauss-Newton steps and
    have no step size; the plain least-squares descent reuses
    `irls_threshold` as its stopping threshold.
    """

    # Not fields: perfbench/checks.py reads them; they go with the next benchmark change.
    ls_step = 0.01
    proposed_step = 0.001

    irls_step: float = 0.01
    irls_threshold: float = 0.01
    proposed_threshold: float = 0.01
    max_iterations: int = 10_000
    e_max: float = 7.0
    fusion_weight_irls: float = 0.5

    def __post_init__(self):
        check_integer("max_iterations", self.max_iterations)
        for f in fields(self):
            if f.name != "max_iterations":
                check_finite(f.name, getattr(self, f.name))
        positive = (
            ("irls_step", self.irls_step),
            ("irls_threshold", self.irls_threshold),
            ("proposed_threshold", self.proposed_threshold),
            ("e_max", self.e_max),
        )
        for name, value in positive:
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        if not 0.0 <= self.fusion_weight_irls <= 1.0:
            raise ConfigurationError("fusion_weight_irls must lie in [0, 1]")


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


def _problem(measurements, gnbs, ues):
    """The (S, K) range matrix and the stacked nodes; ValueError if they do not match."""
    ranges = _ranges_of(measurements)
    if ranges.shape != (len(gnbs), len(ues)):
        raise ValueError(f"ranges shape {ranges.shape} does not match "
                         f"{len(gnbs)} transmitters x {len(ues)} receivers")
    return ranges, _stack_nodes(gnbs, ues)


def _node_geometry(nodes):
    """Per-solve node geometry in buffers: returns (locate, dist, units).

    `locate(x)` writes the distances from x to each node into the (S+K,)
    buffer `dist` and the unit vectors toward x into the (S+K, 2) buffer
    `units`, zero for a node within _SINGULARITY_GUARD of x.  The buffers
    and their views are made once, so each call overwrites the last.
    """
    delta, units, dist = np.empty(nodes.shape), np.empty(nodes.shape), np.empty(len(nodes))
    dx, dy, dist_col = delta[:, 0], delta[:, 1], dist[:, None]

    def locate(x):
        np.subtract(x, nodes, out=delta)
        np.hypot(dx, dy, out=dist)
        values = dist.tolist()
        # min and sum of a short list cost less than a numpy reduction; a NaN
        # distance makes the sum NaN and takes the masked path.
        if min(values) > _SINGULARITY_GUARD and not math.isnan(sum(values)):
            np.divide(delta, dist_col, out=units)  # the masked divide gives the same floats
        else:
            units.fill(0.0)
            np.divide(delta, dist_col, out=units, where=dist_col > _SINGULARITY_GUARD)

    return locate, dist, units


def centroid_init(gnbs, ues) -> np.ndarray:
    """Mean of all node positions, the default descent start."""
    return _stack_nodes(gnbs, ues).mean(axis=0)


# ---------------------------------------------------------------------------
# Pair differences
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _pair_matrix(num_gnbs, num_ues):
    """Pair indices (ig, jg, iu, ju) and the ±1 pair-difference matrix, read-only.

    The matrix has one row per transmitter pair s < s' and then per
    receiver pair k < k', in `np.triu_indices` order, and one column per
    stacked node: +1 at s' and -1 at s, +1 at k and -1 at k'.  Each entry
    of `pairs @ v` has two exact products, +v[i] and -v[j], and exact zeros
    for the rest, so any summation order or fused multiply-add rounds once,
    to the float of the plain difference v[s'] - v[s] (or v[k] - v[k']).
    """
    (ig, jg), (iu, ju) = np.triu_indices(num_gnbs, k=1), np.triu_indices(num_ues, k=1)
    rows = np.arange(len(ig) + len(iu))
    pairs = np.zeros((rows.size, num_gnbs + num_ues))
    pairs[rows, np.concatenate([jg, iu + num_gnbs])] = 1.0
    pairs[rows, np.concatenate([ig, ju + num_gnbs])] = -1.0
    for a in (ig, jg, iu, ju, pairs):
        a.flags.writeable = False
    return ig, jg, iu, ju, pairs


def _difference_setup(ranges):
    """The ±1 pair matrix and the measured transmitter-pair and receiver-pair differences."""
    num_gnbs, num_ues = ranges.shape
    if num_gnbs < 2 or num_ues < 2:
        raise InsufficientGeometryError(
            f"pair differencing needs >= 2 transmitters and receivers, got {num_gnbs} x {num_ues}")
    ig, jg, iu, ju, pairs = _pair_matrix(num_gnbs, num_ues)
    return pairs, ranges[jg, :] - ranges[ig, :], ranges[:, iu] - ranges[:, ju]


def pair_differences(measurements):
    """The measured differences the pair-differencing solver fits.

    Returns (data_g, data_u).  data_g[p, k] = ranges[s', k] - ranges[s, k]
    for the p-th transmitter pair s < s' in `np.triu_indices` order, so a
    constant added to all measurements of one receiver cancels exactly;
    data_u[s, p] = ranges[s, k] - ranges[s, k'] for the p-th receiver pair
    k < k', so a constant on one transmitter cancels exactly.
    """
    return _difference_setup(_ranges_of(measurements))[1:]


# ---------------------------------------------------------------------------
# Grid-search starts
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _grid_points(half_extent):
    """The (_GRID_POINTS**2, 2) grid over [-half_extent, half_extent]^2, read-only."""
    axis = np.linspace(-half_extent, half_extent, _GRID_POINTS)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    pts.flags.writeable = False
    return pts


def _grid_distances(nodes, half_extent):
    """Grid points (P, 2) and their distances (P, S+K) to every node."""
    pts = _grid_points(half_extent)
    dx, dy = pts[:, :1] - nodes[:, 0], pts[:, 1:] - nodes[:, 1]
    return pts, np.sqrt(dx * dx + dy * dy)


@functools.lru_cache(maxsize=None)
def _grid_design(objective, num_gnbs, num_ues):
    """One objective's residuals as data - design @ d over the S+K node distances d.

    Least squares ("ls"): one row per (s, k), +1 at s and at k.  Differencing:
    the pair-matrix rows, each transmitter pair repeated for the K receivers
    and the receiver pairs tiled over the S transmitters, in the order of the
    flattened residuals.  Returns the design and its Gram matrix, read-only;
    the Gauss-Newton solves read the Gram matrix.
    """
    if objective == "ls":
        s, k = np.divmod(np.arange(num_gnbs * num_ues), num_ues)
        design = np.zeros((s.size, num_gnbs + num_ues))
        design[np.arange(s.size), s] = design[np.arange(s.size), k + num_gnbs] = 1.0
    else:
        pairs, num_pg = _pair_matrix(num_gnbs, num_ues)[4], num_gnbs * (num_gnbs - 1) // 2
        design = np.vstack([np.repeat(pairs[:num_pg], num_ues, axis=0),
                            np.tile(pairs[num_pg:], (num_gnbs, 1))])
    gram = design.T @ design
    design.flags.writeable = gram.flags.writeable = False
    return design, gram


def _grid_argmin(objective, data, ranges, nodes, half_extent):
    """Grid point minimizing the sum of squares of data - design @ d.

    Every residual of both objectives is a datum minus a +-1 combination of
    the node distances d, one design row each.  Expanded, the sum of squares
    is |data|^2 - 2 (data @ design) . d + d . gram d with the constant
    gram = design.T @ design.  The constant |data|^2 cannot move the argmin
    and is dropped, so the grid needs its (P, S+K) distances and two small
    matrix products, not a (P, S, K) residual tensor.  The values round
    differently from the residual form, by at most about 1e-14 of the sum
    of squares, far below the gap between the best and second-best grid
    point (at least 1.4e-9 of it on the benchmark geometries).
    """
    check_finite("half_extent", half_extent)
    if half_extent <= 0:
        raise ConfigurationError("half_extent must be positive")
    design, gram = _grid_design(objective, *ranges.shape)
    pts, dist = _grid_distances(nodes, half_extent)
    values = np.einsum("pn,pn->p", dist @ gram, dist) - 2.0 * (dist @ (data @ design))
    return pts[int(np.argmin(values))].copy()


def ls_grid_init(measurements, gnbs, ues, half_extent: float) -> np.ndarray:
    """Grid minimum of the least-squares objective, evaluated in one batch."""
    ranges, nodes = _problem(measurements, gnbs, ues)
    return _grid_argmin("ls", ranges.ravel(), ranges, nodes, half_extent)


def difference_grid_init(measurements, gnbs, ues, half_extent: float) -> np.ndarray:
    """Grid minimum of the pair-differencing objective, evaluated in one batch."""
    ranges, nodes = _problem(measurements, gnbs, ues)
    _, data_g, data_u = _difference_setup(ranges)
    data = np.concatenate([data_g.ravel(), data_u.ravel()])
    return _grid_argmin("proposed", data, ranges, nodes, half_extent)


# ---------------------------------------------------------------------------
# Objectives and gradients
# ---------------------------------------------------------------------------

def _ls_evaluator(ranges, nodes):
    """Per-solve evaluator: x -> range residuals (S, K) and node unit vectors (S+K, 2).

    Every evaluation is written into buffers made once per solve, with the
    floats of a fresh computation, and each call returns the same
    (res, units) tuple: the next call overwrites it.
    """
    num_gnbs = ranges.shape[0]
    locate, dist, units = _node_geometry(nodes)
    res = np.empty(ranges.shape)
    dist_g, dist_u = dist[:num_gnbs, None], dist[num_gnbs:]
    evaluation = res, units

    def evaluate(x):
        locate(x)
        np.add(dist_g, dist_u, out=res)
        np.subtract(ranges, res, out=res)
        return evaluation

    return evaluate


def _ls_value(evaluation, weights=None):
    """Weighted sum of squared residuals; uniform weights give LS."""
    res = evaluation[0]
    if weights is None:
        return float(np.add.reduce(res * res, None))
    return float(weights.dot(np.add.reduce(res * res, 0)))


def _ls_grad(evaluation, weights=None):
    """Gradient of `_ls_value` as two floats: -2 (transmitter part + receiver part)."""
    res, units = evaluation
    num_gnbs = res.shape[0]
    if weights is None:
        tx, rx = np.add.reduce(res, 1), np.add.reduce(res, 0)
    else:
        tx, rx = res.dot(weights), weights * np.add.reduce(res, 0)
    return _sum_times_minus_two(tx.dot(units[:num_gnbs]), rx.dot(units[num_gnbs:]))


def _sum_times_minus_two(a, b):
    """-2 (a + b) for two 2-vectors, in floats: the IEEE operations numpy does elementwise."""
    (a0, a1), (b0, b1) = a.tolist(), b.tolist()
    return -2.0 * (a0 + b0), -2.0 * (a1 + b1)


def _mean_abs_residual(res, abs_res, out, count):
    """Per-receiver mean of |res| over the S transmitters, written into `out`.

    `abs_res` is an (S, K) buffer and `count` is S as a 0-d float array; the
    floats are those of np.abs(res).mean(axis=0).
    """
    np.abs(res, out=abs_res)
    np.add.reduce(abs_res, 0, out=out)
    return np.divide(out, count, out=out)


def ls_value_grad(x, measurements, gnbs, ues, weights=None):
    """Sum of squared range residuals at position x and its gradient.

    With `weights` (one per receiver) the squares are receiver-weighted,
    which is the objective each reweighted iteration descends.
    """
    evaluation = _ls_evaluator(*_problem(measurements, gnbs, ues))(np.asarray(x, float))
    weights = None if weights is None else np.asarray(weights, float)
    return _ls_value(evaluation, weights), np.array(_ls_grad(evaluation, weights))


def andrews_weight(residual, e_max: float, out=None):
    """Redescending Andrews sine weight, before normalization.

    Equals sin(e/e_max)/(e/e_max) for 0 < e <= e_max (so 1 in the limit
    e -> 0 and sin(1) at e = e_max) and exactly 0 beyond e_max.  With
    `out`, a float array of the residual's shape, the weights are written
    there and it is returned.
    """
    e = np.asarray(residual, dtype=float)
    t = e / e_max
    w = np.empty(e.shape) if out is None else out
    # Python's min and sum on a short list cost less than two numpy
    # reductions; a NaN or inf anywhere makes the sum non-finite.
    values = t.ravel().tolist()
    if values and 0.0 < min(values) and math.isfinite(sum(values)):
        np.sin(t, out=w)
        np.divide(w, t, out=w)
        # Division rounds monotonically, and the quotient of the next float
        # above e_max rounds above 1, so t > 1 exactly when e > e_max.
        flat = w.ravel()
        for k, value in enumerate(values):
            if value > 1.0:
                flat[k] = 0.0
    else:  # a zero, negative, NaN or infinite mean, or an e / e_max that underflows to 0
        w.fill(0.0)
        inside = (t > 0) & (e <= e_max)
        w[inside] = np.sin(t[inside]) / t[inside]
        w[(t == 0) & (e >= 0)] = 1.0
    if w.ndim == 0:
        return float(w)
    return w


def _difference_evaluator(ranges, nodes):
    """Per-solve evaluator: x -> pair residuals, pair unit-vector differences, node units.

    The residuals are (Pg, K) for the transmitter pairs and (S, Pu) for the
    receiver pairs; the unit-vector differences are (Pg, 2) and (Pu, 2) and
    the node unit vectors (S+K, 2), a buffer that the next call overwrites.
    """
    pairs, data_g, data_u = _difference_setup(ranges)
    num_pg = data_g.shape[0]
    locate, dist, units = _node_geometry(nodes)

    def evaluate(x):
        locate(x)
        model, model_units = pairs.dot(dist), pairs.dot(units)
        return (data_g - model[:num_pg, None], data_u - model[num_pg:],
                model_units[:num_pg], model_units[num_pg:], units)

    return evaluate


def _difference_value(evaluation, weights=None):
    """Value of the differencing objective; it takes no weights."""
    res_g, res_u = evaluation[:2]
    return float(np.add.reduce(res_g * res_g, None) + np.add.reduce(res_u * res_u, None))


def _difference_grad(evaluation, weights=None):
    """Gradient of `_difference_value`."""
    res_g, res_u, units_g, units_u, _ = evaluation
    return _sum_times_minus_two(np.add.reduce(res_g, 1).dot(units_g),
                                np.add.reduce(res_u, 0).dot(units_u))


def difference_value_grad(x, measurements, gnbs, ues):
    """Sum of squared pair-difference residuals at position x and its gradient."""
    evaluation = _difference_evaluator(*_problem(measurements, gnbs, ues))(np.asarray(x, float))
    return _difference_value(evaluation), np.array(_difference_grad(evaluation))


# ---------------------------------------------------------------------------
# Descent driver
# ---------------------------------------------------------------------------

def _fixed_step(rate):
    """Step rule x - rate * gradient; the driver evaluates the new iterate."""

    def step(x, evaluation, value, grad):
        x0, x1 = x.tolist()
        return np.array([x0 - rate * grad[0], x1 - rate * grad[1]]), None, None, None

    return step


def _gauss_newton_step(evaluate, objective, gram):
    """Damped Gauss-Newton step rule for an objective with residuals data - design @ d.

    The Jacobian of the model is J = design @ units, so J^T J is
    units^T gram units with the objective's constant gram = design^T design,
    and -grad / 2 is J^T r.  The 2 x 2 system (J^T J) delta = -grad / 2 is
    solved in closed form; a near-singular J^T J falls back to the gradient
    step -grad / (2 tr(J^T J)).  delta is halved until the objective does
    not rise, and the new iterate is returned with its evaluation, value
    and gradient; a rejected trial costs no gradient.  When J^T J is zero
    (then so is the gradient J^T r) or no halving stops the rise, x is a
    floating-point stationary point and all None is returned.  A NaN
    objective or trace is accepted, so the driver's divergence check stops
    the solve.
    """
    value_of, grad_of = objective

    def step(x, evaluation, value, grad):
        units = evaluation[-1]
        (a, b), (_, d) = units.T.dot(gram.dot(units)).tolist()
        if value is None:  # the start, untraced; read before a trial overwrites it
            value = value_of(evaluation)
        g0, g1 = -0.5 * grad[0], -0.5 * grad[1]
        det, trace = a * d - b * b, a + d
        if det > _GN_SINGULAR * trace * trace:
            delta = np.array([(d * g0 - b * g1) / det, (a * g1 - b * g0) / det])
        elif trace == 0.0:
            return None, None, None, None
        else:
            delta = np.array([g0 / trace, g1 / trace])
        for _ in range(_GN_HALVINGS):
            x_new = x + delta
            trial = evaluate(x_new)
            trial_value = value_of(trial)
            if not trial_value > value:
                return x_new, trial, trial_value, grad_of(trial)
            delta = 0.5 * delta
        return None, None, None, None

    return step


def _descend(method, evaluate, objective, x0, step, threshold, max_iterations, trace,
             weights=None, reweight=None) -> LocalizationResult:
    """Descent with best-iterate fallback, for all solvers.

    `evaluate(x)` runs once per iterate and may return the same buffers on
    every call, so an evaluation is read before the next one is made.  The
    `objective` pair of functions (value, gradient) of (evaluation, weights)
    reads from it, and a `reweight` hook turns it into the next weights or
    into None (all zero: stop).  `step(x, evaluation, value, grad)` is the
    solve's step rule: it returns the next iterate, its evaluation, value
    and gradient (None for any it did not compute), or all None at a
    stationary point, which counts as converged.  Converged means an update
    norm <= threshold.  Otherwise (a divergent or NaN iterate, all weights
    zero, or `max_iterations` steps run) the lowest-objective iterate and
    its weights are returned with the iterations that ran.

    The gradient is computed at every iterate and the value only when read:
    for the trace, by the step (Gauss-Newton), or by the fallback, which
    evaluates the recorded (x, weights) of each iterate whose value was not
    needed and so gets the floats the loop would have had.
    """
    value_of, grad_of = objective
    x = np.array(x0, dtype=float)
    evaluation = evaluate(x)
    visited = []  # (x, weights, value or None) per iteration; never modified in place
    value = grad = None
    for iteration in range(1, max_iterations + 1):
        if grad is None:
            grad = grad_of(evaluation, weights)
        if trace is not None:
            if value is None:
                value = value_of(evaluation, weights)
            trace.append(value)
        visited.append((x, weights, value))
        x_new, evaluation, value, grad = step(x, evaluation, value, grad)
        if x_new is None:
            return LocalizationResult(x, True, iteration, method, weights)
        # Also true for a NaN or infinite iterate; same floats as np.linalg.norm.
        if not math.sqrt(x_new.dot(x_new)) <= _DIVERGENCE_NORM:
            break
        if evaluation is None:
            evaluation = evaluate(x_new)
        if reweight is not None:
            weights = reweight(evaluation)
            if weights is None:
                break
        move = x_new - x
        x = x_new
        if math.sqrt(move.dot(move)) <= threshold:
            return LocalizationResult(x, True, iteration, method, weights)
    best_val, (best_x, best_w, _) = math.inf, visited[0]
    for x, weights, value in visited:
        if value is None:
            value = value_of(evaluate(x), weights)
        if value < best_val:
            best_val, best_x, best_w = value, x, weights
    return LocalizationResult(best_x, False, iteration, method, best_w)


def _prepare(measurements, gnbs, ues, config, init):
    ranges, nodes = _problem(measurements, gnbs, ues)
    config = config if config is not None else SolverConfig()
    x0 = centroid_init(gnbs, ues) if init is None else np.asarray(init, dtype=float)
    if init is not None and not np.isfinite(x0).all():
        raise ValueError(f"init must be finite, got {x0}")
    return ranges, nodes, config, x0


def _solve_gauss_newton(method, evaluator, objective, ranges, nodes, x0, threshold,
                        max_iterations, trace) -> LocalizationResult:
    evaluate = evaluator(ranges, nodes)
    gram = _grid_design(method, *ranges.shape)[1]
    return _descend(method, evaluate, objective, x0,
                    _gauss_newton_step(evaluate, objective, gram),
                    threshold, max_iterations, trace)


def solve_ls(measurements, gnbs, ues, config=None, init=None, trace=None) -> LocalizationResult:
    """Plain least-squares position fit by damped Gauss-Newton steps.

    Starts from `init` (default: node centroid) and steps until the
    update norm drops below `irls_threshold`.  Converges to a local
    minimum only.

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
    return _solve_gauss_newton("ls", _ls_evaluator, (_ls_value, _ls_grad), ranges, nodes, x0,
                               config.irls_threshold, config.max_iterations, trace)


def _andrews_reweight(num_gnbs, num_ues, e_max):
    """Per-solve IRLS reweight: evaluation -> normalized Andrews weights, or None.

    The `andrews_weight` of each receiver's mean absolute residual, divided
    by their sum; None when they sum to 0 (every receiver rejected).  The
    intermediate arrays are buffers made once per solve and the returned
    weights a fresh array.
    """
    count, limit = np.array(float(num_gnbs)), np.array(float(e_max))
    abs_res = np.empty((num_gnbs, num_ues))
    mean, raw = np.empty(num_ues), np.empty(num_ues)

    def reweight(evaluation):
        weights = andrews_weight(_mean_abs_residual(evaluation[0], abs_res, mean, count),
                                 limit, out=raw)
        total = np.add.reduce(weights)
        return None if total <= 0.0 else weights / total

    return reweight


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
    num_gnbs, num_ues = ranges.shape
    if num_ues < 2:
        raise InsufficientGeometryError("receiver reweighting needs >= 2 receivers")
    return _descend(
        "irls", _ls_evaluator(ranges, nodes), (_ls_value, _ls_grad),
        x0, _fixed_step(config.irls_step), config.irls_threshold, config.max_iterations, trace,
        np.full(num_ues, 1.0 / num_ues), _andrews_reweight(num_gnbs, num_ues, config.e_max),
    )


def solve_proposed(measurements, gnbs, ues, config=None, init=None, trace=None) -> LocalizationResult:
    """Pair-differencing position fit by damped Gauss-Newton steps.

    Minimizes the squared mismatch between measured and geometric
    transmitter-pair and receiver-pair differences; each family of
    differences is blind to the other side's per-link biases.  Stops when
    the update norm drops below `proposed_threshold`.  Converges to a
    local minimum only.
    """
    ranges, nodes, config, x0 = _prepare(measurements, gnbs, ues, config, init)
    return _solve_gauss_newton("proposed", _difference_evaluator,
                               (_difference_value, _difference_grad),
                               ranges, nodes, x0, config.proposed_threshold,
                               config.max_iterations, trace)


def fuse(irls_result: LocalizationResult, proposed_result: LocalizationResult,
         config: SolverConfig | None = None) -> LocalizationResult:
    """Convex combination of the two estimates, gated on IRLS convergence.

    When the reweighted fit converged, the fused estimate is
    w * irls + (1 - w) * proposed with w = fusion_weight_irls;
    otherwise the differencing estimate is returned unchanged.
    """
    w = (config if config is not None else SolverConfig()).fusion_weight_irls
    if irls_result.converged:
        estimate = w * irls_result.estimate + (1.0 - w) * proposed_result.estimate
    else:
        estimate = proposed_result.estimate.copy()
    return LocalizationResult(
        estimate=estimate,
        converged=irls_result.converged or proposed_result.converged,
        iterations=irls_result.iterations + proposed_result.iterations,
        method="fused",
        ue_weights=irls_result.ue_weights,
    )

