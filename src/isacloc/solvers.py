"""Target position solvers for multistatic bistatic-range measurements.

Every measurement models the sum of the target's distances to one
transmitter and one receiver.  Three estimators are provided:

* plain least squares over all pairs;
* iteratively reweighted least squares, where each receiver's weight is
  recomputed every iteration from its mean absolute residual through the
  redescending Andrews sine function, so receivers behind large biases
  lose influence;
* a pair-differencing solver that fits differences of measurements
  sharing a receiver (transmitter pairs) or a transmitter (receiver
  pairs).  A receiver-link bias cancels exactly in every transmitter-pair
  difference, and a transmitter-link bias in every receiver-pair
  difference, so each residual sees at most one side's biases.

Every residual, of every method, is r = data - design @ d: a datum minus a
+-1 combination of the distances d from the position to the stacked (S+K, 2)
nodes.  `_rows` builds each method's data, design and Gram matrix, and one
evaluator computes r per iterate.  Least squares and differencing take the
value r . r and the gradient -2 units^T (design^T r).  IRLS reads the LS
residuals as an S x K view, the first half of a (2, S, K) block whose second
half is |r|: one column pass, a reduction over transmitters, gives the sums
of r that its gradient reads and the sums of |r| that its reweight maps,
mean by mean, through the one Andrews rule that `andrews_weight` also uses.
`linearized_covariance` propagates link range errors through the same rows.

All three run through one descent driver, whose iterates are pairs of
Python floats: the steps and norms do the IEEE operations numpy does
elementwise.  Evaluators write into buffers made once per solve; estimates
and weights are arrays of their own.  Every result says why its descent
stopped and how many evaluations it made.  Least squares and differencing
take damped Gauss-Newton steps, the Taylor-series positioning iteration
(Foy, IEEE TAES 1976) with step halving (Nocedal & Wright, Numerical
Optimization, §3.1 and §10.3), and stop at the minimum of their objective.
IRLS keeps its fixed gradient step: the Gauss-Newton fixed point of the
reweighted objective is a different estimate, and the fused estimate would
inherit the difference.

Every entry point that takes (measurements, gnbs, ues) raises ValueError
unless the range matrix is S x K and every node position is finite; a solve
also raises it unless its start `init` is a finite (2,) vector.  A fusion
rule averages the reweighted and differencing estimates with weights w and
1 - w when both converged, takes the one converged estimate when only one
did, and the differencing estimate when neither did; the fused estimate is
converged when either is.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    InsufficientGeometryError,
    UnderdeterminedError,
    check_finite,
    check_integer,
    check_positive,
    store_python_numbers,
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
        store_python_numbers(self)
        check_integer("max_iterations", self.max_iterations, minimum=1)
        check_finite("fusion_weight_irls", self.fusion_weight_irls)
        for name in ("irls_step", "irls_threshold", "proposed_threshold", "e_max"):
            check_positive(name, getattr(self, name))
        if not 0.0 <= self.fusion_weight_irls <= 1.0:
            raise ConfigurationError("fusion_weight_irls must lie in [0, 1]")


_CONVERGED_STOPS = ("converged", "stationary")
STOP_REASONS = _CONVERGED_STOPS + ("max_iterations", "diverged", "non_finite",
                                   "weights_collapsed")


@dataclass(kw_only=True)
class LocalizationResult:
    """One solve's estimate and how its descent ended; fields by keyword only.

    A non-converged result carries the lowest-objective iterate seen
    during the descent as a best-effort estimate.  `stop_reason` is one of
    STOP_REASONS: "converged" (a short update) and "stationary" (no descent
    step) are converged; "max_iterations", "diverged" (an iterate beyond 1e6
    m), "non_finite" and "weights_collapsed" (all IRLS weights zero) are
    not.  `evaluations` counts objective evaluations, step-halving trials
    and fallback ones included.
    """

    estimate: np.ndarray
    iterations: int
    method: str
    stop_reason: str
    evaluations: int
    ue_weights: np.ndarray | None = None

    @property
    def converged(self) -> bool:
        return self.stop_reason in _CONVERGED_STOPS


def _ranges_of(measurements) -> np.ndarray:
    return np.asarray(getattr(measurements, "ranges", measurements), dtype=float)


def _problem(measurements, gnbs, ues):
    """The (S, K) range matrix and the stacked finite nodes, else ValueError."""
    ranges = _ranges_of(measurements)
    if ranges.shape != (len(gnbs), len(ues)):
        raise ValueError(f"ranges shape {ranges.shape} does not match "
                         f"{len(gnbs)} transmitters x {len(ues)} receivers")
    nodes = np.vstack([np.asarray(gnbs, float), np.asarray(ues, float)])
    if not np.isfinite(nodes).all():
        raise ValueError("node positions must be finite")
    return ranges, nodes


# ---------------------------------------------------------------------------
# Residual rows: data - design @ d
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _layout(method, num_gnbs, num_ues):
    """One method's residual rows: (plus, minus, design, gram), read-only.

    Every residual is a datum minus a +-1 combination of the S+K distances d
    from x to the stacked nodes, one design row each.  Least squares ("ls")
    has one row per link (s, k), s-major: the datum ranges[s, k], +1 at s and
    at S+k.  Differencing has one row per transmitter pair s < s' and
    receiver k, then per transmitter s and receiver pair k < k' (pairs in
    `np.triu_indices` order); each is link (s', k) minus link (s, k), or
    (s, k) minus (s, k'), in data and design alike, so +1 at s' and -1 at s,
    or +1 at S+k and -1 at S+k'.  `plus` and `minus` are those links' flat
    indices (None for LS).  A row holds two exact +-1 products and exact
    zeros, so any summation order or fused multiply-add rounds design @ d
    once, to the float of d[s] + d[S+k] or of the plain difference.  The
    Gauss-Newton steps read gram = design^T design.
    """
    links = np.arange(num_gnbs * num_ues)
    s, k = np.divmod(links, num_ues)
    design = np.zeros((links.size, num_gnbs + num_ues))
    design[links, s] = design[links, k + num_gnbs] = 1.0
    plus = minus = None
    if method != "ls":
        (ig, jg), (iu, ju) = np.triu_indices(num_gnbs, k=1), np.triu_indices(num_ues, k=1)
        link = links.reshape(num_gnbs, num_ues)
        plus = np.concatenate([link[jg].ravel(), link[:, iu].ravel()])
        minus = np.concatenate([link[ig].ravel(), link[:, ju].ravel()])
        design = design[plus] - design[minus]
    gram = design.T @ design
    for a in (plus, minus, design, gram):
        if a is not None:
            a.flags.writeable = False
    return plus, minus, design, gram


def _rows(method, ranges):
    """The data, design and Gram matrix of one method's residuals data - design @ d."""
    num_gnbs, num_ues = ranges.shape
    if method != "ls" and (num_gnbs < 2 or num_ues < 2):
        raise InsufficientGeometryError(
            f"pair differencing needs >= 2 transmitters and receivers, got {num_gnbs} x {num_ues}")
    plus, minus, design, gram = _layout(method, num_gnbs, num_ues)
    flat = ranges.ravel()
    return (flat if plus is None else flat[plus] - flat[minus]), design, gram


def pair_differences(measurements):
    """The measured differences the pair-differencing solver fits.

    Returns (data_g, data_u).  data_g[p, k] = ranges[s', k] - ranges[s, k]
    for the p-th transmitter pair s < s' in `np.triu_indices` order, so a
    constant added to all measurements of one receiver cancels exactly;
    data_u[s, p] = ranges[s, k] - ranges[s, k'] for the p-th receiver pair
    k < k', so a constant on one transmitter cancels exactly.
    """
    ranges = _ranges_of(measurements)
    num_gnbs, num_ues = ranges.shape
    data = _rows("proposed", ranges)[0]
    split = num_gnbs * (num_gnbs - 1) // 2 * num_ues
    return data[:split].reshape(-1, num_ues), data[split:].reshape(num_gnbs, -1)


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
    """Grid points (P, 2) and their distances (P, S+K) to every node.

    Point i * _GRID_POINTS + j is (axis[i], axis[j]), so its squared offsets
    to the nodes are sums of per-axis squares: _GRID_POINTS x-offsets and as
    many y-offsets per node, the floats of the point-by-point form.
    """
    pts = _grid_points(half_extent)
    axis = pts[::_GRID_POINTS, :1]
    dx, dy = axis - nodes[:, 0], axis - nodes[:, 1]
    squares = (dx * dx)[:, None, :] + (dy * dy)[None, :, :]
    return pts, np.sqrt(squares, out=squares).reshape(len(pts), len(nodes))


def _grid_argmin(method, ranges, nodes, half_extent):
    """Grid point minimizing the method's sum of squares of data - design @ d.

    Expanded, the sum of squares is |data|^2 - 2 (data @ design) . d +
    d . gram d.  The constant |data|^2 cannot move the argmin and is
    dropped, so the grid needs its (P, S+K) distances and two small matrix
    products, not a (P, S, K) residual tensor.  The values round differently
    from the residual form, by at most about 1e-14 of the sum of squares, far
    below the gap between the best and second-best grid point (at least
    1.4e-9 of it on the benchmark geometries).
    """
    check_positive("half_extent", half_extent)
    data, design, gram = _rows(method, ranges)
    pts, dist = _grid_distances(nodes, half_extent)
    values = np.einsum("pn,pn->p", dist @ gram, dist) - 2.0 * (dist @ (data @ design))
    return pts[int(np.argmin(values))].copy()


def ls_grid_init(measurements, gnbs, ues, half_extent: float) -> np.ndarray:
    """Grid minimum of the least-squares objective, evaluated in one batch."""
    return _grid_argmin("ls", *_problem(measurements, gnbs, ues), half_extent)


def difference_grid_init(measurements, gnbs, ues, half_extent: float) -> np.ndarray:
    """Grid minimum of the pair-differencing objective, evaluated in one batch."""
    return _grid_argmin("proposed", *_problem(measurements, gnbs, ues), half_extent)


# ---------------------------------------------------------------------------
# Objectives and gradients
# ---------------------------------------------------------------------------

def _evaluator(data, design, nodes, shape, column_sums=False):
    """Per-solve residual evaluator: returns (evaluate, evaluation).

    `evaluate(x0, x1)` overwrites the buffers of the tuple `evaluation` and
    returns it: r = data - design @ d read as an array of `shape`, the unit
    vectors (S+K, 2) toward x (zero for a node within _SINGULARITY_GUARD of
    x) and, with `column_sums`, the (2, K) sums over transmitters of r and
    |r|, one reduction of a (2, S, K) block whose halves hold r and |r|.
    """
    point, delta, units = np.empty(2), np.empty(nodes.shape), np.empty(nodes.shape)
    dist, block = np.empty(len(nodes)), np.empty((1 + column_sums, len(data)))
    res, dx, dy, dist_col = block[0], delta[:, 0], delta[:, 1], dist[:, None]
    evaluation = res.reshape(shape), units
    if column_sums:
        abs_res, block, sums = block[1], block.reshape((2,) + shape), np.empty((2, shape[1]))
        evaluation += (sums,)

    def evaluate(x0, x1):
        point[0], point[1] = x0, x1
        np.subtract(point, nodes, out=delta)
        np.hypot(dx, dy, out=dist)
        values = dist.tolist()
        # min and sum of a short list cost less than a numpy reduction; a NaN
        # distance makes the sum NaN and takes the masked path.
        if min(values) > _SINGULARITY_GUARD and not math.isnan(sum(values)):
            np.divide(delta, dist_col, out=units)  # the masked divide gives the same floats
        else:
            units.fill(0.0)
            np.divide(delta, dist_col, out=units, where=dist_col > _SINGULARITY_GUARD)
        np.dot(design, dist, out=res)
        np.subtract(data, res, out=res)
        if column_sums:
            np.abs(res, out=abs_res)
            np.add.reduce(block, 1, out=sums)
        return evaluation

    return evaluate, evaluation


def _objective(data, design, nodes):
    """Per-solve objective r . r of the residuals r = data - design @ d: (evaluate, value, grad).

    The gradient is -2 units^T (design^T r), two floats; neither reads weights.
    """
    evaluate, _ = _evaluator(data, design, nodes, data.shape)

    def value(evaluation, weights=None):
        res = evaluation[0]
        return float(res.dot(res))

    def grad(evaluation, weights=None):
        res, units = evaluation
        g0, g1 = res.dot(design).dot(units).tolist()
        return -2.0 * g0, -2.0 * g1

    return evaluate, value, grad


def _weighted_objective(ranges, nodes):
    """Per-solve receiver-weighted least squares: (evaluate, value, grad).

    The LS residuals are read as an (S, K) view with their column sums;
    value and gradient take one weight per receiver.
    """
    data, design, _ = _rows("ls", ranges)
    evaluate, (_, units, (res_sums, _)) = _evaluator(data, design, nodes, ranges.shape, True)
    units_g, units_u = units[:len(ranges)], units[len(ranges):]

    def value(evaluation, weights):
        res = evaluation[0]
        return float(weights.dot(np.add.reduce(res * res, 0)))

    def grad(evaluation, weights):
        """-2 (transmitter part + receiver part), in floats."""
        # A product into a fresh array costs less than into a buffer with out=.
        tx, rx = evaluation[0].dot(weights), weights * res_sums
        (a0, a1), (b0, b1) = tx.dot(units_g).tolist(), rx.dot(units_u).tolist()
        return -2.0 * (a0 + b0), -2.0 * (a1 + b1)

    return evaluate, value, grad


def _value_grad(objective, x, weights=None):
    evaluate, value_of, grad_of = objective
    evaluation = evaluate(*np.asarray(x, float).tolist())
    return value_of(evaluation, weights), np.array(grad_of(evaluation, weights))


def ls_value_grad(x, measurements, gnbs, ues, weights=None):
    """Sum of squared range residuals at position x and its gradient.

    With `weights` (one per receiver, else ValueError) the squares are
    receiver-weighted, which is the objective each reweighted iteration descends.
    """
    ranges, nodes = _problem(measurements, gnbs, ues)
    if weights is None:
        return _value_grad(_objective(*_rows("ls", ranges)[:2], nodes), x)
    weights = np.asarray(weights, float)
    if weights.shape != (ranges.shape[1],):
        raise ValueError(f"weights shape {weights.shape}: need one per receiver")
    return _value_grad(_weighted_objective(ranges, nodes), x, weights)


def difference_value_grad(x, measurements, gnbs, ues):
    """Sum of squared pair-difference residuals at position x and its gradient."""
    ranges, nodes = _problem(measurements, gnbs, ues)
    return _value_grad(_objective(*_rows("proposed", ranges)[:2], nodes), x)


def _andrews(e, e_max):
    """The Andrews sine weight of one residual e, in Python floats."""
    # Division rounds monotonically, and the quotient of the next float above
    # e_max rounds above 1, so t > 1 exactly when e > e_max.
    t = e / e_max
    if 0.0 < t <= 1.0:
        return math.sin(t) / t
    return 1.0 if t == 0.0 and e >= 0.0 else 0.0  # also an e / e_max that underflows to 0


def andrews_weight(residual, e_max: float):
    """Redescending Andrews sine weight, before normalization.

    Equals sin(e/e_max)/(e/e_max) for 0 < e <= e_max (so 1 in the limit
    e -> 0 and sin(1) at e = e_max) and exactly 0 beyond e_max or for a
    negative or NaN e.  ConfigurationError unless e_max is finite and
    positive.
    """
    check_positive("e_max", e_max)
    e, e_max = np.asarray(residual, dtype=float), float(e_max)
    w = np.reshape([_andrews(v, e_max) for v in e.ravel().tolist()], e.shape)
    return float(w) if w.ndim == 0 else w


# ---------------------------------------------------------------------------
# Descent driver
# ---------------------------------------------------------------------------

def _fixed_step(rate):
    """Step rule x - rate * gradient; the driver evaluates the new iterate."""

    def step(objective, x0, x1, evaluation, value, grad):
        return x0 - rate * grad[0], x1 - rate * grad[1], None, None, None

    return step


def _gauss_newton_step(gram):
    """Damped Gauss-Newton step rule for an objective with residuals data - design @ d.

    The Jacobian of the model is J = design @ units, so J^T J is units^T gram
    units with the constant gram = design^T design, and -grad / 2 is J^T r.
    (J^T J) delta = -grad / 2 is solved in closed form, or delta is
    -grad / (2 tr(J^T J)) when J^T J is near singular.  delta is halved until
    the objective does not rise; a rejected trial costs no gradient.  When
    J^T J is zero (so is J^T r) or no halving stops the rise, x is a
    floating-point stationary point and None is returned.  A NaN objective
    or trace is accepted, so the driver's divergence check stops the solve.
    """
    def step(objective, x0, x1, evaluation, value, grad):
        evaluate, value_of, grad_of = objective
        units = evaluation[1]
        (a, b), (_, d) = units.T.dot(gram.dot(units)).tolist()
        if value is None:  # the start, untraced; read before a trial overwrites it
            value = value_of(evaluation)
        g0, g1 = -0.5 * grad[0], -0.5 * grad[1]
        det, trace = a * d - b * b, a + d
        if det > _GN_SINGULAR * trace * trace:
            d0, d1 = (d * g0 - b * g1) / det, (a * g1 - b * g0) / det
        elif trace == 0.0:
            return None
        else:
            d0, d1 = g0 / trace, g1 / trace
        for _ in range(_GN_HALVINGS):
            n0, n1 = x0 + d0, x1 + d1
            trial = evaluate(n0, n1)
            trial_value = value_of(trial)
            if not trial_value > value:
                return n0, n1, trial, trial_value, grad_of(trial)
            d0, d1 = 0.5 * d0, 0.5 * d1
        return None

    return step


def _descend(method, objective, x, step, threshold, max_iterations, trace,
             weights=None, reweight=None) -> LocalizationResult:
    """Descent with best-iterate fallback, for all solvers; the iterate is two Python floats.

    `objective` is (evaluate, value, grad): `evaluate(x0, x1)` may return the
    same buffers on every call, so an evaluation is read before the next one;
    value and gradient take (evaluation, weights), and a `reweight` hook turns
    it into the next weights (None: all zero).  `step(objective, x0, x1,
    evaluation, value, grad)` returns the next x0, x1, evaluation, value and
    gradient (None for any not computed), or None at a stationary point.
    Converged means an update norm <= threshold or a stationary point; else the
    lowest-objective iterate is returned, its value recomputed where the loop
    did not need it, to the same floats.  Every `evaluate` call counts.
    """
    evaluate, value_of, grad_of = objective
    evaluations = 1  # the start's

    def counted(x0, x1):  # for step rules and the fallback; the loop counts its own inline
        nonlocal evaluations
        evaluations += 1
        return evaluate(x0, x1)

    objective = counted, value_of, grad_of
    x0, x1 = np.asarray(x, dtype=float).tolist()
    evaluation = evaluate(x0, x1)
    visited = []  # (x0, x1, weights, value or None) per iteration; never modified in place
    value = grad = None
    reason = "max_iterations"
    for iteration in range(1, max_iterations + 1):
        if grad is None:
            grad = grad_of(evaluation, weights)
        if trace is not None:
            if value is None:
                value = value_of(evaluation, weights)
            trace.append(value)
        visited.append((x0, x1, weights, value))
        taken = step(objective, x0, x1, evaluation, value, grad)
        if taken is None:
            reason = "stationary"
            break
        n0, n1, evaluation, value, grad = taken
        if not math.hypot(n0, n1) <= _DIVERGENCE_NORM:  # also true for a NaN iterate
            reason = "diverged" if math.isfinite(n0) and math.isfinite(n1) else "non_finite"
            break
        if evaluation is None:
            evaluations += 1
            evaluation = evaluate(n0, n1)
        if reweight is not None:
            weights = reweight(evaluation)
            if weights is None:
                reason = "weights_collapsed"
                break
        move = math.hypot(n0 - x0, n1 - x1)
        x0, x1 = n0, n1
        if move <= threshold:
            reason = "converged"
            break
    if reason not in _CONVERGED_STOPS:
        best_val, (x0, x1, weights, _) = math.inf, visited[0]
        for v0, v1, w, value in visited:
            if value is None:
                value = value_of(counted(v0, v1), w)
            if value < best_val:
                best_val, x0, x1, weights = value, v0, v1, w
    return LocalizationResult(estimate=np.array([x0, x1]), iterations=iteration, method=method,
                              stop_reason=reason, evaluations=evaluations, ue_weights=weights)


def _prepare(measurements, gnbs, ues, init, min_links=0):
    ranges, nodes = _problem(measurements, gnbs, ues)
    x0 = np.asarray(init, dtype=float)
    if x0.shape != (2,) or not np.isfinite(x0).all():
        raise ValueError(f"init must be finite and of shape (2,), got {x0}")
    if ranges.size < min_links:
        raise UnderdeterminedError(f"need at least {min_links} measurements for a 2-D fit")
    return ranges, nodes, x0


def _gauss_newton_solve(method, ranges, nodes, x0, threshold, config, trace):
    data, design, gram = _rows(method, ranges)
    return _descend(method, _objective(data, design, nodes), x0, _gauss_newton_step(gram),
                    threshold, config.max_iterations, trace)


def solve_ls(measurements, gnbs, ues, config, init, trace=None) -> LocalizationResult:
    """Plain least-squares position fit by damped Gauss-Newton steps.

    Starts from `init` and steps until the update norm drops below
    `irls_threshold`.  Converges to a local minimum only.

    Args:
        measurements: MeasurementSet or (S, K) range matrix.
        gnbs: (S, 2) transmitter positions.
        ues: (K, 2) receiver positions.
        config: SolverConfig.
        init: finite (2,) starting point, else ValueError; `ls_grid_init`
            gives the grid start every trial uses.
        trace: optional list collecting the objective value per iteration.
    """
    ranges, nodes, x0 = _prepare(measurements, gnbs, ues, init, min_links=3)
    return _gauss_newton_solve("ls", ranges, nodes, x0, config.irls_threshold, config, trace)


def _andrews_reweight(num_gnbs, e_max):
    """Per-solve IRLS reweight: evaluation -> normalized Andrews weights, or None.

    Each receiver's weight is `_andrews` of its mean absolute residual (its
    column sum of |r| over S), in Python floats; the fresh weights array is
    divided in place by its numpy sum (Python's `sum` rounds differently).
    """
    count, e_max = float(num_gnbs), float(e_max)

    def reweight(evaluation):
        _, abs_sums = evaluation[2].tolist()
        weights = np.array([_andrews(m / count, e_max) for m in abs_sums])
        total = np.add.reduce(weights)
        return None if total <= 0.0 else np.divide(weights, total, out=weights)

    return reweight


def solve_irls(measurements, gnbs, ues, config, init, trace=None) -> LocalizationResult:
    """Iteratively reweighted least-squares fit with Andrews sine weights.

    Receiver weights start uniform.  Each iteration takes one gradient step
    of the weighted objective and maps each receiver's mean absolute residual
    at the new position through the Andrews sine function (hard zero beyond
    e_max) into weights that sum to one.  Stops when the position update
    norm drops below the threshold; all weights vanishing, a NaN, or
    iteration exhaustion is reported as non-convergence.
    """
    ranges, nodes, x0 = _prepare(measurements, gnbs, ues, init, min_links=3)
    num_gnbs, num_ues = ranges.shape
    if num_ues < 2:
        raise InsufficientGeometryError("receiver reweighting needs >= 2 receivers")
    return _descend(
        "irls", _weighted_objective(ranges, nodes), x0, _fixed_step(config.irls_step),
        config.irls_threshold, config.max_iterations, trace,
        np.full(num_ues, 1.0 / num_ues), _andrews_reweight(num_gnbs, config.e_max),
    )


def solve_proposed(measurements, gnbs, ues, config, init, trace=None) -> LocalizationResult:
    """Pair-differencing position fit by damped Gauss-Newton steps.

    Minimizes the squared mismatch between measured and geometric
    transmitter-pair and receiver-pair differences; each family of
    differences is blind to the other side's per-link biases.  Stops when
    the update norm drops below `proposed_threshold`.  Converges to a
    local minimum only.
    """
    ranges, nodes, x0 = _prepare(measurements, gnbs, ues, init)
    return _gauss_newton_solve("proposed", ranges, nodes, x0, config.proposed_threshold, config,
                               trace)


def linearized_covariance(method, gnbs, ues, target, variance) -> np.ndarray:
    """The 2 x 2 small-error covariance of the "ls" or "proposed" solve at `target`.

    Independent link range errors n of `variance` move the estimate by A n to first
    order, A = (J^T J)^-1 J^T M, J = design @ units at `target`, M the identity for
    least squares and eye[plus] - eye[minus] for differencing (Foy, IEEE TAES 1976;
    Kay, Fundamentals of Statistical Signal Processing vol. 1, ch. 3 and 8).
    Returns variance * A A^T; raises what the method's solve raises for the start `target`.
    """
    if method not in ("ls", "proposed"):
        raise ValueError(f"method must be 'ls' or 'proposed', got {method!r}")
    ranges, nodes, x = _prepare(np.zeros((len(gnbs), len(ues))), gnbs, ues, target,
                                min_links=3 if method == "ls" else 0)
    data, design, _ = _rows(method, ranges)
    plus, minus = _layout(method, *ranges.shape)[:2]
    eye = np.eye(ranges.size)
    link_map = eye if plus is None else eye[plus] - eye[minus]
    jac = design @ _evaluator(data, design, nodes, data.shape)[0](*x.tolist())[1]  # units at x
    gain = np.linalg.solve(jac.T @ jac, jac.T @ link_map)
    return variance * gain @ gain.T


def fuse(irls_result: LocalizationResult, proposed_result: LocalizationResult,
         config: SolverConfig) -> tuple[np.ndarray, bool]:
    """The fused estimate and whether it converged; no failed solve enters it.

    When both fits converged, the estimate is w * irls + (1 - w) * proposed
    with w = fusion_weight_irls.  When one converged, it is a copy of that
    fit's estimate; when neither did, of the differencing estimate.  It is
    converged when either fit is.
    """
    if irls_result.converged and proposed_result.converged:
        w = config.fusion_weight_irls
        return w * irls_result.estimate + (1.0 - w) * proposed_result.estimate, True
    chosen = irls_result if irls_result.converged else proposed_result
    return chosen.estimate.copy(), chosen.converged
