import math

import numpy as np
import pytest

from isacloc import (
    InsufficientGeometryError,
    MeasurementSet,
    SolverConfig,
    UnderdeterminedError,
    andrews_weight,
    centroid_init,
    difference_grid_init,
    difference_value_grad,
    fuse,
    ls_grid_init,
    ls_value_grad,
    pair_differences,
    residuals,
    sample_scenario,
    solve_irls,
    solve_ls,
    solve_proposed,
    true_bistatic_ranges,
)
from isacloc.solvers import _grid_distances

TIGHT = SolverConfig(irls_threshold=1e-6, proposed_threshold=1e-6)


def _problem(seed=0, num_gnbs=6, num_ues=6, outlier_max=0.0):
    sc = sample_scenario(num_gnbs, num_ues, outlier_max=outlier_max, rng_seed=seed)
    ranges = true_bistatic_ranges(sc).ranges
    return sc, ranges


def _fd_gradient(objective, x, h=1e-6):
    grad = np.zeros(2)
    for i in range(2):
        step = np.zeros(2)
        step[i] = h
        grad[i] = (objective(x + step) - objective(x - step)) / (2 * h)
    return grad


def grid_search_init(objective, half_extent, points=20):
    """Point-by-point grid minimum: the reference for the batched grid inits."""
    axis = np.linspace(-half_extent, half_extent, points)
    best_val, best_xy = np.inf, np.array([0.0, 0.0])
    for gx in axis:
        for gy in axis:
            val = objective(np.array([gx, gy]))
            if val < best_val:
                best_val, best_xy = val, np.array([gx, gy])
    return best_xy


class TestResiduals:
    def test_zero_at_truth(self):
        sc, ranges = _problem(seed=1)
        e = residuals(ranges, sc.gnb_positions, sc.ue_positions, sc.target)
        assert np.allclose(e, 0.0, atol=1e-9)

    def test_single_biased_measurement(self):
        sc, ranges = _problem(seed=2)
        biased = ranges.copy()
        biased[2, 3] += 5.0
        e = residuals(biased, sc.gnb_positions, sc.ue_positions, sc.target)
        assert e[3] == pytest.approx(5.0 / 6.0)
        assert np.allclose(np.delete(e, 3), 0.0, atol=1e-9)

    def test_matches_loop_oracle(self, rng):
        sc, ranges = _problem(seed=3, outlier_max=8.0)
        x = rng.uniform(-50, 50, 2)
        e = residuals(ranges, sc.gnb_positions, sc.ue_positions, x)
        for k in range(6):
            total = 0.0
            for s in range(6):
                d = math.hypot(*(x - sc.gnb_positions[s])) + math.hypot(*(x - sc.ue_positions[k]))
                total += abs(ranges[s, k] - d)
            assert e[k] == pytest.approx(total / 6.0, rel=1e-12)


class TestAndrewsWeight:
    def test_value_at_threshold(self):
        assert andrews_weight(7.0, 7.0) == pytest.approx(math.sin(1.0))
        assert andrews_weight(7.0, 7.0) == pytest.approx(0.841471, abs=1e-6)

    def test_zero_beyond_threshold(self):
        assert andrews_weight(7.0000001, 7.0) == 0.0
        assert andrews_weight(100.0, 7.0) == 0.0

    def test_limit_at_zero(self):
        assert andrews_weight(0.0, 7.0) == 1.0
        assert andrews_weight(1e-12, 7.0) == pytest.approx(1.0)

    def test_strictly_decreasing_inside(self):
        e = np.linspace(1e-6, 7.0, 500)
        w = andrews_weight(e, 7.0)
        assert (np.diff(w) < 0).all()
        assert (w >= 0).all() and (w <= 1).all()

    def test_equal_residuals_normalize_to_uniform(self):
        w = andrews_weight(np.full(6, 3.0), 7.0)
        normalized = w / w.sum()
        assert np.allclose(normalized, 1.0 / 6.0)


class TestDifferencing:
    def test_counts(self):
        _, ranges = _problem(seed=4, num_gnbs=5, num_ues=4)
        diffs_g, diffs_u = pair_differences(ranges)
        assert diffs_g.shape == (10, 4)
        assert diffs_u.shape == (5, 6)

    def test_two_transmitter_arithmetic(self):
        ranges = np.array([[10.0, 3.0], [14.0, 4.5]])
        diffs_g, diffs_u = pair_differences(ranges)
        assert np.array_equal(diffs_g, [[4.0, 1.5]])  # ranges[1] - ranges[0]
        assert np.array_equal(diffs_u, [[7.0], [9.5]])  # ranges[:, 0] - ranges[:, 1]

    @staticmethod
    def _dyadic(rng, size, scale=32.0):
        # Multiples of 2^-20: sums with same-scale values stay exactly
        # representable, so cancellation can be checked bit for bit.
        return np.round(rng.uniform(0, scale, size=size) * 2**20) / 2**20

    def test_per_ue_constant_cancels_bit_identically(self, rng):
        ranges = self._dyadic(rng, (6, 6), scale=400.0)
        base, _ = pair_differences(ranges)
        shifted = ranges + self._dyadic(rng, 6)[None, :]  # per-UE-link constants
        after, _ = pair_differences(shifted)
        assert np.array_equal(base, after)

    def test_per_gnb_constant_cancels_bit_identically(self, rng):
        ranges = self._dyadic(rng, (6, 6), scale=400.0)
        _, base = pair_differences(ranges)
        shifted = ranges + self._dyadic(rng, 6)[:, None]  # per-gNB-link constants
        _, after = pair_differences(shifted)
        assert np.array_equal(base, after)

    def test_scenario_link_excess_cancels_to_machine_precision(self, rng):
        # Real-valued excesses as produced by scenario synthesis: exact in
        # real arithmetic, rounding-limited in floats.
        _, ranges = _problem(seed=5)
        dg_base, du_base = pair_differences(ranges)
        dg_after, _ = pair_differences(ranges + rng.uniform(0, 30, 6)[None, :])
        assert np.allclose(dg_base, dg_after, rtol=0, atol=1e-9)
        _, du_after = pair_differences(ranges + rng.uniform(0, 30, 6)[:, None])
        assert np.allclose(du_base, du_after, rtol=0, atol=1e-9)

    def test_noise_free_differences_match_geometry(self):
        sc, ranges = _problem(seed=7)
        diffs_g, diffs_u = pair_differences(ranges)
        dist_g = np.linalg.norm(sc.target - sc.gnb_positions, axis=1)
        for row, (s, s2) in enumerate(zip(*np.triu_indices(6, k=1))):
            expected = dist_g[s2] - dist_g[s]
            assert np.allclose(diffs_g[row, :], expected, atol=1e-9)
        dist_u = np.linalg.norm(sc.target - sc.ue_positions, axis=1)
        for col, (k, k2) in enumerate(zip(*np.triu_indices(6, k=1))):
            expected = dist_u[k] - dist_u[k2]
            assert np.allclose(diffs_u[:, col], expected, atol=1e-9)

    def test_insufficient_geometry(self):
        with pytest.raises(InsufficientGeometryError):
            pair_differences(np.ones((1, 4)))
        with pytest.raises(InsufficientGeometryError):
            pair_differences(np.ones((4, 1)))


class TestGradients:
    def _random_points(self, sc, rng, count):
        points = []
        nodes = np.vstack([sc.gnb_positions, sc.ue_positions])
        while len(points) < count:
            x = rng.uniform(-150, 150, 2)
            if np.linalg.norm(nodes - x, axis=1).min() > 1.0:
                points.append(x)
        return points

    def test_ls_gradient_matches_finite_differences(self, rng):
        sc, ranges = _problem(seed=8, outlier_max=10.0)
        g, u = sc.gnb_positions, sc.ue_positions
        for x in self._random_points(sc, rng, 25):
            analytic = ls_value_grad(x, ranges, g, u)[1]
            numeric = _fd_gradient(lambda p: ls_value_grad(p, ranges, g, u)[0], x)
            assert np.linalg.norm(analytic - numeric) <= 1e-5 * np.linalg.norm(analytic)

    def test_irls_gradient_matches_finite_differences(self, rng):
        sc, ranges = _problem(seed=9, outlier_max=10.0)
        g, u = sc.gnb_positions, sc.ue_positions
        weights = rng.uniform(0.1, 1.0, 6)
        weights /= weights.sum()
        for x in self._random_points(sc, rng, 25):
            analytic = ls_value_grad(x, ranges, g, u, weights)[1]
            numeric = _fd_gradient(lambda p: ls_value_grad(p, ranges, g, u, weights)[0], x)
            assert np.linalg.norm(analytic - numeric) <= 1e-5 * np.linalg.norm(analytic)

    def test_difference_gradient_matches_finite_differences(self, rng):
        sc, ranges = _problem(seed=10, outlier_max=10.0)
        g, u = sc.gnb_positions, sc.ue_positions
        for x in self._random_points(sc, rng, 25):
            analytic = difference_value_grad(x, ranges, g, u)[1]
            numeric = _fd_gradient(lambda p: difference_value_grad(p, ranges, g, u)[0], x)
            assert np.linalg.norm(analytic - numeric) <= 1e-5 * np.linalg.norm(analytic)


class TestSolveLs:
    def test_stays_at_truth(self):
        sc, ranges = _problem(seed=11)
        result = solve_ls(ranges, sc.gnb_positions, sc.ue_positions, TIGHT, init=sc.target)
        assert result.converged
        assert np.linalg.norm(result.estimate - sc.target) < 1e-9

    def test_recovers_truth_from_centroid(self):
        sc, ranges = _problem(seed=12)
        init = centroid_init(sc.gnb_positions, sc.ue_positions)
        result = solve_ls(ranges, sc.gnb_positions, sc.ue_positions, TIGHT, init=init)
        assert result.converged
        assert np.linalg.norm(result.estimate - sc.target) < 1e-3

    def test_underdetermined_rejected(self):
        with pytest.raises(UnderdeterminedError):
            solve_ls(np.ones((1, 2)), np.zeros((1, 2)), np.ones((2, 2)))

    def test_accepts_measurement_set(self):
        sc, _ = _problem(seed=13)
        ms = true_bistatic_ranges(sc)
        result = solve_ls(ms, sc.gnb_positions, sc.ue_positions, TIGHT)
        assert np.linalg.norm(result.estimate - sc.target) < 1e-3


class TestSolveIrls:
    def test_downweights_biased_receiver(self):
        sc, ranges = _problem(seed=14)
        biased = ranges.copy()
        biased[:, 2] += 20.0
        g, u = sc.gnb_positions, sc.ue_positions
        init = ls_grid_init(biased, g, u, 75.0)
        irls = solve_irls(biased, g, u, TIGHT, init=init)
        ls = solve_ls(biased, g, u, TIGHT, init=init)
        assert irls.converged
        assert irls.ue_weights[2] < 0.05
        assert np.isclose(irls.ue_weights.sum(), 1.0)
        err_irls = np.linalg.norm(irls.estimate - sc.target)
        err_ls = np.linalg.norm(ls.estimate - sc.target)
        assert err_irls < err_ls

    def test_weights_on_simplex(self):
        for seed in range(10):
            sc, ranges = _problem(seed=seed, outlier_max=10.0)
            rng = np.random.default_rng(seed)
            noisy = ranges + rng.uniform(-1.5, 1.5, ranges.shape)
            noisy = np.maximum(noisy, 0.0)
            g, u = sc.gnb_positions, sc.ue_positions
            result = solve_irls(noisy, g, u, init=ls_grid_init(noisy, g, u, 75.0))
            assert result.ue_weights.shape == (6,)
            assert np.isclose(result.ue_weights.sum(), 1.0, atol=1e-12)
            assert ((result.ue_weights >= 0) & (result.ue_weights <= 1)).all()

    def test_degenerate_weights_reported_as_divergence(self):
        sc, ranges = _problem(seed=15)
        # All measurements wildly inflated: every residual exceeds e_max at
        # any sensible iterate, so every weight goes to zero.
        result = solve_irls(ranges + 1000.0, sc.gnb_positions, sc.ue_positions,
                            init=sc.target)
        assert not result.converged

    def test_requires_two_receivers(self):
        with pytest.raises(InsufficientGeometryError):
            solve_irls(np.ones((4, 1)), np.zeros((4, 2)), np.ones((1, 2)))


class TestSolveProposed:
    def test_per_link_biases_cancel_exactly(self, rng):
        # Uniform per-side biases on every link: all difference residuals
        # vanish at the truth, so the fit recovers it.
        sc, ranges = _problem(seed=16)
        biased = ranges + 6.0 + 4.0  # same constant on every gNB and UE link
        result = solve_proposed(biased, sc.gnb_positions, sc.ue_positions, TIGHT,
                                init=sc.target + np.array([2.0, -1.0]))
        assert result.converged
        assert np.linalg.norm(result.estimate - sc.target) < 1e-3

    def test_arbitrary_per_link_biases_leave_cancelling_family_unchanged(self, rng):
        dyadic = TestDifferencing._dyadic
        ranges = dyadic(rng, (6, 6), scale=400.0)
        zg = dyadic(rng, 6, scale=25.0)
        zu = dyadic(rng, 6, scale=25.0)
        biased = (ranges + zg[:, None]) + zu[None, :]
        dg_biased, du_biased = pair_differences(biased)
        dg_base, _ = pair_differences(ranges + zg[:, None])
        assert np.array_equal(dg_base, dg_biased)  # UE-side constants invisible
        _, du_base = pair_differences(ranges + zu[None, :])
        assert np.array_equal(du_base, du_biased)  # gNB-side constants invisible

    def test_requires_pairs_on_both_sides(self):
        with pytest.raises(InsufficientGeometryError):
            solve_proposed(np.ones((1, 4)), np.zeros((1, 2)), np.ones((4, 2)))
        with pytest.raises(InsufficientGeometryError):
            solve_proposed(np.ones((4, 1)), np.zeros((4, 2)), np.ones((1, 2)))


class TestFusion:
    def _results(self, converged_irls):
        from isacloc import LocalizationResult

        irls = LocalizationResult(np.array([0.0, 0.0]), converged_irls, 10, "irls",
                                  np.full(4, 0.25))
        prop = LocalizationResult(np.array([2.0, 2.0]), True, 20, "proposed")
        return irls, prop

    def test_even_weights_average(self):
        irls, prop = self._results(True)
        fused = fuse(irls, prop, SolverConfig())
        assert np.allclose(fused.estimate, [1.0, 1.0])
        assert fused.converged

    def test_irls_divergence_falls_back(self):
        irls, prop = self._results(False)
        fused = fuse(irls, prop, SolverConfig())
        assert np.allclose(fused.estimate, [2.0, 2.0])

    def test_degenerate_weight_returns_irls(self):
        irls, prop = self._results(True)
        cfg = SolverConfig(fusion_weight_irls=1.0, fusion_weight_proposed=0.0)
        fused = fuse(irls, prop, cfg)
        assert np.allclose(fused.estimate, [0.0, 0.0])

    def test_solve_fused_end_to_end(self):
        sc, ranges = _problem(seed=18)
        g, u, init = sc.gnb_positions, sc.ue_positions, sc.target + np.array([1.0, 1.0])
        irls = solve_irls(ranges, g, u, TIGHT, init)
        result = fuse(irls, solve_proposed(ranges, g, u, TIGHT, init), TIGHT)
        assert result.method == "fused"
        assert np.linalg.norm(result.estimate - sc.target) < 1e-2


class TestSolverProperties:
    def test_translation_equivariance(self):
        shift = np.array([1234.5, -987.0])
        sc, ranges = _problem(seed=19, outlier_max=10.0)
        rng = np.random.default_rng(19)
        noisy = np.maximum(ranges + rng.uniform(-1.5, 1.5, ranges.shape), 0.0)
        g, u = sc.gnb_positions, sc.ue_positions
        init = ls_grid_init(noisy, g, u, 75.0)
        for solver in (solve_ls, solve_irls, solve_proposed):
            base = solver(noisy, g, u, TIGHT, init=init)
            moved = solver(noisy, g + shift, u + shift, TIGHT, init=init + shift)
            assert np.allclose(moved.estimate, base.estimate + shift, atol=1e-6)

    def test_monotone_descent_dominates(self):
        violations = {"ls": 0, "proposed": 0}
        trials = 100
        from isacloc import OfdmConfig, synthesize_measurements_model

        config = OfdmConfig(120e3, 792)
        for seed in range(trials):
            sc = sample_scenario(6, 6, outlier_max=10.0, rng_seed=seed)
            ms = synthesize_measurements_model(sc, config, np.random.default_rng(seed))
            g, u = sc.gnb_positions, sc.ue_positions
            trace_ls, trace_pr = [], []
            solve_ls(ms, g, u, init=ls_grid_init(ms, g, u, 75.0), trace=trace_ls)
            solve_proposed(ms, g, u, init=difference_grid_init(ms, g, u, 75.0),
                           trace=trace_pr)
            for method, trace in (("ls", trace_ls), ("proposed", trace_pr)):
                values = np.asarray(trace)
                if (np.diff(values) > 1e-9 * np.abs(values[:-1])).any():
                    violations[method] += 1
        assert violations["ls"] <= trials // 100
        assert violations["proposed"] <= trials // 100

    def test_grid_init_helpers_match_generic_search(self):
        sc, ranges = _problem(seed=20, outlier_max=10.0)
        g, u = sc.gnb_positions, sc.ue_positions
        fast_ls = ls_grid_init(ranges, g, u, 75.0)
        slow_ls = grid_search_init(lambda x: ls_value_grad(x, ranges, g, u)[0], 75.0)
        assert np.array_equal(fast_ls, slow_ls)
        fast_df = difference_grid_init(ranges, g, u, 75.0)
        slow_df = grid_search_init(lambda x: difference_value_grad(x, ranges, g, u)[0], 75.0)
        assert np.array_equal(fast_df, slow_df)


def test_solver_config_validation():
    from isacloc import ConfigurationError

    with pytest.raises(ConfigurationError):
        SolverConfig(ls_step=0.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(fusion_weight_irls=0.7, fusion_weight_proposed=0.7)
    with pytest.raises(ConfigurationError):
        SolverConfig(max_iterations=0)


def test_measurement_set_and_array_inputs_agree():
    sc, ranges = _problem(seed=22)
    ms = MeasurementSet(ranges=ranges)
    a = solve_ls(ms, sc.gnb_positions, sc.ue_positions, TIGHT, init=sc.target)
    b = solve_ls(ranges, sc.gnb_positions, sc.ue_positions, TIGHT, init=sc.target)
    assert np.array_equal(a.estimate, b.estimate)


# ---------------------------------------------------------------------------
# Exactness oracle: the two hand-written descent loops and the per-objective
# value/gradient functions that the single driver replaced.  The driver must
# reproduce their estimates, flags, iteration counts, weights and traces
# bit for bit.
# ---------------------------------------------------------------------------

def _ref_distances_and_units(x, nodes):
    delta = x - nodes
    dist = np.hypot(delta[:, 0], delta[:, 1])
    units = np.zeros_like(delta)
    np.divide(delta, dist[:, None], out=units, where=(dist[:, None] > 1e-9))
    return dist, units


def _ref_ls_value_grad(x, ranges, gnbs, ues, weights=None):
    dist_g, units_g = _ref_distances_and_units(x, gnbs)
    dist_u, units_u = _ref_distances_and_units(x, ues)
    res = ranges - (dist_g[:, None] + dist_u[None, :])
    if weights is None:
        value = float(np.sum(res * res))
        grad = -2.0 * (res.sum(axis=1) @ units_g + res.sum(axis=0) @ units_u)
    else:
        value = float(weights @ (res * res).sum(axis=0))
        grad = -2.0 * ((res @ weights) @ units_g + (weights * res.sum(axis=0)) @ units_u)
    return value, grad


def _ref_residuals(ranges, gnbs, ues, x):
    dist_g, _ = _ref_distances_and_units(x, gnbs)
    dist_u, _ = _ref_distances_and_units(x, ues)
    return np.abs(ranges - (dist_g[:, None] + dist_u[None, :])).mean(axis=0)


def _ref_difference_value_grad(x, ranges, gnbs, ues):
    ig, jg = np.triu_indices(ranges.shape[0], k=1)
    iu, ju = np.triu_indices(ranges.shape[1], k=1)
    dist_g, units_g = _ref_distances_and_units(x, gnbs)
    dist_u, units_u = _ref_distances_and_units(x, ues)
    res_g = (ranges[jg, :] - ranges[ig, :]) - (dist_g[jg] - dist_g[ig])[:, None]
    res_u = (ranges[:, iu] - ranges[:, ju]) - (dist_u[iu] - dist_u[ju])[None, :]
    value = float(np.sum(res_g * res_g) + np.sum(res_u * res_u))
    grad = -2.0 * (
        res_g.sum(axis=1) @ (units_g[jg] - units_g[ig])
        + res_u.sum(axis=0) @ (units_u[iu] - units_u[ju])
    )
    return value, grad


def _ref_descend(value_grad, x0, step, threshold, max_iterations, trace):
    x = np.array(x0, dtype=float)
    best_x, best_val = x.copy(), np.inf
    for iteration in range(1, max_iterations + 1):
        value, grad = value_grad(x)
        trace.append(value)
        if value < best_val:
            best_val, best_x = value, x.copy()
        x_new = x - step * grad
        if not np.isfinite(x_new).all() or np.linalg.norm(x_new) > 1e6:
            return best_x, False, iteration
        delta = np.linalg.norm(x_new - x)
        x = x_new
        if delta <= threshold:
            return x, True, iteration
    return best_x, False, max_iterations


def _ref_irls(ranges, gnbs, ues, config, x0, trace):
    num_ues = ranges.shape[1]
    weights = np.full(num_ues, 1.0 / num_ues)
    x = np.array(x0, dtype=float)
    best_val, best_x, best_w = np.inf, x.copy(), weights.copy()
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        value, grad = _ref_ls_value_grad(x, ranges, gnbs, ues, weights)
        trace.append(value)
        if value < best_val:
            best_val, best_x, best_w = value, x.copy(), weights.copy()
        x_new = x - config.irls_step * grad
        if not np.isfinite(x_new).all() or np.linalg.norm(x_new) > 1e6:
            break
        raw = andrews_weight(_ref_residuals(ranges, gnbs, ues, x_new), config.e_max)
        total = raw.sum()
        if total <= 0.0:
            break
        delta = np.linalg.norm(x_new - x)
        x, weights = x_new, raw / total
        if delta <= config.irls_threshold:
            converged = True
            break
    if converged:
        return x, True, iterations, weights
    return best_x, False, iterations, best_w


def _ref_solve(method, ranges, gnbs, ues, config, x0, trace):
    if method == "irls":
        return _ref_irls(ranges, gnbs, ues, config, x0, trace)
    if method == "ls":
        out = _ref_descend(lambda x: _ref_ls_value_grad(x, ranges, gnbs, ues), x0,
                           config.ls_step, config.irls_threshold, config.max_iterations, trace)
    else:
        out = _ref_descend(lambda x: _ref_difference_value_grad(x, ranges, gnbs, ues), x0,
                           config.proposed_step, config.proposed_threshold,
                           config.max_iterations, trace)
    return (*out, None)


_SOLVES = {"ls": solve_ls, "irls": solve_irls, "proposed": solve_proposed}


def _random_problem(seed):
    """Random S x K geometry, 2..8 per side, with model-mode range errors."""
    from isacloc import OfdmConfig, synthesize_measurements_model

    rng = np.random.default_rng(seed)
    num_gnbs, num_ues = (int(n) for n in rng.integers(2, 9, size=2))
    sc = sample_scenario(num_gnbs, num_ues, outlier_max=float(rng.uniform(0.0, 14.0)),
                         rng_seed=seed)
    ms = synthesize_measurements_model(sc, OfdmConfig(120e3, 792), rng)
    return rng, ms.ranges, sc.gnb_positions, sc.ue_positions


def _assert_matches_reference(method, ranges, g, u, config, x0):
    trace, ref_trace = [], []
    result = _SOLVES[method](ranges, g, u, config, init=x0, trace=trace)
    ref_est, ref_conv, ref_iter, ref_w = _ref_solve(method, ranges, g, u, config, x0, ref_trace)
    assert np.array_equal(result.estimate, ref_est)
    assert result.converged == ref_conv
    assert result.iterations == ref_iter
    if ref_w is None:
        assert result.ue_weights is None
    else:
        assert np.array_equal(result.ue_weights, ref_w)
    assert np.array_equal(np.asarray(trace), np.asarray(ref_trace), equal_nan=True)
    return result


class TestDriverMatchesReferenceLoops:
    # Shortened so a solve that oscillates to the cap stays cheap for the
    # reference loops; the cap itself is exercised like any other stop.
    CONFIG = SolverConfig(max_iterations=1500)

    def test_random_geometries(self):
        outcomes = set()
        for seed in range(200):
            rng, ranges, g, u = _random_problem(seed)
            inits = {
                "ls": ls_grid_init(ranges, g, u, 75.0),
                "proposed": difference_grid_init(ranges, g, u, 75.0),
            }
            inits["irls"] = inits["ls"] if seed % 3 else centroid_init(g, u)
            for method in _SOLVES:
                result = _assert_matches_reference(method, ranges, g, u, self.CONFIG,
                                                   inits[method])
                outcomes.add((method, result.converged))
            x = rng.uniform(-75.0, 75.0, 2)
            w = rng.uniform(0.1, 1.0, len(u))
            for value_grad, ref in (
                (ls_value_grad(x, ranges, g, u), _ref_ls_value_grad(x, ranges, g, u)),
                (ls_value_grad(x, ranges, g, u, w), _ref_ls_value_grad(x, ranges, g, u, w)),
                (difference_value_grad(x, ranges, g, u), _ref_difference_value_grad(x, ranges, g, u)),
            ):
                assert value_grad[0] == ref[0]
                assert np.array_equal(value_grad[1], ref[1])
            assert np.array_equal(residuals(ranges, g, u, x), _ref_residuals(ranges, g, u, x))
        # Both stop paths of the grid-initialized solves occurred: converged
        # and, for the least-squares pair, the best iterate at the cap.
        assert {("ls", False), ("irls", False), ("proposed", True)} <= outcomes

    @pytest.mark.parametrize("method", sorted(_SOLVES))
    def test_iteration_cap_returns_best_iterate(self, method):
        config = SolverConfig(max_iterations=5)
        grid_init = difference_grid_init if method == "proposed" else ls_grid_init
        capped = 0
        for seed in range(20):
            _, ranges, g, u = _random_problem(seed)
            for x0 in (centroid_init(g, u), grid_init(ranges, g, u, 75.0)):
                result = _assert_matches_reference(method, ranges, g, u, config, x0)
                assert result.iterations <= 5
                capped += result.iterations == 5 and not result.converged
        assert capped >= 10

    @pytest.mark.parametrize("method", sorted(_SOLVES))
    def test_init_on_a_node(self, method):
        for seed in range(20):
            _, ranges, g, u = _random_problem(seed)
            node = (g if seed % 2 else u)[seed % 2]
            _assert_matches_reference(method, ranges, g, u, self.CONFIG, node.copy())

    @pytest.mark.parametrize("method", sorted(_SOLVES))
    def test_huge_step_diverges(self, method):
        config = SolverConfig(ls_step=1e4, irls_step=1e4, proposed_step=1e4, max_iterations=200)
        for seed in range(20):
            _, ranges, g, u = _random_problem(seed)
            result = _assert_matches_reference(method, ranges, g, u, config, centroid_init(g, u))
            assert not result.converged

    @pytest.mark.parametrize("method", sorted(_SOLVES))
    def test_nan_measurement_stops_at_first_step(self, method):
        for seed in range(5):
            _, ranges, g, u = _random_problem(seed)
            ranges = ranges.copy()
            ranges[0, 1] = np.nan
            result = _assert_matches_reference(method, ranges, g, u, self.CONFIG,
                                               centroid_init(g, u))
            assert not result.converged and result.iterations == 1

    def test_all_weights_zero_stops_irls(self):
        config = SolverConfig(e_max=1e-9)
        for seed in range(20):
            _, ranges, g, u = _random_problem(seed)
            result = _assert_matches_reference("irls", ranges, g, u, config, centroid_init(g, u))
            assert not result.converged and result.iterations == 1
            assert np.array_equal(result.ue_weights, np.full(len(u), 1.0 / len(u)))


def test_grid_inits_match_norm_reference():
    for seed in range(200):
        _, ranges, g, u = _random_problem(seed)
        axis = np.linspace(-75.0, 75.0, 20)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        dist_g = np.linalg.norm(pts[:, None, :] - g[None, :, :], axis=2)
        dist_u = np.linalg.norm(pts[:, None, :] - u[None, :, :], axis=2)
        res = ranges[None, :, :] - (dist_g[:, :, None] + dist_u[:, None, :])
        ref_ls = pts[int(np.argmin(np.einsum("psk,psk->p", res, res)))]
        ig, jg = np.triu_indices(len(g), k=1)
        iu, ju = np.triu_indices(len(u), k=1)
        res_g = (ranges[jg] - ranges[ig])[None] - (dist_g[:, jg] - dist_g[:, ig])[:, :, None]
        res_u = (ranges[:, iu] - ranges[:, ju])[None] - (dist_u[:, iu] - dist_u[:, ju])[:, None, :]
        values = np.einsum("pik,pik->p", res_g, res_g) + np.einsum("psi,psi->p", res_u, res_u)
        ref_df = pts[int(np.argmin(values))]
        _, dist = _grid_distances(np.vstack([g, u]), 75.0, 20)
        assert np.array_equal(dist, np.hstack([dist_g, dist_u]))
        assert np.array_equal(ls_grid_init(ranges, g, u, 75.0), ref_ls)
        assert np.array_equal(difference_grid_init(ranges, g, u, 75.0), ref_df)
