import math

import numpy as np
import pytest
from scipy.optimize import least_squares

from isacloc import (
    InsufficientGeometryError,
    SolverConfig,
    UnderdeterminedError,
    difference_grid_init,
    difference_value_grad,
    fuse,
    ls_grid_init,
    ls_value_grad,
    pair_differences,
    sample_scenario,
    solve_irls,
    solve_ls,
    solve_proposed,
)
from isacloc import solvers
from isacloc.scenario import MeasurementSet, true_bistatic_ranges
from isacloc.solvers import (
    _grid_distances,
    _ls_evaluator,
    _mean_abs_residual,
    andrews_weight,
    centroid_init,
)

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


def _residuals(ranges, gnbs, ues, x):
    """Per-receiver mean absolute range residual at x, as the reweighting reads it."""
    evaluate = _ls_evaluator(np.asarray(ranges, float), np.vstack([gnbs, ues]))
    return _mean_abs_residual(evaluate(np.asarray(x, float))[0])


class TestResiduals:
    def test_zero_at_truth(self):
        sc, ranges = _problem(seed=1)
        e = _residuals(ranges, sc.gnb_positions, sc.ue_positions, sc.target)
        assert np.allclose(e, 0.0, atol=1e-9)

    def test_single_biased_measurement(self):
        sc, ranges = _problem(seed=2)
        biased = ranges.copy()
        biased[2, 3] += 5.0
        e = _residuals(biased, sc.gnb_positions, sc.ue_positions, sc.target)
        assert e[3] == pytest.approx(5.0 / 6.0)
        assert np.allclose(np.delete(e, 3), 0.0, atol=1e-9)

    def test_matches_loop_oracle(self, rng):
        sc, ranges = _problem(seed=3, outlier_max=8.0)
        x = rng.uniform(-50, 50, 2)
        e = _residuals(ranges, sc.gnb_positions, sc.ue_positions, x)
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

    E_MAX = 7.0
    EDGES = (0.0, 1e-300, E_MAX, float(np.nextafter(E_MAX, np.inf)), np.nan, np.inf)

    @staticmethod
    def _assert_same_bits(e, e_max):
        e = np.asarray(e, dtype=float)
        w = andrews_weight(e, e_max)
        ref = _ref_andrews_weight(e, e_max)
        if e.ndim == 0:
            assert type(w) is float
        assert np.asarray(w).shape == ref.shape
        assert np.asarray(w).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("edge", EDGES)
    def test_edge_values_match_reference_bit_for_bit(self, edge):
        self._assert_same_bits(edge, self.E_MAX)
        inside = np.array([0.5, 1.5, 2.5, 3.5, 4.5, 5.5])
        for k in (0, 3, 5):
            vector = inside.copy()
            vector[k] = edge
            self._assert_same_bits(vector, self.E_MAX)

    def test_vectors_match_reference_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            every_inside = rng.uniform(1e-6, self.E_MAX, 6)
            self._assert_same_bits(every_inside, self.E_MAX)
            one_beyond = every_inside.copy()
            one_beyond[rng.integers(6)] = rng.uniform(self.E_MAX, 40.0)
            self._assert_same_bits(one_beyond, self.E_MAX)
        self._assert_same_bits(np.float64(3.0), self.E_MAX)
        self._assert_same_bits(np.array([]), self.E_MAX)


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
        from isacloc.solvers import LocalizationResult

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
    # The Gauss-Newton solves take no step size: a non-default value is a dead knob.
    for unused in ({"ls_step": 0.02}, {"proposed_step": 0.004}):
        with pytest.raises(ConfigurationError, match="unused"):
            SolverConfig(**unused)
    with pytest.raises(ConfigurationError):
        SolverConfig(fusion_weight_irls=0.7, fusion_weight_proposed=0.7)
    with pytest.raises(ConfigurationError):
        SolverConfig(max_iterations=0)


def test_ls_error_matches_linearized_bound():
    """Without outliers the LS error follows the linearized covariance.

    To first order the LS estimate is x + (J^T J)^-1 J^T n, the small-error
    covariance of Taylor-series positioning (Foy, IEEE TAES 1976; Kay,
    Fundamentals of Statistical Signal Processing vol. 1, ch. 3 and 8), with
    J at the true target and n the model-mode range error, independent and
    uniform over one bin, so of variance bin^2 / 12.  Each trial's squared
    error over sigma^2 tr((J^T J)^-1) then has mean 1 and, for a Gaussian
    error, a variance between 1 and 2.  The mean over 2000 geometries must
    lie within 4 standard errors of 1, taking the larger variance 2.
    """
    from isacloc import OfdmConfig, synthesize_measurements_model

    ofdm = OfdmConfig(120e3, 792)
    variance = ofdm.range_resolution ** 2 / 12.0
    config = SolverConfig(irls_threshold=1e-6)
    ratios = []
    for seed in range(2000):
        sc = sample_scenario(6, 6, outlier_max=0.0, rng_seed=seed)
        ms = synthesize_measurements_model(sc, ofdm, np.random.default_rng([seed, 1]))
        g, u = sc.gnb_positions, sc.ue_positions
        result = solve_ls(ms, g, u, config, ls_grid_init(ms, g, u, 75.0))
        to_g, to_u = sc.target - g, sc.target - u
        jac = ((to_g / np.linalg.norm(to_g, axis=1)[:, None])[:, None, :]
               + (to_u / np.linalg.norm(to_u, axis=1)[:, None])[None, :, :]).reshape(-1, 2)
        error = result.estimate - sc.target
        ratios.append(error @ error / (variance * np.trace(np.linalg.inv(jac.T @ jac))))
    assert abs(np.mean(ratios) - 1.0) <= 4.0 * math.sqrt(2.0 / len(ratios))


def test_measurement_set_and_array_inputs_agree():
    sc, ranges = _problem(seed=22)
    ms = MeasurementSet(ranges=ranges)
    a = solve_ls(ms, sc.gnb_positions, sc.ue_positions, TIGHT, init=sc.target)
    b = solve_ls(ranges, sc.gnb_positions, sc.ue_positions, TIGHT, init=sc.target)
    assert np.array_equal(a.estimate, b.estimate)


# ---------------------------------------------------------------------------
# Exactness oracle: the hand-written fixed-step descent loops and the
# per-objective value/gradient functions that the single driver replaced.
# The IRLS solve must reproduce its loop's estimates, flags, iteration
# counts, weights and traces bit for bit, and every solve its loop's stop on
# a NaN measurement.  The least-squares and differencing solves take
# Gauss-Newton steps instead and are held to the minimum of their objective
# (stationarity oracle below).
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


def _ref_andrews_weight(e, e_max):
    w = np.zeros(e.shape)
    inside = (e > 0) & (e <= e_max)
    t = e[inside] / e_max
    w[inside] = np.sin(t) / t
    w[e == 0] = 1.0
    return w


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
        raw = _ref_andrews_weight(_ref_residuals(ranges, gnbs, ues, x_new), config.e_max)
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
_FIXED_STEP = ["irls"]  # the solves that still take a fixed gradient step


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


def _ref_residual_vector(method, x, ranges, gnbs, ues):
    """The residuals whose sum of squares each Gauss-Newton solve minimizes."""
    dist_g, _ = _ref_distances_and_units(x, gnbs)
    dist_u, _ = _ref_distances_and_units(x, ues)
    if method == "ls":
        return (ranges - (dist_g[:, None] + dist_u[None, :])).ravel()
    ig, jg = np.triu_indices(ranges.shape[0], k=1)
    iu, ju = np.triu_indices(ranges.shape[1], k=1)
    res_g = (ranges[jg, :] - ranges[ig, :]) - (dist_g[jg] - dist_g[ig])[:, None]
    res_u = (ranges[:, iu] - ranges[:, ju]) - (dist_u[iu] - dist_u[ju])[None, :]
    return np.concatenate([res_g.ravel(), res_u.ravel()])


# Stationarity band: three times the default 0.01 m stopping threshold.
STATIONARY_M = 0.03
_VALUES = {"ls": ls_value_grad, "proposed": difference_value_grad}


def _assert_reaches_minimum(method, ranges, g, u, config, x0):
    """Stationarity oracle for a Gauss-Newton solve.

    The objective trace never rises and the returned estimate has its lowest
    value.  A converged estimate lies within STATIONARY_M of the minimum that
    `scipy.optimize.least_squares` finds from the same start; a solve that
    does not converge has run to the cap.
    """
    trace = []
    result = _SOLVES[method](ranges, g, u, config, init=x0, trace=trace)
    assert len(trace) == result.iterations <= config.max_iterations
    assert (np.diff(trace) <= 0.0).all()
    assert np.isfinite(result.estimate).all()
    if result.converged:
        fit = least_squares(lambda x: _ref_residual_vector(method, x, ranges, g, u), x0,
                            xtol=1e-12, ftol=1e-12, gtol=1e-12)
        assert np.linalg.norm(result.estimate - fit.x) <= STATIONARY_M
    else:
        assert result.iterations == config.max_iterations
        assert _VALUES[method](result.estimate, ranges, g, u)[0] == min(trace)
    return result


def _check_solve(method, ranges, g, u, config, x0):
    if method in _FIXED_STEP:
        return _assert_matches_reference(method, ranges, g, u, config, x0)
    return _assert_reaches_minimum(method, ranges, g, u, config, x0)


class TestDriverMatchesReferenceLoops:
    # Shortened so a solve that oscillates to the cap stays cheap for the
    # reference loops; the cap itself is exercised like any other stop.
    CONFIG = SolverConfig(max_iterations=1500)

    def test_random_geometries(self):
        """IRLS matches its loop; every Gauss-Newton solve converges to its minimum."""
        outcomes = set()
        for seed in range(200):
            rng, ranges, g, u = _random_problem(seed)
            inits = {
                "ls": ls_grid_init(ranges, g, u, 75.0),
                "proposed": difference_grid_init(ranges, g, u, 75.0),
            }
            inits["irls"] = inits["ls"] if seed % 3 else centroid_init(g, u)
            for method in _SOLVES:
                result = _check_solve(method, ranges, g, u, self.CONFIG, inits[method])
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
            assert np.array_equal(_residuals(ranges, g, u, x), _ref_residuals(ranges, g, u, x))
        # Both stop paths of the fixed-step IRLS solve occurred, and every
        # Gauss-Newton solve converged.
        assert outcomes == {("ls", True), ("irls", True), ("irls", False), ("proposed", True)}

    @pytest.mark.parametrize("method", sorted(_SOLVES))
    def test_iteration_cap_returns_best_iterate(self, method):
        # A Gauss-Newton solve needs about four steps, so its cap is lower.
        cap = 5 if method in _FIXED_STEP else 2
        config = SolverConfig(max_iterations=cap)
        grid_init = difference_grid_init if method == "proposed" else ls_grid_init
        capped = 0
        for seed in range(20):
            _, ranges, g, u = _random_problem(seed)
            for x0 in (centroid_init(g, u), grid_init(ranges, g, u, 75.0)):
                result = _check_solve(method, ranges, g, u, config, x0)
                assert result.iterations <= cap
                capped += result.iterations == cap and not result.converged
        assert capped >= 10

    @pytest.mark.parametrize("method", sorted(_SOLVES))
    def test_init_on_a_node(self, method):
        for seed in range(20):
            _, ranges, g, u = _random_problem(seed)
            node = (g if seed % 2 else u)[seed % 2]
            result = _check_solve(method, ranges, g, u, self.CONFIG, node.copy())
            assert result.converged or method in _FIXED_STEP

    @pytest.mark.parametrize("method", _FIXED_STEP)
    def test_huge_step_diverges(self, method):
        config = SolverConfig(irls_step=1e4, max_iterations=200)
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


class TestCycleExit:
    """Fixed-step solves that fall into an exact floating-point cycle stop early.

    The case is a real IRLS solve on an 8 x 8 geometry with up to 14 m of
    link excess that revisits an earlier iterate bit for bit, and without the
    cycle exit runs all 10,000 iterations.  It uses a step at which its
    receiver weights change along the cycle.
    """

    CASES = {  # method: (seed, config)
        "irls": (24, SolverConfig(irls_step=0.08)),
    }

    @staticmethod
    def _problem(method, seed):
        from isacloc import OfdmConfig, synthesize_measurements_model

        rng = np.random.default_rng(seed)
        sc = sample_scenario(8, 8, outlier_max=14.0, rng_seed=seed)
        ms = synthesize_measurements_model(sc, OfdmConfig(120e3, 792), rng)
        g, u = sc.gnb_positions, sc.ue_positions
        grid_init = difference_grid_init if method == "proposed" else ls_grid_init
        return ms.ranges, g, u, grid_init(ms.ranges, g, u, 75.0)

    @pytest.mark.parametrize("method", sorted(CASES))
    def test_matches_reference_at_the_cap_in_few_evaluations(self, monkeypatch, method):
        seed, config = self.CASES[method]
        ranges, g, u, x0 = self._problem(method, seed)
        # Count the calls of the per-solve evaluator that the descent runs.
        name = "_difference_evaluator" if method == "proposed" else "_ls_evaluator"
        build, calls = getattr(solvers, name), []

        def counting_build(*args):
            evaluate = build(*args)
            return lambda x: calls.append(1) or evaluate(x)

        monkeypatch.setattr(solvers, name, counting_build)
        result = _assert_matches_reference(method, ranges, g, u, config, x0)
        assert not result.converged and result.iterations == config.max_iterations == 10_000
        assert 0 < len(calls) < 1_000

    def test_trace_padding_counts_only_this_solve(self):
        seed, config = self.CASES["irls"]
        ranges, g, u, x0 = self._problem("irls", seed)
        trace = [-1.0]
        solve_irls(ranges, g, u, config, init=x0, trace=trace)
        fresh = []
        solve_irls(ranges, g, u, config, init=x0, trace=fresh)
        assert trace == [-1.0] + fresh and len(fresh) == 10_000


def _assert_grid_inits_match_norm_reference(ranges, g, u, half_extent):
    """The grid inits pick the grid point of the residual-form objectives."""
    axis = np.linspace(-half_extent, half_extent, 20)
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
    _, dist = _grid_distances(np.vstack([g, u]), half_extent)
    assert np.array_equal(dist, np.hstack([dist_g, dist_u]))
    assert np.array_equal(ls_grid_init(ranges, g, u, half_extent), ref_ls)
    assert np.array_equal(difference_grid_init(ranges, g, u, half_extent), ref_df)


def test_grid_inits_match_norm_reference():
    for seed in range(200):
        _, ranges, g, u = _random_problem(seed)
        _assert_grid_inits_match_norm_reference(ranges, g, u, 75.0)


# The benchmark workload geometries, the phy one also in model mode (same
# regions and window, more trials), plus unequal node counts on either side.
_PHY_REGIONS = dict(gnb_region=60.0, ue_region=60.0, target_region=30.0)
_GRID_SETTINGS = {  # setting: (mode, trials, sample_scenario fields)
    "8x8-o14": ("model", 150, dict(num_gnbs=8, num_ues=8, outlier_max=14.0)),
    "phy-6x6": ("phy", 30, dict(num_gnbs=6, num_ues=6, outlier_max=10.0, **_PHY_REGIONS)),
    "phy-6x6-regions": ("model", 150, dict(num_gnbs=6, num_ues=6, outlier_max=10.0,
                                           **_PHY_REGIONS)),
    "3x7": ("model", 150, dict(num_gnbs=3, num_ues=7, outlier_max=10.0)),
    "7x3-phy-regions": ("model", 150, dict(num_gnbs=7, num_ues=3, outlier_max=10.0,
                                           **_PHY_REGIONS)),
}


@pytest.mark.parametrize("setting", sorted(_GRID_SETTINGS))
def test_grid_inits_match_norm_reference_on_workload_geometries(setting):
    from isacloc import (NoiseSpec, OfdmConfig, synthesize_measurements_model,
                         synthesize_measurements_phy)
    from isacloc.phy_channel import noise_variance_from_snr

    mode, trials, fields = _GRID_SETTINGS[setting]
    ofdm = OfdmConfig(120e3, 792)
    half_extent = fields.get("target_region", 150.0) / 2.0  # as the harness sets it
    for seed in range(trials):
        sc = sample_scenario(rng_seed=seed, **fields)
        if mode == "phy":
            ms = synthesize_measurements_phy(sc, ofdm, NoiseSpec(noise_variance_from_snr(10.0), seed))
        else:
            ms = synthesize_measurements_model(sc, ofdm, np.random.default_rng([seed, 1]))
        _assert_grid_inits_match_norm_reference(ms.ranges, sc.gnb_positions, sc.ue_positions,
                                                half_extent)
