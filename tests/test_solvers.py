import functools
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
from isacloc.scenario import MeasurementSet, true_bistatic_ranges
from isacloc.solvers import (
    STOP_REASONS,
    LocalizationResult,
    _andrews_reweight,
    _grid_distances,
    _layout,
    _weighted_objective,
    andrews_weight,
    linearized_covariance,
)

TIGHT = SolverConfig(irls_threshold=1e-6, proposed_threshold=1e-6)
ORIGIN = [0.0, 0.0]  # a start for solves that raise before they descend


def _node_mean(gnbs, ues):
    """Mean of all node positions, a start that is not a grid point."""
    return np.vstack([gnbs, ues]).mean(axis=0)


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
    ranges = np.asarray(ranges, float)
    evaluate = _weighted_objective(ranges, np.vstack([gnbs, ues]))[0]
    res = evaluate(*np.asarray(x, float).tolist())[0]
    return np.add.reduce(np.abs(res), 0) / ranges.shape[0]


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
    # 5e-324 and 1e-323 are positive, but e / E_MAX underflows to 0.
    # -5e-324 / E_MAX underflows to -0.0, which is not a weight of 1.
    EDGES = (0.0, 5e-324, 1e-323, 1e-300, E_MAX, float(np.nextafter(E_MAX, np.inf)),
             np.nan, np.inf, -5e-324, -1.0, -np.inf)

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
            self._assert_same_bits(rng.uniform(1e-6, 2.0 * self.E_MAX, (3, 4)), self.E_MAX)
        self._assert_same_bits(np.float64(3.0), self.E_MAX)
        self._assert_same_bits(np.array([]), self.E_MAX)

    @pytest.mark.parametrize("e_max", [0.0, -7.0, math.nan, math.inf])
    def test_bad_e_max_rejected(self, e_max):
        from isacloc import ConfigurationError

        for residual in (1.0, np.array([0.5, 1.0])):
            with pytest.raises(ConfigurationError, match="e_max"):
                andrews_weight(residual, e_max)


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


@pytest.mark.parametrize("weights", [[1.0], [1.0, 1.0, 1.0], np.ones((2, 2))])
def test_ls_value_grad_needs_one_weight_per_receiver(weights):
    sc, ranges = _problem(seed=8, num_gnbs=2, num_ues=2)
    with pytest.raises(ValueError, match="weights shape"):
        ls_value_grad([0.0, 0.0], ranges, sc.gnb_positions, sc.ue_positions, weights)


class TestSolveLs:
    def test_stays_at_truth(self):
        sc, ranges = _problem(seed=11)
        result = solve_ls(ranges, sc.gnb_positions, sc.ue_positions, TIGHT, init=sc.target)
        assert result.converged
        assert np.linalg.norm(result.estimate - sc.target) < 1e-9

    def test_recovers_truth_from_centroid(self):
        sc, ranges = _problem(seed=12)
        init = _node_mean(sc.gnb_positions, sc.ue_positions)
        result = solve_ls(ranges, sc.gnb_positions, sc.ue_positions, TIGHT, init=init)
        assert result.converged
        assert np.linalg.norm(result.estimate - sc.target) < 1e-3

    def test_underdetermined_rejected(self):
        with pytest.raises(UnderdeterminedError):
            solve_ls(np.ones((1, 2)), np.zeros((1, 2)), np.ones((2, 2)), SolverConfig(), ORIGIN)

    def test_accepts_measurement_set(self):
        sc, _ = _problem(seed=13)
        ms = true_bistatic_ranges(sc)
        g, u = sc.gnb_positions, sc.ue_positions
        result = solve_ls(ms, g, u, TIGHT, _node_mean(g, u))
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
            result = solve_irls(noisy, g, u, SolverConfig(), ls_grid_init(noisy, g, u, 75.0))
            assert result.ue_weights.shape == (6,)
            assert np.isclose(result.ue_weights.sum(), 1.0, atol=1e-12)
            assert ((result.ue_weights >= 0) & (result.ue_weights <= 1)).all()

    def test_degenerate_weights_reported_as_divergence(self):
        sc, ranges = _problem(seed=15)
        # All measurements wildly inflated: every residual exceeds e_max at
        # any sensible iterate, so every weight goes to zero.
        result = solve_irls(ranges + 1000.0, sc.gnb_positions, sc.ue_positions, SolverConfig(),
                            sc.target)
        assert not result.converged

    def test_requires_two_receivers(self):
        with pytest.raises(InsufficientGeometryError):
            solve_irls(np.ones((4, 1)), np.zeros((4, 2)), np.ones((1, 2)), SolverConfig(), ORIGIN)

    def test_underdetermined_rejected(self):
        with pytest.raises(UnderdeterminedError):
            solve_irls(np.ones((1, 2)), np.zeros((1, 2)), np.ones((2, 2)), SolverConfig(), ORIGIN)


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
            solve_proposed(np.ones((1, 4)), np.zeros((1, 2)), np.ones((4, 2)), SolverConfig(),
                           ORIGIN)
        with pytest.raises(InsufficientGeometryError):
            solve_proposed(np.ones((4, 1)), np.zeros((4, 2)), np.ones((1, 2)), SolverConfig(),
                           ORIGIN)


class TestFusion:
    def _results(self, converged_irls, converged_proposed=True):
        def result(estimate, converged, method):
            return LocalizationResult(estimate=np.array(estimate), iterations=10, method=method,
                                      stop_reason="converged" if converged else "max_iterations",
                                      evaluations=11)

        return (result([0.0, 0.0], converged_irls, "irls"),
                result([2.0, 2.0], converged_proposed, "proposed"))

    def _fuse(self, converged_irls, converged_proposed):
        """fuse's (estimate, flag), after checking the estimate is an array of its own."""
        irls, prop = self._results(converged_irls, converged_proposed)
        estimate, converged = fuse(irls, prop, SolverConfig())
        assert not np.shares_memory(estimate, irls.estimate)
        assert not np.shares_memory(estimate, prop.estimate)
        return estimate.tolist(), converged

    def test_even_weights_average(self):
        assert self._fuse(True, True) == ([1.0, 1.0], True)

    def test_irls_divergence_falls_back(self):
        assert self._fuse(False, True) == ([2.0, 2.0], True)

    def test_differencing_failure_stays_out(self):
        # Only the converged fit enters; with neither converged, the differencing
        # estimate is returned, not converged.
        assert self._fuse(True, False) == ([0.0, 0.0], True)
        assert self._fuse(False, False) == ([2.0, 2.0], False)

    def test_degenerate_weight_returns_irls(self):
        irls, prop = self._results(True)
        estimate, converged = fuse(irls, prop, SolverConfig(fusion_weight_irls=1.0))
        assert np.array_equal(estimate, [0.0, 0.0]) and converged

    def test_solve_fused_end_to_end(self):
        sc, ranges = _problem(seed=18)
        g, u, init = sc.gnb_positions, sc.ue_positions, sc.target + np.array([1.0, 1.0])
        irls = solve_irls(ranges, g, u, TIGHT, init)
        estimate, converged = fuse(irls, solve_proposed(ranges, g, u, TIGHT, init), TIGHT)
        assert converged
        assert np.linalg.norm(estimate - sc.target) < 1e-2


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
            solve_ls(ms, g, u, SolverConfig(), ls_grid_init(ms, g, u, 75.0), trace=trace_ls)
            solve_proposed(ms, g, u, SolverConfig(), difference_grid_init(ms, g, u, 75.0),
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


# Non-finite starts, then starts that are not one (2,) point.
@pytest.mark.parametrize("solver, init", [(solve_ls, [math.nan, 0.0]),
                                          (solve_irls, [math.inf, 0.0]),
                                          (solve_proposed, [math.inf, 0.0]),
                                          (solve_ls, [0.0, 0.0, 0.0]),
                                          (solve_irls, np.zeros(3)),
                                          (solve_proposed, np.zeros((1, 2))),
                                          (solve_ls, None)])
def test_non_finite_init_rejected(solver, init):
    sc, ranges = _problem(seed=21)
    with pytest.raises(ValueError, match="init must be finite"):
        solver(ranges, sc.gnb_positions, sc.ue_positions, SolverConfig(), init)


@pytest.mark.parametrize("grid_init", [ls_grid_init, difference_grid_init])
@pytest.mark.parametrize("half_extent", [math.nan, math.inf, 0.0, -75.0])
def test_grid_init_rejects_bad_half_extent(grid_init, half_extent):
    from isacloc import ConfigurationError

    sc, ranges = _problem(seed=22)
    with pytest.raises(ConfigurationError, match="half_extent"):
        grid_init(ranges, sc.gnb_positions, sc.ue_positions, half_extent)


def test_solver_config_validation():
    from isacloc import ConfigurationError

    with pytest.raises(ConfigurationError):
        SolverConfig(irls_step=0.0)
    # The Gauss-Newton solves take no step size, so there is no key for one.
    # The differencing weight is 1 - fusion_weight_irls, so there is no key for it.
    for retired in ({"ls_step": 0.01}, {"proposed_step": 0.001},
                    {"fusion_weight_proposed": 0.5}):
        with pytest.raises(TypeError, match="unexpected keyword"):
            SolverConfig(**retired)
    for weight in (1.5, -0.1):
        with pytest.raises(ConfigurationError, match="fusion_weight_irls"):
            SolverConfig(fusion_weight_irls=weight)
    with pytest.raises(ConfigurationError):
        SolverConfig(max_iterations=0)


@pytest.mark.parametrize("method", ["ls", "proposed"])
def test_error_matches_linearized_bound(method):
    """Without outliers each Gauss-Newton solve's error follows its linearized covariance.

    `linearized_covariance` gives sigma^2 A A^T, the first-order covariance of the
    estimate x + A n for link range errors n (Foy, IEEE TAES 1976; Kay, Fundamentals
    of Statistical Signal Processing vol. 1, ch. 3 and 8).  The model-mode range
    error is independent and uniform over one bin, so sigma^2 = bin^2 / 12.  Each
    trial's squared error over sigma^2 tr(A A^T) then has mean 1 and, for a Gaussian
    error, a variance between 1 and 2.  The mean over 2000 geometries must lie
    within 4 standard errors of 1, taking the larger variance 2.  A pair map of only
    the `plus` links, or M dropped from A, takes differencing out of the band; a J
    without its receiver legs takes both methods out.
    """
    from isacloc import OfdmConfig, synthesize_measurements_model

    ofdm = OfdmConfig(120e3, 792)
    variance = ofdm.range_resolution ** 2 / 12.0
    solve, grid_init = {"ls": (solve_ls, ls_grid_init),
                        "proposed": (solve_proposed, difference_grid_init)}[method]
    ratios = []
    for seed in range(2000):
        sc = sample_scenario(6, 6, outlier_max=0.0, rng_seed=seed)
        ms = synthesize_measurements_model(sc, ofdm, np.random.default_rng([seed, 1]))
        g, u = sc.gnb_positions, sc.ue_positions
        result = solve(ms, g, u, TIGHT, grid_init(ms, g, u, 75.0))
        covariance = linearized_covariance(method, g, u, sc.target, variance)
        error = result.estimate - sc.target
        ratios.append(error @ error / np.trace(covariance))
    assert abs(np.mean(ratios) - 1.0) <= 4.0 * math.sqrt(2.0 / len(ratios))


@pytest.mark.parametrize("method, ues, message", [
    ("ls", [[10.0, 40.0], [-30.0, math.nan]], "node positions must be finite"),
    ("irls", [[10.0, 40.0], [-30.0, 5.0]], "method must be 'ls' or 'proposed'"),
    ("proposed", [[10.0, 40.0]], "pair differencing needs"),
], ids=["non-finite-node", "unknown-method", "one-receiver"])
def test_linearized_covariance_refusals(method, ues, message):
    with pytest.raises(ValueError, match=message):
        linearized_covariance(method, [[0.0, 0.0], [50.0, 0.0]], ues, [5.0, 5.0], 1.0)


_ENTRY_POINTS = pytest.mark.parametrize("entry", [
    lambda r, g, u: ls_grid_init(r, g, u, 75.0),
    lambda r, g, u: difference_grid_init(r, g, u, 75.0),
    lambda r, g, u: ls_value_grad([0.0, 0.0], r, g, u),
    lambda r, g, u: difference_value_grad([0.0, 0.0], r, g, u),
    lambda r, g, u: solve_ls(r, g, u, SolverConfig(), ORIGIN),
    lambda r, g, u: solve_irls(r, g, u, SolverConfig(), ORIGIN),
    lambda r, g, u: solve_proposed(r, g, u, SolverConfig(), ORIGIN),
], ids=["ls_grid_init", "difference_grid_init", "ls_value_grad", "difference_value_grad",
        "solve_ls", "solve_irls", "solve_proposed"])


@_ENTRY_POINTS
def test_transposed_ranges_rejected(entry):
    sc, ranges = _problem(seed=23, num_gnbs=4, num_ues=6)
    with pytest.raises(ValueError, match=r"ranges shape \(6, 4\) does not match"):
        entry(ranges.T, sc.gnb_positions, sc.ue_positions)


@_ENTRY_POINTS
def test_non_finite_node_rejected(entry):
    sc, ranges = _problem(seed=23, num_gnbs=3, num_ues=3)
    for side, node, axis, value in (("ues", 1, 0, math.nan), ("gnbs", 2, 1, math.inf)):
        nodes = {"gnbs": sc.gnb_positions.copy(), "ues": sc.ue_positions.copy()}
        nodes[side][node, axis] = value
        with pytest.raises(ValueError, match="node positions must be finite"):
            entry(ranges, nodes["gnbs"], nodes["ues"])


def test_measurement_set_and_array_inputs_agree():
    sc, ranges = _problem(seed=22)
    ms = MeasurementSet(ranges=ranges)
    a = solve_ls(ms, sc.gnb_positions, sc.ue_positions, TIGHT, init=sc.target)
    b = solve_ls(ranges, sc.gnb_positions, sc.ue_positions, TIGHT, init=sc.target)
    assert np.array_equal(a.estimate, b.estimate)


# ---------------------------------------------------------------------------
# Exactness oracle: the hand-written fixed-step IRLS and damped Gauss-Newton
# loops and the per-objective value/gradient functions that the single
# driver replaced.  Every solve must reproduce its loop's estimates, flags,
# iteration counts, weights and traces bit for bit.  The least-squares and
# differencing solves are also held to the minimum of their objective
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


def _ref_andrews_weight(e, e_max):
    w = np.zeros(e.shape)
    t = e / e_max
    inside = (t > 0) & (e <= e_max)
    w[inside] = np.sin(t[inside]) / t[inside]
    w[(t == 0) & (e >= 0)] = 1.0  # also a positive e whose e / e_max underflows
    return w


def _ref_irls(ranges, gnbs, ues, config, x0, trace, iterates=None):
    """The fixed-step IRLS loop; `iterates` collects each iteration's (x, weights).

    Returns the estimate, the converged flag, the iteration count, the weights
    and the stop reason.
    """
    num_ues = ranges.shape[1]
    weights = np.full(num_ues, 1.0 / num_ues)
    x = np.array(x0, dtype=float)
    best_val, best_x, best_w = np.inf, x.copy(), weights.copy()
    reason = "max_iterations"
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        value, grad = _ref_ls_value_grad(x, ranges, gnbs, ues, weights)
        trace.append(value)
        if iterates is not None:
            iterates.append((x.copy(), weights.copy()))
        if value < best_val:
            best_val, best_x, best_w = value, x.copy(), weights.copy()
        x_new = x - config.irls_step * grad
        if not np.isfinite(x_new).all():
            reason = "non_finite"
            break
        if np.linalg.norm(x_new) > 1e6:
            reason = "diverged"
            break
        raw = _ref_andrews_weight(_ref_residuals(ranges, gnbs, ues, x_new), config.e_max)
        total = raw.sum()
        if total <= 0.0:
            reason = "weights_collapsed"
            break
        delta = np.linalg.norm(x_new - x)
        x, weights = x_new, raw / total
        if delta <= config.irls_threshold:
            return x, True, iterations, weights, "converged"
    return best_x, False, iterations, best_w, reason


def _ref_design(method, num_gnbs, num_ues):
    """The design of the residuals data - design @ d over the S+K node distances d.

    Least squares has one design row per (s, k), +1 at s and at k; differencing
    one per transmitter pair s < s' and receiver k (+1 at s', -1 at s) and one
    per transmitter s and receiver pair k < k' (+1 at k, -1 at k').
    """
    size = num_gnbs + num_ues
    rows = []
    if method == "ls":
        for s in range(num_gnbs):
            for k in range(num_ues):
                rows.append({s: 1.0, num_gnbs + k: 1.0})
    else:
        for a in range(num_gnbs):
            for b in range(a + 1, num_gnbs):
                rows.extend({b: 1.0, a: -1.0} for _ in range(num_ues))
        for _ in range(num_gnbs):
            for a in range(num_ues):
                for b in range(a + 1, num_ues):
                    rows.append({num_gnbs + a: 1.0, num_gnbs + b: -1.0})
    design = np.zeros((len(rows), size))
    for i, row in enumerate(rows):
        for j, entry in row.items():
            design[i, j] = entry
    return design


def _ref_gram(method, num_gnbs, num_ues):
    """design^T design; the entries are small integers, exact in any summation order."""
    design = _ref_design(method, num_gnbs, num_ues)
    return design.T @ design


def _ref_gauss_newton(method, ranges, gnbs, ues, config, x0, trace):
    """The damped Gauss-Newton loop with step halving, on the reference objectives.

    J^T J is units^T gram units; the 2 x 2 system (J^T J) delta = -grad / 2 is
    solved in closed form, with the gradient step -grad / (2 tr(J^T J)) when
    J^T J is near singular.  delta is halved, at most 52 times, until the
    objective does not rise; a zero J^T J or a rise that no halving stops is a
    stationary point, reported as converged.  Returns what `_ref_irls` returns,
    with no weights.
    """
    if method == "ls":
        value_grad, threshold = _ref_ls_value_grad, config.irls_threshold
    else:
        value_grad, threshold = _ref_difference_value_grad, config.proposed_threshold
    gram = _ref_gram(method, *ranges.shape)
    nodes = np.vstack([gnbs, ues])
    x = np.array(x0, dtype=float)
    value, grad = value_grad(x, ranges, gnbs, ues)
    best_val, best_x = np.inf, x.copy()
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        trace.append(value)
        if value < best_val:
            best_val, best_x = value, x.copy()
        units = _ref_distances_and_units(x, nodes)[1]
        (a, b), (_, d) = units.T.dot(gram.dot(units)).tolist()
        g0, g1 = (-0.5 * grad).tolist()
        det, tr = a * d - b * b, a + d
        if det > 1e-12 * tr * tr:
            delta = np.array([(d * g0 - b * g1) / det, (a * g1 - b * g0) / det])
        elif tr == 0.0:
            return x, True, iterations, None, "stationary"
        else:
            delta = np.array([g0 / tr, g1 / tr])
        for _ in range(52):
            x_new = x + delta
            new_value, new_grad = value_grad(x_new, ranges, gnbs, ues)
            if not new_value > value:
                break
            delta = 0.5 * delta
        else:
            return x, True, iterations, None, "stationary"
        if not np.isfinite(x_new).all():
            return best_x, False, iterations, None, "non_finite"
        if np.linalg.norm(x_new) > 1e6:
            return best_x, False, iterations, None, "diverged"
        move = np.linalg.norm(x_new - x)
        x, value, grad = x_new, new_value, new_grad
        if move <= threshold:
            return x, True, iterations, None, "converged"
    return best_x, False, iterations, None, "max_iterations"


@pytest.mark.parametrize("num_gnbs", range(1, 9))
def test_ls_design_product_equals_broadcast_residual(num_gnbs):
    """ranges - design @ d rounds to the (S, K) broadcast residual, bit for bit.

    Each LS design row has exactly two +1 entries and exact zeros elsewhere,
    so the product rounds once, to the float of d[s] + d[S+k], in any
    summation order.  The reweighted solve reads the product as an S x K
    table, and its floats rest on this.
    """
    rng = np.random.default_rng(40 + num_gnbs)
    for num_ues in range(1, 9):
        design = _layout("ls", num_gnbs, num_ues)[2]
        assert np.array_equal(design, _ref_design("ls", num_gnbs, num_ues))
        # The differencing rows that `linearized_covariance` maps onto, against the reference.
        if num_gnbs >= 2 and num_ues >= 2:
            pairs = _layout("proposed", num_gnbs, num_ues)[2]
            assert np.array_equal(pairs, _ref_design("proposed", num_gnbs, num_ues))
        for _ in range(250):
            dist = rng.uniform(0.0, 300.0, num_gnbs + num_ues) * 10.0 ** rng.uniform(-3, 3)
            link_sums = dist[:num_gnbs, None] + dist[num_gnbs:]
            # Data near the model as well as far from it, so the subtraction cancels.
            for ranges in (rng.uniform(0.0, 600.0, link_sums.shape),
                           link_sums + rng.uniform(-1.0, 1.0, link_sums.shape)):
                product = ranges.ravel() - design @ dist
                assert product.tobytes() == (ranges - link_sums).tobytes()


_SOLVES = {"ls": solve_ls, "irls": solve_irls, "proposed": solve_proposed}
_FIXED_STEP = ["irls"]  # the solves that still take a fixed gradient step
_REF_LOOPS = {"ls": functools.partial(_ref_gauss_newton, "ls"), "irls": _ref_irls,
              "proposed": functools.partial(_ref_gauss_newton, "proposed")}


def _random_problem(seed):
    """Random S x K geometry, 2..8 per side, with model-mode range errors."""
    from isacloc import OfdmConfig, synthesize_measurements_model

    rng = np.random.default_rng(seed)
    num_gnbs, num_ues = (int(n) for n in rng.integers(2, 9, size=2))
    sc = sample_scenario(num_gnbs, num_ues, outlier_max=float(rng.uniform(0.0, 14.0)),
                         rng_seed=seed)
    ms = synthesize_measurements_model(sc, OfdmConfig(120e3, 792), rng)
    return rng, ms.ranges, sc.gnb_positions, sc.ue_positions


# Gauss-Newton solves against their reference loop: estimates within
# ESTIMATE_M, objective values within VALUE_REL relative.  The library sums
# r . r and design^T r by BLAS, the loop by numpy's pairwise sums, so the
# two differ in the last bits; the largest gaps seen were 7.1e-14 m and
# 1e-13 relative.
ESTIMATE_M = 1e-9
VALUE_REL = 1e-10


def _assert_matches_reference(method, ranges, g, u, config, x0):
    """The solve reproduces its reference loop, traced and untraced.

    IRLS matches bit for bit; the Gauss-Newton solves take the same
    iterations and stop reasons, to ESTIMATE_M and VALUE_REL.  Untraced, the
    solve computes objective values only where its step or the best-iterate
    fallback of a solve that does not converge reads them, so both runs are
    compared.
    """
    trace, ref_trace = [], []
    ref_est, ref_conv, ref_iter, ref_w, ref_reason = _REF_LOOPS[method](ranges, g, u, config, x0,
                                                                        ref_trace)
    solve = _SOLVES[method]
    for result in (solve(ranges, g, u, config, init=x0, trace=trace),
                   solve(ranges, g, u, config, init=x0)):
        if method in _FIXED_STEP:
            assert np.array_equal(result.estimate, ref_est)
        else:
            assert np.allclose(result.estimate, ref_est, rtol=0.0, atol=ESTIMATE_M)
        assert result.converged == ref_conv
        assert result.iterations == ref_iter
        assert result.stop_reason == ref_reason
        if ref_w is None:
            assert result.ue_weights is None
        else:
            assert np.array_equal(result.ue_weights, ref_w)
    if method in _FIXED_STEP:
        assert np.array_equal(np.asarray(trace), np.asarray(ref_trace), equal_nan=True)
    else:
        assert len(trace) == len(ref_trace)
        assert np.allclose(trace, ref_trace, rtol=VALUE_REL, atol=0.0, equal_nan=True)
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
    result = _assert_matches_reference(method, ranges, g, u, config, x0)
    if method in _FIXED_STEP:
        return result
    return _assert_reaches_minimum(method, ranges, g, u, config, x0)


class TestDriverMatchesReferenceLoops:
    # Shortened so a solve that oscillates to the cap stays cheap for the
    # reference loops; the cap itself is exercised like any other stop.
    CONFIG = SolverConfig(max_iterations=1500)

    def test_random_geometries(self):
        """Each solve matches its loop; every Gauss-Newton solve converges to its minimum."""
        outcomes = set()
        for seed in range(200):
            rng, ranges, g, u = _random_problem(seed)
            inits = {
                "ls": ls_grid_init(ranges, g, u, 75.0),
                "proposed": difference_grid_init(ranges, g, u, 75.0),
            }
            inits["irls"] = inits["ls"] if seed % 3 else _node_mean(g, u)
            for method in _SOLVES:
                result = _check_solve(method, ranges, g, u, self.CONFIG, inits[method])
                outcomes.add((method, result.converged))
            x = rng.uniform(-75.0, 75.0, 2)
            w = rng.uniform(0.1, 1.0, len(u))
            value, grad = ls_value_grad(x, ranges, g, u, w)
            ref = _ref_ls_value_grad(x, ranges, g, u, w)
            assert value == ref[0] and np.array_equal(grad, ref[1])
            for value_grad, ref in (
                (ls_value_grad(x, ranges, g, u), _ref_ls_value_grad(x, ranges, g, u)),
                (difference_value_grad(x, ranges, g, u), _ref_difference_value_grad(x, ranges, g, u)),
            ):
                assert value_grad[0] == pytest.approx(ref[0], rel=VALUE_REL, abs=0.0)
                assert np.linalg.norm(value_grad[1] - ref[1]) <= VALUE_REL * np.linalg.norm(ref[1])
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
            for x0 in (_node_mean(g, u), grid_init(ranges, g, u, 75.0)):
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
            result = _assert_matches_reference(method, ranges, g, u, config, _node_mean(g, u))
            assert not result.converged

    @pytest.mark.parametrize("method", sorted(_SOLVES))
    def test_nan_measurement_stops_at_first_step(self, method):
        for seed in range(5):
            _, ranges, g, u = _random_problem(seed)
            ranges = ranges.copy()
            ranges[0, 1] = np.nan
            x0 = _node_mean(g, u)
            result = _assert_matches_reference(method, ranges, g, u, self.CONFIG, x0)
            if method not in _FIXED_STEP:
                trace = []
                _SOLVES[method](ranges, g, u, self.CONFIG, init=x0, trace=trace)
                assert np.array_equal(result.estimate, x0)
                assert len(trace) == 1 and math.isnan(trace[0])
            assert not result.converged and result.iterations == 1

    @pytest.mark.parametrize("method", sorted(set(_SOLVES) - set(_FIXED_STEP)))
    def test_collinear_geometry_takes_the_gradient_fallback(self, method):
        # Every node, the target and the start lie on the x-axis, so every
        # unit vector has a zero y-component and J^T J is exactly singular:
        # each Gauss-Newton step is the fallback -grad / (2 tr(J^T J)).
        g = np.array([[-60.0, 0.0], [40.0, 0.0]])
        u = np.array([[-30.0, 0.0], [70.0, 0.0]])
        target = np.array([10.0, 0.0])
        ranges = np.abs(g[:, :1] - target[0]) + np.abs(u[:, 0] - target[0])
        result = _check_solve(method, ranges, g, u, self.CONFIG, np.array([0.0, 0.0]))
        assert result.converged
        assert result.estimate[1] == 0.0
        assert abs(result.estimate[0] - target[0]) < 1e-6

    def test_zero_jacobian_is_a_stationary_point(self):
        # Every node lies on the x-axis and the start beyond all of them on
        # it, so each pair difference of distances is constant in x: every
        # row of the differencing Jacobian, and with it J^T J, is zero.
        g = np.array([[-60.0, 0.0], [40.0, 0.0]])
        u = np.array([[-30.0, 0.0], [70.0, 0.0]])
        result = _assert_matches_reference("proposed", np.full((2, 2), 100.0), g, u, self.CONFIG,
                                           np.array([100.0, 0.0]))
        assert result.converged and result.iterations == 1
        assert np.array_equal(result.estimate, [100.0, 0.0])

    def test_all_weights_zero_stops_irls(self):
        config = SolverConfig(e_max=1e-9)
        for seed in range(20):
            _, ranges, g, u = _random_problem(seed)
            result = _assert_matches_reference("irls", ranges, g, u, config, _node_mean(g, u))
            assert not result.converged and result.iterations == 1
            assert np.array_equal(result.ue_weights, np.full(len(u), 1.0 / len(u)))


class TestCappedIrls:
    """A fixed-step IRLS solve that never settles runs to the cap.

    The case is a real IRLS solve on an 8 x 8 geometry with up to 14 m of
    link excess that falls into an exact floating-point cycle, at a step
    at which its receiver weights change along the cycle.
    """

    CONFIG = SolverConfig(irls_step=0.08, max_iterations=1500)

    @staticmethod
    def _problem():
        from isacloc import OfdmConfig, synthesize_measurements_model

        rng = np.random.default_rng(24)
        sc = sample_scenario(8, 8, outlier_max=14.0, rng_seed=24)
        ms = synthesize_measurements_model(sc, OfdmConfig(120e3, 792), rng)
        g, u = sc.gnb_positions, sc.ue_positions
        return ms.ranges, g, u, ls_grid_init(ms.ranges, g, u, 75.0)

    def test_matches_reference_at_the_cap(self):
        ranges, g, u, x0 = self._problem()
        result = _assert_matches_reference("irls", ranges, g, u, self.CONFIG, x0)
        assert not result.converged and result.iterations == self.CONFIG.max_iterations

    def test_trace_counts_only_this_solve(self):
        ranges, g, u, x0 = self._problem()
        trace = [-1.0]  # a solve appends its own values to the list only
        solve_irls(ranges, g, u, self.CONFIG, init=x0, trace=trace)
        fresh = []
        solve_irls(ranges, g, u, self.CONFIG, init=x0, trace=fresh)
        assert trace == [-1.0] + fresh and len(fresh) == self.CONFIG.max_iterations


class TestStopReasons:
    """Each exit of the descent driver names its stop reason and counts its evaluations."""

    @staticmethod
    def _solve(method, config, x0=None, ranges=None):
        _, problem_ranges, g, u = _random_problem(3)
        ranges = problem_ranges if ranges is None else ranges
        x0 = ls_grid_init(problem_ranges, g, u, 75.0) if x0 is None else x0
        return _SOLVES[method](ranges, g, u, config, init=x0)

    @pytest.mark.parametrize("method", sorted(_SOLVES))
    def test_converged(self, method):
        result = self._solve(method, SolverConfig())
        assert result.converged and result.stop_reason == "converged"
        if method in _FIXED_STEP:  # the start and one evaluation per step
            assert result.evaluations == result.iterations + 1
        else:  # the start and at least one trial per step
            assert result.evaluations >= result.iterations + 1

    @pytest.mark.parametrize("method", sorted(_SOLVES))
    def test_max_iterations(self, method):
        result = self._solve(method, SolverConfig(max_iterations=1), x0=np.array([40.0, -30.0]))
        assert not result.converged and result.stop_reason == "max_iterations"
        assert result.iterations == 1

    def test_max_iterations_counts_fallback_evaluations(self):
        config = SolverConfig(max_iterations=5)
        for traced in (False, True):
            _, ranges, g, u = _random_problem(3)
            result = solve_irls(ranges, g, u, config, init=np.array([40.0, -30.0]),
                                trace=[] if traced else None)
            assert result.stop_reason == "max_iterations"
            # The start, one evaluation per step, and untraced one per fallback iterate.
            assert result.evaluations == 1 + 5 + (0 if traced else 5)

    def test_weights_collapsed(self):
        result = self._solve("irls", SolverConfig(e_max=1e-9))
        assert not result.converged and result.stop_reason == "weights_collapsed"
        assert result.iterations == 1

    def test_diverged(self):
        result = self._solve("irls", SolverConfig(), x0=np.array([1e7, 0.0]))
        assert not result.converged and result.stop_reason == "diverged"
        assert np.array_equal(result.estimate, [1e7, 0.0])

    @pytest.mark.parametrize("method", sorted(_SOLVES))
    def test_non_finite(self, method):
        _, ranges, _, _ = _random_problem(3)
        ranges = ranges.copy()
        ranges[0, 1] = np.nan
        result = self._solve(method, SolverConfig(), ranges=ranges)
        assert not result.converged and result.stop_reason == "non_finite"

    def test_stationary(self):
        g = np.array([[-60.0, 0.0], [40.0, 0.0]])
        u = np.array([[-30.0, 0.0], [70.0, 0.0]])
        result = solve_proposed(np.full((2, 2), 100.0), g, u, SolverConfig(), [100.0, 0.0])
        assert result.converged and result.stop_reason == "stationary"
        assert (result.iterations, result.evaluations) == (1, 1)
        # Collinear nodes and a start 1e-8 m off their axis: J^T J is singular
        # but not zero, so the gradient fallback steps 4e9 m, and the objective
        # still rises after all 52 halvings, at 1.8e-6 m.
        g = np.array([[-20.0, 0.0], [-40.0, 0.0]])
        u = np.array([[20.0, 0.0], [40.0, 0.0]])
        ranges = np.add.outer([20.0, 40.0], [20.0, 40.0]) + np.array([[-1.0, 0.0], [0.0, 1.0]])
        result = _check_solve("proposed", ranges, g, u, SolverConfig(), np.array([0.0, 1e-8]))
        assert result.converged and result.stop_reason == "stationary"
        assert (result.iterations, result.evaluations) == (1, 53)

    def test_reason_counts_agree_with_converged_flags(self, monkeypatch):
        from collections import Counter

        from isacloc import ExperimentConfig, harness, run_experiment

        results = {method: [] for method in _SOLVES}
        for method, solve in _SOLVES.items():
            def recording(*args, _solve=solve, _into=results[method]):
                _into.append(_solve(*args))
                return _into[-1]
            monkeypatch.setattr(harness, f"solve_{method}", recording)
        report = run_experiment(ExperimentConfig(trials=64))
        converged = {method: [r.stop_reason in ("converged", "stationary") for r in kept]
                     for method, kept in results.items()}
        assert converged["ls"] == report.converged["ls"]
        assert converged["irls"] == report.converged["irls"]
        assert [a or b for a, b in zip(converged["irls"], converged["proposed"])] \
            == report.converged["proposed"]
        for method, kept in results.items():
            counts = Counter(r.stop_reason for r in kept)
            assert set(counts) <= set(STOP_REASONS) and sum(counts.values()) == 64

    @pytest.mark.parametrize("reason", STOP_REASONS)
    def test_converged_is_read_from_the_stop_reason(self, reason):
        result = LocalizationResult(estimate=np.zeros(2), iterations=1, method="ls",
                                    stop_reason=reason, evaluations=1)
        assert result.converged is (reason in ("converged", "stationary"))

    def test_result_fields_are_keyword_only(self):
        # The old positional order (estimate, converged, iterations, method, ...) must not
        # bind to the new fields.
        with pytest.raises(TypeError):
            LocalizationResult(np.zeros(2), True, 1, "ls", None, "converged", 1)
        with pytest.raises(TypeError):
            LocalizationResult(estimate=np.zeros(2), converged=True, iterations=1, method="ls",
                               stop_reason="converged", evaluations=1)


def _reweight(res, e_max):
    """The IRLS reweight of residuals `res` (S, K), handed their column sums of r and |r|."""
    sums = np.stack([np.add.reduce(res, 0), np.add.reduce(np.abs(res), 0)])
    return _andrews_reweight(res.shape[0], e_max)((res, None, sums))


class TestAndrewsReweight:
    """The IRLS reweight gives the floats of the reference weights, normalized."""

    @staticmethod
    def _assert_same_bits(res, e_max):
        res = np.asarray(res, dtype=float)
        raw = _ref_andrews_weight(np.abs(res).mean(axis=0), e_max)
        total = raw.sum()
        weights = _reweight(res, e_max)
        if total <= 0.0:
            assert weights is None
        else:
            assert weights.tobytes() == (raw / total).tobytes()

    @pytest.mark.parametrize("e_max", [7.0, 1.0, 0.3, 1e-9])
    def test_edge_means_match_reference_bit_for_bit(self, e_max):
        # One transmitter, so each mean is the residual itself.
        above = float(np.nextafter(e_max, np.inf))
        edges = (0.0, 5e-324, e_max, above, float(np.nextafter(e_max, 0.0)), 3.5 * e_max,
                 1e250, np.nan, np.inf)
        inside = np.linspace(0.1, 0.9, 6) * e_max
        for edge in edges:
            for k in (0, 3, 5):
                vector = inside.copy()
                vector[k] = edge
                self._assert_same_bits(vector[None, :], e_max)
            self._assert_same_bits(np.full((1, 6), edge), e_max)
        self._assert_same_bits(np.array([[above, e_max, 2.0 * e_max, 0.5 * e_max]]), e_max)

    def test_next_float_above_e_max_is_rejected(self):
        # The fast path tells e > e_max from t = e / e_max > 1.
        rng = np.random.default_rng(31)
        for e_max in 10.0 ** rng.uniform(-6.0, 6.0, 500):
            above = float(np.nextafter(e_max, np.inf))
            weights = _reweight(np.array([[e_max, above]]), e_max)
            assert weights[1] == 0.0 and weights[0] == 1.0

    def test_random_residuals_match_reference_bit_for_bit(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            shape = tuple(int(n) for n in rng.integers(2, 9, size=2))
            self._assert_same_bits(rng.uniform(-12.0, 12.0, shape), 7.0)


class TestColumnSums:
    """The weighted objective's one reduction gives the per-receiver sums of r and |r|."""

    def test_one_pass_equals_separate_sums_bit_for_bit(self):
        rng = np.random.default_rng(33)
        for num_gnbs in range(1, 9):
            for num_ues in range(1, 9):
                nodes = rng.uniform(-50.0, 50.0, (num_gnbs + num_ues, 2))
                ranges = rng.uniform(-20.0, 120.0, (num_gnbs, num_ues))
                # NaN and infinite entries, so some columns sum to NaN or +-inf.
                count = min(3, ranges.size)
                picks = rng.choice(ranges.size, count, replace=False)
                ranges.flat[picks] = [np.nan, np.inf, -np.inf][:count]
                evaluate = _weighted_objective(ranges, nodes)[0]
                with np.errstate(invalid="ignore"):  # inf + -inf in a column
                    res, _, sums = evaluate(*rng.uniform(-30.0, 30.0, 2).tolist())
                    expected = res.sum(axis=0), np.abs(res).sum(axis=0)
                assert sums[0].tobytes() == expected[0].tobytes()
                assert sums[1].tobytes() == expected[1].tobytes()


class TestResultsOwnTheirArrays:
    """Solves write their evaluations into buffers; no result may alias one."""

    def test_results_keep_their_values_after_later_solves(self):
        kept = []
        for seed in range(20):
            _, ranges, g, u = _random_problem(seed)
            for method, solver in _SOLVES.items():
                # A cap of 5 leaves many IRLS solves unconverged, on the fallback path.
                config = SolverConfig(max_iterations=5 if method == "irls" else 100)
                result = solver(ranges, g, u, config, init=_node_mean(g, u))
                weights = None if result.ue_weights is None else result.ue_weights.copy()
                kept.append((result, result.estimate.copy(), weights))
        for result, estimate, weights in kept:
            assert np.array_equal(result.estimate, estimate)
            if weights is not None:
                assert np.array_equal(result.ue_weights, weights)

    def test_unconverged_estimate_is_one_of_its_iterates(self):
        config = SolverConfig(max_iterations=5)
        unconverged = 0
        for seed in range(20):
            _, ranges, g, u = _random_problem(seed)
            x0 = _node_mean(g, u)
            result = solve_irls(ranges, g, u, config, init=x0)
            if result.converged:
                continue
            unconverged += 1
            iterates = []
            _ref_irls(ranges, g, u, config, x0, [], iterates)
            assert any(np.array_equal(result.estimate, x) and np.array_equal(result.ue_weights, w)
                       for x, w in iterates)
        assert unconverged >= 5


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
