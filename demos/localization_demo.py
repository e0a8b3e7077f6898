"""Compare the position solvers on one geometry with blocked links.

Six transmitters and six receivers measure bistatic ranges to one target.
Two receiver links and one transmitter link are blocked, adding several
meters of excess path to every measurement through them.  Plain least
squares absorbs the bias; the reweighted fit discounts the worst
receivers; the pair-differencing fit cancels each side's biases in the
opposite side's differences; the fused estimate combines the last two.
"""

import numpy as np

from isacloc import (
    OfdmConfig,
    Scenario,
    SolverConfig,
    fuse,
    sample_scenario,
    solve_irls,
    solve_ls,
    solve_proposed,
    synthesize_measurements_model,
)
from isacloc.solvers import difference_grid_init, ls_grid_init

base = sample_scenario(6, 6, outlier_max=0.0, rng_seed=8)
scenario = Scenario(
    gnb_positions=base.gnb_positions,
    ue_positions=base.ue_positions,
    target=base.target,
    link_excess_gnb=np.array([0.0, 0.0, 7.5, 0.0, 0.0, 0.0]),
    link_excess_ue=np.array([9.0, 0.0, 0.0, 0.0, 4.0, 0.0]),
    rng_seed=base.rng_seed,
)
config = OfdmConfig()
measurements = synthesize_measurements_model(scenario, config, np.random.default_rng(8))

print(f"target at ({scenario.target[0]:+.1f}, {scenario.target[1]:+.1f}) m")
print("blocked links: tx 2 (+7.5 m), rx 0 (+9.0 m), rx 4 (+4.0 m)")
print(f"measurements carry the link excesses plus uniform half-bin error "
      f"(+-{config.range_resolution / 2:.2f} m)\n")

solver_config = SolverConfig()
gnbs, ues = scenario.gnb_positions, scenario.ue_positions
init_ls = ls_grid_init(measurements, gnbs, ues, 75.0)
init_diff = difference_grid_init(measurements, gnbs, ues, 75.0)

ls = solve_ls(measurements, gnbs, ues, solver_config, init_ls)
irls = solve_irls(measurements, gnbs, ues, solver_config, init_ls)
proposed = solve_proposed(measurements, gnbs, ues, solver_config, init_diff)
fused, fused_converged = fuse(irls, proposed, solver_config)

print(f"{'method':>10} {'error (m)':>10} {'iterations':>11} {'converged':>10}")
for result in (ls, irls, proposed):
    err = np.linalg.norm(result.estimate - scenario.target)
    print(f"{result.method:>10} {err:>10.3f} {result.iterations:>11} {str(result.converged):>10}")
# The fused estimate is a rule over the last two solves, not a solve: no iterations of its own.
err = np.linalg.norm(fused - scenario.target)
print(f"{'fused':>10} {err:>10.3f} {'-':>11} {str(fused_converged):>10}")

print("\nreceiver weights found by the reweighted fit:")
for k, w in enumerate(irls.ue_weights):
    marker = "  <- blocked" if scenario.link_excess_ue[k] > 0 else ""
    print(f"  rx {k}: {w:.3f}{marker}")
print("\nthe worst receiver loses the most weight.  In the differencing fit,")
print("transmitter-pair differences cancel the receiver-side biases and")
print("receiver-pair differences cancel the transmitter-side bias, so each")
print("residual sees at most one side's excess; that is where its edge over")
print("the other two methods comes from.")
