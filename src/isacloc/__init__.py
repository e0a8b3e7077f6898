"""Multistatic OFDM sensing simulator and robust passive-target localization.

The package covers the full chain: comb-structured reference-signal grids,
a symbol-domain multistatic echo channel on comb blocks, periodogram
bistatic ranging in three stages (divide, profile, peak) on those blocks,
random scenario synthesis with blocked-link range biases, least-squares /
reweighted / pair-differencing position solvers with fusion, and a Monte
Carlo harness that aggregates error statistics.

The root exports what the README, the demos and the command line use; the
rest of each module's public names are imported from the module itself.
"""

from .errors import (
    ConfigurationError,
    InsufficientGeometryError,
    NoDetectionError,
    ScenarioError,
    UnderdeterminedError,
)
from .harness import (
    ExperimentConfig,
    emit_report,
    emit_sweep,
    ranging_check,
    run_experiment,
    run_sweep,
)
from .phy_channel import NoiseSpec, apply_channel
from .prs_grid import OfdmConfig, PrsAllocation, build_grid, comb_symbols
from .ranging import estimate_range, extract_and_divide, range_profile
from .scenario import (
    Scenario,
    bistatic_delay,
    sample_scenario,
    synthesize_measurements_model,
    synthesize_measurements_phy,
)
from .solvers import (
    SolverConfig,
    difference_grid_init,
    difference_value_grad,
    fuse,
    ls_grid_init,
    ls_value_grad,
    pair_differences,
    solve_irls,
    solve_ls,
    solve_proposed,
)

__version__ = "0.1.0"
