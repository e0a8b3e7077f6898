"""Multistatic OFDM sensing simulator and robust passive-target localization.

The package covers the full chain: comb-structured reference-signal grids,
a symbol-domain multistatic echo channel, periodogram bistatic ranging,
random scenario synthesis with blocked-link range biases, least-squares /
reweighted / pair-differencing position solvers with fusion, and a Monte
Carlo harness that aggregates error statistics.
"""

from .constants import SPEED_OF_LIGHT
from .errors import (
    ConfigurationError,
    InsufficientGeometryError,
    NoDetectionError,
    ScenarioError,
    UnderdeterminedError,
)
from .harness import (
    METHODS,
    ExperimentConfig,
    ExperimentReport,
    TrialResult,
    emit_report,
    emit_sweep,
    ranging_check,
    run_experiment,
    run_sweep,
    run_trial,
)
from .phy_channel import (
    NoiseSpec,
    apply_channel,
    bistatic_delay,
    noise_variance_from_snr,
)
from .prs_grid import (
    OfdmConfig,
    PrsAllocation,
    ResourceGrid,
    build_grid,
    gold_sequence,
    prs_symbols,
)
from .ranging import (
    RangeEstimate,
    RangeProfile,
    comb_profiles,
    estimate_range,
    estimate_ranges,
    extract_and_divide,
    range_profile,
)
from .scenario import (
    MeasurementSet,
    Scenario,
    sample_scenario,
    scenario_from_json,
    scenario_to_json,
    synthesize_measurements_model,
    synthesize_measurements_phy,
    true_bistatic_ranges,
)
from .solvers import (
    LocalizationResult,
    SolverConfig,
    andrews_weight,
    centroid_init,
    difference_grid_init,
    difference_value_grad,
    fuse,
    ls_grid_init,
    ls_value_grad,
    pair_differences,
    residuals,
    solve_irls,
    solve_ls,
    solve_proposed,
)

__version__ = "0.1.0"
